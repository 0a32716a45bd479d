//! Level-1-style MOSFET evaluation with smooth subthreshold transition.
//!
//! The classic square-law model is augmented with a softplus overdrive so
//! that drain current and its derivatives are C¹-continuous across cutoff —
//! a well-known trick that keeps Newton iterations from chattering at region
//! boundaries. Source/drain symmetry (`vds < 0`) and PMOS polarity are
//! handled by the standard variable transformations, and the returned
//! small-signal parameters are the exact partial derivatives of the drain
//! current as stamped by MNA.

use crate::process::{MosModel, Polarity};

/// Softplus smoothing voltage (≈ 2·kT/q): sets the width of the
/// cutoff→strong-inversion transition.
const V_SMOOTH: f64 = 0.052;

/// Operating region of a MOSFET (reported for diagnostics; the current
/// equation itself is smooth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `vgs` below threshold — only the smoothed subthreshold tail conducts.
    Cutoff,
    /// `vds` below `vdsat`.
    Triode,
    /// `vds` at or above `vdsat`.
    Saturation,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Cutoff => write!(f, "cutoff"),
            Region::Triode => write!(f, "triode"),
            Region::Saturation => write!(f, "saturation"),
        }
    }
}

/// Full large- and small-signal evaluation of one MOSFET at a bias point.
///
/// `id` is the current flowing **into the drain terminal** as netlisted
/// (negative for conducting PMOS devices). `gm`, `gds`, `gmb` are the exact
/// partials `∂id/∂vgs`, `∂id/∂vds`, `∂id/∂vbs` — signed, ready for MNA
/// stamping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current into the drain terminal, A.
    pub id: f64,
    /// `∂id/∂vgs`, S.
    pub gm: f64,
    /// `∂id/∂vds`, S.
    pub gds: f64,
    /// `∂id/∂vbs` (body transconductance), S.
    pub gmb: f64,
    /// Threshold voltage (in the polarity-normalized domain), V.
    pub vth: f64,
    /// Effective (smoothed) overdrive voltage, V.
    pub vov: f64,
    /// Saturation voltage, V.
    pub vdsat: f64,
    /// Reported operating region.
    pub region: Region,
    /// Gate–source capacitance, F.
    pub cgs: f64,
    /// Gate–drain capacitance, F.
    pub cgd: f64,
    /// Gate–body capacitance, F.
    pub cgb: f64,
    /// Source–body junction capacitance, F.
    pub csb: f64,
    /// Drain–body junction capacitance, F.
    pub cdb: f64,
}

/// Softplus and its derivative, overflow-safe.
fn softplus(x: f64, scale: f64) -> (f64, f64) {
    let t = x / scale;
    if t > 40.0 {
        (x, 1.0)
    } else if t < -40.0 {
        let e = t.exp();
        (scale * e, e)
    } else {
        let e = t.exp();
        (scale * (1.0 + e).ln(), e / (1.0 + e))
    }
}

/// Evaluates the device model at the given terminal voltages.
///
/// `vgs`, `vds`, `vbs` are actual netlist voltage differences (gate−source,
/// drain−source, body−source); `w`, `l` the drawn dimensions in meters.
pub fn eval_mosfet(model: &MosModel, w: f64, l: f64, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    // Polarity normalization: PMOS is evaluated as an NMOS in the primed
    // domain (all voltages negated); currents negate back, conductances are
    // invariant under the double sign flip.
    let sign = match model.polarity {
        Polarity::Nmos => 1.0,
        Polarity::Pmos => -1.0,
    };
    let (vgs_p, vds_p, vbs_p) = (sign * vgs, sign * vds, sign * vbs);

    // Source/drain swap for reverse operation.
    let swapped = vds_p < 0.0;
    let (vgs_e, vds_e, vbs_e) = if swapped {
        (vgs_p - vds_p, -vds_p, vbs_p - vds_p)
    } else {
        (vgs_p, vds_p, vbs_p)
    };

    // Body effect (clamped for forward body bias; the clamp zeroes the
    // derivative so Newton sees a consistent Jacobian).
    let vsb_raw = -vbs_e;
    let clamp_lo = -model.phi * 0.5;
    let (vsb, dvsb) = if vsb_raw < clamp_lo {
        (clamp_lo, 0.0)
    } else {
        (vsb_raw, 1.0)
    };
    let sq_arg = model.phi + vsb;
    let (sq, dvth_dvbs) = if sq_arg <= 0.05 {
        (0.05_f64.sqrt(), 0.0)
    } else {
        let s = sq_arg.sqrt();
        (s, -model.gamma / (2.0 * s) * dvsb)
    };
    let vth = model.vto + model.gamma * (sq - model.phi.sqrt());

    let vov_raw = vgs_e - vth;
    let (vov, sig) = softplus(vov_raw, V_SMOOTH);
    let vdsat = vov;

    let leff = model.leff(l);
    let beta = model.kp * w / leff;
    let lambda = model.lambda(l);
    let clm = 1.0 + lambda * vds_e;

    // f_g = ∂id/∂vgs_e etc. in the normalized, possibly swapped domain.
    let (id_e, f_g, f_d) = if vds_e >= vdsat {
        let id = 0.5 * beta * vov * vov * clm;
        (id, beta * vov * sig * clm, 0.5 * beta * vov * vov * lambda)
    } else {
        let id = beta * (vov - 0.5 * vds_e) * vds_e * clm;
        let fg = beta * vds_e * sig * clm;
        let fd = beta * (vov - vds_e) * clm + beta * (vov - 0.5 * vds_e) * vds_e * lambda;
        (id, fg, fd)
    };
    // ∂id/∂vbs via the threshold: ∂id/∂vth = -f_g/sig·sig = -f_g (chain rule
    // through vov_raw), so f_b = -f_g·dvth/dvbs ≥ 0.
    let f_b = -f_g * dvth_dvbs;

    // Undo the source/drain swap on current and derivatives.
    let (id_p, gm_p, gds_p, gmb_p) = if swapped {
        (-id_e, -f_g, f_g + f_d + f_b, -f_b)
    } else {
        (id_e, f_g, f_d, f_b)
    };

    // Undo polarity: id flips, conductances are invariant.
    let id = sign * id_p;

    // Region (reported in the normalized domain).
    let region = if vov_raw < 0.0 {
        Region::Cutoff
    } else if vds_e < vdsat {
        Region::Triode
    } else {
        Region::Saturation
    };

    // Meyer-style capacitances in the (possibly swapped) domain.
    let cox_tot = model.cox * w * leff;
    let cov = model.cgso * w; // symmetric overlap
    let (cgs_e, cgd_e, cgb_e) = match region {
        Region::Cutoff => (cov, cov, cox_tot),
        Region::Triode => (0.5 * cox_tot + cov, 0.5 * cox_tot + cov, 0.0),
        Region::Saturation => (2.0 / 3.0 * cox_tot + cov, cov, 0.0),
    };
    let cj_area = model.cj * w * model.ldiff;
    let cj_perim = model.cjsw * (w + 2.0 * model.ldiff);
    let cjunc = cj_area + cj_perim;
    let (cgs, cgd) = if swapped {
        (cgd_e, cgs_e)
    } else {
        (cgs_e, cgd_e)
    };

    MosEval {
        id,
        gm: gm_p,
        gds: gds_p,
        gmb: gmb_p,
        vth,
        vov,
        vdsat,
        region,
        cgs,
        cgd,
        cgb: cgb_e,
        csb: cjunc,
        cdb: cjunc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;

    fn nmos() -> MosModel {
        Process::c025().nmos
    }

    fn pmos() -> MosModel {
        Process::c025().pmos
    }

    const W: f64 = 10e-6;
    const L: f64 = 0.5e-6;

    #[test]
    fn saturation_current_square_law() {
        let m = nmos();
        let e = eval_mosfet(&m, W, L, 1.0, 2.0, 0.0);
        assert_eq!(e.region, Region::Saturation);
        let beta = m.kp * W / m.leff(L);
        let vov = 1.0 - m.vto;
        let expected = 0.5 * beta * vov * vov * (1.0 + m.lambda(L) * 2.0);
        assert!(
            (e.id - expected).abs() < 0.02 * expected,
            "id {} vs square-law {}",
            e.id,
            expected
        );
        assert!(e.gm > 0.0 && e.gds > 0.0 && e.gmb > 0.0);
    }

    #[test]
    fn cutoff_leaks_negligibly() {
        let e = eval_mosfet(&nmos(), W, L, 0.0, 2.0, 0.0);
        assert_eq!(e.region, Region::Cutoff);
        assert!(e.id < 1e-9, "cutoff current too high: {}", e.id);
        assert!(e.id > 0.0, "softplus tail should keep id positive");
    }

    #[test]
    fn triode_region_detected() {
        let e = eval_mosfet(&nmos(), W, L, 2.0, 0.1, 0.0);
        assert_eq!(e.region, Region::Triode);
        // Rds in deep triode ≈ 1/(β·vov)
        let m = nmos();
        let beta = m.kp * W / m.leff(L);
        let vov = 2.0 - m.vto;
        let g_expected = beta * vov;
        assert!((e.gds - g_expected).abs() < 0.2 * g_expected);
    }

    /// The central correctness property: returned gm/gds/gmb must match
    /// finite differences of id across regions, polarities and vds signs.
    #[test]
    fn derivatives_match_finite_differences() {
        let cases = [
            (nmos(), 1.2, 1.8, 0.0),
            (nmos(), 0.9, 0.2, 0.0),
            (nmos(), 0.45, 1.0, 0.0), // near threshold
            (nmos(), 1.2, -0.8, 0.0), // reverse vds
            (nmos(), 1.0, 1.5, -0.5), // body effect
            (pmos(), -1.2, -1.8, 0.0),
            (pmos(), -0.9, -0.2, 0.0),
            (pmos(), -1.2, 0.8, 0.0), // reverse
            (pmos(), -1.0, -1.5, 0.5),
        ];
        let h = 1e-6;
        for (m, vgs, vds, vbs) in cases {
            let e = eval_mosfet(&m, W, L, vgs, vds, vbs);
            let dg = (eval_mosfet(&m, W, L, vgs + h, vds, vbs).id
                - eval_mosfet(&m, W, L, vgs - h, vds, vbs).id)
                / (2.0 * h);
            let dd = (eval_mosfet(&m, W, L, vgs, vds + h, vbs).id
                - eval_mosfet(&m, W, L, vgs, vds - h, vbs).id)
                / (2.0 * h);
            let db = (eval_mosfet(&m, W, L, vgs, vds, vbs + h).id
                - eval_mosfet(&m, W, L, vgs, vds, vbs - h).id)
                / (2.0 * h);
            let tol = 1e-7 + 1e-4 * dg.abs().max(dd.abs()).max(db.abs());
            assert!(
                (e.gm - dg).abs() < tol,
                "gm {} vs FD {} at {vgs},{vds},{vbs} {:?}",
                e.gm,
                dg,
                m.polarity
            );
            assert!(
                (e.gds - dd).abs() < tol,
                "gds {} vs FD {} at {vgs},{vds},{vbs} {:?}",
                e.gds,
                dd,
                m.polarity
            );
            assert!(
                (e.gmb - db).abs() < tol,
                "gmb {} vs FD {} at {vgs},{vds},{vbs} {:?}",
                e.gmb,
                db,
                m.polarity
            );
        }
    }

    #[test]
    fn current_continuous_across_vds_zero() {
        let m = nmos();
        let left = eval_mosfet(&m, W, L, 1.2, -1e-6, 0.0).id;
        let right = eval_mosfet(&m, W, L, 1.2, 1e-6, 0.0).id;
        // Odd symmetry: id(−ε) ≈ −id(+ε) up to the O(ε) body-effect
        // asymmetry inherent to level-1 in the swapped domain.
        assert!((left + right).abs() < 5e-6 * right.abs().max(1e-12));
        assert!(eval_mosfet(&m, W, L, 1.2, 0.0, 0.0).id.abs() < 1e-12);
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let p = pmos();
        let e = eval_mosfet(&p, W, L, -1.2, -2.0, 0.0);
        assert_eq!(e.region, Region::Saturation);
        assert!(e.id < 0.0, "conducting PMOS drain current must be negative");
        assert!(e.gm > 0.0 && e.gds > 0.0);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos();
        let e0 = eval_mosfet(&m, W, L, 1.0, 1.5, 0.0);
        let eb = eval_mosfet(&m, W, L, 1.0, 1.5, -1.0);
        assert!(eb.vth > e0.vth + 0.05, "vth {} vs {}", eb.vth, e0.vth);
        assert!(eb.id < e0.id);
    }

    #[test]
    fn intrinsic_gain_increases_with_length() {
        let m = nmos();
        let short = eval_mosfet(&m, W, 0.25e-6, 1.0, 1.5, 0.0);
        let long = eval_mosfet(&m, W, 1.0e-6, 1.0, 1.5, 0.0);
        assert!(long.gm / long.gds > 2.0 * short.gm / short.gds);
    }

    #[test]
    fn capacitances_positive_and_region_dependent() {
        let m = nmos();
        let sat = eval_mosfet(&m, W, L, 1.2, 2.0, 0.0);
        let tri = eval_mosfet(&m, W, L, 2.0, 0.05, 0.0);
        assert!(sat.cgs > sat.cgd, "saturation: cgs should dominate");
        assert!((tri.cgs - tri.cgd).abs() < 1e-18, "triode: symmetric split");
        for e in [sat, tri] {
            assert!(e.cgs > 0.0 && e.cgd > 0.0 && e.csb > 0.0 && e.cdb > 0.0);
        }
    }

    #[test]
    fn reverse_operation_swaps_capacitances() {
        let m = nmos();
        let fwd = eval_mosfet(&m, W, L, 1.5, 1.0, 0.0);
        let rev = eval_mosfet(&m, W, L, 1.5 - 1.0, -1.0, -1.0); // same physical bias, terminals swapped
        assert!((fwd.cgs - rev.cgd).abs() < 1e-18);
        assert!((fwd.id + rev.id).abs() < 1e-3 * fwd.id.abs());
    }
}
