//! Numeric transfer-function extraction by evaluation–interpolation.
//!
//! For transistor-level netlists, symbolic Mason expressions can swell; the
//! synthesis inner loop instead extracts the *numeric* rational transfer
//! function directly: the complex MNA matrix `Y(s)` is sampled at scaled
//! roots of unity `s_k = r·ω_m^k`, where `H(s_k)` comes from a linear solve
//! and `D(s_k) = det Y(s_k)` from LU; since both `N = H·D` and `D` are
//! polynomials of degree ≤ dim, one inverse DFT recovers their exact
//! coefficients. This is the paper's "formulating the numerical transfer
//! function" step, implemented without symbolic overhead.
//!
//! Conditioning note: the sample radius `r` should sit near the circuit's
//! pole cluster (geometric mean); roots many decades away from `r` lose
//! relative accuracy in the recovered coefficients. OTA-scale circuits with
//! poles spanning ~4 decades extract cleanly.

use crate::tf::Tf;
use crate::{SfgError, SfgResult};
use adc_numerics::complex::Complex;
use adc_numerics::fft::fft_in_place;
use adc_numerics::poly::Poly;
use adc_spice::linearize::{ComplexMnaWorkspace, SmallSignal, SolverChoice};
use adc_spice::netlist::{Circuit, NodeId};
use adc_spice::op::OperatingPoint;

/// Options for [`extract_tf`].
#[derive(Debug, Clone, Copy)]
pub struct NetTfOptions {
    /// Sample-circle radius in rad/s — place near the expected pole cluster.
    pub radius: f64,
    /// Relative threshold below which recovered coefficients are zeroed.
    pub trim_rel: f64,
}

impl Default for NetTfOptions {
    fn default() -> Self {
        NetTfOptions {
            radius: 1e8,
            trim_rel: 1e-9,
        }
    }
}

/// Reusable TF-extraction workspace: the circuit is linearized **once per
/// operating point** through the shared [`SmallSignal`] linearizer in
/// adc-spice (the same routine AC analysis stamps from, so the two can
/// never desynchronize); each of the `m` sample frequencies replays only
/// the `s`-dependent entries into the [`ComplexMnaWorkspace`] engine, and a
/// **single** factorization yields both `det Y(s)` (product of pivots) and
/// the solve. On OTA-sized testbenches the engine factors CSR-sparse with
/// a symbolic factorization reused across every sample and every retuned
/// candidate.
///
/// Reused across evaluations of the same testbench (the synthesis inner
/// loop), the matrices, factor buffers and sample vectors all persist.
#[derive(Debug, Default)]
pub struct NetTfWorkspace {
    ss: SmallSignal,
    engine: ComplexMnaWorkspace,
    /// Sample frequencies `r·ω_m^k` of the current extraction.
    s_samples: Vec<Complex>,
    /// Lane-major solutions of the batched solves (`m · dim`).
    xs: Vec<Complex>,
    /// `det Y(s_k)` per sample.
    dets: Vec<Complex>,
    num_samples: Vec<Complex>,
    den_samples: Vec<Complex>,
    /// FFT scratch for the inverse-DFT coefficient recovery.
    work: Vec<Complex>,
    /// Scratch flags for the determinant degree bound.
    row_flags: Vec<bool>,
}

impl NetTfWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        NetTfWorkspace::default()
    }

    /// Overrides the automatic sparse/dense engine selection
    /// (tests/diagnostics; production uses [`SolverChoice::Auto`]).
    pub fn set_solver(&mut self, choice: SolverChoice) {
        self.engine.set_solver(choice);
    }

    /// Whether the complex MNA engine currently factors sparse.
    pub fn is_sparse(&self) -> bool {
        self.engine.is_sparse()
    }

    /// Number of symbolic analyses performed so far (stays constant across
    /// value retuning of one topology — the reuse the synthesis loop relies
    /// on).
    pub fn symbolic_analyses(&self) -> usize {
        self.engine.symbolic_analyses()
    }

    /// (Re)binds the workspace to `circuit` linearized at `op`: rebuilds
    /// the index map and factor pattern only when the topology changed,
    /// then restamps the s-independent base and the capacitive entry list
    /// in place. No g_min is added — it would perturb the sampled
    /// determinant.
    fn bind(&mut self, circuit: &Circuit, op: &OperatingPoint) -> SfgResult<()> {
        let topo = self
            .ss
            .bind(circuit, op, 0.0)
            .map_err(|e| SfgError::BadCircuit(e.to_string()))?;
        // `engine.bind` also rebuilds when its storage is empty (fresh
        // workspace or just-cleared by set_solver), so `topo` only needs
        // to track circuit-side changes.
        self.engine.bind(&self.ss, topo);
        Ok(())
    }

    /// Upper bound on `deg det Y(s)`: every entry of `Y` is affine in `s`
    /// (`g + s·C`), and each term of the determinant expansion takes one
    /// entry per row, so the degree is capped by the number of rows that
    /// carry any `s`-dependent entry. Branch rows (sources) never do, which
    /// makes this bound much tighter than `dim` for amplifier testbenches —
    /// and the numerator (a Cramer determinant of the same matrix with a
    /// constant column substituted) obeys the same bound.
    fn degree_bound(&mut self, dim: usize) -> usize {
        self.row_flags.clear();
        self.row_flags.resize(dim, false);
        for &(i, _, _) in &self.ss.cap_entries {
            self.row_flags[i] = true;
        }
        self.row_flags.iter().filter(|f| **f).count()
    }
}

/// Recovers ascending polynomial coefficients from samples at `r·ω_m^k`,
/// using `work` as FFT scratch.
fn coeffs_from_samples(
    samples: &[Complex],
    work: &mut Vec<Complex>,
    radius: f64,
    trim_rel: f64,
) -> Poly {
    let m = samples.len();
    work.clear();
    work.extend_from_slice(samples);
    // Forward FFT gives m·(coefficient of r^j x^j).
    fft_in_place(work);
    // Trim in the radius-scaled domain, where every legitimate coefficient
    // is comparable to the sample magnitudes; circuit polynomials have
    // wildly scaled raw coefficients (G·G vs C·C), so trimming after the
    // r^j division would delete real high-order terms.
    let max = Complex::max_norm(work);
    let mut real = Vec::with_capacity(m);
    let mut rj = 1.0;
    for c in work.iter().take(m) {
        let v = if c.norm_lt(trim_rel * max) { 0.0 } else { c.re };
        real.push(v / (m as f64 * rj));
        rj *= radius;
    }
    Poly::new(real)
}

/// Extracts the numeric transfer function from the circuit's AC stimulus
/// (sources with nonzero `ac_mag`) to the voltage of `output`.
///
/// # Errors
/// [`SfgError::BadCircuit`] if the output is ground or a sample system is
/// singular; [`SfgError::SingularGraph`] if the denominator vanishes.
pub fn extract_tf(
    circuit: &Circuit,
    op: &OperatingPoint,
    output: NodeId,
    opts: &NetTfOptions,
) -> SfgResult<Tf> {
    let mut ws = NetTfWorkspace::new();
    extract_tf_with(&mut ws, circuit, op, output, opts)
}

/// [`extract_tf`] with a caller-owned reusable [`NetTfWorkspace`]: the
/// linearized base is restamped in place per operating point, each sample
/// frequency reuses the factor buffers, and one LU factorization per sample
/// provides both the determinant and the solve.
///
/// # Errors
/// Same contract as [`extract_tf`].
pub fn extract_tf_with(
    ws: &mut NetTfWorkspace,
    circuit: &Circuit,
    op: &OperatingPoint,
    output: NodeId,
    opts: &NetTfOptions,
) -> SfgResult<Tf> {
    ws.bind(circuit, op)?;
    let out_row = ws
        .ss
        .map()
        .node_row(output)
        .ok_or_else(|| SfgError::BadCircuit("output node is ground".into()))?;
    let dim = ws.ss.dim();
    // Degree of det Y(s) ≤ the capacitive-row bound (≤ dim); sample with
    // ≥ 2× margin, power of two.
    let deg = ws.degree_bound(dim).min(dim);
    let m = (2 * (deg + 2)).next_power_of_two();

    ws.num_samples.clear();
    ws.den_samples.clear();
    ws.num_samples.reserve(m);
    ws.den_samples.reserve(m);
    // Sample det Y(s) and the output solve at all m roots of unity through
    // the batched engine: chunks of up to MAX_LANES samples share a single
    // symbolic traversal and SoA factor workspace, with per-sample results
    // (and the demote-to-dense recovery ladder) bit-identical to a serial
    // factor/solve/det loop.
    ws.s_samples.clear();
    for k in 0..m {
        let theta = 2.0 * std::f64::consts::PI * k as f64 / m as f64;
        ws.s_samples.push(Complex::from_polar(opts.radius, theta));
    }
    ws.xs.clear();
    ws.xs.resize(m * dim, Complex::ZERO);
    ws.dets.clear();
    ws.dets.resize(m, Complex::ZERO);
    let singular_err = |k: usize| {
        SfgError::BadCircuit(format!(
            "singular MNA at sample {k} (radius {:.3e})",
            opts.radius
        ))
    };
    ws.engine
        .solve_det_batch(&ws.s_samples, &ws.ss, &ws.ss.b, &mut ws.xs, &mut ws.dets)
        .map_err(|(k, _)| singular_err(k))?;
    for k in 0..m {
        let det = ws.dets[k];
        if det.is_zero() {
            return Err(singular_err(k));
        }
        let h = ws.xs[k * dim + out_row];
        ws.num_samples.push(h * det);
        ws.den_samples.push(det);
    }

    // Normalize sample scale (in place) to keep the DFT well-conditioned.
    let dscale = Complex::max_norm(&ws.den_samples);
    if dscale == 0.0 {
        return Err(SfgError::SingularGraph);
    }
    let nscale = Complex::max_norm(&ws.num_samples).max(1e-300);
    ws.den_samples.iter_mut().for_each(|d| *d = *d / dscale);
    ws.num_samples.iter_mut().for_each(|n| *n = *n / nscale);

    let den = coeffs_from_samples(&ws.den_samples, &mut ws.work, opts.radius, opts.trim_rel);
    let num = coeffs_from_samples(&ws.num_samples, &mut ws.work, opts.radius, opts.trim_rel)
        .scale(nscale / dscale);
    if den.is_zero() {
        return Err(SfgError::SingularGraph);
    }
    Ok(Tf::new(num, den))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_spice::dc::{dc_operating_point, DcOptions};
    use adc_spice::netlist::Circuit;
    use adc_spice::process::Process;

    #[test]
    fn rc_lowpass_exact() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource_wave("V1", vin, Circuit::GROUND, 0.0.into(), 1.0);
        c.add_resistor("R1", vin, out, 1e3);
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let tf = extract_tf(
            &c,
            &op,
            out,
            &NetTfOptions {
                radius: 1e6,
                trim_rel: 1e-9,
            },
        )
        .unwrap()
        .cancel_common_roots(1e-6);
        assert!((tf.dc_gain() - 1.0).abs() < 1e-9);
        let poles = tf.poles();
        assert_eq!(poles.len(), 1, "poles: {poles:?}");
        assert!((poles[0].re + 1e6).abs() < 1.0, "pole {:?}", poles[0]);
    }

    #[test]
    fn common_source_matches_dpi_and_sweep() {
        let p = Process::c025();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_vsource_wave("VG", g, Circuit::GROUND, 0.8.into(), 1.0);
        c.add_resistor("RD", vdd, d, 10e3);
        c.add_capacitor("CL", d, Circuit::GROUND, 1e-12);
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            p.nmos,
            5e-6,
            0.5e-6,
        );
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let tf = extract_tf(
            &c,
            &op,
            d,
            &NetTfOptions {
                radius: 1e8,
                trim_rel: 1e-10,
            },
        )
        .unwrap();
        let dpi = crate::dpi::DpiSfg::build(&c, &op, g).unwrap();
        let tf_dpi = dpi.tf(d).unwrap();
        for f in [1e3, 1e6, 100e6, 1e9] {
            let a = tf.eval_at_freq(f);
            let b = tf_dpi.eval_at_freq(f);
            let err = (a - b).norm() / b.norm().max(1e-12);
            // Interpolation conditioning limits agreement to ~1e-5 here.
            assert!(err < 1e-4, "f = {f}: nettf {a} vs mason {b}");
        }
    }

    #[test]
    fn two_pole_macromodel_pole_recovery() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let n1 = c.node("n1");
        let out = c.node("out");
        c.add_vsource_wave("V1", vin, Circuit::GROUND, 0.0.into(), 1.0);
        c.add_vccs("Gm1", Circuit::GROUND, n1, vin, Circuit::GROUND, -1e-3);
        c.add_resistor("Ro1", n1, Circuit::GROUND, 100e3);
        c.add_capacitor("Cp1", n1, Circuit::GROUND, 1e-12); // pole at 1e7 rad/s
        c.add_vccs("Gm2", Circuit::GROUND, out, n1, Circuit::GROUND, -2e-3);
        c.add_resistor("Ro2", out, Circuit::GROUND, 10e3);
        c.add_capacitor("CL", out, Circuit::GROUND, 1e-12); // pole at 1e8 rad/s
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let tf = extract_tf(
            &c,
            &op,
            out,
            &NetTfOptions {
                radius: 3e7,
                trim_rel: 1e-10,
            },
        )
        .unwrap()
        .cancel_common_roots(1e-6);
        let mut poles: Vec<f64> = tf.poles().iter().map(|p| -p.re).collect();
        poles.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(poles.len(), 2, "{poles:?}");
        assert!((poles[0] - 1e7).abs() < 1e3, "{poles:?}");
        assert!((poles[1] - 1e8).abs() < 1e4, "{poles:?}");
        // A0 = (gm1 ro1)(gm2 ro2) = 100 · 20 = 2000.
        assert!((tf.dc_gain() - 2000.0).abs() < 0.1);
    }

    #[test]
    fn output_at_ground_rejected() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource_wave("V1", vin, Circuit::GROUND, 0.0.into(), 1.0);
        c.add_resistor("R1", vin, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!(extract_tf(&c, &op, Circuit::GROUND, &NetTfOptions::default()).is_err());
    }
}
