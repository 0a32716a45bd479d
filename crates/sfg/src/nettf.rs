//! Numeric transfer-function extraction by evaluation–interpolation.
//!
//! For transistor-level netlists, symbolic Mason expressions can swell; the
//! synthesis inner loop instead extracts the *numeric* rational transfer
//! function directly: the complex MNA matrix `Y(s)` is sampled at `m`
//! points on a circle of radius `r`, where `H(s_k)` comes from a linear
//! solve and `D(s_k) = det Y(s_k)` from LU; since both `N = H·D` and `D`
//! are polynomials of degree ≤ `d` (the capacitive-row bound, ≤ dim), one
//! DFT recovers their coefficients. This is the paper's "formulating the
//! numerical transfer function" step, implemented without symbolic
//! overhead.
//!
//! The sample set: `m = (d + 1).next_power_of_two()` (at least 2), the
//! fewest points on a radix-2 grid that fix a polynomial of degree `d`,
//! with no margin over the bound. The points sit on the half-step grid
//! `s_k = r·e^{iπ(2k+1)/m}`, so none lies on the real axis and
//! `s_{m−1−k} = conj(s_k)`. Only the `m/2` points in the upper half-plane
//! are factored: `G` and `C` are real, so `Y(s̄) = conj(Y(s))`, and the
//! complex multiply, Smith division and pivot test the solvers use round
//! the same way under conjugation, so a solve at `s̄` would return the
//! exact conjugates of the solve at `s`, bit for bit
//! (`tests/conjugate_sampling.rs` pins this). The lower half is filled
//! with those conjugates. The DFT of the half-step samples carries a
//! rotation `e^{iπj/m}` on coefficient `j`, which the recovery takes off
//! again.
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
use std::f64::consts::PI;

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
/// never desynchronize); each of the `m/2` upper-half-plane sample points
/// replays only the `s`-dependent entries into the [`ComplexMnaWorkspace`]
/// engine, and a **single** factorization yields both `det Y(s)` (product
/// of pivots) and the solve; the other `m/2` samples are their exact
/// conjugates (module doc). On OTA-sized testbenches the engine factors
/// CSR-sparse with a symbolic factorization reused across every sample and
/// every retuned candidate.
///
/// Reused across evaluations of the same testbench (the synthesis inner
/// loop), the matrices, factor buffers and sample vectors all persist, and
/// the sample points and de-rotation factors are recomputed only when the
/// sample count or the radius changes, so an extraction does no
/// trigonometry besides the FFT's.
#[derive(Debug, Default)]
pub struct NetTfWorkspace {
    ss: SmallSignal,
    engine: ComplexMnaWorkspace,
    /// `(m, radius.to_bits())` that `s_half` and `derotate` were built for
    /// (`m` is at least 2, so the default never matches).
    grid: (usize, u64),
    /// The factored sample points `r·e^{iπ(2k+1)/m}`, `k < m/2`.
    s_half: Vec<Complex>,
    /// De-rotation factors `e^{−iπj/m}`, `j < m`.
    derotate: Vec<Complex>,
    /// Lane-major solutions of the batched solves (`m/2 · dim`).
    xs: Vec<Complex>,
    /// `det Y(s_k)` per factored sample.
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

    /// Builds the `m/2` factored sample points and the `m` de-rotation
    /// factors for an `m`-point extraction at `radius`, unless they are
    /// already built for exactly these values.
    fn set_grid(&mut self, m: usize, radius: f64) {
        if self.grid == (m, radius.to_bits()) {
            return;
        }
        self.grid = (m, radius.to_bits());
        self.s_half.clear();
        self.s_half.extend((0..m / 2).map(|k| {
            let theta = PI * (2 * k + 1) as f64 / m as f64;
            Complex::from_polar(radius, theta)
        }));
        self.derotate.clear();
        self.derotate
            .extend((0..m).map(|j| Complex::from_polar(1.0, -PI * j as f64 / m as f64)));
    }
}

/// Recovers ascending polynomial coefficients from samples at
/// `r·e^{iπ(2k+1)/m}`, `k < m`, using `work` as FFT scratch and
/// `derotate[j] = e^{−iπj/m}`.
fn coeffs_from_samples(
    samples: &[Complex],
    work: &mut Vec<Complex>,
    derotate: &[Complex],
    radius: f64,
    trim_rel: f64,
) -> Poly {
    let m = samples.len();
    work.clear();
    work.extend_from_slice(samples);
    // Forward FFT gives m·(coefficient of x^j)·(r·e^{iπ/m})^j.
    fft_in_place(work);
    // Trim in the radius-scaled domain, where every legitimate coefficient
    // is comparable to the sample magnitudes; circuit polynomials have
    // wildly scaled raw coefficients (G·G vs C·C), so trimming after the
    // r^j division would delete real high-order terms.
    let max = Complex::max_norm(work);
    let mut real = Vec::with_capacity(m);
    let mut rj = 1.0;
    for (c, &u) in work.iter().zip(derotate) {
        let v = if c.norm_lt(trim_rel * max) {
            0.0
        } else {
            (*c * u).re
        };
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
/// provides both the determinant and the solve. With `d` the
/// capacitive-row degree bound, it takes `m = (d + 1).next_power_of_two()`
/// samples (at least 2), no margin over the bound, and factors only the
/// `m/2` of them in the upper half-plane; the rest are their exact
/// conjugates (module doc).
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
    // Degree of det Y(s) ≤ the capacitive-row bound (≤ dim); m ≥ deg + 1
    // samples fix it, power of two.
    let deg = ws.degree_bound(dim).min(dim);
    let m = (deg + 1).next_power_of_two().max(2);
    let half = m / 2;
    ws.set_grid(m, opts.radius);

    // Sample det Y(s) and the output solve at the upper-half-plane points
    // through the batched engine: chunks of up to MAX_LANES samples share a
    // single symbolic traversal and SoA factor workspace, with per-sample
    // results (and the demote-to-dense recovery ladder) bit-identical to a
    // serial factor/solve/det loop.
    ws.xs.clear();
    ws.xs.resize(half * dim, Complex::ZERO);
    ws.dets.clear();
    ws.dets.resize(half, Complex::ZERO);
    let singular_err = |k: usize| {
        SfgError::BadCircuit(format!(
            "singular MNA at sample {k} (radius {:.3e})",
            opts.radius
        ))
    };
    ws.engine
        .solve_det_batch(&ws.s_half, &ws.ss, &ws.ss.b, &mut ws.xs, &mut ws.dets)
        .map_err(|(k, _)| singular_err(k))?;
    // Y(conj s) = conj Y(s), so sample m − 1 − k is the exact conjugate of
    // sample k.
    ws.num_samples.clear();
    ws.num_samples.resize(m, Complex::ZERO);
    ws.den_samples.clear();
    ws.den_samples.resize(m, Complex::ZERO);
    for k in 0..half {
        let det = ws.dets[k];
        if det.is_zero() {
            return Err(singular_err(k));
        }
        let h = ws.xs[k * dim + out_row];
        ws.num_samples[k] = h * det;
        ws.den_samples[k] = det;
        ws.num_samples[m - 1 - k] = ws.num_samples[k].conj();
        ws.den_samples[m - 1 - k] = det.conj();
    }

    // Normalize sample scale (in place) to keep the DFT well-conditioned.
    let dscale = Complex::max_norm(&ws.den_samples);
    if dscale == 0.0 {
        return Err(SfgError::SingularGraph);
    }
    let nscale = Complex::max_norm(&ws.num_samples).max(1e-300);
    ws.den_samples.iter_mut().for_each(|d| *d = *d / dscale);
    ws.num_samples.iter_mut().for_each(|n| *n = *n / nscale);

    let den = coeffs_from_samples(
        &ws.den_samples,
        &mut ws.work,
        &ws.derotate,
        opts.radius,
        opts.trim_rel,
    );
    let num = coeffs_from_samples(
        &ws.num_samples,
        &mut ws.work,
        &ws.derotate,
        opts.radius,
        opts.trim_rel,
    )
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
