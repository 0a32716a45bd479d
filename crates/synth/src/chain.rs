//! Chain-level evaluation: DC + end-to-end transfer function of a
//! flattened multi-stage pipeline testbench through the same reusable
//! workspaces the hybrid OTA evaluator drives — at MNA dimensions in the
//! hundreds instead of the OTA testbenches' ~20.
//!
//! This is the first real workout for the sparse engine's Markowitz
//! ordering on ladder-shaped patterns: a pipeline couples each stage only
//! to its neighbours, so the frozen factor pattern stays near-linear in the
//! dimension and the auto-selection ([`adc_numerics::sparse::prefer_sparse`])
//! keeps the whole evaluation on the sparse path.
//!
//! Reported metrics are quantized onto a relative grid
//! ([`adc_numerics::quant::quantize_rel`]) a few orders above solver noise,
//! so a [`ChainReport`] is **bit-identical** whether the engines factored
//! sparse or dense — the solver-agnostic contract the chain verification
//! tests pin.

use crate::hybrid::BenchSetup;
use adc_numerics::complex::Complex;
use adc_numerics::quant::quantize_rel;
use adc_numerics::simd::MAX_LANES;
use adc_numerics::sparse::CsrPattern;
use adc_sfg::nettf::{extract_tf_with, NetTfOptions, NetTfWorkspace};
use adc_spice::dc::{dc_operating_point_with, DcOptions, DcWorkspace};
use adc_spice::linearize::{ComplexMnaWorkspace, SmallSignal, SolverChoice};
use adc_spice::mosfet::Region;

/// Upper limit for the unity-crossing and bandwidth searches, Hz.
const F_MAX: f64 = 50e9;

/// Significant decimal digits reported metrics are quantized to. The
/// sparse and dense engines agree to ~1e-9 relative; quantizing at 6
/// digits collapses that noise so reports are solver-agnostic bit for bit.
pub(crate) const REPORT_DIGITS: u32 = 6;

/// Options of a chain evaluation.
#[derive(Debug, Clone)]
pub struct ChainOptions {
    /// Frequency (Hz) at which the chain gain is probed — above every
    /// stage's servo/bias corner, below the closed-loop poles.
    pub f_probe: f64,
    /// DC solver options (chain testbenches supply nodesets and per-node
    /// damping through these).
    pub dc: DcOptions,
    /// TF-extraction options.
    pub nettf: NetTfOptions,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            f_probe: 1e6,
            dc: DcOptions::default(),
            nettf: NetTfOptions::default(),
        }
    }
}

/// Chain-level metrics of one evaluation (all frequency/gain/power values
/// quantized to six significant digits, so reports are solver-agnostic bit
/// for bit).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainReport {
    /// Supply power of the whole chain, W.
    pub power: f64,
    /// End-to-end gain magnitude at the probe frequency, from a direct
    /// factor+solve of `Y(j2πf)` (exact at any dimension).
    pub gain: f64,
    /// The same probe read from the extracted rational transfer function
    /// (interpolation-conditioned; recorded for cross-checking).
    pub tf_gain: f64,
    /// Unity-gain crossing of the end-to-end response, Hz (0 when none
    /// below `F_MAX`).
    pub unity_freq: f64,
    /// −3 dB closed-loop bandwidth relative to the probe gain, Hz (0 when
    /// none found below `F_MAX`).
    pub bw_3db: f64,
    /// Settling time constant `1/(2π·bw_3db)`, s (0 when no bandwidth).
    pub settle_tau: f64,
    /// Fraction of the listed devices in saturation.
    pub saturated: f64,
    /// MNA system dimension of the flattened chain.
    pub mna_dim: usize,
    /// Whether the DC Newton Jacobian factored sparse.
    pub dc_sparse: bool,
    /// Whether the complex small-signal engine factored sparse.
    pub tf_sparse: bool,
    /// Structural fill ratio of the small-signal pattern.
    pub fill_ratio: f64,
}

/// Reusable chain evaluator: persistent DC workspace, shared small-signal
/// linearizer + complex MNA engine for direct frequency-point solves, and a
/// [`NetTfWorkspace`] for the end-to-end rational TF. Across repeated
/// evaluations of one chain topology (retuned stage sizings), every index
/// map, pattern and symbolic factorization is reused.
pub struct ChainEvaluator {
    opts: ChainOptions,
    solver: SolverChoice,
    dc: Option<DcWorkspace>,
    ss: SmallSignal,
    engine: ComplexMnaWorkspace,
    tf: NetTfWorkspace,
    x: Vec<Complex>,
    /// Complex frequencies of the current speculative probe batch.
    s_list: Vec<Complex>,
    /// Lane-major solutions of the batched probe solves.
    xs: Vec<Complex>,
    /// Determinant scratch for the batched engine (unused by probing).
    dets: Vec<Complex>,
    /// Structural fill of the small-signal pattern, recomputed only when
    /// the bound topology changes.
    fill_ratio: f64,
}

impl ChainEvaluator {
    /// Creates the evaluator with automatic sparse/dense engine selection.
    pub fn new(opts: ChainOptions) -> Self {
        ChainEvaluator::with_solver(SolverChoice::Auto, opts)
    }

    /// [`ChainEvaluator::new`] with a forced solver engine (the dense
    /// override is the oracle the bit-identical-report tests compare
    /// against).
    pub fn with_solver(solver: SolverChoice, opts: ChainOptions) -> Self {
        let mut tf = NetTfWorkspace::new();
        tf.set_solver(solver);
        let mut engine = ComplexMnaWorkspace::new();
        engine.set_solver(solver);
        ChainEvaluator {
            opts,
            solver,
            dc: None,
            ss: SmallSignal::new(),
            engine,
            tf,
            x: Vec::new(),
            s_list: Vec::new(),
            xs: Vec::new(),
            dets: Vec::new(),
            fill_ratio: 0.0,
        }
    }

    /// `|H(j2πf)|` by direct factor+solve on the bound engine.
    fn probe_mag(&mut self, f: f64, out_row: usize) -> Result<f64, String> {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        self.engine
            .factor_at_or_demote(s, &self.ss)
            .map_err(|_| format!("singular Y(s) at {f} Hz"))?;
        self.engine.solve_into(&self.ss.b, &mut self.x);
        Ok(self.x[out_row].norm())
    }

    /// `|H(j2πf)|` at each frequency through one batched factor/solve
    /// ([`ComplexMnaWorkspace::solve_det_batch`], bit-identical values to
    /// per-point probes). Returns `false` when any point is singular —
    /// the caller then replays its walk serially so errors surface only
    /// for frequencies the serial search would actually visit.
    fn probe_mags_batch(&mut self, freqs: &[f64], out_row: usize, mags: &mut [f64]) -> bool {
        let dim = self.ss.dim();
        self.s_list.clear();
        self.s_list.extend(
            freqs
                .iter()
                .map(|&f| Complex::new(0.0, 2.0 * std::f64::consts::PI * f)),
        );
        self.xs.clear();
        self.xs.resize(freqs.len() * dim, Complex::ZERO);
        self.dets.clear();
        self.dets.resize(freqs.len(), Complex::ZERO);
        if self
            .engine
            .solve_det_batch(
                &self.s_list,
                &self.ss,
                &self.ss.b,
                &mut self.xs,
                &mut self.dets,
            )
            .is_err()
        {
            return false;
        }
        for (k, m) in mags.iter_mut().enumerate() {
            *m = self.xs[k * dim + out_row].norm();
        }
        true
    }

    /// Log-scan + bisection for the frequency in `[f_lo, F_MAX]` where
    /// `|H|` first drops below `target` (the response is low-pass beyond
    /// the probe). Returns `None` when it never does.
    ///
    /// Both phases run speculatively through the batched engine: the scan
    /// probes up to [`MAX_LANES`] doubling points per factor/solve, and
    /// the bisection probes whole sub-trees of geometric midpoints at
    /// once, then walks the comparisons in serial order. Midpoints nest
    /// bitwise (`(lo·hi).sqrt()` of the exact operands the serial loop
    /// would use) and batched solves are bit-identical to serial ones, so
    /// the `lo`/`hi` trajectory — and the returned crossing — matches the
    /// serial search exactly.
    fn crossing(&mut self, f_lo: f64, target: f64, out_row: usize) -> Result<Option<f64>, String> {
        let mut lo = f_lo;
        let mut hi = f_lo;
        let mut found = false;
        while !found && hi < F_MAX {
            // Next batch of doubling points; generation stops once a
            // point clamps to `F_MAX` (further points would repeat it).
            let mut pts = [0.0f64; MAX_LANES];
            let mut n = 0;
            let mut h = hi;
            while n < MAX_LANES && h < F_MAX {
                h = (h * 2.0).min(F_MAX);
                pts[n] = h;
                n += 1;
            }
            let mut mags = [0.0f64; MAX_LANES];
            if self.probe_mags_batch(&pts[..n], out_row, &mut mags[..n]) {
                for k in 0..n {
                    hi = pts[k];
                    if mags[k] < target {
                        found = true;
                        break;
                    }
                    lo = hi;
                }
            } else {
                // A speculative point was singular; redo this stretch
                // serially so any error is reported exactly as the
                // serial scan would (it may stop before that point).
                for &p in &pts[..n] {
                    hi = p;
                    if self.probe_mag(hi, out_row)? < target {
                        found = true;
                        break;
                    }
                    lo = hi;
                }
            }
        }
        if !found {
            return Ok(None);
        }
        // 50 bisection iterations as speculative multisection rounds: a
        // depth-3 round probes the serial midpoint, both possible next
        // midpoints and all four after that (7 points, one batched
        // solve), then consumes 3 serial comparisons walking the tree.
        // 50 = 16 depth-3 rounds + 1 depth-2 round.
        let mut iters = 50usize;
        while iters > 0 {
            let depth = iters.min(3);
            let count = (1usize << depth) - 1;
            // Heap-indexed midpoint tree over [lo, hi]: node `i` splits
            // its interval at `p[i]`, children 2i+1 / 2i+2 take the
            // lower / upper half.
            let (mut a, mut b, mut p) = ([0.0f64; 7], [0.0f64; 7], [0.0f64; 7]);
            a[0] = lo;
            b[0] = hi;
            for i in 0..count {
                p[i] = (a[i] * b[i]).sqrt();
                if 2 * i + 1 < count {
                    a[2 * i + 1] = a[i];
                    b[2 * i + 1] = p[i];
                    a[2 * i + 2] = p[i];
                    b[2 * i + 2] = b[i];
                }
            }
            let mut mags = [0.0f64; 7];
            if self.probe_mags_batch(&p[..count], out_row, &mut mags[..count]) {
                let mut i = 0;
                for _ in 0..depth {
                    let below = mags[i] < target;
                    if below {
                        hi = p[i];
                    } else {
                        lo = p[i];
                    }
                    i = if below { 2 * i + 1 } else { 2 * i + 2 };
                }
                iters -= depth;
            } else {
                // Singular speculative midpoint: finish serially (the
                // serial walk only ever probes on-path midpoints).
                for _ in 0..iters {
                    let mid = (lo * hi).sqrt();
                    if self.probe_mag(mid, out_row)? < target {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                iters = 0;
            }
        }
        Ok(Some((lo * hi).sqrt()))
    }

    /// Evaluates the chain testbench: DC operating point (power,
    /// saturation), direct-probe gain/bandwidth/unity metrics, and the
    /// extracted end-to-end TF — all through persistent workspaces.
    ///
    /// # Errors
    /// A human-readable reason (DC non-convergence, singular system,
    /// missing supply/devices).
    pub fn evaluate(&mut self, bench: &BenchSetup) -> Result<ChainReport, String> {
        // Leg 1: DC (the workspace rebuilds itself on a topology change).
        if self.dc.is_none() {
            self.dc = Some(
                DcWorkspace::with_solver(&bench.circuit, self.solver)
                    .map_err(|e| format!("DC: {e}"))?,
            );
        }
        let dc_ws = self.dc.as_mut().expect("workspace created above");
        let op = dc_operating_point_with(dc_ws, &bench.circuit, &self.opts.dc)
            .map_err(|e| format!("DC: {e}"))?;
        let power = op
            .source_power(&bench.circuit, &bench.supply)
            .ok_or_else(|| format!("no supply source {}", bench.supply))?;
        let mut saturated = 0usize;
        for name in &bench.devices {
            match op.mos_eval(name) {
                Some(ev) if ev.region == Region::Saturation => saturated += 1,
                Some(_) => {}
                None => return Err(format!("no such device {name}")),
            }
        }
        let saturated = if bench.devices.is_empty() {
            1.0
        } else {
            saturated as f64 / bench.devices.len() as f64
        };

        // Leg 2: small-signal bind (no g_min — shared with TF extraction).
        let topo = self
            .ss
            .bind(&bench.circuit, &op, 0.0)
            .map_err(|e| format!("bind: {e}"))?;
        self.engine.bind(&self.ss, topo);
        let dim = self.ss.dim();
        if self.x.len() != dim {
            self.x.resize(dim, Complex::ZERO);
        }
        let out_row = self
            .ss
            .map()
            .node_row(bench.output)
            .ok_or_else(|| "output node is ground".to_string())?;
        if topo || self.fill_ratio == 0.0 {
            let entries: Vec<(usize, usize)> = self
                .ss
                .base
                .iter()
                .chain(self.ss.cap_entries.iter())
                .map(|&(r, c, _)| (r, c))
                .collect();
            let (pattern, _) = CsrPattern::from_entries(dim, &entries);
            self.fill_ratio = pattern.fill_ratio();
        }
        let fill_ratio = self.fill_ratio;

        // Direct frequency probes: exact at any dimension.
        let gain = self.probe_mag(self.opts.f_probe, out_row)?;
        let bw_3db = self
            .crossing(self.opts.f_probe, gain / std::f64::consts::SQRT_2, out_row)?
            .unwrap_or(0.0);
        let unity_freq = if gain > 1.0 {
            self.crossing(self.opts.f_probe, 1.0, out_row)?
                .unwrap_or(0.0)
        } else {
            0.0
        };
        let settle_tau = if bw_3db > 0.0 {
            1.0 / (2.0 * std::f64::consts::PI * bw_3db)
        } else {
            0.0
        };

        // Leg 3: the end-to-end rational TF through the existing
        // extraction workspace.
        let tf = extract_tf_with(
            &mut self.tf,
            &bench.circuit,
            &op,
            bench.output,
            &self.opts.nettf,
        )
        .map_err(|e| format!("TF: {e}"))?;
        let tf_gain = tf.magnitude(self.opts.f_probe);

        let q = |v: f64| quantize_rel(v, REPORT_DIGITS);
        Ok(ChainReport {
            power: q(power),
            gain: q(gain),
            tf_gain: q(tf_gain),
            unity_freq: q(unity_freq),
            bw_3db: q(bw_3db),
            settle_tau: q(settle_tau),
            saturated,
            mna_dim: bench.circuit.mna_dim(),
            dc_sparse: self.dc.as_ref().is_some_and(DcWorkspace::is_sparse),
            tf_sparse: self.engine.is_sparse(),
            fill_ratio,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_spice::netlist::Circuit;

    /// N-stage macromodel chain: VCCS gain stages with RC inter-stage
    /// loading — the ladder shape of a pipeline without transistors.
    fn macro_chain(n: usize, gain_per_stage: f64) -> BenchSetup {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        c.add_resistor("RSUP", vdd, Circuit::GROUND, 3.3e3); // 1 mA burn
        let vin = c.node("in");
        c.add_vsource_wave("VIN", vin, Circuit::GROUND, 0.0.into(), 1.0);
        let mut prev = vin;
        for k in 0..n {
            let out = c.node(&format!("o{k}"));
            // gm into ro with C load: per-stage gain gm·ro.
            c.add_vccs(
                &format!("G{k}"),
                Circuit::GROUND,
                out,
                prev,
                Circuit::GROUND,
                -gain_per_stage / 10e3,
            );
            c.add_resistor(&format!("RO{k}"), out, Circuit::GROUND, 10e3);
            c.add_capacitor(&format!("CL{k}"), out, Circuit::GROUND, 0.2e-12);
            prev = out;
        }
        BenchSetup::new(c, prev, "VDD".into(), vec![])
    }

    #[test]
    fn macro_chain_gain_is_product_of_stages() {
        let mut ev = ChainEvaluator::new(ChainOptions {
            f_probe: 1e4,
            ..Default::default()
        });
        let report = ev.evaluate(&macro_chain(3, 4.0)).unwrap();
        assert!((report.gain - 64.0).abs() < 0.5, "gain {}", report.gain);
        assert!(
            (report.tf_gain - 64.0).abs() < 0.5,
            "tf gain {}",
            report.tf_gain
        );
        // Per-stage pole at 1/(2π·10k·0.2p) ≈ 80 MHz; three coincident
        // poles pull the −3 dB point down by √(2^{1/3}−1) ≈ 0.51.
        assert!(
            report.bw_3db > 20e6 && report.bw_3db < 80e6,
            "bw {}",
            report.bw_3db
        );
        assert!(report.unity_freq > report.bw_3db);
        assert!(report.settle_tau > 0.0);
        assert!((report.power - 3.3e-3).abs() < 1e-4);
        assert_eq!(report.saturated, 1.0);
    }

    #[test]
    fn sparse_and_dense_reports_are_bit_identical() {
        let bench = macro_chain(4, 3.0);
        let opts = || ChainOptions {
            f_probe: 1e4,
            ..Default::default()
        };
        let mut sparse = ChainEvaluator::with_solver(SolverChoice::Sparse, opts());
        let mut dense = ChainEvaluator::with_solver(SolverChoice::Dense, opts());
        let rs = sparse.evaluate(&bench).unwrap();
        let rd = dense.evaluate(&bench).unwrap();
        assert!(rs.tf_sparse && !rd.tf_sparse);
        assert_eq!(
            ChainReport {
                dc_sparse: rd.dc_sparse,
                tf_sparse: rd.tf_sparse,
                ..rs.clone()
            },
            rd,
            "quantized reports must not depend on the engine"
        );
    }

    #[test]
    fn workspaces_are_reused_across_evaluations() {
        let bench = macro_chain(3, 4.0);
        let mut ev = ChainEvaluator::new(ChainOptions {
            f_probe: 1e4,
            ..Default::default()
        });
        let a = ev.evaluate(&bench).unwrap();
        let analyses = ev.tf.symbolic_analyses();
        let b = ev.evaluate(&bench).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            ev.tf.symbolic_analyses(),
            analyses,
            "re-evaluating one topology must not re-analyze"
        );
    }

    /// The speculative batched `crossing` must reproduce the serial
    /// log-scan + 50-iteration bisection bit for bit (the raw, unquantized
    /// frequency), because batched probe magnitudes are bit-identical and
    /// multisection midpoints nest bitwise.
    #[test]
    fn speculative_crossing_matches_serial_search_bitwise() {
        let bench = macro_chain(4, 3.0);
        let mut ev = ChainEvaluator::new(ChainOptions {
            f_probe: 1e4,
            ..Default::default()
        });
        // Bind workspaces via one full evaluation, then compare raw
        // crossings on the bound engine.
        ev.evaluate(&bench).unwrap();
        let out_row = ev.ss.map().node_row(bench.output).unwrap();
        let gain = ev.probe_mag(ev.opts.f_probe, out_row).unwrap();
        for target in [gain / std::f64::consts::SQRT_2, 1.0] {
            let fast = ev.crossing(ev.opts.f_probe, target, out_row).unwrap();
            // Serial reference: the pre-speculation implementation.
            let (mut lo, mut hi) = (ev.opts.f_probe, ev.opts.f_probe);
            let mut found = false;
            while hi < F_MAX {
                hi = (hi * 2.0).min(F_MAX);
                if ev.probe_mag(hi, out_row).unwrap() < target {
                    found = true;
                    break;
                }
                lo = hi;
            }
            assert!(found);
            for _ in 0..50 {
                let mid = (lo * hi).sqrt();
                if ev.probe_mag(mid, out_row).unwrap() < target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let serial = (lo * hi).sqrt();
            assert_eq!(fast.unwrap().to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn low_gain_chain_has_no_unity_crossing() {
        let mut ev = ChainEvaluator::new(ChainOptions {
            f_probe: 1e4,
            ..Default::default()
        });
        let report = ev.evaluate(&macro_chain(1, 0.5)).unwrap();
        assert_eq!(report.unity_freq, 0.0);
        assert!(report.gain < 1.0);
    }
}
