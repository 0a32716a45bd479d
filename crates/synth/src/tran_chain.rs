//! Dynamic chain sign-off: runs a flattened pipeline testbench through
//! the clocked transient engine for N full φ1/φ2 periods and reports
//! per-stage settling against the ½-LSB bound, residue-transfer
//! accuracy and slew-limited intervals — the discrete-time leg the
//! small-signal [`crate::chain`] evaluation cannot see.
//!
//! The evaluator drives two runs at `mid_rail ± δ` and works on the
//! **differential** stage amplitudes `a_k = (v_k⁺ − v_k⁻)/2`, cancelling
//! the servo bias point so residue gains compare directly against the
//! ideal interstage gains. Neither run needs the other's result, so the
//! −δ leg runs on a scoped thread (own copy of the setup, own persistent
//! workspaces) while the +δ leg runs on the caller's thread; each run
//! records only the stage outputs the report reads.
//!
//! Like [`crate::chain::ChainReport`], every reported value is quantized
//! onto a relative grid a few orders above solver noise. The adaptive
//! stepper's LTE controller makes its accept/reject decisions on the same
//! quantized grid, so the sparse and dense engines walk identical step
//! sequences and a [`TranChainReport`] is bit-identical across engines.

use crate::chain::REPORT_DIGITS;
use adc_numerics::quant::quantize_rel;
use adc_spice::dc::{dc_operating_point_with, DcOptions, DcWorkspace};
use adc_spice::linearize::SolverChoice;
use adc_spice::netlist::{Circuit, ClockPhase, NodeId};
use adc_spice::tran::{
    transient_adaptive, transient_with, Clock, InitialCondition, TimeStepConfig, TranOptions,
    TranResult, TranWorkspace,
};
use adc_spice::waveform::Waveform;
use adc_spice::SpiceError;
use std::fmt;

/// A chain testbench prepared for clocked transient sign-off: the
/// flattened netlist plus the schedule/scale metadata the verifier needs
/// (the circuit-level builder lives in `adc-mdac`; this struct keeps the
/// evaluator decoupled from it, mirroring [`crate::hybrid::BenchSetup`]).
#[derive(Debug, Clone)]
pub struct TranChainSetup {
    /// Flattened chain netlist. The +δ leg rewrites its input drive in
    /// place (DC hold at `mid_rail + δ`), so after an evaluation it holds
    /// the +δ drive; the −δ leg drives a copy of the setup. Topology is
    /// never touched, so bound workspaces stay valid.
    pub circuit: Circuit,
    /// Name of the input voltage source.
    pub input_source: String,
    /// Per-stage output nodes, front to back.
    pub stage_outputs: Vec<NodeId>,
    /// Ideal interstage gain of each stage (`2^{m−1}`).
    pub stage_gains: Vec<f64>,
    /// Clock phase during which each stage amplifies (its output is valid
    /// at the end of this phase).
    pub stage_amplify: Vec<ClockPhase>,
    /// Two-phase clock driving the switches.
    pub clock: Clock,
    /// Common-mode level the input hold is centered on, V.
    pub mid_rail: f64,
    /// Converter full-scale range, V (sets the LSB).
    pub full_scale: f64,
    /// Total converter resolution, bits (sets the LSB).
    pub resolution: u32,
    /// DC solver options for the operating point seeding the transient
    /// initial condition (chain testbenches supply nodesets here).
    pub dc: DcOptions,
}

/// Options of a transient chain evaluation.
#[derive(Debug, Clone)]
pub struct TranChainOptions {
    /// Full clock periods to simulate (the last period is probed); at
    /// least 1.
    pub periods: usize,
    /// Differential drive amplitude δ around `mid_rail`, V: finite and
    /// positive. Small enough to keep every stage's residue in range
    /// without sub-ADC decisions.
    pub delta_v: f64,
    /// Tail fraction of the amplification window used for the settling
    /// error: `settle_err = |a(t_end) − a(t_end − tail·window)|`, in
    /// (0, 1].
    pub tail_frac: f64,
}

impl Default for TranChainOptions {
    fn default() -> Self {
        TranChainOptions {
            periods: 4,
            delta_v: 3e-3,
            tail_frac: 0.05,
        }
    }
}

impl TranChainOptions {
    /// Rejects settings under which a sign-off would pass without
    /// measuring anything: no simulated period to probe, a zero drive
    /// (every residue gain 0/0) or an empty settling tail (every settling
    /// error 0).
    ///
    /// # Errors
    /// The first offending setting, as a typed [`TranChainError`].
    fn validate(&self) -> Result<(), TranChainError> {
        if self.periods == 0 {
            return Err(TranChainError::NoPeriods);
        }
        if !(self.delta_v.is_finite() && self.delta_v > 0.0) {
            return Err(TranChainError::BadDelta(self.delta_v));
        }
        if !(self.tail_frac > 0.0 && self.tail_frac <= 1.0) {
            return Err(TranChainError::BadTailFrac(self.tail_frac));
        }
        Ok(())
    }
}

/// Why a transient chain evaluation produced no report.
#[derive(Debug, Clone, PartialEq)]
pub enum TranChainError {
    /// [`TranChainOptions::periods`] is 0.
    NoPeriods,
    /// [`TranChainOptions::delta_v`] is not a finite positive voltage.
    BadDelta(f64),
    /// [`TranChainOptions::tail_frac`] lies outside (0, 1].
    BadTailFrac(f64),
    /// The fixed-step oracle's step is not a finite positive time.
    BadStep(f64),
    /// The chain has no input source of this name.
    NoInputSource(String),
    /// A leg's operating point (or its DC workspace) failed.
    Dc(SpiceError),
    /// A leg's transient run (or its transient workspace) failed.
    Tran(SpiceError),
}

impl fmt::Display for TranChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranChainError::NoPeriods => write!(f, "options: periods must be at least 1"),
            TranChainError::BadDelta(v) => {
                write!(f, "options: delta_v {v} is not a finite positive voltage")
            }
            TranChainError::BadTailFrac(v) => write!(f, "options: tail_frac {v} outside (0, 1]"),
            TranChainError::BadStep(dt) => {
                write!(f, "options: fixed step {dt} is not a finite positive time")
            }
            TranChainError::NoInputSource(name) => write!(f, "no input source {name}"),
            TranChainError::Dc(e) => write!(f, "DC: {e}"),
            TranChainError::Tran(e) => write!(f, "tran: {e}"),
        }
    }
}

impl std::error::Error for TranChainError {}

/// Callers that report errors as text (the verify stage, benches) take a
/// sign-off failure through `?` unchanged.
impl From<TranChainError> for String {
    fn from(e: TranChainError) -> String {
        e.to_string()
    }
}

/// Per-stage dynamic metrics, probed over the stage's last amplification
/// window (all values quantized).
#[derive(Debug, Clone, PartialEq)]
pub struct TranStageReport {
    /// Differential amplitude `a_k` at the end of the window, V.
    pub amplitude: f64,
    /// Settling error over the window tail, V.
    pub settle_err: f64,
    /// ½ LSB referred to this stage's output (LSB scaled by the
    /// cumulative gain up to and including this stage), V.
    pub half_lsb: f64,
    /// `settle_err ≤ half_lsb` (compared on the quantized grid).
    pub settled: bool,
    /// Measured residue transfer `a_k / a_{k−1}` (stage 0: `a_0/δ`).
    pub residue_gain: f64,
    /// Ideal interstage gain `2^{m−1}`.
    pub ideal_gain: f64,
    /// Fraction of the window elapsed before the output entered (and
    /// stayed inside) the ±½-LSB band around its final value.
    pub settle_frac: f64,
    /// Peak differential slew rate inside the window, V/s.
    pub max_slew: f64,
    /// Fraction of the window spent above half the peak slew rate — the
    /// slew-limited interval.
    pub slew_frac: f64,
}

/// Chain-level transient sign-off report.
#[derive(Debug, Clone, PartialEq)]
pub struct TranChainReport {
    /// Per-stage metrics, front to back.
    pub stages: Vec<TranStageReport>,
    /// Every stage settled to ½ LSB by the end of its amplification phase.
    pub all_settled: bool,
    /// Accepted timesteps summed over both runs.
    pub accepted: usize,
    /// LTE-rejected timesteps summed over both runs.
    pub rejected: usize,
    /// Newton iterations summed over both runs.
    pub newton_iters: usize,
    /// Smallest accepted step across both runs, s (quantized).
    pub min_dt: f64,
    /// Whether both runs factored through the CSR engine (excluded from
    /// cross-engine report comparison, like `ChainReport::dc_sparse`).
    pub sparse: bool,
}

enum StepMode {
    Adaptive(TimeStepConfig),
    Fixed(f64),
}

/// Persistent workspaces of one drive leg: a [`DcWorkspace`] for the
/// operating point seeding each run and a [`TranWorkspace`] whose
/// companion-model sparsity pattern and symbolic factorization are reused
/// across runs and candidates of one chain topology.
#[derive(Default)]
struct Leg {
    dc: Option<DcWorkspace>,
    tran: Option<TranWorkspace>,
}

impl Leg {
    /// One transient run of `setup` with its input held at `hold` volts,
    /// recording the stage outputs only.
    fn run(
        &mut self,
        setup: &mut TranChainSetup,
        mode: &StepMode,
        hold: f64,
        chain: &TranChainOptions,
        solver: SolverChoice,
    ) -> Result<TranResult, TranChainError> {
        let (id, _) = setup
            .circuit
            .find_element(&setup.input_source)
            .ok_or_else(|| TranChainError::NoInputSource(setup.input_source.clone()))?;
        setup.circuit.set_waveform(id, Waveform::Dc(hold));

        // Each workspace rebuilds itself on a topology change.
        if self.dc.is_none() {
            self.dc =
                Some(DcWorkspace::with_solver(&setup.circuit, solver).map_err(TranChainError::Dc)?);
        }
        let dc_ws = self.dc.as_mut().expect("workspace created above");
        let op = dc_operating_point_with(dc_ws, &setup.circuit, &setup.dc)
            .map_err(TranChainError::Dc)?;

        let opts = TranOptions {
            tstop: chain.periods as f64 * setup.clock.period(),
            dt: match mode {
                StepMode::Fixed(dt) => *dt,
                StepMode::Adaptive(_) => setup.clock.period() / 512.0,
            },
            clock: Some(setup.clock),
            ic: InitialCondition::Voltages(op.voltages().to_vec()),
            probes: setup.stage_outputs.clone(),
            ..Default::default()
        };
        if self.tran.is_none() {
            self.tran = Some(
                TranWorkspace::with_solver(&setup.circuit, solver).map_err(TranChainError::Tran)?,
            );
        }
        let ws = self.tran.as_mut().expect("workspace created above");
        match mode {
            StepMode::Adaptive(cfg) => transient_adaptive(ws, &setup.circuit, &opts, cfg),
            StepMode::Fixed(_) => transient_with(ws, &setup.circuit, &opts),
        }
        .map_err(TranChainError::Tran)
    }
}

/// The caller's fault-injection scope stack, carried into the −δ leg's
/// thread so both legs' `dc_solve`/`tran_solve` sites are checked under
/// the scope the sign-off runs in (zero-sized without the `faults`
/// feature).
struct FaultScope {
    #[cfg(feature = "faults")]
    stack: Vec<String>,
}

impl FaultScope {
    fn capture() -> Self {
        FaultScope {
            #[cfg(feature = "faults")]
            stack: adc_numerics::faults::scope_stack(),
        }
    }

    /// Runs `f` under `<captured scope>/<leg>` on the current thread, so
    /// each leg's per-scope counters are its own whatever the thread
    /// interleaving.
    fn enter<T>(&self, leg: &str, f: impl FnOnce() -> T) -> T {
        #[cfg(feature = "faults")]
        {
            use adc_numerics::faults;
            faults::with_scope_stack(&self.stack, || faults::with_scope(leg, f))
        }
        #[cfg(not(feature = "faults"))]
        {
            let _ = leg;
            f()
        }
    }
}

/// Reusable transient chain evaluator: persistent workspaces for each of
/// the two drive legs, which run concurrently.
pub struct TranChainEvaluator {
    opts: TranChainOptions,
    solver: SolverChoice,
    /// Runs on the caller's thread.
    plus: Leg,
    /// Runs on a scoped thread of its own.
    minus: Leg,
}

impl TranChainEvaluator {
    /// Creates the evaluator with automatic sparse/dense engine selection.
    pub fn new(opts: TranChainOptions) -> Self {
        TranChainEvaluator::with_solver(SolverChoice::Auto, opts)
    }

    /// [`TranChainEvaluator::new`] with a forced solver engine (the dense
    /// override is the oracle the bit-identical-report tests compare
    /// against).
    pub fn with_solver(solver: SolverChoice, opts: TranChainOptions) -> Self {
        TranChainEvaluator {
            opts,
            solver,
            plus: Leg::default(),
            minus: Leg::default(),
        }
    }

    /// Runs the chain through `periods` clock periods with the adaptive
    /// stepper scaled to the setup's clock ([`TimeStepConfig::for_clock`])
    /// and reports per-stage settling, residue transfer and slew metrics.
    ///
    /// # Errors
    /// [`TranChainError`]: options that would sign off without measuring
    /// (checked before any run), a missing input source, or a leg's DC or
    /// transient failure (the +δ leg's is reported first).
    pub fn evaluate(
        &mut self,
        setup: &mut TranChainSetup,
    ) -> Result<TranChainReport, TranChainError> {
        self.opts.validate()?;
        let cfg = TimeStepConfig::for_clock(&setup.clock);
        self.run_pair(setup, &StepMode::Adaptive(cfg))
    }

    /// [`TranChainEvaluator::evaluate`] through the fixed-step oracle at
    /// step `dt` — the equal-accuracy baseline the adaptive stepper's step
    /// count is compared against.
    ///
    /// # Errors
    /// As [`TranChainEvaluator::evaluate`], plus
    /// [`TranChainError::BadStep`] unless `dt` is finite and positive.
    pub fn evaluate_fixed(
        &mut self,
        setup: &mut TranChainSetup,
        dt: f64,
    ) -> Result<TranChainReport, TranChainError> {
        self.opts.validate()?;
        if !(dt.is_finite() && dt > 0.0) {
            return Err(TranChainError::BadStep(dt));
        }
        self.run_pair(setup, &StepMode::Fixed(dt))
    }

    /// Two runs at `mid_rail ± δ` — the −δ leg on a scoped thread with its
    /// own copy of the setup, the +δ leg here — then the differential
    /// report. A leg's panic is re-raised here unchanged.
    fn run_pair(
        &mut self,
        setup: &mut TranChainSetup,
        mode: &StepMode,
    ) -> Result<TranChainReport, TranChainError> {
        let (opts, solver) = (&self.opts, self.solver);
        let (plus, minus) = (&mut self.plus, &mut self.minus);
        let mut minus_setup = setup.clone();
        let (hold_p, hold_m) = (setup.mid_rail + opts.delta_v, setup.mid_rail - opts.delta_v);
        let scope = FaultScope::capture();
        let (rp, rm) = std::thread::scope(|s| {
            let minus_leg = s.spawn(|| {
                scope.enter("tran-", || {
                    minus.run(&mut minus_setup, mode, hold_m, opts, solver)
                })
            });
            let rp = scope.enter("tran+", || plus.run(setup, mode, hold_p, opts, solver));
            let rm = minus_leg
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (rp, rm)
        });
        let (rp, rm) = (rp?, rm?);
        Ok(self.report(setup, &rp, &rm))
    }

    /// Differential stage metrics from the ± runs.
    fn report(&self, setup: &TranChainSetup, rp: &TranResult, rm: &TranResult) -> TranChainReport {
        let q = |v: f64| quantize_rel(v, REPORT_DIGITS);
        // Left-limited sampling: a stage's output snaps discontinuously
        // the instant its amplification switches open, and the fixed-step
        // oracle places no sample exactly on the edge — interpolating
        // across the snap would corrupt the phase-end measurement.
        let diff =
            |node: NodeId, t: f64| (rp.sample_before(node, t) - rm.sample_before(node, t)) / 2.0;
        let lsb = setup.full_scale / (1u64 << setup.resolution) as f64;
        let last = self.opts.periods - 1;

        let mut stages = Vec::with_capacity(setup.stage_outputs.len());
        let mut all_settled = true;
        let mut cum_gain = 1.0;
        let mut prev_amp = self.opts.delta_v;
        for (k, &out) in setup.stage_outputs.iter().enumerate() {
            cum_gain *= setup.stage_gains[k];
            let (t0, t1) = setup.clock.phase_window(last, setup.stage_amplify[k]);
            let window = t1 - t0;
            let amp = diff(out, t1);
            let settle_err = (amp - diff(out, t1 - self.opts.tail_frac * window)).abs();
            let half_lsb = 0.5 * lsb * cum_gain;

            // Walk the accepted samples inside the window for the slew
            // metrics and the time-to-band measure. Both engines walk
            // identical step sequences (quantized LTE control), so these
            // sample-based measures are engine-agnostic too.
            let times = rp.times();
            let lo = times.partition_point(|&t| t < t0);
            let hi = times.partition_point(|&t| t <= t1);
            let mut max_slew = 0.0f64;
            let mut entered = t0;
            let mut prev: Option<(f64, f64)> = None;
            for &t in &times[lo..hi] {
                let a = diff(out, t);
                if let Some((tp, ap)) = prev {
                    let slew = ((a - ap) / (t - tp)).abs();
                    max_slew = max_slew.max(slew);
                }
                if (a - amp).abs() > half_lsb {
                    entered = t;
                }
                prev = Some((t, a));
            }
            let mut slewing = 0.0;
            let mut prev2: Option<(f64, f64)> = None;
            for &t in &times[lo..hi] {
                let a = diff(out, t);
                if let Some((tp, ap)) = prev2 {
                    if ((a - ap) / (t - tp)).abs() >= 0.5 * max_slew {
                        slewing += t - tp;
                    }
                }
                prev2 = Some((t, a));
            }
            let (settle_err, half_lsb) = (q(settle_err), q(half_lsb));
            let settled = settle_err <= half_lsb;
            all_settled &= settled;
            stages.push(TranStageReport {
                amplitude: q(amp),
                settle_err,
                half_lsb,
                settled,
                residue_gain: q((amp / prev_amp).abs()),
                ideal_gain: q(setup.stage_gains[k]),
                settle_frac: q(((entered - t0) / window).max(0.0)),
                max_slew: q(max_slew),
                slew_frac: q(slewing / window),
            });
            prev_amp = amp;
        }
        let (sp, sm) = (rp.stats(), rm.stats());
        TranChainReport {
            stages,
            all_settled,
            accepted: sp.accepted + sm.accepted,
            rejected: sp.rejected + sm.rejected,
            newton_iters: sp.newton_iters + sm.newton_iters,
            min_dt: q(sp.min_dt.min(sm.min_dt)),
            sparse: sp.sparse && sm.sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Macromodel flip-around SC chain: ideal VCVS OTAs (gain 10³) with
    /// the full switch schedule of the circuit-level MDAC stage —
    /// sampling/DAC units, feedback switch, sampling-phase reset (`SR`)
    /// and unity-reset (`SZ`) — references at ground, stage gain 2.
    fn macro_sc_chain(n: usize) -> TranChainSetup {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.add_vsource_wave("VIN", inp, Circuit::GROUND, 0.0.into(), 1.0);
        let mut prev = inp;
        let mut outs = Vec::new();
        let mut amps = Vec::new();
        for k in 0..n {
            let (s_ph, a_ph) = if k % 2 == 0 {
                (ClockPhase::Phi1, ClockPhase::Phi2)
            } else {
                (ClockPhase::Phi2, ClockPhase::Phi1)
            };
            let u1 = c.node(&format!("u1_{k}"));
            let u2 = c.node(&format!("u2_{k}"));
            let sum = c.node(&format!("sum{k}"));
            let fb = c.node(&format!("fb{k}"));
            let out = c.node(&format!("o{k}"));
            let cu = 1e-12;
            c.add_switch(&format!("SS1_{k}"), prev, u1, 100.0, 1e9, s_ph, true);
            c.add_switch(&format!("SS2_{k}"), prev, u2, 100.0, 1e9, s_ph, true);
            c.add_switch(
                &format!("SD1_{k}"),
                u1,
                Circuit::GROUND,
                100.0,
                1e9,
                a_ph,
                false,
            );
            c.add_switch(
                &format!("SD2_{k}"),
                u2,
                Circuit::GROUND,
                100.0,
                1e9,
                a_ph,
                false,
            );
            c.add_capacitor(&format!("CU1_{k}"), u1, sum, cu);
            c.add_capacitor(&format!("CU2_{k}"), u2, sum, cu);
            c.add_capacitor(&format!("CF{k}"), sum, fb, cu);
            c.add_switch(&format!("SF{k}"), fb, out, 100.0, 1e9, a_ph, true);
            c.add_switch(
                &format!("SR{k}"),
                fb,
                Circuit::GROUND,
                100.0,
                1e9,
                s_ph,
                false,
            );
            c.add_switch(&format!("SZ{k}"), out, sum, 100.0, 1e9, s_ph, false);
            c.add_vcvs(
                &format!("EOTA{k}"),
                out,
                Circuit::GROUND,
                Circuit::GROUND,
                sum,
                1e3,
            );
            outs.push(out);
            amps.push(a_ph);
            prev = out;
        }
        TranChainSetup {
            circuit: c,
            input_source: "VIN".to_string(),
            stage_outputs: outs,
            stage_gains: vec![2.0; n],
            stage_amplify: amps,
            clock: Clock {
                freq: 1e6,
                nonoverlap: 10e-9,
            },
            mid_rail: 0.0,
            full_scale: 2.0,
            resolution: 6,
            dc: DcOptions::default(),
        }
    }

    #[test]
    fn macro_sc_chain_amplifies_and_settles() {
        let mut setup = macro_sc_chain(2);
        let mut ev = TranChainEvaluator::new(TranChainOptions::default());
        let report = ev.evaluate(&mut setup).unwrap();
        assert_eq!(report.stages.len(), 2);
        assert!(report.all_settled, "{report:#?}");
        for (k, s) in report.stages.iter().enumerate() {
            assert!(s.settled, "stage {k}: {s:?}");
            assert!(
                (s.residue_gain - 2.0).abs() / 2.0 < 0.02,
                "stage {k} residue gain {}",
                s.residue_gain
            );
            assert!(
                s.settle_frac < 0.5,
                "stage {k} settle_frac {}",
                s.settle_frac
            );
        }
        // Stage amplitudes: δ·2 then δ·4.
        assert!((report.stages[0].amplitude - 6e-3).abs() < 3e-4);
        assert!((report.stages[1].amplitude - 12e-3).abs() < 6e-4);
        assert!(report.accepted > 0 && report.min_dt > 0.0);
    }

    #[test]
    fn sparse_and_dense_reports_are_bit_identical() {
        let mut setup = macro_sc_chain(2);
        let mut sparse =
            TranChainEvaluator::with_solver(SolverChoice::Sparse, TranChainOptions::default());
        let mut dense =
            TranChainEvaluator::with_solver(SolverChoice::Dense, TranChainOptions::default());
        let rs = sparse.evaluate(&mut setup).unwrap();
        let rd = dense.evaluate(&mut setup).unwrap();
        assert!(rs.sparse && !rd.sparse);
        assert_eq!(
            TranChainReport {
                sparse: rd.sparse,
                ..rs.clone()
            },
            rd,
            "quantized transient reports must not depend on the engine"
        );
    }

    #[test]
    fn fixed_oracle_agrees_but_needs_more_steps() {
        let mut setup = macro_sc_chain(1);
        let mut ev = TranChainEvaluator::new(TranChainOptions::default());
        let adaptive = ev.evaluate(&mut setup).unwrap();
        let dt = setup.clock.period() / 2000.0;
        let fixed = ev.evaluate_fixed(&mut setup, dt).unwrap();
        assert!(fixed.all_settled && adaptive.all_settled);
        assert!(
            (adaptive.stages[0].residue_gain - fixed.stages[0].residue_gain).abs() < 1e-3,
            "adaptive {} vs fixed {}",
            adaptive.stages[0].residue_gain,
            fixed.stages[0].residue_gain
        );
        assert!(
            adaptive.accepted < fixed.accepted,
            "adaptive {} steps vs fixed {}",
            adaptive.accepted,
            fixed.accepted
        );
    }

    #[test]
    fn workspaces_are_reused_across_evaluations() {
        let mut setup = macro_sc_chain(2);
        let mut ev = TranChainEvaluator::new(TranChainOptions::default());
        let a = ev.evaluate(&mut setup).unwrap();
        let b = ev.evaluate(&mut setup).unwrap();
        assert_eq!(a, b, "re-evaluation through reused workspaces must agree");
    }

    /// The concurrent legs reproduce the serial composition — +δ run, −δ
    /// run through the same workspaces, then the report — on every report
    /// field, step and iteration counters included, adaptive and fixed.
    #[test]
    fn concurrent_legs_match_serial_composition() {
        let opts = TranChainOptions::default();
        for (stages, fixed) in [(2, false), (3, false), (1, true)] {
            let mut setup = macro_sc_chain(stages);
            let mode = if fixed {
                StepMode::Fixed(setup.clock.period() / 1000.0)
            } else {
                StepMode::Adaptive(TimeStepConfig::for_clock(&setup.clock))
            };
            let mut concurrent_ev = TranChainEvaluator::new(opts.clone());
            let concurrent = match mode {
                StepMode::Fixed(dt) => concurrent_ev.evaluate_fixed(&mut setup, dt),
                StepMode::Adaptive(_) => concurrent_ev.evaluate(&mut setup),
            }
            .unwrap();

            let mut ev = TranChainEvaluator::new(opts.clone());
            let (hold_p, hold_m) = (setup.mid_rail + opts.delta_v, setup.mid_rail - opts.delta_v);
            let rp = ev
                .plus
                .run(&mut setup, &mode, hold_p, &opts, SolverChoice::Auto)
                .unwrap();
            let rm = ev
                .plus
                .run(&mut setup, &mode, hold_m, &opts, SolverChoice::Auto)
                .unwrap();
            let serial = ev.report(&setup, &rp, &rm);
            assert_eq!(concurrent, serial, "{stages} stages, fixed {fixed}");
            assert!(serial.accepted > 0 && serial.newton_iters > 0);
        }
    }

    /// Options that would let a sign-off pass without measuring anything
    /// are rejected with a typed error before any run, by both entries.
    #[test]
    fn zero_periods_rejected() {
        check_rejected(
            TranChainOptions {
                periods: 0,
                ..TranChainOptions::default()
            },
            TranChainError::NoPeriods,
        );
    }

    #[test]
    fn non_positive_or_non_finite_delta_rejected() {
        for delta_v in [0.0, -3e-3, f64::NAN, f64::INFINITY] {
            let opts = TranChainOptions {
                delta_v,
                ..TranChainOptions::default()
            };
            let err = opts.validate().unwrap_err();
            assert!(matches!(err, TranChainError::BadDelta(_)), "{err}");
            check_rejected(opts, err);
        }
    }

    #[test]
    fn tail_frac_outside_unit_interval_rejected() {
        for tail_frac in [0.0, -0.05, 1.5, f64::NAN] {
            let opts = TranChainOptions {
                tail_frac,
                ..TranChainOptions::default()
            };
            let err = opts.validate().unwrap_err();
            assert!(matches!(err, TranChainError::BadTailFrac(_)), "{err}");
            check_rejected(opts, err);
        }
        let whole_window = TranChainOptions {
            tail_frac: 1.0,
            ..TranChainOptions::default()
        };
        assert_eq!(whole_window.validate(), Ok(()));
    }

    #[test]
    fn non_positive_fixed_step_rejected() {
        let mut setup = macro_sc_chain(1);
        let mut ev = TranChainEvaluator::new(TranChainOptions::default());
        for dt in [0.0, -1e-9, f64::NAN] {
            let err = ev.evaluate_fixed(&mut setup, dt).unwrap_err();
            assert!(matches!(err, TranChainError::BadStep(_)), "{err}");
        }
    }

    /// Both entries return `want` for `opts`, and the error renders as an
    /// options error through the `String` conversion callers use.
    fn check_rejected(opts: TranChainOptions, want: TranChainError) {
        let mut setup = macro_sc_chain(1);
        let mut ev = TranChainEvaluator::new(opts);
        let err = ev.evaluate(&mut setup).unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{want:?}"));
        let err = ev.evaluate_fixed(&mut setup, 1e-9).unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{want:?}"));
        assert!(String::from(err).starts_with("options: "));
    }

    #[test]
    fn missing_input_source_is_typed() {
        let mut setup = macro_sc_chain(1);
        setup.input_source = "VNONE".to_string();
        let err = TranChainEvaluator::new(TranChainOptions::default())
            .evaluate(&mut setup)
            .unwrap_err();
        assert_eq!(err, TranChainError::NoInputSource("VNONE".to_string()));
        assert_eq!(err.to_string(), "no input source VNONE");
    }
}
