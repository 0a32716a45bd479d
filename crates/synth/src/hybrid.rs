//! The hybrid equation+simulation evaluator (§3 of the paper).
//!
//! Each candidate sizing is evaluated by: (1) **DC simulation** for the
//! operating point, supply power and device saturation; (2) **numeric
//! transfer-function formulation** from the linearized circuit
//! ([`adc_sfg::nettf`]) for low-frequency gain, unity-gain frequency and
//! phase margin. "Combining these approaches has the advantage of high
//! simulation accuracy and fast equation evaluation."
//!
//! The evaluator holds one persistent testbench plus DC/TF workspaces:
//! when the testbench carries a [`BenchTuner`], each candidate is applied
//! by **in-place retuning** (no netlist rebuild), and the DC Newton loop
//! and the TF sampling reuse preallocated matrices and factor buffers.
//! The operating point is read by index: the supply and the checked
//! devices are resolved by name once per built testbench, and the
//! linearization walks the devices in element order. The evaluation still
//! allocates small vectors: the operating point's solution and device
//! list, coefficient recovery, pole/zero cancellation and the re-expanded
//! polynomials. On OTA-sized testbenches both workspaces factor
//! CSR-**sparse** against a symbolic factorization the engines freeze
//! once per topology (see `adc_numerics::sparse`), so every Newton
//! iteration and every `det Y(s)` sample pays only for structural
//! nonzeros; the selection is automatic and the dense path remains the
//! oracle.
//!
//! An evaluation is one DC Newton solve (from the start sizing's
//! operating point in the global phase, warm from the previous candidate
//! in the local phase), one TF extraction (`det Y(s)` at the upper-half
//! points of a small circle grid, factored in one batch, then FFT
//! coefficient recovery), pole/zero cancellation, and the equation leg:
//! `a0` at the probe frequency, the unity-gain search
//! ([`adc_sfg::tf::Tf::magnitude_crossing`]) and the phase margin over
//! the roots cancellation kept. EXPERIMENTS §20, §23 and §26 measure each
//! piece; `prof_hotpath` (`crates/bench/examples`) times them per call.

use crate::evaluator::{EvalOutcome, Evaluator, Performance};
use adc_numerics::quant::Fingerprint;
use adc_sfg::nettf::{extract_tf_with, NetTfOptions, NetTfWorkspace};
use adc_spice::dc::{
    dc_operating_point_newton, dc_operating_point_warm, dc_operating_point_with, DcOptions,
    DcWorkspace,
};
use adc_spice::mosfet::Region;
use adc_spice::netlist::{Circuit, ElementId, NodeId};
use adc_spice::SolverChoice;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// In-place retuning recipe for a testbench: writes the candidate vector
/// `x` into the circuit's element values ([`Circuit::set_value`],
/// [`Circuit::set_device_geometry`]) without changing its topology.
pub type BenchTuner = Rc<dyn Fn(&mut Circuit, &[f64])>;

/// A simulate-ready testbench for one candidate sizing.
#[derive(Clone)]
pub struct BenchSetup {
    /// Netlist (amplifier + bias + load).
    pub circuit: Circuit,
    /// Output node whose transfer function is analyzed.
    pub output: NodeId,
    /// Supply source name (power = delivered power of this source).
    pub supply: String,
    /// MOSFET names that must sit in saturation.
    pub devices: Vec<String>,
    /// Optional in-place retuning recipe; testbenches without one are
    /// rebuilt per candidate (the pre-workspace behaviour).
    pub tuner: Option<BenchTuner>,
}

impl BenchSetup {
    /// Creates a testbench without a retuning recipe.
    pub fn new(circuit: Circuit, output: NodeId, supply: String, devices: Vec<String>) -> Self {
        BenchSetup {
            circuit,
            output,
            supply,
            devices,
            tuner: None,
        }
    }

    /// Attaches an in-place retuning recipe.
    pub fn with_tuner(mut self, tuner: BenchTuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Applies candidate `x` by mutating the persistent netlist in place.
    /// Returns `false` when no tuner is attached (caller should rebuild).
    pub fn retune(&mut self, x: &[f64]) -> bool {
        match &self.tuner {
            Some(t) => {
                t(&mut self.circuit, x);
                true
            }
            None => false,
        }
    }
}

impl fmt::Debug for BenchSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BenchSetup")
            .field("circuit", &self.circuit)
            .field("output", &self.output)
            .field("supply", &self.supply)
            .field("devices", &self.devices)
            .field("tuner", &self.tuner.is_some())
            .finish()
    }
}

/// Frequency (Hz) at which low-frequency gain is probed (above the bias
/// servo corner, below the amplifier poles).
const F_PROBE: f64 = 1e4;

/// Upper limit for the unity-crossing search, Hz.
const F_MAX: f64 = 50e9;

/// Options for the hybrid evaluation.
#[derive(Debug, Clone)]
pub struct HybridOptions {
    /// Transfer-function extraction options.
    pub nettf: NetTfOptions,
    /// DC solver options.
    pub dc: DcOptions,
    /// Allow the DC solve to **warm-start** from the previous candidate's
    /// bias point during the optimizer's local phase (see
    /// [`Evaluator::set_local_phase`]). During global exploration the
    /// solver cold-starts from a point that does not depend on history: the
    /// operating point of the evaluator's start sizing
    /// ([`HybridOtaEvaluator::with_start_sizing`]), falling back to the
    /// node-set/zero guess (see [`dc_operating_point_newton`]). Annealing
    /// trajectories are therefore identical to the rebuild-everything
    /// path. Disable to force cold starts everywhere.
    pub warm_start_local: bool,
    /// Linear-solver engine for the DC workspace. `Auto` (the default)
    /// keeps the size-based sparse/dense selection; a recovery ladder can
    /// force `Dense` to sidestep an unlucky static sparse pivot.
    pub solver: SolverChoice,
}

impl Default for HybridOptions {
    fn default() -> Self {
        HybridOptions {
            nettf: NetTfOptions::default(),
            // Per-node step limiting: the servo-biased OTA testbenches
            // converge marginally under global damping (a wound-up servo
            // node starves every other unknown), and a cold solve that
            // stalls where a warm one succeeds would fork warm-tail
            // trajectories from cold ones. Per-node limiting makes the
            // cold ladder land wherever the warm path does.
            dc: DcOptions {
                damping: adc_spice::dc::DcDamping::PerNode,
                ..Default::default()
            },
            warm_start_local: true,
            solver: SolverChoice::Auto,
        }
    }
}

impl HybridOptions {
    /// Deterministic fingerprint of every value that influences the
    /// numbers this evaluator produces: the probe and search frequencies
    /// and the DC step limit (constants, hashed at their historical
    /// positions), TF sampling, DC solver tolerances, warm-start policy
    /// and solver engine. The evaluator
    /// component of a cross-run synthesis cache key: results computed under
    /// different options must never alias.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new()
            .add_f64_exact(F_PROBE)
            .add_f64_exact(F_MAX)
            .add_f64_exact(self.nettf.radius)
            .add_f64_exact(self.nettf.trim_rel)
            .add_u64(self.dc.max_iter as u64)
            .add_f64_exact(self.dc.vtol)
            .add_f64_exact(self.dc.itol)
            .add_f64_exact(adc_spice::dc::MAX_STEP)
            .add_f64_exact(self.dc.gmin)
            .add_u64(match self.dc.damping {
                adc_spice::dc::DcDamping::Global => 0,
                adc_spice::dc::DcDamping::PerNode => 1,
            })
            .add_u64(u64::from(self.warm_start_local))
            .add_u64(match self.solver {
                SolverChoice::Auto => 0,
                SolverChoice::Dense => 1,
                SolverChoice::Sparse => 2,
            });
        // Nodesets are keyed maps; fold them in sorted order so insertion
        // order cannot perturb the digest.
        let mut nodesets: Vec<(&String, &f64)> = self.dc.nodeset.iter().collect();
        nodesets.sort_by(|a, b| a.0.cmp(b.0));
        fp = fp.add_u64(nodesets.len() as u64);
        for (name, &v) in nodesets {
            fp = fp.add_str(name).add_f64_exact(v);
        }
        fp.finish()
    }
}

/// Persistent per-evaluator state: the testbench built by the first
/// evaluation plus the simulation workspaces reused by every subsequent
/// one.
#[derive(Default)]
struct EvalState {
    bench: Option<BenchSetup>,
    /// The testbench's supply and checked devices, resolved by name when
    /// it was built (`None`: no such element).
    supply: Option<ElementId>,
    devices: Vec<Option<ElementId>>,
    dc: Option<DcWorkspace>,
    tf: NetTfWorkspace,
}

impl EvalState {
    /// Installs a freshly built testbench and resolves its named elements,
    /// so the evaluations read the operating point by index.
    fn install(&mut self, bench: BenchSetup) {
        let find = |name: &str| bench.circuit.find_element(name).map(|(id, _)| id);
        self.supply = find(&bench.supply);
        self.devices = bench.devices.iter().map(|d| find(d)).collect();
        self.bench = Some(bench);
    }
}

/// Evaluator wrapping a testbench builder closure.
///
/// Produced metrics: `power` (W), `a0` (linear low-frequency gain),
/// `unity_freq` (Hz, 0 when no crossing), `pm` (degrees, 0 when no
/// crossing), `saturated` (fraction of devices in saturation).
///
/// The first evaluation builds the testbench; if it carries a
/// [`BenchTuner`], later candidates are applied by in-place retuning and
/// the whole evaluation reuses preallocated simulation workspaces.
/// Without a tuner the testbench is rebuilt per candidate, but the
/// workspaces still persist (same topology → same buffers).
pub struct HybridOtaEvaluator<F> {
    build: F,
    opts: HybridOptions,
    /// MNA solution of the testbench at the start sizing (`None`: no start
    /// sizing, or its solve failed).
    start: Option<Vec<f64>>,
    state: RefCell<EvalState>,
    local_phase: std::cell::Cell<bool>,
}

impl<F> HybridOtaEvaluator<F>
where
    F: Fn(&[f64]) -> BenchSetup,
{
    /// Creates the evaluator from a testbench builder.
    pub fn new(build: F, opts: HybridOptions) -> Self {
        HybridOtaEvaluator {
            build,
            opts,
            start: None,
            state: RefCell::new(EvalState::default()),
            local_phase: std::cell::Cell::new(false),
        }
    }

    /// Starts every cold DC solve from the operating point of the
    /// testbench built at sizing `x` (the synthesis flow passes its
    /// template's nominal design). That point is solved here, once, with
    /// the whole homotopy ladder on a fresh workspace with this
    /// evaluator's solver; it depends on the testbench alone, so every
    /// evaluation stays a pure function of its candidate. When it does not
    /// converge, the cold solves start from the node-set/zero guess.
    pub fn with_start_sizing(mut self, x: &[f64]) -> Self {
        let bench = (self.build)(x);
        self.start = DcWorkspace::with_solver(&bench.circuit, self.opts.solver)
            .and_then(|mut ws| dc_operating_point_with(&mut ws, &bench.circuit, &self.opts.dc))
            .ok()
            .map(|op| op.solution().to_vec());
        self
    }
}

impl<F> Evaluator for HybridOtaEvaluator<F>
where
    F: Fn(&[f64]) -> BenchSetup,
{
    fn set_local_phase(&self, local: bool) {
        self.local_phase.set(local);
    }

    fn evaluate(&self, x: &[f64]) -> EvalOutcome {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        // Materialize the candidate: in-place retune of the persistent
        // testbench when possible, full rebuild otherwise.
        let retuned = match state.bench.as_mut() {
            Some(b) => b.retune(x),
            None => false,
        };
        if !retuned {
            state.install((self.build)(x));
        }
        let bench = state.bench.as_ref().expect("bench materialized above");
        // Leg 1: DC simulation (persistent workspace).
        if state.dc.is_none() {
            match DcWorkspace::with_solver(&bench.circuit, self.opts.solver) {
                Ok(ws) => state.dc = Some(ws),
                Err(e) => return EvalOutcome::Failed(format!("DC: {e}")),
            }
        }
        let dc_ws = state.dc.as_mut().expect("workspace created above");
        // Warm-start only in the optimizer's local phase: tightly clustered
        // candidates track the continuously deformed bias point, while the
        // global search starts Newton from the history-free start point (no
        // homotopy ladder: it never rescued a synthesis solve).
        let solved = if self.opts.warm_start_local && self.local_phase.get() {
            dc_operating_point_warm(dc_ws, &bench.circuit, &self.opts.dc)
        } else {
            dc_operating_point_newton(dc_ws, &bench.circuit, &self.opts.dc, self.start.as_deref())
        };
        let op = match solved {
            Ok(op) => op,
            Err(e) => return EvalOutcome::Failed(format!("DC: {e}")),
        };
        let power = match state
            .supply
            .and_then(|id| op.source_power_at(&bench.circuit, id))
        {
            Some(p) => p,
            None => return EvalOutcome::Failed(format!("no supply source {}", bench.supply)),
        };
        let mut saturated = 0usize;
        for (name, id) in bench.devices.iter().zip(&state.devices) {
            match id.and_then(|id| op.mos_eval_at(id)) {
                Some(ev) if ev.region == Region::Saturation => saturated += 1,
                Some(_) => {}
                None => return EvalOutcome::Failed(format!("no such device {name}")),
            }
        }
        // Leg 2: equation-based TF analysis on the linearized circuit
        // (persistent workspace; base restamped at this OP).
        let tf = match extract_tf_with(
            &mut state.tf,
            &bench.circuit,
            &op,
            bench.output,
            &self.opts.nettf,
        ) {
            Ok(tf) => tf.cancel_common_roots(1e-5),
            Err(e) => return EvalOutcome::Failed(format!("TF: {e}")),
        };
        let a0 = tf.magnitude(F_PROBE);
        // Phase margin referenced to the amplifier's own low-frequency
        // phase (works for inverting and non-inverting configurations):
        // PM = 180° − accumulated phase lag at the unity crossing.
        let (fu, pm) = match tf.unity_gain_freq(F_PROBE, F_MAX) {
            Some(fu) => {
                let lag = tf.phase_exact_deg(F_PROBE) - tf.phase_exact_deg(fu);
                (fu, 180.0 - lag)
            }
            None => (0.0, 0.0),
        };

        let mut perf = Performance::new();
        perf.set("power", power);
        perf.set("a0", a0);
        perf.set("unity_freq", fu);
        perf.set("pm", pm);
        perf.set(
            "saturated",
            if bench.devices.is_empty() {
                1.0
            } else {
                saturated as f64 / bench.devices.len() as f64
            },
        );
        EvalOutcome::Ok(perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_spice::process::Process;

    /// Macromodel testbench: VCCS into RC with the gm set by `x[0]` and the
    /// bias current modeled as a resistor drawing supply power.
    fn macro_bench(x: &[f64]) -> BenchSetup {
        let gm = x[0];
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        // "Bias": power ∝ gm (models I = gm·Veff).
        c.add_resistor(
            "RBIAS",
            vdd,
            Circuit::GROUND,
            3.3 / (gm * 0.25 * 3.3).max(1e-12) * 3.3,
        );
        c.add_vsource_wave("VIN", vin, Circuit::GROUND, 0.0.into(), 1.0);
        c.add_vccs("GM", Circuit::GROUND, out, vin, Circuit::GROUND, -gm);
        c.add_resistor("RO", out, Circuit::GROUND, 100e3);
        c.add_capacitor("CL", out, Circuit::GROUND, 1e-12);
        BenchSetup::new(c, out, "VDD".into(), vec![])
    }

    /// Tuner matching [`macro_bench`]: writes the same derived values into
    /// the persistent netlist that a rebuild would produce.
    fn macro_tuner() -> BenchTuner {
        Rc::new(|ckt: &mut Circuit, x: &[f64]| {
            let gm = x[0];
            let (rb, _) = ckt.find_element("RBIAS").unwrap();
            ckt.set_value(rb, 3.3 / (gm * 0.25 * 3.3).max(1e-12) * 3.3);
            let (g, _) = ckt.find_element("GM").unwrap();
            ckt.set_value(g, -gm);
        })
    }

    /// The in-place retuning fast path must match rebuilding the testbench
    /// for every candidate (to within the DC solver tolerance — the
    /// persistent evaluator warm-starts Newton from the previous bias
    /// point).
    #[test]
    fn tuner_path_matches_rebuild() {
        let with_tuner = |x: &[f64]| macro_bench(x).with_tuner(macro_tuner());
        let tuned = HybridOtaEvaluator::new(with_tuner, HybridOptions::default());
        for x in [[1e-3], [2e-3], [0.5e-3], [1e-3]] {
            let fresh = HybridOtaEvaluator::new(macro_bench, HybridOptions::default());
            let (a, b) = match (tuned.evaluate(&x), fresh.evaluate(&x)) {
                (EvalOutcome::Ok(a), EvalOutcome::Ok(b)) => (a, b),
                (a, b) => panic!("unexpected failure: {a:?} vs {b:?}"),
            };
            for (name, va) in a.iter() {
                let vb = b.get(name).unwrap();
                let tol = 1e-6 * vb.abs().max(1e-12);
                assert!(
                    (va - vb).abs() <= tol,
                    "x = {x:?}, {name}: retuned {va} vs rebuilt {vb}"
                );
            }
        }
    }

    #[test]
    fn macromodel_metrics() {
        let ev = HybridOtaEvaluator::new(macro_bench, HybridOptions::default());
        match ev.evaluate(&[1e-3]) {
            EvalOutcome::Ok(p) => {
                // A0 = gm·ro = 100.
                assert!((p.get("a0").unwrap() - 100.0).abs() < 1.0, "{p:?}");
                // fu ≈ gm/(2πC) = 159 MHz.
                let fu = p.get("unity_freq").unwrap();
                assert!((fu - 159.2e6).abs() < 5e6, "fu {fu}");
                // Single pole: PM ≈ 90°.
                let pm = p.get("pm").unwrap();
                assert!((pm - 90.0).abs() < 2.0, "pm {pm}");
                assert!(p.get("power").unwrap() > 0.0);
                assert_eq!(p.get("saturated"), Some(1.0));
            }
            EvalOutcome::Failed(e) => panic!("{e}"),
        }
    }

    #[test]
    fn transistor_bench_works_end_to_end() {
        // Common-source stage as a minimal transistor bench.
        let proc = Process::c025();
        let build = move |x: &[f64]| {
            let w = x[0];
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
                proc.nmos,
                w,
                0.5e-6,
            );
            BenchSetup::new(c, d, "VDD".into(), vec!["M1".into()])
        };
        let ev = HybridOtaEvaluator::new(build, HybridOptions::default());
        match ev.evaluate(&[5e-6]) {
            EvalOutcome::Ok(p) => {
                assert!(p.get("a0").unwrap() > 2.0);
                assert_eq!(p.get("saturated"), Some(1.0));
            }
            EvalOutcome::Failed(e) => panic!("{e}"),
        }
        // A 100× wider device leaves saturation (drops into triode).
        match ev.evaluate(&[500e-6]) {
            EvalOutcome::Ok(p) => {
                assert_eq!(p.get("saturated"), Some(0.0));
            }
            EvalOutcome::Failed(e) => panic!("{e}"),
        }
    }
}
