//! Block-level synthesis orchestration: spec translation, the MDAC reuse
//! cache across candidates *and resolutions*, and circuit-grounded OTA
//! synthesis with warm-started retargeting.
//!
//! The paper synthesized "eleven MDACs … to enumerate the seven 13-bit ADC
//! configurations": distinct `(m, input-accuracy)` pairs are synthesized
//! once and reused across candidates; retargeting a neighbouring spec
//! warm-starts from the nearest finished design. This module extends that
//! reuse across whole **resolution runs** through the persistent
//! [`SharedCache`], and executes the distinct blocks of a set on the
//! dependency-driven [`executor`](crate::executor).
//!
//! ## Scheduling pipeline
//!
//! 1. `plan_candidate_set` (internal) — serial encounter order, warm-start
//!    DAG from the keys alone (pure function of the candidate list);
//! 2. cache consultation — exact hits skip synthesis, near hits seed warm
//!    starts (policy-gated, see [`CachePolicy`](crate::cache::CachePolicy));
//! 3. [`executor::run_dag_outcomes`](crate::executor::run_dag_outcomes) —
//!    each block spawns the moment its warm source completes;
//! 4. deterministic merge (ascending reuse key) + cache commit.
//!
//! [`run_flow`] and [`run_flow_shared`] run every request through that one
//! pipeline; [`FlowRequest::serial`] selects the bit-identical serial
//! oracle.

use crate::cache::{key_distance, BlockCache, CacheEntry, SharedCache};
use crate::enumerate::Candidate;
use crate::executor::{run_dag_outcomes, BlockFailure, BlockOutcome, ExecutorOptions, FailureKind};
use adc_mdac::opamp::{
    build_telescopic, build_two_stage, TelescopicHandles, TelescopicParams, TwoStageHandles,
    TwoStageParams,
};
use adc_mdac::power::{design_chain, OtaTopology, PowerModelParams, StageDesign};
use adc_mdac::specs::{AdcSpec, SPEC_NORM_DIGITS};
use adc_numerics::quant::Fingerprint;
use adc_numerics::Deadline;
use adc_spice::netlist::Circuit;
use adc_spice::process::Process;
use adc_spice::SolverChoice;
use adc_synth::hybrid::{BenchSetup, BenchTuner, HybridOptions, HybridOtaEvaluator};
use adc_synth::{
    Constraint, ConstraintKind, DesignSpace, DesignVar, SynthConfig, SynthError, SynthResult,
    Synthesizer,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Version salt folded into every provenance fingerprint. Bump when the
/// synthesis pipeline changes in a way that invalidates cached results
/// (evaluator semantics, annealing schedule, …).
///
/// Version 2: the annealer evaluates strictly serially. Version-1 results
/// whose warm DC starts chained through discarded speculative evaluations
/// took different trajectories, so they must not be served as exact hits.
///
/// Version 3: phase margin sums over the roots that survive pole/zero
/// cancellation instead of re-finding the roots of their re-expanded
/// polynomials, which moves the last bits of `pm` (and of some costs).
///
/// Version 4: Aberth root finding starts on the circles of the Newton
/// polygon instead of one circle, which moves the last bits of `a0`, `pm`,
/// the unity-gain frequency and some costs.
///
/// Version 5: the global phase's DC Newton starts from the operating point
/// of the template's nominal design instead of zero, and stops without the
/// homotopy ladder. Converged points move in their last bits, and some
/// sizings converge only from the new start, so annealing trajectories
/// fork: `best_x`, costs and evaluation counts move, rankings and winners
/// do not.
///
/// Version 6: TF extraction samples `det Y(s)` at `(d + 1).next_power_of_two()`
/// points of a half-step grid instead of `(2(d + 2)).next_power_of_two()`
/// roots of unity, and fills the lower half-plane with exact conjugates,
/// which moves the last bits of `a0`, `pm`, the unity-gain frequency and
/// some costs.
///
/// Version 7: the unity-gain search scans a 100-point grid instead of 400
/// points and refines the crossing by safeguarded Newton steps instead of
/// bisection, which moves the last bits of the unity-gain frequency, `pm`
/// and some costs.
pub const FLOW_CACHE_VERSION: u64 = 7;

/// The hybrid-evaluator options every flow synthesis runs under — the
/// **single source of truth** shared by [`synthesize_ota`] and the
/// recovery ladder (which build their evaluators from it) and
/// `flow_config_fingerprint` (which folds it into every cache provenance
/// chain). Tuning the options here automatically invalidates stale cache
/// entries.
fn flow_hybrid_options() -> HybridOptions {
    HybridOptions::default()
}

/// Typed failure surface of the guarded flow — replaces ad-hoc panics on
/// the orchestration hot paths.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A block exhausted its wall-clock budget.
    Timeout {
        /// Reuse key of the block.
        key: (u32, u32),
        /// Failure payload.
        message: String,
    },
    /// A block failed all recovery attempts.
    BlockFailed {
        /// Reuse key of the block.
        key: (u32, u32),
        /// Failure payload.
        message: String,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Timeout { key, message } => {
                write!(f, "block {key:?} timed out: {message}")
            }
            FlowError::BlockFailed { key, message } => {
                write!(f, "block {key:?} failed: {message}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// Bounded retry ladder for a failed block. Attempt 0 runs the block as
/// scheduled; attempt 1 restarts cold with DC warm-start reuse disabled;
/// attempt 2 additionally forces the dense linear solver
/// ([`SolverChoice::Dense`]). Timeouts are final — no rung can buy back an
/// exhausted wall-clock budget, so the ladder stops immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum synthesis attempts per block (≥ 1; the full ladder is 3).
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Fault-tolerance knobs of the guarded flow. The defaults (no budgets,
/// three-rung ladder) leave zero-fault runs bit-identical to the unguarded
/// path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowOptions {
    /// Recovery ladder for failed blocks.
    pub retry: RetryPolicy,
    /// Wall-clock budget per block (all attempts combined); `None` is
    /// unlimited.
    pub block_budget: Option<Duration>,
    /// Wall-clock budget for the whole candidate-set run; `None` is
    /// unlimited.
    pub run_budget: Option<Duration>,
}

/// A block that produced no result: its reuse key plus the recorded
/// failure (kind, payload, attempts, elapsed time).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCasualty {
    /// Reuse key `(m, input_accuracy)` of the failed block.
    pub key: (u32, u32),
    /// What happened.
    pub failure: BlockFailure,
}

/// Collects the distinct MDAC block specs — `(m, input_accuracy)` pairs —
/// across a set of candidates (the paper's reuse set).
pub fn distinct_mdac_specs(spec: &AdcSpec, candidates: &[Candidate]) -> Vec<(u32, u32)> {
    let mut set = std::collections::BTreeSet::new();
    for c in candidates {
        for st in adc_mdac::specs::stage_specs(spec, c.front_bits()) {
            set.insert(st.reuse_key());
        }
    }
    set.into_iter().collect()
}

/// OTA template selected for a block (the gain-boosted class of the
/// analytic model maps onto the two-stage template at circuit level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateKind {
    /// Telescopic cascode.
    Telescopic,
    /// Two-stage Miller.
    TwoStage,
}

impl TemplateKind {
    /// Stable small-integer tag — the single source of truth for both the
    /// requirement fingerprints and the [`SharedCache`] bucket keys.
    pub(crate) fn tag(self) -> u8 {
        match self {
            TemplateKind::Telescopic => 0,
            TemplateKind::TwoStage => 1,
        }
    }
}

/// Requirements handed to the circuit-level OTA synthesis for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct OtaRequirements {
    /// Minimum low-frequency gain (linear).
    pub a0_min: f64,
    /// Minimum unity-gain frequency with the stage load, Hz.
    pub unity_min: f64,
    /// Minimum phase margin, degrees.
    pub pm_min: f64,
    /// Load capacitance for the testbench, F.
    pub c_load: f64,
    /// Template implied by the analytic topology selection.
    pub template: TemplateKind,
}

impl OtaRequirements {
    /// Fingerprint on the **normalized-spec grid** (template + values
    /// quantized to [`SPEC_NORM_DIGITS`]): the [`SharedCache`] map key.
    /// Independent derivations of the same physical spec — e.g. the same
    /// `(m, input-accuracy)` block reached from two resolutions — collapse
    /// onto one key.
    pub fn normalized_fingerprint(&self) -> u64 {
        Fingerprint::new()
            .add_u64(u64::from(self.template.tag()))
            .add_quantized(self.a0_min, SPEC_NORM_DIGITS)
            .add_quantized(self.unity_min, SPEC_NORM_DIGITS)
            .add_quantized(self.pm_min, SPEC_NORM_DIGITS)
            .add_quantized(self.c_load, SPEC_NORM_DIGITS)
            .finish()
    }

    /// Fingerprint over the **exact** requirement bits — the provenance
    /// component attesting that two synthesis runs saw bit-identical
    /// inputs.
    pub fn exact_fingerprint(&self) -> u64 {
        Fingerprint::new()
            .add_u64(u64::from(self.template.tag()))
            .add_f64_exact(self.a0_min)
            .add_f64_exact(self.unity_min)
            .add_f64_exact(self.pm_min)
            .add_f64_exact(self.c_load)
            .finish()
    }
}

/// Derives circuit-level OTA requirements from an analytic stage design.
pub fn ota_requirements(design: &StageDesign, spec: &AdcSpec) -> OtaRequirements {
    let t_lin = spec.t_amplify() * (1.0 - 0.368);
    // Closed-loop settling: loop crossover β·ωu ≥ N_τ/t_lin →
    // fu ≥ N_τ/(2π·β·t_lin) with the amp loaded by C_Leff.
    let unity_min = design.n_tau / (2.0 * std::f64::consts::PI * design.caps.beta * t_lin);
    let template = match design.topology {
        OtaTopology::Telescopic | OtaTopology::FoldedCascode => TemplateKind::Telescopic,
        OtaTopology::GainBoostedTelescopic | OtaTopology::TwoStageMiller => TemplateKind::TwoStage,
    };
    OtaRequirements {
        a0_min: design.a0_required,
        unity_min,
        pm_min: 60.0,
        c_load: design.c_load_eff,
        template,
    }
}

/// How one scheduled block executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOrigin {
    /// Cold synthesis (full budget).
    Cold,
    /// Retargeted from another block of the same candidate set.
    Retargeted,
    /// Retargeted from a near-hit [`SharedCache`] entry (no in-run
    /// dependency — ready immediately).
    CacheSeeded,
    /// Exact cache hit: synthesis skipped, stored result returned.
    CacheHit,
}

/// One synthesized MDAC opamp.
#[derive(Debug, Clone)]
pub struct MdacBlock {
    /// Reuse key `(m, input_accuracy)`.
    pub key: (u32, u32),
    /// Requirements used.
    pub requirements: OtaRequirements,
    /// Synthesis result (sizing, performance, evaluation count).
    pub result: SynthResult,
    /// Whether this block was *planned* to warm-start from another block of
    /// the set (a pure function of the candidate keys — identical across
    /// cache modes and executors).
    pub retargeted: bool,
    /// How the block actually executed in this run.
    pub origin: BlockOrigin,
}

fn space_for(template: TemplateKind) -> DesignSpace {
    let bounds = match template {
        TemplateKind::Telescopic => TelescopicParams::bounds(),
        TemplateKind::TwoStage => TwoStageParams::bounds(),
    };
    DesignSpace::new(
        bounds
            .into_iter()
            .map(|b| {
                if b.log {
                    DesignVar::log(b.name, b.lo, b.hi)
                } else {
                    DesignVar::linear(b.name, b.lo, b.hi)
                }
            })
            .collect(),
    )
}

fn constraints_for(req: &OtaRequirements) -> Vec<Constraint> {
    vec![
        Constraint::new("a0", ConstraintKind::AtLeast, req.a0_min),
        Constraint::new("unity_freq", ConstraintKind::AtLeast, req.unity_min),
        Constraint::new("pm", ConstraintKind::AtLeast, req.pm_min),
        Constraint::new("saturated", ConstraintKind::AtLeast, 1.0),
    ]
}

/// The synthesis evaluator of one block: the template's testbench at the
/// block's load, built once and retuned in place per candidate, with every
/// cold DC solve started from the operating point of the template's
/// nominal design ([`HybridOtaEvaluator::with_start_sizing`]).
fn block_evaluator(
    process: &Process,
    template: TemplateKind,
    c_load: f64,
    opts: HybridOptions,
) -> HybridOtaEvaluator<impl Fn(&[f64]) -> BenchSetup> {
    let proc = process.clone();
    // Builder runs once for the start sizing and once per evaluator;
    // every later candidate retunes the persistent testbench in place
    // through the resolved element handles. The handles of the builders'
    // own netlists always resolve (the `opamp` tests check it); were an
    // expect below ever to fail, the panic would surface from the block's
    // `catch_unwind` as a typed block failure.
    let build = move |x: &[f64]| -> BenchSetup {
        match template {
            TemplateKind::Telescopic => {
                let tb = build_telescopic(&proc, &TelescopicParams::from_vec(x), c_load);
                let handles =
                    TelescopicHandles::resolve(&tb.circuit).expect("telescopic template handles");
                let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
                    handles.retune(ckt, &TelescopicParams::from_vec(x));
                });
                BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
            }
            TemplateKind::TwoStage => {
                let tb = build_two_stage(&proc, &TwoStageParams::from_vec(x), c_load);
                let handles =
                    TwoStageHandles::resolve(&tb.circuit).expect("two-stage template handles");
                let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
                    handles.retune(ckt, &TwoStageParams::from_vec(x));
                });
                BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
            }
        }
    };
    HybridOtaEvaluator::new(build, opts).with_start_sizing(&nominal_sizing(template))
}

/// The template's nominal design, in design-space variable order.
fn nominal_sizing(template: TemplateKind) -> Vec<f64> {
    match template {
        TemplateKind::Telescopic => TelescopicParams::nominal().to_vec(),
        TemplateKind::TwoStage => TwoStageParams::nominal().to_vec(),
    }
}

/// Builds the synthesizer + evaluator pair for a requirement set and runs
/// it under an explicit evaluator configuration and wall-clock deadline —
/// the fallible core every flow path funnels through. `warm` selects a
/// retarget from that result ([`Synthesizer::run`]).
fn run_ota_synthesis(
    process: &Process,
    req: &OtaRequirements,
    cfg: &SynthConfig,
    warm: Option<&SynthResult>,
    opts: HybridOptions,
    deadline: Deadline,
) -> Result<SynthResult, SynthError> {
    let synth = Synthesizer::new(space_for(req.template), constraints_for(req), "power");
    let evaluator = block_evaluator(process, req.template, req.c_load, opts);
    synth.run(&evaluator, cfg, warm, deadline)
}

/// Builds the synthesizer + evaluator pair for a requirement set and runs a
/// cold synthesis (or a retarget from `warm_start`).
pub fn synthesize_ota(
    process: &Process,
    req: &OtaRequirements,
    cfg: &SynthConfig,
    warm_start: Option<&SynthResult>,
) -> SynthResult {
    run_ota_synthesis(
        process,
        req,
        cfg,
        warm_start,
        flow_hybrid_options(),
        Deadline::none(),
    )
    .unwrap_or_else(|e| panic!("unbudgeted OTA synthesis cannot time out: {e}"))
}

/// One scheduled block of a candidate-set synthesis: its reuse key, the
/// derived requirements, and the serial-order index of the block whose
/// result warm-starts it (`None` → cold synthesis).
#[derive(Debug, Clone)]
struct PlannedBlock {
    key: (u32, u32),
    req: OtaRequirements,
    /// [`StageSpec::fingerprint`](adc_mdac::specs::StageSpec::fingerprint)
    /// of the block — the stage-level component of the cache key.
    stage_fp: u64,
    warm: Option<usize>,
}

/// Plans the distinct blocks of a candidate set in serial encounter order
/// and precomputes the warm-start DAG. The warm source of each block is a
/// pure function of the *keys* seen before it (nearest same-template block
/// in the paper's `16·Δm + ΔA` metric, ties resolved exactly as the serial
/// cache iteration does), so the schedule is independent of execution
/// order — the basis for the deterministic parallel run.
fn plan_candidate_set(
    spec: &AdcSpec,
    candidates: &[Candidate],
    params: &PowerModelParams,
) -> Vec<PlannedBlock> {
    let mut planned: Vec<PlannedBlock> = Vec::new();
    // key → planned index, iterated in ascending key order to mirror the
    // serial implementation's `BTreeMap::values` warm-start scan.
    let mut seen: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for cand in candidates {
        let chain = design_chain(spec, cand.front_bits(), params);
        for design in &chain {
            let key = design.spec.reuse_key();
            if seen.contains_key(&key) {
                continue;
            }
            let req = ota_requirements(design, spec);
            let warm = seen
                .iter()
                .filter(|(_, &idx)| planned[idx].req.template == req.template)
                .min_by_key(|(k, _)| key_distance(**k, key))
                .map(|(_, &idx)| idx);
            seen.insert(key, planned.len());
            planned.push(PlannedBlock {
                key,
                req,
                stage_fp: design.spec.fingerprint(),
                warm,
            });
        }
    }
    planned
}

/// Fingerprint of everything a synthesis run shares across blocks: the
/// flow version, the target process, the budget/seed config and the hybrid
/// evaluator options. Part of every block's provenance chain.
fn flow_config_fingerprint(process: &Process, cfg: &SynthConfig) -> u64 {
    Fingerprint::new()
        .add_u64(FLOW_CACHE_VERSION)
        .add_u64(process.fingerprint())
        .add_u64(cfg.fingerprint())
        .add_u64(flow_hybrid_options().fingerprint())
        .finish()
}

/// How a scheduled block starts (after cache consultation).
#[derive(Debug, Clone)]
enum BlockStart {
    Cold,
    /// Warm from the result of an earlier scheduled block.
    Retarget(usize),
    /// Warm from a cached near-hit result (dependency-free).
    SeedFromCache(SynthResult),
    /// Exact cache hit: the stored result is the answer.
    Hit(SynthResult),
}

/// A block after planning + cache consultation, ready for the executor.
#[derive(Debug, Clone)]
struct ScheduledBlock {
    key: (u32, u32),
    req: OtaRequirements,
    /// Planned in-set warm source (kept for the `retargeted` flag).
    planned_warm: bool,
    start: BlockStart,
    /// Provenance fingerprint of the result this block will carry.
    provenance: u64,
    /// Normalized-spec cache key.
    spec_fp: u64,
    /// Run-configuration fingerprint the result is computed under.
    config_fp: u64,
}

/// Per-run synthesis statistics (the cache keeps its own cumulative
/// counters; these describe one candidate-set run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Distinct blocks scheduled.
    pub blocks: usize,
    /// Blocks answered by an exact cache hit (no synthesis).
    pub cache_hits: usize,
    /// Blocks warm-started from a cached near hit.
    pub cache_seeded: usize,
    /// Cold (full-budget) syntheses executed.
    pub cold: usize,
    /// In-set retargets executed.
    pub retargeted: usize,
    /// Evaluator calls actually spent in this run (hits spend none).
    pub evaluations_spent: usize,
    /// Blocks that produced no result after the full recovery ladder.
    pub failed: usize,
    /// Blocks that succeeded only after at least one failed attempt.
    pub recovered: usize,
    /// Blocks demoted from a planned warm retarget to a cold start because
    /// their warm source failed.
    pub demoted: usize,
    /// Total synthesis attempts across all blocks (= `blocks` when nothing
    /// failed).
    pub attempts: usize,
    /// Wall-clock slack left on the run budget at completion, in
    /// milliseconds; `None` when no run budget was set (keeps
    /// [`RunStats`] `Eq`-comparable in deterministic tests).
    pub deadline_slack_ms: Option<i64>,
}

/// Result of a cache-aware candidate-set synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisRun {
    /// Synthesized blocks in ascending reuse-key order (survivors only).
    pub blocks: Vec<MdacBlock>,
    /// What this run did (hits, seeds, evaluations, recoveries).
    pub stats: RunStats,
    /// Blocks that produced no result, in ascending reuse-key order.
    pub failures: Vec<BlockCasualty>,
}

impl SynthesisRun {
    /// Converts a degraded run into a hard error on its first casualty —
    /// for callers that treat any failed block as fatal.
    ///
    /// # Errors
    /// [`FlowError::Timeout`] when the first casualty ran out of budget,
    /// [`FlowError::BlockFailed`] otherwise.
    pub fn into_result(self) -> Result<SynthesisRun, FlowError> {
        let Some(c) = self.failures.first() else {
            return Ok(self);
        };
        let (key, message) = (c.key, c.failure.message.clone());
        Err(if c.failure.kind == FailureKind::Timeout {
            FlowError::Timeout { key, message }
        } else {
            FlowError::BlockFailed { key, message }
        })
    }
}

/// Plans a candidate set and consults the cache: exact hits become
/// [`BlockStart::Hit`], and under aggressive policy
/// ([`crate::cache::CachePolicy::Aggressive`]) a cached
/// near hit closer (in the `16·Δm + ΔA` metric) than the planned in-set
/// source — or available where no in-set source exists — seeds the warm
/// start instead. Single-threaded and deterministic given the cache state;
/// the executor only ever sees the finished schedule.
fn schedule_candidate_set(
    spec: &AdcSpec,
    candidates: &[Candidate],
    params: &PowerModelParams,
    cfg: &SynthConfig,
    cache: Option<&SharedCache>,
) -> Vec<ScheduledBlock> {
    let planned = plan_candidate_set(spec, candidates, params);
    let cfg_fp = flow_config_fingerprint(&spec.process, cfg);
    let mut scheduled: Vec<ScheduledBlock> = Vec::with_capacity(planned.len());
    for p in &planned {
        // Cache key: stage-level spec fingerprint ⊕ normalized requirement
        // grid — both components must match for two blocks to share a
        // bucket.
        let spec_fp = Fingerprint::new()
            .add_u64(p.stage_fp)
            .add_u64(p.req.normalized_fingerprint())
            .finish();
        // Provenance chain: shared run config ⊕ problem definition ⊕ exact
        // requirement bits ⊕ warm ancestry. Equal provenance attests that a
        // stored result was produced by a bit-identical computation.
        let problem_fp =
            Synthesizer::new(space_for(p.req.template), constraints_for(&p.req), "power")
                .problem_fingerprint();
        let chain = |warm_prov: u64| {
            Fingerprint::new()
                .add_u64(cfg_fp)
                .add_u64(problem_fp)
                .add_u64(p.req.exact_fingerprint())
                .add_u64(warm_prov)
                .finish()
        };
        // Start from the planned in-set decision.
        let mut start = match p.warm {
            Some(j) => BlockStart::Retarget(j),
            None => BlockStart::Cold,
        };
        let planned_warm_prov = match p.warm {
            Some(j) => scheduled[j].provenance,
            None => 0,
        };
        let mut provenance = chain(planned_warm_prov);
        if let Some(cache) = cache {
            // Exact hit first: it supersedes any warm-source decision, so
            // the (whole-cache) near-hit scan only runs on a miss.
            if let Some(hit) = cache.lookup(p.req.template, spec_fp, &p.req, provenance, cfg_fp) {
                provenance = hit.provenance;
                start = BlockStart::Hit(hit.result);
            } else {
                // Near-hit seeding (aggressive policy only; `nearest`
                // returns an entry only if *strictly* closer in the block
                // metric than the planned in-set source — ties keep the
                // legacy behaviour).
                let planned_dist = p.warm.map(|j| key_distance(scheduled[j].key, p.key));
                if let Some(seed) = cache.nearest(p.req.template, p.key, planned_dist, cfg_fp) {
                    provenance = chain(seed.provenance);
                    start = BlockStart::SeedFromCache(seed.result);
                }
            }
        }
        scheduled.push(ScheduledBlock {
            key: p.key,
            req: p.req.clone(),
            planned_warm: p.warm.is_some(),
            start,
            provenance,
            spec_fp,
            config_fp: cfg_fp,
        });
    }
    scheduled
}

/// One block's execution record — the executor's result type on the
/// guarded path. Carries the synthesis result plus the fault-tolerance
/// bookkeeping [`finish_run`] folds into [`RunStats`].
#[derive(Debug, Clone)]
struct ExecutedBlock {
    result: SynthResult,
    /// Synthesis attempts consumed (1 = first try succeeded).
    attempts: usize,
    /// Planned warm retarget ran cold because its source failed.
    demoted: bool,
    /// Succeeded only after at least one failed attempt.
    recovered: bool,
    /// `true` only when the result is exactly what the schedule planned
    /// (first attempt, no demotion, warm ancestry intact) — the cache
    /// commit gate: a recovered or demoted result was produced off the
    /// planned provenance chain and must never be stored under it.
    as_planned: bool,
}

/// Runs the deterministic fault-injection registry under a block-keyed
/// scope (no-op without the `faults` feature).
fn with_block_scope<T>(scope: &str, f: impl FnOnce() -> T) -> T {
    #[cfg(feature = "faults")]
    {
        adc_numerics::faults::with_scope(scope, f)
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = scope;
        f()
    }
}

/// Evaluator options for one rung of the recovery ladder (see
/// [`RetryPolicy`]): rung 0 is the stock flow configuration, rung 1
/// disables DC warm-start reuse, rung 2 additionally forces the dense
/// linear solver. The active deadline rides along into the DC options so
/// Newton loops observe the same budget as the annealer.
fn ladder_options(attempt: usize, deadline: Deadline) -> HybridOptions {
    let mut opts = flow_hybrid_options();
    opts.dc.deadline = deadline;
    if attempt >= 1 {
        opts.warm_start_local = false;
    }
    if attempt >= 2 {
        opts.solver = SolverChoice::Dense;
    }
    opts
}

/// Executes one scheduled block under failure isolation: the bounded
/// retry ladder, each attempt behind `catch_unwind` with the combined
/// run/block deadline. Timeouts are final; panics and typed errors
/// escalate to the next rung.
fn run_block_guarded(
    process: &Process,
    b: &ScheduledBlock,
    cfg: &SynthConfig,
    warm: Option<&ExecutedBlock>,
    flow: &FlowOptions,
    run_deadline: Deadline,
) -> Result<ExecutedBlock, BlockFailure> {
    let started = Instant::now();
    let elapsed = |t0: Instant| t0.elapsed().as_secs_f64();
    // Exact hits skip synthesis entirely — nothing to guard.
    if let BlockStart::Hit(hit) = &b.start {
        return Ok(ExecutedBlock {
            result: hit.clone(),
            attempts: 1,
            demoted: false,
            recovered: false,
            as_planned: true,
        });
    }
    // Planned-warm bookkeeping: a missing warm source (its block failed)
    // demotes this block to a cold start; a tainted warm source (its block
    // recovered off-plan) still retargets but poisons `as_planned`.
    let demoted = matches!(b.start, BlockStart::Retarget(_)) && warm.is_none();
    let ancestry_ok = match &b.start {
        BlockStart::Retarget(_) => warm.is_some_and(|w| w.as_planned),
        _ => true,
    };
    let block_deadline = match flow.block_budget {
        Some(budget) => Deadline::within(budget),
        None => Deadline::none(),
    };
    let deadline = run_deadline.earliest(block_deadline);
    let max_attempts = flow.retry.max_attempts.max(1);
    let mut last: Option<BlockFailure> = None;
    for attempt in 0..max_attempts {
        if deadline.expired() {
            let mut f = BlockFailure::new(
                FailureKind::Timeout,
                "wall-clock budget exhausted before attempt",
                elapsed(started),
            );
            f.attempts = attempt.max(1);
            last = Some(f);
            break;
        }
        let start = if attempt == 0 && !demoted {
            match &b.start {
                BlockStart::Cold => None,
                BlockStart::Retarget(_) => Some(&warm.expect("demotion handled above").result),
                BlockStart::SeedFromCache(seed) => Some(seed),
                BlockStart::Hit(_) => unreachable!("hits returned above"),
            }
        } else {
            None
        };
        let opts = ladder_options(attempt, deadline);
        let scope = format!("m{}a{}r{attempt}", b.key.0, b.key.1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_block_scope(&scope, || {
                run_ota_synthesis(process, &b.req, cfg, start, opts, deadline)
            })
        }));
        match outcome {
            Ok(Ok(result)) => {
                return Ok(ExecutedBlock {
                    result,
                    attempts: attempt + 1,
                    demoted,
                    recovered: attempt > 0,
                    as_planned: attempt == 0 && !demoted && ancestry_ok,
                });
            }
            Ok(Err(SynthError::Timeout { evaluations })) => {
                // Budget exhausted is final: no rung can buy time back.
                let mut f = BlockFailure::new(
                    FailureKind::Timeout,
                    format!("synthesis budget expired after {evaluations} evaluations"),
                    elapsed(started),
                );
                f.attempts = attempt + 1;
                return Err(f);
            }
            Ok(Err(e @ SynthError::Failed(_))) => {
                let mut f = BlockFailure::new(FailureKind::Error, e.to_string(), elapsed(started));
                f.attempts = attempt + 1;
                last = Some(f);
            }
            Err(payload) => {
                let mut f = BlockFailure::new(
                    FailureKind::Panic,
                    crate::executor::panic_message(payload.as_ref()),
                    elapsed(started),
                );
                f.attempts = attempt + 1;
                last = Some(f);
            }
        }
    }
    Err(last.expect("ladder ran at least one attempt"))
}

/// Executes a schedule on the dependency-driven executor under failure
/// isolation: each block runs [`run_block_guarded`]; dependents of failed
/// blocks are demoted to cold starts instead of unwinding.
fn execute_schedule(
    process: &Process,
    scheduled: &[ScheduledBlock],
    cfg: &SynthConfig,
    exec: &ExecutorOptions,
    flow: &FlowOptions,
    run_deadline: Deadline,
) -> Vec<BlockOutcome<ExecutedBlock>> {
    let deps: Vec<Option<usize>> = scheduled
        .iter()
        .map(|b| match b.start {
            BlockStart::Retarget(j) => Some(j),
            _ => None,
        })
        .collect();
    run_dag_outcomes(&deps, exec, |i, warm: Option<&ExecutedBlock>| {
        run_block_guarded(process, &scheduled[i], cfg, warm, flow, run_deadline)
    })
}

/// Executes a schedule strictly serially in encounter order — the
/// determinism oracle for [`execute_schedule`], sharing the same guarded
/// block runner.
fn execute_schedule_serial(
    process: &Process,
    scheduled: &[ScheduledBlock],
    cfg: &SynthConfig,
    flow: &FlowOptions,
    run_deadline: Deadline,
) -> Vec<BlockOutcome<ExecutedBlock>> {
    let mut results: Vec<BlockOutcome<ExecutedBlock>> = Vec::with_capacity(scheduled.len());
    for b in scheduled {
        let warm: Option<ExecutedBlock> = match b.start {
            BlockStart::Retarget(j) => results[j].ok().cloned(),
            _ => None,
        };
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            run_block_guarded(process, b, cfg, warm.as_ref(), flow, run_deadline)
        })) {
            Ok(Ok(eb)) => BlockOutcome::Ok(eb),
            Ok(Err(f)) => BlockOutcome::Failed(f),
            Err(payload) => BlockOutcome::Failed(BlockFailure::new(
                FailureKind::Panic,
                crate::executor::panic_message(payload.as_ref()),
                0.0,
            )),
        };
        results.push(outcome);
    }
    results
}

/// Commits freshly synthesized blocks to the cache and assembles the
/// merged block list, casualty list and per-run statistics. Failed blocks
/// never reach the cache; neither do recovered or demoted results, whose
/// trajectories diverged from the provenance chain computed at schedule
/// time.
fn finish_run(
    scheduled: Vec<ScheduledBlock>,
    outcomes: Vec<BlockOutcome<ExecutedBlock>>,
    cache: Option<&SharedCache>,
    deadline_slack_ms: Option<i64>,
) -> SynthesisRun {
    let mut stats = RunStats {
        blocks: scheduled.len(),
        deadline_slack_ms,
        ..RunStats::default()
    };
    let mut blocks: Vec<MdacBlock> = Vec::with_capacity(scheduled.len());
    let mut failures: Vec<BlockCasualty> = Vec::new();
    for (b, outcome) in scheduled.into_iter().zip(outcomes) {
        let executed = match outcome {
            BlockOutcome::Ok(eb) => eb,
            BlockOutcome::Failed(failure) => {
                stats.failed += 1;
                stats.attempts += failure.attempts;
                failures.push(BlockCasualty {
                    key: b.key,
                    failure,
                });
                continue;
            }
        };
        let origin = match &b.start {
            BlockStart::Cold => BlockOrigin::Cold,
            BlockStart::Retarget(_) => BlockOrigin::Retargeted,
            BlockStart::SeedFromCache(_) => BlockOrigin::CacheSeeded,
            BlockStart::Hit(_) => BlockOrigin::CacheHit,
        };
        match origin {
            BlockOrigin::Cold => stats.cold += 1,
            BlockOrigin::Retargeted => stats.retargeted += 1,
            BlockOrigin::CacheSeeded => stats.cache_seeded += 1,
            BlockOrigin::CacheHit => stats.cache_hits += 1,
        }
        stats.attempts += executed.attempts;
        stats.recovered += usize::from(executed.recovered);
        stats.demoted += usize::from(executed.demoted);
        if origin != BlockOrigin::CacheHit {
            stats.evaluations_spent += executed.result.evaluations;
            // Cache-commit gate: only results produced exactly as planned
            // carry the provenance computed at schedule time.
            if executed.as_planned {
                if let Some(cache) = cache {
                    cache.insert(
                        b.req.template,
                        b.spec_fp,
                        CacheEntry {
                            key: b.key,
                            req: b.req.clone(),
                            result: executed.result.clone(),
                            provenance: b.provenance,
                            config: b.config_fp,
                        },
                    );
                }
            }
        }
        blocks.push(MdacBlock {
            key: b.key,
            requirements: b.req,
            result: executed.result,
            retargeted: b.planned_warm,
            origin,
        });
    }
    blocks.sort_by_key(|b| b.key);
    failures.sort_by_key(|c| c.key);
    SynthesisRun {
        blocks,
        stats,
        failures,
    }
}

/// How the scheduled blocks of a [`FlowRequest`] execute.
#[derive(Debug, Clone)]
pub enum ExecutionMode {
    /// Dependency-driven parallel executor (the production path): each
    /// block spawns the moment its warm source completes.
    Parallel(ExecutorOptions),
    /// Strictly serial encounter order — the determinism oracle; results
    /// are bit-identical to the parallel mode for any thread count.
    Serial,
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::Parallel(ExecutorOptions::default())
    }
}

/// One complete candidate-set synthesis request: the spec, the candidates
/// under consideration, the power-model and synthesis configurations, the
/// fault-tolerance [`FlowOptions`], and the [`ExecutionMode`]. Cache policy
/// rides separately (as the `cache` argument of [`run_flow`] /
/// [`run_flow_shared`]) because the cache outlives any one request.
#[derive(Debug, Clone)]
pub struct FlowRequest<'a> {
    /// Converter specification (resolution, rate, supply, process).
    pub spec: &'a AdcSpec,
    /// Candidate configurations whose distinct blocks are synthesized.
    pub candidates: &'a [Candidate],
    /// Analytic power-model parameters.
    pub params: &'a PowerModelParams,
    /// Synthesis budget/seed configuration.
    pub cfg: &'a SynthConfig,
    /// Fault-tolerance knobs (retry ladder, block/run budgets).
    pub options: FlowOptions,
    /// Parallel executor or the serial oracle.
    pub mode: ExecutionMode,
}

impl<'a> FlowRequest<'a> {
    /// A request with default [`FlowOptions`] and the parallel executor.
    pub fn new(
        spec: &'a AdcSpec,
        candidates: &'a [Candidate],
        params: &'a PowerModelParams,
        cfg: &'a SynthConfig,
    ) -> Self {
        FlowRequest {
            spec,
            candidates,
            params,
            cfg,
            options: FlowOptions::default(),
            mode: ExecutionMode::default(),
        }
    }

    /// Replaces the fault-tolerance options.
    #[must_use]
    pub fn with_options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs on the parallel executor with explicit options.
    #[must_use]
    pub fn with_executor(mut self, exec: ExecutorOptions) -> Self {
        self.mode = ExecutionMode::Parallel(exec);
        self
    }

    /// Runs strictly serially (the determinism oracle).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.mode = ExecutionMode::Serial;
        self
    }

    fn run_deadline(&self) -> Deadline {
        match self.options.run_budget {
            Some(budget) => Deadline::within(budget),
            None => Deadline::none(),
        }
    }
}

/// The one flow body behind [`run_flow`] and [`run_flow_shared`]:
/// schedule (with cache consultation), guarded execution in the requested
/// mode, deterministic merge + cache commit.
fn run(req: &FlowRequest<'_>, cache: Option<&SharedCache>) -> SynthesisRun {
    let run_deadline = req.run_deadline();
    let scheduled = schedule_candidate_set(req.spec, req.candidates, req.params, req.cfg, cache);
    let process = &req.spec.process;
    let outcomes = match &req.mode {
        ExecutionMode::Parallel(exec) => execute_schedule(
            process,
            &scheduled,
            req.cfg,
            exec,
            &req.options,
            run_deadline,
        ),
        ExecutionMode::Serial => {
            execute_schedule_serial(process, &scheduled, req.cfg, &req.options, run_deadline)
        }
    };
    let slack = run_deadline
        .slack_seconds()
        .map(|s| (s * 1e3).round() as i64);
    finish_run(scheduled, outcomes, cache, slack)
}

/// Runs one [`FlowRequest`] end to end against an optional exclusively
/// held [`BlockCache`]. Failed blocks are isolated, retried up the
/// recovery ladder, and reported as [`SynthesisRun::failures`] while the
/// survivors are ranked normally; with default [`FlowOptions`] and no
/// faults the result is bit-identical to the serial oracle.
pub fn run_flow(req: &FlowRequest<'_>, cache: Option<&mut BlockCache>) -> SynthesisRun {
    run(req, cache.as_deref())
}

/// [`run_flow`] against a **sharded** [`SharedCache`] — the resident
/// flow-server entry point. Each lookup during scheduling and each commit
/// afterwards locks exactly the one shard owning that block's
/// normalized-spec fingerprint; the synthesis itself runs unlocked, so
/// concurrent requests interleave their block executions (and their cache
/// consultations on distinct shards) while every shard stays consistent.
/// Poisoned shard locks are recovered (the cache's integrity fingerprints
/// already guard against torn entries). The result is deterministic given
/// the per-shard cache state observed at each lookup; under
/// [`crate::cache::CachePolicy::Reproducible`] it is bit-identical to a
/// cache-cold serial run for any shard or thread count.
pub fn run_flow_shared(req: &FlowRequest<'_>, cache: &SharedCache) -> SynthesisRun {
    run(req, Some(cache))
}

/// Candidates whose every required MDAC block survived a (possibly
/// degraded) synthesis run — the basis for ranking under casualties: a
/// candidate is rankable only if all of its stage reuse keys produced
/// results.
pub fn surviving_candidates(
    spec: &AdcSpec,
    candidates: &[Candidate],
    run: &SynthesisRun,
) -> Vec<Candidate> {
    let have: std::collections::BTreeSet<(u32, u32)> = run.blocks.iter().map(|b| b.key).collect();
    candidates
        .iter()
        .filter(|c| {
            adc_mdac::specs::stage_specs(spec, c.front_bits())
                .iter()
                .all(|st| have.contains(&st.reuse_key()))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use crate::enumerate::enumerate_candidates;

    #[test]
    fn distinct_specs_for_13_bit_are_about_eleven() {
        let spec = AdcSpec::date05(13);
        let cands = enumerate_candidates(13, 7);
        let keys = distinct_mdac_specs(&spec, &cands);
        // The paper reports eleven; our accuracy bookkeeping yields 12
        // distinct (m, A) pairs — documented in DESIGN.md.
        assert!(
            (11..=12).contains(&keys.len()),
            "expected ~11 distinct MDACs, got {}: {keys:?}",
            keys.len()
        );
        assert!(keys.contains(&(4, 13)));
        assert!(keys.contains(&(2, 8)));
    }

    #[test]
    fn requirements_scale_with_accuracy() {
        let spec = AdcSpec::date05(13);
        let params = PowerModelParams::calibrated();
        let chain = design_chain(&spec, &[4, 3, 2], &params);
        let r1 = ota_requirements(&chain[0], &spec);
        let r3 = ota_requirements(&chain[2], &spec);
        assert!(r1.a0_min > r3.a0_min);
        assert!(r1.unity_min > r3.unity_min);
        assert!(r1.c_load > r3.c_load);
        assert_eq!(r3.template, TemplateKind::Telescopic);
        assert_eq!(r1.template, TemplateKind::TwoStage);
    }

    #[test]
    fn requirement_fingerprints_separate_normalization_from_exactness() {
        let spec = AdcSpec::date05(13);
        let params = PowerModelParams::calibrated();
        let chain = design_chain(&spec, &[4, 3, 2], &params);
        let r = ota_requirements(&chain[2], &spec);
        // Last-ulp jitter collapses on the normalized grid but not in the
        // exact provenance fingerprint.
        let mut jittered = r.clone();
        jittered.a0_min *= 1.0 + 1e-14;
        assert_eq!(
            r.normalized_fingerprint(),
            jittered.normalized_fingerprint()
        );
        assert_ne!(r.exact_fingerprint(), jittered.exact_fingerprint());
        // A genuinely different spec separates on both.
        let other = ota_requirements(&chain[1], &spec);
        assert_ne!(r.normalized_fingerprint(), other.normalized_fingerprint());
    }

    /// Cross-resolution reuse premise: the (2, 8) last-front-stage block of
    /// the 13-bit 4-3-2 and the 11-bit 4-2 candidates derives bit-identical
    /// requirements — what makes the persistent cache hit across `flow`
    /// resolution runs.
    #[test]
    fn shared_blocks_across_resolutions_have_identical_requirements() {
        let params = PowerModelParams::calibrated();
        let s13 = AdcSpec::date05(13);
        let s11 = AdcSpec::date05(11);
        let c13 = design_chain(&s13, &[4, 3, 2], &params);
        let c11 = design_chain(&s11, &[4, 2], &params);
        let r13 = ota_requirements(&c13[2], &s13);
        let r11 = ota_requirements(&c11[1], &s11);
        assert_eq!(r13, r11);
        assert_eq!(r13.exact_fingerprint(), r11.exact_fingerprint());
    }

    /// Determinism regression: the executor-driven candidate-set synthesis
    /// must produce bit-identical results (sizing, cost, evaluation counts
    /// and ordering) to the serial reference for the 13-bit candidate set.
    #[test]
    fn parallel_candidate_set_matches_serial() {
        let spec = AdcSpec::date05(13);
        let params = PowerModelParams::calibrated();
        let cands = enumerate_candidates(13, 7);
        let cfg = SynthConfig {
            iterations: 12,
            nm_iterations: 3,
            seed: 3,
            ..Default::default()
        };
        let serial = run_flow(
            &FlowRequest::new(&spec, &cands, &params, &cfg).serial(),
            None,
        )
        .blocks;
        let parallel = run_flow(&FlowRequest::new(&spec, &cands, &params, &cfg), None).blocks;
        assert_eq!(serial.len(), parallel.len());
        assert!(serial.len() >= 11, "expected the paper's ~11 blocks");
        assert!(serial.iter().any(|b| b.retargeted));
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.retargeted, b.retargeted);
            assert_eq!(a.origin, b.origin);
            assert_eq!(a.result.best_x, b.result.best_x, "key {:?}", a.key);
            assert_eq!(a.result.best_cost, b.result.best_cost, "key {:?}", a.key);
            assert_eq!(
                a.result.evaluations, b.result.evaluations,
                "key {:?}",
                a.key
            );
            assert_eq!(a.result.feasible, b.result.feasible, "key {:?}", a.key);
        }
    }

    /// A reproducible cache warmed by one run answers a repeat of the same
    /// run entirely from provenance-exact hits, bit-identically.
    #[test]
    fn reproducible_cache_replays_identical_run() {
        let spec = AdcSpec::date05(10);
        let params = PowerModelParams::calibrated();
        let cands = enumerate_candidates(10, 7);
        let cfg = SynthConfig {
            iterations: 10,
            nm_iterations: 2,
            seed: 7,
            ..Default::default()
        };
        let mut cache = BlockCache::new(CachePolicy::Reproducible);
        let req = FlowRequest::new(&spec, &cands, &params, &cfg);
        let first = run_flow(&req, Some(&mut cache));
        assert_eq!(first.stats.cache_hits, 0);
        assert!(cache.len() >= first.blocks.len());
        let second = run_flow(&req, Some(&mut cache));
        assert_eq!(
            second.stats.cache_hits, second.stats.blocks,
            "repeat run must be all hits: {:?}",
            second.stats
        );
        assert_eq!(second.stats.evaluations_spent, 0);
        for (a, b) in first.blocks.iter().zip(second.blocks.iter()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.result.best_x, b.result.best_x);
            assert_eq!(a.result.evaluations, b.result.evaluations);
            assert_eq!(b.origin, BlockOrigin::CacheHit);
        }
    }

    /// A cache warmed under one synthesis config must never answer a run
    /// under a different config — hits and seeds are config-isolated even
    /// under the aggressive policy.
    #[test]
    fn cache_never_crosses_synthesis_configs() {
        let spec = AdcSpec::date05(10);
        let params = PowerModelParams::calibrated();
        let cands = enumerate_candidates(10, 7);
        let cfg_a = SynthConfig {
            iterations: 10,
            nm_iterations: 2,
            seed: 7,
            ..Default::default()
        };
        let cfg_b = SynthConfig {
            iterations: 14,
            ..cfg_a.clone()
        };
        let mut cache = BlockCache::new(CachePolicy::Aggressive);
        run_flow(
            &FlowRequest::new(&spec, &cands, &params, &cfg_a),
            Some(&mut cache),
        );
        let run_b = run_flow(
            &FlowRequest::new(&spec, &cands, &params, &cfg_b),
            Some(&mut cache),
        );
        assert_eq!(run_b.stats.cache_hits, 0, "{:?}", run_b.stats);
        assert_eq!(run_b.stats.cache_seeded, 0, "{:?}", run_b.stats);
        // And the isolated run is bit-identical to a cache-free one.
        let plain = run_flow(&FlowRequest::new(&spec, &cands, &params, &cfg_b), None).blocks;
        for (a, b) in run_b.blocks.iter().zip(plain.iter()) {
            assert_eq!(a.result.best_x, b.result.best_x);
            assert_eq!(a.result.evaluations, b.result.evaluations);
        }
    }

    /// Failure isolation bookkeeping: a failed block leaves no cache
    /// entry, is reported as a casualty, and removes the candidates that
    /// needed it from the survivor set; an off-plan (recovered/demoted)
    /// result is ranked but never committed under the planned provenance.
    #[test]
    fn failed_and_off_plan_blocks_never_reach_the_cache() {
        let spec = AdcSpec::date05(10);
        let params = PowerModelParams::calibrated();
        let cands = enumerate_candidates(10, 7);
        let cfg = SynthConfig {
            iterations: 8,
            nm_iterations: 2,
            seed: 1,
            ..Default::default()
        };
        let cache = BlockCache::new(CachePolicy::Reproducible);
        let scheduled = schedule_candidate_set(&spec, &cands, &params, &cfg, Some(&cache));
        let n = scheduled.len();
        assert!(n > 0);
        // Every block fails → no survivors, no cache entries, full report.
        let outcomes: Vec<BlockOutcome<ExecutedBlock>> = (0..n)
            .map(|i| {
                BlockOutcome::Failed(BlockFailure::new(
                    FailureKind::Error,
                    format!("fabricated failure {i}"),
                    0.0,
                ))
            })
            .collect();
        let run = finish_run(scheduled, outcomes, Some(&cache), None);
        assert!(run.blocks.is_empty());
        assert_eq!(run.failures.len(), n);
        assert_eq!(run.stats.failed, n);
        assert_eq!(cache.len(), 0, "failed blocks must never be cached");
        assert!(surviving_candidates(&spec, &cands, &run).is_empty());
        assert!(run.into_result().is_err());
        // Every block "recovers" off-plan → ranked survivors, still no
        // cache commits (the planned provenance no longer attests them).
        let scheduled = schedule_candidate_set(&spec, &cands, &params, &cfg, Some(&cache));
        let fake = SynthResult {
            best_x: vec![1.0],
            best_u: vec![0.5],
            best_perf: Default::default(),
            best_cost: 1.0,
            feasible: true,
            evaluations: 5,
        };
        let outcomes: Vec<BlockOutcome<ExecutedBlock>> = (0..n)
            .map(|_| {
                BlockOutcome::Ok(ExecutedBlock {
                    result: fake.clone(),
                    attempts: 2,
                    demoted: false,
                    recovered: true,
                    as_planned: false,
                })
            })
            .collect();
        let run = finish_run(scheduled, outcomes, Some(&cache), None);
        assert_eq!(run.blocks.len(), n);
        assert_eq!(run.stats.recovered, n);
        assert_eq!(run.stats.attempts, 2 * n);
        assert_eq!(cache.len(), 0, "off-plan results must never be cached");
        assert_eq!(surviving_candidates(&spec, &cands, &run).len(), cands.len());
    }

    /// [`run_flow_shared`] (per-shard-locked schedule/commit, the server
    /// path) is bit-identical to [`run_flow`] with exclusive cache access
    /// — for **every** shard count — and a second shared run replays from
    /// provenance-exact hits regardless of how the entries are sharded.
    #[test]
    fn shared_cache_flow_matches_exclusive() {
        let spec = AdcSpec::date05(10);
        let params = PowerModelParams::calibrated();
        let cands = enumerate_candidates(10, 7);
        let cfg = SynthConfig {
            iterations: 8,
            nm_iterations: 2,
            seed: 17,
            ..Default::default()
        };
        let req = FlowRequest::new(&spec, &cands, &params, &cfg);
        let mut exclusive_cache = BlockCache::new(CachePolicy::Reproducible);
        let exclusive = run_flow(&req, Some(&mut exclusive_cache));
        for shards in [1, 3, 8] {
            let shared_cache = SharedCache::with_shards(CachePolicy::Reproducible, shards);
            let shared = run_flow_shared(&req, &shared_cache);
            assert_eq!(exclusive.stats, shared.stats, "{shards} shards");
            for (a, b) in exclusive.blocks.iter().zip(shared.blocks.iter()) {
                assert_eq!(a.key, b.key, "{shards} shards");
                assert_eq!(a.result.best_x, b.result.best_x, "{shards} shards");
                assert_eq!(
                    a.result.evaluations, b.result.evaluations,
                    "{shards} shards"
                );
            }
            let replay = run_flow_shared(&req, &shared_cache);
            assert_eq!(
                replay.stats.cache_hits, replay.stats.blocks,
                "{shards} shards"
            );
            assert_eq!(replay.stats.evaluations_spent, 0, "{shards} shards");
            // The merged counters see both runs: every block looked up
            // twice, hit on the replay, inserted once.
            let merged = shared_cache.stats();
            assert_eq!(merged.lookups, 2 * replay.stats.blocks);
            assert_eq!(merged.hits, replay.stats.blocks);
            assert_eq!(merged.insertions, shared_cache.len());
        }
    }

    /// A degraded [`SynthesisRun`] converts to the typed error of its
    /// first casualty through `into_result()`.
    #[test]
    fn synthesis_run_into_result_is_typed() {
        let clean = SynthesisRun {
            blocks: Vec::new(),
            stats: RunStats::default(),
            failures: Vec::new(),
        };
        assert!(clean.into_result().is_ok());
        let poisoned = SynthesisRun {
            blocks: Vec::new(),
            stats: RunStats::default(),
            failures: vec![BlockCasualty {
                key: (3, 10),
                failure: BlockFailure::new(FailureKind::Timeout, "budget", 0.1),
            }],
        };
        match poisoned.into_result() {
            Err(FlowError::Timeout { key, .. }) => assert_eq!(key, (3, 10)),
            other => panic!("expected typed timeout, got {other:?}"),
        }
    }

    /// End-to-end circuit synthesis of the cheapest block (the 2-bit last
    /// stage of the 13-bit 4-3-2 candidate) with a small budget.
    #[test]
    fn synthesize_last_stage_ota_meets_spec() {
        let spec = AdcSpec::date05(13);
        let params = PowerModelParams::calibrated();
        let chain = design_chain(&spec, &[4, 3, 2], &params);
        let req = ota_requirements(&chain[2], &spec);
        let cfg = SynthConfig {
            iterations: 350,
            nm_iterations: 60,
            seed: 21,
            ..Default::default()
        };
        let run = synthesize_ota(&spec.process, &req, &cfg, None);
        // With a tiny budget we at least approach feasibility; the block
        // must have a real gain and a unity crossing.
        let a0 = run.best_perf.get("a0").unwrap_or(0.0);
        let fu = run.best_perf.get("unity_freq").unwrap_or(0.0);
        assert!(a0 > req.a0_min * 0.3, "a0 {a0} vs req {}", req.a0_min);
        assert!(fu > req.unity_min * 0.3, "fu {fu} vs req {}", req.unity_min);
    }
}

/// The synthesis-DC contract of [`block_evaluator`]: the global phase
/// starts Newton from the operating point of the template's nominal design
/// and stops without the homotopy ladder, it solves every sizing the
/// ladder solves, and an evaluation stays a pure function of its
/// candidate.
#[cfg(test)]
mod synth_dc_tests {
    use super::*;
    use adc_spice::dc::{dc_operating_point_newton, dc_operating_point_with, DcWorkspace};
    use adc_synth::{EvalOutcome, Evaluator};

    const TEMPLATES: [TemplateKind; 2] = [TemplateKind::Telescopic, TemplateKind::TwoStage];

    /// Deterministic uniform stream on [0, 1) (splitmix64).
    struct Uniform(u64);

    impl Uniform {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        }

        /// A sizing drawn log- or linear-uniformly over the template's
        /// bounds, as the annealer's design space maps them.
        fn sizing(&mut self, template: TemplateKind) -> Vec<f64> {
            let space = space_for(template);
            let u: Vec<f64> = (0..space.dim()).map(|_| self.next()).collect();
            space.denormalize(&u)
        }
    }

    fn testbench(template: TemplateKind, x: &[f64], c_load: f64) -> Circuit {
        let process = Process::c025();
        match template {
            TemplateKind::Telescopic => {
                build_telescopic(&process, &TelescopicParams::from_vec(x), c_load).circuit
            }
            TemplateKind::TwoStage => {
                build_two_stage(&process, &TwoStageParams::from_vec(x), c_load).circuit
            }
        }
    }

    fn evaluator(
        template: TemplateKind,
        opts: HybridOptions,
    ) -> HybridOtaEvaluator<impl Fn(&[f64]) -> BenchSetup> {
        block_evaluator(&Process::c025(), template, 1e-12, opts)
    }

    fn bits(out: &EvalOutcome) -> Option<Vec<(String, u64)>> {
        match out {
            EvalOutcome::Ok(p) => Some(
                p.iter()
                    .map(|(k, v)| (k.to_string(), v.to_bits()))
                    .collect(),
            ),
            EvalOutcome::Failed(_) => None,
        }
    }

    /// Every sizing that the whole ladder solves from zero, plain Newton
    /// from the nominal operating point solves too, at the same point.
    #[test]
    fn synthesis_dc_solves_every_sizing_the_ladder_solves() {
        let opts = flow_hybrid_options().dc;
        let mut rng = Uniform(0x0d15_ea5e);
        let (mut solved, mut only_from_start) = (0, 0);
        for template in TEMPLATES {
            for c_load in [0.3e-12, 1e-12, 3e-12] {
                let c = testbench(template, &nominal_sizing(template), c_load);
                let mut ws = DcWorkspace::new(&c).unwrap();
                let start = dc_operating_point_with(&mut ws, &c, &opts)
                    .expect("the nominal design solves")
                    .solution()
                    .to_vec();
                for _ in 0..60 {
                    let x = rng.sizing(template);
                    let c = testbench(template, &x, c_load);
                    let ladder =
                        dc_operating_point_with(&mut DcWorkspace::new(&c).unwrap(), &c, &opts);
                    let synth = dc_operating_point_newton(&mut ws, &c, &opts, Some(&start));
                    match (ladder, synth) {
                        (Ok(want), Ok(got)) => {
                            solved += 1;
                            for (a, b) in got.voltages().iter().zip(want.voltages()) {
                                assert!(
                                    (a - b).abs() <= 1e-9,
                                    "{template:?} at {c_load:e} F, x = {x:?}: {a} V vs {b} V"
                                );
                            }
                        }
                        (Ok(_), Err(e)) => {
                            panic!("{template:?} at {c_load:e} F, x = {x:?}: the ladder solves, the synthesis DC fails: {e}")
                        }
                        (Err(_), Ok(_)) => only_from_start += 1,
                        (Err(_), Err(_)) => {}
                    }
                }
            }
        }
        eprintln!("solved by both: {solved} of 360, only from the start: {only_from_start}");
        assert!(solved > 250, "only {solved} of 360 sizings solved");
    }

    /// A global-phase evaluation of `x` returns the same bits from a fresh
    /// evaluator and from one whose history holds other sizings, a DC
    /// failure and a local-phase (warm-start) stretch.
    #[test]
    fn global_phase_evaluations_do_not_depend_on_history() {
        let mut rng = Uniform(0x9a11_0c0d);
        for template in TEMPLATES {
            let probes: Vec<Vec<f64>> = (0..4).map(|_| rng.sizing(template)).collect();
            let want: Vec<_> = probes
                .iter()
                .map(|x| bits(&evaluator(template, flow_hybrid_options()).evaluate(x)))
                .collect();
            assert!(
                want.iter().any(Option::is_some),
                "{template:?}: no probe solved"
            );

            let ev = evaluator(template, flow_hybrid_options());
            let mut dc_failed = false;
            for _ in 0..200 {
                let x = rng.sizing(template);
                if matches!(ev.evaluate(&x), EvalOutcome::Failed(m) if m.starts_with("DC")) {
                    dc_failed = true;
                    break;
                }
            }
            assert!(dc_failed, "{template:?}: the history holds no DC failure");
            ev.set_local_phase(true);
            for k in 1..=5 {
                let x: Vec<f64> = probes[0]
                    .iter()
                    .map(|v| v * (1.0 + 0.01 * k as f64))
                    .collect();
                ev.evaluate(&x);
            }
            ev.set_local_phase(false);
            for (x, want) in probes.iter().zip(&want) {
                assert_eq!(&bits(&ev.evaluate(x)), want, "{template:?}, x = {x:?}");
            }
        }
    }

    /// Every sparse refactorization fails: the start solve and the
    /// synthesis DC solves each fall back to the dense engine, and the
    /// evaluations match a forced-dense evaluator bit for bit.
    #[cfg(feature = "faults")]
    #[test]
    fn sparse_pivot_fault_in_synthesis_dc_falls_back_to_dense_bit_identically() {
        use adc_numerics::faults::{self, FaultAction, FaultPlan, FaultRule, SITE_SPARSE_PIVOT};
        struct Clear;
        impl Drop for Clear {
            fn drop(&mut self) {
                faults::clear();
            }
        }
        let scope = "synthesis-dc-pivot";
        let with = |solver| HybridOptions {
            solver,
            ..flow_hybrid_options()
        };
        let mut rng = Uniform(0x0bad_f00d);
        let mut engines_differ = false;
        for template in TEMPLATES {
            let xs: Vec<Vec<f64>> = (0..3).map(|_| rng.sizing(template)).collect();
            let run =
                |ev: &dyn Evaluator| xs.iter().map(|x| bits(&ev.evaluate(x))).collect::<Vec<_>>();
            let want = run(&evaluator(template, with(SolverChoice::Dense)));
            assert!(
                want.iter().any(Option::is_some),
                "{template:?}: nothing solved"
            );
            engines_differ |= run(&evaluator(template, with(SolverChoice::Sparse))) != want;

            let _clear = Clear;
            faults::install(FaultPlan {
                seed: 20,
                rules: (0..64)
                    .map(|nth| FaultRule {
                        site: SITE_SPARSE_PIVOT,
                        scope_contains: Some(scope.to_string()),
                        nth,
                        action: FaultAction::FailConvergence,
                    })
                    .collect(),
            });
            // The start solve runs when the evaluator is built: build it
            // under the faults too.
            let got = faults::with_scope(scope, || {
                run(&evaluator(template, with(SolverChoice::Sparse)))
            });
            assert_eq!(got, want, "{template:?}");
        }
        assert!(
            engines_differ,
            "sparse and dense agree bitwise: the test cannot bite"
        );
    }
}
