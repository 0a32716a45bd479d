//! Deterministic chaos suite: seeded fault injection into the guarded
//! candidate-set flow (`--features faults`).
//!
//! Contract under test: a single injected fault at any layer — synthesis,
//! executor, cache commit — produces either a **deterministic degraded
//! ranking** (the failed block is reported in [`SynthesisRun::failures`],
//! survivors are bit-identical across thread counts and to the serial
//! oracle) or a typed error, and never a process-level unwind. Zero-fault
//! guarded runs are bit-identical to the unguarded historical path.
#![cfg(feature = "faults")]

use pipelined_adc::mdac::opamp::{build_telescopic, TelescopicParams};
use pipelined_adc::mdac::power::PowerModelParams;
use pipelined_adc::mdac::specs::AdcSpec;
use pipelined_adc::numerics::faults::{
    self, FaultAction, FaultPlan, FaultRule, SITE_CACHE_COMMIT, SITE_EXECUTOR_TASK,
    SITE_SPARSE_PIVOT, SITE_SYNTH_EXECUTE, SITE_TRAN_SOLVE,
};
use pipelined_adc::spice::dc::{dc_operating_point_with, DcOptions, DcWorkspace};
use pipelined_adc::spice::tran::{
    transient_adaptive, transient_with, InitialCondition, TimeStepConfig, TranOptions, TranResult,
    TranWorkspace,
};
use pipelined_adc::spice::{Circuit, NodeId, Process, SolverChoice};
use pipelined_adc::synth::SynthConfig;
use pipelined_adc::topopt::cache::{BlockCache, CachePolicy};
use pipelined_adc::topopt::enumerate::{enumerate_candidates, Candidate};
use pipelined_adc::topopt::executor::{ExecutorOptions, FailureKind};
use pipelined_adc::topopt::flow::{
    run_flow, surviving_candidates, FlowOptions, FlowRequest, MdacBlock, SynthesisRun,
};
use pipelined_adc::topopt::verify::{verify_candidate, ChainVerification, VerifyOptions};
use std::sync::Mutex;

/// The fault registry is process-global; chaos tests take this lock so
/// concurrent test threads never see each other's plans.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn cfg() -> SynthConfig {
    SynthConfig {
        iterations: 10,
        nm_iterations: 2,
        seed: 9,
        ..Default::default()
    }
}

/// The 13-bit guarded candidate-set run (no cache) under the given plan.
fn run_13bit(plan: Option<FaultPlan>, threads: Option<usize>) -> SynthesisRun {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let cands = enumerate_candidates(13, 7);
    match plan {
        Some(p) => faults::install(p),
        None => faults::clear(),
    }
    let exec = match threads {
        Some(t) => ExecutorOptions::with_threads(t),
        None => ExecutorOptions::default(),
    };
    let run = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .with_executor(exec)
            .with_options(FlowOptions::default()),
        None,
    );
    faults::clear();
    run
}

fn assert_blocks_bit_identical(label: &str, a: &[MdacBlock], b: &[MdacBlock]) {
    assert_eq!(a.len(), b.len(), "{label}: block count");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.key, y.key, "{label}");
        assert_eq!(x.result.best_x, y.result.best_x, "{label}: key {:?}", x.key);
        assert_eq!(
            x.result.best_cost, y.result.best_cost,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.evaluations, y.result.evaluations,
            "{label}: key {:?}",
            x.key
        );
    }
}

/// Kills every rung of the ladder for block (2, 8): the block is reported
/// as a casualty, survivors are bit-identical across the serial oracle and
/// 1/2/4-thread executors, and candidates needing the block drop out of
/// the ranking.
#[test]
fn persistent_synth_fault_degrades_ranking_deterministically() {
    let _g = lock();
    let kill_all_rungs = || FaultPlan {
        seed: 1,
        rules: (0..3)
            .map(|r| FaultRule::first(SITE_SYNTH_EXECUTE, &format!("m2a8r{r}"), FaultAction::Panic))
            .collect(),
    };
    let serial = {
        let spec = AdcSpec::date05(13);
        let params = PowerModelParams::calibrated();
        let cands = enumerate_candidates(13, 7);
        faults::install(kill_all_rungs());
        let run = run_flow(
            &FlowRequest::new(&spec, &cands, &params, &cfg())
                .serial()
                .with_options(FlowOptions::default()),
            None,
        );
        faults::clear();
        run
    };
    assert_eq!(serial.failures.len(), 1, "exactly one casualty");
    assert_eq!(serial.failures[0].key, (2, 8));
    assert_eq!(serial.failures[0].failure.kind, FailureKind::Panic);
    assert_eq!(serial.failures[0].failure.attempts, 3, "full ladder spent");
    assert_eq!(serial.stats.failed, 1);
    assert!(serial.blocks.iter().all(|b| b.key != (2, 8)));
    for threads in [1, 2, 4] {
        let parallel = run_13bit(Some(kill_all_rungs()), Some(threads));
        assert_blocks_bit_identical(
            &format!("threads={threads}"),
            &serial.blocks,
            &parallel.blocks,
        );
        assert_eq!(serial.stats, parallel.stats, "threads={threads}");
        assert_eq!(serial.failures.len(), parallel.failures.len());
        assert_eq!(serial.failures[0].key, parallel.failures[0].key);
    }
    // Degraded ranking: candidates that need (2, 8) are not rankable.
    let spec = AdcSpec::date05(13);
    let cands = enumerate_candidates(13, 7);
    let survivors = surviving_candidates(&spec, &cands, &serial);
    assert!(survivors.len() < cands.len(), "some candidates must drop");
    assert!(!survivors.is_empty(), "some candidates must survive");
}

/// A timeout fault is typed and final: the ladder does not retry it.
#[test]
fn timeout_fault_is_typed_and_final() {
    let _g = lock();
    let plan = FaultPlan::single(
        2,
        FaultRule::first(SITE_SYNTH_EXECUTE, "m2a8r0", FaultAction::Timeout),
    );
    let run = run_13bit(Some(plan), Some(2));
    assert_eq!(run.failures.len(), 1);
    let f = &run.failures[0].failure;
    assert_eq!(f.kind, FailureKind::Timeout);
    assert_eq!(f.attempts, 1, "timeouts must not ride the retry ladder");
    assert!(run.clone().into_result().is_err());
}

/// A fault that hits only the first attempt is healed by the recovery
/// ladder: no casualties, the recovery is counted, and every block the
/// fault did not touch is bit-identical to the zero-fault run.
#[test]
fn recovery_ladder_rescues_single_attempt_fault() {
    let _g = lock();
    let clean = run_13bit(None, Some(2));
    let plan = FaultPlan::single(
        3,
        FaultRule::first(SITE_SYNTH_EXECUTE, "m2a8r0", FaultAction::Panic),
    );
    let run = run_13bit(Some(plan), Some(2));
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert_eq!(run.stats.recovered, 1);
    assert_eq!(run.stats.attempts, run.stats.blocks + 1);
    assert_eq!(run.blocks.len(), clean.blocks.len());
    for (a, b) in clean.blocks.iter().zip(run.blocks.iter()) {
        assert_eq!(a.key, b.key);
        if a.key != (2, 8) && !b.retargeted {
            // Cold blocks away from the fault are untouched; retargeted
            // blocks may chain off the recovered result.
            assert_eq!(a.result.best_x, b.result.best_x, "key {:?}", a.key);
        }
    }
}

/// An executor-level fault (before the block runner even starts) is
/// isolated to its task and pinned deterministically by task scope.
#[test]
fn executor_fault_is_isolated_to_one_task() {
    let _g = lock();
    let plan = FaultPlan::single(
        4,
        FaultRule::first(SITE_EXECUTOR_TASK, "task0", FaultAction::Panic),
    );
    let run = run_13bit(Some(plan), Some(4));
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].failure.kind, FailureKind::Panic);
    assert_eq!(run.stats.failed, 1);
    assert_eq!(run.blocks.len() + 1, run.stats.blocks);
}

/// A corrupted cache commit is detected by the integrity stamp on the next
/// lookup: the entry is dropped, the block re-synthesizes, and the replay
/// stays bit-identical to a cache-cold run.
#[test]
fn corrupted_cache_commit_is_rejected_on_replay() {
    let _g = lock();
    let spec = AdcSpec::date05(10);
    let params = PowerModelParams::calibrated();
    let cands = enumerate_candidates(10, 7);
    let exec = ExecutorOptions::default();
    let flow = FlowOptions::default();
    let mut cache = BlockCache::new(CachePolicy::Reproducible);
    faults::install(FaultPlan::single(
        5,
        FaultRule::anywhere(SITE_CACHE_COMMIT, FaultAction::Corrupt),
    ));
    let first = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .with_executor(exec.clone())
            .with_options(flow),
        Some(&mut cache),
    );
    faults::clear();
    assert!(first.failures.is_empty());
    let replay = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .with_executor(exec.clone())
            .with_options(flow),
        Some(&mut cache),
    );
    assert_eq!(cache.stats().corrupt_dropped, 1, "{:?}", cache.stats());
    assert_eq!(
        replay.stats.cache_hits,
        replay.stats.blocks - 1,
        "all but the corrupted block replay from cache: {:?}",
        replay.stats
    );
    assert_blocks_bit_identical("corrupt replay", &first.blocks, &replay.blocks);
}

/// Satellite 3: after a run where a block *recovered* off-plan (and was
/// therefore not committed), a reproducible-cache replay is
/// provenance-identical to a cache-cold run — tainted results never leak
/// into later runs.
#[test]
fn reproducible_replay_after_recovered_failure_matches_cache_cold() {
    let _g = lock();
    let spec = AdcSpec::date05(10);
    let params = PowerModelParams::calibrated();
    let cands = enumerate_candidates(10, 7);
    let exec = ExecutorOptions::default();
    let flow = FlowOptions::default();
    // Kill attempt 0 of the cheapest 10-bit block so it recovers off-plan.
    let key = {
        let probe = run_flow(
            &FlowRequest::new(&spec, &cands, &params, &cfg())
                .with_executor(exec.clone())
                .with_options(flow),
            None,
        );
        probe.blocks[0].key
    };
    let mut cache = BlockCache::new(CachePolicy::Reproducible);
    faults::install(FaultPlan::single(
        6,
        FaultRule::first(
            SITE_SYNTH_EXECUTE,
            &format!("m{}a{}r0", key.0, key.1),
            FaultAction::Panic,
        ),
    ));
    let faulted = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .with_executor(exec.clone())
            .with_options(flow),
        Some(&mut cache),
    );
    faults::clear();
    assert_eq!(faulted.stats.recovered, 1, "{:?}", faulted.stats);
    // The recovered block (and anything chained off it) was not committed.
    assert!(cache.len() < faulted.blocks.len());
    // Replay against the partially warmed cache ≡ cache-cold run.
    let replay = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .with_executor(exec.clone())
            .with_options(flow),
        Some(&mut cache),
    );
    let cold = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .with_executor(exec.clone())
            .with_options(flow),
        None,
    );
    assert!(replay.stats.cache_hits > 0, "{:?}", replay.stats);
    assert_blocks_bit_identical("replay vs cold", &cold.blocks, &replay.blocks);
    assert!(replay.failures.is_empty());
}

/// Zero-fault guarded runs carry no overhead bookkeeping surprises: no
/// casualties, one attempt per block, and bit-identical blocks between the
/// serial oracle and the guarded executor with the faults feature enabled.
#[test]
fn zero_fault_guarded_runs_are_bit_identical() {
    let _g = lock();
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let cands = enumerate_candidates(13, 7);
    faults::clear();
    let serial = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &cfg())
            .serial()
            .with_options(FlowOptions::default()),
        None,
    );
    assert!(serial.failures.is_empty());
    assert_eq!(serial.stats.failed, 0);
    assert_eq!(serial.stats.attempts, serial.stats.blocks);
    for threads in [2, 4] {
        let parallel = run_13bit(None, Some(threads));
        assert_blocks_bit_identical(
            &format!("zero-fault threads={threads}"),
            &serial.blocks,
            &parallel.blocks,
        );
        assert_eq!(serial.stats, parallel.stats);
    }
}

/// Circuit-level sign-off of the 10-bit 3-2 candidate (small synthesis
/// budget) under the caller scope `verify3-2`, with `plan` installed.
fn verify_3_2(blocks: &[MdacBlock], plan: Option<FaultPlan>) -> Result<ChainVerification, String> {
    let spec = AdcSpec::date05(10);
    match plan {
        Some(p) => faults::install(p),
        None => faults::clear(),
    }
    let v = faults::with_scope("verify3-2", || {
        verify_candidate(
            &spec,
            &Candidate::new(vec![3, 2]),
            blocks,
            &PowerModelParams::calibrated(),
            &VerifyOptions::default(),
        )
    });
    faults::clear();
    v
}

fn blocks_3_2() -> Vec<MdacBlock> {
    let spec = AdcSpec::date05(10);
    let candidate = Candidate::new(vec![3, 2]);
    let cfg = SynthConfig {
        iterations: 60,
        nm_iterations: 20,
        seed: 9,
        ..Default::default()
    };
    let params = PowerModelParams::calibrated();
    run_flow(
        &FlowRequest::new(&spec, std::slice::from_ref(&candidate), &params, &cfg),
        None,
    )
    .blocks
}

/// The two transient legs of a sign-off run on different threads but
/// check their `tran_solve` sites under `<caller scope>/tran+` and
/// `<caller scope>/tran-`: a rule scoped to either leg fails the sign-off
/// with the typed `tran:` error, identically on every repeat.
#[test]
fn transient_leg_faults_follow_their_leg_scope() {
    let _g = lock();
    let blocks = blocks_3_2();
    let clean = verify_3_2(&blocks, None).expect("clean sign-off");
    assert!(clean.tran.is_some());
    for leg in ["verify3-2/tran+", "verify3-2/tran-"] {
        let errors: Vec<String> = (0..5)
            .map(|_| {
                let plan = FaultPlan::single(
                    7,
                    FaultRule::first(SITE_TRAN_SOLVE, leg, FaultAction::FailConvergence),
                );
                verify_3_2(&blocks, Some(plan)).expect_err("the leg's fault must fail sign-off")
            })
            .collect();
        assert!(errors[0].starts_with("tran: "), "{leg}: {}", errors[0]);
        assert!(
            errors.iter().all(|e| *e == errors[0]),
            "{leg}: not identical across repeats: {errors:?}"
        );
    }
    // A panic inside the −δ leg's thread is re-raised on the caller's.
    let plan = FaultPlan::single(
        8,
        FaultRule::first(SITE_TRAN_SOLVE, "verify3-2/tran-", FaultAction::Panic),
    );
    let payload = std::panic::catch_unwind(|| verify_3_2(&blocks, Some(plan)))
        .expect_err("the leg's panic must propagate");
    faults::clear();
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("injected fault: tran_solve panic"), "{msg}");
}

/// The first sparse refactorization of a forced-sparse workspace reports
/// an underflowed pivot (`anywhere`, so each installed plan fails exactly
/// one refactorization).
fn with_failed_first_pivot<T>(f: impl FnOnce() -> T) -> T {
    faults::install(FaultPlan::single(
        17,
        FaultRule::anywhere(SITE_SPARSE_PIVOT, FaultAction::FailConvergence),
    ));
    let out = f();
    faults::clear();
    out
}

fn assert_tran_bit_identical(label: &str, c: &Circuit, got: &TranResult, want: &TranResult) {
    assert_eq!(got.stats(), want.stats(), "{label}: stats");
    assert_eq!(got.times(), want.times(), "{label}: time axis");
    for n in 0..c.node_count() {
        let node = NodeId::from_index(n);
        for k in 0..got.len() {
            assert_eq!(
                got.voltage_at(node, k).to_bits(),
                want.voltage_at(node, k).to_bits(),
                "{label}: node {n} sample {k}"
            );
        }
    }
}

/// An underflowed sparse pivot demotes the shared Jacobian engine to
/// dense and reruns the DC solve or transient run from its nodeset or
/// initial condition: every entry point still succeeds, ends on the dense
/// engine, and matches a forced-dense workspace bit for bit.
#[test]
fn sparse_pivot_fault_falls_back_to_dense_bit_identically() {
    let _g = lock();
    faults::clear();
    let tb = build_telescopic(&Process::c025(), &TelescopicParams::nominal(), 1e-12);
    let c = &tb.circuit;
    let dc = DcOptions::default();
    let mut dense = DcWorkspace::with_solver(c, SolverChoice::Dense).unwrap();
    let want = dc_operating_point_with(&mut dense, c, &dc).unwrap();
    let mut ws = DcWorkspace::with_solver(c, SolverChoice::Sparse).unwrap();
    assert!(ws.is_sparse());
    let got = with_failed_first_pivot(|| dc_operating_point_with(&mut ws, c, &dc))
        .expect("DC survives the pivot fault");
    assert!(!ws.is_sparse(), "DC fell back to the dense engine");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.voltages()), bits(want.voltages()), "DC voltages");

    let opts = TranOptions {
        tstop: 100e-9,
        dt: 0.5e-9,
        ic: InitialCondition::Voltages(want.voltages().to_vec()),
        ..TranOptions::default()
    };
    let cfg = TimeStepConfig::default();
    let mut dense = TranWorkspace::with_solver(c, SolverChoice::Dense).unwrap();
    let want_fixed = transient_with(&mut dense, c, &opts).unwrap();
    let want_adaptive = transient_adaptive(&mut dense, c, &opts, &cfg).unwrap();

    let mut ws = TranWorkspace::with_solver(c, SolverChoice::Sparse).unwrap();
    let fixed = with_failed_first_pivot(|| transient_with(&mut ws, c, &opts))
        .expect("fixed-step run survives the pivot fault");
    assert!(
        !ws.is_sparse(),
        "fixed-step run fell back to the dense engine"
    );
    assert_tran_bit_identical("fixed", c, &fixed, &want_fixed);

    let mut ws = TranWorkspace::with_solver(c, SolverChoice::Sparse).unwrap();
    let adaptive = with_failed_first_pivot(|| transient_adaptive(&mut ws, c, &opts, &cfg))
        .expect("adaptive run survives the pivot fault");
    assert!(
        !ws.is_sparse(),
        "adaptive run fell back to the dense engine"
    );
    assert_tran_bit_identical("adaptive", c, &adaptive, &want_adaptive);

    // A `Panic` action panics at the refactorization.
    faults::install(FaultPlan::single(
        18,
        FaultRule::anywhere(SITE_SPARSE_PIVOT, FaultAction::Panic),
    ));
    let mut ws = DcWorkspace::with_solver(c, SolverChoice::Sparse).unwrap();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dc_operating_point_with(&mut ws, c, &dc)
    }))
    .expect_err("the pivot fault's panic must propagate");
    faults::clear();
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("injected fault: sparse_pivot panic"), "{msg}");
}
