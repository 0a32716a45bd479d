//! Dependency-driven task executor for block synthesis.
//!
//! Warm-start DAGs run on a shared **ready queue**: a block is enqueued
//! the moment its (single) warm-start dependency completes, and idle
//! workers steal the next ready block regardless of which chain it belongs
//! to — occupancy is limited only by the DAG's critical path.
//!
//! ## Failure isolation
//!
//! [`run_dag_outcomes`] is the entry point the flow layer builds on: each
//! task returns `Result<R, BlockFailure>` and each slot of the output is a
//! [`BlockOutcome`] — a panicking or failing task is *recorded*, never
//! unwound across the scope. Dependents of a failed task still run, with
//! `warm = None` (the flow demotes them from a warm retarget to a cold
//! start). A worker that panics while holding the mutex can no longer
//! cascade: every lock acquisition recovers from poisoning via
//! [`PoisonError::into_inner`], so the first failure is the one reported,
//! not a secondary `PoisonError` unwind.
//!
//! ## Determinism contract
//!
//! Scheduling order is *not* deterministic; results are. Each task is a
//! pure function of its index and its dependency's outcome, every task
//! runs exactly once, and result slots are written exactly once — so the
//! output vector is bit-identical for any thread count and any
//! interleaving. The flow layer's serial oracle plus the thread-count
//! stress tests enforce this end to end.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Executor tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ExecutorOptions {
    /// Worker-thread count; `None` uses [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
}

impl ExecutorOptions {
    /// A fixed thread count (tests / benchmarks).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        ExecutorOptions {
            threads: Some(threads),
        }
    }

    /// Resolves the worker count for `task_count` tasks: at least 1, at
    /// most one worker per task.
    #[must_use]
    pub fn resolve(&self, task_count: usize) -> usize {
        let hw = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        hw.clamp(1, task_count.max(1))
    }
}

/// Why a block failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The task panicked; the payload is captured in the message.
    Panic,
    /// The task ran out of its wall-clock budget.
    Timeout,
    /// The task reported a typed error.
    Error,
}

/// Record of a block that did not produce a result: the failure payload
/// plus how much work was spent discovering it.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockFailure {
    /// Failure classification.
    pub kind: FailureKind,
    /// Human-readable payload (panic message or error display).
    pub message: String,
    /// Execution attempts consumed (≥ 1; retries counted by the caller's
    /// recovery ladder).
    pub attempts: usize,
    /// Wall-clock seconds spent across all attempts.
    pub elapsed_seconds: f64,
}

impl BlockFailure {
    /// Failure with a single attempt and the given elapsed time.
    pub fn new(kind: FailureKind, message: impl Into<String>, elapsed_seconds: f64) -> Self {
        BlockFailure {
            kind,
            message: message.into(),
            attempts: 1,
            elapsed_seconds,
        }
    }
}

impl std::fmt::Display for BlockFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Error => "error",
        };
        write!(
            f,
            "{kind} after {} attempt(s) ({:.3} s): {}",
            self.attempts, self.elapsed_seconds, self.message
        )
    }
}

/// Per-block result of a fault-isolated run.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockOutcome<R> {
    /// The block produced a result.
    Ok(R),
    /// The block failed; the failure is recorded, not propagated.
    Failed(BlockFailure),
}

impl<R> BlockOutcome<R> {
    /// The result, if the block succeeded.
    pub fn ok(&self) -> Option<&R> {
        match self {
            BlockOutcome::Ok(r) => Some(r),
            BlockOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the block failed.
    pub fn failure(&self) -> Option<&BlockFailure> {
        match self {
            BlockOutcome::Ok(_) => None,
            BlockOutcome::Failed(f) => Some(f),
        }
    }

    /// `true` when the block produced a result.
    pub fn is_ok(&self) -> bool {
        matches!(self, BlockOutcome::Ok(_))
    }
}

/// Renders a panic payload for a [`BlockFailure`] message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Shared scheduler state behind one mutex.
struct State<R> {
    ready: VecDeque<usize>,
    results: Vec<Option<BlockOutcome<R>>>,
    finished: usize,
}

/// Fault-isolated DAG execution: runs `task(i, warm)` for every
/// `i < deps.len()`, where `warm` is the **successful** result of task
/// `deps[i]` (`None` for root tasks *and* for dependents of a failed
/// task — the caller decides how to degrade). Returns one
/// [`BlockOutcome`] per task, in task order.
///
/// A task that returns `Err` or panics is recorded as
/// [`BlockOutcome::Failed`]; execution of the rest of the DAG continues.
/// The executor-level `catch_unwind` is a last-resort backstop — callers
/// running their own recovery ladder should catch panics per attempt and
/// return a fully attributed [`BlockFailure`] instead.
///
/// `deps[i]`, when present, must point at an **earlier** index; the
/// planners that feed this executor produce exactly that shape (a forest
/// of warm-start chains in serial encounter order).
///
/// # Panics
/// Panics only if a dependency is not strictly earlier than its task —
/// task failures never unwind.
pub fn run_dag_outcomes<R, F>(
    deps: &[Option<usize>],
    opts: &ExecutorOptions,
    task: F,
) -> Vec<BlockOutcome<R>>
where
    R: Clone + Send,
    F: Fn(usize, Option<&R>) -> Result<R, BlockFailure> + Sync,
{
    let n = deps.len();
    if n == 0 {
        return Vec::new();
    }
    for (i, d) in deps.iter().enumerate() {
        if let Some(j) = *d {
            assert!(j < i, "dependency {j} of task {i} is not earlier");
        }
    }
    // dependents[j] = tasks unblocked by j finishing.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = VecDeque::new();
    for (i, d) in deps.iter().enumerate() {
        match *d {
            Some(j) => dependents[j].push(i),
            None => roots.push_back(i),
        }
    }
    let workers = opts.resolve(n);
    let state = Mutex::new(State {
        ready: roots,
        results: vec![None; n],
        finished: 0,
    });
    let cv = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Steal the next ready task (and its warm input) under the
                // lock, run it outside. Lock poisoning is recovered
                // everywhere: a panicking sibling must not kill this
                // worker with a secondary PoisonError unwind.
                let (idx, warm) = {
                    let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        if st.finished == n {
                            return;
                        }
                        if let Some(idx) = st.ready.pop_front() {
                            // A failed dependency yields no warm value;
                            // the task sees `None` and degrades.
                            let warm = deps[idx].and_then(|j| {
                                st.results[j]
                                    .as_ref()
                                    .expect("dependency finished before enqueue")
                                    .ok()
                                    .cloned()
                            });
                            break (idx, warm);
                        }
                        st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let started = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| run_task(&task, idx, warm.as_ref())));
                let outcome = match out {
                    Ok(Ok(r)) => BlockOutcome::Ok(r),
                    Ok(Err(failure)) => BlockOutcome::Failed(failure),
                    // Backstop: a panic that escaped the caller's own
                    // per-attempt catch still only fails this block.
                    Err(payload) => BlockOutcome::Failed(BlockFailure::new(
                        FailureKind::Panic,
                        panic_message(payload.as_ref()),
                        started.elapsed().as_secs_f64(),
                    )),
                };
                let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                st.results[idx] = Some(outcome);
                st.finished += 1;
                for &d in &dependents[idx] {
                    st.ready.push_back(d);
                }
                drop(st);
                cv.notify_all();
            });
        }
    });

    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    st.results
        .into_iter()
        .map(|r| r.expect("every task completed"))
        .collect()
}

/// Runs one task body, giving the deterministic fault-injection registry a
/// per-task scope keyed by index (not by scheduling order, which races).
fn run_task<R, F>(task: &F, idx: usize, warm: Option<&R>) -> Result<R, BlockFailure>
where
    F: Fn(usize, Option<&R>) -> Result<R, BlockFailure>,
{
    #[cfg(feature = "faults")]
    return adc_numerics::faults::with_scope(&format!("task{idx}"), || {
        use adc_numerics::faults::{self, FaultAction};
        if let Some(action) = faults::check(faults::SITE_EXECUTOR_TASK) {
            match action {
                FaultAction::Panic => panic!("injected fault: executor task panic"),
                FaultAction::Timeout => {
                    return Err(BlockFailure::new(
                        FailureKind::Timeout,
                        "injected fault: executor task timeout",
                        0.0,
                    ))
                }
                FaultAction::FailConvergence | FaultAction::Corrupt => {
                    return Err(BlockFailure::new(
                        FailureKind::Error,
                        "injected fault: executor task error",
                        0.0,
                    ))
                }
            }
        }
        task(idx, warm)
    });
    #[cfg(not(feature = "faults"))]
    task(idx, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A synthetic "synthesis": result encodes the whole warm chain, so any
    /// scheduling error shows up as a wrong value somewhere.
    fn chain_task(i: usize, warm: Option<&Vec<usize>>) -> Result<Vec<usize>, BlockFailure> {
        let mut v = warm.cloned().unwrap_or_default();
        v.push(i);
        Ok(v)
    }

    fn diamond_deps() -> Vec<Option<usize>> {
        // Two roots; interleaved chains of different lengths.
        vec![
            None,
            Some(0),
            None,
            Some(1),
            Some(2),
            Some(3),
            Some(3),
            Some(2),
            Some(6),
        ]
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let deps = diamond_deps();
        let serial = run_dag_outcomes(&deps, &ExecutorOptions::with_threads(1), chain_task);
        assert!(serial.iter().all(BlockOutcome::is_ok));
        for threads in [2, 4, 8] {
            let parallel =
                run_dag_outcomes(&deps, &ExecutorOptions::with_threads(threads), chain_task);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // And the auto-sized default.
        assert_eq!(
            serial,
            run_dag_outcomes(&deps, &ExecutorOptions::default(), chain_task)
        );
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let deps = diamond_deps();
        let count = AtomicUsize::new(0);
        let out = run_dag_outcomes(&deps, &ExecutorOptions::with_threads(4), |i, w| {
            count.fetch_add(1, Ordering::SeqCst);
            chain_task(i, w)
        });
        assert_eq!(out.len(), deps.len());
        assert_eq!(count.load(Ordering::SeqCst), deps.len());
    }

    #[test]
    fn dependency_ready_before_task_starts() {
        // A long chain: each task asserts its warm input is the full
        // prefix — catches premature scheduling.
        let deps: Vec<Option<usize>> = (0..32)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        let out = run_dag_outcomes(
            &deps,
            &ExecutorOptions::with_threads(4),
            |i, warm: Option<&Vec<usize>>| {
                if i > 0 {
                    assert_eq!(warm.expect("warm present").len(), i);
                }
                chain_task(i, warm)
            },
        );
        assert_eq!(out[31], BlockOutcome::Ok((0..32).collect::<Vec<_>>()));
    }

    #[test]
    fn empty_dag_is_fine() {
        let out: Vec<BlockOutcome<u8>> =
            run_dag_outcomes(&[], &ExecutorOptions::default(), |_, _| Ok(0));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn forward_dependency_rejected() {
        run_dag_outcomes(
            &[Some(1), None],
            &ExecutorOptions::default(),
            |_, _: Option<&u8>| Ok(0u8),
        );
    }

    #[test]
    fn resolve_clamps_thread_count() {
        assert_eq!(ExecutorOptions::with_threads(16).resolve(3), 3);
        assert_eq!(ExecutorOptions::with_threads(0).resolve(3), 1);
        assert!(ExecutorOptions::default().resolve(100) >= 1);
        assert_eq!(ExecutorOptions::default().resolve(0), 1);
    }

    /// A panicking task is recorded, the rest of the DAG still runs, and
    /// dependents of the failure see `warm = None` instead of dying.
    #[test]
    fn outcomes_isolate_panics_and_demote_dependents() {
        let deps: Vec<Option<usize>> = (0..8)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        for threads in [1, 2, 4] {
            let out = run_dag_outcomes(
                &deps,
                &ExecutorOptions::with_threads(threads),
                |i, w: Option<&usize>| {
                    if i == 3 {
                        panic!("block 3 exploded");
                    }
                    Ok(w.copied().unwrap_or(100) + 1)
                },
            );
            assert_eq!(out.len(), 8);
            let f = out[3].failure().expect("block 3 failed");
            assert_eq!(f.kind, FailureKind::Panic);
            assert!(f.message.contains("block 3 exploded"), "{}", f.message);
            // Upstream of the failure: the chain accumulated normally.
            assert_eq!(out[2].ok(), Some(&103));
            // Immediately downstream: warm degraded to None → restarts
            // from the root value; the rest of the chain rebuilds on it.
            assert_eq!(out[4].ok(), Some(&101));
            assert_eq!(out[7].ok(), Some(&104));
        }
    }

    /// Typed task errors are recorded with their attempt accounting
    /// intact, and the outcome vector is thread-count invariant.
    #[test]
    fn outcomes_record_typed_errors_deterministically() {
        let deps = diamond_deps();
        let run = |threads| {
            run_dag_outcomes(
                &deps,
                &ExecutorOptions::with_threads(threads),
                |i, w: Option<&usize>| {
                    if i == 2 {
                        return Err(BlockFailure {
                            kind: FailureKind::Timeout,
                            message: "budget exhausted".into(),
                            attempts: 3,
                            elapsed_seconds: 0.0,
                        });
                    }
                    Ok(w.copied().unwrap_or(0) + i)
                },
            )
        };
        let serial = run(1);
        assert_eq!(serial[2].failure().map(|f| f.attempts), Some(3));
        assert_eq!(
            serial[2].failure().map(|f| f.kind),
            Some(FailureKind::Timeout)
        );
        // Task 4 depends on failed task 2: cold restart (warm = None).
        assert_eq!(serial[4].ok(), Some(&4));
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "threads = {threads}");
        }
    }

    /// The first failure's payload survives even when other workers
    /// contend on the (previously poisonable) mutex afterwards.
    #[test]
    fn first_failure_payload_not_masked_by_poisoning() {
        let out = run_dag_outcomes(
            &vec![None; 16],
            &ExecutorOptions::with_threads(4),
            |i, _: Option<&usize>| {
                if i == 0 {
                    panic!("original payload");
                }
                Ok(i)
            },
        );
        let f = out[0].failure().expect("task 0 failed");
        assert!(f.message.contains("original payload"), "{}", f.message);
        assert_eq!(out.iter().filter(|o| o.is_ok()).count(), 15);
    }
}
