//! Deterministic fault injection (compiled only with the `faults` feature).
//!
//! Chaos testing for the synthesis flow needs failures that are **exactly
//! reproducible**: the same [`FaultPlan`] must trip the same site, in the
//! same block, on the same attempt, regardless of thread count or timing.
//! To get that, injection is keyed by *logical* coordinates — a site name
//! (where in the stack) plus a scope string (which block/attempt is
//! currently executing) — never by wall-clock or global call order, which
//! would race across worker threads.
//!
//! Layers that host a site call [`check`] with their site constant; the
//! flow executor wraps each block attempt in [`with_scope`] so per-scope
//! occurrence counters are incremented single-threaded. Work handed to a
//! helper thread carries its caller's stack along ([`scope_stack`] →
//! [`with_scope_stack`]) and runs under a scope of its own, as the two
//! transient sign-off legs do (`…/tran+`, `…/tran-`). When the feature is
//! off this module is absent and call sites compile to nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// DC operating-point solve (cold or warm) in `adc-spice`.
pub const SITE_DC_SOLVE: &str = "dc_solve";
/// Transient analysis (fixed or adaptive) in `adc-spice`.
pub const SITE_TRAN_SOLVE: &str = "tran_solve";
/// Sparse LU refactorization in `adc-spice`'s real Jacobian engine (DC and
/// transient): `Panic` panics, every other action reports an underflowed
/// static pivot, which the engine answers with its dense fallback.
pub const SITE_SPARSE_PIVOT: &str = "sparse_pivot";
/// `Synthesizer::run` entry in `adc-synth`.
pub const SITE_SYNTH_EXECUTE: &str = "synth_execute";
/// Block-cache commit and snapshot restore in `adc-topopt` (corruption
/// sentinel).
pub const SITE_CACHE_COMMIT: &str = "cache_commit";
/// Executor task body in `adc-topopt`.
pub const SITE_EXECUTOR_TASK: &str = "executor_task";

/// What a tripped fault site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Solver reports non-convergence (typed error, residual = ∞).
    FailConvergence,
    /// The site panics with a recognizable payload.
    Panic,
    /// The site reports an expired deadline (typed timeout).
    Timeout,
    /// The site corrupts the datum it was about to produce/commit.
    Corrupt,
}

/// One injection rule: trip `action` at `site`, the `nth` time that site is
/// reached within a scope containing `scope_contains` (or any scope when
/// `None`). Each rule fires exactly once.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Site constant (e.g. [`SITE_DC_SOLVE`]).
    pub site: &'static str,
    /// Substring the active scope must contain, `None` = any scope.
    pub scope_contains: Option<String>,
    /// 0-based occurrence index within the matching (site, scope) pair.
    pub nth: usize,
    /// What to do when the rule trips.
    pub action: FaultAction,
}

impl FaultRule {
    /// Rule tripping the first occurrence of `site` in any scope containing
    /// `scope` (the common single-fault chaos case).
    pub fn first(site: &'static str, scope: &str, action: FaultAction) -> Self {
        FaultRule {
            site,
            scope_contains: Some(scope.to_string()),
            nth: 0,
            action,
        }
    }

    /// Rule tripping the first occurrence of `site` regardless of scope.
    pub fn anywhere(site: &'static str, action: FaultAction) -> Self {
        FaultRule {
            site,
            scope_contains: None,
            nth: 0,
            action,
        }
    }
}

/// A reproducible chaos scenario: a seed (recorded for the experiment log;
/// rules are matched deterministically, the seed only names the scenario)
/// plus the rules to install.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scenario identifier, recorded in EXPERIMENTS.md §8 protocols.
    pub seed: u64,
    /// Injection rules; each fires at most once.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Plan with a single rule.
    pub fn single(seed: u64, rule: FaultRule) -> Self {
        FaultPlan {
            seed,
            rules: vec![rule],
        }
    }
}

struct ArmedRule {
    rule: FaultRule,
    fired: bool,
}

struct Registry {
    rules: Vec<ArmedRule>,
    /// Occurrence counters keyed by (site, scope).
    counts: std::collections::BTreeMap<(&'static str, String), usize>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

thread_local! {
    static SCOPE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Installs a plan, replacing any previous one and resetting all counters.
pub fn install(plan: FaultPlan) {
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    *reg = Some(Registry {
        rules: plan
            .rules
            .into_iter()
            .map(|rule| ArmedRule { rule, fired: false })
            .collect(),
        counts: std::collections::BTreeMap::new(),
    });
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the installed plan; all subsequent [`check`] calls are no-ops.
pub fn clear() {
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    *reg = None;
    ACTIVE.store(false, Ordering::SeqCst);
}

/// Runs `f` with `scope` pushed onto this thread's scope stack. The flow
/// executor wraps each block attempt in a scope like
/// `"m=3,a=2.0#attempt0"`, making per-scope counters deterministic: every
/// attempt runs single-threaded inside its own scope.
pub fn with_scope<T>(scope: &str, f: impl FnOnce() -> T) -> T {
    SCOPE.with(|s| s.borrow_mut().push(scope.to_string()));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// This thread's scope stack, outermost first — captured by a caller that
/// hands work to another thread, which re-enters it with
/// [`with_scope_stack`].
pub fn scope_stack() -> Vec<String> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Runs `f` with this thread's scope stack replaced by `stack` (restored
/// afterwards, also on unwind), so work moved onto a helper thread checks
/// its sites under the scope it was spawned from.
pub fn with_scope_stack<T>(stack: &[String], f: impl FnOnce() -> T) -> T {
    let saved = SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), stack.to_vec()));
    struct Restore(Vec<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let saved = std::mem::take(&mut self.0);
            SCOPE.with(|s| *s.borrow_mut() = saved);
        }
    }
    let _restore = Restore(saved);
    f()
}

fn current_scope() -> String {
    SCOPE.with(|s| s.borrow().join("/"))
}

/// Called by instrumented layers: returns the action to take if an armed
/// rule trips at this site in the current scope. Fast path (no plan
/// installed) is a single relaxed atomic load.
pub fn check(site: &'static str) -> Option<FaultAction> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let scope = current_scope();
    let mut guard = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let reg = guard.as_mut()?;
    let n = reg.counts.entry((site, scope.clone())).or_insert(0);
    let occurrence = *n;
    *n += 1;
    for armed in reg.rules.iter_mut() {
        if armed.fired || armed.rule.site != site || armed.rule.nth != occurrence {
            continue;
        }
        let scope_ok = match &armed.rule.scope_contains {
            None => true,
            Some(needle) => scope.contains(needle.as_str()),
        };
        if scope_ok {
            armed.fired = true;
            return Some(armed.rule.action);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that install plans must not
    /// interleave; serialize them with a lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn no_plan_means_no_faults() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        assert_eq!(check(SITE_DC_SOLVE), None);
    }

    #[test]
    fn rule_fires_once_at_matching_site_and_scope() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install(FaultPlan::single(
            1,
            FaultRule::first(SITE_DC_SOLVE, "m=3", FaultAction::FailConvergence),
        ));
        // Wrong scope: nothing.
        let miss = with_scope("m=2,a=2.0#attempt0", || check(SITE_DC_SOLVE));
        assert_eq!(miss, None);
        // Matching scope: fires exactly once.
        let (first, second) = with_scope("m=3,a=2.0#attempt0", || {
            (check(SITE_DC_SOLVE), check(SITE_DC_SOLVE))
        });
        assert_eq!(first, Some(FaultAction::FailConvergence));
        assert_eq!(second, None);
        clear();
    }

    #[test]
    fn nth_occurrence_counts_per_scope() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install(FaultPlan::single(
            2,
            FaultRule {
                site: SITE_TRAN_SOLVE,
                scope_contains: None,
                nth: 1,
                action: FaultAction::Timeout,
            },
        ));
        let hits = with_scope("blockA", || {
            (0..3).map(|_| check(SITE_TRAN_SOLVE)).collect::<Vec<_>>()
        });
        assert_eq!(hits, vec![None, Some(FaultAction::Timeout), None]);
        clear();
    }

    #[test]
    fn scopes_nest_and_pop() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install(FaultPlan::single(
            3,
            FaultRule::first(SITE_SYNTH_EXECUTE, "outer/inner", FaultAction::Panic),
        ));
        let outer_only = with_scope("outer", || check(SITE_SYNTH_EXECUTE));
        assert_eq!(outer_only, None);
        let nested = with_scope("outer", || {
            with_scope("inner", || check(SITE_SYNTH_EXECUTE))
        });
        assert_eq!(nested, Some(FaultAction::Panic));
        clear();
    }

    #[test]
    fn scope_stack_carries_into_another_thread() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install(FaultPlan::single(
            4,
            FaultRule::first(SITE_TRAN_SOLVE, "outer/leg", FaultAction::Timeout),
        ));
        let stack = with_scope("outer", scope_stack);
        assert_eq!(stack, ["outer"]);
        let hit = std::thread::scope(|s| {
            s.spawn(|| {
                let hit = with_scope_stack(&stack, || with_scope("leg", || check(SITE_TRAN_SOLVE)));
                assert!(scope_stack().is_empty(), "stack restored after the call");
                hit
            })
            .join()
            .unwrap()
        });
        assert_eq!(hit, Some(FaultAction::Timeout));
        clear();
    }
}
