//! The synthesis driver: anneal globally, polish locally, and support
//! warm-started *retargeting* of a previous design to a new specification.

use crate::anneal::{anneal, outcome_cost, AnnealResult};
use crate::constraints::{all_satisfied, constraints_fingerprint, Constraint};
use crate::evaluator::{EvalOutcome, Evaluator, Performance};
use crate::neldermead::nelder_mead;
use crate::space::DesignSpace;
use adc_numerics::quant::Fingerprint;
use adc_numerics::Deadline;
use std::cell::Cell;

/// Typed failure of a budgeted synthesis run ([`Synthesizer::run`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The wall-clock budget expired before the search finished.
    Timeout {
        /// Evaluator calls consumed before the budget ran out.
        evaluations: usize,
    },
    /// The search could not produce a usable result (e.g. an injected
    /// non-convergence fault during chaos testing).
    Failed(String),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Timeout { evaluations } => write!(
                f,
                "synthesis exceeded its wall-clock budget after {evaluations} evaluations"
            ),
            SynthError::Failed(msg) => write!(f, "synthesis failed: {msg}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Significant decimal digits used when quantizing problem parameters
/// (constraint targets, bounds) into fingerprints — the synthesis layer's
/// half of the normalized-spec contract.
pub const PROBLEM_NORM_DIGITS: u32 = 9;

/// Synthesis budget and seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Annealing evaluations.
    pub iterations: usize,
    /// Nelder–Mead polish iterations.
    pub nm_iterations: usize,
    /// Starting neighbourhood scale (normalized units).
    pub sigma0: f64,
    /// Final neighbourhood scale.
    pub sigma_end: f64,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Fraction of the schedule's tail run with the evaluator's **local
    /// phase** enabled ([`Evaluator::set_local_phase`]): late-annealing
    /// candidates cluster tightly, so a simulation-backed evaluator may
    /// warm-start its DC solve there. Requires cost quantization to keep
    /// trajectories identical to the cold path; 0.0 disables.
    pub warm_tail_frac: f64,
    /// Significant decimal digits accepted costs are quantized to
    /// ([`adc_numerics::quant::quantize_rel`]). The grid sits well above
    /// DC-solver noise (warm and cold operating points agree to ~1e-9
    /// relative and better), so warm-started tail evaluations make
    /// bit-identical accept/reject decisions to cold ones — the property
    /// that lets [`SynthConfig::warm_tail_frac`] > 0 leave trajectories
    /// unperturbed. `None` compares raw costs.
    pub cost_quant_digits: Option<u32>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            iterations: 2000,
            nm_iterations: 150,
            sigma0: 0.25,
            sigma_end: 0.02,
            seed: 1,
            warm_tail_frac: 0.3,
            cost_quant_digits: Some(6),
        }
    }
}

impl SynthConfig {
    /// The reduced-budget configuration used for retargeting runs.
    pub fn retarget_budget(&self) -> SynthConfig {
        SynthConfig {
            iterations: (self.iterations / 5).max(50),
            nm_iterations: self.nm_iterations,
            sigma0: 0.06,
            sigma_end: 0.01,
            seed: self.seed.wrapping_add(1),
            warm_tail_frac: self.warm_tail_frac,
            cost_quant_digits: self.cost_quant_digits,
        }
    }

    /// Deterministic fingerprint of the full budget/seed configuration.
    /// Two runs with equal config and problem fingerprints (and equal warm
    /// starts) produce bit-identical [`SynthResult`]s — the contract
    /// synthesis caches key on.
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .add_u64(self.iterations as u64)
            .add_u64(self.nm_iterations as u64)
            .add_f64_exact(self.sigma0)
            .add_f64_exact(self.sigma_end)
            .add_u64(self.seed)
            .add_f64_exact(self.warm_tail_frac)
            // 0 encodes None; quantization grids shift by one.
            .add_u64(self.cost_quant_digits.map_or(0, |d| u64::from(d) + 1))
            .finish()
    }
}

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// Best design point in real units (design-space variable order).
    pub best_x: Vec<f64>,
    /// Best point in normalized coordinates (for warm starts).
    pub best_u: Vec<f64>,
    /// Performance at the best point.
    pub best_perf: Performance,
    /// Scalarized cost at the best point.
    pub best_cost: f64,
    /// All constraints satisfied?
    pub feasible: bool,
    /// Evaluator calls (annealing, polish and the polished point's
    /// re-evaluation).
    pub evaluations: usize,
}

/// A reusable synthesis problem: space + constraints + objective.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    space: DesignSpace,
    constraints: Vec<Constraint>,
    objective: String,
}

impl Synthesizer {
    /// Creates a synthesizer minimizing `objective` subject to
    /// `constraints`.
    pub fn new(space: DesignSpace, constraints: Vec<Constraint>, objective: &str) -> Self {
        Synthesizer {
            space,
            constraints,
            objective: objective.to_string(),
        }
    }

    /// Deterministic fingerprint of the synthesis *problem* — design-space
    /// bounds and scales, the constraint set (targets on the normalized
    /// grid) and the objective. Together with [`SynthConfig::fingerprint`]
    /// and the evaluator's own fingerprint this identifies a synthesis run
    /// completely; caches of [`SynthResult`]s key on it.
    pub fn problem_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new().add_u64(self.space.dim() as u64);
        for v in self.space.vars() {
            fp = fp
                .add_str(&v.name)
                .add_quantized(v.lo, PROBLEM_NORM_DIGITS)
                .add_quantized(v.hi, PROBLEM_NORM_DIGITS)
                .add_u64(u64::from(v.log));
        }
        fp.add_u64(constraints_fingerprint(
            &self.constraints,
            PROBLEM_NORM_DIGITS,
        ))
        .add_str(&self.objective)
        .finish()
    }

    fn finish<E: Evaluator>(
        &self,
        evaluator: &E,
        sa: AnnealResult,
        nm_iterations: usize,
    ) -> SynthResult {
        let evals = Cell::new(sa.evaluations);
        // Objective reference consistent with the annealing cost.
        let obj_ref = sa
            .best_perf
            .as_ref()
            .and_then(|p| p.get(&self.objective))
            .map(|v| v.abs().max(1e-30))
            .unwrap_or(1.0);
        let cost = |u: &[f64]| {
            evals.set(evals.get() + 1);
            let out = evaluator.evaluate(&self.space.denormalize(u));
            outcome_cost(&out, &self.constraints, &self.objective, obj_ref)
        };
        // The polish probes a tight cluster of candidates: let
        // simulation-backed evaluators warm-start between them.
        evaluator.set_local_phase(true);
        let (u_pol, _) = nelder_mead(cost, &sa.best_u, 0.03, nm_iterations);
        evaluator.set_local_phase(false);
        // Re-evaluate the polished point for its true performance on the
        // history-free cold path (the accepted result must not depend on
        // where the polish happened to leave the solver state); keep the
        // annealing point if polishing somehow regressed.
        let out_pol = evaluator.evaluate(&self.space.denormalize(&u_pol));
        evals.set(evals.get() + 1);
        let cost_pol = outcome_cost(&out_pol, &self.constraints, &self.objective, obj_ref);
        let sa_cost = outcome_cost(
            &sa.best_perf
                .clone()
                .map(EvalOutcome::Ok)
                .unwrap_or(EvalOutcome::Failed("no feasible point".into())),
            &self.constraints,
            &self.objective,
            obj_ref,
        );
        let (best_u, best_perf, best_cost) = if cost_pol <= sa_cost {
            match out_pol {
                EvalOutcome::Ok(p) => (u_pol, p, cost_pol),
                EvalOutcome::Failed(_) => (
                    sa.best_u.clone(),
                    sa.best_perf.clone().unwrap_or_default(),
                    sa_cost,
                ),
            }
        } else {
            (
                sa.best_u.clone(),
                sa.best_perf.clone().unwrap_or_default(),
                sa_cost,
            )
        };
        let feasible = all_satisfied(&self.constraints, &best_perf);
        SynthResult {
            best_x: self.space.denormalize(&best_u),
            best_u,
            best_perf,
            best_cost,
            feasible,
            evaluations: evals.get(),
        }
    }

    /// Runs one synthesis: global annealing, then a Nelder–Mead polish.
    ///
    /// `warm` selects the start. `None` runs a cold synthesis on `cfg`.
    /// `Some(prev)` retargets: the reduced
    /// [`SynthConfig::retarget_budget`] search starts from `prev.best_u`
    /// (the paper's "1 day instead of 2–3 weeks" reuse of a neighbouring
    /// design).
    ///
    /// `deadline` is a cooperative wall-clock budget: the annealing
    /// schedule checks it per step, and the polish is only entered when
    /// budget remains (a result that survives polish is a success even if
    /// the deadline expires at the very end). An unexpired deadline leaves
    /// the result bit-identical to [`Deadline::none`].
    ///
    /// # Errors
    /// [`SynthError::Timeout`] when `deadline` expires before the polish;
    /// [`SynthError::Failed`] only from injected faults.
    pub fn run<E: Evaluator>(
        &self,
        evaluator: &E,
        cfg: &SynthConfig,
        warm: Option<&SynthResult>,
        deadline: Deadline,
    ) -> Result<SynthResult, SynthError> {
        #[cfg(feature = "faults")]
        if let Some(e) = injected_synth_fault() {
            return Err(e);
        }
        let (cfg, start) = match warm {
            None => (cfg.clone(), None),
            Some(prev) => (cfg.retarget_budget(), Some(prev.best_u.as_slice())),
        };
        let sa = anneal(
            &self.space,
            evaluator,
            &self.constraints,
            &self.objective,
            &cfg,
            start,
            deadline,
        );
        if sa.timed_out || deadline.expired() {
            return Err(SynthError::Timeout {
                evaluations: sa.evaluations,
            });
        }
        Ok(self.finish(evaluator, sa, cfg.nm_iterations))
    }
}

/// Maps an armed `synth_execute` fault-injection rule to the typed failure
/// the flow layer must absorb. `Corrupt` has no cache datum at this layer,
/// so it degrades to a generic failure.
#[cfg(feature = "faults")]
fn injected_synth_fault() -> Option<SynthError> {
    use adc_numerics::faults::{self, FaultAction};
    match faults::check(faults::SITE_SYNTH_EXECUTE)? {
        FaultAction::FailConvergence | FaultAction::Corrupt => Some(SynthError::Failed(
            "injected fault: synthesis non-convergence".into(),
        )),
        FaultAction::Panic => panic!("injected fault: synth_execute panic"),
        FaultAction::Timeout => Some(SynthError::Timeout { evaluations: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintKind;
    use crate::space::DesignVar;

    /// Analytic single-stage-amp-like model: two variables (current `i`,
    /// width `w`); gain ∝ sqrt(w/i)·k, bandwidth ∝ sqrt(w·i), power ∝ i.
    fn amp_eval(x: &[f64]) -> EvalOutcome {
        let (i, w) = (x[0], x[1]);
        let mut p = Performance::new();
        p.set("power", 3.3 * i);
        p.set("gain", 40.0 * (w / i).sqrt());
        p.set("bw", 2e9 * (w * i).sqrt());
        EvalOutcome::Ok(p)
    }

    fn amp_space() -> DesignSpace {
        DesignSpace::new(vec![
            DesignVar::log("i", 1e-5, 1e-2),
            DesignVar::log("w", 1e-6, 1e-3),
        ])
    }

    fn amp_constraints(gain: f64, bw: f64) -> Vec<Constraint> {
        vec![
            Constraint::new("gain", ConstraintKind::AtLeast, gain),
            Constraint::new("bw", ConstraintKind::AtLeast, bw),
        ]
    }

    #[test]
    fn synthesize_meets_spec_with_minimal_power() {
        let synth = Synthesizer::new(amp_space(), amp_constraints(60.0, 1e6), "power");
        let cfg = SynthConfig {
            iterations: 3000,
            seed: 11,
            ..Default::default()
        };
        let run = synth.run(&amp_eval, &cfg, None, Deadline::none()).unwrap();
        assert!(run.feasible, "{:?}", run.best_perf);
        // Power should approach the analytic minimum: constraints active.
        let gain = run.best_perf.get("gain").unwrap();
        assert!(gain < 120.0, "gain overshoot wastes power: {gain}");
    }

    #[test]
    fn retarget_uses_fewer_evaluations() {
        let synth = Synthesizer::new(amp_space(), amp_constraints(60.0, 1e6), "power");
        let cfg = SynthConfig {
            iterations: 3000,
            seed: 12,
            ..Default::default()
        };
        let cold = synth.run(&amp_eval, &cfg, None, Deadline::none()).unwrap();
        assert!(cold.feasible);
        // New spec: slightly different gain/bandwidth targets.
        let synth = Synthesizer::new(amp_space(), amp_constraints(50.0, 1.2e6), "power");
        let warm = synth
            .run(&amp_eval, &cfg, Some(&cold), Deadline::none())
            .unwrap();
        assert!(warm.feasible, "{:?}", warm.best_perf);
        assert!(
            warm.evaluations * 3 < cold.evaluations,
            "warm {} vs cold {}",
            warm.evaluations,
            cold.evaluations
        );
    }

    #[test]
    fn infeasible_spec_reports_infeasible() {
        let synth = Synthesizer::new(
            amp_space(),
            // gain ≥ 40·sqrt(w/i) max = 40·sqrt(1e-3/1e-5) = 400; ask 4000.
            amp_constraints(4000.0, 1e6),
            "power",
        );
        let cfg = SynthConfig {
            iterations: 800,
            seed: 13,
            ..Default::default()
        };
        let run = synth.run(&amp_eval, &cfg, None, Deadline::none()).unwrap();
        assert!(!run.feasible);
    }

    #[test]
    fn run_unlimited_completes_and_zero_budget_times_out() {
        let synth = Synthesizer::new(amp_space(), amp_constraints(60.0, 1e6), "power");
        let cfg = SynthConfig {
            iterations: 600,
            seed: 14,
            ..Default::default()
        };
        synth.run(&amp_eval, &cfg, None, Deadline::none()).unwrap();

        let expired = Deadline::within(std::time::Duration::from_secs(0));
        match synth.run(&amp_eval, &cfg, None, expired) {
            Err(SynthError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    /// [`SynthResult::evaluations`] counts every evaluator call: the
    /// annealing schedule, the polish and the polished point's
    /// re-evaluation, cold and retargeted alike.
    #[test]
    fn evaluations_count_every_evaluator_call() {
        let synth = Synthesizer::new(amp_space(), amp_constraints(60.0, 1e6), "power");
        let cfg = SynthConfig {
            iterations: 600,
            seed: 15,
            ..Default::default()
        };
        let calls = Cell::new(0usize);
        let counted = |x: &[f64]| {
            calls.set(calls.get() + 1);
            amp_eval(x)
        };
        let cold = synth.run(&counted, &cfg, None, Deadline::none()).unwrap();
        assert_eq!(cold.evaluations, calls.get());

        calls.set(0);
        let warm = synth
            .run(&counted, &cfg, Some(&cold), Deadline::none())
            .unwrap();
        assert_eq!(warm.evaluations, calls.get());
        // More calls than the retarget's annealing can make (≤ 8 probes,
        // the start, 10 temperature probes, the schedule): the polish ran.
        assert!(calls.get() > 8 + 1 + 10 + cfg.retarget_budget().iterations);
    }

    #[test]
    fn results_are_reproducible() {
        let synth = Synthesizer::new(amp_space(), amp_constraints(60.0, 1e6), "power");
        let cfg = SynthConfig {
            iterations: 600,
            seed: 14,
            ..Default::default()
        };
        let a = synth.run(&amp_eval, &cfg, None, Deadline::none()).unwrap();
        let b = synth.run(&amp_eval, &cfg, None, Deadline::none()).unwrap();
        assert_eq!(a.best_x, b.best_x);
        assert_eq!(a.evaluations, b.evaluations);
    }
}
