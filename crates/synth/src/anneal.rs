//! Simulated annealing over normalized design coordinates.
//!
//! NeoCircuit-class sizing tools are stochastic global searchers over
//! simulation-in-the-loop cost functions; simulated annealing with a
//! feasibility-first cost (normalized constraint violations strongly
//! weighted over the objective) reproduces that behaviour.

use crate::constraints::{all_satisfied, total_violation, Constraint};
use crate::evaluator::{EvalOutcome, Evaluator, Performance};
use crate::runner::SynthConfig;
use crate::space::DesignSpace;
use adc_numerics::quant::quantize_rel;
use adc_numerics::Deadline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Penalty weight on normalized constraint violations relative to the
/// normalized objective.
pub const PENALTY_WEIGHT: f64 = 1e3;

/// Result of one annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best point found (normalized coordinates).
    pub best_u: Vec<f64>,
    /// Cost of the best point.
    pub best_cost: f64,
    /// Performance at the best point (`None` if every evaluation failed).
    pub best_perf: Option<Performance>,
    /// Whether the best point satisfies all constraints.
    pub feasible: bool,
    /// Evaluator calls.
    pub evaluations: usize,
    /// Best-cost trace (one entry per iteration).
    pub history: Vec<f64>,
    /// The schedule stopped early because the deadline passed to
    /// [`anneal`] expired. The partial best-so-far is still reported.
    pub timed_out: bool,
}

/// Scalar cost of an outcome: `PENALTY_WEIGHT·Σviolations + obj/obj_ref`.
pub fn outcome_cost(
    outcome: &EvalOutcome,
    constraints: &[Constraint],
    objective: &str,
    obj_ref: f64,
) -> f64 {
    match outcome {
        EvalOutcome::Failed(_) => f64::INFINITY,
        EvalOutcome::Ok(perf) => {
            let viol = total_violation(constraints, perf);
            let obj = perf.get(objective).unwrap_or(f64::INFINITY);
            if !obj.is_finite() {
                return f64::INFINITY;
            }
            PENALTY_WEIGHT * viol + obj / obj_ref.abs().max(1e-30)
        }
    }
}

/// Runs simulated annealing on the schedule, seed, warm tail and cost
/// grid of `cfg` (its `nm_iterations` are the polish's, not used here);
/// `start` (normalized) warm-starts the search.
///
/// `deadline` is a cooperative wall-clock budget, checked once per
/// annealing step. An expired deadline stops the schedule early and marks
/// the result [`AnnealResult::timed_out`]; [`Deadline::none`] costs
/// nothing. It is never part of any fingerprint: an unexpired deadline
/// leaves the trajectory bit-identical to no deadline.
pub fn anneal<E: Evaluator>(
    space: &DesignSpace,
    evaluator: &E,
    constraints: &[Constraint],
    objective: &str,
    cfg: &SynthConfig,
    start: Option<&[f64]>,
    deadline: Deadline,
) -> AnnealResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0usize;

    // Objective reference from a few probe points (scale-free objective).
    let mut obj_ref = 1.0;
    for _ in 0..8 {
        let u = space.random_point(&mut rng);
        evaluations += 1;
        if let EvalOutcome::Ok(p) = evaluator.evaluate(&space.denormalize(&u)) {
            if let Some(v) = p.get(objective) {
                if v.is_finite() && v != 0.0 {
                    obj_ref = v.abs();
                    break;
                }
            }
        }
    }

    // Cost quantization grid (identity when disabled).
    let q = |c: f64| match cfg.cost_quant_digits {
        Some(d) => quantize_rel(c, d),
        None => c,
    };

    let mut cur_u = match start {
        Some(u) => u.to_vec(),
        None => space.random_point(&mut rng),
    };
    let cur_out = evaluator.evaluate(&space.denormalize(&cur_u));
    evaluations += 1;
    let mut cur_cost = q(outcome_cost(&cur_out, constraints, objective, obj_ref));

    let mut best_u = cur_u.clone();
    let mut best_cost = cur_cost;
    let mut best_perf = match cur_out {
        EvalOutcome::Ok(p) => Some(p),
        EvalOutcome::Failed(_) => None,
    };

    // Initial temperature from cost dispersion of random probes.
    let mut probe_costs = Vec::new();
    for _ in 0..10 {
        let u = space.random_point(&mut rng);
        let out = evaluator.evaluate(&space.denormalize(&u));
        evaluations += 1;
        let c = q(outcome_cost(&out, constraints, objective, obj_ref));
        if c.is_finite() {
            probe_costs.push(c);
            if c < best_cost {
                best_cost = c;
                best_u = u.clone();
                cur_u = u.clone();
                cur_cost = c;
                if let EvalOutcome::Ok(p) = out {
                    best_perf = Some(p);
                }
            }
        }
    }
    let spread = if probe_costs.len() >= 2 {
        let mx = probe_costs.iter().cloned().fold(f64::MIN, f64::max);
        let mn = probe_costs.iter().cloned().fold(f64::MAX, f64::min);
        (mx - mn).max(1e-6)
    } else {
        1.0
    };
    let t0 = spread;
    let t_end = spread * 1e-5;

    let mut history = Vec::with_capacity(cfg.iterations);
    let mut timed_out = false;
    let n = cfg.iterations.max(1);
    // First iteration of the warm-start tail (n → tail disabled).
    let tail_len = (cfg.warm_tail_frac.clamp(0.0, 1.0) * n as f64) as usize;
    let tail_start = n - tail_len.min(n);
    let mut local_phase_on = false;
    for k in 0..n {
        // Deadline check at anneal-step granularity; the partial search
        // state (best-so-far, history prefix) is preserved.
        if deadline.expired() {
            timed_out = true;
            break;
        }
        if tail_len > 0 && k == tail_start {
            evaluator.set_local_phase(true);
            local_phase_on = true;
        }
        let frac = k as f64 / n as f64;
        let temp = t0 * (t_end / t0).powf(frac);
        let sigma = cfg.sigma0 * (cfg.sigma_end / cfg.sigma0).powf(frac);
        let cand_u = space.neighbor(&cur_u, sigma, &mut rng);
        let out = evaluator.evaluate(&space.denormalize(&cand_u));
        evaluations += 1;
        // Metropolis test; the RNG draws only for a finite uphill move.
        let cost = q(outcome_cost(&out, constraints, objective, obj_ref));
        let accept = cost <= cur_cost
            || (cost.is_finite() && rng.gen::<f64>() < ((cur_cost - cost) / temp).exp());
        if accept {
            cur_u = cand_u;
            cur_cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best_u = cur_u.clone();
                if let EvalOutcome::Ok(p) = out {
                    best_perf = Some(p);
                }
            }
        }
        history.push(best_cost);
    }
    if local_phase_on {
        evaluator.set_local_phase(false);
    }

    let feasible = best_perf
        .as_ref()
        .is_some_and(|p| all_satisfied(constraints, p));
    AnnealResult {
        best_u,
        best_cost,
        best_perf,
        feasible,
        evaluations,
        history,
        timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintKind;
    use crate::space::DesignVar;

    fn sphere_eval(x: &[f64]) -> EvalOutcome {
        let mut p = Performance::new();
        p.set(
            "obj",
            x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum::<f64>() + 1.0,
        );
        p.set("sum", x.iter().sum());
        EvalOutcome::Ok(p)
    }

    fn space2() -> DesignSpace {
        DesignSpace::new(vec![
            DesignVar::linear("a", 0.0, 10.0),
            DesignVar::linear("b", 0.0, 10.0),
        ])
    }

    /// Anneals toward `"obj"` over [`space2`] with no deadline.
    fn anneal2<E: Evaluator>(
        eval: &E,
        cs: &[Constraint],
        cfg: &SynthConfig,
        start: Option<&[f64]>,
    ) -> AnnealResult {
        anneal(&space2(), eval, cs, "obj", cfg, start, Deadline::none())
    }

    #[test]
    fn minimizes_sphere() {
        let cfg = SynthConfig {
            iterations: 3000,
            seed: 3,
            ..Default::default()
        };
        let r = anneal2(&sphere_eval, &[], &cfg, None);
        let x = space2().denormalize(&r.best_u);
        assert!((x[0] - 3.0).abs() < 0.3, "{x:?}");
        assert!((x[1] - 3.0).abs() < 0.3, "{x:?}");
        assert!(r.feasible);
    }

    #[test]
    fn respects_constraints() {
        // Minimize distance to (3,3) subject to sum ≥ 12 — optimum on the
        // constraint boundary near (6,6).
        let cs = vec![Constraint::new("sum", ConstraintKind::AtLeast, 12.0)];
        let cfg = SynthConfig {
            iterations: 6000,
            seed: 4,
            ..Default::default()
        };
        let r = anneal2(&sphere_eval, &cs, &cfg, None);
        assert!(r.feasible);
        let x = space2().denormalize(&r.best_u);
        assert!(x[0] + x[1] >= 11.9, "{x:?}");
        assert!(x[0] + x[1] < 13.0, "should sit near the boundary: {x:?}");
    }

    #[test]
    fn reproducible_with_seed() {
        let cfg = SynthConfig {
            iterations: 500,
            seed: 9,
            ..Default::default()
        };
        let a = anneal2(&sphere_eval, &[], &cfg, None);
        let b = anneal2(&sphere_eval, &[], &cfg, None);
        assert_eq!(a.best_u, b.best_u);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn warm_start_speeds_convergence() {
        let space = space2();
        let target_u = space.normalize(&[3.0, 3.0]);
        let cfg = SynthConfig {
            iterations: 150,
            sigma0: 0.05,
            sigma_end: 0.01,
            seed: 5,
            ..Default::default()
        };
        let warm = anneal2(&sphere_eval, &[], &cfg, Some(&target_u));
        let cold_cfg = SynthConfig {
            iterations: 150,
            seed: 5,
            ..Default::default()
        };
        let cold = anneal2(&sphere_eval, &[], &cold_cfg, None);
        assert!(warm.best_cost <= cold.best_cost + 1e-9);
    }

    #[test]
    fn failed_evaluations_do_not_win() {
        let eval = |x: &[f64]| {
            if x[0] < 5.0 {
                EvalOutcome::Failed("region not simulatable".into())
            } else {
                sphere_eval(x)
            }
        };
        let cfg = SynthConfig {
            iterations: 2000,
            seed: 6,
            ..Default::default()
        };
        let r = anneal2(&eval, &[], &cfg, None);
        let x = space2().denormalize(&r.best_u);
        assert!(x[0] >= 5.0, "{x:?}");
        assert!(r.best_perf.is_some());
    }

    #[test]
    fn expired_deadline_stops_early_with_partial_best() {
        let cfg = SynthConfig {
            iterations: 3000,
            seed: 3,
            ..Default::default()
        };
        let expired = Deadline::within(std::time::Duration::from_secs(0));
        let r = anneal(&space2(), &sphere_eval, &[], "obj", &cfg, None, expired);
        assert!(r.timed_out);
        // The probe phase still ran, so a best-so-far exists and history
        // holds no main-loop entries.
        assert!(r.best_perf.is_some());
        assert!(r.history.is_empty());
        // An unlimited deadline is not reported as a timeout.
        let cfg = SynthConfig {
            iterations: 50,
            seed: 3,
            ..Default::default()
        };
        assert!(!anneal2(&sphere_eval, &[], &cfg, None).timed_out);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let cfg = SynthConfig {
            iterations: 300,
            seed: 7,
            ..Default::default()
        };
        let r = anneal2(&sphere_eval, &[], &cfg, None);
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}
