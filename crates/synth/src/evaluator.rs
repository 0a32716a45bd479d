//! Evaluation interface: a candidate sizing vector in, named performance
//! numbers out.

use std::collections::BTreeMap;

/// Named performance metrics of one candidate design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Performance {
    metrics: BTreeMap<String, f64>,
}

impl Performance {
    /// Empty metrics set.
    pub fn new() -> Self {
        Performance::default()
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Reads a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Result of evaluating one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// Evaluation succeeded.
    Ok(Performance),
    /// The candidate could not be evaluated (DC non-convergence, singular
    /// system, …); the optimizer treats it as maximally infeasible.
    Failed(String),
}

/// Anything that can evaluate a design point (values in real units, in the
/// design space's variable order).
pub trait Evaluator {
    /// Evaluates the candidate.
    fn evaluate(&self, x: &[f64]) -> EvalOutcome;

    /// Phase hint from the optimizer: `true` while a **local** search
    /// (Nelder–Mead polish) probes tightly clustered candidates, where a
    /// simulation-backed evaluator may warm-start from the previous
    /// solution; `false` during global exploration, where evaluations must
    /// be independent of history. Default: ignored (analytic evaluators
    /// have no state to reuse).
    fn set_local_phase(&self, _local: bool) {}
}

impl<F> Evaluator for F
where
    F: Fn(&[f64]) -> EvalOutcome,
{
    fn evaluate(&self, x: &[f64]) -> EvalOutcome {
        self(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_set_get_iter() {
        let mut p = Performance::new();
        p.set("power", 1e-3);
        p.set("gain", 80.0);
        assert_eq!(p.get("power"), Some(1e-3));
        assert_eq!(p.get("missing"), None);
        let names: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["gain", "power"]); // name order
    }

    #[test]
    fn closures_are_evaluators() {
        let f = |x: &[f64]| {
            let mut p = Performance::new();
            p.set("sum", x.iter().sum());
            EvalOutcome::Ok(p)
        };
        match f.evaluate(&[1.0, 2.0]) {
            EvalOutcome::Ok(p) => assert_eq!(p.get("sum"), Some(3.0)),
            EvalOutcome::Failed(_) => panic!(),
        }
    }
}
