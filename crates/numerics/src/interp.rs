//! Frequency grids for Bode plots and sweeps.

/// Generates `n` logarithmically spaced points from `a` to `b` inclusive.
///
/// # Panics
/// Panics unless `a`, `b` are positive and `n ≥ 2`.
pub fn logspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(a > 0.0 && b > 0.0, "logspace needs positive endpoints");
    assert!(n >= 2, "need at least two points");
    let (la, lb) = (a.ln(), b.ln());
    (0..n)
        .map(|i| (la + (lb - la) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces() {
        let g = logspace(1.0, 1000.0, 4);
        for (got, want) in g.iter().zip([1.0, 10.0, 100.0, 1000.0]) {
            assert!((got - want).abs() < 1e-9 * want);
        }
    }
}
