//! Test-signal generation: coherent sine waves and linearity ramps.

/// Generates `n` samples of `ampl·sin(2π·bin·k/n + phase)`.
pub fn coherent_sine(n: usize, bin: usize, ampl: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|k| {
            ampl * (2.0 * std::f64::consts::PI * bin as f64 * k as f64 / n as f64 + phase).sin()
        })
        .collect()
}

/// Generates a linear ramp of `n` samples from `lo` to `hi` inclusive.
pub fn ramp(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|k| lo + (hi - lo) * k as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_sine_closes_cleanly() {
        let s = coherent_sine(256, 7, 1.0, 0.3);
        // The wrap-around sample continues the sequence exactly.
        let expected = (2.0 * std::f64::consts::PI * 7.0 * 256.0 / 256.0 + 0.3).sin();
        assert!((s[0] - (0.3f64).sin()).abs() < 1e-12);
        assert!((expected - s[0]).abs() < 1e-12);
    }

    #[test]
    fn ramp_endpoints() {
        let r = ramp(11, -1.0, 1.0);
        assert_eq!(r[0], -1.0);
        assert_eq!(r[10], 1.0);
        assert!((r[5] - 0.0).abs() < 1e-15);
    }
}
