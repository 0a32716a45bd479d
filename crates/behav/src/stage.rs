//! Behavioural model of one pipelined stage: an `m`-bit sub-ADC plus an
//! MDAC producing the amplified residue, in the redundant-signed-digit
//! (RSD) form that digital correction expects.
//!
//! Signals are normalized to the reference: the stage input lives in
//! `[−1, 1]` (differential full scale). An `m`-bit stage resolves the digit
//! `d ∈ {−(2^{m−1}−1), …, +(2^{m−1}−1)}` (that is `2^m − 1` levels — the
//! classic "1.5-bit" stage is `m = 2` with levels −1/0/+1) and outputs
//!
//! ```text
//! residue = G·v − d,   G = 2^{m−1}
//! ```
//!
//! which stays within `±0.5` ideally, leaving `±0.5` of correction range to
//! absorb comparator offsets up to `±Vref/2^m`.

use rand::Rng;

/// Nonidealities applied by a stage's MDAC and sub-ADC.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageNonideality {
    /// Multiplicative interstage-gain error (e.g. `1/(A0·β)` from finite
    /// opamp gain plus incomplete-settling error). 0 = ideal.
    pub gain_error: f64,
    /// Per-comparator threshold offsets, normalized to the reference.
    /// Length must be `levels − 1` (thresholds count) or empty for ideal.
    pub comparator_offsets: Vec<f64>,
    /// Per-digit DAC level error (capacitor mismatch), normalized; length
    /// `levels` or empty.
    pub dac_errors: Vec<f64>,
    /// RMS input-referred thermal noise of the stage, normalized.
    pub noise_rms: f64,
    /// Residue offset (opamp offset referred to the output), normalized.
    pub offset: f64,
}

/// Behavioural model of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageModel {
    bits: u32,
    nonideal: StageNonideality,
}

impl StageModel {
    /// Creates an ideal `m`-bit stage (`m ≥ 2`; `m = 2` is the 1.5-bit
    /// stage).
    ///
    /// # Panics
    /// Panics if `bits < 2` or `bits > 6`.
    pub fn ideal(bits: u32) -> Self {
        StageModel::with_nonideality(bits, StageNonideality::default())
    }

    /// Creates a stage with explicit nonidealities.
    ///
    /// # Panics
    /// Panics if `bits` is outside `2..=6`, or offset/error vector lengths
    /// don't match the level count.
    pub fn with_nonideality(bits: u32, nonideal: StageNonideality) -> Self {
        assert!((2..=6).contains(&bits), "stage bits must be in 2..=6");
        let levels = (1usize << bits) - 1;
        assert!(
            nonideal.comparator_offsets.is_empty()
                || nonideal.comparator_offsets.len() == levels - 1,
            "expected {} comparator offsets",
            levels - 1
        );
        assert!(
            nonideal.dac_errors.is_empty() || nonideal.dac_errors.len() == levels,
            "expected {} DAC errors",
            levels
        );
        StageModel { bits, nonideal }
    }

    /// Effective resolution contributed after digital correction: `m − 1`.
    pub fn effective_bits(&self) -> u32 {
        self.bits - 1
    }

    /// Interstage gain `G = 2^{m−1}`.
    pub fn gain(&self) -> f64 {
        (1u64 << (self.bits - 1)) as f64
    }

    /// Number of quantizer levels `2^m − 1`.
    pub fn levels(&self) -> usize {
        (1usize << self.bits) - 1
    }

    /// Number of comparators `2^m − 2`.
    pub fn comparator_count(&self) -> usize {
        self.levels() - 1
    }

    /// Largest digit magnitude `2^{m−1} − 1`.
    fn dmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Sub-ADC decision: maps the (noisy) input to a digit.
    ///
    /// Thresholds sit at `(k + 0.5)/G` for `k = −dmax..dmax−1`, perturbed by
    /// the comparator offsets.
    pub fn quantize(&self, v: f64) -> i32 {
        let g = self.gain();
        let dmax = self.dmax();
        // Count thresholds below v.
        let mut d = -dmax;
        for (i, k) in (-dmax..dmax).enumerate() {
            let mut t = (k as f64 + 0.5) / g;
            if let Some(&off) = self.nonideal.comparator_offsets.get(i) {
                t += off;
            }
            if v > t {
                d = k + 1;
            }
        }
        d
    }

    /// Processes one sample: returns `(digit, residue)`.
    ///
    /// `rng` drives the thermal-noise draw; pass a deterministic generator
    /// for reproducible simulations.
    pub fn process<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> (i32, f64) {
        let v_noisy = if self.nonideal.noise_rms > 0.0 {
            v + self.nonideal.noise_rms * gaussian(rng)
        } else {
            v
        };
        let d = self.quantize(v_noisy);
        let g_eff = self.gain() * (1.0 - self.nonideal.gain_error);
        let dac = d as f64
            + self
                .nonideal
                .dac_errors
                .get((d + self.dmax()) as usize)
                .copied()
                .unwrap_or(0.0);
        let residue =
            g_eff * v_noisy - dac * (1.0 - self.nonideal.gain_error) + self.nonideal.offset;
        (d, residue)
    }
}

/// Standard-normal sample via Box–Muller (avoids a rand_distr dependency).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_point_five_bit_stage_levels() {
        let s = StageModel::ideal(2);
        assert_eq!(s.levels(), 3);
        assert_eq!(s.comparator_count(), 2);
        assert_eq!(s.gain(), 2.0);
        assert_eq!(s.effective_bits(), 1);
        // Thresholds at ±0.25.
        assert_eq!(s.quantize(-0.5), -1);
        assert_eq!(s.quantize(0.0), 0);
        assert_eq!(s.quantize(0.5), 1);
        assert_eq!(s.quantize(0.2), 0);
        assert_eq!(s.quantize(0.3), 1);
    }

    #[test]
    fn four_bit_stage_structure() {
        let s = StageModel::ideal(4);
        assert_eq!(s.levels(), 15);
        assert_eq!(s.comparator_count(), 14);
        assert_eq!(s.gain(), 8.0);
    }

    #[test]
    fn ideal_residue_bounded_half() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in 2..=4 {
            let s = StageModel::ideal(bits);
            let g = s.gain();
            // Residue stays within ±0.5 for |v| ≤ (dmax+0.5)/G (0.75 for
            // m=2, 0.875 for m=3, 0.9375 for m=4); the digit clamps beyond
            // that and the residue grows toward ±1 at full scale.
            let half_bound = (((1u64 << (bits - 1)) - 1) as f64 + 0.5) / g;
            for i in 0..1000 {
                let v = -1.0 + 2.0 * i as f64 / 999.0;
                let (_, r) = s.process(v, &mut rng);
                assert!(r.abs() <= 1.0 + 1e-12, "bits={bits} v={v} r={r}");
                if v.abs() < half_bound - 1e-3 {
                    assert!(r.abs() <= 0.5 + 1e-9, "bits={bits} v={v} r={r}");
                }
            }
        }
    }

    #[test]
    fn residue_reconstruction_identity() {
        // vin = (d + residue)/G exactly for the ideal stage.
        let mut rng = StdRng::seed_from_u64(2);
        let s = StageModel::ideal(3);
        for i in 0..100 {
            let v = -0.95 + 1.9 * i as f64 / 99.0;
            let (d, r) = s.process(v, &mut rng);
            let back = (d as f64 + r) / s.gain();
            assert!((back - v).abs() < 1e-12);
        }
    }

    #[test]
    fn comparator_offsets_shift_decisions_not_reconstruction() {
        let mut rng = StdRng::seed_from_u64(3);
        let off = vec![0.05, -0.04]; // within ±1/2^m = ±0.25 for m=2
        let s = StageModel::with_nonideality(
            2,
            StageNonideality {
                comparator_offsets: off,
                ..Default::default()
            },
        );
        for i in 0..200 {
            // Stay inside the m=2 non-clamping range ±0.75 (minus offset
            // margin) so the residue bound applies.
            let v = -0.65 + 1.3 * i as f64 / 199.0;
            let (d, r) = s.process(v, &mut rng);
            // Reconstruction identity still exact (offsets only move d).
            let back = (d as f64 + r) / s.gain();
            assert!((back - v).abs() < 1e-12);
            // Residue shifted by at most G·|offset| beyond ±0.5.
            assert!(r.abs() <= 0.5 + 2.0 * 0.05 + 1e-9, "v={v} r={r}");
        }
    }

    #[test]
    fn gain_error_breaks_identity_proportionally() {
        let mut rng = StdRng::seed_from_u64(4);
        let eps = 1e-3;
        let s = StageModel::with_nonideality(
            2,
            StageNonideality {
                gain_error: eps,
                ..Default::default()
            },
        );
        let v = 0.3; // d = 1, ideal residue −0.4 → error ≈ 0.2·eps
        let (d, r) = s.process(v, &mut rng);
        let back = (d as f64 + r) / s.gain();
        assert!((back - v).abs() < 2.0 * eps);
        assert!((back - v).abs() > eps * 0.1);
    }

    #[test]
    fn noise_is_reproducible_with_seed() {
        let s = StageModel::with_nonideality(
            2,
            StageNonideality {
                noise_rms: 1e-3,
                ..Default::default()
            },
        );
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(s.process(0.1, &mut r1), s.process(0.1, &mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "stage bits")]
    fn rejects_one_bit_stage() {
        StageModel::ideal(1);
    }

    #[test]
    #[should_panic(expected = "comparator offsets")]
    fn rejects_wrong_offset_count() {
        StageModel::with_nonideality(
            2,
            StageNonideality {
                comparator_offsets: vec![0.0; 5],
                ..Default::default()
            },
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
