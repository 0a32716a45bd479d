//! The full pipelined converter: S/H, cascaded stages, backend flash, and
//! digital error correction (RSD recombination).

use crate::sha::ShaModel;
use crate::stage::{gaussian, StageModel};
use rand::Rng;

/// Backend flash quantizer (the final stage has no MDAC).
#[derive(Debug, Clone, PartialEq)]
pub struct FlashBackend {
    bits: u32,
    /// Per-threshold offsets, normalized (empty = ideal).
    offsets: Vec<f64>,
}

impl FlashBackend {
    /// Ideal backend flash of `bits` resolution.
    ///
    /// # Panics
    /// Panics unless `1 ≤ bits ≤ 10`.
    pub fn ideal(bits: u32) -> Self {
        FlashBackend::with_offsets(bits, Vec::new())
    }

    /// Backend flash with per-threshold offsets (length `2^bits − 1`).
    ///
    /// # Panics
    /// Panics on invalid resolution or offset count.
    pub fn with_offsets(bits: u32, offsets: Vec<f64>) -> Self {
        assert!((1..=10).contains(&bits), "flash bits must be 1..=10");
        let nt = (1usize << bits) - 1;
        assert!(
            offsets.is_empty() || offsets.len() == nt,
            "expected {nt} threshold offsets"
        );
        FlashBackend { bits, offsets }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of comparators `2^bits − 1`.
    pub fn comparator_count(&self) -> usize {
        (1usize << self.bits) - 1
    }

    /// Quantizes `v ∈ [−1, 1]` to a code in `0..2^bits`, returning the code
    /// and its mid-level reconstruction value.
    pub fn quantize(&self, v: f64) -> (u32, f64) {
        let n = 1u32 << self.bits;
        // Uniform mid-rise quantizer on [−1, 1]: thresholds at
        // −1 + 2k/n, k = 1..n−1.
        let mut code = 0u32;
        for k in 1..n {
            let mut t = -1.0 + 2.0 * k as f64 / n as f64;
            if let Some(&off) = self.offsets.get((k - 1) as usize) {
                t += off;
            }
            if v > t {
                code = k;
            }
        }
        let mid = -1.0 + (2.0 * code as f64 + 1.0) / n as f64;
        (code, mid)
    }
}

/// A complete behavioural pipelined ADC.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAdc {
    sha: Option<ShaModel>,
    stages: Vec<StageModel>,
    backend: FlashBackend,
}

impl PipelineAdc {
    /// Builds an ideal pipeline from front-end stage resolutions (raw bits
    /// `mᵢ`, each contributing `mᵢ − 1` effective bits) plus a backend
    /// flash.
    ///
    /// # Panics
    /// Panics if any stage resolution is invalid (see [`StageModel`]).
    pub fn ideal(front_bits: &[u32], backend_bits: u32) -> Self {
        PipelineAdc {
            sha: None,
            stages: front_bits.iter().map(|&m| StageModel::ideal(m)).collect(),
            backend: FlashBackend::ideal(backend_bits),
        }
    }

    /// Builds a pipeline from explicit stage models.
    pub fn new(sha: Option<ShaModel>, stages: Vec<StageModel>, backend: FlashBackend) -> Self {
        PipelineAdc {
            sha,
            stages,
            backend,
        }
    }

    /// Total effective resolution `Σ(mᵢ−1) + backend bits`.
    pub fn resolution_bits(&self) -> u32 {
        self.stages.iter().map(|s| s.effective_bits()).sum::<u32>() + self.backend.bits()
    }

    /// Total comparator count across sub-ADCs and backend.
    pub fn comparator_count(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.comparator_count())
            .sum::<usize>()
            + self.backend.comparator_count()
    }

    /// Converts one normalized sample, returning the digitally corrected
    /// analog estimate in `[−1, 1]`.
    ///
    /// Digital correction implements the RSD recursion
    /// `v̂ᵢ = (dᵢ + v̂ᵢ₊₁)/Gᵢ`, seeded by the backend's mid-level value.
    pub fn convert<R: Rng + ?Sized>(&self, vin: f64, rng: &mut R) -> f64 {
        let mut v = vin;
        if let Some(sha) = &self.sha {
            v = sha.sample(v, rng);
        }
        let mut digits = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            let (d, r) = s.process(v, rng);
            digits.push(d);
            v = r;
        }
        let (_, mut est) = self.backend.quantize(v);
        for (s, &d) in self.stages.iter().zip(digits.iter()).rev() {
            est = (d as f64 + est) / s.gain();
        }
        est
    }

    /// Converts one sample to the integer output code `0..2^K`.
    pub fn convert_code<R: Rng + ?Sized>(&self, vin: f64, rng: &mut R) -> u32 {
        let est = self.convert(vin, rng);
        let n = 1u64 << self.resolution_bits();
        let lsb = 2.0 / n as f64;
        let code = ((est + 1.0) / lsb).floor();
        code.clamp(0.0, (n - 1) as f64) as u32
    }

    /// Converts a waveform, returning analog estimates.
    pub fn convert_waveform<R: Rng + ?Sized>(&self, samples: &[f64], rng: &mut R) -> Vec<f64> {
        samples.iter().map(|&v| self.convert(v, rng)).collect()
    }

    /// Adds input-referred white noise of the given RMS before conversion —
    /// convenience for modeling source/reference noise.
    pub fn convert_waveform_noisy<R: Rng + ?Sized>(
        &self,
        samples: &[f64],
        input_noise_rms: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        samples
            .iter()
            .map(|&v| self.convert(v + input_noise_rms * gaussian(rng), rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageNonideality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn resolution_accounting() {
        // 4-3-2 front-end + 7-bit backend = 3+2+1+7 = 13 bits.
        let adc = PipelineAdc::ideal(&[4, 3, 2], 7);
        assert_eq!(adc.resolution_bits(), 13);
        // Comparators: 14 + 6 + 2 + 127.
        assert_eq!(adc.comparator_count(), 14 + 6 + 2 + 127);
    }

    #[test]
    fn ideal_conversion_within_one_lsb() {
        let adc = PipelineAdc::ideal(&[3, 2], 4); // 2+1+4 = 7 bits
        let lsb = 2.0 / 128.0;
        let mut r = rng();
        for i in 0..500 {
            let v = -0.95 + 1.9 * i as f64 / 499.0;
            let est = adc.convert(v, &mut r);
            assert!((est - v).abs() <= lsb, "v={v} est={est}");
        }
    }

    #[test]
    fn codes_are_monotone_for_ideal_adc() {
        let adc = PipelineAdc::ideal(&[2, 2], 5);
        let mut r = rng();
        let mut last = 0u32;
        for i in 0..2000 {
            let v = -0.99 + 1.98 * i as f64 / 1999.0;
            let c = adc.convert_code(v, &mut r);
            assert!(c >= last, "non-monotone at v={v}: {c} < {last}");
            last = c;
        }
    }

    #[test]
    fn full_scale_codes() {
        let adc = PipelineAdc::ideal(&[2], 3); // 4 bits
        let mut r = rng();
        assert_eq!(adc.convert_code(-0.9999, &mut r), 0);
        assert_eq!(adc.convert_code(0.9999, &mut r), 15);
    }

    #[test]
    fn comparator_offsets_within_redundancy_are_corrected() {
        // m = 3 stage tolerates offsets < 1/2^3 = 0.125.
        let off: Vec<f64> = (0..6)
            .map(|i| if i % 2 == 0 { 0.08 } else { -0.08 })
            .collect();
        let stage = StageModel::with_nonideality(
            3,
            StageNonideality {
                comparator_offsets: off,
                ..Default::default()
            },
        );
        let ideal = PipelineAdc::ideal(&[3], 6);
        let off_adc = PipelineAdc::new(None, vec![stage], FlashBackend::ideal(6));
        let mut r1 = rng();
        let mut r2 = rng();
        for i in 0..1000 {
            let v = -0.9 + 1.8 * i as f64 / 999.0;
            let a = ideal.convert(v, &mut r1);
            let b = off_adc.convert(v, &mut r2);
            assert!((a - b).abs() < 2.0 / 64.0, "v={v}: {a} vs {b}");
        }
    }

    #[test]
    fn offsets_beyond_redundancy_corrupt() {
        // Offsets of 0.4 >> 0.25 for an m=2 stage: residue leaves the
        // backend range and codes saturate → large error somewhere.
        let stage = StageModel::with_nonideality(
            2,
            StageNonideality {
                comparator_offsets: vec![0.4, -0.4],
                ..Default::default()
            },
        );
        let adc = PipelineAdc::new(None, vec![stage], FlashBackend::ideal(6));
        let mut r = rng();
        let worst = (0..1000)
            .map(|i| {
                let v = -0.9 + 1.8 * i as f64 / 999.0;
                (adc.convert(v, &mut r) - v).abs()
            })
            .fold(0.0, f64::max);
        assert!(worst > 0.05, "expected gross errors, worst = {worst}");
    }

    #[test]
    fn backend_flash_quantizes_uniformly() {
        let f = FlashBackend::ideal(3);
        assert_eq!(f.comparator_count(), 7);
        let (c0, m0) = f.quantize(-1.0);
        assert_eq!(c0, 0);
        assert!((m0 + 0.875).abs() < 1e-12);
        let (c7, m7) = f.quantize(0.999);
        assert_eq!(c7, 7);
        assert!((m7 - 0.875).abs() < 1e-12);
        let (c, _) = f.quantize(0.0 + 1e-9);
        assert_eq!(c, 4);
    }

    #[test]
    fn deep_pipeline_2222_matches_43_2() {
        // Different topologies, same total resolution → same transfer
        // (ideal case): 2-2-2-2-2-2 + 7b vs 4-3-2 + 7b, both 13-bit.
        let a = PipelineAdc::ideal(&[2, 2, 2, 2, 2, 2], 7);
        let b = PipelineAdc::ideal(&[4, 3, 2], 7);
        assert_eq!(a.resolution_bits(), 13);
        assert_eq!(b.resolution_bits(), 13);
        let mut r1 = rng();
        let mut r2 = rng();
        for i in 0..300 {
            let v = -0.9 + 1.8 * i as f64 / 299.0;
            let ea = a.convert(v, &mut r1);
            let eb = b.convert(v, &mut r2);
            assert!((ea - eb).abs() < 2.0 / 8192.0, "v={v}: {ea} vs {eb}");
        }
    }
}
