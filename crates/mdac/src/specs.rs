//! ADC-level and stage-level specifications, and the translation between
//! them (§2 of the paper: "The MDAC block-level specifications can be
//! translated from the ADC system-level specifications and the value mᵢ for
//! the enumerated candidate").

use adc_numerics::quant::Fingerprint;
use adc_spice::process::Process;

/// Significant decimal digits of the **normalized-spec grid**: block-level
/// requirement values are quantized to this many digits before entering a
/// cache key, so independent derivations of the same physical spec (e.g.
/// the same `(m, input-accuracy)` stage reached from two resolutions)
/// collapse onto one key while genuinely different specs stay apart.
/// Requirement values in this flow differ by ≥ ~0.1 % when they differ at
/// all; 9 digits leaves six orders of margin on either side.
pub const SPEC_NORM_DIGITS: u32 = 9;

/// System-level converter specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcSpec {
    /// Total effective resolution K, bits.
    pub resolution: u32,
    /// Sampling rate, Hz.
    pub fs: f64,
    /// Differential full-scale range (peak-to-peak), V.
    pub full_scale: f64,
    /// Non-overlap time between clock phases, s.
    pub t_nonoverlap: f64,
    /// Target process.
    pub process: Process,
}

impl AdcSpec {
    /// The paper's evaluation point: a `resolution`-bit, 40 MSPS converter
    /// in the 0.25 µm 3.3 V process with a 2 V differential full scale.
    pub fn date05(resolution: u32) -> Self {
        AdcSpec {
            resolution,
            fs: 40e6,
            full_scale: 2.0,
            t_nonoverlap: 1e-9,
            process: Process::c025(),
        }
    }

    /// Amplification (hold-phase) time available to the MDAC: half a period
    /// minus the non-overlap interval.
    pub fn t_amplify(&self) -> f64 {
        0.5 / self.fs - self.t_nonoverlap
    }
}

/// Block-level specification of one front-end stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Position in the pipeline (0-based).
    pub index: usize,
    /// Raw sub-ADC resolution `m` (one bit is redundancy).
    pub bits: u32,
    /// Accuracy (bits) the stage input must be treated to: `K − Σ_{j<i} rⱼ`.
    pub input_accuracy: u32,
    /// Accuracy (bits) the amplified residue must settle to:
    /// `input_accuracy − (m−1)`.
    pub output_accuracy: u32,
    /// Interstage gain `2^{m−1}`.
    pub gain: f64,
    /// True if this is the last enumerated front-end stage (its load is the
    /// backend).
    pub is_last_front: bool,
}

impl StageSpec {
    /// Comparators in this stage's sub-ADC: `2^m − 2`.
    pub fn comparator_count(&self) -> usize {
        (1usize << self.bits) - 2
    }

    /// Maximum tolerable comparator offset under 1-bit redundancy,
    /// normalized to the reference: `1/2^m` (half the correction range).
    pub fn comparator_offset_budget(&self) -> f64 {
        1.0 / (1u64 << self.bits) as f64
    }

    /// A stable cache/reuse key: stages with the same `(m, input_accuracy)`
    /// have identical block specifications (the paper's "retargeting" reuse
    /// across candidates).
    pub fn reuse_key(&self) -> (u32, u32) {
        (self.bits, self.input_accuracy)
    }

    /// Deterministic fingerprint of the block specification — the
    /// stage-level component of a cross-run synthesis cache key. Position
    /// (`index`, `is_last_front`) is deliberately excluded: two stages with
    /// the same resolution and accuracies are the same *block* wherever
    /// they sit in a pipeline (the layout-reuse practice the paper
    /// describes).
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .add_u64(u64::from(self.bits))
            .add_u64(u64::from(self.input_accuracy))
            .add_u64(u64::from(self.output_accuracy))
            .add_quantized(self.gain, SPEC_NORM_DIGITS)
            .finish()
    }
}

/// Translates an ADC spec plus a front-end configuration `[m₁, m₂, …]` into
/// per-stage block specs.
///
/// # Panics
/// Panics if any `mᵢ < 2` or the configuration resolves more bits than the
/// converter has.
pub fn stage_specs(spec: &AdcSpec, front_bits: &[u32]) -> Vec<StageSpec> {
    let mut acc = 0u32;
    let n = front_bits.len();
    front_bits
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            assert!(m >= 2, "stage resolution must be at least 2 bits");
            let input_acc = spec
                .resolution
                .checked_sub(acc)
                .expect("configuration resolves more bits than the ADC has");
            let r = m - 1;
            assert!(input_acc > r, "no residual resolution left for stage {i}");
            acc += r;
            StageSpec {
                index: i,
                bits: m,
                input_accuracy: input_acc,
                output_accuracy: input_acc - r,
                gain: (1u64 << r) as f64,
                is_last_front: i + 1 == n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date05_defaults() {
        let s = AdcSpec::date05(13);
        assert_eq!(s.resolution, 13);
        assert_eq!(s.fs, 40e6);
        assert!((s.t_amplify() - 11.5e-9).abs() < 1e-15);
    }

    #[test]
    fn chain_432_for_13_bit() {
        let s = AdcSpec::date05(13);
        let specs = stage_specs(&s, &[4, 3, 2]);
        assert_eq!(specs.len(), 3);
        assert_eq!(
            specs.iter().map(|x| x.input_accuracy).collect::<Vec<_>>(),
            vec![13, 10, 8]
        );
        assert_eq!(
            specs.iter().map(|x| x.output_accuracy).collect::<Vec<_>>(),
            vec![10, 8, 7]
        );
        assert_eq!(specs[0].gain, 8.0);
        assert_eq!(specs[2].gain, 2.0);
        assert!(specs[2].is_last_front);
        assert!(!specs[0].is_last_front);
    }

    #[test]
    fn comparator_counts() {
        let s = AdcSpec::date05(13);
        let specs = stage_specs(&s, &[4, 3, 2]);
        assert_eq!(
            specs
                .iter()
                .map(|x| x.comparator_count())
                .collect::<Vec<_>>(),
            vec![14, 6, 2]
        );
        assert!((specs[0].comparator_offset_budget() - 1.0 / 16.0).abs() < 1e-15);
    }

    #[test]
    fn fingerprints_follow_reuse_keys_across_resolutions() {
        // The same (m, input-accuracy) block reached from two different
        // converter resolutions must fingerprint identically — the property
        // the cross-resolution cache key relies on.
        let a = stage_specs(&AdcSpec::date05(13), &[4, 3, 2]);
        let b = stage_specs(&AdcSpec::date05(11), &[4, 2]);
        assert_eq!(a[2].reuse_key(), b[1].reuse_key()); // both (2, 8)
        assert_eq!(a[2].fingerprint(), b[1].fingerprint());
        assert_ne!(a[0].fingerprint(), a[1].fingerprint());
    }

    #[test]
    fn reuse_keys_dedupe_across_configs() {
        let s = AdcSpec::date05(13);
        let a = stage_specs(&s, &[4, 3, 2]);
        let b = stage_specs(&s, &[4, 2, 2, 2]);
        // Both first stages are (4, 13): same block spec.
        assert_eq!(a[0].reuse_key(), b[0].reuse_key());
        assert_ne!(a[1].reuse_key(), b[1].reuse_key());
    }

    #[test]
    #[should_panic(expected = "at least 2 bits")]
    fn rejects_one_bit_stage() {
        stage_specs(&AdcSpec::date05(10), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "residual resolution")]
    fn rejects_overfull_chain() {
        // 4-4-4-4 resolves 12 effective bits; a 12-bit ADC leaves nothing
        // for the backend by stage 4.
        stage_specs(&AdcSpec::date05(12), &[4, 4, 4, 4]);
    }
}
