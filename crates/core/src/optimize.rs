//! Topology optimization: evaluate every enumerated candidate's stage and
//! total power (the data behind Fig. 1 and Fig. 2) and pick the minimum.

use crate::enumerate::{enumerate_candidates, Candidate};
use adc_mdac::power::{design_chain, PowerModelParams, StageDesign};
use adc_mdac::specs::AdcSpec;

/// Power evaluation of one candidate.
#[derive(Debug, Clone)]
pub struct CandidateRow {
    /// The configuration.
    pub candidate: Candidate,
    /// Full per-stage analytic designs.
    pub stages: Vec<StageDesign>,
    /// Per-stage total power, W (Fig. 1 series).
    pub stage_power: Vec<f64>,
    /// Front-end total power, W (Fig. 2 bar).
    pub total_power: f64,
}

/// Ranked evaluation of every candidate for one ADC spec.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// The ADC specification evaluated.
    pub spec: AdcSpec,
    /// Rows sorted ascending by total power.
    pub rows: Vec<CandidateRow>,
}

impl TopologyReport {
    /// The minimum-power candidate.
    ///
    /// # Panics
    /// Panics if the report is empty (resolution ≤ backend bits).
    pub fn best(&self) -> &CandidateRow {
        self.rows.first().expect("no candidates")
    }

    /// Row for a specific configuration, if enumerated.
    pub fn row(&self, front_bits: &[u32]) -> Option<&CandidateRow> {
        self.rows
            .iter()
            .find(|r| r.candidate.front_bits() == front_bits)
    }
}

fn evaluate_candidate(
    spec: &AdcSpec,
    params: &PowerModelParams,
    candidate: Candidate,
) -> CandidateRow {
    let stages = design_chain(spec, candidate.front_bits(), params);
    let stage_power: Vec<f64> = stages.iter().map(|d| d.power_total).collect();
    let total_power = stage_power.iter().sum();
    CandidateRow {
        candidate,
        stages,
        stage_power,
        total_power,
    }
}

/// Evaluates all candidates of `spec` with the analytic designer model and
/// ranks them by total front-end power.
pub fn optimize_topology(spec: &AdcSpec, params: &PowerModelParams) -> TopologyReport {
    let mut rows: Vec<CandidateRow> = enumerate_candidates(spec.resolution, 7)
        .into_iter()
        .map(|candidate| evaluate_candidate(spec, params, candidate))
        .collect();
    rows.sort_by(|a, b| {
        a.total_power
            .partial_cmp(&b.total_power)
            .expect("finite powers")
    });
    TopologyReport {
        spec: spec.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PowerModelParams {
        PowerModelParams::calibrated()
    }

    /// The paper's headline result: 4-3-2 minimizes 13-bit power.
    #[test]
    fn thirteen_bit_optimum_is_432() {
        let r = optimize_topology(&AdcSpec::date05(13), &params());
        assert_eq!(r.best().candidate.to_string(), "4-3-2");
        assert_eq!(r.rows.len(), 7);
    }

    /// Fig. 2's optima across resolutions: 3-2, 4-2, 4-2-2, 4-3-2.
    #[test]
    fn optima_across_resolutions_match_paper() {
        for (k, want) in [(10, "3-2"), (11, "4-2"), (12, "4-2-2"), (13, "4-3-2")] {
            let r = optimize_topology(&AdcSpec::date05(k), &params());
            assert_eq!(r.best().candidate.to_string(), want, "K = {k}");
        }
    }

    /// "2-bit at the last stage is the common optimum" (paper §4).
    #[test]
    fn optima_end_with_two_bit_stage() {
        for k in 10..=13 {
            let r = optimize_topology(&AdcSpec::date05(k), &params());
            assert_eq!(r.best().candidate.last_stage_bits(), 2, "K = {k}");
        }
    }

    /// Fig. 1: first-stage power is mostly independent of m₁ (≤ ~25 %
    /// spread), while the all-1.5-bit candidate is the most power-hungry.
    #[test]
    fn first_stage_power_mostly_independent_of_resolution() {
        let r = optimize_topology(&AdcSpec::date05(13), &params());
        let p1 = |bits: &[u32]| r.row(bits).unwrap().stage_power[0];
        let powers = [
            p1(&[2, 2, 2, 2, 2, 2]),
            p1(&[3, 3, 3]),
            p1(&[4, 3, 2]),
            p1(&[4, 4]),
        ];
        let max = powers.iter().cloned().fold(f64::MIN, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.30,
            "stage-1 spread {:.3} ({powers:?})",
            max / min
        );
        // And the 2-2-… configuration costs the most in total.
        assert_eq!(r.rows.last().unwrap().candidate.to_string(), "2-2-2-2-2-2");
    }

    /// Stage power decays monotonically along every candidate (Fig. 1's
    /// downward staircase).
    #[test]
    fn stage_power_decreases_along_pipeline() {
        let r = optimize_topology(&AdcSpec::date05(13), &params());
        for row in &r.rows {
            for w in row.stage_power.windows(2) {
                assert!(w[1] < w[0], "{}: {:?}", row.candidate, row.stage_power);
            }
        }
    }

    #[test]
    fn total_power_grows_with_resolution() {
        let p = params();
        let mut last = 0.0;
        for k in 10..=13 {
            let r = optimize_topology(&AdcSpec::date05(k), &p);
            assert!(r.best().total_power > last);
            last = r.best().total_power;
        }
    }
}
