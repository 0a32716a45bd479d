//! # adc-bench
//!
//! Benchmark harness regenerating **every table and figure** of the paper's
//! evaluation:
//!
//! | artifact | binary |
//! |----------|--------|
//! | Fig. 1 — stage power, 13-bit candidates | `fig1` |
//! | Fig. 2 — total power, 10–13 bits | `fig2` |
//! | Fig. 3 — optimum-enumeration rules | `fig3` |
//! | §4 effort claim (setup vs retarget) | `effort` |
//! | evaluator and flow throughput (`BENCH_EVAL.json`) | `bench_eval` |
//! | flow-server load (`BENCH_SERVE.json`) | `bench_serve` |
//!
//! `bench_check` gates both reports against `BENCH_BASELINE.json`.
//!
//! Binaries print the same rows/series the paper reports; see
//! `EXPERIMENTS.md` for the paper-vs-measured record and the
//! `BENCH_EVAL.json` throughput trajectory.

use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_topopt::optimize::{optimize_topology, TopologyReport};

/// The paper's evaluated resolutions.
pub const RESOLUTIONS: [u32; 4] = [10, 11, 12, 13];

/// Runs the topology optimization for one resolution with the calibrated
/// designer model.
pub fn report_for(resolution: u32) -> TopologyReport {
    optimize_topology(
        &AdcSpec::date05(resolution),
        &PowerModelParams::calibrated(),
    )
}

/// Reports for all four paper resolutions.
pub fn all_reports() -> Vec<TopologyReport> {
    RESOLUTIONS.iter().map(|&k| report_for(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_cover_all_resolutions() {
        let rs = all_reports();
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[3].best().candidate.to_string(), "4-3-2");
    }
}
