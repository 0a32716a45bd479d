//! Plain-text and CSV emitters for the figure-regeneration binaries.

use crate::flow::SynthesisRun;
use crate::optimize::TopologyReport;
use crate::rules::RuleTable;
use crate::verify::ChainVerification;
use std::fmt::Write as _;

/// Renders the Fig. 1 data: per-stage power of every candidate.
pub fn fig1_table(report: &TopologyReport) -> String {
    let mut out = String::new();
    let max_stages = report
        .rows
        .iter()
        .map(|r| r.stage_power.len())
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "Stage power [mW] for {}-bit {} MSPS pipelined ADC configurations",
        report.spec.resolution,
        report.spec.fs / 1e6
    );
    let mut header = format!("{:<14}", "config");
    for i in 1..=max_stages {
        header.push_str(&format!("{:>10}", format!("stage {i}")));
    }
    header.push_str(&format!("{:>10}", "total"));
    let _ = writeln!(out, "{header}");
    for row in &report.rows {
        let mut line = format!("{:<14}", row.candidate.to_string());
        for i in 0..max_stages {
            match row.stage_power.get(i) {
                Some(p) => line.push_str(&format!("{:>10.3}", p * 1e3)),
                None => line.push_str(&format!("{:>10}", "-")),
            }
        }
        line.push_str(&format!("{:>10.3}", row.total_power * 1e3));
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Renders a Fig. 2 row: total power per candidate at one resolution.
pub fn fig2_table(reports: &[TopologyReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Total front-end power [mW] per configuration and resolution"
    );
    for report in reports {
        let _ = writeln!(out, "K = {} bits:", report.spec.resolution);
        for row in &report.rows {
            let marker = if std::ptr::eq(row, report.best()) {
                "  << optimum"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<14}{:>10.3}{}",
                row.candidate.to_string(),
                row.total_power * 1e3,
                marker
            );
        }
    }
    out
}

/// Renders the Fig. 3 rule table.
pub fn fig3_table(rules: &RuleTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Optimum candidate enumeration rules (derived)");
    let _ = writeln!(
        out,
        "{:<6}{:<16}{:<10}{:<14}resolutions used",
        "K", "optimum", "max m_i", "last stage"
    );
    for r in &rules.rows {
        let used: Vec<String> = r.used_bits.iter().map(|m| m.to_string()).collect();
        let _ = writeln!(
            out,
            "{:<6}{:<16}{:<10}{:<14}{{{}}}",
            r.resolution,
            r.optimum,
            r.max_stage_bits,
            r.last_stage_bits,
            used.join(",")
        );
    }
    out
}

/// Renders chain-level verification records next to their summed-stage
/// estimates (one block per verified candidate).
pub fn verify_table(verifications: &[ChainVerification]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Circuit-level chain verification (full-pipeline testbench)"
    );
    for v in verifications {
        let r = &v.report;
        let _ = writeln!(
            out,
            "{} ({}-bit): MNA dim {}, fill {:.1} %, sparse dc/tf {}/{}",
            v.config,
            v.resolution,
            r.mna_dim,
            r.fill_ratio * 100.0,
            r.dc_sparse,
            r.tf_sparse
        );
        let _ = writeln!(
            out,
            "  gain      {:>10.3} measured vs {:>6.1} ideal ({:+.2} % error; TF probe {:.3})",
            r.gain,
            v.gain_expected,
            100.0 * (r.gain - v.gain_expected) / v.gain_expected,
            r.tf_gain
        );
        let _ = writeln!(
            out,
            "  settling  {:>10.1} MHz −3 dB, τ = {:.2} ns, unity {:.1} MHz",
            r.bw_3db / 1e6,
            r.settle_tau * 1e9,
            r.unity_freq / 1e6
        );
        let _ = writeln!(
            out,
            "  power     {:>10.3} mW chain vs {:.3} mW summed blocks vs {:.3} mW analytic",
            r.power * 1e3,
            v.power_summed * 1e3,
            v.power_analytic * 1e3
        );
        let _ = writeln!(
            out,
            "  devices   {:>10.0} % of OTA MOSFETs saturated",
            r.saturated * 100.0
        );
        if let Some(tr) = &v.tran {
            let settled = tr.stages.iter().filter(|s| s.settled).count();
            let worst = tr
                .stages
                .iter()
                .map(|s| s.settle_err / s.half_lsb.max(f64::MIN_POSITIVE))
                .fold(0.0f64, f64::max);
            let gains: Vec<String> = tr
                .stages
                .iter()
                .map(|s| format!("{:.2}", s.residue_gain))
                .collect();
            let _ = writeln!(
                out,
                "  transient {:>7} stages settled to ½ LSB (worst err/½LSB {:.3}), residue gains [{}]",
                format!("{settled}/{}", tr.stages.len()),
                worst,
                gains.join(", ")
            );
            let _ = writeln!(
                out,
                "            {:>10} adaptive steps ({} rejected, min dt {:.1} ps, sparse {})",
                tr.accepted,
                tr.rejected,
                tr.min_dt * 1e12,
                tr.sparse
            );
        }
    }
    out
}

/// Renders the fault-tolerance health of flow runs, one row per
/// `(resolution, run)`: attempts, recoveries, demotions, casualties and
/// remaining deadline slack — the observability surface of the guarded
/// executor.
pub fn run_health_table(runs: &[(u32, &SynthesisRun)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Flow run health (guarded executor)");
    let _ = writeln!(
        out,
        "{:<6}{:>8}{:>10}{:>8}{:>11}{:>9}{:>8}{:>12}",
        "bits", "blocks", "attempts", "failed", "recovered", "demoted", "hits", "slack [ms]"
    );
    for &(resolution, run) in runs {
        let slack = match run.stats.deadline_slack_ms {
            Some(ms) => ms.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<6}{:>8}{:>10}{:>8}{:>11}{:>9}{:>8}{:>12}",
            resolution,
            run.stats.blocks,
            run.stats.attempts,
            run.stats.failed,
            run.stats.recovered,
            run.stats.demoted,
            run.stats.cache_hits,
            slack
        );
        for c in &run.failures {
            let _ = writeln!(
                out,
                "  casualty (m={}, A={}): {}",
                c.key.0, c.key.1, c.failure
            );
        }
    }
    out
}

/// CSV of total power per candidate (one line per candidate).
pub fn totals_csv(report: &TopologyReport) -> String {
    let mut out = String::from("config,total_power_mw\n");
    for row in &report.rows {
        let _ = writeln!(out, "{},{:.6}", row.candidate, row.total_power * 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize_topology;
    use crate::rules::derive_rules;
    use adc_mdac::power::PowerModelParams;
    use adc_mdac::specs::AdcSpec;

    #[test]
    fn fig1_contains_all_configs() {
        let r = optimize_topology(&AdcSpec::date05(13), &PowerModelParams::calibrated());
        let t = fig1_table(&r);
        for cfg in ["4-3-2", "2-2-2-2-2-2", "4-4"] {
            assert!(t.contains(cfg), "missing {cfg} in:\n{t}");
        }
        assert!(t.contains("stage 1"));
    }

    #[test]
    fn fig2_marks_optimum() {
        let reports: Vec<_> = [10u32, 11]
            .iter()
            .map(|&k| optimize_topology(&AdcSpec::date05(k), &PowerModelParams::calibrated()))
            .collect();
        let t = fig2_table(&reports);
        assert!(t.contains("<< optimum"));
        assert!(t.contains("K = 10 bits"));
    }

    #[test]
    fn verify_table_renders() {
        use crate::verify::ChainVerification;
        use adc_synth::chain::ChainReport;
        use adc_synth::tran_chain::{TranChainReport, TranStageReport};
        let v = ChainVerification {
            config: "4-3-2".into(),
            resolution: 13,
            report: ChainReport {
                power: 21e-3,
                gain: 63.2,
                tf_gain: 63.1,
                unity_freq: 4e8,
                bw_3db: 1e7,
                settle_tau: 1.6e-8,
                saturated: 1.0,
                mna_dim: 119,
                dc_sparse: true,
                tf_sparse: true,
                fill_ratio: 0.031,
            },
            tran: Some(TranChainReport {
                stages: vec![TranStageReport {
                    amplitude: 12e-3,
                    settle_err: 0.1e-3,
                    half_lsb: 0.49e-3,
                    settled: true,
                    residue_gain: 3.97,
                    ideal_gain: 4.0,
                    settle_frac: 0.4,
                    max_slew: 2e6,
                    slew_frac: 0.1,
                }],
                all_settled: true,
                accepted: 4211,
                rejected: 37,
                newton_iters: 9000,
                min_dt: 12e-12,
                sparse: true,
            }),
            gain_expected: 64.0,
            power_summed: 20e-3,
            power_analytic: 19e-3,
        };
        let t = verify_table(&[v]);
        assert!(t.contains("4-3-2"), "{t}");
        assert!(t.contains("MNA dim 119"), "{t}");
        assert!(t.contains("summed blocks"), "{t}");
        assert!(t.contains("ideal"), "{t}");
        assert!(t.contains("1/1 stages settled"), "{t}");
        assert!(t.contains("4211 adaptive steps"), "{t}");
        assert!(t.contains("residue gains [3.97]"), "{t}");
    }

    #[test]
    fn fig3_and_csv_render() {
        let rules = derive_rules(9..=11, &PowerModelParams::calibrated());
        let t = fig3_table(&rules);
        assert!(t.contains("max m_i"));
        let r = optimize_topology(&AdcSpec::date05(10), &PowerModelParams::calibrated());
        let csv = totals_csv(&r);
        assert!(csv.lines().count() >= 4);
        assert!(csv.starts_with("config,"));
    }
}
