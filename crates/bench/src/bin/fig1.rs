//! Regenerates Fig. 1: stage power for every 13-bit ADC configuration.
//!
//! Run with `cargo run --release -p adc-bench --bin fig1`.

use adc_bench::report_for;
use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_synth::SynthConfig;
use adc_topopt::flow::{distinct_mdac_specs, run_flow, FlowRequest};
use adc_topopt::report::{fig1_table, totals_csv, verify_table};
use adc_topopt::verify::{verify_candidate, VerifyOptions};

fn main() {
    let report = report_for(13);
    println!("=== Fig. 1 reproduction: stage power, 13-bit 40 MSPS, 0.25 µm 3.3 V ===\n");
    print!("{}", fig1_table(&report));

    let spec = AdcSpec::date05(13);
    let cands: Vec<_> = report.rows.iter().map(|r| r.candidate.clone()).collect();
    let keys = distinct_mdac_specs(&spec, &cands);
    println!(
        "\ndistinct MDAC blocks across the seven candidates: {} (paper: eleven)",
        keys.len()
    );

    println!("\nCSV:\n{}", totals_csv(&report));
    println!("Paper shape checks:");
    let p1: Vec<(String, f64)> = report
        .rows
        .iter()
        .map(|r| (r.candidate.to_string(), r.stage_power[0] * 1e3))
        .collect();
    let max = p1.iter().map(|(_, p)| *p).fold(f64::MIN, f64::max);
    let min = p1.iter().map(|(_, p)| *p).fold(f64::MAX, f64::min);
    println!(
        "  first-stage power spread (max/min): {:.3} — 'mostly independent of m1'",
        max / min
    );
    println!(
        "  minimum-power configuration: {} — paper: 4-3-2",
        report.best().candidate
    );

    // Circuit-level sign-off of the winner: synthesize its blocks on a
    // small budget and run the full-pipeline chain testbench.
    println!("\n=== Chain-level verification of the winner ===\n");
    let params = PowerModelParams::calibrated();
    let winner = report.best().candidate.clone();
    let cfg = SynthConfig {
        iterations: 200,
        nm_iterations: 30,
        seed: 11,
        ..Default::default()
    };
    let winner_set = std::slice::from_ref(&winner);
    let blocks = run_flow(&FlowRequest::new(&spec, winner_set, &params, &cfg), None).blocks;
    match verify_candidate(&spec, &winner, &blocks, &params, &VerifyOptions::default()) {
        Ok(v) => print!("{}", verify_table(std::slice::from_ref(&v))),
        Err(e) => {
            println!("chain verification failed: {e}");
            std::process::exit(1);
        }
    }
}
