//! Regenerates Fig. 2: total front-end power for every configuration at
//! 10–13 bits, marking each resolution's optimum.
//!
//! Run with `cargo run --release -p adc-bench --bin fig2`.

use adc_bench::all_reports;
use adc_mdac::power::PowerModelParams;
use adc_synth::SynthConfig;
use adc_topopt::flow::{run_flow, FlowRequest};
use adc_topopt::report::{fig2_table, verify_table};
use adc_topopt::verify::{verify_candidate, VerifyOptions};

fn main() {
    println!("=== Fig. 2 reproduction: total power for the first ~6 effective bits ===\n");
    let reports = all_reports();
    print!("{}", fig2_table(&reports));
    println!("\nPaper optima: 3-2 (10b), 4-2 (11b), 4-2-2 (12b), 4-3-2 (13b).");
    println!("Measured optima:");
    for r in &reports {
        println!(
            "  K = {:>2}: {}  (last stage {} bits)",
            r.spec.resolution,
            r.best().candidate,
            r.best().candidate.last_stage_bits()
        );
    }

    // Circuit-level sign-off: every resolution's winner gets its chain
    // testbench evaluated next to the summed-stage ranking numbers.
    println!("\n=== Chain-level verification of each optimum ===\n");
    let params = PowerModelParams::calibrated();
    let cfg = SynthConfig {
        iterations: 200,
        nm_iterations: 30,
        seed: 11,
        ..Default::default()
    };
    let mut verifications = Vec::new();
    let mut failed = false;
    for r in &reports {
        let winner = r.best().candidate.clone();
        let winner_set = std::slice::from_ref(&winner);
        let blocks = run_flow(&FlowRequest::new(&r.spec, winner_set, &params, &cfg), None).blocks;
        match verify_candidate(
            &r.spec,
            &winner,
            &blocks,
            &params,
            &VerifyOptions::default(),
        ) {
            Ok(v) => verifications.push(v),
            Err(e) => {
                println!("K = {}: chain verification failed: {e}", r.spec.resolution);
                failed = true;
            }
        }
    }
    print!("{}", verify_table(&verifications));
    if failed {
        std::process::exit(1);
    }
}
