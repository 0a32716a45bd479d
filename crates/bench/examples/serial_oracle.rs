//! Writes the serial-oracle payloads: the `render_payload` output (chain
//! verification on) of the strictly serial, cache-free flow for synthesis
//! seeds 1–8 × resolutions 10–13 bits under the default `SynthConfig`.
//! Two builds produce the same synthesis results exactly when every file
//! matches byte for byte.
//!
//! ```text
//! cargo run --release -p adc-bench --example serial_oracle -- DIR
//! cat DIR/*.json | sha256sum
//! ```
//!
//! Each file is `DIR/s{seed}_b{bits}.json`. `serial_oracle.sha256` next
//! to this file pins every payload; CI checks both SIMD backends against
//! it, and a failure names each payload that moved:
//!
//! ```text
//! cd DIR && sha256sum -c --quiet .../crates/bench/examples/serial_oracle.sha256
//! ```
//!
//! A change that moves a payload on purpose regenerates the manifest
//! (`sha256sum *.json` in `DIR`) and bumps `FLOW_CACHE_VERSION`.

use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_serve::protocol::{render_payload, SubmitRequest, BACKEND_BITS};
use adc_synth::SynthConfig;
use adc_topopt::enumerate::enumerate_candidates;
use adc_topopt::flow::{run_flow, FlowOptions, FlowRequest};
use std::path::PathBuf;

fn main() {
    let dir = match std::env::args_os().nth(1) {
        Some(d) => PathBuf::from(d),
        None => {
            eprintln!("usage: serial_oracle DIR");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&dir).expect("create output directory");
    let params = PowerModelParams::calibrated();
    for seed in 1..=8u64 {
        for bits in 10..=13u32 {
            let req = SubmitRequest {
                spec: AdcSpec::date05(bits),
                cfg: SynthConfig {
                    seed,
                    ..Default::default()
                },
                options: FlowOptions::default(),
            };
            let cands = enumerate_candidates(bits, BACKEND_BITS);
            let run = run_flow(
                &FlowRequest::new(&req.spec, &cands, &params, &req.cfg).serial(),
                None,
            );
            let path = dir.join(format!("s{seed}_b{bits}.json"));
            std::fs::write(&path, render_payload(&req, &cands, &run, true)).expect("write payload");
            eprintln!(
                "{}: {} blocks, {} evaluations",
                path.display(),
                run.stats.blocks,
                run.stats.evaluations_spent
            );
        }
    }
}
