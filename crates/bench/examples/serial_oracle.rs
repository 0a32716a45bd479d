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
//!
//! With `--serve DIR` it pins the serve path to those payloads instead: it
//! starts an in-process `FlowServer` (4 workers, 8 cache shards,
//! `Reproducible` cache, verify on), submits the same 32 requests over
//! HTTP, and requires each served `result` subtree to equal the `result`
//! of `DIR/s{seed}_b{bits}.json` byte for byte. It names every request
//! that differs or fails, and then exits non-zero:
//!
//! ```text
//! cargo run --release -p adc-bench --example serial_oracle -- --serve DIR
//! ```

use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_serve::http::Client;
use adc_serve::protocol::{render_payload, SubmitRequest, BACKEND_BITS};
use adc_serve::{FlowServer, ServerConfig};
use adc_synth::SynthConfig;
use adc_topopt::cache::CachePolicy;
use adc_topopt::enumerate::enumerate_candidates;
use adc_topopt::flow::{run_flow, FlowOptions, FlowRequest};
use adc_topopt::wire::JsonValue;
use std::path::Path;
use std::time::Duration;

fn main() {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    match args.as_slice() {
        [dir] if dir != "--serve" => write_payloads(Path::new(dir)),
        [flag, dir] if flag == "--serve" => serve_and_compare(Path::new(dir)),
        _ => {
            eprintln!("usage: serial_oracle [--serve] DIR");
            std::process::exit(2);
        }
    }
}

/// The 32 oracle requests, each with its payload file name.
fn requests() -> Vec<(String, SubmitRequest)> {
    let mut out = Vec::new();
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
            out.push((format!("s{seed}_b{bits}.json"), req));
        }
    }
    out
}

fn write_payloads(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create output directory");
    let params = PowerModelParams::calibrated();
    for (name, req) in requests() {
        let cands = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
        let run = run_flow(
            &FlowRequest::new(&req.spec, &cands, &params, &req.cfg).serial(),
            None,
        );
        let path = dir.join(name);
        std::fs::write(&path, render_payload(&req, &cands, &run, true)).expect("write payload");
        eprintln!(
            "{}: {} blocks, {} evaluations",
            path.display(),
            run.stats.blocks,
            run.stats.evaluations_spent
        );
    }
}

/// The rendered `result` subtree of a payload.
fn result_subtree(payload: &str) -> Option<String> {
    let doc = JsonValue::parse(payload).ok()?;
    doc.get("result").map(JsonValue::render)
}

/// Polls run `id` to a terminal state and returns its payload, or `None`
/// when the run failed.
fn served_payload(client: &mut Client, id: u64) -> Option<String> {
    loop {
        let (_, body) = client
            .request("GET", &format!("/v1/runs/{id}"), None)
            .expect("poll");
        let state = JsonValue::parse(&body)
            .ok()
            .and_then(|doc| match doc.get("state") {
                Some(JsonValue::Str(s)) => Some(s.clone()),
                _ => None,
            });
        match state.as_deref() {
            Some("Completed") => break,
            Some("Failed") => return None,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let (status, payload) = client
        .request("GET", &format!("/v1/runs/{id}/result"), None)
        .expect("fetch");
    (status == 200).then_some(payload)
}

fn serve_and_compare(dir: &Path) {
    let requests = requests();
    let server = FlowServer::start(ServerConfig {
        workers: 4,
        max_inflight: requests.len(),
        cache_policy: CachePolicy::Reproducible,
        cache_shards: 8,
        verify: true,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::new(server.addr());
    let mut runs = Vec::new();
    for (name, req) in requests {
        let body = req.canonical().render();
        let (status, reply) = client
            .request("POST", "/v1/runs", Some(&body))
            .expect("submit");
        let id = match JsonValue::parse(&reply)
            .ok()
            .and_then(|d| d.get("run_id").cloned())
        {
            Some(JsonValue::Num(id)) if status == 202 => id as u64,
            _ => panic!("{name}: submission answered {status}: {reply}"),
        };
        runs.push((name, id));
    }
    let mut differ = Vec::new();
    for (name, id) in &runs {
        let batch = std::fs::read_to_string(dir.join(name)).expect("read batch payload");
        let served = served_payload(&mut client, *id);
        let want = result_subtree(&batch);
        if want.is_none() || served.as_deref().and_then(result_subtree) != want {
            eprintln!("serve: {name}: served result differs from the batch payload");
            differ.push(name.clone());
        }
    }
    server.shutdown();
    if !differ.is_empty() {
        eprintln!("serve: {} of {} requests differ", differ.len(), runs.len());
        std::process::exit(1);
    }
    println!("serve: all {} served results match", runs.len());
}
