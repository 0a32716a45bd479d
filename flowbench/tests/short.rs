//! Short mode: every workload runs for one second, untraced and traced.
//! Every metric is emitted with its unit and direction, nothing fails, and
//! the metric registry matches `BENCHMARK.json`.

use flowbench::api::Doc;
use flowbench::report::{Metric, END_TO_END, PER_LAYER};
use std::process::Command;

/// Runs the benchmark binary; returns its report and result lines.
fn run(workload: &str, trace: bool) -> (Doc, Doc) {
    let out = Command::new(env!("CARGO_BIN_EXE_flowbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a report and a result line\n{stdout}"
    );
    let report = Doc::parse(lines[lines.len() - 2]).expect("report line is JSON");
    let result = Doc::parse(lines[lines.len() - 1]).expect("result line is JSON");
    (report, result)
}

fn check(workload: &str, trace: bool, registry: &[Metric]) {
    let (report, result) = run(workload, trace);
    let errors: Vec<String> = report
        .items(&["report", "errors"])
        .iter()
        .map(Doc::render)
        .collect();
    assert_eq!(
        result.keys(&[]),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(
        result.boolean(&["correct"]),
        Some(true),
        "{workload}: {errors:?}"
    );
    assert_eq!(result.num(&["failed"]), Some(0.0), "{workload}");
    assert!(
        result.num(&["attempted"]).unwrap_or(0.0) >= 1.0,
        "{workload}"
    );
    let names: Vec<&str> = registry.iter().map(|m| m.name).collect();
    assert_eq!(result.keys(&["metrics"]), names, "{workload}: metric set");
    for m in registry {
        assert_eq!(
            result.keys(&["metrics", m.name]),
            ["value", "unit"],
            "{workload} {}",
            m.name
        );
        assert!(
            result.num(&["metrics", m.name, "value"]).is_some(),
            "{workload}: {} has no value",
            m.name
        );
        assert_eq!(
            result.str(&["metrics", m.name, "unit"]),
            Some(m.unit),
            "{workload} {}",
            m.name
        );
        assert_eq!(
            report.str(&["report", "metrics", m.name, "better"]),
            Some(m.better),
            "{workload} {}",
            m.name
        );
    }
    let (name, expect) = if trace {
        ("bench.failed_frac", 0.0)
    } else {
        ("success_frac", 1.0)
    };
    assert_eq!(
        result.num(&["metrics", name, "value"]),
        Some(expect),
        "{workload}"
    );
}

#[test]
fn cold_explore_short() {
    check("cold_explore", false, END_TO_END);
    check("cold_explore", true, PER_LAYER);
}

#[test]
fn paper_sweep_short() {
    check("paper_sweep", false, END_TO_END);
    check("paper_sweep", true, PER_LAYER);
}

#[test]
fn warm_serve_short() {
    check("warm_serve", false, END_TO_END);
    check("warm_serve", true, PER_LAYER);
}

#[test]
fn registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    let doc = Doc::parse(&text).expect("BENCHMARK.json is JSON");
    for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = doc.items(&[key]);
        assert_eq!(declared.len(), registry.len(), "{key}: metric count");
        for (d, m) in declared.iter().zip(registry) {
            assert_eq!(d.str(&["name"]), Some(m.name), "{key}");
            assert_eq!(d.str(&["unit"]), Some(m.unit), "{key} {}", m.name);
            assert_eq!(d.str(&["better"]), Some(m.better), "{key} {}", m.name);
        }
    }
    // `warm_serve` runs from the command line but is left out of the
    // declared set (see README.md).
    let workloads: Vec<String> = doc
        .items(&["workloads"])
        .iter()
        .filter_map(|w| w.str(&["name"]).map(str::to_string))
        .collect();
    assert_eq!(workloads, ["cold_explore", "paper_sweep"]);
}
