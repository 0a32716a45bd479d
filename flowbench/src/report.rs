//! The metric registry and the benchmark's output.
//!
//! Stdout carries two JSON lines: a detailed report (every metric with its
//! unit and direction, sample sizes, the exact-count ledger, environment),
//! then, last, the result line the benchmark contract defines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("run_p50_ms", "ms", "lower"),
    m("run_tail_ms", "ms", "lower"),
    m("runs_per_s", "1/s", "higher"),
    m("max_ok_rate", "1/s", "higher"),
    m("success_frac", "frac", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported by every traced run. Layers a workload
/// does not exercise report 0 and are listed under `not_exercised`.
pub const PER_LAYER: &[Metric] = &[
    m("serve.http.requests_per_run", "count", "lower"),
    m("serve.http.poll_rtt_us", "us", "lower"),
    m("serve.http.reuse_frac", "frac", "higher"),
    m("serve.http.self_ms", "ms", "lower"),
    m("serve.server.overhead_ms", "ms", "lower"),
    m("serve.server.shed", "count", "lower"),
    m("serve.protocol.parse_us", "us", "lower"),
    m("serve.protocol.memo_run_us", "us", "lower"),
    m("serve.protocol.rerank_run_ms", "ms", "lower"),
    m("topopt.wire.render_us", "us", "lower"),
    m("topopt.wire.parse_us", "us", "lower"),
    m("topopt.wire.payload_bytes", "bytes", "lower"),
    m("topopt.wire.self_ms", "ms", "lower"),
    m("topopt.flow.run_ms", "ms", "lower"),
    m("topopt.flow.evals_per_s", "1/s", "higher"),
    m("topopt.flow.blocks", "count", "lower"),
    m("topopt.flow.cold", "count", "lower"),
    m("topopt.flow.retargeted", "count", "higher"),
    m("topopt.flow.evaluations", "count", "lower"),
    m("topopt.flow.self_ms", "ms", "lower"),
    m("topopt.executor.speedup", "x", "higher"),
    m("topopt.cache.hit_frac", "frac", "higher"),
    m("topopt.cache.seed_frac", "frac", "higher"),
    m("topopt.cache.lookups", "count", "lower"),
    m("topopt.cache.insertions", "count", "lower"),
    m("topopt.cache.entries", "count", "lower"),
    m("topopt.cache.snapshot_restore_ms", "ms", "lower"),
    m("topopt.cache.snapshot_bytes", "bytes", "lower"),
    m("topopt.optimize.rank_us", "us", "lower"),
    m("topopt.optimize.self_ms", "ms", "lower"),
    m("topopt.verify.ac_ms", "ms", "lower"),
    m("topopt.verify.signoff_ms", "ms", "lower"),
    m("topopt.verify.settled", "count", "higher"),
    m("topopt.verify.self_ms", "ms", "lower"),
    m("synth.cold_block_ms", "ms", "lower"),
    m("synth.retarget_block_ms", "ms", "lower"),
    m("synth.evals_per_block", "count", "lower"),
    m("synth.hybrid_eval_us", "us", "lower"),
    m("synth.chain.eval_ms", "ms", "lower"),
    m("synth.tran_chain.eval_ms", "ms", "lower"),
    m("spice.dc.solve_us", "us", "lower"),
    m("spice.dc.chain_solve_us", "us", "lower"),
    m("spice.tran.steps", "count", "lower"),
    m("spice.tran.step_us", "us", "lower"),
    m("sfg.nettf.extract_us", "us", "lower"),
    m("bench.op.self_ms", "ms", "lower"),
    m("bench.gen_lag_ms", "ms", "lower"),
    m("bench.trace_overhead_frac", "frac", "lower"),
    m("bench.failed_frac", "frac", "lower"),
];

/// A JSON value the report writer can emit.
#[derive(Debug, Clone)]
pub enum Val {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Val)>),
    Arr(Vec<Val>),
}

impl Val {
    pub fn write(&self, out: &mut String) {
        match self {
            Val::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Val::Num(_) => out.push_str("null"),
            Val::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Val::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Val::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Val::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Problems that make the run's numbers untrustworthy (a check that
    /// could not run, a drift in an exact count).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layers the workload does not exercise (their metrics read 0).
    pub not_exercised: Vec<&'static str>,
    /// Extra report fields.
    pub notes: Vec<(String, Val)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Val) {
        self.notes.push((key.to_string(), value));
    }

    pub fn fail(&mut self, message: String) {
        eprintln!("flowbench: {message}");
        self.failed += 1;
    }

    pub fn error(&mut self, message: String) {
        eprintln!("flowbench: error: {message}");
        self.errors.push(message);
    }
}

/// Prints the report line and the result line for `registry`.
pub fn emit(mut out: Outcome, registry: &[Metric], header: Vec<(String, Val)>) {
    for metric in registry {
        let layer = metric.name.rsplit_once('.').map_or(metric.name, |(l, _)| l);
        let value = match out.metrics.get(metric.name) {
            Some(v) => *v,
            None if out.not_exercised.contains(&layer) => 0.0,
            None => {
                out.error(format!("metric {} was not measured", metric.name));
                0.0
            }
        };
        if !value.is_finite() {
            out.error(format!("metric {} is not finite ({value})", metric.name));
        }
        out.metrics.insert(metric.name, value);
    }
    let value_of = |name: &str| {
        let v = out.metrics[name];
        if v.is_finite() {
            v
        } else {
            0.0
        }
    };
    let detailed: Vec<(String, Val)> = registry
        .iter()
        .map(|metric| {
            (
                metric.name.to_string(),
                Val::Obj(vec![
                    ("value".to_string(), Val::Num(value_of(metric.name))),
                    ("unit".to_string(), Val::Str(metric.unit.to_string())),
                    ("better".to_string(), Val::Str(metric.better.to_string())),
                ]),
            )
        })
        .collect();
    let mut report = header;
    report.push(("attempted".to_string(), Val::Int(out.attempted as u64)));
    report.push(("failed".to_string(), Val::Int(out.failed as u64)));
    report.push((
        "errors".to_string(),
        Val::Arr(out.errors.iter().cloned().map(Val::Str).collect()),
    ));
    report.push((
        "not_exercised".to_string(),
        Val::Arr(
            out.not_exercised
                .iter()
                .map(|l| Val::Str(l.to_string()))
                .collect(),
        ),
    ));
    report.push(("metrics".to_string(), Val::Obj(detailed)));
    report.extend(out.notes);
    println!(
        "{}",
        Val::Obj(vec![("report".to_string(), Val::Obj(report))]).render()
    );

    let result = Val::Obj(vec![
        (
            "correct".to_string(),
            Val::Bool(out.errors.is_empty() && out.failed == 0),
        ),
        (
            "attempted".to_string(),
            Val::Int(out.attempted.max(1) as u64),
        ),
        ("failed".to_string(), Val::Int(out.failed as u64)),
        (
            "metrics".to_string(),
            Val::Obj(
                registry
                    .iter()
                    .map(|metric| {
                        (
                            metric.name.to_string(),
                            Val::Obj(vec![
                                ("value".to_string(), Val::Num(value_of(metric.name))),
                                ("unit".to_string(), Val::Str(metric.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
}
