//! Workload-driven benchmark of the pipelined-ADC topology flow and its
//! flow server. See `README.md` for the workloads and how to run them.

pub mod api;
pub mod client;
pub mod cold_explore;
pub mod ledger;
pub mod paper_sweep;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod warm_serve;

use report::{Outcome, Val};
use std::time::Duration;
use trace::Span;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                        return Err(format!("--seconds {value} outside (0, 120]"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, not {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

pub const WORKLOADS: [&str; 3] = ["cold_explore", "paper_sweep", "warm_serve"];

/// Runs one workload and prints its report and result lines.
pub fn run(args: &Args) {
    let outcome = match args.workload.as_str() {
        "cold_explore" => cold_explore::run(args),
        "paper_sweep" => paper_sweep::run(args),
        _ => warm_serve::run(args),
    };
    let registry = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let header = vec![
        ("workload".to_string(), Val::Str(args.workload.clone())),
        ("seed".to_string(), Val::Int(args.seed)),
        ("seconds".to_string(), Val::Num(args.seconds)),
        ("trace".to_string(), Val::Bool(args.trace)),
        ("nproc".to_string(), Val::Int(stats::nproc() as u64)),
        (
            "simd_backend".to_string(),
            Val::Str(api::simd_backend().to_string()),
        ),
        (
            "latency_resolution".to_string(),
            Val::Str(client::RESOLUTION.to_string()),
        ),
    ];
    report::emit(outcome, registry, header);
}

/// Sets every `<layer>.self_ms` metric of the registry from the workload
/// spans: self time per traced operation, in ms.
pub fn set_self_times(out: &mut Outcome, spans: &[Span], traced_ops: usize) {
    let totals = trace::layer_totals(spans);
    for metric in report::PER_LAYER {
        if let Some(layer) = metric.name.strip_suffix(".self_ms") {
            let ns = totals.get(layer).map_or(0, |t| t.self_ns);
            out.set(metric.name, ns as f64 / 1e6 / traced_ops.max(1) as f64);
        }
    }
    out.note(
        "layer_self_ms_per_op",
        Val::Obj(
            totals
                .iter()
                .map(|(layer, t)| {
                    (
                        layer.to_string(),
                        Val::Num(t.self_ns as f64 / 1e6 / traced_ops.max(1) as f64),
                    )
                })
                .collect(),
        ),
    );
    out.note(
        "layer_spans_per_op",
        Val::Obj(
            totals
                .iter()
                .map(|(layer, t)| {
                    (
                        layer.to_string(),
                        Val::Num(t.spans as f64 / traced_ops.max(1) as f64),
                    )
                })
                .collect(),
        ),
    );
}

/// Tracing overhead: median latency of traced operations over that of
/// untraced ones, minus one.
pub fn set_trace_overhead(out: &mut Outcome, traced: &[f64], untraced: &[f64]) {
    let overhead = stats::median(traced) / stats::median(untraced) - 1.0;
    out.set(
        "bench.trace_overhead_frac",
        if overhead.is_finite() { overhead } else { 0.0 },
    );
    out.note(
        "trace_overhead_samples",
        Val::Arr(vec![
            Val::Int(traced.len() as u64),
            Val::Int(untraced.len() as u64),
        ]),
    );
}

/// Writes the run's spans next to the ledgers and notes where.
pub fn save_spans(out: &mut Outcome, args: &Args, spans: &[Span]) {
    let dir = ledger::work_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_spans(&path, spans) {
        Ok(()) => out.note("spans_file", Val::Str(path.display().to_string())),
        Err(e) => out.error(format!("writing spans: {e}")),
    }
    out.note("spans", Val::Int(spans.len() as u64));
}

/// What an untraced run measured, before it becomes end-to-end metrics.
pub struct EndToEnd<'a> {
    /// Each set-up repetition, s.
    pub setup_s: &'a [f64],
    /// Latencies of the operations that completed correctly, ms.
    pub latencies_ms: &'a [f64],
    pub runs_per_s: f64,
    pub max_ok_rate: f64,
    pub success_frac: f64,
    pub limit_ms: f64,
}

/// Sets every end-to-end metric: medians of set-up and latency, the tail
/// (stated with its percentile and sample count), rates, peak memory.
pub fn set_end_to_end(out: &mut Outcome, m: &EndToEnd<'_>) {
    let tail = stats::tail(m.latencies_ms);
    out.set("setup_s", stats::median(m.setup_s));
    out.set("run_p50_ms", stats::median(m.latencies_ms));
    out.set("run_tail_ms", tail.value);
    out.set("runs_per_s", m.runs_per_s);
    out.set("max_ok_rate", m.max_ok_rate);
    out.set("success_frac", m.success_frac);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.note(
        "tail",
        Val::Obj(vec![
            ("percentile".to_string(), Val::Num(tail.percentile)),
            ("samples".to_string(), Val::Int(m.latencies_ms.len() as u64)),
            ("beyond".to_string(), Val::Int(tail.beyond as u64)),
            ("supported".to_string(), Val::Bool(tail.supported)),
        ]),
    );
    out.note(
        "setup_s_each",
        Val::Arr(m.setup_s.iter().map(|&s| Val::Num(s)).collect()),
    );
    out.note("latency_limit_ms", Val::Num(m.limit_ms));
}

/// Checks the ledger against itself and earlier runs, and reports it.
pub fn close_ledger(out: &mut Outcome, args: &Args, ledger: ledger::Ledger) {
    let entries = Val::Obj(
        ledger
            .entries()
            .iter()
            .map(|(k, v)| (k.clone(), Val::Int(*v)))
            .collect(),
    );
    for drift in ledger.reconcile(&args.workload, args.seed) {
        out.error(format!("exact count drifted: {drift}"));
    }
    out.note("ledger", entries);
}
