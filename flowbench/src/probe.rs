//! Layer probes of a traced run: the benchmark calls each layer's public
//! functions directly on the workload's own inputs (its request, its
//! synthesized blocks, its best chain) and records one span per call.
//! Kernel-level splits inside a call wait for spans inside the program.

use crate::api::{self, Blocks, Job, WarmCache};
use crate::ledger::Ledger;
use crate::report::{Outcome, Val};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;

/// Operation id of probe spans (kept apart from workload operations).
pub const PROBE_OP: u64 = u64::MAX;

/// What the probes run on.
pub struct Input<'a> {
    /// The workload's representative request.
    pub job: Job,
    /// That request's synthesized blocks.
    pub blocks: &'a Blocks,
    /// A cache already warm for `job`; `None` builds one by running `job`
    /// once.
    pub warm: Option<&'a WarmCache>,
}

/// Calls `f` `reps` times, each inside a span. Returns the median time
/// (µs) of the calls that succeeded (0 when none did) and the last result.
/// A call that fails is a property of the input (a chain without a DC
/// solution, say), so it is noted, not counted as a benchmark error.
fn repeat<T>(
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    (layer, call): (&'static str, &'static str),
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> (f64, Option<T>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        match tracer.span(true, layer, call, None, PROBE_OP, &mut f) {
            Ok(v) => {
                times.push(t0.elapsed().as_secs_f64() * 1e6);
                last = Some(v);
            }
            Err(e) => failures.push(format!("{layer}.{call}: {e}")),
        }
    }
    let us = if times.is_empty() {
        0.0
    } else {
        median(&times)
    };
    (us, last)
}

/// Runs every probe and sets the metrics the workload has not set itself.
pub fn run(tracer: &mut Tracer, input: &Input<'_>, out: &mut Outcome, ledger: &mut Ledger) {
    let set = |out: &mut Outcome, name: &'static str, value: f64| {
        out.metrics.entry(name).or_insert(value);
    };
    let job = input.job;
    let blocks = input.blocks;
    let mut failures = Vec::new();
    let f = &mut failures;

    // topopt.flow / topopt.executor: the request cold, at one thread per
    // core and at one thread. The executor's contract is that both give
    // the same result.
    let (us, run) = repeat(tracer, f, ("topopt.flow", "run_flow"), 1, || {
        Ok(api::run_flow_job(&job, None))
    });
    let (us_1, serial) = repeat(tracer, f, ("topopt.flow", "run_flow_1thread"), 1, || {
        Ok(api::run_flow_job(&job, Some(1)))
    });
    let (run, serial) = (run.expect("infallible"), serial.expect("infallible"));
    if serial.counts != run.counts {
        out.error(format!(
            "flow counts differ between 1 thread ({:?}) and one per core ({:?})",
            serial.counts, run.counts
        ));
    }
    set(out, "topopt.flow.run_ms", us / 1e3);
    set(
        out,
        "topopt.flow.evals_per_s",
        run.counts.evaluations as f64 / (us / 1e6),
    );
    set(out, "topopt.flow.blocks", run.counts.blocks as f64);
    set(out, "topopt.flow.cold", run.counts.cold as f64);
    set(out, "topopt.flow.retargeted", run.counts.retargeted as f64);
    set(
        out,
        "topopt.flow.evaluations",
        run.counts.evaluations as f64,
    );
    set(out, "topopt.executor.speedup", us_1 / us);
    ledger.record("probe.flow.blocks".into(), run.counts.blocks as u64);
    ledger.record(
        "probe.flow.evaluations".into(),
        run.counts.evaluations as u64,
    );

    // synth: a cold synthesis of one of the request's blocks, then a
    // retarget from it onto another block of the same template.
    let (first, next) = blocks.retarget_pair().unwrap_or((0, 0));
    let (us, cold) = repeat(tracer, f, ("synth", "cold_block"), 1, || {
        Ok(blocks.synthesize(first, job.seed, None))
    });
    let cold = cold.expect("infallible");
    let (us_warm, warm) = repeat(tracer, f, ("synth", "retarget_block"), 1, || {
        Ok(blocks.synthesize(next, job.seed, Some(&cold)))
    });
    set(out, "synth.cold_block_ms", us / 1e3);
    set(out, "synth.retarget_block_ms", us_warm / 1e3);
    set(out, "synth.evals_per_block", cold.evaluations() as f64);
    ledger.record(
        "probe.synth.cold_evaluations".into(),
        cold.evaluations() as u64,
    );
    let warm = warm.expect("infallible");
    ledger.record(
        "probe.synth.retarget_evaluations".into(),
        warm.evaluations() as u64,
    );

    // synth hybrid eval, spice.dc, sfg.nettf on that block's testbench.
    let mut bench = blocks.block_bench(first);
    let (dc, _) = repeat(tracer, f, ("spice.dc", "solve"), 200, || bench.dc_solve());
    let (tf, _) = repeat(tracer, f, ("sfg.nettf", "extract"), 200, || {
        bench.extract_tf()
    });
    let (hybrid, _) = repeat(tracer, f, ("synth", "hybrid_eval"), 200, || {
        bench.hybrid_eval()
    });
    set(out, "spice.dc.solve_us", dc);
    set(out, "sfg.nettf.extract_us", tf);
    set(out, "synth.hybrid_eval_us", hybrid);

    // The best-ranked candidate whose chain has a DC solution: chain DC,
    // small-signal chain evaluation, transient, AC sign-off.
    let ranking = api::rank(job.resolution);
    let chain = ranking
        .iter()
        .filter_map(|name| blocks.candidate_index(name))
        .find_map(|c| {
            let mut chain = blocks.chain_bench(c).ok()?;
            chain.dc_solve().ok()?;
            Some((c, chain))
        });
    match chain {
        Some((c, mut chain)) => {
            let (dc, _) = repeat(tracer, f, ("spice.dc", "chain_solve"), 20, || {
                chain.dc_solve()
            });
            let (eval, _) = repeat(tracer, f, ("synth.chain", "eval"), 20, || {
                chain.chain_eval()
            });
            let (tran, signoff) = repeat(tracer, f, ("synth.tran_chain", "eval"), 3, || {
                chain.tran_eval()
            });
            let steps = signoff.map_or(0, |s| s.steps);
            let (ac, _) = repeat(tracer, f, ("topopt.verify", "ac"), 5, || {
                blocks.signoff(c, false)
            });
            set(out, "spice.dc.chain_solve_us", dc);
            set(out, "synth.chain.eval_ms", eval / 1e3);
            set(out, "synth.tran_chain.eval_ms", tran / 1e3);
            set(out, "spice.tran.steps", steps as f64);
            set(out, "spice.tran.step_us", tran / steps.max(1) as f64);
            set(out, "topopt.verify.ac_ms", ac / 1e3);
            ledger.record("probe.tran.steps".into(), steps as u64);
        }
        None => {
            f.push("no candidate chain has a DC solution".to_string());
            for name in [
                "spice.dc.chain_solve_us",
                "synth.chain.eval_ms",
                "synth.tran_chain.eval_ms",
                "spice.tran.steps",
                "spice.tran.step_us",
                "topopt.verify.ac_ms",
            ] {
                set(out, name, 0.0);
            }
        }
    }

    // topopt.verify: full sign-off (AC + transient) of every candidate.
    let mut settled = 0;
    let mut signoff_us = Vec::new();
    for c in 0..api::candidate_count(job.resolution) {
        let (us, s) = repeat(tracer, f, ("topopt.verify", "signoff"), 1, || {
            blocks.signoff(c, true)
        });
        if let Some(s) = s {
            settled += usize::from(s.settled);
            signoff_us.push(us);
        }
    }
    let signoff = if signoff_us.is_empty() {
        0.0
    } else {
        median(&signoff_us)
    };
    set(out, "topopt.verify.signoff_ms", signoff / 1e3);
    set(out, "topopt.verify.settled", settled as f64);
    ledger.record("probe.verify.settled".into(), settled as u64);

    // topopt.optimize: the designer-model ranking.
    let (rank, _) = repeat(tracer, f, ("topopt.optimize", "rank"), 200, || {
        Ok(api::rank(job.resolution))
    });
    set(out, "topopt.optimize.rank_us", rank);

    // serve.protocol: front-door parsing, and the worker path on a warm
    // cache with and without the memo.
    let body = job.body();
    let (parse, _) = repeat(tracer, f, ("serve.protocol", "parse"), 200, || {
        api::parse_submit(&body)
    });
    let own;
    let warm = match input.warm {
        Some(w) => w,
        None => {
            own = WarmCache::default();
            repeat(tracer, f, ("serve.protocol", "cold_fill"), 1, || {
                Ok(own.run_memo(&job))
            });
            &own
        }
    };
    let (memo, last) = repeat(tracer, f, ("serve.protocol", "memo_run"), 50, || {
        Ok(warm.run_memo(&job))
    });
    let (rerank, _) = repeat(tracer, f, ("serve.protocol", "rerank_run"), 10, || {
        Ok(warm.run_rerank(&job))
    });
    set(out, "serve.protocol.parse_us", parse);
    set(out, "serve.protocol.memo_run_us", memo);
    set(out, "serve.protocol.rerank_run_ms", rerank / 1e3);

    // topopt.cache persistence: export, then restore into a fresh cache.
    let snapshot = warm.snapshot();
    let (restore, _) = repeat(tracer, f, ("topopt.cache", "restore"), 5, || {
        WarmCache::default().restore(&snapshot)
    });
    set(out, "topopt.cache.snapshot_restore_ms", restore / 1e3);
    set(out, "topopt.cache.snapshot_bytes", snapshot.len() as f64);

    // topopt.wire: parse and re-render the worker's payload.
    let payload = last.map(|(_, p)| p).unwrap_or_default();
    let (parse, doc) = repeat(tracer, f, ("topopt.wire", "parse"), 50, || {
        api::Doc::parse(&payload)
    });
    if let Some(doc) = doc {
        let (render, _) = repeat(
            tracer,
            f,
            ("topopt.wire", "render"),
            50,
            || Ok(doc.render()),
        );
        set(out, "topopt.wire.render_us", render);
    }
    set(out, "topopt.wire.parse_us", parse);
    set(out, "topopt.wire.payload_bytes", payload.len() as f64);

    out.note(
        "probe_failures",
        Val::Arr(failures.into_iter().map(Val::Str).collect()),
    );
}
