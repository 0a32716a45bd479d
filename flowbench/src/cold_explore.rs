//! `cold_explore`: a closed loop of `nproc` clients over HTTP against a
//! fresh server. Every request is a distinct (resolution, synthesis seed)
//! pair under the default synthesis budget, so every block is a cold
//! synthesis: the synthesis stack and the executor do nearly all the work,
//! and the cache is only written to.

use crate::api::{self, Counts, Job, Oracle, Payload, Server, ServerOpts, WarmCache};
use crate::client::Client;
use crate::ledger::Ledger;
use crate::probe;
use crate::report::{Outcome, Val};
use crate::stats::{self, median, Rng};
use crate::trace::{durations_us, Span, Tracer};
use crate::{Args, EndToEnd};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Requests whose served result is compared byte for byte with the serial
/// batch oracle: the first block of the sequence (one request per
/// resolution), one oracle per set-up repetition.
pub const SAMPLED: usize = 4;
/// Latency limit of one cold run (for `max_ok_rate`).
pub const LIMIT_MS: f64 = 10_000.0;
const RESOLUTIONS: [u32; 4] = [10, 11, 12, 13];
/// Served memo replays timed for the server-overhead comparison.
const OVERHEAD_RUNS: usize = 20;

/// The request sequence: blocks of four, one per resolution in shuffled
/// order, each with a synthesis seed unused so far at its resolution.
pub fn jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut jobs = Vec::with_capacity(n);
    while jobs.len() < n {
        let mut block = RESOLUTIONS;
        rng.shuffle(&mut block);
        for resolution in block {
            let synth_seed = loop {
                let s = rng.synth_seed();
                if seen.insert((resolution, s)) {
                    break s;
                }
            };
            jobs.push(Job::new(resolution, synth_seed));
        }
    }
    jobs.truncate(n);
    jobs
}

struct Record {
    index: usize,
    traced: bool,
    latency_ms: f64,
    /// The checked run, or why it failed or was wrong.
    result: Result<Checked, String>,
}

/// What stays of a served run once it passed its checks (payloads are
/// dropped at once, so memory does not grow with the run count).
struct Checked {
    counts: Counts,
    result_bytes: usize,
    payload_bytes: usize,
}

/// A cold result must reuse nothing, carry the analytic winner among its
/// survivors, and, for a sampled request, equal its oracle byte for byte.
fn check(
    index: usize,
    text: &str,
    p: Payload,
    winner: &str,
    oracle: Option<&Oracle>,
) -> Result<Checked, String> {
    let c = p.counts;
    if c.hits != 0 || c.seeded != 0 || c.cold == 0 || c.failed != 0 {
        return Err(format!("request {index} was not a clean cold run: {c:?}"));
    }
    if p.winner != winner || !p.survivors.iter().any(|s| s == winner) {
        return Err(format!(
            "request {index}: winner {} (survivors {:?}), analytic {winner}",
            p.winner, p.survivors
        ));
    }
    if oracle.is_some_and(|o| o.result != p.result) {
        return Err(format!(
            "request {index}: served result differs from the serial oracle"
        ));
    }
    Ok(Checked {
        counts: c,
        result_bytes: p.result.len(),
        payload_bytes: text.len(),
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let nproc = stats::nproc();
    let jobs = jobs(args.seed, 4096);
    let winners: BTreeMap<u32, String> = RESOLUTIONS
        .iter()
        .map(|&r| (r, api::analytic_winner(r)))
        .collect();
    let opts = ServerOpts {
        workers: nproc,
        max_inflight: 4 * nproc,
        // Small: finished runs are fetched at once, and a store that only
        // fills up would make memory grow with the run count.
        capacity: 8 * nproc,
        verify: true,
        snapshot: None,
    };
    let epoch = Instant::now();

    // Set-up, repeated: boot a fresh server, wait until it answers, and
    // compute the oracle of one sampled request.
    let mut setup_s = Vec::new();
    let mut oracles: Vec<Oracle> = Vec::new();
    let mut server: Option<Server> = None;
    for job in &jobs[..SAMPLED] {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let booted = match Server::start(&opts) {
            Ok(s) => s,
            Err(e) => {
                out.error(format!("server start: {e}"));
                return out;
            }
        };
        let mut health = Client {
            conn: api::Conn::new(booted.addr()),
            tracer: Tracer::new(0, epoch),
        };
        if !health.healthy() {
            out.error("server did not answer /healthz".to_string());
        }
        oracles.push(api::oracle(job, true));
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(booted);
    }
    let server = server.expect("at least one set-up repetition");
    let addr = server.addr();

    // The timed closed loop.
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + args.duration();
    let per_thread: Vec<(Vec<Record>, Client)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|t| {
                let (jobs, next, winners, oracles) = (&jobs, &next, &winners, &oracles);
                scope.spawn(move || {
                    let mut client = Client {
                        conn: api::Conn::new(addr),
                        tracer: Tracer::new(t as u16 + 1, epoch),
                    };
                    let mut records = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= jobs.len() || (index >= SAMPLED && Instant::now() >= deadline) {
                            break;
                        }
                        let traced = args.trace && index % 2 == 0;
                        let op = index as u64;
                        let body = jobs[index].body();
                        let open = client.tracer.open(traced, "bench.op", "run", None, op);
                        let parent = open.map(|o| o.id());
                        let t0 = Instant::now();
                        let fetched = client.drive(traced, parent, op, &body);
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let result = fetched.and_then(|text| {
                            let payload = client.tracer.span(
                                traced,
                                "topopt.wire",
                                "parse_payload",
                                parent,
                                op,
                                || api::parse_payload(&text),
                            )?;
                            let winner = &winners[&jobs[index].resolution];
                            check(index, &text, payload, winner, oracles.get(index))
                        });
                        client.tracer.close(open);
                        records.push(Record {
                            index,
                            traced,
                            latency_ms,
                            result,
                        });
                    }
                    (records, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut records: Vec<Record> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let (mut requests, mut connects) = (0, 0);
    for (recs, client) in per_thread {
        records.extend(recs);
        spans.extend(client.tracer.spans);
        requests += client.conn.requests();
        connects += client.conn.connects();
    }
    records.sort_by_key(|r| r.index);

    // Checks: zero cache reuse, the analytic winner survives, and the
    // sampled requests match their oracle byte for byte.
    let mut ok_ms = Vec::new();
    let mut within_limit = 0;
    let mut payload_bytes = Vec::new();
    let mut totals = api::Counts::default();
    for r in &records {
        match &r.result {
            Ok(c) => {
                ok_ms.push(r.latency_ms);
                within_limit += usize::from(r.latency_ms <= LIMIT_MS);
                payload_bytes.push(c.payload_bytes as f64);
                totals.add(&c.counts);
                let key = |field: &str| format!("req{:05}.{field}", r.index);
                ledger.record(key("resolution"), u64::from(jobs[r.index].resolution));
                ledger.record(key("blocks"), c.counts.blocks as u64);
                ledger.record(key("cold"), c.counts.cold as u64);
                ledger.record(key("retargeted"), c.counts.retargeted as u64);
                ledger.record(key("evaluations"), c.counts.evaluations as u64);
                ledger.record(key("result_bytes"), c.result_bytes as u64);
            }
            Err(e) => out.fail(e.clone()),
        }
    }
    for i in 0..SAMPLED {
        if !records.iter().any(|r| r.index == i) {
            out.error(format!("sampled request {i} was never served"));
        }
    }
    out.attempted = records.len();

    if args.trace {
        let traced: Vec<f64> = records
            .iter()
            .filter(|r| r.traced && r.result.is_ok())
            .map(|r| r.latency_ms)
            .collect();
        let untraced: Vec<f64> = records
            .iter()
            .filter(|r| !r.traced && r.result.is_ok())
            .map(|r| r.latency_ms)
            .collect();
        crate::set_trace_overhead(&mut out, &traced, &untraced);
        crate::set_self_times(&mut out, &spans, traced.len());
        out.set(
            "serve.http.requests_per_run",
            requests as f64 / records.len().max(1) as f64,
        );
        out.set(
            "serve.http.reuse_frac",
            1.0 - connects as f64 / requests.max(1) as f64,
        );
        out.set(
            "serve.http.poll_rtt_us",
            median(&durations_us(&spans, "serve.http", "poll")),
        );
        out.set(
            "topopt.wire.parse_us",
            median(&durations_us(&spans, "topopt.wire", "parse_payload")),
        );
        out.set("topopt.wire.payload_bytes", median(&payload_bytes));
        out.set("serve.server.shed", server.shed() as f64);
        let cache = server.cache();
        let ops = records.len().max(1) as f64;
        out.set(
            "topopt.cache.hit_frac",
            totals.hits as f64 / totals.blocks.max(1) as f64,
        );
        out.set(
            "topopt.cache.seed_frac",
            totals.seeded as f64 / totals.blocks.max(1) as f64,
        );
        out.set("topopt.cache.lookups", cache.lookups as f64 / ops);
        out.set("topopt.cache.insertions", cache.insertions as f64 / ops);
        out.set("topopt.cache.entries", cache.entries as f64);
        out.set("bench.gen_lag_ms", 0.0);
        out.set("bench.failed_frac", out.failed as f64 / ops);

        // Layer probes on the first sampled request, then the server's own
        // overhead: its memo replay served over HTTP against the same
        // replay in-process.
        let mut tracer = Tracer::new(0, epoch);
        let warm = WarmCache::default();
        warm.run_memo(&jobs[0]);
        let input = probe::Input {
            job: jobs[0],
            blocks: &oracles[0].run.blocks,
            warm: Some(&warm),
        };
        probe::run(&mut tracer, &input, &mut out, &mut ledger);
        let inproc_us = median(&durations_us(&tracer.spans, "serve.protocol", "memo_run"));
        let mut client = Client {
            conn: api::Conn::new(addr),
            tracer: Tracer::new(0, epoch),
        };
        let body = jobs[0].body();
        let mut served_us = Vec::new();
        for _ in 0..OVERHEAD_RUNS {
            let t0 = Instant::now();
            match client.drive(false, None, probe::PROBE_OP, &body) {
                Ok(_) => served_us.push(t0.elapsed().as_secs_f64() * 1e6),
                Err(e) => out.error(format!("overhead probe: {e}")),
            }
        }
        let overhead_ms = (median(&served_us) - inproc_us) / 1e3;
        out.set("serve.server.overhead_ms", overhead_ms);
        out.note(
            "server_overhead_share_of_cold_p50",
            Val::Num(overhead_ms / median(&ok_ms)),
        );
        spans.extend(tracer.spans);
        crate::save_spans(&mut out, args, &spans);
    } else {
        // Goodput: a run over the latency limit does not count.
        crate::set_end_to_end(
            &mut out,
            &EndToEnd {
                setup_s: &setup_s,
                latencies_ms: &ok_ms,
                runs_per_s: ok_ms.len() as f64 / wall,
                max_ok_rate: within_limit as f64 / wall,
                success_frac: ok_ms.len() as f64 / records.len().max(1) as f64,
                limit_ms: LIMIT_MS,
            },
        );
        out.note("clients", Val::Int(nproc as u64));
    }
    server.shutdown();
    crate::close_ledger(&mut out, args, ledger);
    out
}
