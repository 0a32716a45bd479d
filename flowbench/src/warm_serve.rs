//! `warm_serve`: an open loop at a few fixed offered rates against a
//! server restored from a snapshot that already holds every block of a
//! fixed request set. Arrivals are Poisson; each run is timed from its due
//! time. Most requests repeat byte for byte and take the memo path; the
//! rest differ only in `options.run_budget_ms`, which is outside the cache
//! key but inside the memo key, so they re-rank, AC-verify and render on
//! 100 % cache hits. Synthesis does no work here; serving and ranking do.

use crate::api::{self, Counts, Job, Oracle, Payload, Server, ServerOpts, WarmCache};
use crate::client::{poll_interval, Client, RUN_TIMEOUT};
use crate::ledger::{work_dir, Ledger};
use crate::probe;
use crate::report::{Outcome, Val};
use crate::stats::{self, median, Rng};
use crate::trace::{durations_us, Open, Span, Tracer};
use crate::{Args, EndToEnd};
use std::time::{Duration, Instant};

/// Offered rates, requests per second, tried in this order until one
/// misses the latency limit or builds a backlog. On a 2-core AVX2 box the
/// server builds a backlog well below 1600/s and meets the limit at 200/s
/// with a wide margin, so the verdict at each rate does not flip between
/// runs.
pub const RATES: [f64; 4] = [50.0, 100.0, 200.0, 1600.0];
/// Share of the run each rate gets.
pub const RATE_SHARE: [f64; 4] = [0.15, 0.45, 0.25, 0.15];
/// The rate whose latencies are the workload's `run_p50_ms` and
/// `run_tail_ms`.
pub const NOMINAL: usize = 1;
/// Share of requests that bypass the memo (re-rank on a warm cache). Small
/// enough that the median sits in the memo mode and the tail (ten samples
/// beyond, about p99 at the nominal rate) near the middle of the 13-bit
/// re-rank mode rather than at its edge.
pub const RERANK_SHARE: f64 = 0.08;
/// Tail latency limit a rate must meet: an order of magnitude above the
/// slowest re-rank, so a stall of a shared host (≈0.2 s has been seen) does
/// not flip the verdict at 200/s, while a growing backlog still misses it.
pub const LIMIT_MS: f64 = 250.0;
/// Runs one client may have outstanding before its rate counts as a
/// growing backlog.
pub const BACKLOG_CAP: usize = 64;
/// The fixed request set: one request per resolution, all at this
/// synthesis seed (the synthesis default). Only the traffic is drawn from
/// the workload seed, so the warm cache holds the same blocks in every run.
const RESOLUTIONS: [u32; 4] = [10, 11, 12, 13];
const SYNTH_SEED: u64 = 1;
const SETUP_REPS: usize = 5;
/// In-process replays per request for the server-overhead comparison.
const INPROC_RUNS: usize = 25;

struct Arrival {
    /// Due time after the rate's start.
    due: Duration,
    resolution: usize,
    rerank: bool,
    body: String,
}

/// Poisson arrivals at `rate` for `window`, split between `clients`. The
/// process is conditioned on its count (`rate · window`, so the offered
/// rate is exact): arrival times are sorted uniform draws. The mix is
/// exact too: [`RERANK_SHARE`] of each client's arrivals re-rank, and each
/// kind cycles through the request set, in a shuffled order.
fn schedule(
    rng: &mut Rng,
    rate: f64,
    window: Duration,
    clients: usize,
    jobs: &[Job],
    next_budget: &mut u64,
) -> Vec<Vec<Arrival>> {
    let mut per_client: Vec<Vec<Arrival>> = (0..clients).map(|_| Vec::new()).collect();
    let count = (rate * window.as_secs_f64() / clients as f64).round() as usize;
    let reranks = (count as f64 * RERANK_SHARE).round() as usize;
    for arrivals in &mut per_client {
        let mut times: Vec<f64> = (0..count)
            .map(|_| rng.unit() * window.as_secs_f64())
            .collect();
        times.sort_by(f64::total_cmp);
        let mut mix: Vec<(usize, bool)> = (0..count)
            .map(|i| {
                let rerank = i < reranks;
                let nth = if rerank { i } else { i - reranks };
                (nth % jobs.len(), rerank)
            })
            .collect();
        rng.shuffle(&mut mix);
        for (t, (resolution, rerank)) in times.into_iter().zip(mix) {
            let mut job = jobs[resolution];
            if rerank {
                *next_budget += 1;
                job.run_budget_ms = Some(*next_budget);
            }
            arrivals.push(Arrival {
                due: Duration::from_secs_f64(t),
                resolution,
                rerank,
                body: job.body(),
            });
        }
    }
    per_client
}

struct Rec {
    resolution: usize,
    rerank: bool,
    traced: bool,
    lag_ms: f64,
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

/// A served payload must carry the oracle's `result` subtree and be all
/// cache hits.
fn check(text: &str, payload: Payload, expected: &str, resolution: u32) -> Result<Checked, String> {
    if payload.result != expected {
        return Err(format!("{resolution}-bit result differs from the oracle"));
    }
    let c = payload.counts;
    if c.hits != c.blocks || c.cold != 0 || c.failed != 0 {
        return Err(format!(
            "{resolution}-bit run was not all cache hits: {c:?}"
        ));
    }
    Ok(Checked {
        counts: c,
        result_bytes: payload.result.len(),
        payload_bytes: text.len(),
    })
}

struct Pending {
    arrival: usize,
    id: u64,
    due: Instant,
    submitted: Instant,
    next_poll: Instant,
    lag_ms: f64,
    open: Option<Open>,
}

/// One client's share of one rate: submit each arrival when due, poll the
/// outstanding runs with back-off, fetch each as it completes. Returns the
/// records and whether the backlog outgrew [`BACKLOG_CAP`].
fn drive_rate(
    client: &mut Client,
    arrivals: &[Arrival],
    expected: &[String],
    start: Instant,
    trace: bool,
    op_base: u64,
) -> (Vec<Rec>, bool) {
    let mut records = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut overloaded = false;
    loop {
        let now = Instant::now();
        if next < arrivals.len() && !overloaded && start + arrivals[next].due <= now {
            let a = &arrivals[next];
            let op = op_base + next as u64;
            let traced = trace && next % 2 == 0;
            let open = client.tracer.open(traced, "bench.op", "run", None, op);
            let due = start + a.due;
            let lag_ms = now.duration_since(due).as_secs_f64() * 1e3;
            match client.submit(traced, open.map(|o| o.id()), op, &a.body) {
                Ok(id) => pending.push(Pending {
                    arrival: next,
                    id,
                    due,
                    submitted: Instant::now(),
                    next_poll: Instant::now() + poll_interval(Duration::ZERO),
                    lag_ms,
                    open,
                }),
                Err(e) => {
                    client.tracer.close(open);
                    records.push(Rec {
                        resolution: a.resolution,
                        rerank: a.rerank,
                        traced,
                        lag_ms,
                        latency_ms: due.elapsed().as_secs_f64() * 1e3,
                        result: Err(e),
                    });
                }
            }
            next += 1;
            overloaded |= pending.len() > BACKLOG_CAP;
            continue;
        }
        if let Some(k) = (0..pending.len())
            .filter(|&k| pending[k].next_poll <= now)
            .min_by_key(|&k| pending[k].next_poll)
        {
            let p = &pending[k];
            let (a, op) = (&arrivals[p.arrival], op_base + p.arrival as u64);
            let parent = p.open.map(|o| o.id());
            let traced = parent.is_some();
            let done = match client.poll(traced, parent, op, p.id) {
                Ok(false) if p.submitted.elapsed() > RUN_TIMEOUT => {
                    Some(Err(format!("run {} timed out", p.id)))
                }
                Ok(false) => None,
                Ok(true) => Some(client.fetch(traced, parent, op, p.id)),
                Err(e) => Some(Err(e)),
            };
            match done {
                None => {
                    let p = &mut pending[k];
                    p.next_poll = Instant::now() + poll_interval(p.submitted.elapsed());
                }
                Some(fetched) => {
                    let p = pending.swap_remove(k);
                    let latency_ms = p.due.elapsed().as_secs_f64() * 1e3;
                    let result = fetched.and_then(|text| {
                        let payload = client.tracer.span(
                            traced,
                            "topopt.wire",
                            "parse_payload",
                            parent,
                            op,
                            || api::parse_payload(&text),
                        )?;
                        check(
                            &text,
                            payload,
                            &expected[a.resolution],
                            RESOLUTIONS[a.resolution],
                        )
                    });
                    client.tracer.close(p.open);
                    records.push(Rec {
                        resolution: a.resolution,
                        rerank: a.rerank,
                        traced,
                        lag_ms: p.lag_ms,
                        latency_ms,
                        result,
                    });
                }
            }
            continue;
        }
        if (next >= arrivals.len() || overloaded) && pending.is_empty() {
            return (records, overloaded);
        }
        let mut wake = pending.iter().map(|p| p.next_poll).min();
        if next < arrivals.len() && !overloaded {
            let due = start + arrivals[next].due;
            wake = Some(wake.map_or(due, |w| w.min(due)));
        }
        if let Some(w) = wake {
            let now = Instant::now();
            if w > now {
                std::thread::sleep(w - now);
            }
        }
    }
}

/// Outcome of one offered rate.
struct RateRun {
    rate: f64,
    records: Vec<Rec>,
    overloaded: bool,
    /// From the rate's start until its last run was fetched, s.
    wall: f64,
}

impl RateRun {
    /// Runs completed correctly per second of the rate's wall time.
    fn throughput(&self) -> f64 {
        self.records.iter().filter(|r| r.result.is_ok()).count() as f64 / self.wall
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let nproc = stats::nproc();
    let mut rng = Rng::new(args.seed);
    let jobs: Vec<Job> = RESOLUTIONS
        .iter()
        .map(|&r| Job::new(r, SYNTH_SEED))
        .collect();
    let epoch = Instant::now();

    // Preparation, once: the serial oracle of every request, and a cache
    // snapshot holding all their blocks (filled on the worker path, whose
    // results must equal the oracle's).
    let t0 = Instant::now();
    let oracles: Vec<Oracle> = jobs.iter().map(|j| api::oracle(j, true)).collect();
    let filler = WarmCache::default();
    for (job, oracle) in jobs.iter().zip(&oracles) {
        let (_, payload) = filler.run_memo(job);
        match api::parse_payload(&payload) {
            Ok(p) if p.result == oracle.result => {}
            Ok(_) => out.fail(format!(
                "{}-bit worker-path result differs from the serial oracle",
                job.resolution
            )),
            Err(e) => out.fail(format!("{}-bit worker-path payload: {e}", job.resolution)),
        }
    }
    let snapshot_text = filler.snapshot();
    drop(filler);
    let dir = work_dir();
    let _ = std::fs::create_dir_all(&dir);
    let snapshot = dir.join(format!("warm-serve-{}.snapshot.json", std::process::id()));
    if let Err(e) = std::fs::write(&snapshot, &snapshot_text) {
        out.error(format!("writing the snapshot: {e}"));
        return out;
    }
    let prepare_s = t0.elapsed().as_secs_f64();

    // Set-up, repeated: boot from the snapshot and warm the memo with one
    // run of each request, which must be all cache hits and equal the
    // oracle.
    let opts = ServerOpts {
        workers: nproc,
        max_inflight: 4 * BACKLOG_CAP * nproc,
        capacity: 8 * BACKLOG_CAP * nproc,
        verify: true,
        snapshot: Some(snapshot.clone()),
    };
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
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
        let mut client = Client {
            conn: api::Conn::new(booted.addr()),
            tracer: Tracer::new(0, epoch),
        };
        if !client.healthy() {
            out.error("server did not answer /healthz".to_string());
        }
        for (job, oracle) in jobs.iter().zip(&oracles) {
            let warmed = client.drive(false, None, 0, &job.body()).and_then(|text| {
                let payload = api::parse_payload(&text)?;
                check(&text, payload, &oracle.result, job.resolution)
            });
            if let Err(e) = warmed {
                out.error(format!("warm-up: {e}"));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(booted);
    }
    let server = server.expect("at least one set-up repetition");
    let addr = server.addr();

    // The timed open loop, rate by rate.
    let expected: &[String] = &oracles.iter().map(|o| o.result.clone()).collect::<Vec<_>>();
    let mut next_budget = 3_600_000u64;
    let mut rates: Vec<RateRun> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let (mut requests, mut connects) = (0, 0);
    for (level, (&rate, &share)) in RATES.iter().zip(&RATE_SHARE).enumerate() {
        let window = args.duration().mul_f64(share);
        let arrivals = schedule(&mut rng, rate, window, nproc, &jobs, &mut next_budget);
        let start = Instant::now();
        let per_client: Vec<(Vec<Rec>, bool, Client)> = std::thread::scope(|scope| {
            let handles: Vec<_> = arrivals
                .iter()
                .enumerate()
                .map(|(t, arrivals)| {
                    scope.spawn(move || {
                        let thread = level * nproc + t;
                        let mut client = Client {
                            conn: api::Conn::new(addr),
                            tracer: Tracer::new(thread as u16 + 1, epoch),
                        };
                        let op_base = (thread as u64) << 32;
                        let (records, overloaded) =
                            drive_rate(&mut client, arrivals, expected, start, args.trace, op_base);
                        (records, overloaded, client)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut run = RateRun {
            rate,
            records: Vec::new(),
            overloaded: false,
            wall,
        };
        for (records, overloaded, client) in per_client {
            run.records.extend(records);
            run.overloaded |= overloaded;
            spans.extend(client.tracer.spans);
            requests += client.conn.requests();
            connects += client.conn.connects();
        }
        let ok = rate_ok(&run);
        rates.push(run);
        if !ok && level >= NOMINAL {
            break;
        }
    }

    // Every run was checked against the oracle as it was fetched; count
    // the failures and enter the exact counts in the ledger.
    let mut attempted = 0;
    for r in rates.iter().flat_map(|run| &run.records) {
        attempted += 1;
        match &r.result {
            Err(e) => out.fail(e.clone()),
            Ok(c) => {
                let key = |field: &str| {
                    format!(
                        "{}bit.{}.{field}",
                        RESOLUTIONS[r.resolution],
                        if r.rerank { "rerank" } else { "memo" }
                    )
                };
                ledger.record(key("blocks"), c.counts.blocks as u64);
                ledger.record(key("hits"), c.counts.hits as u64);
                ledger.record(key("evaluations"), c.counts.evaluations as u64);
                ledger.record(key("result_bytes"), c.result_bytes as u64);
                if !r.rerank {
                    ledger.record(key("payload_bytes"), c.payload_bytes as u64);
                }
            }
        }
    }
    out.attempted = attempted;
    let max_ok = rates.iter().take_while(|r| rate_ok(r)).last();
    // Rates below the nominal one never stop the ramp, so it always ran.
    let nominal = &rates[NOMINAL];
    let ok_ms = |run: &RateRun, want: Option<bool>| -> Vec<f64> {
        run.records
            .iter()
            .filter(|r| r.result.is_ok() && want.map_or(true, |w| r.rerank == w))
            .map(|r| r.latency_ms)
            .collect()
    };
    out.note(
        "rates",
        Val::Arr(
            rates
                .iter()
                .map(|run| {
                    let all = ok_ms(run, None);
                    let tail = stats::tail(&all);
                    Val::Obj(vec![
                        ("offered_per_s".to_string(), Val::Num(run.rate)),
                        ("throughput_per_s".to_string(), Val::Num(run.throughput())),
                        ("attempted".to_string(), Val::Int(run.records.len() as u64)),
                        ("p50_ms".to_string(), Val::Num(median(&all))),
                        (
                            "memo_p50_ms".to_string(),
                            Val::Num(median(&ok_ms(run, Some(false)))),
                        ),
                        (
                            "rerank_p50_ms".to_string(),
                            Val::Num(median(&ok_ms(run, Some(true)))),
                        ),
                        ("tail_ms".to_string(), Val::Num(tail.value)),
                        ("tail_percentile".to_string(), Val::Num(tail.percentile)),
                        (
                            "max_lag_ms".to_string(),
                            Val::Num(run.records.iter().map(|r| r.lag_ms).fold(0.0, f64::max)),
                        ),
                        ("backlog_grew".to_string(), Val::Bool(run.overloaded)),
                        ("meets_limit".to_string(), Val::Bool(rate_ok(run))),
                    ])
                })
                .collect(),
        ),
    );
    if args.trace {
        let traced: Vec<f64> = nominal
            .records
            .iter()
            .filter(|r| r.traced && r.result.is_ok())
            .map(|r| r.latency_ms)
            .collect();
        let untraced: Vec<f64> = nominal
            .records
            .iter()
            .filter(|r| !r.traced && r.result.is_ok())
            .map(|r| r.latency_ms)
            .collect();
        crate::set_trace_overhead(&mut out, &traced, &untraced);
        let traced_ops = rates
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.traced)
            .count();
        crate::set_self_times(&mut out, &spans, traced_ops);
        let payload_bytes: Vec<f64> = rates
            .iter()
            .flat_map(|r| &r.records)
            .filter_map(|r| r.result.as_ref().ok().map(|c| c.payload_bytes as f64))
            .collect();
        out.set(
            "serve.http.requests_per_run",
            requests as f64 / attempted.max(1) as f64,
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
        out.set("topopt.cache.hit_frac", 1.0);
        out.set("topopt.cache.seed_frac", 0.0);
        out.set(
            "topopt.cache.lookups",
            cache.lookups as f64 / attempted.max(1) as f64,
        );
        out.set(
            "topopt.cache.insertions",
            cache.insertions as f64 / attempted.max(1) as f64,
        );
        out.set("topopt.cache.entries", cache.entries as f64);
        let lags: Vec<f64> = nominal.records.iter().map(|r| r.lag_ms).collect();
        out.set("bench.gen_lag_ms", stats::tail(&lags).value);
        out.set(
            "bench.failed_frac",
            out.failed as f64 / attempted.max(1) as f64,
        );

        // The same requests in-process on a cache restored from the same
        // snapshot: served minus in-process latency is the server's
        // overhead (queue wait, session, store, HTTP) at the nominal rate.
        let mut tracer = Tracer::new(0, epoch);
        let warm = WarmCache::default();
        if let Err(e) = warm.restore(&snapshot_text) {
            out.error(format!("restoring the snapshot in-process: {e}"));
        }
        let mut inproc_memo = Vec::new();
        let mut inproc_rerank = Vec::new();
        for job in &jobs {
            warm.run_memo(job);
        }
        for _ in 0..INPROC_RUNS {
            for job in &jobs {
                let t0 = Instant::now();
                warm.run_memo(job);
                inproc_memo.push(t0.elapsed().as_secs_f64() * 1e3);
                let t0 = Instant::now();
                warm.run_rerank(job);
                inproc_rerank.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let served_memo = median(&ok_ms(nominal, Some(false)));
        out.set(
            "serve.server.overhead_ms",
            served_memo - median(&inproc_memo),
        );
        out.note(
            "server_overhead_rerank_ms",
            Val::Num(median(&ok_ms(nominal, Some(true))) - median(&inproc_rerank)),
        );
        out.note("inproc_memo_p50_ms", Val::Num(median(&inproc_memo)));
        out.note("inproc_rerank_p50_ms", Val::Num(median(&inproc_rerank)));

        let input = probe::Input {
            job: jobs[3],
            blocks: &oracles[3].run.blocks,
            warm: Some(&warm),
        };
        probe::run(&mut tracer, &input, &mut out, &mut ledger);
        spans.extend(tracer.spans);
        crate::save_spans(&mut out, args, &spans);
    } else {
        // Latencies and throughput at the nominal rate; `max_ok_rate` is
        // the throughput at the highest rate that met the limit.
        let memo_share = rates
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| !r.rerank)
            .count() as f64
            / attempted.max(1) as f64;
        let success_frac = (attempted - out.failed) as f64 / attempted.max(1) as f64;
        crate::set_end_to_end(
            &mut out,
            &EndToEnd {
                setup_s: &setup_s,
                latencies_ms: &ok_ms(nominal, None),
                runs_per_s: nominal.throughput(),
                max_ok_rate: max_ok.map_or(f64::NAN, RateRun::throughput),
                success_frac,
                limit_ms: LIMIT_MS,
            },
        );
        out.note("prepare_s", Val::Num(prepare_s));
        out.note("memo_share", Val::Num(memo_share));
        out.note(
            "max_ok_offered_per_s",
            Val::Num(max_ok.map_or(0.0, |r| r.rate)),
        );
    }
    server.shutdown();
    let _ = std::fs::remove_file(&snapshot);
    crate::close_ledger(&mut out, args, ledger);
    out
}

/// A rate meets the limit: no failure, no growing backlog, tail latency
/// and generator lag within [`LIMIT_MS`].
fn rate_ok(run: &RateRun) -> bool {
    let all: Vec<f64> = run
        .records
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.latency_ms)
        .collect();
    let max_lag = run.records.iter().map(|r| r.lag_ms).fold(0.0, f64::max);
    !run.overloaded
        && !all.is_empty()
        && all.len() == run.records.len()
        && stats::tail(&all).value <= LIMIT_MS
        && max_lag <= LIMIT_MS
}
