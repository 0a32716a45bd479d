//! `paper_sweep`: the paper's 10→11→12→13-bit exploration as a batch run
//! with one in-process caller, one `Aggressive` cache shared across the
//! resolutions (the paper's layout reuse), then full AC + clocked-transient
//! sign-off of every enumerated candidate. Cache hits and near-seeds carry
//! most blocks; this is the only workload that runs the transient engine.

use crate::api::{self, Blocks, Counts, Job, SweepCache};
use crate::ledger::Ledger;
use crate::probe;
use crate::report::{Outcome, Val};
use crate::stats::{median, Rng};
use crate::trace::{durations_us, Tracer};
use crate::{Args, EndToEnd};
use std::time::Instant;

/// The paper's optima (Fig. 2), resolution by resolution.
pub const PAPER_WINNERS: [(u32, &str); 4] =
    [(10, "3-2"), (11, "4-2"), (12, "4-2-2"), (13, "4-3-2")];
/// Latency limit of one sweep (for `max_ok_rate`).
pub const LIMIT_MS: f64 = 20_000.0;
/// Synthesis seeds the sweeps draw from. Every candidate of every one signs
/// off `Ok` at the time of writing; some seeds do not (seed 20's blocks
/// leave several chains without a DC solution), and a benchmark input must
/// not fail. A run walks the pool in an order drawn from the workload seed,
/// so every run sees nearly the same inputs.
const SEED_POOL: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// Exact counts of one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SweepCounts {
    flow: Counts,
    candidates: usize,
    settled: usize,
    steps: usize,
}

struct Sweep {
    latency_ms: f64,
    counts: SweepCounts,
    blocks13: Option<Blocks>,
    entries: usize,
    lookups: usize,
    insertions: usize,
}

/// One full sweep: flow per resolution against one shared cache, ranking,
/// sign-off of every candidate. Spans go to `tracer` when `traced`.
fn sweep(
    tracer: &mut Tracer,
    traced: bool,
    op: u64,
    seed: u64,
    out: &mut Outcome,
) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let open = tracer.open(traced, "bench.op", "sweep", None, op);
    let parent = open.map(|o| o.id());
    let mut cache = SweepCache::default();
    let mut counts = SweepCounts::default();
    let mut blocks13 = None;
    let mut problem = None;
    for (resolution, winner) in PAPER_WINNERS {
        let job = Job::new(resolution, seed);
        let run = tracer.span(traced, "topopt.flow", "run_flow", parent, op, || {
            api::sweep_step(&job, &mut cache)
        });
        counts.flow.add(&run.counts);
        let ranking = tracer.span(traced, "topopt.optimize", "rank", parent, op, || {
            api::rank(resolution)
        });
        if ranking.first().map(String::as_str) != Some(winner) {
            problem.get_or_insert(format!(
                "{resolution}-bit winner {:?}, paper {winner}",
                ranking.first()
            ));
        }
        if run.counts.failed != 0 {
            problem.get_or_insert(format!(
                "{resolution}-bit flow lost {} blocks",
                run.counts.failed
            ));
        }
        for c in 0..api::candidate_count(resolution) {
            match tracer.span(traced, "topopt.verify", "signoff", parent, op, || {
                run.blocks.signoff(c, true)
            }) {
                Ok(s) => {
                    counts.candidates += 1;
                    counts.settled += usize::from(s.settled);
                    counts.steps += s.steps;
                }
                Err(e) => {
                    problem.get_or_insert(format!("{resolution}-bit candidate {c} sign-off: {e}"));
                }
            }
        }
        if resolution == 13 {
            blocks13 = Some(run.blocks);
        }
    }
    tracer.close(open);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(p) = problem {
        out.fail(format!("sweep {op}: {p}"));
        return Err(p);
    }
    let cc = cache.counts();
    Ok(Sweep {
        latency_ms,
        counts,
        blocks13,
        entries: cc.entries,
        lookups: cc.lookups,
        insertions: cc.insertions,
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let mut rng = Rng::new(args.seed);
    let epoch = Instant::now();

    // Set-up: the designer-model winners, and a sign-off of the
    // deterministic fixture chain, which must settle, before any sweep
    // relies on the transient engine. It is repeated after every sweep
    // (outside the sweep's timing), so its median covers the same stretch
    // of time as the sweeps' and a slow spell of a shared host weighs on
    // both alike.
    let mut setup_s = Vec::new();
    let mut set_up = |out: &mut Outcome, ledger: &mut Ledger| {
        let t0 = Instant::now();
        for (resolution, winner) in PAPER_WINNERS {
            if api::analytic_winner(resolution) != winner {
                out.error(format!(
                    "designer model no longer picks {winner} at {resolution} bits"
                ));
            }
        }
        match api::signoff_fixture() {
            Ok(s) if s.settled => ledger.record("fixture.tran_steps".into(), s.steps as u64),
            Ok(_) => out.error("the sign-off fixture no longer settles".to_string()),
            Err(e) => out.error(format!("sign-off fixture: {e}")),
        }
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs);
        secs
    };
    set_up(&mut out, &mut ledger);

    // The timed closed loop: one caller, sweep after sweep through the seed
    // pool in the order the workload seed shuffled it; traced and untraced
    // sweeps alternate.
    let mut seeds: Vec<u64> = SEED_POOL.to_vec();
    rng.shuffle(&mut seeds);
    let mut tracer = Tracer::new(0, epoch);
    let mut sweeps: Vec<(usize, bool, Result<Sweep, String>)> = Vec::new();
    let mut set_up_in_loop = 0.0;
    let start = Instant::now();
    let deadline = start + args.duration();
    while sweeps.len() < 2 || Instant::now() < deadline {
        let i = sweeps.len();
        let traced = args.trace && i % 2 == 0;
        let seed = seeds[i % seeds.len()];
        let result = sweep(&mut tracer, traced, i as u64, seed, &mut out);
        sweeps.push((i, traced, result));
        set_up_in_loop += set_up(&mut out, &mut ledger);
    }
    let wall = start.elapsed().as_secs_f64() - set_up_in_loop;
    out.attempted = sweeps.len();

    let mut ok_ms = Vec::new();
    let mut within_limit = 0;
    for (i, _, result) in &sweeps {
        if let Ok(s) = result {
            ok_ms.push(s.latency_ms);
            within_limit += usize::from(s.latency_ms <= LIMIT_MS);
            let key = |field: &str| format!("seed{:02}.{field}", seeds[i % seeds.len()]);
            let c = s.counts;
            ledger.record(key("blocks"), c.flow.blocks as u64);
            ledger.record(key("hits"), c.flow.hits as u64);
            ledger.record(key("seeded"), c.flow.seeded as u64);
            ledger.record(key("cold"), c.flow.cold as u64);
            ledger.record(key("retargeted"), c.flow.retargeted as u64);
            ledger.record(key("evaluations"), c.flow.evaluations as u64);
            ledger.record(key("signed_off"), c.candidates as u64);
            ledger.record(key("settled"), c.settled as u64);
            ledger.record(key("tran_steps"), c.steps as u64);
            ledger.record(key("cache_entries"), s.entries as u64);
        }
    }

    if args.trace {
        let latencies = |want: bool| -> Vec<f64> {
            sweeps
                .iter()
                .filter_map(|(_, traced, r)| {
                    r.as_ref()
                        .ok()
                        .filter(|_| *traced == want)
                        .map(|s| s.latency_ms)
                })
                .collect()
        };
        let traced = latencies(true);
        crate::set_trace_overhead(&mut out, &traced, &latencies(false));
        let spans = tracer.spans.clone();
        crate::set_self_times(&mut out, &spans, traced.len());
        let first = sweeps
            .iter()
            .find_map(|(i, _, r)| r.as_ref().ok().map(|s| (*i, s)));
        if let Some((_, s)) = first {
            let c = s.counts;
            let flow_ms: Vec<f64> = durations_us(&spans, "topopt.flow", "run_flow")
                .iter()
                .map(|us| us / 1e3)
                .collect();
            let flow_per_sweep = flow_ms.iter().sum::<f64>() / traced.len().max(1) as f64;
            out.set("topopt.flow.run_ms", flow_per_sweep);
            out.set(
                "topopt.flow.evals_per_s",
                c.flow.evaluations as f64 / (flow_per_sweep / 1e3),
            );
            out.set("topopt.flow.blocks", c.flow.blocks as f64);
            out.set("topopt.flow.cold", c.flow.cold as f64);
            out.set("topopt.flow.retargeted", c.flow.retargeted as f64);
            out.set("topopt.flow.evaluations", c.flow.evaluations as f64);
            out.set(
                "topopt.cache.hit_frac",
                c.flow.hits as f64 / c.flow.blocks.max(1) as f64,
            );
            out.set(
                "topopt.cache.seed_frac",
                c.flow.seeded as f64 / c.flow.blocks.max(1) as f64,
            );
            out.set("topopt.cache.lookups", s.lookups as f64);
            out.set("topopt.cache.insertions", s.insertions as f64);
            out.set("topopt.cache.entries", s.entries as f64);
            out.set(
                "topopt.verify.signoff_ms",
                median(&durations_us(&spans, "topopt.verify", "signoff")) / 1e3,
            );
            out.set("topopt.verify.settled", c.settled as f64);
            out.set(
                "topopt.optimize.rank_us",
                median(&durations_us(&spans, "topopt.optimize", "rank")),
            );
        }
        out.set("bench.gen_lag_ms", 0.0);
        out.set(
            "bench.failed_frac",
            out.failed as f64 / sweeps.len().max(1) as f64,
        );
        out.not_exercised = vec!["serve.http", "serve.server"];

        // Layer probes on the 13-bit step of the first sweep.
        match first.and_then(|(i, s)| Some((seeds[i % seeds.len()], s.blocks13.as_ref()?))) {
            Some((seed, blocks)) => {
                let mut probe_tracer = Tracer::new(1, epoch);
                let input = probe::Input {
                    job: Job::new(13, seed),
                    blocks,
                    warm: None,
                };
                probe::run(&mut probe_tracer, &input, &mut out, &mut ledger);
                let mut all = spans;
                all.extend(probe_tracer.spans);
                crate::save_spans(&mut out, args, &all);
            }
            None => out.error("no sweep succeeded; nothing to probe".to_string()),
        }
    } else {
        // One caller, so runs per second is one over the mean sweep time;
        // goodput counts only sweeps within the latency limit.
        crate::set_end_to_end(
            &mut out,
            &EndToEnd {
                setup_s: &setup_s,
                latencies_ms: &ok_ms,
                runs_per_s: ok_ms.len() as f64 / wall,
                max_ok_rate: within_limit as f64 / wall,
                success_frac: ok_ms.len() as f64 / sweeps.len().max(1) as f64,
                limit_ms: LIMIT_MS,
            },
        );
        out.note(
            "synthesis_seeds",
            Val::Arr(seeds.iter().map(|&s| Val::Int(s)).collect()),
        );
        out.note(
            "latencies_ms",
            Val::Arr(ok_ms.iter().map(|&v| Val::Num(v)).collect()),
        );
        out.note("wall_s", Val::Num(wall));
    }
    crate::close_ledger(&mut out, args, ledger);
    out
}
