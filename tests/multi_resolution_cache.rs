//! Cross-resolution synthesis-cache properties and executor determinism.
//!
//! The dependency-driven executor and the persistent [`BlockCache`] must
//! never change *what* gets synthesized, only *when* (executor) and *how
//! often* (cache, under the reproducible policy). These tests pin the
//! contracts end to end over the paper's 10 → 13-bit sweep:
//!
//! * cached, cache-cold and serial-oracle runs are **bit-identical** under
//!   [`CachePolicy::Reproducible`], with exact cross-resolution hit counts;
//! * the aggressive policy stays deterministic (serial ≡ parallel given the
//!   same cache state), reuses strictly more, and its per-resolution
//!   hit/seed/cold counts are pinned exactly;
//! * executor results are identical for 1, 2 and N worker threads;
//! * the aggressive sweep is identical on 1, 3 and 8 cache shards.

use pipelined_adc::mdac::power::PowerModelParams;
use pipelined_adc::mdac::specs::AdcSpec;
use pipelined_adc::synth::SynthConfig;
use pipelined_adc::topopt::cache::{BlockCache, CachePolicy, SharedCache};
use pipelined_adc::topopt::enumerate::enumerate_candidates;
use pipelined_adc::topopt::executor::ExecutorOptions;
use pipelined_adc::topopt::flow::{run_flow, run_flow_shared, FlowRequest, MdacBlock, RunStats};

const RESOLUTIONS: [u32; 4] = [10, 11, 12, 13];

fn cfg() -> SynthConfig {
    SynthConfig {
        iterations: 10,
        nm_iterations: 2,
        seed: 9,
        ..Default::default()
    }
}

fn assert_blocks_bit_identical(label: &str, a: &[MdacBlock], b: &[MdacBlock]) {
    assert_eq!(a.len(), b.len(), "{label}: block count");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.key, y.key, "{label}");
        assert_eq!(x.retargeted, y.retargeted, "{label}: key {:?}", x.key);
        assert_eq!(x.result.best_x, y.result.best_x, "{label}: key {:?}", x.key);
        assert_eq!(x.result.best_u, y.result.best_u, "{label}: key {:?}", x.key);
        assert_eq!(
            x.result.best_cost, y.result.best_cost,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.best_perf, y.result.best_perf,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.evaluations, y.result.evaluations,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.feasible, y.result.feasible,
            "{label}: key {:?}",
            x.key
        );
    }
}

/// Runs the multi-resolution flow with an optional shared cache and the
/// given executor; returns per-resolution blocks and run statistics.
fn run_sweep(
    cache: Option<&mut BlockCache>,
    exec: &ExecutorOptions,
    serial: bool,
) -> Vec<(Vec<MdacBlock>, RunStats)> {
    let params = PowerModelParams::calibrated();
    let config = cfg();
    let mut cache = cache;
    RESOLUTIONS
        .iter()
        .map(|&k| {
            let spec = AdcSpec::date05(k);
            let cands = enumerate_candidates(k, 7);
            let req = if serial {
                FlowRequest::new(&spec, &cands, &params, &config).serial()
            } else {
                FlowRequest::new(&spec, &cands, &params, &config).with_executor(exec.clone())
            };
            let run = run_flow(&req, cache.as_deref_mut());
            (run.blocks, run.stats)
        })
        .collect()
}

/// The headline property: cached, cache-cold and serial-oracle synthesis
/// produce bit-identical candidate sets (and therefore identical optimizer
/// trajectories — `best_u`, costs and evaluation counts all match) across
/// the four resolutions, and the reproducible cache hits exactly the one
/// provenance-identical block each later resolution shares.
#[test]
fn cached_cache_cold_and_serial_oracle_are_bit_identical() {
    let exec = ExecutorOptions::default();
    // Cache-cold baseline (no cache at all).
    let cold = run_sweep(None, &exec, false);
    // Reproducible cache shared across both resolutions, parallel executor.
    let mut cache = BlockCache::new(CachePolicy::Reproducible);
    let cached = run_sweep(Some(&mut cache), &exec, false);
    // Serial oracle with its own cache.
    let mut oracle_cache = BlockCache::new(CachePolicy::Reproducible);
    let oracle = run_sweep(Some(&mut oracle_cache), &exec, true);

    for ((k, (a, _)), ((b, _), (c, _))) in RESOLUTIONS
        .iter()
        .zip(cold.iter())
        .zip(cached.iter().zip(oracle.iter()))
    {
        assert_blocks_bit_identical(&format!("cold vs cached @ {k} bits"), a, b);
        assert_blocks_bit_identical(&format!("cached vs serial @ {k} bits"), b, c);
    }
    // Cross-resolution reuse, exactly: every later resolution hits the
    // shared (2, 8) telescopic block and nothing else.
    let hits: Vec<usize> = cached.iter().map(|(_, s)| s.cache_hits).collect();
    assert_eq!(hits, [0, 1, 1, 1], "stats: {:?}", cache.stats());
    assert_eq!(cache.stats().insertions, 30, "stats: {:?}", cache.stats());
}

/// The aggressive policy reuses strictly more than the reproducible one and
/// stays deterministic: serial and parallel executions over identically
/// warmed caches agree bit for bit.
#[test]
fn aggressive_cache_is_deterministic_and_reuses_more() {
    let exec = ExecutorOptions::default();
    let mut repro = BlockCache::new(CachePolicy::Reproducible);
    let repro_runs = run_sweep(Some(&mut repro), &exec, false);

    let mut parallel_cache = BlockCache::new(CachePolicy::Aggressive);
    let parallel = run_sweep(Some(&mut parallel_cache), &exec, false);
    let mut serial_cache = BlockCache::new(CachePolicy::Aggressive);
    let serial = run_sweep(Some(&mut serial_cache), &exec, true);

    for (k, ((a, a_stats), (b, b_stats))) in
        RESOLUTIONS.iter().zip(parallel.iter().zip(serial.iter()))
    {
        assert_blocks_bit_identical(&format!("aggressive serial vs parallel @ {k} bits"), a, b);
        assert_eq!(a_stats.cache_hits, b_stats.cache_hits);
    }
    assert!(
        parallel[1].1.cache_hits >= repro_runs[1].1.cache_hits,
        "aggressive ({}) must reuse at least as much as reproducible ({})",
        parallel[1].1.cache_hits,
        repro_runs[1].1.cache_hits
    );
    // The reuse counts are structural (a function of the sweep's block
    // keys, not of the synthesis budget or seed), so they are exact.
    let per_res =
        |f: fn(&RunStats) -> usize| parallel.iter().map(|(_, s)| f(s)).collect::<Vec<_>>();
    assert_eq!(per_res(|s| s.blocks), [5, 7, 9, 12]);
    assert_eq!(per_res(|s| s.cache_hits), [0, 3, 6, 9]);
    assert_eq!(per_res(|s| s.cache_seeded), [0, 4, 3, 3]);
    assert_eq!(per_res(|s| s.cold), [2, 0, 0, 0]);
    let stats = parallel_cache.stats();
    assert_eq!(stats.lookups, 33, "{stats:?}");
    assert_eq!(stats.hits, 18, "{stats:?}");
    assert_eq!(stats.near_seeds, 10, "{stats:?}");
    assert_eq!(stats.insertions, 15, "{stats:?}");
    assert_eq!(stats.corrupt_dropped, 0, "{stats:?}");
    // And it eliminates every cold start at the second resolution: blocks
    // either hit exactly or warm-start from a cached/in-set neighbour.
    assert!(
        parallel_cache.stats().near_seeds > 0,
        "expected near-hit warm seeds, stats: {:?}",
        parallel_cache.stats()
    );
}

/// Shard-count invariance of the aggressive policy: `SharedCache` merges
/// its shards' `nearest` winners in the order one unsharded scan meets
/// entries, so the sweep's blocks, per-resolution counts and merged cache
/// statistics are the same on 1, 3 and 8 shards.
#[test]
fn aggressive_sweep_is_shard_count_invariant() {
    let params = PowerModelParams::calibrated();
    let config = cfg();
    let sweep = |shards: usize| {
        let cache = SharedCache::with_shards(CachePolicy::Aggressive, shards);
        let runs: Vec<(Vec<MdacBlock>, RunStats)> = RESOLUTIONS
            .iter()
            .map(|&k| {
                let spec = AdcSpec::date05(k);
                let cands = enumerate_candidates(k, 7);
                let req = FlowRequest::new(&spec, &cands, &params, &config);
                let run = run_flow_shared(&req, &cache);
                (run.blocks, run.stats)
            })
            .collect();
        (runs, cache.stats())
    };
    let (one, one_stats) = sweep(1);
    for shards in [3, 8] {
        let (runs, stats) = sweep(shards);
        for (k, ((a, a_stats), (b, b_stats))) in RESOLUTIONS.iter().zip(one.iter().zip(runs.iter()))
        {
            let label = format!("1 vs {shards} shards @ {k} bits");
            assert_blocks_bit_identical(&label, a, b);
            assert_eq!(a_stats, b_stats, "{label}");
        }
        assert_eq!(stats, one_stats, "1 vs {shards} shards");
    }
}

/// Executor determinism stress: the same candidate set synthesized with 1,
/// 2 and N worker threads yields bit-identical block lists.
#[test]
fn executor_results_identical_across_thread_counts() {
    let params = PowerModelParams::calibrated();
    let config = cfg();
    let spec = AdcSpec::date05(11);
    let cands = enumerate_candidates(11, 7);
    let baseline = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &config)
            .with_executor(ExecutorOptions::with_threads(1)),
        None,
    );
    for threads in [2, 4, 8] {
        let run = run_flow(
            &FlowRequest::new(&spec, &cands, &params, &config)
                .with_executor(ExecutorOptions::with_threads(threads)),
            None,
        );
        assert_blocks_bit_identical(&format!("threads {threads}"), &baseline.blocks, &run.blocks);
        assert_eq!(baseline.stats, run.stats, "threads {threads}");
    }
}
