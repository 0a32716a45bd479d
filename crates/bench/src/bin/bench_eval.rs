//! Machine-readable evaluator-throughput benchmark: emits `BENCH_EVAL.json`
//! with evals/sec for the hot legs of the synthesis loop (DC solve, hybrid
//! evaluation, full first synthesis and retargeting), so the performance
//! trajectory is tracked PR over PR.
//!
//! Two hybrid rows bracket the fast path: `hybrid_eval_cold` rebuilds the
//! testbench and every workspace per candidate (the shape of the
//! pre-workspace evaluator), while `hybrid_eval` retunes one persistent
//! testbench in place and reuses all simulation buffers (steady state).
//! Both build the evaluator the way the flow does: the template's in-place
//! tuner, and every cold DC solve started from the nominal design's
//! operating point (`with_start_sizing`), so neither times the zero-start
//! path that synthesis no longer takes.
//!
//! The `full_pipeline_*` rows measure the chain-level verification leg:
//! the 13-bit winner's 4-3-2 full-pipeline testbench (built from the
//! multi-resolution run's synthesized blocks, MNA dim > 100) evaluated end
//! to end through the reusable workspaces — sparse auto-selection vs the
//! dense override, plus the deterministic chain gain and dimension as
//! gate-able verify numbers.
//!
//! The `tran_*` rows measure the clocked transient sign-off leg on the
//! deterministic all-telescopic 4-3-2 chain: adaptive timestep throughput
//! (`tran_step` — wall-clock steps/s of one sign-off, both ±δ legs'
//! steps over the elapsed time while the legs run concurrently, so it
//! counts the two legs' parallelism, not one core's stepping rate), full
//! four-period ±δ sign-off evaluations (`tran_chain_settle`), and the
//! step-count ratio of the fixed-step oracle at the adaptive run's own
//! minimum dt (`tran_adaptive_vs_fixed_steps` — deterministic, gated
//! two-sided).
//!
//! The `multi_res_flow_*` rows measure the 10/11/12/13-bit flow end to
//! end on the dependency-driven executor: `multi_res_flow_cold` runs each
//! resolution with no cache (the cold baseline), `multi_res_flow_cached`
//! with the persistent aggressive [`BlockCache`] shared across
//! resolutions (both in blocks/s), and `multi_res_cache_hit_pct` the
//! cross-resolution exact-hit percentage.
//! Detailed per-resolution statistics land in `CACHE_STATS.json` (uploaded
//! as a CI artifact next to `BENCH_EVAL.json`).
//!
//! Run with `cargo run --release -p adc-bench --bin bench_eval`.

use adc_mdac::opamp::{build_telescopic, TelescopicHandles, TelescopicParams};
use adc_mdac::power::{design_chain, PowerModelParams};
use adc_mdac::specs::AdcSpec;
use adc_spice::dc::{dc_operating_point, dc_operating_point_with, DcOptions, DcWorkspace};
use adc_spice::netlist::Circuit;
use adc_spice::process::Process;
use adc_synth::evaluator::{EvalOutcome, Evaluator};
use adc_synth::hybrid::{BenchSetup, BenchTuner, HybridOptions, HybridOtaEvaluator};
use adc_synth::SynthConfig;
use adc_topopt::cache::{key_distance, BlockCache, CachePolicy};
use adc_topopt::enumerate::enumerate_candidates;
use adc_topopt::enumerate::Candidate;
use adc_topopt::flow::{ota_requirements, run_flow, synthesize_ota, FlowRequest, OtaRequirements};
use adc_topopt::verify::{build_candidate_testbench, verify_candidate, VerifyOptions};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One measured row of the report.
struct Row {
    name: &'static str,
    evals_per_sec: f64,
    evals: usize,
}

/// Times `f` for roughly `budget_ms` of wall clock and returns evals/sec.
fn measure<F: FnMut()>(budget_ms: u64, mut f: F) -> (f64, usize) {
    // Warmup.
    f();
    let start = Instant::now();
    let budget = std::time::Duration::from_millis(budget_ms);
    let mut n = 0usize;
    while start.elapsed() < budget {
        f();
        n += 1;
    }
    (n as f64 / start.elapsed().as_secs_f64(), n)
}

/// Telescopic testbench builder with the in-place retuning recipe attached
/// (the same shape `adc_topopt::flow` hands the synthesizer).
fn telescopic_bench(proc: &Process) -> impl Fn(&[f64]) -> BenchSetup + '_ {
    move |x: &[f64]| {
        let tb = build_telescopic(proc, &TelescopicParams::from_vec(x), 1e-12);
        let handles = TelescopicHandles::resolve(&tb.circuit).expect("telescopic handles");
        let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
            handles.retune(ckt, &TelescopicParams::from_vec(x));
        });
        BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
    }
}

fn expect_ok(out: EvalOutcome) {
    match out {
        EvalOutcome::Ok(p) => {
            black_box(p);
        }
        EvalOutcome::Failed(e) => panic!("eval failed: {e}"),
    }
}

fn main() {
    // Detected-feature report: which kernel backend every measured row
    // below dispatches to (`scalar` under ADC_FORCE_SCALAR=1).
    eprintln!(
        "simd backend: {} ({} batch lanes)",
        adc_numerics::simd::backend_name(),
        adc_numerics::simd::MAX_LANES
    );
    let proc = Process::c025();
    let nominal = TelescopicParams::nominal().to_vec();
    let mut rows: Vec<Row> = Vec::new();

    // DC Newton solve of the telescopic OTA testbench: allocating wrapper
    // vs. persistent workspace.
    let tb = build_telescopic(&proc, &TelescopicParams::nominal(), 1e-12);
    let opts = DcOptions::default();
    let (rate, n) = measure(1500, || {
        black_box(dc_operating_point(&tb.circuit, &opts).unwrap());
    });
    rows.push(Row {
        name: "dc_solve",
        evals_per_sec: rate,
        evals: n,
    });
    let mut dc_ws = DcWorkspace::new(&tb.circuit).unwrap();
    let (rate, n) = measure(1500, || {
        black_box(dc_operating_point_with(&mut dc_ws, &tb.circuit, &opts).unwrap());
    });
    rows.push(Row {
        name: "dc_solve_workspace",
        evals_per_sec: rate,
        evals: n,
    });

    // Hybrid evaluation, cold: new evaluator (fresh testbench + fresh
    // workspaces + its start point) per candidate — the pre-workspace
    // inner-loop shape.
    let (rate, n) = measure(2000, || {
        let ev = HybridOtaEvaluator::new(telescopic_bench(&proc), HybridOptions::default())
            .with_start_sizing(&nominal);
        expect_ok(ev.evaluate(black_box(&nominal)));
    });
    rows.push(Row {
        name: "hybrid_eval_cold",
        evals_per_sec: rate,
        evals: n,
    });

    // Hybrid evaluation, steady state: one persistent evaluator, in-place
    // retuning, all workspaces reused, local-phase warm-started DC — the
    // synthesis inner loop during polish/retargeting.
    let ev = HybridOtaEvaluator::new(telescopic_bench(&proc), HybridOptions::default())
        .with_start_sizing(&nominal);
    ev.set_local_phase(true);
    let (rate, n) = measure(2000, || {
        expect_ok(ev.evaluate(black_box(&nominal)));
    });
    rows.push(Row {
        name: "hybrid_eval",
        evals_per_sec: rate,
        evals: n,
    });

    // Cold synthesis + retargeting of the cheapest paper block.
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let chain = design_chain(&spec, &[4, 3, 2], &params);
    let req = ota_requirements(&chain[2], &spec);
    let cfg = SynthConfig {
        iterations: 400,
        nm_iterations: 60,
        seed: 5,
        ..Default::default()
    };
    let t0 = Instant::now();
    let cold = synthesize_ota(&spec.process, &req, &cfg, None);
    let t_cold = t0.elapsed().as_secs_f64();
    rows.push(Row {
        name: "first_synthesis",
        evals_per_sec: cold.evaluations as f64 / t_cold,
        evals: cold.evaluations,
    });
    let t1 = Instant::now();
    let warm = synthesize_ota(&spec.process, &req, &cfg, Some(&cold));
    let t_warm = t1.elapsed().as_secs_f64();
    rows.push(Row {
        name: "retarget",
        evals_per_sec: warm.evaluations as f64 / t_warm,
        evals: warm.evaluations,
    });

    // Multi-resolution flow: 10/11/12/13-bit candidate sets on the
    // dependency-driven executor, cache-free cold baseline vs the persistent
    // aggressive cache. Both rows report block throughput (blocks/s).
    let specs: Vec<AdcSpec> = [10u32, 11, 12, 13]
        .iter()
        .map(|&k| AdcSpec::date05(k))
        .collect();
    let flow_cfg = SynthConfig {
        iterations: 200,
        nm_iterations: 30,
        seed: 11,
        ..Default::default()
    };
    let t2 = Instant::now();
    let mut cold_blocks = 0usize;
    let mut cold_evals = 0usize;
    let mut cold_feasible = 0usize;
    for s in &specs {
        let cands = enumerate_candidates(s.resolution, 7);
        let blocks = run_flow(&FlowRequest::new(s, &cands, &params, &flow_cfg), None).blocks;
        cold_blocks += blocks.len();
        cold_evals += blocks.iter().map(|b| b.result.evaluations).sum::<usize>();
        cold_feasible += blocks.iter().filter(|b| b.result.feasible).count();
    }
    let t_cold_flow = t2.elapsed().as_secs_f64();
    rows.push(Row {
        name: "multi_res_flow_cold",
        evals_per_sec: cold_blocks as f64 / t_cold_flow,
        evals: cold_evals,
    });

    let mut cache = BlockCache::new(CachePolicy::Aggressive);
    let t3 = Instant::now();
    // One run per resolution on the shared cache: (bits, run, wall seconds).
    let runs: Vec<_> = specs
        .iter()
        .map(|s| {
            let t = Instant::now();
            let cands = enumerate_candidates(s.resolution, 7);
            let run = run_flow(
                &FlowRequest::new(s, &cands, &params, &flow_cfg),
                Some(&mut cache),
            )
            .into_result()
            .expect("multi-resolution flow completed without casualties");
            (s.resolution, run, t.elapsed().as_secs_f64())
        })
        .collect();
    let t_cached = t3.elapsed().as_secs_f64();
    let cached_blocks: usize = runs.iter().map(|(_, r, _)| r.stats.blocks).sum();
    let spent: usize = runs.iter().map(|(_, r, _)| r.stats.evaluations_spent).sum();
    let hits: usize = runs.iter().map(|(_, r, _)| r.stats.cache_hits).sum();
    rows.push(Row {
        name: "multi_res_flow_cached",
        evals_per_sec: cached_blocks as f64 / t_cached,
        evals: spent,
    });
    let hit_pct = 100.0 * hits as f64 / cached_blocks.max(1) as f64;
    rows.push(Row {
        name: "multi_res_cache_hit_pct",
        evals_per_sec: hit_pct,
        evals: hits,
    });

    // Fault-tolerance overhead: the guarded serial path (catch_unwind +
    // retry bookkeeping per block) vs a reconstruction of the raw
    // pre-guard serial path on the same 13-bit schedule. Reported as the
    // wall-clock ratio raw/guarded — a machine-independent ≈ 1.0 when the
    // guard rails are free — and the two paths must stay bit-identical.
    let spec13g = AdcSpec::date05(13);
    let cands13 = enumerate_candidates(13, 7);
    let guard_cfg = SynthConfig {
        iterations: 60,
        nm_iterations: 10,
        seed: 11,
        ..Default::default()
    };
    let tg = Instant::now();
    let guarded = run_flow(
        &FlowRequest::new(&spec13g, &cands13, &params, &guard_cfg).serial(),
        None,
    )
    .blocks;
    let t_guarded = tg.elapsed().as_secs_f64();
    let tr = Instant::now();
    // Raw path: replan the warm-start chain exactly as the flow does
    // (nearest same-template earlier key in the 16·Δm + ΔA metric) and run
    // each block straight through `synthesize_ota` with no isolation.
    let mut planned: Vec<((u32, u32), OtaRequirements, Option<usize>)> = Vec::new();
    let mut seen: std::collections::BTreeMap<(u32, u32), usize> = std::collections::BTreeMap::new();
    for cand in &cands13 {
        for design in &design_chain(&spec13g, cand.front_bits(), &params) {
            let key = design.spec.reuse_key();
            if seen.contains_key(&key) {
                continue;
            }
            let req = ota_requirements(design, &spec13g);
            let warm = seen
                .iter()
                .filter(|(_, &idx)| planned[idx].1.template == req.template)
                .min_by_key(|(k, _)| key_distance(**k, key))
                .map(|(_, &idx)| idx);
            seen.insert(key, planned.len());
            planned.push((key, req, warm));
        }
    }
    let mut raw: Vec<((u32, u32), adc_synth::SynthResult)> = Vec::new();
    for (key, req, warm) in &planned {
        let warm_result = warm.map(|j| raw[j].1.clone());
        let r = synthesize_ota(&spec13g.process, req, &guard_cfg, warm_result.as_ref());
        raw.push((*key, r));
    }
    let t_raw = tr.elapsed().as_secs_f64();
    raw.sort_by_key(|(k, _)| *k);
    assert_eq!(raw.len(), guarded.len(), "recovery-overhead paths diverged");
    for ((k, r), b) in raw.iter().zip(guarded.iter()) {
        assert_eq!(*k, b.key, "recovery-overhead key order diverged");
        assert_eq!(
            r.best_x, b.result.best_x,
            "recovery-overhead trajectories diverged at {k:?}"
        );
        assert_eq!(r.evaluations, b.result.evaluations, "at {k:?}");
    }
    rows.push(Row {
        name: "flow_recovery_overhead",
        evals_per_sec: t_raw / t_guarded,
        evals: guarded.len(),
    });

    // Full-pipeline chain verification of the 13-bit winner (4-3-2),
    // reusing the blocks the multi-resolution flow just synthesized.
    let spec13 = specs.last().expect("13-bit spec present");
    let blocks13 = &runs.last().expect("13-bit run present").1.blocks;
    let winner = Candidate::new(vec![4, 3, 2]);
    let verification = verify_candidate(
        spec13,
        &winner,
        blocks13,
        &params,
        &VerifyOptions::default(),
    )
    .expect("chain verification of the 4-3-2 winner");
    rows.push(Row {
        name: "full_pipeline_gain",
        evals_per_sec: verification.report.gain,
        evals: 1,
    });
    rows.push(Row {
        name: "full_pipeline_mna_dim",
        evals_per_sec: verification.report.mna_dim as f64,
        evals: 1,
    });

    // Chain-evaluation throughput: full evaluate (DC + probes + TF) with
    // the sparse auto-selection, the dense override, and the DC leg alone.
    use adc_spice::linearize::SolverChoice;
    use adc_synth::chain::{ChainEvaluator, ChainOptions};
    let tb = build_candidate_testbench(
        spec13,
        &winner,
        blocks13,
        &params,
        &VerifyOptions::default(),
    )
    .expect("chain testbench");
    let chain_bench = BenchSetup::new(
        tb.circuit.clone(),
        tb.output,
        tb.supply.clone(),
        tb.devices.clone(),
    );
    let chain_opts = ChainOptions {
        dc: tb.dc_options(),
        ..ChainOptions::default()
    };
    let mut chain_ev = ChainEvaluator::new(chain_opts.clone());
    let (rate, n) = measure(1500, || {
        black_box(chain_ev.evaluate(&chain_bench).expect("chain eval"));
    });
    rows.push(Row {
        name: "full_pipeline_eval",
        evals_per_sec: rate,
        evals: n,
    });
    let mut chain_ev_dense = ChainEvaluator::with_solver(SolverChoice::Dense, chain_opts);
    let (rate, n) = measure(1500, || {
        black_box(
            chain_ev_dense
                .evaluate(&chain_bench)
                .expect("chain eval dense"),
        );
    });
    rows.push(Row {
        name: "full_pipeline_eval_dense",
        evals_per_sec: rate,
        evals: n,
    });
    let chain_dc_opts = tb.dc_options();
    let mut chain_dc = DcWorkspace::new(&tb.circuit).expect("chain DC workspace");
    let (rate, n) = measure(1500, || {
        black_box(dc_operating_point_with(&mut chain_dc, &tb.circuit, &chain_dc_opts).unwrap());
    });
    rows.push(Row {
        name: "full_pipeline_dc",
        evals_per_sec: rate,
        evals: n,
    });
    eprintln!(
        "full pipeline: dim {} gain {:.3} (ideal {}) sparse dc/tf {}/{}",
        verification.report.mna_dim,
        verification.report.gain,
        verification.gain_expected,
        verification.report.dc_sparse,
        verification.report.tf_sparse
    );

    // Clocked transient sign-off of the all-telescopic 4-3-2 chain (the
    // deterministic sign-off fixture of `tests/pipeline_chain.rs`):
    // `tran_step` is wall-clock adaptive timestep throughput through the
    // sparse workspaces of both concurrent legs, `tran_chain_settle` full
    // 4-period ±δ sign-off
    // evaluations/s, and `tran_adaptive_vs_fixed_steps` the step-count
    // ratio of the fixed-step oracle at the adaptive run's own minimum dt
    // (deterministic — gated two-sided like the verify numbers).
    use adc_mdac::netlist::{build_pipeline, MdacStageConfig, OtaSizing, PipelineOptions};
    use adc_synth::tran_chain::{TranChainEvaluator, TranChainOptions};
    use adc_topopt::verify::build_tran_setup;
    let designs = design_chain(spec13, &[4, 3, 2], &params);
    let stage_gains: Vec<f64> = designs.iter().map(|d| d.spec.gain).collect();
    let telescopic: Vec<MdacStageConfig> = designs
        .iter()
        .map(|d| {
            MdacStageConfig::from_design(d, OtaSizing::Telescopic(TelescopicParams::nominal()))
        })
        .collect();
    let tran_tb = build_pipeline(&spec13.process, &telescopic, &PipelineOptions::default())
        .expect("telescopic sign-off chain");
    let mut tran_setup = build_tran_setup(spec13, &tran_tb, stage_gains);
    let mut tran_ev = TranChainEvaluator::new(TranChainOptions::default());
    let t4 = Instant::now();
    let tran_report = tran_ev
        .evaluate(&mut tran_setup)
        .expect("transient sign-off");
    let t_tran = t4.elapsed().as_secs_f64();
    assert!(
        tran_report.sparse && tran_report.all_settled,
        "sign-off chain must settle through the CSR engine: {tran_report:#?}"
    );
    rows.push(Row {
        name: "tran_step",
        evals_per_sec: (tran_report.accepted + tran_report.rejected) as f64 / t_tran,
        evals: tran_report.accepted,
    });
    let (rate, n) = measure(3000, || {
        black_box(
            tran_ev
                .evaluate(&mut tran_setup)
                .expect("transient sign-off"),
        );
    });
    rows.push(Row {
        name: "tran_chain_settle",
        evals_per_sec: rate,
        evals: n,
    });
    let fixed = tran_ev
        .evaluate_fixed(&mut tran_setup, tran_report.min_dt)
        .expect("fixed-step oracle");
    rows.push(Row {
        name: "tran_adaptive_vs_fixed_steps",
        evals_per_sec: fixed.accepted as f64 / tran_report.accepted.max(1) as f64,
        evals: fixed.accepted,
    });
    eprintln!(
        "transient sign-off: adaptive {} steps, fixed oracle {} at dt {:.3e}s ({:.0}x), settled {}",
        tran_report.accepted,
        fixed.accepted,
        tran_report.min_dt,
        fixed.accepted as f64 / tran_report.accepted.max(1) as f64,
        tran_report.all_settled
    );

    // Cache-statistics artifact: per-resolution breakdown + totals.
    let mut stats_json = String::from("{\n  \"resolutions\": [\n");
    for (i, (bits, r, wall_seconds)) in runs.iter().enumerate() {
        stats_json.push_str(&format!(
            "    {{ \"bits\": {}, \"blocks\": {}, \"cache_hits\": {}, \"cache_seeded\": {}, \
             \"cold\": {}, \"retargeted\": {}, \"evaluations_spent\": {}, \"wall_seconds\": {:.4} }}{}\n",
            bits,
            r.stats.blocks,
            r.stats.cache_hits,
            r.stats.cache_seeded,
            r.stats.cold,
            r.stats.retargeted,
            r.stats.evaluations_spent,
            wall_seconds,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    let feasible: usize = runs
        .iter()
        .flat_map(|(_, r, _)| r.blocks.iter())
        .filter(|b| b.result.feasible)
        .count();
    stats_json.push_str(&format!(
        "  ],\n  \"totals\": {{ \"blocks\": {}, \"cache_hits\": {}, \"hit_rate_pct\": {:.2}, \
         \"feasible_blocks\": {}, \"feasible_blocks_cold\": {}, \"evaluations_spent\": {}, \
         \"evaluations_cold\": {}, \
         \"wall_seconds_cached\": {:.4}, \"wall_seconds_cold\": {:.4}, \"speedup\": {:.3} }}\n}}\n",
        cached_blocks,
        hits,
        hit_pct,
        feasible,
        cold_feasible,
        spent,
        cold_evals,
        t_cached,
        t_cold_flow,
        t_cold_flow / t_cached
    ));
    std::fs::write("CACHE_STATS.json", &stats_json).expect("write CACHE_STATS.json");
    eprintln!(
        "wrote CACHE_STATS.json (speedup {:.2}x)",
        t_cold_flow / t_cached
    );

    let mut json = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{ \"evals_per_sec\": {:.2}, \"evals\": {} }}{}\n",
            r.name,
            r.evals_per_sec,
            r.evals,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    std::fs::write("BENCH_EVAL.json", &json).expect("write BENCH_EVAL.json");
    print!("{json}");
    eprintln!("wrote BENCH_EVAL.json");
}
