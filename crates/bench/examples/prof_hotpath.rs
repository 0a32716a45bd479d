//! Ad-hoc hot-path timing breakdown used while tuning the SIMD/batching
//! work: prints per-leg microseconds for the hybrid OTA evaluation and the
//! full-pipeline chain evaluation, plus batched-vs-serial complex solve
//! micro-timings at both dimensions, and the transient sign-off leg on the
//! 4-3-2 chain: one Newton iteration's pieces and one two-leg evaluation.
//!
//! The hybrid legs run what a flow evaluation runs, on an off-nominal
//! telescopic candidate: the DC solve is plain Newton started from the
//! nominal design's operating point, and the full evaluation uses the
//! template's in-place tuner and nominal start sizing, timed in the global
//! (cold DC) and the local (warm DC) phase.
//!
//! Run with `cargo run --release -p adc-bench --example prof_hotpath`.

use adc_mdac::opamp::{build_telescopic, TelescopicHandles, TelescopicParams};
use adc_mdac::power::{design_chain, PowerModelParams};
use adc_mdac::specs::AdcSpec;
use adc_numerics::complex::Complex;
use adc_spice::dc::{dc_operating_point_newton, dc_operating_point_with, DcOptions, DcWorkspace};
use adc_spice::linearize::{ComplexMnaWorkspace, SmallSignal};
use adc_spice::netlist::Circuit;
use adc_spice::process::Process;
use adc_synth::hybrid::{BenchSetup, BenchTuner, HybridOptions, HybridOtaEvaluator};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

fn time_us<F: FnMut()>(label: &str, reps: usize, mut f: F) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
    println!("{label:40} {us:10.2} us");
    us
}

/// Times the batch workspace legs (assembly+factor, solve, det) directly
/// against the serial sparse LU on the same system.
fn batch_legs(ss: &SmallSignal) {
    use adc_numerics::simd;
    use adc_numerics::sparse::{CSparseLuBatch, CsrMatrix, CsrPattern, SparseLu, Symbolic};
    use std::sync::Arc;
    let dim = ss.dim();
    let mut entries: Vec<(usize, usize)> = Vec::with_capacity(ss.base.len() + ss.cap_entries.len());
    entries.extend(ss.base.iter().map(|&(r, c, _)| (r, c)));
    entries.extend(ss.cap_entries.iter().map(|&(r, c, _)| (r, c)));
    let (pattern, slots) = CsrPattern::from_entries(dim, &entries);
    let sym = Symbolic::analyze(&pattern).unwrap();
    println!(
        "    pattern nnz {} factor nnz {} dim {}",
        pattern.nnz(),
        sym.factor_nnz(),
        sym.dim()
    );
    let (base_slots, cap_slots) = slots.split_at(ss.base.len());
    let mut base_vals = vec![Complex::ZERO; pattern.nnz()];
    for (&slot, &(_, _, g)) in base_slots.iter().zip(ss.base.iter()) {
        base_vals[slot] += Complex::from_real(g);
    }
    let cap_vals: Vec<f64> = ss.cap_entries.iter().map(|&(_, _, c)| c).collect();
    let s8: Vec<Complex> = (0..8)
        .map(|i| Complex::from_polar(1e8, 0.1 + 0.3 * i as f64))
        .collect();
    let mut batch = CSparseLuBatch::new(Arc::clone(&sym));
    time_us("  batch8 factor_scaled", 2000, || {
        batch
            .factor_scaled(&base_vals, cap_slots, &cap_vals, black_box(&s8))
            .unwrap();
    });
    let mut xs = vec![Complex::ZERO; 8 * dim];
    let mut dets = vec![Complex::ZERO; 8];
    time_us("  batch8 solve_into", 2000, || {
        batch.solve_into(&ss.b, &mut xs);
    });
    time_us("  batch8 det_into", 2000, || {
        batch.det_into(&mut dets);
    });
    let mut y = CsrMatrix::zeros(Arc::clone(&pattern));
    let mut lu = SparseLu::new(Arc::clone(&sym));
    let mut x1 = vec![Complex::ZERO; dim];
    time_us("  serial assemble+factor", 2000, || {
        y.values_mut().copy_from_slice(&base_vals);
        simd::scatter_add_scaled(y.values_mut(), cap_slots, &cap_vals, black_box(s8[0]));
        lu.factor_into(&y).unwrap();
    });
    time_us("  serial solve_into", 2000, || {
        lu.solve_into(&ss.b, &mut x1);
    });
    time_us("  serial det", 2000, || {
        black_box(lu.det());
    });
}

fn solve_breakdown(name: &str, circuit: &Circuit, opts: &DcOptions) {
    let mut dc = DcWorkspace::new(circuit).unwrap();
    let op = dc_operating_point_with(&mut dc, circuit, opts).unwrap();
    let mut ss = SmallSignal::new();
    let topo = ss.bind(circuit, &op, 0.0).unwrap();
    let mut eng = ComplexMnaWorkspace::new();
    eng.bind(&ss, topo);
    let dim = ss.dim();
    println!("--- {name}: dim {dim} ---");
    let s0 = Complex::new(0.0, 2.0 * std::f64::consts::PI * 1e6);
    let mut x = vec![Complex::ZERO; dim];
    time_us("serial factor+solve+det (1 sample)", 2000, || {
        eng.factor_at_or_demote(black_box(s0), &ss).unwrap();
        eng.solve_into(&ss.b, &mut x);
        black_box(eng.det());
    });
    for k in [1usize, 2, 3, 4, 8] {
        let s_list: Vec<Complex> = (0..k)
            .map(|i| Complex::from_polar(1e8, 0.1 + 0.3 * i as f64))
            .collect();
        let mut xs = vec![Complex::ZERO; k * dim];
        let mut dets = vec![Complex::ZERO; k];
        time_us(
            &format!("batched factor+solve+det ({k} samples)"),
            2000,
            || {
                eng.solve_det_batch(black_box(&s_list), &ss, &ss.b, &mut xs, &mut dets)
                    .unwrap();
            },
        );
    }
    batch_legs(&ss);
}

/// The telescopic evaluator a flow block builds at a 1 pF load: the
/// testbench is retuned in place per candidate, and every global-phase DC
/// solve starts from the nominal design's operating point.
fn telescopic_evaluator(proc: &Process) -> HybridOtaEvaluator<impl Fn(&[f64]) -> BenchSetup> {
    let proc = proc.clone();
    let build = move |x: &[f64]| {
        let tb = build_telescopic(&proc, &TelescopicParams::from_vec(x), 1e-12);
        let handles = TelescopicHandles::resolve(&tb.circuit).expect("telescopic template handles");
        let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
            handles.retune(ckt, &TelescopicParams::from_vec(x));
        });
        BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
    };
    HybridOtaEvaluator::new(build, HybridOptions::default())
        .with_start_sizing(&TelescopicParams::nominal().to_vec())
}

fn main() {
    use adc_synth::chain::{ChainEvaluator, ChainOptions};
    use adc_synth::evaluator::{EvalOutcome, Evaluator};
    use adc_topopt::verify::{build_candidate_testbench, VerifyOptions};

    println!("simd backend: {}", adc_numerics::simd::backend_name());
    let proc = Process::c025();
    let candidate = TelescopicParams {
        w_in: 80e-6,
        l_p: 0.3e-6,
        vbn: 1.1,
        ..TelescopicParams::nominal()
    };

    // Hybrid leg breakdown on the telescopic OTA.
    let dc_opts = HybridOptions::default().dc;
    let nominal_tb = build_telescopic(&proc, &TelescopicParams::nominal(), 1e-12);
    let mut nominal_dc = DcWorkspace::new(&nominal_tb.circuit).unwrap();
    let start = dc_operating_point_with(&mut nominal_dc, &nominal_tb.circuit, &dc_opts)
        .unwrap()
        .solution()
        .to_vec();
    let tb = build_telescopic(&proc, &candidate, 1e-12);
    let mut dc = DcWorkspace::new(&tb.circuit).unwrap();
    time_us("hybrid: DC cold (nominal start)", 500, || {
        black_box(dc_operating_point_newton(&mut dc, &tb.circuit, &dc_opts, Some(&start)).unwrap());
    });
    let op = dc_operating_point_newton(&mut dc, &tb.circuit, &dc_opts, Some(&start)).unwrap();
    let mut tf_ws = adc_sfg::nettf::NetTfWorkspace::new();
    let nettf = adc_sfg::nettf::NetTfOptions::default();
    time_us("hybrid: extract_tf_with", 2000, || {
        black_box(
            adc_sfg::nettf::extract_tf_with(&mut tf_ws, &tb.circuit, &op, tb.output, &nettf)
                .unwrap(),
        );
    });
    let tf =
        adc_sfg::nettf::extract_tf_with(&mut tf_ws, &tb.circuit, &op, tb.output, &nettf).unwrap();
    time_us("hybrid: cancel_common_roots", 2000, || {
        black_box(tf.clone().cancel_common_roots(1e-5));
    });
    let tfc = tf.clone().cancel_common_roots(1e-5);
    time_us("hybrid: unity_gain_freq", 2000, || {
        black_box(tfc.unity_gain_freq(1e4, 50e9));
    });
    let fu0 = tfc.unity_gain_freq(1e4, 50e9).unwrap_or(1e6);
    time_us("hybrid: phase_exact_deg x2", 2000, || {
        black_box(tfc.phase_exact_deg(1e4) - tfc.phase_exact_deg(fu0));
    });
    time_us("hybrid: unity_gain+phase", 2000, || {
        if let Some(fu) = tfc.unity_gain_freq(1e4, 50e9) {
            black_box(tfc.phase_exact_deg(1e4) - tfc.phase_exact_deg(fu));
        }
    });
    let ev = telescopic_evaluator(&proc);
    let x = candidate.to_vec();
    for (label, local) in [
        ("hybrid: full evaluate (global)", false),
        ("hybrid: full evaluate (local)", true),
    ] {
        ev.set_local_phase(local);
        time_us(label, 2000, || match ev.evaluate(&x) {
            EvalOutcome::Ok(p) => {
                black_box(p);
            }
            EvalOutcome::Failed(e) => panic!("{e}"),
        });
    }
    solve_breakdown("telescopic", &tb.circuit, &dc_opts);

    // Chain leg breakdown on the 4-3-2 full pipeline.
    let spec13 = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let designs = design_chain(&spec13, &[4, 3, 2], &params);
    let blocks: Vec<adc_topopt::flow::MdacBlock> = designs
        .iter()
        .map(|d| {
            let req = adc_topopt::flow::ota_requirements(d, &spec13);
            let cfg = adc_synth::SynthConfig {
                iterations: 40,
                nm_iterations: 10,
                seed: 5,
                ..Default::default()
            };
            let result = adc_topopt::flow::synthesize_ota(&spec13.process, &req, &cfg, None);
            adc_topopt::flow::MdacBlock {
                key: d.spec.reuse_key(),
                requirements: req,
                result,
                retargeted: false,
                origin: adc_topopt::flow::BlockOrigin::Cold,
            }
        })
        .collect();
    let vtb = build_candidate_testbench(
        &spec13,
        &adc_topopt::enumerate::Candidate::new(vec![4, 3, 2]),
        &blocks,
        &params,
        &VerifyOptions::default(),
    )
    .expect("chain testbench");
    let chain_bench = BenchSetup::new(
        vtb.circuit.clone(),
        vtb.output,
        vtb.supply.clone(),
        vtb.devices.clone(),
    );
    let chain_opts = ChainOptions {
        dc: vtb.dc_options(),
        ..ChainOptions::default()
    };
    let mut chain_dc = DcWorkspace::new(&vtb.circuit).unwrap();
    let chain_dc_opts = vtb.dc_options();
    time_us("chain: DC", 200, || {
        black_box(dc_operating_point_with(&mut chain_dc, &vtb.circuit, &chain_dc_opts).unwrap());
    });
    let cop = dc_operating_point_with(&mut chain_dc, &vtb.circuit, &chain_dc_opts).unwrap();
    let mut ctf_ws = adc_sfg::nettf::NetTfWorkspace::new();
    time_us("chain: extract_tf_with", 200, || {
        black_box(
            adc_sfg::nettf::extract_tf_with(&mut ctf_ws, &vtb.circuit, &cop, vtb.output, &nettf)
                .unwrap(),
        );
    });
    let mut chain_ev = ChainEvaluator::new(chain_opts);
    time_us("chain: full evaluate", 200, || {
        black_box(chain_ev.evaluate(&chain_bench).expect("chain eval"));
    });
    solve_breakdown("chain 4-3-2", &vtb.circuit, &chain_dc_opts);
    tran_breakdown(&spec13, &vtb, designs.iter().map(|d| d.spec.gain).collect());
}

/// The transient sign-off leg on a chain testbench: the pieces of one
/// Newton iteration at the end of a sign-off run (the +δ leg's drive), and
/// a whole two-leg evaluation.
fn tran_breakdown(spec: &AdcSpec, tb: &adc_mdac::netlist::PipelineTestbench, gains: Vec<f64>) {
    use adc_spice::tran::{
        transient_adaptive, InitialCondition, TimeStepConfig, TranOptions, TranWorkspace,
    };
    use adc_synth::tran_chain::{TranChainEvaluator, TranChainOptions};

    let mut setup = adc_topopt::verify::build_tran_setup(spec, tb, gains);
    let chain = TranChainOptions::default();
    let op = dc_operating_point_with(
        &mut DcWorkspace::new(&setup.circuit).unwrap(),
        &setup.circuit,
        &setup.dc,
    )
    .unwrap();
    let opts = TranOptions {
        tstop: chain.periods as f64 * setup.clock.period(),
        clock: Some(setup.clock),
        ic: InitialCondition::Voltages(op.voltages().to_vec()),
        probes: setup.stage_outputs.clone(),
        ..Default::default()
    };
    let mut ws = TranWorkspace::new(&setup.circuit).unwrap();
    let run = transient_adaptive(
        &mut ws,
        &setup.circuit,
        &opts,
        &TimeStepConfig::for_clock(&setup.clock),
    )
    .unwrap();
    let prof = ws.profile_newton(&setup.circuit, 20_000);
    println!(
        "--- tran chain 4-3-2: dim {}, {} of {} factor rows reach a MOSFET, {:.2} Newton iterations per step ---",
        prof.dim,
        prof.dependent_rows,
        prof.dim,
        run.stats().newton_iters as f64 / run.stats().accepted as f64
    );
    for (label, us) in [
        ("tran: linear load (cached)", prof.linear_load_us),
        ("tran: linear load (restamp)", prof.linear_restamp_us),
        ("tran: linear mat-vec", prof.mat_vec_us),
        ("tran: MOSFET stamp", prof.mosfet_stamp_us),
        ("tran: full factor", prof.full_factor_us),
        ("tran: dependent-row refactor", prof.refactor_us),
        ("tran: solve", prof.solve_us),
    ] {
        println!("{label:40} {us:10.2} us");
    }
    let mut ev = TranChainEvaluator::new(chain);
    time_us("tran: two-leg evaluate", 20, || {
        black_box(ev.evaluate(&mut setup).expect("transient sign-off"));
    });
}
