//! Full-pipeline chain testbenches: the acceptance tests of the
//! hierarchical-netlist refactor.
//!
//! * the 13-bit winner's 4-3-2 chain (all front-end stages, ≥ 100 MNA
//!   unknowns) solves DC and extracts its end-to-end transfer function
//!   through the existing workspaces, with the sparse engine
//!   auto-selected and the report bit-identical under the dense override;
//! * a decoupled chain's per-stage DC operating points and transfer
//!   functions match standalone single-stage testbenches (inter-stage
//!   loading zeroed ⇒ stages are independent);
//! * the chain's small-signal gain agrees with the behavioural stage
//!   model's interstage-gain product;
//! * Markowitz fill on the chain pattern stays near-linear and the
//!   recalibrated `prefer_sparse` keeps the chain on the sparse path;
//! * the annealing-tail warm start (quantized acceptance costs) leaves
//!   synthesis trajectories bit-identical to the cold path on the
//!   telescopic bench.

use pipelined_adc::behav::stage::StageModel;
use pipelined_adc::mdac::netlist::{build_pipeline, MdacStageConfig, OtaSizing, PipelineOptions};
use pipelined_adc::mdac::opamp::{TelescopicParams, TwoStageParams};
use pipelined_adc::mdac::power::{design_chain, PowerModelParams};
use pipelined_adc::mdac::specs::AdcSpec;
use pipelined_adc::numerics::sparse::{prefer_sparse, CsrPattern, Symbolic};
use pipelined_adc::sfg::nettf::{extract_tf, NetTfOptions};
use pipelined_adc::spice::dc::dc_operating_point;
use pipelined_adc::spice::linearize::{SmallSignal, SolverChoice};
use pipelined_adc::synth::chain::{ChainEvaluator, ChainOptions, ChainReport};
use pipelined_adc::synth::hybrid::BenchSetup;

/// 4-3-2 stage configurations for the 13-bit spec with nominal OTA
/// sizings (two-stage for the high-gain first stage, telescopic behind).
fn chain_432(spec: &AdcSpec, params: &PowerModelParams) -> Vec<MdacStageConfig> {
    let designs = design_chain(spec, &[4, 3, 2], params);
    designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let ota = if i == 0 {
                OtaSizing::TwoStage(TwoStageParams::nominal())
            } else {
                OtaSizing::Telescopic(TelescopicParams::nominal())
            };
            MdacStageConfig::from_design(d, ota)
        })
        .collect()
}

fn chain_options(tb: &pipelined_adc::mdac::netlist::PipelineTestbench) -> ChainOptions {
    ChainOptions {
        dc: tb.dc_options(),
        ..Default::default()
    }
}

fn bench_of(tb: &pipelined_adc::mdac::netlist::PipelineTestbench) -> BenchSetup {
    BenchSetup::new(
        tb.circuit.clone(),
        tb.output,
        tb.supply.clone(),
        tb.devices.clone(),
    )
}

/// Acceptance: the full 13-bit 4-3-2 chain at MNA dim ≥ 100 solves DC,
/// extracts its end-to-end TF, auto-selects the sparse engines, and
/// reports bit-identically under the dense `SolverChoice` override.
#[test]
fn chain_432_solves_at_hundred_plus_unknowns_sparse_and_dense() {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let tb = build_pipeline(
        &spec.process,
        &chain_432(&spec, &params),
        &PipelineOptions::default(),
    )
    .unwrap();
    assert!(tb.mna_dim() >= 100, "MNA dim {}", tb.mna_dim());
    assert_eq!(tb.expected_gain, 64.0);

    let bench = bench_of(&tb);
    let mut auto = ChainEvaluator::new(chain_options(&tb));
    let report = auto.evaluate(&bench).unwrap();
    assert!(report.dc_sparse, "sparse DC must be auto-selected");
    assert!(report.tf_sparse, "sparse TF must be auto-selected");
    assert_eq!(report.mna_dim, tb.mna_dim());
    // End-to-end gain within a few percent of ∏G = 64 (finite loop gain).
    assert!(
        (report.gain - 64.0).abs() / 64.0 < 0.10,
        "chain gain {}",
        report.gain
    );
    // The extracted rational TF agrees with the direct probe.
    assert!(
        (report.tf_gain - report.gain).abs() / report.gain < 0.02,
        "tf {} vs probe {}",
        report.tf_gain,
        report.gain
    );
    assert!(report.bw_3db > 0.0 && report.settle_tau > 0.0);
    assert!(
        report.power > 1e-3 && report.power < 1.0,
        "{}",
        report.power
    );

    // Dense override: bit-identical quantized report.
    let mut dense = ChainEvaluator::with_solver(SolverChoice::Dense, chain_options(&tb));
    let rd = dense.evaluate(&bench).unwrap();
    assert!(!rd.dc_sparse && !rd.tf_sparse);
    assert_eq!(
        ChainReport {
            dc_sparse: rd.dc_sparse,
            tf_sparse: rd.tf_sparse,
            ..report.clone()
        },
        rd,
        "chain verify numbers must not depend on the solver engine"
    );
}

/// Pin of the automatic-engine sign-off of the 4-3-2 fixture below:
/// Newton iterations summed over both legs, and [`report_digest`].
const CHAIN_PIN_AUTO: (usize, u64) = (2724, 0xf85a_171e_889c_71b2);

/// Pin of the dense-engine sign-off of the same fixture: accepted plus
/// rejected steps, Newton iterations, and [`report_digest`].
const CHAIN_PIN_DENSE: (usize, usize, u64) = (1135, 2763, 0xb32c_ec4f_e84c_7d55);

/// Pin of the fixed-step sign-off of the same fixture at the automatic
/// run's smallest step: accepted steps, Newton iterations, and
/// [`report_digest`].
const CHAIN_PIN_FIXED: (usize, usize, u64) = (262_144, 778_085, 0x62d7_54fa_cdef_f85c);

/// FNV-1a digest of a transient sign-off report: the exact bits of every
/// quantized stage metric, the settled flags, the step and Newton
/// counters and the quantized smallest step.
fn report_digest(r: &pipelined_adc::synth::tran_chain::TranChainReport) -> u64 {
    use pipelined_adc::numerics::quant::Fingerprint;
    let mut fp = Fingerprint::new();
    for s in &r.stages {
        for v in [
            s.amplitude,
            s.settle_err,
            s.half_lsb,
            s.residue_gain,
            s.ideal_gain,
            s.settle_frac,
            s.max_slew,
            s.slew_frac,
        ] {
            fp = fp.add_u64(v.to_bits());
        }
        fp = fp.add_u64(u64::from(s.settled));
    }
    fp.add_u64(u64::from(r.all_settled))
        .add_u64(r.accepted as u64)
        .add_u64(r.rejected as u64)
        .add_u64(r.newton_iters as u64)
        .add_u64(r.min_dt.to_bits())
        .finish()
}

/// Acceptance: the 13-bit winner's 4-3-2 chain runs four full φ1/φ2
/// periods through the sparse adaptive transient engine, every stage
/// settles to ½ LSB by the end of its amplification phase, the adaptive
/// stepper needs ≥ 5× fewer steps than the fixed-step oracle at the
/// adaptive run's own minimum dt, and the dense engine reproduces the
/// quantized report bit-identically. The step count, the Newton
/// iterations and [`report_digest`] of both engines' adaptive runs and of
/// the fixed-step run are pinned exactly: the engine pin's fixtures are
/// small benches, and this is the chain-scale sign-off (dim 124, nodesets,
/// four periods).
///
/// The sign-off chain carries telescopic OTAs throughout: the nominal
/// two-stage front OTA of [`chain_432`] passes every small-signal check
/// but cannot settle the 0.94 pF first-stage array inside the 11.5 ns
/// amplification window — a deficit only the clocked transient leg can
/// see, asserted at the end as the negative control.
#[test]
fn chain_432_settles_under_real_clock_phases() {
    use pipelined_adc::synth::tran_chain::{TranChainEvaluator, TranChainOptions};
    use pipelined_adc::topopt::verify::build_tran_setup;

    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let designs = design_chain(&spec, &[4, 3, 2], &params);
    let gains: Vec<f64> = designs.iter().map(|d| d.spec.gain).collect();
    let telescopic: Vec<MdacStageConfig> = designs
        .iter()
        .map(|d| {
            MdacStageConfig::from_design(d, OtaSizing::Telescopic(TelescopicParams::nominal()))
        })
        .collect();
    let tb = build_pipeline(&spec.process, &telescopic, &PipelineOptions::default()).unwrap();
    let mut setup = build_tran_setup(&spec, &tb, gains.clone());
    let opts = TranChainOptions::default();
    assert!(opts.periods >= 4, "sign-off must cover ≥ 4 full periods");

    let mut ev = TranChainEvaluator::new(opts.clone());
    let report = ev.evaluate(&mut setup).unwrap();
    assert!(report.sparse, "chain must auto-select the CSR engine");
    assert_eq!(report.stages.len(), 3);
    // The step sequence is a pure function of the code: both legs'
    // accepted plus LTE-rejected steps are an exact invariant.
    assert_eq!(
        report.accepted + report.rejected,
        1135,
        "sign-off fixture step count drifted: {} accepted + {} rejected",
        report.accepted,
        report.rejected
    );
    assert_eq!(
        (report.newton_iters, report_digest(&report)),
        CHAIN_PIN_AUTO,
        "sign-off fixture pin drifted (Newton iterations, digest {:#018x})",
        report_digest(&report)
    );
    assert!(report.all_settled, "{report:#?}");
    for (k, s) in report.stages.iter().enumerate() {
        assert!(s.settled, "stage {k} missed ½ LSB: {s:#?}");
        // Inter-stage loading costs the front stages a few percent of
        // their ideal residue gains (visible only at the circuit level);
        // a tenth is the sign-off bound.
        assert!(
            (s.residue_gain - s.ideal_gain).abs() / s.ideal_gain < 0.10,
            "stage {k}: residue gain {} vs ideal {}",
            s.residue_gain,
            s.ideal_gain
        );
    }
    // The lightly loaded back stage transfers its residue accurately.
    let back = report.stages.last().unwrap();
    assert!(
        (back.residue_gain - back.ideal_gain).abs() / back.ideal_gain < 0.01,
        "back stage: {} vs {}",
        back.residue_gain,
        back.ideal_gain
    );

    // Dense override: every quantized stage metric is reproduced
    // bit-identically (the solver-agnostic report contract; raw step and
    // iteration counters may differ by a razor-edge LTE decision on this
    // MOSFET chain — the macromodel bit-identity test in `adc-synth` pins
    // them too).
    let mut dense = TranChainEvaluator::with_solver(SolverChoice::Dense, opts.clone());
    let rd = dense.evaluate(&mut setup).unwrap();
    assert!(!rd.sparse);
    assert_eq!(
        (
            rd.accepted + rd.rejected,
            rd.newton_iters,
            report_digest(&rd)
        ),
        CHAIN_PIN_DENSE,
        "dense sign-off fixture pin drifted (steps, Newton iterations, digest {:#018x})",
        report_digest(&rd)
    );
    assert_eq!(
        report.stages, rd.stages,
        "transient sign-off metrics must not depend on the solver engine"
    );
    assert_eq!(report.all_settled, rd.all_settled);
    assert_eq!(report.min_dt, rd.min_dt);

    // Fixed-step oracle at the adaptive run's own minimum dt: same
    // accuracy (residue gains agree within the LTE tolerance), ≥ 5× the
    // step count.
    let rf = ev.evaluate_fixed(&mut setup, report.min_dt).unwrap();
    for (k, (a, f)) in report.stages.iter().zip(rf.stages.iter()).enumerate() {
        assert!(
            (a.residue_gain - f.residue_gain).abs() / f.residue_gain < 0.02,
            "stage {k}: adaptive gain {} vs fixed {}",
            a.residue_gain,
            f.residue_gain
        );
    }
    assert!(
        rf.accepted >= 5 * report.accepted,
        "adaptive {} steps vs fixed {} — expected ≥ 5× savings",
        report.accepted,
        rf.accepted
    );
    assert_eq!(
        (rf.accepted, rf.newton_iters, report_digest(&rf)),
        CHAIN_PIN_FIXED,
        "fixed-step sign-off fixture pin drifted (steps, Newton iterations, digest {:#018x})",
        report_digest(&rf)
    );

    // Negative control: the standard fixture's nominal two-stage front
    // OTA passes the small-signal chain checks (see the tests above) but
    // must be caught here — it cannot settle the first-stage array to
    // ½ LSB inside the amplification window.
    let tb2 = build_pipeline(
        &spec.process,
        &chain_432(&spec, &params),
        &PipelineOptions::default(),
    )
    .unwrap();
    let mut setup2 = build_tran_setup(&spec, &tb2, gains);
    let slow = TranChainEvaluator::new(opts).evaluate(&mut setup2).unwrap();
    assert!(
        !slow.stages[0].settled && !slow.all_settled,
        "the slow two-stage front OTA must fail transient sign-off: {:#?}",
        slow.stages[0]
    );
}

/// Property: with inter-stage loading zeroed (every stage driven by its
/// own source, chain edges cut), each stage of the flattened chain matches
/// a standalone single-stage testbench — DC operating point and per-stage
/// transfer function.
#[test]
fn decoupled_chain_matches_standalone_stages() {
    let spec = AdcSpec::date05(10);
    let params = PowerModelParams::calibrated();
    let designs = design_chain(&spec, &[3, 2], &params);
    let configs: Vec<MdacStageConfig> = designs
        .iter()
        .map(|d| {
            MdacStageConfig::from_design(d, OtaSizing::Telescopic(TelescopicParams::nominal()))
        })
        .collect();
    let opts = PipelineOptions {
        with_sub_adc: false,
        decouple: true,
        ..Default::default()
    };
    let tb = build_pipeline(&spec.process, &configs, &opts).unwrap();
    let op = dc_operating_point(&tb.circuit, &tb.dc_options()).unwrap();

    for (k, cfg) in configs.iter().enumerate() {
        let alone = build_pipeline(
            &spec.process,
            std::slice::from_ref(cfg),
            &PipelineOptions {
                with_sub_adc: false,
                decouple: true,
                ..Default::default()
            },
        )
        .unwrap();
        let op_a = dc_operating_point(&alone.circuit, &alone.dc_options()).unwrap();
        // DC: every mapped internal node of stage k agrees with the
        // standalone stage.
        for local in ["sum", "fb", "vb", "lp", "ota.ncasc", "ota.npcasc"] {
            let n_chain = tb.stages[k].node(local).unwrap();
            let n_alone = alone.stages[0].node(local).unwrap();
            let (vc, va) = (op.voltage(n_chain), op_a.voltage(n_alone));
            assert!(
                (vc - va).abs() < 1e-6,
                "stage {k} node {local}: chain {vc} vs standalone {va}"
            );
        }
        let (oc, oa) = (op.voltage(tb.stage_outputs[k]), op_a.voltage(alone.output));
        assert!((oc - oa).abs() < 1e-6, "stage {k} out: {oc} vs {oa}");

        // TF to this stage's output: only its own stimulus reaches it, so
        // the chain extraction equals the standalone one.
        let tf_c = extract_tf(
            &tb.circuit,
            &op,
            tb.stage_outputs[k],
            &NetTfOptions::default(),
        )
        .unwrap()
        .cancel_common_roots(1e-5);
        let tf_a = extract_tf(
            &alone.circuit,
            &op_a,
            alone.output,
            &NetTfOptions::default(),
        )
        .unwrap()
        .cancel_common_roots(1e-5);
        for f in [1e5, 1e6, 1e7] {
            let (mc, ma) = (tf_c.magnitude(f), tf_a.magnitude(f));
            assert!(
                (mc - ma).abs() / ma.max(1e-12) < 1e-4,
                "stage {k} @ {f} Hz: chain {mc} vs standalone {ma}"
            );
        }
    }
}

/// Cross-check against the behavioural layer: the chain's small-signal
/// gain magnitude matches the product of the behavioural stage models'
/// interstage gains within the finite-loop-gain tolerance.
#[test]
fn chain_gain_matches_behavioural_stage_model() {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let tb = build_pipeline(
        &spec.process,
        &chain_432(&spec, &params),
        &PipelineOptions::default(),
    )
    .unwrap();
    let mut ev = ChainEvaluator::new(chain_options(&tb));
    let report = ev.evaluate(&bench_of(&tb)).unwrap();
    let behav_gain: f64 = [4u32, 3, 2]
        .iter()
        .map(|&m| StageModel::ideal(m).gain())
        .product();
    assert_eq!(behav_gain, 64.0);
    assert!(
        (report.gain - behav_gain).abs() / behav_gain < 0.10,
        "chain {} vs behavioural {}",
        report.gain,
        behav_gain
    );
}

/// The chain's small-signal pattern is ladder-shaped: Markowitz fill stays
/// near-linear in the dimension and the recalibrated `prefer_sparse`
/// keeps it on the sparse path.
#[test]
fn chain_pattern_fill_is_near_linear() {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let tb = build_pipeline(
        &spec.process,
        &chain_432(&spec, &params),
        &PipelineOptions::default(),
    )
    .unwrap();
    let op = dc_operating_point(&tb.circuit, &tb.dc_options()).unwrap();
    let mut ss = SmallSignal::new();
    ss.bind(&tb.circuit, &op, 0.0).unwrap();
    let dim = ss.dim();
    let entries: Vec<(usize, usize)> = ss
        .base
        .iter()
        .chain(ss.cap_entries.iter())
        .map(|&(r, c, _)| (r, c))
        .collect();
    let (pattern, _) = CsrPattern::from_entries(dim, &entries);
    assert!(
        prefer_sparse(dim, pattern.nnz()),
        "dim {dim}, nnz {} must stay sparse",
        pattern.nnz()
    );
    let sym = Symbolic::analyze(&pattern).unwrap();
    assert!(
        sym.factor_nnz() <= 10 * dim,
        "factor nnz {} not near-linear at dim {dim}",
        sym.factor_nnz()
    );
}

/// Satellite property: enabling the annealing-tail warm start (quantized
/// acceptance costs) must leave the synthesis trajectory bit-identical to
/// the cold path on the telescopic bench.
#[test]
fn warm_tail_trajectories_match_cold_on_telescopic_bench() {
    use pipelined_adc::mdac::opamp::{build_telescopic, TelescopicHandles};
    use pipelined_adc::numerics::Deadline;
    use pipelined_adc::spice::netlist::Circuit;
    use pipelined_adc::synth::anneal::anneal;
    use pipelined_adc::synth::hybrid::{BenchTuner, HybridOptions, HybridOtaEvaluator};
    use pipelined_adc::synth::{Constraint, ConstraintKind, DesignSpace, DesignVar, SynthConfig};
    use std::rc::Rc;

    let proc = spice_process();
    let build = move |x: &[f64]| {
        let tb = build_telescopic(&proc, &TelescopicParams::from_vec(x), 1e-12);
        let handles = TelescopicHandles::resolve(&tb.circuit).unwrap();
        let tuner: BenchTuner = Rc::new(move |ckt: &mut Circuit, x: &[f64]| {
            handles.retune(ckt, &TelescopicParams::from_vec(x));
        });
        BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices).with_tuner(tuner)
    };
    let space = DesignSpace::new(
        TelescopicParams::bounds()
            .into_iter()
            .map(|b| {
                if b.log {
                    DesignVar::log(b.name, b.lo, b.hi)
                } else {
                    DesignVar::linear(b.name, b.lo, b.hi)
                }
            })
            .collect(),
    );
    let constraints = vec![
        Constraint::new("a0", ConstraintKind::AtLeast, 300.0),
        Constraint::new("pm", ConstraintKind::AtLeast, 45.0),
        Constraint::new("saturated", ConstraintKind::AtLeast, 1.0),
    ];
    let run = |warm_tail_frac: f64| {
        let evaluator = HybridOtaEvaluator::new(build.clone(), HybridOptions::default());
        let cfg = SynthConfig {
            iterations: 120,
            seed: 17,
            warm_tail_frac,
            cost_quant_digits: Some(6),
            ..Default::default()
        };
        anneal(
            &space,
            &evaluator,
            &constraints,
            "power",
            &cfg,
            None,
            Deadline::none(),
        )
    };
    let warm = run(0.4);
    let cold = run(0.0);
    assert_eq!(warm.best_u, cold.best_u, "trajectories diverged");
    assert_eq!(warm.evaluations, cold.evaluations);
    assert_eq!(warm.feasible, cold.feasible);
    assert_eq!(
        warm.history, cold.history,
        "quantized best-cost traces must be identical"
    );
}

fn spice_process() -> pipelined_adc::spice::process::Process {
    pipelined_adc::spice::process::Process::c025()
}
