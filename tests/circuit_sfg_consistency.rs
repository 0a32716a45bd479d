//! Cross-crate consistency: the three independent small-signal analyses —
//! AC sweep (adc-spice), symbolic DPI/SFG + Mason (adc-sfg), and
//! determinant-interpolation TF extraction (adc-sfg::nettf) — must agree on
//! the same linearized circuit.

use pipelined_adc::mdac::opamp::{
    build_telescopic, build_two_stage, OtaTestbench, TelescopicParams, TwoStageParams,
};
use pipelined_adc::numerics::interp::logspace;
use pipelined_adc::sfg::dpi::DpiSfg;
use pipelined_adc::sfg::nettf::{extract_tf, NetTfOptions};
use pipelined_adc::spice::ac::{ac_sweep, ac_sweep_with, AcWorkspace};
use pipelined_adc::spice::dc::{dc_operating_point, DcOptions};
use pipelined_adc::spice::netlist::Circuit;
use pipelined_adc::spice::process::Process;
use pipelined_adc::synth::evaluator::{EvalOutcome, Evaluator};
use pipelined_adc::synth::hybrid::{BenchSetup, HybridOptions, HybridOtaEvaluator};
use proptest::prelude::*;

/// Builds a two-transistor cascode amplifier parameterized by device sizes.
fn cascode_amp(
    w1_um: f64,
    wc_um: f64,
    rd_kohm: f64,
) -> (Circuit, adc_spice::NodeId, adc_spice::NodeId) {
    let p = Process::c025();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let mid = c.node("mid");
    let d = c.node("d");
    c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
    c.add_vsource_wave("VG", g, Circuit::GROUND, 0.75.into(), 1.0);
    let vb = c.node("vb");
    c.add_vsource("VB", vb, Circuit::GROUND, 1.6);
    c.add_resistor("RD", vdd, d, rd_kohm * 1e3);
    c.add_capacitor("CL", d, Circuit::GROUND, 0.5e-12);
    c.add_mosfet(
        "M1",
        mid,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        p.nmos,
        w1_um * 1e-6,
        0.5e-6,
    );
    c.add_mosfet(
        "M2",
        d,
        vb,
        mid,
        Circuit::GROUND,
        p.nmos,
        wc_um * 1e-6,
        0.35e-6,
    );
    (c, g, d)
}

#[test]
fn three_analyses_agree_on_cascode() {
    let (ckt, input, output) = cascode_amp(8.0, 10.0, 20.0);
    let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();

    let dpi = DpiSfg::build(&ckt, &op, input).unwrap();
    let tf_mason = dpi.tf(output).unwrap();
    let tf_net = extract_tf(
        &ckt,
        &op,
        output,
        &NetTfOptions {
            radius: 1e9,
            trim_rel: 1e-10,
        },
    )
    .unwrap();

    let freqs = logspace(1e4, 10e9, 25);
    let sweep = ac_sweep(&ckt, &op, &freqs).unwrap();
    for (k, &f) in freqs.iter().enumerate() {
        let h_ac = sweep.voltage(output, k);
        let h_mason = tf_mason.eval_at_freq(f);
        let h_net = tf_net.eval_at_freq(f);
        let e1 = (h_mason - h_ac).norm() / h_ac.norm().max(1e-12);
        let e2 = (h_net - h_ac).norm() / h_ac.norm().max(1e-12);
        assert!(e1 < 1e-6, "Mason vs AC at {f} Hz: {e1}");
        assert!(e2 < 1e-3, "nettf vs AC at {f} Hz: {e2}");
    }
}

/// The hybrid evaluator's equation path (TF extraction with common
/// pole/zero cancellation) and a one-point AC sweep agree on the nominal
/// telescopic OTA's low-frequency gain within 1 %.
#[test]
fn equation_and_ac_gain_agree_on_telescopic_ota() {
    let tb = build_telescopic(&Process::c025(), &TelescopicParams::nominal(), 1e-12);
    let op = dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap();
    let a0_eq = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
        .unwrap()
        .cancel_common_roots(1e-5)
        .magnitude(1e4);
    let sweep = ac_sweep(&tb.circuit, &op, &[1e4]).unwrap();
    let a0_sim = sweep.voltage(tb.output, 0).norm();
    assert!(
        (a0_eq - a0_sim).abs() < 0.01 * a0_sim,
        "paths disagree: {a0_eq} vs {a0_sim}"
    );
}

/// The hybrid evaluator's unity-gain frequency, from the flow's call of
/// the crossing search on the cancelled TF, agrees with a crossing
/// bisected on `|V(out)|` of AC analysis of the same testbench at its DC
/// point. Nominal telescopic and two-stage OTAs at 0.3, 1 and 3 pF: the
/// telescopic ones read 0.9–1.1e-10 relative apart, the two-stage ones
/// 5.5–7.8e-10.
#[test]
fn evaluator_unity_freq_matches_ac_crossing() {
    let process = Process::c025();
    for c_load in [0.3e-12, 1e-12, 3e-12] {
        check_unity_freq_against_ac(
            &format!("telescopic at {c_load:e} F"),
            |x| build_telescopic(&process, &TelescopicParams::from_vec(x), c_load),
            &TelescopicParams::nominal().to_vec(),
        );
        check_unity_freq_against_ac(
            &format!("two-stage at {c_load:e} F"),
            |x| build_two_stage(&process, &TwoStageParams::from_vec(x), c_load),
            &TwoStageParams::nominal().to_vec(),
        );
    }
}

/// Evaluates sizing `x` with a default-option evaluator started at `x`,
/// bisects `|V(out)| = 1` in ±10 % of its `unity_freq` on one-frequency
/// AC sweeps (60 steps), and requires agreement within 1e-8 relative.
fn check_unity_freq_against_ac(case: &str, build: impl Fn(&[f64]) -> OtaTestbench, x: &[f64]) {
    let opts = HybridOptions::default();
    let evaluator = HybridOtaEvaluator::new(
        |x: &[f64]| {
            let tb = build(x);
            BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices)
        },
        opts.clone(),
    )
    .with_start_sizing(x);
    let EvalOutcome::Ok(perf) = evaluator.evaluate(x) else {
        panic!("{case}: evaluation failed");
    };
    let fu = perf.get("unity_freq").expect("unity_freq");
    assert!(fu > 0.0, "{case}: no unity crossing");

    let tb = build(x);
    let op = dc_operating_point(&tb.circuit, &opts.dc).unwrap();
    let mut ws = AcWorkspace::new(&tb.circuit, &op).unwrap();
    let mut gain = |f: f64| {
        ac_sweep_with(&mut ws, &[f])
            .unwrap()
            .voltage(tb.output, 0)
            .norm()
    };
    let (mut a, mut b) = (0.9 * fu, 1.1 * fu);
    assert!(
        gain(a) > 1.0 && gain(b) <= 1.0,
        "{case}: ±10 % misses the crossing"
    );
    for _ in 0..60 {
        let mid = (a * b).sqrt();
        if gain(mid) > 1.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    let fu_ac = (a * b).sqrt();
    let rel = (fu - fu_ac).abs() / fu_ac;
    assert!(
        rel < 1e-8,
        "{case}: {fu:e} vs AC {fu_ac:e} ({rel:e} relative)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across random sizings, the DPI/SFG symbolic result matches the AC
    /// sweep at three spot frequencies.
    #[test]
    fn mason_matches_ac_for_random_sizings(
        w1 in 3.0f64..40.0,
        wc in 3.0f64..40.0,
        rd in 5.0f64..40.0,
    ) {
        let (ckt, input, output) = cascode_amp(w1, wc, rd);
        let op = match dc_operating_point(&ckt, &DcOptions::default()) {
            Ok(op) => op,
            Err(_) => return Ok(()), // pathological bias: skip
        };
        let dpi = DpiSfg::build(&ckt, &op, input).unwrap();
        let tf = dpi.tf(output).unwrap();
        let freqs = [1e5, 50e6, 2e9];
        let sweep = ac_sweep(&ckt, &op, &freqs).unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            let h_ac = sweep.voltage(output, k);
            let h = tf.eval_at_freq(f);
            let err = (h - h_ac).norm() / h_ac.norm().max(1e-12);
            prop_assert!(err < 1e-6, "f = {f}: {err}");
        }
    }
}
