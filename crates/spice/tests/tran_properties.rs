//! Property-based tests on the transient engines: the adaptive stepper
//! against the fixed-step oracle, workspace-reuse determinism,
//! sparse-vs-dense agreement on randomized OTA netlists, and probe-only
//! recording against the full record.

use adc_spice::netlist::{Circuit, ClockPhase, NodeId};
use adc_spice::process::Process;
use adc_spice::tran::{
    transient, transient_adaptive, transient_with, Clock, TimeStepConfig, TranOptions,
    TranWorkspace,
};
use adc_spice::waveform::Waveform;
use adc_spice::SolverChoice;
use proptest::prelude::*;

/// RC low-pass driven by a voltage step.
fn rc_fixture(r: f64, c_f: f64) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add_vsource("V1", vin, Circuit::GROUND, 1.0);
    c.add_resistor("R1", vin, out, r);
    c.add_capacitor("C1", out, Circuit::GROUND, c_f);
    (c, out)
}

/// Switched-cap track-and-hold: φ1 tracks the source, φ2 floats the cap.
fn switched_cap_fixture(ron: f64, ch: f64) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let hold = c.node("hold");
    c.add_vsource("V1", vin, Circuit::GROUND, 1.0);
    c.add_switch("S1", vin, hold, ron, 1e12, ClockPhase::Phi1, false);
    c.add_capacitor("CH", hold, Circuit::GROUND, ch);
    (c, hold)
}

/// Single-ended common-source OTA stage with load cap and a sampling
/// switch — the smallest netlist exercising every transient stamp kind
/// (MOSFET, R, C, switch, sources).
fn ota_fixture(w_um: f64, rd_kohm: f64, cl_pf: f64) -> (Circuit, NodeId) {
    let p = Process::c025();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let d = c.node("d");
    let out = c.node("out");
    c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
    c.add_vsource_wave(
        "VG",
        g,
        Circuit::GROUND,
        Waveform::Pulse {
            v0: 0.8,
            v1: 1.1,
            delay: 20e-9,
            rise: 1e-9,
            fall: 1e-9,
            width: 1.0,
            period: 0.0,
        },
        0.0,
    );
    c.add_resistor("RD", vdd, d, rd_kohm * 1e3);
    c.add_mosfet(
        "M1",
        d,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        p.nmos,
        w_um * 1e-6,
        0.5e-6,
    );
    c.add_switch("S1", d, out, 200.0, 1e12, ClockPhase::Phi1, true);
    c.add_capacitor("CL", out, Circuit::GROUND, cl_pf * 1e-12);
    (c, out)
}

proptest! {
    /// The adaptive stepper lands on the fixed-step oracle's trajectory
    /// within the LTE tolerance budget on randomized RC fixtures.
    #[test]
    fn adaptive_matches_fixed_oracle_on_rc(
        r in 1.0f64..100.0,
        cap in 0.1f64..10.0,
    ) {
        let (c, out) = rc_fixture(r * 1e3, cap * 1e-9);
        let tau = r * 1e3 * cap * 1e-9;
        let opts = TranOptions {
            tstop: 5.0 * tau,
            dt: tau / 500.0,
            ..Default::default()
        };
        let oracle = transient(&c, &opts).unwrap();
        let mut ws = TranWorkspace::new(&c).unwrap();
        let cfg = TimeStepConfig {
            dt_init: tau / 500.0,
            dt_min: tau / 50_000.0,
            dt_max: tau / 2.0,
        };
        let adaptive = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        for frac in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let want = oracle.sample_at(out, t);
            let got = adaptive.sample_at(out, t);
            prop_assert!((got - want).abs() < 5e-3,
                "v({frac}τ): adaptive {got} vs oracle {want}");
        }
        prop_assert!(adaptive.stats().accepted < oracle.stats().accepted,
            "adaptive took {} steps, oracle {}",
            adaptive.stats().accepted, oracle.stats().accepted);
    }

    /// Same agreement on clocked switched-cap fixtures: the held voltage
    /// after each phase matches the oracle.
    #[test]
    fn adaptive_matches_fixed_oracle_on_switched_cap(
        ron in 50.0f64..500.0,
        ch in 0.5f64..5.0,
    ) {
        let (c, hold) = switched_cap_fixture(ron, ch * 1e-12);
        let clk = Clock { freq: 1e6, nonoverlap: 10e-9 };
        let opts = TranOptions {
            tstop: 2e-6,
            dt: 0.5e-9,
            clock: Some(clk),
            ..Default::default()
        };
        let oracle = transient(&c, &opts).unwrap();
        let mut ws = TranWorkspace::new(&c).unwrap();
        let cfg = TimeStepConfig::for_clock(&clk);
        let adaptive = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        for probe in [0.4e-6, 0.9e-6, 1.4e-6, 1.9e-6] {
            let want = oracle.sample_at(hold, probe);
            let got = adaptive.sample_at(hold, probe);
            prop_assert!((got - want).abs() < 5e-3,
                "v({probe:e}): adaptive {got} vs oracle {want}");
        }
    }

    /// Two runs through one reused workspace are bit-identical to runs
    /// through fresh workspaces — no state leaks between runs.
    #[test]
    fn workspace_reuse_bit_identity(
        r in 1.0f64..100.0,
        cap in 0.1f64..10.0,
    ) {
        let (c, _) = rc_fixture(r * 1e3, cap * 1e-9);
        let tau = r * 1e3 * cap * 1e-9;
        let opts = TranOptions {
            tstop: 3.0 * tau,
            dt: tau / 200.0,
            ..Default::default()
        };
        let cfg = TimeStepConfig {
            dt_init: tau / 200.0,
            dt_min: tau / 20_000.0,
            dt_max: tau / 2.0,
        };
        let mut ws = TranWorkspace::new(&c).unwrap();
        let f1 = transient_with(&mut ws, &c, &opts).unwrap();
        let a1 = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        let f2 = transient_with(&mut ws, &c, &opts).unwrap();
        let a2 = transient_adaptive(&mut ws, &c, &opts, &cfg).unwrap();
        let mut fresh = TranWorkspace::new(&c).unwrap();
        let f3 = transient_with(&mut fresh, &c, &opts).unwrap();
        let mut fresh2 = TranWorkspace::new(&c).unwrap();
        let a3 = transient_adaptive(&mut fresh2, &c, &opts, &cfg).unwrap();
        prop_assert!(f1.times() == f2.times() && f1.times() == f3.times());
        prop_assert!(a1.times() == a2.times() && a1.times() == a3.times());
        let node = NodeId::from_index(1);
        for k in 0..f1.len() {
            prop_assert!(f1.voltage_at(node, k) == f2.voltage_at(node, k));
            prop_assert!(f1.voltage_at(node, k) == f3.voltage_at(node, k));
        }
        for k in 0..a1.len() {
            prop_assert!(a1.voltage_at(node, k) == a2.voltage_at(node, k));
            prop_assert!(a1.voltage_at(node, k) == a3.voltage_at(node, k));
        }
    }

    /// Forced-sparse and forced-dense workspace engines agree on
    /// randomized clocked OTA netlists, fixed-step and adaptive (the
    /// quantized LTE controller keeps the step sequences in lockstep).
    #[test]
    fn sparse_matches_dense_on_randomized_ota(
        w in 5.0f64..80.0,
        rd in 2.0f64..40.0,
        cl in 0.2f64..4.0,
    ) {
        let (c, out) = ota_fixture(w, rd, cl);
        let clk = Clock { freq: 5e6, nonoverlap: 4e-9 };
        let opts = TranOptions {
            tstop: 400e-9,
            dt: 0.5e-9,
            clock: Some(clk),
            ..Default::default()
        };
        let mut dense = TranWorkspace::with_solver(&c, SolverChoice::Dense).unwrap();
        let mut sparse = TranWorkspace::with_solver(&c, SolverChoice::Sparse).unwrap();
        prop_assert!(!dense.is_sparse());
        prop_assert!(sparse.is_sparse());
        let rd_fixed = transient_with(&mut dense, &c, &opts).unwrap();
        let rs_fixed = transient_with(&mut sparse, &c, &opts).unwrap();
        prop_assert!(rd_fixed.len() == rs_fixed.len());
        for k in 0..rd_fixed.len() {
            let (a, b) = (rd_fixed.voltage_at(out, k), rs_fixed.voltage_at(out, k));
            prop_assert!((a - b).abs() < 1e-6, "fixed k={k}: dense {a} vs sparse {b}");
        }
        let cfg = TimeStepConfig::for_clock(&clk);
        let ra = transient_adaptive(&mut dense, &c, &opts, &cfg).unwrap();
        let rb = transient_adaptive(&mut sparse, &c, &opts, &cfg).unwrap();
        prop_assert!(ra.len() == rb.len(),
            "step sequences diverged: dense {} samples, sparse {}", ra.len(), rb.len());
        for k in 0..ra.len() {
            prop_assert!(ra.times()[k] == rb.times()[k], "time axis diverged at {k}");
            let (a, b) = (ra.voltage_at(out, k), rb.voltage_at(out, k));
            prop_assert!((a - b).abs() < 1e-6, "adaptive k={k}: dense {a} vs sparse {b}");
        }
    }

    /// Recording only probed nodes changes what the result stores, never
    /// what is simulated: every probed column is `to_bits()`-equal to the
    /// same column of a full record, with the same time axis and counters,
    /// fixed-step and adaptive, on both engines (and the dense oracle).
    #[test]
    fn probed_columns_match_full_record_bitwise(
        w in 5.0f64..80.0,
        rd in 2.0f64..40.0,
        cl in 0.2f64..4.0,
        reverse in proptest::bool::ANY,
    ) {
        let (c, out) = ota_fixture(w, rd, cl);
        let d = c.find_node("d").unwrap();
        let mut probes = vec![out, Circuit::GROUND, d];
        if reverse {
            probes.reverse();
        }
        let clk = Clock { freq: 5e6, nonoverlap: 4e-9 };
        let full_opts = TranOptions {
            tstop: 400e-9,
            dt: 0.5e-9,
            clock: Some(clk),
            ..Default::default()
        };
        let probe_opts = TranOptions { probes: probes.clone(), ..full_opts.clone() };
        let cfg = TimeStepConfig::for_clock(&clk);
        let mut runs = vec![(
            "oracle",
            transient(&c, &full_opts).unwrap(),
            transient(&c, &probe_opts).unwrap(),
        )];
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut ws = TranWorkspace::with_solver(&c, choice).unwrap();
            runs.push((
                "fixed",
                transient_with(&mut ws, &c, &full_opts).unwrap(),
                transient_with(&mut ws, &c, &probe_opts).unwrap(),
            ));
            runs.push((
                "adaptive",
                transient_adaptive(&mut ws, &c, &full_opts, &cfg).unwrap(),
                transient_adaptive(&mut ws, &c, &probe_opts, &cfg).unwrap(),
            ));
        }
        for (label, full, probed) in &runs {
            prop_assert!(full.times() == probed.times(), "{label}: time axis");
            prop_assert!(full.stats() == probed.stats(), "{label}: counters");
            for &p in &probes {
                for k in 0..full.len() {
                    prop_assert!(
                        full.voltage_at(p, k).to_bits() == probed.voltage_at(p, k).to_bits(),
                        "{label}: node {} sample {k}", p.index()
                    );
                }
            }
        }
    }
}
