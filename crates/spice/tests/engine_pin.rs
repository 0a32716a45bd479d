//! Bit-level pin of the MNA engines: the real Jacobian engines behind DC
//! and transient analysis, and the complex small-signal engine behind AC
//! analysis and TF sampling.
//!
//! Every output is folded, `to_bits` by `to_bits`, into an FNV-1a digest,
//! once per engine: forced dense, forced sparse and automatic selection.
//! The DC rows cover cold and warm operating points under both
//! [`DcDamping`] strategies; the transient rows cover the time axis, every
//! node sample and the [`TranStats`] of fixed-step and adaptive runs on
//! clocked fixtures; the complex rows cover the determinant and solution
//! of serial, batched and demoted factorizations of
//! [`ComplexMnaWorkspace`] and an AC sweep. Each row also asserts which
//! engine ran on each fixture, so two rows can never silently pin the
//! same one. The fixtures are OTA benches, plus a macromodel stage with
//! its own digests that carries what the OTAs lack: VCCS gain stages, a
//! DC and a pulsed current source, and a switch whose DC state matters.
//!
//! A refactor of the engines must leave every digest unchanged. A change
//! that moves solver bits on purpose runs
//! `cargo test -p adc-spice --test engine_pin -- --nocapture`, which
//! prints the digests it computed, replaces the constants below with
//! them, and says in its change record which rows moved and why. Run it on
//! both SIMD backends (`ADC_FORCE_SCALAR=1` too): the digests must agree.

use adc_numerics::complex::Complex;
use adc_spice::dc::{
    dc_operating_point_warm, dc_operating_point_with, DcDamping, DcOptions, DcWorkspace,
};
use adc_spice::netlist::{Circuit, ClockPhase, Element, NodeId};
use adc_spice::process::Process;
use adc_spice::tran::{
    transient_adaptive, transient_with, Clock, InitialCondition, TimeStepConfig, TranOptions,
    TranResult, TranWorkspace,
};
use adc_spice::waveform::Waveform;
use adc_spice::{
    ac_sweep_with, AcWorkspace, ComplexMnaWorkspace, OperatingPoint, SmallSignal, SolverChoice,
};

/// Expected digests: `(label, engine, DC digest, transient digest)`.
const PINS: [(&str, SolverChoice, u64, u64); 3] = [
    (
        "dense",
        SolverChoice::Dense,
        0x6b5c_eb99_54ac_cbcd,
        0x05bb_b31e_e364_2edf,
    ),
    (
        "sparse",
        SolverChoice::Sparse,
        0xf959_f237_8030_4256,
        0x0fb6_d2f9_7845_d077,
    ),
    (
        "auto",
        SolverChoice::Auto,
        0xf959_f237_8030_4256,
        0x2e8d_ba6e_4da8_37f7,
    ),
];

/// Expected complex-engine digests: `(label, engine, digest)`.
const COMPLEX_PINS: [(&str, SolverChoice, u64); 3] = [
    ("dense", SolverChoice::Dense, 0xb6ee_f365_fe43_b7fb),
    ("sparse", SolverChoice::Sparse, 0xbd96_576b_e9c8_a960),
    ("auto", SolverChoice::Auto, 0x692c_130f_595c_c1f2),
];

/// Expected digests of the macromodel fixture, whose element kinds the OTA
/// benches lack: `(label, engine, DC digest, transient digest, complex
/// digest)`.
const MACRO_PINS: [(&str, SolverChoice, u64, u64, u64); 3] = [
    (
        "dense",
        SolverChoice::Dense,
        0xfc83_c745_a546_e3e7,
        0xd130_6303_e178_e913,
        0x02d0_60b8_ae5e_43f1,
    ),
    (
        "sparse",
        SolverChoice::Sparse,
        0xbde6_495c_374c_db8b,
        0x5559_e4d7_81df_9a5b,
        0x5b31_cdc5_6c29_4cfe,
    ),
    (
        "auto",
        SolverChoice::Auto,
        0xbde6_495c_374c_db8b,
        0x5559_e4d7_81df_9a5b,
        0x5b31_cdc5_6c29_4cfe,
    ),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn complex(&mut self, z: Complex) {
        self.float(z.re);
        self.float(z.im);
    }

    /// A factorization's determinant and the solution it gave.
    fn solve(&mut self, det: Complex, x: &[Complex]) {
        self.complex(det);
        for &v in x {
            self.complex(v);
        }
    }
}

/// Output-servo bias network of the synthesis testbenches: a slow
/// low-pass of the output drives a VCVS that sets the input bias.
fn add_servo(c: &mut Circuit, out: NodeId, inverting: bool) -> NodeId {
    let vt = c.node("servo_target");
    let lp = c.node("servo_lp");
    let vb = c.node("servo_bias");
    c.add_vsource("VTGT", vt, Circuit::GROUND, 1.65);
    c.add_resistor("RLP", out, lp, 1e6);
    c.add_capacitor("CLP", lp, Circuit::GROUND, 1e-3);
    if inverting {
        c.add_vcvs("ESRV", vb, Circuit::GROUND, lp, vt, 200.0);
    } else {
        c.add_vcvs("ESRV", vb, Circuit::GROUND, vt, lp, 200.0);
    }
    vb
}

/// Telescopic-cascode OTA with its bias servo; `vin` drives the input in
/// series with the servo bias. Returns the circuit and its output node.
fn telescopic(vin: Waveform) -> (Circuit, NodeId) {
    let p = Process::c025();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let nc = c.node("ncasc");
    let out = c.node("out");
    let np = c.node("npcasc");
    let vbn = c.node("vbn");
    let vbp1 = c.node("vbp1");
    let vbp2 = c.node("vbp2");
    c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
    c.add_vsource("VBN", vbn, Circuit::GROUND, 1.3);
    c.add_vsource("VBP1", vbp1, Circuit::GROUND, 1.9);
    c.add_vsource("VBP2", vbp2, Circuit::GROUND, 2.45);
    let gnd = Circuit::GROUND;
    c.add_mosfet("M1", nc, g, gnd, gnd, p.nmos, 60e-6, 0.5e-6);
    c.add_mosfet("M2", out, vbn, nc, gnd, p.nmos, 60e-6, 0.5e-6);
    c.add_mosfet("M3", out, vbp1, np, vdd, p.pmos, 120e-6, 0.5e-6);
    c.add_mosfet("M4", np, vbp2, vdd, vdd, p.pmos, 120e-6, 0.5e-6);
    c.add_capacitor("CL", out, gnd, 1e-12);
    let vb = add_servo(&mut c, out, true);
    c.add_vsource_wave("VIN", g, vb, vin, 1.0);
    (c, out)
}

/// Two-stage Miller OTA with a zero-nulling resistor and its bias servo.
fn two_stage() -> Circuit {
    let p = Process::c025();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let n1 = c.node("n1");
    let out = c.node("out");
    let cz = c.node("cz");
    let vbp = c.node("vbp");
    let vbn2 = c.node("vbn2");
    c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
    c.add_vsource("VBP", vbp, Circuit::GROUND, 2.45);
    c.add_vsource("VBN2", vbn2, Circuit::GROUND, 0.75);
    let gnd = Circuit::GROUND;
    c.add_mosfet("M1", n1, g, gnd, gnd, p.nmos, 40e-6, 0.6e-6);
    c.add_mosfet("M2", n1, vbp, vdd, vdd, p.pmos, 60e-6, 0.6e-6);
    c.add_mosfet("M3", out, n1, vdd, vdd, p.pmos, 200e-6, 0.5e-6);
    c.add_mosfet("M4", out, vbn2, gnd, gnd, p.nmos, 40e-6, 0.5e-6);
    c.add_capacitor("CC", n1, cz, 1.5e-12);
    c.add_resistor("RZ", cz, out, 500.0);
    c.add_capacitor("CL", out, gnd, 2e-12);
    let vb = add_servo(&mut c, out, false);
    c.add_vsource_wave("VIN", g, vb, Waveform::Dc(0.0), 1.0);
    c
}

/// Resistively loaded common-source stage behind a clocked sampling
/// switch: small enough that automatic selection keeps it dense.
fn common_source(vg: Waveform, ac: f64) -> (Circuit, NodeId) {
    let p = Process::c025();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let d = c.node("d");
    let out = c.node("out");
    c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
    c.add_vsource_wave("VG", g, Circuit::GROUND, vg, ac);
    c.add_resistor("RD", vdd, d, 10e3);
    let gnd = Circuit::GROUND;
    c.add_mosfet("M1", d, g, gnd, gnd, p.nmos, 20e-6, 0.5e-6);
    c.add_switch("S1", d, out, 200.0, 1e12, ClockPhase::Phi1, true);
    c.add_capacitor("CL", out, gnd, 1e-12);
    (c, out)
}

/// Macromodel stage in the shape of the `adc-synth` chain and hybrid
/// tests, carrying the element kinds the OTA benches lack: a DC bias
/// current into a diode-connected NMOS, a signal current source driving
/// `signal` (AC magnitude 0.1 mA), a floating VCCS sensing the signal
/// against the bias, a sampling switch that is closed in DC (open, its
/// node would rise to the supply) beside a reset switch that is open in DC
/// (closed, it would tie that node to the reference), and a grounded VCCS
/// output stage.
fn macromodel(signal: Waveform) -> Circuit {
    let p = Process::c025();
    let mut c = Circuit::new();
    let gnd = Circuit::GROUND;
    let vdd = c.node("vdd");
    let vref = c.node("vref");
    let nb = c.node("nb");
    let x = c.node("x");
    let o1 = c.node("o1");
    let o2 = c.node("o2");
    let out = c.node("out");
    c.add_vsource("VDD", vdd, gnd, 3.3);
    c.add_vsource("VREF", vref, gnd, 1.2);
    c.add_isource("IB", gnd, nb, 40e-6);
    c.add_mosfet("MB", nb, nb, gnd, gnd, p.nmos, 10e-6, 1e-6);
    c.add_isource_wave("IS", gnd, x, signal, 1e-4);
    c.add_resistor("RX", x, vref, 10e3);
    c.add_capacitor("CX", x, gnd, 0.2e-12);
    c.add_vccs("G1", vref, o1, x, nb, 5e-5);
    c.add_resistor("RO1", o1, vref, 20e3);
    c.add_capacitor("C1", o1, gnd, 0.5e-12);
    c.add_switch("SS", o1, o2, 200.0, 1e12, ClockPhase::Phi1, true);
    c.add_switch("SR", o2, vref, 200.0, 1e12, ClockPhase::Phi2, false);
    c.add_capacitor("CH", o2, gnd, 1e-12);
    c.add_resistor("RH", o2, vdd, 1e6);
    c.add_vccs("G2", gnd, out, o2, vref, -2e-4);
    c.add_resistor("RL", out, vref, 10e3);
    c.add_capacitor("CL", out, gnd, 0.3e-12);
    c
}

/// Scales every MOSFET width by `1 + 0.04·k` (a synthesis-style retune
/// that keeps the topology).
fn retune(c: &mut Circuit, k: usize) {
    let devices: Vec<(String, f64, f64)> = c
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Mosfet { name, w, l, .. } => Some((name.clone(), *w, *l)),
            _ => None,
        })
        .collect();
    for (name, w, l) in devices {
        let (id, _) = c.find_element(&name).expect("device exists");
        c.set_device_geometry(id, w * (1.0 + 0.04 * k as f64), l);
    }
}

fn hash_op(h: &mut Fnv, c: &Circuit, op: &OperatingPoint) {
    for &v in op.voltages() {
        h.float(v);
    }
    for e in c.elements() {
        if let Some(i) = op.branch_current(e.name()) {
            h.float(i);
        }
        if let Some(ev) = op.mos_eval(e.name()) {
            for v in [ev.id, ev.gm, ev.gds, ev.gmb] {
                h.float(v);
            }
        }
    }
}

fn hash_tran(h: &mut Fnv, node_count: usize, r: &TranResult) {
    for (k, &t) in r.times().iter().enumerate() {
        h.float(t);
        for n in 0..node_count {
            h.float(r.voltage_at(NodeId::from_index(n), k));
        }
    }
    let st = r.stats();
    h.word(st.accepted as u64);
    h.word(st.rejected as u64);
    h.word(st.newton_iters as u64);
    h.float(st.min_dt);
    h.word(u64::from(st.sparse));
}

/// DC row: cold solve, three warm solves along a retune path and a cold
/// re-solve, per fixture and damping. Returns the digest and the engine
/// each fixture ran on.
fn dc_row(choice: SolverChoice) -> (u64, Vec<bool>) {
    let mut h = Fnv::new();
    let fixtures: [fn() -> Circuit; 3] = [
        || telescopic(Waveform::Dc(0.0)).0,
        two_stage,
        || common_source(Waveform::Dc(0.9), 0.0).0,
    ];
    let sparse = fixtures
        .iter()
        .map(|fixture| dc_fixture(&mut h, choice, *fixture))
        .collect();
    (h.0, sparse)
}

/// One fixture's share of a DC row: under each damping, a cold solve,
/// three warm solves along a retune path and a cold re-solve. Returns
/// whether the engine ran sparse.
fn dc_fixture(h: &mut Fnv, choice: SolverChoice, fixture: fn() -> Circuit) -> bool {
    let mut sparse = false;
    for damping in [DcDamping::Global, DcDamping::PerNode] {
        let mut c = fixture();
        let opts = DcOptions {
            damping,
            ..DcOptions::default()
        };
        let mut ws = DcWorkspace::with_solver(&c, choice).unwrap();
        let op = dc_operating_point_with(&mut ws, &c, &opts).unwrap();
        hash_op(h, &c, &op);
        for k in 1..=3 {
            retune(&mut c, k);
            let op = dc_operating_point_warm(&mut ws, &c, &opts).unwrap();
            hash_op(h, &c, &op);
        }
        let op = dc_operating_point_with(&mut ws, &c, &opts).unwrap();
        hash_op(h, &c, &op);
        if damping == DcDamping::Global {
            sparse = ws.is_sparse();
        }
    }
    sparse
}

/// Transient row: fixed-step and adaptive runs of two clocked fixtures,
/// the OTA starting from its DC operating point.
fn tran_row(choice: SolverChoice) -> (u64, Vec<bool>) {
    let mut h = Fnv::new();
    let mut sparse = Vec::new();
    let (mut ota, out) = telescopic(Waveform::Dc(0.0));
    let op = dc_operating_point_with(
        &mut DcWorkspace::new(&ota).unwrap(),
        &ota,
        &DcOptions::default(),
    )
    .unwrap();
    let hold = ota.node("hold");
    ota.add_switch("S1", out, hold, 500.0, 1e12, ClockPhase::Phi1, false);
    ota.add_capacitor("CH", hold, Circuit::GROUND, 0.5e-12);
    ota.add_switch(
        "S2",
        hold,
        Circuit::GROUND,
        500.0,
        1e12,
        ClockPhase::Phi2,
        false,
    );
    let (id, _) = ota.find_element("VIN").unwrap();
    ota.set_waveform(id, step(0.0, 2e-4));
    let mut ic = op.voltages().to_vec();
    ic.push(0.0); // the hold node starts discharged
    let (cs, _) = common_source(step(0.8, 1.1), 0.0);

    for (c, ic) in [
        (&ota, InitialCondition::Voltages(ic)),
        (&cs, InitialCondition::Zero),
    ] {
        sparse.push(tran_fixture(&mut h, choice, c, ic));
    }
    (h.0, sparse)
}

/// The 10 MHz clock of the transient rows.
const CLOCK: Clock = Clock {
    freq: 10e6,
    nonoverlap: 2e-9,
};

/// A 1 ns step from `v0` to `v1` at 20 ns.
fn step(v0: f64, v1: f64) -> Waveform {
    Waveform::Pulse {
        v0,
        v1,
        delay: 20e-9,
        rise: 1e-9,
        fall: 1e-9,
        width: 1.0,
        period: 0.0,
    }
}

/// One fixture's share of a transient row: a fixed-step and an adaptive
/// 300 ns run from `ic` through one workspace. Returns whether the engine
/// ran sparse.
fn tran_fixture(h: &mut Fnv, choice: SolverChoice, c: &Circuit, ic: InitialCondition) -> bool {
    let opts = TranOptions {
        tstop: 300e-9,
        dt: 0.5e-9,
        clock: Some(CLOCK),
        ic,
        ..TranOptions::default()
    };
    let mut ws = TranWorkspace::with_solver(c, choice).unwrap();
    let fixed = transient_with(&mut ws, c, &opts).unwrap();
    hash_tran(h, c.node_count(), &fixed);
    let cfg = TimeStepConfig::for_clock(&CLOCK);
    let adaptive = transient_adaptive(&mut ws, c, &opts, &cfg).unwrap();
    hash_tran(h, c.node_count(), &adaptive);
    ws.is_sparse()
}

/// `count` complex frequencies from the `first`-th point of a spiral:
/// magnitudes 0.2 decades apart from 1e3 rad/s, angles in (0.2, 2.9) rad,
/// so both half-planes and every regime from conductance- to
/// capacitance-dominated are sampled.
fn spiral(first: usize, count: usize) -> Vec<Complex> {
    (first..first + count)
        .map(|k| {
            Complex::from_polar(
                10f64.powf(3.0 + 0.2 * k as f64),
                0.2 + (0.37 * k as f64) % 2.7,
            )
        })
        .collect()
}

/// Complex row: each fixture's small-signal system (g_min 0) at its DC
/// operating point, bound into a [`ComplexMnaWorkspace`], through a serial
/// `factor_at_or_demote` loop, `solve_det_batch` at 8, 5, 1 and 13 points
/// and three serial points after `demote_to_dense`, each solving a fixed
/// right-hand side; then an 11-frequency AC sweep on the same engine
/// choice. Returns the digest and the engine each fixture ran on.
fn complex_row(choice: SolverChoice) -> (u64, Vec<bool>) {
    let mut h = Fnv::new();
    let fixtures: [fn() -> Circuit; 3] = [
        || telescopic(Waveform::Dc(0.0)).0,
        two_stage,
        || common_source(Waveform::Dc(0.9), 1.0).0,
    ];
    let sparse = fixtures
        .iter()
        .map(|fixture| complex_fixture(&mut h, choice, &fixture()))
        .collect();
    (h.0, sparse)
}

/// One fixture's share of a complex row (see [`complex_row`]). Returns
/// whether the engine bound sparse.
fn complex_fixture(h: &mut Fnv, choice: SolverChoice, c: &Circuit) -> bool {
    let freqs: Vec<f64> = (0..11).map(|k| 10f64.powf(2.0 + 0.8 * k as f64)).collect();
    let mut dc = DcWorkspace::new(c).unwrap();
    let op = dc_operating_point_with(&mut dc, c, &DcOptions::default()).unwrap();
    let mut ss = SmallSignal::new();
    let topo = ss.bind(c, &op, 0.0).unwrap();
    let dim = ss.dim();
    let b: Vec<Complex> = (0..dim)
        .map(|i| Complex::new((0.37 * i as f64).sin() + 0.5, (0.53 * i as f64).cos()))
        .collect();
    let mut eng = ComplexMnaWorkspace::new();
    eng.set_solver(choice);
    eng.bind(&ss, topo);
    let bound_sparse = eng.is_sparse();
    let mut x = vec![Complex::ZERO; dim];
    let mut serial = |eng: &mut ComplexMnaWorkspace, h: &mut Fnv, points: Vec<Complex>| {
        for s in points {
            eng.factor_at_or_demote(s, &ss).unwrap();
            eng.solve_into(&b, &mut x);
            h.solve(eng.det(), &x);
        }
    };
    serial(&mut eng, h, spiral(0, 6));
    let mut next = 6;
    for count in [8, 5, 1, 13] {
        let mut xs = vec![Complex::ZERO; count * dim];
        let mut dets = vec![Complex::ZERO; count];
        eng.solve_det_batch(&spiral(next, count), &ss, &b, &mut xs, &mut dets)
            .unwrap();
        for (&det, x) in dets.iter().zip(xs.chunks_exact(dim)) {
            h.solve(det, x);
        }
        next += count;
    }
    assert_eq!(eng.is_sparse(), bound_sparse, "no sample demoted");
    eng.demote_to_dense(&ss);
    assert!(!eng.is_sparse(), "demoted engine is dense");
    serial(&mut eng, h, spiral(next, 3));

    let mut ac = AcWorkspace::with_solver(c, &op, choice).unwrap();
    assert_eq!(ac.is_sparse(), bound_sparse, "AC engine");
    let sweep = ac_sweep_with(&mut ac, &freqs).unwrap();
    for k in 0..freqs.len() {
        for n in 0..c.node_count() {
            h.complex(sweep.voltage(NodeId::from_index(n), k));
        }
    }
    bound_sparse
}

/// The engine each fixture must run on: forced choices everywhere, and
/// automatic selection sparse on the OTAs, dense on the small stage.
fn expected_sparse(choice: SolverChoice, fixtures: usize) -> Vec<bool> {
    (0..fixtures)
        .map(|i| match choice {
            SolverChoice::Dense => false,
            SolverChoice::Sparse => true,
            SolverChoice::Auto => i + 1 < fixtures,
        })
        .collect()
}

#[test]
fn real_engines_are_pinned_bit_for_bit() {
    let rows: Vec<_> = PINS
        .iter()
        .map(|&(label, choice, _, _)| (label, choice, dc_row(choice), tran_row(choice)))
        .collect();
    for (label, _, (dc, _), (tran, _)) in &rows {
        println!("{label:>6}: dc {dc:#018x}  tran {tran:#018x}");
    }
    for ((label, choice, (dc, dc_sparse), (tran, tran_sparse)), pin) in rows.iter().zip(PINS) {
        assert_eq!(
            *dc_sparse,
            expected_sparse(*choice, 3),
            "{label}: DC engines"
        );
        assert_eq!(
            *tran_sparse,
            expected_sparse(*choice, 2),
            "{label}: transient engines"
        );
        assert_eq!(*dc, pin.2, "{label}: DC digest moved");
        assert_eq!(*tran, pin.3, "{label}: transient digest moved");
    }
}

#[test]
fn complex_engines_are_pinned_bit_for_bit() {
    let rows: Vec<_> = COMPLEX_PINS
        .iter()
        .map(|&(label, choice, _)| (label, choice, complex_row(choice)))
        .collect();
    for (label, _, (digest, _)) in &rows {
        println!("{label:>6}: complex {digest:#018x}");
    }
    for ((label, choice, (digest, sparse)), pin) in rows.iter().zip(COMPLEX_PINS) {
        assert_eq!(
            *sparse,
            expected_sparse(*choice, 3),
            "{label}: complex engines"
        );
        assert_eq!(*digest, pin.2, "{label}: complex digest moved");
    }
}

/// The macromodel fixture on each engine: DC cold and warm solves under
/// both dampings, a fixed-step and an adaptive clocked transient run from
/// its operating point while the signal current steps from 5 to 25 µA,
/// and the complex row's factorizations and AC sweep.
#[test]
fn macromodel_element_kinds_are_pinned_bit_for_bit() {
    let rows: Vec<_> = MACRO_PINS
        .iter()
        .map(|&(label, choice, ..)| {
            let mut dc = Fnv::new();
            let dc_sparse = dc_fixture(&mut dc, choice, || macromodel(Waveform::Dc(5e-6)));
            let c = macromodel(step(5e-6, 25e-6));
            let op = dc_operating_point_with(
                &mut DcWorkspace::new(&c).unwrap(),
                &c,
                &DcOptions::default(),
            )
            .unwrap();
            let ic = InitialCondition::Voltages(op.voltages().to_vec());
            let mut tran = Fnv::new();
            let tran_sparse = tran_fixture(&mut tran, choice, &c, ic);
            let mut complex = Fnv::new();
            let complex_sparse = complex_fixture(&mut complex, choice, &c);
            let sparse = [dc_sparse, tran_sparse, complex_sparse];
            (label, choice, [dc.0, tran.0, complex.0], sparse)
        })
        .collect();
    for (label, _, [dc, tran, complex], _) in &rows {
        println!("{label:>6}: macro dc {dc:#018x}  tran {tran:#018x}  complex {complex:#018x}");
    }
    for ((label, choice, digests, sparse), pin) in rows.iter().zip(MACRO_PINS) {
        let want = *choice != SolverChoice::Dense;
        assert_eq!(*sparse, [want; 3], "{label}: macromodel engines");
        assert_eq!(digests[0], pin.2, "{label}: macromodel DC digest moved");
        assert_eq!(
            digests[1], pin.3,
            "{label}: macromodel transient digest moved"
        );
        assert_eq!(
            digests[2], pin.4,
            "{label}: macromodel complex digest moved"
        );
    }
}
