//! Transistor-level OTA templates for the circuit-grounded synthesis leg.
//!
//! Each template builds a complete *testbench*: the amplifier netlist plus
//! an operating-point servo (a VCVS driving the input bias through a very
//! slow low-pass sense of the output) that holds the output at mid-rail
//! regardless of sizing — the standard trick that lets an optimizer explore
//! high-gain amplifiers without the DC point latching to a rail. The servo
//! corner sits at sub-Hz frequencies, so AC behaviour above ~1 kHz is the
//! amplifier's own.
//!
//! Two templates are provided, matching the topology classes the analytic
//! model selects between:
//! * [`build_telescopic`] — single-ended telescopic cascode (NMOS input,
//!   PMOS cascode load), the low-power choice;
//! * [`build_two_stage`] — two-stage Miller-compensated amplifier with a
//!   zero-nulling resistor, the high-gain/high-swing choice.

use adc_spice::netlist::{Circuit, ElementId, NodeId};
use adc_spice::process::Process;

/// A bounded design variable of an OTA template.
#[derive(Debug, Clone, PartialEq)]
pub struct VarBound {
    /// Variable name (matches the parameter struct field).
    pub name: &'static str,
    /// Lower bound (SI units).
    pub lo: f64,
    /// Upper bound (SI units).
    pub hi: f64,
    /// Explore on a log scale (widths, lengths, caps) or linear (voltages).
    pub log: bool,
}

/// Names of the amplifier MOSFETs of every template, M1–M4 (saturation
/// checks).
pub(crate) const OTA_DEVICES: [&str; 4] = ["M1", "M2", "M3", "M4"];

/// A ready-to-simulate OTA testbench.
#[derive(Debug, Clone)]
pub struct OtaTestbench {
    /// The netlist (amplifier + bias servo + load).
    pub circuit: Circuit,
    /// Amplifier output node.
    pub output: NodeId,
    /// Name of the AC-driven input source.
    pub input_source: String,
    /// Name of the supply source (power is read from its branch current).
    pub supply: String,
    /// Names of the amplifier MOSFETs (for saturation checks).
    pub devices: Vec<String>,
    /// Load capacitance used, F.
    pub c_load: f64,
}

/// Sizing parameters of the telescopic template.
#[derive(Debug, Clone, PartialEq)]
pub struct TelescopicParams {
    /// Input-device width, m.
    pub w_in: f64,
    /// NMOS cascode width, m.
    pub w_casc: f64,
    /// PMOS cascode width, m.
    pub w_pcasc: f64,
    /// PMOS current-source width, m.
    pub w_psrc: f64,
    /// Input-device length, m.
    pub l_in: f64,
    /// PMOS length, m.
    pub l_p: f64,
    /// NMOS cascode gate bias, V.
    pub vbn: f64,
    /// PMOS cascode gate bias, V.
    pub vbp1: f64,
    /// PMOS source gate bias, V.
    pub vbp2: f64,
}

impl TelescopicParams {
    /// A hand-designed point that biases correctly in the 0.25 µm process —
    /// a reasonable synthesis starting point.
    pub fn nominal() -> Self {
        TelescopicParams {
            w_in: 60e-6,
            w_casc: 60e-6,
            w_pcasc: 120e-6,
            w_psrc: 120e-6,
            l_in: 0.5e-6,
            l_p: 0.5e-6,
            vbn: 1.3,
            vbp1: 1.9,
            vbp2: 2.45,
        }
    }

    /// Variable bounds for the synthesis engine.
    pub fn bounds() -> Vec<VarBound> {
        vec![
            VarBound {
                name: "w_in",
                lo: 2e-6,
                hi: 600e-6,
                log: true,
            },
            VarBound {
                name: "w_casc",
                lo: 2e-6,
                hi: 600e-6,
                log: true,
            },
            VarBound {
                name: "w_pcasc",
                lo: 4e-6,
                hi: 1200e-6,
                log: true,
            },
            VarBound {
                name: "w_psrc",
                lo: 4e-6,
                hi: 1200e-6,
                log: true,
            },
            VarBound {
                name: "l_in",
                lo: 0.25e-6,
                hi: 2e-6,
                log: true,
            },
            VarBound {
                name: "l_p",
                lo: 0.25e-6,
                hi: 2e-6,
                log: true,
            },
            VarBound {
                name: "vbn",
                lo: 0.9,
                hi: 1.9,
                log: false,
            },
            VarBound {
                name: "vbp1",
                lo: 1.5,
                hi: 2.4,
                log: false,
            },
            VarBound {
                name: "vbp2",
                lo: 2.1,
                hi: 3.0,
                log: false,
            },
        ]
    }

    /// Builds params from a flat vector in [`TelescopicParams::bounds`]
    /// order.
    ///
    /// # Panics
    /// Panics if `x.len() != 9`.
    pub fn from_vec(x: &[f64]) -> Self {
        assert_eq!(x.len(), 9, "telescopic template has 9 variables");
        TelescopicParams {
            w_in: x[0],
            w_casc: x[1],
            w_pcasc: x[2],
            w_psrc: x[3],
            l_in: x[4],
            l_p: x[5],
            vbn: x[6],
            vbp1: x[7],
            vbp2: x[8],
        }
    }

    /// Flattens to a vector in bounds order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.w_in,
            self.w_casc,
            self.w_pcasc,
            self.w_psrc,
            self.l_in,
            self.l_p,
            self.vbn,
            self.vbp1,
            self.vbp2,
        ]
    }
}

/// Servo loop gain of every output-bias servo (the OTA testbenches and the
/// MDAC stages).
pub(crate) const SERVO_GAIN: f64 = 200.0;

/// Builds an OTA testbench around the amplifier that `amp` adds between
/// the gate node `g` and the supply node `vdd`, returning its output: the
/// supply, the load `c_load`, the output-servo bias network and the AC
/// input in series with the servo bias. `inverting` is the amplifier's
/// polarity from gate to output: for an inverting amplifier the servo
/// senses `out − target`, otherwise `target − out`.
fn testbench(
    process: &Process,
    c_load: f64,
    inverting: bool,
    amp: impl FnOnce(&mut Circuit, NodeId, NodeId) -> NodeId,
) -> OtaTestbench {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, process.vdd);
    let out = amp(&mut ckt, g, vdd);
    ckt.add_capacitor("CL", out, Circuit::GROUND, c_load);

    let vt = ckt.node("servo_target");
    let lp = ckt.node("servo_lp");
    let vb = ckt.node("servo_bias");
    ckt.add_vsource("VTGT", vt, Circuit::GROUND, process.vdd / 2.0);
    ckt.add_resistor("RLP", out, lp, 1e6);
    ckt.add_capacitor("CLP", lp, Circuit::GROUND, 1e-3);
    if inverting {
        ckt.add_vcvs("ESRV", vb, Circuit::GROUND, lp, vt, SERVO_GAIN);
    } else {
        ckt.add_vcvs("ESRV", vb, Circuit::GROUND, vt, lp, SERVO_GAIN);
    }
    // AC input in series with the servo bias.
    ckt.add_vsource_wave("VIN", g, vb, 0.0.into(), 1.0);

    OtaTestbench {
        circuit: ckt,
        output: out,
        input_source: "VIN".to_string(),
        supply: "VDD".to_string(),
        devices: OTA_DEVICES.map(String::from).to_vec(),
        c_load,
    }
}

/// Adds the telescopic-cascode amplifier between gate `g` and supply
/// `vdd`: its three bias sources, the NMOS input and cascode (M1, M2) and
/// the PMOS cascode and current source (M3, M4). Returns the output node;
/// the amplifier is inverting from `g` to it. The testbench and the MDAC
/// stage core both add the amplifier through this function.
pub(crate) fn add_telescopic(
    ckt: &mut Circuit,
    process: &Process,
    p: &TelescopicParams,
    g: NodeId,
    vdd: NodeId,
) -> NodeId {
    let nc = ckt.node("ncasc");
    let out = ckt.node("out");
    let np = ckt.node("npcasc");
    let vbn = ckt.node("vbn");
    let vbp1 = ckt.node("vbp1");
    let vbp2 = ckt.node("vbp2");

    ckt.add_vsource("VBN", vbn, Circuit::GROUND, p.vbn);
    ckt.add_vsource("VBP1", vbp1, Circuit::GROUND, p.vbp1);
    ckt.add_vsource("VBP2", vbp2, Circuit::GROUND, p.vbp2);

    // NMOS input + cascode.
    ckt.add_mosfet(
        "M1",
        nc,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        process.nmos,
        p.w_in,
        p.l_in,
    );
    ckt.add_mosfet(
        "M2",
        out,
        vbn,
        nc,
        Circuit::GROUND,
        process.nmos,
        p.w_casc,
        p.l_in,
    );
    // PMOS cascode + current source.
    ckt.add_mosfet("M3", out, vbp1, np, vdd, process.pmos, p.w_pcasc, p.l_p);
    ckt.add_mosfet("M4", np, vbp2, vdd, vdd, process.pmos, p.w_psrc, p.l_p);
    out
}

/// Builds the telescopic-cascode testbench with load `c_load`.
pub fn build_telescopic(process: &Process, p: &TelescopicParams, c_load: f64) -> OtaTestbench {
    // Common-source NMOS input → inverting from gate to output.
    testbench(process, c_load, true, |ckt, g, vdd| {
        add_telescopic(ckt, process, p, g, vdd)
    })
}

/// Element handles into a [`build_telescopic`] netlist, resolved once so
/// the synthesis loop can retune a persistent testbench **in place**
/// instead of rebuilding it per candidate.
#[derive(Debug, Clone, Copy)]
pub struct TelescopicHandles {
    vbn: ElementId,
    vbp1: ElementId,
    vbp2: ElementId,
    m1: ElementId,
    m2: ElementId,
    m3: ElementId,
    m4: ElementId,
}

impl TelescopicHandles {
    /// Resolves the tunable elements of a telescopic testbench by name.
    /// Returns `None` if the circuit is not a [`build_telescopic`] netlist.
    pub fn resolve(ckt: &Circuit) -> Option<Self> {
        let id = |name: &str| ckt.find_element(name).map(|(id, _)| id);
        Some(TelescopicHandles {
            vbn: id("VBN")?,
            vbp1: id("VBP1")?,
            vbp2: id("VBP2")?,
            m1: id("M1")?,
            m2: id("M2")?,
            m3: id("M3")?,
            m4: id("M4")?,
        })
    }

    /// Writes a new sizing into the netlist in place — after this call the
    /// circuit is element-for-element identical to a fresh
    /// [`build_telescopic`] with the same parameters.
    pub fn retune(&self, ckt: &mut Circuit, p: &TelescopicParams) {
        ckt.set_value(self.vbn, p.vbn);
        ckt.set_value(self.vbp1, p.vbp1);
        ckt.set_value(self.vbp2, p.vbp2);
        ckt.set_device_geometry(self.m1, p.w_in, p.l_in);
        ckt.set_device_geometry(self.m2, p.w_casc, p.l_in);
        ckt.set_device_geometry(self.m3, p.w_pcasc, p.l_p);
        ckt.set_device_geometry(self.m4, p.w_psrc, p.l_p);
    }
}

/// Sizing parameters of the two-stage Miller template.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageParams {
    /// First-stage input (NMOS) width, m.
    pub w1: f64,
    /// First-stage PMOS load width, m.
    pub w2: f64,
    /// Second-stage PMOS driver width, m.
    pub w3: f64,
    /// Second-stage NMOS sink width, m.
    pub w4: f64,
    /// First-stage length, m.
    pub l1: f64,
    /// Second-stage length, m.
    pub l2: f64,
    /// Miller compensation capacitor, F.
    pub cc: f64,
    /// Zero-nulling resistor, Ω.
    pub rz: f64,
    /// First-stage PMOS bias, V.
    pub vbp: f64,
    /// Second-stage NMOS bias, V.
    pub vbn2: f64,
}

impl TwoStageParams {
    /// A hand-designed starting point.
    pub fn nominal() -> Self {
        TwoStageParams {
            w1: 40e-6,
            w2: 60e-6,
            w3: 200e-6,
            w4: 40e-6,
            l1: 0.6e-6,
            l2: 0.5e-6,
            cc: 1.5e-12,
            rz: 500.0,
            vbp: 2.45,
            vbn2: 0.75,
        }
    }

    /// Variable bounds for the synthesis engine.
    pub fn bounds() -> Vec<VarBound> {
        vec![
            VarBound {
                name: "w1",
                lo: 2e-6,
                hi: 600e-6,
                log: true,
            },
            VarBound {
                name: "w2",
                lo: 4e-6,
                hi: 1200e-6,
                log: true,
            },
            VarBound {
                name: "w3",
                lo: 4e-6,
                hi: 2000e-6,
                log: true,
            },
            VarBound {
                name: "w4",
                lo: 2e-6,
                hi: 1000e-6,
                log: true,
            },
            VarBound {
                name: "l1",
                lo: 0.25e-6,
                hi: 2e-6,
                log: true,
            },
            VarBound {
                name: "l2",
                lo: 0.25e-6,
                hi: 1e-6,
                log: true,
            },
            VarBound {
                name: "cc",
                lo: 0.1e-12,
                hi: 10e-12,
                log: true,
            },
            VarBound {
                name: "rz",
                lo: 10.0,
                hi: 5e3,
                log: true,
            },
            VarBound {
                name: "vbp",
                lo: 2.1,
                hi: 3.0,
                log: false,
            },
            VarBound {
                name: "vbn2",
                lo: 0.6,
                hi: 1.4,
                log: false,
            },
        ]
    }

    /// Builds params from a flat vector in bounds order.
    ///
    /// # Panics
    /// Panics if `x.len() != 10`.
    pub fn from_vec(x: &[f64]) -> Self {
        assert_eq!(x.len(), 10, "two-stage template has 10 variables");
        TwoStageParams {
            w1: x[0],
            w2: x[1],
            w3: x[2],
            w4: x[3],
            l1: x[4],
            l2: x[5],
            cc: x[6],
            rz: x[7],
            vbp: x[8],
            vbn2: x[9],
        }
    }

    /// Flattens to a vector in bounds order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.w1, self.w2, self.w3, self.w4, self.l1, self.l2, self.cc, self.rz, self.vbp,
            self.vbn2,
        ]
    }
}

/// Element handles into a [`build_two_stage`] netlist — see
/// [`TelescopicHandles`] for the in-place retuning contract.
#[derive(Debug, Clone, Copy)]
pub struct TwoStageHandles {
    vbp: ElementId,
    vbn2: ElementId,
    m1: ElementId,
    m2: ElementId,
    m3: ElementId,
    m4: ElementId,
    cc: ElementId,
    rz: ElementId,
}

impl TwoStageHandles {
    /// Resolves the tunable elements of a two-stage testbench by name.
    /// Returns `None` if the circuit is not a [`build_two_stage`] netlist.
    pub fn resolve(ckt: &Circuit) -> Option<Self> {
        let id = |name: &str| ckt.find_element(name).map(|(id, _)| id);
        Some(TwoStageHandles {
            vbp: id("VBP")?,
            vbn2: id("VBN2")?,
            m1: id("M1")?,
            m2: id("M2")?,
            m3: id("M3")?,
            m4: id("M4")?,
            cc: id("CC")?,
            rz: id("RZ")?,
        })
    }

    /// Writes a new sizing into the netlist in place — after this call the
    /// circuit is element-for-element identical to a fresh
    /// [`build_two_stage`] with the same parameters.
    pub fn retune(&self, ckt: &mut Circuit, p: &TwoStageParams) {
        ckt.set_value(self.vbp, p.vbp);
        ckt.set_value(self.vbn2, p.vbn2);
        ckt.set_device_geometry(self.m1, p.w1, p.l1);
        ckt.set_device_geometry(self.m2, p.w2, p.l1);
        ckt.set_device_geometry(self.m3, p.w3, p.l2);
        ckt.set_device_geometry(self.m4, p.w4, p.l2);
        ckt.set_value(self.cc, p.cc);
        ckt.set_value(self.rz, p.rz);
    }
}

/// Adds the two-stage Miller amplifier between gate `g` and supply `vdd`:
/// its two bias sources, the NMOS common-source first stage with its PMOS
/// current-source load (M1, M2), the PMOS common-source second stage with
/// its NMOS sink (M3, M4) and the Miller capacitor `CC` with the
/// zero-nulling resistor `RZ`. Returns the output node; the two inversions
/// make the amplifier non-inverting from `g` to it. The testbench and the
/// MDAC stage core both add the amplifier through this function.
pub(crate) fn add_two_stage(
    ckt: &mut Circuit,
    process: &Process,
    p: &TwoStageParams,
    g: NodeId,
    vdd: NodeId,
) -> NodeId {
    let n1 = ckt.node("n1");
    let out = ckt.node("out");
    let cz = ckt.node("cz");
    let vbp = ckt.node("vbp");
    let vbn2 = ckt.node("vbn2");

    ckt.add_vsource("VBP", vbp, Circuit::GROUND, p.vbp);
    ckt.add_vsource("VBN2", vbn2, Circuit::GROUND, p.vbn2);

    // Stage 1: NMOS common source with PMOS current-source load.
    ckt.add_mosfet(
        "M1",
        n1,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        process.nmos,
        p.w1,
        p.l1,
    );
    ckt.add_mosfet("M2", n1, vbp, vdd, vdd, process.pmos, p.w2, p.l1);
    // Stage 2: PMOS common source with NMOS sink.
    ckt.add_mosfet("M3", out, n1, vdd, vdd, process.pmos, p.w3, p.l2);
    ckt.add_mosfet(
        "M4",
        out,
        vbn2,
        Circuit::GROUND,
        Circuit::GROUND,
        process.nmos,
        p.w4,
        p.l2,
    );
    // Miller compensation with zero-nulling resistor.
    ckt.add_capacitor("CC", n1, cz, p.cc);
    ckt.add_resistor("RZ", cz, out, p.rz);
    out
}

/// Builds the two-stage Miller testbench with load `c_load`.
pub fn build_two_stage(process: &Process, p: &TwoStageParams, c_load: f64) -> OtaTestbench {
    // Two inversions → non-inverting from gate to output.
    testbench(process, c_load, false, |ckt, g, vdd| {
        add_two_stage(ckt, process, p, g, vdd)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_sfg::nettf::{extract_tf, NetTfOptions};
    use adc_spice::dc::{dc_operating_point, DcOptions};
    use adc_spice::mosfet::Region;

    #[test]
    fn telescopic_biases_at_midrail() {
        let proc = Process::c025();
        let tb = build_telescopic(&proc, &TelescopicParams::nominal(), 1e-12);
        let op = dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap();
        let vout = op.voltage(tb.output);
        assert!((vout - 1.65).abs() < 0.3, "vout = {vout}");
        for d in &tb.devices {
            let ev = op.mos_eval(d).unwrap();
            assert_eq!(ev.region, Region::Saturation, "{d} not saturated: {ev:?}");
        }
        // Power should be sub-10 mW for the nominal sizing.
        let pw = op.source_power(&tb.circuit, "VDD").unwrap();
        assert!(pw > 10e-6 && pw < 20e-3, "power {pw}");
    }

    #[test]
    fn telescopic_has_high_gain_and_rolloff() {
        let proc = Process::c025();
        let tb = build_telescopic(&proc, &TelescopicParams::nominal(), 1e-12);
        let op = dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap();
        let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
            .unwrap()
            .cancel_common_roots(1e-5);
        // Measure at 10 kHz (above the servo corner, below the amp poles).
        let a_low = tf.magnitude(1e4);
        assert!(a_low > 300.0, "A0 = {a_low}");
        let fu = tf.unity_gain_freq(1e4, 50e9);
        assert!(fu.is_some(), "no unity crossing");
        assert!(fu.unwrap() > 50e6, "fu = {:?}", fu);
    }

    #[test]
    fn two_stage_biases_and_amplifies() {
        let proc = Process::c025();
        let tb = build_two_stage(&proc, &TwoStageParams::nominal(), 2e-12);
        let op = dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap();
        let vout = op.voltage(tb.output);
        assert!((vout - 1.65).abs() < 0.35, "vout = {vout}");
        let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
            .unwrap()
            .cancel_common_roots(1e-5);
        let a_low = tf.magnitude(1e4);
        assert!(a_low > 1000.0, "A0 = {a_low}");
    }

    #[test]
    fn miller_cap_splits_poles() {
        let proc = Process::c025();
        let mut p = TwoStageParams::nominal();
        p.cc = 0.2e-12;
        let tb_small = build_two_stage(&proc, &p, 2e-12);
        p.cc = 3e-12;
        let tb_big = build_two_stage(&proc, &p, 2e-12);
        let pm = |tb: &OtaTestbench| {
            let op = dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap();
            let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
                .unwrap()
                .cancel_common_roots(1e-5);
            tf.phase_margin_deg(1e4, 50e9)
        };
        let pm_small = pm(&tb_small);
        let pm_big = pm(&tb_big);
        if let (Some(a), Some(b)) = (pm_small, pm_big) {
            assert!(b > a, "PM small-Cc {a} vs big-Cc {b}");
        } else {
            panic!("missing unity crossing: {pm_small:?} {pm_big:?}");
        }
    }

    #[test]
    fn retune_matches_rebuild() {
        let proc = Process::c025();
        let mut p = TelescopicParams::nominal();
        let mut tb = build_telescopic(&proc, &p, 1e-12);
        let h = TelescopicHandles::resolve(&tb.circuit).unwrap();
        p.w_in = 80e-6;
        p.vbn = 1.1;
        p.l_p = 0.3e-6;
        h.retune(&mut tb.circuit, &p);
        let fresh = build_telescopic(&proc, &p, 1e-12);
        assert_eq!(tb.circuit.elements(), fresh.circuit.elements());

        let mut q = TwoStageParams::nominal();
        let mut tb2 = build_two_stage(&proc, &q, 2e-12);
        let h2 = TwoStageHandles::resolve(&tb2.circuit).unwrap();
        q.w3 = 300e-6;
        q.cc = 2.2e-12;
        q.rz = 800.0;
        q.vbn2 = 0.8;
        h2.retune(&mut tb2.circuit, &q);
        let fresh2 = build_two_stage(&proc, &q, 2e-12);
        assert_eq!(tb2.circuit.elements(), fresh2.circuit.elements());
        // A telescopic netlist has no CC/RZ → two-stage handles don't bind.
        assert!(TwoStageHandles::resolve(&tb.circuit).is_none());
    }

    #[test]
    fn param_vec_round_trip() {
        let p = TelescopicParams::nominal();
        assert_eq!(TelescopicParams::from_vec(&p.to_vec()), p);
        let q = TwoStageParams::nominal();
        assert_eq!(TwoStageParams::from_vec(&q.to_vec()), q);
        assert_eq!(TelescopicParams::bounds().len(), 9);
        assert_eq!(TwoStageParams::bounds().len(), 10);
    }
}
