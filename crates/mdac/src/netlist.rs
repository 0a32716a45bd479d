//! Stage-coupled switched-capacitor netlists: the MDAC stage as a
//! hierarchical subcircuit and the full-pipeline chain testbench.
//!
//! The paper signs off each ranked topology behaviourally; this module adds
//! the circuit-level leg: each front-end stage becomes a [`Subckt`] (OTA
//! core + flip-around capacitor array + clocked switches + output-bias
//! servo), and [`build_pipeline`] chains N of them with **real inter-stage
//! loading** — the next stage's sampling-capacitor array and its sub-ADC
//! comparator bank load the previous MDAC output, exactly the coupling the
//! per-stage power sum cannot see.
//!
//! ## Small-signal abstraction
//!
//! The chain testbench analyzes the amplification-phase configuration with
//! the signal path conducting: each stage is a capacitive-feedback
//! amplifier whose input array (`G` unit caps of `C_f` each, total
//! `C_s = G·C_f`) is driven by the previous stage and whose feedback unit
//! closes the loop through the φ2 switch, giving the ideal closed-loop
//! residue gain `−C_s/C_f = −G = −2^{m−1}`. Reference/DAC switches connect
//! the unit bottom plates to the (AC-ground) reference, and the sub-ADC
//! banks contribute their comparator input caps plus a resistive reference
//! ladder. DC bias comes from a per-stage servo (the same trick as the OTA
//! testbenches in [`crate::opamp`]) injecting through a 10 GΩ resistor into
//! the capacitive summing node, with its corner ~5 decades below the probe
//! band.
//!
//! The single-ended two-stage Miller template is non-inverting from gate to
//! output, so its core models the differential OTA's inverting input with
//! an ideal −1 VCVS at the gate (the differential-pair sign choice, free of
//! power or loading cost at this abstraction); the telescopic core is
//! already inverting and connects its gate directly.

use crate::opamp::{
    add_telescopic, add_two_stage, TelescopicParams, TwoStageParams, OTA_DEVICES, SERVO_GAIN,
};
use crate::power::StageDesign;
use adc_spice::netlist::{Circuit, ClockPhase, NodeId};
use adc_spice::process::Process;
use adc_spice::subckt::{Instance, Subckt};
use adc_spice::SpiceResult;

/// Maps a nominal phase onto a stage's schedule: odd pipeline stages swap
/// φ1↔φ2 so stage `k+1` samples while stage `k` amplifies.
fn sched(phase: ClockPhase, swap: bool) -> ClockPhase {
    if !swap {
        return phase;
    }
    match phase {
        ClockPhase::Phi1 => ClockPhase::Phi2,
        ClockPhase::Phi2 => ClockPhase::Phi1,
    }
}

/// Bias-injection resistance into the capacitive summing node, Ω. Large
/// enough that the injection corner (with picofarad summing nodes) sits
/// orders of magnitude below the probe band, small enough that the DC
/// Jacobian's dynamic range stays within what the voltage-update tolerance
/// can resolve (a 10 GΩ injection was found to stall Newton at the
/// rounding floor on telescopic stages).
const R_BIAS: f64 = 1e8;

/// Off-resistance of every clocked switch, Ω.
const R_OFF: f64 = 1e12;

/// One synthesized (or nominal) OTA sizing, tagged by template — the
/// circuit-level payload a cached synthesis block hands the chain
/// testbench.
#[derive(Debug, Clone, PartialEq)]
pub enum OtaSizing {
    /// Telescopic-cascode sizing.
    Telescopic(TelescopicParams),
    /// Two-stage Miller sizing.
    TwoStage(TwoStageParams),
}

impl OtaSizing {
    /// Builds the bare amplifier core subcircuit for this sizing.
    pub fn build_core(&self, process: &Process) -> Subckt {
        match self {
            OtaSizing::Telescopic(p) => build_telescopic_core(process, p),
            OtaSizing::TwoStage(p) => build_two_stage_core(process, p),
        }
    }
}

/// Builds the telescopic-cascode amplifier **core** as a subcircuit with
/// ports `in` (gate), `out` and `vdd` — the amplifier of
/// [`crate::opamp::build_telescopic`], added by the same function, without
/// its testbench harness (supply, load, servo, stimulus), ready for
/// hierarchical instantiation. Inverting from `in` to `out`.
pub fn build_telescopic_core(process: &Process, p: &TelescopicParams) -> Subckt {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("in");
    add_telescopic(&mut ckt, process, p, g, vdd);
    Subckt::new(
        "ota_tele",
        ckt,
        &[("in", "in"), ("out", "out"), ("vdd", "vdd")],
    )
    .expect("telescopic core ports")
}

/// Builds the two-stage Miller amplifier **core** as a subcircuit with
/// ports `in`, `out` and `vdd`: the amplifier of
/// [`crate::opamp::build_two_stage`], added by the same function, without
/// its testbench harness. The
/// single-ended template is non-inverting gate→out; the differential
/// OTA's inverting input is modeled by an ideal −1 VCVS at the gate, so
/// the core is **inverting** from `in` to `out` like the telescopic one —
/// the polarity the capacitive feedback network requires.
pub fn build_two_stage_core(process: &Process, p: &TwoStageParams) -> Subckt {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let g = ckt.node("g");
    let ref2 = ckt.node("ref2");

    // Ideal inverting input: v(g) = v(ref2) − v(in); ref2 centers the gate
    // bias range, the stage servo absorbs the exact level.
    ckt.add_vsource("VR2", ref2, Circuit::GROUND, process.vdd / 2.0);
    ckt.add_vcvs("EINV", g, Circuit::GROUND, ref2, inp, 1.0);
    add_two_stage(&mut ckt, process, p, g, vdd);
    Subckt::new(
        "ota_2st",
        ckt,
        &[("in", "in"), ("out", "out"), ("vdd", "vdd")],
    )
    .expect("two-stage core ports")
}

/// Circuit-level configuration of one MDAC stage subcircuit.
#[derive(Debug, Clone, PartialEq)]
pub struct MdacStageConfig {
    /// Raw stage resolution `m` (gain `G = 2^{m−1}`, `G` unit caps).
    pub bits: u32,
    /// Unit (= feedback) capacitance, F; the sampling array totals
    /// `G·c_f`.
    pub c_f: f64,
    /// OTA core sizing.
    pub ota: OtaSizing,
    /// Switch on-resistance, Ω.
    pub ron: f64,
}

impl MdacStageConfig {
    /// Interstage gain `G = 2^{m−1}` (also the unit-capacitor count).
    pub fn gain_units(&self) -> u32 {
        1 << (self.bits - 1)
    }

    /// Derives the stage configuration from an analytic stage design plus
    /// an OTA sizing (nominal or synthesized).
    pub fn from_design(design: &StageDesign, ota: OtaSizing) -> Self {
        MdacStageConfig {
            bits: design.spec.bits,
            c_f: design.caps.c_f,
            ota,
            ron: 100.0,
        }
    }
}

/// Builds one MDAC stage as a subcircuit with ports `in`, `out`, `vdd` and
/// `vref`: the flip-around capacitor array (`G` sampling units with φ1
/// sampling and φ2 reference switches, one feedback unit through the φ2
/// switch), the OTA core as a **nested instance** under `ota.`, and the
/// output-bias servo. `swap_phases` exchanges φ1↔φ2 on every switch so odd
/// pipeline stages sample while even ones amplify.
///
/// Besides the signal-path switches the stage carries two **reset**
/// switches that only matter under transient clocking (both are open in
/// the DC/AC configuration, so small-signal results are unchanged):
///
/// - `SR` grounds the feedback-cap bottom plate to `vref` during the
///   sampling phase. Without it the φ2-only feedback network leaves `CF`
///   floating across the sampling phase and the stage integrates residue
///   charge across clock periods instead of amplifying each sample.
/// - `SZ` diode-connects the OTA (`out`→`sum`) during the sampling phase.
///   With the feedback loop open in φ1 the OTA would otherwise slew
///   open-loop to a rail and have to recover every amplification phase;
///   the unity reset holds it at its self-bias point, matching the
///   charge-conservation analysis: `v_out = vref + G·(v_in − vref)` at the
///   end of the amplification phase.
pub fn build_mdac_stage_phased(
    process: &Process,
    cfg: &MdacStageConfig,
    swap_phases: bool,
) -> SpiceResult<Subckt> {
    let g_units = cfg.gain_units();
    let sample = sched(ClockPhase::Phi1, swap_phases);
    let amplify = sched(ClockPhase::Phi2, swap_phases);
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let vdd = ckt.node("vdd");
    let vref = ckt.node("vref");
    let sum = ckt.node("sum");
    let fb = ckt.node("fb");

    // Sampling/DAC unit array: bottom plates u{k}, tops on the summing
    // node. The sampling switch conducts in DC (the analyzed signal path),
    // the amplification-phase reference switch models the DAC connection.
    for k in 1..=g_units {
        let u = ckt.node(&format!("u{k}"));
        ckt.add_switch(&format!("SS{k}"), inp, u, cfg.ron, R_OFF, sample, true);
        ckt.add_switch(&format!("SD{k}"), u, vref, cfg.ron, R_OFF, amplify, false);
        ckt.add_capacitor(&format!("CU{k}"), u, sum, cfg.c_f);
    }
    // Feedback unit through the amplification-phase switch, with the
    // sampling-phase reset switches described above.
    ckt.add_capacitor("CF", sum, fb, cfg.c_f);
    ckt.add_switch("SF", fb, out, cfg.ron, R_OFF, amplify, true);
    ckt.add_switch("SR", fb, vref, cfg.ron, R_OFF, sample, false);
    ckt.add_switch("SZ", out, sum, cfg.ron, R_OFF, sample, false);

    // OTA core, nested.
    let core = cfg.ota.build_core(process);
    ckt.instantiate(&core, "ota", &[("in", sum), ("out", out), ("vdd", vdd)])?;

    // Output-bias servo injecting into the summing node (the stage is
    // inverting sum→out, so the servo senses out−target).
    let vt = ckt.node("vt");
    let lp = ckt.node("lp");
    let vb = ckt.node("vb");
    ckt.add_vsource("VTGT", vt, Circuit::GROUND, process.vdd / 2.0);
    ckt.add_resistor("RLP", out, lp, 1e6);
    ckt.add_capacitor("CLP", lp, Circuit::GROUND, 1e-3);
    ckt.add_vcvs("ESRV", vb, Circuit::GROUND, lp, vt, SERVO_GAIN);
    ckt.add_resistor("RBIAS", vb, sum, R_BIAS);

    Subckt::new(
        "mdac_stage",
        ckt,
        &[
            ("in", "in"),
            ("out", "out"),
            ("vdd", "vdd"),
            ("vref", "vref"),
        ],
    )
}

/// Builds an `m`-bit flash sub-ADC loading model as a subcircuit with
/// ports `in` and `vref`: a `2^m`-segment resistive reference ladder and
/// `2^m − 2` comparator inputs, each a sampling switch into an input
/// capacitor against its ladder tap — the capacitive load the paper's
/// `c_next` bookkeeping charges the previous stage for. `swap_phases`
/// moves the comparator sampling switches to φ2, matching a stage whose
/// own schedule is swapped (the bank samples alongside its stage).
pub fn build_sub_adc_phased(
    bits: u32,
    c_cmp: f64,
    r_ladder_total: f64,
    ron: f64,
    swap_phases: bool,
) -> SpiceResult<Subckt> {
    let sample = sched(ClockPhase::Phi1, swap_phases);
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let vref = ckt.node("vref");
    let segments = 1usize << bits;
    let r_unit = r_ladder_total / segments as f64;
    let mut upper = vref;
    for k in 1..segments {
        let tap = ckt.node(&format!("t{k}"));
        ckt.add_resistor(&format!("RL{k}"), upper, tap, r_unit);
        upper = tap;
    }
    ckt.add_resistor(&format!("RL{segments}"), upper, Circuit::GROUND, r_unit);
    for k in 1..=(segments - 2) {
        let c = ckt.node(&format!("c{k}"));
        let tap = ckt.find_node(&format!("t{k}")).expect("tap interned above");
        ckt.add_switch(&format!("SC{k}"), inp, c, ron, R_OFF, sample, true);
        ckt.add_capacitor(&format!("CC{k}"), c, tap, c_cmp);
    }
    Subckt::new("sub_adc", ckt, &[("in", "in"), ("vref", "vref")])
}

/// Options of the chain testbench builder.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOptions {
    /// Attach each stage's sub-ADC bank (comparator loading + reference
    /// ladder) and the backend's 1.5-bit bank.
    pub with_sub_adc: bool,
    /// Backend sampling capacitance loading the last front-end stage, F.
    pub backend_c_load: f64,
    /// Per-comparator input capacitance, F.
    pub c_cmp: f64,
    /// Total reference-ladder resistance per sub-ADC, Ω.
    pub ladder_r_total: f64,
    /// Sub-ADC sampling-switch on-resistance, Ω.
    pub ron: f64,
    /// Cut every inter-stage connection: each stage k > 0 is driven by its
    /// own AC source instead of the previous output, and every stage output
    /// carries the backend load — the configuration the
    /// chain-vs-standalone property test compares against.
    pub decouple: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            with_sub_adc: true,
            backend_c_load: 80e-15,
            c_cmp: 10.59e-15,
            ladder_r_total: 10e3,
            ron: 100.0,
            decouple: false,
        }
    }
}

/// A flattened multi-stage MDAC chain testbench, ready for the existing
/// DC/TF workspaces.
#[derive(Debug, Clone)]
pub struct PipelineTestbench {
    /// The flattened netlist.
    pub circuit: Circuit,
    /// AC-driven input source name.
    pub input_source: String,
    /// Last stage's output node (end-to-end TF target).
    pub output: NodeId,
    /// Shared supply source name (chain power).
    pub supply: String,
    /// Flattened OTA MOSFET names across all stages (saturation checks).
    pub devices: Vec<String>,
    /// Per-stage instance handles (retuning through instance paths).
    pub stages: Vec<Instance>,
    /// Per-stage output nodes.
    pub stage_outputs: Vec<NodeId>,
    /// Ideal end-to-end gain magnitude `∏ 2^{mᵢ−1}`.
    pub expected_gain: f64,
    /// Mid-rail level every stage output servos to, V.
    pub mid_rail: f64,
}

impl PipelineTestbench {
    /// MNA system dimension of the flattened chain.
    pub fn mna_dim(&self) -> usize {
        self.circuit.mna_dim()
    }

    /// SPICE-style `.nodeset` initial guesses for the chain's DC solve:
    /// stage outputs and servo sense nodes at mid-rail, summing nodes near
    /// the input-device bias. Without these, the damped Newton iteration
    /// must walk each servo node back from the ~`SERVO_GAIN·V_target`
    /// excursion a zero start implies, hundreds of iterations at the
    /// per-step voltage cap.
    pub fn nodeset(&self) -> std::collections::HashMap<String, f64> {
        let mut set = std::collections::HashMap::new();
        // Pin the rails so the very first Jacobian sees devices in a
        // realistic bias state — from an all-zero start every MOSFET is
        // hard off and the sparse engine's static pivots can land on
        // numerically vanished companion entries.
        set.insert("vdd".to_string(), 2.0 * self.mid_rail);
        set.insert("vref".to_string(), self.mid_rail);
        for (inst, &out) in self.stages.iter().zip(self.stage_outputs.iter()) {
            set.insert(self.circuit.node_name(out).to_string(), self.mid_rail);
            // `vt` and `lp` must start consistent (both at the target):
            // any difference between them is amplified `SERVO_GAIN`-fold
            // into the servo output's required step, and the global damping
            // cap then stalls the whole iteration while `vb` chases it.
            for (local, v) in [
                ("vt", self.mid_rail),
                ("lp", self.mid_rail),
                ("vb", 0.0),
                ("sum", 0.8),
            ] {
                if let Some(n) = inst.node(local) {
                    set.insert(self.circuit.node_name(n).to_string(), v);
                }
            }
        }
        set
    }

    /// Default DC options with the chain's [`PipelineTestbench::nodeset`]
    /// applied.
    pub fn dc_options(&self) -> adc_spice::dc::DcOptions {
        adc_spice::dc::DcOptions {
            nodeset: self.nodeset(),
            // Per-node limiting: the chain couples many servo loops whose
            // wound-up outputs would starve a globally scaled update.
            damping: adc_spice::dc::DcDamping::PerNode,
            ..Default::default()
        }
    }

    /// Phase during which stage `k` amplifies — its output is valid at the
    /// end of this phase.
    pub fn stage_amplify_phase(&self, k: usize) -> ClockPhase {
        sched(ClockPhase::Phi2, k % 2 == 1)
    }
}

/// Chains the given stage configurations into a full-pipeline testbench:
/// one shared supply and reference, each stage's sampling array and sub-ADC
/// bank loading the previous output, and the backend load on the last
/// stage.
///
/// # Errors
/// Propagates [`adc_spice::SpiceError`] from subcircuit construction.
pub fn build_pipeline(
    process: &Process,
    stages: &[MdacStageConfig],
    opts: &PipelineOptions,
) -> SpiceResult<PipelineTestbench> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vref = ckt.node("vref");
    let inp = ckt.node("in");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, process.vdd);
    ckt.add_vsource("VREF", vref, Circuit::GROUND, process.vdd / 2.0);
    ckt.add_vsource_wave("VIN", inp, Circuit::GROUND, 0.0.into(), 1.0);

    let mut instances = Vec::with_capacity(stages.len());
    let mut stage_outputs = Vec::with_capacity(stages.len());
    let mut devices = Vec::new();
    let mut expected_gain = 1.0;
    let mut prev = inp;
    for (k, cfg) in stages.iter().enumerate() {
        let stage_in = if opts.decouple && k > 0 {
            let dec = ckt.node(&format!("dec{k}"));
            ckt.add_vsource_wave(&format!("VIN{k}"), dec, Circuit::GROUND, 0.0.into(), 1.0);
            dec
        } else {
            prev
        };
        // Odd stages run on the swapped schedule so each stage samples
        // while its predecessor amplifies; each sub-ADC bank samples
        // alongside its stage.
        let swap = k % 2 == 1;
        if opts.with_sub_adc {
            let bank =
                build_sub_adc_phased(cfg.bits, opts.c_cmp, opts.ladder_r_total, opts.ron, swap)?;
            ckt.instantiate(
                &bank,
                &format!("adc{k}"),
                &[("in", stage_in), ("vref", vref)],
            )?;
        }
        let out = ckt.node(&format!("o{k}"));
        let sub = build_mdac_stage_phased(process, cfg, swap)?;
        let inst = ckt.instantiate(
            &sub,
            &format!("s{k}"),
            &[("in", stage_in), ("out", out), ("vdd", vdd), ("vref", vref)],
        )?;
        for d in OTA_DEVICES {
            devices.push(format!("{}.ota.{d}", inst.prefix()));
        }
        if opts.decouple {
            // Decoupled stages each carry the backend load so every stage
            // matches a standalone single-stage bench element for element.
            ckt.add_capacitor(
                &format!("CBACK{k}"),
                out,
                Circuit::GROUND,
                opts.backend_c_load,
            );
        }
        expected_gain *= cfg.gain_units() as f64;
        instances.push(inst);
        stage_outputs.push(out);
        prev = out;
    }
    if !opts.decouple {
        ckt.add_capacitor("CBACK", prev, Circuit::GROUND, opts.backend_c_load);
    }
    if opts.with_sub_adc {
        // Backend 1.5-bit tail stage's bank samples the last residue on the
        // schedule a hypothetical stage N would use.
        let bank = build_sub_adc_phased(
            2,
            opts.c_cmp,
            opts.ladder_r_total,
            opts.ron,
            stages.len() % 2 == 1,
        )?;
        ckt.instantiate(&bank, "adcb", &[("in", prev), ("vref", vref)])?;
    }
    Ok(PipelineTestbench {
        circuit: ckt,
        input_source: "VIN".to_string(),
        output: prev,
        supply: "VDD".to_string(),
        devices,
        stages: instances,
        stage_outputs,
        expected_gain,
        mid_rail: process.vdd / 2.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_sfg::nettf::{extract_tf, NetTfOptions};
    use adc_spice::dc::dc_operating_point;
    use adc_spice::tran::Clock;
    use adc_spice::waveform::Waveform;

    fn tele_cfg(bits: u32, c_f: f64) -> MdacStageConfig {
        MdacStageConfig {
            bits,
            c_f,
            ota: OtaSizing::Telescopic(TelescopicParams::nominal()),
            ron: 100.0,
        }
    }

    #[test]
    fn stage_closed_loop_gain_approaches_ideal() {
        let proc = Process::c025();
        for bits in [2u32, 3] {
            let tb = build_pipeline(
                &proc,
                &[tele_cfg(bits, 200e-15)],
                &PipelineOptions {
                    with_sub_adc: false,
                    ..Default::default()
                },
            )
            .unwrap();
            let op = dc_operating_point(&tb.circuit, &tb.dc_options()).unwrap();
            // Output servos to mid-rail.
            let vout = op.voltage(tb.output);
            assert!((vout - 1.65).abs() < 0.3, "m={bits}: vout {vout}");
            let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
                .unwrap()
                .cancel_common_roots(1e-5);
            let g = tf.magnitude(1e6);
            let ideal = (1u32 << (bits - 1)) as f64;
            assert!(
                (g - ideal).abs() / ideal < 0.05,
                "m={bits}: closed-loop gain {g} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn two_stage_core_is_inverting_and_biases() {
        let proc = Process::c025();
        let cfg = MdacStageConfig {
            bits: 4,
            c_f: 550e-15,
            ota: OtaSizing::TwoStage(TwoStageParams::nominal()),
            ron: 100.0,
        };
        let tb = build_pipeline(
            &proc,
            &[cfg],
            &PipelineOptions {
                with_sub_adc: false,
                ..Default::default()
            },
        )
        .unwrap();
        let op = dc_operating_point(&tb.circuit, &tb.dc_options()).unwrap();
        let vout = op.voltage(tb.output);
        assert!((vout - 1.65).abs() < 0.35, "vout {vout}");
        let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
            .unwrap()
            .cancel_common_roots(1e-5);
        let g = tf.magnitude(1e6);
        assert!((g - 8.0).abs() / 8.0 < 0.05, "closed-loop gain {g} vs 8");
    }

    #[test]
    fn chain_couples_stages_and_counts_unknowns() {
        let proc = Process::c025();
        let stages = [tele_cfg(3, 400e-15), tele_cfg(2, 200e-15)];
        let tb = build_pipeline(&proc, &stages, &PipelineOptions::default()).unwrap();
        assert_eq!(tb.stages.len(), 2);
        assert_eq!(tb.expected_gain, 8.0);
        assert_eq!(tb.devices.len(), 8);
        // Sub-ADC banks and cap arrays push the dimension well past a
        // single OTA testbench.
        assert!(tb.mna_dim() > 50, "dim {}", tb.mna_dim());
        // The chain solves DC and both stage outputs servo to mid-rail.
        let op = dc_operating_point(&tb.circuit, &tb.dc_options()).unwrap();
        for &o in &tb.stage_outputs {
            let v = op.voltage(o);
            assert!((v - 1.65).abs() < 0.3, "stage out {v}");
        }
        // End-to-end gain within a few percent of ∏G (finite loop gain).
        let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default())
            .unwrap()
            .cancel_common_roots(1e-5);
        let g = tf.magnitude(1e6);
        assert!((g - 8.0).abs() / 8.0 < 0.08, "chain gain {g} vs expected 8");
    }

    #[test]
    fn retune_through_instance_paths_matches_rebuild() {
        let proc = Process::c025();
        let mut p = TelescopicParams::nominal();
        let mut tb = build_pipeline(
            &proc,
            &[MdacStageConfig {
                bits: 2,
                c_f: 200e-15,
                ota: OtaSizing::Telescopic(p.clone()),
                ron: 100.0,
            }],
            &PipelineOptions::default(),
        )
        .unwrap();
        p.w_in = 90e-6;
        p.vbn = 1.2;
        // Retune stage 0's OTA in place through its nested instance paths.
        let inst = &tb.stages[0];
        let id = |local: &str| inst.element(local).unwrap();
        tb.circuit.set_value(id("ota.VBN"), p.vbn);
        tb.circuit.set_value(id("ota.VBP1"), p.vbp1);
        tb.circuit.set_value(id("ota.VBP2"), p.vbp2);
        tb.circuit.set_device_geometry(id("ota.M1"), p.w_in, p.l_in);
        tb.circuit
            .set_device_geometry(id("ota.M2"), p.w_casc, p.l_in);
        tb.circuit
            .set_device_geometry(id("ota.M3"), p.w_pcasc, p.l_p);
        tb.circuit
            .set_device_geometry(id("ota.M4"), p.w_psrc, p.l_p);
        let fresh = build_pipeline(
            &proc,
            &[MdacStageConfig {
                bits: 2,
                c_f: 200e-15,
                ota: OtaSizing::Telescopic(p),
                ron: 100.0,
            }],
            &PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(tb.circuit.elements(), fresh.circuit.elements());
        assert_eq!(
            tb.circuit.topology_fingerprint(),
            fresh.circuit.topology_fingerprint()
        );
    }

    fn switch_phase(ckt: &Circuit, name: &str) -> ClockPhase {
        ckt.elements()
            .iter()
            .find_map(|e| match e {
                adc_spice::netlist::Element::Switch { name: n, phase, .. } if n == name => {
                    Some(*phase)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no switch {name}"))
    }

    #[test]
    fn phased_stage_swaps_schedule_and_adds_resets() {
        let proc = Process::c025();
        let cfg = tele_cfg(3, 200e-15);
        let base = build_mdac_stage_phased(&proc, &cfg, false).unwrap();
        let swapped = build_mdac_stage_phased(&proc, &cfg, true).unwrap();
        for (name, nominal) in [
            ("SS1", ClockPhase::Phi1),
            ("SD1", ClockPhase::Phi2),
            ("SF", ClockPhase::Phi2),
            ("SR", ClockPhase::Phi1),
            ("SZ", ClockPhase::Phi1),
        ] {
            assert_eq!(switch_phase(base.circuit(), name), nominal, "{name}");
            assert_eq!(
                switch_phase(swapped.circuit(), name),
                sched(nominal, true),
                "{name} swapped"
            );
        }
        // The reset switches are open in the DC configuration, so the
        // small-signal path is unchanged by their presence.
        let bank = build_sub_adc_phased(3, 10e-15, 10e3, 100.0, true).unwrap();
        assert_eq!(switch_phase(bank.circuit(), "SC1"), ClockPhase::Phi2);
    }

    #[test]
    fn pipeline_alternates_phases_and_holds_input() {
        let proc = Process::c025();
        let stages = [tele_cfg(3, 400e-15), tele_cfg(2, 200e-15)];
        let mut tb = build_pipeline(&proc, &stages, &PipelineOptions::default()).unwrap();
        assert_eq!(tb.stage_amplify_phase(0), ClockPhase::Phi2);
        assert_eq!(tb.stage_amplify_phase(1), ClockPhase::Phi1);
        // The flattened netlist carries the alternation: stage 1 samples on
        // φ2, and its sub-ADC bank samples alongside it.
        assert_eq!(switch_phase(&tb.circuit, "s0.SS1"), ClockPhase::Phi1);
        assert_eq!(switch_phase(&tb.circuit, "s1.SS1"), ClockPhase::Phi2);
        assert_eq!(switch_phase(&tb.circuit, "adc0.SC1"), ClockPhase::Phi1);
        assert_eq!(switch_phase(&tb.circuit, "adc1.SC1"), ClockPhase::Phi2);
        assert_eq!(switch_phase(&tb.circuit, "adcb.SC1"), ClockPhase::Phi1);
        // Probe windows hand off: stage 0's amplification window ends
        // before stage 1's (next period) begins.
        let clk = Clock {
            freq: 40e6,
            nonoverlap: 1e-9,
        };
        let (a0, b0) = clk.phase_window(0, tb.stage_amplify_phase(0));
        let (a1, b1) = clk.phase_window(1, tb.stage_amplify_phase(1));
        assert!(a0 < b0 && b0 <= a1 && a1 < b1);
        // Input hold replaces the drive waveform but keeps the AC
        // magnitude, so the same testbench still sweeps.
        let (id, _) = tb.circuit.find_element(&tb.input_source).unwrap();
        tb.circuit.set_waveform(id, Waveform::Dc(1.7));
        let (_, e) = tb.circuit.find_element("VIN").unwrap();
        match e {
            adc_spice::netlist::Element::VSource { wave, ac_mag, .. } => {
                assert_eq!(*wave, Waveform::Dc(1.7));
                assert_eq!(*ac_mag, 1.0);
            }
            _ => panic!("VIN is not a source"),
        }
    }

    #[test]
    fn sub_adc_structure() {
        let bank = build_sub_adc_phased(3, 10e-15, 10e3, 100.0, false).unwrap();
        // 8 ladder resistors, 6 comparators (switch + cap each).
        let c = bank.circuit();
        assert_eq!(
            c.elements()
                .iter()
                .filter(|e| e.name().starts_with("RL"))
                .count(),
            8
        );
        assert_eq!(
            c.elements()
                .iter()
                .filter(|e| e.name().starts_with("CC"))
                .count(),
            6
        );
    }
}
