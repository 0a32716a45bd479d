//! The designer-derived analytic stage-power model.
//!
//! This is the "designer-derived analytical models for system-level
//! description" half of the paper's hybrid methodology: closed-form design
//! equations size each MDAC stage (capacitors → feedback factor → settling
//! transconductance → slew current → topology from the static-gain floor)
//! and estimate its power; circuit-level synthesis (`adc-synth`) then
//! grounds the same stages with simulation-in-the-loop sizing.
//!
//! Every constant a designer would calibrate against their process lives in
//! [`PowerModelParams`]; [`PowerModelParams::calibrated`] holds the values
//! tuned (see `EXPERIMENTS.md`) so the model reproduces the paper's
//! qualitative results — minimum-power configurations 3-2 / 4-2 / 4-2-2 /
//! 4-3-2 for 10–13 bits, a near-flat first-stage power across m₁, and a
//! 2-bit final front-end stage.

use crate::comparator::{design_comparators, ComparatorBank};
use crate::sizing::{floor_cap, size_stage_caps, CapPlan};
use crate::specs::{stage_specs, AdcSpec, StageSpec};

/// OTA topology classes available to the stage designer, ordered by power
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtaTopology {
    /// Plain telescopic cascode: cheapest, moderate gain.
    Telescopic,
    /// Folded cascode: better swing/level compatibility, more current.
    FoldedCascode,
    /// Gain-boosted telescopic: high gain, small boost-amp overhead.
    GainBoostedTelescopic,
    /// Two-stage Miller with cascoded first stage: highest gain and swing,
    /// highest current overhead.
    TwoStageMiller,
}

impl std::fmt::Display for OtaTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OtaTopology::Telescopic => write!(f, "telescopic"),
            OtaTopology::FoldedCascode => write!(f, "folded-cascode"),
            OtaTopology::GainBoostedTelescopic => write!(f, "gain-boosted telescopic"),
            OtaTopology::TwoStageMiller => write!(f, "two-stage Miller"),
        }
    }
}

/// Calibration constants of the analytic model (all SI units).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModelParams {
    /// Thermal-noise budget as a fraction of quantization noise (κ).
    pub noise_quant_ratio: f64,
    /// Sampling-network noise excess (both phases + switches), α_n.
    pub sampling_noise_factor: f64,
    /// Amplifier-noise excess proportional to β (low-gain stages feel the
    /// opamp noise almost fully).
    pub amp_noise_beta_factor: f64,
    /// Matching requirement margin in σ (3 = 3σ design).
    pub matching_sigma_margin: f64,
    /// Layout/averaging improvement factor on unit-cap matching.
    pub layout_averaging: f64,
    /// Absolute minimum sampling capacitance (wiring floor), F.
    pub cap_floor: f64,
    /// OTA input-loading ratio χ: β = 1/(G·(1+χ)).
    pub input_loading_ratio: f64,
    /// OTA output self-loading: `c_out_fixed + c_out_frac·C_samp`, F.
    pub c_out_fixed: f64,
    /// Fractional output self-loading vs the stage's own sampling cap.
    pub c_out_frac: f64,
    /// Fraction of the feedback network that loads the output:
    /// `C_Leff = C_L + feedback_load_frac·C_f`.
    pub feedback_load_frac: f64,
    /// Fraction of the amplification phase reserved for slewing.
    pub slew_fraction: f64,
    /// Worst-case slewed output step, fraction of full scale.
    pub slew_step_fraction: f64,
    /// Input-pair overdrive voltage, V.
    pub v_overdrive: f64,
    /// Static-error share of the half-LSB budget allocated to finite gain
    /// (2 = half of it).
    pub static_gain_margin: f64,
    /// Achievable DC gain per topology: telescopic.
    pub a0_telescopic: f64,
    /// Achievable DC gain: folded cascode.
    pub a0_folded: f64,
    /// Achievable DC gain: gain-boosted telescopic.
    pub a0_boosted: f64,
    /// Achievable DC gain: two-stage Miller (cascoded first stage).
    pub a0_two_stage: f64,
    /// Power multiplier (vs VDD·I_tail) per topology: telescopic.
    pub factor_telescopic: f64,
    /// Power multiplier: folded cascode.
    pub factor_folded: f64,
    /// Power multiplier: gain-boosted telescopic.
    pub factor_boosted: f64,
    /// Power multiplier: two-stage Miller.
    pub factor_two_stage: f64,
    /// Input capacitance of one comparator (preamp/latch input pair plus
    /// routing), F — loads the *previous* stage's output, so multibit
    /// downstream sub-ADCs are expensive to drive.
    pub comparator_input_cap: f64,
    /// Per-comparator power at the target rate (dynamic latch + ladder
    /// share), W.
    pub comparator_power: f64,
    /// Power multiplier when a preamp is needed (offset beyond redundancy).
    pub comparator_preamp_factor: f64,
    /// Achievable dynamic-latch offset σ, normalized to the reference.
    pub comparator_offset_sigma: f64,
    /// Fixed per-stage overhead (clock drivers, bias, CMFB, references), W.
    pub stage_fixed_power: f64,
}

impl PowerModelParams {
    /// Constants calibrated so the model reproduces the paper's reported
    /// optima (see DESIGN.md "Shape criteria"). Derivations and the
    /// calibration protocol are documented in EXPERIMENTS.md.
    pub fn calibrated() -> Self {
        PowerModelParams {
            noise_quant_ratio: 1.0,
            sampling_noise_factor: 2.31,
            amp_noise_beta_factor: 2.28,
            matching_sigma_margin: 3.0,
            layout_averaging: 4.26,
            cap_floor: 62.55e-15,
            input_loading_ratio: 0.141,
            c_out_fixed: 80e-15,
            c_out_frac: 0.03,
            feedback_load_frac: 0.8,
            slew_fraction: 0.368,
            slew_step_fraction: 0.854,
            v_overdrive: 0.344,
            static_gain_margin: 2.0,
            a0_telescopic: 1702.0,
            a0_folded: 1800.0,
            a0_boosted: 3e6,
            a0_two_stage: 1e5,
            factor_telescopic: 1.05,
            factor_boosted: 1.708,
            factor_folded: 2.0,
            factor_two_stage: 2.5,
            comparator_input_cap: 10.59e-15,
            comparator_power: 4.20e-5,
            comparator_preamp_factor: 3.0,
            comparator_offset_sigma: 15e-3,
            stage_fixed_power: 0.9357e-3,
        }
    }

    /// Topology capability/overhead table in ascending-overhead order.
    fn topology_table(&self) -> [(OtaTopology, f64, f64); 4] {
        [
            (
                OtaTopology::Telescopic,
                self.a0_telescopic,
                self.factor_telescopic,
            ),
            (
                OtaTopology::GainBoostedTelescopic,
                self.a0_boosted,
                self.factor_boosted,
            ),
            (
                OtaTopology::FoldedCascode,
                self.a0_folded,
                self.factor_folded,
            ),
            (
                OtaTopology::TwoStageMiller,
                self.a0_two_stage,
                self.factor_two_stage,
            ),
        ]
    }

    /// Picks the cheapest topology meeting a DC-gain requirement.
    pub fn select_topology(&self, a0_required: f64) -> Option<(OtaTopology, f64)> {
        let mut best: Option<(OtaTopology, f64)> = None;
        for (topo, cap, factor) in self.topology_table() {
            if cap >= a0_required && best.map_or(true, |(_, bf)| factor < bf) {
                best = Some((topo, factor));
            }
        }
        best
    }
}

impl Default for PowerModelParams {
    fn default() -> Self {
        PowerModelParams::calibrated()
    }
}

/// Full analytic design of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDesign {
    /// The block specification this design implements.
    pub spec: StageSpec,
    /// Capacitor plan.
    pub caps: CapPlan,
    /// Load capacitance seen during amplification (next stage + parasitics), F.
    pub c_load: f64,
    /// Effective settling load `C_L + feedback share`, F.
    pub c_load_eff: f64,
    /// Settling time constants required, `ln 2 · (B+1)`.
    pub n_tau: f64,
    /// Required transconductance, S.
    pub gm: f64,
    /// Slew-limited tail current, A.
    pub i_slew: f64,
    /// Chosen tail current, A.
    pub i_tail: f64,
    /// Required DC gain (linear).
    pub a0_required: f64,
    /// Selected OTA topology.
    pub topology: OtaTopology,
    /// MDAC (opamp) power, W.
    pub power_opamp: f64,
    /// Sub-ADC comparator-bank design.
    pub comparators: ComparatorBank,
    /// Fixed per-stage overhead, W.
    pub power_fixed: f64,
    /// Total stage power, W.
    pub power_total: f64,
}

/// Designs one stage given the capacitance its residue must drive.
pub fn design_stage(
    spec: &AdcSpec,
    st: &StageSpec,
    c_next: f64,
    p: &PowerModelParams,
) -> StageDesign {
    let caps = size_stage_caps(spec, st, p);
    let c_load = c_next + p.c_out_fixed + p.c_out_frac * caps.c_samp;
    let c_load_eff = c_load + p.feedback_load_frac * caps.c_f;

    let t_amp = spec.t_amplify();
    let t_lin = t_amp * (1.0 - p.slew_fraction);
    let t_slew = t_amp * p.slew_fraction;

    // Linear settling: e^{−t/τ} ≤ 2^{−(B+1)} → N_τ = ln2·(B+1).
    let n_tau = std::f64::consts::LN_2 * (st.output_accuracy + 1) as f64;
    let gm = c_load_eff * n_tau / (caps.beta * t_lin);

    // Slew: class-A differential pair slews C_Leff with the tail current.
    let i_slew = p.slew_step_fraction * spec.full_scale / t_slew * c_load_eff;

    // Square law: gm = 2·I_D/Veff per side; I_tail = 2·I_D = gm·Veff.
    let i_gm = gm * p.v_overdrive;
    let i_tail = i_gm.max(i_slew);

    // Static gain: the closed-loop gain error 1/(A0·β) must stay below the
    // residue's output-accuracy budget, 2^{−(B+1)}/margin. (Note the budget
    // is at the *output* accuracy B: the back-end only resolves B more
    // bits. With β ≈ 2^{−(m−1)} this makes A0_req ≈ 2^{A+1}·margin·(1+χ) —
    // nearly independent of the stage resolution, one reason multibit
    // first stages are not gain-penalized.)
    let a0_required = (1u64 << (st.output_accuracy + 1)) as f64 * p.static_gain_margin / caps.beta;
    let (topology, factor) = p
        .select_topology(a0_required)
        .unwrap_or((OtaTopology::TwoStageMiller, p.factor_two_stage));

    let power_opamp = spec.process.vdd * i_tail * factor;
    let comparators = design_comparators(spec, st, p);
    let power_fixed = p.stage_fixed_power;
    let power_total = power_opamp + comparators.power + power_fixed;

    StageDesign {
        spec: *st,
        caps,
        c_load,
        c_load_eff,
        n_tau,
        gm,
        i_slew,
        i_tail,
        a0_required,
        topology,
        power_opamp,
        comparators,
        power_fixed,
        power_total,
    }
}

/// Designs a whole front-end chain for configuration `front_bits`.
///
/// Capacitors are sized front-to-back; each stage's load is the next
/// stage's sampling capacitor (the backend's input cap for the last front
/// stage).
pub fn design_chain(spec: &AdcSpec, front_bits: &[u32], p: &PowerModelParams) -> Vec<StageDesign> {
    let sts = stage_specs(spec, front_bits);
    let plans: Vec<CapPlan> = sts.iter().map(|s| size_stage_caps(spec, s, p)).collect();
    // Backend: a 1.5-bit (m = 2) tail stage samples the last residue; its
    // two comparators load the node too.
    let backend_cap = floor_cap(spec, 2, p) + 2.0 * p.comparator_input_cap;
    sts.iter()
        .enumerate()
        .map(|(i, st)| {
            let c_next = if i + 1 < plans.len() {
                plans[i + 1].c_samp + sts[i + 1].comparator_count() as f64 * p.comparator_input_cap
            } else {
                backend_cap
            };
            design_stage(spec, st, c_next, p)
        })
        .collect()
}

/// Total front-end power of a configuration, W.
pub fn chain_power(spec: &AdcSpec, front_bits: &[u32], p: &PowerModelParams) -> f64 {
    design_chain(spec, front_bits, p)
        .iter()
        .map(|d| d.power_total)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PowerModelParams {
        PowerModelParams::calibrated()
    }

    #[test]
    fn stage_power_decays_along_pipeline() {
        let spec = AdcSpec::date05(13);
        for cfg in [vec![4u32, 3, 2], vec![3, 3, 3], vec![2, 2, 2, 2, 2, 2]] {
            let chain = design_chain(&spec, &cfg, &p());
            for w in chain.windows(2) {
                assert!(
                    w[0].power_total > w[1].power_total * 0.95,
                    "cfg {cfg:?}: stage {} ({:.2} mW) vs stage {} ({:.2} mW)",
                    w[0].spec.index,
                    w[0].power_total * 1e3,
                    w[1].spec.index,
                    w[1].power_total * 1e3
                );
            }
        }
    }

    #[test]
    fn first_stage_gm_is_millisiemens_class() {
        let spec = AdcSpec::date05(13);
        let chain = design_chain(&spec, &[4, 3, 2], &p());
        assert!(
            chain[0].gm > 1e-3 && chain[0].gm < 50e-3,
            "gm = {}",
            chain[0].gm
        );
        assert!(chain[0].i_tail > 0.2e-3 && chain[0].i_tail < 10e-3);
    }

    #[test]
    fn topology_selection_honors_gain_requirement() {
        let pp = p();
        let (t, _) = pp.select_topology(1000.0).unwrap();
        assert_eq!(t, OtaTopology::Telescopic);
        let (t, _) = pp.select_topology(50_000.0).unwrap();
        assert_eq!(t, OtaTopology::GainBoostedTelescopic);
        assert!(pp.select_topology(1e9).is_none());
    }

    #[test]
    fn first_stage_needs_high_gain_at_13_bits() {
        let spec = AdcSpec::date05(13);
        let chain = design_chain(&spec, &[4, 3, 2], &p());
        assert!(
            chain[0].a0_required > 1e4,
            "A0 req = {}",
            chain[0].a0_required
        );
        assert_eq!(chain[0].topology, OtaTopology::GainBoostedTelescopic);
        // The cheap last stage should get away with less.
        assert!(chain[2].a0_required < chain[0].a0_required / 10.0);
    }

    #[test]
    fn power_is_physical_milliwatts() {
        let spec = AdcSpec::date05(13);
        for cfg in [vec![4u32, 3, 2], vec![4, 4], vec![2, 2, 2, 2, 2, 2]] {
            let total = chain_power(&spec, &cfg, &p());
            assert!(
                total > 3e-3 && total < 60e-3,
                "cfg {cfg:?}: {:.2} mW",
                total * 1e3
            );
        }
    }

    #[test]
    fn lower_resolution_needs_less_power() {
        let p = p();
        let p10 = chain_power(&AdcSpec::date05(10), &[3, 2], &p);
        let p13 = chain_power(&AdcSpec::date05(13), &[3, 2], &p);
        assert!(p10 < p13, "{p10} vs {p13}");
    }

    #[test]
    fn slew_current_counted() {
        let spec = AdcSpec::date05(13);
        let chain = design_chain(&spec, &[4, 3, 2], &p());
        for d in &chain {
            assert!(d.i_tail >= d.i_slew);
            assert!(d.i_tail >= d.gm * 0.25 * 0.999);
        }
    }
}
