//! Circuit-level verification of ranked candidates: the flow stage that
//! builds a winning configuration's **full-pipeline chain testbench** from
//! its synthesized blocks and evaluates it end to end.
//!
//! The ranking sums per-stage power estimates; this stage closes the gap
//! the ROADMAP called out — the winner is re-checked at the circuit level
//! with real inter-stage loading (each stage's sampling array and sub-ADC
//! bank load the previous MDAC), and the chain-level gain, bandwidth,
//! settling constant and supply power are reported **next to** the
//! summed-stage estimates so a coupling-induced shortfall is visible before
//! sign-off.

use crate::enumerate::Candidate;
use crate::flow::{MdacBlock, TemplateKind};
use adc_mdac::netlist::{
    build_pipeline, MdacStageConfig, OtaSizing, PipelineOptions, PipelineTestbench,
};
use adc_mdac::opamp::{TelescopicParams, TwoStageParams};
use adc_mdac::power::{design_chain, PowerModelParams};
use adc_mdac::sizing::floor_cap;
use adc_mdac::specs::AdcSpec;
use adc_spice::tran::Clock;
use adc_synth::chain::{ChainEvaluator, ChainOptions, ChainReport};
use adc_synth::hybrid::BenchSetup;
use adc_synth::tran_chain::{
    TranChainEvaluator, TranChainOptions, TranChainReport, TranChainSetup,
};

/// Options of the chain-verification stage.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Clocked transient sign-off options; `None` skips the dynamic leg
    /// (small-signal verification only).
    pub tran: Option<TranChainOptions>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            tran: Some(TranChainOptions::default()),
        }
    }
}

/// Chain-level verification record of one candidate, reported next to the
/// summed-stage estimates.
#[derive(Debug, Clone)]
pub struct ChainVerification {
    /// Configuration label, e.g. `"4-3-2"`.
    pub config: String,
    /// Converter resolution, bits.
    pub resolution: u32,
    /// The chain-level measurement.
    pub report: ChainReport,
    /// Clocked transient sign-off under real φ1/φ2 phases (when the
    /// dynamic leg ran).
    pub tran: Option<TranChainReport>,
    /// Ideal end-to-end gain `∏ 2^{mᵢ−1}`.
    pub gain_expected: f64,
    /// Sum of the synthesized blocks' OTA supply powers, W (the estimate
    /// the ranking would sign off on).
    pub power_summed: f64,
    /// Sum of the analytic model's per-stage opamp powers, W.
    pub power_analytic: f64,
}

/// Pairs each stage design of a candidate with its synthesized block.
fn stage_blocks<'a>(
    spec: &AdcSpec,
    candidate: &Candidate,
    blocks: &'a [MdacBlock],
    params: &PowerModelParams,
) -> Result<Vec<(adc_mdac::StageDesign, &'a MdacBlock)>, String> {
    design_chain(spec, candidate.front_bits(), params)
        .into_iter()
        .map(|design| {
            let key = design.spec.reuse_key();
            blocks
                .iter()
                .find(|b| b.key == key)
                .map(|b| (design, b))
                .ok_or_else(|| format!("no synthesized block for stage {key:?}"))
        })
        .collect()
}

/// Maps a candidate's stages onto their synthesized blocks and assembles
/// the chain testbench, sub-ADC banks included. `blocks` is a
/// candidate-set synthesis result (for this candidate or a superset, e.g.
/// the whole enumeration's distinct blocks). The testbench does not
/// depend on `_opts`; callers pass the options of the verification they
/// build it for.
///
/// # Errors
/// A human-readable reason when a stage has no matching block or the
/// netlist assembly fails.
pub fn build_candidate_testbench(
    spec: &AdcSpec,
    candidate: &Candidate,
    blocks: &[MdacBlock],
    params: &PowerModelParams,
    _opts: &VerifyOptions,
) -> Result<PipelineTestbench, String> {
    let pairs = stage_blocks(spec, candidate, blocks, params)?;
    build_paired_testbench(spec, &pairs, params)
}

/// [`build_candidate_testbench`] over an already-matched stage/block list.
fn build_paired_testbench(
    spec: &AdcSpec,
    pairs: &[(adc_mdac::StageDesign, &MdacBlock)],
    params: &PowerModelParams,
) -> Result<PipelineTestbench, String> {
    let stages: Vec<MdacStageConfig> = pairs
        .iter()
        .map(|(design, block)| {
            let sizing = match block.requirements.template {
                TemplateKind::Telescopic => {
                    OtaSizing::Telescopic(TelescopicParams::from_vec(&block.result.best_x))
                }
                TemplateKind::TwoStage => {
                    OtaSizing::TwoStage(TwoStageParams::from_vec(&block.result.best_x))
                }
            };
            MdacStageConfig::from_design(design, sizing)
        })
        .collect();
    let pipeline_opts = PipelineOptions {
        backend_c_load: floor_cap(spec, 2, params) + 2.0 * params.comparator_input_cap,
        c_cmp: params.comparator_input_cap,
        ..Default::default()
    };
    build_pipeline(&spec.process, &stages, &pipeline_opts).map_err(|e| e.to_string())
}

/// Prepares a transient sign-off setup from a built chain testbench: the
/// spec's sampling clock, the testbench's alternating φ1/φ2 stage
/// schedule, and the chain's nodeset-seeded DC options.
pub fn build_tran_setup(
    spec: &AdcSpec,
    tb: &PipelineTestbench,
    stage_gains: Vec<f64>,
) -> TranChainSetup {
    TranChainSetup {
        circuit: tb.circuit.clone(),
        input_source: tb.input_source.clone(),
        stage_outputs: tb.stage_outputs.clone(),
        stage_amplify: (0..tb.stages.len())
            .map(|k| tb.stage_amplify_phase(k))
            .collect(),
        stage_gains,
        clock: Clock {
            freq: spec.fs,
            nonoverlap: spec.t_nonoverlap,
        },
        mid_rail: tb.mid_rail,
        full_scale: spec.full_scale,
        resolution: spec.resolution,
        dc: tb.dc_options(),
    }
}

/// Verifies one ranked candidate at the circuit level: builds its chain
/// testbench from the synthesized blocks, solves it through the reusable
/// workspaces, and reports chain-level gain/settling/power next to the
/// summed-stage estimates.
///
/// # Errors
/// A human-readable reason (missing block, netlist assembly, DC/TF
/// failure).
pub fn verify_candidate(
    spec: &AdcSpec,
    candidate: &Candidate,
    blocks: &[MdacBlock],
    params: &PowerModelParams,
    opts: &VerifyOptions,
) -> Result<ChainVerification, String> {
    let pairs = stage_blocks(spec, candidate, blocks, params)?;
    let tb = build_paired_testbench(spec, &pairs, params)?;
    // Chains do not converge without the testbench's own `.nodeset`
    // guesses and per-node damping.
    let chain_opts = ChainOptions {
        dc: tb.dc_options(),
        ..ChainOptions::default()
    };
    let mut evaluator = ChainEvaluator::new(chain_opts);
    let bench = BenchSetup::new(
        tb.circuit.clone(),
        tb.output,
        tb.supply.clone(),
        tb.devices.clone(),
    );
    let report = evaluator.evaluate(&bench)?;

    // Dynamic leg: run the same netlist through the clocked transient
    // engine and sign off per-stage settling under real phases.
    let tran = match &opts.tran {
        Some(tran_opts) => {
            let gains = pairs.iter().map(|(d, _)| d.spec.gain).collect();
            let mut setup = build_tran_setup(spec, &tb, gains);
            let mut ev = TranChainEvaluator::new(tran_opts.clone());
            Some(ev.evaluate(&mut setup)?)
        }
        None => None,
    };

    let power_summed = pairs
        .iter()
        .map(|(_, b)| b.result.best_perf.get("power").unwrap_or(f64::NAN))
        .sum();
    let power_analytic: f64 = pairs.iter().map(|(d, _)| d.power_opamp).sum();
    Ok(ChainVerification {
        config: candidate.to_string(),
        resolution: spec.resolution,
        report,
        tran,
        gain_expected: tb.expected_gain,
        power_summed,
        power_analytic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, FlowRequest};
    use adc_synth::SynthConfig;

    /// End-to-end: synthesize the 10-bit winner's blocks on a tiny budget
    /// and verify the chain. The 3-2 chain must solve DC, keep its gain
    /// near ∏G = 8, and report power in the same decade as the summed
    /// estimate.
    #[test]
    fn verify_ten_bit_winner_chain() {
        let spec = AdcSpec::date05(10);
        let params = PowerModelParams::calibrated();
        let candidate = Candidate::new(vec![3, 2]);
        let cfg = SynthConfig {
            iterations: 60,
            nm_iterations: 20,
            seed: 9,
            ..Default::default()
        };
        let cands = std::slice::from_ref(&candidate);
        let blocks = run_flow(&FlowRequest::new(&spec, cands, &params, &cfg), None).blocks;
        let v = verify_candidate(
            &spec,
            &candidate,
            &blocks,
            &params,
            &VerifyOptions::default(),
        )
        .unwrap();
        assert_eq!(v.config, "3-2");
        assert_eq!(v.gain_expected, 8.0);
        assert!(v.report.mna_dim > 60, "dim {}", v.report.mna_dim);
        assert!(v.report.dc_sparse && v.report.tf_sparse);
        // Small-budget sizings still produce a working residue chain.
        let gain_error = (v.report.gain - v.gain_expected).abs() / v.gain_expected;
        assert!(gain_error < 0.15, "gain {}", v.report.gain);
        assert!(v.report.power > 0.0 && v.report.power < 0.1);
        assert!(v.power_summed > 0.0);
        assert!(v.power_analytic > 0.0);
        // The dynamic leg ran: both stages amplified their residues under
        // the real clock schedule.
        let tr = v.tran.as_ref().expect("transient sign-off ran");
        assert_eq!(tr.stages.len(), 2);
        assert!(tr.accepted > 0 && tr.min_dt > 0.0);
        for (k, s) in tr.stages.iter().enumerate() {
            assert!(
                s.residue_gain > 0.5 * s.ideal_gain,
                "stage {k}: residue gain {} vs ideal {}",
                s.residue_gain,
                s.ideal_gain
            );
        }
    }

    #[test]
    fn missing_block_is_reported() {
        let spec = AdcSpec::date05(10);
        let params = PowerModelParams::calibrated();
        let candidate = Candidate::new(vec![3, 2]);
        let err = verify_candidate(&spec, &candidate, &[], &params, &VerifyOptions::default())
            .unwrap_err();
        assert!(err.contains("no synthesized block"), "{err}");
    }
}
