//! The flow-request wire protocol: request parsing and the **pure**
//! result-payload renderer.
//!
//! The renderer is one function over `(request, SynthesisRun)` used by the
//! server worker, the `--smoke` oracle and the integration tests alike, so
//! "server payload ≡ batch payload" is a property of shared code, not of
//! two implementations kept in sync by hand.
//!
//! Payload layout (top-level keys):
//! - `request` — canonical echo of the submitted spec/config/options;
//! - `stats` — this run's [`RunStats`](adc_topopt::flow::RunStats) (cache-warmth dependent by design:
//!   a warm replay reports hits, not cold work);
//! - `health` — the `run_health_table` rendering of the same stats;
//! - `result` — everything **deterministic given the request**: ranked
//!   candidates, surviving candidates, synthesized blocks (sizings,
//!   performance, costs), failures (kind/attempts, no wall-clock), and
//!   the optional chain-verification report. Bit-identity tests compare
//!   this subtree byte for byte.

use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_synth::SynthConfig;
use adc_topopt::cache::SharedCache;
use adc_topopt::enumerate::{enumerate_candidates, Candidate};
use adc_topopt::executor::FailureKind;
use adc_topopt::flow::{
    run_flow_shared, surviving_candidates, FlowOptions, FlowRequest, SynthesisRun,
};
use adc_topopt::optimize::optimize_topology;
use adc_topopt::report::run_health_table;
use adc_topopt::verify::{verify_candidate, VerifyOptions};
use adc_topopt::wire::{
    flow_options_from_json, flow_options_to_json, run_stats_to_json, spec_from_json, spec_to_json,
    synth_config_from_json, synth_config_to_json, verification_to_json, JsonValue, WireError,
};

/// Backend flash resolution the enumeration closes against (the paper's
/// 7-bit backend; every batch workload in the repo uses the same).
pub const BACKEND_BITS: u32 = 7;

/// A parsed submission.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Target ADC specification.
    pub spec: AdcSpec,
    /// Synthesis budget/seed (defaults applied field-wise).
    pub cfg: SynthConfig,
    /// Fault-tolerance/budget knobs (defaults applied field-wise).
    pub options: FlowOptions,
}

impl SubmitRequest {
    /// Canonical re-render of the request: submitting this echo again is
    /// byte-for-byte idempotent.
    pub fn canonical(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("spec".to_string(), spec_to_json(&self.spec)),
            ("config".to_string(), synth_config_to_json(&self.cfg)),
            ("options".to_string(), flow_options_to_json(&self.options)),
        ])
    }
}

/// Parses a submission body: `{"spec": {...}, "config": {...},
/// "options": {...}}` with `config`/`options` optional.
///
/// # Errors
/// A typed [`WireError`] naming the offending field.
pub fn parse_submit(body: &str) -> Result<SubmitRequest, WireError> {
    let doc = JsonValue::parse(body)?;
    let spec_field = doc
        .get("spec")
        .ok_or_else(|| WireError::MissingField("spec".to_string()))?;
    let spec = spec_from_json(spec_field)?;
    let cfg = match doc.get("config") {
        Some(v) => synth_config_from_json(v)?,
        None => SynthConfig::default(),
    };
    let options = match doc.get("options") {
        Some(v) => flow_options_from_json(v)?,
        None => FlowOptions::default(),
    };
    Ok(SubmitRequest { spec, cfg, options })
}

/// Spec sanity limits the server elaborates against (the session edge
/// `Parsed → Elaborated`).
///
/// # Errors
/// A human-readable reason; the run is never admitted.
pub fn elaborate(spec: &AdcSpec) -> Result<(), String> {
    if !(6..=16).contains(&spec.resolution) {
        return Err(format!(
            "resolution {} outside the supported 6..=16 bit range",
            spec.resolution
        ));
    }
    if !(spec.fs.is_finite() && spec.fs > 0.0) {
        return Err(format!("sampling rate {} is not positive", spec.fs));
    }
    if !(spec.full_scale.is_finite() && spec.full_scale > 0.0) {
        return Err(format!("full scale {} is not positive", spec.full_scale));
    }
    if !(spec.t_nonoverlap.is_finite() && spec.t_nonoverlap >= 0.0) {
        return Err(format!(
            "non-overlap time {} is not non-negative",
            spec.t_nonoverlap
        ));
    }
    Ok(())
}

fn failure_kind_str(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Panic => "panic",
        FailureKind::Timeout => "timeout",
        FailureKind::Error => "error",
    }
}

/// The deterministic `result` subtree (see module docs).
fn result_json(
    req: &SubmitRequest,
    candidates: &[Candidate],
    run: &SynthesisRun,
    verify: bool,
) -> JsonValue {
    let params = PowerModelParams::calibrated();
    let report = optimize_topology(&req.spec, &params);
    let ranked: Vec<JsonValue> = report
        .rows
        .iter()
        .map(|row| {
            JsonValue::Obj(vec![
                (
                    "candidate".to_string(),
                    JsonValue::Str(row.candidate.to_string()),
                ),
                ("total_power".to_string(), JsonValue::num(row.total_power)),
                (
                    "stage_power".to_string(),
                    JsonValue::Arr(row.stage_power.iter().map(|&p| JsonValue::num(p)).collect()),
                ),
            ])
        })
        .collect();
    let survivors = surviving_candidates(&req.spec, candidates, run);
    let survivor_names: Vec<JsonValue> = survivors
        .iter()
        .map(|c| JsonValue::Str(c.to_string()))
        .collect();
    let blocks: Vec<JsonValue> = run
        .blocks
        .iter()
        .map(|b| {
            JsonValue::Obj(vec![
                ("m".to_string(), JsonValue::Num(f64::from(b.key.0))),
                ("bits".to_string(), JsonValue::Num(f64::from(b.key.1))),
                ("retargeted".to_string(), JsonValue::Bool(b.retargeted)),
                ("feasible".to_string(), JsonValue::Bool(b.result.feasible)),
                (
                    "evaluations".to_string(),
                    JsonValue::Num(b.result.evaluations as f64),
                ),
                ("best_cost".to_string(), JsonValue::num(b.result.best_cost)),
                (
                    "best_x".to_string(),
                    JsonValue::Arr(b.result.best_x.iter().map(|&x| JsonValue::num(x)).collect()),
                ),
                (
                    "perf".to_string(),
                    JsonValue::Obj(
                        b.result
                            .best_perf
                            .iter()
                            .map(|(k, v)| (k.to_string(), JsonValue::num(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let failures: Vec<JsonValue> = run
        .failures
        .iter()
        .map(|c| {
            JsonValue::Obj(vec![
                ("m".to_string(), JsonValue::Num(f64::from(c.key.0))),
                ("bits".to_string(), JsonValue::Num(f64::from(c.key.1))),
                (
                    "kind".to_string(),
                    JsonValue::Str(failure_kind_str(c.failure.kind).to_string()),
                ),
                (
                    "message".to_string(),
                    JsonValue::Str(c.failure.message.clone()),
                ),
                (
                    "attempts".to_string(),
                    JsonValue::Num(c.failure.attempts as f64),
                ),
            ])
        })
        .collect();
    // Chain-level sign-off of the best surviving candidate (small-signal
    // leg only: the clocked transient belongs to offline sign-off, not a
    // polling loop).
    let verify_json = if verify {
        let best = report
            .rows
            .iter()
            .find(|row| survivors.contains(&row.candidate));
        match best {
            Some(row) => {
                let opts = VerifyOptions { tran: None };
                match verify_candidate(&req.spec, &row.candidate, &run.blocks, &params, &opts) {
                    Ok(v) => verification_to_json(&v),
                    Err(e) => JsonValue::Obj(vec![("error".to_string(), JsonValue::Str(e))]),
                }
            }
            None => JsonValue::Null,
        }
    } else {
        JsonValue::Null
    };
    JsonValue::Obj(vec![
        ("ranked".to_string(), JsonValue::Arr(ranked)),
        ("survivors".to_string(), JsonValue::Arr(survivor_names)),
        ("blocks".to_string(), JsonValue::Arr(blocks)),
        ("failures".to_string(), JsonValue::Arr(failures)),
        ("verify".to_string(), verify_json),
    ])
}

/// Renders the full payload for one finished run. Pure in `(req, run,
/// verify)` apart from the warmth-dependent `stats`/`health` sections.
pub fn render_payload(
    req: &SubmitRequest,
    candidates: &[Candidate],
    run: &SynthesisRun,
    verify: bool,
) -> String {
    payload_with_result(req, run, result_json(req, candidates, run, verify))
}

/// Assembles the payload around an already-built `result` subtree (fresh
/// or memoized — the bytes are identical either way).
fn payload_with_result(req: &SubmitRequest, run: &SynthesisRun, result: JsonValue) -> String {
    JsonValue::Obj(vec![
        ("request".to_string(), req.canonical()),
        ("stats".to_string(), run_stats_to_json(&run.stats)),
        (
            "health".to_string(),
            JsonValue::Str(run_health_table(&[(req.spec.resolution, run)])),
        ),
        ("result".to_string(), result),
    ])
    .render()
}

/// Decides the terminal session state of a finished run: `Completed` when
/// the ranking survives (possibly degraded), `Failed` when every
/// candidate lost a block.
///
/// # Errors
/// The typed reason (first casualty's
/// [`FlowError`](adc_topopt::flow::FlowError) display) when nothing
/// survived.
pub fn outcome(spec: &AdcSpec, candidates: &[Candidate], run: &SynthesisRun) -> Result<(), String> {
    if run.failures.is_empty() {
        return Ok(());
    }
    if surviving_candidates(spec, candidates, run).is_empty() {
        let reason = match run.clone().into_result() {
            Err(e) => e.to_string(),
            Ok(_) => "no surviving candidate".to_string(),
        };
        return Err(reason);
    }
    Ok(())
}

/// Memo of `result` subtrees keyed by canonical request (plus the verify
/// flag).
///
/// Under [`CachePolicy::Reproducible`](adc_topopt::cache::CachePolicy)
/// the `result` subtree is a **pure function of the canonical request** —
/// that is exactly the bit-identity contract the oracle tests pin — so a
/// warm resubmission can reuse the subtree the first run computed and
/// skip ranking, chain verification, and result rendering entirely. The
/// per-run `stats` and `health` sections are still rendered fresh (they
/// are cache-warmth dependent by design). Fault-affected runs (any
/// failure or recovery) neither consult nor populate the memo, so a
/// chaos-degraded run always renders its own subtree. Bounded: past
/// [`ResultMemo::CAP`] distinct requests, new subtrees are computed but
/// not recorded.
#[derive(Default)]
pub struct ResultMemo {
    map: std::sync::Mutex<std::collections::HashMap<String, JsonValue>>,
}

impl ResultMemo {
    /// Distinct canonical requests memoized at most.
    pub const CAP: usize = 128;

    /// An empty memo.
    #[must_use]
    pub fn new() -> ResultMemo {
        ResultMemo::default()
    }

    fn get(&self, key: &str) -> Option<JsonValue> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    fn put(&self, key: String, value: JsonValue) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() < Self::CAP {
            map.insert(key, value);
        }
    }
}

/// Runs one request against the sharded shared cache and renders its
/// payload — the exact code path of a server worker, callable with a
/// fresh cache as the batch oracle.
pub fn run_and_render(
    req: &SubmitRequest,
    cache: &SharedCache,
    verify: bool,
) -> (SynthesisRun, String) {
    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
    let flow_req =
        FlowRequest::new(&req.spec, &candidates, &params, &req.cfg).with_options(req.options);
    let run = run_flow_shared(&flow_req, cache);
    let payload = render_payload(req, &candidates, &run, verify);
    (run, payload)
}

/// [`run_and_render`] with a [`ResultMemo`]: the server worker's hot
/// path. A clean run of a request seen before (Reproducible policy only)
/// reuses the memoized `result` subtree instead of re-ranking,
/// re-verifying, and re-rendering it.
pub fn run_and_render_memo(
    req: &SubmitRequest,
    cache: &SharedCache,
    verify: bool,
    memo: &ResultMemo,
) -> (SynthesisRun, String) {
    use adc_topopt::cache::CachePolicy;

    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
    let flow_req =
        FlowRequest::new(&req.spec, &candidates, &params, &req.cfg).with_options(req.options);
    let run = run_flow_shared(&flow_req, cache);
    // Memoization is sound only where determinism is a contract: the
    // Reproducible policy, and a run the fault ladder never touched.
    let clean = cache.policy() == CachePolicy::Reproducible
        && run.failures.is_empty()
        && run.stats.recovered == 0
        && run.stats.failed == 0;
    let key = format!("{}#verify={verify}", req.canonical().render());
    let result = match clean.then(|| memo.get(&key)).flatten() {
        Some(result) => result,
        None => {
            let result = result_json(req, &candidates, &run, verify);
            if clean {
                memo.put(key, result.clone());
            }
            result
        }
    };
    let payload = payload_with_result(req, &run, result);
    (run, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_topopt::cache::CachePolicy;
    use adc_topopt::flow::run_flow;

    fn tiny_request(resolution: u32) -> SubmitRequest {
        SubmitRequest {
            spec: AdcSpec::date05(resolution),
            cfg: SynthConfig {
                iterations: 8,
                nm_iterations: 2,
                seed: 13,
                ..Default::default()
            },
            options: FlowOptions::default(),
        }
    }

    #[test]
    fn submit_round_trips_through_canonical_echo() {
        let req = tiny_request(10);
        let echo = req.canonical().render();
        let back = parse_submit(&echo).unwrap();
        assert_eq!(back.spec, req.spec);
        assert_eq!(back.cfg, req.cfg);
        assert_eq!(back.options, req.options);
        assert_eq!(back.canonical().render(), echo, "idempotent echo");
    }

    #[test]
    fn submit_rejections_are_typed() {
        assert!(matches!(
            parse_submit("{}").unwrap_err(),
            WireError::MissingField(f) if f == "spec"
        ));
        assert!(matches!(
            parse_submit("not json").unwrap_err(),
            WireError::Parse { .. }
        ));
    }

    #[test]
    fn elaboration_limits_are_enforced() {
        assert!(elaborate(&AdcSpec::date05(10)).is_ok());
        let mut spec = AdcSpec::date05(10);
        spec.resolution = 40;
        assert!(elaborate(&spec).unwrap_err().contains("resolution"));
        let mut spec = AdcSpec::date05(10);
        spec.fs = -1.0;
        assert!(elaborate(&spec).unwrap_err().contains("sampling rate"));
    }

    /// The shared-cache worker path renders byte-for-byte what the
    /// exclusive batch path renders (the oracle contract every serving
    /// test builds on), at every shard count.
    #[test]
    fn worker_payload_matches_batch_oracle() {
        let req = tiny_request(10);
        let params = PowerModelParams::calibrated();
        let candidates = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
        let batch = run_flow(
            &FlowRequest::new(&req.spec, &candidates, &params, &req.cfg).serial(),
            None,
        );
        let oracle = render_payload(&req, &candidates, &batch, false);
        let oracle_doc = JsonValue::parse(&oracle).unwrap();

        for shards in [1, 4, 8] {
            let cache = SharedCache::with_shards(CachePolicy::Reproducible, shards);
            let (_, served) = run_and_render(&req, &cache, false);
            let served_doc = JsonValue::parse(&served).unwrap();
            assert_eq!(
                served_doc.get("result").unwrap().render(),
                oracle_doc.get("result").unwrap().render(),
                "deterministic subtree must be bit-identical to the serial batch path ({shards} shards)"
            );
            assert_eq!(
                served_doc.get("request").unwrap().render(),
                oracle_doc.get("request").unwrap().render()
            );
        }
    }
}
