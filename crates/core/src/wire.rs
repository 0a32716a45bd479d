//! Single serialization surface for the flow API: hand-rolled JSON
//! (mirroring `bench_check`'s parser idiom — no serde, the workspace is
//! registry-free) so the library API and the wire API cannot drift.
//!
//! The server (`adc-serve`) and the load generator (`bench_serve`) both
//! speak through these functions; any field added to [`AdcSpec`],
//! [`FlowOptions`], [`RunStats`] or the verify reports shows up here or
//! the round-trip tests fail.
//!
//! Grammar notes:
//! - objects preserve insertion order ([`JsonValue::Obj`] is a pair list,
//!   not a map), so rendered payloads are byte-deterministic;
//! - numbers render through Rust's shortest round-trip `f64` formatter;
//!   non-finite values render as `null` and read back as NaN, keeping
//!   `power: NaN` blocks representable;
//! - durations ride as fractional milliseconds (`*_ms` keys).

use crate::cache::{CacheEntry, SharedCache, SnapshotEntry};
use crate::flow::{FlowOptions, OtaRequirements, RetryPolicy, RunStats, TemplateKind};
use crate::verify::ChainVerification;
use adc_mdac::specs::AdcSpec;
use adc_spice::process::Process;
use adc_synth::chain::ChainReport;
use adc_synth::evaluator::Performance;
use adc_synth::tran_chain::{TranChainReport, TranStageReport};
use adc_synth::SynthConfig;
use adc_synth::SynthResult;
use std::fmt;
use std::time::Duration;

/// A parsed JSON document (the subset the wire protocol uses: no
/// distinction between integer and float numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered pair list (insertion order preserved).
    Obj(Vec<(String, JsonValue)>),
}

/// Deepest container nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per `[` or `{`, so without a bound a hostile document a
/// few thousand brackets deep overflows a 2 MiB thread stack. The deepest
/// document the workspace writes (result payloads, cache snapshots) nests
/// 5 levels.
pub const MAX_NESTING: usize = 64;

/// Typed serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The text is not valid JSON: byte offset and reason.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A required field is absent.
    MissingField(String),
    /// A field holds the wrong JSON type.
    BadType {
        /// Dotted field path.
        field: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// The spec names a process this build does not know.
    UnknownProcess(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse { offset, reason } => {
                write!(f, "JSON parse error at byte {offset}: {reason}")
            }
            WireError::MissingField(name) => write!(f, "missing field `{name}`"),
            WireError::BadType { field, expected } => {
                write!(f, "field `{field}` is not {expected}")
            }
            WireError::UnknownProcess(name) => write!(f, "unknown process `{name}`"),
        }
    }
}

impl std::error::Error for WireError {}

impl JsonValue {
    /// Wraps a float, mapping non-finite values to `null` (JSON has no
    /// NaN/∞ literal).
    pub fn num(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Num(v)
        } else {
            JsonValue::Null
        }
    }

    /// Wraps an optional number; `None` becomes `null`.
    pub fn opt_num(v: Option<f64>) -> JsonValue {
        match v {
            Some(x) => JsonValue::num(x),
            None => JsonValue::Null,
        }
    }

    /// Looks a field up on an object (`None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The field as a float; `null` reads back as NaN (the writer's image
    /// of a non-finite value).
    fn f64_field(&self, field: &str) -> Result<f64, WireError> {
        match self.get(field) {
            Some(JsonValue::Num(v)) => Ok(*v),
            Some(JsonValue::Null) => Ok(f64::NAN),
            Some(_) => Err(WireError::BadType {
                field: field.to_string(),
                expected: "a number",
            }),
            None => Err(WireError::MissingField(field.to_string())),
        }
    }

    /// The field as a non-negative integer.
    fn usize_field(&self, field: &str) -> Result<usize, WireError> {
        match self.get(field) {
            Some(JsonValue::Num(v)) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as usize),
            Some(_) => Err(WireError::BadType {
                field: field.to_string(),
                expected: "a non-negative integer",
            }),
            None => Err(WireError::MissingField(field.to_string())),
        }
    }

    /// The field as a string slice.
    fn str_field(&self, field: &str) -> Result<&str, WireError> {
        match self.get(field) {
            Some(JsonValue::Str(s)) => Ok(s),
            Some(_) => Err(WireError::BadType {
                field: field.to_string(),
                expected: "a string",
            }),
            None => Err(WireError::MissingField(field.to_string())),
        }
    }

    /// An optional numeric field: absent or `null` reads as `None`.
    fn opt_f64_field(&self, field: &str) -> Result<Option<f64>, WireError> {
        match self.get(field) {
            Some(JsonValue::Num(v)) => Ok(Some(*v)),
            Some(JsonValue::Null) | None => Ok(None),
            Some(_) => Err(WireError::BadType {
                field: field.to_string(),
                expected: "a number or null",
            }),
        }
    }

    /// Renders compact single-line JSON (byte-deterministic: object order
    /// is insertion order, floats use the shortest round-trip form).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => {
                if v.is_finite() {
                    // Shortest decimal that parses back to the same bits.
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    /// [`WireError::Parse`] with the byte offset of the first offence,
    /// including a container nested deeper than [`MAX_NESTING`].
    pub fn parse(text: &str) -> Result<JsonValue, WireError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(WireError::Parse {
                offset: pos,
                reason: "trailing garbage after document".to_string(),
            });
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(pos: usize, reason: &str) -> WireError {
    WireError::Parse {
        offset: pos,
        reason: reason.to_string(),
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), WireError> {
    if *pos < bytes.len() && bytes[*pos] == want {
        *pos += 1;
        Ok(())
    } else {
        Err(fail(*pos, &format!("expected `{}`", want as char)))
    }
}

/// Parses one value inside `depth` open containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, WireError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_NESTING => Err(fail(
            *pos,
            &format!("containers nested deeper than {MAX_NESTING} levels"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(fail(*pos, "unexpected byte at value position")),
        None => Err(fail(*pos, "unexpected end of input")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, WireError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(fail(*pos, &format!("expected `{lit}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, WireError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| fail(start, "non-UTF-8 number"))?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| fail(start, "malformed number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| fail(*pos, "invalid UTF-8 in string"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| fail(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| fail(*pos, "non-UTF-8 \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| fail(*pos, "malformed \\u escape"))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| fail(*pos, "\\u escape is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(fail(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
            None => return Err(fail(*pos, "unterminated string")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, WireError> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(fail(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, WireError> {
    expect_byte(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(fail(*pos, "expected `,` or `}` in object")),
        }
    }
}

// ---------------------------------------------------------------------------
// Typed conversions: the wire image of the flow API.
// ---------------------------------------------------------------------------

/// Wire image of an [`AdcSpec`]: the process rides by *name* (the server
/// resolves it against its built-in nodes; shipping full model cards over
/// the wire would let clients desynchronize the provenance fingerprints).
pub fn spec_to_json(spec: &AdcSpec) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "resolution".to_string(),
            JsonValue::Num(f64::from(spec.resolution)),
        ),
        ("fs".to_string(), JsonValue::num(spec.fs)),
        ("full_scale".to_string(), JsonValue::num(spec.full_scale)),
        (
            "t_nonoverlap".to_string(),
            JsonValue::num(spec.t_nonoverlap),
        ),
        (
            "process".to_string(),
            JsonValue::Str(spec.process.name.clone()),
        ),
    ])
}

/// Rebuilds an [`AdcSpec`] from its wire image.
///
/// # Errors
/// Missing/ill-typed fields, or a process name this build does not know
/// (only `"c025"` ships today).
pub fn spec_from_json(v: &JsonValue) -> Result<AdcSpec, WireError> {
    let process = match v.str_field("process")? {
        "c025" => Process::c025(),
        other => return Err(WireError::UnknownProcess(other.to_string())),
    };
    let resolution = v.usize_field("resolution")?;
    let resolution = u32::try_from(resolution).map_err(|_| WireError::BadType {
        field: "resolution".to_string(),
        expected: "a u32 resolution",
    })?;
    Ok(AdcSpec {
        resolution,
        fs: v.f64_field("fs")?,
        full_scale: v.f64_field("full_scale")?,
        t_nonoverlap: v.f64_field("t_nonoverlap")?,
        process,
    })
}

/// Wire image of [`FlowOptions`] (durations as fractional milliseconds).
pub fn flow_options_to_json(opts: &FlowOptions) -> JsonValue {
    let ms = |d: Option<Duration>| JsonValue::opt_num(d.map(|d| d.as_secs_f64() * 1e3));
    JsonValue::Obj(vec![
        (
            "max_attempts".to_string(),
            JsonValue::Num(opts.retry.max_attempts as f64),
        ),
        ("block_budget_ms".to_string(), ms(opts.block_budget)),
        ("run_budget_ms".to_string(), ms(opts.run_budget)),
    ])
}

/// Rebuilds [`FlowOptions`] from the wire (absent budget keys mean
/// unlimited, matching `FlowOptions::default()`).
///
/// # Errors
/// Ill-typed fields.
pub fn flow_options_from_json(v: &JsonValue) -> Result<FlowOptions, WireError> {
    let budget = |field: &str| -> Result<Option<Duration>, WireError> {
        Ok(v.opt_f64_field(field)?
            .map(|ms| Duration::from_secs_f64(ms.max(0.0) / 1e3)))
    };
    let max_attempts = match v.get("max_attempts") {
        None => RetryPolicy::default().max_attempts,
        Some(_) => v.usize_field("max_attempts")?.max(1),
    };
    Ok(FlowOptions {
        retry: RetryPolicy { max_attempts },
        block_budget: budget("block_budget_ms")?,
        run_budget: budget("run_budget_ms")?,
    })
}

/// Wire image of a [`SynthConfig`] (seed and budgets; the quantization
/// digits ride along so server runs reproduce batch runs bit for bit).
pub fn synth_config_to_json(cfg: &SynthConfig) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "iterations".to_string(),
            JsonValue::Num(cfg.iterations as f64),
        ),
        (
            "nm_iterations".to_string(),
            JsonValue::Num(cfg.nm_iterations as f64),
        ),
        ("sigma0".to_string(), JsonValue::num(cfg.sigma0)),
        ("sigma_end".to_string(), JsonValue::num(cfg.sigma_end)),
        ("seed".to_string(), JsonValue::Num(cfg.seed as f64)),
        (
            "warm_tail_frac".to_string(),
            JsonValue::num(cfg.warm_tail_frac),
        ),
        (
            "cost_quant_digits".to_string(),
            JsonValue::opt_num(cfg.cost_quant_digits.map(f64::from)),
        ),
    ])
}

/// Most annealing iterations a wire config may request: ten times the
/// default budget. The annealer sizes its history up front, so an
/// unbounded count aborts the process on allocation instead of running
/// slowly.
const MAX_WIRE_ITERATIONS: usize = 20_000;

/// Rebuilds a [`SynthConfig`] from the wire; absent fields inherit
/// `SynthConfig::default()`.
///
/// # Errors
/// Ill-typed fields, `iterations` above 20 000, and a `sigma0` or
/// `sigma_end` that is not finite and positive.
pub fn synth_config_from_json(v: &JsonValue) -> Result<SynthConfig, WireError> {
    let d = SynthConfig::default();
    let usize_or = |field: &str, default: usize| -> Result<usize, WireError> {
        match v.get(field) {
            None => Ok(default),
            Some(_) => v.usize_field(field),
        }
    };
    let f64_or = |field: &str, default: f64| -> Result<f64, WireError> {
        match v.get(field) {
            None => Ok(default),
            Some(_) => v.f64_field(field),
        }
    };
    let iterations = usize_or("iterations", d.iterations)?;
    if iterations > MAX_WIRE_ITERATIONS {
        return Err(WireError::BadType {
            field: "iterations".to_string(),
            expected: "an iteration count of at most 20000",
        });
    }
    let step_size = |field: &str, default: f64| -> Result<f64, WireError> {
        let sigma = f64_or(field, default)?;
        if sigma.is_finite() && sigma > 0.0 {
            Ok(sigma)
        } else {
            Err(WireError::BadType {
                field: field.to_string(),
                expected: "a finite positive step size",
            })
        }
    };
    let cost_quant_digits = match v.get("cost_quant_digits") {
        None => d.cost_quant_digits,
        Some(JsonValue::Null) => None,
        Some(_) => Some(
            u32::try_from(v.usize_field("cost_quant_digits")?).map_err(|_| WireError::BadType {
                field: "cost_quant_digits".to_string(),
                expected: "a u32 digit count",
            })?,
        ),
    };
    Ok(SynthConfig {
        iterations,
        nm_iterations: usize_or("nm_iterations", d.nm_iterations)?,
        sigma0: step_size("sigma0", d.sigma0)?,
        sigma_end: step_size("sigma_end", d.sigma_end)?,
        seed: u64::try_from(usize_or("seed", d.seed as usize)?).unwrap_or(d.seed),
        warm_tail_frac: f64_or("warm_tail_frac", d.warm_tail_frac)?,
        cost_quant_digits,
    })
}

/// Wire image of a run's [`RunStats`].
pub fn run_stats_to_json(stats: &RunStats) -> JsonValue {
    let n = |v: usize| JsonValue::Num(v as f64);
    JsonValue::Obj(vec![
        ("blocks".to_string(), n(stats.blocks)),
        ("cache_hits".to_string(), n(stats.cache_hits)),
        ("cache_seeded".to_string(), n(stats.cache_seeded)),
        ("cold".to_string(), n(stats.cold)),
        ("retargeted".to_string(), n(stats.retargeted)),
        ("evaluations_spent".to_string(), n(stats.evaluations_spent)),
        ("failed".to_string(), n(stats.failed)),
        ("recovered".to_string(), n(stats.recovered)),
        ("demoted".to_string(), n(stats.demoted)),
        ("attempts".to_string(), n(stats.attempts)),
        (
            "deadline_slack_ms".to_string(),
            JsonValue::opt_num(stats.deadline_slack_ms.map(|ms| ms as f64)),
        ),
    ])
}

/// Rebuilds [`RunStats`] from the wire.
///
/// # Errors
/// Missing/ill-typed fields.
pub fn run_stats_from_json(v: &JsonValue) -> Result<RunStats, WireError> {
    Ok(RunStats {
        blocks: v.usize_field("blocks")?,
        cache_hits: v.usize_field("cache_hits")?,
        cache_seeded: v.usize_field("cache_seeded")?,
        cold: v.usize_field("cold")?,
        retargeted: v.usize_field("retargeted")?,
        evaluations_spent: v.usize_field("evaluations_spent")?,
        failed: v.usize_field("failed")?,
        recovered: v.usize_field("recovered")?,
        demoted: v.usize_field("demoted")?,
        attempts: v.usize_field("attempts")?,
        deadline_slack_ms: v.opt_f64_field("deadline_slack_ms")?.map(|ms| ms as i64),
    })
}

fn chain_report_to_json(r: &ChainReport) -> JsonValue {
    JsonValue::Obj(vec![
        ("power".to_string(), JsonValue::num(r.power)),
        ("gain".to_string(), JsonValue::num(r.gain)),
        ("tf_gain".to_string(), JsonValue::num(r.tf_gain)),
        ("unity_freq".to_string(), JsonValue::num(r.unity_freq)),
        ("bw_3db".to_string(), JsonValue::num(r.bw_3db)),
        ("settle_tau".to_string(), JsonValue::num(r.settle_tau)),
        ("saturated".to_string(), JsonValue::num(r.saturated)),
        ("mna_dim".to_string(), JsonValue::Num(r.mna_dim as f64)),
        ("dc_sparse".to_string(), JsonValue::Bool(r.dc_sparse)),
        ("tf_sparse".to_string(), JsonValue::Bool(r.tf_sparse)),
        ("fill_ratio".to_string(), JsonValue::num(r.fill_ratio)),
    ])
}

fn tran_stage_to_json(s: &TranStageReport) -> JsonValue {
    JsonValue::Obj(vec![
        ("amplitude".to_string(), JsonValue::num(s.amplitude)),
        ("settle_err".to_string(), JsonValue::num(s.settle_err)),
        ("half_lsb".to_string(), JsonValue::num(s.half_lsb)),
        ("settled".to_string(), JsonValue::Bool(s.settled)),
        ("residue_gain".to_string(), JsonValue::num(s.residue_gain)),
        ("ideal_gain".to_string(), JsonValue::num(s.ideal_gain)),
    ])
}

fn tran_report_to_json(r: &TranChainReport) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "stages".to_string(),
            JsonValue::Arr(r.stages.iter().map(tran_stage_to_json).collect()),
        ),
        ("all_settled".to_string(), JsonValue::Bool(r.all_settled)),
        ("accepted".to_string(), JsonValue::Num(r.accepted as f64)),
        ("rejected".to_string(), JsonValue::Num(r.rejected as f64)),
        (
            "newton_iters".to_string(),
            JsonValue::Num(r.newton_iters as f64),
        ),
        ("min_dt".to_string(), JsonValue::num(r.min_dt)),
        ("sparse".to_string(), JsonValue::Bool(r.sparse)),
    ])
}

/// Wire image of a circuit-level sign-off record (server → client only:
/// verification is always recomputed, never submitted).
pub fn verification_to_json(v: &ChainVerification) -> JsonValue {
    JsonValue::Obj(vec![
        ("config".to_string(), JsonValue::Str(v.config.clone())),
        (
            "resolution".to_string(),
            JsonValue::Num(f64::from(v.resolution)),
        ),
        ("report".to_string(), chain_report_to_json(&v.report)),
        (
            "tran".to_string(),
            match &v.tran {
                Some(t) => tran_report_to_json(t),
                None => JsonValue::Null,
            },
        ),
        ("gain_expected".to_string(), JsonValue::num(v.gain_expected)),
        ("power_summed".to_string(), JsonValue::num(v.power_summed)),
        (
            "power_analytic".to_string(),
            JsonValue::num(v.power_analytic),
        ),
    ])
}

/// Format tag of a block-cache snapshot document.
pub const SNAPSHOT_FORMAT: &str = "adc-block-cache-snapshot";
/// Snapshot schema version. Entries from any other version are dropped
/// (and counted) on load, never served.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Renders a `u64` fingerprint as fixed-width hex. JSON numbers are
/// `f64`s (exact only to 2^53), so full-width fingerprints ride as
/// strings to round-trip bit-exactly.
fn fp_to_json(fp: u64) -> JsonValue {
    JsonValue::Str(format!("{fp:016x}"))
}

fn fp_field(v: &JsonValue, field: &str) -> Result<u64, WireError> {
    let text = v.str_field(field)?;
    u64::from_str_radix(text, 16).map_err(|_| WireError::BadType {
        field: field.to_string(),
        expected: "a hex-encoded u64 fingerprint",
    })
}

fn template_name(t: TemplateKind) -> &'static str {
    match t {
        TemplateKind::Telescopic => "telescopic",
        TemplateKind::TwoStage => "two_stage",
    }
}

fn template_from_name(name: &str) -> Result<TemplateKind, WireError> {
    match name {
        "telescopic" => Ok(TemplateKind::Telescopic),
        "two_stage" => Ok(TemplateKind::TwoStage),
        _ => Err(WireError::BadType {
            field: "template".to_string(),
            expected: "`telescopic` or `two_stage`",
        }),
    }
}

/// Wire image of one block's exact requirements (snapshot payload).
fn ota_requirements_to_json(req: &OtaRequirements) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "template".to_string(),
            JsonValue::Str(template_name(req.template).to_string()),
        ),
        ("a0_min".to_string(), JsonValue::num(req.a0_min)),
        ("unity_min".to_string(), JsonValue::num(req.unity_min)),
        ("pm_min".to_string(), JsonValue::num(req.pm_min)),
        ("c_load".to_string(), JsonValue::num(req.c_load)),
    ])
}

fn ota_requirements_from_json(v: &JsonValue) -> Result<OtaRequirements, WireError> {
    Ok(OtaRequirements {
        template: template_from_name(v.str_field("template")?)?,
        a0_min: v.f64_field("a0_min")?,
        unity_min: v.f64_field("unity_min")?,
        pm_min: v.f64_field("pm_min")?,
        c_load: v.f64_field("c_load")?,
    })
}

fn f64_array(v: &JsonValue, field: &str) -> Result<Vec<f64>, WireError> {
    match v.get(field) {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|item| match item {
                JsonValue::Num(x) => Ok(*x),
                JsonValue::Null => Ok(f64::NAN),
                _ => Err(WireError::BadType {
                    field: field.to_string(),
                    expected: "an array of numbers",
                }),
            })
            .collect(),
        Some(_) => Err(WireError::BadType {
            field: field.to_string(),
            expected: "an array",
        }),
        None => Err(WireError::MissingField(field.to_string())),
    }
}

/// Wire image of a cached synthesis result (snapshot payload). Finite
/// floats round-trip bit-exactly through the shortest-round-trip
/// formatter; a non-finite value rides as `null` and reads back NaN —
/// such an entry then fails its integrity re-check on load and is
/// dropped, which is the safe outcome for a result the cache could not
/// have served faithfully anyway.
fn synth_result_to_json(r: &SynthResult) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "best_x".to_string(),
            JsonValue::Arr(r.best_x.iter().map(|&x| JsonValue::num(x)).collect()),
        ),
        (
            "best_u".to_string(),
            JsonValue::Arr(r.best_u.iter().map(|&u| JsonValue::num(u)).collect()),
        ),
        (
            "perf".to_string(),
            JsonValue::Obj(
                r.best_perf
                    .iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::num(v)))
                    .collect(),
            ),
        ),
        ("best_cost".to_string(), JsonValue::num(r.best_cost)),
        ("feasible".to_string(), JsonValue::Bool(r.feasible)),
        (
            "evaluations".to_string(),
            JsonValue::Num(r.evaluations as f64),
        ),
    ])
}

fn synth_result_from_json(v: &JsonValue) -> Result<SynthResult, WireError> {
    let mut best_perf = Performance::new();
    match v.get("perf") {
        Some(JsonValue::Obj(pairs)) => {
            for (k, val) in pairs {
                let x = match val {
                    JsonValue::Num(x) => *x,
                    JsonValue::Null => f64::NAN,
                    _ => {
                        return Err(WireError::BadType {
                            field: format!("perf.{k}"),
                            expected: "a number",
                        })
                    }
                };
                best_perf.set(k, x);
            }
        }
        Some(_) => {
            return Err(WireError::BadType {
                field: "perf".to_string(),
                expected: "an object",
            })
        }
        None => return Err(WireError::MissingField("perf".to_string())),
    }
    let feasible = match v.get("feasible") {
        Some(JsonValue::Bool(b)) => *b,
        _ => {
            return Err(WireError::BadType {
                field: "feasible".to_string(),
                expected: "a boolean",
            })
        }
    };
    Ok(SynthResult {
        best_x: f64_array(v, "best_x")?,
        best_u: f64_array(v, "best_u")?,
        best_perf,
        best_cost: v.f64_field("best_cost")?,
        feasible,
        evaluations: v.usize_field("evaluations")?,
    })
}

fn snapshot_entry_to_json(e: &SnapshotEntry) -> JsonValue {
    JsonValue::Obj(vec![
        ("spec_fp".to_string(), fp_to_json(e.spec_fp)),
        (
            "key".to_string(),
            JsonValue::Arr(vec![
                JsonValue::Num(f64::from(e.entry.key.0)),
                JsonValue::Num(f64::from(e.entry.key.1)),
            ]),
        ),
        ("req".to_string(), ota_requirements_to_json(&e.entry.req)),
        ("result".to_string(), synth_result_to_json(&e.entry.result)),
        ("provenance".to_string(), fp_to_json(e.entry.provenance)),
        ("config".to_string(), fp_to_json(e.entry.config)),
        ("integrity".to_string(), fp_to_json(e.integrity)),
    ])
}

fn snapshot_entry_from_json(v: &JsonValue) -> Result<SnapshotEntry, WireError> {
    let key = match v.get("key") {
        Some(JsonValue::Arr(items)) if items.len() == 2 => {
            let part = |i: usize| match &items[i] {
                JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u32),
                _ => Err(WireError::BadType {
                    field: "key".to_string(),
                    expected: "a pair of non-negative integers",
                }),
            };
            (part(0)?, part(1)?)
        }
        _ => {
            return Err(WireError::BadType {
                field: "key".to_string(),
                expected: "a two-element array",
            })
        }
    };
    let req = ota_requirements_from_json(
        v.get("req")
            .ok_or_else(|| WireError::MissingField("req".to_string()))?,
    )?;
    let result = synth_result_from_json(
        v.get("result")
            .ok_or_else(|| WireError::MissingField("result".to_string()))?,
    )?;
    Ok(SnapshotEntry {
        spec_fp: fp_field(v, "spec_fp")?,
        entry: CacheEntry {
            key,
            req,
            result,
            provenance: fp_field(v, "provenance")?,
            config: fp_field(v, "config")?,
        },
        integrity: fp_field(v, "integrity")?,
    })
}

/// What a snapshot restore did: how many entries each path took. The
/// dropped count mirrors the `corrupt_dropped` increments the restore
/// charged against the cache's merged statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLoad {
    /// Entries restored and available for warm hits.
    pub loaded: usize,
    /// Entries dropped: unparseable, version-rejected, or failing their
    /// integrity re-check.
    pub dropped: usize,
}

/// Renders the full content of a [`SharedCache`] as a versioned snapshot
/// document. Entry order is shard-count-invariant (see
/// [`SharedCache::export_entries`]) and the renderer is
/// byte-deterministic, so equal cache contents produce byte-identical
/// snapshots.
pub fn cache_snapshot_to_json(cache: &SharedCache) -> JsonValue {
    let entries = cache
        .export_entries()
        .iter()
        .map(snapshot_entry_to_json)
        .collect();
    JsonValue::Obj(vec![
        (
            "format".to_string(),
            JsonValue::Str(SNAPSHOT_FORMAT.to_string()),
        ),
        (
            "version".to_string(),
            JsonValue::Num(SNAPSHOT_VERSION as f64),
        ),
        ("entries".to_string(), JsonValue::Arr(entries)),
    ])
}

/// Restores a parsed snapshot document into `cache`. Fail-safe by
/// construction: a wrong format tag or schema version drops (and counts)
/// every entry; an unparseable entry is dropped and counted; an entry
/// whose persisted integrity stamp no longer matches its re-computed
/// content fingerprint is dropped and counted by the cache itself. The
/// server boots cold in the worst case — it never crashes on, and never
/// serves, a corrupt entry.
pub fn cache_snapshot_restore(cache: &SharedCache, doc: &JsonValue) -> SnapshotLoad {
    let mut load = SnapshotLoad::default();
    let entries = match doc.get("entries") {
        Some(JsonValue::Arr(items)) => items.as_slice(),
        _ => &[],
    };
    let format_ok = matches!(doc.get("format"), Some(JsonValue::Str(f)) if f == SNAPSHOT_FORMAT);
    let version_ok =
        matches!(doc.get("version"), Some(JsonValue::Num(v)) if *v == SNAPSHOT_VERSION as f64);
    if !format_ok || !version_ok {
        load.dropped = entries.len().max(1);
        cache.note_corrupt_dropped(load.dropped);
        return load;
    }
    for item in entries {
        match snapshot_entry_from_json(item) {
            Ok(entry) => {
                if cache.restore_entry(entry) {
                    load.loaded += 1;
                } else {
                    // Integrity failures were already counted by the
                    // cache; duplicates are benign but not "loaded".
                    load.dropped += 1;
                }
            }
            Err(_) => {
                load.dropped += 1;
                cache.note_corrupt_dropped(1);
            }
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let spec = AdcSpec::date05(13);
        let wire = spec_to_json(&spec).render();
        let back = spec_from_json(&JsonValue::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, spec);
        // Byte-deterministic render.
        assert_eq!(spec_to_json(&back).render(), wire);
    }

    #[test]
    fn unknown_process_is_typed() {
        let doc =
            r#"{"resolution":10,"fs":4e7,"full_scale":2,"t_nonoverlap":1e-9,"process":"c999"}"#;
        let err = spec_from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert_eq!(err, WireError::UnknownProcess("c999".to_string()));
    }

    #[test]
    fn flow_options_round_trip_preserves_budgets() {
        let opts = FlowOptions {
            retry: RetryPolicy { max_attempts: 2 },
            block_budget: Some(Duration::from_millis(250)),
            run_budget: None,
        };
        let wire = flow_options_to_json(&opts).render();
        let back = flow_options_from_json(&JsonValue::parse(&wire).unwrap()).unwrap();
        assert_eq!(back.retry.max_attempts, 2);
        assert_eq!(back.block_budget, Some(Duration::from_millis(250)));
        assert_eq!(back.run_budget, None);
    }

    #[test]
    fn flow_options_default_on_empty_object() {
        let back = flow_options_from_json(&JsonValue::parse("{}").unwrap()).unwrap();
        assert_eq!(back, FlowOptions::default());
    }

    #[test]
    fn synth_config_round_trips_exactly() {
        let cfg = SynthConfig {
            iterations: 60,
            nm_iterations: 20,
            seed: 9,
            ..Default::default()
        };
        let wire = synth_config_to_json(&cfg).render();
        let back = synth_config_from_json(&JsonValue::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, cfg);
        let defaults = synth_config_from_json(&JsonValue::parse("{}").unwrap()).unwrap();
        assert_eq!(defaults, SynthConfig::default());
    }

    /// Budgets and step sizes that would abort, panic or poison every
    /// block are typed wire errors; the bound itself is still admitted.
    #[test]
    fn synth_config_rejects_hostile_budgets_and_step_sizes() {
        let parse = |body: &str| synth_config_from_json(&JsonValue::parse(body).unwrap());
        for (body, field) in [
            (r#"{"iterations": 1e12}"#, "iterations"),
            (r#"{"iterations": 1e300}"#, "iterations"),
            (r#"{"iterations": 20001}"#, "iterations"),
            (r#"{"sigma0": null}"#, "sigma0"),
            (r#"{"sigma0": -1}"#, "sigma0"),
            (r#"{"sigma0": 0}"#, "sigma0"),
            (r#"{"sigma0": 1e400}"#, "sigma0"),
            (r#"{"sigma_end": -0.02}"#, "sigma_end"),
            (r#"{"sigma_end": null}"#, "sigma_end"),
        ] {
            match parse(body) {
                Err(WireError::BadType { field: f, .. }) => assert_eq!(f, field, "{body}"),
                other => panic!("{body} must be a typed error, got {other:?}"),
            }
        }
        let at_bound = parse(r#"{"iterations": 20000, "sigma0": 0.5, "sigma_end": 1e-3}"#).unwrap();
        assert_eq!(at_bound.iterations, 20_000);
        assert_eq!(at_bound.sigma0, 0.5);
        assert_eq!(at_bound.sigma_end, 1e-3);
    }

    #[test]
    fn run_stats_round_trip_with_and_without_slack() {
        for slack in [None, Some(1234_i64), Some(-7)] {
            let stats = RunStats {
                blocks: 11,
                cache_hits: 4,
                cache_seeded: 2,
                cold: 3,
                retargeted: 2,
                evaluations_spent: 900,
                failed: 1,
                recovered: 1,
                demoted: 0,
                attempts: 13,
                deadline_slack_ms: slack,
            };
            let wire = run_stats_to_json(&stats).render();
            let back = run_stats_from_json(&JsonValue::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, stats);
        }
    }

    #[test]
    fn floats_survive_the_shortest_round_trip_format() {
        for v in [0.1, 1.0 / 3.0, 2.5e-13, 4e7, f64::MIN_POSITIVE, 1e300] {
            let wire = JsonValue::Num(v).render();
            match JsonValue::parse(&wire).unwrap() {
                JsonValue::Num(back) => assert_eq!(back.to_bits(), v.to_bits(), "{wire}"),
                other => panic!("parsed {other:?}"),
            }
        }
        // Non-finite values ride as null and read back as NaN.
        assert_eq!(JsonValue::num(f64::NAN).render(), "null");
        let doc = JsonValue::parse(r#"{"power":null}"#).unwrap();
        assert!(doc.f64_field("power").unwrap().is_nan());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for doc in ["{", "[1,", "\"abc", "{\"a\":}", "123x", "{} []"] {
            assert!(JsonValue::parse(doc).is_err(), "{doc}");
        }
        let err = JsonValue::parse("[1, 2,]").unwrap_err();
        assert!(matches!(err, WireError::Parse { .. }));
    }

    /// Nesting is bounded: [`MAX_NESTING`] levels parse, one more is a
    /// typed parse error at the offending bracket, and a megabyte of `[`
    /// is rejected without recursing through it.
    #[test]
    fn parser_bounds_nesting_depth() {
        let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        let objects = |d: usize| format!("{}1{}", r#"{"a":"#.repeat(d), "}".repeat(d));
        assert!(JsonValue::parse(&arrays(MAX_NESTING)).is_ok());
        assert!(JsonValue::parse(&objects(MAX_NESTING)).is_ok());
        for (doc, offset) in [
            (arrays(MAX_NESTING + 1), MAX_NESTING),
            (objects(MAX_NESTING + 1), 5 * MAX_NESTING),
            ("[".repeat(1 << 20), MAX_NESTING),
        ] {
            match JsonValue::parse(&doc) {
                Err(WireError::Parse { offset: at, .. }) => assert_eq!(at, offset),
                other => panic!("expected a nesting error, got {other:?}"),
            }
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quote\" back\\slash\ttab \u{1}ctl µ-unicode";
        let wire = JsonValue::Str(s.to_string()).render();
        assert_eq!(
            JsonValue::parse(&wire).unwrap(),
            JsonValue::Str(s.to_string())
        );
    }

    #[test]
    fn missing_fields_are_typed() {
        let doc = JsonValue::parse(r#"{"resolution":10}"#).unwrap();
        let err = spec_from_json(&doc).unwrap_err();
        assert_eq!(err, WireError::MissingField("process".to_string()));
    }

    /// Cache snapshots are byte-deterministic and shard-count-invariant:
    /// the same content exported from a 1-shard and an 8-shard cache
    /// renders identical bytes; restoring into a cache at yet another
    /// shard count reproduces every entry with zero drops and re-exports
    /// the identical bytes; a version-mismatched snapshot restores
    /// nothing and counts every entry as dropped.
    #[test]
    fn cache_snapshot_round_trips_at_any_shard_count() {
        use crate::cache::CachePolicy;
        use crate::flow::{run_flow_shared, FlowRequest};
        use adc_mdac::power::PowerModelParams;
        use adc_synth::SynthConfig;

        let spec = AdcSpec::date05(10);
        let candidates = crate::enumerate::enumerate_candidates(10, 7);
        let params = PowerModelParams::calibrated();
        let cfg = SynthConfig {
            iterations: 8,
            nm_iterations: 2,
            seed: 13,
            ..Default::default()
        };

        let mut renders = Vec::new();
        for shards in [1usize, 8] {
            let cache = SharedCache::with_shards(CachePolicy::Reproducible, shards);
            let req = FlowRequest::new(&spec, &candidates, &params, &cfg);
            let _ = run_flow_shared(&req, &cache);
            assert!(!cache.is_empty());
            renders.push((cache.len(), cache_snapshot_to_json(&cache).render()));
        }
        assert_eq!(
            renders[0].1, renders[1].1,
            "snapshot bytes must be shard-count-invariant"
        );

        let restored = SharedCache::with_shards(CachePolicy::Reproducible, 3);
        let doc = JsonValue::parse(&renders[0].1).unwrap();
        let load = cache_snapshot_restore(&restored, &doc);
        assert_eq!(load.loaded, renders[0].0);
        assert_eq!(load.dropped, 0);
        assert_eq!(restored.stats().corrupt_dropped, 0);
        assert_eq!(restored.len(), renders[0].0);
        assert_eq!(
            cache_snapshot_to_json(&restored).render(),
            renders[0].1,
            "restore → export must be byte-identical"
        );

        let stale = renders[0].1.replace("\"version\":1", "\"version\":2");
        let victim = SharedCache::with_shards(CachePolicy::Reproducible, 2);
        let load = cache_snapshot_restore(&victim, &JsonValue::parse(&stale).unwrap());
        assert_eq!(load.loaded, 0);
        assert_eq!(load.dropped, renders[0].0);
        assert_eq!(victim.len(), 0, "nothing from a mismatched version");
        assert_eq!(victim.stats().corrupt_dropped, load.dropped);
    }
}
