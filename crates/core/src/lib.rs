//! # adc-topopt
//!
//! **Designer-driven topology optimization for pipelined ADCs** — the
//! paper's primary contribution, built on the workspace substrates:
//!
//! 1. [`enumerate`] — candidate enumeration of stage-resolution
//!    configurations `m₁-m₂-…` under the paper's §2 constraints
//!    (`Σ(mᵢ−1) = K − backend`, `mᵢ ∈ {2,3,4}`, `mᵢ ≥ mᵢ₊₁`), yielding
//!    exactly seven candidates for a 13-bit converter;
//! 2. [`flow`] — block-level synthesis orchestration: ADC→MDAC spec
//!    translation, the MDAC-reuse cache across candidates (the paper's
//!    eleven-ish distinct MDACs for the seven 13-bit candidates), and
//!    circuit-grounded OTA synthesis with warm-started retargeting,
//!    scheduled on [`executor`] with cross-resolution reuse through
//!    [`cache`];
//! 3. [`optimize`] — stage- and total-power evaluation of every candidate
//!    (Fig. 1 and Fig. 2 of the paper);
//! 4. [`rules`] — derivation of the optimum-enumeration decision rules the
//!    paper summarizes in Fig. 3;
//! 5. [`verify`] — circuit-level sign-off: the winning candidate's stages
//!    are assembled into a full-pipeline chain testbench (hierarchical
//!    subcircuits, real inter-stage loading) and evaluated end to end
//!    through the same workspaces the synthesis used;
//! 6. [`report`] — plain-text/CSV emitters used by the benchmark harness;
//! 7. [`wire`] — the hand-rolled JSON serialization surface shared by the
//!    `adc-serve` wire protocol and the `bench_serve` load generator, so
//!    the library API and the wire API cannot drift.
//!
//! ## Example
//!
//! ```
//! use adc_topopt::enumerate::enumerate_candidates;
//! use adc_topopt::optimize::optimize_topology;
//! use adc_mdac::{specs::AdcSpec, power::PowerModelParams};
//!
//! let cands = enumerate_candidates(13, 7);
//! assert_eq!(cands.len(), 7);
//! let report = optimize_topology(&AdcSpec::date05(13), &PowerModelParams::calibrated());
//! assert_eq!(report.best().candidate.to_string(), "4-3-2");
//! ```

pub mod cache;
pub mod enumerate;
pub mod executor;
pub mod flow;
pub mod optimize;
pub mod report;
pub mod rules;
pub mod verify;
pub mod wire;

pub use cache::{BlockCache, CachePolicy, CacheStats, SharedCache, SnapshotEntry};
pub use enumerate::{enumerate_candidates, Candidate};
pub use executor::{BlockFailure, BlockOutcome, ExecutorOptions, FailureKind};
pub use flow::{
    run_flow, run_flow_shared, surviving_candidates, BlockCasualty, ExecutionMode, FlowError,
    FlowOptions, FlowRequest, RetryPolicy, RunStats, SynthesisRun,
};
pub use optimize::{optimize_topology, TopologyReport};
pub use verify::{verify_candidate, ChainVerification, VerifyOptions};
pub use wire::{JsonValue, WireError};
