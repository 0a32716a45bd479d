//! # adc-serve
//!
//! **Synthesis-as-a-service**: the resident flow server over the
//! candidate-set synthesis flow of `adc-topopt`.
//!
//! A designer-facing deployment of the paper's flow is interactive —
//! submit a spec, poll, inspect ranked candidates, retarget — but every
//! batch binary in the workspace dies with its process and takes its
//! warm cross-resolution block cache with it. This crate keeps the cache
//! and the executor pool resident:
//!
//! - [`server`] — from-scratch HTTP/1.1 over `std::net` (the workspace is
//!   registry-free: no axum/tokio/hyper), an accept loop serving
//!   **keep-alive** connections, a bounded worker pool sharing the
//!   **sharded** [`SharedCache`](adc_topopt::cache::SharedCache) through
//!   [`run_flow_shared`](adc_topopt::flow::run_flow_shared) (placement by
//!   block fingerprint: a lookup or commit locks one shard, never the
//!   whole cache), typed admission control (429 + `Retry-After` past the
//!   in-flight cap), and snapshot persistence (integrity-checked restore
//!   on boot, atomic save on shutdown and periodically);
//! - [`session`] — the per-run state machine `Parsed → Elaborated →
//!   Ready → Running → Completed/Failed` with illegal transitions
//!   rejected as typed errors;
//! - [`store`] — the bounded `ResultStore` mapping `run_id → (request
//!   echo, RunStats, payload)`, owned independently of the worker that
//!   produced it so polling/fetching/eviction never block the pool;
//! - [`protocol`] — request parsing plus the pure payload renderer shared
//!   with the batch oracle (bit-identity by construction), and the
//!   deterministic `result`-subtree memo warm resubmissions are served
//!   from;
//! - [`http`] — the minimal HTTP framing, the one-shot client, and the
//!   persistent keep-alive [`http::Client`] used by smoke mode, the tests
//!   and `bench_serve`.
//!
//! Serialization rides `adc_topopt::wire` end to end, so the library API
//! and the wire API cannot drift — including the versioned cache-snapshot
//! format.

pub mod http;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use protocol::{
    parse_submit, render_payload, run_and_render, run_and_render_memo, ResultMemo, SubmitRequest,
};
pub use server::{FlowServer, ServerConfig};
pub use session::{IllegalTransition, Session, SessionState};
pub use store::{ResultStore, RunRecord, RunStatus, StoreError};
