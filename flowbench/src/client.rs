//! Drives runs through the flow server's HTTP API: submit, poll with a
//! back-off, fetch the payload. Every call is a `serve.http` span; every
//! reply decoded is a `topopt.wire` span.

use crate::api::{self, Conn};
use crate::trace::{SpanId, Tracer};
use std::time::{Duration, Instant};

/// First poll interval. Well below the memo path's service time (a few
/// hundred µs in-process), so a memo replay is not rounded up to a sleep
/// quantum.
pub const POLL_FIRST: Duration = Duration::from_micros(50);
/// Beyond the first interval, a run is polled every `elapsed / 16`...
pub const POLL_DIVISOR: u32 = 16;
/// ...but at least every 10 ms.
pub const POLL_MAX: Duration = Duration::from_millis(10);

/// The latency resolution the back-off gives, for the report.
pub const RESOLUTION: &str =
    "completion seen within max(50 us, elapsed/16, capped at 10 ms) plus the OS sleep slack";

/// Time until the next poll of a run submitted `elapsed` ago.
pub fn poll_interval(elapsed: Duration) -> Duration {
    (elapsed / POLL_DIVISOR).clamp(POLL_FIRST, POLL_MAX)
}

/// A run gives up after this long.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(60);

/// A connection plus the recorder of the thread that owns it.
pub struct Client {
    pub conn: Conn,
    pub tracer: Tracer,
}

impl Client {
    /// Submits `body`; returns the run id or why the submission failed.
    pub fn submit(
        &mut self,
        traced: bool,
        parent: Option<SpanId>,
        op: u64,
        body: &str,
    ) -> Result<u64, String> {
        let reply = self
            .tracer
            .span(traced, "serve.http", "submit", parent, op, || {
                self.conn.request("POST", "/v1/runs", Some(body))
            });
        match reply {
            Ok((202, text)) => self
                .tracer
                .span(traced, "topopt.wire", "parse_reply", parent, op, || {
                    api::parse_run_id(&text)
                })
                .ok_or_else(|| format!("submit reply without run_id: {text}")),
            Ok((status, text)) => Err(format!("submit refused with {status}: {text}")),
            Err(e) => Err(format!("submit: {e}")),
        }
    }

    /// Polls run `id` once: `Ok(true)` when completed.
    pub fn poll(
        &mut self,
        traced: bool,
        parent: Option<SpanId>,
        op: u64,
        id: u64,
    ) -> Result<bool, String> {
        let path = format!("/v1/runs/{id}");
        let reply = self
            .tracer
            .span(traced, "serve.http", "poll", parent, op, || {
                self.conn.request("GET", &path, None)
            });
        match reply {
            Ok((200, text)) => {
                let state =
                    self.tracer
                        .span(traced, "topopt.wire", "parse_reply", parent, op, || {
                            api::parse_state(&text)
                        });
                match state.as_deref() {
                    Some("Completed") => Ok(true),
                    Some("Failed") => Err(format!("run {id} failed: {text}")),
                    Some(_) => Ok(false),
                    None => Err(format!("poll reply without state: {text}")),
                }
            }
            Ok((status, text)) => Err(format!("poll refused with {status}: {text}")),
            Err(e) => Err(format!("poll: {e}")),
        }
    }

    /// Fetches the payload of completed run `id`.
    pub fn fetch(
        &mut self,
        traced: bool,
        parent: Option<SpanId>,
        op: u64,
        id: u64,
    ) -> Result<String, String> {
        let path = format!("/v1/runs/{id}/result");
        let reply = self
            .tracer
            .span(traced, "serve.http", "fetch", parent, op, || {
                self.conn.request("GET", &path, None)
            });
        match reply {
            Ok((200, text)) => Ok(text),
            Ok((status, text)) => Err(format!("fetch refused with {status}: {text}")),
            Err(e) => Err(format!("fetch: {e}")),
        }
    }

    /// One run end to end on this connection: submit, poll with back-off
    /// until `Completed`, fetch. Returns the payload.
    pub fn drive(
        &mut self,
        traced: bool,
        parent: Option<SpanId>,
        op: u64,
        body: &str,
    ) -> Result<String, String> {
        let id = self.submit(traced, parent, op, body)?;
        let submitted = Instant::now();
        loop {
            let elapsed = submitted.elapsed();
            if elapsed > RUN_TIMEOUT {
                return Err(format!("run {id} timed out"));
            }
            std::thread::sleep(poll_interval(elapsed));
            if self.poll(traced, parent, op, id)? {
                return self.fetch(traced, parent, op, id);
            }
        }
    }

    /// `GET /healthz` answered 200.
    pub fn healthy(&mut self) -> bool {
        matches!(self.conn.request("GET", "/healthz", None), Ok((200, _)))
    }
}
