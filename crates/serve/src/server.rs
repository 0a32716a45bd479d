//! The resident flow server: accept loop, bounded worker pool, one
//! persistent **sharded** [`SharedCache`], admission control, snapshot
//! persistence, and the REST-ish routing over [`crate::http`].
//!
//! ## Endpoints
//!
//! | method + path            | behaviour |
//! |--------------------------|-----------|
//! | `GET /healthz`           | liveness + inflight/shed/store/cache gauges |
//! | `POST /v1/runs`          | submit a spec; `202 {run_id}` or typed `429` |
//! | `GET /v1/runs/{id}`      | poll session state + stats |
//! | `GET /v1/runs/{id}/result` | fetch the payload (`409` until terminal) |
//! | `DELETE /v1/runs/{id}`   | cancel a queued run / evict a terminal one |
//!
//! ## Concurrency shape
//!
//! One accept thread spawns a thread per connection; connections are
//! **keep-alive** (HTTP/1.1 default), each serving up to
//! [`MAX_REQUESTS_PER_CONNECTION`] requests and closing quietly after
//! [`IDLE_READ_TIMEOUT`] of silence. Worker threads block on a condvar'd
//! queue of admitted `run_id`s; each claims a run (`Ready → Running`),
//! executes it against the shared cache via
//! [`run_flow_shared`](adc_topopt::flow::run_flow_shared) — the cache is
//! sharded by block fingerprint, so a lookup or commit locks one shard
//! only, never across synthesis and never the whole cache. Connection
//! threads touch the store's own lock only, so polling and fetching never
//! block the pool.
//!
//! ## Persistence
//!
//! With [`ServerConfig::snapshot`] set, the cache is restored from the
//! snapshot file on boot (integrity-checked entry by entry; corrupt or
//! version-mismatched entries are dropped and counted, never served) and
//! saved on shutdown — atomically, via a temp file and rename — plus
//! periodically when [`ServerConfig::snapshot_every`] is set. A restarted
//! server therefore answers warm resubmissions from the snapshot with
//! zero cold syntheses.

use crate::http::{read_request, write_response, Request};
use crate::protocol::{self, SubmitRequest};
use crate::session::{Session, SessionState};
use crate::store::{ResultStore, RunRecord, StoreError};
use adc_topopt::cache::{CachePolicy, CacheStats, SharedCache, DEFAULT_SHARDS};
use adc_topopt::wire::{cache_snapshot_restore, cache_snapshot_to_json, JsonValue};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Requests served on one connection before the server closes it (a
/// fairness/leak bound, not a protocol limit — clients reconnect).
pub const MAX_REQUESTS_PER_CONNECTION: usize = 128;

/// How long a keep-alive connection may sit idle between requests before
/// the server closes it quietly.
pub const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads draining the run queue (0 is legal: runs queue up
    /// `Ready` until cancelled — the deterministic admission-test mode).
    pub workers: usize,
    /// In-flight (admitted, non-terminal) run cap; beyond it submissions
    /// shed with a typed 429.
    pub max_inflight: usize,
    /// Resident record cap of the [`ResultStore`].
    pub capacity: usize,
    /// Shared-cache policy. [`CachePolicy::Reproducible`] keeps every
    /// served result bit-identical to a batch run of the same request.
    pub cache_policy: CachePolicy,
    /// Shard count of the shared cache (clamped to at least 1). Placement
    /// is by block fingerprint, so behaviour is identical at any count;
    /// more shards only reduce lock contention.
    pub cache_shards: usize,
    /// Attach the chain-verification report (small-signal leg) of the
    /// best surviving candidate to each payload.
    pub verify: bool,
    /// Cache snapshot file: restored on boot (missing file is a cold
    /// boot, not an error), saved atomically on shutdown.
    pub snapshot: Option<PathBuf>,
    /// Additionally save the snapshot at this interval while running
    /// (ignored without [`ServerConfig::snapshot`]).
    pub snapshot_every: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_inflight: 8,
            capacity: 64,
            cache_policy: CachePolicy::Reproducible,
            cache_shards: DEFAULT_SHARDS,
            verify: false,
            snapshot: None,
            snapshot_every: None,
        }
    }
}

struct Shared {
    config: ServerConfig,
    cache: SharedCache,
    /// Deterministic `result`-subtree memo (see [`protocol::ResultMemo`]):
    /// warm resubmissions skip ranking/verification/rendering.
    memo: protocol::ResultMemo,
    store: ResultStore,
    queue: Mutex<VecDeque<u64>>,
    available: Condvar,
    /// Admitted, non-terminal runs (admission-control gauge).
    inflight: AtomicUsize,
    /// Submissions shed with a 429 since boot (cumulative).
    shed: AtomicU64,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

/// A running server; dropping it without [`FlowServer::shutdown`] leaves
/// the threads alive until process exit.
pub struct FlowServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    janitor_stop: Option<mpsc::Sender<()>>,
    janitor: Option<JoinHandle<()>>,
}

impl FlowServer {
    /// Binds, restores the cache snapshot (when configured), spawns the
    /// accept thread and the worker pool, and returns once the server is
    /// reachable.
    ///
    /// # Errors
    /// Socket bind errors. A missing, truncated, or corrupted snapshot is
    /// **not** an error: bad entries are dropped and counted
    /// (`corrupt_dropped` on `/healthz`), and the server boots cold.
    pub fn start(config: ServerConfig) -> io::Result<FlowServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: SharedCache::with_shards(config.cache_policy, config.cache_shards),
            memo: protocol::ResultMemo::new(),
            store: ResultStore::new(config.capacity),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            inflight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            config,
        });
        load_snapshot(&shared);
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let (janitor_stop, janitor) = match shared.config.snapshot_every {
            Some(every) if shared.config.snapshot.is_some() => {
                let (tx, rx) = mpsc::channel::<()>();
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || loop {
                    match rx.recv_timeout(every) {
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            let _ = save_snapshot(&shared);
                        }
                        // Sender dropped (shutdown) or explicit stop.
                        _ => return,
                    }
                });
                (Some(tx), Some(handle))
            }
            _ => (None, None),
        };
        Ok(FlowServer {
            addr,
            shared,
            accept: Some(accept),
            workers,
            janitor_stop,
            janitor,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Merged statistics of the sharded cache (also on `/healthz`).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Entries resident in the sharded cache.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Submissions shed with a 429 since boot.
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains the workers, joins every thread, and —
    /// when a snapshot path is configured — saves the final cache
    /// snapshot. Runs already `Running` finish first (their budgets bound
    /// the wait), so the snapshot includes their commits.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        drop(self.janitor_stop.take());
        if let Some(handle) = self.janitor.take() {
            let _ = handle.join();
        }
        let _ = save_snapshot(&self.shared);
    }
}

/// Restores the cache from the configured snapshot file. Absent file:
/// cold boot. Unparseable file: cold boot, counted as one corrupt drop.
/// Per-entry integrity failures are dropped and counted by the restore
/// itself. Never panics, never serves a corrupt entry.
fn load_snapshot(shared: &Shared) {
    let Some(path) = shared.config.snapshot.as_ref() else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    match JsonValue::parse(&text) {
        Ok(doc) => {
            restore_scoped(&shared.cache, &doc);
        }
        Err(_) => shared.cache.note_corrupt_dropped(1),
    }
}

/// Runs the snapshot restore inside the `snapshot_load` fault scope so
/// chaos plans can target exactly this site
/// (`FaultRule::first(SITE_CACHE_COMMIT, "snapshot_load", Corrupt)`).
fn restore_scoped(cache: &SharedCache, doc: &JsonValue) {
    #[cfg(feature = "faults")]
    {
        adc_numerics::faults::with_scope("snapshot_load", || {
            cache_snapshot_restore(cache, doc);
        });
    }
    #[cfg(not(feature = "faults"))]
    {
        cache_snapshot_restore(cache, doc);
    }
}

/// Saves the cache snapshot atomically (temp file + rename), so a crash
/// mid-save can never leave a half-written snapshot under the real path.
fn save_snapshot(shared: &Shared) -> io::Result<()> {
    let Some(path) = shared.config.snapshot.as_ref() else {
        return Ok(());
    };
    let text = cache_snapshot_to_json(&shared.cache).render();
    let tmp = path.with_extension("snapshot.tmp");
    std::fs::write(&tmp, text.as_bytes())?;
    std::fs::rename(&tmp, path)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            if let Err(e) = handle_connection(&shared, &mut stream) {
                // Framing errors get a best-effort 400; socket errors are
                // the peer's problem.
                if e.kind() == io::ErrorKind::InvalidData {
                    let body = error_json(&e.to_string());
                    let _ = write_response(&mut stream, 400, &body, false);
                }
            }
        });
    }
}

fn error_json(message: &str) -> String {
    JsonValue::Obj(vec![(
        "error".to_string(),
        JsonValue::Str(message.to_string()),
    )])
    .render()
}

/// Serves one keep-alive session: requests are answered on the same
/// connection until the peer asks to close, goes idle past
/// [`IDLE_READ_TIMEOUT`], or hits [`MAX_REQUESTS_PER_CONNECTION`].
fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) -> io::Result<()> {
    // Responses are single coalesced writes; TCP_NODELAY keeps the next
    // request from waiting on a delayed ACK of the previous response.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    for served in 0..MAX_REQUESTS_PER_CONNECTION {
        let Some(request) = read_request(&mut reader)? else {
            return Ok(());
        };
        let keep_alive = request.keep_alive && served + 1 < MAX_REQUESTS_PER_CONNECTION;
        let (status, body) = route(shared, &request);
        write_response(stream, status, &body, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
    Ok(())
}

fn route(shared: &Arc<Shared>, request: &Request) -> (u16, String) {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let stats = shared.cache.stats();
            (
                200,
                JsonValue::Obj(vec![
                    ("status".to_string(), JsonValue::Str("ok".to_string())),
                    (
                        "inflight".to_string(),
                        JsonValue::Num(shared.inflight.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "shed".to_string(),
                        JsonValue::Num(shared.shed.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "runs".to_string(),
                        JsonValue::Num(shared.store.len() as f64),
                    ),
                    (
                        "cache".to_string(),
                        JsonValue::Obj(vec![
                            (
                                "entries".to_string(),
                                JsonValue::Num(shared.cache.len() as f64),
                            ),
                            ("lookups".to_string(), JsonValue::Num(stats.lookups as f64)),
                            ("hits".to_string(), JsonValue::Num(stats.hits as f64)),
                            (
                                "near_seeds".to_string(),
                                JsonValue::Num(stats.near_seeds as f64),
                            ),
                            (
                                "insertions".to_string(),
                                JsonValue::Num(stats.insertions as f64),
                            ),
                            (
                                "corrupt_dropped".to_string(),
                                JsonValue::Num(stats.corrupt_dropped as f64),
                            ),
                        ]),
                    ),
                ])
                .render(),
            )
        }
        ("POST", "/v1/runs") => submit(shared, &request.body),
        (method, p) if p.starts_with("/v1/runs/") => {
            let rest = &p["/v1/runs/".len()..];
            let (id_text, want_result) = match rest.strip_suffix("/result") {
                Some(prefix) => (prefix, true),
                None => (rest, false),
            };
            let Ok(id) = id_text.parse::<u64>() else {
                return (404, error_json("no such route"));
            };
            match (method, want_result) {
                ("GET", false) => poll(shared, id),
                ("GET", true) => fetch(shared, id),
                ("DELETE", false) => delete(shared, id),
                _ => (405, error_json("method not allowed")),
            }
        }
        ("POST" | "GET" | "DELETE", _) => (404, error_json("no such route")),
        _ => (405, error_json("method not allowed")),
    }
}

/// Claims an admission slot, or reports the load-shedding gauge values.
fn admit(shared: &Shared) -> Result<(), (u16, String)> {
    let max = shared.config.max_inflight;
    let mut current = shared.inflight.load(Ordering::SeqCst);
    loop {
        if current >= max {
            shared.shed.fetch_add(1, Ordering::SeqCst);
            let body = JsonValue::Obj(vec![
                (
                    "error".to_string(),
                    JsonValue::Str("overloaded: in-flight run cap reached".to_string()),
                ),
                ("inflight".to_string(), JsonValue::Num(current as f64)),
                ("max_inflight".to_string(), JsonValue::Num(max as f64)),
            ])
            .render();
            return Err((429, body));
        }
        match shared.inflight.compare_exchange(
            current,
            current + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Ok(()),
            Err(seen) => current = seen,
        }
    }
}

fn release_slot(shared: &Shared) {
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
}

fn submit(shared: &Arc<Shared>, body: &[u8]) -> (u16, String) {
    if let Err(shed) = admit(shared) {
        return shed;
    }
    // From here on every early return must release the admission slot.
    let rejected = |status: u16, body: String, shared: &Shared| {
        release_slot(shared);
        (status, body)
    };

    let Ok(text) = std::str::from_utf8(body) else {
        return rejected(400, error_json("body is not UTF-8"), shared);
    };
    // Parsed: the body is structurally a flow request.
    let request = match protocol::parse_submit(text) {
        Ok(r) => r,
        Err(e) => return rejected(400, error_json(&e.to_string()), shared),
    };
    let mut session = Session::new();
    // Elaborated: the spec is inside the server's supported envelope.
    if let Err(reason) = protocol::elaborate(&request.spec) {
        return rejected(400, error_json(&reason), shared);
    }
    session
        .advance(SessionState::Elaborated)
        .expect("Parsed -> Elaborated is a lifecycle edge");
    // Ready: candidates enumerate non-empty, the run can be queued.
    let candidates = adc_topopt::enumerate::enumerate_candidates(
        request.spec.resolution,
        protocol::BACKEND_BITS,
    );
    if candidates.is_empty() {
        return rejected(
            400,
            error_json("spec enumerates no pipeline candidates"),
            shared,
        );
    }
    session
        .advance(SessionState::Ready)
        .expect("Elaborated -> Ready is a lifecycle edge");

    let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    let record = RunRecord {
        id,
        request: request.canonical().render(),
        spec: request.spec.clone(),
        cfg: request.cfg.clone(),
        options: request.options,
        session,
        stats: None,
        payload: None,
        error: None,
    };
    if let Err(e) = shared.store.insert(record) {
        let status = match e {
            StoreError::Full { .. } => 429,
            _ => 500,
        };
        return rejected(status, error_json(&e.to_string()), shared);
    }
    {
        let mut queue = shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue.push_back(id);
    }
    shared.available.notify_one();
    (
        202,
        JsonValue::Obj(vec![
            ("run_id".to_string(), JsonValue::Num(id as f64)),
            (
                "state".to_string(),
                JsonValue::Str(SessionState::Ready.to_string()),
            ),
        ])
        .render(),
    )
}

fn status_body(status: &crate::store::RunStatus) -> String {
    JsonValue::Obj(vec![
        ("run_id".to_string(), JsonValue::Num(status.id as f64)),
        (
            "state".to_string(),
            JsonValue::Str(status.state.to_string()),
        ),
        (
            "stats".to_string(),
            match &status.stats {
                Some(s) => adc_topopt::wire::run_stats_to_json(s),
                None => JsonValue::Null,
            },
        ),
        (
            "error".to_string(),
            match &status.error {
                Some(e) => JsonValue::Str(e.clone()),
                None => JsonValue::Null,
            },
        ),
    ])
    .render()
}

fn poll(shared: &Shared, id: u64) -> (u16, String) {
    match shared.store.status(id) {
        Some(status) => (200, status_body(&status)),
        None => (404, error_json(&StoreError::UnknownRun(id).to_string())),
    }
}

fn fetch(shared: &Shared, id: u64) -> (u16, String) {
    match shared.store.result(id) {
        None => (404, error_json(&StoreError::UnknownRun(id).to_string())),
        Some((SessionState::Completed, Some(payload), _)) => (200, payload),
        Some((state, _, error)) => {
            let body = JsonValue::Obj(vec![
                (
                    "error".to_string(),
                    JsonValue::Str(match &error {
                        Some(e) => format!("run {state}: {e}"),
                        None => format!("run is {state}, result not available"),
                    }),
                ),
                ("state".to_string(), JsonValue::Str(state.to_string())),
            ])
            .render();
            (409, body)
        }
    }
}

fn delete(shared: &Shared, id: u64) -> (u16, String) {
    match shared.store.cancel(id) {
        Ok(()) => {
            // Remove from the queue so no worker claims the corpse; the
            // claim race is benign (the worker's `Ready → Running` flip
            // fails typed and it moves on).
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.retain(|&queued| queued != id);
            drop(queue);
            release_slot(shared);
            (
                200,
                JsonValue::Obj(vec![
                    ("run_id".to_string(), JsonValue::Num(id as f64)),
                    (
                        "state".to_string(),
                        JsonValue::Str(SessionState::Failed.to_string()),
                    ),
                    ("cancelled".to_string(), JsonValue::Bool(true)),
                ])
                .render(),
            )
        }
        Err(StoreError::NotCancellable(state)) if state.is_terminal() => {
            match shared.store.evict(id) {
                Ok(()) => (
                    200,
                    JsonValue::Obj(vec![
                        ("run_id".to_string(), JsonValue::Num(id as f64)),
                        ("evicted".to_string(), JsonValue::Bool(true)),
                    ])
                    .render(),
                ),
                Err(e) => (409, error_json(&e.to_string())),
            }
        }
        Err(StoreError::UnknownRun(_)) => {
            (404, error_json(&StoreError::UnknownRun(id).to_string()))
        }
        Err(e) => (409, error_json(&e.to_string())),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Claim: a cancellation that won the race leaves the run
        // `Failed`; the typed rejection is the skip signal.
        if shared.store.advance(id, SessionState::Running).is_err() {
            continue;
        }
        let Some((spec, cfg, options)) = shared.store.job(id) else {
            release_slot(shared);
            continue;
        };
        let request = SubmitRequest { spec, cfg, options };
        let (run, payload) = protocol::run_and_render_memo(
            &request,
            &shared.cache,
            shared.config.verify,
            &shared.memo,
        );
        let candidates = adc_topopt::enumerate::enumerate_candidates(
            request.spec.resolution,
            protocol::BACKEND_BITS,
        );
        let landed = match protocol::outcome(&request.spec, &candidates, &run) {
            Ok(()) => shared.store.complete(id, run.stats, payload),
            Err(reason) => shared.store.fail(id, Some(run.stats), reason),
        };
        // A lost store record (evicted mid-run) is not a worker failure.
        drop(landed);
        release_slot(shared);
    }
}
