//! The online imputation service: routing, response cache, hot reload,
//! and graceful shutdown over the shared connection layer
//! ([`crate::reactor`]).
//!
//! The HTTP machinery is generic over a [`WireService`] — parse, batch
//! execution, cache keying, and rendering live behind that trait — so
//! everything in this module runs (and is tested) against stub services
//! with no trained models involved. `crates/server/src/engine.rs` provides
//! the real implementation over an `Arc<Kamel>`.
//!
//! Threading model:
//!
//! * 1 reactor thread — owns the listener and every socket (accept,
//!   incremental parse, write-out, idle timers);
//! * N dispatch workers — run `route` on parsed requests, and for
//!   `/v1/impute` park on a batcher [`crate::batcher::Ticket`];
//! * M batch workers (inside [`crate::batcher::Batcher`]) — coalesce
//!   queued trajectories and run the engine's `impute_batch`.
//!
//! Shutdown: trip the flag → the reactor stops accepting, closes idle
//! connections, finishes the request in flight on each remaining one and
//! exits → the dispatch workers end → the batcher drains everything
//! already admitted → all threads join.

use crate::batcher::{Batcher, BatcherConfig, SubmitError, WaitError};
use crate::clock::{Clock, SystemClock};
use crate::http::{
    parse_deadline_header, DeadlineHeader, Request, Response, DEADLINE_HEADER, DEGRADED_HEADER,
};
use crate::lru::LruCache;
use crate::metrics::Metrics;
use crate::reactor::{ConnStats, ReactorConfig, ReactorHandle};
use crate::shutdown::ShutdownFlag;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cache key for one imputation request: the tokenized gap context (the
/// dedup-run cell-id sequence and the planar span of each inter-anchor
/// gap), plus a digest of the raw fix bytes. The context is the semantic
/// key — same cells, same gaps, same answer shape — while the digest
/// guarantees a hit is byte-identical to recomputing (original fixes are
/// echoed verbatim into the response, so token-equal but coordinate-
/// different requests must not share an entry).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Model generation that computed the entry. A hot-reload bumps the
    /// service's generation, so entries keyed under the old model can
    /// never answer post-reload lookups — even ones raced in by requests
    /// that were in flight while the cache was being cleared.
    pub generation: u64,
    /// Dedup-run cell ids along the trajectory.
    pub cells: Vec<u64>,
    /// Inter-anchor span of every candidate gap, as `f64` bit patterns.
    pub spans: Vec<u64>,
    /// FNV-1a digest of the raw request fixes.
    pub digest: u64,
}

/// FNV-1a over a word stream (for [`CacheKey::digest`]).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The imputation backend as the HTTP layer sees it.
pub trait WireService: Send + Sync + 'static {
    /// A parsed, validated request payload (one sparse trajectory).
    type Job: Send + 'static;
    /// The imputation result for one job.
    type Out: Send + 'static;

    /// Parses a request body. `Err` becomes a 400 with the message.
    fn parse(&self, body: &[u8]) -> Result<Self::Job, String>;
    /// The cache key for a job, or `None` when this job is uncacheable
    /// (e.g. the system is untrained, so no tokenizer exists yet).
    fn cache_key(&self, job: &Self::Job) -> Option<CacheKey>;
    /// Imputes a coalesced batch; one output per input, in input order.
    /// Every output in one call must come from a single model snapshot —
    /// a concurrent hot-reload must never mix models within a batch.
    fn run_batch(&self, jobs: Vec<Self::Job>) -> Vec<Self::Out>;
    /// Renders one output as a JSON body.
    fn render(&self, out: &Self::Out) -> Vec<u8>;
    /// The `GET /v1/info` body: a JSON identity card for this backend
    /// (model generation, vocabulary, config digest, thread budget). A
    /// shard router compares config digests across a fleet and refuses to
    /// admit a shard that disagrees — two backends with different grids
    /// or constraints would silently produce mixed-model fleets. The
    /// default service has no identity to report.
    fn info(&self) -> Vec<u8> {
        b"{}".to_vec()
    }
    /// Handles a hot-reload request (`POST /admin/reload` or SIGHUP):
    /// validate and load the new model, swap it in atomically, and return
    /// a human-readable outcome. On `Err` the previous model must remain
    /// serving. The default has nothing to reload.
    fn reload(&self) -> Result<String, String> {
        Err("this service has no reloadable model".into())
    }
    /// Extra Prometheus-format lines appended to `GET /metrics` after the
    /// server's own counters — the service's chance to export model-side
    /// gauges (e.g. model-store residency). Must be either empty or a
    /// newline-terminated block. The default exports nothing.
    fn extra_metrics(&self) -> String {
        String::new()
    }
    /// A cheap fallback answer for `job` when the full pipeline cannot be
    /// reached in time (queue full under `--degraded-mode`). Returns a
    /// rendered JSON body that must carry `"degraded": true` and the
    /// `reason`, or `None` when no fallback exists — the caller then sheds
    /// with 503 as before. The default service has no fallback.
    fn degraded(&self, _job: &Self::Job, _reason: &str) -> Option<Vec<u8>> {
        None
    }
    /// Handles `POST /v1/feedback` — a ground-truth correction for the
    /// continual learner. `None` means learning is not enabled on this
    /// service (the route answers 404); `Some(Err)` is a malformed body
    /// (400); `Some(Ok(body))` is the 200 acknowledgement JSON. Must not
    /// block: it runs on a dispatch worker.
    fn feedback(&self, _body: &[u8]) -> Option<Result<Vec<u8>, String>> {
        None
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Batch workers executing `run_batch` (the imputation compute pool;
    /// size it from the process thread budget).
    pub workers: usize,
    /// Dispatch workers running the routing logic for parsed requests
    /// (each parks cheaply on a ticket while a batch runs, so this can
    /// comfortably exceed `workers`).
    pub handlers: usize,
    /// Largest coalesced batch.
    pub batch_max: usize,
    /// How long the batcher lingers for more requests after the first.
    pub batch_wait: Duration,
    /// Admission-queue capacity; beyond it requests are shed with 503.
    pub queue_cap: usize,
    /// Response-cache capacity in entries; 0 disables the cache.
    pub cache_entries: usize,
    /// Per-request deadline; a miss is answered 504. Clients can lower
    /// (or raise, up to the parse cap) their own budget per request via
    /// the `x-kamel-deadline-ms` header.
    pub deadline: Duration,
    /// When set, an overloaded admission queue answers from the service's
    /// cheap [`WireService::degraded`] fallback (marked degraded) instead
    /// of shedding with 503.
    pub degraded_mode: bool,
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// answered 503 and closed.
    pub max_connections: usize,
    /// A connection with no read/write progress for this long is closed
    /// (idle keep-alive and slow-loris alike).
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            handlers: 8,
            batch_max: 16,
            batch_wait: Duration::from_micros(500),
            queue_cap: 256,
            cache_entries: 1024,
            deadline: Duration::from_secs(10),
            degraded_mode: false,
            max_connections: 10_000,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

type ResponseCache = Mutex<LruCache<CacheKey, Arc<Vec<u8>>>>;

struct Shared<S: WireService> {
    service: Arc<S>,
    metrics: Arc<Metrics>,
    cache: ResponseCache,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    flag: ShutdownFlag,
    conn_stats: Arc<ConnStats>,
}

/// A running server. Dropping it without [`Server::shutdown`] aborts
/// without draining; call `shutdown` for the graceful path.
pub struct Server {
    addr: SocketAddr,
    flag: ShutdownFlag,
    metrics: Arc<Metrics>,
    conn_stats: Arc<ConnStats>,
    connections: ReactorHandle,
    shutdown_batcher: Box<dyn FnOnce() + Send>,
    // Type-erased so `Server` needs no `S` parameter; same code path as
    // `POST /admin/reload` (metrics + cache invalidation included).
    reload_fn: Box<dyn Fn() -> Result<String, String> + Send + Sync>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    pub fn bind<S: WireService>(
        addr: &str,
        service: Arc<S>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Self::serve(listener, service, config)
    }

    /// Starts serving on an already-bound listener.
    pub fn serve<S: WireService>(
        listener: TcpListener,
        service: Arc<S>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::serve_with_clock(listener, service, config, Arc::new(SystemClock))
    }

    /// [`Server::serve`] with an injected [`Clock`]. Every deadline-budget
    /// decision (admission shedding, drain-time expiry, late-result
    /// suppression) asks this clock, so tests drive them deterministically
    /// with a [`crate::clock::ManualClock`].
    pub fn serve_with_clock<S: WireService>(
        listener: TcpListener,
        service: Arc<S>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let flag = ShutdownFlag::new();
        let conn_stats = Arc::new(ConnStats::default());
        let shared = Arc::new(Shared {
            service: Arc::clone(&service),
            metrics: Arc::clone(&metrics),
            cache: Mutex::new(LruCache::new(config.cache_entries)),
            config: config.clone(),
            clock: Arc::clone(&clock),
            flag: flag.clone(),
            conn_stats: Arc::clone(&conn_stats),
        });
        // The imputation pool: batch workers behind the admission queue.
        let batch_metrics = Arc::clone(&metrics);
        let batcher: Arc<Batcher<S::Job, S::Out>> = Arc::new(Batcher::start_with_clock(
            BatcherConfig {
                workers: config.workers.max(1),
                batch_max: config.batch_max.max(1),
                batch_wait: config.batch_wait,
                queue_cap: config.queue_cap.max(1),
            },
            Arc::new(BatchAdapter(Arc::clone(&service))),
            move |n| batch_metrics.batch_size.observe(n as u64),
            Arc::clone(&clock),
        ));
        let connections = {
            let shared = Arc::clone(&shared);
            let batcher = Arc::clone(&batcher);
            ReactorHandle::spawn(
                listener,
                ReactorConfig {
                    max_connections: config.max_connections.max(1),
                    idle_timeout: config.idle_timeout,
                    ..ReactorConfig::default()
                },
                clock,
                flag.clone(),
                Arc::clone(&conn_stats),
                config.handlers,
                "kamel-http",
                move |request, received| route(request, received, &shared, &batcher),
            )?
        };
        // Draining the batcher must wait until the dispatch workers are
        // done (they hold tickets); keep it behind a closure for `shutdown`.
        let shutdown_batcher: Box<dyn FnOnce() + Send> = Box::new(move || {
            match Arc::try_unwrap(batcher) {
                Ok(batcher) => batcher.shutdown(),
                Err(_) => unreachable!("all dispatch workers joined before the batcher drain"),
            }
        });
        let reload_shared_handle = Arc::clone(&shared);
        let reload_fn: Box<dyn Fn() -> Result<String, String> + Send + Sync> =
            Box::new(move || reload_model(&reload_shared_handle));
        Ok(Server {
            addr,
            flag,
            metrics,
            conn_stats,
            connections,
            shutdown_batcher,
            reload_fn,
        })
    }

    /// The live connection-layer counters (shared with the reactor).
    pub fn connections(&self) -> &Arc<ConnStats> {
        &self.conn_stats
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics (shared with the dispatch workers).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Requests a graceful shutdown without waiting (e.g. from a signal
    /// watcher); follow up with [`Server::shutdown`] to drain and join.
    pub fn request_shutdown(&self) {
        self.flag.trip();
    }

    /// Hot-reloads the model — the same path as `POST /admin/reload`
    /// (cache invalidation and reload metrics included). Used by the
    /// CLI's SIGHUP watcher; on `Err` the old model keeps serving.
    pub fn reload(&self) -> Result<String, String> {
        (self.reload_fn)()
    }

    /// Graceful shutdown: stop accepting, finish every request in flight,
    /// drain the admitted queue, and join all threads.
    pub fn shutdown(self) {
        self.flag.trip();
        self.connections.join();
        (self.shutdown_batcher)();
    }
}

/// Adapts a [`WireService`] to the batcher's runner trait.
struct BatchAdapter<S>(Arc<S>);

impl<S: WireService> crate::batcher::BatchRunner<S::Job, S::Out> for BatchAdapter<S> {
    fn run_batch(&self, batch: Vec<S::Job>) -> Vec<S::Out> {
        self.0.run_batch(batch)
    }
}

/// Splices a `"connections":N` field into a JSON object body (the
/// service's `/v1/info` identity card), keeping the service layer
/// unaware of the connection layer.
fn inject_connections(mut body: Vec<u8>, connections: u64) -> Vec<u8> {
    let Some(close_brace) = body.iter().rposition(|&b| b == b'}') else {
        return body; // not an object; leave it untouched
    };
    let empty = body[..close_brace]
        .iter()
        .rev()
        .find(|b| !b.is_ascii_whitespace())
        == Some(&b'{');
    let field = if empty {
        format!("\"connections\":{connections}")
    } else {
        format!(",\"connections\":{connections}")
    };
    body.splice(close_brace..close_brace, field.into_bytes());
    body
}

fn route<S: WireService>(
    request: &Request,
    received: Instant,
    shared: &Shared<S>,
    batcher: &Batcher<S::Job, S::Out>,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/impute") => impute(request, received, shared, batcher),
        ("POST", "/admin/reload") => match reload_model(shared) {
            Ok(msg) => Response::text(200, format!("{msg}\n")),
            Err(msg) => Response::text(500, format!("reload failed: {msg}\n")),
        },
        ("GET", "/healthz") => {
            if shared.flag.is_tripped() {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ok\n")
            }
        }
        ("GET", "/metrics") => {
            // The queue-depth gauge is sampled at scrape time.
            shared
                .metrics
                .queue_depth
                .store(batcher.queue_depth() as u64, Ordering::Relaxed);
            let mut body = shared.metrics.render();
            body.push_str(&shared.conn_stats.render());
            body.push_str(&shared.service.extra_metrics());
            Response::text(200, body)
        }
        ("GET", "/v1/info") => Response::json(inject_connections(
            shared.service.info(),
            shared.conn_stats.active.load(Ordering::Relaxed),
        )),
        ("POST", "/v1/feedback") => match shared.service.feedback(&request.body) {
            None => Response::text(404, "learning not enabled\n"),
            Some(Err(msg)) => Response::text(400, format!("{msg}\n")),
            Some(Ok(body)) => Response::json(body),
        },
        (_, "/v1/impute") | (_, "/admin/reload") | (_, "/healthz") | (_, "/metrics")
        | (_, "/v1/info") | (_, "/v1/feedback") => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "not found\n"),
    }
}

/// The hot-reload path shared by `POST /admin/reload` and the SIGHUP
/// handle: swap the model via [`WireService::reload`], then invalidate
/// the response cache (entries keyed under the old generation could
/// otherwise answer until evicted) and count the outcome. Runs on the
/// calling thread, so serving continues while the new checkpoint
/// loads; a failure leaves the cache and model untouched.
fn reload_model<S: WireService>(shared: &Shared<S>) -> Result<String, String> {
    match shared.service.reload() {
        Ok(msg) => {
            shared.cache.lock().unwrap().clear();
            shared.metrics.model_reloads.fetch_add(1, Ordering::Relaxed);
            Ok(msg)
        }
        Err(msg) => {
            shared
                .metrics
                .model_reload_failures
                .fetch_add(1, Ordering::Relaxed);
            Err(msg)
        }
    }
}

/// Logs the first malformed `x-kamel-deadline-ms` value seen (per
/// process); every later one silently falls back to the server default,
/// so a misbehaving client cannot flood the log.
fn warn_invalid_deadline_once(why: &str) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("kamel-serve: ignoring invalid {DEADLINE_HEADER} header ({why}); using the server default deadline");
    }
}

/// Counts one deadline miss at `stage` and renders the 504.
fn deadline_exceeded(
    metrics: &Metrics,
    stage: &AtomicU64,
    stage_name: &str,
    start: Instant,
) -> Response {
    metrics.requests_deadline.fetch_add(1, Ordering::Relaxed);
    stage.fetch_add(1, Ordering::Relaxed);
    observe_latency(metrics, start);
    Response::text(504, format!("deadline exceeded (stage: {stage_name})\n"))
}

fn impute<S: WireService>(
    request: &Request,
    received: Instant,
    shared: &Shared<S>,
    batcher: &Batcher<S::Job, S::Out>,
) -> Response {
    // The latency/deadline base is the instant the request came off the
    // wire — that predates dispatch-queue time, so a backlog burns request
    // budget instead of hiding from it.
    let start = received;
    let metrics = &shared.metrics;
    // The request's budget: the client's `x-kamel-deadline-ms` header when
    // valid, the server default otherwise. Malformed values warn once and
    // fall back — never a panic or a 0ms insta-504.
    let header = parse_deadline_header(request.header(DEADLINE_HEADER));
    if let DeadlineHeader::Invalid(why) = header {
        warn_invalid_deadline_once(why);
    }
    let deadline = received + header.budget_or(shared.config.deadline);
    let job = match shared.service.parse(&request.body) {
        Ok(job) => job,
        Err(msg) => {
            metrics.requests_bad.fetch_add(1, Ordering::Relaxed);
            return Response::text(400, format!("bad request: {msg}\n"));
        }
    };
    // Cache lookup (only when enabled and the job is keyable). A hit is
    // answered even on a spent budget — it is cheaper than the 504.
    let key = if shared.config.cache_entries > 0 {
        shared.service.cache_key(&job)
    } else {
        None
    };
    if let Some(key) = &key {
        let hit = shared.cache.lock().unwrap().get(key).cloned();
        if let Some(bytes) = hit {
            metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
            observe_latency(metrics, start);
            return Response::json(bytes.as_ref().clone()).with_header("x-kamel-cache", "hit");
        }
        metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    // Admission: a budget already spent on parsing/cache work is shed here
    // rather than queued for an answer nobody is waiting for.
    if shared.clock.now() >= deadline {
        return deadline_exceeded(metrics, &metrics.deadline_admission, "admission", start);
    }
    // Admission + micro-batching. The deadline rides along so a worker
    // that drains the item too late sheds it instead of running it.
    let ticket = match batcher.try_submit_with_deadline(job, Some(deadline)) {
        Ok(ticket) => ticket,
        Err((job, SubmitError::Overloaded)) => {
            if shared.config.degraded_mode {
                if let Some(bytes) = shared.service.degraded(&job, "overloaded") {
                    metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                    observe_latency(metrics, start);
                    return Response::json(bytes).with_header(DEGRADED_HEADER, "overloaded");
                }
            }
            metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
            observe_latency(metrics, start);
            return Response::text(503, "overloaded: admission queue full\n")
                .with_header("retry-after", "1");
        }
        Err((_, SubmitError::Draining)) => {
            metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
            observe_latency(metrics, start);
            return Response::text(503, "draining: server is shutting down\n")
                .with_header("retry-after", "1");
        }
    };
    match ticket.wait_deadline(deadline) {
        Ok(out) => {
            // Late-result suppression: if the injected clock says the
            // budget ran out while the batch computed, the answer must not
            // be served after its stage records an exceedance — but it is
            // still worth caching for the next asker.
            let late = shared.clock.now() > deadline;
            let bytes = shared.service.render(&out);
            if let Some(key) = key {
                shared
                    .cache
                    .lock()
                    .unwrap()
                    .insert(key, Arc::new(bytes.clone()));
            }
            if late {
                return deadline_exceeded(metrics, &metrics.deadline_compute, "compute", start);
            }
            metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
            observe_latency(metrics, start);
            Response::json(bytes).with_header("x-kamel-cache", "miss")
        }
        Err(WaitError::Expired) => {
            // Shed at drain time: the work never ran.
            deadline_exceeded(metrics, &metrics.deadline_queue, "queue", start)
        }
        Err(WaitError::Deadline) => {
            deadline_exceeded(metrics, &metrics.deadline_compute, "compute", start)
        }
        Err(WaitError::Failed) => {
            metrics.requests_bad.fetch_add(1, Ordering::Relaxed);
            observe_latency(metrics, start);
            Response::text(500, "imputation failed\n")
        }
    }
}

fn observe_latency(metrics: &Metrics, start: Instant) {
    metrics
        .latency_us
        .observe(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RequestOpts};
    use crate::clock::ManualClock;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// A stub backend: jobs are UTF-8 strings, imputation is uppercasing.
    /// Bodies starting with `nokey:` are uncacheable; empty bodies fail to
    /// parse. A gate (when installed) blocks `run_batch` until released.
    /// Reload bumps the generation (or fails when `reload_ok` is false).
    /// When a `clock` is installed, `parse` and `run_batch` advance it by
    /// `parse_cost`/`batch_cost` — how the deadline tests burn budget at a
    /// precise pipeline stage. Jobs starting with `deg:` have a degraded
    /// fallback; everything else does not.
    struct StubService {
        batches: Mutex<Vec<usize>>,
        calls: AtomicUsize,
        gate: Option<(mpsc::SyncSender<()>, Mutex<mpsc::Receiver<()>>)>,
        generation: AtomicUsize,
        reload_ok: std::sync::atomic::AtomicBool,
        clock: Option<Arc<ManualClock>>,
        parse_cost: Duration,
        batch_cost: Duration,
    }

    impl StubService {
        fn new() -> Self {
            Self {
                batches: Mutex::new(Vec::new()),
                calls: AtomicUsize::new(0),
                gate: None,
                generation: AtomicUsize::new(0),
                reload_ok: std::sync::atomic::AtomicBool::new(true),
                clock: None,
                parse_cost: Duration::ZERO,
                batch_cost: Duration::ZERO,
            }
        }
    }

    impl WireService for StubService {
        type Job = String;
        type Out = String;

        fn parse(&self, body: &[u8]) -> Result<String, String> {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            if text.is_empty() {
                return Err("empty body".into());
            }
            if let Some(clock) = &self.clock {
                clock.advance(self.parse_cost);
            }
            Ok(text.to_string())
        }

        fn cache_key(&self, job: &String) -> Option<CacheKey> {
            if job.starts_with("nokey:") {
                return None;
            }
            Some(CacheKey {
                generation: self.generation.load(Ordering::SeqCst) as u64,
                cells: vec![job.len() as u64],
                spans: Vec::new(),
                digest: fnv1a(job.bytes().map(|b| b as u64)),
            })
        }

        fn run_batch(&self, jobs: Vec<String>) -> Vec<String> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.batches.lock().unwrap().push(jobs.len());
            if let Some((entered, release)) = &self.gate {
                let _ = entered.send(());
                let _ = release.lock().unwrap().recv();
            }
            if let Some(clock) = &self.clock {
                clock.advance(self.batch_cost);
            }
            jobs.into_iter().map(|j| j.to_uppercase()).collect()
        }

        fn degraded(&self, job: &String, reason: &str) -> Option<Vec<u8>> {
            job.strip_prefix("deg:").map(|rest| {
                format!("{{\"degraded\":true,\"reason\":\"{reason}\",\"echo\":\"{rest}\"}}")
                    .into_bytes()
            })
        }

        fn render(&self, out: &String) -> Vec<u8> {
            out.clone().into_bytes()
        }

        fn info(&self) -> Vec<u8> {
            format!(
                "{{\"generation\":{}}}",
                self.generation.load(Ordering::SeqCst)
            )
            .into_bytes()
        }

        fn reload(&self) -> Result<String, String> {
            if self.reload_ok.load(Ordering::SeqCst) {
                let g = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(format!("stub reloaded to generation {g}"))
            } else {
                Err("stub model is corrupt".into())
            }
        }
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            handlers: 8,
            batch_max: 8,
            batch_wait: Duration::from_millis(2),
            queue_cap: 32,
            cache_entries: 64,
            deadline: Duration::from_secs(5),
            degraded_mode: false,
            ..ServerConfig::default()
        }
    }

    fn start(service: Arc<StubService>, config: ServerConfig) -> Server {
        Server::bind("127.0.0.1:0", service, config).expect("bind")
    }

    fn client(server: &Server) -> Client {
        Client::connect(server.local_addr(), Duration::from_secs(5)).expect("connect")
    }

    fn start_with_clock(
        service: Arc<StubService>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        Server::serve_with_clock(listener, service, config, clock).expect("serve")
    }

    /// Polls `/metrics` until the admission queue reports `want` entries.
    fn wait_for_queue_depth(addr: SocketAddr, want: usize) {
        let give_up = Instant::now() + Duration::from_secs(5);
        loop {
            let depth = {
                let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
                let page = c.get("/metrics").unwrap().text();
                page.lines()
                    .find(|l| l.starts_with("kamel_queue_depth "))
                    .and_then(|l| l.rsplit(' ').next()?.parse::<usize>().ok())
                    .unwrap_or(0)
            };
            if depth == want {
                return;
            }
            assert!(
                Instant::now() < give_up,
                "queue never reached depth {want} (at {depth})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A header-only request-opts shorthand for deadline tests.
    fn with_deadline<'a>(headers: &'a [(&'a str, &'a str)]) -> RequestOpts<'a> {
        RequestOpts {
            headers,
            budget: None,
        }
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let server = start(Arc::new(StubService::new()), test_config());
        let mut c = client(&server);
        let health = c.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.text(), "ok\n");
        assert_eq!(c.get("/nope").unwrap().status, 404);
        assert_eq!(c.post_json("/healthz", b"x").unwrap().status, 405);
        server.shutdown();
    }

    #[test]
    fn feedback_route_404s_without_learning() {
        let server = start(Arc::new(StubService::new()), test_config());
        let mut c = client(&server);
        // The default service has no learn sink: the route exists but
        // reports learning as not enabled, and non-POST methods are 405.
        assert_eq!(c.post_json("/v1/feedback", b"{}").unwrap().status, 404);
        assert_eq!(c.get("/v1/feedback").unwrap().status, 405);
        server.shutdown();
    }

    /// A minimal service whose `feedback` is wired: accepts bodies that
    /// start with `{`, rejects the rest.
    struct FeedbackStub;

    impl WireService for FeedbackStub {
        type Job = String;
        type Out = String;

        fn parse(&self, body: &[u8]) -> Result<String, String> {
            Ok(String::from_utf8_lossy(body).into_owned())
        }

        fn cache_key(&self, _job: &String) -> Option<CacheKey> {
            None
        }

        fn run_batch(&self, jobs: Vec<String>) -> Vec<String> {
            jobs
        }

        fn render(&self, out: &String) -> Vec<u8> {
            out.clone().into_bytes()
        }

        fn feedback(&self, body: &[u8]) -> Option<Result<Vec<u8>, String>> {
            Some(if body.first() == Some(&b'{') {
                Ok(b"{\"status\":\"accepted\",\"queue_records\":1}".to_vec())
            } else {
                Err("invalid feedback JSON".into())
            })
        }
    }

    #[test]
    fn feedback_route_acks_and_rejects_through_the_service() {
        let server = Server::bind("127.0.0.1:0", Arc::new(FeedbackStub), test_config())
            .expect("bind");
        let mut c = client(&server);
        let ok = c.post_json("/v1/feedback", b"{\"sparse\":1}").unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.header("content-type"), Some("application/json"));
        assert!(ok.text().contains("accepted"));
        let bad = c.post_json("/v1/feedback", b"not json").unwrap();
        assert_eq!(bad.status, 400);
        assert!(bad.text().contains("invalid feedback"));
        server.shutdown();
    }

    #[test]
    fn info_reports_the_service_identity() {
        let service = Arc::new(StubService::new());
        let server = start(Arc::clone(&service), test_config());
        let mut c = client(&server);
        let info = c.get("/v1/info").unwrap();
        assert_eq!(info.status, 200);
        assert_eq!(info.header("content-type"), Some("application/json"));
        // The service identity plus the connection layer's own field —
        // this client holds the one open connection.
        assert_eq!(info.text(), "{\"generation\":0,\"connections\":1}");
        // The body is the service's live identity, not a boot snapshot.
        c.post_json("/admin/reload", b"").unwrap();
        assert_eq!(
            c.get("/v1/info").unwrap().text(),
            "{\"generation\":1,\"connections\":1}"
        );
        // Only GET is routed.
        assert_eq!(c.post_json("/v1/info", b"x").unwrap().status, 405);
        server.shutdown();
    }

    #[test]
    fn impute_roundtrip_and_keepalive() {
        let server = start(Arc::new(StubService::new()), test_config());
        let mut c = client(&server);
        for i in 0..5 {
            let body = format!("nokey:hello-{i}");
            let resp = c.post_json("/v1/impute", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
            assert_eq!(resp.text(), body.to_uppercase());
            assert_eq!(resp.header("x-kamel-cache"), Some("miss"));
        }
        server.shutdown();
    }

    #[test]
    fn bad_bodies_get_400() {
        let server = start(Arc::new(StubService::new()), test_config());
        let mut c = client(&server);
        let resp = c.post_json("/v1/impute", b"").unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("empty body"), "{}", resp.text());
        let ok = c.post_json("/v1/impute", b"nokey:still-works").unwrap();
        assert_eq!(ok.status, 200);
        server.shutdown();
    }

    #[test]
    fn second_identical_request_hits_the_cache() {
        let service = Arc::new(StubService::new());
        let server = start(Arc::clone(&service), test_config());
        let mut c = client(&server);
        let first = c.post_json("/v1/impute", b"cache-me").unwrap();
        assert_eq!(first.header("x-kamel-cache"), Some("miss"));
        let second = c.post_json("/v1/impute", b"cache-me").unwrap();
        assert_eq!(second.header("x-kamel-cache"), Some("hit"));
        assert_eq!(first.body, second.body, "hit must be byte-identical");
        assert_eq!(service.calls.load(Ordering::SeqCst), 1, "no recompute");
        // Metrics recorded the hit.
        assert_eq!(
            server.metrics().cache_hits.load(Ordering::Relaxed),
            1
        );
        server.shutdown();
    }

    #[test]
    fn cache_disabled_never_hits() {
        let service = Arc::new(StubService::new());
        let server = start(
            Arc::clone(&service),
            ServerConfig {
                cache_entries: 0,
                ..test_config()
            },
        );
        let mut c = client(&server);
        for _ in 0..2 {
            let resp = c.post_json("/v1/impute", b"cache-me").unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("x-kamel-cache"), Some("miss"));
        }
        assert_eq!(service.calls.load(Ordering::SeqCst), 2);
        assert_eq!(server.metrics().cache_hits.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_their_own_answers() {
        let service = Arc::new(StubService::new());
        let server = start(Arc::clone(&service), test_config());
        let addr = server.local_addr();
        let threads: Vec<_> = (0..12)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
                    let body = format!("nokey:client-{i}");
                    let resp = c.post_json("/v1/impute", body.as_bytes()).unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.text(), body.to_uppercase());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Coalescing happened across at least one batch (not 12 singleton
        // calls is not guaranteed under scheduling variance, so only assert
        // the totals line up).
        let total: usize = service.batches.lock().unwrap().iter().sum();
        assert_eq!(total, 12);
        server.shutdown();
    }

    #[test]
    fn overload_sheds_exactly_the_overflow_with_503() {
        const CAP: usize = 4;
        const OVERFLOW: usize = 3;
        let (entered_tx, entered_rx) = mpsc::sync_channel(64);
        let (release_tx, release_rx) = mpsc::sync_channel::<()>(64);
        let mut service = StubService::new();
        service.gate = Some((entered_tx, Mutex::new(release_rx)));
        let server = start(
            Arc::new(service),
            ServerConfig {
                workers: 1,
                handlers: 2 + CAP + OVERFLOW,
                batch_max: 1,
                batch_wait: Duration::ZERO,
                queue_cap: CAP,
                cache_entries: 0,
                ..test_config()
            },
        );
        let addr = server.local_addr();
        let request_thread = |i: usize| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
                let body = format!("nokey:req-{i}");
                c.post_json("/v1/impute", body.as_bytes()).unwrap().status
            })
        };
        // One request occupies the single gated batch worker…
        let occupant = request_thread(0);
        entered_rx.recv().unwrap();
        // …then CAP requests fill the admission queue exactly.
        let queued: Vec<_> = (1..=CAP).map(request_thread).collect();
        let depth_deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let depth = {
                let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
                let page = c.get("/metrics").unwrap().text();
                page.lines()
                    .find(|l| l.starts_with("kamel_queue_depth "))
                    .and_then(|l| l.rsplit(' ').next()?.parse::<usize>().ok())
                    .unwrap_or(0)
            };
            if depth == CAP {
                break;
            }
            assert!(
                Instant::now() < depth_deadline,
                "queue never filled (depth {depth})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Every further request is shed: exactly OVERFLOW 503s.
        let shed: Vec<_> = (0..OVERFLOW)
            .map(|i| request_thread(100 + i))
            .map(|t| t.join().unwrap())
            .collect();
        assert_eq!(shed, vec![503; OVERFLOW]);
        // Release the gate: occupant + queued all complete with 200.
        for _ in 0..(1 + CAP) {
            release_tx.send(()).unwrap();
        }
        assert_eq!(occupant.join().unwrap(), 200);
        for t in queued {
            assert_eq!(t.join().unwrap(), 200);
        }
        assert_eq!(
            server.metrics().requests_shed.load(Ordering::Relaxed),
            OVERFLOW as u64
        );
        server.shutdown();
    }

    #[test]
    fn admin_reload_swaps_generation_and_clears_cache() {
        let service = Arc::new(StubService::new());
        let server = start(Arc::clone(&service), test_config());
        let mut c = client(&server);
        let first = c.post_json("/v1/impute", b"keyed").unwrap();
        assert_eq!(first.header("x-kamel-cache"), Some("miss"));
        let second = c.post_json("/v1/impute", b"keyed").unwrap();
        assert_eq!(second.header("x-kamel-cache"), Some("hit"));
        let resp = c.post_json("/admin/reload", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(resp.text().contains("generation 1"), "{}", resp.text());
        // The old model's cached answers are gone: same request misses
        // and is recomputed by the (new-generation) service.
        let third = c.post_json("/v1/impute", b"keyed").unwrap();
        assert_eq!(third.header("x-kamel-cache"), Some("miss"));
        assert_eq!(service.calls.load(Ordering::SeqCst), 2);
        assert_eq!(server.metrics().model_reloads.load(Ordering::Relaxed), 1);
        // The admin route only accepts POST.
        assert_eq!(c.get("/admin/reload").unwrap().status, 405);
        server.shutdown();
    }

    #[test]
    fn failed_reload_keeps_the_old_model_serving() {
        let service = Arc::new(StubService::new());
        service.reload_ok.store(false, Ordering::SeqCst);
        let server = start(Arc::clone(&service), test_config());
        let mut c = client(&server);
        let cached = c.post_json("/v1/impute", b"keyed").unwrap();
        assert_eq!(cached.status, 200);
        let resp = c.post_json("/admin/reload", b"").unwrap();
        assert_eq!(resp.status, 500, "{}", resp.text());
        assert!(resp.text().contains("stub model is corrupt"), "{}", resp.text());
        // Still serving, and even the old cache entries remain valid.
        let after = c.post_json("/v1/impute", b"keyed").unwrap();
        assert_eq!(after.status, 200);
        assert_eq!(after.header("x-kamel-cache"), Some("hit"));
        assert_eq!(after.text(), "KEYED");
        assert_eq!(server.metrics().model_reload_failures.load(Ordering::Relaxed), 1);
        assert_eq!(server.metrics().model_reloads.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn server_reload_handle_matches_the_admin_route() {
        let service = Arc::new(StubService::new());
        let server = start(Arc::clone(&service), test_config());
        let msg = server.reload().expect("stub reload succeeds");
        assert!(msg.contains("generation 1"), "{msg}");
        assert_eq!(server.metrics().model_reloads.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn metrics_page_reflects_traffic() {
        let server = start(Arc::new(StubService::new()), test_config());
        let mut c = client(&server);
        c.post_json("/v1/impute", b"nokey:x").unwrap();
        c.post_json("/v1/impute", b"keyed").unwrap();
        c.post_json("/v1/impute", b"keyed").unwrap();
        let page = c.get("/metrics").unwrap().text();
        assert!(page.contains("kamel_requests_ok_total 3"), "{page}");
        assert!(page.contains("kamel_cache_hits_total 1"), "{page}");
        assert!(page.contains("kamel_cache_misses_total 1"), "{page}");
        assert!(page.contains("kamel_request_latency_us_count 3"), "{page}");
        assert!(page.contains("kamel_batch_size"), "{page}");
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        let (entered_tx, entered_rx) = mpsc::sync_channel(64);
        let (release_tx, release_rx) = mpsc::sync_channel::<()>(64);
        let mut service = StubService::new();
        service.gate = Some((entered_tx, Mutex::new(release_rx)));
        let server = start(
            Arc::new(service),
            ServerConfig {
                workers: 1,
                batch_max: 1,
                batch_wait: Duration::ZERO,
                ..test_config()
            },
        );
        let addr = server.local_addr();
        // An in-flight request, parked inside the gated engine.
        let inflight = std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
            c.post_json("/v1/impute", b"nokey:inflight")
                .unwrap()
                .status
        });
        entered_rx.recv().unwrap();
        // Begin shutdown from another thread while the request is in
        // flight, then release the engine so the drain can finish.
        server.request_shutdown();
        let drain = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(50));
        release_tx.send(()).unwrap();
        assert_eq!(inflight.join().unwrap(), 200, "in-flight request drained");
        drain.join().unwrap();
        // New connections are refused (accept loop is gone).
        assert!(Client::connect(addr, Duration::from_millis(300)).is_err());
    }

    #[test]
    fn a_budget_burned_before_admission_is_shed_at_the_admission_stage() {
        let clock = ManualClock::shared();
        let mut service = StubService::new();
        service.clock = Some(Arc::clone(&clock));
        service.parse_cost = Duration::from_millis(100);
        let server = start_with_clock(Arc::new(service), test_config(), clock);
        let mut c = client(&server);
        // 50ms of budget, 100ms of (simulated) parse work: shed before
        // the queue ever sees it.
        let resp = c
            .post_json_opts(
                "/v1/impute",
                b"nokey:late",
                with_deadline(&[(DEADLINE_HEADER, "50")]),
            )
            .unwrap();
        assert_eq!(resp.status, 504, "{}", resp.text());
        assert!(resp.text().contains("admission"), "{}", resp.text());
        assert_eq!(
            server.metrics().deadline_admission.load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            server.metrics().requests_deadline.load(Ordering::Relaxed),
            1
        );
        // The same request with an adequate budget is served normally.
        let ok = c
            .post_json_opts(
                "/v1/impute",
                b"nokey:late",
                with_deadline(&[(DEADLINE_HEADER, "60000")]),
            )
            .unwrap();
        assert_eq!(ok.status, 200, "{}", ok.text());
        server.shutdown();
    }

    #[test]
    fn an_expired_queue_item_is_shed_at_the_queue_stage() {
        let clock = ManualClock::shared();
        let (entered_tx, entered_rx) = mpsc::sync_channel(64);
        let (release_tx, release_rx) = mpsc::sync_channel::<()>(64);
        let mut service = StubService::new();
        service.gate = Some((entered_tx, Mutex::new(release_rx)));
        let server = start_with_clock(
            Arc::new(service),
            ServerConfig {
                workers: 1,
                batch_max: 1,
                batch_wait: Duration::ZERO,
                cache_entries: 0,
                ..test_config()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let addr = server.local_addr();
        // Occupy the single gated worker (with budget to spare)…
        let occupant = std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
            c.post_json_opts(
                "/v1/impute",
                b"nokey:occupant",
                with_deadline(&[(DEADLINE_HEADER, "3600000")]),
            )
            .unwrap()
            .status
        });
        entered_rx.recv().unwrap();
        // …then park one request in the queue with a 60s budget.
        let doomed = std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
            c.post_json_opts(
                "/v1/impute",
                b"nokey:doomed",
                with_deadline(&[(DEADLINE_HEADER, "60000")]),
            )
            .unwrap()
        });
        wait_for_queue_depth(addr, 1);
        // Burn the queued request's whole budget, then let the worker at
        // it: the item must be shed at drain time, never run.
        clock.advance(Duration::from_secs(120));
        release_tx.send(()).unwrap();
        assert_eq!(occupant.join().unwrap(), 200);
        let resp = doomed.join().unwrap();
        assert_eq!(resp.status, 504, "{}", resp.text());
        assert!(resp.text().contains("queue"), "{}", resp.text());
        assert_eq!(server.metrics().deadline_queue.load(Ordering::Relaxed), 1);
        assert_eq!(server.metrics().deadline_compute.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn a_slow_batch_times_out_at_the_compute_stage() {
        let (entered_tx, entered_rx) = mpsc::sync_channel(64);
        let (release_tx, release_rx) = mpsc::sync_channel::<()>(64);
        let mut service = StubService::new();
        service.gate = Some((entered_tx, Mutex::new(release_rx)));
        let server = start(
            Arc::new(service),
            ServerConfig {
                workers: 1,
                batch_max: 1,
                batch_wait: Duration::ZERO,
                cache_entries: 0,
                ..test_config()
            },
        );
        let mut c = client(&server);
        // The batch starts (gate entered) but never finishes inside the
        // 150ms budget: the waiter gives up at the compute stage.
        let resp = c
            .post_json_opts(
                "/v1/impute",
                b"nokey:slow",
                with_deadline(&[(DEADLINE_HEADER, "150")]),
            )
            .unwrap();
        entered_rx.recv().unwrap();
        assert_eq!(resp.status, 504, "{}", resp.text());
        assert!(resp.text().contains("compute"), "{}", resp.text());
        assert_eq!(server.metrics().deadline_compute.load(Ordering::Relaxed), 1);
        release_tx.send(()).unwrap();
        server.shutdown();
    }

    #[test]
    fn a_late_result_is_suppressed_but_still_cached() {
        let clock = ManualClock::shared();
        let mut service = StubService::new();
        service.clock = Some(Arc::clone(&clock));
        service.batch_cost = Duration::from_secs(7200); // 2h per batch
        let service = Arc::new(service);
        let server = start_with_clock(Arc::clone(&service), test_config(), clock);
        let mut c = client(&server);
        // The answer computes fine — but the injected clock says the
        // budget ran out mid-batch, so it must not be served.
        let resp = c.post_json("/v1/impute", b"slowpoke").unwrap();
        assert_eq!(resp.status, 504, "{}", resp.text());
        assert!(resp.text().contains("compute"), "{}", resp.text());
        assert_eq!(server.metrics().deadline_compute.load(Ordering::Relaxed), 1);
        // The computed answer was still cached for the next asker.
        let hit = c.post_json("/v1/impute", b"slowpoke").unwrap();
        assert_eq!(hit.status, 200);
        assert_eq!(hit.header("x-kamel-cache"), Some("hit"));
        assert_eq!(hit.text(), "SLOWPOKE");
        assert_eq!(service.calls.load(Ordering::SeqCst), 1, "no recompute");
        server.shutdown();
    }

    #[test]
    fn overload_answers_degraded_instead_of_shedding_when_enabled() {
        const CAP: usize = 2;
        let (entered_tx, entered_rx) = mpsc::sync_channel(64);
        let (release_tx, release_rx) = mpsc::sync_channel::<()>(64);
        let mut service = StubService::new();
        service.gate = Some((entered_tx, Mutex::new(release_rx)));
        let server = start(
            Arc::new(service),
            ServerConfig {
                workers: 1,
                handlers: 8 + CAP,
                batch_max: 1,
                batch_wait: Duration::ZERO,
                queue_cap: CAP,
                cache_entries: 0,
                degraded_mode: true,
                ..test_config()
            },
        );
        let addr = server.local_addr();
        let request_thread = |body: String| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
                c.post_json("/v1/impute", body.as_bytes()).unwrap().status
            })
        };
        // Fill the worker and the whole admission queue.
        let occupant = request_thread("deg:occ".into());
        entered_rx.recv().unwrap();
        let queued: Vec<_> = (0..CAP)
            .map(|i| request_thread(format!("deg:q{i}")))
            .collect();
        wait_for_queue_depth(addr, CAP);
        // Overflow with a degradable job: 200, flagged, not shed.
        let mut c = client(&server);
        let resp = c.post_json("/v1/impute", b"deg:extra").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header(DEGRADED_HEADER), Some("overloaded"));
        assert!(resp.text().contains("\"degraded\":true"), "{}", resp.text());
        assert!(resp.text().contains("\"echo\":\"extra\""), "{}", resp.text());
        // Overflow with no fallback still sheds with 503.
        let mut c2 = client(&server);
        let shed = c2.post_json("/v1/impute", b"nokey:plain").unwrap();
        assert_eq!(shed.status, 503, "{}", shed.text());
        // Drain the gate; everything queued completes normally.
        for _ in 0..(1 + CAP) {
            release_tx.send(()).unwrap();
        }
        assert_eq!(occupant.join().unwrap(), 200);
        for t in queued {
            assert_eq!(t.join().unwrap(), 200);
        }
        assert_eq!(server.metrics().degraded.load(Ordering::Relaxed), 1);
        assert_eq!(server.metrics().requests_shed.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn an_invalid_deadline_header_serves_with_the_default_budget() {
        let server = start(Arc::new(StubService::new()), test_config());
        let mut c = client(&server);
        let resp = c
            .post_json_opts(
                "/v1/impute",
                b"nokey:messy",
                with_deadline(&[(DEADLINE_HEADER, "banana")]),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "not an insta-504: {}", resp.text());
        assert_eq!(resp.text(), "NOKEY:MESSY");
        assert_eq!(server.metrics().requests_deadline.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a([1]), fnv1a([2]));
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
        assert_eq!(fnv1a([7, 8, 9]), fnv1a([7, 8, 9]));
    }
}
