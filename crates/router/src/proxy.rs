//! The routing core: gap → cell → shard assignment, verbatim forwarding,
//! scatter-gather for shard-spanning trajectories, and deterministic
//! replica failover.
//!
//! ## Forwarding modes
//!
//! * **Single-owner** (the common case): every gap of the request is
//!   assigned to the same shard, so the original body is forwarded
//!   verbatim and the shard's response returned verbatim — byte-identical
//!   to asking a monolithic server over the same model.
//! * **Scatter-gather**: the trajectory's gaps span shards. The point
//!   list is split at ownership changes into sub-trajectories that share
//!   their boundary fix, each sub-trajectory is imputed by its owner, and
//!   the responses are merged in order (each later segment drops its
//!   echoed boundary fix; the imputation summaries are summed). Gaps at a
//!   seam lose cross-shard context by construction — the documented cost
//!   of spanning territories (DESIGN.md §11).
//!
//! ## Failover
//!
//! Each cell's rendezvous order is primary + replicas. A forward walks
//! that chain: shards the [`Gate`] refuses (unverified, ejected, or on
//! probation with a trial already in flight) are skipped, a transport
//! error or 5xx is recorded against the shard and moves on, and the
//! first 2xx–4xx wins. The chain is deterministic, so concurrent clients
//! agree on who serves a cell at every fleet state.

use crate::gate::{Gate, GatePolicy, Probe, ShardState};
use crate::metrics::RouterMetrics;
use crate::shardmap::ShardMap;
use kamel::routing::gap_anchor_cells;
use kamel_geo::Trajectory;
use kamel_hexgrid::CellId;
use kamel_server::http::{parse_deadline_header, Request, Response};
use kamel_server::{
    Client, ClientResponse, Clock, ImputeResponse, InfoResponse, RequestOpts,
    RetryPolicy, RetryingClient, SystemClock, DEADLINE_HEADER, DEGRADED_HEADER,
};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// When the remaining deadline budget drops to this floor, forwarding to
/// a shard cannot plausibly finish in time: a degraded-mode router
/// answers from the linear path instead of burning the last of the
/// budget discovering a 504.
const DEGRADED_BUDGET_FLOOR: Duration = Duration::from_millis(25);

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Dispatch workers running the proxy logic for parsed requests.
    pub handlers: usize,
    /// Per-forward socket timeout.
    pub timeout: Duration,
    /// Per-shard retry policy (kept tight: replica failover is the real
    /// retry; see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Per-shard ejection rule and probe cadence.
    pub gate: GatePolicy,
    /// Pooled connections kept per shard.
    pub max_pool: usize,
    /// Deadline budget granted to requests that carry no
    /// `x-kamel-deadline-ms` header. The remaining budget is re-stamped
    /// on every forward, so shards shed work the router has given up on.
    pub default_deadline: Duration,
    /// When `true`, requests no shard can serve (every replica refused
    /// or failing, or the budget nearly spent) are answered from the
    /// linear-interpolation baseline — marked degraded — instead of
    /// 502/503.
    pub degraded: bool,
    /// Gap threshold / interior spacing (meters) for the degraded linear
    /// imputer (the system `max_gap`, paper default 100 m).
    pub degraded_max_gap_m: f64,
    /// Concurrent-connection cap; accepts beyond it are refused with a
    /// best-effort 503.
    pub max_connections: usize,
    /// Idle keep-alive / slow-loris connections are closed after this
    /// long without progress.
    pub idle_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            handlers: 8,
            timeout: Duration::from_secs(10),
            retry: RetryPolicy {
                base: Duration::from_millis(50),
                max_delay: Duration::from_millis(250),
                max_attempts: 2,
                deadline: Duration::from_secs(5),
                jitter_seed: 0x6b61_6d65_6c00_0002,
            },
            gate: GatePolicy::default(),
            max_pool: 8,
            default_deadline: Duration::from_secs(10),
            degraded: false,
            degraded_max_gap_m: 100.0,
            max_connections: 10_000,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// One row of the `GET /v1/shards` listing.
#[derive(Debug, Serialize)]
struct ShardStatus {
    id: String,
    addr: String,
    state: &'static str,
    window_failures: usize,
}

/// The `GET /v1/shards` body.
#[derive(Debug, Serialize)]
struct ShardsPage {
    cell_deg: f64,
    expected_digest: Option<String>,
    shards: Vec<ShardStatus>,
}

/// Shared routing state: the map, the fleet's gates, per-shard
/// connection pools, and metrics.
pub struct RouterCore {
    map: ShardMap,
    gate: Gate,
    metrics: Arc<RouterMetrics>,
    pools: Vec<Mutex<Vec<RetryingClient>>>,
    /// The config digest the fleet is pinned to: the map's
    /// `config_digest` when present, else the digest of the first shard
    /// admitted (first-writer-wins).
    fleet_digest: Mutex<Option<String>>,
    clock: Arc<dyn Clock>,
    config: RouterConfig,
}

impl RouterCore {
    /// Builds the core; no traffic flows until shards are admitted (run
    /// [`RouterCore::probe_all`] at boot and periodically).
    pub fn new(map: ShardMap, config: RouterConfig) -> Self {
        Self::with_clock(map, config, Arc::new(SystemClock))
    }

    /// [`RouterCore::new`] with an injected clock, so deadline decisions
    /// are deterministic under test.
    pub fn with_clock(map: ShardMap, config: RouterConfig, clock: Arc<dyn Clock>) -> Self {
        let metrics = Arc::new(RouterMetrics::new(
            map.shards().iter().map(|s| s.id.clone()).collect(),
        ));
        let gate = Gate::new(map.len(), &config.gate);
        let pools = map.shards().iter().map(|_| Mutex::new(Vec::new())).collect();
        let fleet_digest = Mutex::new(map.expected_digest().map(str::to_string));
        Self {
            map,
            gate,
            metrics,
            pools,
            fleet_digest,
            clock,
            config,
        }
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The fleet's gates.
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<RouterMetrics> {
        &self.metrics
    }

    /// The router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The clock the core makes deadline decisions with;
    /// the reactor shares it so socket timers agree with deadlines.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Number of shards currently admitted to traffic (active or on
    /// probation).
    pub fn available_shards(&self) -> usize {
        self.gate
            .snapshot()
            .iter()
            .filter(|(state, _)| matches!(state, ShardState::Active | ShardState::Probation))
            .count()
    }

    // ---- probing / admission ----

    /// One probe sweep over the whole fleet. Every shard, whatever its
    /// state, gets the same verdict — healthy `/healthz` ∧ `/v1/info`
    /// config digest matches the fleet — and the gate decides what it
    /// means: admission, probation, a failure in the window, or (a
    /// foreign digest on a serving shard) ejection.
    pub fn probe_all(&self) {
        for shard in 0..self.map.len() {
            self.probe_shard(shard);
        }
    }

    fn probe_shard(&self, shard: usize) {
        let info = self.probe_info(shard);
        let verdict = match &info {
            Ok(info) if self.digest_matches(info) => Probe::Healthy,
            Ok(_) => Probe::Foreign,
            Err(_) => Probe::Failed,
        };
        let entered = self.gate.probe(shard, verdict);
        if let (Probe::Foreign, Ok(info)) = (verdict, &info) {
            let refusals = &self.metrics.shard(shard).admission_refusals;
            // Logged when it first keeps a shard out and whenever it takes
            // a serving one out, not on every sweep that finds it unchanged.
            if refusals.fetch_add(1, Ordering::Relaxed) == 0 || entered.is_some() {
                eprintln!(
                    "kamel-router: refusing shard `{}`: config digest {} disagrees with the fleet",
                    self.map.shards()[shard].id,
                    info.config_digest,
                );
            }
        }
        self.note(shard, entered);
    }

    /// `/healthz` + `/v1/info` over a fresh, short-lived connection.
    fn probe_info(&self, shard: usize) -> Result<InfoResponse, String> {
        let addr = self.map.shards()[shard].addr;
        let timeout = self.config.timeout.min(Duration::from_secs(2));
        let mut client = Client::connect(addr, timeout).map_err(|e| e.to_string())?;
        let health = client.get("/healthz").map_err(|e| e.to_string())?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        let info = client.get("/v1/info").map_err(|e| e.to_string())?;
        if info.status != 200 {
            return Err(format!("info answered {}", info.status));
        }
        serde_json::from_slice(&info.body).map_err(|e| format!("bad /v1/info body: {e}"))
    }

    /// The first healthy shard pins the fleet digest when the map does
    /// not; after that a shard matches or is foreign.
    fn digest_matches(&self, info: &InfoResponse) -> bool {
        let mut pinned = self.fleet_digest.lock().expect("fleet digest poisoned");
        match pinned.as_deref() {
            Some(expected) => expected == info.config_digest,
            None => {
                *pinned = Some(info.config_digest.clone());
                true
            }
        }
    }

    /// Counts the state a gate event moved `shard` into, if it moved.
    fn note(&self, shard: usize, entered: Option<ShardState>) {
        let counters = self.metrics.shard(shard);
        let counter = match entered {
            Some(ShardState::Active) => &counters.admissions,
            Some(ShardState::Ejected) => &counters.ejections,
            Some(ShardState::Probation) => &counters.probations,
            Some(ShardState::Unverified) | None => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    // ---- request path ----

    /// Routes one `POST /v1/impute` request. The request's
    /// `x-kamel-deadline-ms` header (or the configured default) arms a
    /// deadline; the remaining budget is re-stamped on every forward and
    /// checked before each hop, so a request the router has given up on
    /// is never still computing somewhere downstream.
    pub fn handle_impute(&self, request: &Request) -> Response {
        self.handle_impute_at(request, self.clock.now())
    }

    /// [`RouterCore::handle_impute`] with an explicit arrival instant —
    /// the reactor path passes the moment the request finished parsing,
    /// so time spent queued for a dispatch worker counts against the
    /// deadline budget instead of silently extending it.
    pub fn handle_impute_at(&self, request: &Request, received: Instant) -> Response {
        let budget = parse_deadline_header(request.header(DEADLINE_HEADER))
            .budget_or(self.config.default_deadline);
        let deadline = received + budget;
        let sparse: Trajectory = match serde_json::from_slice(&request.body) {
            Ok(t) => t,
            Err(e) => {
                self.metrics.requests_bad.fetch_add(1, Ordering::Relaxed);
                return Response::text(400, format!("bad request: invalid trajectory JSON: {e}\n"));
            }
        };
        // One routing cell per gap; gapless trajectories still need an
        // owner (the shard echoes them back).
        let cells = {
            let anchors = gap_anchor_cells(&sparse, self.map.cell_deg());
            if anchors.is_empty() {
                vec![sparse
                    .points
                    .first()
                    .map(|p| self.map.cell_of(p.pos))
                    .unwrap_or_default()]
            } else {
                anchors
            }
        };
        // A budget too thin for any forward: answer degraded (cheap,
        // local) rather than spending it discovering a 504 downstream.
        let remaining = deadline.saturating_duration_since(self.clock.now());
        if remaining.is_zero() {
            self.metrics.requests_deadline.fetch_add(1, Ordering::Relaxed);
            return Response::text(504, "deadline exceeded (stage: router)\n");
        }
        if self.config.degraded && remaining <= DEGRADED_BUDGET_FLOOR {
            return self.degraded_response(&sparse, "deadline");
        }
        // Snapshot the assignment: each gap goes to the first available
        // candidate of its cell. Failover below re-walks the chain, so a
        // shard dying between here and the forward is still survived.
        let mut assigned = Vec::with_capacity(cells.len());
        for cell in &cells {
            match self.first_available(*cell) {
                Some(shard) => assigned.push(shard),
                None if self.config.degraded => {
                    return self.degraded_response(&sparse, "no-shard-available");
                }
                None => {
                    self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                    return Response::text(503, "no shards available\n")
                        .with_header("retry-after", "1");
                }
            }
        }
        let single_owner = assigned.iter().all(|&s| s == assigned[0]);
        if single_owner {
            return self.forward_verbatim(cells[0], &request.body, deadline, &sparse);
        }
        self.scatter_gather(&sparse, &cells, &assigned, deadline)
    }

    /// The first shard in the cell's rendezvous order the gate would
    /// admit — a refused owner costs one boolean here, not a connection
    /// timeout.
    fn first_available(&self, cell: CellId) -> Option<usize> {
        self.map
            .owner_order(cell)
            .into_iter()
            .find(|&s| self.gate.would_admit(s))
    }

    /// The degraded linear answer: imputed locally, marked in both the
    /// JSON body (`"degraded": true` + reason) and the
    /// `x-kamel-degraded` header so no caller mistakes it for a
    /// full-fidelity result.
    fn degraded_response(&self, sparse: &Trajectory, reason: &str) -> Response {
        let resp =
            ImputeResponse::degraded_linear(sparse, self.config.degraded_max_gap_m, reason);
        match serde_json::to_vec(&resp) {
            Ok(bytes) => {
                self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                self.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                Response::json(bytes)
                    .with_header(DEGRADED_HEADER, reason.to_string())
                    .with_header("x-kamel-shard", "degraded")
            }
            Err(e) => {
                self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                Response::text(500, format!("degraded encode failed: {e}\n"))
            }
        }
    }

    /// Single-owner fast path: the original bytes go to the owner of
    /// `cell` (with failover down its chain) and the shard's response
    /// comes back verbatim. An exhausted chain falls back to the
    /// degraded path when enabled; a spent budget is an honest 504.
    fn forward_verbatim(
        &self,
        cell: CellId,
        body: &[u8],
        deadline: Instant,
        sparse: &Trajectory,
    ) -> Response {
        match self.forward_chain(cell, body, deadline) {
            Ok((shard, resp)) => {
                if resp.status < 400 {
                    self.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.metrics.requests_bad.fetch_add(1, Ordering::Relaxed);
                }
                passthrough(resp).with_header("x-kamel-shard", self.map.shards()[shard].id.clone())
            }
            Err(ChainError::Deadline) => {
                self.metrics.requests_deadline.fetch_add(1, Ordering::Relaxed);
                Response::text(504, "deadline exceeded (stage: router)\n")
            }
            Err(ChainError::Exhausted) if self.config.degraded => {
                self.degraded_response(sparse, "no-shard-available")
            }
            Err(ChainError::Exhausted) => {
                self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                Response::text(502, format!("bad gateway: no shard could serve {cell}\n"))
            }
        }
    }

    /// Walks the cell's candidate chain until a shard answers below 500.
    /// Shards the gate refuses are skipped in O(1); every forward's
    /// outcome and latency go back to the gate. The remaining deadline
    /// budget is checked before every hop.
    fn forward_chain(
        &self,
        cell: CellId,
        body: &[u8],
        deadline: Instant,
    ) -> Result<(usize, ClientResponse), ChainError> {
        for shard in self.map.owner_order(cell) {
            let counters = self.metrics.shard(shard);
            let Some(permit) = self.gate.admit(shard) else {
                counters.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let start = self.clock.now();
            if start >= deadline {
                // Too late to forward anywhere; the permit saw no
                // traffic, so it frees its trial slot without a verdict.
                self.gate.release(shard, permit);
                return Err(ChainError::Deadline);
            }
            let outcome = self.forward_once(shard, body, deadline - start);
            let latency = self.clock.now().saturating_duration_since(start);
            let answered = outcome.ok().filter(|resp| resp.status < 500);
            self.note(shard, self.gate.record(shard, permit, answered.is_some(), latency));
            if let Some(resp) = answered {
                return Ok((shard, resp));
            }
            counters.errors.fetch_add(1, Ordering::Relaxed);
            counters.failovers.fetch_add(1, Ordering::Relaxed);
        }
        Err(ChainError::Exhausted)
    }

    /// One forward to one shard through its connection pool, bounded by
    /// the remaining deadline budget: the budget is stamped downstream
    /// as `x-kamel-deadline-ms`, bounds the retry loop's sleeps, and
    /// caps every socket read.
    fn forward_once(
        &self,
        shard: usize,
        body: &[u8],
        remaining: Duration,
    ) -> std::io::Result<ClientResponse> {
        let counters = self.metrics.shard(shard);
        counters.forwarded.fetch_add(1, Ordering::Relaxed);
        counters.inflight.fetch_add(1, Ordering::Relaxed);
        let mut client = self.pools[shard].lock().unwrap().pop().unwrap_or_else(|| {
            RetryingClient::new(
                self.map.shards()[shard].addr,
                self.config.timeout,
                self.config.retry.clone(),
            )
        });
        let opts = RequestOpts {
            headers: &[],
            budget: Some(remaining),
        };
        let outcome = client.post_json_opts("/v1/impute", body, opts);
        counters.inflight.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_ok() {
            let mut pool = self.pools[shard].lock().unwrap();
            if pool.len() < self.config.max_pool {
                pool.push(client);
            }
        }
        outcome
    }

    /// Scatter-gather: split at ownership changes, impute each segment on
    /// its owner concurrently (every segment under the one request
    /// deadline), merge in order. A segment whose chain is exhausted
    /// degrades the whole answer when enabled — a seam must not return
    /// half a trajectory.
    fn scatter_gather(
        &self,
        sparse: &Trajectory,
        cells: &[CellId],
        assigned: &[usize],
        deadline: Instant,
    ) -> Response {
        self.metrics.scatter_requests.fetch_add(1, Ordering::Relaxed);
        let segments = split_segments(assigned);
        let mut bodies = Vec::with_capacity(segments.len());
        for &(start, end, _) in &segments {
            let part = Trajectory::new(sparse.points[start..=end].to_vec());
            match serde_json::to_vec(&part) {
                Ok(bytes) => bodies.push(bytes),
                Err(e) => {
                    self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                    return Response::text(500, format!("segment encode failed: {e}\n"));
                }
            }
        }
        // Gather: one forward per segment, concurrently; order is
        // restored by index.
        let mut outcomes: Vec<Option<Result<(usize, ClientResponse), ChainError>>> =
            (0..segments.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (slot, (&(start, _, _), body)) in
                outcomes.iter_mut().zip(segments.iter().zip(&bodies))
            {
                let cell = cells[start];
                scope.spawn(move || {
                    *slot = Some(self.forward_chain(cell, body, deadline));
                });
            }
        });
        let mut parts = Vec::with_capacity(segments.len());
        let mut served_by = Vec::with_capacity(segments.len());
        for outcome in outcomes {
            match outcome.expect("every scatter slot is filled") {
                Ok((shard, resp)) if resp.status == 200 => {
                    match serde_json::from_slice::<ImputeResponse>(&resp.body) {
                        Ok(part) => {
                            parts.push(part);
                            served_by.push(self.map.shards()[shard].id.clone());
                        }
                        Err(e) => {
                            self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                            return Response::text(
                                502,
                                format!("bad gateway: unparseable shard response: {e}\n"),
                            );
                        }
                    }
                }
                Ok((shard, resp)) => {
                    // A shard rejected its segment (4xx): surface it.
                    self.metrics.requests_bad.fetch_add(1, Ordering::Relaxed);
                    return passthrough(resp)
                        .with_header("x-kamel-shard", self.map.shards()[shard].id.clone());
                }
                Err(ChainError::Deadline) => {
                    self.metrics.requests_deadline.fetch_add(1, Ordering::Relaxed);
                    return Response::text(504, "deadline exceeded (stage: router)\n");
                }
                Err(ChainError::Exhausted) if self.config.degraded => {
                    return self.degraded_response(sparse, "no-shard-available");
                }
                Err(ChainError::Exhausted) => {
                    self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                    return Response::text(502, "bad gateway: a segment's chain is exhausted\n");
                }
            }
        }
        let merged = merge_responses(parts);
        let degraded_reason = merged.degraded.then(|| {
            if merged.degraded_reason.is_empty() {
                "degraded".to_string()
            } else {
                merged.degraded_reason.clone()
            }
        });
        match serde_json::to_vec(&merged) {
            Ok(bytes) => {
                self.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                let mut out = Response::json(bytes).with_header("x-kamel-shard", served_by.join(","));
                // A shard answering its segment degraded (its own
                // overload path) marks the merged answer degraded too.
                if let Some(reason) = degraded_reason {
                    out = out.with_header(DEGRADED_HEADER, reason);
                }
                out
            }
            Err(e) => {
                self.metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                Response::text(500, format!("merge encode failed: {e}\n"))
            }
        }
    }

    // ---- introspection ----

    /// The `GET /metrics` page: the counter registry plus the live
    /// per-shard state gauge (0 active, 1 probation, 2 ejected,
    /// 3 unverified).
    pub fn metrics_page(&self) -> String {
        let mut page = self.metrics.render();
        page.push_str(
            "# HELP kamel_router_shard_state Gate state per shard (0 active, 1 probation, 2 ejected, 3 unverified).\n\
             # TYPE kamel_router_shard_state gauge\n",
        );
        for (shard, (state, _)) in self.map.shards().iter().zip(self.gate.snapshot()) {
            page.push_str(&format!(
                "kamel_router_shard_state{{shard=\"{}\"}} {}\n",
                shard.id,
                state.gauge()
            ));
        }
        page
    }

    /// The `GET /v1/shards` body: the live map plus per-shard gate state
    /// (`unverified`, `active`, `ejected` or `probation`) and the
    /// failures in its outcome window. `Err` carries the serialization
    /// failure for a 500 answer.
    pub fn shards_page(&self) -> Result<Vec<u8>, String> {
        let snapshot = self.gate.snapshot();
        let page = ShardsPage {
            cell_deg: self.map.cell_deg(),
            expected_digest: self.fleet_digest.lock().expect("fleet digest poisoned").clone(),
            shards: self
                .map
                .shards()
                .iter()
                .zip(snapshot)
                .map(|(s, (state, fails))| ShardStatus {
                    id: s.id.clone(),
                    addr: s.addr.to_string(),
                    state: state.as_str(),
                    window_failures: fails,
                })
                .collect(),
        };
        serde_json::to_vec(&page).map_err(|e| format!("shards render failed: {e}"))
    }
}

/// Why a forward chain produced no shard response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainError {
    /// The request's deadline budget ran out before (or while) walking
    /// the chain — an honest 504, never a retry.
    Deadline,
    /// Every candidate was refused by the gate or failed —
    /// the degraded path's cue, else a 502.
    Exhausted,
}

/// Copies a shard response into a router response (status + body verbatim;
/// the cache and degraded headers survive, hop-by-hop framing is re-done
/// by the router).
fn passthrough(resp: ClientResponse) -> Response {
    let json = resp
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("application/json"));
    let cache = resp.header("x-kamel-cache").map(str::to_string);
    let degraded = resp.header(DEGRADED_HEADER).map(str::to_string);
    let mut out = if json {
        let mut r = Response::json(resp.body);
        r.status = resp.status;
        r
    } else {
        Response {
            status: resp.status,
            headers: Vec::new(),
            body: resp.body,
            content_type: "text/plain; charset=utf-8",
        }
    };
    if let Some(cache) = cache {
        out = out.with_header("x-kamel-cache", cache);
    }
    if let Some(degraded) = degraded {
        out = out.with_header(DEGRADED_HEADER, degraded);
    }
    out
}

/// Groups consecutive gaps by their assigned shard: returns
/// `(first_point, last_point, shard)` per segment, where segment points
/// are `points[first..=last]` and adjacent segments share their boundary
/// fix.
pub(crate) fn split_segments(assigned: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut segments = Vec::new();
    let mut start = 0;
    for gap in 1..=assigned.len() {
        if gap == assigned.len() || assigned[gap] != assigned[start] {
            segments.push((start, gap, assigned[start]));
            start = gap;
        }
    }
    segments
}

/// Order-preserving merge: concatenates segment trajectories (dropping
/// each later segment's echoed boundary fix), sums the imputation
/// summaries, and ORs the degraded flags — one degraded segment makes
/// the merged answer degraded (the first non-empty reason wins).
pub(crate) fn merge_responses(parts: Vec<ImputeResponse>) -> ImputeResponse {
    let mut parts = parts.into_iter();
    let Some(mut merged) = parts.next() else {
        return ImputeResponse {
            trajectory: Trajectory::new(Vec::new()),
            gap_count: 0,
            imputed_points: 0,
            failed_gaps: 0,
            model_calls: 0,
            degraded: false,
            degraded_reason: String::new(),
        };
    };
    for part in parts {
        merged
            .trajectory
            .points
            .extend(part.trajectory.points.into_iter().skip(1));
        merged.gap_count += part.gap_count;
        merged.imputed_points += part.imputed_points;
        merged.failed_gaps += part.failed_gaps;
        merged.model_calls += part.model_calls;
        merged.degraded |= part.degraded;
        if merged.degraded_reason.is_empty() {
            merged.degraded_reason = part.degraded_reason;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_geo::GpsPoint;

    #[test]
    fn segments_split_exactly_at_ownership_changes() {
        // 5 gaps → 6 points; shards A=0, B=1.
        assert_eq!(split_segments(&[0, 0, 1, 1, 0]), vec![(0, 2, 0), (2, 4, 1), (4, 5, 0)]);
        assert_eq!(split_segments(&[0]), vec![(0, 1, 0)]);
        assert_eq!(split_segments(&[1, 1, 1]), vec![(0, 3, 1)]);
        assert_eq!(split_segments(&[0, 1]), vec![(0, 1, 0), (1, 2, 1)]);
        assert!(split_segments(&[]).is_empty());
    }

    #[test]
    fn segments_tile_the_point_list_sharing_boundaries() {
        let assigned = [2, 2, 0, 1, 1, 1, 0];
        let segs = split_segments(&assigned);
        assert_eq!(segs.first().unwrap().0, 0);
        assert_eq!(segs.last().unwrap().1, assigned.len());
        for pair in segs.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "adjacent segments share a fix");
            assert_ne!(pair[0].2, pair[1].2, "a split implies an owner change");
        }
        let gaps: usize = segs.iter().map(|&(s, e, _)| e - s).sum();
        assert_eq!(gaps, assigned.len(), "every gap lands in exactly one segment");
    }

    fn part(ts: &[f64], gaps: usize, imputed: usize) -> ImputeResponse {
        ImputeResponse {
            trajectory: Trajectory::new(
                ts.iter().map(|&t| GpsPoint::from_parts(41.0, -8.0, t)).collect(),
            ),
            gap_count: gaps,
            imputed_points: imputed,
            failed_gaps: 0,
            model_calls: gaps,
            degraded: false,
            degraded_reason: String::new(),
        }
    }

    #[test]
    fn merge_drops_boundary_echoes_and_sums_summaries() {
        // Segment 1 ends at t=20; segment 2 echoes t=20 as its first fix.
        let merged = merge_responses(vec![
            part(&[0.0, 10.0, 20.0], 2, 1),
            part(&[20.0, 30.0, 40.0], 2, 1),
        ]);
        let ts: Vec<f64> = merged.trajectory.points.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
        assert_eq!(merged.gap_count, 4);
        assert_eq!(merged.imputed_points, 2);
        assert_eq!(merged.model_calls, 4);
    }

    #[test]
    fn merge_of_one_part_is_the_identity() {
        let merged = merge_responses(vec![part(&[0.0, 5.0], 1, 0)]);
        assert_eq!(merged.trajectory.len(), 2);
        assert_eq!(merged.gap_count, 1);
    }

    #[test]
    fn one_degraded_segment_degrades_the_merge() {
        let clean = part(&[0.0, 10.0], 1, 0);
        let mut tainted = part(&[10.0, 20.0], 1, 0);
        tainted.degraded = true;
        tainted.degraded_reason = "overloaded".into();
        let merged = merge_responses(vec![clean, tainted]);
        assert!(merged.degraded);
        assert_eq!(merged.degraded_reason, "overloaded");
        // All-clean merges stay clean.
        let merged = merge_responses(vec![part(&[0.0, 1.0], 1, 0), part(&[1.0, 2.0], 1, 0)]);
        assert!(!merged.degraded);
        assert!(merged.degraded_reason.is_empty());
    }
}
