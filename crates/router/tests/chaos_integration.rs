//! Chaos drills: a real fleet of `kamel-server` instances behind
//! fault-injecting [`kamel_chaos::ChaosProxy`] instances, all on
//! loopback, driven through a [`kamel_router::Router`].
//!
//! Every schedule here is scripted or seeded, so each drill replays
//! byte-for-byte. The contracts pinned:
//!
//! * faults on the owning shard (connect refusal, mid-body reset, torn
//!   responses) never corrupt an answer — every client request completes
//!   200 on the replica with bytes identical to the monolith;
//! * a repeatedly failing shard trips its circuit breaker open, is
//!   probed half-open after the hold, and closes again once the shard
//!   recovers — each transition visible exactly once per cycle in
//!   `/metrics`;
//! * a fleet that stalls past the request's deadline budget yields an
//!   honest 504, not a hang;
//! * with `--degraded-mode`, a fleet the router cannot reach at all
//!   still answers 200 from the linear baseline, marked degraded in
//!   both body and header;
//! * the same seed yields the same fault assignment, connection for
//!   connection.

use kamel::{Kamel, KamelConfig};
use kamel_chaos::{ChaosConfig, ChaosProxy, ChaosSchedule, Fault};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_router::{BreakerPolicy, HealthPolicy, Router, RouterConfig, ShardInfo, ShardMap};
use kamel_server::{
    Client, ImputeEngine, ImputeResponse, RequestOpts, RetryPolicy, Server, ServerConfig,
    WireService,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn street_corpus(n: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|_| {
            Trajectory::new(
                (0..30)
                    .map(|i| GpsPoint::from_parts(41.15, -8.61 + i as f64 * 0.001, i as f64 * 10.0))
                    .collect(),
            )
        })
        .collect()
}

fn trained() -> Arc<Kamel> {
    let kamel = Kamel::new(
        KamelConfig::builder()
            .model_threshold_k(50)
            .pyramid_height(3)
            .threads(Some(2))
            .build(),
    );
    kamel.train(&street_corpus(40));
    Arc::new(kamel)
}

fn sparse_request(i: usize) -> Trajectory {
    let jitter = i as f64 * 1e-5;
    Trajectory::new(vec![
        GpsPoint::from_parts(41.15, -8.610 + jitter, 0.0),
        GpsPoint::from_parts(41.15, -8.609 + jitter, 10.0),
        GpsPoint::from_parts(41.15, -8.589 + jitter, 210.0),
        GpsPoint::from_parts(41.15, -8.588 + jitter, 220.0),
    ])
}

fn boot_shard(kamel: &Arc<Kamel>) -> Server {
    let engine = Arc::new(ImputeEngine::new(Arc::clone(kamel)));
    let config = ServerConfig {
        workers: 2,
        handlers: 16,
        batch_max: 4,
        batch_wait: Duration::from_millis(2),
        queue_cap: 64,
        cache_entries: 0,
        deadline: Duration::from_secs(30),
        degraded_mode: false,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, config).expect("bind shard")
}

/// A router config tuned for drills: no client pooling (every forward is
/// a fresh connection, so scripted faults land in accept order), one
/// connect attempt per forward, probes effectively off after boot.
fn drill_config(breaker: BreakerPolicy) -> RouterConfig {
    RouterConfig {
        handlers: 8,
        timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            base: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            max_attempts: 1,
            deadline: Duration::from_secs(10),
            jitter_seed: 7,
        },
        health: HealthPolicy {
            // Breakers drive these drills; keep the health machine from
            // ejecting underneath them.
            eject_after: 1_000,
            probe_interval: Duration::from_secs(600),
        },
        breaker,
        max_pool: 0,
        default_deadline: Duration::from_secs(10),
        degraded: false,
        degraded_max_gap_m: 100.0,
        ..RouterConfig::default()
    }
}

/// A breaker that never trips (for drills where failover is the point):
/// failures can never reach twice the sample count.
fn inert_breaker() -> BreakerPolicy {
    BreakerPolicy {
        failure_ratio: 2.0,
        ..BreakerPolicy::default()
    }
}

fn fleet_map(addrs: &[SocketAddr], cell_deg: f64) -> ShardMap {
    let shards = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| ShardInfo {
            id: format!("shard-{i}"),
            addr: *addr,
        })
        .collect();
    ShardMap::new(shards, cell_deg).unwrap()
}

/// Which shard index owns every drill request's cell. Rendezvous
/// ownership depends only on the shard ids and the cell, so this can be
/// computed from a throwaway map before any proxy exists.
fn owner_index() -> usize {
    let dummy: Vec<SocketAddr> = vec![
        "127.0.0.1:1".parse().unwrap(),
        "127.0.0.1:2".parse().unwrap(),
    ];
    let map = fleet_map(&dummy, 1.0);
    map.owner_order(map.cell_of(sparse_request(0).points[0].pos))[0]
}

fn direct_bytes(kamel: &Arc<Kamel>, sparse: &Trajectory) -> Vec<u8> {
    ImputeEngine::new(Arc::clone(kamel)).render(&kamel.impute(sparse))
}

fn proxy_for(upstream: SocketAddr, script: &str) -> ChaosProxy {
    let schedule = ChaosSchedule::parse_script(script).expect("drill script");
    let mut config = ChaosConfig::new(schedule);
    // Keep the slow faults fast enough for a test run.
    config.stall_ms = 3_000;
    config.trickle_ms = 1;
    ChaosProxy::bind(upstream, config).expect("bind chaos proxy")
}

/// Reads one labeled counter out of the Prometheus page.
fn metric(page: &str, series: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("series {series} missing from:\n{page}"))
}

fn wait_for<F: FnMut() -> bool>(what: &str, mut cond: F) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn owner_faults_never_corrupt_an_answer() {
    let kamel = trained();
    let owner = owner_index();
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    let upstreams = [shard_a.local_addr(), shard_b.local_addr()];
    // Connection 0 on each proxy is the boot probe and must relay
    // faithfully; after that the owner's connections cycle through every
    // response-corrupting fault while the replica stays clean.
    let owner_script = "none,refuse,reset,torn,none,reset,refuse,torn";
    let mut proxies = [
        proxy_for(upstreams[0], if owner == 0 { owner_script } else { "none" }),
        proxy_for(upstreams[1], if owner == 1 { owner_script } else { "none" }),
    ];
    let map = fleet_map(&[proxies[0].addr(), proxies[1].addr()], 1.0);
    let router = Router::bind("127.0.0.1:0", map, drill_config(inert_breaker()))
        .expect("bind router");
    assert_eq!(router.core().available_shards(), 2, "boot probes admitted the fleet");
    let addr = router.local_addr();
    let replica_id = format!("shard-{}", 1 - owner);
    let mut served_by_replica = 0;
    for i in 0..8 {
        let sparse = sparse_request(i);
        let body = serde_json::to_vec(&sparse).unwrap();
        let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
        let resp = c.post_json("/v1/impute", &body).unwrap();
        // A refused, reset, or torn owner is survived by failover; a
        // corrupted upstream response must never reach the client.
        assert_eq!(resp.status, 200, "request {i}: {}", resp.text());
        assert_eq!(
            resp.body,
            direct_bytes(&kamel, &sparse),
            "request {i} differs from the monolith"
        );
        if resp.header("x-kamel-shard") == Some(replica_id.as_str()) {
            served_by_replica += 1;
        }
    }
    assert!(served_by_replica >= 4, "faulted requests failed over ({served_by_replica})");
    let owner_errors = router
        .core()
        .metrics()
        .shard(owner)
        .errors
        .load(Ordering::Relaxed);
    assert!(owner_errors >= 4, "owner faults were recorded ({owner_errors})");
    // The fault assignment replayed exactly as scripted.
    let script: Vec<Fault> = [
        Fault::None,
        Fault::Refuse,
        Fault::ResetMidBody,
        Fault::Torn,
        Fault::None,
        Fault::ResetMidBody,
        Fault::Refuse,
        Fault::Torn,
    ]
    .into();
    let log = proxies[owner].log();
    let faults: Vec<Fault> = log.iter().map(|&(_, f)| f).collect();
    assert!(
        faults.starts_with(&script[..script.len().min(faults.len())]),
        "scripted schedule drifted: {faults:?}"
    );
    router.shutdown();
    for p in &mut proxies {
        p.shutdown();
    }
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn breaker_opens_probes_half_open_and_closes_after_recovery() {
    let kamel = trained();
    let shard = boot_shard(&kamel);
    // Connection 0: boot probe. Then a burst of refusals (the outage),
    // then recovery forever.
    let mut proxy = proxy_for(shard.local_addr(), "none,refuse*6,none");
    let map = fleet_map(&[proxy.addr()], 1.0);
    let breaker = BreakerPolicy {
        window: 4,
        min_samples: 2,
        failure_ratio: 0.5,
        latency_threshold: Duration::from_secs(10),
        open_for: Duration::from_millis(120),
        half_open_probes: 1,
        close_after: 1,
    };
    let router = Router::bind("127.0.0.1:0", map, drill_config(breaker)).expect("bind router");
    assert_eq!(router.core().available_shards(), 1);
    let addr = router.local_addr();
    let core = Arc::clone(router.core());
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    let mut statuses = Vec::new();
    // Drive requests until the full cycle is visible: the outage trips
    // the breaker, the hold expires into a half-open probe, and the
    // recovered shard closes it again.
    wait_for("breaker to trip, probe, and close", || {
        let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
        statuses.push(c.post_json("/v1/impute", &body).unwrap().status);
        let page = core.metrics_page();
        metric(&page, "kamel_router_breaker_closes_total{shard=\"shard-0\"}") >= 1
    });
    let page = core.metrics_page();
    assert!(metric(&page, "kamel_router_breaker_opens_total{shard=\"shard-0\"}") >= 1);
    assert!(metric(&page, "kamel_router_breaker_half_opens_total{shard=\"shard-0\"}") >= 1);
    assert_eq!(
        metric(&page, "kamel_router_breaker_state{shard=\"shard-0\"}"),
        0,
        "breaker ends Closed"
    );
    // The drill saw the outage from the outside: some requests were
    // refused service while the breaker held the shard open.
    assert!(statuses.contains(&503), "open breaker shed load: {statuses:?}");
    // And the recovered world serves normally.
    let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
    assert_eq!(c.post_json("/v1/impute", &body).unwrap().status, 200);
    router.shutdown();
    proxy.shutdown();
    shard.shutdown();
}

#[test]
fn stalled_fleet_yields_an_honest_504_within_the_budget() {
    let kamel = trained();
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    // Both replicas admit at boot, then stall every later connection
    // past the request budget.
    let mut proxy_a = proxy_for(shard_a.local_addr(), "none,stall");
    let mut proxy_b = proxy_for(shard_b.local_addr(), "none,stall");
    let map = fleet_map(&[proxy_a.addr(), proxy_b.addr()], 1.0);
    let router = Router::bind("127.0.0.1:0", map, drill_config(inert_breaker()))
        .expect("bind router");
    assert_eq!(router.core().available_shards(), 2);
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    let mut c = Client::connect(router.local_addr(), Duration::from_secs(30)).unwrap();
    let started = Instant::now();
    let resp = c
        .post_json_opts(
            "/v1/impute",
            &body,
            // The budget rides as a header only: a client-side budget of
            // the same 250 ms would time the socket out a moment before
            // the router's 504 (its clock starts at parse) can arrive.
            RequestOpts {
                headers: &[("x-kamel-deadline-ms", "250")],
                budget: None,
            },
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert!(resp.text().contains("deadline exceeded"), "{}", resp.text());
    // The budget bounded the wait: well under the 3 s stall, not pinned
    // until the fleet deigns to answer.
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    assert_eq!(
        router.core().metrics().requests_deadline.load(Ordering::Relaxed),
        1
    );
    router.shutdown();
    proxy_a.shutdown();
    proxy_b.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn dark_fleet_answers_degraded_when_enabled() {
    let kamel = trained();
    let shard = boot_shard(&kamel);
    // Every connection is refused: the boot probe fails, the shard stays
    // unverified, and no forward can ever succeed.
    let mut proxy = proxy_for(shard.local_addr(), "refuse");
    let map = fleet_map(&[proxy.addr()], 1.0);
    let config = RouterConfig {
        degraded: true,
        ..drill_config(inert_breaker())
    };
    let router = Router::bind("127.0.0.1:0", map, config).expect("bind router");
    assert_eq!(router.core().available_shards(), 0, "nothing admitted");
    let sparse = sparse_request(0);
    let body = serde_json::to_vec(&sparse).unwrap();
    let mut c = Client::connect(router.local_addr(), Duration::from_secs(10)).unwrap();
    let resp = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-kamel-degraded"), Some("no-shard-available"));
    assert_eq!(resp.header("x-kamel-shard"), Some("degraded"));
    let answer: ImputeResponse =
        serde_json::from_slice(&resp.body).expect("degraded answer carries a trajectory");
    assert!(answer.degraded);
    let dense = &answer.trajectory.points;
    assert!(
        dense.len() > sparse.points.len(),
        "linear baseline filled the gap ({} points)",
        dense.len()
    );
    assert_eq!(router.core().metrics().degraded.load(Ordering::Relaxed), 1);
    router.shutdown();
    proxy.shutdown();
    shard.shutdown();
}

#[test]
fn same_seed_assigns_the_same_faults_connection_for_connection() {
    let kamel = trained();
    let shard = boot_shard(&kamel);
    let schedule = |seed| {
        let mut config = ChaosConfig::new(ChaosSchedule::seeded(seed));
        config.stall_ms = 200; // bound shutdown when a stall is drawn
        config.trickle_ms = 1;
        config
    };
    let mut first = ChaosProxy::bind(shard.local_addr(), schedule(42)).expect("proxy");
    let mut second = ChaosProxy::bind(shard.local_addr(), schedule(42)).expect("proxy");
    for proxy in [&first, &second] {
        for _ in 0..6 {
            // Touch and drop: the accept (not the traffic) draws the fault.
            drop(TcpStream::connect_timeout(&proxy.addr(), Duration::from_secs(5)));
        }
        wait_for("all connections logged", || proxy.log().len() == 6);
    }
    assert_eq!(first.log(), second.log(), "same seed, same schedule");
    assert!(
        first.log().iter().map(|&(i, _)| i).eq(0..6),
        "log is in accept order"
    );
    first.shutdown();
    second.shutdown();
    shard.shutdown();
}
