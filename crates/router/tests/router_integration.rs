//! End-to-end router tests: a real fleet of `kamel-server` instances
//! behind a [`kamel_router::Router`] on loopback.
//!
//! The headline properties pinned here:
//!
//! * concurrent clients through router → 2 shards get responses
//!   byte-identical to a monolithic server (a direct engine render) over
//!   the same model;
//! * killing a shard mid-load completes every request via deterministic
//!   failover with exactly one recorded ejection;
//! * a shard whose config digest disagrees with the fleet is refused
//!   admission and never serves;
//! * shard-spanning trajectories scatter-gather into an order-preserving
//!   merge.

use kamel::{Kamel, KamelConfig};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_router::{
    BreakerPolicy, HealthPolicy, Router, RouterConfig, ShardInfo, ShardMap, ShardState,
};
use kamel_server::{
    Client, ImputeEngine, ImputeResponse, RetryPolicy, Server, ServerConfig, WireService,
};
use std::net::SocketAddr;
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

fn shard_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        handlers: 16,
        batch_max: 4,
        batch_wait: Duration::from_millis(2),
        queue_cap: 64,
        cache_entries: 0,
        deadline: Duration::from_secs(30),
        degraded_mode: false,
        ..ServerConfig::default()
    }
}

/// Boots one shard over (a clone of) the shared model.
fn boot_shard(kamel: &Arc<Kamel>) -> Server {
    let engine = Arc::new(ImputeEngine::new(Arc::clone(kamel)));
    Server::bind("127.0.0.1:0", engine, shard_config()).expect("bind shard")
}

fn router_config(eject_after: u32, probe_interval: Duration) -> RouterConfig {
    RouterConfig {
        handlers: 8,
        timeout: Duration::from_secs(10),
        retry: RetryPolicy {
            base: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            max_attempts: 2,
            deadline: Duration::from_secs(10),
            jitter_seed: 7,
        },
        health: HealthPolicy {
            eject_after,
            probe_interval,
        },
        breaker: BreakerPolicy::default(),
        max_pool: 8,
        default_deadline: Duration::from_secs(10),
        degraded: false,
        degraded_max_gap_m: 100.0,
        ..RouterConfig::default()
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

/// The monolith reference: what a direct library call renders.
fn direct_bytes(kamel: &Arc<Kamel>, sparse: &Trajectory) -> Vec<u8> {
    ImputeEngine::new(Arc::clone(kamel)).render(&kamel.impute(sparse))
}

fn wait_for<F: FnMut() -> bool>(what: &str, mut cond: F) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_clients_through_router_match_the_monolith() {
    const N: usize = 8;
    let kamel = trained();
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    // cell_deg 1.0: the whole city is one routing cell, so every request
    // is single-owner and forwarded verbatim.
    let map = fleet_map(&[shard_a.local_addr(), shard_b.local_addr()], 1.0);
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(3, Duration::from_secs(10)),
    )
    .expect("bind router");
    assert_eq!(router.core().available_shards(), 2, "boot probe admitted the fleet");
    let addr = router.local_addr();
    let threads: Vec<_> = (0..N)
        .map(|i| {
            let kamel = Arc::clone(&kamel);
            std::thread::spawn(move || {
                let sparse = sparse_request(i);
                let body = serde_json::to_vec(&sparse).unwrap();
                let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
                let resp = c.post_json("/v1/impute", &body).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
                assert_eq!(
                    resp.body,
                    direct_bytes(&kamel, &sparse),
                    "routed response {i} differs from the monolith"
                );
                let shard = resp.header("x-kamel-shard").expect("shard header").to_string();
                assert!(shard.starts_with("shard-"), "{shard}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let metrics = router.core().metrics();
    assert_eq!(metrics.requests_ok.load(Ordering::Relaxed), N as u64);
    assert_eq!(metrics.scatter_requests.load(Ordering::Relaxed), 0);
    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn failover_completes_every_request_with_one_deterministic_ejection() {
    const N: usize = 6;
    let kamel = trained();
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    let addrs = [shard_a.local_addr(), shard_b.local_addr()];
    let map = fleet_map(&addrs, 1.0);
    // Every gap lands in one cell; find who owns it so we can kill
    // exactly the primary. Probes are effectively off (long interval), so
    // the ejection count is driven by the request path alone.
    let cell = map.cell_of(sparse_request(0).points[0].pos);
    let owner = map.owner_order(cell)[0];
    let survivor = 1 - owner;
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(1, Duration::from_secs(600)),
    )
    .expect("bind router");
    assert_eq!(router.core().available_shards(), 2);
    let addr = router.local_addr();
    // Kill the primary, then fire a concurrent burst: every request must
    // complete on the replica with the same bytes the primary would have
    // produced (same model), and the health machine must record exactly
    // one ejection.
    let mut shards = [Some(shard_a), Some(shard_b)];
    shards[owner].take().unwrap().shutdown();
    let threads: Vec<_> = (0..N)
        .map(|i| {
            let kamel = Arc::clone(&kamel);
            std::thread::spawn(move || {
                let sparse = sparse_request(i);
                let body = serde_json::to_vec(&sparse).unwrap();
                let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
                let resp = c.post_json("/v1/impute", &body).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
                assert_eq!(resp.body, direct_bytes(&kamel, &sparse), "request {i}");
                resp.header("x-kamel-shard").unwrap().to_string()
            })
        })
        .collect();
    let survivor_id = format!("shard-{survivor}");
    for t in threads {
        assert_eq!(t.join().unwrap(), survivor_id, "served by the replica");
    }
    let core = router.core();
    assert_eq!(
        core.metrics().shard(owner).ejections.load(Ordering::Relaxed),
        1,
        "the dead primary was ejected exactly once"
    );
    assert_eq!(core.health().state(owner), ShardState::Ejected);
    assert_eq!(core.health().state(survivor), ShardState::Active);
    // Follow-up requests skip the ejected shard without touching it.
    let touched_before = core.metrics().shard(owner).forwarded.load(Ordering::Relaxed);
    let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let body = serde_json::to_vec(&sparse_request(40)).unwrap();
    assert_eq!(c.post_json("/v1/impute", &body).unwrap().status, 200);
    assert_eq!(
        core.metrics().shard(owner).forwarded.load(Ordering::Relaxed),
        touched_before,
        "an ejected shard receives no forwards"
    );
    router.shutdown();
    shards[survivor].take().unwrap().shutdown();
}

#[test]
fn spanning_trajectories_scatter_and_merge_in_order() {
    let kamel = trained();
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    let addrs = [shard_a.local_addr(), shard_b.local_addr()];
    // Fine routing cells so the street spans several; pick shard ids such
    // that the request's anchor cells really have different owners.
    let cell_deg = 0.01;
    let sparse = sparse_request(0);
    let map = (0..64)
        .find_map(|salt| {
            let shards = addrs
                .iter()
                .enumerate()
                .map(|(i, addr)| ShardInfo {
                    id: if i == 0 { format!("west-{salt}") } else { "east".into() },
                    addr: *addr,
                })
                .collect();
            let map = ShardMap::new(shards, cell_deg).unwrap();
            let owners: Vec<usize> = sparse.points[..sparse.points.len() - 1]
                .iter()
                .map(|p| map.owner_order(map.cell_of(p.pos))[0])
                .collect();
            (owners.iter().any(|&o| o != owners[0])).then_some(map)
        })
        .expect("some id salt splits ownership across the street");
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(3, Duration::from_secs(10)),
    )
    .expect("bind router");
    assert_eq!(router.core().available_shards(), 2);
    let mut c = Client::connect(router.local_addr(), Duration::from_secs(30)).unwrap();
    let body = serde_json::to_vec(&sparse).unwrap();
    let resp = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let shards = resp.header("x-kamel-shard").unwrap();
    assert!(shards.contains(','), "served by more than one shard: {shards}");
    let merged: ImputeResponse = serde_json::from_slice(&resp.body).unwrap();
    let points = &merged.trajectory.points;
    assert!(points.len() >= sparse.len(), "all fixes survive the merge");
    assert_eq!(points.first().unwrap().t, sparse.points[0].t);
    assert_eq!(points.last().unwrap().t, sparse.points.last().unwrap().t);
    for pair in points.windows(2) {
        assert!(
            pair[0].t < pair[1].t,
            "merged trajectory is strictly time-ordered (no duplicated seam fixes)"
        );
    }
    // Scatter responses are deterministic: the same request merges to the
    // same bytes.
    let again = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(again.body, resp.body);
    assert_eq!(
        router.core().metrics().scatter_requests.load(Ordering::Relaxed),
        2
    );
    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn digest_mismatch_refuses_admission() {
    let kamel = trained();
    let shard_a = boot_shard(&kamel);
    // Shard B runs a *differently configured* system: its /v1/info digest
    // disagrees with the fleet, so admitting it would mix grids.
    let other = Arc::new(Kamel::new(KamelConfig::default()));
    let shard_b = boot_shard(&other);
    let map = fleet_map(&[shard_a.local_addr(), shard_b.local_addr()], 1.0);
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(3, Duration::from_millis(100)),
    )
    .expect("bind router");
    let core = router.core();
    // The boot sweep probes in map order: shard-0 pins the fleet digest,
    // shard-1 is refused — and stays refused over later probe sweeps.
    assert_eq!(core.available_shards(), 1);
    assert_eq!(core.health().state(1), ShardState::Unverified);
    wait_for("a second refused probe sweep", || {
        core.metrics().shard(1).admission_refusals.load(Ordering::Relaxed) >= 2
    });
    assert_eq!(core.health().state(1), ShardState::Unverified);
    // Traffic flows, all of it to the admitted shard.
    let mut c = Client::connect(router.local_addr(), Duration::from_secs(30)).unwrap();
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    let resp = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-kamel-shard"), Some("shard-0"));
    assert_eq!(resp.body, direct_bytes(&kamel, &sparse_request(0)));
    assert_eq!(core.metrics().shard(1).forwarded.load(Ordering::Relaxed), 0);
    // /v1/shards reports the live picture.
    let shards_page = c.get("/v1/shards").unwrap();
    assert_eq!(shards_page.status, 200);
    let text = shards_page.text();
    assert!(text.contains("\"state\":\"active\""), "{text}");
    assert!(text.contains("\"state\":\"unverified\""), "{text}");
    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

/// The thread budget changes how fast a shard answers, not what: shards of
/// one model started under different `--threads` are one fleet.
#[test]
fn shards_differing_only_in_threads_are_one_fleet() {
    let shard = |threads| {
        let config = KamelConfig::builder().threads(Some(threads)).build();
        boot_shard(&Arc::new(Kamel::new(config)))
    };
    let (shard_a, shard_b) = (shard(2), shard(3));
    let map = fleet_map(&[shard_a.local_addr(), shard_b.local_addr()], 1.0);
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(3, Duration::from_millis(100)),
    )
    .expect("bind router");
    let core = router.core();
    assert_eq!(core.available_shards(), 2);
    assert_eq!(core.metrics().shard(1).admission_refusals.load(Ordering::Relaxed), 0);
    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn probe_ejects_a_dead_shard_and_readmits_it_after_recovery() {
    let kamel = trained();
    let shard_a = boot_shard(&kamel);
    let shard_b = boot_shard(&kamel);
    let b_addr = shard_b.local_addr();
    let map = fleet_map(&[shard_a.local_addr(), b_addr], 1.0);
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(2, Duration::from_millis(50)),
    )
    .expect("bind router");
    let core = Arc::clone(router.core());
    assert_eq!(core.available_shards(), 2);
    // Take shard B down: the probe sweep alone (no request traffic) must
    // eject it after `eject_after` consecutive failures.
    shard_b.shutdown();
    wait_for("probe ejection of the dead shard", || {
        core.health().state(1) == ShardState::Ejected
    });
    assert_eq!(core.metrics().shard(1).ejections.load(Ordering::Relaxed), 1);
    // Bring it back on the same address with the same model: the probe
    // re-admits it (digest still matches the fleet).
    let revived = Server::bind(
        &b_addr.to_string(),
        Arc::new(ImputeEngine::new(Arc::clone(&kamel))),
        shard_config(),
    )
    .expect("rebind the revived shard");
    wait_for("probe re-admission of the revived shard", || {
        core.health().state(1) == ShardState::Active
    });
    // Boot admission + re-admission.
    assert_eq!(core.metrics().shard(1).admissions.load(Ordering::Relaxed), 2);
    router.shutdown();
    shard_a.shutdown();
    revived.shutdown();
}

#[test]
fn router_endpoints_and_errors() {
    let kamel = trained();
    let shard = boot_shard(&kamel);
    let map = fleet_map(&[shard.local_addr()], 1.0);
    let router = Router::bind(
        "127.0.0.1:0",
        map,
        router_config(3, Duration::from_secs(10)),
    )
    .expect("bind router");
    let mut c = Client::connect(router.local_addr(), Duration::from_secs(30)).unwrap();
    assert_eq!(c.get("/healthz").unwrap().text(), "ok\n");
    let metrics = c.get("/metrics").unwrap().text();
    assert!(metrics.contains("kamel_router_shard_requests_total{shard=\"shard-0\"}"), "{metrics}");
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.post_json("/metrics", b"x").unwrap().status, 405);
    // Garbage JSON is rejected at the router, before any forward.
    let bad = c.post_json("/v1/impute", b"{not json").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("invalid trajectory JSON"), "{}", bad.text());
    assert_eq!(
        router.core().metrics().shard(0).forwarded.load(Ordering::Relaxed),
        0
    );
    // A shard-side 400 (non-finite coordinate) passes through verbatim.
    let nan_body = br#"{"points":[{"pos":{"lat":1e999,"lng":-8.0},"t":0.0},{"pos":{"lat":41.0,"lng":-8.0},"t":10.0}]}"#;
    let resp = c.post_json("/v1/impute", nan_body).unwrap();
    // (1e999 overflows to inf only if serde accepts it; either way the
    // answer is a clean 4xx from exactly one layer.)
    assert_eq!(resp.status, 400, "{}", resp.text());
    router.shutdown();
    shard.shutdown();
}
