//! The fleet fixtures both router suites drive: one trained model, real
//! `kamel-server` shards on loopback, the monolith reference bytes, and
//! the one gate policy every scenario runs on.
#![allow(dead_code)]

use kamel::{Kamel, KamelConfig};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_router::{GatePolicy, Router, RouterConfig, ShardInfo, ShardMap};
use kamel_server::{Client, ClientResponse, ImputeEngine, Server, ServerConfig, WireService};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn street_corpus(n: usize) -> Vec<Trajectory> {
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

pub fn model_config() -> KamelConfig {
    KamelConfig::builder()
        .model_threshold_k(50)
        .pyramid_height(3)
        .threads(Some(2))
        .build()
}

pub fn trained() -> Arc<Kamel> {
    let kamel = Kamel::new(model_config());
    kamel.train(&street_corpus(40));
    Arc::new(kamel)
}

pub fn sparse_request(i: usize) -> Trajectory {
    let jitter = i as f64 * 1e-5;
    Trajectory::new(vec![
        GpsPoint::from_parts(41.15, -8.610 + jitter, 0.0),
        GpsPoint::from_parts(41.15, -8.609 + jitter, 10.0),
        GpsPoint::from_parts(41.15, -8.589 + jitter, 210.0),
        GpsPoint::from_parts(41.15, -8.588 + jitter, 220.0),
    ])
}

pub fn shard_config() -> ServerConfig {
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
pub fn boot_shard(kamel: &Arc<Kamel>) -> Server {
    boot_shard_at(kamel, "127.0.0.1:0")
}

/// [`boot_shard`] on a given address: how a dead shard comes back.
pub fn boot_shard_at(kamel: &Arc<Kamel>, addr: &str) -> Server {
    let engine = Arc::new(ImputeEngine::new(Arc::clone(kamel)));
    Server::bind(addr, engine, shard_config()).expect("bind shard")
}

pub fn bind_router(map: ShardMap, config: RouterConfig) -> Router {
    Router::bind("127.0.0.1:0", map, config).expect("bind router")
}

/// The policy every scenario runs on: the default, with only the window
/// and the probe cadence shortened to test scale. Nothing is switched
/// off — ejection, probing and probation are live in every test.
pub fn gate_policy(window: usize, probe_interval: Duration) -> GatePolicy {
    GatePolicy {
        window,
        probe_interval,
        ..GatePolicy::default()
    }
}

pub fn fleet_map(addrs: &[SocketAddr], cell_deg: f64) -> ShardMap {
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

/// The rendezvous chain (primary first) every fixture request walks in a
/// `shards`-strong `fleet_map(_, 1.0)`. Ownership depends only on the
/// shard ids and the cell, so it is known before any socket exists.
pub fn owner_chain(shards: usize) -> Vec<usize> {
    let dummy: Vec<SocketAddr> = (1..=shards)
        .map(|port| SocketAddr::from(([127, 0, 0, 1], port as u16)))
        .collect();
    let map = fleet_map(&dummy, 1.0);
    map.owner_order(map.cell_of(sparse_request(0).points[0].pos))
}

/// The monolith reference: what a direct library call renders.
pub fn direct_bytes(kamel: &Arc<Kamel>, sparse: &Trajectory) -> Vec<u8> {
    ImputeEngine::new(Arc::clone(kamel)).render(&kamel.impute(sparse))
}

/// One fixture request through the router at `addr`.
pub fn post(addr: SocketAddr, i: usize) -> ClientResponse {
    let body = serde_json::to_vec(&sparse_request(i)).unwrap();
    let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
    c.post_json("/v1/impute", &body).unwrap()
}

/// A full-fidelity answer: 200, unmarked, the monolith's bytes. Returns
/// the id of the shard that served it.
pub fn full_fidelity(resp: &ClientResponse, kamel: &Arc<Kamel>, i: usize) -> String {
    assert_eq!(resp.status, 200, "request {i}: {}", resp.text());
    assert_eq!(resp.header("x-kamel-degraded"), None, "request {i}");
    assert_eq!(
        resp.body,
        direct_bytes(kamel, &sparse_request(i)),
        "request {i} differs from the monolith"
    );
    resp.header("x-kamel-shard").expect("shard header").to_string()
}

/// [`post`], checked by [`full_fidelity`].
pub fn routed(addr: SocketAddr, kamel: &Arc<Kamel>, i: usize) -> String {
    full_fidelity(&post(addr, i), kamel, i)
}

pub fn wait_for<F: FnMut() -> bool>(what: &str, mut cond: F) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}
