//! Overhead and failover latency of the `kamel-router` gateway, driven
//! open-loop.
//!
//! Boots two `kamel-server` shards plus a router on loopback over one
//! trained small model and drives each scenario with the
//! coordinated-omission-free generator in `kamel_bench::loadgen` (fixed
//! arrival schedule, latency from intended send time):
//!
//! * **direct** — the schedule against one shard, no router (baseline);
//! * **routed** — the same schedule through the router (single-owner
//!   forwarding, so the delta over direct is the pure gateway overhead);
//! * **failover** — the primary shard killed mid-run: the first request
//!   pays the detection + ejection cost, the rest run on the replica;
//! * **connection_sweep** — a growing keep-alive wall against the
//!   router (capped by fd headroom), measuring the proxy reactor's
//!   connection-table scaling.
//!
//! Writes `BENCH_router.json` at the repo root. Run with
//! `cargo bench --bench bench_router`. Environment knobs:
//! `KAMEL_BENCH_RPS` (default 200), `KAMEL_BENCH_SECONDS` (default 10),
//! `KAMEL_BENCH_FD_HEADROOM` (default 8000).

use kamel::Kamel;
use kamel_bench::loadgen::{self, percentile_us, LoadPlan};
use kamel_bench::{default_kamel_config, City};
use kamel_geo::Trajectory;
use kamel_roadsim::DatasetScale;
use kamel_router::{GatePolicy, Router, RouterConfig, ShardInfo, ShardMap};
use kamel_server::{Client, ImputeEngine, Server, ServerConfig};
use serde_json::json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn boot_shard(kamel: &Arc<Kamel>) -> Server {
    let engine = Arc::new(ImputeEngine::new(Arc::clone(kamel)));
    let config = ServerConfig {
        workers: kamel::thread_budget(),
        handlers: 16,
        cache_entries: 0,
        deadline: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, config).expect("bind shard")
}

fn fleet_map(addrs: &[SocketAddr]) -> ShardMap {
    // cell_deg 1.0: the whole city is one routing cell, so every request
    // is single-owner — the routed-vs-direct delta is pure gateway cost.
    let shards = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| ShardInfo {
            id: format!("shard-{i}"),
            addr: *addr,
        })
        .collect();
    ShardMap::new(shards, 1.0).expect("map")
}

fn bind_router(addrs: &[SocketAddr], max_connections: usize) -> Router {
    Router::bind(
        "127.0.0.1:0",
        fleet_map(addrs),
        RouterConfig {
            handlers: 16,
            timeout: Duration::from_secs(60),
            // Eject on the first failure; no probe during a scenario.
            gate: GatePolicy {
                window: 1,
                probe_interval: Duration::from_secs(600),
                ..GatePolicy::default()
            },
            max_connections,
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
}

fn main() {
    let host = kamel::available_threads();
    let budget = kamel::thread_budget();
    eprintln!("bench_router: host threads = {host}, budget = {budget}");
    let status = if host > 1 {
        "measured"
    } else {
        eprintln!(
            "WARNING: bench_router is running on a single hardware thread; \
             concurrency numbers are NOT representative and the output will \
             carry status \"measured-single-core\"."
        );
        "measured-single-core"
    };
    let rate = env_f64("KAMEL_BENCH_RPS", 200.0);
    let seconds = env_f64("KAMEL_BENCH_SECONDS", 10.0);
    let headroom = env_f64("KAMEL_BENCH_FD_HEADROOM", 8_000.0) as usize;
    let plan = LoadPlan::at_rate(64, rate, seconds);

    let dataset = City::Porto.dataset(DatasetScale::Small);
    let kamel = Kamel::new(default_kamel_config().build());
    kamel.train(&dataset.train);
    let kamel = Arc::new(kamel);
    let sparse: Vec<Trajectory> = dataset
        .test
        .iter()
        .take(40)
        .map(|t| t.sparsify(1_000.0))
        .collect();
    let bodies: Arc<Vec<Vec<u8>>> = Arc::new(
        sparse
            .iter()
            .map(|t| serde_json::to_vec(t).expect("serialize request"))
            .collect(),
    );
    eprintln!("model trained; {} distinct request bodies", bodies.len());

    // Baseline: one shard, no router.
    let direct_shard = boot_shard(&kamel);
    let outcome = loadgen::run(direct_shard.local_addr(), "/v1/impute", &plan, &bodies);
    let direct_p50 = percentile_us(&outcome.latency_us, 0.50);
    let direct = loadgen::summary_json(&plan, &outcome);
    direct_shard.shutdown();
    eprintln!("direct scenario done");

    // Routed: the same schedule through the gateway over two shards.
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    let shard_addrs = [shard_a.local_addr(), shard_b.local_addr()];
    let owner = {
        let map = fleet_map(&shard_addrs);
        map.owner_order(map.cell_of(sparse[0].points[0].pos))[0]
    };
    let router = bind_router(&shard_addrs, 10_000);
    assert_eq!(router.core().available_shards(), 2, "fleet admitted");
    let outcome = loadgen::run(router.local_addr(), "/v1/impute", &plan, &bodies);
    let routed_p50 = percentile_us(&outcome.latency_us, 0.50);
    let routed = loadgen::summary_json(&plan, &outcome);
    eprintln!("routed scenario done");

    // Failover: kill the primary, then measure. The first request eats
    // detection (connect failure + ejection); the rest run on the replica.
    let mut shards = [Some(shard_a), Some(shard_b)];
    shards[owner].take().unwrap().shutdown();
    let first = {
        let mut c =
            Client::connect(router.local_addr(), Duration::from_secs(60)).expect("connect");
        let t0 = Instant::now();
        let resp = c.post_json("/v1/impute", &bodies[0]).expect("failover request");
        assert_eq!(resp.status, 200, "{}", resp.text());
        t0.elapsed().as_micros() as u64
    };
    let outcome = loadgen::run(router.local_addr(), "/v1/impute", &plan, &bodies);
    let after_failover = loadgen::summary_json(&plan, &outcome);
    let ejections = router
        .core()
        .metrics()
        .shard(owner)
        .ejections
        .load(std::sync::atomic::Ordering::Relaxed);
    eprintln!("failover scenario done ({ejections} ejection)");
    router.shutdown();
    shards[1 - owner].take().unwrap().shutdown();

    // Connection sweep against a fresh router + two fresh shards: the
    // keep-alive wall lives on the router's reactor while the driver
    // pool keeps the same offered rate.
    let mut sweep = Vec::new();
    for level in loadgen::connection_sweep(headroom) {
        let (sa, sb) = (boot_shard(&kamel), boot_shard(&kamel));
        let router = bind_router(&[sa.local_addr(), sb.local_addr()], level + 64);
        let level_plan = LoadPlan::at_rate(level, rate, seconds);
        eprintln!("sweep level: {level} connections");
        let outcome = loadgen::run(router.local_addr(), "/v1/impute", &level_plan, &bodies);
        sweep.push(loadgen::summary_json(&level_plan, &outcome));
        router.shutdown();
        sa.shutdown();
        sb.shutdown();
    }

    let doc = json!({
        "bench": "bench_router",
        "status": status,
        "methodology": "open-loop, coordinated-omission-free: fixed arrival schedule, \
                        latency measured from intended send time (service_us is the \
                        send-to-last-byte time a closed-loop driver would report)",
        "host_threads": host,
        "thread_budget": budget,
        "offered_rps": rate,
        "seconds_per_level": seconds,
        "fd_headroom": headroom,
        "direct": direct,
        "routed": routed,
        "router_overhead_us_p50": routed_p50 as i64 - direct_p50 as i64,
        "failover": {
            "first_request_us": first,
            "ejections": ejections,
            "after": after_failover,
        },
        "connection_sweep": sweep,
    });
    kamel_bench::write_bench_json("BENCH_router.json", &doc);
}
