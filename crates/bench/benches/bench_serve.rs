//! Throughput and latency of the `kamel-server` online serving layer,
//! driven open-loop.
//!
//! Boots a server on loopback over a freshly trained small model and
//! drives it with the coordinated-omission-free generator in
//! `kamel_bench::loadgen`: requests follow a fixed arrival schedule and
//! every latency sample is measured from the request's *intended* send
//! time, so server stalls surface as tail latency instead of silently
//! throttling the offered load. Three scenarios are written to
//! `BENCH_serve.json` at the repo root:
//!
//! * **cache_off / cache_on** — the imputation-cost and cache-hit story
//!   at a fixed 1k-connection level;
//! * **connection_sweep** — 1k → 50k keep-alive connections (capped by
//!   the host's fd headroom) at a constant offered rate: the reactor's
//!   connection-table scaling, measured per level.
//!
//! Run with `cargo bench --bench bench_serve`. Not a criterion bench:
//! the unit of work is a full HTTP round trip against a live server, so
//! the open-loop schedule over wall-clock is the honest measure.
//!
//! Environment knobs: `KAMEL_BENCH_RPS` (offered rate, default 200),
//! `KAMEL_BENCH_SECONDS` (per-level run length, default 10),
//! `KAMEL_BENCH_FD_HEADROOM` (connection-sweep cap, default 8000 —
//! raise `ulimit -n` and this together for the 25k/50k levels).

use kamel::Kamel;
use kamel_bench::loadgen::{self, LoadPlan};
use kamel_bench::{default_kamel_config, City};
use kamel_geo::Trajectory;
use kamel_roadsim::DatasetScale;
use kamel_server::{ImputeEngine, Server, ServerConfig};
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn boot(kamel: &Arc<Kamel>, cache_entries: usize, max_connections: usize) -> Server {
    let engine = Arc::new(ImputeEngine::new(Arc::clone(kamel)));
    let config = ServerConfig {
        workers: kamel::thread_budget(),
        handlers: 16,
        cache_entries,
        deadline: Duration::from_secs(60),
        max_connections,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, config).expect("bind")
}

fn run_level(
    kamel: &Arc<Kamel>,
    cache_entries: usize,
    plan: &LoadPlan,
    bodies: &Arc<Vec<Vec<u8>>>,
) -> serde_json::Value {
    let server = boot(kamel, cache_entries, plan.connections + 64);
    let outcome = loadgen::run(server.local_addr(), "/v1/impute", plan, bodies);
    let level = json!({
        "cache_hit_rate": server.metrics().cache_hit_rate(),
        "load": loadgen::summary_json(plan, &outcome),
    });
    server.shutdown();
    level
}

fn main() {
    let host = kamel::available_threads();
    let budget = kamel::thread_budget();
    eprintln!("bench_serve: host threads = {host}, budget = {budget}");
    let status = if host > 1 {
        "measured"
    } else {
        eprintln!(
            "WARNING: bench_serve is running on a single hardware thread; \
             concurrency numbers are NOT representative and the output will \
             carry status \"measured-single-core\"."
        );
        "measured-single-core"
    };
    let rate = env_f64("KAMEL_BENCH_RPS", 200.0);
    let seconds = env_f64("KAMEL_BENCH_SECONDS", 10.0);
    let headroom = env_f64("KAMEL_BENCH_FD_HEADROOM", 8_000.0) as usize;

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

    // The cache story at a fixed 1k-connection level. Cache off: every
    // request pays full imputation. Cache on: the 40 distinct bodies
    // repeat across the schedule, so steady state is cache-dominated.
    let cache_plan = LoadPlan::at_rate(1_000, rate, seconds);
    let cold = run_level(&kamel, 0, &cache_plan, &bodies);
    eprintln!("cache-off level done");
    let cached = run_level(&kamel, 1_024, &cache_plan, &bodies);
    eprintln!("cache-on level done");

    // The connection sweep: constant offered rate, growing keep-alive
    // wall. What is being measured is the reactor's ability to hold the
    // connection table while the small driver pool keeps the schedule.
    let mut sweep = Vec::new();
    for level in loadgen::connection_sweep(headroom) {
        let plan = LoadPlan::at_rate(level, rate, seconds);
        eprintln!("sweep level: {level} connections");
        sweep.push(run_level(&kamel, 1_024, &plan, &bodies));
    }

    let doc = json!({
        "bench": "bench_serve",
        "status": status,
        "methodology": "open-loop, coordinated-omission-free: fixed arrival schedule, \
                        latency measured from intended send time (service_us is the \
                        send-to-last-byte time a closed-loop driver would report)",
        "host_threads": host,
        "thread_budget": budget,
        "offered_rps": rate,
        "seconds_per_level": seconds,
        "fd_headroom": headroom,
        "cache_off": cold,
        "cache_on": cached,
        "connection_sweep": sweep,
    });
    kamel_bench::write_bench_json("BENCH_serve.json", &doc);
}
