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
//!   admission and never serves — and one that starts disagreeing while
//!   serving is ejected;
//! * a dead shard is ejected by probes alone and returns through
//!   probation;
//! * shard-spanning trajectories scatter-gather into an order-preserving
//!   merge.

mod common;

use common::*;
use kamel::{Kamel, KamelConfig};
use kamel_router::{RouterConfig, ShardInfo, ShardMap, ShardState};
use kamel_server::{Client, ImputeEngine, ImputeResponse, RetryPolicy, Server};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn router_config(window: usize, probe_interval: Duration) -> RouterConfig {
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
        gate: gate_policy(window, probe_interval),
        max_pool: 8,
        default_deadline: Duration::from_secs(10),
        degraded: false,
        degraded_max_gap_m: 100.0,
        ..RouterConfig::default()
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
    let router = bind_router(map, router_config(6, Duration::from_secs(10)));
    assert_eq!(router.core().available_shards(), 2, "boot probe admitted the fleet");
    let addr = router.local_addr();
    let threads: Vec<_> = (0..N)
        .map(|i| {
            let kamel = Arc::clone(&kamel);
            std::thread::spawn(move || {
                let shard = routed(addr, &kamel, i);
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
    let map = fleet_map(&[shard_a.local_addr(), shard_b.local_addr()], 1.0);
    // Every gap lands in one cell, so exactly the primary can be killed.
    // Window 1: the first failure ejects. Probes stay on: whether a
    // forward or a probe meets the dead shard first, it is ejected once.
    let owner = owner_chain(2)[0];
    let survivor = 1 - owner;
    let router = bind_router(map, router_config(1, Duration::from_millis(100)));
    assert_eq!(router.core().available_shards(), 2);
    let addr = router.local_addr();
    // Kill the primary, then fire a concurrent burst: every request must
    // complete on the replica with the same bytes the primary would have
    // produced (same model), and the gate must record exactly one
    // ejection — the burst's other failures were admitted under the
    // generation that ejection ended.
    let mut shards = [Some(shard_a), Some(shard_b)];
    shards[owner].take().unwrap().shutdown();
    let threads: Vec<_> = (0..N)
        .map(|i| {
            let kamel = Arc::clone(&kamel);
            std::thread::spawn(move || routed(addr, &kamel, i))
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
    assert_eq!(core.gate().state(owner), ShardState::Ejected);
    assert_eq!(core.gate().state(survivor), ShardState::Active);
    // Follow-up requests skip the ejected shard without touching it.
    let touched_before = core.metrics().shard(owner).forwarded.load(Ordering::Relaxed);
    assert_eq!(routed(addr, &kamel, 40), survivor_id);
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
    let router = bind_router(map, router_config(6, Duration::from_secs(10)));
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
    let router = bind_router(map, router_config(6, Duration::from_millis(100)));
    let core = router.core();
    // The boot sweep probes in map order: shard-0 pins the fleet digest,
    // shard-1 is refused — and stays refused over later probe sweeps.
    assert_eq!(core.available_shards(), 1);
    assert_eq!(core.gate().state(1), ShardState::Unverified);
    wait_for("a second refused probe sweep", || {
        core.metrics().shard(1).admission_refusals.load(Ordering::Relaxed) >= 2
    });
    assert_eq!(core.gate().state(1), ShardState::Unverified);
    // Traffic flows, all of it to the admitted shard.
    assert_eq!(routed(router.local_addr(), &kamel, 0), "shard-0");
    assert_eq!(core.metrics().shard(1).forwarded.load(Ordering::Relaxed), 0);
    // /v1/shards reports the live picture.
    let mut c = Client::connect(router.local_addr(), Duration::from_secs(30)).unwrap();
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
    let router = bind_router(map, router_config(6, Duration::from_millis(100)));
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
    let mut shards = [Some(boot_shard(&kamel)), Some(boot_shard(&kamel))];
    let addrs = [0, 1].map(|i| shards[i].as_ref().unwrap().local_addr());
    let owner = owner_chain(2)[0];
    let owner_id = format!("shard-{owner}");
    let router = bind_router(fleet_map(&addrs, 1.0), router_config(2, Duration::from_millis(50)));
    let core = Arc::clone(router.core());
    let addr = router.local_addr();
    assert_eq!(core.available_shards(), 2);
    // Take the primary down: the probe sweep alone (no request traffic)
    // must eject it — a failed probe is a failure in the window.
    shards[owner].take().unwrap().shutdown();
    wait_for("probe ejection of the dead shard", || {
        core.gate().state(owner) == ShardState::Ejected
    });
    let counters = core.metrics().shard(owner);
    assert_eq!(counters.ejections.load(Ordering::Relaxed), 1);
    assert_ne!(routed(addr, &kamel, 0), owner_id, "the replica serves meanwhile");
    // Bring it back on the same address with the same model: the probe
    // puts it on probation (digest still matches the fleet), and two
    // trial forwards — real requests, answered with the monolith's bytes —
    // re-activate it.
    shards[owner] = Some(boot_shard_at(&kamel, &addrs[owner].to_string()));
    wait_for("probation of the revived shard", || {
        core.gate().state(owner) == ShardState::Probation
    });
    assert_eq!(routed(addr, &kamel, 1), owner_id, "first trial");
    assert_eq!(core.gate().state(owner), ShardState::Probation, "one success is not enough");
    assert_eq!(routed(addr, &kamel, 2), owner_id, "second trial");
    assert_eq!(core.gate().state(owner), ShardState::Active);
    assert_eq!(counters.probations.load(Ordering::Relaxed), 1);
    assert_eq!(counters.ejections.load(Ordering::Relaxed), 1);
    // Boot admission + re-activation.
    assert_eq!(counters.admissions.load(Ordering::Relaxed), 2);
    router.shutdown();
    for shard in shards.into_iter().flatten() {
        shard.shutdown();
    }
}

/// Admission is not a one-time check: a serving shard that hot-reloads
/// onto a checkpoint trained with another cell size would answer its
/// territory from an incompatible tokenization.
#[test]
fn an_active_shard_that_reloads_onto_a_foreign_digest_is_ejected() {
    let dir = std::env::temp_dir().join(format!("kamel_router_redigest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    trained().save_to_file(&path).unwrap();
    let kamel = Arc::new(Kamel::load_from_file(&path).unwrap());
    let owner = owner_chain(2)[0];
    let (owner_id, replica_id) = (format!("shard-{owner}"), format!("shard-{}", 1 - owner));
    let reloadable = Server::bind(
        "127.0.0.1:0",
        Arc::new(ImputeEngine::with_model_path(Arc::clone(&kamel), path.clone())),
        shard_config(),
    )
    .expect("bind the reloadable shard");
    let replica = boot_shard(&kamel);
    let mut addrs = [replica.local_addr(); 2];
    addrs[owner] = reloadable.local_addr();
    let router = bind_router(fleet_map(&addrs, 1.0), router_config(6, Duration::from_millis(100)));
    let core = Arc::clone(router.core());
    let addr = router.local_addr();
    assert_eq!(routed(addr, &kamel, 0), owner_id);
    let reload = |model: &Kamel| {
        model.save_to_file(&path).unwrap();
        let mut admin = Client::connect(addrs[owner], Duration::from_secs(30)).unwrap();
        let resp = admin.post_json("/admin/reload", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    };
    // Same model, another grid: well-formed answers from the wrong
    // tokenization. The next probe sweep must take the shard out.
    let foreign = KamelConfig {
        cell_edge_m: 50.0,
        ..model_config()
    };
    reload(&Kamel::new(foreign));
    wait_for("ejection of the reloaded shard", || {
        core.gate().state(owner) == ShardState::Ejected
    });
    let counters = core.metrics().shard(owner);
    assert_eq!(counters.ejections.load(Ordering::Relaxed), 1);
    assert!(counters.admission_refusals.load(Ordering::Relaxed) >= 1);
    for i in 1..4 {
        assert_eq!(routed(addr, &kamel, i), replica_id, "the replica answers its territory");
    }
    let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let page = c.get("/v1/shards").unwrap().text();
    assert!(page.contains("\"state\":\"ejected\""), "{page}");
    // The original checkpoint back: digest matches again, and the shard
    // returns the way every ejected shard does.
    reload(&kamel);
    wait_for("probation of the restored shard", || {
        core.gate().state(owner) == ShardState::Probation
    });
    assert_eq!(routed(addr, &kamel, 4), owner_id);
    assert_eq!(routed(addr, &kamel, 5), owner_id);
    assert_eq!(core.gate().state(owner), ShardState::Active);
    assert_eq!(counters.probations.load(Ordering::Relaxed), 1);
    router.shutdown();
    reloadable.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_endpoints_and_errors() {
    let kamel = trained();
    let shard = boot_shard(&kamel);
    let map = fleet_map(&[shard.local_addr()], 1.0);
    let router = bind_router(map, router_config(6, Duration::from_secs(10)));
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
