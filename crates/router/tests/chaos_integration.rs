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
//! * a shard that is up but failing is ejected, the dark fleet answers
//!   degraded, and the shard returns through probation to full-fidelity
//!   answers — each transition visible in `/metrics`;
//! * a dead shard and an up-but-slow shard in one fleet are both steered
//!   around and both re-admitted;
//! * a fleet that stalls past the request's deadline budget yields an
//!   honest 504, not a hang;
//! * with `--degraded-mode`, a fleet the router cannot reach at all
//!   still answers 200 from the linear baseline, marked degraded in
//!   both body and header;
//! * the same seed yields the same fault assignment, connection for
//!   connection.

mod common;

use common::*;
use kamel_chaos::{ChaosConfig, ChaosProxy, ChaosSchedule, Fault};
use kamel_router::{RouterConfig, ShardState};
use kamel_server::{Client, ImputeResponse, RequestOpts, RetryPolicy};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A router config tuned for drills: no client pooling (every forward is
/// a fresh connection, so scripted faults land in accept order) and one
/// connect attempt per forward. Forwards and probes share each proxy's
/// connection index; a script is a function of that index alone, so
/// whichever mix eats its faults, the drill converges on its last entry.
fn drill_config(window: usize, probe_interval: Duration) -> RouterConfig {
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
        gate: gate_policy(window, probe_interval),
        max_pool: 0,
        default_deadline: Duration::from_secs(10),
        degraded: false,
        degraded_max_gap_m: 100.0,
        ..RouterConfig::default()
    }
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

#[test]
fn owner_faults_never_corrupt_an_answer() {
    let kamel = trained();
    let owner = owner_chain(2)[0];
    let (shard_a, shard_b) = (boot_shard(&kamel), boot_shard(&kamel));
    let upstreams = [shard_a.local_addr(), shard_b.local_addr()];
    // Connection 0 on each proxy is the boot probe and must relay
    // faithfully; after that the owner's connections cycle through every
    // response-corrupting fault while the replica stays clean.
    let owner_script = "none,refuse,reset,torn,none,reset,refuse,torn,none";
    let mut proxies = [
        proxy_for(upstreams[0], if owner == 0 { owner_script } else { "none" }),
        proxy_for(upstreams[1], if owner == 1 { owner_script } else { "none" }),
    ];
    let map = fleet_map(&[proxies[0].addr(), proxies[1].addr()], 1.0);
    let router = bind_router(map, drill_config(6, Duration::from_millis(50)));
    let core = Arc::clone(router.core());
    assert_eq!(core.available_shards(), 2, "boot probes admitted the fleet");
    let addr = router.local_addr();
    let (owner_id, replica_id) = (format!("shard-{owner}"), format!("shard-{}", 1 - owner));
    let mut served_by = Vec::new();
    // Drive until the script has run dry and the owner is back. A refused,
    // reset, or torn owner is survived by failover (and, after three of
    // them, by ejection); a corrupted upstream response must never reach
    // the client.
    wait_for("the owner to ride out its script", || {
        let i = served_by.len();
        served_by.push(routed(addr, &kamel, i));
        proxies[owner].connections() >= 9 && core.gate().state(owner) == ShardState::Active
    });
    assert!(served_by.contains(&replica_id), "faulted requests failed over: {served_by:?}");
    assert_eq!(served_by.last(), Some(&owner_id), "the recovered owner serves again");
    let counters = core.metrics().shard(owner);
    // Forwards and probes split the faults between them; three in a row
    // eject the owner whoever drew them.
    assert!(counters.ejections.load(Ordering::Relaxed) >= 1, "owner faults were recorded");
    assert_eq!(
        counters.probations.load(Ordering::Relaxed),
        counters.ejections.load(Ordering::Relaxed),
        "every ejection was probed back"
    );
    // The fault assignment replayed exactly as scripted.
    let script = [
        Fault::None,
        Fault::Refuse,
        Fault::ResetMidBody,
        Fault::Torn,
        Fault::None,
        Fault::ResetMidBody,
        Fault::Refuse,
        Fault::Torn,
        Fault::None,
    ];
    let faults: Vec<Fault> = proxies[owner].log().iter().map(|&(_, f)| f).collect();
    assert!(faults.starts_with(&script), "scripted schedule drifted: {faults:?}");
    router.shutdown();
    for p in &mut proxies {
        p.shutdown();
    }
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn a_failing_shard_is_ejected_served_around_degraded_and_returns_through_probation() {
    let kamel = trained();
    let shard = boot_shard(&kamel);
    // Connection 0: boot probe. Then an outage of mid-body resets — the
    // shard is up and accepting, every answer dies — then recovery
    // forever.
    let mut proxy = proxy_for(shard.local_addr(), "none,reset*8,none");
    let map = fleet_map(&[proxy.addr()], 1.0);
    let config = RouterConfig {
        degraded: true,
        ..drill_config(4, Duration::from_millis(100))
    };
    let router = bind_router(map, config);
    let core = Arc::clone(router.core());
    assert_eq!(core.available_shards(), 1);
    let addr = router.local_addr();
    let counters = core.metrics().shard(0);
    let (mut asked, mut degraded) = (0, 0);
    // Drive requests until the full cycle is visible: two failed forwards
    // eject the shard, probes eat the rest of the outage, a clean probe
    // puts it on probation and two trial forwards re-activate it. With
    // one shard the fleet is dark meanwhile: every answer is still a 200,
    // marked degraded unless it is the monolith's bytes.
    wait_for("ejection, probation and re-activation", || {
        let resp = post(addr, asked);
        if resp.header("x-kamel-degraded").is_some() {
            assert_eq!(resp.status, 200, "{}", resp.text());
            let answer: ImputeResponse = serde_json::from_slice(&resp.body).unwrap();
            assert!(answer.degraded && !answer.trajectory.points.is_empty());
            degraded += 1;
        } else {
            full_fidelity(&resp, &kamel, asked);
        }
        asked += 1;
        counters.admissions.load(Ordering::Relaxed) >= 2
    });
    assert!(degraded >= 1, "the dark fleet answered degraded");
    assert_eq!(core.metrics().degraded.load(Ordering::Relaxed), degraded);
    let page = core.metrics_page();
    assert!(metric(&page, "kamel_router_ejections_total{shard=\"shard-0\"}") >= 1);
    assert!(metric(&page, "kamel_router_probations_total{shard=\"shard-0\"}") >= 1);
    assert_eq!(
        metric(&page, "kamel_router_shard_state{shard=\"shard-0\"}"),
        0,
        "the shard ends Active"
    );
    // And the recovered world serves at full fidelity.
    routed(addr, &kamel, asked);
    router.shutdown();
    proxy.shutdown();
    shard.shutdown();
}

#[test]
fn a_dead_shard_and_a_slow_shard_are_both_steered_around_and_both_readmitted() {
    let kamel = trained();
    let mut shards = [0, 1, 2].map(|_| Some(boot_shard(&kamel)));
    let upstreams = [0, 1, 2].map(|i| shards[i].as_ref().unwrap().local_addr());
    // The request's chain is dead → slow → healthy.
    let chain = owner_chain(3);
    let (dead, slow, healthy) = (chain[0], chain[1], chain[2]);
    let id = |shard: usize| format!("shard-{shard}");
    // The slow shard answers correctly, one byte at a time: its probes
    // (a few hundred bytes) stay under the probe timeout, an imputation
    // takes longer than the gate's 2 s latency threshold. Connection 0 is
    // the boot probe; whichever two of the first forward and the probes
    // beside it draw the slow connections, the rest relay cleanly.
    let answer_len = direct_bytes(&kamel, &sparse_request(0)).len() as u64;
    let schedule = ChaosSchedule::parse_script("none,slow-loris*2,none").unwrap();
    let mut config = ChaosConfig::new(schedule);
    config.trickle_ms = 2_600 / answer_len + 1;
    config.trickle_cap = 1 << 20;
    let mut proxy = ChaosProxy::bind(upstreams[slow], config).expect("bind chaos proxy");
    let mut addrs = upstreams;
    addrs[slow] = proxy.addr();
    let router = bind_router(fleet_map(&addrs, 1.0), drill_config(2, Duration::from_millis(300)));
    let core = Arc::clone(router.core());
    let addr = router.local_addr();
    assert_eq!(core.available_shards(), 3);
    shards[dead].take().unwrap().shutdown();
    // The first request pays for both discoveries: a refused connection,
    // then a correct answer that took too long. Window 2 at ratio 0.5:
    // one failure ejects.
    let started = Instant::now();
    assert_eq!(routed(addr, &kamel, 0), id(slow));
    assert!(started.elapsed() > Duration::from_secs(2), "slow, yet successful");
    let ejections = |shard: usize| core.metrics().shard(shard).ejections.load(Ordering::Relaxed);
    assert_eq!((ejections(dead), ejections(slow)), (1, 1));
    // Everyone after it is steered around both at the cost of two
    // booleans. (A probe may already have the slow shard on probation;
    // then it serves, at full speed, as a trial.)
    for i in 1..4 {
        let started = Instant::now();
        let served = routed(addr, &kamel, i);
        assert!(served == id(healthy) || served == id(slow), "{served}");
        assert!(started.elapsed() < Duration::from_secs(2));
    }
    let forwarded = |shard: usize| core.metrics().shard(shard).forwarded.load(Ordering::Relaxed);
    assert_eq!(forwarded(dead), 1, "the dead shard was tried once");
    // The slow shard's script runs dry: probation, two trials, active —
    // while the dead one is still steered around.
    let mut asked = 4;
    wait_for("the slow shard to return", || {
        routed(addr, &kamel, asked);
        asked += 1;
        core.gate().state(slow) == ShardState::Active
    });
    assert_eq!(core.gate().state(dead), ShardState::Ejected);
    // Revive the dead shard on its old address: same path back.
    shards[dead] = Some(boot_shard_at(&kamel, &upstreams[dead].to_string()));
    wait_for("the dead shard to return", || {
        routed(addr, &kamel, asked);
        asked += 1;
        core.gate().state(dead) == ShardState::Active
    });
    assert_eq!(routed(addr, &kamel, asked), id(dead));
    for shard in [dead, slow] {
        let counters = core.metrics().shard(shard);
        assert_eq!(ejections(shard), 1, "shard-{shard}");
        assert_eq!(counters.probations.load(Ordering::Relaxed), 1, "shard-{shard}");
        assert_eq!(counters.admissions.load(Ordering::Relaxed), 2, "shard-{shard}");
    }
    assert_eq!(ejections(healthy), 0);
    router.shutdown();
    proxy.shutdown();
    for shard in shards.into_iter().flatten() {
        shard.shutdown();
    }
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
    // A probe into a stalled proxy holds the sweep for its 2 s timeout, so
    // the sweeps are spaced to stay clear of the request (and of shutdown).
    let router = bind_router(map, drill_config(6, Duration::from_secs(5)));
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
        ..drill_config(6, Duration::from_millis(100))
    };
    let router = bind_router(map, config);
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
