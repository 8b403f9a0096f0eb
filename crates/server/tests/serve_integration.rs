//! End-to-end serving tests against a real trained [`kamel::Kamel`].
//!
//! The deterministic policy tests (exact-overflow shedding, drain order,
//! panic containment) live next to the generic server core with gated stub
//! services; these tests pin down the property only the real engine can
//! show: HTTP responses are byte-identical to direct library calls, with
//! the cache off and on.

use kamel::{Kamel, KamelConfig};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_server::{
    config_digest, Client, ImputeEngine, ImputeResponse, InfoResponse, Server, ServerConfig,
    WireService,
};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kamel_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A corpus of trips along one straight street (same shape the core
/// pipeline tests train on), fixes every ~84 m.
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

/// A sparse trajectory along the street with one large gap, perturbed per
/// `i` so concurrent requests are all distinct.
fn sparse_request(i: usize) -> Trajectory {
    let jitter = i as f64 * 1e-5;
    Trajectory::new(vec![
        GpsPoint::from_parts(41.15, -8.610 + jitter, 0.0),
        GpsPoint::from_parts(41.15, -8.609 + jitter, 10.0),
        GpsPoint::from_parts(41.15, -8.589 + jitter, 210.0),
        GpsPoint::from_parts(41.15, -8.588 + jitter, 220.0),
    ])
}

fn config(cache_entries: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        handlers: 16,
        batch_max: 4,
        batch_wait: Duration::from_millis(2),
        queue_cap: 64,
        cache_entries,
        deadline: Duration::from_secs(30),
        degraded_mode: false,
        ..ServerConfig::default()
    }
}

/// What a direct library call renders for this request — the reference
/// bytes every server response must equal.
fn direct_bytes(kamel: &Arc<Kamel>, sparse: &Trajectory) -> Vec<u8> {
    ImputeEngine::new(Arc::clone(kamel)).render(&kamel.impute(sparse))
}

fn assert_concurrent_responses_match_direct(cache_entries: usize) {
    const N: usize = 12; // > batch_max = 4, so coalescing must happen
    let kamel = trained();
    let engine = Arc::new(ImputeEngine::new(Arc::clone(&kamel)));
    let server = Server::bind("127.0.0.1:0", engine, config(cache_entries)).expect("bind");
    let addr = server.local_addr();
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
                    "response {i} differs from a direct impute call"
                );
                // The body is well-formed wire JSON, not just equal bytes.
                let parsed: ImputeResponse = serde_json::from_slice(&resp.body).unwrap();
                assert!(parsed.trajectory.len() >= sparse.len());
                assert_eq!(parsed.gap_count, 1);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    server.shutdown();
}

/// The engine's batched path (micro-batcher → `impute_batch` → round-batched
/// beam model calls) must render byte-identical responses to one-at-a-time
/// `impute` calls.
#[test]
fn batched_engine_bytes_match_single_impute_bytes() {
    let kamel = trained();
    let engine = ImputeEngine::new(Arc::clone(&kamel));
    let jobs: Vec<Trajectory> = (0..6).map(sparse_request).collect();
    let outs = engine.run_batch(jobs.clone());
    assert_eq!(outs.len(), jobs.len());
    for (i, (job, out)) in jobs.iter().zip(&outs).enumerate() {
        assert_eq!(
            engine.render(out),
            direct_bytes(&kamel, job),
            "batched response {i} differs from a direct impute call"
        );
    }
}

#[test]
fn concurrent_clients_match_direct_calls_cache_disabled() {
    assert_concurrent_responses_match_direct(0);
}

#[test]
fn concurrent_clients_match_direct_calls_cache_enabled() {
    assert_concurrent_responses_match_direct(256);
}

#[test]
fn repeated_request_is_a_recorded_cache_hit_with_identical_bytes() {
    let kamel = trained();
    let engine = Arc::new(ImputeEngine::new(Arc::clone(&kamel)));
    let server = Server::bind("127.0.0.1:0", engine, config(256)).expect("bind");
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    let first = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-kamel-cache"), Some("miss"));
    let second = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-kamel-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hit must be byte-identical");
    assert_eq!(second.body, direct_bytes(&kamel, &sparse_request(0)));
    assert_eq!(server.metrics().cache_hits.load(Ordering::Relaxed), 1);
    assert_eq!(server.metrics().cache_misses.load(Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn perturbed_request_misses_the_cache() {
    // Same cells, same gap structure, but different raw fixes: the digest
    // part of the cache key must keep these apart.
    let kamel = trained();
    let engine = Arc::new(ImputeEngine::new(Arc::clone(&kamel)));
    let server = Server::bind("127.0.0.1:0", engine, config(256)).expect("bind");
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
    for i in 0..2 {
        let body = serde_json::to_vec(&sparse_request(i)).unwrap();
        let resp = c.post_json("/v1/impute", &body).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-kamel-cache"), Some("miss"), "request {i}");
    }
    server.shutdown();
}

#[test]
fn overloaded_real_engine_sheds_cleanly() {
    // Non-deterministic overload (the real engine cannot be gated): with a
    // tiny queue and one worker, a burst must produce only clean 200s and
    // 503s — never hangs, resets, or malformed responses. The exact-count
    // shedding guarantee is pinned deterministically in the server core's
    // gated stub test.
    let kamel = trained();
    let engine = Arc::new(ImputeEngine::new(Arc::clone(&kamel)));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers: 1,
            batch_max: 1,
            batch_wait: Duration::ZERO,
            queue_cap: 2,
            cache_entries: 0,
            ..config(0)
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let statuses: Vec<u16> = (0..24)
        .map(|i| {
            std::thread::spawn(move || {
                let body = serde_json::to_vec(&sparse_request(i)).unwrap();
                let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
                let resp = c.post_json("/v1/impute", &body).unwrap();
                if resp.status == 503 {
                    assert_eq!(resp.header("retry-after"), Some("1"));
                }
                resp.status
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    assert!(statuses.iter().all(|s| *s == 200 || *s == 503), "{statuses:?}");
    assert!(statuses.contains(&200), "{statuses:?}");
    let metrics = server.metrics();
    let shed = metrics.requests_shed.load(Ordering::Relaxed);
    let ok = metrics.requests_ok.load(Ordering::Relaxed);
    assert_eq!(ok + shed, 24, "every request was answered exactly once");
    server.shutdown();
}

/// A bad request body answers 400 with a useful message and the
/// connection stays usable for the next (valid) request.
#[test]
fn garbage_json_gets_400_and_connection_stays_usable() {
    let kamel = trained();
    let engine = Arc::new(ImputeEngine::new(Arc::clone(&kamel)));
    let server = Server::bind("127.0.0.1:0", engine, config(256)).expect("bind");
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
    let resp = c.post_json("/v1/impute", b"{not json!!").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("invalid trajectory JSON"), "{}", resp.text());
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    let ok = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(ok.status, 200, "connection must survive a 400");
    assert_eq!(ok.body, direct_bytes(&kamel, &sparse_request(0)));
    server.shutdown();
}

/// Hot-reload under concurrent imputation load: every response is fully
/// old-model or fully new-model — never a mix — and once the reload has
/// returned, fresh requests are answered by the new model.
#[test]
fn hot_reload_under_load_never_mixes_models() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 6;
    let dir = tempdir("reload_mix");
    let path = dir.join("model.ckpt");
    // Old model: trained on the street. New model: untrained (its linear
    // fallback renders observably different bytes for the same request).
    let old = trained();
    old.save_to_file(&path).unwrap();
    let new = Kamel::new(KamelConfig::default());
    let served = Arc::new(Kamel::load_from_file(&path).unwrap());
    let engine = Arc::new(ImputeEngine::with_model_path(Arc::clone(&served), path.clone()));
    let server = Server::bind("127.0.0.1:0", engine, config(256)).expect("bind");
    let addr = server.local_addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let old_bytes = direct_bytes(&served, &sparse_request(i));
            let new_bytes = {
                let new = Arc::new(Kamel::new(KamelConfig::default()));
                direct_bytes(&new, &sparse_request(i))
            };
            assert_ne!(old_bytes, new_bytes, "models must be distinguishable");
            std::thread::spawn(move || {
                let body = serde_json::to_vec(&sparse_request(i)).unwrap();
                for round in 0..ROUNDS {
                    let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
                    let resp = c.post_json("/v1/impute", &body).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    assert!(
                        resp.body == old_bytes || resp.body == new_bytes,
                        "client {i} round {round}: response is neither \
                         old-model nor new-model bytes"
                    );
                }
            })
        })
        .collect();
    // Swap the checkpoint on disk and hot-reload while the clients hammer.
    new.save_to_file(&path).unwrap();
    let mut admin = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let resp = admin.post_json("/admin/reload", b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("generation 1"), "{}", resp.text());
    for t in workers {
        t.join().unwrap();
    }
    // Post-reload, a fresh request is answered by the new model (the old
    // model's cached responses were invalidated).
    let sparse = sparse_request(99);
    let body = serde_json::to_vec(&sparse).unwrap();
    let resp = admin.post_json("/v1/impute", &body).unwrap();
    assert_eq!(resp.status, 200);
    let new_ref = Arc::new(Kamel::new(KamelConfig::default()));
    assert_eq!(resp.body, direct_bytes(&new_ref, &sparse));
    assert_eq!(server.metrics().model_reloads.load(Ordering::Relaxed), 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reload pointed at a corrupt checkpoint fails loudly, increments the
/// failure counter, and leaves the old model serving byte-identically.
#[test]
fn corrupt_reload_keeps_the_old_model() {
    let dir = tempdir("reload_corrupt");
    let path = dir.join("model.ckpt");
    let old = trained();
    old.save_to_file(&path).unwrap();
    let served = Arc::new(Kamel::load_from_file(&path).unwrap());
    let engine = Arc::new(ImputeEngine::with_model_path(Arc::clone(&served), path.clone()));
    let server = Server::bind("127.0.0.1:0", engine, config(256)).expect("bind");
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    let before = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(before.status, 200);
    // Clobber the checkpoint with garbage (no .bak exists to fall back to:
    // the model was saved to this path exactly once).
    std::fs::write(&path, b"this is not a checkpoint and not json").unwrap();
    let resp = c.post_json("/admin/reload", b"").unwrap();
    assert_eq!(resp.status, 500, "{}", resp.text());
    let metrics = server.metrics();
    assert_eq!(metrics.model_reload_failures.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.model_reloads.load(Ordering::Relaxed), 0);
    // Still serving the old model, byte-identically.
    let after = c.post_json("/v1/impute", &body).unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.body, before.body);
    // Repairing the file makes the next reload succeed.
    old.save_to_file(&path).unwrap();
    let repaired = c.post_json("/admin/reload", b"").unwrap();
    assert_eq!(repaired.status, 200, "{}", repaired.text());
    assert_eq!(metrics.model_reloads.load(Ordering::Relaxed), 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `GET /v1/info` reports the serving identity a router needs for
/// admission: generation, trained vocab, config digest, thread budget,
/// and (when configured) the shard identity.
#[test]
fn info_reports_model_identity_over_http() {
    let kamel = trained();
    let engine = Arc::new(
        ImputeEngine::new(Arc::clone(&kamel)).with_shard_identity(1, 4),
    );
    let server = Server::bind("127.0.0.1:0", engine, config(0)).expect("bind");
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
    let resp = c.get("/v1/info").unwrap();
    assert_eq!(resp.status, 200);
    let info: InfoResponse = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(info.generation, 0);
    assert!(info.trained, "a trained fleet member advertises it");
    assert!(info.vocab > 0, "trained model has a vocabulary");
    assert_eq!(info.config_digest, config_digest(kamel.config()));
    assert!(info.config_digest.starts_with("fnv1a64:"), "{}", info.config_digest);
    assert!(info.threads > 0);
    assert_eq!(info.shard_id, Some(1));
    assert_eq!(info.shard_of, Some(4));
    // A differently configured system reports a different digest — the
    // property router admission depends on.
    let other = Kamel::new(KamelConfig::default());
    assert_ne!(config_digest(other.config()), info.config_digest);
    server.shutdown();
}

/// The digest covers what changes answers and nothing else: two checkpoints
/// of one training run served under different `--threads` or
/// `--model-memory-budget` are the same model.
#[test]
fn config_digest_ignores_execution_only_fields() {
    let base = KamelConfig::default();
    let digest = config_digest(&base);
    let with = |edit: fn(&mut KamelConfig)| {
        let mut config = base.clone();
        edit(&mut config);
        config_digest(&config)
    };
    assert_eq!(with(|c| c.threads = Some(2)), digest);
    assert_eq!(with(|c| c.threads = Some(8)), digest);
    assert_eq!(with(|c| c.model_memory_budget = Some(1 << 20)), digest);
    assert_ne!(with(|c| c.beam_size += 1), digest);
    assert_ne!(with(|c| c.quantize = !c.quantize), digest);
    // Shard-map files pin this value; it must not move for a config that
    // sets neither field.
    let bytes = serde_json::to_vec(&base).unwrap();
    assert_eq!(digest, format!("fnv1a64:{:016x}", kamel::checkpoint::fnv1a64(&bytes)));
}

#[test]
fn untrained_system_still_serves_linear_fallback() {
    let kamel = Arc::new(Kamel::new(KamelConfig::default()));
    let engine = Arc::new(ImputeEngine::new(Arc::clone(&kamel)));
    let server = Server::bind("127.0.0.1:0", engine, config(256)).expect("bind");
    let mut c = Client::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
    let body = serde_json::to_vec(&sparse_request(0)).unwrap();
    for _ in 0..2 {
        let resp = c.post_json("/v1/impute", &body).unwrap();
        assert_eq!(resp.status, 200);
        // No tokenizer → no cache key → always a miss, but still correct.
        assert_eq!(resp.header("x-kamel-cache"), Some("miss"));
        let parsed: ImputeResponse = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(parsed.failed_gaps, parsed.gap_count);
    }
    server.shutdown();
}
