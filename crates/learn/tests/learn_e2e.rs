//! End-to-end continual learning: serving engine + capture sink +
//! background learner + hot-reload rollout, exercised under concurrent
//! load.
//!
//! Most tests drive the [`ImputeEngine`] at the [`WireService`] level
//! with an in-memory model slot standing in for the checkpoint file; one
//! runs the production wiring — checkpoint file, HTTP server,
//! [`ModelOps::checkpoint`] — end to end. The properties verified here
//! are the subsystem's load-bearing claims:
//!
//! * **zero downtime** — while the trainer retrains and rolls a new
//!   generation, every concurrent response equals either the old
//!   generation's answer or the new generation's answer, never an error
//!   and never a mix;
//! * **rollback** — a failing regression gate leaves the old generation
//!   serving, untouched;
//! * **retention** — a pass that fails keeps its batch for the next one;
//! * **attribution** — a record's cells are those of the model snapshot
//!   that answered, even when a reload lands mid-request;
//! * **backpressure** — the serving path never blocks on capture, even
//!   with nothing draining the queue;
//! * **durability under concurrency** — records pushed from many
//!   producer threads survive segment rotation and a learner restart.

use kamel::{Kamel, KamelConfig};
use kamel_geo::{GpsPoint, Trajectory};
use kamel_learn::{
    CaptureConfig, CaptureLog, CaptureSink, Learner, LearnerConfig, ModelOps, TrainerConfig,
};
use kamel_server::{
    Client, FeedbackRequest, ImputeEngine, LearnSink, LearningInfo, Server, ServerConfig,
    WireService,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An L-shaped street (east, then a 90° turn north), fixes every
/// ~84–111 m; the turn keeps straight-line fallback from being perfect.
fn street(base_lat: f64) -> Trajectory {
    Trajectory::new(
        (0..30)
            .map(|i| {
                let (lat, lng) = if i < 15 {
                    (base_lat, -8.61 + i as f64 * 0.001)
                } else {
                    (base_lat + (i - 14) as f64 * 0.001, -8.61 + 14.0 * 0.001)
                };
                GpsPoint::from_parts(lat, lng, i as f64 * 10.0)
            })
            .collect(),
    )
}

fn trained_model() -> Kamel {
    trained_on(75.0, &[41.15])
}

/// A model over hexagons of `cell_edge_m`, trained on 30 trips down each
/// street of `lats`.
fn trained_on(cell_edge_m: f64, lats: &[f64]) -> Kamel {
    let kamel = Kamel::new(
        KamelConfig::builder()
            .model_threshold_k(50)
            .pyramid_height(3)
            .cell_edge_m(cell_edge_m)
            .build(),
    );
    let corpus: Vec<Trajectory> = lats
        .iter()
        .flat_map(|&lat| (0..30).map(move |_| street(lat)))
        .collect();
    kamel.train(&corpus);
    kamel
}

/// A `/v1/feedback` body, as a client would post it.
fn feedback_body(sparse: &Trajectory, truth: &Trajectory) -> Vec<u8> {
    let request = FeedbackRequest {
        sparse: sparse.clone(),
        truth: truth.clone(),
    };
    serde_json::to_vec(&request).expect("encode feedback")
}

/// Ten ground-truth corrections through the engine's feedback path.
fn send_feedback(engine: &ImputeEngine, sparse: &Trajectory, truth: &Trajectory) {
    for _ in 0..10 {
        engine
            .feedback(&feedback_body(sparse, truth))
            .expect("a sink is attached")
            .expect("feedback accepted");
    }
}

include!("../../../tests/common/canonical_json.rs");

fn tempdir_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kamel_learn_e2e_{tag}_{}", std::process::id()))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = tempdir_path(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// The in-memory stand-in for `model.ckpt` + `/admin/reload`: the slot
/// holds the "persisted" model; rollout hot-reloads the engine, whose
/// loader deep-clones the slot — after failing `rollout_failures` times.
struct Rig {
    engine: Arc<ImputeEngine>,
    sink: Arc<CaptureSink>,
    learner: Learner,
    slot: Arc<Mutex<Arc<Kamel>>>,
}

fn rig(tag: &str, trainer: TrainerConfig, rollout_failures: usize) -> Rig {
    let initial = Arc::new(trained_model());
    let slot = Arc::new(Mutex::new(Arc::clone(&initial)));
    let (sink, rx) = CaptureSink::channel(4096);
    let loader_slot = Arc::clone(&slot);
    let engine = Arc::new(
        ImputeEngine::with_loader(
            initial,
            "slot".into(),
            Box::new(move || Ok(loader_slot.lock().unwrap().deep_clone())),
        )
        .with_learn_sink(Arc::clone(&sink) as Arc<dyn LearnSink>),
    );
    let load_slot = Arc::clone(&slot);
    let save_slot = Arc::clone(&slot);
    let rollout_engine = Arc::clone(&engine);
    let failures = AtomicUsize::new(rollout_failures);
    let ops = ModelOps {
        load: Box::new(move || Ok(load_slot.lock().unwrap().deep_clone())),
        save: Box::new(move |k| {
            *save_slot.lock().unwrap() = Arc::new(k.deep_clone());
            Ok(())
        }),
        rollout: Box::new(move || {
            if failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err("injected rollout failure".into());
            }
            rollout_engine.reload()?;
            Ok(rollout_engine.generation())
        }),
    };
    let learner = Learner::spawn(
        LearnerConfig {
            capture: CaptureConfig::new(tempdir(tag)),
            trainer,
        },
        rx,
        sink.stats(),
        ops,
    )
    .expect("spawn learner");
    Rig {
        engine,
        sink,
        learner,
        slot,
    }
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

#[test]
fn zero_downtime_rollout_under_concurrent_load() {
    // min_confidence 2.0: pseudo-labels can never qualify, so exactly
    // one feedback burst means at most one retrain — the generation
    // count below is deterministic.
    let r = rig(
        "zero_downtime",
        TrainerConfig {
            interval: Duration::from_millis(0),
            batch_min: 8,
            min_confidence: 2.0,
            ..TrainerConfig::default()
        },
        0,
    );
    let truth = street(41.153);
    let sparse = truth.sparsify(1000.0);
    let old_expected = r.engine.kamel().impute(&sparse);

    // Continuous concurrent load on the serving path.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let engine = Arc::clone(&r.engine);
            let stop = Arc::clone(&stop);
            let job = sparse.clone();
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let mut out = engine.run_batch(vec![job.clone()]);
                    assert_eq!(out.len(), 1, "a request must always get an answer");
                    answers.push(out.pop().unwrap());
                }
                answers
            })
        })
        .collect();

    // Ground-truth corrections for a street the model serves poorly.
    send_feedback(&r.engine, &sparse, &truth);
    assert!(
        wait_until(Duration::from_secs(60), || {
            r.sink.learning().retrains_total >= 1
        }),
        "trainer never rolled out: {:?}",
        r.sink.learning()
    );
    // Let the workers observe the new generation before stopping them.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let answers: Vec<_> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("worker must not panic"))
        .collect();
    r.learner.stop();

    assert_eq!(r.engine.generation(), 1, "exactly one rollout");
    let info = r.sink.learning();
    assert_eq!(info.retrains_total, 1);
    assert_eq!(info.rollbacks_total, 0);
    assert_eq!(info.last_generation, 1);
    assert!(info.cells_retrained_total >= 1);

    // Zero downtime: every answer is byte-identical to one generation's
    // answer — no errors, no mixed-generation output.
    let new_expected = r.engine.kamel().impute(&sparse);
    assert_ne!(
        old_expected, new_expected,
        "the retrain must have changed this street's answer"
    );
    let (mut old_seen, mut new_seen) = (0usize, 0usize);
    for a in &answers {
        if *a == old_expected {
            old_seen += 1;
        } else if *a == new_expected {
            new_seen += 1;
        } else {
            panic!("answer matches neither generation: {} points", a.trajectory.len());
        }
    }
    assert!(old_seen > 0, "load must have overlapped the old generation");
    assert!(new_seen > 0, "load must have overlapped the new generation");

    // The retrained generation actually learned the fed-back street.
    assert!(
        kamel::replay_recall(&truth, &new_expected.trajectory, 50.0)
            > kamel::replay_recall(&truth, &old_expected.trajectory, 50.0),
        "rolled-out generation must serve the corrected street better"
    );
}

#[test]
fn failing_gate_rolls_back_and_keeps_serving_old_generation() {
    // A gate no retrain can pass: demand the new model beat the old by
    // more than the metric's full range.
    let r = rig(
        "rollback",
        TrainerConfig {
            interval: Duration::from_millis(0),
            batch_min: 8,
            min_confidence: 2.0,
            gate_epsilon: -2.0,
            ..TrainerConfig::default()
        },
        0,
    );
    let truth = street(41.153);
    let sparse = truth.sparsify(1000.0);
    let before = r.engine.kamel();
    let old_expected = before.impute(&sparse);

    send_feedback(&r.engine, &sparse, &truth);
    assert!(
        wait_until(Duration::from_secs(60), || {
            r.sink.learning().rollbacks_total >= 1
        }),
        "gate never rejected: {:?}",
        r.sink.learning()
    );
    r.learner.stop();

    let info = r.sink.learning();
    assert_eq!(info.rollbacks_total, 1);
    assert_eq!(info.retrains_total, 0);
    assert_eq!(info.last_generation, 0);
    assert_eq!(r.engine.generation(), 0, "no rollout happened");
    assert!(
        Arc::ptr_eq(&before, &r.engine.kamel()),
        "the serving model instance must be untouched"
    );
    assert!(
        Arc::ptr_eq(&before, &r.slot.lock().unwrap()),
        "nothing may be saved on a rolled-back pass"
    );
    assert_eq!(r.engine.run_batch(vec![sparse]), vec![old_expected]);
}

#[test]
fn capture_backpressure_never_blocks_the_serving_path() {
    // A tiny queue and NO learner draining it: the pathological worst
    // case. Serving must stay full speed; excess records are dropped.
    let initial = Arc::new(trained_model());
    let (sink, _rx) = CaptureSink::channel(4);
    let engine = ImputeEngine::new(Arc::clone(&initial))
        .with_learn_sink(Arc::clone(&sink) as Arc<dyn LearnSink>);
    let sparse = street(41.15).sparsify(1000.0);

    // Baseline: the same work without any sink attached.
    let bare = ImputeEngine::new(initial);
    let start = Instant::now();
    for _ in 0..40 {
        bare.run_batch(vec![sparse.clone()]);
    }
    let bare_elapsed = start.elapsed();

    let start = Instant::now();
    for _ in 0..40 {
        let out = engine.run_batch(vec![sparse.clone()]);
        assert_eq!(out.len(), 1);
    }
    let sink_elapsed = start.elapsed();

    let info = sink.learning();
    assert_eq!(info.captured_total, 4, "queue admits exactly its capacity");
    assert_eq!(info.dropped_total, 36, "the rest must be dropped, not waited on");
    // Generous bound: capture adds encode + one failed try_send. If it
    // ever blocked on the full queue this would hang forever, so the
    // real assertion is that we got here; the timing check just catches
    // gross regressions (lock contention, retries).
    assert!(
        sink_elapsed < bare_elapsed * 3 + Duration::from_millis(500),
        "capture slowed serving: {bare_elapsed:?} -> {sink_elapsed:?}"
    );
}

#[test]
fn concurrent_producers_survive_rotation_and_restart() {
    let dir = tempdir("rotate");
    let (sink, rx) = CaptureSink::channel(4096);
    // Tiny segments force rotation every handful of records; huge
    // batch_min keeps the trainer out of the way.
    let ops = ModelOps {
        load: Box::new(|| Err("trainer must not run".into())),
        save: Box::new(|_| Err("trainer must not run".into())),
        rollout: Box::new(|| Err("trainer must not run".into())),
    };
    let learner = Learner::spawn(
        LearnerConfig {
            capture: CaptureConfig {
                segment_bytes: 4096,
                ..CaptureConfig::new(&dir)
            },
            trainer: TrainerConfig {
                batch_min: usize::MAX,
                ..TrainerConfig::default()
            },
        },
        rx,
        sink.stats(),
        ops,
    )
    .expect("spawn learner");

    let producers: Vec<_> = (0..4)
        .map(|p| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let truth = street(41.15 + p as f64 * 0.001);
                let sparse = truth.sparsify(1000.0);
                for _ in 0..100 {
                    sink.on_feedback(&[], &sparse, &truth);
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer must not panic");
    }
    let info = sink.learning();
    assert_eq!(info.captured_total, 400, "queue was big enough for all");
    assert_eq!(info.dropped_total, 0);
    // Stop drains the channel into the log and seals the active file.
    learner.stop();

    // Rotation really happened: multiple sealed segments on disk.
    let segments = std::fs::read_dir(&dir)
        .expect("read capture dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .count();
    assert!(segments >= 2, "expected rotation, found {segments} segments");

    // A restarted learner (fresh process, same dir) sees every record.
    let mut log = CaptureLog::open(CaptureConfig::new(&dir)).expect("reopen");
    assert_eq!(log.records(), 400, "no record may be lost across restart");
    let drained = log.read_sealed().expect("read");
    assert_eq!(drained.len(), 400);
    assert!(drained.iter().all(|r| r.answer.len() == 30));
}

#[test]
fn failed_rollout_keeps_the_batch_for_the_next_pass() {
    // batch_min equals the feedback sent: the second pass can only start
    // if every record of the first, failed one is still in the log.
    let r = rig(
        "failed_pass",
        TrainerConfig {
            interval: Duration::from_millis(0),
            batch_min: 10,
            min_confidence: 2.0,
            ..TrainerConfig::default()
        },
        1,
    );
    let truth = street(41.153);
    send_feedback(&r.engine, &truth.sparsify(1000.0), &truth);
    assert!(
        wait_until(Duration::from_secs(60), || {
            r.sink.learning().retrains_total >= 1
        }),
        "the batch of the failed pass never rolled out: {:?}",
        r.sink.learning()
    );
    r.learner.stop();
    assert_eq!(r.engine.generation(), 1, "the retry rolled out, once");
    let info = r.sink.learning();
    assert_eq!((info.captured_total, info.dropped_total), (10, 0));
    assert_eq!((info.retrains_total, info.rollbacks_total), (1, 0));
    // The batch left the log with the pass that succeeded.
    let log = CaptureLog::open(CaptureConfig::new(tempdir_path("failed_pass"))).expect("reopen");
    assert_eq!(log.records(), 0);
}

/// Forwards to the real sink and keeps what the engine said about every
/// served answer: `(cells, sparse, answer)`.
struct Recorder {
    inner: Arc<CaptureSink>,
    served: Mutex<Vec<(Vec<u64>, Trajectory, Trajectory)>>,
}

impl LearnSink for Recorder {
    fn on_impute(&self, cells: &[u64], sparse: &Trajectory, result: &kamel::ImputedTrajectory) {
        let seen = (cells.to_vec(), sparse.clone(), result.trajectory.clone());
        self.served.lock().unwrap().push(seen);
        self.inner.on_impute(cells, sparse, result);
    }
    fn on_feedback(&self, cells: &[u64], sparse: &Trajectory, truth: &Trajectory) {
        self.inner.on_feedback(cells, sparse, truth);
    }
    fn learning(&self) -> LearningInfo {
        self.inner.learning()
    }
}

fn gap_cells(model: &Kamel, sparse: &Trajectory) -> Vec<u64> {
    let (cells, _) = model.gap_context(sparse).expect("trained");
    cells.into_iter().map(|c| c.0).collect()
}

/// Every stored model's serialized state, keyed by its pyramid slot.
fn model_states(model: &Kamel) -> HashMap<String, String> {
    model
        .export_models()
        .expect("trained")
        .into_iter()
        .map(|m| (format!("{:?}", m.selection), canonical_json(&m.json)))
        .collect()
}

#[test]
fn checkpoint_rollout_over_http_attributes_answers_to_the_cells_that_served_them() {
    // The production wiring: a checkpoint file, a real server over an
    // engine that reloads from it, and the trainer's production ModelOps.
    // The model knows two streets 11 km apart; feedback concerns a third,
    // next to the first.
    let dir = tempdir("checkpoint");
    let path = dir.join("model.ckpt");
    trained_on(75.0, &[41.15, 41.25]).save_to_file(&path).expect("save checkpoint");
    let (sink, rx) = CaptureSink::channel(4096);
    let recorder = Arc::new(Recorder {
        inner: Arc::clone(&sink),
        served: Mutex::new(Vec::new()),
    });
    let gen0 = Arc::new(Kamel::load_from_file(&path).expect("load checkpoint"));
    let engine = Arc::new(
        ImputeEngine::with_model_path(Arc::clone(&gen0), path.clone())
            .with_learn_sink(Arc::clone(&recorder) as Arc<dyn LearnSink>),
    );
    // No response cache: every request must reach the model and the sink.
    let config = ServerConfig {
        cache_entries: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr();
    let learner = Learner::spawn(
        LearnerConfig {
            capture: CaptureConfig::new(dir.join("capture")),
            trainer: TrainerConfig {
                interval: Duration::from_millis(0),
                batch_min: 10,
                min_confidence: 2.0,
                ..TrainerConfig::default()
            },
        },
        rx,
        sink.stats(),
        ModelOps::checkpoint(path.clone(), addr, Arc::clone(&engine)),
    )
    .expect("spawn learner");

    let truth = street(41.153);
    let sparse = truth.sparsify(1000.0);
    let impute_body = serde_json::to_vec(&sparse).expect("encode request");
    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(client.post_json("/v1/impute", &impute_body).unwrap().status, 200);
    for _ in 0..10 {
        let ack = client.post_json("/v1/feedback", &feedback_body(&sparse, &truth)).unwrap();
        assert_eq!(ack.status, 200, "{}", ack.text());
    }
    assert!(
        wait_until(Duration::from_secs(60), || sink.learning().retrains_total >= 1),
        "trainer never rolled out: {:?}",
        sink.learning()
    );
    // The checkpoint is the test's to rewrite from here on.
    learner.stop();

    // The rollout went through /admin/reload: generation bumped on the
    // wire, and the server now answers from the checkpoint the trainer saved.
    assert_eq!(sink.learning().last_generation, 1);
    let info = client.get("/v1/info").unwrap().text();
    assert!(info.contains("\"generation\":1"), "{info}");
    let gen1 = engine.kamel();
    let (before, after) = (model_states(&gen0), model_states(&gen1));
    assert_eq!(after, model_states(&Kamel::load_from_file(&path).expect("reload")));
    let changed = before.iter().filter(|(slot, state)| after.get(*slot) != Some(state)).count();
    assert!(changed > 0, "a rollout that changed no model");
    assert!(
        changed < before.len(),
        "a cell-targeted retrain must leave the far street's models byte-identical"
    );

    // Now reloads land in the middle of requests: the checkpoint alternates
    // between two grids while a client keeps asking.
    let other = trained_on(120.0, &[41.15, 41.25]);
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(client.post_json("/v1/impute", &impute_body).unwrap().status, 200);
            }
        })
    };
    let answers = || recorder.served.lock().unwrap().len();
    for round in 0..20 {
        let next: &Kamel = if round % 2 == 0 { &other } else { &gen1 };
        next.save_to_file(&path).expect("save checkpoint");
        assert_eq!(client.post_json("/admin/reload", b"").unwrap().status, 200);
        let so_far = answers();
        assert!(wait_until(Duration::from_secs(30), || answers() > so_far), "traffic stalled");
    }
    stop.store(true, Ordering::Relaxed);
    traffic.join().expect("traffic must not panic");
    assert_eq!(engine.generation(), 21);
    server.shutdown();

    // Every record carries the cells of the generation whose answer it holds.
    let generations = [&*gen0, &*gen1, &other];
    let served = recorder.served.lock().unwrap();
    let mut grids_seen = std::collections::HashSet::new();
    for (cells, sparse, answer) in served.iter() {
        let served_by: Vec<Vec<u64>> = generations
            .iter()
            .filter(|model| model.impute(sparse).trajectory == *answer)
            .map(|model| gap_cells(model, sparse))
            .collect();
        assert!(!served_by.is_empty(), "an answer no generation gives");
        assert!(
            served_by.contains(cells),
            "cells {cells:?} belong to another generation than the answer: {served_by:?}"
        );
        grids_seen.insert(cells.clone());
    }
    assert_eq!(grids_seen.len(), 2, "traffic must have been served under both grids");
}
