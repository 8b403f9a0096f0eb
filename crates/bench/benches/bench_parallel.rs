//! One-worker-vs-budget speedup of the two parallel tiers: per-cell
//! pyramid maintenance and batch imputation (n-gram and BERT-tiny
//! engines). Writes `BENCH_parallel.json` at the repo root so the perf
//! trajectory is tracked across PRs.
//!
//! Run with `cargo bench --bench bench_parallel`. Not a criterion bench:
//! each row alternates its one-worker and full-budget runs, reports every
//! run and compares the best of each side, asserting identical output
//! along the way.

use kamel::partition::Repository;
use kamel::{Kamel, KamelConfig};
use kamel_bench::{default_kamel_config, write_bench_json, City};
use kamel_geo::{BBox, Trajectory, Xy};
use kamel_hexgrid::CellId;
use kamel_lm::{BertEngineConfig, EngineConfig};
use kamel_roadsim::DatasetScale;
use kamel_trajstore::{TokenTrajectory, TrajStore};
use serde::Serialize;
use serde_json::json;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// One tier × engine comparison; `*_per_s` are `items` (of `unit`) per
/// best second.
#[derive(Serialize)]
struct Row {
    engine: String,
    unit: String,
    items: usize,
    seq_s: f64,
    par_s: f64,
    seq_per_s: f64,
    par_per_s: f64,
    speedup: f64,
    seq_runs_s: Vec<f64>,
    par_runs_s: Vec<f64>,
}

/// Runs `seq` and `par` alternately `REPS` times (so a slow spell of the
/// host lands on both sides), asserts each pair's outputs equal, and
/// reports every run plus the best of each side.
fn compare<T: PartialEq>(
    engine: &str,
    unit: &str,
    items: usize,
    mut seq: impl FnMut() -> T,
    mut par: impl FnMut() -> T,
) -> Row {
    const REPS: usize = 5;
    let (mut seq_runs_s, mut par_runs_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (seq_s, seq_out) = timed(&mut seq);
        let (par_s, par_out) = timed(&mut par);
        assert!(seq_out == par_out, "{engine} {unit}: parallel output diverged");
        seq_runs_s.push(seq_s);
        par_runs_s.push(par_s);
    }
    let best = |runs: &[f64]| runs.iter().copied().fold(f64::INFINITY, f64::min);
    let (seq_s, par_s) = (best(&seq_runs_s), best(&par_runs_s));
    Row {
        engine: engine.to_string(),
        unit: unit.to_string(),
        items,
        seq_s,
        par_s,
        seq_per_s: items as f64 / seq_s,
        par_per_s: items as f64 / par_s,
        speedup: seq_s / par_s,
        seq_runs_s,
        par_runs_s,
    }
}

/// Inserts `n` short trajectories confined to `region` into the store
/// (same synthetic traffic shape as the partition unit tests).
fn fill_region(store: &mut TrajStore, region: BBox, n: usize) {
    let w = region.width();
    let h = region.height();
    for i in 0..n {
        let base_x = region.min.x + w * 0.2 + (i as f64 * 13.0) % (w * 0.6);
        let base_y = region.min.y + h * 0.2 + (i as f64 * 7.0) % (h * 0.6);
        let xy: Vec<Xy> = (0..5)
            .map(|j| Xy::new(base_x + j as f64 * 5.0, base_y))
            .collect();
        let cells: Vec<CellId> = xy
            .iter()
            .map(|p| CellId::from_coords((p.x / 75.0) as i32, (p.y / 75.0) as i32))
            .collect();
        let t: Vec<f64> = (0..5).map(|j| j as f64).collect();
        store.insert(TokenTrajectory::new(cells, xy, t));
    }
}

/// One full `maintain` pass over a multi-cell pyramid, 1 worker vs budget.
fn bench_maintain(engine: &EngineConfig, trajectories: usize, budget: usize) -> Row {
    let root = BBox::new(Xy::new(0.0, 0.0), Xy::new(1600.0, 1600.0));
    let config = KamelConfig::builder()
        .pyramid_height(3)
        .pyramid_maintained(3)
        .model_threshold_k(10)
        .build();
    let mut store = TrajStore::new(200.0);
    fill_region(&mut store, root, trajectories);
    let maintain = |threads: usize| {
        let mut repo = Repository::new(root, &config);
        repo.maintain_with_threads(&store, &root, engine, threads);
        repo.model_count()
    };
    let models = maintain(1);
    compare(engine.name(), "models", models, || maintain(1), || maintain(budget))
}

/// Batch imputation over the Porto analogue's test slice, 1 worker vs
/// budget.
fn bench_impute(config: KamelConfig, budget: usize) -> Row {
    let dataset = City::Porto.dataset(DatasetScale::Small);
    let engine = config.engine.name();
    let kamel = Kamel::new(config);
    kamel.train(&dataset.train);
    let sparse: Vec<Trajectory> = dataset
        .test
        .iter()
        .take(60)
        .map(|t| t.sparsify(1_000.0))
        .collect();
    compare(
        engine,
        "trajectories",
        sparse.len(),
        || kamel.impute_batch_with_threads(&sparse, 1),
        || kamel.impute_batch_with_threads(&sparse, budget),
    )
}

fn main() {
    let host = kamel::available_threads();
    let budget = kamel::thread_budget();
    eprintln!("bench_parallel: host threads = {host}, budget = {budget}");
    // A sequential-vs-parallel comparison on one hardware thread measures
    // scheduling overhead, not speedup. Say so loudly and tag the output
    // instead of silently writing numbers that look like a regression.
    let status = if host > 1 && budget > 1 {
        "measured"
    } else {
        eprintln!(
            "WARNING: bench_parallel is running with host_threads={host}, \
             thread_budget={budget}.\n\
             WARNING: parallel speedups measured here are NOT representative; \
             the output will carry status \"measured-single-core\".\n\
             WARNING: rerun on a multi-core host (and unset KAMEL_THREADS) \
             for real numbers."
        );
        "measured-single-core"
    };
    let bert_tiny = EngineConfig::Bert(BertEngineConfig::for_tests());
    let maintain = vec![
        bench_maintain(&EngineConfig::default(), 20_000, budget),
        bench_maintain(&bert_tiny, 400, budget),
    ];
    eprintln!("maintain passes done");
    let impute = vec![
        bench_impute(default_kamel_config().build(), budget),
        bench_impute(default_kamel_config().engine(bert_tiny).build(), budget),
    ];
    eprintln!("batch impute done");
    let doc = json!({
        "bench": "bench_parallel",
        "status": status,
        "host_threads": host,
        "thread_budget": budget,
        "maintain": maintain,
        "impute_batch": impute,
    });
    write_bench_json("BENCH_parallel.json", &doc);
}
