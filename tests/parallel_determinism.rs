//! The parallel execution layer's determinism contract, end to end: the
//! worker-thread budget may only change wall-clock time, never results.
//! Training must serialize to the same JSON (up to `HashMap` member
//! order) and batch imputation must return element-identical output for
//! any thread count.

use kamel::{Kamel, KamelConfig, KamelConfigBuilder};
use kamel_geo::{GpsPoint, Trajectory};

include!("common/canonical_json.rs");

/// A straight east-west street at `lat`, `n` fixes ~84 m apart.
fn street(lat: f64, lng0: f64, n: usize) -> Trajectory {
    Trajectory::new(
        (0..n)
            .map(|i| GpsPoint::from_parts(lat, lng0 + i as f64 * 0.001, i as f64 * 10.0))
            .collect(),
    )
}

/// A corpus spread over several districts so maintenance builds models in
/// multiple pyramid cells — the parallel fan-out has real work to race on.
fn multi_cell_corpus() -> Vec<Trajectory> {
    let mut corpus = Vec::new();
    for _ in 0..30 {
        corpus.push(street(41.15, -8.61, 25));
        corpus.push(street(41.25, -8.61, 25));
        corpus.push(street(41.20, -8.52, 25));
    }
    corpus
}

fn builder() -> KamelConfigBuilder {
    KamelConfig::builder()
        .pyramid_height(3)
        .pyramid_maintained(3)
        .model_threshold_k(60)
}

#[test]
fn training_serializes_identically_across_thread_budgets() {
    let seq = Kamel::new(builder().threads(Some(1)).build());
    seq.train(&multi_cell_corpus());
    let par = Kamel::new(builder().threads(Some(4)).build());
    par.train(&multi_cell_corpus());
    assert!(seq.stats().expect("trained").models > 1, "want several models");
    // The configs differ only in the `threads` knob itself; level it so
    // the comparison covers every trained artifact (store, repository,
    // detokenizer, speed cap).
    let normalize = |kamel: &Kamel| {
        canonical_json(&kamel.to_json().expect("serialize"))
            .replace("\"threads\":4", "\"threads\":1")
    };
    assert!(
        normalize(&seq) == normalize(&par),
        "trained state must not depend on the thread budget"
    );
}

#[test]
fn batch_imputation_is_thread_count_invariant_and_order_preserving() {
    let kamel = Kamel::new(builder().build());
    kamel.train(&multi_cell_corpus());
    // One sparse trajectory per district, each with a large gap, plus a
    // degenerate single-point one to exercise the pass-through path.
    let sparse = vec![
        street(41.15, -8.61, 25).sparsify(800.0),
        street(41.25, -8.61, 25).sparsify(800.0),
        street(41.20, -8.52, 25).sparsify(800.0),
        Trajectory::new(vec![GpsPoint::from_parts(41.15, -8.61, 0.0)]),
        street(41.15, -8.61, 25).sparsify(600.0),
    ];
    let seq = kamel.impute_batch_with_threads(&sparse, 1);
    for threads in [2, 4, 8] {
        let par = kamel.impute_batch_with_threads(&sparse, threads);
        assert_eq!(seq, par, "results diverged at {threads} threads");
    }
    // Order preserved: output i corresponds to input i.
    assert_eq!(seq.len(), sparse.len());
    for (s, r) in sparse.iter().zip(&seq) {
        assert!(r.trajectory.len() >= s.len(), "output shorter than input");
    }
}
