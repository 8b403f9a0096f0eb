//! Seeded property tests for the language-model engines. Reproduces
//! `ProptestConfig::with_cases(24)`: corpora of 1..20 sentences of 3..20 tokens
//! in 1..40, contexts of 3..8, mask 1..6 (kept when `< len - 1`), top-k 1..12.

use kamel_lm::{EngineConfig, MaskedTokenModel, NgramConfig, NgramMlm};

include!("../../../tests/common/cases.rs");

const CASES: u64 = 24;

/// `len` tokens in 1..40.
fn tokens(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u64> {
    (0..g.usize_in(len))
        .map(|_| g.usize_in(1..40) as u64)
        .collect()
}

/// A corpus of random sentences over a small token space.
fn corpus(g: &mut Gen) -> Vec<Vec<u64>> {
    (0..g.usize_in(1..20)).map(|_| tokens(g, 3..20)).collect()
}

/// Predictions are sorted by probability, deduplicated, and sum ≤ 1.
#[test]
fn predictions_are_a_ranked_subdistribution() {
    for_each_case(CASES, |g| {
        let corpus = corpus(g);
        // Redraw until the mask is interior, as `prop_assume!` did.
        let (ctx, pos) = loop {
            let (ctx, pos) = (tokens(g, 3..8), g.usize_in(1..6));
            if pos < ctx.len() - 1 {
                break (ctx, pos);
            }
        };
        let top_k = g.usize_in(1..12);
        let model = NgramMlm::train(&NgramConfig::default(), &corpus);
        let preds = model.predict_masked(&ctx, pos, top_k);
        assert!(preds.len() <= top_k);
        let total: f64 = preds.iter().map(|c| c.prob).sum();
        assert!(total <= 1.0 + 1e-9, "probability mass {total}");
        for w in preds.windows(2) {
            assert!(w[0].prob >= w[1].prob, "not sorted");
        }
        let mut keys: Vec<u64> = preds.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), preds.len(), "duplicate candidates");
        for c in &preds {
            assert!(c.prob >= 0.0 && c.prob.is_finite());
        }
    });
}

/// Training and prediction are deterministic functions of the corpus.
#[test]
fn engine_is_deterministic() {
    for_each_case(CASES, |g| {
        let corpus = corpus(g);
        let a = NgramMlm::train(&NgramConfig::default(), &corpus);
        let b = NgramMlm::train(&NgramConfig::default(), &corpus);
        let ctx = [1u64, 2, 3, 4, 5];
        let pa = a.predict_masked(&ctx, 2, 8);
        let pb = b.predict_masked(&ctx, 2, 8);
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.key, y.key);
            assert!((x.prob - y.prob).abs() < 1e-12);
        }
    });
}

/// Serde roundtrip preserves predictions exactly for arbitrary corpora.
#[test]
fn serde_roundtrip_is_exact() {
    for_each_case(CASES, |g| {
        let model = EngineConfig::Ngram(NgramConfig::default()).train(&corpus(g));
        let json = serde_json::to_string(&model).expect("serialize");
        let back: kamel_lm::TrainedModel = serde_json::from_str(&json).expect("deserialize");
        let ctx = [3u64, 7, 11];
        let pa = model.predict_masked(&ctx, 1, 10);
        let pb = back.predict_masked(&ctx, 1, 10);
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.key, y.key);
            assert!((x.prob - y.prob).abs() < 1e-12);
        }
    });
}

/// Every predicted key appeared somewhere in the training corpus.
#[test]
fn predictions_come_from_the_vocabulary() {
    for_each_case(CASES, |g| {
        let corpus = corpus(g);
        let model = NgramMlm::train(&NgramConfig::default(), &corpus);
        let seen: std::collections::HashSet<u64> = corpus.iter().flatten().copied().collect();
        let ctx = [2u64, 9, 17, 25];
        for c in model.predict_masked(&ctx, 2, 20) {
            assert!(seen.contains(&c.key), "unknown token {}", c.key);
        }
    });
}

/// Token volume accounting is exact.
#[test]
fn trained_tokens_counts_the_corpus() {
    for_each_case(CASES, |g| {
        let corpus = corpus(g);
        let model = NgramMlm::train(&NgramConfig::default(), &corpus);
        let expected: u64 = corpus.iter().map(|s| s.len() as u64).sum();
        assert_eq!(model.trained_tokens(), expected);
        let distinct: std::collections::HashSet<u64> = corpus.iter().flatten().copied().collect();
        assert_eq!(model.vocab_len(), distinct.len());
    });
}
