//! Seeded property tests for the language-model engines. Reproduces
//! `ProptestConfig::with_cases(24)`: corpora of 1..20 sentences of 3..20 tokens
//! in 1..40, contexts of 3..8, mask 1..6 (kept when `< len - 1`), top-k 1..12.

use kamel_lm::{Candidate, EngineConfig, MaskedTokenModel, NgramConfig, NgramMlm, Vocab};
use std::collections::HashMap;

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

/// The scorer `NgramMlm` had before its tables were frozen, kept as the
/// reference the frozen one must reproduce bit for bit: nested hash maps,
/// pruned in place, and per candidate one look-up and one row sum per
/// table.
struct RetiredScorer {
    config: NgramConfig,
    vocab: Vocab,
    uni: HashMap<u32, u32>,
    total: u64,
    fwd: HashMap<u32, HashMap<u32, u32>>,
    bwd: HashMap<u32, HashMap<u32, u32>>,
    tri: HashMap<u64, HashMap<u32, u32>>,
    between: HashMap<u64, HashMap<u32, u32>>,
}

fn pair_key(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

fn prune<K: std::hash::Hash + Eq>(table: &mut HashMap<K, HashMap<u32, u32>>, min_count: u32) {
    for counts in table.values_mut() {
        counts.retain(|_, c| *c >= min_count);
    }
    table.retain(|_, counts| !counts.is_empty());
}

fn cond_prob<K: std::hash::Hash + Eq>(
    table: &HashMap<K, HashMap<u32, u32>>,
    ctx: K,
    cand: u32,
) -> f64 {
    match table.get(&ctx) {
        Some(counts) => {
            let total: u32 = counts.values().sum();
            if total == 0 {
                0.0
            } else {
                *counts.get(&cand).unwrap_or(&0) as f64 / total as f64
            }
        }
        None => 0.0,
    }
}

impl RetiredScorer {
    fn train(config: &NgramConfig, corpus: &[Vec<u64>]) -> Self {
        let mut m = Self {
            config: *config,
            vocab: Vocab::new(),
            uni: HashMap::new(),
            total: 0,
            fwd: HashMap::new(),
            bwd: HashMap::new(),
            tri: HashMap::new(),
            between: HashMap::new(),
        };
        let window = config.between_window.max(2);
        for seq in corpus {
            let ids: Vec<u32> = seq.iter().map(|&k| m.vocab.get_or_insert(k)).collect();
            m.total += ids.len() as u64;
            for &id in &ids {
                *m.uni.entry(id).or_insert(0) += 1;
            }
            for w in ids.windows(2) {
                *m.fwd.entry(w[0]).or_default().entry(w[1]).or_insert(0) += 1;
                *m.bwd.entry(w[1]).or_default().entry(w[0]).or_insert(0) += 1;
            }
            for w in ids.windows(3) {
                let row = m.tri.entry(pair_key(w[0], w[2])).or_default();
                *row.entry(w[1]).or_insert(0) += 1;
            }
            let n = ids.len();
            for i in 0..n {
                for k in (i + 2)..n.min(i + window + 1) {
                    let row = m.between.entry(pair_key(ids[i], ids[k])).or_default();
                    for &mid in &ids[i + 1..k] {
                        *row.entry(mid).or_insert(0) += 1;
                    }
                }
            }
        }
        if config.prune_below > 1 {
            prune(&mut m.fwd, config.prune_below);
            prune(&mut m.bwd, config.prune_below);
            prune(&mut m.tri, config.prune_below);
            prune(&mut m.between, config.prune_below);
        }
        m
    }

    fn predict_masked(&self, seq: &[u64], pos: usize, top_k: usize) -> Vec<Candidate> {
        if top_k == 0 || self.vocab.is_empty() {
            return Vec::new();
        }
        let prev = (pos > 0).then(|| self.vocab.id_of(seq[pos - 1]));
        let next = (pos + 1 < seq.len()).then(|| self.vocab.id_of(seq[pos + 1]));
        let mut cand_ids: Vec<u32> = Vec::new();
        if let (Some(p), Some(n)) = (prev, next) {
            for table in [&self.tri, &self.between] {
                if let Some(counts) = table.get(&pair_key(p, n)) {
                    cand_ids.extend(counts.keys());
                }
            }
        }
        if let Some(counts) = prev.and_then(|p| self.fwd.get(&p)) {
            cand_ids.extend(counts.keys());
        }
        if let Some(counts) = next.and_then(|n| self.bwd.get(&n)) {
            cand_ids.extend(counts.keys());
        }
        cand_ids.sort_unstable();
        cand_ids.dedup();
        if cand_ids.is_empty() {
            let mut by_freq: Vec<(u32, u32)> = self.uni.iter().map(|(&id, &c)| (id, c)).collect();
            by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            // It multiplied unchecked; every `top_k` it was ever given fit.
            let head = by_freq.into_iter().take(top_k.saturating_mul(4));
            cand_ids.extend(head.map(|(id, _)| id));
        }
        let cfg = &self.config;
        let mut scored: Vec<(u32, f64)> = cand_ids
            .into_iter()
            .map(|c| {
                let mut s =
                    cfg.uni_weight * (*self.uni.get(&c).unwrap_or(&0) as f64 / self.total as f64);
                if let (Some(p), Some(n)) = (prev, next) {
                    s += cfg.tri_weight * cond_prob(&self.tri, pair_key(p, n), c);
                    s += cfg.between_weight * cond_prob(&self.between, pair_key(p, n), c);
                }
                if let Some(p) = prev {
                    s += cfg.fwd_weight * cond_prob(&self.fwd, p, c);
                }
                if let Some(n) = next {
                    s += cfg.bwd_weight * cond_prob(&self.bwd, n, c);
                }
                (c, s)
            })
            .collect();
        let norm: f64 = scored.iter().map(|(_, s)| s).sum();
        if norm <= 0.0 {
            return Vec::new();
        }
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored
            .into_iter()
            .take(top_k)
            .filter_map(|(id, s)| {
                let key = self.vocab.key_of(id)?;
                Some(Candidate {
                    key,
                    prob: s / norm,
                })
            })
            .collect()
    }
}

/// The frozen tables answer exactly what the nested maps answered: the
/// same candidates in the same order with the same probability bits, for
/// random branching corpora, each pruning level, a mask at either edge and
/// inside, unknown keys on one side or both, and every `top_k` regime.
#[test]
fn frozen_rows_answer_bit_for_bit_what_the_nested_maps_did() {
    for_each_case(2_000, |g| {
        // A small alphabet, so that contexts branch and counts reach the
        // pruning thresholds.
        let alphabet = g.usize_in(2..14) as u64;
        let corpus: Vec<Vec<u64>> = (0..g.usize_in(0..40))
            .map(|_| {
                (0..g.usize_in(1..16))
                    .map(|_| 1 + g.next_u64() % alphabet)
                    .collect()
            })
            .collect();
        // Five unequal weights: a term joined out of order, or under a
        // neighbour's weight, moves the low bits.
        let config = NgramConfig {
            tri_weight: g.f64_in(0.01..1.0),
            between_weight: g.f64_in(0.01..1.0),
            fwd_weight: g.f64_in(0.01..1.0),
            bwd_weight: g.f64_in(0.01..1.0),
            uni_weight: g.f64_in(0.01..1.0),
            between_window: [2, 4, 24][g.usize_in(0..3)],
            prune_below: [0, 2, 5][g.usize_in(0..3)],
        };
        let frozen = NgramMlm::train(&config, &corpus);
        let retired = RetiredScorer::train(&config, &corpus);
        for _ in 0..4 {
            // One key in four is outside the alphabet.
            let seq: Vec<u64> = (0..g.usize_in(1..6))
                .map(|_| match g.usize_in(0..4) {
                    0 => 1_000 + g.next_u64() % 3,
                    _ => 1 + g.next_u64() % alphabet,
                })
                .collect();
            for pos in 0..seq.len() {
                for top_k in [1, 3, 10, usize::MAX] {
                    let got = frozen.predict_masked(&seq, pos, top_k);
                    let want = retired.predict_masked(&seq, pos, top_k);
                    let bits = |preds: &[Candidate]| -> Vec<(u64, u64)> {
                        preds.iter().map(|c| (c.key, c.prob.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{seq:?} masked at {pos}, top_k {top_k}, {config:?}"
                    );
                }
            }
        }
    });
}
