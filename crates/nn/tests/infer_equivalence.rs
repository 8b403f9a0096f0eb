//! Bit-identity of the grad-free inference engine against the reference
//! training forward, across model scales, sequence shapes, and batch
//! mixes.
//!
//! These seeded property tests (16 cases each; a failure prints its seed)
//! are the contract `kamel_nn::infer` ships under: `predict_with` /
//! `predict_batch_with` return the *same bits* as
//! [`kamel_nn::BertMlmModel::predict`], and a reused scratch never leaks
//! state between calls.

mod common;

use common::{for_each_case, Gen};
use kamel_nn::{BertConfig, BertMlmModel, InferScratch};
use kamel_rng::Rng;

const CASES: u64 = 16;

/// A Tiny or Small model — the scales the test suite can afford to build
/// — under a random weight seed.
fn model(g: &mut Gen, scales: usize, vocab: usize) -> BertMlmModel {
    let config = match g.usize_in(0..scales) {
        0 => BertConfig::tiny(vocab),
        _ => BertConfig::small(vocab),
    };
    let mut rng = Rng::seed_from_u64(g.next_u64() % 100);
    BertMlmModel::new(config, &mut rng)
}

/// Single grad-free prediction == reference forward, bit for bit, for
/// any scale, sequence, and mask position.
#[test]
fn predict_with_matches_predict() {
    for_each_case(CASES, |g| {
        let model = model(g, 2, 13);
        let (ids, pos) = g.request(13, 24);
        let reference = model.predict(&ids, pos);
        let mut scratch = InferScratch::new();
        let fast = model.predict_with(&mut scratch, &ids, pos);
        assert_eq!(reference.as_slice(), fast);
    });
}

/// A fused batch == each single call, bit for bit, regardless of how
/// the requests are mixed (lengths, positions).
#[test]
fn batch_matches_singles() {
    for_each_case(CASES, |g| {
        let model = model(g, 2, 11);
        let reqs: Vec<_> = (0..g.usize_in(1..6)).map(|_| g.request(11, 16)).collect();
        let views: Vec<(&[u32], usize)> = reqs
            .iter()
            .map(|(ids, pos)| (ids.as_slice(), *pos))
            .collect();
        let mut scratch = InferScratch::new();
        let batch = model.predict_batch_with(&mut scratch, &views).clone();
        assert_eq!(batch.rows(), reqs.len());
        for (i, (ids, pos)) in reqs.iter().enumerate() {
            let reference = model.predict(ids, *pos);
            assert_eq!(reference.as_slice(), batch.row(i), "request {i} diverged");
        }
    });
}

/// One scratch fed a shuffle of differently-shaped requests answers
/// each exactly like a fresh scratch: reuse leaks no state.
#[test]
fn scratch_reuse_leaks_no_state() {
    for_each_case(CASES, |g| {
        let model = model(g, 1, 9);
        let reqs: Vec<_> = (0..g.usize_in(2..6)).map(|_| g.request(9, 12)).collect();
        let mut reused = InferScratch::new();
        // Warm the scratch with every request once, then replay: answers
        // must match fresh-scratch answers bit for bit.
        for (ids, pos) in &reqs {
            let _ = model.predict_with(&mut reused, ids, *pos);
        }
        for (ids, pos) in &reqs {
            let replay = model.predict_with(&mut reused, ids, *pos).to_vec();
            let mut fresh = InferScratch::new();
            let clean = model.predict_with(&mut fresh, ids, *pos);
            assert_eq!(replay.as_slice(), clean);
        }
    });
}
