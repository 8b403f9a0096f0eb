//! Bidirectional interpolated n-gram masked-token model.
//!
//! For a masked slot with left neighbor `p` and right neighbor `n`, the
//! model scores each candidate `c` as an interpolation of
//! `P(c | p, n)` (skip-trigram), `P(c | p)` (forward bigram),
//! `P(c | n)` (backward bigram) and `P(c)` (unigram). This is exactly the
//! conditional a masked-LM head learns for one slot given its immediate
//! bidirectional context, estimated by counting instead of gradient descent
//! — the CPU-scale substitution documented in DESIGN.md §2.

use crate::vocab::Vocab;
use crate::{Candidate, MaskedTokenModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interpolation weights and candidate limits for [`NgramMlm`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NgramConfig {
    /// Weight of the skip-trigram conditional `P(c | prev, next)` (adjacent
    /// context).
    pub tri_weight: f64,
    /// Weight of the long-range route conditional `P(c | left, right)`:
    /// how often `c` appeared *between* the two context tokens in training
    /// sentences, within [`NgramConfig::between_window`] positions. This is
    /// the counting analogue of BERT's bidirectional attention on the whole
    /// segment — it is what keeps multi-token imputation on the route
    /// instead of on locally-confident detours.
    pub between_weight: f64,
    /// Weight of the forward bigram conditional `P(c | prev)`.
    pub fwd_weight: f64,
    /// Weight of the backward bigram conditional `P(c | next)`.
    pub bwd_weight: f64,
    /// Weight of the unigram prior `P(c)`.
    pub uni_weight: f64,
    /// Maximum token span counted by the between table.
    pub between_window: usize,
    /// Drop context-table entries observed fewer than this many times after
    /// training (0 keeps everything). City-scale corpora accumulate long
    /// tails of one-off co-occurrences; pruning them bounds model memory
    /// with negligible accuracy impact.
    pub prune_below: u32,
}

impl Default for NgramConfig {
    fn default() -> Self {
        Self {
            tri_weight: 0.40,
            between_weight: 0.32,
            fwd_weight: 0.11,
            bwd_weight: 0.11,
            uni_weight: 0.06,
            between_window: 24,
            prune_below: 0,
        }
    }
}

/// Packs an ordered id pair into one map key.
#[inline]
fn pair_key(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// What [`NgramMlm::train`] counts into: context → (candidate id → count).
/// Nothing outlives `train` in this shape; the model holds [`Rows`].
type Counting<K> = HashMap<K, HashMap<u32, u32>>;

/// One context's frozen counts.
#[derive(Clone, Copy)]
struct Row<'a> {
    /// `(candidate id, count)`, ascending by id, every count positive.
    entries: &'a [(u32, u32)],
    /// Sum of the counts: the denominator of every conditional of this row.
    total: u64,
}

impl Row<'_> {
    /// What an unseen context reads as.
    const EMPTY: Row<'static> = Row {
        entries: &[],
        total: 0,
    };
}

/// The rows of one count table in one arena.
#[derive(Debug, Clone)]
struct Rows {
    /// Row `r` is `entries[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    totals: Vec<u64>,
    entries: Vec<(u32, u32)>,
}

impl Rows {
    fn new() -> Self {
        Self {
            starts: vec![0],
            totals: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.totals.len()
    }

    /// Row `r`; a row the table does not reach is empty.
    fn row(&self, r: usize) -> Row<'_> {
        match self.totals.get(r) {
            Some(&total) => Row {
                entries: &self.entries[self.starts[r]..self.starts[r + 1]],
                total,
            },
            None => Row::EMPTY,
        }
    }

    /// Appends the counts of at least `min_count` to the row being built
    /// and returns how many it holds now.
    fn stage(&mut self, counts: impl IntoIterator<Item = (u32, u32)>, min_count: u32) -> usize {
        self.entries
            .extend(counts.into_iter().filter(|&(_, c)| c >= min_count));
        self.entries.len() - self.starts[self.len()]
    }

    /// Ends the row being built (possibly empty) and returns its number.
    fn close_row(&mut self) -> usize {
        let start = self.starts[self.len()];
        let row = &mut self.entries[start..];
        row.sort_unstable_by_key(|&(id, _)| id);
        self.totals
            .push(row.iter().map(|&(_, c)| u64::from(c)).sum());
        self.starts.push(self.entries.len());
        self.len() - 1
    }

    /// Freezes a single-context table, contexts ascending: row number =
    /// context id, so contexts the table skips get empty rows. Counts
    /// below `min_count` (at least 1) are dropped.
    fn dense<R: IntoIterator<Item = (u32, u32)>>(
        table: impl IntoIterator<Item = (u32, R)>,
        min_count: u32,
    ) -> Self {
        let mut rows = Self::new();
        for (ctx, counts) in table {
            while rows.len() < ctx as usize {
                rows.close_row();
            }
            rows.stage(counts, min_count);
            rows.close_row();
        }
        rows
    }
}

/// A pair-context table. Its contexts `(a, b)` are kept in ascending order
/// and the context at position `r` owns row `r`, so a look-up is an index
/// by `a` and a binary search for `b` among the few contexts that share it.
#[derive(Debug, Clone)]
struct PairRows {
    /// The contexts whose first id is `a` are
    /// `seconds[firsts[a]..firsts[a + 1]]`.
    firsts: Vec<usize>,
    seconds: Vec<u32>,
    rows: Rows,
}

impl PairRows {
    /// Freezes a pair-context table, `pair_key`s ascending. Counts below
    /// `min_count` (at least 1) are dropped, and a context left with none
    /// gets no row.
    fn freeze<R: IntoIterator<Item = (u32, u32)>>(
        table: impl IntoIterator<Item = (u64, R)>,
        min_count: u32,
    ) -> Self {
        let (mut firsts, mut seconds, mut rows) = (Vec::new(), Vec::new(), Rows::new());
        let mut last = None;
        for (key, counts) in table {
            debug_assert!(last.replace(key) < Some(key), "contexts arrive ascending");
            if rows.stage(counts, min_count) > 0 {
                let a = (key >> 32) as usize;
                firsts.resize(firsts.len().max(a + 1), seconds.len());
                seconds.push(key as u32);
                rows.close_row();
            }
        }
        firsts.push(seconds.len());
        Self {
            firsts,
            seconds,
            rows,
        }
    }

    fn row(&self, a: u32, b: u32) -> Row<'_> {
        let a = a as usize;
        let (Some(&from), Some(&to)) = (self.firsts.get(a), self.firsts.get(a + 1)) else {
            return Row::EMPTY;
        };
        match self.seconds[from..to].binary_search(&b) {
            Ok(i) => self.rows.row(from + i),
            Err(_) => Row::EMPTY,
        }
    }
}

/// Unigram counts, dense by id, and the ids ranked for the novel-context
/// fallback.
#[derive(Debug, Clone)]
struct Unigrams {
    counts: Vec<u32>,
    /// Every id with a positive count, most frequent first, ties by
    /// ascending id.
    ranked: Vec<u32>,
}

impl Unigrams {
    fn new(counts: Vec<u32>) -> Self {
        let mut ranked: Vec<u32> = (0..counts.len() as u32)
            .filter(|&id| counts[id as usize] > 0)
            .collect();
        ranked
            .sort_unstable_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        Self { counts, ranked }
    }
}

/// A training table's contexts in ascending order, as the freezes take
/// them.
fn ascending<K: Ord + Copy>(table: Counting<K>) -> Vec<(K, HashMap<u32, u32>)> {
    let mut contexts: Vec<_> = table.into_iter().collect();
    contexts.sort_unstable_by_key(|&(key, _)| key);
    contexts
}

/// The trained bidirectional n-gram model.
///
/// The count tables are read-only once [`NgramMlm::train`] (or a load)
/// returns, so the model holds them frozen: rows sorted by candidate id
/// with their totals stored, found by index (`uni`, `fwd`, `bwd`) or by an
/// index and a short binary search (`tri`, `between`), once per call. On
/// disk they stay the nested maps `{context: {candidate: count}}` they
/// always were; the `*_serde` modules below convert at the boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NgramMlm {
    config: NgramConfig,
    vocab: Vocab,
    /// Unigram counts per id.
    #[serde(with = "unigram_serde")]
    uni: Unigrams,
    /// Total regular tokens seen.
    total: u64,
    /// `fwd[prev][cur]`: count of `cur` following `prev`.
    #[serde(with = "dense_serde")]
    fwd: Rows,
    /// `bwd[next][cur]`: count of `cur` preceding `next`.
    #[serde(with = "dense_serde")]
    bwd: Rows,
    /// `tri[(prev,next)][cur]`: count of `cur` between `prev` and `next`.
    #[serde(with = "pair_serde")]
    tri: PairRows,
    /// `between[(a,b)][cur]`: count of `cur` occurring strictly between `a`
    /// and `b` in a sentence, with the whole span within `between_window`.
    #[serde(with = "pair_serde")]
    between: PairRows,
}

impl NgramMlm {
    /// Counts all n-gram statistics over a corpus of token-key sequences,
    /// drops conditional counts below [`NgramConfig::prune_below`] (and the
    /// contexts that leaves empty; unigram counts are the fallback and are
    /// kept), and freezes what remains.
    pub fn train(config: &NgramConfig, corpus: &[Vec<u64>]) -> Self {
        let mut vocab = Vocab::new();
        let mut uni: Vec<u32> = Vec::new();
        let mut fwd: Counting<u32> = HashMap::new();
        let mut bwd: Counting<u32> = HashMap::new();
        let mut tri: Counting<u64> = HashMap::new();
        let mut between: Counting<u64> = HashMap::new();
        let window = config.between_window.max(2);
        let mut total = 0u64;
        let mut ids = Vec::new();
        for seq in corpus {
            ids.clear();
            ids.extend(seq.iter().map(|&k| vocab.get_or_insert(k)));
            total += ids.len() as u64;
            uni.resize(vocab.total_len(), 0);
            for &id in &ids {
                uni[id as usize] += 1;
            }
            for w in ids.windows(2) {
                *fwd.entry(w[0]).or_default().entry(w[1]).or_insert(0) += 1;
                *bwd.entry(w[1]).or_default().entry(w[0]).or_insert(0) += 1;
            }
            for w in ids.windows(3) {
                *tri.entry(pair_key(w[0], w[2]))
                    .or_default()
                    .entry(w[1])
                    .or_insert(0) += 1;
            }
            // Route co-occurrence: every token strictly between a pair of
            // anchors whose span fits the window.
            let n = ids.len();
            for i in 0..n {
                for k in (i + 2)..n.min(i + window + 1) {
                    let key = pair_key(ids[i], ids[k]);
                    let entry = between.entry(key).or_default();
                    for &mid in &ids[i + 1..k] {
                        *entry.entry(mid).or_insert(0) += 1;
                    }
                }
            }
        }
        let min_count = config.prune_below.max(1);
        Self {
            config: *config,
            vocab,
            uni: Unigrams::new(uni),
            total,
            fwd: Rows::dense(ascending(fwd), min_count),
            bwd: Rows::dense(ascending(bwd), min_count),
            tri: PairRows::freeze(ascending(tri), min_count),
            between: PairRows::freeze(ascending(between), min_count),
        }
    }

    /// Total entries across all conditional tables — the memory the
    /// model's transition statistics occupy (vocabulary excluded).
    pub fn table_entries(&self) -> usize {
        self.fwd.entries.len()
            + self.bwd.entries.len()
            + self.tri.rows.entries.len()
            + self.between.rows.entries.len()
    }

    /// The model's vocabulary (cell-key ↔ id mapping).
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    fn uni_prob(&self, cand: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.uni.counts.get(cand as usize).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }
}

impl MaskedTokenModel for NgramMlm {
    fn predict_masked(&self, seq: &[u64], pos: usize, top_k: usize) -> Vec<Candidate> {
        assert!(pos < seq.len(), "mask position {pos} out of range");
        if top_k == 0 || self.vocab.is_empty() {
            return Vec::new();
        }
        let prev = pos.checked_sub(1).map(|i| self.vocab.id_of(seq[i]));
        let next = seq.get(pos + 1).map(|&key| self.vocab.id_of(key));
        let pair = prev.zip(next);
        let cfg = &self.config;
        // The four context rows, in the order their terms join a score.
        let rows = [
            (
                cfg.tri_weight,
                pair.map_or(Row::EMPTY, |(p, n)| self.tri.row(p, n)),
            ),
            (
                cfg.between_weight,
                pair.map_or(Row::EMPTY, |(p, n)| self.between.row(p, n)),
            ),
            (
                cfg.fwd_weight,
                prev.map_or(Row::EMPTY, |p| self.fwd.row(p as usize)),
            ),
            (
                cfg.bwd_weight,
                next.map_or(Row::EMPTY, |n| self.bwd.row(n as usize)),
            ),
        ];
        // Candidate set: everything the context tables have seen in this
        // context, scored in one merge over the rows by ascending id. A row
        // that lacks the candidate would add `weight × 0/total`, so it adds
        // nothing.
        let mut scored: Vec<(u32, f64)> =
            Vec::with_capacity(rows.iter().map(|(_, row)| row.entries.len()).sum());
        let mut at = [0usize; 4];
        loop {
            let heads = rows
                .iter()
                .zip(at)
                .filter_map(|((_, row), i)| row.entries.get(i));
            let Some(c) = heads.map(|&(id, _)| id).min() else {
                break;
            };
            let mut s = cfg.uni_weight * self.uni_prob(c);
            for ((weight, row), i) in rows.iter().zip(&mut at) {
                if let Some(&(id, count)) = row.entries.get(*i) {
                    if id == c {
                        s += weight * (count as f64 / row.total as f64);
                        *i += 1;
                    }
                }
            }
            scored.push((c, s));
        }
        if scored.is_empty() {
            // Novel context: the unigram head, in its ranked order.
            let head = self.uni.ranked.iter().take(top_k.saturating_mul(4));
            scored.extend(head.map(|&c| (c, cfg.uni_weight * self.uni_prob(c))));
        }
        let norm: f64 = scored.iter().map(|(_, s)| s).sum();
        if norm <= 0.0 {
            return Vec::new();
        }
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .take(top_k)
            .filter_map(|(id, s)| {
                self.vocab.key_of(id).map(|key| Candidate {
                    key,
                    prob: s / norm,
                })
            })
            .collect()
    }

    fn vocab_len(&self) -> usize {
        self.vocab.regular_len()
    }

    fn trained_tokens(&self) -> u64 {
        self.total
    }
}

/// A dense table reaches its largest context id, so an id read from a
/// file is bounded before rows are allocated up to it: 2²⁶ regular tokens
/// is every 75 m cell of a continent.
fn dense_len<E: serde::de::Error>(largest_id: Option<u32>) -> Result<usize, E> {
    const MAX_ID: u32 = 1 << 26;
    match largest_id {
        Some(id) if id > MAX_ID => Err(E::custom(format!(
            "token id {id} exceeds the {MAX_ID} a count table may reach"
        ))),
        Some(id) => Ok(id as usize + 1),
        None => Ok(0),
    }
}

/// A frozen row as the `{candidate: count}` map it is on disk.
struct RowMap<'a>(&'a [(u32, u32)]);

impl Serialize for RowMap<'_> {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        let map: HashMap<u32, u32> = self.0.iter().copied().collect();
        map.serialize(ser)
    }
}

/// `uni` on disk: `{id: count}` over the ids seen.
mod unigram_serde {
    use super::{dense_len, Unigrams};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::{BTreeMap, HashMap};

    pub fn serialize<S: Serializer>(uni: &Unigrams, ser: S) -> Result<S::Ok, S::Error> {
        let map: HashMap<u32, u32> = uni
            .ranked
            .iter()
            .map(|&id| (id, uni.counts[id as usize]))
            .collect();
        map.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Unigrams, D::Error> {
        let map: BTreeMap<u32, u32> = BTreeMap::deserialize(de)?;
        let mut counts = vec![0; dense_len(map.keys().next_back().copied())?];
        for (id, count) in map {
            counts[id as usize] = count;
        }
        Ok(Unigrams::new(counts))
    }
}

/// `fwd` / `bwd` on disk: `{context id: {candidate id: count}}` over the
/// contexts with a non-empty row.
mod dense_serde {
    use super::{dense_len, RowMap, Rows};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::{BTreeMap, HashMap};

    pub fn serialize<S: Serializer>(rows: &Rows, ser: S) -> Result<S::Ok, S::Error> {
        let map: HashMap<u32, RowMap> = (0..rows.len())
            .map(|r| (r as u32, RowMap(rows.row(r).entries)))
            .filter(|(_, row)| !row.0.is_empty())
            .collect();
        map.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Rows, D::Error> {
        let map: BTreeMap<u32, BTreeMap<u32, u32>> = BTreeMap::deserialize(de)?;
        dense_len(map.keys().next_back().copied())?;
        Ok(Rows::dense(map, 1))
    }
}

/// `tri` / `between` on disk: `{pair key: {candidate id: count}}`.
mod pair_serde {
    use super::{dense_len, pair_key, PairRows, RowMap};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::{BTreeMap, HashMap};

    pub fn serialize<S: Serializer>(table: &PairRows, ser: S) -> Result<S::Ok, S::Error> {
        let mut map: HashMap<u64, RowMap> = HashMap::with_capacity(table.seconds.len());
        for (a, span) in table.firsts.windows(2).enumerate() {
            for r in span[0]..span[1] {
                let key = pair_key(a as u32, table.seconds[r]);
                map.insert(key, RowMap(table.rows.row(r).entries));
            }
        }
        map.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<PairRows, D::Error> {
        let map: BTreeMap<u64, BTreeMap<u32, u32>> = BTreeMap::deserialize(de)?;
        dense_len(map.keys().next_back().map(|&key| (key >> 32) as u32))?;
        Ok(PairRows::freeze(map, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_corpus() -> Vec<Vec<u64>> {
        (0..20).map(|_| vec![10u64, 20, 30, 40, 50]).collect()
    }

    #[test]
    fn learns_deterministic_chain() {
        let m = NgramMlm::train(&NgramConfig::default(), &chain_corpus());
        let preds = m.predict_masked(&[20, 0, 40], 1, 5);
        assert_eq!(preds[0].key, 30);
        assert!(preds[0].prob > 0.5);
    }

    #[test]
    fn probabilities_sum_to_one_over_candidates() {
        // Branching corpus: after 10, go to 20 (75%) or 21 (25%).
        let mut corpus = vec![vec![10u64, 20, 30]; 3];
        corpus.push(vec![10, 21, 30]);
        let m = NgramMlm::train(&NgramConfig::default(), &corpus);
        let preds = m.predict_masked(&[10, 0, 30], 1, 10);
        let sum: f64 = preds.iter().map(|c| c.prob).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert_eq!(preds[0].key, 20);
        assert!(preds[0].prob > preds[1].prob);
    }

    #[test]
    fn respects_branch_frequencies() {
        let mut corpus = Vec::new();
        for _ in 0..9 {
            corpus.push(vec![1u64, 2, 3]);
        }
        corpus.push(vec![1u64, 7, 3]);
        let m = NgramMlm::train(&NgramConfig::default(), &corpus);
        let preds = m.predict_masked(&[1, 0, 3], 1, 2);
        assert_eq!(preds[0].key, 2);
        assert_eq!(preds[1].key, 7);
        assert!(preds[0].prob > 5.0 * preds[1].prob);
    }

    #[test]
    fn edge_positions_use_one_sided_context() {
        let m = NgramMlm::train(&NgramConfig::default(), &chain_corpus());
        // Mask at the start: only the right context (20) is available.
        let start = m.predict_masked(&[0, 20, 30], 0, 3);
        assert_eq!(start[0].key, 10);
        // Mask at the end: only the left context (40).
        let end = m.predict_masked(&[30, 40, 0], 2, 3);
        assert_eq!(end[0].key, 50);
    }

    #[test]
    fn unknown_context_falls_back_to_unigrams() {
        let m = NgramMlm::train(&NgramConfig::default(), &chain_corpus());
        // Context keys never seen in training.
        let preds = m.predict_masked(&[999, 0, 888], 1, 3);
        assert!(!preds.is_empty());
        // The most frequent tokens are all equally frequent in the chain; a
        // valid chain member must be returned.
        assert!([10u64, 20, 30, 40, 50].contains(&preds[0].key));
    }

    #[test]
    fn empty_model_returns_nothing() {
        let m = NgramMlm::train(&NgramConfig::default(), &[]);
        assert!(m.predict_masked(&[1, 0, 2], 1, 5).is_empty());
        assert_eq!(m.vocab_len(), 0);
        assert_eq!(m.trained_tokens(), 0);
    }

    #[test]
    fn top_k_truncates() {
        // 6 distinct successors of token 1.
        let corpus: Vec<Vec<u64>> = (0..6).map(|i| vec![1u64, 100 + i, 3]).collect();
        let m = NgramMlm::train(&NgramConfig::default(), &corpus);
        assert_eq!(m.predict_masked(&[1, 0, 3], 1, 3).len(), 3);
        assert_eq!(m.predict_masked(&[1, 0, 3], 1, 100).len(), 6);
        assert!(m.predict_masked(&[1, 0, 3], 1, 0).is_empty());
    }

    #[test]
    fn pruning_shrinks_tables_but_keeps_strong_transitions() {
        // 20 passes over the chain + 1 noise sentence.
        let mut corpus = chain_corpus();
        corpus.push(vec![77u64, 88, 99]);
        let full = NgramMlm::train(&NgramConfig::default(), &corpus);
        let pruned = NgramMlm::train(
            &NgramConfig {
                prune_below: 5,
                ..NgramConfig::default()
            },
            &corpus,
        );
        assert!(pruned.table_entries() < full.table_entries());
        // The heavily-observed chain still predicts perfectly...
        let preds = pruned.predict_masked(&[20, 0, 40], 1, 3);
        assert_eq!(preds[0].key, 30);
        // ...while the singleton noise context lost its entries.
        let noise = pruned.predict_masked(&[77, 0, 99], 1, 3);
        assert!(noise.is_empty() || noise[0].key != 88);
    }

    #[test]
    fn trained_tokens_counts_corpus_volume() {
        let m = NgramMlm::train(&NgramConfig::default(), &chain_corpus());
        assert_eq!(m.trained_tokens(), 100);
        assert_eq!(m.vocab_len(), 5);
    }

    include!("../../../tests/common/canonical_json.rs");

    /// What the commit before the frozen rows wrote for `NgramMlm::train`
    /// over [`four_sentences`]: nested `{context: {candidate: count}}`
    /// maps, members in that run's hash order.
    const NESTED_MAP_JSON: &str = r#"{"config":{"tri_weight":0.4,"between_weight":0.32,"fwd_weight":0.11,"bwd_weight":0.11,"uni_weight":0.06,"between_window":24,"prune_below":0},"vocab":{"forward":{"40":8,"21":9,"10":5,"31":10,"41":11,"20":6,"30":7},"backward":[10,20,30,40,21,31,41]},"uni":{"6":3,"7":3,"9":1,"5":4,"8":3,"10":1,"11":1},"total":16,"fwd":{"9":{"7":1},"6":{"10":1,"7":2},"10":{"11":1},"7":{"8":3},"5":{"6":3,"9":1}},"bwd":{"9":{"5":1},"6":{"5":3},"8":{"7":3},"7":{"6":2,"9":1},"10":{"6":1},"11":{"10":1}},"tri":{"21474836490":{"6":1},"38654705672":{"7":1},"21474836487":{"6":2,"9":1},"25769803784":{"7":2},"25769803787":{"10":1}},"between":{"21474836488":{"9":1,"7":3,"6":2},"38654705672":{"7":1},"21474836490":{"6":1},"21474836487":{"6":2,"9":1},"25769803787":{"10":1},"25769803784":{"7":2},"21474836491":{"10":1,"6":1}}}"#;

    fn four_sentences() -> Vec<Vec<u64>> {
        vec![
            vec![10, 20, 30, 40],
            vec![10, 20, 30, 40],
            vec![10, 21, 30, 40],
            vec![10, 20, 31, 41],
        ]
    }

    #[test]
    fn nested_map_json_loads_and_answers_as_it_did_before_the_freeze() {
        let model: NgramMlm = serde_json::from_str(NESTED_MAP_JSON).expect("nested-map JSON");
        // (sequence, mask, top-3 as (key, probability bits)) from that commit.
        type Pinned<'a> = (&'a [u64], usize, &'a [(u64, u64)]);
        let pinned: [Pinned; 5] = [
            (
                &[10, 0, 30],
                1,
                &[(20, 4604278265113606590), (21, 4599479927290727554)],
            ),
            (&[0, 20], 0, &[(10, 4607182418800017408)]),
            (&[30, 0], 1, &[(40, 4607182418800017408)]),
            (
                &[999, 0, 888],
                1,
                &[
                    (10, 4598175219545276414),
                    (20, 4595923419731591166),
                    (30, 4595923419731591166),
                ],
            ),
            (
                &[20, 0, 41],
                1,
                &[(31, 4606384660750840959), (30, 4591046485056576521)],
            ),
        ];
        for (seq, pos, expected) in pinned {
            let got: Vec<(u64, u64)> = model
                .predict_masked(seq, pos, 3)
                .iter()
                .map(|c| (c.key, c.prob.to_bits()))
                .collect();
            assert_eq!(got, expected, "{seq:?} masked at {pos}");
        }
    }

    #[test]
    fn on_disk_shape_is_the_nested_maps_it_always_was() {
        let wrote = canonical_json(NESTED_MAP_JSON);
        let trained = NgramMlm::train(&NgramConfig::default(), &four_sentences());
        let json = serde_json::to_string(&trained).expect("serialize");
        assert_eq!(canonical_json(&json), wrote);
        let loaded: NgramMlm = serde_json::from_str(&json).expect("deserialize");
        let again = serde_json::to_string(&loaded).expect("serialize");
        assert_eq!(canonical_json(&again), wrote);
    }

    #[test]
    fn a_row_total_past_u32_does_not_wrap() {
        // Two counts that sum to 2³² + 2: a `u32` total is 2, which puts
        // all but 1e-9 of the mass on the first.
        let json = NESTED_MAP_JSON.replace(r#""7":{"8":3}"#, r#""7":{"8":4294967295,"6":3}"#);
        let model: NgramMlm = serde_json::from_str(&json).expect("nested-map JSON");
        let preds = model.predict_masked(&[30, 0], 1, 2);
        assert_eq!(preds[0].key, 40);
        assert!((preds[0].prob - 0.9151).abs() < 1e-4, "{preds:?}");
    }

    #[test]
    fn a_context_id_no_vocabulary_reaches_is_refused_before_allocating() {
        let far_pair = format!(r#""{}":{{"6":1}},"#, pair_key(4_000_000_000, 6));
        for (field, entry) in [
            (r#""uni":{"#, r#""4000000000":1,"#),
            (r#""fwd":{"#, r#""4000000000":{"6":1},"#),
            (r#""tri":{"#, far_pair.as_str()),
        ] {
            let json = NESTED_MAP_JSON.replace(field, &format!("{field}{entry}"));
            let err = serde_json::from_str::<NgramMlm>(&json).expect_err("out-of-range id");
            assert!(err.to_string().contains("4000000000"), "{err}");
        }
    }
}
