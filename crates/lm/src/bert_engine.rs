//! The BERT engine: KAMEL's paper-faithful masked-token model.
//!
//! Wraps [`kamel_nn::BertMlmModel`] with a [`Vocab`]: training maps cell
//! keys to dense ids, brackets sequences with `[CLS]`/`[SEP]`, and runs the
//! standard MLM recipe; prediction inserts `[MASK]` at the gap and reads the
//! head's distribution back as cell keys.

use crate::vocab::Vocab;
use crate::{Candidate, MaskedTokenModel};
use kamel_nn::{
    BertConfig, BertMlmModel, ByteSource, InferScratch, MlmBatcher, PackCursor, QuantizedBertMlm,
    TrainOptions, Trainer,
};
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-thread inference scratch. `predict_masked` takes `&self` and is
    /// called concurrently (server workers, batch-imputation threads), so
    /// the arena cannot live in the model; a thread-local gives every
    /// caller warm, allocation-free buffers without locking.
    static INFER_SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::new());
}

/// Model scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BertScale {
    /// 32 hidden / 2 layers / 2 heads: seconds to train, for tests and the
    /// quickstart.
    Tiny,
    /// 64 hidden / 4 layers / 4 heads: minutes to train.
    Small,
    /// The paper's 768 / 12 / 12 deployment scale (TPU-class training; not
    /// used by the test suite).
    Paper,
}

/// Hyper-parameters for training a [`BertMlm`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BertEngineConfig {
    /// Architecture scale.
    pub scale: BertScale,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// Embedding dropout during training (0 disables; BERT's corpus-scale
    /// default is 0.1).
    pub dropout: f32,
    /// RNG seed (initialization + masking): training is deterministic.
    pub seed: u64,
}

impl Default for BertEngineConfig {
    fn default() -> Self {
        Self {
            scale: BertScale::Small,
            epochs: 15,
            lr: 1e-3,
            batch_size: 8,
            dropout: 0.0,
            seed: 0xBEB7,
        }
    }
}

impl BertEngineConfig {
    /// A fast configuration for unit and integration tests.
    pub fn for_tests() -> Self {
        Self {
            scale: BertScale::Tiny,
            epochs: 12,
            lr: 3e-3,
            batch_size: 8,
            dropout: 0.0,
            seed: 0xBEB7,
        }
    }

    fn bert_config(&self, vocab_size: usize) -> BertConfig {
        match self.scale {
            BertScale::Tiny => BertConfig::tiny(vocab_size),
            BertScale::Small => BertConfig::small(vocab_size),
            BertScale::Paper => BertConfig::paper(vocab_size),
        }
    }
}

/// A trained BERT masked-token model over cell keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BertMlm {
    vocab: Vocab,
    model: BertMlmModel,
    trained_tokens: u64,
    /// Int8 serving weights, derived from `model` when quantization is
    /// enabled. Never serialized: the f32 weights are the source of truth
    /// and the artifact is rebuilt (and re-gated) on load. `Arc` keeps
    /// clones of a quantized model cheap.
    #[serde(skip)]
    quant: Option<Arc<QuantizedBertMlm>>,
}

impl BertMlm {
    /// Builds the vocabulary, initializes the network, and runs MLM training
    /// over the corpus.
    pub fn train(config: &BertEngineConfig, corpus: &[Vec<u64>]) -> Self {
        let mut vocab = Vocab::new();
        let mut sequences: Vec<Vec<u32>> = Vec::with_capacity(corpus.len());
        let mut trained_tokens = 0u64;
        for seq in corpus {
            trained_tokens += seq.len() as u64;
            let mut ids = Vec::with_capacity(seq.len() + 2);
            ids.push(Vocab::CLS);
            ids.extend(seq.iter().map(|&k| vocab.get_or_insert(k)));
            ids.push(Vocab::SEP);
            sequences.push(ids);
        }
        let mut rng = Rng::seed_from_u64(config.seed);
        let bert_config = config.bert_config(Self::network_vocab_size(vocab.regular_len()));
        let mut model = BertMlmModel::new(bert_config, &mut rng);
        if !sequences.is_empty() && !vocab.is_empty() {
            let trainer = Trainer::new(
                MlmBatcher::new(Vocab::MASK, vocab.regular_range()),
                TrainOptions {
                    epochs: config.epochs,
                    lr: config.lr,
                    batch_size: config.batch_size,
                    mask_prob: 0.15,
                    warmup_frac: 0.1,
                    dropout: config.dropout,
                    seed: config.seed,
                },
            );
            trainer.train(&mut model, &sequences);
        }
        Self {
            vocab,
            model,
            trained_tokens,
            quant: None,
        }
    }

    /// The vocabulary this model was trained with.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Switches prediction to the int8 weight-quantized path (building the
    /// quantized weights from the f32 model). Gating against an accuracy
    /// bound is the caller's job — see
    /// [`BertMlm::quantization_agreement`].
    pub fn enable_quantization(&mut self) {
        if self.quant.is_none() {
            self.quant = Some(Arc::new(QuantizedBertMlm::from_model(&self.model)));
        }
    }

    /// Reverts prediction to the f32 path, dropping the int8 weights.
    pub fn disable_quantization(&mut self) {
        self.quant = None;
    }

    /// Builds (without installing) the int8 artifact for this model —
    /// reuses the installed one when quantization is already enabled, so
    /// packing a quantized checkpoint serializes exactly the weights it
    /// serves.
    pub fn build_quant_artifact(&self) -> QuantizedBertMlm {
        match &self.quant {
            Some(q) => (**q).clone(),
            None => QuantizedBertMlm::from_model(&self.model),
        }
    }

    /// The currently *installed* int8 artifact, or `None` when this model
    /// serves f32. Unlike [`Self::build_quant_artifact`] this never builds
    /// one — exporters use it so a packed store mirrors exactly the
    /// serving state (and gate decisions) of the system being packed.
    pub fn installed_quant_artifact(&self) -> Option<QuantizedBertMlm> {
        self.quant.as_deref().cloned()
    }

    /// Installs pre-built int8 weights (typically a zero-copy view into a
    /// mapped model-store record) and switches prediction to the
    /// quantized path. Rejects weights whose shape does not fit this
    /// model — a store record paired with the wrong cell must fail
    /// loudly, not serve garbage.
    pub fn install_quantization(&mut self, quant: QuantizedBertMlm) -> Result<(), String> {
        if !quant.matches(&self.model) {
            return Err(format!(
                "quantized weights ({} layers, {} bytes) do not fit this model ({} layers)",
                quant.layer_count(),
                quant.weight_bytes(),
                self.model.config.n_layers
            ));
        }
        self.quant = Some(Arc::new(quant));
        Ok(())
    }

    /// Whether predictions currently run the int8 path.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Top-1 agreement between the f32 and int8 paths over `probes`
    /// seeded random masked probes (uniform regular tokens, random mask
    /// slot). Returns 1.0 for an empty vocabulary or zero probes. Does
    /// not require (or toggle) quantization being enabled; `kamel-core`
    /// uses this as the accuracy gate before enabling the path.
    pub fn quantization_agreement(&self, probes: usize, seed: u64) -> f64 {
        if probes == 0 || self.vocab.is_empty() {
            return 1.0;
        }
        let quant = match &self.quant {
            Some(q) => Arc::clone(q),
            None => Arc::new(QuantizedBertMlm::from_model(&self.model)),
        };
        let (lo, hi) = self.vocab.regular_range();
        let max_body = self.model.config.max_seq_len.saturating_sub(2).max(1);
        let mut rng = Rng::seed_from_u64(seed);
        let mut scratch = InferScratch::new();
        let mut agree = 0usize;
        for _ in 0..probes {
            let len = rng.range(3..=8usize).min(max_body);
            let pos = rng.range(0..len);
            let mut ids = Vec::with_capacity(len + 2);
            ids.push(Vocab::CLS);
            for i in 0..len {
                ids.push(if i == pos {
                    Vocab::MASK
                } else {
                    rng.range(lo..hi)
                });
            }
            ids.push(Vocab::SEP);
            let mask_index = pos + 1;
            let exact_top = rank_regulars(self.model.predict_with(&mut scratch, &ids, mask_index), 1)
                .first()
                .map(|&(id, _)| id);
            let quant_top = rank_regulars(
                self.model.predict_quant_with(&quant, &mut scratch, &ids, mask_index),
                1,
            )
            .first()
            .map(|&(id, _)| id);
            if exact_top == quant_top {
                agree += 1;
            }
        }
        agree as f64 / probes as f64
    }

    /// Renders this model as one binary record: the network's f32 tensor
    /// section ([`BertMlmModel::write_tensors`]), then the vocabulary as
    /// `u64 count | u64 keys…` in id order, then `u64 trained_tokens` —
    /// all little-endian, every field 8-byte aligned from the record's
    /// start. The int8 artifact is not part of it (it packs separately,
    /// see [`QuantizedBertMlm::write_packed`]).
    pub fn write_record(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.model.write_tensors(&mut out);
        out.extend_from_slice(&(self.vocab.regular_len() as u64).to_le_bytes());
        for key in self.vocab.keys() {
            out.extend_from_slice(&key.to_le_bytes());
        }
        out.extend_from_slice(&self.trained_tokens.to_le_bytes());
        out
    }

    /// Reads a [`BertMlm::write_record`] record from `len` bytes at
    /// `offset` of `buf` — a validated copy, not a parse: weights and keys
    /// are copied into owned buffers, and the model comes back serving f32
    /// with no optimizer state. The vocabulary must be the size the
    /// network's head was built for and exactly fill the rest of the
    /// record (checked before its keys are allocated); a short record or a
    /// trailing byte is an error.
    pub fn read_record(
        buf: &Arc<dyn ByteSource>,
        offset: usize,
        len: usize,
    ) -> Result<Self, String> {
        let mut cur = PackCursor::new(buf, offset, len)?;
        let model = BertMlmModel::read_tensors(&mut cur)?;
        let keys = usize::try_from(cur.read_u64()?)
            .ok()
            .filter(|n| n.checked_mul(8).and_then(|b| b.checked_add(8)) == Some(cur.remaining()))
            .ok_or("vocabulary does not fill the rest of the record")?;
        if Self::network_vocab_size(keys) != model.config.vocab_size {
            return Err(format!(
                "a vocabulary of {keys} keys does not fit a network head of {}",
                model.config.vocab_size
            ));
        }
        let vocab = Vocab::from_keys(cur.read_u64s(keys)?)?;
        let trained_tokens = cur.read_u64()?;
        cur.finish()?;
        Ok(Self {
            vocab,
            model,
            trained_tokens,
            quant: None,
        })
    }

    /// The network's vocabulary size for `regular` regular tokens: the
    /// specials plus the regulars, and never an empty regular range.
    fn network_vocab_size(regular: usize) -> usize {
        (Vocab::FIRST_REGULAR as usize + regular).max(Vocab::FIRST_REGULAR as usize + 1)
    }

    /// Trainable parameter count of the underlying network.
    pub fn param_count(&mut self) -> usize {
        self.model.param_count()
    }

    /// Builds the network input for one masked request: `[CLS] seq [SEP]`
    /// with `[MASK]` at the slot, windowed around the mask when the
    /// bracketed sequence exceeds the model's `max_seq_len`. Returns the
    /// token ids and the mask's index within them.
    fn build_masked_input(&self, seq: &[u64], pos: usize) -> (Vec<u32>, usize) {
        let mut ids = Vec::with_capacity(seq.len() + 2);
        ids.push(Vocab::CLS);
        for (i, &key) in seq.iter().enumerate() {
            ids.push(if i == pos {
                Vocab::MASK
            } else {
                self.vocab.id_of(key)
            });
        }
        ids.push(Vocab::SEP);
        // Clamp to the model's window around the mask if the sequence is
        // long (imputation sequences are short, but be safe).
        let max_len = self.model.config.max_seq_len;
        if ids.len() <= max_len {
            (ids, pos + 1)
        } else {
            let mask_at = pos + 1;
            let half = max_len / 2;
            let start = mask_at.saturating_sub(half).min(ids.len() - max_len);
            (ids[start..start + max_len].to_vec(), mask_at - start)
        }
    }
}

/// Ranks the regular-token probabilities of one masked slot: the `top_k`
/// highest-probability ids (ties broken by ascending id), each normalized
/// over the total regular mass.
///
/// Selection uses `select_nth_unstable_by` (O(vocab) expected) followed by a
/// sort of only the kept `top_k` entries, instead of sorting the full
/// vocabulary. The comparator is a total order (descending prob, then
/// ascending id), so the kept set and its order are exactly those of a full
/// descending sort. The normalization mass is summed in ascending-id order
/// — a fixed order independent of `top_k` and of how selection permutes the
/// array. (The pre-partial-top-k code summed in descending-sorted order;
/// f32 addition is order-sensitive, so normalized probabilities may differ
/// from that retired path in the last ulp. See DESIGN.md §10.)
fn rank_regulars(probs: &[f32], top_k: usize) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f32)> = probs
        .iter()
        .enumerate()
        .skip(Vocab::FIRST_REGULAR as usize)
        .map(|(id, &p)| (id as u32, p))
        .collect();
    let regular_mass: f32 = scored.iter().map(|(_, p)| p).sum();
    if regular_mass <= 0.0 {
        return Vec::new();
    }
    let by_rank = |a: &(u32, f32), b: &(u32, f32)| {
        b.1.partial_cmp(&a.1)
            .expect("finite probabilities")
            .then(a.0.cmp(&b.0))
    };
    if top_k < scored.len() {
        scored.select_nth_unstable_by(top_k, by_rank);
        scored.truncate(top_k);
    }
    scored.sort_unstable_by(by_rank);
    scored
        .into_iter()
        .map(|(id, p)| (id, (p / regular_mass) as f64))
        .collect()
}

impl BertMlm {
    /// One fused forward for `reqs`, each masked row ranked into its top-k
    /// candidates. With quantization enabled the int8 weights run instead;
    /// their accuracy is gated upstream before enablement.
    fn predict_ranked<S: AsRef<[u64]>>(
        &self,
        reqs: &[(S, usize)],
        top_k: usize,
    ) -> Vec<Vec<Candidate>> {
        for (seq, pos) in reqs {
            assert!(*pos < seq.as_ref().len(), "mask position {pos} out of range");
        }
        if top_k == 0 || self.vocab.is_empty() {
            return vec![Vec::new(); reqs.len()];
        }
        let inputs: Vec<(Vec<u32>, usize)> = reqs
            .iter()
            .map(|(seq, pos)| self.build_masked_input(seq.as_ref(), *pos))
            .collect();
        let views: Vec<(&[u32], usize)> = inputs
            .iter()
            .map(|(ids, mask)| (ids.as_slice(), *mask))
            .collect();
        INFER_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            // Grad-free forward + masked-row head; row `i` is bit-identical
            // to `self.model.predict` on `reqs[i]` alone (property-tested).
            let probs = match &self.quant {
                Some(q) => self.model.predict_batch_quant_with(q, &mut scratch, &views),
                None => self.model.predict_batch_with(&mut scratch, &views),
            };
            (0..reqs.len())
                .map(|i| {
                    rank_regulars(probs.row(i), top_k)
                        .into_iter()
                        .filter_map(|(id, prob)| {
                            self.vocab.key_of(id).map(|key| Candidate { key, prob })
                        })
                        .collect()
                })
                .collect()
        })
    }
}

impl MaskedTokenModel for BertMlm {
    fn predict_masked(&self, seq: &[u64], pos: usize, top_k: usize) -> Vec<Candidate> {
        self.predict_ranked(&[(seq, pos)], top_k)
            .pop()
            .expect("one answer per request")
    }

    fn predict_masked_batch(&self, reqs: &[(Vec<u64>, usize)], top_k: usize) -> Vec<Vec<Candidate>> {
        self.predict_ranked(reqs, top_k)
    }

    fn vocab_len(&self) -> usize {
        self.vocab.regular_len()
    }

    fn trained_tokens(&self) -> u64 {
        self.trained_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_deterministic_chain() {
        let corpus: Vec<Vec<u64>> = (0..40).map(|_| vec![11u64, 22, 33, 44]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let preds = model.predict_masked(&[11, 22, 0, 44], 2, 4);
        assert!(!preds.is_empty());
        assert_eq!(preds[0].key, 33, "predictions: {preds:?}");
    }

    #[test]
    fn candidate_probs_are_normalized_over_regulars() {
        let corpus: Vec<Vec<u64>> = (0..20).map(|_| vec![1u64, 2, 3]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let all = model.predict_masked(&[1, 0, 3], 1, usize::MAX);
        let sum: f64 = all.iter().map(|c| c.prob).sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
    }

    #[test]
    fn empty_corpus_predicts_nothing() {
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &[]);
        assert!(model.predict_masked(&[5, 0, 6], 1, 3).is_empty());
        assert_eq!(model.vocab_len(), 0);
    }

    #[test]
    fn unknown_context_tokens_do_not_panic() {
        let corpus: Vec<Vec<u64>> = (0..10).map(|_| vec![1u64, 2, 3]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let preds = model.predict_masked(&[777, 0, 888], 1, 3);
        assert!(!preds.is_empty());
    }

    /// The retired full-sort ranking, kept as the test reference (mass in
    /// ascending-id order, matching the live implementation's definition).
    fn rank_regulars_reference(probs: &[f32], top_k: usize) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f32)> = probs
            .iter()
            .enumerate()
            .skip(Vocab::FIRST_REGULAR as usize)
            .map(|(id, &p)| (id as u32, p))
            .collect();
        let regular_mass: f32 = scored.iter().map(|(_, p)| p).sum();
        if regular_mass <= 0.0 {
            return Vec::new();
        }
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probabilities")
                .then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .take(top_k)
            .map(|(id, p)| (id, (p / regular_mass) as f64))
            .collect()
    }

    #[test]
    fn partial_topk_matches_full_sort_including_ties() {
        // Distributions with duplicate probabilities, zeros, and values in
        // special-token slots (which must be skipped, not ranked).
        let cases: Vec<Vec<f32>> = vec![
            vec![0.5, 0.1, 0.1, 0.05, 0.05, 0.08, 0.02, 0.08, 0.02, 0.1],
            vec![0.0; 12],
            vec![0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
            vec![0.9, 0.0, 0.0, 0.0, 0.0, 0.025, 0.025, 0.025, 0.025],
            (0..40).map(|i| ((i * 7) % 11) as f32 / 100.0).collect(),
        ];
        for probs in &cases {
            let regulars = probs.len() - Vocab::FIRST_REGULAR as usize;
            for top_k in [0, 1, 2, 3, regulars, regulars + 5, usize::MAX] {
                let got = rank_regulars(probs, top_k);
                let want = rank_regulars_reference(probs, top_k);
                assert_eq!(got, want, "diverged at top_k={top_k} on {probs:?}");
            }
        }
    }

    #[test]
    fn topk_ties_break_by_ascending_id() {
        // Ids 5..9 all share the top probability; top-3 must be 5, 6, 7.
        let mut probs = vec![0.0f32; 10];
        probs[5..10].fill(0.2);
        let got = rank_regulars(&probs, 3);
        let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![5, 6, 7]);
    }

    #[test]
    fn batched_predictions_match_single_calls() {
        let corpus: Vec<Vec<u64>> = (0..30).map(|_| vec![11u64, 22, 33, 44, 55]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let reqs: Vec<(Vec<u64>, usize)> = vec![
            (vec![11, 22, 0, 44, 55], 2),
            (vec![11, 0, 33], 1),
            (vec![22, 33, 44, 0], 3),
            (vec![777, 0, 888], 1),
        ];
        let batched = model.predict_masked_batch(&reqs, 4);
        assert_eq!(batched.len(), reqs.len());
        for (i, (seq, pos)) in reqs.iter().enumerate() {
            let single = model.predict_masked(seq, *pos, 4);
            assert_eq!(batched[i].len(), single.len(), "request {i}");
            for (a, b) in batched[i].iter().zip(&single) {
                assert_eq!(a.key, b.key, "request {i}");
                assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "request {i}");
            }
        }
    }

    #[test]
    fn quantized_model_still_learns_the_chain() {
        let corpus: Vec<Vec<u64>> = (0..40).map(|_| vec![11u64, 22, 33, 44]).collect();
        let mut model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        assert!(!model.is_quantized());
        model.enable_quantization();
        assert!(model.is_quantized());
        let preds = model.predict_masked(&[11, 22, 0, 44], 2, 4);
        assert!(!preds.is_empty());
        assert_eq!(preds[0].key, 33, "int8 predictions: {preds:?}");
        model.disable_quantization();
        assert!(!model.is_quantized());
    }

    #[test]
    fn quantization_agreement_is_high_on_a_trained_model() {
        let corpus: Vec<Vec<u64>> = (0..40).map(|_| vec![1u64, 2, 3, 4, 5]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let agreement = model.quantization_agreement(64, 0xA9EE);
        assert!(
            agreement >= 0.9,
            "int8 top-1 agreement collapsed: {agreement}"
        );
        // Deterministic for a fixed seed.
        assert_eq!(agreement, model.quantization_agreement(64, 0xA9EE));
    }

    #[test]
    fn quantized_batch_matches_quantized_single_calls() {
        let corpus: Vec<Vec<u64>> = (0..30).map(|_| vec![11u64, 22, 33, 44, 55]).collect();
        let mut model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        model.enable_quantization();
        let reqs: Vec<(Vec<u64>, usize)> =
            vec![(vec![11, 22, 0, 44, 55], 2), (vec![11, 0, 33], 1)];
        let batched = model.predict_masked_batch(&reqs, 4);
        for (i, (seq, pos)) in reqs.iter().enumerate() {
            let single = model.predict_masked(seq, *pos, 4);
            assert_eq!(batched[i].len(), single.len(), "request {i}");
            for (a, b) in batched[i].iter().zip(&single) {
                assert_eq!(a.key, b.key, "request {i}");
                assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "request {i}");
            }
        }
    }

    #[test]
    fn installed_packed_artifact_predicts_bit_identically() {
        let corpus: Vec<Vec<u64>> = (0..30).map(|_| vec![11u64, 22, 33, 44, 55]).collect();
        let mut model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        model.enable_quantization();
        let owned = model.predict_masked(&[11, 22, 0, 44, 55], 2, 4);

        // Pack the artifact and re-install it as a zero-copy view — the
        // store serving path. Integer weight math is exact, so the view
        // must reproduce the owned artifact's predictions bit-for-bit.
        let packed: std::sync::Arc<dyn kamel_nn::ByteSource> =
            std::sync::Arc::new(model.build_quant_artifact().write_packed());
        let len = packed.bytes().len();
        let view = QuantizedBertMlm::read_packed(std::sync::Arc::clone(&packed), 0, len)
            .expect("read packed artifact");
        let mut served = model.clone();
        served.disable_quantization();
        served.install_quantization(view).expect("install view");
        assert!(served.is_quantized());
        let mapped = served.predict_masked(&[11, 22, 0, 44, 55], 2, 4);
        assert_eq!(owned.len(), mapped.len());
        for (a, b) in owned.iter().zip(&mapped) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
    }

    #[test]
    fn install_rejects_mismatched_artifact() {
        let corpus: Vec<Vec<u64>> = (0..10).map(|_| vec![7u64, 8, 9]).collect();
        let mut small = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let wide: Vec<Vec<u64>> = (0..10).map(|i| vec![i as u64, i as u64 + 50]).collect();
        let other = BertMlm::train(&BertEngineConfig::for_tests(), &wide);
        let artifact = other.build_quant_artifact();
        if artifact.matches(&small.model) {
            // Identical shapes by construction would make this vacuous;
            // the configs' vocabs differ, so the head dims must differ.
            panic!("test models unexpectedly share a shape");
        }
        assert!(small.install_quantization(artifact).is_err());
        assert!(!small.is_quantized());
    }

    #[test]
    fn quantization_survives_serde_as_disabled() {
        let corpus: Vec<Vec<u64>> = (0..10).map(|_| vec![7u64, 8, 9]).collect();
        let mut model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        model.enable_quantization();
        let json = serde_json::to_string(&model).expect("serialize");
        let back: BertMlm = serde_json::from_str(&json).expect("deserialize");
        // The int8 artifact is derived state: it does not persist and must
        // be re-enabled (and re-gated) after a load.
        assert!(!back.is_quantized());
    }

    fn read_back(record: Vec<u8>) -> Result<BertMlm, String> {
        let len = record.len();
        let buf: Arc<dyn ByteSource> = Arc::new(record);
        BertMlm::read_record(&buf, 0, len)
    }

    #[test]
    fn binary_record_round_trips_predictions_bit_identically() {
        let corpus: Vec<Vec<u64>> = (0..30).map(|_| vec![11u64, 22, 33, 44, 55]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        let record = model.write_record();
        assert_eq!(record.len() % 8, 0, "fields sit on 8-byte boundaries");
        let back = read_back(record).expect("a written record reads back");
        assert_eq!(back.vocab().keys(), model.vocab().keys());
        assert_eq!(back.trained_tokens(), model.trained_tokens());
        assert!(!back.is_quantized());
        for (seq, pos) in [(vec![11u64, 22, 0, 44, 55], 2), (vec![777, 0, 33], 1)] {
            let want = model.predict_masked(&seq, pos, 5);
            let got = back.predict_masked(&seq, pos, 5);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!((a.key, a.prob.to_bits()), (b.key, b.prob.to_bits()));
            }
        }
        // An untrained model (no regular token) is a valid record too.
        let empty = BertMlm::train(&BertEngineConfig::for_tests(), &[]);
        let empty = read_back(empty.write_record()).expect("empty");
        assert_eq!(empty.vocab_len(), 0);
    }

    #[test]
    fn binary_record_rejects_a_vocabulary_that_does_not_fit() {
        let corpus: Vec<Vec<u64>> = (0..10).map(|_| vec![7u64, 8, 9]).collect();
        let record = BertMlm::train(&BertEngineConfig::for_tests(), &corpus).write_record();
        // Layout tail: … | count u64 | 3 keys | trained_tokens u64.
        let count_at = record.len() - 8 * 5;

        let mut extended = record.clone();
        extended.extend_from_slice(&[0u8; 8]);
        assert!(read_back(extended).is_err(), "a trailing word was accepted");
        assert!(read_back(record[..record.len() - 1].to_vec()).is_err());

        // One key fewer, with the record shortened to match: the framing is
        // consistent, but the network's head was built for three.
        let mut fewer = record.clone();
        fewer[count_at..count_at + 8].copy_from_slice(&2u64.to_le_bytes());
        fewer.drain(count_at + 8..count_at + 16);
        let err = read_back(fewer).expect_err("vocabulary smaller than the head");
        assert!(err.contains("does not fit"), "{err}");

        // A count that claims more than the record holds never allocates.
        let mut huge = record.clone();
        huge[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_back(huge).is_err());

        let mut repeated = record.clone();
        let first_key = record[count_at + 8..count_at + 16].to_vec();
        repeated[count_at + 16..count_at + 24].copy_from_slice(&first_key);
        let err = read_back(repeated).expect_err("repeated key");
        assert!(err.contains("repeats"), "{err}");
    }

    #[test]
    fn long_sequences_are_windowed() {
        let corpus: Vec<Vec<u64>> = (0..5).map(|_| vec![1u64, 2, 3]).collect();
        let model = BertMlm::train(&BertEngineConfig::for_tests(), &corpus);
        // Tiny config caps sequences at 64; feed 200 with the mask deep
        // inside.
        let long: Vec<u64> = (0..200).map(|i| 1 + (i % 3) as u64).collect();
        let preds = model.predict_masked(&long, 150, 2);
        assert!(!preds.is_empty());
    }
}
