//! The BERT masked-language model over trajectory tokens.
//!
//! Faithful to Devlin et al. as the paper requires (§8 uses the original
//! architecture): learned token + position embeddings, an embedding
//! LayerNorm, a stack of encoder layers, and a vocab projection head. The
//! training objective is masked cross-entropy over the masked positions
//! only. The *scale* (hidden width, depth) is configurable; KAMEL's
//! pyramid trains one such model per spatial cell.

use crate::encoder::{EncoderCache, EncoderLayer};
use crate::layers::{
    dropout_backward, dropout_forward, softmax_rows, Embedding, LayerNorm, Linear, LnCache, Param,
};
use crate::matrix::Matrix;
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a BERT MLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BertConfig {
    /// Vocabulary size including special tokens.
    pub vocab_size: usize,
    /// Hidden width (the paper's deployment uses 768; CPU-scale defaults are
    /// much smaller).
    pub hidden: usize,
    /// Number of encoder layers (paper: 12).
    pub n_layers: usize,
    /// Number of attention heads (paper: 12).
    pub n_heads: usize,
    /// Feed-forward width (paper: 4×hidden).
    pub ff_dim: usize,
    /// Maximum sequence length the position table supports.
    pub max_seq_len: usize,
}

impl BertConfig {
    /// A CPU-trainable configuration suitable for tests and the quickstart.
    pub fn tiny(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 32,
            n_layers: 2,
            n_heads: 2,
            ff_dim: 64,
            max_seq_len: 64,
        }
    }

    /// A mid-size configuration for the BERT-path benchmarks.
    pub fn small(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 64,
            n_layers: 4,
            n_heads: 4,
            ff_dim: 128,
            max_seq_len: 128,
        }
    }

    /// The paper's deployment configuration (768/12/12). Provided for
    /// completeness; training it is a TPU-scale job, not a test-scale one.
    pub fn paper(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 768,
            n_layers: 12,
            n_heads: 12,
            ff_dim: 3072,
            max_seq_len: 512,
        }
    }
}

/// The full masked-language model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BertMlmModel {
    /// Hyper-parameters.
    pub config: BertConfig,
    pub(crate) tok_emb: Embedding,
    pub(crate) pos_emb: Embedding,
    pub(crate) emb_ln: LayerNorm,
    pub(crate) layers: Vec<EncoderLayer>,
    /// Projection from hidden states to vocabulary logits.
    pub(crate) out: Linear,
}

/// Forward state needed for a training backward pass.
pub struct BertCache {
    ids: Vec<u32>,
    pos_ids: Vec<u32>,
    emb_ln: LnCache,
    /// Dropout mask over the embedding block (training only).
    emb_dropout: Option<Matrix>,
    /// Input to each encoder layer (index 0 = embeddings after LN).
    layer_inputs: Vec<Matrix>,
    layer_caches: Vec<EncoderCache>,
    /// Final hidden states (input of the output projection).
    hidden: Matrix,
}

impl BertMlmModel {
    /// Initializes a model with the given config, deterministically under a
    /// seeded RNG.
    pub fn new(config: BertConfig, rng: &mut Rng) -> Self {
        assert!(config.vocab_size > 0, "empty vocabulary");
        let mut layers = Vec::with_capacity(config.n_layers);
        for _ in 0..config.n_layers {
            layers.push(EncoderLayer::new(
                config.hidden,
                config.n_heads,
                config.ff_dim,
                rng,
            ));
        }
        Self {
            config,
            tok_emb: Embedding::new(config.vocab_size, config.hidden, rng),
            pos_emb: Embedding::new(config.max_seq_len, config.hidden, rng),
            emb_ln: LayerNorm::new(config.hidden),
            layers,
            out: Linear::new(config.hidden, config.vocab_size, rng),
        }
    }

    /// Number of trainable scalar parameters.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.count()).sum()
    }

    /// Runs the encoder and returns `[n, vocab]` logits plus the cache for a
    /// backward pass.
    ///
    /// Sequences longer than `max_seq_len` are rejected; KAMEL's Partitioning
    /// module never produces them (trajectory windows are bounded).
    pub fn forward(&self, ids: &[u32], valid: Option<&[bool]>) -> (Matrix, BertCache) {
        self.forward_impl(ids, valid, None)
    }

    fn forward_impl(
        &self,
        ids: &[u32],
        valid: Option<&[bool]>,
        dropout: Option<(f32, &mut Rng)>,
    ) -> (Matrix, BertCache) {
        assert!(
            ids.len() <= self.config.max_seq_len,
            "sequence length {} exceeds max {}",
            ids.len(),
            self.config.max_seq_len
        );
        assert!(!ids.is_empty(), "empty sequence");
        let pos_ids: Vec<u32> = (0..ids.len() as u32).collect();
        let mut emb = self.tok_emb.forward(ids);
        emb.add_assign(&self.pos_emb.forward(&pos_ids));
        let (mut x0, emb_ln_cache) = self.emb_ln.forward(&emb);
        let emb_dropout = dropout.map(|(p, rng)| {
            let (dropped, mask) = dropout_forward(&x0, p, rng);
            x0 = dropped;
            mask
        });
        let mut layer_inputs = Vec::with_capacity(self.layers.len());
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        let mut x = x0;
        for layer in &self.layers {
            layer_inputs.push(x.clone());
            let (next, cache) = layer.forward(&x, valid);
            layer_caches.push(cache);
            x = next;
        }
        let logits = self.out.forward(&x);
        (
            logits,
            BertCache {
                ids: ids.to_vec(),
                pos_ids,
                emb_ln: emb_ln_cache,
                emb_dropout,
                layer_inputs,
                layer_caches,
                hidden: x,
            },
        )
    }

    /// Probability distribution over the vocabulary for position `pos`
    /// ("call BERT" on a sequence with a `[MASK]` at the gap).
    ///
    /// This is the *reference* implementation: it reuses the training
    /// forward, so it builds the full backward cache and a
    /// `[seq_len × vocab]` logits matrix just to read one row. The serving
    /// hot path uses the grad-free, allocation-free
    /// [`BertMlmModel::predict_with`] /
    /// [`BertMlmModel::predict_batch_with`] from [`crate::infer`], which
    /// are bit-identical to this method (property-tested).
    pub fn predict(&self, ids: &[u32], pos: usize) -> Vec<f32> {
        assert!(pos < ids.len(), "position {pos} out of range");
        let (logits, _) = self.forward(ids, None);
        let mut row = Matrix::from_vec(1, logits.cols(), logits.row(pos).to_vec());
        softmax_rows(&mut row);
        row.data().to_vec()
    }

    /// One training example: masked cross-entropy on `labels` (label =
    /// `None` at unmasked positions). Accumulates gradients; returns the
    /// mean loss over masked positions (0 when nothing is masked).
    pub fn train_example(&mut self, ids: &[u32], labels: &[Option<u32>]) -> f32 {
        self.train_example_inner(ids, labels, None)
    }

    /// [`BertMlmModel::train_example`] with embedding dropout.
    pub fn train_example_dropout(
        &mut self,
        ids: &[u32],
        labels: &[Option<u32>],
        dropout_p: f32,
        rng: &mut Rng,
    ) -> f32 {
        if dropout_p <= 0.0 {
            return self.train_example_inner(ids, labels, None);
        }
        self.train_example_inner(ids, labels, Some((dropout_p, rng)))
    }

    fn train_example_inner(
        &mut self,
        ids: &[u32],
        labels: &[Option<u32>],
        dropout: Option<(f32, &mut Rng)>,
    ) -> f32 {
        assert_eq!(ids.len(), labels.len());
        let (logits, cache) = self.forward_impl(ids, None, dropout);
        let n_masked = labels.iter().flatten().count();
        if n_masked == 0 {
            return 0.0;
        }
        // Softmax + CE combined: dlogits = (softmax - onehot)/n at masked
        // rows, zero elsewhere.
        let mut probs = logits.clone();
        softmax_rows(&mut probs);
        let mut loss = 0.0f32;
        let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
        let inv = 1.0 / n_masked as f32;
        for (r, label) in labels.iter().enumerate() {
            if let Some(target) = label {
                let t = *target as usize;
                let p = probs.get(r, t).max(1e-12);
                loss -= p.ln();
                let drow = dlogits.row_mut(r);
                drow.copy_from_slice(probs.row(r));
                drow.iter_mut().for_each(|v| *v *= inv);
                drow[t] -= inv;
            }
        }
        self.backward(&cache, &dlogits);
        loss * inv
    }

    /// Backward pass from `dlogits` through the whole network.
    fn backward(&mut self, cache: &BertCache, dlogits: &Matrix) {
        let mut dx = self.out.backward(&cache.hidden, dlogits);
        for (layer, (input, lcache)) in self
            .layers
            .iter_mut()
            .zip(cache.layer_inputs.iter().zip(&cache.layer_caches))
            .rev()
        {
            let _ = input; // inputs are captured inside the layer caches
            dx = layer.backward(lcache, &dx);
        }
        let dx = match &cache.emb_dropout {
            Some(mask) => dropout_backward(mask, &dx),
            None => dx,
        };
        let demb = self.emb_ln.backward(&cache.emb_ln, &dx);
        self.tok_emb.backward(&cache.ids, &demb);
        self.pos_emb.backward(&cache.pos_ids, &demb);
    }

    /// All trainable parameters for the optimizer.
    pub fn params(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = vec![
            &mut self.tok_emb.table,
            &mut self.pos_emb.table,
            &mut self.emb_ln.gamma,
            &mut self.emb_ln.beta,
        ];
        for layer in &mut self.layers {
            out.extend(layer.params());
        }
        out.extend(self.out.params());
        out
    }

    /// Clears every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_rng::Rng;

    #[test]
    fn forward_produces_finite_logits() {
        let mut rng = Rng::seed_from_u64(21);
        let model = BertMlmModel::new(BertConfig::tiny(16), &mut rng);
        let (logits, _) = model.forward(&[1, 2, 3, 4], None);
        assert_eq!((logits.rows(), logits.cols()), (4, 16));
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn predict_is_a_distribution() {
        let mut rng = Rng::seed_from_u64(22);
        let model = BertMlmModel::new(BertConfig::tiny(10), &mut rng);
        let p = model.predict(&[1, 2, 3], 1);
        assert_eq!(p.len(), 10);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn training_reduces_loss_on_a_deterministic_pattern() {
        // Corpus rule: token 3 is always between 2 and 4. The model must
        // learn to predict 3 for a mask in that context.
        let mut rng = Rng::seed_from_u64(23);
        let mut model = BertMlmModel::new(BertConfig::tiny(8), &mut rng);
        let mut opt = crate::optim::Adam::new(1e-2);
        let ids = [2u32, 7, 4]; // 7 plays the role of [MASK]
        let labels = [None, Some(3u32), None];
        let first = model.train_example(&ids, &labels);
        opt.step(&mut model.params());
        model.zero_grads();
        let mut last = first;
        for _ in 0..60 {
            last = model.train_example(&ids, &labels);
            opt.step(&mut model.params());
            model.zero_grads();
        }
        assert!(
            last < first * 0.2,
            "loss did not drop: first {first}, last {last}"
        );
        let p = model.predict(&ids, 1);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 3, "model failed to learn the pattern: {p:?}");
    }

    #[test]
    fn no_masked_positions_is_a_noop() {
        let mut rng = Rng::seed_from_u64(24);
        let mut model = BertMlmModel::new(BertConfig::tiny(8), &mut rng);
        let loss = model.train_example(&[1, 2, 3], &[None, None, None]);
        assert_eq!(loss, 0.0);
        assert!(model.params().iter().all(|p| p.g.norm_sq() == 0.0));
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = Rng::seed_from_u64(25);
        let cfg = BertConfig::tiny(100);
        let mut model = BertMlmModel::new(cfg, &mut rng);
        let h = cfg.hidden;
        let expected =
            // token + position embeddings
            100 * h + cfg.max_seq_len * h
            // embedding LN
            + 2 * h
            // per layer: 4 attn linears + 2 ffn linears + 2 LN
            + cfg.n_layers * (4 * (h * h + h) + (h * cfg.ff_dim + cfg.ff_dim) + (cfg.ff_dim * h + h) + 4 * h)
            // output projection
            + h * 100 + 100;
        assert_eq!(model.param_count(), expected);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn rejects_overlong_sequence() {
        let mut rng = Rng::seed_from_u64(26);
        let model = BertMlmModel::new(BertConfig::tiny(8), &mut rng);
        let ids = vec![1u32; 65];
        let _ = model.forward(&ids, None);
    }
}
