//! BERT MLM pretraining loop.
//!
//! Implements the Devlin et al. masking recipe the paper relies on: 15% of
//! positions are selected; of those 80% become `[MASK]`, 10% a random token,
//! 10% keep the original. KAMEL's Partitioning module drives this trainer
//! once per pyramid-cell model.

use crate::bert::BertMlmModel;
use crate::optim::Adam;
use kamel_rng::Rng;

/// Options controlling one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sequences whose gradients are accumulated before each optimizer step.
    pub batch_size: usize,
    /// Fraction of positions selected for prediction (BERT: 0.15).
    pub mask_prob: f64,
    /// Fraction of total optimizer steps spent linearly warming the
    /// learning rate from 0 to `lr`, after which it decays linearly to 0 —
    /// the original BERT schedule. 0 disables scheduling.
    pub warmup_frac: f64,
    /// Embedding dropout probability during training (BERT uses 0.1 at
    /// corpus scale; the tiny CPU models default to 0 because they underfit
    /// rather than overfit).
    pub dropout: f32,
    /// RNG seed for masking and shuffling (training is deterministic).
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 10,
            lr: 1e-3,
            batch_size: 8,
            mask_prob: 0.15,
            warmup_frac: 0.1,
            dropout: 0.0,
            seed: 0x5EED,
        }
    }
}

/// The BERT learning-rate schedule: linear warmup to the base rate over
/// `warmup` steps, then linear decay to zero at `total` steps.
pub fn scheduled_lr(base_lr: f32, step: usize, warmup: usize, total: usize) -> f32 {
    if warmup == 0 && total == 0 {
        return base_lr;
    }
    if step < warmup {
        return base_lr * (step + 1) as f32 / warmup.max(1) as f32;
    }
    if total <= warmup {
        return base_lr;
    }
    let remaining = (total - step) as f32 / (total - warmup) as f32;
    base_lr * remaining.clamp(0.0, 1.0)
}

/// Generates masked MLM examples from raw token sequences.
#[derive(Debug, Clone)]
pub struct MlmBatcher {
    /// Id of the `[MASK]` token.
    pub mask_id: u32,
    /// Half-open range of ordinary (non-special) token ids used for the
    /// 10% random-replacement branch.
    pub random_range: (u32, u32),
    /// Fraction of positions selected for prediction.
    pub mask_prob: f64,
    /// Positions never selected (e.g. `[CLS]`/`[SEP]` markers at the ends).
    pub protect_ends: bool,
}

impl MlmBatcher {
    /// Creates a batcher with the standard 15% / 80-10-10 recipe.
    pub fn new(mask_id: u32, random_range: (u32, u32)) -> Self {
        assert!(random_range.1 > random_range.0, "empty random token range");
        Self {
            mask_id,
            random_range,
            mask_prob: 0.15,
            protect_ends: true,
        }
    }

    /// Produces a masked copy of `seq` and its per-position labels.
    ///
    /// Guarantees at least one selected position for sequences with any
    /// maskable position (otherwise a short sequence could contribute
    /// nothing to training).
    pub fn mask(&self, seq: &[u32], rng: &mut Rng) -> (Vec<u32>, Vec<Option<u32>>) {
        let mut ids = seq.to_vec();
        let mut labels = vec![None; seq.len()];
        let lo = if self.protect_ends && seq.len() > 2 { 1 } else { 0 };
        let hi = if self.protect_ends && seq.len() > 2 {
            seq.len() - 1
        } else {
            seq.len()
        };
        if lo >= hi {
            return (ids, labels);
        }
        let mut any = false;
        for i in lo..hi {
            if rng.bool(self.mask_prob) {
                self.apply_at(&mut ids, &mut labels, seq, i, rng);
                any = true;
            }
        }
        if !any {
            let i = rng.range(lo..hi);
            self.apply_at(&mut ids, &mut labels, seq, i, rng);
        }
        (ids, labels)
    }

    fn apply_at(
        &self,
        ids: &mut [u32],
        labels: &mut [Option<u32>],
        orig: &[u32],
        i: usize,
        rng: &mut Rng,
    ) {
        labels[i] = Some(orig[i]);
        let roll = rng.f64();
        if roll < 0.8 {
            ids[i] = self.mask_id;
        } else if roll < 0.9 {
            ids[i] = rng.range(self.random_range.0..self.random_range.1);
        } // else: keep original token
    }
}

/// Runs MLM training over a corpus of token sequences.
pub struct Trainer {
    batcher: MlmBatcher,
    options: TrainOptions,
}

impl Trainer {
    /// Creates a trainer from a batcher and options (the batcher's
    /// `mask_prob` is overridden by the options).
    pub fn new(mut batcher: MlmBatcher, options: TrainOptions) -> Self {
        batcher.mask_prob = options.mask_prob;
        Self { batcher, options }
    }

    /// Trains `model` in place; returns the mean loss per epoch.
    ///
    /// Sequences longer than the model's `max_seq_len` are split into
    /// overlapping windows so no training signal is dropped.
    pub fn train(&self, model: &mut BertMlmModel, corpus: &[Vec<u32>]) -> Vec<f32> {
        let mut rng = Rng::seed_from_u64(self.options.seed);
        let max_len = model.config.max_seq_len;
        let mut windows: Vec<Vec<u32>> = Vec::new();
        for seq in corpus {
            if seq.len() < 2 {
                continue;
            }
            if seq.len() <= max_len {
                windows.push(seq.clone());
            } else {
                // 50% overlapping windows keep cross-window context.
                let stride = max_len / 2;
                let mut start = 0;
                while start + 2 < seq.len() {
                    let end = (start + max_len).min(seq.len());
                    windows.push(seq[start..end].to_vec());
                    if end == seq.len() {
                        break;
                    }
                    start += stride;
                }
            }
        }
        // A model read back from a binary record carries no optimizer state.
        for p in model.params() {
            p.ensure_optimizer_state();
        }
        let mut opt = Adam::new(self.options.lr);
        // BERT schedule: warmup then linear decay over the whole run.
        let steps_per_epoch = windows.len().div_ceil(self.options.batch_size.max(1));
        let total_steps = steps_per_epoch * self.options.epochs;
        let warmup_steps = (total_steps as f64 * self.options.warmup_frac.clamp(0.0, 1.0)) as usize;
        let schedule_on = self.options.warmup_frac > 0.0;
        let mut step = 0usize;
        let mut history = Vec::with_capacity(self.options.epochs);
        for _ in 0..self.options.epochs {
            rng.shuffle(&mut windows);
            let mut epoch_loss = 0.0f64;
            let mut examples = 0usize;
            for chunk in windows.chunks(self.options.batch_size.max(1)) {
                for seq in chunk {
                    let (ids, labels) = self.batcher.mask(seq, &mut rng);
                    epoch_loss += model
                        .train_example_dropout(&ids, &labels, self.options.dropout, &mut rng)
                        as f64;
                    examples += 1;
                }
                if schedule_on {
                    opt.lr = scheduled_lr(self.options.lr, step, warmup_steps, total_steps);
                }
                opt.step(&mut model.params());
                model.zero_grads();
                step += 1;
            }
            history.push(if examples > 0 {
                (epoch_loss / examples as f64) as f32
            } else {
                0.0
            });
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::BertConfig;

    #[test]
    fn masking_selects_and_labels_consistently() {
        let batcher = MlmBatcher::new(1, (4, 20));
        let mut rng = Rng::seed_from_u64(1);
        let seq: Vec<u32> = (4..16).collect();
        let (ids, labels) = batcher.mask(&seq, &mut rng);
        assert_eq!(ids.len(), seq.len());
        let mut selected = 0;
        for i in 0..seq.len() {
            match labels[i] {
                Some(orig) => {
                    assert_eq!(orig, seq[i], "label must be the original token");
                    selected += 1;
                }
                None => assert_eq!(ids[i], seq[i], "unselected positions unchanged"),
            }
        }
        assert!(selected >= 1);
    }

    #[test]
    fn protect_ends_never_masks_boundaries() {
        let batcher = MlmBatcher::new(1, (4, 20));
        let mut rng = Rng::seed_from_u64(2);
        let seq: Vec<u32> = (4..12).collect();
        for _ in 0..200 {
            let (_, labels) = batcher.mask(&seq, &mut rng);
            assert!(labels[0].is_none());
            assert!(labels[seq.len() - 1].is_none());
        }
    }

    #[test]
    fn masking_rate_is_roughly_15_percent() {
        let batcher = MlmBatcher::new(1, (4, 100));
        let mut rng = Rng::seed_from_u64(3);
        let seq: Vec<u32> = (4..104).collect();
        let mut total = 0usize;
        for _ in 0..100 {
            let (_, labels) = batcher.mask(&seq, &mut rng);
            total += labels.iter().flatten().count();
        }
        let rate = total as f64 / (100.0 * 98.0); // 98 maskable positions
        assert!((0.10..0.20).contains(&rate), "rate {rate}");
    }

    #[test]
    fn short_sequences_get_at_least_one_mask() {
        let batcher = MlmBatcher::new(1, (4, 20));
        let mut rng = Rng::seed_from_u64(4);
        let seq = [4u32, 5, 6];
        for _ in 0..50 {
            let (_, labels) = batcher.mask(&seq, &mut rng);
            assert_eq!(labels.iter().flatten().count(), 1);
            assert!(labels[1].is_some());
        }
    }

    #[test]
    fn training_learns_a_bigram_corpus() {
        // Corpus: sequences follow the chain 4 -> 5 -> 6 -> 7. A trained
        // model must put most mask probability on the chain token.
        let corpus: Vec<Vec<u32>> = (0..40).map(|_| vec![4u32, 5, 6, 7]).collect();
        let mut rng = Rng::seed_from_u64(5);
        let mut model = BertMlmModel::new(BertConfig::tiny(8), &mut rng);
        let trainer = Trainer::new(
            MlmBatcher::new(1, (4, 8)),
            TrainOptions {
                epochs: 14,
                lr: 3e-3,
                batch_size: 8,
                ..TrainOptions::default()
            },
        );
        let history = trainer.train(&mut model, &corpus);
        assert!(
            history.last().unwrap() < &history[0],
            "loss should decrease: {history:?}"
        );
        // Mask the middle of 4 ? 6 7: the answer is 5.
        let p = model.predict(&[4, 1, 6, 7], 1);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 5, "probs {p:?}");
    }

    #[test]
    fn training_with_dropout_still_learns() {
        let corpus: Vec<Vec<u32>> = (0..40).map(|_| vec![4u32, 5, 6, 7]).collect();
        let mut rng = Rng::seed_from_u64(12);
        let mut model = BertMlmModel::new(BertConfig::tiny(8), &mut rng);
        let trainer = Trainer::new(
            MlmBatcher::new(1, (4, 8)),
            TrainOptions {
                epochs: 16,
                lr: 3e-3,
                batch_size: 8,
                dropout: 0.1,
                ..TrainOptions::default()
            },
        );
        let history = trainer.train(&mut model, &corpus);
        assert!(history.last().unwrap() < &history[0], "{history:?}");
        let p = model.predict(&[4, 1, 6, 7], 1);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 5, "dropout training failed to learn: {p:?}");
    }

    #[test]
    fn lr_schedule_warms_up_then_decays() {
        let base = 1e-3f32;
        // Warmup phase climbs monotonically to the base rate.
        assert!(scheduled_lr(base, 0, 10, 100) < scheduled_lr(base, 5, 10, 100));
        assert!((scheduled_lr(base, 9, 10, 100) - base).abs() < 1e-9);
        // Decay phase falls monotonically to zero.
        assert!(scheduled_lr(base, 50, 10, 100) > scheduled_lr(base, 90, 10, 100));
        assert!(scheduled_lr(base, 100, 10, 100) <= 1e-9);
        // Disabled schedule returns the base rate.
        assert_eq!(scheduled_lr(base, 7, 0, 0), base);
    }

    #[test]
    fn long_sequences_are_windowed_not_dropped() {
        let mut rng = Rng::seed_from_u64(6);
        let mut model = BertMlmModel::new(BertConfig::tiny(8), &mut rng);
        let long: Vec<u32> = (0..500).map(|i| 4 + (i % 4) as u32).collect();
        let trainer = Trainer::new(
            MlmBatcher::new(1, (4, 8)),
            TrainOptions {
                epochs: 1,
                ..TrainOptions::default()
            },
        );
        // Must not panic on the > max_seq_len input.
        let history = trainer.train(&mut model, &[long]);
        assert_eq!(history.len(), 1);
        assert!(history[0].is_finite() && history[0] > 0.0);
    }
}
