//! Grad-free batched inference engine for the BERT hot path.
//!
//! KAMEL's online path ("call BERT" per candidate per position during gap
//! imputation) used to run the *training* forward: every call allocated a
//! full backward cache (per-layer input clones, attention weights, LN
//! caches), materialized a `[seq_len × vocab]` logits matrix to read one
//! row, and threw all of it away. This module is the dedicated inference
//! engine:
//!
//! * **Zero backward caches** — the forward never clones layer inputs or
//!   keeps softmax/LN intermediates.
//! * **Scratch arena** — every buffer lives in a reusable [`InferScratch`];
//!   buffers are sized on first use and reused afterwards
//!   ([`crate::matrix::Matrix::reset_zeroed`] keeps the allocation), so
//!   steady-state inference performs no heap allocation.
//! * **Masked-row head** — the vocabulary projection runs only for the
//!   masked position(s): a `[1, hidden] × [hidden, vocab]` matvec per
//!   request ([`crate::matrix::Matrix::matmul_row_into`]) instead of a
//!   full-sequence matmul.
//! * **Batched entry point** — [`BertMlmModel::predict_batch_with`] fuses
//!   many `(sequence, masked position)` requests into one forward: the
//!   sequences are concatenated row-wise (no pad rows, no pad masks —
//!   every row is real work) so all linear layers run as single large
//!   matmuls; attention, the only cross-row stage, runs per sequence
//!   block.
//!
//! **Equivalence guarantee.** Every arithmetic operation happens in the
//! same order as the training forward restricted to the inference path:
//! the matmuls run the very same kernels, LayerNorm/GELU/softmax reuse the
//! same per-element expression sequences, and the fused batch is
//! row-partitioned exactly like independent calls. Outputs are therefore
//! **bit-identical** to [`BertMlmModel::predict`] — asserted by unit tests
//! here and property tests in `tests/infer_equivalence.rs`.

use crate::bert::BertMlmModel;
use crate::encoder::EncoderLayer;
use crate::layers::{gelu_forward_into, softmax_rows, softmax_slice, Linear};
use crate::matrix::Matrix;

/// Reusable buffers for the grad-free forward pass.
///
/// One scratch serves any model and any request shape: buffers are
/// reshaped per call with [`Matrix::reset_zeroed`], which only allocates
/// while a buffer is still growing toward the largest shape it has seen.
/// A scratch is cheap to create but not `Sync` — use one per thread (the
/// `kamel-lm` engine keeps one in a thread-local).
///
/// No state flows between calls: every buffer is fully overwritten (or
/// zero-reset) before it is read, so reusing a scratch across different
/// inputs yields the same bits as a fresh one (tested).
#[derive(Debug)]
pub struct InferScratch {
    /// Concatenated token ids of the current batch.
    pub(crate) ids: Vec<u32>,
    /// Per-sequence `(first_row, len)` spans into the concatenated rows.
    pub(crate) seqs: Vec<(usize, usize)>,
    /// Global row index of each request's masked position.
    pub(crate) mask_rows: Vec<usize>,
    /// Embeddings / current activations `[rows, hidden]`.
    pub(crate) x: Matrix,
    /// Next-layer activations (swapped with `x` after each block).
    pub(crate) x_next: Matrix,
    /// Q/K/V projections `[rows, hidden]`.
    pub(crate) q: Matrix,
    pub(crate) k: Matrix,
    pub(crate) v: Matrix,
    /// Per-(sequence, head) column slices `[len, head_dim]`.
    pub(crate) qh: Matrix,
    pub(crate) kh: Matrix,
    pub(crate) vh: Matrix,
    /// Attention scores `[len, len]`.
    pub(crate) scores: Matrix,
    /// One head's output `[len, head_dim]`.
    pub(crate) head_out: Matrix,
    /// Concatenated head outputs `[rows, hidden]`.
    pub(crate) concat: Matrix,
    /// Attention block output `[rows, hidden]`.
    pub(crate) attn_y: Matrix,
    /// Residual sums `[rows, hidden]`.
    pub(crate) res: Matrix,
    /// LN1 output (FFN input) `[rows, hidden]`.
    pub(crate) h: Matrix,
    /// FF1 pre-activation `[rows, ff]`.
    pub(crate) ff_pre: Matrix,
    /// GELU output `[rows, ff]`.
    pub(crate) ff_act: Matrix,
    /// FF2 output `[rows, hidden]`.
    pub(crate) ff_out: Matrix,
    /// Masked-row probabilities `[n_requests, vocab]`.
    pub(crate) probs: Matrix,
    /// Quantized activation row (int8 serving path only).
    pub(crate) xq: Vec<i8>,
}

impl InferScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        let m = || Matrix::zeros(0, 0);
        Self {
            ids: Vec::new(),
            seqs: Vec::new(),
            mask_rows: Vec::new(),
            x: m(),
            x_next: m(),
            q: m(),
            k: m(),
            v: m(),
            qh: m(),
            kh: m(),
            vh: m(),
            scores: m(),
            head_out: m(),
            concat: m(),
            attn_y: m(),
            res: m(),
            h: m(),
            ff_pre: m(),
            ff_act: m(),
            ff_out: m(),
            probs: m(),
            xq: Vec::new(),
        }
    }
}

impl Default for InferScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes `out = a + b` element-wise into a reusable buffer (the residual
/// sums). Bit-identical to `a.clone(); a.add_assign(b)`.
pub(crate) fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    out.reset_zeroed(a.rows(), a.cols());
    crate::simd::add(a.data(), b.data(), out.data_mut());
}

/// One weight matmul of the inference forward: the model's own f32
/// [`Linear`], or its int8 counterpart ([`crate::quant::QuantizedLinear`]).
/// `xq` is the scratch's activation-code buffer; only int8 touches it.
pub(crate) trait Projection {
    /// `out = x·W + b` for every row of `x`.
    fn project_into(&self, x: &Matrix, xq: &mut Vec<i8>, out: &mut Matrix);
    /// `out = x[row]·W + b`.
    fn project_row_into(&self, x: &Matrix, row: usize, xq: &mut Vec<i8>, out: &mut [f32]);
}

impl Projection for Linear {
    fn project_into(&self, x: &Matrix, _xq: &mut Vec<i8>, out: &mut Matrix) {
        self.forward_into(x, out);
    }

    fn project_row_into(&self, x: &Matrix, row: usize, _xq: &mut Vec<i8>, out: &mut [f32]) {
        x.matmul_row_into(row, &self.weight.w, out);
        for (o, &b) in out.iter_mut().zip(self.bias.w.row(0)) {
            *o += b;
        }
    }
}

impl BertMlmModel {
    /// Grad-free single prediction: the probability distribution over the
    /// vocabulary for position `pos`, bit-identical to
    /// [`BertMlmModel::predict`] but cache-free and allocation-free once
    /// `scratch` is warm. The returned slice borrows the scratch.
    pub fn predict_with<'s>(
        &self,
        scratch: &'s mut InferScratch,
        ids: &[u32],
        pos: usize,
    ) -> &'s [f32] {
        assert!(pos < ids.len(), "position {pos} out of range");
        self.predict_batch_with(scratch, &[(ids, pos)]).row(0)
    }

    /// Grad-free batched prediction: one fused forward for many
    /// `(sequence, masked position)` requests. Returns a
    /// `[n_requests, vocab]` matrix (borrowing the scratch) whose row `i`
    /// is bit-identical to `predict(reqs[i].0, reqs[i].1)`.
    ///
    /// Sequences are concatenated, not padded: linear layers run as one
    /// fused matmul over all real rows, attention runs per sequence block.
    pub fn predict_batch_with<'s>(
        &self,
        scratch: &'s mut InferScratch,
        reqs: &[(&[u32], usize)],
    ) -> &'s Matrix {
        let layers = self.layers.iter().map(EncoderLayer::projections);
        self.forward_batch(scratch, reqs, layers, &self.out)
    }

    /// The one inference forward, over whichever weights the caller hands
    /// in: per encoder layer its `[wq, wk, wv, wo, ff1, ff2]` projections,
    /// then the vocabulary head. Embeddings, attention scores, residuals,
    /// LayerNorm and GELU are the model's own f32 either way.
    pub(crate) fn forward_batch<'s, 'w, P: Projection + 'w>(
        &self,
        scratch: &'s mut InferScratch,
        reqs: &[(&[u32], usize)],
        layers: impl Iterator<Item = [&'w P; 6]>,
        head: &P,
    ) -> &'s Matrix {
        let hidden = self.config.hidden;
        let vocab = self.config.vocab_size;
        scratch.ids.clear();
        scratch.seqs.clear();
        scratch.mask_rows.clear();
        for (ids, pos) in reqs {
            assert!(
                ids.len() <= self.config.max_seq_len,
                "sequence length {} exceeds max {}",
                ids.len(),
                self.config.max_seq_len
            );
            assert!(!ids.is_empty(), "empty sequence");
            assert!(*pos < ids.len(), "position {pos} out of range");
            let start = scratch.ids.len();
            scratch.ids.extend_from_slice(ids);
            scratch.seqs.push((start, ids.len()));
            scratch.mask_rows.push(start + pos);
        }
        let rows = scratch.ids.len();
        if rows == 0 {
            scratch.probs.reset_zeroed(0, vocab);
            return &scratch.probs;
        }

        // Embeddings: token row + position row, then LayerNorm. Same
        // element order as `tok_emb.forward + add_assign(pos_emb.forward)`.
        scratch.x_next.reset_zeroed(rows, hidden);
        let tok = &self.tok_emb.table.w;
        let pos_table = &self.pos_emb.table.w;
        for &(start, len) in &scratch.seqs {
            for i in 0..len {
                let id = scratch.ids[start + i] as usize;
                debug_assert!(id < tok.rows(), "token id {id} out of vocab {}", tok.rows());
                let row = scratch.x_next.row_mut(start + i);
                row.copy_from_slice(tok.row(id));
                crate::simd::add_assign(row, pos_table.row(i));
            }
        }
        self.emb_ln.forward_into(&scratch.x_next, &mut scratch.x);

        for (layer, [wq, wk, wv, wo, ff1, ff2]) in self.layers.iter().zip(layers) {
            // Attention. Q/K/V projections fuse across all sequences (the
            // kernels are row-independent); scores/softmax/AV run per
            // sequence block on the same kernels the per-sequence forward
            // uses, so each block is bit-identical to a lone call.
            wq.project_into(&scratch.x, &mut scratch.xq, &mut scratch.q);
            wk.project_into(&scratch.x, &mut scratch.xq, &mut scratch.k);
            wv.project_into(&scratch.x, &mut scratch.xq, &mut scratch.v);
            let heads = layer.attn.heads();
            let hd = layer.attn.head_dim();
            let scale = 1.0 / (hd as f32).sqrt();
            scratch.concat.reset_zeroed(rows, hidden);
            for &(start, len) in &scratch.seqs {
                for head in 0..heads {
                    let cols = head * hd..(head + 1) * hd;
                    scratch.qh.reset_zeroed(len, hd);
                    scratch.kh.reset_zeroed(len, hd);
                    scratch.vh.reset_zeroed(len, hd);
                    for r in 0..len {
                        scratch.qh.row_mut(r).copy_from_slice(&scratch.q.row(start + r)[cols.clone()]);
                        scratch.kh.row_mut(r).copy_from_slice(&scratch.k.row(start + r)[cols.clone()]);
                        scratch.vh.row_mut(r).copy_from_slice(&scratch.v.row(start + r)[cols.clone()]);
                    }
                    scratch.qh.matmul_nt_into(&scratch.kh, &mut scratch.scores);
                    scratch.scores.scale(scale);
                    softmax_rows(&mut scratch.scores);
                    scratch.scores.matmul_into(&scratch.vh, &mut scratch.head_out);
                    for r in 0..len {
                        scratch.concat.row_mut(start + r)[cols.clone()]
                            .copy_from_slice(scratch.head_out.row(r));
                    }
                }
            }
            wo.project_into(&scratch.concat, &mut scratch.xq, &mut scratch.attn_y);
            // First residual + LN1.
            add_into(&scratch.x, &scratch.attn_y, &mut scratch.res);
            layer.ln1.forward_into(&scratch.res, &mut scratch.h);
            // Feed-forward.
            ff1.project_into(&scratch.h, &mut scratch.xq, &mut scratch.ff_pre);
            gelu_forward_into(&scratch.ff_pre, &mut scratch.ff_act);
            ff2.project_into(&scratch.ff_act, &mut scratch.xq, &mut scratch.ff_out);
            // Second residual + LN2 straight into the next activations.
            add_into(&scratch.h, &scratch.ff_out, &mut scratch.res);
            layer.ln2.forward_into(&scratch.res, &mut scratch.x_next);
            std::mem::swap(&mut scratch.x, &mut scratch.x_next);
        }

        // Masked-row head: one hidden × vocab matvec + bias + softmax per
        // request — never the full `[rows, vocab]` logits.
        scratch.probs.reset_zeroed(reqs.len(), vocab);
        for (j, &row) in scratch.mask_rows.iter().enumerate() {
            let out_row = scratch.probs.row_mut(j);
            head.project_row_into(&scratch.x, row, &mut scratch.xq, out_row);
            softmax_slice(out_row);
        }
        &scratch.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::BertConfig;
    use kamel_rng::Rng;

    fn model(vocab: usize, seed: u64) -> BertMlmModel {
        let mut rng = Rng::seed_from_u64(seed);
        BertMlmModel::new(BertConfig::tiny(vocab), &mut rng)
    }

    #[test]
    fn predict_with_is_bit_identical_to_predict() {
        let m = model(17, 41);
        let mut scratch = InferScratch::new();
        for (ids, pos) in [
            (vec![1u32, 2, 3, 4], 2usize),
            (vec![5], 0),
            (vec![9, 8, 7, 6, 5, 4, 3, 2, 1], 7),
        ] {
            let old = m.predict(&ids, pos);
            let new = m.predict_with(&mut scratch, &ids, pos);
            assert_eq!(old.as_slice(), new, "diverged on {ids:?}@{pos}");
        }
    }

    #[test]
    fn batch_matches_single_calls() {
        let m = model(23, 42);
        let reqs_owned: Vec<(Vec<u32>, usize)> = vec![
            (vec![1, 2, 3], 1),
            (vec![4, 5, 6, 7, 8], 4),
            (vec![9], 0),
            (vec![10, 11], 0),
        ];
        let reqs: Vec<(&[u32], usize)> = reqs_owned
            .iter()
            .map(|(ids, pos)| (ids.as_slice(), *pos))
            .collect();
        let mut scratch = InferScratch::new();
        let batch = m.predict_batch_with(&mut scratch, &reqs).clone();
        assert_eq!(batch.rows(), reqs.len());
        let mut single_scratch = InferScratch::new();
        for (i, (ids, pos)) in reqs_owned.iter().enumerate() {
            let single = m.predict_with(&mut single_scratch, ids, *pos);
            assert_eq!(batch.row(i), single, "request {i} diverged");
        }
    }

    #[test]
    fn scratch_reuse_leaks_no_state() {
        let m = model(19, 43);
        let a: (Vec<u32>, usize) = (vec![1, 2, 3, 4, 5], 2);
        let b: (Vec<u32>, usize) = (vec![6, 7], 1);
        // Same input twice through one scratch → identical output.
        let mut reused = InferScratch::new();
        let first = m.predict_with(&mut reused, &a.0, a.1).to_vec();
        let again = m.predict_with(&mut reused, &a.0, a.1).to_vec();
        assert_eq!(first, again);
        // Interleave a different (larger-then-smaller) input, then repeat:
        // still identical to a fresh scratch.
        let _ = m.predict_with(&mut reused, &b.0, b.1);
        let after_interleave = m.predict_with(&mut reused, &a.0, a.1).to_vec();
        let mut fresh = InferScratch::new();
        let from_fresh = m.predict_with(&mut fresh, &a.0, a.1).to_vec();
        assert_eq!(after_interleave, from_fresh);
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = model(8, 44);
        let mut scratch = InferScratch::new();
        let out = m.predict_batch_with(&mut scratch, &[]);
        assert_eq!(out.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_position() {
        let m = model(8, 45);
        let mut scratch = InferScratch::new();
        let _ = m.predict_with(&mut scratch, &[1, 2, 3], 3);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn rejects_overlong_sequence() {
        let m = model(8, 46);
        let mut scratch = InferScratch::new();
        let ids = vec![1u32; 65];
        let _ = m.predict_with(&mut scratch, &ids, 0);
    }
}
