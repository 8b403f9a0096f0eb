//! Multi-head scaled dot-product self-attention with padding masks.
//!
//! One sequence at a time: activations are `[seq_len, hidden]`, heads are
//! column slices of the fused Q/K/V projections. The backward pass is exact
//! (validated against finite differences in the tests).

use crate::layers::{softmax_rows, softmax_rows_backward, Linear, Param};
use crate::matrix::Matrix;
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// Multi-head self-attention block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    /// Query projection `[hidden, hidden]`.
    pub wq: Linear,
    /// Key projection `[hidden, hidden]`.
    pub wk: Linear,
    /// Value projection `[hidden, hidden]`.
    pub wv: Linear,
    /// Output projection `[hidden, hidden]`.
    pub wo: Linear,
    heads: usize,
    head_dim: usize,
}

/// Forward-pass values the backward pass needs.
#[derive(Debug, Clone)]
pub struct AttnCache {
    /// Input activations `[n, hidden]`.
    pub x: Matrix,
    /// Projected queries/keys/values `[n, hidden]`.
    pub q: Matrix,
    /// Projected keys.
    pub k: Matrix,
    /// Projected values.
    pub v: Matrix,
    /// Per-head attention weights (post-softmax), each `[n, n]`.
    pub attn: Vec<Matrix>,
    /// Concatenated head outputs `[n, hidden]` (input of `wo`).
    pub concat: Matrix,
}

impl MultiHeadAttention {
    /// Creates an attention block with `hidden` features split across
    /// `heads` heads.
    ///
    /// # Panics
    /// Panics when `hidden` is not divisible by `heads`.
    pub fn new(hidden: usize, heads: usize, rng: &mut Rng) -> Self {
        assert!(
            heads > 0 && hidden.is_multiple_of(heads),
            "hidden {hidden} must be divisible by heads {heads}"
        );
        Self {
            wq: Linear::new(hidden, hidden, rng),
            wk: Linear::new(hidden, hidden, rng),
            wv: Linear::new(hidden, hidden, rng),
            wo: Linear::new(hidden, hidden, rng),
            heads,
            head_dim: hidden / heads,
        }
    }

    /// An attention block over existing `[wq, wk, wv, wo]` projections;
    /// the caller has checked that their width divides by `heads`.
    pub(crate) fn from_projections([wq, wk, wv, wo]: [Linear; 4], heads: usize) -> Self {
        let head_dim = wq.weight.w.rows() / heads;
        Self {
            wq,
            wk,
            wv,
            wo,
            heads,
            head_dim,
        }
    }

    /// Self-attention over `x: [n, hidden]`.
    ///
    /// `valid` marks real (non-padding) positions; keys at padded positions
    /// receive −∞ scores. Pass `None` when every position is valid.
    pub fn forward(&self, x: &Matrix, valid: Option<&[bool]>) -> (Matrix, AttnCache) {
        let n = x.rows();
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut concat = Matrix::zeros(n, self.heads * self.head_dim);
        let mut attn = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (qs, ks, vs) = (
                head_slice(&q, h, self.head_dim),
                head_slice(&k, h, self.head_dim),
                head_slice(&v, h, self.head_dim),
            );
            // scores = Q·Kᵀ / sqrt(d_head)
            let mut scores = qs.matmul_nt(&ks);
            scores.scale(scale);
            if let Some(mask) = valid {
                debug_assert_eq!(mask.len(), n);
                for r in 0..n {
                    let row = scores.row_mut(r);
                    for (c, &ok) in mask.iter().enumerate() {
                        if !ok {
                            row[c] = f32::NEG_INFINITY;
                        }
                    }
                }
            }
            softmax_rows(&mut scores);
            let out = scores.matmul(&vs);
            // Write the head output back into its column slice.
            for r in 0..n {
                let dst = &mut concat.row_mut(r)[h * self.head_dim..(h + 1) * self.head_dim];
                dst.copy_from_slice(out.row(r));
            }
            attn.push(scores);
        }
        let y = self.wo.forward(&concat);
        (
            y,
            AttnCache {
                x: x.clone(),
                q,
                k,
                v,
                attn,
                concat,
            },
        )
    }

    /// Backward pass; accumulates all projection gradients and returns dx.
    pub fn backward(&mut self, cache: &AttnCache, dy: &Matrix) -> Matrix {
        let n = dy.rows();
        let hidden = self.heads * self.head_dim;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Through the output projection.
        let dconcat = self.wo.backward(&cache.concat, dy);
        let mut dq = Matrix::zeros(n, hidden);
        let mut dk = Matrix::zeros(n, hidden);
        let mut dv = Matrix::zeros(n, hidden);
        for h in 0..self.heads {
            let a = &cache.attn[h];
            let dout_h = head_slice(&dconcat, h, self.head_dim);
            let (qs, ks, vs) = (
                head_slice(&cache.q, h, self.head_dim),
                head_slice(&cache.k, h, self.head_dim),
                head_slice(&cache.v, h, self.head_dim),
            );
            // out = A·V
            let dv_h = a.matmul_tn(&dout_h);
            let da = dout_h.matmul_nt(&vs);
            // Through the softmax.
            let mut dscores = softmax_rows_backward(a, &da);
            dscores.scale(scale);
            let dq_h = dscores.matmul(&ks);
            let dk_h = dscores.matmul_tn(&qs);
            write_head(&mut dq, &dq_h, h, self.head_dim);
            write_head(&mut dk, &dk_h, h, self.head_dim);
            write_head(&mut dv, &dv_h, h, self.head_dim);
        }
        let mut dx = self.wq.backward(&cache.x, &dq);
        dx.add_assign(&self.wk.backward(&cache.x, &dk));
        dx.add_assign(&self.wv.backward(&cache.x, &dv));
        dx
    }

    /// All trainable parameters of the block.
    pub fn params(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::with_capacity(8);
        out.extend(self.wq.params());
        out.extend(self.wk.params());
        out.extend(self.wv.params());
        out.extend(self.wo.params());
        out
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Features per head (`hidden / heads`).
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }
}

/// Copies the `[n, head_dim]` column slice of head `h` out of `[n, hidden]`.
fn head_slice(m: &Matrix, h: usize, head_dim: usize) -> Matrix {
    let n = m.rows();
    let mut out = Matrix::zeros(n, head_dim);
    for r in 0..n {
        out.row_mut(r)
            .copy_from_slice(&m.row(r)[h * head_dim..(h + 1) * head_dim]);
    }
    out
}

/// Writes a `[n, head_dim]` slice back into head `h` of `[n, hidden]`.
fn write_head(dst: &mut Matrix, src: &Matrix, h: usize, head_dim: usize) {
    for r in 0..src.rows() {
        dst.row_mut(r)[h * head_dim..(h + 1) * head_dim].copy_from_slice(src.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_rng::Rng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = Rng::seed_from_u64(1);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Matrix::randn(5, 8, 1.0, &mut rng);
        let (y, cache) = attn.forward(&x, None);
        assert_eq!((y.rows(), y.cols()), (5, 8));
        assert_eq!(cache.attn.len(), 2);
        // Attention rows are distributions.
        for a in &cache.attn {
            for r in 0..a.rows() {
                let s: f32 = a.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn padding_mask_zeroes_attention_to_padded_keys() {
        let mut rng = Rng::seed_from_u64(2);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Matrix::randn(4, 8, 1.0, &mut rng);
        let valid = [true, true, false, true];
        let (_, cache) = attn.forward(&x, Some(&valid));
        for a in &cache.attn {
            for r in 0..4 {
                assert!(a.get(r, 2).abs() < 1e-7, "row {r} attends to padding");
            }
        }
    }

    #[test]
    fn masked_position_does_not_influence_valid_outputs() {
        let mut rng = Rng::seed_from_u64(3);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let mut x = Matrix::randn(4, 8, 1.0, &mut rng);
        let valid = [true, true, false, true];
        let (y1, _) = attn.forward(&x, Some(&valid));
        // Perturb the padded position's features.
        for c in 0..8 {
            x.set(2, c, x.get(2, c) + 5.0);
        }
        let (y2, _) = attn.forward(&x, Some(&valid));
        for r in [0usize, 1, 3] {
            for c in 0..8 {
                assert!(
                    (y1.get(r, c) - y2.get(r, c)).abs() < 1e-5,
                    "padding leaked into ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(4);
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x = Matrix::randn(3, 4, 0.5, &mut rng);
        let upstream = Matrix::from_fn(3, 4, |r, c| ((r + 2 * c) % 3) as f32 - 1.0);
        let (_, cache) = attn.forward(&x, None);
        let dx = attn.backward(&cache, &upstream);
        let eval = attn.clone();
        let loss = |xm: &Matrix| {
            let (y, _) = eval.forward(xm, None);
            y.frobenius_dot(&upstream)
        };
        for (r, c) in [(0, 0), (1, 2), (2, 3)] {
            let eps = 1e-2;
            let mut x2 = x.clone();
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let up = loss(&x2);
            x2.set(r, c, orig - eps);
            let down = loss(&x2);
            let num = (up - down) / (2.0 * eps);
            assert!(
                (num - dx.get(r, c)).abs() < 2e-2,
                "dx[{r},{c}] num {num} got {}",
                dx.get(r, c)
            );
        }
        // Weight gradient check on wq.
        for (r, c) in [(0, 0), (3, 1)] {
            let snapshot = attn.clone();
            let eps = 1e-2;
            let mut up_model = snapshot.clone();
            up_model.wq.weight.w.set(r, c, snapshot.wq.weight.w.get(r, c) + eps);
            let (yu, _) = up_model.forward(&x, None);
            let mut dn_model = snapshot.clone();
            dn_model.wq.weight.w.set(r, c, snapshot.wq.weight.w.get(r, c) - eps);
            let (yd, _) = dn_model.forward(&x, None);
            let num = (yu.frobenius_dot(&upstream) - yd.frobenius_dot(&upstream)) / (2.0 * eps);
            let got = attn.wq.weight.g.get(r, c);
            assert!((num - got).abs() < 2e-2, "dWq[{r},{c}] num {num} got {got}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_heads() {
        let mut rng = Rng::seed_from_u64(5);
        let _ = MultiHeadAttention::new(10, 3, &mut rng);
    }
}
