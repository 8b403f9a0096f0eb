//! Transformer encoder blocks (post-LayerNorm, as in the original BERT).
//!
//! One block is: `h = LN1(x + Attn(x))`, `out = LN2(h + FFN(h))` with a
//! GELU feed-forward network.

use crate::attention::{AttnCache, MultiHeadAttention};
use crate::layers::{gelu_backward, gelu_forward, LayerNorm, Linear, LnCache, Param};
use crate::matrix::Matrix;
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// One transformer encoder layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderLayer {
    /// Self-attention sub-block.
    pub attn: MultiHeadAttention,
    /// First feed-forward projection `[hidden, ff]`.
    pub ff1: Linear,
    /// Second feed-forward projection `[ff, hidden]`.
    pub ff2: Linear,
    /// LayerNorm after the attention residual.
    pub ln1: LayerNorm,
    /// LayerNorm after the feed-forward residual.
    pub ln2: LayerNorm,
}

/// Forward-pass state for one encoder layer.
#[derive(Debug, Clone)]
pub struct EncoderCache {
    attn: AttnCache,
    ln1: LnCache,
    /// LN1 output (input of the FFN).
    h: Matrix,
    /// FF1 pre-activation.
    ff_pre: Matrix,
    /// GELU output (input of ff2).
    ff_act: Matrix,
    ln2: LnCache,
}

impl EncoderLayer {
    /// Creates a layer with the given hidden width, head count, and
    /// feed-forward width.
    pub fn new(hidden: usize, heads: usize, ff: usize, rng: &mut Rng) -> Self {
        Self {
            attn: MultiHeadAttention::new(hidden, heads, rng),
            ff1: Linear::new(hidden, ff, rng),
            ff2: Linear::new(ff, hidden, rng),
            ln1: LayerNorm::new(hidden),
            ln2: LayerNorm::new(hidden),
        }
    }

    /// The six weight matmuls, in the order the forward applies them.
    pub(crate) fn projections(&self) -> [&Linear; 6] {
        let a = &self.attn;
        [&a.wq, &a.wk, &a.wv, &a.wo, &self.ff1, &self.ff2]
    }

    /// Forward pass over `x: [n, hidden]` with an optional validity mask.
    pub fn forward(&self, x: &Matrix, valid: Option<&[bool]>) -> (Matrix, EncoderCache) {
        let (attn_out, attn_cache) = self.attn.forward(x, valid);
        let mut res1 = x.clone();
        res1.add_assign(&attn_out);
        let (h, ln1_cache) = self.ln1.forward(&res1);
        let ff_pre = self.ff1.forward(&h);
        let ff_act = gelu_forward(&ff_pre);
        let ff_out = self.ff2.forward(&ff_act);
        let mut res2 = h.clone();
        res2.add_assign(&ff_out);
        let (out, ln2_cache) = self.ln2.forward(&res2);
        (
            out,
            EncoderCache {
                attn: attn_cache,
                ln1: ln1_cache,
                h,
                ff_pre,
                ff_act,
                ln2: ln2_cache,
            },
        )
    }

    /// Backward pass; accumulates all gradients and returns dx.
    pub fn backward(&mut self, cache: &EncoderCache, dy: &Matrix) -> Matrix {
        // Through LN2 into the second residual sum (h + ff_out).
        let dres2 = self.ln2.backward(&cache.ln2, dy);
        // FFN branch.
        let dff_act = self.ff2.backward(&cache.ff_act, &dres2);
        let dff_pre = gelu_backward(&cache.ff_pre, &dff_act);
        let mut dh = self.ff1.backward(&cache.h, &dff_pre);
        // Residual branch adds straight through.
        dh.add_assign(&dres2);
        // Through LN1 into the first residual sum (x + attn_out).
        let dres1 = self.ln1.backward(&cache.ln1, &dh);
        // Attention branch.
        let mut dx = self.attn.backward(&cache.attn, &dres1);
        dx.add_assign(&dres1);
        dx
    }

    /// All trainable parameters of this layer.
    pub fn params(&mut self) -> Vec<&mut Param> {
        let mut out = self.attn.params();
        out.extend(self.ff1.params());
        out.extend(self.ff2.params());
        out.push(&mut self.ln1.gamma);
        out.push(&mut self.ln1.beta);
        out.push(&mut self.ln2.gamma);
        out.push(&mut self.ln2.beta);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_rng::Rng;

    #[test]
    fn forward_shape_preserved() {
        let mut rng = Rng::seed_from_u64(10);
        let layer = EncoderLayer::new(8, 2, 16, &mut rng);
        let x = Matrix::randn(6, 8, 1.0, &mut rng);
        let (y, _) = layer.forward(&x, None);
        assert_eq!((y.rows(), y.cols()), (6, 8));
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(11);
        let mut layer = EncoderLayer::new(4, 2, 8, &mut rng);
        let x = Matrix::randn(3, 4, 0.5, &mut rng);
        let upstream = Matrix::from_fn(3, 4, |r, c| if (r + c) % 2 == 0 { 1.0 } else { -0.5 });
        let (_, cache) = layer.forward(&x, None);
        let dx = layer.backward(&cache, &upstream);
        let eval = layer.clone();
        let loss = |xm: &Matrix| {
            let (y, _) = eval.forward(xm, None);
            y.frobenius_dot(&upstream)
        };
        for (r, c) in [(0, 0), (1, 1), (2, 3)] {
            let eps = 1e-2;
            let mut x2 = x.clone();
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let up = loss(&x2);
            x2.set(r, c, orig - eps);
            let down = loss(&x2);
            let num = (up - down) / (2.0 * eps);
            let got = dx.get(r, c);
            // Tolerance is loose: two LayerNorms amplify fp32 noise through
            // the double residual path.
            assert!((num - got).abs() < 5e-2, "dx[{r},{c}] num {num} got {got}");
        }
    }

    #[test]
    fn param_count_is_complete() {
        let mut rng = Rng::seed_from_u64(12);
        let mut layer = EncoderLayer::new(8, 2, 16, &mut rng);
        // 4 attention linears (w+b) + 2 ffn linears (w+b) + 2 LN (γ+β)
        assert_eq!(layer.params().len(), 8 + 4 + 4);
    }
}
