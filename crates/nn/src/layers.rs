//! Core layers with explicit forward/backward passes.
//!
//! Every trainable tensor is a [`Param`]: the weight, its gradient
//! accumulator, and the Adam moments. Layers cache nothing internally —
//! forward passes return whatever the matching backward pass needs, so a
//! single layer instance can be reused across sequences within a batch.

use crate::matrix::Matrix;
use crate::simd;
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// A trainable parameter: value, gradient, and Adam moment estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub w: Matrix,
    /// Gradient accumulator (same shape as `w`).
    pub g: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

impl Param {
    /// Wraps a weight matrix, allocating zeroed gradient/moment buffers.
    pub fn new(w: Matrix) -> Self {
        let (r, c) = (w.rows(), w.cols());
        Self {
            w,
            g: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }

    /// Wraps weights read back from a binary record for serving: the
    /// gradient and both Adam moments are empty (0×0), so a resident model
    /// costs its weights and nothing else. [`crate::train::Trainer::train`]
    /// sizes them on entry, which keeps a served model trainable.
    pub fn from_weights(w: Matrix) -> Self {
        Self {
            w,
            g: Matrix::zeros(0, 0),
            m: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
        }
    }

    /// Allocates zeroed gradient/moment buffers when this parameter came
    /// from [`Param::from_weights`]; a no-op otherwise.
    pub fn ensure_optimizer_state(&mut self) {
        let (r, c) = (self.w.rows(), self.w.cols());
        for state in [&mut self.g, &mut self.m, &mut self.v] {
            if (state.rows(), state.cols()) != (r, c) {
                *state = Matrix::zeros(r, c);
            }
        }
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.g.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn count(&self) -> usize {
        self.w.rows() * self.w.cols()
    }
}

/// A fully connected layer `y = x·W + b` with `W: [in, out]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight `[in_dim, out_dim]`.
    pub weight: Param,
    /// Bias `[1, out_dim]`.
    pub bias: Param,
}

impl Linear {
    /// Xavier/Glorot-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
        Self {
            weight: Param::new(Matrix::randn(in_dim, out_dim, std, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Forward pass for a `[n, in]` activation.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.weight.w);
        y.add_row_broadcast(self.bias.w.row(0));
        y
    }

    /// Forward pass into a reusable buffer (the grad-free inference path).
    /// Bit-identical to [`Linear::forward`]; allocates nothing once `out`
    /// has capacity.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weight.w, out);
        out.add_row_broadcast(self.bias.w.row(0));
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// `x` must be the exact input of the matching forward call.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        // dW = xᵀ·dy
        self.weight.g.add_assign(&x.matmul_tn(dy));
        // db = column sums of dy
        for r in 0..dy.rows() {
            for (gb, d) in self.bias.g.row_mut(0).iter_mut().zip(dy.row(r)) {
                *gb += d;
            }
        }
        // dx = dy·Wᵀ
        dy.matmul_nt(&self.weight.w)
    }

    /// The two parameters of this layer, for the optimizer.
    pub fn params(&mut self) -> impl Iterator<Item = &mut Param> {
        [&mut self.weight, &mut self.bias].into_iter()
    }
}

/// An embedding table `[vocab, dim]`; rows are gathered by token id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    /// The table `[vocab_size, dim]`.
    pub table: Param,
}

impl Embedding {
    /// Gaussian-initialized embedding table (std 0.02, as in BERT).
    pub fn new(vocab: usize, dim: usize, rng: &mut Rng) -> Self {
        Self {
            table: Param::new(Matrix::randn(vocab, dim, 0.02, rng)),
        }
    }

    /// Gathers the rows for `ids` into a `[n, dim]` activation.
    ///
    /// # Panics
    /// Panics (debug) on out-of-vocabulary ids.
    pub fn forward(&self, ids: &[u32]) -> Matrix {
        let dim = self.table.w.cols();
        let mut out = Matrix::zeros(ids.len(), dim);
        for (r, &id) in ids.iter().enumerate() {
            debug_assert!(
                (id as usize) < self.table.w.rows(),
                "token id {id} out of vocab {}",
                self.table.w.rows()
            );
            out.row_mut(r).copy_from_slice(self.table.w.row(id as usize));
        }
        out
    }

    /// Scatters the gradient rows back into the table's accumulator.
    pub fn backward(&mut self, ids: &[u32], dy: &Matrix) {
        for (r, &id) in ids.iter().enumerate() {
            for (g, d) in self.table.g.row_mut(id as usize).iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
    }
}

/// Per-row layer normalization with learned scale and shift.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerNorm {
    /// Scale γ `[1, dim]`, initialized to ones.
    pub gamma: Param,
    /// Shift β `[1, dim]`, initialized to zeros.
    pub beta: Param,
    eps: f32,
}

/// Values the LayerNorm backward pass needs from its forward pass.
#[derive(Debug, Clone)]
pub struct LnCache {
    /// Normalized activations x̂ (before γ/β).
    pub xhat: Matrix,
    /// Reciprocal standard deviation per row.
    pub rstd: Vec<f32>,
}

impl LayerNorm {
    /// A fresh LayerNorm over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self::from_params(
            Param::new(Matrix::from_fn(1, dim, |_, _| 1.0)),
            Param::new(Matrix::zeros(1, dim)),
        )
    }

    /// A LayerNorm over an existing scale and shift.
    pub(crate) fn from_params(gamma: Param, beta: Param) -> Self {
        Self {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Normalizes each row of `x`, returning the output and backward cache.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LnCache) {
        let (n, d) = (x.rows(), x.cols());
        let mut out = Matrix::zeros(n, d);
        let mut xhat = Matrix::zeros(n, d);
        let mut rstd = Vec::with_capacity(n);
        let gamma = self.gamma.w.row(0);
        let beta = self.beta.w.row(0);
        for r in 0..n {
            let row = x.row(r);
            // 8-lane SIMD reductions (bit-identical across backends; see
            // `crate::simd`). `forward_into` uses the same reductions, so
            // training and inference normalize identically.
            let mean = simd::sum(row) / d as f32;
            let var = simd::sum_sq_diff(row, mean) / d as f32;
            let rs = 1.0 / (var + self.eps).sqrt();
            rstd.push(rs);
            let xh = xhat.row_mut(r);
            let o = &mut out.data_mut()[r * d..(r + 1) * d];
            for c in 0..d {
                let h = (row[c] - mean) * rs;
                xh[c] = h;
                o[c] = h * gamma[c] + beta[c];
            }
        }
        (out, LnCache { xhat, rstd })
    }

    /// Normalizes each row of `x` into a reusable buffer, skipping the
    /// backward cache (the grad-free inference path). The per-row
    /// arithmetic is the same expression sequence as [`LayerNorm::forward`],
    /// so outputs are bit-identical to it.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        let (n, d) = (x.rows(), x.cols());
        out.reset_zeroed(n, d);
        let gamma = self.gamma.w.row(0);
        let beta = self.beta.w.row(0);
        for r in 0..n {
            let row = x.row(r);
            let mean = simd::sum(row) / d as f32;
            let var = simd::sum_sq_diff(row, mean) / d as f32;
            let rs = 1.0 / (var + self.eps).sqrt();
            simd::ln_affine(row, mean, rs, gamma, beta, out.row_mut(r));
        }
    }

    /// Backward pass; accumulates dγ/dβ and returns dx.
    pub fn backward(&mut self, cache: &LnCache, dy: &Matrix) -> Matrix {
        let (n, d) = (dy.rows(), dy.cols());
        let mut dx = Matrix::zeros(n, d);
        let gamma = self.gamma.w.row(0);
        for r in 0..n {
            let dyr = dy.row(r);
            let xh = cache.xhat.row(r);
            // Parameter grads.
            {
                let dg = self.gamma.g.row_mut(0);
                for c in 0..d {
                    dg[c] += dyr[c] * xh[c];
                }
            }
            {
                let db = self.beta.g.row_mut(0);
                for c in 0..d {
                    db[c] += dyr[c];
                }
            }
            // Input grad:
            // dx = rstd * (dyγ - mean(dyγ) - x̂ * mean(dyγ ⊙ x̂))
            let mut sum_dg = 0.0f32;
            let mut sum_dgx = 0.0f32;
            for c in 0..d {
                let v = dyr[c] * gamma[c];
                sum_dg += v;
                sum_dgx += v * xh[c];
            }
            let inv_d = 1.0 / d as f32;
            let rs = cache.rstd[r];
            let dxr = dx.row_mut(r);
            for c in 0..d {
                let v = dyr[c] * gamma[c];
                dxr[c] = rs * (v - sum_dg * inv_d - xh[c] * sum_dgx * inv_d);
            }
        }
        dx
    }
}

/// Inverted dropout: keeps each element with probability `1 - p`, scaling
/// survivors by `1/(1-p)` so expectations match at inference time (which
/// simply skips the layer). Returns the dropped activation and the 0/scale
/// mask the backward pass multiplies by.
pub fn dropout_forward(x: &Matrix, p: f32, rng: &mut Rng) -> (Matrix, Matrix) {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1), got {p}");
    if p == 0.0 {
        return (x.clone(), Matrix::from_fn(x.rows(), x.cols(), |_, _| 1.0));
    }
    let scale = 1.0 / (1.0 - p);
    let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
        if rng.f32() < p {
            0.0
        } else {
            scale
        }
    });
    let mut out = x.clone();
    for (o, m) in out.data_mut().iter_mut().zip(mask.data()) {
        *o *= m;
    }
    (out, mask)
}

/// Dropout backward: `dx = dy ⊙ mask` (the mask already carries the scale).
pub fn dropout_backward(mask: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = dy.clone();
    for (d, m) in dx.data_mut().iter_mut().zip(mask.data()) {
        *d *= m;
    }
    dx
}

/// GELU activation (tanh approximation, as used by BERT). `tanh` runs
/// through the SIMD-reproducible [`crate::math::tanh_f32`] sequence so
/// vector backends can evaluate whole lanes bit-identically.
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + crate::math::tanh_f32(C * (x + 0.044_715 * x * x * x)))
}

/// Derivative of [`gelu`] with respect to its input (same `tanh` kernel
/// as the forward pass, so training and inference see one activation).
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = crate::math::tanh_f32(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Applies GELU element-wise, returning the activated copy.
pub fn gelu_forward(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    simd::gelu_map(x.data(), out.data_mut());
    out
}

/// GELU into a reusable buffer; bit-identical to [`gelu_forward`].
pub fn gelu_forward_into(x: &Matrix, out: &mut Matrix) {
    out.reset_zeroed(x.rows(), x.cols());
    simd::gelu_map(x.data(), out.data_mut());
}

/// Element-wise GELU backward: `dx = dy ⊙ gelu'(x)`.
pub fn gelu_backward(x: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = dy.clone();
    for (d, &xv) in dx.data_mut().iter_mut().zip(x.data()) {
        *d *= gelu_grad(xv);
    }
    dx
}

/// Numerically stable in-place softmax over each row.
pub fn softmax_rows(x: &mut Matrix) {
    for r in 0..x.rows() {
        softmax_slice(x.row_mut(r));
    }
}

/// Numerically stable in-place softmax over one row slice — the per-row
/// body of [`softmax_rows`], exposed so the inference head can softmax a
/// single logits row without wrapping it in a matrix.
pub fn softmax_slice(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    // SIMD max is safe here: max is associative, so any lane order yields
    // the same value for non-NaN input, and `v - max` is value-identical
    // even across the ±0 ambiguity.
    let max = simd::max(row);
    if !max.is_finite() {
        // Entire row masked: fall back to uniform to avoid NaNs.
        let u = 1.0 / row.len() as f32;
        row.iter_mut().for_each(|v| *v = u);
        return;
    }
    // Exponentiation runs the SIMD-reproducible `math::exp_f32` sequence
    // and the sum accumulates in the canonical 8-lane order — both part
    // of the output contract, both bit-identical across backends.
    let sum = simd::exp_sum(row, max);
    let inv = 1.0 / sum;
    simd::scale(row, inv);
}

/// Backward through a row-wise softmax: given the softmax output `a` and
/// upstream `da`, returns `ds` where `s` was the softmax input.
pub fn softmax_rows_backward(a: &Matrix, da: &Matrix) -> Matrix {
    let (n, d) = (a.rows(), a.cols());
    let mut ds = Matrix::zeros(n, d);
    for r in 0..n {
        let ar = a.row(r);
        let dar = da.row(r);
        let inner: f32 = ar.iter().zip(dar).map(|(&av, &dv)| av * dv).sum();
        let out = ds.row_mut(r);
        for c in 0..d {
            out[c] = ar[c] * (dar[c] - inner);
        }
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_rng::Rng;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = Rng::seed_from_u64(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.weight.w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        lin.bias.w = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let y = lin.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(2);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        // Loss = sum of outputs, so upstream grad is all-ones.
        let dy = Matrix::from_fn(4, 2, |_, _| 1.0);
        let dx = lin.backward(&x, &dy);
        // Check dW numerically.
        for (r, c) in [(0, 0), (2, 1), (1, 0)] {
            let eps = 1e-2f32;
            let orig = lin.weight.w.get(r, c);
            let mut up_model = lin.clone();
            up_model.weight.w.set(r, c, orig + eps);
            let up = up_model.forward(&x).data().iter().sum::<f32>();
            let mut dn_model = lin.clone();
            dn_model.weight.w.set(r, c, orig - eps);
            let down = dn_model.forward(&x).data().iter().sum::<f32>();
            let num = (up - down) / (2.0 * eps);
            let got = lin.weight.g.get(r, c);
            assert!((num - got).abs() < 1e-2, "dW[{r},{c}] num {num} got {got}");
        }
        // Check dx numerically at one coordinate.
        let mut x2 = x.clone();
        let lin2 = lin.clone();
        let f = |xm: &Matrix| lin2.forward(xm).data().iter().sum::<f32>();
        let eps = 1e-2;
        let orig = x2.get(1, 2);
        x2.set(1, 2, orig + eps);
        let up = f(&x2);
        x2.set(1, 2, orig - eps);
        let down = f(&x2);
        let num = (up - down) / (2.0 * eps);
        assert!((num - dx.get(1, 2)).abs() < 1e-2);
    }

    #[test]
    fn embedding_gather_and_scatter() {
        let mut rng = Rng::seed_from_u64(3);
        let mut emb = Embedding::new(5, 4, &mut rng);
        let ids = [1u32, 3, 1];
        let out = emb.forward(&ids);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), emb.table.w.row(1));
        assert_eq!(out.row(1), emb.table.w.row(3));
        // Backward: token 1 appears twice, grads must accumulate.
        let dy = Matrix::from_fn(3, 4, |_, _| 1.0);
        emb.backward(&ids, &dy);
        assert_eq!(emb.table.g.row(1), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(emb.table.g.row(3), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(emb.table.g.row(0), &[0.0; 4]);
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let ln = LayerNorm::new(8);
        let x = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32);
        let (y, _) = ln.forward(&x);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from_u64(4);
        let mut ln = LayerNorm::new(6);
        // Non-trivial gamma to exercise the full formula.
        ln.gamma.w = Matrix::from_fn(1, 6, |_, c| 0.5 + 0.2 * c as f32);
        let x = Matrix::randn(3, 6, 1.0, &mut rng);
        // Loss: weighted sum, to get non-uniform upstream grads.
        let weight = Matrix::from_fn(3, 6, |r, c| ((r + c) % 3) as f32 - 1.0);
        let (_, cache) = ln.forward(&x);
        let dx = ln.backward(&cache, &weight);
        let ln_eval = ln.clone();
        let loss = |xm: &Matrix| {
            let (y, _) = ln_eval.forward(xm);
            y.frobenius_dot(&weight)
        };
        for (r, c) in [(0, 0), (1, 3), (2, 5)] {
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
    }

    #[test]
    fn dropout_zeroes_and_rescales() {
        let mut rng = Rng::seed_from_u64(9);
        let x = Matrix::from_fn(20, 20, |_, _| 1.0);
        let (out, mask) = dropout_forward(&x, 0.5, &mut rng);
        let zeros = out.data().iter().filter(|v| **v == 0.0).count();
        // Roughly half dropped.
        assert!((120..280).contains(&zeros), "zeros {zeros}");
        // Survivors scaled by 2; expectation preserved.
        for &v in out.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        let mean: f32 = out.data().iter().sum::<f32>() / 400.0;
        assert!((mean - 1.0).abs() < 0.3, "mean {mean}");
        // Backward applies the identical mask.
        let dy = Matrix::from_fn(20, 20, |_, _| 1.0);
        let dx = dropout_backward(&mask, &dy);
        assert_eq!(dx.data(), mask.data());
    }

    #[test]
    fn dropout_p_zero_is_identity() {
        let mut rng = Rng::seed_from_u64(10);
        let x = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let (out, mask) = dropout_forward(&x, 0.0, &mut rng);
        assert_eq!(out.data(), x.data());
        assert!(mask.data().iter().all(|&m| m == 1.0));
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn dropout_rejects_p_one() {
        let mut rng = Rng::seed_from_u64(11);
        let _ = dropout_forward(&Matrix::zeros(1, 1), 1.0, &mut rng);
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!(gelu(0.0).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive ≈ identity; large negative ≈ 0.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_differences() {
        for x in [-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!((num - gelu_grad(x)).abs() < 1e-3, "at {x}");
        }
    }

    #[test]
    fn softmax_rows_is_a_distribution() {
        let mut x = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0.0, 1.0]);
        softmax_rows(&mut x);
        for r in 0..2 {
            let s: f32 = x.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(x.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone in the logits.
        assert!(x.get(0, 2) > x.get(0, 1));
    }

    #[test]
    fn softmax_handles_fully_masked_row() {
        let mut x = Matrix::from_vec(1, 4, vec![f32::NEG_INFINITY; 4]);
        softmax_rows(&mut x);
        for &v in x.row(0) {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_differences() {
        let logits = Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]);
        let upstream = Matrix::from_vec(1, 4, vec![1.0, -2.0, 0.5, 3.0]);
        let mut a = logits.clone();
        softmax_rows(&mut a);
        let ds = softmax_rows_backward(&a, &upstream);
        let loss = |l: &Matrix| {
            let mut s = l.clone();
            softmax_rows(&mut s);
            s.frobenius_dot(&upstream)
        };
        for c in 0..4 {
            let eps = 1e-3;
            let mut l2 = logits.clone();
            l2.set(0, c, logits.get(0, c) + eps);
            let up = loss(&l2);
            l2.set(0, c, logits.get(0, c) - eps);
            let down = loss(&l2);
            let num = (up - down) / (2.0 * eps);
            assert!((num - ds.get(0, c)).abs() < 1e-3, "col {c}");
        }
    }
}
