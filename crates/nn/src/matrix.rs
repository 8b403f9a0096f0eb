//! Dense row-major `f32` matrices with the kernels a transformer needs.
//!
//! Deliberately minimal: 2-D only (sequences are processed one at a time, so
//! every activation is `[seq_len, features]`), no views, no broadcasting
//! beyond row-vector ops. The three matmul variants (`NN`, `TN`, `NT`) cover
//! every product in forward and backward passes without materializing
//! transposes.
//!
//! Every product runs on the calling thread: KAMEL's models are small by
//! design (one per pyramid cell), so parallelism lives across cells and
//! trajectories in `kamel`, never inside a matmul.
//!
//! The innermost loops (the NN/TN axpy stripes, the NT dot products, and
//! the broadcast/scale element-wise ops) run through [`crate::simd`],
//! which dispatches to explicit AVX2/NEON kernels at runtime. Those
//! kernels preserve the exact accumulation order of the scalar reference,
//! so the SIMD backend never changes results.

use crate::simd;
use kamel_rng::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an explicit row-major buffer.
    ///
    /// # Panics
    /// Panics when the buffer length does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Gaussian-initialized matrix with the given standard deviation
    /// (Box–Muller over the supplied RNG; deterministic under a seeded RNG).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.range(f32::EPSILON..1.0);
            let u2 = rng.f32();
            let mag = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mag * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(mag * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self × other` (`[m,k] × [k,n] → [m,n]`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ × other` (`[k,m]ᵀ × [k,n] → [m,n]`), without materializing the
    /// transpose. Used for weight gradients (`dW = xᵀ · dy`).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `self × otherᵀ` (`[m,k] × [n,k]ᵀ → [m,n]`), without materializing the
    /// transpose. Used for input gradients (`dx = dy · Wᵀ`) and attention
    /// scores (`Q · Kᵀ`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Reshapes to `rows × cols` of zeros, reusing the existing allocation
    /// whenever the capacity suffices. The workhorse of the inference
    /// scratch arena: after warm-up no `reset_zeroed` call allocates.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `out = self × other`, writing into a reusable buffer instead of
    /// allocating.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reset_zeroed(m, n);
        simd::nn_block(&self.data, &other.data, &mut out.data, 0, k, n);
    }

    /// `out = selfᵀ × other` into a reusable buffer.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        out.reset_zeroed(m, n);
        tn_block(&self.data, &other.data, &mut out.data, m, n, k);
    }

    /// `out = self × otherᵀ` into a reusable buffer.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        out.reset_zeroed(m, n);
        simd::nt_block(&self.data, &other.data, &mut out.data, k, n);
    }

    /// Writes row `row` of `self × other` into `out_row` (length
    /// `other.cols()`): a `[1, k] × [k, n]` matvec through the same
    /// column-blocked kernel, so the result is bit-identical to that row of
    /// the full product. The MLM head uses this to score only the masked
    /// position(s) instead of materializing `[seq_len × vocab]` logits.
    pub fn matmul_row_into(&self, row: usize, other: &Matrix, out_row: &mut [f32]) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert_eq!(out_row.len(), other.cols, "output row length mismatch");
        out_row.iter_mut().for_each(|v| *v = 0.0);
        simd::nn_block(&self.data, &other.data, out_row, row, self.cols, other.cols);
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        simd::add_assign(&mut self.data, &other.data);
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        simd::scale(&mut self.data, s);
    }

    /// Adds a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            simd::add_assign(self.row_mut(r), bias);
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of element-wise products (Frobenius inner product).
    pub fn frobenius_dot(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        dot(&self.data, &other.data)
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        dot(&self.data, &self.data)
    }
}

/// TN kernel: `out = aᵀ × b` with `a: [k,m]`, `b: [k,n]`, `out: [m,n]`
/// zeroed by the caller. kij order (each `a`/`b` row pair is touched once
/// per sweep); per output element the `k` axis accumulates in ascending
/// order.
fn tn_block(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    if n == 0 {
        return;
    }
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        // Dense-path assumption: no zero-skip (see `simd::nn_block`).
        for (ri, &av) in a_row.iter().enumerate() {
            simd::axpy(&mut out[ri * n..(ri + 1) * n], av, b_row);
        }
    }
}

/// Dense dot product of two equal-length slices.
///
/// Dispatches through [`crate::simd`]; every backend reproduces the
/// 8-lane chunked accumulation order of the scalar reference, so the
/// result is independent of the active instruction set.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    simd::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_rng::Rng;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known_values() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]); // aᵀ is 2x3
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        let tn = a.matmul_tn(&b);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(tn.data(), &[6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 3, &[1., 1., 1., 2., 0., 1.]); // bᵀ is 3x2
        let nt = a.matmul_nt(&b);
        assert_eq!(nt.data(), &[6., 5., 15., 14.]);
    }

    #[test]
    fn three_matmul_variants_agree_on_random_input() {
        let mut rng = Rng::seed_from_u64(7);
        let a = Matrix::randn(4, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 3, 1.0, &mut rng);
        let c = a.matmul(&b);
        // (aᵀ)ᵀ·b via matmul_tn with explicitly transposed a.
        let at = Matrix::from_fn(5, 4, |r, c2| a.get(c2, r));
        let c_tn = at.matmul_tn(&b);
        let bt = Matrix::from_fn(3, 5, |r, c2| b.get(c2, r));
        let c_nt = a.matmul_nt(&bt);
        for i in 0..c.data().len() {
            assert!((c.data()[i] - c_tn.data()[i]).abs() < 1e-4);
            assert!((c.data()[i] - c_nt.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn broadcast_and_scale() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1., 2., 3.]);
        assert_eq!(a.data(), &[1., 2., 3., 1., 2., 3.]);
        a.scale(2.0);
        assert_eq!(a.row(1), &[2., 4., 6.]);
    }

    #[test]
    fn randn_statistics_are_sane() {
        let mut rng = Rng::seed_from_u64(42);
        let m = Matrix::randn(100, 100, 0.5, &mut rng);
        let mean: f32 = m.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = m.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let mut rng = Rng::seed_from_u64(9);
        let a = Matrix::randn(7, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 6, 1.0, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let c = Matrix::randn(7, 6, 1.0, &mut rng);
        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out, a.matmul_tn(&c));
        let d = Matrix::randn(9, 5, 1.0, &mut rng);
        a.matmul_nt_into(&d, &mut out);
        assert_eq!(out, a.matmul_nt(&d));
    }

    #[test]
    fn matmul_row_into_matches_full_product_row() {
        let mut rng = Rng::seed_from_u64(10);
        // n > NN_COL_BLOCK would need a huge matrix; block boundaries are
        // still exercised because the kernel path is shared.
        let a = Matrix::randn(4, 37, 1.0, &mut rng);
        let b = Matrix::randn(37, 53, 1.0, &mut rng);
        let full = a.matmul(&b);
        let mut row = vec![0.0f32; 53];
        for r in 0..4 {
            a.matmul_row_into(r, &b, &mut row);
            assert_eq!(&row[..], full.row(r), "row {r} diverged");
        }
    }

    #[test]
    fn reset_zeroed_reuses_capacity_and_zeroes() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let cap = {
            m.reset_zeroed(3, 2);
            assert_eq!((m.rows(), m.cols()), (3, 2));
            assert!(m.data().iter().all(|&v| v == 0.0));
            m.data.capacity()
        };
        m.reset_zeroed(1, 2);
        assert_eq!(m.data.capacity(), cap, "shrinking must not reallocate");
        assert_eq!(m.data(), &[0.0, 0.0]);
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let b = vec![1.0f32; 19];
        assert_eq!(dot(&a, &b), (0..19).sum::<i32>() as f32);
    }
}
