//! Bit-identity property tests for the SIMD backends.
//!
//! The contract (see `kamel_nn::simd`): every backend performs the same
//! floating-point operations in the same order as the scalar reference,
//! so outputs are **bit-identical** — not merely close — across backends,
//! for every kernel and every tail length. These tests sweep each
//! supported backend against scalar and compare raw bits, 32 seeded cases
//! each; a failure prints its seed.
//!
//! Backend selection is process-global, so every test that switches it
//! holds one shared lock; the integer/float kernels themselves are pure.

mod common;

use std::sync::Mutex;

use common::{for_each_case, Gen};
use kamel_nn::layers::{gelu_forward_into, softmax_slice, LayerNorm};
use kamel_nn::simd::{self, Backend};
use kamel_nn::Matrix;

/// Serializes backend switching across concurrently running tests.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per supported backend (scalar always first) and returns
/// the labelled results, restoring the previously active backend.
fn across_backends<T>(mut f: impl FnMut() -> T) -> Vec<(Backend, T)> {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = simd::backend();
    let out = simd::supported_backends()
        .into_iter()
        .map(|b| {
            simd::set_backend(b).unwrap();
            (b, f())
        })
        .collect();
    simd::set_backend(before).unwrap();
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const CASES: u64 = 32;

/// Lengths that cross the 8-lane (and the AVX2 int8 16-lane) strides,
/// plus ragged tails.
fn len(g: &mut Gen) -> usize {
    const EDGES: [usize; 8] = [0, 1, 7, 8, 9, 15, 16, 17];
    match g.usize_in(0..EDGES.len() + 1) {
        i if i < EDGES.len() => EDGES[i],
        _ => g.usize_in(1..70),
    }
}

/// `len` values cycled out of 0–69 random ones in `range`; `fill` when
/// none were drawn.
fn cycled_f32(g: &mut Gen, len: usize, range: std::ops::Range<f32>, fill: f32) -> Vec<f32> {
    let n = g.usize_in(0..70);
    let data = g.vec_f32(n, range);
    (0..len)
        .map(|i| data.get(i % data.len().max(1)).copied().unwrap_or(fill))
        .collect()
}

/// Asserts every backend's result equals the first (scalar) one.
fn assert_all_match_scalar<T: PartialEq + std::fmt::Debug>(results: &[(Backend, T)]) {
    let reference = &results[0].1;
    for (backend, got) in results {
        assert_eq!(got, reference, "{} diverged from scalar", backend.name());
    }
}

/// Reductions: dot, sum, sum-of-squared-diffs, max.
#[test]
fn reductions_are_bit_identical() {
    for_each_case(CASES, |g| {
        let len = len(g);
        let (a, b) = (g.vec_f32(len, -4.0..4.0), g.vec_f32(len, -4.0..4.0));
        let mean = if len == 0 { 0.0 } else { a.iter().sum::<f32>() / len as f32 };
        assert_all_match_scalar(&across_backends(|| {
            (
                simd::dot(&a, &b).to_bits(),
                simd::sum(&a).to_bits(),
                simd::sum_sq_diff(&a, mean).to_bits(),
                simd::max(&a).to_bits(),
            )
        }));
    });
}

/// Element-wise kernels: axpy, add, add_assign, scale, GELU, the
/// LayerNorm affine step.
#[test]
fn elementwise_kernels_are_bit_identical() {
    for_each_case(CASES, |g| {
        let len = len(g);
        let a = g.f32_in(-3.0..3.0);
        let x = cycled_f32(g, len, -5.0..5.0, 0.25);
        let y: Vec<f32> = x.iter().map(|v| v * 0.5 - 1.0).collect();
        assert_all_match_scalar(&across_backends(|| {
            let mut axpy_out = y.clone();
            simd::axpy(&mut axpy_out, a, &x);
            let mut addassign_out = y.clone();
            simd::add_assign(&mut addassign_out, &x);
            let mut add_out = vec![0.0f32; len];
            simd::add(&x, &y, &mut add_out);
            let mut scale_out = x.clone();
            simd::scale(&mut scale_out, a);
            let mut gelu_out = vec![0.0f32; len];
            simd::gelu_map(&x, &mut gelu_out);
            let gamma: Vec<f32> = (0..len).map(|i| 0.5 + i as f32 * 0.01).collect();
            let beta: Vec<f32> = (0..len).map(|i| -0.2 + i as f32 * 0.02).collect();
            let mut ln_out = vec![0.0f32; len];
            simd::ln_affine(&x, 0.1, 1.3, &gamma, &beta, &mut ln_out);
            (
                bits(&axpy_out),
                bits(&addassign_out),
                bits(&add_out),
                bits(&scale_out),
                bits(&gelu_out),
                bits(&ln_out),
            )
        }));
    });
}

/// The softmax core (`exp_sum`): the SIMD-reproducible `exp` sequence
/// plus the canonical 8-lane sum, across clamp-range inputs (deeply
/// negative logits hit the `exp` underflow clamp).
#[test]
fn exp_sum_is_bit_identical() {
    for_each_case(CASES, |g| {
        let len = len(g);
        let base = cycled_f32(g, len, -120.0..25.0, 0.5);
        let max = simd::max(&base);
        let max = if max.is_finite() { max } else { 0.0 };
        assert_all_match_scalar(&across_backends(|| {
            let mut row = base.clone();
            let s = simd::exp_sum(&mut row, max);
            (s.to_bits(), bits(&row))
        }));
    });
}

/// `len` int8 codes picked by `index(i)` out of 0–69 random ones; `fill`
/// when none were drawn.
fn picked_i8(codes: &[i8], len: usize, fill: i8, index: impl Fn(usize) -> usize) -> Vec<i8> {
    (0..len)
        .map(|i| codes.get(index(i) % codes.len().max(1)).copied().unwrap_or(fill))
        .collect()
}

fn codes(g: &mut Gen) -> Vec<i8> {
    let n = g.usize_in(0..70);
    g.vec_i8(n)
}

/// The fused 4-row int8 matvec step equals four plain int8 dots on
/// every backend (exact integer arithmetic).
#[test]
fn dot_i8x4_matches_four_dots() {
    for_each_case(CASES, |g| {
        let k = len(g);
        let codes = codes(g);
        let a = picked_i8(&codes, k, -127, |i| i);
        let w = picked_i8(&codes, 4 * k, 127, |i| i * 7 + 3);
        for (backend, got) in across_backends(|| simd::dot_i8x4(&a, &w)) {
            for t in 0..4 {
                let expect: i32 = a
                    .iter()
                    .zip(&w[t * k..(t + 1) * k])
                    .map(|(&x, &y)| x as i32 * y as i32)
                    .sum();
                assert_eq!(got[t], expect, "{} row {t} diverged", backend.name());
            }
        }
    });
}

/// Activation quantization (`abs_max_finite` + `quantize_i8`): scale
/// and codes are bit-identical across backends, including values that
/// land exactly on rounding ties.
#[test]
fn quantization_is_bit_identical() {
    for_each_case(CASES, |g| {
        let len = len(g);
        let row = cycled_f32(g, len, -6.0..6.0, 0.75);
        assert_all_match_scalar(&across_backends(|| {
            let (amax, finite) = simd::abs_max_finite(&row);
            let mut codes = vec![0i8; len];
            if amax > 0.0 {
                simd::quantize_i8(&row, 127.0 / amax, &mut codes);
            }
            (amax.to_bits(), finite, codes)
        }));
    });
}

/// The fused int8 matvec + rescale (`quant_matvec`): bit-identical
/// output rows across backends, for ragged widths in both dimensions.
#[test]
fn quant_matvec_is_bit_identical() {
    for_each_case(CASES, |g| {
        let (k, n) = (len(g), len(g));
        let codes = codes(g);
        let x_scale = g.f32_in(1e-3..1.0);
        let xq = picked_i8(&codes, k, 63, |i| i);
        let wq = picked_i8(&codes, n * k, -63, |i| i * 11 + 5);
        let scales: Vec<f32> = (0..n).map(|o| 1e-2 + o as f32 * 1e-3).collect();
        let bias: Vec<f32> = (0..n).map(|o| o as f32 * 0.1 - 0.7).collect();
        assert_all_match_scalar(&across_backends(|| {
            let mut out = vec![0.0f32; n];
            simd::quant_matvec(&xq, x_scale, &wq, &scales, &bias, &mut out);
            bits(&out)
        }));
    });
}

/// The int8 dot is exact integer arithmetic: identical on every
/// backend, including saturation-magnitude inputs (±127).
#[test]
fn dot_i8_is_identical_across_backends() {
    for_each_case(CASES, |g| {
        let len = len(g);
        let codes = codes(g);
        let a = picked_i8(&codes, len, 127, |i| i);
        let b: Vec<i8> = a.iter().rev().map(|&v| v.wrapping_neg().max(-127)).collect();
        let expect: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
        for (backend, got) in across_backends(|| simd::dot_i8(&a, &b)) {
            assert_eq!(got, expect, "{} diverged", backend.name());
        }
    });
}

/// All three matmul orientations (allocating, `_into`, `_row_into`) are
/// bit-identical across backends.
#[test]
fn matmuls_are_bit_identical() {
    for_each_case(CASES, |g| {
        let (m, k, n) = (g.usize_in(1..7), g.usize_in(1..19), g.usize_in(1..19));
        let row = g.usize_in(0..m);
        let a_data = g.vec_f32(6 * 18, -3.0..3.0);
        let b_data = g.vec_f32(18 * 18, -3.0..3.0);
        let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
        let b_t = Matrix::from_vec(n, k, b_data[..n * k].to_vec());
        let a_t = Matrix::from_vec(k, m, a_data[..k * m].to_vec());
        assert_all_match_scalar(&across_backends(|| {
            let nn = a.matmul(&b);
            let tn = a_t.matmul_tn(&b);
            let nt = a.matmul_nt(&b_t);
            let mut nn_into = Matrix::zeros(0, 0);
            a.matmul_into(&b, &mut nn_into);
            // Any row, not only the first: inference scores the masked
            // row, so the kernels' row offset must hold on every backend.
            let mut one_row = vec![0.0f32; n];
            a.matmul_row_into(row, &b, &mut one_row);
            assert_eq!(bits(&one_row), bits(&nn.data()[row * n..(row + 1) * n]));
            (
                bits(nn.data()),
                bits(tn.data()),
                bits(nt.data()),
                bits(nn_into.data()),
                bits(&one_row),
            )
        }));
    });
}

/// The layer-level ops the engine calls: softmax over a row slice,
/// GELU into a buffer, LayerNorm (both entry points), and the bias
/// broadcast.
#[test]
fn layer_ops_are_bit_identical() {
    for_each_case(CASES, |g| {
        let (rows, cols) = (g.usize_in(1..5), g.usize_in(1..21));
        let data = g.vec_f32(4 * 20, -4.0..4.0);
        let x = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
        let bias: Vec<f32> = (0..cols).map(|c| c as f32 * 0.3 - 1.0).collect();
        let ln = LayerNorm::new(cols);
        let results = across_backends(|| {
            let mut soft = x.clone();
            for r in 0..rows {
                softmax_slice(soft.row_mut(r));
            }
            let mut gelu_out = Matrix::zeros(0, 0);
            gelu_forward_into(&x, &mut gelu_out);
            let (ln_fwd, _cache) = ln.forward(&x);
            let mut ln_into = Matrix::zeros(0, 0);
            ln.forward_into(&x, &mut ln_into);
            let mut broadcast = x.clone();
            broadcast.add_row_broadcast(&bias);
            (
                bits(soft.data()),
                bits(gelu_out.data()),
                bits(ln_fwd.data()),
                bits(ln_into.data()),
                bits(broadcast.data()),
            )
        });
        assert_all_match_scalar(&results);
        for (_, got) in &results {
            // The two LayerNorm entry points must also agree with each
            // other (training vs inference path).
            assert_eq!(got.2, got.3, "forward vs forward_into diverged");
        }
    });
}

/// The engine-level guarantee: full BERT inference produces identical
/// bits on every backend.
#[test]
fn bert_inference_is_bit_identical_across_backends() {
    use kamel_nn::{BertConfig, BertMlmModel, InferScratch};
    use kamel_rng::Rng;

    let mut rng = Rng::seed_from_u64(0x51D);
    let model = BertMlmModel::new(BertConfig::tiny(13), &mut rng);
    let ids: Vec<u32> = vec![1, 5, 9, 2, 7, 11, 3];
    let results = across_backends(|| {
        let mut scratch = InferScratch::new();
        model.predict_with(&mut scratch, &ids, 3).to_vec()
    });
    let reference = bits(&results[0].1);
    for (backend, got) in &results {
        assert_eq!(bits(got), reference, "{} diverged from scalar", backend.name());
    }
}
