//! Seeded property tests for the neural substrate: numerical invariants
//! that must hold for arbitrary shapes and values. Each test runs 32
//! seeded cases; a failure prints its seed.

mod common;

use common::for_each_case;
use kamel_nn::layers::{
    dropout_backward, dropout_forward, gelu, gelu_grad, softmax_rows, softmax_rows_backward,
    LayerNorm, Linear,
};
use kamel_nn::Matrix;
use kamel_rng::Rng;

const CASES: u64 = 32;

/// Softmax rows are probability distributions for any finite input.
#[test]
fn softmax_rows_are_distributions() {
    for_each_case(CASES, |g| {
        let m = g.matrix(4, 7, -5.0..5.0);
        let mut s = m.clone();
        softmax_rows(&mut s);
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        // Shift invariance: adding a constant per row leaves softmax fixed.
        let mut shifted = m.clone();
        for r in 0..4 {
            for v in shifted.row_mut(r) {
                *v += 3.25;
            }
        }
        softmax_rows(&mut shifted);
        for (a, b) in s.data().iter().zip(shifted.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    });
}

/// Softmax backward matches finite differences at a random coordinate.
#[test]
fn softmax_backward_matches_fd() {
    for_each_case(CASES, |g| {
        let logits = g.matrix(1, 6, -5.0..5.0);
        let upstream = g.matrix(1, 6, -5.0..5.0);
        let col = g.usize_in(0..6);
        let mut a = logits.clone();
        softmax_rows(&mut a);
        let ds = softmax_rows_backward(&a, &upstream);
        let eps = 1e-2f32;
        let loss = |l: &Matrix| {
            let mut s = l.clone();
            softmax_rows(&mut s);
            s.frobenius_dot(&upstream)
        };
        let mut up = logits.clone();
        up.set(0, col, logits.get(0, col) + eps);
        let mut dn = logits.clone();
        dn.set(0, col, logits.get(0, col) - eps);
        let num = (loss(&up) - loss(&dn)) / (2.0 * eps);
        assert!((num - ds.get(0, col)).abs() < 2e-2, "num {num} got {}", ds.get(0, col));
    });
}

/// LayerNorm output is standardized per row for any non-constant input.
#[test]
fn layernorm_standardizes() {
    for_each_case(CASES, |g| {
        let m = g.matrix(3, 8, -5.0..5.0);
        let ln = LayerNorm::new(8);
        let (y, _) = ln.forward(&m);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            // Constant rows normalize to ~0 variance; others to ~1.
            assert!(var < 1.3, "row {r} var {var}");
        }
    });
}

/// The three matmul variants agree wherever their shapes overlap.
#[test]
fn matmul_variants_agree() {
    for_each_case(CASES, |g| {
        let a = g.matrix(3, 4, -5.0..5.0);
        let b = g.matrix(4, 2, -5.0..5.0);
        let c = a.matmul(&b);
        let at = Matrix::from_fn(4, 3, |r, cc| a.get(cc, r));
        let c_tn = at.matmul_tn(&b);
        let bt = Matrix::from_fn(2, 4, |r, cc| b.get(cc, r));
        let c_nt = a.matmul_nt(&bt);
        for i in 0..c.data().len() {
            assert!((c.data()[i] - c_tn.data()[i]).abs() < 1e-3);
            assert!((c.data()[i] - c_nt.data()[i]).abs() < 1e-3);
        }
    });
}

/// GELU is bounded below, asymptotically identity, and its analytic
/// gradient matches finite differences.
#[test]
fn gelu_properties() {
    for_each_case(CASES, |g| {
        let x = g.f32_in(-6.0..6.0);
        assert!(gelu(x) >= -0.2);
        assert!(gelu(x) <= x.max(0.0) + 1e-4);
        let eps = 1e-3;
        let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
        assert!((num - gelu_grad(x)).abs() < 5e-3, "x {x}");
    });
}

/// Linear backward input gradient matches finite differences at a
/// random coordinate, for random layer seeds.
#[test]
fn linear_dx_matches_fd() {
    for_each_case(CASES, |g| {
        let mut rng = Rng::seed_from_u64(g.next_u64() % 1000);
        let (r, c) = (g.usize_in(0..3), g.usize_in(0..4));
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = Matrix::randn(3, 4, 1.0, &mut rng);
        let upstream = Matrix::randn(3, 3, 1.0, &mut rng);
        let dx = lin.backward(&x, &upstream);
        let eval = lin.clone();
        let loss = |xm: &Matrix| eval.forward(xm).frobenius_dot(&upstream);
        let eps = 1e-2;
        let mut up = x.clone();
        up.set(r, c, x.get(r, c) + eps);
        let mut dn = x.clone();
        dn.set(r, c, x.get(r, c) - eps);
        let num = (loss(&up) - loss(&dn)) / (2.0 * eps);
        assert!((num - dx.get(r, c)).abs() < 5e-2, "num {num} got {}", dx.get(r, c));
    });
}

/// Dropout preserves expectation and its backward uses the same mask.
#[test]
fn dropout_expectation() {
    for_each_case(CASES, |g| {
        let mut rng = Rng::seed_from_u64(g.next_u64() % 1000);
        let p = g.f32_in(0.0..0.9);
        let x = Matrix::from_fn(30, 30, |_, _| 1.0);
        let (out, mask) = dropout_forward(&x, p, &mut rng);
        let mean: f32 = out.data().iter().sum::<f32>() / 900.0;
        assert!((mean - 1.0).abs() < 0.25, "p {p} mean {mean}");
        // mask entries are exactly 0 or the inverse keep rate.
        let scale = if p == 0.0 { 1.0 } else { 1.0 / (1.0 - p) };
        for &m in mask.data() {
            assert!(m == 0.0 || (m - scale).abs() < 1e-5);
        }
        let dy = Matrix::from_fn(30, 30, |_, _| 2.0);
        let dx = dropout_backward(&mask, &dy);
        for (d, m) in dx.data().iter().zip(mask.data()) {
            assert!((d - 2.0 * m).abs() < 1e-5);
        }
    });
}

/// `write_tensors` → `read_tensors` is the identity on bits for any model
/// shape and any weight values — signed zeros, subnormals, infinities and
/// NaN payloads included — and the reloaded model predicts the same bits.
/// Runs under every `KAMEL_SIMD` the suite is run with.
#[test]
fn tensor_section_round_trips_bit_exactly() {
    use kamel_nn::{BertConfig, BertMlmModel, ByteSource, InferScratch, PackCursor};
    use std::sync::Arc;

    const SPECIALS: [u32; 10] = [
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807F_FFFF, // largest negative subnormal
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0000, // canonical quiet NaN
        0x7FC0_1234, // quiet NaN with a payload
        0xFFA0_0001, // negative signalling NaN with a payload
        0x7F7F_FFFF, // f32::MAX
        0x0080_0000, // smallest normal
    ];
    for_each_case(CASES, |g| {
        let heads = g.usize_in(1..4);
        let config = BertConfig {
            vocab_size: g.usize_in(6..40),
            hidden: heads * g.usize_in(1..8),
            n_layers: g.usize_in(0..3),
            n_heads: heads,
            ff_dim: g.usize_in(1..24),
            max_seq_len: g.usize_in(2..12),
        };
        let mut rng = Rng::seed_from_u64(g.next_u64());
        let mut model = BertMlmModel::new(config, &mut rng);
        // Clean weights first: a prediction that means something.
        let (ids, pos) = g.request(config.vocab_size, config.max_seq_len);
        let reload = |model: &BertMlmModel, lead: usize| {
            let mut bytes = vec![0xA5u8; lead];
            model.write_tensors(&mut bytes);
            let len = bytes.len() - lead;
            let buf: Arc<dyn ByteSource> = Arc::new(bytes);
            let mut cur = PackCursor::new(&buf, lead, len).expect("section in range");
            let back = BertMlmModel::read_tensors(&mut cur).expect("a written section reads back");
            cur.finish().expect("the section is consumed exactly");
            back
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = InferScratch::new();
        for poisoned in [false, true] {
            if poisoned {
                for p in model.params() {
                    let data = p.w.data_mut();
                    for _ in 0..1 + data.len() / 4 {
                        let at = g.usize_in(0..data.len());
                        data[at] = f32::from_bits(SPECIALS[g.usize_in(0..SPECIALS.len())]);
                    }
                }
            }
            let mut back = reload(&model, g.usize_in(0..9));
            assert_eq!(back.config, config);
            let want = bits(model.predict_with(&mut scratch, &ids, pos));
            let got = bits(back.predict_with(&mut scratch, &ids, pos));
            assert_eq!(want, got, "prediction diverged (poisoned: {poisoned})");
            for (i, (a, b)) in model.params().iter().zip(back.params()).enumerate() {
                let shape = |m: &Matrix| (m.rows(), m.cols());
                assert_eq!(shape(&a.w), shape(&b.w), "tensor {i}");
                assert_eq!(bits(a.w.data()), bits(b.w.data()), "tensor {i}");
                // No gradient and no Adam moments come back.
                let state = [&b.g, &b.m, &b.v];
                assert!(state.iter().all(|s| s.data().is_empty()), "tensor {i}");
            }
        }
    });
}
