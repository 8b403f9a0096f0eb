//! Opt-in int8 weight-quantized serving path.
//!
//! Serving memory and bandwidth are dominated by the linear-layer weights
//! (Q/K/V/O, the two FFN projections, and the vocab head). This module
//! quantizes those weights to `i8` with **per-output-row symmetric
//! scales** and runs their matmuls as exact `i8 × i8 → i32` integer dot
//! products with a single f32 rescale per output element:
//!
//! ```text
//! w_scale[o] = max_i |W[i][o]| / 127          (per output column of W)
//! Wq[o][i]   = rne(W[i][o] / w_scale[o])      clamped to [-127, 127]
//! x_scale    = max_i |x[i]| / 127             (per activation row, dynamic)
//! xq[i]      = rne(x[i] / x_scale)            clamped to [-127, 127]
//! y[o]       = Σ_i xq[i]·Wq[o][i]  ×  (x_scale · w_scale[o])  +  b[o]
//! ```
//!
//! `rne` is round-to-nearest, ties-to-even — the hardware vector rounding
//! mode (`vroundps`), so the SIMD and scalar quantizers emit identical
//! codes.
//!
//! Everything *between* the weight matmuls — embeddings, LayerNorm,
//! softmax, attention score products, residuals, GELU — stays f32, so the
//! error budget is confined to the projections. The clamp range is the
//! symmetric `[-127, 127]` (never `-128`): that keeps `q` and `-q` both
//! representable and bounds every product by `127² = 16129`.
//!
//! The integer dot runs through [`crate::simd::dot_i8x4`] /
//! [`crate::simd::dot_i8`]. Integer addition is associative, so — unlike
//! the f32 kernels — any lane order gives the same sum and cross-backend
//! bit-identity is trivial. Activation quantization runs through
//! [`crate::simd::abs_max_finite`] and [`crate::simd::quantize_i8`]; the
//! codes are element-wise and bit-identical across backends.
//!
//! A quantized model is a **derived artifact**: it is rebuilt from the
//! f32 weights (which remain the source of truth) after training or on
//! load, never serialized. Accuracy gating lives upstream in `kamel-lm` /
//! `kamel-core`, which refuse to enable the path when top-1 agreement
//! with the f32 model drops below the configured bound.

use crate::bert::BertMlmModel;
use crate::encoder::EncoderLayer;
use crate::infer::{InferScratch, Projection};
use crate::layers::Linear;
use crate::matrix::Matrix;
use crate::pack::{ByteSource, PackCursor};
use crate::simd;
use std::sync::Arc;

/// Storage behind a quantized layer's `i8` codes: owned after
/// quantization from f32 weights, or a borrowed view into a shared
/// [`ByteSource`] (the mmap serving path — the codes are read straight
/// out of the mapped pages, never copied to the heap).
enum CodeStore {
    Owned(Vec<i8>),
    Shared {
        buf: Arc<dyn ByteSource>,
        offset: usize,
        len: usize,
    },
}

impl CodeStore {
    fn codes(&self) -> &[i8] {
        match self {
            CodeStore::Owned(v) => v,
            CodeStore::Shared { buf, offset, len } => {
                let bytes = &buf.bytes()[*offset..*offset + *len];
                // i8 and u8 have identical size and alignment, and every
                // bit pattern is valid for both; reinterpreting a shared
                // read-only byte slice is sound.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const i8, bytes.len()) }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            CodeStore::Owned(v) => v.len(),
            CodeStore::Shared { len, .. } => *len,
        }
    }
}

impl std::fmt::Debug for CodeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeStore::Owned(v) => write!(f, "CodeStore::Owned({} codes)", v.len()),
            CodeStore::Shared { offset, len, .. } => {
                write!(f, "CodeStore::Shared({len} codes at +{offset})")
            }
        }
    }
}

impl Clone for CodeStore {
    fn clone(&self) -> Self {
        match self {
            CodeStore::Owned(v) => CodeStore::Owned(v.clone()),
            CodeStore::Shared { buf, offset, len } => CodeStore::Shared {
                buf: Arc::clone(buf),
                offset: *offset,
                len: *len,
            },
        }
    }
}

/// Quantizes one activation row into `xq`, returning the dequantization
/// scale (`amax / 127`). A row of zeros (or non-finite garbage) maps to
/// all-zero codes with scale 0, so the dot contributes nothing and the
/// output falls back to the bias.
///
/// Codes round ties-to-even (the hardware vector rounding mode, see
/// [`simd::quantize_i8`]) — runs per activation row on the serving hot
/// path, so both passes dispatch into the SIMD backend.
pub fn quantize_row(row: &[f32], xq: &mut Vec<i8>) -> f32 {
    xq.clear();
    xq.resize(row.len(), 0);
    let (amax, finite) = simd::abs_max_finite(row);
    if amax == 0.0 || !finite {
        return 0.0;
    }
    let inv = 127.0 / amax;
    simd::quantize_i8(row, inv, xq);
    amax / 127.0
}

/// An int8-quantized linear layer: `i8` weights in transposed `[out, in]`
/// layout (row `o` holds output column `o` of the f32 weight), one f32
/// scale per output row, and the f32 bias.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    /// `i8` weights, `[out_dim, in_dim]` row-major — owned, or a
    /// zero-copy view into a mapped model-store record.
    wq: CodeStore,
    /// Per-output-row dequantization scales (`amax / 127`).
    scales: Vec<f32>,
    /// f32 bias, length `out_dim`.
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl QuantizedLinear {
    /// Quantizes an f32 [`Linear`] (`W: [in, out]`) with per-output-column
    /// symmetric scales.
    pub fn from_linear(l: &Linear) -> Self {
        let (in_dim, out_dim) = (l.weight.w.rows(), l.weight.w.cols());
        let w = l.weight.w.data();
        let mut wq = vec![0i8; in_dim * out_dim];
        let mut scales = vec![0.0f32; out_dim];
        for o in 0..out_dim {
            let mut amax = 0.0f32;
            for i in 0..in_dim {
                amax = amax.max(w[i * out_dim + o].abs());
            }
            if amax == 0.0 || !amax.is_finite() {
                continue; // row stays zero with scale 0
            }
            let inv = 127.0 / amax;
            scales[o] = amax / 127.0;
            let row = &mut wq[o * in_dim..(o + 1) * in_dim];
            for (i, q) in row.iter_mut().enumerate() {
                // Ties-to-even, matching the activation codes (`simd::quantize_i8`).
                *q = (w[i * out_dim + o] * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
            }
        }
        Self {
            wq: CodeStore::Owned(wq),
            scales,
            bias: l.bias.w.row(0).to_vec(),
            in_dim,
            out_dim,
        }
    }

    /// Whether the codes are a zero-copy view into a shared byte source
    /// (vs heap-owned).
    pub fn codes_are_borrowed(&self) -> bool {
        matches!(self.wq, CodeStore::Shared { .. })
    }

    /// Bytes this layer occupies in the packed record layout.
    fn packed_len(out_dim: usize, in_dim: usize) -> usize {
        let unpadded = 8 + out_dim * 4 * 2 + out_dim * in_dim;
        (unpadded + 3) & !3
    }

    /// Appends this layer in the fixed record layout (all little-endian):
    ///
    /// ```text
    /// u32 out_dim │ u32 in_dim │ f32 scales[out] │ f32 bias[out]
    ///             │ i8 codes[out × in] │ zero pad to a 4-byte boundary
    /// ```
    ///
    /// The codes block is last, so with a 4-byte-aligned record start
    /// every numeric field lands on its natural alignment and the codes
    /// can be served as one contiguous `[out, in]` slice — exactly what
    /// [`simd::quant_matvec`] consumes.
    pub fn write_packed(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&(self.out_dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.in_dim as u32).to_le_bytes());
        for &s in &self.scales {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for &b in &self.bias {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &q in self.wq.codes() {
            out.push(q as u8);
        }
        while !(out.len() - start).is_multiple_of(4) {
            out.push(0);
        }
        debug_assert_eq!(out.len() - start, Self::packed_len(self.out_dim, self.in_dim));
    }

    /// Reads one layer back from the packed layout at `cur`, taking the
    /// codes as a zero-copy view into `cur`'s byte source. Scales and
    /// bias (a few KB of f32s) are copied out — unlike the codes they
    /// need 4-byte alignment, which an arbitrary byte source cannot
    /// guarantee.
    fn read_packed(cur: &mut PackCursor) -> Result<Self, String> {
        let out_dim = cur.read_u32()? as usize;
        let in_dim = cur.read_u32()? as usize;
        if out_dim == 0 || in_dim == 0 || out_dim > (1 << 24) || in_dim > (1 << 24) {
            return Err(format!("implausible quantized dims {out_dim}×{in_dim}"));
        }
        let scales = cur.read_f32s(out_dim)?;
        let bias = cur.read_f32s(out_dim)?;
        let (offset, len) = cur.take_codes(out_dim * in_dim)?;
        cur.align(4)?;
        Ok(Self {
            wq: CodeStore::Shared {
                buf: Arc::clone(cur.source()),
                offset,
                len,
            },
            scales,
            bias,
            in_dim,
            out_dim,
        })
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Bytes held by the quantized weights (the f32 layer holds 4× this).
    pub fn weight_bytes(&self) -> usize {
        self.wq.len()
    }

    /// The raw code slice (`[out_dim, in_dim]` row-major).
    pub fn codes(&self) -> &[i8] {
        self.wq.codes()
    }

    /// Per-output-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Quantized matvec for one activation row: `out[o] = q·Wq[o] ×
    /// (x_scale·w_scale[o]) + b[o]`. `xq` is the caller's reusable code
    /// buffer.
    pub fn forward_row_into(&self, x_row: &[f32], xq: &mut Vec<i8>, out: &mut [f32]) {
        debug_assert_eq!(x_row.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        let x_scale = quantize_row(x_row, xq);
        // One dispatch for the whole matvec: the fused kernel shares each
        // activation load across four weight rows and rescales in-register.
        // With mapped codes this reads straight out of the store's pages.
        simd::quant_matvec(xq, x_scale, self.wq.codes(), &self.scales, &self.bias, out);
    }

    /// Quantized forward for a `[rows, in]` batch into a reusable buffer
    /// (the int8 counterpart of [`Linear::forward_into`]).
    pub fn forward_into(&self, x: &Matrix, xq: &mut Vec<i8>, out: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim, "input width mismatch");
        out.reset_zeroed(x.rows(), self.out_dim);
        for r in 0..x.rows() {
            self.forward_row_into(x.row(r), xq, out.row_mut(r));
        }
    }
}

/// The quantized projections of one encoder layer, in
/// [`crate::encoder::EncoderLayer::projections`] order.
#[derive(Debug, Clone)]
struct QuantizedLayer([QuantizedLinear; 6]);

impl Projection for QuantizedLinear {
    fn project_into(&self, x: &Matrix, xq: &mut Vec<i8>, out: &mut Matrix) {
        self.forward_into(x, xq, out);
    }

    fn project_row_into(&self, x: &Matrix, row: usize, xq: &mut Vec<i8>, out: &mut [f32]) {
        self.forward_row_into(x.row(row), xq, out);
    }
}

/// All int8 weights of a BERT MLM: the per-layer projections plus the
/// vocab head. Built from (and served alongside) the f32 model, which
/// keeps the embeddings and LayerNorm parameters.
#[derive(Debug, Clone)]
pub struct QuantizedBertMlm {
    layers: Vec<QuantizedLayer>,
    head: QuantizedLinear,
}

impl QuantizedBertMlm {
    /// Quantizes every linear projection of `model`.
    pub fn from_model(model: &BertMlmModel) -> Self {
        let layers = model
            .layers
            .iter()
            .map(|l| QuantizedLayer(l.projections().map(QuantizedLinear::from_linear)))
            .collect();
        Self {
            layers,
            head: QuantizedLinear::from_linear(&model.out),
        }
    }

    /// Bytes held by all quantized weights.
    pub fn weight_bytes(&self) -> usize {
        let per_layer: usize = self
            .layers
            .iter()
            .flat_map(|l| &l.0)
            .map(QuantizedLinear::weight_bytes)
            .sum();
        per_layer + self.head.weight_bytes()
    }

    /// Number of quantized encoder layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Serializes all quantized weights into the fixed packed record
    /// layout ([`QPACK_VERSION`] header, then every projection of every
    /// layer in order, then the head). The result round-trips through
    /// [`QuantizedBertMlm::read_packed`] bit-exactly: codes, scales, and
    /// bias are stored verbatim, so a reader serves the same int8 math.
    pub fn write_packed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&QPACK_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for projection in self.layers.iter().flat_map(|l| &l.0) {
            projection.write_packed(&mut out);
        }
        self.head.write_packed(&mut out);
        out
    }

    /// Reconstructs quantized weights from `len` packed bytes at `offset`
    /// of `buf`, with every code block a zero-copy view into `buf` — the
    /// mmap serving path materializes a model's int8 weights without
    /// copying them off the mapped pages. Scales/bias are copied (small,
    /// alignment-sensitive). Fails loudly on any malformed framing.
    pub fn read_packed(
        buf: Arc<dyn ByteSource>,
        offset: usize,
        len: usize,
    ) -> Result<Self, String> {
        let mut cur = PackCursor::new(&buf, offset, len)?;
        let version = cur.read_u32()?;
        if version != QPACK_VERSION {
            return Err(format!(
                "packed quantized weights are version {version}, expected {QPACK_VERSION}"
            ));
        }
        let n_layers = cur.read_u32()? as usize;
        if n_layers > 1024 {
            return Err(format!("implausible quantized layer count {n_layers}"));
        }
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let mut read = || QuantizedLinear::read_packed(&mut cur);
            layers.push(QuantizedLayer([
                read()?,
                read()?,
                read()?,
                read()?,
                read()?,
                read()?,
            ]));
        }
        let head = QuantizedLinear::read_packed(&mut cur)?;
        cur.finish()?;
        Ok(Self { layers, head })
    }

    /// Whether these quantized weights structurally fit `model` (layer
    /// count and every projection's dimensions). Guards installing a
    /// store record's artifact onto the wrong model.
    pub fn matches(&self, model: &BertMlmModel) -> bool {
        if self.layers.len() != model.layers.len() {
            return false;
        }
        let fits = |q: &QuantizedLinear, l: &Linear| {
            q.in_dim == l.weight.w.rows() && q.out_dim == l.weight.w.cols()
        };
        let layer_fits = |(q, l): (&QuantizedLayer, &EncoderLayer)| {
            q.0.iter().zip(l.projections()).all(|(q, l)| fits(q, l))
        };
        self.layers.iter().zip(&model.layers).all(layer_fits) && fits(&self.head, &model.out)
    }

    /// Whether any projection serves its codes as a zero-copy view.
    pub fn codes_are_borrowed(&self) -> bool {
        self.head.codes_are_borrowed()
            || self
                .layers
                .iter()
                .flat_map(|l| &l.0)
                .any(QuantizedLinear::codes_are_borrowed)
    }
}

/// Version tag of the packed quantized-weight record layout.
pub const QPACK_VERSION: u32 = 1;

impl BertMlmModel {
    /// Quantized single prediction; the int8 counterpart of
    /// [`BertMlmModel::predict_with`]. The returned slice borrows the
    /// scratch.
    pub fn predict_quant_with<'s>(
        &self,
        quant: &QuantizedBertMlm,
        scratch: &'s mut InferScratch,
        ids: &[u32],
        pos: usize,
    ) -> &'s [f32] {
        assert!(pos < ids.len(), "position {pos} out of range");
        self.predict_batch_quant_with(quant, scratch, &[(ids, pos)])
            .row(0)
    }

    /// Quantized batched prediction: [`BertMlmModel::predict_batch_with`]'s
    /// forward with every weight matmul (six projections per layer and the
    /// masked-row head) run through the corresponding [`QuantizedLinear`].
    /// Outputs approximate the f32 path; closeness is enforced upstream by
    /// the accuracy gate.
    pub fn predict_batch_quant_with<'s>(
        &self,
        quant: &QuantizedBertMlm,
        scratch: &'s mut InferScratch,
        reqs: &[(&[u32], usize)],
    ) -> &'s Matrix {
        assert_eq!(
            quant.layers.len(),
            self.layers.len(),
            "quantized weights do not match this model"
        );
        let layers = quant.layers.iter().map(|l| l.0.each_ref());
        self.forward_batch(scratch, reqs, layers, &quant.head)
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
    fn quantize_round_trip_is_within_half_step() {
        let mut rng = Rng::seed_from_u64(7);
        let row: Vec<f32> = (0..97).map(|_| rng.range(-3.0f32..3.0)).collect();
        let mut xq = Vec::new();
        let scale = quantize_row(&row, &mut xq);
        assert!(scale > 0.0);
        for (&v, &q) in row.iter().zip(&xq) {
            let back = q as f32 * scale;
            // round() puts every value within half a quantization step.
            assert!(
                (v - back).abs() <= scale * 0.5 + 1e-6,
                "value {v} decoded to {back} (scale {scale})"
            );
        }
    }

    #[test]
    fn quantize_clamps_symmetric_never_minus_128() {
        // A huge outlier forces the rest of the row toward zero codes and
        // the extremes to exactly ±127 (never -128).
        let row = [1.0e3f32, -1.0e3, 0.5, -0.5, 0.0];
        let mut xq = Vec::new();
        let scale = quantize_row(&row, &mut xq);
        assert_eq!(xq[0], 127);
        assert_eq!(xq[1], -127);
        assert!(xq.iter().all(|&q| q >= -127));
        assert!((scale - 1.0e3 / 127.0).abs() < 1e-3);
    }

    #[test]
    fn zero_and_nonfinite_rows_decode_to_bias() {
        let mut xq = Vec::new();
        assert_eq!(quantize_row(&[0.0; 9], &mut xq), 0.0);
        assert!(xq.iter().all(|&q| q == 0));
        assert_eq!(quantize_row(&[f32::NAN, 1.0], &mut xq), 0.0);
        let mut rng = Rng::seed_from_u64(11);
        let lin = Linear::new(6, 4, &mut rng);
        let q = QuantizedLinear::from_linear(&lin);
        let x = Matrix::zeros(1, 6);
        let mut out = Matrix::zeros(0, 0);
        q.forward_into(&x, &mut xq, &mut out);
        assert_eq!(out.row(0), lin.bias.w.row(0));
    }

    #[test]
    fn dot_i8_saturation_edges_are_exact() {
        // ±127 · ±127 over a length crossing both the AVX2 (16) and NEON
        // (8) strides: the widened i32 sum must be exact.
        for n in [1usize, 7, 8, 15, 16, 17, 31, 33] {
            let a: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 127 } else { -127 }).collect();
            let b: Vec<i8> = (0..n).map(|i| if i % 3 == 0 { -127 } else { 127 }).collect();
            let expect: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(simd::dot_i8(&a, &b), expect, "n = {n}");
        }
    }

    #[test]
    fn quantized_linear_approximates_f32_linear() {
        let mut rng = Rng::seed_from_u64(13);
        let lin = Linear::new(48, 32, &mut rng);
        let x = Matrix::from_fn(5, 48, |_, _| rng.range(-2.0f32..2.0));
        let exact = lin.forward(&x);
        let q = QuantizedLinear::from_linear(&lin);
        assert_eq!(q.weight_bytes(), 48 * 32);
        let mut xq = Vec::new();
        let mut approx = Matrix::zeros(0, 0);
        q.forward_into(&x, &mut xq, &mut approx);
        for (e, a) in exact.data().iter().zip(approx.data()) {
            // Two symmetric 8-bit quantizations over a 48-wide dot: the
            // error stays well under 2% of the activation magnitude here.
            assert!((e - a).abs() < 0.05, "exact {e} vs quantized {a}");
        }
    }

    #[test]
    fn quant_batch_matches_quant_single_calls() {
        let m = model(19, 51);
        let q = QuantizedBertMlm::from_model(&m);
        let reqs_owned: Vec<(Vec<u32>, usize)> =
            vec![(vec![1, 2, 3], 1), (vec![4, 5, 6, 7], 0), (vec![8], 0)];
        let reqs: Vec<(&[u32], usize)> = reqs_owned
            .iter()
            .map(|(ids, pos)| (ids.as_slice(), *pos))
            .collect();
        let mut scratch = InferScratch::new();
        let batch = m.predict_batch_quant_with(&q, &mut scratch, &reqs).clone();
        let mut single = InferScratch::new();
        for (i, (ids, pos)) in reqs_owned.iter().enumerate() {
            let one = m.predict_quant_with(&q, &mut single, ids, *pos);
            assert_eq!(batch.row(i), one, "request {i} diverged");
        }
    }

    #[test]
    fn packed_round_trip_is_bit_identical() {
        let m = model(21, 77);
        let q = QuantizedBertMlm::from_model(&m);
        let packed: Arc<dyn ByteSource> = Arc::new(q.write_packed());
        let len = packed.bytes().len();
        let view = QuantizedBertMlm::read_packed(Arc::clone(&packed), 0, len).unwrap();
        assert!(!q.codes_are_borrowed());
        assert!(view.codes_are_borrowed());
        assert!(view.matches(&m));
        assert_eq!(view.layer_count(), q.layer_count());
        assert_eq!(view.weight_bytes(), q.weight_bytes());
        let mut scratch = InferScratch::new();
        let ids = vec![1u32, 4, 9, 2, 15, 3];
        for pos in 0..ids.len() {
            let owned = m.predict_quant_with(&q, &mut scratch, &ids, pos).to_vec();
            let mapped = m.predict_quant_with(&view, &mut scratch, &ids, pos).to_vec();
            // Integer weight math is exact, so a zero-copy view must give
            // the same bits as the owned artifact — not just close values.
            assert_eq!(
                owned.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                mapped.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "position {pos} diverged between owned and mapped codes"
            );
        }
    }

    #[test]
    fn packed_round_trip_survives_offset_into_larger_buffer() {
        let m = model(17, 78);
        let q = QuantizedBertMlm::from_model(&m);
        let record = q.write_packed();
        // Embed the record mid-buffer at a non-trivial offset, as the store
        // file does, and check absolute-offset framing holds up.
        let mut file = vec![0xAAu8; 37];
        file.extend_from_slice(&record);
        file.extend_from_slice(&[0x55u8; 11]);
        let buf: Arc<dyn ByteSource> = Arc::new(file);
        let view = QuantizedBertMlm::read_packed(Arc::clone(&buf), 37, record.len()).unwrap();
        assert!(view.matches(&m));
        let mut scratch = InferScratch::new();
        let ids = vec![2u32, 7, 1];
        let owned = m.predict_quant_with(&q, &mut scratch, &ids, 1).to_vec();
        let mapped = m.predict_quant_with(&view, &mut scratch, &ids, 1).to_vec();
        assert_eq!(owned, mapped);
    }

    #[test]
    fn packed_rejects_malformed_records() {
        let m = model(13, 79);
        let q = QuantizedBertMlm::from_model(&m);
        let record = q.write_packed();

        // Truncation anywhere must fail, never panic or misread.
        for cut in [0usize, 3, 8, record.len() / 2, record.len() - 1] {
            let buf: Arc<dyn ByteSource> = Arc::new(record[..cut].to_vec());
            assert!(
                QuantizedBertMlm::read_packed(Arc::clone(&buf), 0, cut).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }

        // Version skew fails with a version message.
        let mut skewed = record.clone();
        skewed[0] = 0xFF;
        let len = skewed.len();
        let buf: Arc<dyn ByteSource> = Arc::new(skewed);
        let err = QuantizedBertMlm::read_packed(buf, 0, len).unwrap_err();
        assert!(err.contains("version"), "unexpected error: {err}");

        // A record range beyond the source is rejected up front.
        let buf: Arc<dyn ByteSource> = Arc::new(record.clone());
        assert!(QuantizedBertMlm::read_packed(buf, 8, record.len()).is_err());

        // Trailing garbage inside the declared range is rejected.
        let mut padded = record.clone();
        padded.extend_from_slice(&[0u8; 16]);
        let len = padded.len();
        let buf: Arc<dyn ByteSource> = Arc::new(padded);
        let err = QuantizedBertMlm::read_packed(buf, 0, len).unwrap_err();
        assert!(err.contains("trailing"), "unexpected error: {err}");
    }

    #[test]
    fn quant_probs_are_close_to_f32_probs() {
        let m = model(23, 52);
        let q = QuantizedBertMlm::from_model(&m);
        assert!(q.weight_bytes() > 0);
        let mut scratch = InferScratch::new();
        let ids = vec![1u32, 5, 9, 13, 2];
        let exact = m.predict_with(&mut scratch, &ids, 2).to_vec();
        let approx = m.predict_quant_with(&q, &mut scratch, &ids, 2).to_vec();
        let l1: f32 = exact
            .iter()
            .zip(&approx)
            .map(|(e, a)| (e - a).abs())
            .sum();
        assert!(l1 < 0.2, "quantized distribution drifted: L1 = {l1}");
        // An untrained tiny model is near-uniform, so argmax agreement is
        // not guaranteed here; distribution closeness is the contract.
    }
}
