//! Binary weight records: the bounds-checked reader both packed layouts
//! share, and the f32 tensor section of a BERT model.
//!
//! A model store keeps weights as bytes, not text: the int8 serving
//! artifact ([`crate::quant::QuantizedBertMlm::write_packed`]) and the f32
//! weights written here sit in the same mapped file and are read through
//! the same [`PackCursor`]. The f32 tensor section is
//!
//! ```text
//! magic        [u8; 4]  b"KTNS"
//! version      u32      1
//! dtype        u32      0 = little-endian f32
//! config       6 × u32  vocab_size, hidden, n_layers, n_heads, ff_dim,
//!                       max_seq_len
//! tensor_count u32      6 + 16 × n_layers
//! shapes       tensor_count × (rows u32, cols u32)
//! weights      every tensor's `w`, row-major f32, in
//!              `BertMlmModel::params()` order
//! pad          zero bytes to an 8-byte boundary of the section
//! ```
//!
//! Config and layout travel with the weights, so the reader never trusts
//! a length it reads: it recomputes every shape from the config, requires
//! the table to repeat them, and checks that the bytes the shapes call
//! for are present before it allocates one of them. A record paired with
//! the wrong reader is a type error here, not a parse error somewhere
//! downstream. Gradients and Adam moments are not stored: a reloaded
//! [`Param`] holds weights only (see [`Param::from_weights`]).

use crate::attention::MultiHeadAttention;
use crate::bert::{BertConfig, BertMlmModel};
use crate::encoder::EncoderLayer;
use crate::layers::{Embedding, LayerNorm, Linear, Param};
use crate::matrix::Matrix;
use std::sync::Arc;

/// Read-only backing bytes for packed weights — typically a
/// memory-mapped model-store file. The returned slice must be stable for
/// the source's lifetime (a mapping never moves; a `Vec` source must not
/// be mutated, which `ByteSource` consumers cannot do through the trait).
pub trait ByteSource: Send + Sync {
    /// The full backing byte range.
    fn bytes(&self) -> &[u8];
}

impl ByteSource for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

/// Bounds-checked reader over one packed record inside a shared byte
/// source. Offsets are absolute within the source, so zero-copy views
/// built from the cursor address the source directly. Every read checks
/// the claimed length against the record's end before touching (or
/// allocating for) a byte of it.
pub struct PackCursor<'a> {
    buf: &'a Arc<dyn ByteSource>,
    start: usize,
    pos: usize,
    end: usize,
}

impl<'a> PackCursor<'a> {
    /// A cursor over `len` bytes at `offset` of `buf`; fails when that
    /// range does not lie inside the source.
    pub fn new(buf: &'a Arc<dyn ByteSource>, offset: usize, len: usize) -> Result<Self, String> {
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= buf.bytes().len())
            .ok_or_else(|| {
                format!(
                    "packed record [{offset}, +{len}) exceeds source of {} bytes",
                    buf.bytes().len()
                )
            })?;
        Ok(Self {
            buf,
            start: offset,
            pos: offset,
            end,
        })
    }

    /// The source this cursor reads, for building zero-copy views.
    pub(crate) fn source(&self) -> &'a Arc<dyn ByteSource> {
        self.buf
    }

    /// Bytes left between the cursor and the record's end.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let next = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.end)
            .ok_or_else(|| "packed record truncated".to_string())?;
        let slice = &self.buf.bytes()[self.pos..next];
        self.pos = next;
        Ok(slice)
    }

    /// Reads one little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads one little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    /// Reads `n` little-endian `f32`s into an owned buffer.
    pub fn read_f32s(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let b = self.take(n.checked_mul(4).ok_or("packed record overflow")?)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads `n` little-endian `u64`s into an owned buffer.
    pub fn read_u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let b = self.take(n.checked_mul(8).ok_or("packed record overflow")?)?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Consumes `n` code bytes, returning their absolute (offset, len).
    pub(crate) fn take_codes(&mut self, n: usize) -> Result<(usize, usize), String> {
        let offset = self.pos;
        self.take(n)?;
        Ok((offset, n))
    }

    /// Skips padding up to the next multiple of `align` bytes from the
    /// record's start; the padding must be zero.
    pub fn align(&mut self, align: usize) -> Result<(), String> {
        let pad = (align - (self.pos - self.start) % align) % align;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err("packed record has non-zero padding".to_string());
        }
        Ok(())
    }

    /// Fails unless every byte of the record was consumed.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos != self.end {
            return Err(format!(
                "packed record has {} trailing bytes",
                self.end - self.pos
            ));
        }
        Ok(())
    }
}

/// First four bytes of an f32 tensor section.
const TENSOR_MAGIC: [u8; 4] = *b"KTNS";
/// Version tag of the tensor section layout.
const TENSOR_VERSION: u32 = 1;
/// The one dtype written today: little-endian IEEE-754 binary32.
const DTYPE_F32: u32 = 0;
/// Largest value any single `BertConfig` field may claim (the paper's
/// deployment scale is 768 / 3072 / 512).
const MAX_DIM: usize = 1 << 24;
/// Largest layer count a section may claim.
const MAX_LAYERS: usize = 1024;

/// The `(rows, cols)` of every tensor of a model with `config`, in
/// [`BertMlmModel::params`] order — the one place the layout is spelled
/// out, shared by the writer's self-check and the reader's validation.
fn tensor_shapes(c: &BertConfig) -> Vec<(usize, usize)> {
    let (v, h, f) = (c.vocab_size, c.hidden, c.ff_dim);
    let mut shapes = vec![(v, h), (c.max_seq_len, h), (1, h), (1, h)];
    for _ in 0..c.n_layers {
        // wq, wk, wv, wo, then ff1 and ff2: weight and bias each.
        shapes.extend([(h, h), (1, h)].repeat(4));
        shapes.extend([(h, f), (1, f), (f, h), (1, h)]);
        // ln1 and ln2: gamma and beta each.
        shapes.extend([(1, h)].repeat(4));
    }
    shapes.extend([(h, v), (1, v)]);
    shapes
}

impl BertMlmModel {
    /// Every weight tensor, in [`BertMlmModel::params`] order.
    fn weights(&self) -> Vec<&Matrix> {
        fn linear(l: &Linear) -> [&Matrix; 2] {
            [&l.weight.w, &l.bias.w]
        }
        fn norm(n: &LayerNorm) -> [&Matrix; 2] {
            [&n.gamma.w, &n.beta.w]
        }
        let mut out = vec![&self.tok_emb.table.w, &self.pos_emb.table.w];
        out.extend(norm(&self.emb_ln));
        for l in &self.layers {
            out.extend(l.projections().into_iter().flat_map(linear));
            out.extend(norm(&l.ln1));
            out.extend(norm(&l.ln2));
        }
        out.extend(linear(&self.out));
        out
    }

    /// Appends this model's f32 tensor section (see the module docs) to
    /// `out`: config, shape table, then every weight verbatim. The section
    /// round-trips through [`BertMlmModel::read_tensors`] bit-exactly,
    /// NaN payloads and signed zeros included.
    pub fn write_tensors(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let weights = self.weights();
        debug_assert!(
            weights
                .iter()
                .map(|w| (w.rows(), w.cols()))
                .eq(tensor_shapes(&self.config)),
            "model tensors do not have the shapes its config implies"
        );
        let c = &self.config;
        out.extend_from_slice(&TENSOR_MAGIC);
        for field in [
            TENSOR_VERSION as usize,
            DTYPE_F32 as usize,
            c.vocab_size,
            c.hidden,
            c.n_layers,
            c.n_heads,
            c.ff_dim,
            c.max_seq_len,
            weights.len(),
        ] {
            out.extend_from_slice(&(field as u32).to_le_bytes());
        }
        for w in &weights {
            out.extend_from_slice(&(w.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(w.cols() as u32).to_le_bytes());
        }
        out.reserve(weights.iter().map(|w| w.data().len() * 4).sum());
        for v in weights.iter().flat_map(|w| w.data()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.resize(out.len() + (8 - (out.len() - start) % 8) % 8, 0);
    }

    /// Reads one f32 tensor section at `cur` into a serving model: one
    /// copy per tensor into owned [`Matrix`] buffers, no optimizer state.
    ///
    /// Nothing the section claims is trusted. The config must be
    /// plausible, the tensor count and every `(rows, cols)` entry must be
    /// what that config implies, and the weights those shapes call for
    /// must be present in the record — all checked before the first
    /// tensor is allocated.
    pub fn read_tensors(cur: &mut PackCursor) -> Result<Self, String> {
        if cur.take(4)? != TENSOR_MAGIC {
            return Err("not an f32 tensor section (bad magic)".to_string());
        }
        let version = cur.read_u32()?;
        if version != TENSOR_VERSION {
            return Err(format!(
                "tensor section is version {version}, expected {TENSOR_VERSION}"
            ));
        }
        let dtype = cur.read_u32()?;
        if dtype != DTYPE_F32 {
            return Err(format!("tensor section has unknown dtype {dtype}"));
        }
        let mut field = || cur.read_u32().map(|v| v as usize);
        let config = BertConfig {
            vocab_size: field()?,
            hidden: field()?,
            n_layers: field()?,
            n_heads: field()?,
            ff_dim: field()?,
            max_seq_len: field()?,
        };
        let dims = [
            config.vocab_size,
            config.hidden,
            config.n_heads,
            config.ff_dim,
            config.max_seq_len,
        ];
        if dims.iter().any(|&d| d == 0 || d > MAX_DIM)
            || config.n_layers > MAX_LAYERS
            || !config.hidden.is_multiple_of(config.n_heads)
        {
            return Err(format!("implausible tensor section config {config:?}"));
        }
        let shapes = tensor_shapes(&config);
        let count = cur.read_u32()? as usize;
        if count != shapes.len() {
            return Err(format!(
                "tensor section holds {count} tensors, its config implies {}",
                shapes.len()
            ));
        }
        let mut floats = 0usize;
        for (i, &(rows, cols)) in shapes.iter().enumerate() {
            let got = (cur.read_u32()? as usize, cur.read_u32()? as usize);
            if got != (rows, cols) {
                return Err(format!(
                    "tensor {i} is {}×{}, its config implies {rows}×{cols}",
                    got.0, got.1
                ));
            }
            floats = rows
                .checked_mul(cols)
                .and_then(|n| floats.checked_add(n))
                .ok_or("tensor section overflow")?;
        }
        if floats
            .checked_mul(4)
            .is_none_or(|bytes| bytes > cur.remaining())
        {
            return Err("tensor section truncated: weights missing".to_string());
        }

        let mut shapes = shapes.into_iter();
        let mut param = || -> Result<Param, String> {
            let (rows, cols) = shapes.next().expect("one shape per tensor read");
            let data = cur.read_f32s(rows * cols)?;
            Ok(Param::from_weights(Matrix::from_vec(rows, cols, data)))
        };
        let tok_emb = Embedding { table: param()? };
        let pos_emb = Embedding { table: param()? };
        let emb_ln = LayerNorm::from_params(param()?, param()?);
        let mut layers = Vec::with_capacity(config.n_layers);
        for _ in 0..config.n_layers {
            let mut linear = || -> Result<Linear, String> {
                Ok(Linear {
                    weight: param()?,
                    bias: param()?,
                })
            };
            let attn = MultiHeadAttention::from_projections(
                [linear()?, linear()?, linear()?, linear()?],
                config.n_heads,
            );
            layers.push(EncoderLayer {
                attn,
                ff1: linear()?,
                ff2: linear()?,
                ln1: LayerNorm::from_params(param()?, param()?),
                ln2: LayerNorm::from_params(param()?, param()?),
            });
        }
        let out = Linear {
            weight: param()?,
            bias: param()?,
        };
        cur.align(8)?;
        Ok(BertMlmModel {
            config,
            tok_emb,
            pos_emb,
            emb_ln,
            layers,
            out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel_rng::Rng;

    #[test]
    fn shape_table_and_weight_walk_follow_params_order() {
        let mut rng = Rng::seed_from_u64(91);
        let mut model = BertMlmModel::new(BertConfig::tiny(13), &mut rng);
        let walked: Vec<*const Matrix> =
            model.weights().into_iter().map(|w| w as *const _).collect();
        let shapes = tensor_shapes(&model.config);
        let params = model.params();
        assert_eq!(params.len(), shapes.len());
        for (i, (p, shape)) in params.iter().zip(&shapes).enumerate() {
            assert_eq!((p.w.rows(), p.w.cols()), *shape, "tensor {i} shape");
            assert_eq!(&p.w as *const Matrix, walked[i], "tensor {i} order");
        }
    }

    #[test]
    fn a_reloaded_model_trains_exactly_like_the_one_it_was_written_from() {
        use crate::train::{MlmBatcher, TrainOptions, Trainer};
        let mut rng = Rng::seed_from_u64(93);
        let mut original = BertMlmModel::new(BertConfig::tiny(12), &mut rng);
        let mut bytes = Vec::new();
        original.write_tensors(&mut bytes);
        let len = bytes.len();
        let buf: Arc<dyn ByteSource> = Arc::new(bytes);
        let mut cur = PackCursor::new(&buf, 0, len).expect("in range");
        let mut reloaded = BertMlmModel::read_tensors(&mut cur).expect("round trip");
        assert!(reloaded.params().iter().all(|p| p.g.data().is_empty()));

        let corpus: Vec<Vec<u32>> = (0..6).map(|_| vec![2, 5, 6, 7, 8, 3]).collect();
        let options = TrainOptions {
            epochs: 2,
            ..TrainOptions::default()
        };
        let trainer = Trainer::new(MlmBatcher::new(1, (5, 12)), options);
        // Fresh optimizer state is all zeros, so sizing it on entry must
        // reproduce the original's run bit for bit.
        assert_eq!(
            trainer.train(&mut original, &corpus),
            trainer.train(&mut reloaded, &corpus)
        );
        for (a, b) in original.params().iter().zip(reloaded.params()) {
            assert_eq!(a.w, b.w);
        }
    }

    #[test]
    fn section_length_is_a_multiple_of_eight_at_any_start() {
        let mut rng = Rng::seed_from_u64(92);
        // vocab 7, hidden 6: an odd float count, so the pad is exercised.
        let config = BertConfig {
            vocab_size: 7,
            hidden: 6,
            n_layers: 1,
            n_heads: 3,
            ff_dim: 5,
            max_seq_len: 3,
        };
        let model = BertMlmModel::new(config, &mut rng);
        let mut out = vec![0xEEu8; 3];
        model.write_tensors(&mut out);
        assert_eq!((out.len() - 3) % 8, 0);
        let len = out.len() - 3;
        let buf: Arc<dyn ByteSource> = Arc::new(out);
        let mut cur = PackCursor::new(&buf, 3, len).expect("in range");
        let back = BertMlmModel::read_tensors(&mut cur).expect("round trip");
        cur.finish().expect("section consumed exactly");
        assert_eq!(back.config, config);
    }
}
