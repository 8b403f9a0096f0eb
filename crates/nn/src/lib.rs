//! From-scratch neural-network substrate for KAMEL's BERT model.
//!
//! The paper trains Google's original BERT architecture on tokenized
//! trajectories (§8: 768 hidden / 12 heads / 12 layers on a Cloud TPU). This
//! crate reimplements that architecture from first principles in pure Rust —
//! no external ML dependency — at CPU-trainable scale:
//!
//! * [`matrix::Matrix`] — a dense row-major `f32` matrix with the BLAS-style
//!   kernels a transformer needs (plain/transposed matmuls, broadcast row
//!   ops).
//! * [`layers`] — `Linear`, `Embedding`, `LayerNorm`, GELU, softmax; every
//!   layer carries explicit `forward`/`backward` passes with gradient
//!   accumulation, validated against finite differences in the test suite.
//! * [`attention`] — multi-head scaled dot-product self-attention with
//!   padding masks (the heart of BERT).
//! * [`encoder`] — transformer encoder blocks (post-LayerNorm, as in the
//!   original BERT).
//! * [`bert`] — the full masked-language model: token + position embeddings,
//!   encoder stack, vocab projection, masked cross-entropy.
//! * [`optim`] — Adam with bias correction and optional weight decay.
//! * [`train`] — the BERT MLM pretraining loop (15% masking with the 80/10/10
//!   mask/random/keep split from Devlin et al.).
//! * [`infer`] — the grad-free batched inference engine: cache-free
//!   forward through a reusable scratch arena, masked-row vocabulary
//!   head, and ragged batching of many `(sequence, mask)` requests into
//!   one fused forward. Bit-identical to the training forward.
//! * [`simd`] — explicit SIMD kernels (AVX2 on x86-64, NEON on aarch64)
//!   behind a runtime-dispatched backend, overridable with `KAMEL_SIMD`.
//!   Every vector kernel reproduces the scalar reference's accumulation
//!   order, so the active instruction set never changes results.
//! * [`quant`] — the opt-in int8 weight-quantized serving path:
//!   per-output-row symmetric weight scales, dynamic activation
//!   quantization, exact `i8×i8→i32` dots with one f32 rescale per
//!   output element.
//! * [`pack`] — weights as bytes: the bounds-checked record reader and
//!   the raw little-endian f32 tensor section a model store keeps per
//!   BERT model, validated against its own config on the way back in.
//!
//! The layer-by-layer backward design (rather than a taped autograd) keeps
//! the code auditable and the memory profile flat, which matters when many
//! pyramid-cell models are trained in one process (§4). For the same reason
//! the crate spawns no threads: models are small, so parallelism lives
//! across cells and trajectories in `kamel`, not inside a matmul.

#![warn(missing_docs)]

pub mod attention;
pub mod bert;
pub mod encoder;
pub mod infer;
pub mod layers;
pub mod math;
pub mod matrix;
pub mod optim;
pub mod pack;
pub mod quant;
pub mod simd;
pub mod train;

pub use bert::{BertConfig, BertMlmModel};
pub use infer::InferScratch;
pub use matrix::Matrix;
pub use optim::Adam;
pub use pack::{ByteSource, PackCursor};
pub use quant::{QuantizedBertMlm, QuantizedLinear, QPACK_VERSION};
pub use simd::{active_isa, parse_simd_env, set_backend, supported_backends, Backend, EnvIsa};
pub use train::{MlmBatcher, TrainOptions, Trainer};
