//! # kamel-store — memory-mapped pyramid model store
//!
//! City-scale KAMEL deployments hold thousands of per-cell BERT models
//! (§4's pyramid partitioning); keeping every one heap-resident is what
//! caps how large a city a single serving process can carry. This crate
//! moves the model repository onto disk:
//!
//! * [`pack`] turns a trained [`kamel::Kamel`] into one `.kstore` file —
//!   a CRC-checked index over per-cell records. A BERT cell's weights are
//!   stored as bytes: raw little-endian f32 tensors behind a typed,
//!   shape-checked header, plus (for quantized engines) its packed int8
//!   weights in the exact layout `kamel_nn::quant_matvec` consumes.
//! * [`load_kamel`] opens a store (mmap on Linux, heap elsewhere) and
//!   returns a `Kamel` whose model lookups route through a
//!   [`StoreSource`]: models materialize lazily on first touch — a
//!   checksum, a header check and one copy per tensor, no parse — live in
//!   an LRU set bounded by `--model-memory-budget`, and quantized
//!   weights serve as zero-copy views straight out of the mapped pages.
//!
//! Predictions from a store-backed system are byte-identical to the heap
//! system it was packed from: f32 weights and the packed int8 layout
//! round-trip bit-exactly, n-gram records carry the same serde form the
//! heap repository persists, and the store mirrors (rather than
//! re-decides) the packed system's quantization gate decisions.

#![warn(missing_docs)]

pub mod format;
pub mod mmap;
pub mod resident;

pub use format::{IndexEntry, RecordKey, Store, StoreBuilder, FLAG_QUANT};
pub use mmap::MappedFile;
pub use resident::StoreSource;

use kamel::checkpoint::fnv1a64;
use kamel::partition::ModelSummary;
use kamel::{Kamel, KamelConfig};
use std::path::Path;
use std::sync::Arc;

/// Errors from packing, opening, or materializing a store.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file's bytes contradict its own checksums or framing.
    Corrupt(String),
    /// The file is well-formed but not usable by this process (format
    /// version skew, or packed for a different configuration).
    Incompatible(String),
    /// The system being packed could not be exported.
    Pack(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "model store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "model store corrupt: {m}"),
            StoreError::Incompatible(m) => write!(f, "model store incompatible: {m}"),
            StoreError::Pack(m) => write!(f, "model store pack failed: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`pack`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Model records written (the meta record is extra).
    pub models: usize,
    /// Models that carry packed int8 weights.
    pub quant_models: usize,
    /// Total store file size in bytes.
    pub bytes: u64,
    /// Of `bytes`, JSON: the meta record's skeleton and summaries, every
    /// `ModelMeta`, and whole n-gram models.
    pub json_bytes: u64,
    /// Of `bytes`, binary f32 model records (BERT weights + vocabulary).
    pub tensor_bytes: u64,
    /// Of `bytes`, packed int8 weights. What the three leave over is the
    /// header, the index, framing and alignment padding.
    pub int8_bytes: u64,
}

/// FNV-1a64 digest of a config's JSON: the check that a store's header
/// and its meta record describe the same system.
pub fn config_digest_of(config: &KamelConfig) -> u64 {
    fnv1a64(&serde_json::to_vec(config).unwrap_or_default())
}

/// Renders a trained system into store-file bytes (see [`pack`]).
pub fn pack_bytes(kamel: &Kamel) -> Result<Vec<u8>, StoreError> {
    let skeleton = kamel
        .serving_skeleton_json()
        .map_err(|e| StoreError::Pack(e.to_string()))?;
    let summaries = serde_json::to_string(&kamel.model_summaries())
        .map_err(|e| StoreError::Pack(format!("summaries: {e}")))?;
    let mut builder = StoreBuilder::new(config_digest_of(kamel.config()));
    builder.push_record(
        RecordKey::META,
        skeleton.as_bytes(),
        &[],
        summaries.as_bytes(),
    );
    for export in kamel
        .export_models()
        .map_err(|e| StoreError::Pack(e.to_string()))?
    {
        let aux = export
            .quant
            .map(|q| q.write_packed())
            .unwrap_or_default();
        builder.push_record(
            RecordKey::from_selection(export.selection),
            export.json.as_bytes(),
            &export.tensors,
            &aux,
        );
    }
    Ok(builder.finish())
}

/// Packs a trained system into a single `.kstore` file at `out`,
/// written atomically (temp file + fsync + rename) so a crash mid-pack
/// never leaves a half-written store where a serving process will look.
pub fn pack(kamel: &Kamel, out: &Path) -> Result<PackStats, StoreError> {
    let bytes = pack_bytes(kamel)?;
    kamel::checkpoint::write_file_atomic(out, &bytes)?;
    let store = Store::from_bytes(bytes)?;
    let mut stats = PackStats {
        models: store.record_count().saturating_sub(1),
        quant_models: 0,
        bytes: store.file_len(),
        json_bytes: 0,
        tensor_bytes: 0,
        int8_bytes: 0,
    };
    for i in 0..store.record_count() {
        let view = store.record(i)?;
        stats.json_bytes += view.json.len() as u64;
        stats.tensor_bytes += view.tensors_len as u64;
        if view.key == RecordKey::META {
            stats.json_bytes += view.aux_len as u64; // the summaries
        } else {
            stats.int8_bytes += view.aux_len as u64;
            stats.quant_models += usize::from(view.aux_len > 0);
        }
    }
    Ok(stats)
}

/// Opens the store at `path` and builds a serving-ready [`Kamel`]:
/// skeleton state (tokenizer, detokenizer, pyramid geometry) from the
/// meta record, model lookups routed through a budget-bounded
/// [`StoreSource`], and every record checksum verified by a boot sweep.
///
/// `budget_override` (from `--model-memory-budget`) takes precedence
/// over the packed config's `model_memory_budget`; with neither set,
/// residency is unbounded.
pub fn load_kamel(path: &Path, budget_override: Option<u64>) -> Result<Kamel, StoreError> {
    let store = Store::open(path)?;
    if store.record_count() == 0 || store.index()[0].key != RecordKey::META {
        return Err(StoreError::Corrupt(
            "store does not start with its meta record".to_string(),
        ));
    }
    let meta = store.record(0)?;
    let skeleton_json = std::str::from_utf8(meta.json)
        .map_err(|e| StoreError::Corrupt(format!("meta record holds non-UTF-8 JSON: {e}")))?;
    let summaries: Vec<ModelSummary> = {
        let b = store.byte_source();
        let bytes = &kamel_nn::ByteSource::bytes(&*b)[meta.aux_offset..meta.aux_offset + meta.aux_len];
        serde_json::from_slice(bytes)
            .map_err(|e| StoreError::Corrupt(format!("meta summaries failed to decode: {e}")))?
    };
    let mut kamel = Kamel::from_json(skeleton_json)
        .map_err(|e| StoreError::Corrupt(format!("meta skeleton failed to load: {e}")))?;
    let expected = config_digest_of(kamel.config());
    if expected != store.config_digest() {
        return Err(StoreError::Incompatible(format!(
            "store packed for config digest {:016x}, but its skeleton digests to {expected:016x} \
             — refusing to serve mismatched models",
            store.config_digest()
        )));
    }
    let skeleton_repo = kamel
        .repo_skeleton()
        .ok_or_else(|| StoreError::Corrupt("meta skeleton holds no trained state".to_string()))?;
    let budget = budget_override
        .or(kamel.config().model_memory_budget)
        .unwrap_or(u64::MAX);
    let source = StoreSource::new(store, skeleton_repo, summaries, budget)?;
    source.warm_all()?;
    kamel.set_model_source(Arc::new(source));
    Ok(kamel)
}
