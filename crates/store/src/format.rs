//! The `.kstore` on-disk format.
//!
//! A store is one file holding every model of a trained pyramid as an
//! independently checksummed record, laid out for serving straight out of
//! a read-only mapping:
//!
//! ```text
//! offset 0   header  (48 bytes)
//!   magic            [u8; 8]  b"KAMELSTO"
//!   version          u32      format version (2)
//!   flags            u32      bit 0: at least one record packs int8 weights
//!   config_digest    u64      FNV-1a64 of the packed system's config JSON
//!   record_count     u32
//!   index_crc        u32      CRC32C over the whole index block
//!   total_len        u64      file length (truncation check)
//!   reserved         u64
//! offset 48  index   (record_count × 40 bytes, covered by index_crc)
//!   kind u8 | level u8 | reserved u16 | x u32 | y u32 | reserved u32
//!   | offset u64 | len u64 | crc u32 | reserved u32
//! then       payloads, each 8-byte aligned, each covered by its index crc:
//!   json_len u32 | tensors_len u32 | aux_len u32 | reserved u32 (0)
//!   | json | zero pad to 8 | tensors | zero pad to 8 | aux
//! ```
//!
//! The envelope conventions mirror the `KAMELCKP` checkpoint format
//! (magic + version up front, CRC32C integrity, explicit lengths so a
//! truncated file is detected before any payload is trusted); the record
//! granularity is what's new — a serving process materializes one cell
//! without touching the pages of any other.
//!
//! Record `kind` maps the pyramid slots: 0 is the store's meta record
//! (serving skeleton + model summaries, always record 0), 1/2/3 are
//! single / pair-east / pair-south cell models at `(level, x, y)`, 4 is
//! the global model. The three sections of a payload are record-specific:
//!
//! * a BERT model record keeps its weights as bytes: `tensors` is a
//!   [`kamel_lm::BertMlm::write_record`] record (raw little-endian f32
//!   tensors behind a typed, shape-checked header, then the vocabulary),
//!   `json` is only the small `ModelMeta`, and `aux` is the packed int8
//!   artifact when the model serves quantized (read zero-copy via
//!   [`kamel_nn::QuantizedBertMlm::read_packed`]);
//! * an n-gram model record has no tensors: `json` is its whole
//!   serialized `ModelEntry` (its hash maps are rebuilt either way);
//! * the meta record carries the skeleton in `json` and the summaries
//!   JSON in `aux`.
//!
//! Both binary sections start on an 8-byte boundary of the file, so every
//! `f32` and `u64` in them sits on its natural alignment in the mapping.
//! A v1 file (weights as JSON text, two sections) is refused at open:
//! stores are regenerable from their checkpoint with `kamel pack`, so no
//! second reader is kept.

use crate::mmap::MappedFile;
use crate::StoreError;
use kamel::checkpoint::crc32c;
use kamel::partition::{ModelSelection, PyramidKey};
use kamel_nn::ByteSource;
use std::path::Path;
use std::sync::Arc;

/// First eight bytes of every store file.
pub const STORE_MAGIC: [u8; 8] = *b"KAMELSTO";
/// Current format version.
pub const STORE_VERSION: u32 = 2;
/// Header flag: at least one record carries packed int8 weights.
pub const FLAG_QUANT: u32 = 1;
/// Fixed header length.
pub const HEADER_LEN: usize = 48;
/// Fixed index entry length.
pub const INDEX_ENTRY_LEN: usize = 40;
/// Fixed framing at the start of every payload: three section lengths
/// and a reserved word.
const PAYLOAD_HEADER_LEN: usize = 16;

/// Record kind: store meta (serving skeleton + summaries).
pub const KIND_META: u8 = 0;
/// Record kind: single-cell model.
pub const KIND_SINGLE: u8 = 1;
/// Record kind: east neighbor-pair model.
pub const KIND_PAIR_EAST: u8 = 2;
/// Record kind: south neighbor-pair model.
pub const KIND_PAIR_SOUTH: u8 = 3;
/// Record kind: global model.
pub const KIND_GLOBAL: u8 = 4;

/// Identity of one record: which pyramid slot (or the meta slot) it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordKey {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Pyramid level (0 for meta/global records).
    pub level: u8,
    /// Cell column at that level.
    pub x: u32,
    /// Cell row at that level.
    pub y: u32,
}

impl RecordKey {
    /// The meta record's key.
    pub const META: RecordKey = RecordKey {
        kind: KIND_META,
        level: 0,
        x: 0,
        y: 0,
    };

    /// The key a model at `sel` is filed under.
    pub fn from_selection(sel: ModelSelection) -> Self {
        match sel {
            ModelSelection::Global => RecordKey {
                kind: KIND_GLOBAL,
                level: 0,
                x: 0,
                y: 0,
            },
            ModelSelection::Single(k) => RecordKey {
                kind: KIND_SINGLE,
                level: k.level,
                x: k.x,
                y: k.y,
            },
            ModelSelection::Pair(k, east) => RecordKey {
                kind: if east { KIND_PAIR_EAST } else { KIND_PAIR_SOUTH },
                level: k.level,
                x: k.x,
                y: k.y,
            },
        }
    }

    /// The pyramid slot this key names (`None` for the meta record).
    pub fn to_selection(self) -> Option<ModelSelection> {
        let key = PyramidKey {
            level: self.level,
            x: self.x,
            y: self.y,
        };
        match self.kind {
            KIND_GLOBAL => Some(ModelSelection::Global),
            KIND_SINGLE => Some(ModelSelection::Single(key)),
            KIND_PAIR_EAST => Some(ModelSelection::Pair(key, true)),
            KIND_PAIR_SOUTH => Some(ModelSelection::Pair(key, false)),
            _ => None,
        }
    }
}

/// One parsed index entry.
#[derive(Debug, Clone, Copy)]
pub struct IndexEntry {
    /// Which slot the record holds.
    pub key: RecordKey,
    /// Payload offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32C over the whole payload.
    pub crc: u32,
}

/// A decoded, checksum-verified view of one record's payload.
#[derive(Debug)]
pub struct RecordView<'a> {
    /// The record's slot.
    pub key: RecordKey,
    /// The JSON section: a `ModelMeta` for a record with tensors, a whole
    /// serialized `ModelEntry` for one without, the serving skeleton for
    /// the meta record.
    pub json: &'a [u8],
    /// Absolute file offset of the tensor section (a BERT model's binary
    /// record), 8-byte aligned.
    pub tensors_offset: usize,
    /// Tensor section length (0 when absent).
    pub tensors_len: usize,
    /// Absolute file offset of the aux section (packed int8 weights for
    /// model records; summaries JSON for the meta record), 8-byte aligned.
    pub aux_offset: usize,
    /// Aux section length (0 when absent).
    pub aux_len: usize,
    /// Total payload length — the record's residency cost.
    pub payload_len: usize,
}

/// `n` rounded up to the next multiple of 8. In `u64`, so that section
/// lengths read from a file cannot wrap on a 32-bit host.
fn pad8(n: u64) -> u64 {
    (n + 7) & !7
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked by caller"))
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked by caller"))
}

/// Assembles a store file in memory. Records keep insertion order; the
/// meta record must be pushed first (readers require it at index 0).
#[derive(Debug)]
pub struct StoreBuilder {
    config_digest: u64,
    flags: u32,
    records: Vec<(RecordKey, Vec<u8>)>,
}

impl StoreBuilder {
    /// Starts a store for a system whose config digests to `config_digest`.
    pub fn new(config_digest: u64) -> Self {
        StoreBuilder {
            config_digest,
            flags: 0,
            records: Vec::new(),
        }
    }

    /// Appends one record, framing its three sections into a payload.
    pub fn push_record(&mut self, key: RecordKey, json: &[u8], tensors: &[u8], aux: &[u8]) {
        let mut payload = Vec::new();
        for section in [json, tensors, aux] {
            let len = u32::try_from(section.len()).expect("a record section is under 4 GiB");
            put_u32(&mut payload, len);
        }
        put_u32(&mut payload, 0); // reserved
        for section in [json, tensors] {
            payload.extend_from_slice(section);
            payload.resize(pad8(payload.len() as u64) as usize, 0);
        }
        payload.extend_from_slice(aux);
        if key.kind != KIND_META && !aux.is_empty() {
            self.flags |= FLAG_QUANT;
        }
        self.records.push((key, payload));
    }

    /// Renders the complete store file.
    pub fn finish(self) -> Vec<u8> {
        let index_end = HEADER_LEN + self.records.len() * INDEX_ENTRY_LEN;
        // Place payloads, each 8-byte aligned.
        let mut offsets = Vec::with_capacity(self.records.len());
        let mut cursor = (index_end + 7) & !7;
        for (_, payload) in &self.records {
            offsets.push(cursor);
            cursor += payload.len();
            cursor = (cursor + 7) & !7;
        }
        let total_len = offsets
            .last()
            .map(|&o| o + self.records.last().expect("non-empty").1.len())
            .unwrap_or(index_end) as u64;

        let mut index = Vec::with_capacity(self.records.len() * INDEX_ENTRY_LEN);
        for ((key, payload), &offset) in self.records.iter().zip(&offsets) {
            index.push(key.kind);
            index.push(key.level);
            index.extend_from_slice(&[0u8; 2]); // reserved
            put_u32(&mut index, key.x);
            put_u32(&mut index, key.y);
            put_u32(&mut index, 0); // reserved
            put_u64(&mut index, offset as u64);
            put_u64(&mut index, payload.len() as u64);
            put_u32(&mut index, crc32c(payload));
            put_u32(&mut index, 0); // reserved
        }

        let mut out = Vec::with_capacity(total_len as usize);
        out.extend_from_slice(&STORE_MAGIC);
        put_u32(&mut out, STORE_VERSION);
        put_u32(&mut out, self.flags);
        put_u64(&mut out, self.config_digest);
        put_u32(&mut out, self.records.len() as u32);
        put_u32(&mut out, crc32c(&index));
        put_u64(&mut out, total_len);
        put_u64(&mut out, 0); // reserved
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&index);
        for ((_, payload), &offset) in self.records.iter().zip(&offsets) {
            out.resize(offset, 0);
            out.extend_from_slice(payload);
        }
        out.resize(total_len as usize, 0);
        out
    }
}

/// An open store: validated header + index over a (usually mapped) file.
///
/// Opening validates the envelope — magic, version, length, and the index
/// checksum — so every record's location is trustworthy. Record *payloads*
/// are checksummed lazily, on first materialization, which is what keeps
/// opening a multi-gigabyte store O(index) instead of O(file).
#[derive(Debug)]
pub struct Store {
    source: Arc<MappedFile>,
    flags: u32,
    config_digest: u64,
    index: Vec<IndexEntry>,
}

impl Store {
    /// Opens and validates the store at `path`.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::from_source(Arc::new(MappedFile::open(path).map_err(StoreError::Io)?))
    }

    /// Opens a store over an in-memory buffer (tests).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        Self::from_source(Arc::new(MappedFile::from_bytes(bytes)))
    }

    fn from_source(source: Arc<MappedFile>) -> Result<Self, StoreError> {
        let b = source.bytes();
        if b.len() < HEADER_LEN {
            return Err(StoreError::Corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte store header",
                b.len()
            )));
        }
        if b[..8] != STORE_MAGIC {
            return Err(StoreError::Corrupt(
                "not a KAMEL model store (bad magic)".to_string(),
            ));
        }
        let version = get_u32(b, 8);
        if version != STORE_VERSION {
            return Err(StoreError::Incompatible(format!(
                "store format v{version}; this build reads v{STORE_VERSION} \
                 — re-pack with `kamel pack`"
            )));
        }
        let flags = get_u32(b, 12);
        let config_digest = get_u64(b, 16);
        let record_count = get_u32(b, 24) as usize;
        let index_crc = get_u32(b, 28);
        let total_len = get_u64(b, 32);
        if total_len != b.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "header claims {total_len} bytes but the file holds {} (truncated?)",
                b.len()
            )));
        }
        let index_end = HEADER_LEN
            .checked_add(record_count.checked_mul(INDEX_ENTRY_LEN).ok_or_else(|| {
                StoreError::Corrupt(format!("implausible record count {record_count}"))
            })?)
            .filter(|&end| end <= b.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "index of {record_count} records does not fit in the file"
                ))
            })?;
        let index_bytes = &b[HEADER_LEN..index_end];
        if crc32c(index_bytes) != index_crc {
            return Err(StoreError::Corrupt(
                "index checksum mismatch (the record table is damaged)".to_string(),
            ));
        }
        let mut index = Vec::with_capacity(record_count);
        for i in 0..record_count {
            let e = &index_bytes[i * INDEX_ENTRY_LEN..(i + 1) * INDEX_ENTRY_LEN];
            let entry = IndexEntry {
                key: RecordKey {
                    kind: e[0],
                    level: e[1],
                    x: get_u32(e, 4),
                    y: get_u32(e, 8),
                },
                offset: get_u64(e, 16),
                len: get_u64(e, 24),
                crc: get_u32(e, 32),
            };
            let end = entry.offset.checked_add(entry.len);
            if entry.offset < index_end as u64 || end.is_none() || end.unwrap() > total_len {
                return Err(StoreError::Corrupt(format!(
                    "record {i} spans {}..{:?}, outside the file payload area",
                    entry.offset, end
                )));
            }
            if entry.len < PAYLOAD_HEADER_LEN as u64 {
                return Err(StoreError::Corrupt(format!(
                    "record {i} is {} bytes, shorter than its framing",
                    entry.len
                )));
            }
            index.push(entry);
        }
        Ok(Store {
            source,
            flags,
            config_digest,
            index,
        })
    }

    /// Header flags.
    pub fn flags(&self) -> u32 {
        self.flags
    }

    /// The packed system's config digest (FNV-1a64 of its config JSON).
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// The validated index, in file order.
    pub fn index(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Number of records (including the meta record).
    pub fn record_count(&self) -> usize {
        self.index.len()
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.source.len() as u64
    }

    /// The backing byte source (for zero-copy weight views).
    pub fn byte_source(&self) -> Arc<MappedFile> {
        self.source.clone()
    }

    /// Checks record `i`'s payload checksum and decodes its framing.
    pub fn record(&self, i: usize) -> Result<RecordView<'_>, StoreError> {
        let entry = self.index.get(i).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "record {i} out of range ({} records)",
                self.index.len()
            ))
        })?;
        let b = self.source.bytes();
        let payload = &b[entry.offset as usize..(entry.offset + entry.len) as usize];
        if crc32c(payload) != entry.crc {
            return Err(StoreError::Corrupt(format!(
                "record {i} ({:?}) checksum mismatch — the store file is damaged",
                entry.key
            )));
        }
        let [json_len, tensors_len, aux_len] = [0, 4, 8].map(|at| get_u32(payload, at) as u64);
        let tensors_at = PAYLOAD_HEADER_LEN as u64 + pad8(json_len);
        let aux_at = tensors_at + pad8(tensors_len);
        if get_u32(payload, 12) != 0 || aux_at + aux_len != payload.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "record {i} framing claims sections of {json_len} + {tensors_len} + {aux_len} \
                 bytes, which is not what a payload of {} holds",
                payload.len()
            )));
        }
        // Every section ends inside the payload, so each fits a usize.
        let [json_len, tensors_len, aux_len, tensors_at, aux_at] =
            [json_len, tensors_len, aux_len, tensors_at, aux_at].map(|n| n as usize);
        let json_end = PAYLOAD_HEADER_LEN + json_len;
        let tensors_end = tensors_at + tensors_len;
        if payload[json_end..tensors_at]
            .iter()
            .chain(&payload[tensors_end..aux_at])
            .any(|&b| b != 0)
        {
            return Err(StoreError::Corrupt(format!(
                "record {i} has non-zero section padding"
            )));
        }
        let at = entry.offset as usize;
        Ok(RecordView {
            key: entry.key,
            json: &payload[PAYLOAD_HEADER_LEN..json_end],
            tensors_offset: at + tensors_at,
            tensors_len,
            aux_offset: at + aux_at,
            aux_len,
            payload_len: payload.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> Vec<u8> {
        let mut b = StoreBuilder::new(0xDEAD_BEEF_F00D_CAFE);
        b.push_record(RecordKey::META, br#"{"config":{}}"#, &[], br#"[]"#);
        b.push_record(
            RecordKey {
                kind: KIND_SINGLE,
                level: 3,
                x: 5,
                y: 7,
            },
            br#"{"model":"a"}"#,
            &[9, 8, 7],
            &[1, 2, 3, 4, 5],
        );
        b.push_record(
            RecordKey {
                kind: KIND_GLOBAL,
                level: 0,
                x: 0,
                y: 0,
            },
            br#"{"model":"g"}"#,
            &[6; 16],
            &[],
        );
        b.finish()
    }

    #[test]
    fn round_trips_records_through_the_binary_layout() {
        let bytes = sample_store();
        let store = Store::from_bytes(bytes).expect("open");
        assert_eq!(store.record_count(), 3);
        assert_eq!(store.config_digest(), 0xDEAD_BEEF_F00D_CAFE);
        assert_eq!(store.flags() & FLAG_QUANT, FLAG_QUANT, "record 1 has aux");

        let meta = store.record(0).expect("meta");
        assert_eq!(meta.key, RecordKey::META);
        assert_eq!(meta.json, br#"{"config":{}}"#);
        assert_eq!(meta.aux_len, 2);

        let single = store.record(1).expect("single");
        assert_eq!(single.key.kind, KIND_SINGLE);
        assert_eq!((single.key.level, single.key.x, single.key.y), (3, 5, 7));
        assert_eq!(single.json, br#"{"model":"a"}"#);
        let b = store.byte_source();
        let file = kamel_nn::ByteSource::bytes(&*b);
        let tensors = &file[single.tensors_offset..single.tensors_offset + single.tensors_len];
        assert_eq!(tensors, &[9, 8, 7]);
        let aux = &file[single.aux_offset..single.aux_offset + single.aux_len];
        assert_eq!(aux, &[1, 2, 3, 4, 5]);

        let global = store.record(2).expect("global");
        assert_eq!(global.key.to_selection(), Some(ModelSelection::Global));
        assert_eq!((global.tensors_len, global.aux_len), (16, 0));
    }

    #[test]
    fn tensors_alone_never_set_the_quant_flag() {
        let mut b = StoreBuilder::new(7);
        b.push_record(RecordKey::META, b"{}", &[], b"[]");
        let global = RecordKey::from_selection(ModelSelection::Global);
        b.push_record(global, b"{}", &[1; 8], &[]);
        let store = Store::from_bytes(b.finish()).expect("open");
        assert_eq!(store.flags() & FLAG_QUANT, 0);
    }

    #[test]
    fn payloads_are_eight_byte_aligned() {
        let bytes = sample_store();
        let store = Store::from_bytes(bytes).expect("open");
        for (i, entry) in store.index().iter().enumerate() {
            assert_eq!(entry.offset % 8, 0, "record {i} payload misaligned");
            let view = store.record(i).expect("record");
            assert_eq!(view.tensors_offset % 8, 0, "record {i} tensors misaligned");
            assert_eq!(view.aux_offset % 8, 0, "record {i} aux misaligned");
        }
    }

    #[test]
    fn selection_key_mapping_is_a_bijection_over_model_kinds() {
        let key = PyramidKey {
            level: 4,
            x: 11,
            y: 13,
        };
        for sel in [
            ModelSelection::Global,
            ModelSelection::Single(key),
            ModelSelection::Pair(key, true),
            ModelSelection::Pair(key, false),
        ] {
            assert_eq!(
                RecordKey::from_selection(sel).to_selection(),
                Some(sel),
                "selection {sel:?} did not round-trip"
            );
        }
        assert_eq!(RecordKey::META.to_selection(), None);
    }

    #[test]
    fn truncated_file_fails_loudly() {
        let bytes = sample_store();
        for cut in [0, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            let err = Store::from_bytes(bytes[..cut].to_vec()).expect_err("must fail");
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn flipped_index_byte_fails_at_open() {
        let mut bytes = sample_store();
        bytes[HEADER_LEN + 4] ^= 0x40; // inside the first index entry
        let err = Store::from_bytes(bytes).expect_err("must fail");
        assert!(matches!(err, StoreError::Corrupt(ref m) if m.contains("index checksum")));
    }

    #[test]
    fn flipped_payload_byte_fails_at_record_access() {
        let clean = sample_store();
        let store = Store::from_bytes(clean.clone()).expect("open");
        let offset = store.index()[1].offset as usize + 9; // inside record 1's json
        drop(store);
        let mut bytes = clean;
        bytes[offset] ^= 0x01;
        let store = Store::from_bytes(bytes).expect("open still succeeds (lazy payloads)");
        let err = store.record(1).expect_err("record must fail");
        assert!(matches!(err, StoreError::Corrupt(ref m) if m.contains("checksum mismatch")));
        // Other records stay readable — damage is contained per record.
        store.record(0).expect("meta unaffected");
        store.record(2).expect("global unaffected");
    }

    #[test]
    fn version_skew_fails_as_incompatible() {
        // v1 is the retired weights-as-JSON layout; both directions of skew
        // tell the operator how to get a readable file.
        for version in [1, STORE_VERSION + 1] {
            let mut bytes = sample_store();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = Store::from_bytes(bytes).expect_err("must fail");
            assert!(
                matches!(err, StoreError::Incompatible(ref m)
                    if m.contains("store format") && m.contains("kamel pack")),
                "v{version} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_fails_loudly() {
        let mut bytes = sample_store();
        bytes[0] = b'X';
        let err = Store::from_bytes(bytes).expect_err("must fail");
        assert!(matches!(err, StoreError::Corrupt(ref m) if m.contains("bad magic")));
    }

    #[test]
    fn header_length_matches_the_documented_layout() {
        let b = StoreBuilder::new(1);
        let bytes = b.finish();
        assert_eq!(bytes.len(), HEADER_LEN);
        let store = Store::from_bytes(bytes).expect("empty store opens");
        assert_eq!(store.record_count(), 0);
    }
}
