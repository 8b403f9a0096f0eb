//! The crash-safe capture log: served traffic, durably queued for the
//! background trainer.
//!
//! An append-only segment log under one directory:
//!
//! * `capture.active` — the segment being written. Starts with an 12-byte
//!   header (`KAMELCAP` magic + a `u32` format version); every record is
//!   a CRC-framed blob: `[u32 len][u32 crc32c(payload)][payload]`, all
//!   little-endian.
//! * `NNNNNNNN.seg` — sealed segments, numbered in append order. Sealing
//!   is atomic: the active file is fsynced, then renamed into place via
//!   the checkpoint I/O seam ([`kamel::checkpoint::CkptIo`]), so the
//!   fault-injection shim can kill the process at any point and reopening
//!   recovers everything durable.
//! * A **byte cap** bounds the whole directory: once sealed segments push
//!   the total past `max_bytes`, the oldest sealed segments are deleted —
//!   drop-oldest, never block. Capture loss is always acceptable; slowing
//!   serving never is.
//!
//! Reopening tolerates a torn tail: the active file is scanned frame by
//! frame and truncated at the first incomplete or CRC-corrupt frame, so a
//! crash mid-append costs at most the record being written.
//!
//! The format is hand-encoded (no serde): capture must stay `std`-only so
//! the durability matrix runs everywhere the checkpoint tests do.

use kamel::checkpoint::{crc32c, CkptIo, RealIo};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic + version prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"KAMELCAP";
/// Bump on any incompatible record-encoding change.
const FORMAT_VERSION: u32 = 1;
/// Header length: magic + version.
const HEADER_LEN: u64 = 12;
/// Frame prefix: payload length + CRC32C.
const FRAME_PREFIX: usize = 8;
/// Hard sanity bound on one record's payload (a trajectory of ~40k fixes).
const MAX_PAYLOAD: u32 = 4 << 20;

/// What kind of traffic a record captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed `/v1/impute` answer: `sparse` request, imputed
    /// `answer`, and the beam confidence of the weakest gap.
    Impute,
    /// A `POST /v1/feedback` correction: `sparse` request and the dense
    /// ground-truth `answer`.
    Feedback,
}

/// One captured request, the unit the trainer consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureRecord {
    /// Impute answer or feedback ground truth.
    pub kind: RecordKind,
    /// Capture wall-clock, milliseconds since the epoch.
    pub unix_ms: u64,
    /// Minimum beam confidence across the answer's gaps (1.0 = every gap
    /// trivial or highly confident; 0.0 = some gap failed). Unused (0.0)
    /// for feedback records.
    pub confidence: f64,
    /// Gap-context cell ids of the sparse trajectory under the model
    /// snapshot that served it (empty when that model was untrained).
    pub cells: Vec<u64>,
    /// The sparse request fixes as `(lat, lng, t)` triples.
    pub sparse: Vec<[f64; 3]>,
    /// The imputed answer (`Impute`) or ground truth (`Feedback`) fixes.
    pub answer: Vec<[f64; 3]>,
}

impl CaptureRecord {
    /// Serialized payload (excluding the CRC frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1 + 8 + 8 + 4 + self.cells.len() * 8
                + 8 + (self.sparse.len() + self.answer.len()) * 24,
        );
        out.push(match self.kind {
            RecordKind::Impute => 0u8,
            RecordKind::Feedback => 1u8,
        });
        out.extend_from_slice(&self.unix_ms.to_le_bytes());
        out.extend_from_slice(&self.confidence.to_le_bytes());
        out.extend_from_slice(&(self.cells.len() as u32).to_le_bytes());
        for c in &self.cells {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for traj in [&self.sparse, &self.answer] {
            out.extend_from_slice(&(traj.len() as u32).to_le_bytes());
            for p in traj.iter() {
                for v in p {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Inverse of [`CaptureRecord::encode`]; `None` on any malformation.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut at = 0usize;
        let u8_at = |at: &mut usize| -> Option<u8> {
            let v = *payload.get(*at)?;
            *at += 1;
            Some(v)
        };
        fn u32_at(payload: &[u8], at: &mut usize) -> Option<u32> {
            let b = payload.get(*at..*at + 4)?;
            *at += 4;
            Some(u32::from_le_bytes(b.try_into().ok()?))
        }
        fn u64_at(payload: &[u8], at: &mut usize) -> Option<u64> {
            let b = payload.get(*at..*at + 8)?;
            *at += 8;
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        fn f64_at(payload: &[u8], at: &mut usize) -> Option<f64> {
            Some(f64::from_bits(u64_at(payload, at)?))
        }
        let kind = match u8_at(&mut at)? {
            0 => RecordKind::Impute,
            1 => RecordKind::Feedback,
            _ => return None,
        };
        let unix_ms = u64_at(payload, &mut at)?;
        let confidence = f64_at(payload, &mut at)?;
        let ncells = u32_at(payload, &mut at)? as usize;
        let mut cells = Vec::with_capacity(ncells.min(1 << 16));
        for _ in 0..ncells {
            cells.push(u64_at(payload, &mut at)?);
        }
        let mut trajs = [Vec::new(), Vec::new()];
        for traj in &mut trajs {
            let n = u32_at(payload, &mut at)? as usize;
            traj.reserve(n.min(1 << 16));
            for _ in 0..n {
                let lat = f64_at(payload, &mut at)?;
                let lng = f64_at(payload, &mut at)?;
                let t = f64_at(payload, &mut at)?;
                traj.push([lat, lng, t]);
            }
        }
        if at != payload.len() {
            return None; // trailing garbage
        }
        let [sparse, answer] = trajs;
        Some(Self {
            kind,
            unix_ms,
            confidence,
            cells,
            sparse,
            answer,
        })
    }

    /// Bytes this record occupies on disk (frame included).
    pub fn framed_len(&self) -> u64 {
        (FRAME_PREFIX + self.encode().len()) as u64
    }
}

/// One sealed segment on disk.
#[derive(Debug, Clone)]
struct Segment {
    seq: u64,
    bytes: u64,
    records: u64,
}

/// Capture-log sizing.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Directory holding the active file and sealed segments (created on
    /// open).
    pub dir: PathBuf,
    /// Total on-disk budget; past it the oldest sealed segments are
    /// deleted (drop-oldest).
    pub max_bytes: u64,
    /// Seal the active file once it grows past this.
    pub segment_bytes: u64,
}

impl CaptureConfig {
    /// Defaults: 64 MiB total, 1 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_bytes: 64 << 20,
            segment_bytes: 1 << 20,
        }
    }
}

/// The single-owner capture log (producers reach it through the learner's
/// bounded channel, never directly).
pub struct CaptureLog {
    config: CaptureConfig,
    io: Box<dyn CkptIo + Send>,
    active: File,
    active_bytes: u64,
    active_records: u64,
    sealed: VecDeque<Segment>,
    next_seq: u64,
    /// Records lost to the byte cap (drop-oldest) since open.
    dropped_records: u64,
}

impl CaptureLog {
    /// Opens (or creates) the log at `config.dir` with real I/O.
    pub fn open(config: CaptureConfig) -> std::io::Result<Self> {
        Self::open_with(config, Box::new(RealIo))
    }

    /// Opens with an injectable I/O shim (the durability tests).
    pub fn open_with(
        config: CaptureConfig,
        io: Box<dyn CkptIo + Send>,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        // Inventory sealed segments.
        let mut sealed: Vec<Segment> = Vec::new();
        for entry in std::fs::read_dir(&config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".seg") else {
                continue;
            };
            let Ok(seq) = stem.parse::<u64>() else { continue };
            let (records, bytes) = scan_segment(&entry.path());
            sealed.push(Segment {
                seq,
                bytes,
                records,
            });
        }
        sealed.sort_by_key(|s| s.seq);
        let next_seq = sealed.last().map_or(0, |s| s.seq + 1);
        // Recover the active file: truncate any torn tail, then append.
        let active_path = config.dir.join("capture.active");
        let (active, active_bytes, active_records) = open_active(&active_path)?;
        Ok(Self {
            config,
            io,
            active,
            active_bytes,
            active_records,
            sealed: sealed.into(),
            next_seq,
            dropped_records: 0,
        })
    }

    /// Appends one record, sealing and rotating as needed. Never blocks on
    /// anything but local file I/O; callers on the serving path must go
    /// through the learner's bounded channel instead.
    pub fn append(&mut self, record: &CaptureRecord) -> std::io::Result<()> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(FRAME_PREFIX + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32c(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.io.write_all(&mut self.active, &frame)?;
        self.active_bytes += frame.len() as u64;
        self.active_records += 1;
        if self.active_bytes >= self.config.segment_bytes {
            self.seal()?;
        }
        self.enforce_cap();
        Ok(())
    }

    /// Seals the active file into a numbered segment (fsync + atomic
    /// rename through the I/O seam) and starts a fresh active file. A
    /// no-op while the active file holds no records.
    pub fn seal(&mut self) -> std::io::Result<()> {
        if self.active_records == 0 {
            return Ok(());
        }
        self.io.sync(&self.active)?;
        let seq = self.next_seq;
        let from = self.config.dir.join("capture.active");
        let to = self.segment_path(seq);
        self.io.before_rotate()?;
        self.io.rename(&from, &to)?;
        self.sealed.push_back(Segment {
            seq,
            bytes: self.active_bytes,
            records: self.active_records,
        });
        self.next_seq = seq + 1;
        let (active, bytes, records) = open_active(&from)?;
        self.active = active;
        self.active_bytes = bytes;
        self.active_records = records;
        Ok(())
    }

    /// Drop-oldest: deletes sealed segments until the directory fits the
    /// byte cap. The active file is never dropped.
    fn enforce_cap(&mut self) {
        while self.total_bytes() > self.config.max_bytes {
            let Some(oldest) = self.sealed.pop_front() else {
                break;
            };
            let _ = std::fs::remove_file(self.segment_path(oldest.seq));
            self.dropped_records += oldest.records;
        }
    }

    /// Every durable record, oldest first: seals the active file and
    /// decodes all sealed segments. Nothing is deleted — the records stay
    /// on disk (and under the byte cap) until [`CaptureLog::discard_sealed`],
    /// so a failed pass or a crash mid-pass reads them again. A segment
    /// scan stops at its first corrupt frame (framing alignment is
    /// untrustworthy past it); the lost tail counts as dropped, once.
    pub fn read_sealed(&mut self) -> std::io::Result<Vec<CaptureRecord>> {
        self.seal()?;
        let mut out = Vec::new();
        for i in 0..self.sealed.len() {
            let records = read_segment(&self.segment_path(self.sealed[i].seq));
            let got = records.len() as u64;
            self.dropped_records += self.sealed[i].records.saturating_sub(got);
            self.sealed[i].records = got;
            out.extend(records);
        }
        Ok(out)
    }

    /// Deletes every sealed segment: the caller is done with what
    /// [`CaptureLog::read_sealed`] returned.
    pub fn discard_sealed(&mut self) -> std::io::Result<()> {
        while let Some(seg) = self.sealed.front() {
            std::fs::remove_file(self.segment_path(seg.seq))?;
            self.sealed.pop_front();
        }
        Ok(())
    }

    /// Records currently queued (active + sealed).
    pub fn records(&self) -> u64 {
        self.active_records + self.sealed.iter().map(|s| s.records).sum::<u64>()
    }

    /// Bytes currently on disk (active + sealed).
    pub fn total_bytes(&self) -> u64 {
        self.active_bytes + self.sealed.iter().map(|s| s.bytes).sum::<u64>()
    }

    /// Records lost to the byte cap or to corrupt frames since open.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.config.dir.join(format!("{seq:08}.seg"))
    }
}

/// Opens (creating if absent) an active file, recovering a torn tail:
/// scans frames from the header and truncates at the first bad one.
/// Returns the writable handle positioned at the end, plus the byte and
/// record counts of the surviving prefix.
fn open_active(path: &Path) -> std::io::Result<(File, u64, u64)> {
    let mut file = OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(path)?;
    let len = file.metadata()?.len();
    if len < HEADER_LEN {
        // New (or hopelessly truncated) file: write a fresh header.
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(SEGMENT_MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        return Ok((file, HEADER_LEN, 0));
    }
    let mut bytes = Vec::with_capacity(len as usize);
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut bytes)?;
    let (records, good_len) = scan_frames(&bytes);
    if good_len < bytes.len() as u64 {
        file.set_len(good_len)?; // torn tail: drop it
    }
    file.seek(SeekFrom::Start(good_len))?;
    Ok((file, good_len, records))
}

/// Walks a segment's frames, returning `(valid records, byte offset of
/// the first invalid frame — i.e. the durable prefix length)`. A file
/// with a bad header scans as empty.
fn scan_frames(bytes: &[u8]) -> (u64, u64) {
    if bytes.len() < HEADER_LEN as usize
        || &bytes[..8] != SEGMENT_MAGIC
        || u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) != FORMAT_VERSION
    {
        return (0, 0);
    }
    let mut at = HEADER_LEN as usize;
    let mut records = 0u64;
    while let Some(prefix) = bytes.get(at..at + FRAME_PREFIX) {
        let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(prefix[4..].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(at + FRAME_PREFIX..at + FRAME_PREFIX + len as usize)
        else {
            break;
        };
        if crc32c(payload) != crc {
            break;
        }
        records += 1;
        at += FRAME_PREFIX + len as usize;
    }
    (records, at as u64)
}

/// Counts a sealed segment's valid records and on-disk bytes.
fn scan_segment(path: &Path) -> (u64, u64) {
    let Ok(bytes) = std::fs::read(path) else {
        return (0, 0);
    };
    let (records, _) = scan_frames(&bytes);
    (records, bytes.len() as u64)
}

/// Decodes every valid record of a segment, stopping at the first bad
/// frame.
fn read_segment(path: &Path) -> Vec<CaptureRecord> {
    let Ok(bytes) = std::fs::read(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let (_, good_len) = scan_frames(&bytes);
    let mut at = HEADER_LEN as usize;
    while (at as u64) < good_len {
        let len =
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        if let Some(rec) = CaptureRecord::decode(&bytes[at + FRAME_PREFIX..at + FRAME_PREFIX + len])
        {
            out.push(rec);
        }
        at += FRAME_PREFIX + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamel::checkpoint::faults::{Fault, FaultyIo, CRASH};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kamel_capture_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(i: u64) -> CaptureRecord {
        CaptureRecord {
            kind: if i.is_multiple_of(2) {
                RecordKind::Impute
            } else {
                RecordKind::Feedback
            },
            unix_ms: 1_700_000_000_000 + i,
            confidence: (i as f64 / 100.0).min(1.0),
            cells: vec![i, i + 1, i + 2],
            sparse: vec![[41.15, -8.61 + i as f64 * 1e-3, i as f64]; 3],
            answer: vec![[41.15, -8.61 + i as f64 * 1e-3, i as f64]; 7],
        }
    }

    #[test]
    fn record_roundtrip_is_exact() {
        for i in 0..5 {
            let rec = record(i);
            let decoded = CaptureRecord::decode(&rec.encode()).expect("decodes");
            assert_eq!(decoded, rec);
        }
        // Trailing garbage and truncation are both rejected.
        let mut bytes = record(0).encode();
        bytes.push(0);
        assert!(CaptureRecord::decode(&bytes).is_none());
        let bytes = record(0).encode();
        assert!(CaptureRecord::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn append_read_discard_roundtrip() {
        let dir = tempdir("roundtrip");
        let mut log = CaptureLog::open(CaptureConfig::new(&dir)).unwrap();
        let records: Vec<CaptureRecord> = (0..20).map(record).collect();
        for r in &records {
            log.append(r).unwrap();
        }
        assert_eq!(log.records(), 20);
        // Reading consumes nothing: a pass that fails reads the same batch.
        assert_eq!(log.read_sealed().unwrap(), records);
        assert_eq!(log.read_sealed().unwrap(), records);
        assert_eq!(log.records(), 20);
        log.discard_sealed().unwrap();
        assert_eq!(log.records(), 0);
        // Discarded segments are gone from disk.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| e.file_name() == "capture.active"));
    }

    #[test]
    fn reopen_recovers_everything_durable() {
        let dir = tempdir("reopen");
        let cfg = CaptureConfig {
            segment_bytes: 400, // force several sealed segments
            ..CaptureConfig::new(&dir)
        };
        let records: Vec<CaptureRecord> = (0..10).map(record).collect();
        {
            let mut log = CaptureLog::open(cfg.clone()).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
            assert!(log.records() == 10);
            // Dropped without drain — simulating a process exit.
        }
        let mut log = CaptureLog::open(cfg).unwrap();
        assert_eq!(log.records(), 10, "reopen must see every record");
        assert_eq!(log.read_sealed().unwrap(), records);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tempdir("torn");
        let cfg = CaptureConfig::new(&dir);
        {
            let mut log = CaptureLog::open(cfg.clone()).unwrap();
            for i in 0..5 {
                log.append(&record(i)).unwrap();
            }
        }
        // Tear the tail: chop the last 11 bytes mid-frame.
        let path = dir.join("capture.active");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        let mut log = CaptureLog::open(cfg.clone()).unwrap();
        assert_eq!(log.records(), 4, "the torn record is dropped");
        let drained = log.read_sealed().unwrap();
        assert_eq!(drained, (0..4).map(record).collect::<Vec<_>>());
        // The log keeps working after recovery.
        log.append(&record(99)).unwrap();
        assert_eq!(log.records(), 5);
    }

    #[test]
    fn corrupt_frame_truncates_the_scan() {
        let dir = tempdir("corrupt");
        let cfg = CaptureConfig::new(&dir);
        {
            let mut log = CaptureLog::open(cfg.clone()).unwrap();
            for i in 0..3 {
                log.append(&record(i)).unwrap();
            }
        }
        // Flip one payload byte of the middle record.
        let path = dir.join("capture.active");
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(
            bytes[HEADER_LEN as usize..HEADER_LEN as usize + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let middle = HEADER_LEN as usize + FRAME_PREFIX + first_len + FRAME_PREFIX + 3;
        bytes[middle] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // Scanning stops at the corrupt frame: only the prefix survives.
        let mut log = CaptureLog::open(cfg).unwrap();
        assert_eq!(log.records(), 1);
        assert_eq!(log.read_sealed().unwrap(), vec![record(0)]);
    }

    #[test]
    fn byte_cap_drops_oldest_sealed_segments() {
        let dir = tempdir("cap");
        let per_record = record(0).framed_len();
        let cfg = CaptureConfig {
            // Room for ~2 records per segment, ~3 segments total.
            segment_bytes: HEADER_LEN + per_record * 2,
            max_bytes: (HEADER_LEN + per_record * 2) * 3,
            ..CaptureConfig::new(&dir)
        };
        let mut log = CaptureLog::open(cfg).unwrap();
        for i in 0..40 {
            log.append(&record(i)).unwrap();
        }
        assert!(
            log.total_bytes() <= (HEADER_LEN + per_record * 2) * 3 + per_record,
            "cap not enforced: {} bytes",
            log.total_bytes()
        );
        assert!(log.dropped_records() > 0, "nothing was dropped");
        // The survivors are the NEWEST records (drop-oldest).
        let drained = log.read_sealed().unwrap();
        assert!(!drained.is_empty());
        assert_eq!(drained.last(), Some(&record(39)));
        let first_kept = drained[0].unix_ms - 1_700_000_000_000;
        assert!(first_kept > 0, "oldest record must have been dropped");
    }

    #[test]
    fn injected_crash_during_seal_loses_nothing_durable() {
        let dir = tempdir("crash_seal");
        // Each test record frames to ~301 bytes: the third append crosses
        // the 700-byte threshold and trips the (crashing) seal, with two
        // full records already durable ahead of it.
        let cfg = CaptureConfig {
            segment_bytes: 700,
            ..CaptureConfig::new(&dir)
        };
        // Write a few records, then crash exactly before the seal rename.
        {
            let mut log = CaptureLog::open_with(
                cfg.clone(),
                Box::new(FaultyIo::new(Fault::CrashBeforeRename)),
            )
            .unwrap();
            let mut crashed = false;
            for i in 0..10 {
                match log.append(&record(i)) {
                    Ok(()) => {}
                    Err(e) => {
                        assert_eq!(e.kind(), CRASH);
                        crashed = true;
                        break;
                    }
                }
            }
            assert!(crashed, "the segment-bytes threshold must trip a seal");
        }
        // Reopen with healthy I/O: every appended record is still there
        // (the rename never ran, so they all sit in the active file).
        let mut log = CaptureLog::open(cfg).unwrap();
        assert!(log.records() >= 2);
        let drained = log.read_sealed().unwrap();
        for (i, rec) in drained.iter().enumerate() {
            assert_eq!(*rec, record(i as u64));
        }
    }

    #[test]
    fn injected_torn_write_recovers_prefix() {
        let dir = tempdir("torn_write");
        let cfg = CaptureConfig::new(&dir);
        let keep = (HEADER_LEN + record(0).framed_len() + record(1).framed_len() + 5) as usize;
        {
            let mut log = CaptureLog::open_with(
                cfg.clone(),
                Box::new(FaultyIo::new(Fault::ShortWrite { keep })),
            )
            .unwrap();
            let mut crashed = false;
            for i in 0..5 {
                if let Err(e) = log.append(&record(i)) {
                    assert_eq!(e.kind(), CRASH);
                    crashed = true;
                    break;
                }
            }
            assert!(crashed);
        }
        let mut log = CaptureLog::open(cfg).unwrap();
        // `keep` admits the first two frames in full plus a torn prefix
        // of the third; recovery truncates the tear.
        assert_eq!(log.records(), 2);
        assert_eq!(log.read_sealed().unwrap(), vec![record(0), record(1)]);
    }
}
