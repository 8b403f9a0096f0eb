//! Crash-safe checkpoint container for persisted models.
//!
//! The paper positions KAMEL's training as a long-running offline process
//! whose output is then served online; losing hours of training to a torn
//! write or a full disk is not acceptable at that scale. This module gives
//! model persistence three durability properties:
//!
//! 1. **Integrity** — a checkpoint is a small binary envelope around the
//!    serialized model: an 8-byte magic, a format version, the payload
//!    length, and a CRC32C over the payload (implemented in-repo; the
//!    build environment has no crates registry). Truncation, bit rot, and
//!    files from a future format version are all detected at load time
//!    instead of surfacing as garbage model state.
//! 2. **Atomicity** — writes go to a same-directory temp file, are
//!    `sync_all`ed, and only then renamed over the live path, so the live
//!    file is always either the old or the new checkpoint, never a blend.
//! 3. **Rotation** — the previous good checkpoint is kept as `<path>.bak`
//!    (rotated by rename immediately before the new file lands), and the
//!    loader falls back to it — with a loud warning — whenever the live
//!    file is missing or fails validation.
//!
//! The write path is factored over a tiny I/O shim ([`CkptIo`]) so tests
//! can deterministically inject short writes, `ENOSPC`, and crashes
//! between the rename steps; the fault implementations are compiled in
//! tests only.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First bytes of every enveloped checkpoint.
pub const MAGIC: &[u8; 8] = b"KAMELCKP";
/// The (only) envelope version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;
/// Envelope header size: magic (8) + version (4) + payload length (8) +
/// CRC32C (4).
pub const HEADER_LEN: usize = 24;

/// CRC32C (Castagnoli) slicing-by-8 lookup tables, reflected polynomial
/// 0x82F63B78. Row 0 is the classic byte-at-a-time table; row `k` maps a
/// byte to its CRC contribution after `k` further zero bytes, so eight
/// lookups fold eight input bytes into the register at once.
static CRC32C_TABLES: [[u32; 256]; 8] = make_crc32c_tables();

const fn make_crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C (Castagnoli) of `bytes`, eight bytes per step (slicing-by-8).
/// Every store record, checkpoint payload and capture-log entry is
/// checked through here; on the 2.1 GHz host the benchmark was frozen on
/// this runs at ≈ 1.4 GB/s where the byte-at-a-time loop ran at 0.35.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit digest of a byte stream (used as the training-input
/// fingerprint in resume progress records).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a byte buffer failed to decode as a checkpoint envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Does not start with [`MAGIC`]: not a checkpoint, or one whose
    /// first bytes are damaged.
    BadMagic,
    /// Shorter than a full header despite starting with the magic.
    TruncatedHeader,
    /// The envelope claims a format version this build does not know.
    UnknownVersion(u32),
    /// File length disagrees with the header's payload length.
    LengthMismatch {
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        got: u64,
    },
    /// The payload does not match its recorded CRC32C.
    ChecksumMismatch {
        /// CRC32C recorded in the header.
        expected: u32,
        /// CRC32C of the payload as read.
        got: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a checkpoint: magic bytes missing"),
            DecodeError::TruncatedHeader => write!(f, "checkpoint header is truncated"),
            DecodeError::UnknownVersion(v) => {
                write!(f, "checkpoint format version {v} is newer than this build understands")
            }
            DecodeError::LengthMismatch { expected, got } => {
                write!(f, "checkpoint payload truncated: header promises {expected} bytes, file holds {got}")
            }
            DecodeError::ChecksumMismatch { expected, got } => write!(
                f,
                "checkpoint payload corrupt: CRC32C {got:08x} != recorded {expected:08x}"
            ),
        }
    }
}

/// Wraps `payload` in the versioned, checksummed envelope.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes an enveloped checkpoint back to its payload, validating magic,
/// version, length, and checksum.
pub fn decode(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    if !bytes.starts_with(MAGIC) {
        return Err(DecodeError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::TruncatedHeader);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(DecodeError::UnknownVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let expected_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let got_len = (bytes.len() - HEADER_LEN) as u64;
    if got_len != payload_len {
        return Err(DecodeError::LengthMismatch {
            expected: payload_len,
            got: got_len,
        });
    }
    let payload = &bytes[HEADER_LEN..];
    let got_crc = crc32c(payload);
    if got_crc != expected_crc {
        return Err(DecodeError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }
    Ok(payload)
}

/// `<path>.bak` — where the previous good checkpoint is rotated to.
pub fn bak_path(path: &Path) -> PathBuf {
    sibling(path, ".bak")
}

/// `<path>.tmp` — the same-directory staging file for atomic writes.
pub fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// The filesystem operations the checkpoint writer performs, factored out
/// so tests can inject faults at every step. The production implementation
/// ([`RealIo`]) is a transparent pass-through. Public so sibling storage
/// crates (the `.kstore` model store) write through the same shim and
/// inherit the same fault matrix.
pub trait CkptIo {
    /// Writes `buf` to `file` (the temp-file body write).
    fn write_all(&self, file: &mut File, buf: &[u8]) -> std::io::Result<()>;
    /// Makes `file` durable (`sync_all`).
    fn sync(&self, file: &File) -> std::io::Result<()>;
    /// Called once between the durable temp write and the rename pair; a
    /// fault here models a process death before any rename ran.
    fn before_rotate(&self) -> std::io::Result<()> {
        Ok(())
    }
    /// Called between the `live → bak` rotation and the `tmp → live`
    /// publish; a fault here models a process death between the renames.
    fn between_renames(&self) -> std::io::Result<()> {
        Ok(())
    }
    /// Renames `from` over `to` (the rotation and publish steps).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
}

/// The production shim: plain `std::fs`.
pub struct RealIo;

impl CkptIo for RealIo {
    fn write_all(&self, file: &mut File, buf: &[u8]) -> std::io::Result<()> {
        file.write_all(buf)
    }

    fn sync(&self, file: &File) -> std::io::Result<()> {
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// Atomically persists `bytes` at `path`:
///
/// 1. write + `sync_all` to `<path>.tmp` in the same directory;
/// 2. when `rotate`, rename an existing live file to `<path>.bak`;
/// 3. rename `<path>.tmp` over `<path>`;
/// 4. best-effort fsync of the parent directory so the renames themselves
///    are durable.
///
/// A crash at any point leaves either the old file at `path`, or the new
/// one at `path`, or (with rotation) the old one at `<path>.bak` with
/// `path` missing — never a half-written live file. The checkpoint loader
/// handles all three.
pub fn write_atomic_with(
    io: &dyn CkptIo,
    path: &Path,
    bytes: &[u8],
    rotate: bool,
) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    io.write_all(&mut file, bytes)?;
    io.sync(&file)?;
    drop(file);
    io.before_rotate()?;
    if rotate && path.exists() {
        io.rename(path, &bak_path(path))?;
    }
    io.between_renames()?;
    io.rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Atomically writes raw bytes at `path` (temp file + sync + rename; an
/// existing file is replaced in one step, no `.bak` is kept). This is the
/// envelope-free helper for outputs that are not checkpoints — e.g. CSV
/// exports — which share the same torn-write failure mode as model saves.
pub fn write_file_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(&RealIo, path.as_ref(), bytes, false)
}

/// Envelopes `payload` and atomically persists it at `path`, rotating the
/// previous checkpoint to `<path>.bak` (see [`write_atomic_with`] for the
/// crash guarantees).
pub fn save_checkpoint(path: impl AsRef<Path>, payload: &[u8]) -> std::io::Result<()> {
    write_atomic_with(&RealIo, path.as_ref(), &encode(payload), true)
}

/// Best-effort fsync of `path`'s parent directory, making the rename pair
/// durable on filesystems where directory updates are buffered. Failure is
/// ignored: not all platforms allow opening directories for sync.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// Records a `.bak`-fallback recovery for `path`, returning `true` only
/// the first time this process notes it. Loaders gate their stderr
/// warning on this: a pyramid-scale boot loads hundreds of cells from the
/// same checkpoint tree, and one recovery event must not print hundreds
/// of identical lines.
pub fn note_bak_recovery(path: &Path) -> bool {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static SEEN: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    SEEN.get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("bak-recovery registry poisoned")
        .insert(path.to_path_buf())
}

/// Deterministic fault injection for the checkpoint write path, compiled
/// in tests (and for dependents opting into the `fault-injection`
/// feature — the model store's corruption tests reuse the matrix). Each
/// fault models one real-world failure recovery must survive.
#[cfg(any(test, feature = "fault-injection"))]
pub mod faults {
    use super::CkptIo;
    use std::fs::File;
    use std::io::Write;
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The injectable failure modes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// The process dies after `keep` bytes of the temp file reached the
        /// kernel — a short/torn write. No rename ever runs.
        ShortWrite {
            /// Bytes written before the crash.
            keep: usize,
        },
        /// The disk fills after `after` bytes: the write call itself fails
        /// with `ENOSPC` (`StorageFull`), and the save returns an error.
        Enospc {
            /// Bytes written before the device fills.
            after: usize,
        },
        /// The process dies after the temp file is durable but before any
        /// rename ran: live and backup are untouched, a stray `.tmp`
        /// remains.
        CrashBeforeRename,
        /// The process dies between `live → bak` and `tmp → live`: the
        /// live path is missing and only the backup holds a checkpoint.
        CrashBetweenRenames,
    }

    /// The error kind carried by simulated crashes, so tests can tell a
    /// deliberate kill from a genuine I/O failure.
    pub const CRASH: std::io::ErrorKind = std::io::ErrorKind::Interrupted;

    fn crash(what: &str) -> std::io::Error {
        std::io::Error::new(CRASH, format!("injected crash: {what}"))
    }

    /// A [`CkptIo`] that fails exactly once, at the configured point.
    pub struct FaultyIo {
        fault: Fault,
        written: AtomicUsize,
    }

    impl FaultyIo {
        /// Wraps the configured fault.
        pub fn new(fault: Fault) -> Self {
            Self {
                fault,
                written: AtomicUsize::new(0),
            }
        }
    }

    impl CkptIo for FaultyIo {
        fn write_all(&self, file: &mut File, buf: &[u8]) -> std::io::Result<()> {
            let cap = match self.fault {
                Fault::ShortWrite { keep } => Some((keep, true)),
                Fault::Enospc { after } => Some((after, false)),
                _ => None,
            };
            let Some((cap, is_crash)) = cap else {
                return file.write_all(buf);
            };
            let already = self.written.load(Ordering::SeqCst);
            let room = cap.saturating_sub(already).min(buf.len());
            file.write_all(&buf[..room])?;
            file.sync_all()?; // the partial bytes really are on disk
            self.written.fetch_add(room, Ordering::SeqCst);
            if room < buf.len() {
                return Err(if is_crash {
                    crash("torn write")
                } else {
                    std::io::Error::new(std::io::ErrorKind::StorageFull, "injected ENOSPC")
                });
            }
            Ok(())
        }

        fn sync(&self, file: &File) -> std::io::Result<()> {
            file.sync_all()
        }

        fn before_rotate(&self) -> std::io::Result<()> {
            if self.fault == Fault::CrashBeforeRename {
                return Err(crash("before rename"));
            }
            Ok(())
        }

        fn between_renames(&self) -> std::io::Result<()> {
            if self.fault == Fault::CrashBetweenRenames {
                return Err(crash("between renames"));
            }
            Ok(())
        }

        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            std::fs::rename(from, to)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kamel_ckpt_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bak_recovery_notes_each_path_once_per_process() {
        let dir = tempdir("warn_once");
        let a = dir.join("model_a.ckpt");
        let b = dir.join("model_b.ckpt");
        // First recovery of a path reports true (→ warning printed)...
        assert!(note_bak_recovery(&a));
        // ...every later recovery of the same path is silent, however many
        // cell loads hit it.
        assert!(!note_bak_recovery(&a));
        assert!(!note_bak_recovery(&a));
        // Distinct paths warn independently.
        assert!(note_bak_recovery(&b));
        assert!(!note_bak_recovery(&b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 §B.4 test vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(b""), 0);
    }

    /// The retired byte-at-a-time loop over row 0 of the tables, kept as
    /// the reference the slicing-by-8 implementation must reproduce.
    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        let mut rng = kamel_rng::Rng::seed_from_u64(0xC2C3_2C00);
        // Every length 0..=257 at every start offset 0..8: all eight
        // alignments of the 8-byte body and every remainder length.
        let buf: Vec<u8> = (0..8 + 257).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32c(s), crc32c_bytewise(s), "start {start}, len {len}");
            }
        }
        for seed in 0..3u64 {
            let big: Vec<u8> = (0..(1 << 20) + seed).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32c(&big), crc32c_bytewise(&big), "1 MB buffer {seed}");
        }
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_eq!(fnv1a64(b"trips.csv"), fnv1a64(b"trips.csv"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let payload = b"{\"model\":42}";
        let wire = encode(payload);
        assert_eq!(&wire[..8], MAGIC);
        assert_eq!(wire.len(), HEADER_LEN + payload.len());
        assert_eq!(decode(&wire).unwrap(), payload);
        // Empty payloads are legal.
        assert_eq!(decode(&encode(b"")).unwrap(), b"");
    }

    #[test]
    fn decode_rejects_every_corruption_class() {
        let wire = encode(b"payload-bytes");
        // Missing or damaged magic, bare JSON included: no passthrough.
        let mut no_magic = wire.clone();
        no_magic[0] ^= 0x01;
        for bytes in [&no_magic[..], b"{\"config\":{},\"state\":null}", b"KAMEL", b""] {
            assert_eq!(decode(bytes), Err(DecodeError::BadMagic));
        }
        // Truncated header.
        assert_eq!(decode(&wire[..10]), Err(DecodeError::TruncatedHeader));
        // Unknown future version.
        let mut future = wire.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode(&future), Err(DecodeError::UnknownVersion(99)));
        // Truncated payload.
        assert!(matches!(
            decode(&wire[..wire.len() - 3]),
            Err(DecodeError::LengthMismatch { .. })
        ));
        // Trailing garbage.
        let mut long = wire.clone();
        long.extend_from_slice(b"xx");
        assert!(matches!(decode(&long), Err(DecodeError::LengthMismatch { .. })));
        // Flipped payload bit.
        let mut flipped = wire.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            decode(&flipped),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn save_rotates_the_previous_checkpoint_to_bak() {
        let dir = tempdir("rotate");
        let path = dir.join("model.ckpt");
        let live = || std::fs::read(&path).unwrap();
        save_checkpoint(&path, b"v1").unwrap();
        assert_eq!(decode(&live()).unwrap(), b"v1");
        assert!(!bak_path(&path).exists(), "no backup after the first save");
        save_checkpoint(&path, b"v2").unwrap();
        assert_eq!(decode(&live()).unwrap(), b"v2");
        // The rotation preserved v1 as the backup.
        let bak = std::fs::read(bak_path(&path)).unwrap();
        assert_eq!(decode(&bak).unwrap(), b"v1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_file_atomic_replaces_without_rotation() {
        let dir = tempdir("raw");
        let path = dir.join("out.csv");
        write_file_atomic(&path, b"a,b\n1,2\n").unwrap();
        write_file_atomic(&path, b"a,b\n3,4\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"a,b\n3,4\n");
        assert!(!bak_path(&path).exists(), "raw writes keep no .bak");
        assert!(!tmp_path(&path).exists(), "no stray temp file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
