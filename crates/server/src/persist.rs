//! The durability tier: per-stream snapshot files written by a
//! background checkpointer.
//!
//! Every `snapshot_interval` the checkpointer (the shipper loop of
//! `ship.rs` with a [`SnapshotStore`] for its sink) encodes each changed
//! stream's *durable image* — the fan-in of its live engine image with
//! the slots a checkpoint sees (recovered and pushed, never replica:
//! see `slots::Consumer`) — into a single self-validating record and
//! writes it via write-to-temp + optional fsync + atomic rename. A
//! crash at any byte boundary therefore leaves either the old snapshot or the new one, never a
//! torn file, and anything torn anyway (e.g. a dying disk) is caught by
//! the record's CRC at recovery and quarantined, never trusted.
//!
//! # Snapshot record layout (version 1)
//!
//! ```text
//! offset  size       field
//! 0       4          magic "FCSN"
//! 4       1          version (1)
//! 5       1          sketch family code (1..=4)
//! 6       2          key length, u16 LE (1..=64)
//! 8       8          last-persisted sequence, u64 LE (items counter)
//! 16      8          image length, u64 LE
//! 24      4          CRC-32 (IEEE), u32 LE, over bytes [0..24] ++ key ++ image
//! 28      klen       stream key
//! 28+klen image_len  fcds-wire envelope (the versioned PR 6 format)
//! ```
//!
//! A record file must be *exactly* `28 + klen + image_len` bytes. The
//! CRC covers every header byte before the CRC field plus the whole
//! body, so any single-byte corruption anywhere in the file maps to a
//! typed [`RecoverError`](crate::recover::RecoverError): the magic and
//! version bytes to their own variants, the length fields to a length
//! mismatch (the file's actual length no longer matches), and
//! everything else to a CRC mismatch.
//!
//! The record CRC stays IEEE while frames use CRC-32C because it is
//! part of the on-disk format: version-1 files already on disk carry it.
//!
//! The durability contract this buys (documented in the README):
//! bounded loss of at most one `snapshot_interval` of acked ingest per
//! stream — recovery is one more *relaxation* in the paper's sense, a
//! quantified window on top of `r = 2Nb`, not a correctness loss.

pub use crate::crc::crc32;
use crate::recover::SNAP_MAX_IMAGE_BYTES;
use crate::registry::StreamState;
use crate::ship::{Failed, Sink};
use crate::slots::Consumer;
use crate::ServerConfig;
use fcds_sketches::wire::SketchFamily;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every snapshot record.
pub const SNAP_MAGIC: [u8; 4] = *b"FCSN";
/// Current snapshot record version.
pub const SNAP_VERSION: u8 = 1;
/// Fixed header length before the key (see the module docs).
pub const SNAP_HEADER_LEN: usize = 28;
/// Suffix of committed snapshot files in a data directory.
pub const SNAP_SUFFIX: &str = ".snap";
/// Suffix of in-flight temp files (atomic-rename staging). Never
/// scanned at recovery; leftovers from a crash are deleted at boot.
pub const TMP_SUFFIX: &str = ".tmp";
/// Suffix appended to a snapshot that failed validation at recovery.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Encodes one snapshot record (see the module docs for the layout).
///
/// # Panics
///
/// If `key` is empty or longer than
/// [`MAX_STREAM_KEY`](crate::frame::MAX_STREAM_KEY) — server-side keys
/// have already passed frame validation.
pub fn encode_record(family: SketchFamily, key: &[u8], seq: u64, image: &[u8]) -> Vec<u8> {
    assert!(
        !key.is_empty() && key.len() <= crate::frame::MAX_STREAM_KEY,
        "snapshot key must be 1..={} bytes, got {}",
        crate::frame::MAX_STREAM_KEY,
        key.len()
    );
    assert!(
        (image.len() as u64) <= SNAP_MAX_IMAGE_BYTES,
        "snapshot image of {} bytes exceeds cap {SNAP_MAX_IMAGE_BYTES}",
        image.len()
    );
    let mut out = Vec::with_capacity(SNAP_HEADER_LEN + key.len() + image.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.push(SNAP_VERSION);
    out.push(family.code());
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(image.len() as u64).to_le_bytes());
    let crc = crc32(&[&out[..24], key, image]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(image);
    out
}

/// The committed file name for a stream key: `s-<hex(key)>.snap`. Hex
/// keeps arbitrary binary keys filesystem-safe and collision-free, and
/// recovery cross-checks the name against the key *inside* the record,
/// so a copied or renamed snapshot cannot impersonate another stream.
pub fn snapshot_file_name(key: &[u8]) -> String {
    let mut name = String::with_capacity(2 + key.len() * 2 + SNAP_SUFFIX.len());
    name.push_str("s-");
    for b in key {
        let _ = write!(name, "{b:02x}");
    }
    name.push_str(SNAP_SUFFIX);
    name
}

/// When the OS is asked to make snapshot bytes durable.
///
/// | policy     | file fsync        | directory fsync       | survives            |
/// |------------|-------------------|-----------------------|---------------------|
/// | `Always`   | every snapshot    | every checkpoint round| power loss          |
/// | `Interval` | never             | every checkpoint round| power loss (lagged) |
/// | `Never`    | never             | never                 | process death only  |
///
/// `Never` is still crash-safe against SIGKILL/panic — the page cache
/// survives the process — but not against power loss or kernel panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync each snapshot file before its atomic rename, plus the
    /// directory after every round.
    Always,
    /// fsync only the directory, once per checkpoint round (i.e. once
    /// per `snapshot_interval` with pending writes).
    #[default]
    Interval,
    /// Never fsync. Bounded loss still holds for process crashes.
    Never,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "interval" => Ok(FsyncPolicy::Interval),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always|interval|never)"
            )),
        }
    }
}

/// Injectable snapshot storage, so tests can force ENOSPC, short
/// writes and fsync failures deterministically ([`DirStore`] is the
/// real filesystem implementation).
///
/// Contract: [`SnapshotStore::put`] must be atomic — after a crash at
/// any point, a later [`SnapshotStore::get`] of `name` returns either
/// the previous committed bytes or the new ones, never a mixture.
pub trait SnapshotStore: Send + Sync {
    /// Atomically replaces `name` with `bytes`; `fsync_file` asks for
    /// the bytes to be durable before the swap becomes visible.
    fn put(&self, name: &str, bytes: &[u8], fsync_file: bool) -> io::Result<()>;
    /// Makes prior renames durable (directory fsync).
    fn sync_dir(&self) -> io::Result<()>;
    /// Names of every committed snapshot (entries ending
    /// [`SNAP_SUFFIX`]; quarantined and temp entries excluded).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Reads a committed snapshot's bytes.
    fn get(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Moves a failed snapshot aside (append [`QUARANTINE_SUFFIX`]) so
    /// it is kept for forensics but never rescanned.
    fn quarantine(&self, name: &str) -> io::Result<()>;
    /// Deletes a committed snapshot (stream retirement).
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// Filesystem [`SnapshotStore`]: one directory, write-to-temp (fsynced
/// when `put` is asked to) + atomic rename per snapshot.
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) `dir` as a snapshot directory and
    /// deletes stale `*.tmp` staging files left by a crash mid-write —
    /// they were never committed, so by the atomicity contract they do
    /// not exist.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<DirStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(TMP_SUFFIX) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(DirStore { dir })
    }

    /// The underlying directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl SnapshotStore for DirStore {
    fn put(&self, name: &str, bytes: &[u8], fsync_file: bool) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}{TMP_SUFFIX}"));
        let dst = self.dir.join(name);
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, bytes)?;
            if fsync_file {
                f.sync_data()?;
            }
        }
        match fs::rename(&tmp, &dst) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        fs::File::open(&self.dir)?.sync_all()
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.ends_with(SNAP_SUFFIX) {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.dir.join(name))
    }

    fn quarantine(&self, name: &str) -> io::Result<()> {
        fs::rename(
            self.dir.join(name),
            self.dir.join(format!("{name}{QUARANTINE_SUFFIX}")),
        )
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.dir.join(name))
    }
}

/// The checkpointer's sink: one snapshot record per stream, under the
/// configured fsync policy.
impl Sink for Arc<dyn SnapshotStore> {
    fn consumer(&self) -> Consumer {
        Consumer::Checkpoint
    }

    fn put(
        &mut self,
        cfg: &ServerConfig,
        state: &StreamState,
        seq: u64,
        image: &[u8],
    ) -> Result<(), Failed> {
        let record = encode_record(state.family, &state.key, seq, image);
        let fsync_file = cfg.fsync_policy == FsyncPolicy::Always;
        let name = snapshot_file_name(&state.key);
        SnapshotStore::put(&**self, &name, &record, fsync_file).map_err(|_| Failed::Call)
    }

    /// Makes a round's renames durable, unless the policy is `Never`.
    fn close(&mut self, cfg: &ServerConfig, wrote: bool) -> Result<(), Failed> {
        if wrote && cfg.fsync_policy != FsyncPolicy::Never {
            self.sync_dir().map_err(|_| Failed::Call)?;
        }
        Ok(())
    }
}
