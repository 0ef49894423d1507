//! Durable bolt state: periodic snapshots plus an append-only changelog.
//!
//! Modeled on the snapshot/commitlog split of production stream stores:
//! each bolt task owns one directory holding a `snapshot.bin` (the full
//! serialized state as of some point) and a `changelog.bin` (delta
//! records appended since that snapshot). Recovery is replay: restore the
//! snapshot, then apply the changelog records in order.
//!
//! # On-disk format
//!
//! Both files are sequences of [`transport`](crate::transport) frames
//! under [`RECORD_TAG`], one record per frame, written by
//! [`try_encode_frame`] and read back by [`FrameDecoder`]. A frame that runs
//! past the end of the file, fails its CRC or carries another tag marks
//! the *torn tail* of an interrupted write (or a file of another format):
//! everything before it is valid, everything from it on is discarded, and
//! [`StateStore::open`] truncates the changelog back to the valid prefix
//! so the next append starts from a clean boundary.
//!
//! # Compaction
//!
//! A snapshot writes the full state to `snapshot.tmp`, renames it over
//! `snapshot.bin` (atomic on POSIX), and then truncates the changelog:
//! the snapshot subsumes every delta before it. The changelog between
//! snapshots is bounded by [`DurabilityConfig::snapshot_every`] records.
//!
//! # Wiring
//!
//! Setting [`RuntimeConfig::durability`](crate::runtime::RuntimeConfig)
//! gives every bolt task a [`StateStore`]. After each processed tuple the
//! runtime drains the bolt's changelog records
//! ([`Bolt::drain_changelog`](crate::topology::Bolt::drain_changelog))
//! into the store, snapshots
//! ([`Bolt::snapshot_state`](crate::topology::Bolt::snapshot_state)) on
//! the configured cadence and at end-of-stream, and on any start —
//! fresh submit or supervised post-panic restart — hands the recovered
//! state back through
//! [`Bolt::restore_state`](crate::topology::Bolt::restore_state).
//! Stateless bolts keep the default no-op hooks and pay nothing but an
//! empty drain per tuple.

use crate::error::DspsError;
use crate::transport::{try_encode_frame, FrameDecoder};
use bytes::{Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

/// Durability parameters, opt-in via
/// [`RuntimeConfig::durability`](crate::runtime::RuntimeConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory; each bolt task persists under
    /// `<dir>/<component>-<task>/`.
    pub dir: PathBuf,
    /// Changelog records accumulated before the runtime takes the next
    /// snapshot (and compacts the changelog). Also the bound on replay
    /// length at recovery. 0 behaves as 1.
    pub snapshot_every: u64,
    /// Fsync file data on every snapshot (appends are flushed but not
    /// synced either way — the CRC framing bounds the damage of a torn
    /// append to the tail record).
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { dir: dir.into(), snapshot_every: 1024, fsync: false }
    }
}

/// Frame tag of a durable record, the version byte of the file format. Set
/// apart from the session tags of `net` and from every first byte a
/// record of the pre-frame format began with, so such a file reads as
/// having no valid prefix.
pub const RECORD_TAG: u8 = 0xD5;

/// One record as a frame, ready for a single `write_all`. A record too
/// large to frame is a [`DspsError::Frame`].
fn record_frame(record: &[u8]) -> Result<Bytes, DspsError> {
    try_encode_frame(BytesMut::new(), RECORD_TAG, |b| b.put_slice(record))
}

/// Decodes the valid record prefix of a file's `bytes`: the records whose
/// frames parse, checksum and carry [`RECORD_TAG`], plus the byte length
/// of that prefix. Anything past the returned length is a torn or corrupt
/// tail.
fn read_records(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut decoder = FrameDecoder::new();
    decoder.push(bytes);
    let mut records = Vec::new();
    let mut valid_len = 0;
    loop {
        let before = decoder.pending();
        match decoder.next() {
            Ok(Some(frame)) if frame.tag == RECORD_TAG => {
                records.push(frame.payload.to_vec());
                valid_len += before - decoder.pending();
            }
            _ => return (records, valid_len),
        }
    }
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> DspsError {
    DspsError::Durability { path: path.display().to_string(), reason: format!("{op}: {e}") }
}

/// A file's bytes, an absent file reading as empty.
fn read_or_empty(path: &Path) -> Result<Vec<u8>, DspsError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err(path, "read", e)),
    }
}

/// A recovered task state: the latest snapshot (if any) plus the
/// changelog records appended after it, in append order.
pub type RecoveredState = (Option<Vec<u8>>, Vec<Vec<u8>>);

/// What `dir` holds now, plus the changelog's valid and total byte
/// lengths.
fn read_state(dir: &Path) -> Result<(RecoveredState, usize, usize), DspsError> {
    // Written atomically via tmp+rename, but still validated: a snapshot
    // that fails its CRC is ignored wholesale (the changelog was
    // truncated when it was taken, so a corrupt snapshot means recovery
    // restarts empty rather than restoring garbage).
    let snapshot = read_records(&read_or_empty(&dir.join("snapshot.bin"))?).0.into_iter().next();
    let log = read_or_empty(&dir.join("changelog.bin"))?;
    let (records, valid_len) = read_records(&log);
    Ok(((snapshot, records), valid_len, log.len()))
}

/// One bolt task's durable state: `snapshot.bin` + `changelog.bin` under
/// a per-(component, task) directory.
pub struct StateStore {
    dir: PathBuf,
    changelog: File,
    snapshot_every: u64,
    fsync: bool,
    records_since_snapshot: u64,
    /// Torn-tail bytes truncated away at open (0 on a clean log); the
    /// runtime reports them to the flight recorder.
    truncated_bytes: u64,
    /// State found on disk at open, consumed once by [`take_recovered`].
    ///
    /// [`take_recovered`]: StateStore::take_recovered
    recovered: Option<RecoveredState>,
}

impl StateStore {
    /// Opens (or creates) the store for one bolt task, reading any prior
    /// snapshot and replaying the changelog's valid prefix. A torn or
    /// corrupt changelog tail is truncated away here, so appends resume
    /// from a clean frame boundary.
    pub fn open(config: &DurabilityConfig, component: &str, task: usize) -> Result<Self, DspsError> {
        let dir = config.dir.join(format!("{component}-{task}"));
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create_dir_all", e))?;
        let ((snapshot, replayed), valid_len, log_len) = read_state(&dir)?;

        let log_path = dir.join("changelog.bin");
        let changelog = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| io_err(&log_path, "open", e))?;
        if valid_len < log_len {
            // Torn tail from an interrupted append: drop it.
            changelog.set_len(valid_len as u64).map_err(|e| io_err(&log_path, "truncate", e))?;
        }

        let records_since_snapshot = replayed.len() as u64;
        let recovered = if snapshot.is_some() || !replayed.is_empty() {
            Some((snapshot, replayed))
        } else {
            None
        };
        Ok(StateStore {
            dir,
            changelog,
            snapshot_every: config.snapshot_every.max(1),
            fsync: config.fsync,
            records_since_snapshot,
            truncated_bytes: (log_len - valid_len) as u64,
            recovered,
        })
    }

    /// Torn-tail bytes truncated from the changelog at open (0 when the
    /// log was clean).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// The state found on disk at open — `(snapshot, changelog records)`
    /// — or `None` when the store was empty. Consumed by the first call;
    /// the runtime hands it to [`Bolt::restore_state`] before the first
    /// tuple.
    ///
    /// [`Bolt::restore_state`]: crate::topology::Bolt::restore_state
    pub fn take_recovered(&mut self) -> Option<RecoveredState> {
        self.recovered.take()
    }

    /// Appends one changelog record (flushed, not synced).
    pub fn append(&mut self, record: &[u8]) -> Result<(), DspsError> {
        let path = self.dir.join("changelog.bin");
        let frame = record_frame(record)?;
        self.changelog.write_all(&frame).map_err(|e| io_err(&path, "append", e))?;
        self.changelog.flush().map_err(|e| io_err(&path, "flush", e))?;
        self.records_since_snapshot += 1;
        Ok(())
    }

    /// Whether the changelog has grown enough that the runtime should take
    /// the next snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.records_since_snapshot >= self.snapshot_every
    }

    /// The configured snapshot cadence.
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// Writes a full-state snapshot (tmp file + atomic rename) and
    /// compacts: the changelog truncates to empty, since the snapshot
    /// subsumes every record before it. A state over
    /// [`MAX_FRAME`](crate::transport::MAX_FRAME) is a
    /// [`DspsError::Frame`] and leaves the previous snapshot in place.
    pub fn snapshot(&mut self, state: &[u8]) -> Result<(), DspsError> {
        let frame = record_frame(state)?;
        let tmp = self.dir.join("snapshot.tmp");
        let snap = self.dir.join("snapshot.bin");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
            f.write_all(&frame).map_err(|e| io_err(&tmp, "write", e))?;
            if self.fsync {
                f.sync_data().map_err(|e| io_err(&tmp, "fsync", e))?;
            }
        }
        std::fs::rename(&tmp, &snap).map_err(|e| io_err(&snap, "rename", e))?;
        let log_path = self.dir.join("changelog.bin");
        self.changelog.set_len(0).map_err(|e| io_err(&log_path, "truncate", e))?;
        self.changelog
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(&log_path, "seek", e))?;
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// Re-reads the durable state as of now — last snapshot plus the
    /// changelog records since — for restoring a *supervised restart*
    /// mid-run (the open-time recovery was already consumed).
    pub fn read_current(&mut self) -> Result<RecoveredState, DspsError> {
        Ok(read_state(&self.dir)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tms-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(tag: &str) -> DurabilityConfig {
        DurabilityConfig { dir: tmp_dir(tag), snapshot_every: 4, fsync: false }
    }

    #[test]
    fn crc32_known_vectors() {
        use crate::transport::crc32;
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let c = cfg("roundtrip");
        {
            let mut s = StateStore::open(&c, "bolt", 0).unwrap();
            assert!(s.take_recovered().is_none(), "fresh store has no state");
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
        }
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        let (snap, log) = s.take_recovered().unwrap();
        assert!(snap.is_none());
        assert_eq!(log, vec![b"one".to_vec(), b"two".to_vec()]);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn snapshot_compacts_changelog() {
        let c = cfg("compact");
        {
            let mut s = StateStore::open(&c, "bolt", 1).unwrap();
            s.append(b"a").unwrap();
            s.append(b"b").unwrap();
            s.snapshot(b"state-after-b").unwrap();
            s.append(b"c").unwrap();
        }
        let log_len = std::fs::metadata(c.dir.join("bolt-1/changelog.bin")).unwrap().len();
        assert_eq!(log_len, 8 + 1 + 1, "compaction left exactly one framed record");
        let mut s = StateStore::open(&c, "bolt", 1).unwrap();
        let (snap, log) = s.take_recovered().unwrap();
        assert_eq!(snap.as_deref(), Some(&b"state-after-b"[..]));
        assert_eq!(log, vec![b"c".to_vec()]);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn snapshot_cadence() {
        let c = cfg("cadence");
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        for i in 0..3 {
            s.append(&[i]).unwrap();
            assert!(!s.snapshot_due());
        }
        s.append(&[3]).unwrap();
        assert!(s.snapshot_due(), "snapshot_every=4 reached");
        s.snapshot(b"s").unwrap();
        assert!(!s.snapshot_due());
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let c = cfg("torn");
        {
            let mut s = StateStore::open(&c, "bolt", 0).unwrap();
            s.append(b"good-1").unwrap();
            s.append(b"good-2").unwrap();
        }
        // Simulate a crash mid-append: a partial frame at the tail.
        let log = c.dir.join("bolt-0/changelog.bin");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[9, 0, 0, 0, 0xAA, 0xBB]).unwrap(); // header cut short
        drop(f);
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        let (_, recs) = s.take_recovered().unwrap();
        assert_eq!(recs, vec![b"good-1".to_vec(), b"good-2".to_vec()]);
        // The torn bytes are gone: a fresh append lands on a clean boundary.
        s.append(b"good-3").unwrap();
        drop(s);
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        let (_, recs) = s.take_recovered().unwrap();
        assert_eq!(recs.len(), 3);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn corrupt_record_truncates_rest() {
        let c = cfg("corrupt");
        {
            let mut s = StateStore::open(&c, "bolt", 0).unwrap();
            s.append(b"keep").unwrap();
            s.append(b"flip").unwrap();
            s.append(b"lost").unwrap();
        }
        // Flip one payload byte of the middle record (frame 2 starts at
        // 8+1+4; its payload at 8+1+4+8+1).
        let log = c.dir.join("bolt-0/changelog.bin");
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[8 + 1 + 4 + 8 + 1] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        let (_, recs) = s.take_recovered().unwrap();
        assert_eq!(recs, vec![b"keep".to_vec()], "everything from the bad CRC on is dropped");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn corrupt_snapshot_is_ignored() {
        let c = cfg("badsnap");
        {
            let mut s = StateStore::open(&c, "bolt", 0).unwrap();
            s.snapshot(b"full state").unwrap();
        }
        let snap = c.dir.join("bolt-0/snapshot.bin");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        assert!(s.take_recovered().is_none(), "a snapshot that fails its CRC must not restore");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn oversized_snapshot_is_a_typed_error_and_keeps_the_previous_one() {
        let c = cfg("oversized");
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        s.snapshot(b"fits").unwrap();
        s.append(b"delta").unwrap();
        let too_big = vec![0u8; crate::transport::MAX_FRAME]; // + the tag byte
        assert!(matches!(s.snapshot(&too_big), Err(DspsError::Frame { .. })));
        assert!(matches!(s.append(&too_big), Err(DspsError::Frame { .. })));
        let (snap, log) = s.read_current().unwrap();
        assert_eq!(snap.as_deref(), Some(&b"fits"[..]));
        assert_eq!(log, vec![b"delta".to_vec()], "a refused snapshot compacts nothing");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn files_of_the_pre_frame_format_are_discarded() {
        // `[len][crc32(payload)][payload]`, as written before records were
        // transport frames: it checksums as a frame whose tag is the
        // payload's first byte, which is not `RECORD_TAG`.
        let c = cfg("preframe");
        let dir = c.dir.join("bolt-0");
        std::fs::create_dir_all(&dir).unwrap();
        let old_record = |payload: &[u8]| {
            let mut out = (payload.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(&crate::transport::crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
            out
        };
        std::fs::write(dir.join("snapshot.bin"), old_record(&[1, 0, 0, 0, 0, 0, 0, 0, 0])).unwrap();
        std::fs::write(dir.join("changelog.bin"), old_record(b"delta")).unwrap();
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        assert!(s.take_recovered().is_none(), "nothing of the old format restores");
        assert_eq!(s.truncated_bytes(), 8 + 5, "the old changelog is a torn tail");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn read_current_sees_unconsumed_appends() {
        let c = cfg("current");
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        s.snapshot(b"base").unwrap();
        s.append(b"delta").unwrap();
        let (snap, log) = s.read_current().unwrap();
        assert_eq!(snap.as_deref(), Some(&b"base"[..]));
        assert_eq!(log, vec![b"delta".to_vec()]);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn empty_frame_roundtrip() {
        let c = cfg("empty");
        {
            let mut s = StateStore::open(&c, "bolt", 0).unwrap();
            s.append(b"").unwrap();
            s.append(b"x").unwrap();
        }
        let mut s = StateStore::open(&c, "bolt", 0).unwrap();
        let (_, recs) = s.take_recovered().unwrap();
        assert_eq!(recs, vec![Vec::new(), b"x".to_vec()]);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn tasks_are_isolated() {
        let c = cfg("isolated");
        {
            let mut a = StateStore::open(&c, "bolt", 0).unwrap();
            let mut b = StateStore::open(&c, "bolt", 1).unwrap();
            a.append(b"from-0").unwrap();
            b.append(b"from-1").unwrap();
        }
        let mut a = StateStore::open(&c, "bolt", 0).unwrap();
        let (_, recs) = a.take_recovered().unwrap();
        assert_eq!(recs, vec![b"from-0".to_vec()]);
        let _ = std::fs::remove_dir_all(&c.dir);
    }
}
