//! Durability acceptance suite: snapshot + changelog recovery.
//!
//! The acceptance bar: a topology killed and resubmitted against the same
//! durability directory must resume from its persisted state and end
//! *byte-identical* to an uninterrupted run — in both delivery modes
//! (at-most-once and at-least-once). A supervised post-panic restart must
//! restore the task's persisted state instead of rebuilding it empty. And
//! the changelog must survive torn tails and corrupt records by truncating
//! to the longest valid prefix (property-tested).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tms_dsps::durability::{DurabilityConfig, StateStore};
use tms_dsps::runtime::{LocalCluster, ReliabilityConfig, RuntimeConfig};
use tms_dsps::scheduler::ClusterSpec;
use tms_dsps::topology::{Parallelism, TopologyBuilder};
use tms_dsps::{
    Bolt, DspsError, Emitter, FlightKind, FlightRecorder, FrameDecoder, Grouping, Spout,
};

struct RangeSpout {
    next: u64,
    end: u64,
}
impl Spout<u64> for RangeSpout {
    fn next(&mut self) -> Option<u64> {
        if self.next >= self.end {
            return None;
        }
        let v = self.next;
        self.next += 1;
        Some(v)
    }
}

/// The stateful bolt under test: a float accumulator whose low mantissa
/// bits depend on the exact sequence of values folded in — any recovery
/// that replays the wrong records, in the wrong order, or loses some,
/// produces different state bytes.
///
/// Changelog record: the 8 LE bytes of the incoming value. Snapshot:
/// `[seen: u64 LE][sum: f64 bits LE]`.
struct Acc {
    seen: u64,
    sum: f64,
    pending: Vec<Vec<u8>>,
    /// Panics once while processing this value (restart-recovery tests).
    poison: Option<(u64, Arc<AtomicBool>)>,
    /// Telemetry: `seen` as of the last `restore_state` call.
    restored_seen: Option<Arc<AtomicU64>>,
}

impl Acc {
    fn fold(&mut self, v: u64) {
        self.seen += 1;
        self.sum += (v as f64).sqrt();
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.seen.to_le_bytes());
        out.extend_from_slice(&self.sum.to_bits().to_le_bytes());
        out
    }
}

impl Bolt<u64> for Acc {
    fn process(&mut self, v: u64, _e: &mut dyn Emitter<u64>) {
        if let Some((poison, fired)) = &self.poison {
            if v == *poison && !fired.swap(true, Ordering::SeqCst) {
                panic!("poisoned tuple {v}");
            }
        }
        self.fold(v);
        self.pending.push(v.to_le_bytes().to_vec());
    }

    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        Some(self.state_bytes())
    }

    fn drain_changelog(&mut self, out: &mut Vec<Vec<u8>>) {
        out.append(&mut self.pending);
    }

    fn restore_state(
        &mut self,
        snapshot: Option<&[u8]>,
        changelog: &[Vec<u8>],
    ) -> Result<(), DspsError> {
        if let Some(s) = snapshot {
            if s.len() != 16 {
                return Err(DspsError::Frame {
                    reason: format!("snapshot of {} bytes, an Acc snapshot has 16", s.len()),
                });
            }
            self.seen = u64::from_le_bytes(s[0..8].try_into().unwrap());
            self.sum = f64::from_bits(u64::from_le_bytes(s[8..16].try_into().unwrap()));
        }
        for rec in changelog {
            self.fold(u64::from_le_bytes(rec[..8].try_into().unwrap()));
        }
        if let Some(t) = &self.restored_seen {
            t.store(self.seen, Ordering::SeqCst);
        }
        Ok(())
    }
}

fn cluster() -> LocalCluster {
    LocalCluster::new(ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 2 }).unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tms-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        ack_timeout: Duration::from_secs(5),
        max_retries: 5,
        backoff: 1.5,
        max_pending: 256,
        max_task_restarts: 3,
    }
}

/// Runs `range` through a single-task Acc bolt persisting into `dir`;
/// returns the run's flight recorder.
fn run_segment(
    range: std::ops::Range<u64>,
    dir: &Path,
    reliability: Option<ReliabilityConfig>,
) -> Arc<FlightRecorder> {
    run_poisoned_segment(range, dir, reliability, None)
}

/// [`run_segment`] with a bolt that panics the first time it sees `poison`.
fn run_poisoned_segment(
    range: std::ops::Range<u64>,
    dir: &Path,
    reliability: Option<ReliabilityConfig>,
    poison: Option<u64>,
) -> Arc<FlightRecorder> {
    let (start, end) = (range.start, range.end);
    let fired = Arc::new(AtomicBool::new(false));
    let t = TopologyBuilder::new("recovery")
        .add_spout("src", Parallelism::of(1), move |_| {
            Box::new(RangeSpout { next: start, end })
        })
        .add_bolt("acc", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(Acc {
                seen: 0,
                sum: 0.0,
                pending: Vec::new(),
                poison: poison.map(|v| (v, fired.clone())),
                restored_seen: None,
            }) as Box<dyn Bolt<u64>>
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        reliability,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            // Small enough that snapshots and compaction actually happen
            // mid-run, not only at EOS.
            snapshot_every: 64,
            fsync: false,
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let flight = handle.flight_recorder().clone();
    handle.join().unwrap();
    flight
}

/// The details of a run's flight events of one kind, in order.
fn details(flight: &FlightRecorder, kind: FlightKind) -> Vec<String> {
    flight.events_of(kind).into_iter().map(|e| e.detail).collect()
}

/// The persisted end state of the Acc task in `dir` — after a clean EOS
/// this is exactly the final snapshot (the changelog was compacted away).
fn final_state(dir: &Path) -> Vec<u8> {
    let cfg = DurabilityConfig { dir: dir.to_path_buf(), snapshot_every: 64, fsync: false };
    let mut store = StateStore::open(&cfg, "acc", 0).unwrap();
    let (snapshot, changelog) = store.take_recovered().expect("state must exist after a run");
    assert!(changelog.is_empty(), "EOS snapshot must have compacted the changelog");
    snapshot.expect("EOS must leave a snapshot")
}

/// Tentpole acceptance: kill-and-restart (here: drain, then resubmit the
/// rest of the stream against the same durability directory) ends in
/// state byte-identical to the uninterrupted run — in both delivery modes.
#[test]
fn resumed_run_is_byte_identical_to_uninterrupted() {
    for (tag, reliability) in [("amo", None), ("alo", Some(fast_reliability()))] {
        let full_dir = tmp_dir(&format!("full-{tag}"));
        run_segment(0..1000, &full_dir, reliability);
        let expected = final_state(&full_dir);

        let split_dir = tmp_dir(&format!("split-{tag}"));
        run_segment(0..400, &split_dir, reliability);
        run_segment(400..1000, &split_dir, reliability);
        let resumed = final_state(&split_dir);

        assert_eq!(
            resumed, expected,
            "[{tag}] resumed state must be byte-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&split_dir);
    }
}

/// A mid-stream snapshotless interruption: state left as snapshot +
/// changelog tail (no clean EOS compaction) must replay to the same
/// state. Simulated by appending changelog records through the store API
/// directly, as a crashed run would have left them.
#[test]
fn changelog_tail_replays_into_restored_state() {
    let dir = tmp_dir("tail");
    let cfg = DurabilityConfig { dir: dir.clone(), snapshot_every: 1 << 30, fsync: false };
    {
        // A "crashed" first run: 300 records appended, never snapshotted.
        let mut store = StateStore::open(&cfg, "acc", 0).unwrap();
        for v in 0..300u64 {
            store.append(&v.to_le_bytes()).unwrap();
        }
    }
    // Resume: the bolt must fold the replayed tail before new tuples.
    run_segment(300..1000, &dir, None);
    let got = final_state(&dir);

    let full_dir = tmp_dir("tail-full");
    run_segment(0..1000, &full_dir, None);
    let expected = final_state(&full_dir);

    assert_eq!(got, expected, "changelog replay must reconstruct the pre-crash state exactly");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&full_dir);
}

/// Satellite acceptance: a supervised post-panic restart restores the
/// task's persisted state — the old factory re-invocation restarted it
/// empty, silently dropping everything accumulated before the panic.
#[test]
fn supervised_restart_restores_persisted_state() {
    let dir = tmp_dir("restart");
    let fired = Arc::new(AtomicBool::new(false));
    let restored_seen = Arc::new(AtomicU64::new(u64::MAX));
    let (f, r) = (fired.clone(), restored_seen.clone());
    let t = TopologyBuilder::new("recovery")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 1000 }))
        .add_bolt("acc", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(Acc {
                seen: 0,
                sum: 0.0,
                pending: Vec::new(),
                poison: Some((700, f.clone())),
                restored_seen: Some(r.clone()),
            }) as Box<dyn Bolt<u64>>
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        reliability: Some(fast_reliability()),
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            snapshot_every: 64,
            fsync: false,
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let metrics = handle.metrics().clone();
    handle.join().unwrap();
    assert!(fired.load(Ordering::SeqCst), "the poisoned tuple must have panicked once");
    let totals = metrics.totals();
    let acc = totals.iter().find(|c| c.component == "acc").unwrap();
    assert_eq!(acc.restarted, 1, "exactly one supervised restart");

    // The restart restored real state: tuple 700 panicked, so at least
    // the 700 tuples before it (and possibly a few delivered after) were
    // already folded when the supervisor rebuilt the task.
    let restored = restored_seen.load(Ordering::SeqCst);
    assert!(
        (700..1000).contains(&restored),
        "restart must restore the pre-panic state, got seen={restored}"
    );

    // And nothing was lost or double-counted: the poisoned tuple replays
    // (it was never acked), everything else folds exactly once.
    let (snapshot, _) = {
        let cfg = DurabilityConfig { dir: dir.clone(), snapshot_every: 64, fsync: false };
        StateStore::open(&cfg, "acc", 0).unwrap().take_recovered().unwrap()
    };
    let s = snapshot.unwrap();
    let seen = u64::from_le_bytes(s[0..8].try_into().unwrap());
    let sum = f64::from_bits(u64::from_le_bytes(s[8..16].try_into().unwrap()));
    assert_eq!(seen, 1000, "every tuple folded exactly once despite the panic");
    let expected: f64 = (0..1000u64).map(|v| (v as f64).sqrt()).sum();
    assert!(
        (sum - expected).abs() < 1e-6,
        "sum must cover the full multiset (got {sum}, want ~{expected})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flight recorder says what a start found, three ways. Nothing on
/// disk: a fresh directory at start-up, and a task that panics on its very
/// first tuple (both were "(state restored)" / silence before).
#[test]
fn flight_says_nothing_on_disk_when_nothing_was() {
    let dir = tmp_dir("flight-nothing");
    let flight = run_poisoned_segment(0..200, &dir, Some(fast_reliability()), Some(0));
    assert_eq!(details(&flight, FlightKind::Restore), ["nothing on disk"]);
    let restarts = details(&flight, FlightKind::TaskRestart);
    assert_eq!(restarts.len(), 1, "{restarts:?}");
    assert!(restarts[0].ends_with("poisoned tuple 0 (state: nothing on disk)"), "{restarts:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restored: what went back in, by size, at start-up and after a panic.
#[test]
fn flight_says_what_was_restored() {
    let dir = tmp_dir("flight-restored");
    run_segment(0..400, &dir, Some(fast_reliability()));
    let flight = run_poisoned_segment(400..1000, &dir, Some(fast_reliability()), Some(700));
    assert_eq!(
        details(&flight, FlightKind::Restore),
        ["restored snapshot=16 bytes, changelog=0 records"]
    );
    let restarts = details(&flight, FlightKind::TaskRestart);
    assert_eq!(restarts.len(), 1, "{restarts:?}");
    assert!(restarts[0].contains("(state: restored snapshot=16 bytes, changelog="), "{restarts:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rejected: a snapshot the bolt refuses is named with the bolt's reason,
/// and the task runs as if the directory had been empty.
#[test]
fn flight_says_why_a_snapshot_was_rejected() {
    let dir = tmp_dir("flight-rejected");
    let cfg = DurabilityConfig { dir: dir.clone(), snapshot_every: 64, fsync: false };
    StateStore::open(&cfg, "acc", 0).unwrap().snapshot(b"bad").unwrap();
    let flight = run_segment(0..1000, &dir, None);
    assert_eq!(
        details(&flight, FlightKind::Restore),
        ["rejected: invalid wire frame: snapshot of 3 bytes, an Acc snapshot has 16, \
          task starts cold"]
    );
    let cold_dir = tmp_dir("flight-rejected-cold");
    run_segment(0..1000, &cold_dir, None);
    assert_eq!(final_state(&dir), final_state(&cold_dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
}

proptest! {
    /// Changelog robustness: however the tail is torn or corrupted, open
    /// recovers exactly the longest valid record prefix, truncates the
    /// rest, and appends cleanly afterwards.
    #[test]
    fn torn_or_corrupt_changelog_recovers_valid_prefix(
        records in prop::collection::vec(prop::collection::vec(0u8..=255, 0..40), 0..20),
        cut in 0usize..200,
        flip in prop::option::of((0usize..2000, 1u8..=255)),
    ) {
        let dir = tmp_dir("prop");
        let cfg = DurabilityConfig { dir: dir.clone(), snapshot_every: 1 << 30, fsync: false };
        {
            let mut store = StateStore::open(&cfg, "acc", 0).unwrap();
            for r in &records {
                store.append(r).unwrap();
            }
        }
        let log = dir.join("acc-0/changelog.bin");
        let mut bytes = std::fs::read(&log).unwrap();
        // Tear: drop `cut` bytes off the tail (capped at the file size).
        let torn_len = bytes.len().saturating_sub(cut);
        bytes.truncate(torn_len);
        // Corrupt: XOR one byte somewhere in what remains.
        if let Some((pos, mask)) = flip {
            if !bytes.is_empty() {
                let p = pos % bytes.len();
                bytes[p] ^= mask;
            }
        }
        std::fs::write(&log, &bytes).unwrap();

        // The reference: decode the valid prefix of the damaged bytes.
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        let mut expected = Vec::new();
        while let Ok(Some(frame)) = decoder.next() {
            expected.push(frame.payload.to_vec());
        }

        let mut store = StateStore::open(&cfg, "acc", 0).unwrap();
        let recovered = store.take_recovered().map(|(_, l)| l).unwrap_or_default();
        prop_assert_eq!(&recovered, &expected);
        prop_assert!(recovered.len() <= records.len());
        // Every recovered record is a prefix of the originals, in order,
        // except possibly one corrupted-in-place record that still
        // checksums — impossible: CRC mismatch drops it. So strict prefix
        // unless the flip hit bytes past the valid prefix.
        // Appends after recovery land on a clean boundary:
        store.append(b"after-recovery").unwrap();
        drop(store);
        let mut store = StateStore::open(&cfg, "acc", 0).unwrap();
        let (_, recs) = store.take_recovered().unwrap();
        prop_assert_eq!(recs.last().map(|r| r.as_slice()), Some(&b"after-recovery"[..]));
        prop_assert_eq!(recs.len(), expected.len() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
