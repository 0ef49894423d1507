//! The acker: Storm's XOR tuple-tree completion tracker (Section 2.1.1 of
//! the paper relies on Storm's "guaranteed message processing").
//!
//! Every spout root registers an entry. Each physical delivery derived
//! from that root XORs its fresh 64-bit tuple id into the entry *before*
//! the send, and XORs the same id again once the receiving task has
//! finished processing it. Ids pair up, so the accumulator returns to
//! zero exactly when every delivery in the tree has been produced and
//! processed — at which point the owning spout task is notified through
//! its completion channel and can drop the tuple from its pending buffer.
//!
//! The ordering argument for why a transient zero is impossible is
//! Storm's: a task registers all its output ids before acking its input
//! id, and an input id is always registered before the message is
//! delivered, so at any instant the accumulator holds the XOR of a
//! non-empty set of distinct pending ids until the true end of the tree.

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug)]
struct AckEntry {
    /// XOR of all registered-but-unacked delivery ids.
    xor: u64,
    /// Index of the owning spout task's completion channel.
    spout: usize,
}

/// The central completion tracker, shared by every emitter and executor.
///
/// A single mutex-guarded map is deliberate: correctness first, and the
/// critical section is a few arithmetic ops. Sharding by `root` hash is
/// the obvious next step if it ever shows up in profiles.
pub(crate) struct Acker {
    entries: Mutex<HashMap<u64, AckEntry>>,
    /// One unbounded completion channel per spout task, indexed by the
    /// spout task's global id. Unbounded so completing a tree can never
    /// block a bolt executor against a stalled spout. Each notification
    /// carries the instant the tree completed, so end-to-end latency is
    /// not inflated by however long the spout takes to drain the channel.
    completions: Vec<Sender<(u64, Instant)>>,
}

impl Acker {
    /// Creates a tracker delivering completions on the given channels.
    pub fn new(completions: Vec<Sender<(u64, Instant)>>) -> Self {
        Acker { entries: Mutex::new(HashMap::new()), completions }
    }

    /// Registers a fresh root owned by spout task `spout`.
    pub fn register(&self, root: u64, spout: usize) {
        self.entries.lock().insert(root, AckEntry { xor: 0, spout });
    }

    /// XORs one delivery id into the root's accumulator: called once when
    /// the delivery is produced and once when it has been processed. A
    /// zero accumulator completes the tree. Unknown roots (abandoned by a
    /// replay racing a late ack) are ignored. The runtime applies ids
    /// through [`xor_batch`](Acker::xor_batch) only; this one-id form is
    /// the sequential reference the tests hold it to.
    #[cfg(test)]
    pub fn xor(&self, root: u64, id: u64) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&root) {
            e.xor ^= id;
            if e.xor == 0 {
                let e = entries.remove(&root).expect("entry just accessed");
                drop(entries);
                let _ = self.completions[e.spout].send((root, Instant::now()));
            }
        }
    }

    /// Applies many (root, combined-id) pairs under a single lock
    /// acquisition — the batched data plane's amortization of the acker.
    /// Each pair's id may itself be the XOR of several delivery ids for
    /// that root (XOR is associative, so folding ids before the call is
    /// equivalent to applying them one by one; it can only *skip* transient
    /// intermediate accumulator states, never invent a spurious zero).
    /// Completion notifications are sent after the lock is released.
    pub fn xor_batch(&self, pairs: &[(u64, u64)]) {
        if pairs.is_empty() {
            return;
        }
        let mut completed: Vec<(usize, u64)> = Vec::new();
        {
            let mut entries = self.entries.lock();
            for &(root, id) in pairs {
                if let Some(e) = entries.get_mut(&root) {
                    e.xor ^= id;
                    if e.xor == 0 {
                        let e = entries.remove(&root).expect("entry just accessed");
                        completed.push((e.spout, root));
                    }
                }
            }
        }
        let done = Instant::now();
        for (spout, root) in completed {
            let _ = self.completions[spout].send((root, done));
        }
    }

    /// Completes the root if nothing was ever registered under it — the
    /// spout emitted into a topology with no matching route, so there is
    /// no tree to wait for. Also catches a tree that fully completed
    /// between the spout's sends and this call.
    pub fn seal(&self, root: u64) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get(&root) {
            if e.xor == 0 {
                let e = entries.remove(&root).expect("entry just accessed");
                drop(entries);
                let _ = self.completions[e.spout].send((root, Instant::now()));
            }
        }
    }

    /// Forgets a root (timeout replay or retry exhaustion). Late acks for
    /// the abandoned tree become no-ops.
    pub fn abandon(&self, root: u64) {
        self.entries.lock().remove(&root);
    }

    /// Number of in-flight roots (for tests).
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn acker() -> (Acker, crossbeam::channel::Receiver<(u64, Instant)>) {
        let (tx, rx) = unbounded();
        (Acker::new(vec![tx]), rx)
    }

    /// The completed root id, ignoring the completion timestamp.
    fn root_of(r: Result<(u64, Instant), crossbeam::channel::TryRecvError>) -> Option<u64> {
        r.ok().map(|(root, _)| root)
    }

    #[test]
    fn linear_tree_completes_when_every_hop_acks() {
        let (a, rx) = acker();
        a.register(100, 0);
        a.xor(100, 7); // spout → bolt1 delivery produced
        a.seal(100);
        assert!(rx.try_recv().is_err(), "tree still pending");
        a.xor(100, 9); // bolt1 → bolt2 delivery produced
        a.xor(100, 7); // bolt1 processed its input
        assert!(rx.try_recv().is_err(), "leaf still pending");
        a.xor(100, 9); // bolt2 processed its input
        assert_eq!(root_of(rx.try_recv()), Some(100));
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn fan_out_tree_waits_for_every_branch() {
        let (a, rx) = acker();
        a.register(1, 0);
        a.xor(1, 10);
        a.xor(1, 11); // two deliveries from the spout (All grouping)
        a.seal(1);
        a.xor(1, 10);
        assert!(rx.try_recv().is_err(), "second branch still pending");
        a.xor(1, 11);
        assert_eq!(root_of(rx.try_recv()), Some(1));
    }

    #[test]
    fn seal_completes_routeless_roots_immediately() {
        let (a, rx) = acker();
        a.register(5, 0);
        a.seal(5); // nothing was ever sent
        assert_eq!(root_of(rx.try_recv()), Some(5));
    }

    #[test]
    fn xor_batch_matches_sequential_application() {
        let (a, rx) = acker();
        a.register(1, 0);
        a.register(2, 0);
        // Root 1: two deliveries produced then acked as one combined value;
        // root 2: one delivery produced, acked in the same batch call.
        a.xor_batch(&[(1, 10 ^ 11), (2, 20)]);
        a.seal(1);
        a.seal(2);
        assert!(rx.try_recv().is_err(), "both trees still pending");
        a.xor_batch(&[(1, 10 ^ 11), (2, 20), (999, 5)]); // unknown root ignored
        assert_eq!(root_of(rx.try_recv()), Some(1));
        assert_eq!(root_of(rx.try_recv()), Some(2));
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn abandoned_roots_ignore_late_acks() {
        let (a, rx) = acker();
        a.register(5, 0);
        a.xor(5, 3);
        a.abandon(5);
        a.xor(5, 3); // late ack of the abandoned tree
        assert!(rx.try_recv().is_err());
        assert_eq!(a.in_flight(), 0);
    }
}
