//! Allocation gate on the detection store: `EventsStorerBolt::process`
//! stores 100 000 detections of 10 rules at 1 000 locations under a
//! counting allocator.
//!
//! A stored detection is a row of `detected_events`: two dictionary codes
//! (rule, location) and three fixed-width cells (observed, threshold,
//! timestamp), 32 bytes. Once its rule and location are in the table's
//! dictionary it allocates nothing; what is left is the columns' amortised
//! growth and each distinct string's one copy. A `Vec` per row, or a
//! `String` per cell, is three orders of magnitude past the ceilings.
//!
//! The sink is grown beforehand, so what is counted is the store alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tms_core::thresholds::Detection;
use tms_core::topology::{EventsStorerBolt, TrafficMessage};
use tms_dsps::{Bolt, Emitter};
use tms_storage::TableStore;

thread_local! {
    /// Allocations (fresh and grown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread requested and has not freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

fn count(grown: i64) {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local `Cell`s and
// allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The storer emits nothing.
struct Nowhere;

impl Emitter<TrafficMessage> for Nowhere {
    fn emit(&mut self, _msg: TrafficMessage) {
        unreachable!("the storer emits nothing");
    }
    fn emit_direct(&mut self, _task: usize, _msg: TrafficMessage) {
        unreachable!("the storer emits nothing");
    }
}

const DETECTIONS: usize = 100_000;

/// 5 000 allocations for 100 000 detections (about 1 200 today: the 1 010
/// strings' copies, the dictionary's and the columns' growth).
const ALLOCATIONS_PER_DETECTION: f64 = 0.05;

/// Two 4-byte codes and three 8-byte cells, with up to half of the
/// columns' capacity unused after a doubling.
const BYTES_PER_ROW: f64 = 64.0;

#[test]
fn a_stored_detection_costs_its_cells_and_no_allocation() {
    let store = TableStore::new();
    let sink = Arc::new(parking_lot::Mutex::new(Vec::with_capacity(DETECTIONS)));
    let mut storer = EventsStorerBolt::new(store.clone(), Arc::clone(&sink));
    let mut detections: Vec<TrafficMessage> = (0..DETECTIONS)
        .map(|i| {
            TrafficMessage::Detection(Detection {
                rule: format!("rule-{}", i % 10),
                location: format!("R{}", (i / 10) % 1_000),
                observed: i as f64 * 0.25,
                // Some methods report no threshold: the null mask is exercised.
                threshold: (!i.is_multiple_of(7)).then_some(60.0 + (i % 13) as f64),
                timestamp_ms: 1_000 * i as u64,
            })
        })
        .collect();

    let (allocations_before, bytes_before) =
        (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    // Drained, not consumed: the messages' buffer is freed after the count.
    for msg in detections.drain(..) {
        storer.process(msg, &mut Nowhere);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let bytes = LIVE_BYTES.with(Cell::get) - bytes_before;

    let stored = store.with_table("detected_events", |t| t.len()).unwrap();
    assert_eq!((stored, sink.lock().len()), (DETECTIONS, DETECTIONS));
    let per_detection = allocations as f64 / DETECTIONS as f64;
    assert!(
        per_detection <= ALLOCATIONS_PER_DETECTION,
        "{allocations} allocations for {DETECTIONS} stored detections ({per_detection:.3} each)"
    );
    let per_row = bytes as f64 / DETECTIONS as f64;
    assert!(
        per_row <= BYTES_PER_ROW,
        "detected_events holds {bytes} requested bytes for {DETECTIONS} rows ({per_row:.1} each)"
    );
}
