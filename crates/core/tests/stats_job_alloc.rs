//! Allocation gate on the batch statistics job: `run_statistics_job` over
//! the `FleetConfig::small(9)` morning, held to the 9 346–9 349
//! allocations it makes for 36 000 history lines and 5 762 rows, plus a
//! margin of 251 (2.7 %): 9 600.
//!
//! The job's map and reduce tasks run on worker threads, so the counter is
//! one process-wide atomic, not `alloc_ceiling.rs`'s thread-local: that is
//! also why this binary holds exactly one test. Each published row's
//! record costs one allocation, its location text (5 762). Storing the
//! rows costs one per distinct location and table, not per row: a table
//! keeps each string once, in its dictionary, and a row as fixed-width
//! cells. The rest is per split, per task and per map-side table. One
//! allocation per line, or per (attribute, location) pair of a line, or
//! a `Vec` per stored row, breaks it. How many pairs cross the shuffle is
//! pinned apart from allocations, by `offline`'s unit test
//! `the_shuffle_carries_one_pair_per_split_and_place`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tms_batch::Dfs;
use tms_core::offline::{self, OfflineConfig};
use tms_geo::DUBLIN_BBOX;
use tms_storage::TableStore;
use tms_traffic::{BusTrace, FleetConfig, FleetGenerator, HOUR_MS};

/// Allocations (fresh and grown) made by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is an atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the job measured (9 349 at most), plus the margin.
const BUDGET: u64 = 9_600;

#[test]
fn the_statistics_job_allocates_less_than_once_per_history_line() {
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let traces: Vec<BusTrace> =
        generator.take_while(|t| t.timestamp_ms < 11 * HOUR_MS).collect();
    let config = OfflineConfig::default();
    let observations = offline::stop_observations(&traces);
    let spatial = offline::build_spatial(DUBLIN_BBOX, &seeds, &observations, &config).unwrap();
    let dfs = Dfs::with_defaults();
    let lines = offline::enrich_and_store(&traces, &spatial, &dfs, "/history/day0.csv").unwrap();
    let store = TableStore::new();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let published =
        offline::run_statistics_job(&dfs, &["/history/day0.csv"], &store, &config).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let rows: usize = published.values().sum();
    assert!(lines == 36_000 && rows > 5_000, "the morning's job: {lines} lines, {rows} rows");
    assert!(
        allocations <= BUDGET,
        "run_statistics_job: {allocations} allocations for {lines} history lines"
    );
}
