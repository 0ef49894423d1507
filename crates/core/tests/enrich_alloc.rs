//! Allocation gate on enrichment: `enrich_and_store` over the
//! `FleetConfig::small(9)` morning, held to at most one allocation per ten
//! history lines.
//!
//! The counter is one process-wide atomic, as in `stats_job_alloc.rs`, so
//! this binary holds exactly one test. What the budget leaves room for is
//! per vehicle (the preprocessor's table), per DFS append (the buffer and
//! the blocks) and the one areas vector; a `format!` or a `String` per line
//! or per field, or a fresh areas vector per trace, breaks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tms_batch::Dfs;
use tms_core::offline::{self, OfflineConfig};
use tms_geo::DUBLIN_BBOX;
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

#[test]
fn enrichment_allocates_less_than_once_per_ten_history_lines() {
    let generator = FleetGenerator::new(FleetConfig::small(9), 0).unwrap();
    let seeds = generator.route_seed_points();
    let traces: Vec<BusTrace> =
        generator.take_while(|t| t.timestamp_ms < 11 * HOUR_MS).collect();
    let config = OfflineConfig::default();
    let observations = offline::stop_observations(&traces);
    let spatial = offline::build_spatial(DUBLIN_BBOX, &seeds, &observations, &config).unwrap();
    let dfs = Dfs::with_defaults();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let lines = offline::enrich_and_store(&traces, &spatial, &dfs, "/history/day0.csv").unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(lines, 36_000, "the morning's history lines");
    assert!(
        allocations * 10 <= lines,
        "enrich_and_store: {allocations} allocations for {lines} history lines"
    );
}
