//! `TrafficSystem::bootstrap` pins glibc's malloc thresholds: after it, a
//! freed 16 MiB buffer no longer raises the mmap threshold, so an 8 MiB
//! allocation is still mmapped (and unmapped when freed) instead of being
//! carved from an arena's heap, where its pages would stay once freed.
//!
//! 8 MiB, not less: glibc serves a request from a free chunk of the arena
//! before it considers mmap, and after a bootstrap this thread's arena can
//! hold a free chunk of over 1 MiB that small frees coalesced into.
//!
//! `mallinfo2().hblks` counts the process's live mmapped blocks, so this
//! binary holds exactly one test: another test allocating on another
//! thread would move the count. Linux with glibc only.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::hint::black_box;
use tms_core::{SystemConfig, TrafficSystem};
use tms_geo::DUBLIN_BBOX;
use tms_traffic::{BusTrace, FleetConfig, FleetGenerator, HOUR_MS};

/// glibc's `struct mallinfo2`: ten `size_t` fields, in this order. Only
/// `hblks` is read; the rest keep the layout.
#[allow(dead_code)]
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

// SAFETY: `mallinfo2` is glibc's (2.33 and later), taking nothing and
// returning `struct mallinfo2` by value, which `MallInfo2` mirrors.
unsafe extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Live mmapped blocks, process-wide.
fn mmapped_blocks() -> usize {
    // SAFETY: `mallinfo2` only reads the allocator's counters.
    unsafe { mallinfo2() }.hblks
}

#[test]
fn a_freed_large_buffer_leaves_eight_mib_mmapped() {
    let g = FleetGenerator::new(FleetConfig::small(17), 0).unwrap();
    let seeds = g.route_seed_points();
    let history: Vec<BusTrace> = g.take_while(|t| t.timestamp_ms < 9 * HOUR_MS).collect();
    let _system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default()).unwrap();

    // Unpinned, this free raises the mmap threshold to 16 MiB.
    drop(black_box(vec![1u8; 16 << 20]));
    let before = mmapped_blocks();
    let block = black_box(Vec::<u8>::with_capacity(8 << 20));
    let after = mmapped_blocks();
    drop(block);
    assert_eq!(after, before + 1, "the 8 MiB block came from an arena's heap, not mmap");
}
