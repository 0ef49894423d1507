//! Allocation gate on the pane-served path: on a warmed engine, an arrival
//! that fires nothing allocates nothing. The event is built before the
//! count starts; inside `send_event` its windows already have their panes
//! and capacity, the threshold probe memo lives on the stack, the aggregate
//! values in engine scratch, and the binding and output row are built only
//! for a group that passes HAVING. An arrival given by its values
//! (`send_arrival`) builds no event at all: a pane keeps the samples it
//! aggregates and its newest row by value, so a retained arrival costs its
//! ring slots, not an event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tms_cep::{Engine, Event, EventType, FieldType, FieldValue};

thread_local! {
    /// Allocations (fresh and grown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread: the test harness runs other
/// tests of this binary on other threads.
struct Counting;

/// Counts one allocation (fresh or resized) that changed the live bytes by
/// `delta`.
fn count(delta: i64) {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    freed(-delta);
}

fn freed(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` and
// allocates nothing.
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
        freed(layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const LOCATIONS: [&str; 3] = ["R1", "R2", "R3"];

/// An engine with the bus and threshold streams, one threshold row per
/// location out of reach, and `statements` standing with one shared
/// firing counter.
fn engine(statements: &[&str]) -> (Engine, Arc<AtomicU64>) {
    let mut e = Engine::new();
    let bus = [
        ("vehicle", FieldType::Int),
        ("location", FieldType::Str),
        ("delay", FieldType::Float),
        ("hour", FieldType::Int),
        ("day", FieldType::Str),
    ];
    e.register_type(EventType::with_fields("bus", &bus).unwrap()).unwrap();
    let thresholds = [
        ("location", FieldType::Str),
        ("hour", FieldType::Int),
        ("day", FieldType::Str),
        ("attribute", FieldType::Float),
    ];
    e.register_type(EventType::with_fields("thresholdLocation", &thresholds).unwrap()).unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    for epl in statements {
        let fired = fired.clone();
        let listener = Box::new(move |_, _: &[_]| {
            fired.fetch_add(1, Ordering::Relaxed);
        });
        e.create_statement(epl, listener).unwrap();
    }
    for loc in LOCATIONS {
        let fields = [
            ("location", loc.into()),
            ("hour", 8i64.into()),
            ("day", "weekday".into()),
            ("attribute", 1.0e9.into()),
        ];
        let ev = e.make_event("thresholdLocation", 0, &fields).unwrap();
        e.send_event(ev).unwrap();
    }
    (e, fired)
}

fn bus_event(e: &Engine, i: u64) -> Event {
    let fields = [
        ("vehicle", (i as i64).into()),
        ("location", LOCATIONS[i as usize % LOCATIONS.len()].into()),
        ("delay", ((i % 400) as f64).into()),
        ("hour", 8i64.into()),
        ("day", "weekday".into()),
    ];
    e.make_event("bus", 1 + i * 50, &fields).unwrap()
}

/// Warms `e` with enough arrivals to fill every pane, then sends more and
/// returns the most any one of them allocated.
fn most_allocated_by_one_arrival(e: &mut Engine) -> u64 {
    for i in 0..300 {
        e.send_event(bus_event(e, i)).unwrap();
    }
    let measured: Vec<Event> = (300..600).map(|i| bus_event(e, i)).collect();
    let mut most = 0;
    for ev in measured {
        let before = ALLOCATIONS.with(Cell::get);
        e.send_event(ev).unwrap();
        most = most.max(ALLOCATIONS.with(Cell::get) - before);
    }
    most
}

fn listing1(window: usize) -> String {
    format!(
        "SELECT bd2.location AS loc, avg(bd2.delay) AS mean_delay \
         FROM bus.std:lastevent() AS bd, \
              bus.std:groupwin(location).win:length({window}) AS bd2, \
              thresholdLocation.win:keepall() AS thresholds \
         WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day \
           AND bd.location = thresholds.location AND bd.location = bd2.location \
         GROUP BY bd2.location \
         HAVING avg(bd2.delay) > avg(thresholds.attribute)"
    )
}

#[test]
fn a_listing1_cluster_arrival_that_fires_nothing_allocates_nothing() {
    // Two windows of one cluster each, and a second rule on one of them.
    let (mut e, fired) = engine(&[&listing1(10), &listing1(100), &listing1(10)]);
    assert_eq!(e.sharing_report().shared_statements, 3, "every rule is pane-served");
    assert_eq!(most_allocated_by_one_arrival(&mut e), 0);
    assert_eq!(fired.load(Ordering::Relaxed), 0, "no threshold was reached");
}

#[test]
fn a_two_source_static_arrival_that_fires_nothing_allocates_nothing() {
    let rule = "SELECT bd2.location AS loc, avg(bd2.delay) AS mean_delay \
         FROM bus.std:lastevent() AS bd, bus.std:groupwin(location).win:length(10) AS bd2 \
         WHERE bd.location = bd2.location GROUP BY bd2.location \
         HAVING avg(bd2.delay) > 1000000";
    let (mut e, fired) = engine(&[rule]);
    assert_eq!(e.sharing_report().shared_statements, 1, "the rule is pane-served");
    assert_eq!(most_allocated_by_one_arrival(&mut e), 0);
    assert_eq!(fired.load(Ordering::Relaxed), 0);
}

#[test]
fn a_single_source_pane_arrival_that_fires_nothing_allocates_nothing() {
    let rule = "SELECT w.location AS loc, avg(w.delay) AS m, stddev(w.delay) AS sd \
         FROM bus.std:groupwin(location).win:length(10) AS w \
         GROUP BY w.location HAVING avg(w.delay) > 1000000";
    let (mut e, fired) = engine(&[rule]);
    e.set_profiling_enabled(true);
    assert_eq!(most_allocated_by_one_arrival(&mut e), 0);
    let profile = &e.profile()[0];
    assert_eq!(profile.path_incremental, profile.evals, "served from its panes");
    assert_eq!(fired.load(Ordering::Relaxed), 0);
}

/// `bus` values for arrival `i` at one of `locations`, a non-integer delay
/// so the views' periodic recomputes change bits.
fn bus_values(i: u64, locations: &[FieldValue]) -> [FieldValue; 5] {
    [
        FieldValue::Int(i as i64),
        locations[i as usize % locations.len()].clone(),
        FieldValue::Float((i % 397) as f64 / 3.0),
        FieldValue::Int(8),
        FieldValue::from("weekday"),
    ]
}

#[test]
fn a_value_arrival_past_length_1000_that_fires_nothing_allocates_nothing() {
    // Lengths 10 and 1000 over one ring per location, the longest filled
    // and wrapped twice over: every arrival evicts from both views, and
    // each view recomputes from its ring once per length of evictions.
    let (mut e, fired) = engine(&[&listing1(1000), &listing1(10)]);
    let locations: Vec<FieldValue> = LOCATIONS.iter().map(|&l| l.into()).collect();
    let n = LOCATIONS.len() as u64;
    for i in 0..1_100 * n {
        e.send_arrival("bus", 1 + i * 50, &bus_values(i, &locations)).unwrap();
    }
    let measured: Vec<[FieldValue; 5]> = (1_100 * n..3_200 * n).map(|i| bus_values(i, &locations)).collect();
    let mut most = 0;
    for (i, values) in (1_100 * n..).zip(&measured) {
        let before = ALLOCATIONS.with(Cell::get);
        e.send_arrival("bus", 1 + i * 50, values).unwrap();
        most = most.max(ALLOCATIONS.with(Cell::get) - before);
    }
    assert_eq!(most, 0, "a wrap or a recompute allocated");
    assert_eq!(fired.load(Ordering::Relaxed), 0, "no threshold was reached");
    assert_eq!(e.stats().events_in, 3_200 * n + n, "every arrival counted, thresholds too");
}

#[test]
fn a_retained_arrival_costs_its_ring_slots_not_an_event() {
    // One length-1000 rule over four locations: the first 4 000 arrivals
    // are all retained, the next 4 000 only replace them.
    let (mut e, _) = engine(&[&listing1(1000)]);
    let locations: Vec<FieldValue> = ["R1", "R2", "R3", "R4"].map(FieldValue::from).to_vec();
    let arrivals: Vec<[FieldValue; 5]> = (0..8_000).map(|i| bus_values(i, &locations)).collect();
    let live = || LIVE_BYTES.with(Cell::get);
    let start = live();
    for (i, values) in arrivals[..4_000].iter().enumerate() {
        e.send_arrival("bus", 1 + i as u64 * 50, values).unwrap();
    }
    let filled = live();
    for (i, values) in arrivals[4_000..].iter().enumerate() {
        e.send_arrival("bus", 200_001 + i as u64 * 50, values).unwrap();
    }
    let per_retained = (filled - start) as f64 / 4_000.0;
    // One sample and one timestamp per row, rings rounded up to a power of
    // two: at most 32 bytes, where an event alone is over 100.
    assert!(per_retained <= 32.0, "{per_retained} bytes per retained arrival");
    assert!(live() - filled <= 0, "full rings grew by {} bytes", live() - filled);
}
