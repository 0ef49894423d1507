//! Allocation gate on the tuple path: PreProcess → AreaTracker →
//! BusStopsTracker → Splitter → `RuleEngine::send_trace`, driven one
//! tuple at a time under a counting allocator.
//!
//! Allocation counts of single-threaded code repeat exactly, so the
//! ceilings below are the measured maxima, not budgets with slack: one
//! `format!` or `to_string()` back on the path (an id printed per tuple, a
//! `Vec` returned per call) fails them. What is allowed is what the tuple
//! itself is made of: its `Arc` (PreProcess), its area chain (AreaTracker),
//! and inside the engine the event a matched location becomes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tms_core::rules::{LocationSelector, RuleSpec, SpatialContext};
use tms_core::system::{SystemConfig, TrafficSystem};
use tms_core::thresholds::{RetrievalMethod, RuleEngine};
use tms_core::topology::{
    AreaTrackerBolt, BusStopsTrackerBolt, GroupingKind, GroupingRoute, PreProcessBolt, SplitPlan,
    SplitterBolt, TrafficMessage,
};
use tms_dsps::{Bolt, Emitter};
use tms_geo::{RegionId, DUBLIN_BBOX};
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, HOUR_MS};

thread_local! {
    /// Allocations (fresh and grown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread: the test harness runs other
/// tests of this binary on other threads.
struct Counting;

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` and
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations this thread made while `f` ran.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Keeps what a bolt emitted, in a buffer that was grown beforehand.
struct Collect(Vec<(Option<usize>, TrafficMessage)>);

impl Emitter<TrafficMessage> for Collect {
    fn emit(&mut self, msg: TrafficMessage) {
        self.0.push((None, msg));
    }
    fn emit_direct(&mut self, task: usize, msg: TrafficMessage) {
        self.0.push((Some(task), msg));
    }
}

/// One stage, one tuple: the allocations of `process` and its emissions.
fn step(
    bolt: &mut dyn Bolt<TrafficMessage>,
    msg: TrafficMessage,
    out: &mut Collect,
) -> (u64, Vec<(Option<usize>, TrafficMessage)>) {
    assert!(out.0.is_empty() && out.0.capacity() >= 8);
    let (n, ()) = allocations_in(|| bolt.process(msg, out));
    (n, out.0.drain(..).collect())
}

#[test]
fn the_tuple_path_allocates_what_a_tuple_is_made_of_and_nothing_else() {
    let fleet = FleetConfig::small(9);
    let history: Vec<BusTrace> = FleetGenerator::new(fleet.clone(), 0)
        .unwrap()
        .take_while(|t| t.timestamp_ms < 10 * HOUR_MS)
        .collect();
    let seeds = FleetGenerator::new(fleet.clone(), 0).unwrap().route_seed_points();
    let system =
        TrafficSystem::bootstrap(DUBLIN_BBOX, &seeds, &history, SystemConfig::default()).unwrap();
    // Every cell's threshold out of reach: a detection is text, and
    // allocates, but says nothing about the path that led to it.
    let thresholds = &system.artifacts.thresholds;
    for (attribute, unreachable) in [(Attribute::Delay, 1.0e12), (Attribute::Speed, -1.0e12)] {
        let mut records = thresholds.statistics(attribute.name()).unwrap();
        for r in &mut records {
            (r.mean, r.stdv) = (unreachable, 0.0);
        }
        thresholds.publish(attribute.name(), &records).unwrap();
    }
    // A leaf rule and a stop rule on one stream, a layer rule on another.
    let rules = [
        RuleSpec::new("delay-leaves", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10),
        RuleSpec::new("delay-stops", Attribute::Delay, LocationSelector::BusStops, 10),
        RuleSpec::new("speed-layer2", Attribute::Speed, LocationSelector::QuadtreeLayer(2), 10),
    ];
    let plan = system.startup_plan(&rules, 2).unwrap();
    let mut engines: Vec<RuleEngine> = plan
        .engine_plan
        .per_engine
        .iter()
        .map(|entries| {
            let mut engine = RuleEngine::new(
                RetrievalMethod::ThresholdStream,
                system.artifacts.thresholds.clone(),
                None,
            );
            for (spec, monitored) in entries {
                engine.install_rule(spec, monitored.iter().cloned()).unwrap();
            }
            engine
        })
        .collect();

    let spatial = &system.artifacts.spatial;
    let mut preprocess = PreProcessBolt::new();
    let mut areas = AreaTrackerBolt::new(Arc::new(spatial.quadtree.clone()));
    let mut stops = BusStopsTrackerBolt::new(Arc::new(spatial.stops.clone()));
    let mut splitter = SplitterBolt::new(Arc::new(plan.split_plan.clone()));

    // The next day's morning. Its first half warms the stages up (every
    // vehicle known to PreProcess, scratch buffers and the engines'
    // windows and routes grown); the second half is held to the ceilings.
    let live: Vec<BusTrace> = FleetGenerator::new(fleet, 1)
        .unwrap()
        .take_while(|t| t.timestamp_ms < tms_traffic::DAY_MS + 8 * HOUR_MS)
        .collect();
    let warm = live.len() / 2;
    assert!(warm > 1_000, "enough tuples on both sides: {}", live.len());

    let mut out = Collect(Vec::with_capacity(16));
    // Per stage: the most any one measured tuple allocated.
    let (mut pre_max, mut area_max, mut stop_max, mut split_max) = (0, 0, 0, 0);
    let (mut in_engines, mut events, mut routed) = (0, 0u64, 0u64);
    for (seq, trace) in live.into_iter().enumerate() {
        let measured = seq >= warm;
        let raw = TrafficMessage::Raw { seq: seq as u64, trace };
        let (pre_n, mut emitted) = step(&mut preprocess, raw, &mut out);
        let (area_n, mut emitted) = step(&mut areas, emitted.pop().unwrap().1, &mut out);
        let (stop_n, mut emitted) = step(&mut stops, emitted.pop().unwrap().1, &mut out);
        let (split_n, emitted) = step(&mut splitter, emitted.pop().unwrap().1, &mut out);
        for (task, msg) in emitted {
            let TrafficMessage::Enriched { trace, .. } = msg else { panic!("not a tuple") };
            let engine = &mut engines[task.expect("the splitter addresses engines")];
            let (n, sent) = allocations_in(|| engine.send_trace(&trace).unwrap());
            if measured {
                routed += 1;
                events += sent as u64;
                in_engines += n;
            }
        }
        if measured {
            pre_max = pre_max.max(pre_n);
            area_max = area_max.max(area_n);
            stop_max = stop_max.max(stop_n);
            split_max = split_max.max(split_n);
        }
    }
    assert!(routed > 1_000 && events > routed, "the engines saw the stream: {routed}, {events}");
    assert!(engines.iter().all(|e| e.detections().lock().is_empty()));

    assert_eq!(pre_max, 1, "PreProcess: the tuple's Arc");
    assert_eq!(area_max, 1, "AreaTracker: the area chain, allocated at its length");
    assert_eq!(stop_max, 0, "BusStopsTracker: an id is a value");
    assert_eq!(split_max, 0, "Splitter, in order: nothing");
    // Inside the engine no event is built: the panes keep an arrival's
    // samples and its values by value. Panes that appear and rings still
    // growing to their length allocate, 0.19 per event on this stream. One
    // allocation per event, or per statement, breaks this.
    assert!(
        4 * in_engines <= events,
        "send_trace: {in_engines} allocations, {events} events"
    );
    // A trace at locations nobody monitors is looked up and dropped.
    let mut nowhere = tms_traffic::Preprocessor::new().enrich(history[0]);
    nowhere.areas = vec![SpatialContext::region_id(RegionId(u32::MAX)); 7];
    nowhere.bus_stop = Some(SpatialContext::stop_id(u32::MAX));
    for engine in &mut engines {
        assert_eq!(allocations_in(|| engine.send_trace(&nowhere).unwrap()), (0, 0));
    }

    // The ids themselves.
    let (n, ids) = allocations_in(|| {
        (SpatialContext::region_id(RegionId(7)), SpatialContext::stop_id(7))
    });
    assert_eq!((n, ids.0.to_string(), ids.1.to_string()), (0, "R7".into(), "S7".into()));
}

/// The threaded run's arrival order at the Splitter: two upstream chains,
/// one carrying the even `seq`s and one the odd, each handing over blocks
/// of 64 (an edge buffer's cap). Half the tuples wait for the other chain;
/// once the ring holding them has grown, waiting costs no allocation.
#[test]
fn the_splitter_allocates_nothing_for_interleaved_stripes() {
    const BLOCK: u64 = 64;
    let region = SpatialContext::region_id(RegionId(0));
    let plan = SplitPlan {
        routes: vec![GroupingRoute {
            kind: GroupingKind::QuadtreeLayer(0),
            table: [(region, 0)].into(),
            stops: Default::default(),
        }],
    };
    let mut splitter = SplitterBolt::new(Arc::new(plan));
    let trace = FleetGenerator::new(FleetConfig::small(9), 0).unwrap().next().unwrap();
    let mut enriched = tms_traffic::Preprocessor::new().enrich(trace);
    enriched.areas = vec![region];
    let trace = Arc::new(enriched);

    // Whole pairs of blocks on both sides of the warm-up line.
    let (warm, measured) = (80 * 2 * BLOCK, 800 * 2 * BLOCK);
    let arrivals = (0..(warm + measured) / (2 * BLOCK)).flat_map(|pair| {
        let base = 2 * BLOCK * pair;
        let even = (0..BLOCK).map(move |i| base + 2 * i);
        even.chain((0..BLOCK).map(move |i| base + 2 * i + 1))
    });
    let mut out = Collect(Vec::with_capacity(16));
    let (mut allocations, mut next) = (0, 0);
    for seq in arrivals {
        let msg = TrafficMessage::Enriched { seq, trace: trace.clone() };
        let (n, emitted) = step(&mut splitter, msg, &mut out);
        for (task, msg) in emitted {
            let TrafficMessage::Enriched { seq, .. } = msg else { panic!("not a tuple") };
            assert_eq!((task, seq), (Some(0), next), "released in order");
            next += 1;
        }
        if seq >= warm {
            allocations += n;
        }
    }
    assert_eq!(next, warm + measured, "every tuple was released");
    assert_eq!(allocations, 0, "Splitter, two interleaved stripes: nothing per tuple");
}
