//! The open-loop workload's plumbing. `TrafficSystem::run` owns its
//! spout and sink, so a run that must emit on a schedule and stamp
//! detections wires the public bolts itself, copying
//! `build_traffic_topology`'s groupings and parallelism. The harness
//! proves on every run that this wiring and `TrafficSystem::run` detect
//! the same multiset (see `run::check_wiring`).

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_core::system::{StartupPlan, TrafficSystem};
use tms_core::thresholds::Detection;
use tms_core::topology::{
    AreaTrackerBolt, BusStopsTrackerBolt, EsperBolt, EventsStorerBolt, PreProcessBolt,
    SplitterBolt, TrafficMessage,
};
use tms_dsps::{
    Bolt, ComponentWindow, Emitter, Grouping, LocalCluster, Parallelism, RuntimeConfig, Spout,
    TopologyBuilder,
};
use tms_storage::ThresholdStore;
use tms_traffic::BusTrace;

/// The generator wakes on this tick; it never spins.
const TICK: Duration = Duration::from_millis(1);

/// When tuple `index` is due, relative to the start of the schedule, at
/// `rate` tuples per second.
pub fn due_offset(index: u64, rate: u64) -> Duration {
    Duration::from_nanos(index * 1_000_000_000 / rate)
}

/// Open-loop latency of a result stamped `stamp` after the schedule
/// started: measured from when its trigger was *due*, not from when it
/// was actually emitted, so a stalled generator charges the stall to
/// every tuple it delayed.
pub fn open_loop_latency(stamp: Duration, trigger_index: u64, rate: u64) -> Duration {
    stamp.saturating_sub(due_offset(trigger_index, rate))
}

/// A BusReader that emits tuple `i` no earlier than `start + i / rate`,
/// striped by vehicle over its tasks exactly like `BusReaderSpout`, and
/// records how late each emission was. `rate: None` replays unpaced.
pub struct PacedSpout {
    traces: Arc<Vec<BusTrace>>,
    cursor: usize,
    lane: u64,
    stride: u64,
    start: Instant,
    rate: Option<u64>,
    lags: Vec<Duration>,
    lag_sink: Arc<Mutex<Vec<Duration>>>,
}

impl Spout<TrafficMessage> for PacedSpout {
    fn next(&mut self) -> Option<TrafficMessage> {
        loop {
            let Some(t) = self.traces.get(self.cursor) else {
                self.lag_sink.lock().append(&mut self.lags);
                return None;
            };
            let seq = self.cursor as u64;
            self.cursor += 1;
            if u64::from(t.vehicle_id) % self.stride != self.lane {
                continue;
            }
            if let Some(rate) = self.rate {
                let due = self.start + due_offset(seq, rate);
                loop {
                    let now = Instant::now();
                    if now >= due {
                        self.lags.push(now - due);
                        break;
                    }
                    std::thread::sleep(TICK);
                }
            }
            return Some(TrafficMessage::Raw { seq, trace: *t });
        }
    }
}

/// `(trigger timestamp_ms, when the storer had stored the detection)`.
pub type Stamp = (u64, Instant);

/// Wraps `EventsStorerBolt::process`, stamping each detection once the
/// product bolt has stored it.
struct StampingStorer {
    inner: EventsStorerBolt,
    stamps: Vec<Stamp>,
    stamp_sink: Arc<Mutex<Vec<Stamp>>>,
}

impl Bolt<TrafficMessage> for StampingStorer {
    fn process(&mut self, msg: TrafficMessage, emitter: &mut dyn Emitter<TrafficMessage>) {
        let trigger = match &msg {
            TrafficMessage::Detection(d) => Some(d.timestamp_ms),
            _ => None,
        };
        self.inner.process(msg, emitter);
        if let Some(ts) = trigger {
            self.stamps.push((ts, Instant::now()));
        }
    }

    fn finish(&mut self, _emitter: &mut dyn Emitter<TrafficMessage>) {
        self.stamp_sink.lock().append(&mut self.stamps);
    }
}

/// What a harness-wired run produced.
pub struct Outcome {
    /// Detections in arrival order at the storer.
    pub detections: Vec<Detection>,
    /// One stamp per detection.
    pub stamps: Vec<Stamp>,
    /// One lag per emitted tuple (empty when unpaced).
    pub lags: Vec<Duration>,
    /// Per-component lifetime metrics.
    pub metrics: Vec<ComponentWindow>,
    /// Start of the emission schedule.
    pub start: Instant,
    /// When the topology had drained and joined.
    pub joined: Instant,
}

/// Runs `traces` through harness-wired public bolts on real threads.
pub fn run(
    system: &TrafficSystem,
    plan: &StartupPlan,
    traces: Arc<Vec<BusTrace>>,
    rate: Option<u64>,
) -> Result<Outcome, String> {
    let config = &system.config;
    let parallelism = config.parallelism;
    let spout_tasks = parallelism.spout_tasks.max(1);
    let quadtree = Arc::new(system.artifacts.spatial.quadtree.clone());
    let stops = Arc::new(system.artifacts.spatial.stops.clone());
    let split_plan = Arc::new(plan.split_plan.clone());
    let engine_plan = Arc::new(plan.engine_plan.clone());
    let engines = engine_plan.engines().max(1);
    let (method, incremental, sharing) =
        (config.method.clone(), config.incremental, config.sharing);
    let thresholds = ThresholdStore::new(system.store.clone());
    let store = system.store.clone();

    let detections = Arc::new(Mutex::new(Vec::new()));
    let stamp_sink = Arc::new(Mutex::new(Vec::new()));
    let lag_sink = Arc::new(Mutex::new(Vec::new()));
    // Leave the executors a moment to start before the first tuple is due.
    let start = Instant::now() + Duration::from_millis(50);

    let (spout_lags, storer_detections, storer_stamps) =
        (lag_sink.clone(), detections.clone(), stamp_sink.clone());
    let topology = TopologyBuilder::new("traffic-paced")
        .add_spout("busReader", Parallelism::of(spout_tasks), move |ti| {
            Box::new(PacedSpout {
                traces: traces.clone(),
                cursor: 0,
                lane: ti as u64,
                stride: spout_tasks as u64,
                start,
                rate,
                lags: Vec::new(),
                lag_sink: spout_lags.clone(),
            })
        })
        .add_bolt(
            "preprocess",
            Parallelism::of(parallelism.preprocess_tasks.max(1)),
            vec![(
                "busReader",
                Grouping::fields(|m: &TrafficMessage| match m {
                    TrafficMessage::Raw { trace, .. } => u64::from(trace.vehicle_id),
                    _ => 0,
                }),
            )],
            |_| Box::new(PreProcessBolt::new()),
        )
        .add_bolt(
            "areaTracker",
            Parallelism::of(parallelism.tracker_tasks.max(1)),
            vec![("preprocess", Grouping::Shuffle)],
            move |_| Box::new(AreaTrackerBolt::new(quadtree.clone())),
        )
        .add_bolt(
            "busStopsTracker",
            Parallelism::of(parallelism.tracker_tasks.max(1)),
            vec![("areaTracker", Grouping::Shuffle)],
            move |_| Box::new(BusStopsTrackerBolt::new(stops.clone())),
        )
        .add_bolt(
            "splitter",
            Parallelism::of(parallelism.splitter_tasks.max(1)),
            vec![("busStopsTracker", Grouping::Shuffle)],
            move |_| Box::new(SplitterBolt::new(split_plan.clone())),
        )
        .add_bolt(
            "esper",
            Parallelism::of(engines),
            vec![("splitter", Grouping::Direct)],
            move |_| {
                Box::new(
                    EsperBolt::new(
                        engine_plan.clone(),
                        method.clone(),
                        thresholds.clone(),
                        None,
                    )
                    .with_incremental(incremental)
                    .with_sharing(sharing),
                )
            },
        )
        .add_bolt(
            "eventsStorer",
            Parallelism::of(1),
            vec![("esper", Grouping::Shuffle)],
            move |_| {
                Box::new(StampingStorer {
                    inner: EventsStorerBolt::new(store.clone(), storer_detections.clone()),
                    stamps: Vec::new(),
                    stamp_sink: storer_stamps.clone(),
                })
            },
        )
        .build()
        .map_err(|e| e.to_string())?;

    let cluster = LocalCluster::new(config.cluster).map_err(|e| e.to_string())?;
    let handle = cluster
        .submit(topology, RuntimeConfig::default())
        .map_err(|e| e.to_string())?;
    let hub = handle.join().map_err(|e| e.to_string())?;
    let joined = Instant::now();

    let detections = std::mem::take(&mut *detections.lock());
    let stamps = std::mem::take(&mut *stamp_sink.lock());
    let lags = std::mem::take(&mut *lag_sink.lock());
    Ok(Outcome {
        detections,
        stamps,
        lags,
        metrics: hub.totals(),
        start,
        joined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_offset(0, 10_000), Duration::ZERO);
        assert_eq!(due_offset(1, 10_000), Duration::from_micros(100));
        assert_eq!(due_offset(10_000, 10_000), Duration::from_secs(1));
        // 60 s at 100k tuples/s stays far inside u64 nanoseconds.
        assert_eq!(due_offset(6_000_000, 100_000), Duration::from_secs(60));
    }

    #[test]
    fn a_stalled_emit_charges_later_tuples_from_their_due_time() {
        let rate = 1_000; // one tuple per millisecond
                          // The generator stalls for 10 ms after tuple 0: tuples 1..=10 all
                          // leave at t = 10 ms and their results are stamped at t = 10.5 ms.
        let stamp = MS * 10 + MS / 2;
        // Measured from emission each would read 0.5 ms; open loop charges
        // the stall: tuple 1 was due at 1 ms, tuple 10 at 10 ms.
        assert_eq!(open_loop_latency(stamp, 1, rate), MS * 9 + MS / 2);
        assert_eq!(open_loop_latency(stamp, 10, rate), MS / 2);
        // The lag the spout records for the same emissions.
        let emitted = MS * 10;
        assert_eq!(emitted.saturating_sub(due_offset(1, rate)), MS * 9);
        assert_eq!(emitted.saturating_sub(due_offset(10, rate)), Duration::ZERO);
        // A stamp can never precede the due time by construction, but a
        // clock quirk must not wrap around.
        assert_eq!(open_loop_latency(Duration::ZERO, 5, rate), Duration::ZERO);
    }

    #[test]
    fn the_spout_stripes_by_vehicle_and_reports_lag_per_emission() {
        let traces: Arc<Vec<BusTrace>> = Arc::new(crate::input::live(3, 400));
        let lag_sink = Arc::new(Mutex::new(Vec::new()));
        let mut seen = Vec::new();
        for lane in 0..2u64 {
            let mut spout = PacedSpout {
                traces: traces.clone(),
                cursor: 0,
                lane,
                stride: 2,
                start: Instant::now(),
                rate: Some(1_000_000),
                lags: Vec::new(),
                lag_sink: lag_sink.clone(),
            };
            while let Some(TrafficMessage::Raw { seq, trace }) = spout.next() {
                assert_eq!(u64::from(trace.vehicle_id) % 2, lane);
                seen.push(seq);
            }
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..400).collect::<Vec<u64>>(),
            "every tuple leaves exactly once"
        );
        assert_eq!(lag_sink.lock().len(), 400);
    }
}
