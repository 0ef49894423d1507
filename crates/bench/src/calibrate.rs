//! Real-engine latency measurement — the data behind the regression
//! model (Section 4.1.4).
//!
//! The paper "ran several experiments in order to build the appropriate
//! dataset" before fitting the three functions. We do the same against
//! our CEP engine: stand up a [`RuleEngine`] with a Listing 1 rule of
//! window `l` joining `t` thresholds, replay traces through it, and time
//! the per-tuple cost.

use std::time::Instant;
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::thresholds::{RetrievalMethod, RuleEngine};
use tms_storage::{DayType, StatRecord, TableStore, ThresholdStore};
use tms_traffic::{Attribute, BusTrace, EnrichedTrace, LocId};

/// A synthetic enriched trace at `location`: 50 ms apart from 08:00,
/// delays cycling over 0..400 s.
pub fn synthetic_trace(i: usize, location: LocId) -> EnrichedTrace {
    let mut trace = EnrichedTrace {
        trace: BusTrace {
            timestamp_ms: 0,
            line_id: 1,
            direction: true,
            position: tms_geo::GeoPoint::new_unchecked(53.33, -6.26),
            delay_s: 0.0,
            congestion: false,
            reported_stop: None,
            at_stop: false,
            vehicle_id: 1,
        },
        speed_kmh: Some(20.0),
        actual_delay_s: Some(1.0),
        areas: vec![location],
        bus_stop: None,
    };
    renumber(&mut trace, i, location);
    trace
}

/// Turns a [`synthetic_trace`] into the `i`-th at `location`, in place.
fn renumber(trace: &mut EnrichedTrace, i: usize, location: LocId) {
    trace.trace.timestamp_ms = 8 * tms_traffic::HOUR_MS + i as u64 * 50;
    trace.trace.delay_s = (i % 400) as f64;
    trace.areas[0] = location;
}

/// Builds a threshold store with `t` cells spread over `t / 48` locations
/// (48 = 24 hours × 2 day types, the paper's statistics granularity).
pub fn store_with_thresholds(t: usize) -> (ThresholdStore, Vec<LocId>) {
    let locations = (t / 48).max(1);
    let store = ThresholdStore::new(TableStore::new());
    let mut records = Vec::with_capacity(t);
    let mut names = Vec::with_capacity(locations);
    for loc in 0..locations {
        let id = LocId::Region(loc as u32);
        names.push(id);
        let area = id.to_string();
        for hour in 0..24u8 {
            for day in [DayType::Weekday, DayType::Weekend] {
                records.push(StatRecord {
                    area_id: area.clone(),
                    hour,
                    day_type: day,
                    // High threshold so the rule never fires during the
                    // measurement (firing cost is a separate matter).
                    mean: 1.0e9,
                    stdv: 0.0,
                    count: 100,
                });
            }
        }
    }
    store.publish("delay", &records).expect("publishing synthetic thresholds");
    (store, names)
}

fn rule(l: usize) -> RuleSpec {
    let mut r = RuleSpec::new(
        format!("cal-l{l}"),
        Attribute::Delay,
        LocationSelector::QuadtreeLeaves,
        l,
    );
    r.s = 0.0;
    r
}

/// Which engine configuration a measurement runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Sharing planner on (every rule served from pane-bank/index state,
    /// same-shape rules clustered), incremental paths on — the engine's
    /// default configuration.
    Shared,
    /// Sharing off, per-statement incremental evaluation on — the
    /// configuration the latency regression model (Function 1) is
    /// calibrated against, where cost grows with window length.
    Incremental,
    /// Sharing and incremental off: every arrival rescans (the
    /// pre-optimization baseline).
    Rescan,
}

/// Measures the average per-tuple latency (ms) of one rule with window
/// `l` joining `t` thresholds — a Function 1 sample.
pub fn measure_rule_latency(l: usize, t: usize, tuples: usize) -> f64 {
    measure_engine_latency(&[l], t, tuples)
}

/// Measures the average per-tuple latency (ms) of an engine running one
/// rule per entry of `windows`, each joining `t` thresholds — Function 2
/// samples come from calling this with two windows.
///
/// Runs in [`EngineMode::Incremental`]: the regression model predicts
/// *per-rule, window-length-dependent* cost, so calibration keeps the
/// sharing planner (which flattens exactly that dependence) off.
///
/// Takes the **median of three timed runs** on one warmed engine: one
/// descheduling hiccup would otherwise poison the regression fit (and, through the sequential F2
/// fold, everything downstream).
pub fn measure_engine_latency(windows: &[usize], t: usize, tuples: usize) -> f64 {
    let mut engine =
        WarmEngine::new(windows, t, RetrievalMethod::ThresholdStream, EngineMode::Incremental);
    let mut runs = [0.0; 3].map(|_| engine.run(tuples) * 1000.0 / tuples as f64);
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// A [`RuleEngine`] running one rule per window length over `t`
/// thresholds under one retrieval method, warmed to its steady state,
/// that timed runs replay synthetic traces through.
pub struct WarmEngine {
    engine: RuleEngine,
    locations: Vec<LocId>,
    /// The trace every send rewrites in place: a timed run measures the
    /// engine, not building its input.
    trace: EnrichedTrace,
    sent: usize,
}

impl WarmEngine {
    pub fn new(
        windows: &[usize],
        t: usize,
        method: RetrievalMethod,
        mode: EngineMode,
    ) -> WarmEngine {
        let (store, locations) = store_with_thresholds(t);
        let mut engine = RuleEngine::new(method, store, None);
        engine
            .set_sharing_enabled(mode == EngineMode::Shared)
            .expect("selecting sharing mode");
        engine
            .set_incremental_enabled(mode != EngineMode::Rescan)
            .expect("selecting evaluation mode");
        let specs: Vec<RuleSpec> = windows
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let mut spec = rule(l);
                spec.name = format!("cal-{i}-l{l}");
                spec
            })
            .collect();
        if mode == EngineMode::Shared {
            // Batch install: all statements stand before the first threshold
            // event, so their windows are pristine and the planner can share.
            engine
                .install_rules(&specs, locations.iter().map(LocId::to_string))
                .expect("installing calibration rules");
        } else {
            // Sequential install — the exact conditions the committed private
            // baselines were measured under.
            for spec in &specs {
                engine
                    .install_rule(spec, locations.iter().map(LocId::to_string))
                    .expect("installing calibration rule");
            }
        }
        let trace = synthetic_trace(0, locations[0]);
        let mut warm = WarmEngine { engine, locations, trace, sent: 0 };
        // Warm-up: fill every location's groupwin pane to its window length,
        // so the steady-state per-tuple cost is what gets measured (capped to
        // keep calibration runs short; panes at the cap are representative).
        let max_window = windows.iter().copied().max().unwrap_or(1);
        warm.run((max_window * warm.locations.len()).min(60_000));
        warm
    }

    /// Sends the next `tuples` traces; returns the elapsed seconds.
    pub fn run(&mut self, tuples: usize) -> f64 {
        let start = Instant::now();
        for i in self.sent..self.sent + tuples {
            renumber(&mut self.trace, i, self.locations[i % self.locations.len()]);
            self.engine.send_trace(&self.trace).expect("trace accepted");
        }
        self.sent += tuples;
        start.elapsed().as_secs_f64()
    }
}

/// A bare CEP engine running one grouped avg+stddev statement over
/// `std:groupwin(location).win:length(100)` — a single-source aggregate
/// whose groups are its panes, served from their accumulators — warmed so
/// every pane is full and evicting from the first measured event.
pub struct WarmStatement {
    engine: tms_cep::Engine,
    locations: Vec<String>,
    sent: usize,
}

impl WarmStatement {
    /// `incremental = false` forces the full-window rescan.
    pub fn new(incremental: bool) -> WarmStatement {
        let mut engine = tms_cep::Engine::new();
        engine
            .register_type(
                tms_cep::EventType::with_fields(
                    "bus",
                    &[
                        ("location", tms_cep::FieldType::Str),
                        ("delay", tms_cep::FieldType::Float),
                    ],
                )
                .expect("bus type is valid"),
            )
            .expect("registering bus type");
        engine.set_incremental_enabled(incremental).expect("selecting evaluation mode");
        engine
            .create_statement(
                "SELECT w.location AS loc, avg(w.delay) AS m, stddev(w.delay) AS sd \
                 FROM bus.std:groupwin(location).win:length(100) AS w GROUP BY w.location",
                Box::new(|_, rows| {
                    std::hint::black_box(rows.len());
                }),
            )
            .expect("creating benchmark statement");
        let locations = (0..10).map(|i| format!("L{i}")).collect();
        let mut warm = WarmStatement { engine, locations, sent: 0 };
        warm.run(1_500);
        warm
    }

    /// Sends the next event.
    pub fn send(&mut self) {
        let i = self.sent;
        self.sent += 1;
        let fields = [
            ("location", self.locations[i % self.locations.len()].as_str().into()),
            ("delay", ((i % 300) as f64).into()),
        ];
        let ev = self.engine.make_event("bus", i as u64 * 50, &fields).expect("benchmark event");
        self.engine.send_event(ev).expect("benchmark event accepted");
    }

    /// Sends the next `events` events; returns the elapsed seconds.
    pub fn run(&mut self, events: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..events {
            self.send();
        }
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_window_length() {
        let small = measure_rule_latency(1, 48, 300);
        let big = measure_rule_latency(1000, 48, 300);
        assert!(small > 0.0);
        assert!(
            big > small,
            "window 1000 ({big} ms) should cost more than window 1 ({small} ms)"
        );
    }

    #[test]
    fn two_rules_cost_more_than_one() {
        let one = measure_engine_latency(&[100], 48, 300);
        let two = measure_engine_latency(&[100, 100], 48, 300);
        assert!(two > one, "two rules {two} vs one {one}");
    }
}
