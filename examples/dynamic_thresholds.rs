//! Dynamic rules (Sections 4.1.3 and 4.3.1): the batch layer recomputes
//! per-location statistics, the storage medium publishes them, and the
//! running CEP engines swap their thresholds without a restart.
//!
//! ```text
//! cargo run --release --example dynamic_thresholds
//! ```
//!
//! The scenario: a road segment's "normal" delay level changes (think
//! roadworks finishing). Under the *old* thresholds the engine keeps
//! firing on traffic that is now perfectly normal; after the periodic
//! statistics job and `refresh_thresholds`, the same traffic is quiet and
//! only genuine anomalies fire.

use traffic_insight::core::rules::{LocationSelector, RuleSpec};
use traffic_insight::core::thresholds::{RetrievalMethod, RuleEngine};
use traffic_insight::storage::{DayType, StatRecord, TableStore, ThresholdStore};
use traffic_insight::traffic::{Attribute, BusTrace, EnrichedTrace, HOUR_MS};

fn trace(minute: u64, area: &str, delay: f64) -> EnrichedTrace {
    EnrichedTrace {
        trace: BusTrace {
            timestamp_ms: 9 * HOUR_MS + minute * 60_000,
            line_id: 46,
            direction: true,
            position: traffic_insight::geo::GeoPoint::new_unchecked(53.33, -6.26),
            delay_s: delay,
            congestion: false,
            reported_stop: None,
            at_stop: false,
            vehicle_id: 33001,
        },
        speed_kmh: Some(18.0),
        actual_delay_s: Some(2.0),
        areas: vec![area.parse().expect("a location id")],
        bus_stop: None,
    }
}

fn main() {
    let store = ThresholdStore::new(TableStore::new());

    // Initial statistics: during roadworks, R7's normal delay was high —
    // mean 300 s, stdv 60 s → threshold 360 s.
    store
        .publish(
            "delay",
            &[StatRecord {
                area_id: "R7".into(),
                hour: 9,
                day_type: DayType::Weekday,
                mean: 300.0,
                stdv: 60.0,
                count: 500,
            }],
        )
        .expect("publish");
    println!("initial thresholds: R7 fires above 300 + 1·60 = 360 s");

    let mut engine = RuleEngine::new(RetrievalMethod::ThresholdStream, store.clone(), None);
    let rule = RuleSpec::new("delay-watch", Attribute::Delay, LocationSelector::QuadtreeLeaves, 5);
    engine.install_rule(&rule, ["R7".to_string()]).expect("install");
    let sink = engine.detections();

    // Morning one: delays around 400 s (roadworks levels) — abnormal
    // against the 360 s threshold, so the rule fires.
    for m in 0..10 {
        engine.send_trace(&trace(m, "R7", 380.0 + (m % 3) as f64 * 30.0)).expect("send");
    }
    println!("before refresh: {} detections for roadworks-level delays", sink.lock().len());

    // The periodic batch job runs over fresh history: the roadworks are
    // over, normal delay dropped to mean 60 s, stdv 20 s.
    store
        .publish(
            "delay",
            &[StatRecord {
                area_id: "R7".into(),
                hour: 9,
                day_type: DayType::Weekday,
                mean: 60.0,
                stdv: 20.0,
                count: 500,
            }],
        )
        .expect("publish");
    engine.refresh_thresholds().expect("refresh");
    println!("statistics recomputed: R7 now fires above 60 + 1·20 = 80 s");

    let before = sink.lock().len();
    // Normal traffic at the new level: quiet.
    for m in 10..20 {
        engine.send_trace(&trace(m, "R7", 55.0 + (m % 4) as f64 * 5.0)).expect("send");
    }
    println!(
        "after refresh: {} new detections for normal traffic (expected 0)",
        sink.lock().len() - before
    );

    // A genuine anomaly under the new regime: 150 s delays.
    let before = sink.lock().len();
    for m in 20..28 {
        engine.send_trace(&trace(m, "R7", 150.0)).expect("send");
    }
    let fired = sink.lock().len() - before;
    println!("a real incident (150 s delays) fires {fired} detections");
    let last = sink.lock().last().cloned().expect("incident detected");
    println!(
        "  e.g. {} at {}: observed {:.1} s vs threshold {:.1} s",
        last.rule,
        last.location,
        last.observed,
        last.threshold.unwrap_or(f64::NAN),
    );
}
