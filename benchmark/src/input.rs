//! Seeded inputs: the fleet, the history the off-line component learns
//! from, the live stream the workloads replay, and each workload's rule
//! set and system configuration. The system under test only ever sees
//! the generated traces.
//!
//! The city is fixed (one fleet seed: the same routes, stops and per-line
//! timing quality on every run) and so is the Monday the off-line
//! component learns from; `--seed` picks *which week* is replayed live,
//! and with it every random draw of that week's traffic. A different
//! seed therefore gives a different stream of the same shape over the
//! same bootstrap. Seeding the city or the history too would measure the
//! luck of the layout instead of the system: the start-up optimizer's
//! choice between one merged grouping and two per-layer groupings is a
//! near tie on this rule set, flips with the history, and halves or
//! doubles the evaluations per tuple.

use crate::spec::Kind;
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::system::SystemConfig;
use tms_core::thresholds::RetrievalMethod;
use tms_core::KappaConfig;
use tms_geo::GeoPoint;
use tms_traffic::{Attribute, BusTrace, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

/// Service hours generated per day, for the history and the live stream
/// alike (the statistics cells are per hour of day, so the live hours
/// must be hours the history covers). 06:00–09:00 spans the quiet early
/// service and the build-up to the 08:12 weekday rush peak.
pub const HOURS: (u64, u64) = (6, 9);

/// The fleet every workload uses: 200 buses on 15 lines of one fixed city.
pub fn fleet() -> FleetConfig {
    FleetConfig {
        buses: 200,
        lines: 15,
        seed: 2015,
        ..FleetConfig::default()
    }
}

/// The Monday the seed's week starts on (day 0 is a Monday). Seeds a
/// million apart share a week, which keeps every timestamp small.
fn monday(seed: u64) -> u32 {
    (seed % 1_000_000) as u32 * 7
}

/// Spreads one report inside its 20 s tick so every trace of a day has a
/// unique `timestamp_ms`; a `Detection` (which carries only the trigger's
/// timestamp) can then be mapped back to its trigger tuple. Per-vehicle
/// report spacing stays exactly one interval.
pub fn spread_timestamp(t: &mut BusTrace, fleet: &FleetConfig) {
    let slot = u64::from(t.vehicle_id % fleet.buses);
    t.timestamp_ms += slot * u64::from(fleet.report_interval_s) * 1000 / u64::from(fleet.buses);
}

/// One day's traces inside [`HOURS`], timestamps spread.
fn day(fleet: &FleetConfig, day_index: u32) -> impl Iterator<Item = BusTrace> + '_ {
    let base = u64::from(day_index) * DAY_MS;
    FleetGenerator::new(fleet.clone(), day_index)
        .expect("the benchmark fleet is a valid config")
        .skip_while(move |t| t.timestamp_ms < base + HOURS.0 * HOUR_MS)
        .take_while(move |t| t.timestamp_ms < base + HOURS.1 * HOUR_MS)
        .map(move |mut t| {
            spread_timestamp(&mut t, fleet);
            t
        })
}

/// The quadtree seed points (route vertices) of the fleet.
pub fn seed_points() -> Vec<GeoPoint> {
    FleetGenerator::new(fleet(), 0)
        .expect("the benchmark fleet is a valid config")
        .route_seed_points()
}

/// Day 0, a Monday: what `TrafficSystem::bootstrap` learns from.
pub fn history() -> Vec<BusTrace> {
    day(&fleet(), 0).collect()
}

/// The weekdays after the seed's Monday, concatenated and cut to `n`
/// tuples. Timestamps are strictly increasing.
pub fn live(seed: u64, n: usize) -> Vec<BusTrace> {
    let fleet = fleet();
    let mut out = Vec::with_capacity(n);
    let mut day_index = monday(seed) + 1;
    while out.len() < n {
        if day_index % 7 < 5 {
            out.extend(day(&fleet, day_index).take(n - out.len()));
        }
        day_index += 1;
    }
    out
}

/// FNV-1a over every field of every trace: same seed ⇒ same hash.
pub fn input_hash(traces: &[BusTrace]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in traces {
        eat(t.timestamp_ms);
        eat(u64::from(t.line_id) << 32 | u64::from(t.vehicle_id));
        eat(t.position.lat.to_bits());
        eat(t.position.lon.to_bits());
        eat(t.delay_s.to_bits());
        eat(u64::from(t.reported_stop.map_or(u32::MAX, |s| s)));
        eat(u64::from(t.direction) | u64::from(t.congestion) << 1 | u64::from(t.at_stop) << 2);
    }
    h
}

fn delay_rule(name: String, location: LocationSelector, window: usize) -> RuleSpec {
    let mut r = RuleSpec::new(name, Attribute::Delay, location, window);
    r.s = 2.0;
    r
}

/// The paper's §5.5 ten-rule set: five bus-stop and five quadtree-leaf
/// delay rules, Table 6's windows 1/10/100/1000 cycled within each five
/// (so four of the ten rules have window 1).
pub fn table6_rules() -> Vec<RuleSpec> {
    const WINDOWS: [usize; 4] = [1, 10, 100, 1000];
    (0..10)
        .map(|i| {
            let (kind, location) = if i < 5 {
                ("stops", LocationSelector::BusStops)
            } else {
                ("leaves", LocationSelector::QuadtreeLeaves)
            };
            delay_rule(
                format!("delay-{kind}-{}", i % 5),
                location,
                WINDOWS[i % 5 % 4],
            )
        })
        .collect()
}

/// The rules a workload installs.
pub fn rules(kind: Kind) -> Vec<RuleSpec> {
    match kind {
        Kind::ReplayLone => {
            vec![delay_rule(
                "delay-leaves-lone".into(),
                LocationSelector::QuadtreeLeaves,
                100,
            )]
        }
        _ => table6_rules(),
    }
}

/// The 95th percentile of `delay_s` over the part of the history that
/// covers the same time of day as the first `prefix` replayed tuples: a
/// static threshold that is selective on the prefix the reference pass
/// checks (delay climbs steeply towards the rush hour, so a whole-morning
/// percentile would never fire there) and fires ever more often after it.
pub fn static_threshold(history: &[BusTrace], prefix: usize) -> f64 {
    let span = &history[..prefix.clamp(1, history.len())];
    let mut delays: Vec<f64> = span.iter().map(|t| t.delay_s).collect();
    delays.sort_by(f64::total_cmp);
    delays[delays.len() * 95 / 100]
}

/// `SystemConfig::default()` except where the workload says otherwise;
/// `kappa` switches the in-stream statistics on (the traced kappa pass).
pub fn system_config(kind: Kind, history: &[BusTrace], prefix: usize, kappa: bool) -> SystemConfig {
    let mut config = SystemConfig::default();
    if kind == Kind::ReplayStatic {
        config.method = RetrievalMethod::StaticOptimal(static_threshold(history, prefix));
    }
    config.kappa = kappa.then(KappaConfig::default);
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_different_seed_different_input() {
        let a = input_hash(&live(11, 30_000));
        assert_eq!(a, input_hash(&live(11, 30_000)));
        assert_ne!(a, input_hash(&live(12, 30_000)));
        assert_eq!(input_hash(&history()), input_hash(&history()));
        assert_ne!(input_hash(&history()), input_hash(&live(0, 108_000)));
    }

    #[test]
    fn spread_timestamps_are_unique_and_increasing() {
        // More than one day, so the day boundary is covered too.
        let traces = live(5, 130_000);
        assert!(traces
            .windows(2)
            .all(|w| w[0].timestamp_ms < w[1].timestamp_ms));
        // The spread never pushes a report out of its hour-of-day cell range.
        assert!(traces
            .iter()
            .all(|t| (HOURS.0..HOURS.1).contains(&u64::from(t.hour_of_day()))));
        // Only weekdays are replayed.
        assert!(traces
            .iter()
            .all(|t| t.day_index() % 7 < 5 && t.day_index() > monday(5)));
        assert!(history().iter().all(|t| t.day_index() == 0));
    }

    #[test]
    fn table6_is_five_stop_and_five_leaf_rules() {
        let rules = table6_rules();
        assert_eq!(rules.len(), 10);
        assert_eq!(
            rules
                .iter()
                .filter(|r| r.location == LocationSelector::BusStops)
                .count(),
            5
        );
        let window_one = rules.iter().filter(|r| r.window_length == 1).count();
        assert_eq!(
            window_one, 4,
            "windows cycle 1/10/100/1000 within each five"
        );
    }
}
