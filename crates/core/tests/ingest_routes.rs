//! Differential property test of `RuleEngine::send_trace`'s compiled
//! ingest table: under random interleavings of every operation that
//! changes the rule set or a monitored set, each trace must put the same
//! events into the engine, in the same order, as an interpreter that asks
//! every rule about every location of every trace.
//!
//! The oracle is a bare `tms_cep::Engine` holding the same statements. It
//! keeps no monitored sets and no table of its own: per trace it reads
//! `RuleEngine::monitored` from the engine under test and scans rule by
//! rule, location by location. A stale table therefore shows as a wrong
//! event count or a diverging detection sequence on the first trace that
//! touches the stale entry.

use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tms_cep::{Engine, EventType, FieldType, FieldValue, StatementId};
use tms_core::rules::{LocationSelector, RuleSpec};
use tms_core::thresholds::{Detection, RetrievalMethod, RuleEngine, RuleMigration};
use tms_storage::{DayType, TableStore, ThresholdStore};
use tms_traffic::{Attribute, BusTrace, EnrichedTrace, LocId};

const LOCATIONS: [&str; 6] = ["R0", "R1", "R2", "R3", "S0", "S1"];
const REGIONS: usize = 4;
/// Delay fires above it, speed below it; values are drawn from 0..120.
const THRESHOLD: f64 = 40.0;

/// The rules a script draws from: four attributes, several rules per
/// stream, windows 1–3.
fn pool() -> Vec<RuleSpec> {
    use Attribute::{ActualDelay, Delay, DelayAndCongestion, Speed};
    [Delay, Delay, Speed, Delay, DelayAndCongestion, ActualDelay, Speed, Delay]
        .into_iter()
        .zip([1, 2, 1, 3, 1, 2, 1, 1])
        .enumerate()
        .map(|(i, (attribute, window))| {
            RuleSpec::new(format!("r{i}"), attribute, LocationSelector::QuadtreeLeaves, window)
        })
        .collect()
}

fn locations(mask: u8) -> Vec<String> {
    LOCATIONS
        .iter()
        .enumerate()
        .filter(|(bit, _)| mask & (1 << bit) != 0)
        .map(|(_, l)| l.to_string())
        .collect()
}

#[derive(Debug, Clone)]
enum Step {
    InstallRule { engine: usize, rule: usize, mask: u8 },
    /// `install_rules` of up to three consecutive pool rules under one set.
    InstallRules { engine: usize, first: usize, mask: u8 },
    Refresh { engine: usize },
    /// `collect_migration` + `evict_migration` on `from`, `absorb_migration`
    /// on the other engine.
    Migrate { from: usize, mask: u8 },
    Trace { areas: Vec<usize>, stop: Option<usize>, value: i64, congestion: bool, first: bool },
}

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..12,
        0usize..2,
        0usize..8,
        0u8..64,
        // Short area chains over four ids: duplicates are common.
        prop::collection::vec(0usize..REGIONS, 0..4usize),
        prop::option::of(0usize..2),
        0i64..120,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(kind, engine, rule, mask, areas, stop, value, congestion, first)| match kind {
            0 => Step::InstallRule { engine, rule, mask },
            1 => Step::InstallRules { engine, first: rule, mask },
            2 => Step::Refresh { engine },
            3 => Step::Migrate { from: engine, mask },
            _ => Step::Trace { areas, stop, value, congestion, first },
        })
}

fn trace(
    at: u64,
    areas: &[usize],
    stop: Option<usize>,
    value: i64,
    congestion: bool,
    first: bool,
) -> EnrichedTrace {
    EnrichedTrace {
        trace: BusTrace {
            timestamp_ms: 8 * tms_traffic::HOUR_MS + at * 1000,
            line_id: 1,
            direction: true,
            position: tms_geo::GeoPoint::new_unchecked(53.33, -6.26),
            delay_s: value as f64,
            congestion,
            reported_stop: None,
            at_stop: false,
            vehicle_id: 1,
        },
        // A vehicle's first report has neither derived attribute.
        speed_kmh: (!first).then_some(((value * 7) % 120) as f64),
        actual_delay_s: (!first).then_some((119 - value) as f64),
        areas: areas.iter().map(|&a| LOCATIONS[a].parse().unwrap()).collect(),
        bus_stop: stop.map(|s| LOCATIONS[REGIONS + s].parse().unwrap()),
    }
}

/// The reference: the same statements on a bare engine, fed by the
/// per-rule scan.
struct Oracle {
    engine: Engine,
    /// Installed rules with their statement, in installation order.
    installed: Vec<(RuleSpec, StatementId)>,
    detections: Arc<Mutex<Vec<Detection>>>,
    clock: Arc<AtomicU64>,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            engine: Engine::new(),
            installed: Vec::new(),
            detections: Arc::default(),
            clock: Arc::default(),
        }
    }

    fn has(&self, rule: &str) -> bool {
        self.installed.iter().any(|(s, _)| s.name == rule)
    }

    fn create_statement(&mut self, spec: &RuleSpec) -> StatementId {
        let (sink, clock, rule) = (self.detections.clone(), self.clock.clone(), spec.name.clone());
        let listener: tms_cep::Listener = Box::new(move |_, rows| {
            for row in rows {
                sink.lock().push(Detection {
                    rule: rule.clone(),
                    location: row.get("location").expect("projected").to_string(),
                    observed: row.get("observed").expect("projected").as_f64().unwrap(),
                    threshold: None,
                    timestamp_ms: clock.load(Ordering::Relaxed),
                });
            }
        });
        self.engine.create_statement(&spec.to_epl_global(THRESHOLD), listener).unwrap().id
    }

    fn install(&mut self, spec: &RuleSpec) {
        self.engine
            .register_type(
                EventType::with_fields(
                    &spec.bus_stream(),
                    &[
                        ("location", FieldType::Str),
                        ("hour", FieldType::Int),
                        ("day", FieldType::Str),
                        ("value", FieldType::Float),
                        ("threshold", FieldType::Float),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let id = self.create_statement(spec);
        self.installed.push((spec.clone(), id));
    }

    /// Fresh statements for every rule, then the old ones go: fresh
    /// windows, as `refresh_thresholds` leaves them.
    fn refresh(&mut self) {
        let specs: Vec<RuleSpec> = self.installed.iter().map(|(s, _)| s.clone()).collect();
        let fresh: Vec<StatementId> = specs.iter().map(|s| self.create_statement(s)).collect();
        for ((_, id), fresh) in self.installed.iter_mut().zip(fresh) {
            self.engine.remove_statement(*id).unwrap();
            *id = fresh;
        }
    }

    /// The bus streams of the rules a migration names, each once, in
    /// installation order.
    fn streams_of(&self, migration: &RuleMigration) -> Vec<String> {
        let mut streams: Vec<String> = Vec::new();
        for (spec, _) in &self.installed {
            let stream = spec.bus_stream();
            if migration.rules.iter().any(|(name, _)| *name == spec.name)
                && !streams.contains(&stream)
            {
                streams.push(stream);
            }
        }
        streams
    }

    fn evict(&mut self, migration: &RuleMigration) {
        let mut moved: Vec<&String> = migration.rules.iter().flat_map(|(_, l)| l).collect();
        moved.sort();
        moved.dedup();
        let values: Vec<FieldValue> = moved.iter().map(|l| FieldValue::from(l.as_str())).collect();
        for stream in self.streams_of(migration) {
            self.engine.evict_partition(&stream, "location", &values).unwrap();
        }
    }

    fn absorb(&mut self, specs: &[RuleSpec], migration: &RuleMigration) {
        for (name, _) in &migration.rules {
            if !self.has(name) {
                self.install(specs.iter().find(|s| s.name == *name).expect("a pool rule"));
            }
        }
        for partition in &migration.partitions {
            self.engine.absorb_partition(partition).unwrap();
        }
    }

    /// The interpreter `send_trace` replaced: every rule asks every
    /// candidate location of the trace whether it monitors it. One event
    /// per (bus stream, matched location); returns how many.
    fn send_trace(&mut self, under_test: &RuleEngine, e: &EnrichedTrace) -> usize {
        self.clock.store(e.trace.timestamp_ms, Ordering::Relaxed);
        // The oracle stays on text, like the monitored sets it reads.
        let names: Vec<String> = e.areas.iter().chain(&e.bus_stop).map(LocId::to_string).collect();
        let candidates: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut per_stream: Vec<(String, f64, Vec<&str>)> = Vec::new();
        for (spec, _) in &self.installed {
            let Some(value) = spec.attribute.value(e) else { continue };
            let monitored = under_test.monitored(&spec.name).expect("installed on both sides");
            let stream = spec.bus_stream();
            let at = per_stream.iter().position(|(s, _, _)| *s == stream).unwrap_or_else(|| {
                per_stream.push((stream, value, Vec::new()));
                per_stream.len() - 1
            });
            for l in &candidates {
                if monitored.contains(*l) && !per_stream[at].2.contains(l) {
                    per_stream[at].2.push(l);
                }
            }
        }
        let hour = i64::from(e.trace.hour_of_day());
        let day = DayType::from_weekday_index((e.trace.day_index() % 7) as u8);
        let mut sent = 0;
        for (stream, value, matched) in per_stream {
            for location in matched {
                let event = self
                    .engine
                    .make_event(
                        &stream,
                        e.trace.timestamp_ms,
                        &[
                            ("location", FieldValue::from(location)),
                            ("hour", FieldValue::Int(hour)),
                            ("day", FieldValue::from(day.as_str())),
                            ("value", FieldValue::Float(value)),
                            ("threshold", FieldValue::Float(0.0)),
                        ],
                    )
                    .unwrap();
                self.engine.send_event(event).unwrap();
                sent += 1;
            }
        }
        sent
    }
}

fn rule_engine() -> RuleEngine {
    RuleEngine::new(
        RetrievalMethod::StaticOptimal(THRESHOLD),
        ThresholdStore::new(TableStore::new()),
        None,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_routes_match_the_per_rule_scan(
        steps in prop::collection::vec(step(), 20..90usize),
    ) {
        let pool = pool();
        let mut engines = [rule_engine(), rule_engine()];
        let mut oracles = [Oracle::new(), Oracle::new()];
        for (at, step) in steps.iter().enumerate() {
            match step {
                Step::InstallRule { engine, rule, mask } => {
                    let spec = &pool[*rule];
                    if !oracles[*engine].has(&spec.name) {
                        engines[*engine].install_rule(spec, locations(*mask)).unwrap();
                        oracles[*engine].install(spec);
                    }
                }
                Step::InstallRules { engine, first, mask } => {
                    let specs: Vec<RuleSpec> = pool[*first..pool.len().min(first + 3)]
                        .iter()
                        .filter(|s| !oracles[*engine].has(&s.name))
                        .cloned()
                        .collect();
                    engines[*engine].install_rules(&specs, locations(*mask)).unwrap();
                    for spec in &specs {
                        oracles[*engine].install(spec);
                    }
                }
                Step::Refresh { engine } => {
                    engines[*engine].refresh_thresholds().unwrap();
                    oracles[*engine].refresh();
                }
                Step::Migrate { from, mask } => {
                    let to = 1 - *from;
                    let migration = engines[*from].collect_migration(&locations(*mask)).unwrap();
                    engines[*from].evict_migration(&migration).unwrap();
                    oracles[*from].evict(&migration);
                    engines[to].absorb_migration(&pool, &migration).unwrap();
                    oracles[to].absorb(&pool, &migration);
                }
                Step::Trace { areas, stop, value, congestion, first } => {
                    let e = trace(at as u64, areas, *stop, *value, *congestion, *first);
                    for (engine, oracle) in engines.iter_mut().zip(&mut oracles) {
                        let expected = oracle.send_trace(engine, &e);
                        let sent = engine.send_trace(&e).unwrap();
                        prop_assert_eq!(sent, expected, "events entering at step {}", at);
                        let got = std::mem::take(&mut *engine.detections().lock());
                        let want = std::mem::take(&mut *oracle.detections.lock());
                        prop_assert_eq!(&got, &want, "detections at step {}", at);
                    }
                }
            }
        }
    }
}
