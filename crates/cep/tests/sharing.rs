//! Acceptance tests for the sharing planner: cluster formation (clusters
//! of one included), dynamic rule churn against shared state, and
//! per-statement profile accounting.

use parking_lot::Mutex;
use std::sync::Arc;
use tms_cep::engine::Listener;
use tms_cep::{Engine, EventType, FieldType, FieldValue, OutputRow};

fn bus_type() -> EventType {
    EventType::with_fields(
        "bus",
        &[
            ("vehicle", FieldType::Int),
            ("location", FieldType::Str),
            ("delay", FieldType::Float),
            ("hour", FieldType::Int),
            ("day", FieldType::Str),
        ],
    )
    .unwrap()
}

fn threshold_type() -> EventType {
    EventType::with_fields(
        "thresholdLocation",
        &[
            ("location", FieldType::Str),
            ("hour", FieldType::Int),
            ("day", FieldType::Str),
            ("attribute", FieldType::Float),
        ],
    )
    .unwrap()
}

fn engine(sharing: bool) -> Engine {
    let mut e = Engine::new();
    e.register_type(bus_type()).unwrap();
    e.register_type(threshold_type()).unwrap();
    e.set_sharing_enabled(sharing).unwrap();
    e.set_profiling_enabled(true);
    e
}

fn capture() -> (Arc<Mutex<Vec<OutputRow>>>, Listener) {
    let sink: Arc<Mutex<Vec<OutputRow>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = sink.clone();
    let listener: Listener = Box::new(move |_, rows| s2.lock().extend(rows.iter().cloned()));
    (sink, listener)
}

/// A Listing-1 rule over `win:length(l)`, location-grouped.
fn epl(l: usize) -> String {
    format!(
        "SELECT bd2.location AS loc, avg(bd2.delay) AS m \
         FROM bus.std:lastevent() AS bd, \
              bus.std:groupwin(location).win:length({l}) AS bd2, \
              thresholdLocation.win:keepall() AS thresholds \
         WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day \
           AND bd.location = thresholds.location AND bd.location = bd2.location \
         GROUP BY bd2.location \
         HAVING avg(bd2.delay) > avg(thresholds.attribute)"
    )
}

fn send_bus(e: &mut Engine, ts: u64, loc: &str, delay: f64) {
    let ev = e
        .make_event(
            "bus",
            ts,
            &[
                ("vehicle", 1i64.into()),
                ("location", loc.into()),
                ("delay", delay.into()),
                ("hour", 8i64.into()),
                ("day", "weekday".into()),
            ],
        )
        .unwrap();
    e.send_event(ev).unwrap();
}

fn send_threshold(e: &mut Engine, ts: u64, loc: &str, attr: f64) {
    let ev = e
        .make_event(
            "thresholdLocation",
            ts,
            &[
                ("location", loc.into()),
                ("hour", 8i64.into()),
                ("day", "weekday".into()),
                ("attribute", attr.into()),
            ],
        )
        .unwrap();
    e.send_event(ev).unwrap();
}

#[test]
fn batch_installed_same_shape_rules_form_one_cluster() {
    let mut e = engine(true);
    let (sink_a, la) = capture();
    let (sink_b, lb) = capture();
    let a = e.create_statement(&epl(3), la).unwrap();
    let b = e.create_statement(&epl(3), lb).unwrap();

    assert!(e.sharing_enabled());
    let report = e.sharing_report();
    assert_eq!(report.shared_statements, 2, "both rules join the cluster");
    assert_eq!(report.clusters.len(), 1);
    assert_eq!(report.clusters[0].statements, vec![a.id, b.id]);
    // lastevent + pane + keepall, each referenced by both statements.
    assert_eq!(report.shared_windows, 3);
    assert_eq!(report.private_windows, 0);

    send_threshold(&mut e, 0, "R1", 3.0);
    send_bus(&mut e, 10, "R1", 5.0);
    send_bus(&mut e, 20, "R1", 7.0);
    assert_eq!(sink_a.lock().len(), 2, "avg {{5}}, then avg {{5,7}}, both > 3");
    assert_eq!(*sink_a.lock(), *sink_b.lock(), "cluster members see identical rows");

    for p in e.profile() {
        assert!(p.evals > 0, "evals must actually run");
        assert_eq!(p.path_shared, p.evals, "every eval is served shared");
    }
    let report = e.sharing_report();
    assert_eq!(report.clusters[0].threshold_entries, 1);
    assert_eq!(report.clusters[0].bank_groups, 1);
}

#[test]
fn rule_churn_leaves_sibling_cluster_state_intact() {
    // Reference: rule A alone over the full script.
    let mut reference = engine(true);
    let (ref_sink, rl) = capture();
    reference.create_statement(&epl(3), rl).unwrap();

    // Under test: A and B clustered, B removed mid-stream, C added after.
    let mut e = engine(true);
    let (sink_a, la) = capture();
    let (sink_b, lb) = capture();
    let a = e.create_statement(&epl(3), la).unwrap();
    let b = e.create_statement(&epl(3), lb).unwrap();

    for eng in [&mut reference, &mut e] {
        send_threshold(eng, 0, "R1", 3.0);
        send_bus(eng, 10, "R1", 5.0);
        send_bus(eng, 20, "R1", 7.0);
    }
    let fired_before = sink_b.lock().len();
    assert_eq!(fired_before, 2);

    e.remove_statement(b.id).unwrap();
    // A's windows must be untouched by the removal: lastevent (1) +
    // pane group R1 (2) + keepall (1 threshold).
    let profile = e.profile();
    let pa = profile.iter().find(|p| p.id == a.id).unwrap();
    assert_eq!(pa.window_len, 4, "sibling occupancy survives the removal");

    for eng in [&mut reference, &mut e] {
        send_bus(eng, 30, "R1", 9.0);
    }
    assert_eq!(sink_b.lock().len(), fired_before, "removed rules stay silent");

    // A late joiner gets fresh (private) windows — it must fire once its
    // own threshold window is fed, without disturbing A.
    let (sink_c, lc) = capture();
    let c = e.create_statement(&epl(3), lc).unwrap();
    for eng in [&mut reference, &mut e] {
        send_threshold(eng, 40, "R1", 3.0);
        send_bus(eng, 50, "R1", 11.0);
    }
    assert_eq!(
        *ref_sink.lock(),
        *sink_a.lock(),
        "A's output must be byte-identical to running alone"
    );
    assert_eq!(sink_c.lock().len(), 1, "the late joiner fires on its own state");
    let profile = e.profile();
    let pc = profile.iter().find(|p| p.id == c.id).unwrap();
    assert_eq!(pc.window_len, 3, "late joiner: lastevent 1 + pane 1 + keepall 1");
}

#[test]
fn cluster_members_count_events_in_once() {
    let mut e = engine(true);
    let (_, la) = capture();
    let (_, lb) = capture();
    e.create_statement(&epl(10), la).unwrap();
    e.create_statement(&epl(10), lb).unwrap();

    send_threshold(&mut e, 0, "R1", 100.0);
    for i in 0..5 {
        send_bus(&mut e, 10 + i, "R1", 1.0);
    }
    for p in e.profile() {
        assert_eq!(
            p.events_in, 6,
            "each member sees 1 threshold + 5 bus events exactly once"
        );
        assert_eq!(p.evals, 6);
        assert_eq!(p.path_shared, 6, "all evals served from cluster state");
        assert_eq!(p.path_rescan, 0);
    }
}

#[test]
fn lone_length_one_rule_is_a_bank_served_cluster_of_one() {
    let mut e = engine(true);
    let mut reference = engine(false);
    let (sink, l) = capture();
    let (ref_sink, rl) = capture();
    let id = e.create_statement(&epl(1), l).unwrap().id;
    reference.create_statement(&epl(1), rl).unwrap();

    let report = e.sharing_report();
    assert_eq!(report.shared_statements, 1, "nothing to share with, still bank-served");
    assert_eq!(report.clusters.len(), 1);
    assert_eq!(report.clusters[0].statements, vec![id]);
    assert_eq!(report.shared_windows, 0, "a cluster of one owns all three windows");

    for eng in [&mut e, &mut reference] {
        send_threshold(eng, 0, "R1", 3.0);
        send_bus(eng, 10, "R1", 5.0);
        send_bus(eng, 20, "R1", 2.0);
        send_bus(eng, 30, "R2", 9.0);
        send_threshold(eng, 40, "R2", 4.0);
        send_bus(eng, 50, "R1", 7.0);
    }
    assert_eq!(sink.lock().len(), 3, "5 > 3, the R2 threshold arriving under 9, 7 > 3");
    assert_eq!(*sink.lock(), *ref_sink.lock(), "bank-served ≡ the sharing-off rescan");

    let p = &e.profile()[0];
    assert_eq!(p.path_shared, p.evals);
    assert_eq!(p.path_rescan, 0);
    assert!(reference.profile()[0].path_rescan > 0, "sharing off still selects the rescan");
}

#[test]
fn two_source_rules_cluster_on_their_pane_bank() {
    // The static-threshold and per-location-literal forms of the rule have
    // no threshold stream: anchor × pane, served from the pane's bank.
    let global = "SELECT bd2.location AS loc, avg(bd2.delay) AS m \
         FROM bus.std:lastevent() AS bd, bus.std:groupwin(location).win:length(3) AS bd2 \
         WHERE bd.location = bd2.location GROUP BY bd2.location HAVING avg(bd2.delay) > 4";
    let literal = "SELECT bd2.location AS loc, avg(bd2.delay) AS m \
         FROM bus.std:lastevent() AS bd, bus.std:groupwin(location).win:length(3) AS bd2 \
         WHERE bd.location = 'R1' AND bd.hour = 8 AND bd.day = 'weekday' \
           AND bd.location = bd2.location GROUP BY bd2.location HAVING avg(bd2.delay) > 6";
    let mut e = engine(true);
    let mut reference = engine(false);
    let mut sinks = Vec::new();
    for eng in [&mut e, &mut reference] {
        for epl in [global, literal] {
            let (sink, l) = capture();
            eng.create_statement(epl, l).unwrap();
            sinks.push(sink);
        }
    }
    let report = e.sharing_report();
    assert_eq!(report.shared_statements, 2);
    assert_eq!(report.clusters.len(), 1, "same pane, one bank");
    assert_eq!(report.clusters[0].threshold_entries, 0, "no threshold index to probe");

    for eng in [&mut e, &mut reference] {
        for (ts, loc, delay) in
            [(10, "R1", 5.0), (20, "R2", 9.0), (30, "R1", 9.0), (40, "R1", 1.0), (50, "R1", 2.0)]
        {
            send_bus(eng, ts, loc, delay);
        }
    }
    assert_eq!(sinks[0].lock().len(), 4, "avg 5, 9 (R2), 7, 5 pass > 4; the last avg is 4");
    assert_eq!(sinks[1].lock().len(), 1, "only R1's avg 7 passes > 6");
    assert_eq!(*sinks[0].lock(), *sinks[2].lock());
    assert_eq!(*sinks[1].lock(), *sinks[3].lock());
    for p in e.profile() {
        assert_eq!((p.path_shared, p.path_rescan), (5, 0));
    }
}

#[test]
fn a_pane_named_by_another_anchor_field_is_looked_up_not_the_one_entered() {
    // The anchor's `day` names its group's pane (grouped by location): an
    // arrival at R1 on a weekday reads the pane of location "weekday".
    let rule = "SELECT bd2.location AS loc, avg(bd2.delay) AS m \
         FROM bus.std:lastevent() AS bd, bus.std:groupwin(location).win:length(3) AS bd2 \
         WHERE bd.day = bd2.location GROUP BY bd2.location HAVING avg(bd2.delay) > 4";
    let (mut e, mut reference) = (engine(true), engine(false));
    let mut sinks = Vec::new();
    for eng in [&mut e, &mut reference] {
        let (sink, l) = capture();
        eng.create_statement(rule, l).unwrap();
        sinks.push(sink);
    }
    assert_eq!(e.sharing_report().shared_statements, 1);
    for eng in [&mut e, &mut reference] {
        for (ts, loc, delay) in
            [(10, "weekday", 9.0), (20, "R1", 1.0), (30, "R1", 2.0), (40, "weekday", 1.0), (50, "R1", 50.0)]
        {
            send_bus(eng, ts, loc, delay);
        }
    }
    let rows = sinks[0].lock();
    let got: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (r.get("loc").unwrap().to_string(), r.get("m").unwrap().as_f64().unwrap()))
        .collect();
    let weekday = |m: f64| ("weekday".to_string(), m);
    assert_eq!(got, [weekday(9.0), weekday(9.0), weekday(9.0), weekday(5.0), weekday(5.0)]);
    assert_eq!(*rows, *sinks[1].lock(), "the rescan agrees");
}

#[test]
fn rule_removal_mid_migration_keeps_sibling_shared_state_intact() {
    // Elastic migration is collect → (drain) → evict; a dynamic rule
    // removal can land in that gap. The removal must neither invalidate
    // the collected partition nor let the later eviction corrupt the
    // surviving sibling's shared slots.

    // Reference: rule A alone, same script including the R2 eviction.
    let mut reference = engine(true);
    let (ref_sink, rl) = capture();
    reference.create_statement(&epl(3), rl).unwrap();

    // Under test: A and B share one cluster.
    let mut e = engine(true);
    let (sink_a, la) = capture();
    let (sink_b, lb) = capture();
    let a = e.create_statement(&epl(3), la).unwrap();
    let b = e.create_statement(&epl(3), lb).unwrap();
    assert_eq!(e.sharing_report().clusters.len(), 1, "A and B must cluster");

    for eng in [&mut reference, &mut e] {
        send_threshold(eng, 0, "R1", 3.0);
        send_threshold(eng, 1, "R2", 3.0);
        send_bus(eng, 10, "R1", 5.0);
        send_bus(eng, 20, "R2", 6.0);
        send_bus(eng, 30, "R2", 8.0);
    }
    assert_eq!(*sink_a.lock(), *sink_b.lock(), "cluster members agree pre-migration");

    // Migration of R2 begins: collect from the live shared windows...
    let vals = [FieldValue::from("R2")];
    let bus_state = e.collect_partition("bus", "location", &vals).unwrap();
    let thr_state = e.collect_partition("thresholdLocation", "location", &vals).unwrap();
    assert_eq!(bus_state.len(), 2, "both retained R2 bus events ship");
    assert_eq!(thr_state.len(), 1, "R2's threshold row ships");

    // ...then B is removed in the collect→evict gap...
    e.remove_statement(b.id).unwrap();

    // ...and the eviction completes against the post-removal engine.
    assert!(e.evict_partition("bus", "location", &vals).unwrap() >= 2);
    e.evict_partition("thresholdLocation", "location", &vals).unwrap();
    reference.evict_partition("bus", "location", &vals).unwrap();
    reference.evict_partition("thresholdLocation", "location", &vals).unwrap();

    // A's R1 occupancy survives both the removal and the eviction: pane
    // R1 (1) + R1 threshold (1). The lastevent slot empties — it held the
    // most recent event, an R2 bus trace, which the eviction removed.
    let profile = e.profile();
    let pa = profile.iter().find(|p| p.id == a.id).unwrap();
    assert_eq!(pa.window_len, 2, "sibling keeps exactly its R1 state");

    // The collected payload is still installable — the removal must not
    // have invalidated it. A fresh destination absorbs and fires on R2.
    let mut dest = engine(true);
    let (sink_d, ld) = capture();
    dest.create_statement(&epl(3), ld).unwrap();
    dest.absorb_partition(&bus_state).unwrap();
    dest.absorb_partition(&thr_state).unwrap();
    assert!(sink_d.lock().is_empty(), "absorption must not fire listeners");
    send_bus(&mut dest, 40, "R2", 9.0);
    assert!(!sink_d.lock().is_empty(), "migrated R2 state keeps detecting");

    // A continues on R1 byte-identically to running alone.
    let fired_b = sink_b.lock().len();
    for eng in [&mut reference, &mut e] {
        send_bus(eng, 50, "R1", 9.0);
        send_bus(eng, 60, "R1", 11.0);
    }
    assert_eq!(*ref_sink.lock(), *sink_a.lock(), "sibling output diverged");
    assert_eq!(sink_b.lock().len(), fired_b, "removed rules stay silent");
}
