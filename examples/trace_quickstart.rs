//! Causal-observability quickstart: run the traffic topology with tuple
//! lineage sampling every tree, then inspect the critical path, the
//! control-plane flight recorder, and a Chrome-loadable trace export.
//!
//! ```text
//! cargo run --release --example trace_quickstart
//! ```
//!
//! While it replays, the monitor also serves the scrape routes on
//! loopback port 9090 — from another shell:
//!
//! ```text
//! curl http://127.0.0.1:9090/trace -o trace.json   # chrome://tracing
//! curl http://127.0.0.1:9090/events                # flight recorder
//! ```
//!
//! After the run it writes `trace_quickstart.json` with the same Chrome
//! `trace_event` content rendered from the run report.

use std::time::Duration;
use traffic_insight::core::rules::{LocationSelector, RuleSpec};
use traffic_insight::core::system::{SystemConfig, TrafficSystem};
use traffic_insight::dsps::{lineage, LineageConfig, MonitorConfig};
use traffic_insight::traffic::{Attribute, FleetConfig, FleetGenerator, DAY_MS, HOUR_MS};

fn main() {
    let fleet = FleetConfig::small(2024);

    println!("generating history and bootstrapping...");
    let history_gen = FleetGenerator::new(fleet.clone(), 0).expect("valid fleet config");
    let seeds = history_gen.route_seed_points();
    let history: Vec<_> = history_gen.take_while(|t| t.timestamp_ms < 12 * HOUR_MS).collect();

    let config = SystemConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_secs(1),
            // Sample every tuple tree; production runs keep the default
            // 1% sample. Rings sized so this short replay can't drop.
            lineage: Some(LineageConfig { ring_capacity: 1 << 17, ..LineageConfig::full() }),
            expose: Some(9090),
        }),
        ..SystemConfig::default()
    };
    let system = TrafficSystem::bootstrap(traffic_insight::geo::DUBLIN_BBOX, &seeds, &history, config)
        .expect("bootstrap");

    let mut rule =
        RuleSpec::new("delay-leaves", Attribute::Delay, LocationSelector::QuadtreeLeaves, 10);
    rule.s = 2.0;

    println!("replaying day 1 morning rush with lineage sampling every tuple tree");
    println!("  (scrape live: curl http://127.0.0.1:9090/trace | /events | /metrics)");
    let live: Vec<_> = FleetGenerator::new(fleet, 1)
        .expect("valid fleet config")
        // Service starts at 06:00, so this replays the 06:00-10:00 rush.
        .take_while(|t| t.timestamp_ms < DAY_MS + 10 * HOUR_MS)
        .collect();
    let (_plan, report) = system.plan_and_run(live, &[rule], 2).expect("run");
    println!(
        "done: {} tuples processed, {} detections",
        report.metrics.iter().map(|w| w.throughput).sum::<u64>(),
        report.detections.len()
    );

    // ---- Critical-path attribution --------------------------------------
    let path = report.critical_path.as_ref().expect("lineage was on");
    println!(
        "\ncritical path over {} sampled trees ({} spans, {} dropped):",
        path.traces,
        path.spans,
        path.dropped_spans
    );
    for c in &path.components {
        println!(
            "  {:<16} queue {:>9}µs  compute {:>9}µs  replay {:>7}µs  ({} tuples)",
            c.component,
            c.queue_in_ns / 1_000,
            c.compute_ns / 1_000,
            c.replay_ns / 1_000,
            c.tuples
        );
    }
    if let Some(b) = &path.bottleneck {
        println!("  bottleneck: {b}");
    }

    // ---- End-to-end latency ----------------------------------------------
    // Each sampled tree's context carries its spout-emit time, so the
    // terminal bolt records emit → stored detection for every tree that
    // reached it.
    let storer = report.metrics.iter().find(|w| w.component == "eventsStorer");
    if let Some(e2e) = storer.map(|w| &w.e2e).filter(|h| !h.is_empty()) {
        let ms = |d: Option<Duration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
        println!(
            "\nend-to-end, emit -> stored detection ({} trees): p50 {:.2} ms, p99 {:.2} ms",
            e2e.count(),
            ms(e2e.p50()),
            ms(e2e.p99())
        );
    }

    // ---- Flight recorder -------------------------------------------------
    println!("\nflight recorder ({} control-plane events):", report.events.len());
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for e in &report.events {
        *counts.entry(e.kind.name()).or_default() += 1;
    }
    for (kind, n) in counts {
        println!("  {kind:<22} {n}");
    }

    // ---- Chrome export ---------------------------------------------------
    let chrome = lineage::render_chrome_trace(&report.traces, &report.trace_components);
    std::fs::write("trace_quickstart.json", &chrome).expect("writing trace_quickstart.json");
    println!(
        "\nwrote trace_quickstart.json ({} spans, {} KiB) — open in chrome://tracing",
        report.traces.len(),
        chrome.len() / 1024
    );
}
