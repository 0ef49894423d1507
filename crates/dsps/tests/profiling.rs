//! Acceptance suite for the profiling/exposition layer: profile sources
//! feeding per-rule breakdowns into sampled windows, and the loopback
//! scrape endpoint serving Prometheus text format and JSON mid-run.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tms_dsps::metrics::LATENCY_BUCKETS;
use tms_dsps::runtime::RuntimeConfig;
use tms_dsps::{
    Bolt, DspsError, Emitter, Grouping, LatencyHistogram, LocalCluster, MonitorConfig,
    Parallelism, RuleProfile, Spout, TopologyBuilder,
};

#[derive(Clone)]
struct Msg {
    #[allow(dead_code)]
    value: u64,
}

struct RangeSpout {
    next: u64,
    end: u64,
}

impl Spout<Msg> for RangeSpout {
    fn next(&mut self) -> Option<Msg> {
        if self.next >= self.end {
            return None;
        }
        let v = self.next;
        self.next += 1;
        Some(Msg { value: v })
    }
}

/// Counts processed tuples into a shared counter — the stand-in for a CEP
/// engine whose cumulative profile a source snapshots.
struct CountBolt {
    n: Arc<AtomicU64>,
    delay: Duration,
}

impl Bolt<Msg> for CountBolt {
    fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {
        self.n.fetch_add(1, Ordering::SeqCst);
        if self.delay > Duration::ZERO {
            std::thread::sleep(self.delay);
        }
    }
}

fn cluster() -> LocalCluster {
    LocalCluster::new(tms_dsps::scheduler::ClusterSpec {
        nodes: 2,
        slots_per_node: 2,
        cores_per_node: 2,
    })
    .unwrap()
}

/// A cumulative profile as a rule engine would report it: `n` evals of
/// ~1µs each.
fn cumulative_profile(n: u64) -> Vec<RuleProfile> {
    let mut buckets = [0u64; LATENCY_BUCKETS];
    buckets[10] = n; // 2^10 ns = 1.024 µs per eval
    vec![RuleProfile {
        rule: "speed-rule".into(),
        engine: 0,
        events_in: n,
        evals: n,
        firings: n / 10,
        rows_out: n / 10,
        eval: LatencyHistogram::from_parts(buckets, n * 1024),
        path_shared: 0,
        path_incremental: n,
        path_anchor: 0,
        path_rescan: 0,
        window_len: 5,
        threshold_age: Some(Duration::from_secs(2)),
    }]
}

#[test]
fn profile_sources_feed_windows_as_deltas_and_totals_cumulatively() {
    let processed = Arc::new(AtomicU64::new(0));
    let bolt_n = processed.clone();
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 400 }))
        .add_bolt("cep", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(CountBolt { n: bolt_n.clone(), delay: Duration::from_micros(200) })
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(25),
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let src_n = processed.clone();
    handle
        .metrics()
        .register_profile_source("cep", Arc::new(move || {
            cumulative_profile(src_n.load(Ordering::SeqCst))
        }));
    let metrics = handle.join().unwrap();

    let final_n = processed.load(Ordering::SeqCst);
    assert_eq!(final_n, 400);

    // Window profiles are deltas: they sum back to the cumulative total.
    let history = metrics.history();
    let windows: Vec<_> = history
        .iter()
        .filter(|w| w.component == "cep" && !w.rules.is_empty())
        .collect();
    assert!(!windows.is_empty(), "sampled windows must carry rule profiles");
    let summed_events: u64 = windows.iter().flat_map(|w| &w.rules).map(|r| r.events_in).sum();
    let summed_evals: u64 =
        windows.iter().flat_map(|w| &w.rules).map(|r| r.eval.count()).sum();
    assert_eq!(summed_events, final_n, "window deltas must sum to the total");
    assert_eq!(summed_evals, final_n);
    for r in windows.iter().flat_map(|w| &w.rules) {
        assert_eq!(r.rule, "speed-rule");
        assert_eq!(r.window_len, 5, "gauges pass through un-diffed");
        assert_eq!(r.threshold_age, Some(Duration::from_secs(2)));
    }

    // Lifetime totals carry the cumulative profile.
    let totals = metrics.totals();
    let cep = totals.iter().find(|w| w.component == "cep").unwrap();
    assert_eq!(cep.rules.len(), 1);
    assert_eq!(cep.rules[0].events_in, final_n);
    assert_eq!(cep.rules[0].eval.count(), final_n);
    assert_eq!(cep.rules[0].path_incremental, final_n);
}

#[test]
fn scrape_endpoint_serves_prometheus_and_json_mid_run() {
    let processed = Arc::new(AtomicU64::new(0));
    let bolt_n = processed.clone();
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 3000 }))
        .add_bolt("cep", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(CountBolt { n: bolt_n.clone(), delay: Duration::from_millis(1) })
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(50),
            expose: Some(0), // ephemeral loopback port
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let src_n = processed.clone();
    handle
        .metrics()
        .register_profile_source("cep", Arc::new(move || {
            cumulative_profile(src_n.load(Ordering::SeqCst))
        }));
    let addr = handle.scrape_addr().expect("expose binds an ephemeral port");
    assert!(addr.ip().is_loopback(), "scrapes are loopback-only");

    let get = |path: &str| -> String {
        let mut s = TcpStream::connect(addr).expect("connect to scrape endpoint");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("server closes after the response");
        out
    };

    // Give the monitor a moment to sample at least one window.
    std::thread::sleep(Duration::from_millis(120));

    let metrics_resp = get("/metrics");
    assert!(metrics_resp.starts_with("HTTP/1.1 200"), "{metrics_resp}");
    assert!(metrics_resp.contains("text/plain; version=0.0.4"), "{metrics_resp}");
    for needle in [
        "# TYPE tms_processed_total counter",
        "tms_processed_total{component=\"src\"}",
        "# TYPE tms_e2e_latency_seconds histogram",
        "tms_rule_events_in_total{component=\"cep\",rule=\"speed-rule\",engine=\"0\"}",
        "tms_rule_eval_seconds_bucket",
        "tms_rule_threshold_age_seconds",
    ] {
        assert!(metrics_resp.contains(needle), "{needle:?} missing from:\n{metrics_resp}");
    }

    let json_resp = get("/json");
    assert!(json_resp.starts_with("HTTP/1.1 200"), "{json_resp}");
    assert!(json_resp.contains("application/json"), "{json_resp}");
    assert!(json_resp.contains("\"components\":["), "{json_resp}");
    assert!(json_resp.contains("\"rule\":\"speed-rule\""), "{json_resp}");

    let missing = get("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    handle.join().unwrap();
}

#[test]
fn exposition_stays_off_by_default() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(50),
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    assert_eq!(handle.scrape_addr(), None, "no endpoint without expose");
    handle.join().unwrap();
}

#[test]
fn exposition_bind_conflict_surfaces_as_an_error() {
    let blocker = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = blocker.local_addr().unwrap().port();
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 10 }))
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(50),
            expose: Some(port),
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let err = match cluster().submit(t, cfg) {
        Err(e) => e,
        Ok(_) => panic!("submit must fail when the port is taken"),
    };
    assert!(
        matches!(err, DspsError::ExpositionBind { port: p, .. } if p == port),
        "expected ExpositionBind, got {err:?}"
    );
}
