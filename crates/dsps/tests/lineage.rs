//! Acceptance suite for the causal observability layer: sampled
//! tuple-lineage traces that assemble into connected trees (even across
//! restarts and replays), critical-path attribution that names the real
//! bottleneck, the control-plane flight recorder, and the `/trace` +
//! `/events` exposition routes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_dsps::lineage::summarize;
use tms_dsps::runtime::RuntimeConfig;
use tms_dsps::{
    Bolt, Emitter, FlightKind, Grouping, LineageConfig, LocalCluster, MonitorConfig, Parallelism,
    ReliabilityConfig, SpanKind, Spout, TopologyBuilder,
};

#[derive(Clone)]
struct Msg {
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

struct Forward;
impl Bolt<Msg> for Forward {
    fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
        e.emit(msg);
    }
}

struct NullSink;
impl Bolt<Msg> for NullSink {
    fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {}
}

/// A deliberately throttled relay: sleeps before forwarding, so it must
/// come out of the critical-path report as the bottleneck.
struct Throttled {
    delay: Duration,
}
impl Bolt<Msg> for Throttled {
    fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
        std::thread::sleep(self.delay);
        e.emit(msg);
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

/// Sample-everything lineage, long window (flush-only).
fn lineage_monitor() -> Option<MonitorConfig> {
    Some(MonitorConfig {
        window: Duration::from_secs(3600),
        lineage: Some(LineageConfig::full()),
        ..MonitorConfig::default()
    })
}

/// Panics unless `s` is one well-formed JSON document.
fn assert_valid_json(s: &str) {
    if let Err(e) = serde_json::from_str(s) {
        panic!("invalid JSON ({e}):\n{s}");
    }
}

#[test]
fn lineage_off_leaves_no_collector_and_trace_route_dark() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 2000 }))
        .add_bolt("sink", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(50),
            expose: Some(0),
            ..MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    assert!(handle.trace_collector().is_none(), "lineage stays opt-in");
    assert!(handle.take_traces().is_empty());

    let addr = handle.scrape_addr().expect("expose binds");
    let get = |path: &str| -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    let trace = get("/trace");
    assert!(trace.starts_with("HTTP/1.1 404"), "{trace}");
    assert!(trace.contains("lineage tracing is off"), "{trace}");
    let missing = get("/definitely-not-a-route");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    for route in ["/metrics", "/json", "/trace", "/trace.jsonl", "/events"] {
        assert!(missing.contains(route), "404 must index route {route}:\n{missing}");
    }
    // The flight recorder is always on, even without lineage.
    let events = get("/events");
    assert!(events.starts_with("HTTP/1.1 200"), "{events}");

    handle.join().unwrap();
}

#[test]
fn critical_path_names_the_throttled_bolt_as_bottleneck() {
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 400 }))
        .add_bolt("relay", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(Forward)
        })
        .add_bolt("throttled", Parallelism::of(1), vec![("relay", Grouping::Shuffle)], |_| {
            Box::new(Throttled { delay: Duration::from_micros(500) })
        })
        .add_bolt("sink", Parallelism::of(1), vec![("throttled", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig { monitor: lineage_monitor(), ..RuntimeConfig::default() };
    let handle = cluster().submit(t, cfg).unwrap();
    let collector = handle.trace_collector().expect("lineage on").clone();
    handle.join().unwrap();

    let report = collector.critical_path();
    assert_eq!(report.traces, 400, "sample_rate 1.0 samples every tree");
    assert_eq!(report.completed, 400, "at-most-once completion lands at the sink");
    assert_eq!(report.dropped_spans, 0, "rings must be big enough for this run");
    assert_eq!(
        report.bottleneck.as_deref(),
        Some("throttled"),
        "the deliberately throttled bolt must be attributed: {report:?}"
    );
    assert_eq!(report.components[0].component, "throttled", "components sort bottleneck-first");
    let of = |name: &str| report.components.iter().find(|c| c.component == name).unwrap();
    assert!(
        of("throttled").compute_ns > of("relay").compute_ns,
        "sleep time must dominate the relay's forwarding: {report:?}"
    );
    assert!(of("throttled").tuples == 400 && of("relay").tuples == 400);
    assert!(!report.edges.is_empty(), "per-edge queue waits must be attributed");
    assert!(
        report.edges.iter().any(|e| e.from == "relay" && e.to == "throttled"),
        "the congested edge must appear: {:?}",
        report.edges
    );

    // Every sampled tree assembled into one connected tree.
    let summaries = collector.summaries();
    assert_eq!(summaries.len(), 400);
    for s in &summaries {
        assert!(s.connected, "tree {s:?} must have one root and no orphans");
        assert!(s.spans >= 5, "spout emit + 3 hops (queue+process) + completion: {s:?}");
    }

    // Both exports are well-formed.
    let chrome = collector.render_chrome_json();
    assert_valid_json(&chrome);
    assert!(chrome.contains("\"traceEvents\""), "chrome trace envelope");
    assert!(chrome.contains("\"thread_name\""), "task naming metadata");
    assert!(chrome.contains("\"process\""), "span kind names exported");
    for line in collector.render_jsonl().lines() {
        assert_valid_json(line);
    }
}

#[test]
fn adversity_trees_stay_connected_across_restart_and_replay() {
    // The bolt panics the first time it sees value 7: the supervisor
    // restarts the task and the spout replays the tuple. With every tree
    // sampled, the replayed tree must still assemble connected — the
    // replay span re-parents the second attempt onto the first.
    let tripped = Arc::new(AtomicBool::new(false));
    struct OnceBomb {
        tripped: Arc<AtomicBool>,
    }
    impl Bolt<Msg> for OnceBomb {
        fn process(&mut self, msg: Msg, e: &mut dyn Emitter<Msg>) {
            if msg.value == 7 && !self.tripped.swap(true, Ordering::SeqCst) {
                panic!("first 7 is fatal");
            }
            e.emit(msg);
        }
    }
    let tripped_f = tripped.clone();
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 50 }))
        .add_bolt("bomb", Parallelism::of(1), vec![("src", Grouping::Shuffle)], move |_| {
            Box::new(OnceBomb { tripped: tripped_f.clone() })
        })
        .add_bolt("sink", Parallelism::of(2), vec![("bomb", Grouping::Shuffle)], |_| {
            Box::new(NullSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: lineage_monitor(),
        reliability: Some(ReliabilityConfig {
            ack_timeout: Duration::from_millis(100),
            max_retries: 10,
            backoff: 1.5,
            ..ReliabilityConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let collector = handle.trace_collector().expect("lineage on").clone();
    let flight = handle.flight_recorder().clone();
    handle.join().unwrap();

    assert!(tripped.load(Ordering::SeqCst), "the bomb must have gone off");
    assert!(
        !flight.events_of(FlightKind::TaskRestart).is_empty(),
        "the restart must land in the flight recorder: {:?}",
        flight.events()
    );
    assert!(
        !flight.events_of(FlightKind::Eos).is_empty(),
        "the spout's EOS must land in the flight recorder"
    );

    let spans = collector.take_spans();
    assert!(spans.iter().any(|s| s.kind == SpanKind::Replay), "the replay must be traced");
    let summaries = summarize(&spans);
    assert_eq!(summaries.len(), 50, "every root was sampled");
    for s in &summaries {
        assert!(s.connected, "adversity must not orphan tree {s:?}");
    }
    let replayed: Vec<_> = summaries.iter().filter(|s| s.replays > 0).collect();
    assert!(
        !replayed.is_empty(),
        "at least one tree crosses the restart via a replay span"
    );
    // Chrome export still well-formed after the adversity run (spans were
    // taken above, so re-render from a fresh drain of whatever remains).
    assert_valid_json(&collector.render_chrome_json());
}

#[test]
fn scrape_routes_serve_concurrently_and_survive_hanging_clients() {
    struct SlowSink;
    impl Bolt<Msg> for SlowSink {
        fn process(&mut self, _msg: Msg, _e: &mut dyn Emitter<Msg>) {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    let t = TopologyBuilder::new("t")
        .add_spout("src", Parallelism::of(1), |_| Box::new(RangeSpout { next: 0, end: 8000 }))
        .add_bolt("sink", Parallelism::of(1), vec![("src", Grouping::Shuffle)], |_| {
            Box::new(SlowSink)
        })
        .build()
        .unwrap();
    let cfg = RuntimeConfig {
        monitor: Some(MonitorConfig {
            window: Duration::from_millis(50),
            expose: Some(0),
            lineage: Some(LineageConfig::full()),
        }),
        ..RuntimeConfig::default()
    };
    let handle = cluster().submit(t, cfg).unwrap();
    let addr = handle.scrape_addr().expect("expose binds");

    // A client that connects and never sends a request: the 500 ms read
    // deadline must cut it off instead of wedging the monitor thread.
    let hang = TcpStream::connect(addr).expect("hang client connects");
    // A client that trickles a request one byte every 200 ms and never
    // ends its head: each byte arrives well inside a per-read timeout,
    // so only a deadline on the whole request cuts it off. It stops on
    // the first failed write (the server closed on it) or after 30 s.
    let trickler = {
        let mut s = TcpStream::connect(addr).expect("trickle client connects");
        std::thread::spawn(move || {
            let began = Instant::now();
            let head = b"GET /json HTTP/1.1\r\n".iter().chain(b"X-Pad: 0\r\n".iter().cycle());
            for byte in head {
                if began.elapsed() > Duration::from_secs(30) {
                    return false;
                }
                if s.write_all(&[*byte]).is_err() {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            unreachable!("the pad cycles forever")
        })
    };

    let started = Instant::now();
    let workers: Vec<_> = ["/metrics", "/json", "/trace", "/trace.jsonl", "/events"]
        .into_iter()
        .map(|path| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
                let mut out = String::new();
                s.read_to_string(&mut out).unwrap();
                (path, out)
            })
        })
        .collect();
    for w in workers {
        let (path, resp) = w.join().unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "{path} mid-run:\n{resp}");
        match path {
            "/trace" => assert!(resp.contains("\"traceEvents\""), "{resp}"),
            "/trace.jsonl" => assert!(resp.contains("application/jsonl"), "{resp}"),
            "/events" => assert!(resp.contains("\"events\""), "{resp}"),
            _ => {}
        }
    }
    // The hanging and the trickling client take one 500 ms deadline
    // each; rendering five routes mid-run takes well under a second more.
    let answered = started.elapsed();
    let cut_off = trickler.join().unwrap();
    assert!(
        answered < Duration::from_secs(5),
        "a hanging or trickling client must not wedge the scrape loop: {answered:?}"
    );
    assert!(cut_off, "the server must close on the trickling client");
    drop(hang);
    let collector = handle.trace_collector().expect("lineage on").clone();
    handle.join().unwrap();

    // Post-run: the collector still serves a full export.
    let report = collector.critical_path();
    assert!(report.traces > 0 && report.completed > 0);
    assert_eq!(report.bottleneck.as_deref(), Some("sink"));
}
