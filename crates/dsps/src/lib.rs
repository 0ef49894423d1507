//! A distributed stream processing runtime — the from-scratch stand-in for
//! Apache Storm (Section 2.1.1 of the paper, Figure 1).
//!
//! Applications are *topologies*: directed acyclic graphs whose nodes are
//! **spouts** (input sources) and **bolts** (processing steps) and whose
//! edges carry a stream of messages under a *grouping* discipline
//! (shuffle, fields, all, or direct). Each component runs as a number of
//! **tasks** (instances of the user code) executed by a number of
//! **executors** (threads); when `tasks > executors` the extra tasks share
//! an executor pseudo-parallelly, exactly as in Figure 1. Executors are
//! packed into **worker processes**, which a round-robin scheduler places
//! on the **nodes** of a (simulated) cluster — the paper follows \[35\] in
//! using one worker per node, which is this crate's default.
//!
//! The runtime executes everything in-process with real threads and
//! bounded channels (so saturation behaves like a real deployment's
//! backpressure) and terminates by end-of-stream propagation once every
//! spout is exhausted. Delivery is at-most-once by default; enabling
//! [`runtime::ReliabilityConfig`] turns on Storm's guaranteed message
//! processing — an XOR tuple-tree acker (`ack`), spout-side replay of
//! timed-out tuples, and supervised restart of panicked bolt tasks — for
//! at-least-once delivery. A seeded fault injector ([`fault`]) exercises
//! that machinery with probabilistic panics, drops and latency.
//!
//! A Nimbus-style [`metrics`] monitor samples per-task throughput and
//! processing latency on a fixed window (the paper uses 40 s windows;
//! tests use shorter ones) — these are the two metrics every figure of the
//! evaluation section reports. Opt-in tracing ([`MonitorConfig::tracing`])
//! adds end-to-end completion latency histograms (spout emit →
//! tuple-tree completion, with p50/p95/p99) and per-channel queue-depth
//! gauges to every sampled window.
//!
//! Topologies can also be described in XML ([`xml`]), the usability layer
//! the paper adds on top of Storm's Java builder API.

// `codec_harness.rs` is also compiled into `tms-core`'s tests, where this
// crate is `tms_dsps`; the alias lets the one file name it so here too.
#[cfg(test)]
extern crate self as tms_dsps;

mod ack;
#[cfg(test)]
mod codec_harness;
pub mod durability;
pub mod elastic;
mod emitter;
pub mod error;
mod executor;
pub mod fault;
pub mod flight;
pub mod grouping;
pub mod lineage;
pub mod metrics;
pub mod net;
pub mod runtime;
pub mod scheduler;
pub mod topology;
pub mod transport;
pub mod xml;

/// Re-exported so downstream crates can implement [`WireCodec`] (whose
/// methods take [`bytes::BytesMut`]) without depending on the vendored
/// `bytes` crate directly.
pub use bytes;
pub use durability::{DurabilityConfig, StateStore};
pub use elastic::{MigrationCoordinator, MigrationRequest, MigrationStats};
pub use error::DspsError;
pub use fault::{chaos_wrap, ChaosBolt, FaultConfig};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use grouping::{hash_key, Grouping, KeyHasher, StableSipHasher13};
pub use lineage::{CriticalPathReport, LineageConfig, Span, SpanKind, TraceCollector, TraceSummary};
pub use metrics::{
    AtomicHistogram, ComponentWindow, LatencyHistogram, MetricsHub, MonitorConfig, ProfileSource,
    RuleProfile,
};
pub use net::DistributedCluster;
pub use runtime::{Emitter, LocalCluster, ReliabilityConfig, RuntimeConfig, TopologyHandle};
pub use topology::{Bolt, BoltContext, Parallelism, Spout, Topology, TopologyBuilder};
pub use transport::{FrameDecoder, WireCodec, WireReader};
pub use xml::{parse_topology_xml, TopologySpec};
