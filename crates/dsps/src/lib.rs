//! A stream processing runtime — the from-scratch, single-process stand-in for
//! Apache Storm (Section 2.1.1 of the paper, Figure 1).
//!
//! Applications are *topologies*: directed acyclic graphs whose nodes are
//! **spouts** (input sources) and **bolts** (processing steps) and whose
//! edges carry a stream of messages under a *grouping* discipline
//! (shuffle, fields, all, or direct). Each component runs as a number of
//! **tasks** (instances of the user code) executed by a number of
//! **executors** (threads); when `tasks > executors` the extra tasks share
//! an executor pseudo-parallelly, exactly as in Figure 1. A round-robin
//! scheduler records which worker slot of which (simulated) node each
//! executor would occupy — the paper follows \[35\] in using one worker
//! per node, which is this crate's default.
//!
//! The runtime executes everything in one process with real threads and
//! bounded channels (so saturation behaves like a real deployment's
//! backpressure) and terminates by end-of-stream propagation once every
//! spout is exhausted. A bolt whose one input is a shuffle edge from a
//! bolt of equal 1:1 parallelism runs *chained*: no channel and no thread
//! of its own, called by its upstream task on that task's thread. Delivery is at-most-once by default; enabling
//! [`runtime::ReliabilityConfig`] turns on Storm's guaranteed message
//! processing — an XOR tuple-tree acker (`ack`), spout-side replay of
//! timed-out tuples, and supervised restart of panicked bolt tasks — for
//! at-least-once delivery. A seeded fault injector ([`fault`]) exercises
//! that machinery with probabilistic panics, drops and latency.
//!
//! A Nimbus-style [`metrics`] monitor samples per-task throughput and
//! processing latency on a fixed window (the paper uses 40 s windows;
//! tests use shorter ones) — these are the two metrics every figure of the
//! evaluation section reports. Every sampled window also carries
//! per-channel queue-depth gauges and an end-to-end completion latency
//! histogram (spout emit → tuple-tree completion, with p50/p95/p99): every
//! acked root under the acker, the lineage-sampled trees
//! ([`MonitorConfig::lineage`]) at most once.
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
#[cfg(test)]
mod golden_exposition;
pub mod grouping;
pub mod lineage;
pub mod metrics;
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
pub use runtime::{Emitter, LocalCluster, ReliabilityConfig, RuntimeConfig, TopologyHandle};
pub use topology::{Bolt, BoltContext, Parallelism, Spout, Topology, TopologyBuilder};
pub use transport::{FrameDecoder, WireCodec, WireReader};
pub use xml::{parse_topology_xml, TopologySpec};
