//! Multi-process topology execution over TCP: a Nimbus-style coordinator
//! plus worker processes, sharing one scheduler assignment.
//!
//! # Process model
//!
//! The process that calls [`DistributedCluster::submit`] is the
//! **coordinator** (worker 0). It computes the assignment (spout
//! components pinned to itself — see below), spawns `workers - 1` child
//! processes re-executing the current binary, hands each its executor
//! slice, and hosts the topology-wide services: the real
//! acker, the [`MetricsHub`] the scrape endpoint serves,
//! the flight recorder and the lineage store. Each **worker** process
//! calls [`run_worker`] (dispatched from a `worker_entry` hook in the
//! binary, selected by the `TMS_DSPS_SCENARIO` environment variable),
//! rebuilds the same topology from the same code, and runs only the
//! executors the assignment placed on it.
//!
//! ```text
//! coordinator                                  worker w (1..n)
//! ─────────────                                ───────────────
//! bind control listener                        bind data listener
//! spawn children  ───────────────────────────▶ dial coordinator
//! accept, read Hello  ◀──────────────────────  Hello{w, data addr, fingerprint}
//! validate fingerprints
//! Assignment{config, placements, peers} ─────▶ build local slice (submit_inner)
//!                                              dial peers j < w, accept j > w
//! wait all Ready      ◀──────────────────────  Ready
//! build local slice (spouts start here)
//! ...data / ack / metrics / control frames flow...
//! collect WorkerDone  ◀──────────────────────  WorkerDone{result, totals, events}
//! ```
//!
//! Spouts start only after every worker reported `Ready`, so no data
//! frame can race a worker's setup. Spout components are **pinned to the
//! coordinator**: tuple-tree registration is then a direct call into the
//! acker, which keeps Storm's register-before-xor ordering without any
//! cross-process ordering protocol (a worker's forwarded xor can only
//! concern a root the coordinator registered before emitting).
//!
//! # Wire format
//!
//! Every message is one [`transport`](crate::transport) frame; the tag
//! byte selects the session message (see the `tag` module). The data
//! plane ships packets — including whole micro-batches as one frame —
//! with acker traffic multiplexed on the same links. Messages carry no
//! process-local context: `Instant`-based fields (`t0`, lineage hops) do
//! not cross the wire, so end-to-end tracing histograms cover
//! coordinator-local deliveries only, and lineage spans re-root per
//! process (each process's spans still flow back to the coordinator).
//!
//! # Backpressure and faults
//!
//! A remote task's channel slot holds a bounded *relay* channel drained
//! by a per-peer egress thread into a bounded frame queue drained by a
//! per-link writer thread: every hop is bounded, so saturation
//! backpressures across the process boundary exactly like a full local
//! channel, and topology acyclicity rules out distributed send cycles.
//! With [`FaultConfig::drop_p`] set, the egress thread additionally
//! drops whole data frames (never `Eos`) with the configured
//! probability — at-least-once replay heals both per-delivery and
//! per-frame loss. A torn link or a worker crash before `WorkerDone`
//! surfaces as [`DspsError::Worker`] at join.

use crate::ack::{AckSink, Acker};
use crate::error::DspsError;
use crate::fault::FaultConfig;
use crate::flight::{FlightKind, FlightRecorder};
use crate::lineage::{LineageConfig, Span, SpanKind, TraceCollector};
use crate::metrics::{ComponentWindow, LatencyHistogram, MetricsHub, MonitorConfig, RuleProfile};
use crate::emitter::{Envelope, Packet};
use crate::runtime::{
    DistCtx, LocalCluster, LocalIngress, ReliabilityConfig, RemoteDataPlane, RuntimeConfig,
    TopologyHandle,
};
use crate::scheduler::{assign_pinned, Assignment, ClusterSpec, ExecutorPlacement};
use crate::topology::Topology;
use crate::transport::{
    decode_seq, decode_value, encode_frame, encode_value_frame, BufferPool, Frame, FrameDecoder,
    WireCodec, WireReader,
};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender, TryRecvError};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variables carrying a worker process's identity.
const ENV_WORKER: &str = "TMS_DSPS_WORKER";
const ENV_COORD: &str = "TMS_DSPS_COORD";
const ENV_SCENARIO: &str = "TMS_DSPS_SCENARIO";

/// Frames queued per link between the egress/session side and the writer
/// thread. Bounded so a stalled peer backpressures instead of buffering
/// unboundedly.
const LINK_QUEUE: usize = 1024;

/// Handshake read timeout (worker startup includes process spawn).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long `join` waits for each worker's `WorkerDone` after the
/// coordinator's own executors drained.
const DONE_TIMEOUT: Duration = Duration::from_secs(120);

/// Cadence of a worker's cumulative metrics push to the coordinator.
const METRICS_PUSH_EVERY: Duration = Duration::from_millis(200);

/// Session-layer frame tags (the version byte of each message kind).
mod tag {
    /// worker → coordinator (also dialer → acceptor on mesh links):
    /// identity, data-listener address, topology fingerprint.
    pub const HELLO: u8 = 1;
    /// coordinator → worker: runtime config + assignment + peer table.
    pub const ASSIGNMENT: u8 = 2;
    /// any → any: `[dest_global: u32][Packet]`.
    pub const DATA: u8 = 3;
    /// worker → coordinator: one acker operation.
    pub const ACK: u8 = 4;
    /// worker → coordinator: cumulative per-component totals.
    pub const METRICS: u8 = 5;
    /// worker → coordinator: local slice built, mesh links up.
    pub const READY: u8 = 6;
    /// worker → coordinator: final result, totals, flight events, spans.
    pub const DONE: u8 = 7;
    /// coordinator → worker: `[subtag: u8][payload]`, dispatched to
    /// [`WorkerHooks::on_control`](super::WorkerHooks::on_control).
    pub const CONTROL: u8 = 8;
}

// ---------------------------------------------------------------------------
// Wire codecs for the runtime/observability types that cross links.
// Field order is the format version (see `transport`).
// ---------------------------------------------------------------------------

impl WireCodec for ExecutorPlacement {
    fn encode(&self, buf: &mut BytesMut) {
        self.component.encode(buf);
        self.executor_index.encode(buf);
        self.tasks.iter().map(|&t| t as u64).collect::<Vec<u64>>().encode(buf);
        self.worker.encode(buf);
        self.node.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(ExecutorPlacement {
            component: String::decode(r)?,
            executor_index: usize::decode(r)?,
            tasks: Vec::<u64>::decode(r)?.into_iter().map(|t| t as usize).collect(),
            worker: usize::decode(r)?,
            node: usize::decode(r)?,
        })
    }
}

impl WireCodec for Assignment {
    fn encode(&self, buf: &mut BytesMut) {
        self.placements.encode(buf);
        self.workers.encode(buf);
        self.nodes.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(Assignment {
            placements: Vec::decode(r)?,
            workers: usize::decode(r)?,
            nodes: usize::decode(r)?,
        })
    }
}

impl WireCodec for ReliabilityConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.ack_timeout.encode(buf);
        (self.max_retries as u64).encode(buf);
        self.backoff.encode(buf);
        self.max_pending.encode(buf);
        (self.max_task_restarts as u64).encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(ReliabilityConfig {
            ack_timeout: Duration::decode(r)?,
            max_retries: u64::decode(r)? as u32,
            backoff: f64::decode(r)?,
            max_pending: usize::decode(r)?,
            max_task_restarts: u64::decode(r)? as u32,
        })
    }
}

impl WireCodec for FaultConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.panic_p.encode(buf);
        self.drop_p.encode(buf);
        self.delay.encode(buf);
        self.seed.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(FaultConfig {
            panic_p: f64::decode(r)?,
            drop_p: f64::decode(r)?,
            delay: Option::decode(r)?,
            seed: u64::decode(r)?,
        })
    }
}

impl WireCodec for LineageConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.sample_rate.encode(buf);
        self.export.encode(buf);
        self.ring_capacity.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(LineageConfig {
            sample_rate: f64::decode(r)?,
            export: bool::decode(r)?,
            ring_capacity: usize::decode(r)?,
        })
    }
}

impl WireCodec for MonitorConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.window.encode(buf);
        self.tracing.encode(buf);
        self.retention.encode(buf);
        self.profiling.encode(buf);
        self.expose.map(u32::from).encode(buf);
        self.lineage.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(MonitorConfig {
            window: Duration::decode(r)?,
            tracing: bool::decode(r)?,
            retention: usize::decode(r)?,
            profiling: bool::decode(r)?,
            expose: Option::<u32>::decode(r)?.map(|p| p as u16),
            lineage: Option::decode(r)?,
        })
    }
}

impl WireCodec for LatencyHistogram {
    fn encode(&self, buf: &mut BytesMut) {
        for &b in self.buckets() {
            b.encode(buf);
        }
        self.sum_ns().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        let mut buckets = [0u64; crate::metrics::LATENCY_BUCKETS];
        for b in buckets.iter_mut() {
            *b = u64::decode(r)?;
        }
        Ok(LatencyHistogram::from_parts(buckets, u64::decode(r)?))
    }
}

impl WireCodec for RuleProfile {
    fn encode(&self, buf: &mut BytesMut) {
        self.rule.encode(buf);
        self.engine.encode(buf);
        self.events_in.encode(buf);
        self.evals.encode(buf);
        self.firings.encode(buf);
        self.rows_out.encode(buf);
        self.eval.encode(buf);
        self.path_shared.encode(buf);
        self.path_incremental.encode(buf);
        self.path_anchor.encode(buf);
        self.path_rescan.encode(buf);
        self.window_len.encode(buf);
        self.threshold_age.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(RuleProfile {
            rule: String::decode(r)?,
            engine: usize::decode(r)?,
            events_in: u64::decode(r)?,
            evals: u64::decode(r)?,
            firings: u64::decode(r)?,
            rows_out: u64::decode(r)?,
            eval: LatencyHistogram::decode(r)?,
            path_shared: u64::decode(r)?,
            path_incremental: u64::decode(r)?,
            path_anchor: u64::decode(r)?,
            path_rescan: u64::decode(r)?,
            window_len: u64::decode(r)?,
            threshold_age: Option::decode(r)?,
        })
    }
}

impl WireCodec for ComponentWindow {
    fn encode(&self, buf: &mut BytesMut) {
        self.component.encode(buf);
        self.at.encode(buf);
        self.len.encode(buf);
        self.partial.encode(buf);
        self.throughput.encode(buf);
        self.avg_latency.encode(buf);
        self.emitted.encode(buf);
        self.dropped.encode(buf);
        self.misrouted.encode(buf);
        self.acked.encode(buf);
        self.failed.encode(buf);
        self.replayed.encode(buf);
        self.restarted.encode(buf);
        self.injected_panics.encode(buf);
        self.injected_latency.encode(buf);
        self.injected_drops.encode(buf);
        self.e2e.encode(buf);
        self.queue_depth.encode(buf);
        self.queue_depth_max.encode(buf);
        self.queue_capacity.encode(buf);
        self.rules.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(ComponentWindow {
            component: String::decode(r)?,
            at: Duration::decode(r)?,
            len: Duration::decode(r)?,
            partial: bool::decode(r)?,
            throughput: u64::decode(r)?,
            avg_latency: Option::decode(r)?,
            emitted: u64::decode(r)?,
            dropped: u64::decode(r)?,
            misrouted: u64::decode(r)?,
            acked: u64::decode(r)?,
            failed: u64::decode(r)?,
            replayed: u64::decode(r)?,
            restarted: u64::decode(r)?,
            injected_panics: u64::decode(r)?,
            injected_latency: u64::decode(r)?,
            injected_drops: u64::decode(r)?,
            e2e: LatencyHistogram::decode(r)?,
            queue_depth: u64::decode(r)?,
            queue_depth_max: u64::decode(r)?,
            queue_capacity: u64::decode(r)?,
            rules: Vec::decode(r)?,
        })
    }
}

fn span_kind_to_wire(k: SpanKind) -> u8 {
    match k {
        SpanKind::SpoutEmit => 0,
        SpanKind::Queue => 1,
        SpanKind::Process => 2,
        SpanKind::BatchFlush => 3,
        SpanKind::Replay => 4,
        SpanKind::Completion => 5,
    }
}

fn span_kind_from_wire(v: u8) -> Result<SpanKind, DspsError> {
    Ok(match v {
        0 => SpanKind::SpoutEmit,
        1 => SpanKind::Queue,
        2 => SpanKind::Process,
        3 => SpanKind::BatchFlush,
        4 => SpanKind::Replay,
        5 => SpanKind::Completion,
        k => return Err(DspsError::Frame { reason: format!("invalid span kind {k}") }),
    })
}

impl WireCodec for Span {
    fn encode(&self, buf: &mut BytesMut) {
        self.trace.encode(buf);
        self.id.encode(buf);
        self.parent.encode(buf);
        span_kind_to_wire(self.kind).encode(buf);
        self.task.encode(buf);
        self.other.encode(buf);
        self.start_ns.encode(buf);
        self.dur_ns.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(Span {
            trace: u64::decode(r)?,
            id: u64::decode(r)?,
            parent: u64::decode(r)?,
            kind: span_kind_from_wire(u8::decode(r)?)?,
            task: u32::decode(r)?,
            other: u32::decode(r)?,
            start_ns: u64::decode(r)?,
            dur_ns: u64::decode(r)?,
        })
    }
}

/// A flight-recorder event as shipped by a worker: the kind travels by
/// its stable name so the set can grow without renumbering.
#[derive(Debug)]
struct WireFlightEvent {
    at_ns: u64,
    kind: String,
    component: String,
    task: i64,
    detail: String,
}

impl WireCodec for WireFlightEvent {
    fn encode(&self, buf: &mut BytesMut) {
        self.at_ns.encode(buf);
        self.kind.encode(buf);
        self.component.encode(buf);
        self.task.encode(buf);
        self.detail.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(WireFlightEvent {
            at_ns: u64::decode(r)?,
            kind: String::decode(r)?,
            component: String::decode(r)?,
            task: i64::decode(r)?,
            detail: String::decode(r)?,
        })
    }
}

/// The [`RuntimeConfig`] scalars a worker needs to rebuild its slice.
/// The flight recorder and `workers` are process-local; the monitor's
/// `expose` is forced off on workers (the coordinator serves the merged
/// view).
#[derive(Debug)]
struct WireConfig {
    channel_capacity: usize,
    reliability: Option<ReliabilityConfig>,
    fault: Option<FaultConfig>,
    monitor: Option<MonitorConfig>,
    durability: Option<(String, (u64, bool))>,
}

impl WireConfig {
    fn of(config: &RuntimeConfig) -> Self {
        WireConfig {
            channel_capacity: config.channel_capacity,
            reliability: config.reliability,
            fault: config.fault,
            monitor: config.monitor,
            durability: config
                .durability
                .as_ref()
                .map(|d| (d.dir.to_string_lossy().into_owned(), (d.snapshot_every, d.fsync))),
        }
    }

    fn into_runtime(self) -> RuntimeConfig {
        RuntimeConfig {
            channel_capacity: self.channel_capacity,
            workers: None,
            monitor: self.monitor.map(|mut mc| {
                mc.expose = None;
                mc
            }),
            reliability: self.reliability,
            fault: self.fault,
            durability: self.durability.map(|(dir, (snapshot_every, fsync))| {
                crate::durability::DurabilityConfig {
                    dir: std::path::PathBuf::from(dir),
                    snapshot_every,
                    fsync,
                }
            }),
            flight: None,
        }
    }
}

impl WireCodec for WireConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.channel_capacity.encode(buf);
        self.reliability.encode(buf);
        self.fault.encode(buf);
        self.monitor.encode(buf);
        self.durability.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(WireConfig {
            channel_capacity: usize::decode(r)?,
            reliability: Option::decode(r)?,
            fault: Option::decode(r)?,
            monitor: Option::decode(r)?,
            durability: Option::decode(r)?,
        })
    }
}

#[derive(Debug)]
struct Hello {
    worker: usize,
    data_addr: String,
    fingerprint: u64,
}

impl WireCodec for Hello {
    fn encode(&self, buf: &mut BytesMut) {
        self.worker.encode(buf);
        self.data_addr.encode(buf);
        self.fingerprint.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(Hello {
            worker: usize::decode(r)?,
            data_addr: String::decode(r)?,
            fingerprint: u64::decode(r)?,
        })
    }
}

#[derive(Debug)]
struct WireAssignment {
    config: WireConfig,
    assignment: Assignment,
    /// Worker data-listener addresses, indexed by worker id (entry 0
    /// unused — the coordinator is reached over the control link).
    peers: Vec<String>,
    fingerprint: u64,
}

impl WireCodec for WireAssignment {
    fn encode(&self, buf: &mut BytesMut) {
        self.config.encode(buf);
        self.assignment.encode(buf);
        self.peers.encode(buf);
        self.fingerprint.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(WireAssignment {
            config: WireConfig::decode(r)?,
            assignment: Assignment::decode(r)?,
            peers: Vec::decode(r)?,
            fingerprint: u64::decode(r)?,
        })
    }
}

#[derive(Debug)]
struct WorkerDone {
    worker: usize,
    error: Option<String>,
    totals: Vec<ComponentWindow>,
    flight: Vec<WireFlightEvent>,
    spans: Vec<Span>,
}

impl WireCodec for WorkerDone {
    fn encode(&self, buf: &mut BytesMut) {
        self.worker.encode(buf);
        self.error.encode(buf);
        self.totals.encode(buf);
        self.flight.encode(buf);
        self.spans.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
        Ok(WorkerDone {
            worker: usize::decode(r)?,
            error: Option::decode(r)?,
            totals: Vec::decode(r)?,
            flight: Vec::decode(r)?,
            spans: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Packet / Envelope wire form.
// ---------------------------------------------------------------------------

fn encode_envelope<T: WireCodec>(env: &Envelope<T>, buf: &mut BytesMut) {
    env.tid.encode(buf);
    env.roots.encode(buf);
    env.msg.as_inner().encode(buf);
}

fn decode_envelope<T: WireCodec>(r: &mut WireReader<'_>) -> Result<Envelope<T>, DspsError> {
    let tid = u64::decode(r)?;
    let roots = Vec::decode(r)?;
    let msg = T::decode(r)?;
    Ok(Envelope::from_wire(msg, tid, roots))
}

fn encode_packet<T: WireCodec>(p: &Packet<T>, buf: &mut BytesMut) {
    match p {
        Packet::Data(env) => {
            buf.put_u8(0);
            encode_envelope(env, buf);
        }
        Packet::Batch(envs) => {
            buf.put_u8(1);
            buf.put_u32_le(envs.len() as u32);
            for env in envs {
                encode_envelope(env, buf);
            }
        }
        Packet::Eos => buf.put_u8(2),
    }
}

fn decode_packet<T: WireCodec>(r: &mut WireReader<'_>) -> Result<Packet<T>, DspsError> {
    Ok(match r.u8()? {
        0 => Packet::Data(decode_envelope(r)?),
        1 => Packet::Batch(decode_seq(r, decode_envelope)?),
        2 => Packet::Eos,
        k => return Err(DspsError::Frame { reason: format!("invalid packet kind {k}") }),
    })
}

// ---------------------------------------------------------------------------
// Topology fingerprint: both sides must have built the same graph.
// ---------------------------------------------------------------------------

/// A structural fingerprint of the topology: component names,
/// parallelism, and subscription edges with their grouping discipline.
/// Coordinator and workers rebuild the topology independently from the
/// same code; a fingerprint mismatch means the `scenario` dispatch built
/// a different graph and the run is refused before any data flows.
fn topology_fingerprint<T>(topology: &Topology<T>) -> u64 {
    use crate::grouping::{Grouping, StableSipHasher13};
    use std::hash::Hasher;
    let mut h = StableSipHasher13::new();
    fn put(h: &mut StableSipHasher13, s: &str) {
        h.write(&(s.len() as u32).to_le_bytes());
        h.write(s.as_bytes());
    }
    put(&mut h, topology.name());
    for s in &topology.spouts {
        put(&mut h, "spout");
        put(&mut h, &s.name);
        h.write(&(s.parallelism.tasks as u64).to_le_bytes());
        h.write(&(s.parallelism.executors as u64).to_le_bytes());
    }
    for b in &topology.bolts {
        put(&mut h, "bolt");
        put(&mut h, &b.name);
        h.write(&(b.parallelism.tasks as u64).to_le_bytes());
        h.write(&(b.parallelism.executors as u64).to_le_bytes());
        for sub in &b.subscriptions {
            put(&mut h, &sub.source);
            let g: u8 = match sub.grouping {
                Grouping::Shuffle => 0,
                Grouping::Fields(_) => 1,
                Grouping::All => 2,
                Grouping::Direct => 3,
            };
            h.write(&[g]);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Link plumbing: one writer thread and one reader thread per TCP link.
// ---------------------------------------------------------------------------

/// What the session side hands a link's writer thread.
enum WriteOp {
    /// One encoded frame: written with a single `write_all`, then the
    /// allocation is recycled into the link's buffer pool.
    Frame(Bytes),
    /// Flush barrier: everything enqueued before it is on the socket
    /// when the ack fires.
    Flush(Sender<()>),
}

/// Spawns the writer thread owning the write half of a link. Exits when
/// every sender is dropped (after draining) or on a socket error.
fn spawn_link_writer(
    mut stream: TcpStream,
    pool: Arc<BufferPool>,
) -> (Sender<WriteOp>, std::thread::JoinHandle<()>) {
    let (tx, rx) = bounded::<WriteOp>(LINK_QUEUE);
    let handle = std::thread::spawn(move || {
        while let Ok(op) = rx.recv() {
            match op {
                WriteOp::Frame(frame) => {
                    if stream.write_all(&frame).is_err() {
                        return;
                    }
                    pool.recycle(frame);
                }
                WriteOp::Flush(ack) => {
                    let _ = stream.flush();
                    let _ = ack.send(());
                }
            }
        }
    });
    (tx, handle)
}

/// Reads frames off a link until EOF or error, handing each to `on_frame`
/// (which returns `false` to stop reading). `decoder` may carry bytes
/// left over from the synchronous handshake reads.
fn run_link_reader(
    mut stream: TcpStream,
    mut decoder: FrameDecoder,
    mut on_frame: impl FnMut(Frame) -> bool,
) -> Result<(), DspsError> {
    let _ = stream.set_read_timeout(None);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        while let Some(frame) = decoder.next()? {
            if !on_frame(frame) {
                return Ok(());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => decoder.push(&chunk[..n]),
            Err(e) => {
                return Err(DspsError::Transport {
                    peer: stream.peer_addr().map_or_else(|_| "?".into(), |a| a.to_string()),
                    reason: e.to_string(),
                })
            }
        }
    }
}

/// Synchronously reads one frame during the handshake, with a deadline.
fn read_frame_sync(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    timeout: Duration,
) -> Result<Frame, DspsError> {
    let deadline = Instant::now() + timeout;
    let peer = stream.peer_addr().map_or_else(|_| "?".into(), |a| a.to_string());
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(frame) = decoder.next()? {
            return Ok(frame);
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(DspsError::Transport {
                peer,
                reason: "handshake timed out".into(),
            });
        }
        let _ = stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(250))));
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(DspsError::Transport {
                    peer,
                    reason: "link closed during handshake".into(),
                })
            }
            Ok(n) => decoder.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(DspsError::Transport { peer, reason: e.to_string() }),
        }
    }
}

/// Synchronously writes one frame during the handshake.
fn write_frame_sync(stream: &mut TcpStream, frame: &Bytes) -> Result<(), DspsError> {
    stream.write_all(frame).map_err(|e| DspsError::Transport {
        peer: stream.peer_addr().map_or_else(|_| "?".into(), |a| a.to_string()),
        reason: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// The data plane.
// ---------------------------------------------------------------------------

/// Erased handle for tearing a plane down from the non-generic
/// [`DistributedHandle`].
trait PlaneControl: Send + Sync {
    fn shutdown(&self);
}

/// Relay channels toward remote tasks, keyed by `(worker, dest_global)`.
type RelayMap<T> = HashMap<(usize, u32), Sender<Packet<T>>>;

/// Deferred construction of the runtime's ack sink, once the spout
/// completion channels exist (coordinator: the real [`Acker`]; worker: a
/// forwarder framing ops onto the coordinator link).
type MakeAckSink = Box<dyn FnOnce(Vec<Sender<(u64, Instant)>>) -> Arc<dyn AckSink> + Send>;

/// The process-local side of the wire data plane: relay channels toward
/// remote tasks, the ingress map for local tasks, and the frame queues of
/// every established link.
struct NetPlane<T> {
    pool: Arc<BufferPool>,
    links: Mutex<HashMap<usize, Sender<WriteOp>>>,
    ingress: Mutex<HashMap<u32, LocalIngress<T>>>,
    relays: Mutex<RelayMap<T>>,
    /// Relay receivers parked here between topology build and
    /// [`start_egress`](NetPlane::start_egress), grouped by peer.
    #[allow(clippy::type_complexity)]
    pending_egress: Mutex<HashMap<usize, Vec<(u32, Receiver<Packet<T>>)>>>,
    /// Link-level chaos (seeded): data frames toward peers are dropped
    /// with `drop_p`, exercising whole-frame loss on top of the
    /// emitter-level per-delivery drops.
    link_fault: Option<FaultConfig>,
    my_worker: usize,
}

impl<T: WireCodec + Clone + Send + Sync + 'static> NetPlane<T> {
    fn new(pool: Arc<BufferPool>, link_fault: Option<FaultConfig>, my_worker: usize) -> Self {
        NetPlane {
            pool,
            links: Mutex::new(HashMap::new()),
            ingress: Mutex::new(HashMap::new()),
            relays: Mutex::new(HashMap::new()),
            pending_egress: Mutex::new(HashMap::new()),
            link_fault: link_fault.filter(|f| f.drop_p > 0.0),
            my_worker,
        }
    }

    fn add_link(&self, worker: usize, tx: Sender<WriteOp>) {
        self.links.lock().insert(worker, tx);
    }

    fn link_to(&self, worker: usize) -> Option<Sender<WriteOp>> {
        self.links.lock().get(&worker).cloned()
    }

    /// Injects one received data frame (`[dest u32][Packet]`) into the
    /// destination task's input channel, bumping its occupancy gauge
    /// exactly like a local producer.
    fn inject(&self, payload: &[u8]) -> Result<(), DspsError> {
        let mut r = WireReader::new(payload);
        let dest = u32::decode(&mut r)?;
        let packet: Packet<T> = decode_packet(&mut r)?;
        let ingress = self.ingress.lock();
        let Some(entry) = ingress.get(&dest) else {
            return Err(DspsError::Frame {
                reason: format!("data frame for task {dest}, which is not local"),
            });
        };
        let tx = entry.tx.clone();
        let tuples = packet.tuples();
        if entry.tracing {
            entry.depth.fetch_add(tuples as i64, std::sync::atomic::Ordering::Relaxed);
        }
        drop(ingress);
        // A send into a finished task's closed channel is the same
        // benign race as a local cross-task send after EOS: dropped.
        let _ = tx.send_weighted(packet, tuples);
        Ok(())
    }

    /// Spawns one egress thread per peer with queued relays: each drains
    /// its relay set, encodes packets into data frames, and feeds the
    /// peer link's writer queue. Exits when every relay sender is gone
    /// (see [`close_relays`](NetPlane::close_relays)).
    fn start_egress(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        for (peer, rxs) in self.pending_egress.lock().drain() {
            let link = match self.link_to(peer) {
                Some(l) => l,
                None => continue,
            };
            let pool = self.pool.clone();
            let mut chaos = self
                .link_fault
                .map(|f| (f.drop_p, f.rng_for(0x11CC ^ ((self.my_worker as u64) << 32) ^ peer as u64)));
            handles.push(std::thread::spawn(move || {
                let mut alive = rxs;
                while !alive.is_empty() {
                    let idx = {
                        let mut sel = Select::new();
                        for (_, rx) in &alive {
                            sel.recv(rx);
                        }
                        sel.ready()
                    };
                    match alive[idx].1.try_recv() {
                        Err(TryRecvError::Disconnected) => {
                            alive.swap_remove(idx);
                        }
                        // Readiness is a hint; re-select.
                        Err(TryRecvError::Empty) => {}
                        Ok(packet) => {
                            let dest = alive[idx].0;
                            // Chaos applies to data frames only: a lost
                            // Eos would wedge the quorum forever, and
                            // real networks lose data long before they
                            // lose an orderly shutdown.
                            if !matches!(packet, Packet::Eos) {
                                if let Some((p, rng)) = &mut chaos {
                                    if rng.random_bool(*p) {
                                        continue;
                                    }
                                }
                            }
                            let frame = encode_frame(pool.acquire(), tag::DATA, |buf| {
                                buf.put_u32_le(dest);
                                encode_packet(&packet, buf);
                            });
                            if link.send(WriteOp::Frame(frame)).is_err() {
                                return;
                            }
                        }
                    }
                }
            }));
        }
        handles
    }

    /// Drops the plane's relay senders: once local executors have also
    /// dropped theirs, egress threads drain the channels and exit.
    fn close_relays(&self) {
        self.relays.lock().clear();
    }
}

impl<T: WireCodec + Clone + Send + Sync + 'static> RemoteDataPlane<T> for NetPlane<T> {
    fn remote_sender(&self, worker: usize, dest_global: u32, capacity: usize) -> Sender<Packet<T>> {
        let mut relays = self.relays.lock();
        if let Some(tx) = relays.get(&(worker, dest_global)) {
            return tx.clone();
        }
        let (tx, rx) = bounded(capacity.max(1));
        relays.insert((worker, dest_global), tx.clone());
        self.pending_egress.lock().entry(worker).or_default().push((dest_global, rx));
        tx
    }

    fn register_ingress(&self, map: HashMap<u32, LocalIngress<T>>) {
        *self.ingress.lock() = map;
    }
}

impl<T> PlaneControl for NetPlane<T>
where
    T: Send + Sync,
{
    fn shutdown(&self) {
        self.relays.lock().clear();
        self.links.lock().clear();
        self.ingress.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// Acker forwarding.
// ---------------------------------------------------------------------------

mod ack_op {
    pub const REGISTER: u8 = 0;
    pub const XOR_BATCH: u8 = 2;
    pub const SEAL: u8 = 3;
    pub const ABANDON: u8 = 4;
}

/// The worker-side [`AckSink`]: frames every operation onto the
/// coordinator link. XOR operations commute, so forwarding them through
/// a FIFO link preserves correctness (see [`crate::ack::AckSink`]).
struct AckForwarder {
    link: Sender<WriteOp>,
    pool: Arc<BufferPool>,
}

impl AckForwarder {
    fn send(&self, fill: impl FnOnce(&mut BytesMut)) {
        let frame = encode_frame(self.pool.acquire(), tag::ACK, fill);
        // A dead link drops the op; the root replays after its timeout.
        let _ = self.link.send(WriteOp::Frame(frame));
    }
}

impl AckSink for AckForwarder {
    fn register(&self, root: u64, spout: usize) {
        self.send(|buf| {
            buf.put_u8(ack_op::REGISTER);
            root.encode(buf);
            spout.encode(buf);
        });
    }
    fn xor_batch(&self, pairs: &[(u64, u64)]) {
        if pairs.is_empty() {
            return;
        }
        self.send(|buf| {
            buf.put_u8(ack_op::XOR_BATCH);
            buf.put_u32_le(pairs.len() as u32);
            for &(root, id) in pairs {
                root.encode(buf);
                id.encode(buf);
            }
        });
    }
    fn seal(&self, root: u64) {
        self.send(|buf| {
            buf.put_u8(ack_op::SEAL);
            root.encode(buf);
        });
    }
    fn abandon(&self, root: u64) {
        self.send(|buf| {
            buf.put_u8(ack_op::ABANDON);
            root.encode(buf);
        });
    }
}

/// Coordinator side: applies one forwarded ack frame to the real acker.
fn apply_ack_frame(payload: &[u8], acker: &Acker) -> Result<(), DspsError> {
    let mut r = WireReader::new(payload);
    match r.u8()? {
        ack_op::REGISTER => acker.register(u64::decode(&mut r)?, usize::decode(&mut r)?),
        ack_op::XOR_BATCH => acker.xor_batch(&Vec::decode(&mut r)?),
        ack_op::SEAL => acker.seal(u64::decode(&mut r)?),
        ack_op::ABANDON => acker.abandon(u64::decode(&mut r)?),
        k => return Err(DspsError::Frame { reason: format!("invalid ack op {k}") }),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

/// A multi-process cluster: like [`LocalCluster`], but the topology's
/// executors spread over `workers` OS processes connected by TCP.
///
/// With `workers == 1` submission delegates to [`LocalCluster::submit`]
/// unchanged — no sockets, no threads, no extra syscalls on the hot
/// path — so a distributed-capable binary pays nothing until it actually
/// scales out.
pub struct DistributedCluster {
    spec: ClusterSpec,
    workers: usize,
    worker_args: Vec<String>,
    pins: HashMap<String, usize>,
}

impl DistributedCluster {
    /// A cluster of `workers` processes over `spec`'s slots.
    pub fn new(spec: ClusterSpec, workers: usize) -> Result<Self, DspsError> {
        spec.validate()?;
        if workers == 0 {
            return Err(DspsError::InvalidCluster { reason: "workers must be at least 1".into() });
        }
        if workers > spec.total_slots() {
            return Err(DspsError::InsufficientSlots {
                requested: workers,
                available: spec.total_slots(),
            });
        }
        Ok(DistributedCluster {
            spec,
            workers,
            // The default re-invokes the current (test) binary so that
            // only the `worker_entry` dispatch test runs — the rusty-fork
            // pattern. Binaries with their own `main` (e.g. the bench
            // runner) override this with `with_worker_args`.
            worker_args: vec![
                "worker_entry".into(),
                "--exact".into(),
                "--nocapture".into(),
                "--test-threads=1".into(),
            ],
            pins: HashMap::new(),
        })
    }

    /// Replaces the argv the spawned worker processes receive.
    pub fn with_worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Pins every executor of `component` to `worker`. Spout components
    /// are always pinned to worker 0 (the coordinator); pinning one
    /// elsewhere is refused at submit.
    pub fn pin(mut self, component: &str, worker: usize) -> Self {
        self.pins.insert(component.to_string(), worker);
        self
    }

    /// Submits the topology across the cluster's worker processes.
    ///
    /// `scenario` names the topology for the worker-side dispatch: each
    /// spawned process re-executes this binary with `TMS_DSPS_SCENARIO`
    /// set to it, and the binary's `worker_entry` hook must map it back
    /// to the same topology-building closure (validated by fingerprint).
    pub fn submit<T: WireCodec + Clone + Send + Sync + 'static>(
        &self,
        scenario: &str,
        topology: Topology<T>,
        config: RuntimeConfig,
    ) -> Result<DistributedHandle, DspsError> {
        if self.workers <= 1 {
            let handle = LocalCluster::new(self.spec)?.submit(topology, config)?;
            return Ok(DistributedHandle { inner: Some(handle), dist: None });
        }

        // -- Assignment with spouts pinned to the coordinator. ---------
        let mut pins = self.pins.clone();
        for s in &topology.spouts {
            match pins.insert(s.name.clone(), 0) {
                Some(w) if w != 0 => {
                    return Err(DspsError::InvalidCluster {
                        reason: format!(
                            "spout {} pinned to worker {w}: spouts must run on the coordinator",
                            s.name
                        ),
                    })
                }
                _ => {}
            }
        }
        let components: Vec<(&str, usize, usize)> = topology
            .spouts
            .iter()
            .map(|s| (s.name.as_str(), s.parallelism.tasks, s.parallelism.executors))
            .chain(
                topology
                    .bolts
                    .iter()
                    .map(|b| (b.name.as_str(), b.parallelism.tasks, b.parallelism.executors)),
            )
            .collect();
        let assignment = assign_pinned(&components, self.spec, self.workers, &pins)?;
        let fingerprint = topology_fingerprint(&topology);

        // -- Spawn the worker fleet and collect Hellos. ----------------
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| DspsError::Transport {
            peer: "127.0.0.1".into(),
            reason: format!("cannot bind coordinator listener: {e}"),
        })?;
        let coord_addr = listener.local_addr().map_err(|e| DspsError::Transport {
            peer: "127.0.0.1".into(),
            reason: e.to_string(),
        })?;
        let exe = std::env::current_exe().map_err(|e| DspsError::Transport {
            peer: "127.0.0.1".into(),
            reason: format!("cannot locate current executable: {e}"),
        })?;
        let mut guard = ChildGuard { children: Vec::new() };
        for w in 1..self.workers {
            let child = std::process::Command::new(&exe)
                .args(&self.worker_args)
                .env(ENV_WORKER, w.to_string())
                .env(ENV_COORD, coord_addr.to_string())
                .env(ENV_SCENARIO, scenario)
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| DspsError::Worker {
                    worker: w,
                    reason: format!("cannot spawn worker process: {e}"),
                })?;
            guard.children.push(child);
        }

        // -- Handshake: Hello in, Assignment out, Ready in. ------------
        // Accept cannot take a timeout directly; poll nonblocking.
        listener.set_nonblocking(true).map_err(|e| transport_err(&coord_addr, e))?;
        let mut conns: HashMap<usize, (TcpStream, FrameDecoder)> = HashMap::new();
        let mut data_addrs: HashMap<usize, String> = HashMap::new();
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        while conns.len() < self.workers - 1 {
            if Instant::now() >= deadline {
                return Err(DspsError::Transport {
                    peer: coord_addr.to_string(),
                    reason: format!(
                        "only {} of {} workers connected before the handshake deadline",
                        conns.len(),
                        self.workers - 1
                    ),
                });
            }
            let (mut stream, _) = match listener.accept() {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(e) => return Err(transport_err(&coord_addr, e)),
            };
            stream.set_nonblocking(false).map_err(|e| transport_err(&coord_addr, e))?;
            let _ = stream.set_nodelay(true);
            let mut decoder = FrameDecoder::new();
            let frame = read_frame_sync(&mut stream, &mut decoder, HANDSHAKE_TIMEOUT)?;
            if frame.tag != tag::HELLO {
                return Err(DspsError::Frame {
                    reason: format!("expected Hello, got tag {}", frame.tag),
                });
            }
            let hello: Hello = decode_value(&frame.payload)?;
            if hello.fingerprint != fingerprint {
                return Err(DspsError::Worker {
                    worker: hello.worker,
                    reason: format!(
                        "topology fingerprint mismatch: scenario {scenario:?} built a different graph \
                         (coordinator {fingerprint:#018x}, worker {:#018x})",
                        hello.fingerprint
                    ),
                });
            }
            if hello.worker == 0 || hello.worker >= self.workers {
                return Err(DspsError::Worker {
                    worker: hello.worker,
                    reason: "worker id out of range".into(),
                });
            }
            data_addrs.insert(hello.worker, hello.data_addr.clone());
            if conns.insert(hello.worker, (stream, decoder)).is_some() {
                return Err(DspsError::Worker {
                    worker: hello.worker,
                    reason: "duplicate worker id in handshake".into(),
                });
            }
        }
        let pool = Arc::new(BufferPool::default());
        // Entry 0 stays empty: the coordinator is reached over the
        // control link every worker already holds, never dialed.
        let peers: Vec<String> = (0..self.workers)
            .map(|w| data_addrs.get(&w).cloned().unwrap_or_default())
            .collect();

        let wire = WireAssignment {
            config: WireConfig::of(&config),
            assignment: assignment.clone(),
            peers: peers.clone(),
            fingerprint,
        };
        for (_, (stream, _)) in conns.iter_mut() {
            let frame = encode_value_frame(&pool, tag::ASSIGNMENT, &wire);
            write_frame_sync(stream, &frame)?;
        }
        for (w, (stream, decoder)) in conns.iter_mut() {
            let frame = read_frame_sync(stream, decoder, HANDSHAKE_TIMEOUT)?;
            if frame.tag != tag::READY {
                return Err(DspsError::Worker {
                    worker: *w,
                    reason: format!("expected Ready, got tag {}", frame.tag),
                });
            }
        }

        // -- Build the plane, the acker slot, and the local slice. -----
        let plane = Arc::new(NetPlane::<T>::new(pool.clone(), config.fault, 0));
        let mut writer_links = HashMap::new();
        for (&w, (stream, _)) in conns.iter() {
            let write_half = stream.try_clone().map_err(|e| transport_err(&coord_addr, e))?;
            let (tx, _h) = spawn_link_writer(write_half, pool.clone());
            plane.add_link(w, tx.clone());
            writer_links.insert(w, tx);
        }
        let acker_slot: Arc<Mutex<Option<Arc<Acker>>>> = Arc::new(Mutex::new(None));
        let make_ack: MakeAckSink = {
            let slot = acker_slot.clone();
            Box::new(move |txs| {
                let acker = Arc::new(Acker::new(txs));
                *slot.lock() = Some(acker.clone());
                acker
            })
        };
        let handle = LocalCluster::new(self.spec)?.submit_inner(
            topology,
            config,
            Some(DistCtx { worker: 0, assignment: assignment.clone(), plane: plane.clone(), make_ack }),
        )?;

        // -- Readers + egress: data can flow now. ----------------------
        let (done_tx, done_rx) = unbounded();
        for (w, (stream, decoder)) in conns.into_iter() {
            spawn_coordinator_reader(
                w,
                stream,
                decoder,
                plane.clone(),
                acker_slot.clone(),
                handle.metrics().clone(),
                handle.flight_recorder().clone(),
                handle.trace_collector().cloned(),
                done_tx.clone(),
            );
        }
        plane.start_egress();

        let controller = Arc::new(RemoteController { links: writer_links, pool });
        Ok(DistributedHandle {
            inner: Some(handle),
            dist: Some(DistState {
                children: std::mem::take(&mut guard.children),
                controller,
                done_rx,
                remote_workers: self.workers - 1,
                plane: plane as Arc<dyn PlaneControl>,
            }),
        })
    }
}

fn transport_err(addr: &std::net::SocketAddr, e: std::io::Error) -> DspsError {
    DspsError::Transport { peer: addr.to_string(), reason: e.to_string() }
}

/// Kills any still-spawned children if submit errors out mid-handshake.
struct ChildGuard {
    children: Vec<std::process::Child>,
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One worker link's coordinator-side reader: injects data, applies
/// forwarded ack ops, ingests pushed metrics, and records the worker's
/// final report.
#[allow(clippy::too_many_arguments)]
fn spawn_coordinator_reader<T: WireCodec + Clone + Send + Sync + 'static>(
    worker: usize,
    stream: TcpStream,
    decoder: FrameDecoder,
    plane: Arc<NetPlane<T>>,
    acker: Arc<Mutex<Option<Arc<Acker>>>>,
    hub: Arc<MetricsHub>,
    flight: Arc<FlightRecorder>,
    collector: Option<Arc<TraceCollector>>,
    done_tx: Sender<(usize, Option<String>)>,
) {
    std::thread::spawn(move || {
        let mut done_seen = false;
        let result = run_link_reader(stream, decoder, |frame| {
            let outcome: Result<(), DspsError> = (|| {
                match frame.tag {
                    tag::DATA => plane.inject(&frame.payload)?,
                    tag::ACK => {
                        if let Some(acker) = acker.lock().clone() {
                            apply_ack_frame(&frame.payload, &acker)?;
                        }
                    }
                    tag::METRICS => {
                        let (w, totals): (usize, Vec<ComponentWindow>) =
                            decode_value(&frame.payload)?;
                        hub.ingest_remote_totals(w, totals);
                    }
                    tag::DONE => {
                        let report: WorkerDone = decode_value(&frame.payload)?;
                        hub.ingest_remote_totals(report.worker, report.totals);
                        for e in report.flight {
                            let kind =
                                FlightKind::from_name(&e.kind).unwrap_or(FlightKind::Custom);
                            flight.ingest(e.at_ns, kind, &e.component, e.task, e.detail);
                        }
                        if let Some(c) = &collector {
                            c.ingest_spans(&report.spans);
                        }
                        done_seen = true;
                        let _ = done_tx.send((report.worker, report.error));
                    }
                    _ => {
                        return Err(DspsError::Frame {
                            reason: format!("unexpected tag {} from worker {worker}", frame.tag),
                        })
                    }
                }
                Ok(())
            })();
            match outcome {
                Ok(()) => true,
                Err(e) => {
                    if !done_seen {
                        done_seen = true;
                        let _ = done_tx.send((worker, Some(e.to_string())));
                    }
                    false
                }
            }
        });
        if !done_seen {
            let reason = match result {
                Ok(()) => "link closed before completion".to_string(),
                Err(e) => e.to_string(),
            };
            let _ = done_tx.send((worker, Some(reason)));
        }
    });
}

/// Sends control frames to workers: the coordinator-side half of
/// [`WorkerHooks::on_control`]. Cloneable and cheap; safe to capture in
/// rebalancer hooks.
pub struct RemoteController {
    links: HashMap<usize, Sender<WriteOp>>,
    pool: Arc<BufferPool>,
}

impl RemoteController {
    /// Sends `payload` to `worker` under `subtag`; the worker's handler
    /// registered for that subtag receives the payload bytes.
    pub fn send_control(&self, worker: usize, subtag: u8, payload: &[u8]) -> Result<(), DspsError> {
        let link = self.links.get(&worker).ok_or_else(|| DspsError::Transport {
            peer: format!("worker {worker}"),
            reason: "no control link (single-process handle or unknown worker)".into(),
        })?;
        let frame = encode_frame(self.pool.acquire(), tag::CONTROL, |buf| {
            buf.put_u8(subtag);
            buf.put_slice(payload);
        });
        link.send(WriteOp::Frame(frame)).map_err(|_| DspsError::Transport {
            peer: format!("worker {worker}"),
            reason: "control link closed".into(),
        })
    }

    /// Worker ids reachable from this controller.
    pub fn workers(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.links.keys().copied().collect();
        w.sort_unstable();
        w
    }
}

struct DistState {
    children: Vec<std::process::Child>,
    controller: Arc<RemoteController>,
    done_rx: Receiver<(usize, Option<String>)>,
    remote_workers: usize,
    plane: Arc<dyn PlaneControl>,
}

impl DistState {
    fn finish(&mut self) {
        self.plane.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => break,
                }
            }
        }
        self.children.clear();
    }
}

impl Drop for DistState {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running multi-process topology: the coordinator's
/// [`TopologyHandle`] plus the worker fleet.
pub struct DistributedHandle {
    inner: Option<TopologyHandle>,
    dist: Option<DistState>,
}

impl DistributedHandle {
    fn handle(&self) -> &TopologyHandle {
        self.inner.as_ref().expect("handle present until join")
    }

    /// The coordinator's metrics hub — the merged whole-topology view
    /// once workers push their totals.
    pub fn metrics(&self) -> &Arc<MetricsHub> {
        self.handle().metrics()
    }

    /// The merged scrape endpoint, when the monitor exposes one.
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.handle().scrape_addr()
    }

    /// The assignment all processes share.
    pub fn assignment(&self) -> &Assignment {
        self.handle().assignment()
    }

    /// The coordinator's flight recorder (workers' events merge in at
    /// completion).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        self.handle().flight_recorder()
    }

    /// A handle for sending control frames to workers. `None` on a
    /// single-process (workers == 1) submission.
    pub fn controller(&self) -> Option<Arc<RemoteController>> {
        self.dist.as_ref().map(|d| d.controller.clone())
    }

    /// Waits for the whole topology to drain: the coordinator's own
    /// executors, then every worker's `WorkerDone`. Returns the merged
    /// metrics hub, or the first failure (coordinator first, then
    /// workers in completion order).
    pub fn join(mut self) -> Result<Arc<MetricsHub>, DspsError> {
        let inner = self.inner.take().expect("join consumes the handle once");
        let local = inner.join();
        let Some(mut dist) = self.dist.take() else { return local };
        let mut worker_err: Option<DspsError> = None;
        if local.is_ok() {
            for _ in 0..dist.remote_workers {
                match dist.done_rx.recv_timeout(DONE_TIMEOUT) {
                    Ok((_, None)) => {}
                    Ok((w, Some(reason))) => {
                        worker_err =
                            worker_err.or(Some(DspsError::Worker { worker: w, reason }));
                    }
                    Err(_) => {
                        worker_err = worker_err.or(Some(DspsError::Worker {
                            worker: usize::MAX,
                            reason: format!(
                                "timed out after {DONE_TIMEOUT:?} waiting for worker completion"
                            ),
                        }));
                        break;
                    }
                }
            }
        }
        dist.finish();
        match (local, worker_err) {
            (Err(e), _) => Err(e),
            (Ok(_), Some(e)) => Err(e),
            (Ok(hub), None) => Ok(hub),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------------

/// The scenario name when this process was spawned as a worker, `None`
/// otherwise. A binary that can host workers checks this early (the
/// test-suite convention is a `worker_entry` test that returns
/// immediately when it is `None`).
pub fn worker_scenario() -> Option<String> {
    std::env::var(ENV_WORKER).ok()?;
    std::env::var(ENV_SCENARIO).ok()
}

/// Worker-side registration surface handed to the topology builder:
/// lets a scenario install handlers for coordinator control frames
/// (e.g. cross-process migration installs) before executors start.
#[derive(Default)]
pub struct WorkerHooks {
    #[allow(clippy::type_complexity)]
    control: HashMap<u8, Box<dyn Fn(&[u8]) + Send + Sync>>,
}

impl WorkerHooks {
    /// Registers a handler for control frames with `subtag`. The handler
    /// runs on the link reader thread; keep it short (deposit into a
    /// channel or mailbox, don't process inline).
    pub fn on_control(&mut self, subtag: u8, handler: impl Fn(&[u8]) + Send + Sync + 'static) {
        self.control.insert(subtag, Box::new(handler));
    }
}

/// Runs this process as worker `TMS_DSPS_WORKER` of the topology `build`
/// constructs: connects to the coordinator, receives its executor slice,
/// runs it to completion, and reports totals/flight/spans back. Returns
/// when the local slice has fully drained.
pub fn run_worker<T, F>(build: F) -> Result<(), DspsError>
where
    T: WireCodec + Clone + Send + Sync + 'static,
    F: FnOnce(&mut WorkerHooks) -> Topology<T>,
{
    let my: usize = std::env::var(ENV_WORKER)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DspsError::Worker {
            worker: usize::MAX,
            reason: format!("{ENV_WORKER} is not set or not a number"),
        })?;
    let coord = std::env::var(ENV_COORD).map_err(|_| DspsError::Worker {
        worker: my,
        reason: format!("{ENV_COORD} is not set"),
    })?;
    let mut hooks = WorkerHooks::default();
    let topology = build(&mut hooks);
    let fingerprint = topology_fingerprint(&topology);

    // -- Handshake. ----------------------------------------------------
    let data_listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| DspsError::Worker { worker: my, reason: format!("cannot bind: {e}") })?;
    let data_addr = data_listener
        .local_addr()
        .map_err(|e| DspsError::Worker { worker: my, reason: e.to_string() })?
        .to_string();
    let mut coord_stream = TcpStream::connect(&coord).map_err(|e| DspsError::Transport {
        peer: coord.clone(),
        reason: format!("cannot reach coordinator: {e}"),
    })?;
    let _ = coord_stream.set_nodelay(true);
    let pool = Arc::new(BufferPool::default());
    let hello = Hello { worker: my, data_addr, fingerprint };
    write_frame_sync(&mut coord_stream, &encode_value_frame(&pool, tag::HELLO, &hello))?;
    let mut coord_decoder = FrameDecoder::new();
    let frame = read_frame_sync(&mut coord_stream, &mut coord_decoder, HANDSHAKE_TIMEOUT)?;
    if frame.tag != tag::ASSIGNMENT {
        return Err(DspsError::Frame {
            reason: format!("expected Assignment, got tag {}", frame.tag),
        });
    }
    let wire: WireAssignment = decode_value(&frame.payload)?;
    if wire.fingerprint != fingerprint {
        return Err(DspsError::Worker {
            worker: my,
            reason: "topology fingerprint mismatch against coordinator".into(),
        });
    }
    let assignment = wire.assignment;
    let workers = assignment.workers;

    // -- Mesh: dial lower-numbered peers, accept higher-numbered. ------
    let mut streams: HashMap<usize, (TcpStream, FrameDecoder)> = HashMap::new();
    streams.insert(0, (coord_stream, coord_decoder));
    for j in 1..my {
        let mut s = TcpStream::connect(&wire.peers[j]).map_err(|e| DspsError::Transport {
            peer: wire.peers[j].clone(),
            reason: format!("cannot reach peer worker {j}: {e}"),
        })?;
        let _ = s.set_nodelay(true);
        let id = Hello { worker: my, data_addr: String::new(), fingerprint };
        write_frame_sync(&mut s, &encode_value_frame(&pool, tag::HELLO, &id))?;
        streams.insert(j, (s, FrameDecoder::new()));
    }
    for _ in my + 1..workers {
        let (mut s, _) = data_listener.accept().map_err(|e| DspsError::Worker {
            worker: my,
            reason: format!("mesh accept failed: {e}"),
        })?;
        let _ = s.set_nodelay(true);
        let mut decoder = FrameDecoder::new();
        let frame = read_frame_sync(&mut s, &mut decoder, HANDSHAKE_TIMEOUT)?;
        if frame.tag != tag::HELLO {
            return Err(DspsError::Frame {
                reason: format!("expected mesh Hello, got tag {}", frame.tag),
            });
        }
        let peer: Hello = decode_value(&frame.payload)?;
        streams.insert(peer.worker, (s, decoder));
    }

    // -- Plane, writers, local slice. ----------------------------------
    let config = wire.config.into_runtime();
    let plane = Arc::new(NetPlane::<T>::new(pool.clone(), config.fault, my));
    let mut writer_handles = Vec::new();
    for (&w, (stream, _)) in streams.iter() {
        let write_half = stream.try_clone().map_err(|e| DspsError::Worker {
            worker: my,
            reason: format!("cannot clone link stream: {e}"),
        })?;
        let (tx, h) = spawn_link_writer(write_half, pool.clone());
        plane.add_link(w, tx);
        writer_handles.push(h);
    }
    let coord_link = plane.link_to(0).expect("coordinator link just added");
    let make_ack: MakeAckSink = {
        let link = coord_link.clone();
        let pool = pool.clone();
        // Spouts are pinned to the coordinator, so the completion
        // senders are unused here — the forwarder only emits ops.
        Box::new(move |_txs| Arc::new(AckForwarder { link, pool }))
    };
    // The spec shipped implicitly via the assignment: rebuild one that
    // validates and carries the same node count (submit_inner only uses
    // it for the non-distributed path).
    let spec = ClusterSpec {
        nodes: assignment.nodes.max(1),
        slots_per_node: workers.div_ceil(assignment.nodes.max(1)).max(1),
        cores_per_node: 1,
    };
    let handle = LocalCluster::new(spec)?.submit_inner(
        topology,
        config,
        Some(DistCtx { worker: my, assignment: assignment.clone(), plane: plane.clone(), make_ack }),
    )?;
    let hub = handle.metrics().clone();
    let flight = handle.flight_recorder().clone();
    let collector = handle.trace_collector().cloned();

    // -- Readers, egress, Ready, metrics push. -------------------------
    let finished = Arc::new(AtomicBool::new(false));
    let hooks = Arc::new(hooks.control);
    for (w, (stream, decoder)) in streams.into_iter() {
        let plane = plane.clone();
        let hooks = hooks.clone();
        let finished = finished.clone();
        std::thread::spawn(move || {
            let _ = run_link_reader(stream, decoder, |frame| match frame.tag {
                tag::DATA => plane.inject(&frame.payload).is_ok(),
                tag::CONTROL => {
                    if let Some((&subtag, rest)) = frame.payload.split_first() {
                        if let Some(handler) = hooks.get(&subtag) {
                            handler(rest);
                        }
                    }
                    true
                }
                _ => true,
            });
            // The coordinator tears links down only after WorkerDone; an
            // earlier EOF means it died and this slice can never drain.
            if w == 0 && !finished.load(Ordering::Relaxed) {
                eprintln!("worker {my}: coordinator link lost; aborting");
                std::process::exit(110);
            }
        });
    }
    let egress = plane.start_egress();
    let _ = coord_link.send(WriteOp::Frame(encode_frame(pool.acquire(), tag::READY, |_| {})));
    let stop_push = Arc::new(AtomicBool::new(false));
    let push_thread = {
        let hub = hub.clone();
        let link = coord_link.clone();
        let pool = pool.clone();
        let stop = stop_push.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let frame = encode_value_frame(&pool, tag::METRICS, &(my, hub.totals()));
                if link.send(WriteOp::Frame(frame)).is_err() {
                    return;
                }
                std::thread::sleep(METRICS_PUSH_EVERY);
            }
        })
    };

    // -- Run to completion, then report. -------------------------------
    let result = handle.join();
    stop_push.store(true, Ordering::Relaxed);
    let _ = push_thread.join();
    // All local executors have deposited their last packets into the
    // relays; dropping the plane's senders lets egress drain and exit,
    // guaranteeing every data frame is queued on its link before Done.
    plane.close_relays();
    for h in egress {
        let _ = h.join();
    }
    finished.store(true, Ordering::Relaxed);
    let report = WorkerDone {
        worker: my,
        error: result.as_ref().err().map(|e| e.to_string()),
        totals: hub.totals(),
        flight: flight
            .events()
            .into_iter()
            .map(|e| WireFlightEvent {
                at_ns: e.at_ns,
                kind: e.kind.name().to_string(),
                component: e.component,
                task: e.task,
                detail: e.detail,
            })
            .collect(),
        spans: collector.map(|c| c.take_spans()).unwrap_or_default(),
    };
    let _ = coord_link.send(WriteOp::Frame(encode_value_frame(&pool, tag::DONE, &report)));
    // Flush every link before exiting so queued frames (mesh Eos, the
    // report itself) reach their sockets.
    for w in 0..workers {
        if let Some(link) = plane.link_to(w) {
            let (ack_tx, ack_rx) = bounded(1);
            if link.send(WriteOp::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv_timeout(Duration::from_secs(10));
            }
        }
    }
    plane.shutdown();
    result.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::topology::{Parallelism, Spout, TopologyBuilder};

    struct EmptySpout;
    impl Spout<u64> for EmptySpout {
        fn next(&mut self) -> Option<u64> {
            None
        }
    }

    fn sample_topology(shuffle: bool) -> Topology<u64> {
        let grouping = if shuffle { Grouping::Shuffle } else { Grouping::All };
        TopologyBuilder::new("fp")
            .add_spout("src", Parallelism::of(2), |_| Box::new(EmptySpout))
            .add_map_bolt("sink", Parallelism::of(2), vec![("src", grouping)], Some)
            .build()
            .expect("valid topology")
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let a = topology_fingerprint(&sample_topology(true));
        let b = topology_fingerprint(&sample_topology(true));
        let c = topology_fingerprint(&sample_topology(false));
        assert_eq!(a, b, "same structure, same fingerprint");
        assert_ne!(a, c, "a different grouping changes the fingerprint");
    }

    #[test]
    fn packet_roundtrip_preserves_envelopes() {
        let envs = vec![
            Envelope::from_wire(7u64, 42, vec![1, 2]),
            Envelope::from_wire(9u64, 43, vec![]),
        ];
        let mut buf = BytesMut::new();
        encode_packet(&Packet::Batch(envs), &mut buf);
        encode_packet::<u64>(&Packet::Eos, &mut buf);
        let frozen = buf.freeze();
        let mut r = WireReader::new(&frozen);
        match decode_packet::<u64>(&mut r).unwrap() {
            Packet::Batch(back) => {
                assert_eq!(back.len(), 2);
                assert_eq!(*back[0].msg.as_inner(), 7);
                assert_eq!(back[0].tid, 42);
                assert_eq!(back[0].roots, vec![1, 2]);
                assert_eq!(*back[1].msg.as_inner(), 9);
            }
            _ => panic!("expected batch"),
        }
        assert!(matches!(decode_packet::<u64>(&mut r).unwrap(), Packet::Eos));
        assert!(r.is_empty());
    }

    #[test]
    fn ack_ops_forward_and_apply() {
        let (link, rx) = bounded(16);
        let pool = Arc::new(BufferPool::default());
        let fwd = AckForwarder { link, pool };
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let acker = Acker::new(vec![done_tx]);
        fwd.register(100, 0);
        fwd.xor_batch(&[(100, 5)]);
        fwd.seal(100);
        fwd.xor_batch(&[(100, 5)]);
        drop(fwd);
        while let Ok(WriteOp::Frame(frame)) = rx.try_recv() {
            let mut dec = FrameDecoder::new();
            dec.push(&frame);
            let f = dec.next().unwrap().expect("one frame per op");
            assert_eq!(f.tag, tag::ACK);
            apply_ack_frame(&f.payload, &acker).unwrap();
        }
        let (root, _) = done_rx.try_recv().expect("tree completed through the forwarder");
        assert_eq!(root, 100);
    }

    #[test]
    fn wire_config_roundtrip() {
        let cfg = RuntimeConfig {
            channel_capacity: 77,
            workers: Some(3),
            monitor: Some(MonitorConfig {
                window: Duration::from_millis(50),
                tracing: true,
                retention: 128,
                profiling: false,
                expose: Some(0),
                lineage: Some(LineageConfig::default()),
            }),
            reliability: Some(ReliabilityConfig::default()),
            fault: Some(FaultConfig { drop_p: 0.25, ..Default::default() }),
            durability: None,
            flight: None,
        };
        let pool = BufferPool::default();
        let frame = encode_value_frame(&pool, 9, &WireConfig::of(&cfg));
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        let f = dec.next().unwrap().unwrap();
        let back = WireConfig::decode(&mut WireReader::new(&f.payload)).unwrap();
        let rebuilt = back.into_runtime();
        assert_eq!(rebuilt.channel_capacity, 77);
        assert_eq!(rebuilt.workers, None, "worker count is process-local");
        let mc = rebuilt.monitor.unwrap();
        assert!(mc.tracing);
        assert_eq!(mc.expose, None, "workers never expose their own scrape port");
        assert_eq!(rebuilt.fault.unwrap().drop_p, 0.25);
        assert_eq!(rebuilt.reliability.unwrap().max_retries, 5);
    }

    // One decode-hardening harness over every type that crosses a link.

    use crate::codec_harness::codec_holds;
    use proptest::prelude::*;

    fn u64s() -> std::ops::Range<u64> {
        0..u64::MAX
    }

    fn usizes() -> std::ops::Range<usize> {
        0..usize::MAX
    }

    /// Any bit pattern: NaNs, infinities and subnormals included.
    fn f64s() -> impl Strategy<Value = f64> {
        u64s().prop_map(f64::from_bits)
    }

    fn durations() -> impl Strategy<Value = Duration> {
        (u64s(), 0u32..1_000_000_000).prop_map(|(secs, nanos)| Duration::new(secs, nanos))
    }

    fn histograms() -> impl Strategy<Value = LatencyHistogram> {
        (prop::collection::vec(u64s(), crate::metrics::LATENCY_BUCKETS), u64s()).prop_map(
            |(buckets, sum)| {
                LatencyHistogram::from_parts(buckets.try_into().expect("one count a bucket"), sum)
            },
        )
    }

    fn placements() -> impl Strategy<Value = ExecutorPlacement> {
        (".{0,8}", usizes(), prop::collection::vec(usizes(), 0..4), usizes(), usizes()).prop_map(
            |(component, executor_index, tasks, worker, node)| ExecutorPlacement {
                component,
                executor_index,
                tasks,
                worker,
                node,
            },
        )
    }

    fn assignments() -> impl Strategy<Value = Assignment> {
        (prop::collection::vec(placements(), 0..3), usizes(), usizes())
            .prop_map(|(placements, workers, nodes)| Assignment { placements, workers, nodes })
    }

    fn reliabilities() -> impl Strategy<Value = ReliabilityConfig> {
        (durations(), 0u32..u32::MAX, f64s(), usizes(), 0u32..u32::MAX).prop_map(
            |(ack_timeout, max_retries, backoff, max_pending, max_task_restarts)| {
                ReliabilityConfig { ack_timeout, max_retries, backoff, max_pending, max_task_restarts }
            },
        )
    }

    fn faults() -> impl Strategy<Value = FaultConfig> {
        (f64s(), f64s(), prop::option::of(durations()), u64s())
            .prop_map(|(panic_p, drop_p, delay, seed)| FaultConfig { panic_p, drop_p, delay, seed })
    }

    fn lineages() -> impl Strategy<Value = LineageConfig> {
        (f64s(), any::<bool>(), usizes()).prop_map(|(sample_rate, export, ring_capacity)| {
            LineageConfig { sample_rate, export, ring_capacity }
        })
    }

    fn monitors() -> impl Strategy<Value = MonitorConfig> {
        let expose = prop::option::of(0u16..u16::MAX);
        (durations(), any::<bool>(), usizes(), any::<bool>(), expose, prop::option::of(lineages()))
            .prop_map(|(window, tracing, retention, profiling, expose, lineage)| MonitorConfig {
                window,
                tracing,
                retention,
                profiling,
                expose,
                lineage,
            })
    }

    fn rule_profiles() -> impl Strategy<Value = RuleProfile> {
        let counters = prop::collection::vec(u64s(), 9);
        (".{0,8}", usizes(), histograms(), prop::option::of(durations()), counters).prop_map(
            |(rule, engine, eval, threshold_age, n)| RuleProfile {
                rule,
                engine,
                events_in: n[0],
                evals: n[1],
                firings: n[2],
                rows_out: n[3],
                eval,
                path_shared: n[4],
                path_incremental: n[5],
                path_anchor: n[6],
                path_rescan: n[7],
                window_len: n[8],
                threshold_age,
            },
        )
    }

    fn windows() -> impl Strategy<Value = ComponentWindow> {
        let header = (".{0,8}", durations(), durations(), any::<bool>());
        let rules = prop::collection::vec(rule_profiles(), 0..2);
        let counters = prop::collection::vec(u64s(), 14);
        (header, prop::option::of(durations()), histograms(), rules, counters).prop_map(
            |((component, at, len, partial), avg_latency, e2e, rules, n)| ComponentWindow {
                component,
                at,
                len,
                partial,
                throughput: n[0],
                avg_latency,
                emitted: n[1],
                dropped: n[2],
                misrouted: n[3],
                acked: n[4],
                failed: n[5],
                replayed: n[6],
                restarted: n[7],
                injected_panics: n[8],
                injected_latency: n[9],
                injected_drops: n[10],
                e2e,
                queue_depth: n[11],
                queue_depth_max: n[12],
                queue_capacity: n[13],
                rules,
            },
        )
    }

    fn spans() -> impl Strategy<Value = Span> {
        (prop::collection::vec(u64s(), 5), 0u8..6, 0u32..u32::MAX, 0u32..u32::MAX).prop_map(
            |(n, kind, task, other)| Span {
                trace: n[0],
                id: n[1],
                parent: n[2],
                kind: span_kind_from_wire(kind).expect("0..6 are the span kinds"),
                task,
                other,
                start_ns: n[3],
                dur_ns: n[4],
            },
        )
    }

    fn flight_events() -> impl Strategy<Value = WireFlightEvent> {
        (u64s(), ".{0,8}", ".{0,8}", i64::MIN..i64::MAX, ".{0,12}").prop_map(
            |(at_ns, kind, component, task, detail)| WireFlightEvent {
                at_ns,
                kind,
                component,
                task,
                detail,
            },
        )
    }

    fn wire_configs() -> impl Strategy<Value = WireConfig> {
        (
            usizes(),
            prop::option::of(reliabilities()),
            prop::option::of(faults()),
            prop::option::of(monitors()),
            prop::option::of((".{0,12}", (u64s(), any::<bool>()))),
        )
            .prop_map(|(channel_capacity, reliability, fault, monitor, durability)| WireConfig {
                channel_capacity,
                reliability,
                fault,
                monitor,
                durability,
            })
    }

    fn hellos() -> impl Strategy<Value = Hello> {
        (usizes(), ".{0,12}", u64s())
            .prop_map(|(worker, data_addr, fingerprint)| Hello { worker, data_addr, fingerprint })
    }

    fn wire_assignments() -> impl Strategy<Value = WireAssignment> {
        (wire_configs(), assignments(), prop::collection::vec(".{0,12}", 0..3), u64s()).prop_map(
            |(config, assignment, peers, fingerprint)| WireAssignment {
                config,
                assignment,
                peers,
                fingerprint,
            },
        )
    }

    fn worker_dones() -> impl Strategy<Value = WorkerDone> {
        (
            usizes(),
            prop::option::of(".{0,12}"),
            prop::collection::vec(windows(), 0..2),
            prop::collection::vec(flight_events(), 0..3),
            prop::collection::vec(spans(), 0..3),
        )
            .prop_map(|(worker, error, totals, flight, spans)| WorkerDone {
                worker,
                error,
                totals,
                flight,
                spans,
            })
    }

    #[test]
    fn every_link_message_codec_holds() {
        codec_holds(placements());
        codec_holds(assignments());
        codec_holds(reliabilities());
        codec_holds(faults());
        codec_holds(lineages());
        codec_holds(monitors());
        codec_holds(histograms());
        codec_holds(rule_profiles());
        codec_holds(windows());
        codec_holds(spans());
        codec_holds(flight_events());
        codec_holds(wire_configs());
        codec_holds(hellos());
        codec_holds(wire_assignments());
        codec_holds(worker_dones());
    }

    /// `Packet` / `Envelope` framing under the harness, shown by the fields
    /// that cross the wire.
    struct WirePacket(Packet<u64>);

    impl std::fmt::Debug for WirePacket {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let wire = |e: &Envelope<u64>| (*e.msg.as_inner(), e.tid, e.roots.clone());
            match &self.0 {
                Packet::Data(env) => write!(f, "Data({:?})", wire(env)),
                Packet::Batch(envs) => {
                    write!(f, "Batch({:?})", envs.iter().map(wire).collect::<Vec<_>>())
                }
                Packet::Eos => write!(f, "Eos"),
            }
        }
    }

    impl WireCodec for WirePacket {
        fn encode(&self, buf: &mut BytesMut) {
            encode_packet(&self.0, buf);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, DspsError> {
            Ok(WirePacket(decode_packet(r)?))
        }
    }

    #[test]
    fn packet_framing_codec_holds() {
        let envelope = || {
            (u64s(), u64s(), prop::collection::vec(u64s(), 0..3))
                .prop_map(|(msg, tid, roots)| Envelope::from_wire(msg, tid, roots))
        };
        let packets = (0u8..3, envelope(), prop::collection::vec(envelope(), 0..4)).prop_map(
            |(kind, one, many)| {
                WirePacket(match kind {
                    0 => Packet::Data(one),
                    1 => Packet::Batch(many),
                    _ => Packet::Eos,
                })
            },
        );
        codec_holds(packets);
    }
}
