//! The data-plane microbenchmark topology that the throughput and
//! tracing-overhead snapshots share.

use std::time::Instant;
use tms_dsps::runtime::{LocalCluster, RuntimeConfig};
use tms_dsps::scheduler::ClusterSpec;
use tms_dsps::topology::{Parallelism, TopologyBuilder};
use tms_dsps::Grouping;

/// A spout emitting `make(v)` for `v` in `next..end`.
struct CountSpout<M> {
    next: u64,
    end: u64,
    make: fn(u64) -> M,
}

impl<M> tms_dsps::Spout<M> for CountSpout<M> {
    fn next(&mut self) -> Option<M> {
        (self.next < self.end).then(|| {
            self.next += 1;
            (self.make)(self.next - 1)
        })
    }
}

/// A terminal bolt that runs `work` on every message and emits nothing.
struct SinkBolt<M>(fn(M) -> u64);

impl<M> tms_dsps::Bolt<M> for SinkBolt<M> {
    fn process(&mut self, msg: M, _e: &mut dyn tms_dsps::Emitter<M>) {
        std::hint::black_box((self.0)(msg));
    }
}

/// Seconds to push `tuples` source tuples through 1 spout task → 4
/// null-sink tasks under `grouping` ("shuffle", "fields" or "all").
pub fn sink_topology_secs(tuples: u64, grouping: &str, cfg: RuntimeConfig) -> f64 {
    #[derive(Clone)]
    struct Msg {
        key: u64,
        value: u64,
    }
    let grouping: Grouping<Msg> = match grouping {
        "shuffle" => Grouping::Shuffle,
        "fields" => Grouping::fields_hashed(|m: &Msg| m.key),
        "all" => Grouping::All,
        other => unreachable!("unknown grouping {other}"),
    };
    let t = TopologyBuilder::new("bench")
        .add_spout("src", Parallelism::of(1), move |_| {
            Box::new(CountSpout { next: 0, end: tuples, make: |v| Msg { key: v % 13, value: v } })
        })
        .add_bolt("sink", Parallelism::of(4), vec![("src", grouping)], |_| {
            Box::new(SinkBolt(|m: Msg| m.value))
        })
        .build()
        .expect("bench topology builds");
    let cluster = LocalCluster::new(ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 4 })
        .expect("cluster spec is valid");
    let t0 = Instant::now();
    cluster.submit(t, cfg).expect("submit").join().expect("bench run completes");
    t0.elapsed().as_secs_f64()
}
