//! The paper's contribution: a scalable and dynamic traffic management
//! system combining a Storm-style DSPS ([`tms_dsps`]), Esper-style CEP
//! engines ([`tms_cep`]) and a Hadoop-style batch layer ([`tms_batch`]).
//!
//! Module map, following Section 4's decomposition:
//!
//! **Off-line computation** (Section 4.1)
//! * [`offline`] — spatial indexing (quadtree over route seed points),
//!   bus-stop recovery (DENCLUE + angle sub-clustering), the MapReduce
//!   statistics job computing per-(attribute, location, hour, day-type)
//!   mean/stdv, and publication to the threshold store;
//! * [`latency`] — the engine-latency estimation model (Section 4.1.4,
//!   Figure 7): polynomial regression and the three functions — rule
//!   latency from `(window, thresholds)`, engine latency from co-resident
//!   rules, and node-level inflation from co-located engines.
//!
//! **Start-up optimization** (Section 4.2)
//! * [`partitioning`] — Algorithm 1: split one rule's spatial locations
//!   over its engines so every engine receives about the same input rate;
//! * [`allocation`] — Algorithm 2: greedily hand engines to rule
//!   *groupings* (sets of quadtree layers) maximizing the weighted score
//!   of Equations 1–2, plus the paper's baselines (round-robin,
//!   all-grouping, all-rules).
//!
//! **On-line processing** (Section 4.3)
//! * [`rules`] — the generic rule template (Section 3.3, Listing 1,
//!   Table 6) and its EPL instantiation;
//! * [`thresholds`] — the three threshold-retrieval methods of
//!   Section 4.3.1 (join-with-database, multiple rules, threshold stream),
//!   dynamic rule refresh, and an engine's migratable and durable state
//!   with its codec;
//! * [`topology`] — the components of the Figure 8 topology (BusReader
//!   spout → PreProcess → AreaTracker → BusStopsTracker → Splitter → Esper
//!   bolts → EventsStorer);
//! * [`xml_topology`] — their wiring as a spec (the default one, or a
//!   deployment's XML) and the one builder that resolves it;
//! * [`kappa`] — the in-stream statistics path: a StatsBolt that folds
//!   the batch job's per-cell moments into the stream and refreshes the
//!   engines' thresholds without a database round trip;
//! * [`system`] — the end-to-end facade tying the three components
//!   together.

pub mod allocation;
// One decode-hardening harness for every `WireCodec` type, shared with
// `tms-dsps`'s tests by path (a test-only file cannot be a dependency).
#[cfg(test)]
#[path = "../../dsps/src/codec_harness.rs"]
mod codec_harness;
pub mod error;
pub mod kappa;
pub mod latency;
pub mod offline;
pub mod partitioning;
pub mod rules;
pub mod system;
pub mod thresholds;
pub mod topology;
pub mod xml_topology;

pub use error::CoreError;
pub use kappa::{KappaConfig, StatsBolt};
pub use latency::{EstimationModel, PolyModel};
pub use offline::{OfflineArtifacts, OfflineConfig};
pub use partitioning::{partition_rule, Partition, RegionRate};
pub use rules::{LocationSelector, RuleSpec, SpatialContext};
pub use system::{
    CalibrationReport, ElasticConfig, EngineDrift, PlannerDriftReport, RuleObservedLoad,
    SystemConfig, TrafficSystem,
};
