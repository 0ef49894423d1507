//! Batch-processing substrate: a MapReduce framework over a distributed-
//! filesystem analogue (the paper's Hadoop + HDFS layer, Section 2.1.3).
//!
//! The paper uses Hadoop for exactly one thing — periodically recomputing
//! per-(location, hour, day-type) statistics over the historical bus
//! traces stored in HDFS (Section 4.1.3) — but the framework here is a
//! faithful general-purpose miniature:
//!
//! * [`dfs`] — a block-structured filesystem: files are sequences of
//!   fixed-size blocks, each block placed on a configurable number of
//!   simulated datanodes (replication), with line-oriented readers so map
//!   tasks can each consume one block, exactly like HDFS input splits;
//! * [`mapreduce`] — `Mapper`/`Reducer`/`Combiner` traits and a job runner
//!   that executes map tasks in parallel (one per input block), folding
//!   each emitted pair into its task's per-key partial when the job has a
//!   combiner, hash-partitions the pairs into a user-defined number of
//!   reduce tasks, each of which sorts and groups its own partition, runs
//!   the reducers in parallel and returns the outputs.

pub mod dfs;
pub mod error;
pub mod mapreduce;

pub use dfs::{Dfs, DfsConfig, FileStatus};
pub use error::BatchError;
pub use mapreduce::{run_job, Combiner, JobConfig, JobStats, Mapper, Reducer};
