//! A miniature MapReduce execution engine (Section 2.1.3 of the paper).
//!
//! `map(k1, v1) → [k2, v2]`, `reduce(k2, [v2]) → [k3, v3]` — as in the
//! paper's formulation. Input records are text lines read from the
//! [`Dfs`]; each input split (one per DFS block) becomes
//! one map task; intermediate pairs are hash-partitioned into `reducers`
//! partitions, and each partition becomes one reduce task, which sorts
//! and groups its pairs by key itself. Map and reduce tasks run on a pool
//! of worker threads.
//!
//! With a [`Combiner`] a map task folds every pair into its per-key
//! partial as the mapper emits it (in-mapper combining), so one pair per
//! (map task, key) crosses the shuffle and no pair list is ever built.
//!
//! Determinism: a reduce task concatenates its partition's runs in
//! map-task order and sorts them stably by key, so every key's values
//! reach the reducer in (map task, emission) order however the tasks were
//! scheduled — and with a combiner, each partial folded its values in
//! record order. Float reductions repeat bit for bit.

use crate::dfs::Dfs;
use crate::error::BatchError;
use crossbeam::channel;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// The map side of a job.
///
/// `map` is called once per input record (a text line, stripped of its
/// newline) and emits intermediate pairs through `emit`.
pub trait Mapper: Sync {
    /// Intermediate key type.
    type Key: Ord + Hash + Send;
    /// Intermediate value type.
    type Value: Send;

    /// Processes one input record, emitting intermediate pairs.
    fn map(&self, record: &str, emit: &mut dyn FnMut(Self::Key, Self::Value));
}

/// The reduce side of a job.
///
/// `reduce` is called once per distinct intermediate key with all of the
/// key's values, and emits output pairs through `emit`.
pub trait Reducer<K, V>: Sync {
    /// Output key type.
    type OutKey: Send;
    /// Output value type.
    type OutValue: Send;

    /// Folds one key's values into output pairs.
    fn reduce(
        &self,
        key: &K,
        values: &[V],
        emit: &mut dyn FnMut(Self::OutKey, Self::OutValue),
    );
}

/// An optional map-side combiner, run as an in-mapper fold: each map task
/// keeps one partial per key, starting at [`Combiner::zero`], and folds
/// every value the mapper emits for the key into it, in emission order.
/// The partials are what crosses the shuffle — Hadoop's classic
/// optimisation, for values that merge associatively like the statistics
/// job's (count, sum, sum-of-squares) triples.
pub trait Combiner<V>: Sync {
    /// The partial a key's fold starts from.
    fn zero(&self) -> V;
    /// Folds one emitted value into its key's partial.
    fn fold(&self, partial: &mut V, value: V);
}

/// Job configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of reduce tasks (and output partitions).
    pub reducers: usize,
    /// Number of worker threads executing tasks.
    pub workers: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig { reducers: 4, workers: 4 }
    }
}

/// Execution statistics for a finished job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Map tasks executed (one per input split).
    pub map_tasks: usize,
    /// Reduce tasks executed (= output partitions).
    pub reduce_tasks: usize,
    /// Input records consumed.
    pub input_records: u64,
    /// Pairs that crossed the shuffle (post-combiner).
    pub intermediate_pairs: u64,
    /// Output pairs produced.
    pub output_pairs: u64,
}

fn partition_of<K: Hash>(key: &K, reducers: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

/// The output of a job: one `Vec` of `(key, value)` pairs per reduce
/// partition, like Hadoop part files.
pub type JobOutput<K, V> = Vec<Vec<(K, V)>>;

/// A finished job: its outputs plus execution statistics.
pub type JobResult<K, V> = (JobOutput<K, V>, JobStats);

/// One map task's pairs for one partition, tagged with the task's index:
/// the canonical merge order of the shuffle.
type Run<K, V> = (usize, Vec<(K, V)>);

/// Runs a MapReduce job over the given DFS input files.
///
/// Returns the output pairs of every reduce partition (partition index →
/// pairs) together with execution statistics. Outputs inside a partition
/// follow the sorted key order, like Hadoop part files.
pub fn run_job<M, R, C>(
    dfs: &Dfs,
    inputs: &[&str],
    mapper: &M,
    reducer: &R,
    combiner: Option<&C>,
    config: JobConfig,
) -> Result<JobResult<R::OutKey, R::OutValue>, BatchError>
where
    M: Mapper,
    R: Reducer<M::Key, M::Value>,
    C: Combiner<M::Value>,
{
    if config.reducers == 0 {
        return Err(BatchError::InvalidJobConfig { reason: "reducers must be > 0".into() });
    }
    if config.workers == 0 {
        return Err(BatchError::InvalidJobConfig { reason: "workers must be > 0".into() });
    }

    // Input splits: one per DFS block, line-aligned.
    let mut splits: Vec<String> = Vec::new();
    for path in inputs {
        splits.extend(dfs.read_line_splits(path)?);
    }
    let map_tasks = splits.len();

    // ---- Map phase -------------------------------------------------------
    // Workers pull splits from a channel; each task produces one run per
    // partition, tagged with the task's index.
    let (split_tx, split_rx) = channel::unbounded::<(usize, String)>();
    for (i, s) in splits.into_iter().enumerate() {
        split_tx.send((i, s)).expect("channel open");
    }
    drop(split_tx);

    // Per worker: each of its tasks' (index, runs), and the records it read.
    let map_results: Vec<(Vec<_>, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..config.workers.min(map_tasks.max(1)) {
            let split_rx = split_rx.clone();
            handles.push(scope.spawn(move || {
                let mut tasks = Vec::new();
                let mut records = 0u64;
                // Reused across this worker's tasks: drained per task.
                let mut partials: HashMap<M::Key, M::Value> = HashMap::new();
                while let Ok((task_id, split)) = split_rx.recv() {
                    let mut partitions: Vec<Vec<(M::Key, M::Value)>> =
                        (0..config.reducers).map(|_| Vec::new()).collect();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut emit = |k: M::Key, v: M::Value| match combiner {
                            Some(c) => c.fold(partials.entry(k).or_insert_with(|| c.zero()), v),
                            None => partitions[partition_of(&k, config.reducers)].push((k, v)),
                        };
                        for line in split.lines() {
                            records += 1;
                            mapper.map(line, &mut emit);
                        }
                    }));
                    result.map_err(|e| BatchError::TaskFailed {
                        task: format!("map-{task_id} (worker {worker})"),
                        reason: panic_message(e.as_ref()),
                    })?;
                    for (k, v) in partials.drain() {
                        partitions[partition_of(&k, config.reducers)].push((k, v));
                    }
                    tasks.push((task_id, partitions));
                }
                Ok::<_, BatchError>((tasks, records))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker threads do not panic"))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let mut stats = JobStats {
        map_tasks,
        reduce_tasks: config.reducers,
        ..JobStats::default()
    };

    // ---- Shuffle ---------------------------------------------------------
    // Hand each partition its runs: moves of whole vectors, no per-pair
    // work here. Sorting and grouping is the reduce tasks' own.
    let mut runs: Vec<Vec<Run<M::Key, M::Value>>> =
        (0..config.reducers).map(|_| Vec::new()).collect();
    for (tasks, records) in map_results {
        stats.input_records += records;
        for (task_id, partitions) in tasks {
            for (p, pairs) in partitions.into_iter().enumerate() {
                stats.intermediate_pairs += pairs.len() as u64;
                runs[p].push((task_id, pairs));
            }
        }
    }

    // ---- Reduce phase ----------------------------------------------------
    let (task_tx, task_rx) = channel::unbounded::<(usize, Vec<Run<M::Key, M::Value>>)>();
    for (p, partition) in runs.into_iter().enumerate() {
        task_tx.send((p, partition)).expect("channel open");
    }
    drop(task_tx);

    type ReduceOuts<K, V> = Vec<(usize, Vec<(K, V)>)>;
    let reduce_results: Vec<ReduceOuts<R::OutKey, R::OutValue>> =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..config.workers.min(config.reducers) {
                let task_rx = task_rx.clone();
                handles.push(scope.spawn(
                    move || -> Result<ReduceOuts<R::OutKey, R::OutValue>, BatchError> {
                        let mut outs = Vec::new();
                        while let Ok((p, runs)) = task_rx.recv() {
                            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || reduce_partition(reducer, runs),
                            ));
                            let out = result.map_err(|e| BatchError::TaskFailed {
                                task: format!("reduce-{p}"),
                                reason: panic_message(e.as_ref()),
                            })?;
                            outs.push((p, out));
                        }
                        Ok(outs)
                    },
                ));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker threads do not panic"))
                .collect::<Result<Vec<_>, _>>()
        })?;

    let mut outputs: Vec<Vec<(R::OutKey, R::OutValue)>> =
        (0..config.reducers).map(|_| Vec::new()).collect();
    for worker_outs in reduce_results {
        for (p, out) in worker_outs {
            stats.output_pairs += out.len() as u64;
            outputs[p] = out;
        }
    }
    Ok((outputs, stats))
}

/// One reduce task: concatenates the partition's runs in map-task order,
/// sorts the pairs stably by key — so a key's values stay in (map task,
/// emission) order — and hands each key's values to the reducer.
fn reduce_partition<K: Ord, V, R: Reducer<K, V>>(
    reducer: &R,
    mut runs: Vec<Run<K, V>>,
) -> Vec<(R::OutKey, R::OutValue)> {
    runs.sort_unstable_by_key(|(task_id, _)| *task_id);
    let mut pairs = Vec::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
    for (_, run) in runs {
        pairs.extend(run);
    }
    pairs.sort_by(|(a, _), (b, _)| a.cmp(b));

    let mut out = Vec::new();
    let mut pairs = pairs.into_iter();
    let Some((mut key, first)) = pairs.next() else { return out };
    let mut values = vec![first];
    for (k, v) in pairs {
        if k != key {
            reducer.reduce(&key, &values, &mut |ok, ov| out.push((ok, ov)));
            values.clear();
            key = k;
        }
        values.push(v);
    }
    reducer.reduce(&key, &values, &mut |ok, ov| out.push((ok, ov)));
    out
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// The combiner of jobs that do not use one; pass `None::<&NoCombiner>`
/// to [`run_job`]. It has no values, so it is never called.
pub enum NoCombiner {}

impl<V> Combiner<V> for NoCombiner {
    fn zero(&self) -> V {
        match *self {}
    }
    fn fold(&self, _partial: &mut V, _value: V) {
        match *self {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use std::collections::BTreeMap;

    struct WordMapper;
    impl Mapper for WordMapper {
        type Key = String;
        type Value = u64;
        fn map(&self, record: &str, emit: &mut dyn FnMut(String, u64)) {
            for w in record.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }
    }

    struct SumReducer;
    impl Reducer<String, u64> for SumReducer {
        type OutKey = String;
        type OutValue = u64;
        fn reduce(&self, key: &String, values: &[u64], emit: &mut dyn FnMut(String, u64)) {
            emit(key.clone(), values.iter().sum());
        }
    }

    /// Sums, for the word counts and the float sums alike.
    struct SumCombiner;
    impl<T: Default + std::ops::AddAssign> Combiner<T> for SumCombiner {
        fn zero(&self) -> T {
            T::default()
        }
        fn fold(&self, partial: &mut T, value: T) {
            *partial += value;
        }
    }

    fn dfs_with(text: &str) -> Dfs {
        let dfs = Dfs::new(DfsConfig { block_size: 32, replication: 1, datanodes: 2 }).unwrap();
        dfs.create("/in", text.as_bytes()).unwrap();
        dfs
    }

    fn collect(outputs: Vec<Vec<(String, u64)>>) -> BTreeMap<String, u64> {
        outputs.into_iter().flatten().collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let dfs = dfs_with("the quick brown fox\nthe lazy dog\nthe fox again\n");
        let (out, stats) = run_job(
            &dfs,
            &["/in"],
            &WordMapper,
            &SumReducer,
            None::<&NoCombiner>,
            JobConfig { reducers: 3, workers: 2 },
        )
        .unwrap();
        let counts = collect(out);
        assert_eq!(counts["the"], 3);
        assert_eq!(counts["fox"], 2);
        assert_eq!(counts["dog"], 1);
        assert_eq!(stats.input_records, 3);
        assert!(stats.map_tasks >= 2, "small blocks force multiple map tasks");
        assert_eq!(stats.reduce_tasks, 3);
    }

    #[test]
    fn combiner_preserves_results_and_cuts_traffic() {
        let text = "a a a a a a a a\nb b b b\n".repeat(10);
        let dfs = dfs_with(&text);
        let cfg = JobConfig { reducers: 2, workers: 3 };
        let (out_plain, stats_plain) =
            run_job(&dfs, &["/in"], &WordMapper, &SumReducer, None::<&NoCombiner>, cfg).unwrap();
        let (out_comb, stats_comb) =
            run_job(&dfs, &["/in"], &WordMapper, &SumReducer, Some(&SumCombiner), cfg).unwrap();
        assert_eq!(collect(out_plain), collect(out_comb));
        assert!(
            stats_comb.intermediate_pairs < stats_plain.intermediate_pairs,
            "combiner must shrink the shuffle ({} vs {})",
            stats_comb.intermediate_pairs,
            stats_plain.intermediate_pairs
        );
    }

    #[test]
    fn multiple_input_files() {
        let dfs = dfs_with("x y\n");
        dfs.create("/in2", b"x z\n").unwrap();
        let (out, _) = run_job(
            &dfs,
            &["/in", "/in2"],
            &WordMapper,
            &SumReducer,
            None::<&NoCombiner>,
            JobConfig::default(),
        )
        .unwrap();
        let counts = collect(out);
        assert_eq!(counts["x"], 2);
        assert_eq!(counts["y"], 1);
        assert_eq!(counts["z"], 1);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let dfs = dfs_with("");
        let (out, stats) = run_job(
            &dfs,
            &["/in"],
            &WordMapper,
            &SumReducer,
            None::<&NoCombiner>,
            JobConfig::default(),
        )
        .unwrap();
        assert!(collect(out).is_empty());
        assert_eq!(stats.input_records, 0);
        assert_eq!(stats.map_tasks, 0);
    }

    #[test]
    fn missing_input_is_an_error() {
        let dfs = dfs_with("x\n");
        let err = run_job(
            &dfs,
            &["/does-not-exist"],
            &WordMapper,
            &SumReducer,
            None::<&NoCombiner>,
            JobConfig::default(),
        );
        assert!(matches!(err, Err(BatchError::FileNotFound(_))));
    }

    #[test]
    fn invalid_config_rejected() {
        let dfs = dfs_with("x\n");
        for cfg in [
            JobConfig { reducers: 0, workers: 1 },
            JobConfig { reducers: 1, workers: 0 },
        ] {
            let err =
                run_job(&dfs, &["/in"], &WordMapper, &SumReducer, None::<&NoCombiner>, cfg);
            assert!(matches!(err, Err(BatchError::InvalidJobConfig { .. })));
        }
    }

    struct PanickyMapper;
    impl Mapper for PanickyMapper {
        type Key = String;
        type Value = u64;
        fn map(&self, record: &str, _emit: &mut dyn FnMut(String, u64)) {
            if record.contains("boom") {
                panic!("bad record: {record}");
            }
        }
    }

    #[test]
    fn mapper_panic_becomes_task_failure() {
        let dfs = dfs_with("fine\nboom here\n");
        let err = run_job(
            &dfs,
            &["/in"],
            &PanickyMapper,
            &SumReducer,
            None::<&NoCombiner>,
            JobConfig { reducers: 1, workers: 1 },
        );
        match err {
            Err(BatchError::TaskFailed { task, reason }) => {
                assert!(task.starts_with("map-"));
                assert!(reason.contains("bad record"));
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    /// Float-summing reducer whose output exposes merge order: summing the
    /// same multiset of doubles in different orders flips low bits.
    struct FloatMapper;
    impl Mapper for FloatMapper {
        type Key = String;
        type Value = f64;
        fn map(&self, record: &str, emit: &mut dyn FnMut(String, f64)) {
            for (i, w) in record.split_whitespace().enumerate() {
                if let Ok(v) = w.parse::<f64>() {
                    emit(format!("k{}", i % 3), v);
                }
            }
        }
    }
    struct FloatSumReducer;
    impl Reducer<String, f64> for FloatSumReducer {
        type OutKey = String;
        type OutValue = f64;
        fn reduce(&self, key: &String, values: &[f64], emit: &mut dyn FnMut(String, f64)) {
            emit(key.clone(), values.iter().sum());
        }
    }

    #[test]
    fn float_reduction_is_byte_identical_across_runs() {
        // Many small splits + more workers than splits maximizes scheduling
        // freedom; irrational-ish values make the sum order-sensitive in the
        // low mantissa bits. The task-ordered shuffle must erase all of it,
        // with and without the in-mapper fold.
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("{} {} {}\n", (i as f64).sqrt(), 1.0 / (i + 1) as f64, i));
        }
        let dfs = dfs_with(&text);
        let cfg = JobConfig { reducers: 3, workers: 8 };
        let run = |combiner: Option<&SumCombiner>| -> Vec<Vec<(String, u64)>> {
            let (out, _) =
                run_job(&dfs, &["/in"], &FloatMapper, &FloatSumReducer, combiner, cfg).unwrap();
            out.into_iter()
                .map(|p| p.into_iter().map(|(k, v)| (k, v.to_bits())).collect())
                .collect()
        };
        for combiner in [None, Some(&SumCombiner)] {
            let reference = run(combiner);
            for _ in 0..10 {
                assert_eq!(run(combiner), reference, "shuffle order leaked into float sums");
            }
        }
    }

    #[test]
    fn same_key_lands_in_one_partition() {
        // Statistical sanity for the hash partitioner: every occurrence of
        // a key must reduce together (already implied by word_count, but
        // assert the partition function is deterministic).
        for reducers in [1, 2, 7] {
            let p1 = partition_of(&"delay-R17-8", reducers);
            let p2 = partition_of(&"delay-R17-8", reducers);
            assert_eq!(p1, p2);
            assert!(p1 < reducers);
        }
    }
}
