//! Topology definition: spouts, bolts, parallelism, subscriptions.

use crate::error::DspsError;
use crate::grouping::Grouping;
use std::collections::{HashMap, HashSet};

/// Per-component parallelism (Figure 1): `tasks` instances of the user
/// code executed by `executors` threads. When `tasks > executors`, tasks
/// share executors pseudo-parallelly; `tasks < executors` is capped by
/// Storm to one executor per task, which we reject outright as a
/// configuration error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Instances of the user code.
    pub tasks: usize,
    /// Threads driving those instances.
    pub executors: usize,
}

impl Parallelism {
    /// `n` tasks on `n` executors — the "ideal" 1:1 configuration.
    pub fn of(n: usize) -> Self {
        Parallelism { tasks: n, executors: n }
    }

    fn validate(&self, component: &str) -> Result<(), DspsError> {
        if self.tasks == 0 || self.executors == 0 {
            return Err(DspsError::InvalidParallelism {
                component: component.to_string(),
                reason: "tasks and executors must be at least 1".into(),
            });
        }
        if self.executors > self.tasks {
            return Err(DspsError::InvalidParallelism {
                component: component.to_string(),
                reason: format!(
                    "executors ({}) cannot exceed tasks ({})",
                    self.executors, self.tasks
                ),
            });
        }
        Ok(())
    }
}

/// A spout: an input source feeding the topology.
///
/// `next` returns the next message or `None` when the source is exhausted,
/// at which point the runtime propagates end-of-stream downstream.
pub trait Spout<T>: Send {
    /// The next message, or `None` when the source is exhausted.
    fn next(&mut self) -> Option<T>;
}

/// Context passed to a bolt, carrying its task identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoltContext {
    /// Index of this task within its component, `0..tasks`.
    pub task_index: usize,
    /// Total tasks of this component.
    pub task_count: usize,
}

/// A bolt: a processing step.
pub trait Bolt<T>: Send {
    /// Called once before the first message.
    fn prepare(&mut self, _ctx: BoltContext) {}

    /// Processes one input message, emitting any number of outputs.
    fn process(&mut self, msg: T, emitter: &mut dyn crate::runtime::Emitter<T>);

    /// Called once when every upstream task has finished; a last chance to
    /// flush buffered state downstream.
    fn finish(&mut self, _emitter: &mut dyn crate::runtime::Emitter<T>) {}

    /// Serializes this bolt's full state for a durability snapshot
    /// ([`durability`](crate::durability)); `None` (the default) marks the
    /// bolt stateless, so no snapshot is ever written for it.
    ///
    /// The bytes are opaque to the runtime — the bolt alone defines the
    /// format, and [`restore_state`](Bolt::restore_state) must accept it.
    fn snapshot_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Appends the changelog records describing the state changes since
    /// the previous drain (typically: since the last processed tuple).
    /// The runtime calls this after every `process` when durability is on
    /// and persists the records in order. The default appends nothing.
    fn drain_changelog(&mut self, _out: &mut Vec<Vec<u8>>) {}

    /// Restores state recovered from disk: the last snapshot (if any)
    /// followed by the changelog records appended after it, in order.
    /// Called after [`prepare`](Bolt::prepare) — on a fresh submit that
    /// found prior state, and after a supervised post-panic restart.
    /// The default ignores recovery (stateless bolts restart empty).
    ///
    /// `Err` says why the recovered state was refused (it does not decode,
    /// or does not fit what `prepare` built) and must leave the bolt as
    /// `prepare` left it: the task then starts cold, and the runtime says
    /// so on the flight recorder.
    fn restore_state(
        &mut self,
        _snapshot: Option<&[u8]>,
        _changelog: &[Vec<u8>],
    ) -> Result<(), DspsError> {
        Ok(())
    }
}

/// Blanket impl: any `FnMut(T) -> Option<T>`-style closure can serve as a
/// simple 1-to-0/1 bolt via [`TopologyBuilder::add_map_bolt`].
pub(crate) struct MapBolt<T, F: FnMut(T) -> Option<T> + Send> {
    pub f: F,
    pub _marker: std::marker::PhantomData<T>,
}

impl<T: Send, F: FnMut(T) -> Option<T> + Send> Bolt<T> for MapBolt<T, F> {
    fn process(&mut self, msg: T, emitter: &mut dyn crate::runtime::Emitter<T>) {
        if let Some(out) = (self.f)(msg) {
            emitter.emit(out);
        }
    }
}

/// Factory producing one spout instance per spout task.
pub type SpoutFactory<T> = std::sync::Arc<dyn Fn(usize) -> Box<dyn Spout<T>> + Send + Sync>;
/// Factory producing one bolt instance per bolt task. Shared (`Arc`, not
/// `Box`) because the supervisor re-invokes it from executor threads to
/// restart a panicked task.
pub type BoltFactory<T> = std::sync::Arc<dyn Fn(usize) -> Box<dyn Bolt<T>> + Send + Sync>;

/// One subscription edge: `source` component feeding a bolt under a
/// grouping.
pub struct Subscription<T> {
    /// The upstream component.
    pub source: String,
    /// How that component's output distributes over this bolt's tasks.
    pub grouping: Grouping<T>,
}

pub(crate) struct SpoutDecl<T> {
    pub name: String,
    pub factory: SpoutFactory<T>,
    pub parallelism: Parallelism,
}

pub(crate) struct BoltDecl<T> {
    pub name: String,
    pub factory: BoltFactory<T>,
    pub parallelism: Parallelism,
    pub subscriptions: Vec<Subscription<T>>,
}

/// A validated topology, ready for submission to a
/// [`LocalCluster`](crate::runtime::LocalCluster).
pub struct Topology<T> {
    pub(crate) name: String,
    pub(crate) spouts: Vec<SpoutDecl<T>>,
    pub(crate) bolts: Vec<BoltDecl<T>>,
}

impl<T> Topology<T> {
    /// The topology's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total executors over all components — what the scheduler packs into
    /// worker processes.
    pub fn total_executors(&self) -> usize {
        self.spouts.iter().map(|s| s.parallelism.executors).sum::<usize>()
            + self.bolts.iter().map(|b| b.parallelism.executors).sum::<usize>()
    }

    /// Component names in declaration order (spouts first).
    pub fn component_names(&self) -> Vec<&str> {
        self.spouts
            .iter()
            .map(|s| s.name.as_str())
            .chain(self.bolts.iter().map(|b| b.name.as_str()))
            .collect()
    }
}

/// Builder for [`Topology`].
pub struct TopologyBuilder<T> {
    name: String,
    spouts: Vec<SpoutDecl<T>>,
    bolts: Vec<BoltDecl<T>>,
}

impl<T: Send + 'static> TopologyBuilder<T> {
    /// Starts a topology.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder { name: name.into(), spouts: Vec::new(), bolts: Vec::new() }
    }

    /// Declares a spout. `factory` is called once per task with the task
    /// index.
    pub fn add_spout(
        mut self,
        name: impl Into<String>,
        parallelism: Parallelism,
        factory: impl Fn(usize) -> Box<dyn Spout<T>> + Send + Sync + 'static,
    ) -> Self {
        self.spouts.push(SpoutDecl {
            name: name.into(),
            factory: std::sync::Arc::new(factory),
            parallelism,
        });
        self
    }

    /// Declares a bolt with its subscriptions.
    pub fn add_bolt(
        mut self,
        name: impl Into<String>,
        parallelism: Parallelism,
        subscriptions: Vec<(impl Into<String>, Grouping<T>)>,
        factory: impl Fn(usize) -> Box<dyn Bolt<T>> + Send + Sync + 'static,
    ) -> Self {
        self.bolts.push(BoltDecl {
            name: name.into(),
            factory: std::sync::Arc::new(factory),
            parallelism,
            subscriptions: subscriptions
                .into_iter()
                .map(|(source, grouping)| Subscription { source: source.into(), grouping })
                .collect(),
        });
        self
    }

    /// Declares a stateless 1-to-0/1 bolt from a cloneable closure — handy
    /// for pre-processing steps.
    pub fn add_map_bolt(
        self,
        name: impl Into<String>,
        parallelism: Parallelism,
        subscriptions: Vec<(impl Into<String>, Grouping<T>)>,
        f: impl Fn(T) -> Option<T> + Send + Sync + Clone + 'static,
    ) -> Self {
        self.add_bolt(name, parallelism, subscriptions, move |_| {
            Box::new(MapBolt { f: f.clone(), _marker: std::marker::PhantomData })
        })
    }

    /// Validates and finalizes the topology.
    ///
    /// Checks: at least one spout; unique names; parallelism sanity; every
    /// subscription names a declared component; spouts subscribe to
    /// nothing; the graph is acyclic; every bolt has at least one
    /// subscription.
    pub fn build(self) -> Result<Topology<T>, DspsError> {
        if self.spouts.is_empty() {
            return Err(DspsError::InvalidTopology { reason: "no spout declared".into() });
        }
        let mut names = HashSet::new();
        for n in self
            .spouts
            .iter()
            .map(|s| &s.name)
            .chain(self.bolts.iter().map(|b| &b.name))
        {
            if !names.insert(n.clone()) {
                return Err(DspsError::DuplicateComponent(n.clone()));
            }
        }
        for s in &self.spouts {
            s.parallelism.validate(&s.name)?;
        }
        for b in &self.bolts {
            b.parallelism.validate(&b.name)?;
            if b.subscriptions.is_empty() {
                return Err(DspsError::InvalidTopology {
                    reason: format!("bolt {} has no subscription", b.name),
                });
            }
            for sub in &b.subscriptions {
                if !names.contains(&sub.source) {
                    return Err(DspsError::UnknownComponent(sub.source.clone()));
                }
            }
        }
        // Cycle check: DFS over bolt→bolt edges.
        let mut edges: HashMap<&str, Vec<&str>> = HashMap::new();
        for b in &self.bolts {
            for sub in &b.subscriptions {
                edges.entry(sub.source.as_str()).or_default().push(b.name.as_str());
            }
        }
        let mut state: HashMap<&str, u8> = HashMap::new(); // 1=visiting, 2=done
        fn dfs<'a>(
            node: &'a str,
            edges: &HashMap<&'a str, Vec<&'a str>>,
            state: &mut HashMap<&'a str, u8>,
        ) -> Result<(), DspsError> {
            match state.get(node) {
                Some(1) => {
                    return Err(DspsError::Cycle { involving: node.to_string() });
                }
                Some(2) => return Ok(()),
                _ => {}
            }
            state.insert(node, 1);
            if let Some(next) = edges.get(node) {
                for n in next {
                    dfs(n, edges, state)?;
                }
            }
            state.insert(node, 2);
            Ok(())
        }
        for s in &self.spouts {
            dfs(s.name.as_str(), &edges, &mut state)?;
        }
        for b in &self.bolts {
            dfs(b.name.as_str(), &edges, &mut state)?;
        }
        Ok(Topology { name: self.name, spouts: self.spouts, bolts: self.bolts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullSpout;
    impl Spout<u32> for NullSpout {
        fn next(&mut self) -> Option<u32> {
            None
        }
    }

    fn spout(_: usize) -> Box<dyn Spout<u32>> {
        Box::new(NullSpout)
    }

    fn builder() -> TopologyBuilder<u32> {
        TopologyBuilder::new("t").add_spout("reader", Parallelism::of(2), spout)
    }

    #[test]
    fn valid_topology_builds() {
        let t = builder()
            .add_map_bolt(
                "double",
                Parallelism { tasks: 4, executors: 2 },
                vec![("reader", Grouping::Shuffle)],
                |x| Some(x * 2),
            )
            .add_map_bolt("sink", Parallelism::of(1), vec![("double", Grouping::All)], Some)
            .build()
            .unwrap();
        assert_eq!(t.total_executors(), 5);
        assert_eq!(t.component_names(), vec!["reader", "double", "sink"]);
    }

    #[test]
    fn requires_a_spout() {
        let err = TopologyBuilder::<u32>::new("t").build();
        assert!(matches!(err, Err(DspsError::InvalidTopology { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = builder()
            .add_map_bolt("reader", Parallelism::of(1), vec![("reader", Grouping::Shuffle)], Some)
            .build();
        assert!(matches!(err, Err(DspsError::DuplicateComponent(_))));
    }

    #[test]
    fn unknown_subscription_rejected() {
        let err = builder()
            .add_map_bolt("b", Parallelism::of(1), vec![("ghost", Grouping::Shuffle)], Some)
            .build();
        assert!(matches!(err, Err(DspsError::UnknownComponent(_))));
    }

    #[test]
    fn bolt_without_subscription_rejected() {
        let err = builder()
            .add_bolt(
                "b",
                Parallelism::of(1),
                Vec::<(String, Grouping<u32>)>::new(),
                |_| {
                    Box::new(MapBolt { f: Some, _marker: std::marker::PhantomData })
                        as Box<dyn Bolt<u32>>
                },
            )
            .build();
        assert!(matches!(err, Err(DspsError::InvalidTopology { .. })));
    }

    #[test]
    fn cycles_rejected() {
        let err = builder()
            .add_map_bolt("a", Parallelism::of(1), vec![("reader", Grouping::Shuffle), ("b", Grouping::Shuffle)], Some)
            .add_map_bolt("b", Parallelism::of(1), vec![("a", Grouping::Shuffle)], Some)
            .build();
        assert!(matches!(err, Err(DspsError::Cycle { .. })));
    }

    #[test]
    fn parallelism_validation() {
        let err = builder()
            .add_map_bolt(
                "b",
                Parallelism { tasks: 1, executors: 2 },
                vec![("reader", Grouping::Shuffle)],
                Some,
            )
            .build();
        assert!(matches!(err, Err(DspsError::InvalidParallelism { .. })));
        let err = builder()
            .add_map_bolt(
                "b",
                Parallelism { tasks: 0, executors: 0 },
                vec![("reader", Grouping::Shuffle)],
                Some,
            )
            .build();
        assert!(matches!(err, Err(DspsError::InvalidParallelism { .. })));
    }
}
