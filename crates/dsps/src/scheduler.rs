//! Executor → worker process → node assignment.
//!
//! Storm's default scheduler assigns a topology's executors to its worker
//! processes round-robin, and worker processes occupy *slots* on cluster
//! nodes (Section 2.1.1). Following \[35\] (cited in Section 2.2), the
//! number of worker processes should equal the number of nodes to minimize
//! inter-process traffic — the paper adopts that policy and so does
//! [`ClusterSpec::default_workers`].

use crate::error::DspsError;

/// Description of the physical (simulated) cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of worker nodes (the paper's VMs; Nimbus runs elsewhere).
    pub nodes: usize,
    /// Worker slots per node.
    pub slots_per_node: usize,
    /// CPU cores per node (1 in the paper's VMs); used by the simulator's
    /// contention model and surfaced here for reporting.
    pub cores_per_node: usize,
}

impl ClusterSpec {
    /// Validates the spec.
    pub fn validate(&self) -> Result<(), DspsError> {
        if self.nodes == 0 || self.slots_per_node == 0 || self.cores_per_node == 0 {
            return Err(DspsError::InvalidCluster {
                reason: "nodes, slots_per_node and cores_per_node must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The paper's policy: one worker process per node.
    pub fn default_workers(&self) -> usize {
        self.nodes
    }

    /// Total worker slots.
    pub fn total_slots(&self) -> usize {
        self.nodes * self.slots_per_node
    }
}

impl Default for ClusterSpec {
    /// The paper's evaluation cluster: 7 single-core VMs (Section 5).
    fn default() -> Self {
        ClusterSpec { nodes: 7, slots_per_node: 1, cores_per_node: 1 }
    }
}

/// One executor's placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorPlacement {
    /// Component this executor belongs to.
    pub component: String,
    /// Executor index within the component.
    pub executor_index: usize,
    /// Task indices driven by this executor.
    pub tasks: Vec<usize>,
    /// Worker process hosting the executor.
    pub worker: usize,
    /// Node hosting that worker.
    pub node: usize,
}

/// A computed assignment of a topology onto a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Every executor's placement.
    pub placements: Vec<ExecutorPlacement>,
    /// Worker processes used.
    pub workers: usize,
    /// Cluster nodes available.
    pub nodes: usize,
}

impl Assignment {
    /// Executors per node, indexed by node.
    pub fn executors_per_node(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes];
        for p in &self.placements {
            counts[p.node] += 1;
        }
        counts
    }

    /// Placements of one component.
    pub fn component_placements(&self, component: &str) -> Vec<&ExecutorPlacement> {
        self.placements.iter().filter(|p| p.component == component).collect()
    }
}

/// Distributes a component's `tasks` over its `executors` as evenly as
/// possible, in order — Figure 1's task→executor packing.
///
/// `executors == 0` yields an empty packing (no executors to fill) rather
/// than dividing by zero; topology validation rejects the configuration
/// long before scheduling, but this function is public and must hold up
/// on its own.
pub fn pack_tasks(tasks: usize, executors: usize) -> Vec<Vec<usize>> {
    if executors == 0 {
        return Vec::new();
    }
    let mut out = vec![Vec::new(); executors];
    for t in 0..tasks {
        out[t % executors].push(t);
    }
    out
}

/// Assigns executors to workers round-robin and workers to nodes
/// round-robin — Storm's default scheduler.
///
/// `components` lists `(name, tasks, executors)` in topology order.
pub fn assign(
    components: &[(&str, usize, usize)],
    cluster: ClusterSpec,
    workers: usize,
) -> Result<Assignment, DspsError> {
    cluster.validate()?;
    if workers == 0 {
        return Err(DspsError::InvalidCluster { reason: "workers must be at least 1".into() });
    }
    if workers > cluster.total_slots() {
        return Err(DspsError::InsufficientSlots {
            requested: workers,
            available: cluster.total_slots(),
        });
    }
    let mut placements = Vec::new();
    let mut next_worker = 0usize;
    for &(name, tasks, executors) in components {
        let packed = pack_tasks(tasks, executors);
        for (ei, task_list) in packed.into_iter().enumerate() {
            let worker = next_worker % workers;
            next_worker += 1;
            placements.push(ExecutorPlacement {
                component: name.to_string(),
                executor_index: ei,
                tasks: task_list,
                worker,
                // Workers fill node slots round-robin: worker w sits on
                // node w % nodes (one worker per node when workers ==
                // nodes, the paper's configuration).
                node: worker % cluster.nodes,
            });
        }
    }
    Ok(Assignment { placements, workers, nodes: cluster.nodes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_tasks_balances() {
        assert_eq!(pack_tasks(4, 2), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(pack_tasks(3, 3), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(pack_tasks(5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn pack_tasks_zero_executors_yields_empty_packing() {
        // Regression: this used to panic with a division by zero.
        assert_eq!(pack_tasks(5, 0), Vec::<Vec<usize>>::new());
        assert_eq!(pack_tasks(0, 0), Vec::<Vec<usize>>::new());
        assert_eq!(pack_tasks(0, 2), vec![Vec::<usize>::new(), Vec::new()]);
    }

    #[test]
    fn round_robin_assignment_spreads_engines_evenly() {
        // The paper's concern: each node must get about the same number of
        // Esper engines. 8 engine executors over 4 workers on 4 nodes.
        let cluster = ClusterSpec { nodes: 4, slots_per_node: 1, cores_per_node: 1 };
        let a = assign(&[("esper", 8, 8)], cluster, 4).unwrap();
        assert_eq!(a.executors_per_node(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn mixed_components_interleave() {
        let cluster = ClusterSpec { nodes: 2, slots_per_node: 2, cores_per_node: 1 };
        let a = assign(&[("spout", 2, 2), ("bolt", 3, 3)], cluster, 2).unwrap();
        assert_eq!(a.placements.len(), 5);
        // Round-robin: workers alternate 0,1,0,1,0.
        let workers: Vec<usize> = a.placements.iter().map(|p| p.worker).collect();
        assert_eq!(workers, vec![0, 1, 0, 1, 0]);
        assert_eq!(a.component_placements("bolt").len(), 3);
    }

    #[test]
    fn insufficient_slots_detected() {
        let cluster = ClusterSpec { nodes: 2, slots_per_node: 1, cores_per_node: 1 };
        let err = assign(&[("s", 1, 1)], cluster, 3);
        assert!(matches!(err, Err(DspsError::InsufficientSlots { .. })));
    }

    #[test]
    fn invalid_cluster_rejected() {
        let bad = ClusterSpec { nodes: 0, slots_per_node: 1, cores_per_node: 1 };
        assert!(bad.validate().is_err());
        assert!(assign(&[], bad, 1).is_err());
        let ok = ClusterSpec::default();
        assert!(matches!(
            assign(&[], ok, 0),
            Err(DspsError::InvalidCluster { .. })
        ));
    }

    #[test]
    fn paper_default_cluster() {
        let c = ClusterSpec::default();
        assert_eq!(c.nodes, 7);
        assert_eq!(c.default_workers(), 7);
    }
}
