//! Workflows — DAGs of inter-dependent jobs with completion deadlines.
//!
//! §3.1.3: analytics queries compile into chains of batch jobs where one
//! job's output feeds the next. A [`Workflow`] is a directed acyclic graph
//! over job ids plus a tenant deadline; CAST++ optimises each workflow's
//! data placement to minimise cost subject to that deadline (Eq. 8–9),
//! traversing the DAG depth-first when exploring neighbours. It scores
//! against the whole plan's pooled capacities, not Eq. 10's per-workflow
//! ones (see `cast_solver::castpp`).

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

use cast_cloud::units::Duration;

use crate::error::WorkloadError;
use crate::job::JobId;

/// Identifier of a workflow within a workload.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct WorkflowId(pub u32);

impl fmt::Display for WorkflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wf{}", self.0)
    }
}

/// A DAG of jobs with a completion deadline.
///
/// ```
/// use cast_cloud::units::Duration;
/// use cast_workload::job::JobId;
/// use cast_workload::workflow::{Workflow, WorkflowId};
///
/// let wf = Workflow::chain(
///     WorkflowId(0),
///     vec![JobId(0), JobId(1), JobId(2)],
///     Duration::from_mins(30.0),
/// );
/// assert!(wf.validate().is_ok());
/// assert_eq!(wf.topo_order().unwrap(), vec![JobId(0), JobId(1), JobId(2)]);
/// assert_eq!(wf.roots(), vec![JobId(0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    /// Identifier, unique within a workload.
    pub id: WorkflowId,
    /// Member jobs. Order is insertion order; use [`Workflow::topo_order`]
    /// for a dependency-respecting order.
    pub jobs: Vec<JobId>,
    /// Directed edges `(producer, consumer)`: the consumer reads (part of)
    /// the producer's output.
    pub edges: Vec<(JobId, JobId)>,
    /// Completion-time limit from first job start to last job finish.
    pub deadline: Duration,
}

impl Workflow {
    /// Create an empty workflow with a deadline.
    pub fn new(id: WorkflowId, deadline: Duration) -> Workflow {
        Workflow {
            id,
            jobs: Vec::new(),
            edges: Vec::new(),
            deadline,
        }
    }

    /// Create a simple linear chain `jobs[0] → jobs[1] → …`.
    pub fn chain(id: WorkflowId, jobs: Vec<JobId>, deadline: Duration) -> Workflow {
        let edges = jobs.windows(2).map(|w| (w[0], w[1])).collect();
        Workflow {
            id,
            jobs,
            edges,
            deadline,
        }
    }

    /// Validate that all edges reference member jobs and the graph is
    /// acyclic.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let members: HashSet<JobId> = self.jobs.iter().copied().collect();
        for &(a, b) in &self.edges {
            if !members.contains(&a) {
                return Err(WorkloadError::UnknownJob(a.0));
            }
            if !members.contains(&b) {
                return Err(WorkloadError::UnknownJob(b.0));
            }
        }
        self.topo_order()
            .map(|_| ())
            .ok_or(WorkloadError::CyclicWorkflow {
                workflow: self.id.0,
            })
    }

    /// Kahn's algorithm. Returns `None` if the graph has a cycle.
    /// Ties are broken by job id, so the order is deterministic.
    pub fn topo_order(&self) -> Option<Vec<JobId>> {
        let mut indeg: HashMap<JobId, usize> = self.jobs.iter().map(|&j| (j, 0)).collect();
        for &(_, b) in &self.edges {
            if let Some(d) = indeg.get_mut(&b) {
                *d += 1;
            }
        }
        let mut ready: Vec<JobId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&j, _)| j)
            .collect();
        ready.sort();
        let mut order = Vec::with_capacity(self.jobs.len());
        while let Some(j) = ready.pop() {
            order.push(j);
            let mut unlocked: Vec<JobId> = Vec::new();
            for &(a, b) in &self.edges {
                if a == j {
                    let d = indeg.get_mut(&b).expect("validated edge");
                    *d -= 1;
                    if *d == 0 {
                        unlocked.push(b);
                    }
                }
            }
            unlocked.sort();
            // Push in reverse so the smallest id pops first.
            for u in unlocked.into_iter().rev() {
                ready.push(u);
            }
            ready.sort();
        }
        (order.len() == self.jobs.len()).then_some(order)
    }

    /// Jobs with no incoming edge (workflow entry points).
    pub fn roots(&self) -> Vec<JobId> {
        let targets: HashSet<JobId> = self.edges.iter().map(|&(_, b)| b).collect();
        let mut roots: Vec<JobId> = self
            .jobs
            .iter()
            .copied()
            .filter(|j| !targets.contains(j))
            .collect();
        roots.sort();
        roots
    }

    /// Jobs with no outgoing edge (workflow sinks).
    pub fn sinks(&self) -> Vec<JobId> {
        let sources: HashSet<JobId> = self.edges.iter().map(|&(a, _)| a).collect();
        let mut sinks: Vec<JobId> = self
            .jobs
            .iter()
            .copied()
            .filter(|j| !sources.contains(j))
            .collect();
        sinks.sort();
        sinks
    }

    /// Direct upstream producers of `job`.
    pub fn parents(&self, job: JobId) -> Vec<JobId> {
        let mut p: Vec<JobId> = self
            .edges
            .iter()
            .filter(|&&(_, b)| b == job)
            .map(|&(a, _)| a)
            .collect();
        p.sort();
        p
    }

    /// Direct downstream consumers of `job`.
    pub fn children(&self, job: JobId) -> Vec<JobId> {
        let mut c: Vec<JobId> = self
            .edges
            .iter()
            .filter(|&&(a, _)| a == job)
            .map(|&(_, b)| b)
            .collect();
        c.sort();
        c
    }

    /// Depth-first pre-order over the DAG starting from the roots, visiting
    /// each job once. This is the traversal order CAST++ uses when mutating
    /// per-job placements (§4.3, Enhancement 2).
    pub fn dfs_order(&self) -> Vec<JobId> {
        let mut seen: HashSet<JobId> = HashSet::new();
        let mut order = Vec::with_capacity(self.jobs.len());
        let mut stack: Vec<JobId> = self.roots();
        stack.reverse();
        while let Some(j) = stack.pop() {
            if !seen.insert(j) {
                continue;
            }
            order.push(j);
            let mut kids = self.children(j);
            kids.reverse();
            for k in kids {
                if !seen.contains(&k) {
                    stack.push(k);
                }
            }
        }
        // Isolated jobs unreachable from roots (possible only in invalid
        // graphs) are appended for totality.
        for &j in &self.jobs {
            if seen.insert(j) {
                order.push(j);
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(i: u32) -> JobId {
        JobId(i)
    }

    /// The Fig. 4 search-log workflow: Grep → {PageRank, Sort} → Join.
    fn diamond() -> Workflow {
        Workflow {
            id: WorkflowId(0),
            jobs: vec![j(0), j(1), j(2), j(3)],
            edges: vec![(j(0), j(1)), (j(0), j(2)), (j(1), j(3)), (j(2), j(3))],
            deadline: Duration::from_secs(8000.0),
        }
    }

    #[test]
    fn diamond_validates() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn topo_order_respects_edges() {
        let w = diamond();
        let order = w.topo_order().unwrap();
        let pos: HashMap<JobId, usize> = order.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        for &(a, b) in &w.edges {
            assert!(pos[&a] < pos[&b], "{a} must precede {b}");
        }
    }

    #[test]
    fn cycle_detected() {
        let mut w = diamond();
        w.edges.push((j(3), j(0)));
        assert_eq!(
            w.validate(),
            Err(WorkloadError::CyclicWorkflow { workflow: 0 })
        );
    }

    #[test]
    fn edge_to_nonmember_rejected() {
        let mut w = diamond();
        w.edges.push((j(0), j(99)));
        assert_eq!(w.validate(), Err(WorkloadError::UnknownJob(99)));
    }

    #[test]
    fn roots_and_sinks() {
        let w = diamond();
        assert_eq!(w.roots(), vec![j(0)]);
        assert_eq!(w.sinks(), vec![j(3)]);
        assert_eq!(w.parents(j(3)), vec![j(1), j(2)]);
        assert_eq!(w.children(j(0)), vec![j(1), j(2)]);
    }

    #[test]
    fn dfs_visits_every_job_once() {
        let w = diamond();
        let order = w.dfs_order();
        assert_eq!(order.len(), 4);
        let set: HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(order[0], j(0), "DFS starts at the root");
    }

    #[test]
    fn chain_constructor() {
        let w = Workflow::chain(
            WorkflowId(1),
            vec![j(5), j(6), j(7)],
            Duration::from_mins(30.0),
        );
        assert_eq!(w.edges, vec![(j(5), j(6)), (j(6), j(7))]);
        assert!(w.validate().is_ok());
        assert_eq!(w.roots(), vec![j(5)]);
        assert_eq!(w.sinks(), vec![j(7)]);
    }
}
