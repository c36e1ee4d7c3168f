//! Property-based tests for the workload model.

use proptest::prelude::*;
use std::collections::HashMap;

use cast_cloud::units::{DataSize, Duration};
use cast_workload::apps::AppKind;
use cast_workload::dataset::{Dataset, DatasetId};
use cast_workload::job::{Job, JobId};
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth::{facebook_workload, FacebookConfig};
use cast_workload::workflow::{Workflow, WorkflowId};

/// A random DAG over `n` jobs: edges only from lower to higher ids, so it
/// is acyclic by construction.
fn arb_dag() -> impl Strategy<Value = Workflow> {
    (2usize..10).prop_flat_map(|n| {
        let all_edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
            .collect();
        proptest::sample::subsequence(all_edges.clone(), 0..=all_edges.len()).prop_map(
            move |edges| Workflow {
                id: WorkflowId(0),
                jobs: (0..n as u32).map(JobId).collect(),
                edges: edges
                    .into_iter()
                    .map(|(a, b)| (JobId(a), JobId(b)))
                    .collect(),
                deadline: Duration::from_mins(30.0),
            },
        )
    })
}

proptest! {
    /// Topological order respects every edge and covers every job once.
    #[test]
    fn topo_order_is_a_valid_linearisation(wf in arb_dag()) {
        prop_assert!(wf.validate().is_ok());
        let order = wf.topo_order().expect("acyclic by construction");
        prop_assert_eq!(order.len(), wf.jobs.len());
        let pos: HashMap<JobId, usize> =
            order.iter().enumerate().map(|(i, &j)| (j, i)).collect();
        for &(a, b) in &wf.edges {
            prop_assert!(pos[&a] < pos[&b]);
        }
    }

    /// DFS order visits every job exactly once and starts at a root.
    #[test]
    fn dfs_order_is_a_permutation(wf in arb_dag()) {
        let order = wf.dfs_order();
        prop_assert_eq!(order.len(), wf.jobs.len());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), wf.jobs.len());
        if !wf.edges.is_empty() {
            prop_assert!(wf.roots().contains(&order[0]));
        }
    }

    /// Adding a back edge to any forward-DAG creates a detectable cycle.
    #[test]
    fn back_edge_makes_cycle(wf in arb_dag()) {
        prop_assume!(!wf.edges.is_empty());
        let mut cyclic = wf.clone();
        let &(a, b) = cyclic.edges.first().expect("nonempty");
        cyclic.edges.push((b, a));
        prop_assert!(cyclic.topo_order().is_none());
        prop_assert!(cyclic.validate().is_err());
    }

    /// The Facebook synthesizer keeps its invariants for any share
    /// fraction and seed.
    #[test]
    fn facebook_synthesis_invariants(share in 0.0f64..0.6, seed in 0u64..1000) {
        let spec = facebook_workload(FacebookConfig { share_fraction: share, seed })
            .expect("valid parameters");
        prop_assert_eq!(spec.jobs.len(), 100);
        prop_assert!(spec.validate().is_ok());
        // Every sharing group is homogeneous in dataset size.
        for (ds, jobs) in spec.reuse_groups() {
            let size = spec.dataset(ds).expect("dataset exists").size;
            for j in jobs {
                prop_assert!(
                    (spec.job(j).expect("job exists").input.gb() - size.gb()).abs() < 1e-9
                );
            }
        }
        // Total input is stable regardless of sharing (sharing changes
        // datasets, not job inputs).
        prop_assert!((spec.total_input().gb() - 4980.48).abs() < 1.0);
    }

    /// Job layout maths: maps grow with input, reduces stay proportional.
    #[test]
    fn default_layout_scales(gb in 0.1f64..2_000.0) {
        let j = Job::with_default_layout(
            JobId(0),
            AppKind::Sort,
            DatasetId(0),
            DataSize::from_gb(gb),
        );
        prop_assert!(j.maps >= 1 && j.reduces >= 1);
        prop_assert!(j.reduces <= j.maps);
        // One map per 256 MB block, rounded up.
        let expect = (gb * 1000.0 / 256.0).ceil().max(1.0) as usize;
        prop_assert_eq!(j.maps, expect);
        prop_assert!(j.validate().is_ok());
    }
}

#[test]
fn spec_serde_roundtrip() {
    let mut spec = facebook_workload(FacebookConfig::default()).unwrap();
    spec.workflows.push(Workflow::chain(
        WorkflowId(0),
        vec![JobId(0), JobId(1)],
        Duration::from_mins(20.0),
    ));
    let json = serde_json::to_string(&spec).unwrap();
    let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
}

#[test]
fn dataset_roundtrip() {
    let d = Dataset::single_use(DatasetId(3), DataSize::from_gb(12.0));
    let json = serde_json::to_string(&d).unwrap();
    let back: Dataset = serde_json::from_str(&json).unwrap();
    assert_eq!(back, d);
}
