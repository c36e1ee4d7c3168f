//! Determinism oracle for the parallel independent-run executor.
//!
//! [`cast_sim::par::run_indexed`] promises that its merged output is a
//! pure function of the closure and the index range — never of the
//! worker count, the claim interleaving, or the machine's core count.
//! These properties pin that contract against the real engine: a batch
//! of simulations fanned out over 1, 2 and 8 workers must produce
//! reports *byte-identical* (via their `Debug` rendering, which prints
//! every `f64` exactly) to the sequential loop, including under active
//! fault plans where retries, speculation and crash recovery exercise
//! the engine's stateful paths.

use proptest::prelude::*;

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_sim::engine::Engine;
use cast_sim::par;
use cast_sim::{prepare_runs, FaultPlan, PlacementMap, SimConfig, VmCrash};
use cast_workload::apps::AppKind;
use cast_workload::dataset::{Dataset, DatasetId};
use cast_workload::job::{Job, JobId};
use cast_workload::spec::WorkloadSpec;

/// One independent run in the batch: a tiny cluster whose workload and
/// fault seed vary with the batch index.
#[derive(Debug, Clone)]
struct RunSpec {
    nvm: usize,
    /// Per job: (app, input GB, maps, reduces, tier).
    jobs: Vec<(AppKind, f64, usize, usize, Tier)>,
    failure_prob: f64,
    crash: bool,
    seed: u64,
}

fn build(rs: &RunSpec) -> (WorkloadSpec, PlacementMap, SimConfig) {
    let mut spec = WorkloadSpec::empty();
    let mut placements = PlacementMap::new();
    for (i, &(app, gb, maps, reduces, tier)) in rs.jobs.iter().enumerate() {
        let id = JobId(i as u32);
        let input = DataSize::from_gb(gb);
        spec.jobs.push(Job {
            id,
            app,
            dataset: DatasetId(i as u32),
            input,
            maps,
            reduces,
        });
        spec.datasets
            .push(Dataset::single_use(DatasetId(i as u32), input));
        placements.set(id, cast_sim::JobPlacement::all_on(tier));
    }
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    for t in Tier::ALL {
        *agg.get_mut(t) = DataSize::from_gb(750.0 * rs.nvm as f64);
    }
    let mut cfg =
        SimConfig::with_aggregate_capacity(Catalog::google_cloud(), rs.nvm, &agg).unwrap();
    cfg.faults = FaultPlan {
        task_failure_prob: rs.failure_prob,
        seed: rs.seed,
        max_task_attempts: 8,
        vm_crashes: if rs.crash {
            vec![VmCrash {
                vm: 0,
                at_secs: 5.0,
                down_secs: Some(20.0),
            }]
        } else {
            Vec::new()
        },
        ..FaultPlan::default()
    };
    (spec, placements, cfg)
}

/// Execute run `i` of the batch and render its report exactly. Each
/// index perturbs the fault seed so runs are genuinely distinct work.
fn run_one(batch: &[RunSpec], i: usize) -> String {
    let mut rs = batch[i].clone();
    rs.seed = rs
        .seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e3779b97f4a7c15);
    let (spec, placements, cfg) = build(&rs);
    let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
    match Engine::new(&cfg, runs).run() {
        Ok(report) => format!("{report:?}"),
        Err(e) => format!("error: {e:?}"),
    }
}

fn batch_strategy() -> impl Strategy<Value = Vec<RunSpec>> {
    let job = (
        prop::sample::select(vec![AppKind::Sort, AppKind::Join, AppKind::Grep]),
        1.0f64..16.0,
        1usize..6,
        1usize..3,
        prop::sample::select(vec![Tier::PersSsd, Tier::EphSsd]),
    );
    let spec = (
        1usize..4,
        prop::collection::vec(job, 1..4),
        prop::sample::select(vec![0.0, 0.25]),
        prop::sample::select(vec![false, true]),
        0u64..u64::MAX,
    )
        .prop_map(|(nvm, jobs, failure_prob, crash, seed)| RunSpec {
            nvm,
            jobs,
            failure_prob,
            crash,
            seed,
        });
    prop::collection::vec(spec, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The executor's contract: for every worker count the merged batch
    /// is byte-identical to the sequential loop, fault plans included.
    #[test]
    fn parallel_batch_matches_sequential(batch in batch_strategy()) {
        let sequential: Vec<String> =
            (0..batch.len()).map(|i| run_one(&batch, i)).collect();
        for workers in [1usize, 2, 8] {
            let parallel = par::run_indexed(workers, batch.len(), |i| run_one(&batch, i));
            prop_assert!(
                sequential == parallel,
                "worker count {} changed the merged output",
                workers
            );
        }
    }
}

/// The annealer rides the same executor: its multi-restart solve must
/// not depend on the worker pool's interleaving. Pinned here (not in
/// the solver crate) against the executor it actually runs on.
#[test]
fn run_indexed_worker_count_is_invisible() {
    // A deliberately uneven workload: run i spins i*37 hash rounds, so
    // fast runs finish long before slow ones and claims interleave.
    let work = |i: usize| {
        let mut h: u64 = i as u64 ^ 0xdead_beef;
        for _ in 0..i * 37 {
            h = h.wrapping_mul(0x100000001b3).rotate_left(17);
        }
        (i, h)
    };
    let seq: Vec<(usize, u64)> = (0..40).map(work).collect();
    for workers in [1, 2, 3, 8, 16] {
        assert_eq!(seq, par::run_indexed(workers, 40, work));
    }
}
