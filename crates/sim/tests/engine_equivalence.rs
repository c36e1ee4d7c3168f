//! Equivalence oracle: the event-driven engine against the reference
//! stepper, plus determinism pins for the event-driven engine.
//!
//! The reference stepper ([`cast_sim::reference::ReferenceEngine`])
//! recomputes every rate and advances every task on every event; the
//! production engine ([`cast_sim::engine::Engine`]) does incremental work
//! driven by the share registry's dirty-set and a completion heap. Both
//! must simulate the same cluster: across randomized workloads,
//! placements, cluster sizes and fault plans they agree within 1e-6
//! relative on makespan and per-job phase times, exactly on all fault
//! counters, and on the error variant when a scenario fails.

use proptest::prelude::*;

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_sim::config::Concurrency;
use cast_sim::engine::Engine;
use cast_sim::metrics::SimReport;
use cast_sim::reference::ReferenceEngine;
use cast_sim::{
    prepare_runs, DegradationWindow, FaultPlan, PlacementMap, SimConfig, SimError, VmCrash,
};
use cast_workload::apps::AppKind;
use cast_workload::dataset::{Dataset, DatasetId};
use cast_workload::job::{Job, JobId};
use cast_workload::spec::WorkloadSpec;

/// One randomized scenario: cluster, workload, placement and fault plan.
#[derive(Debug, Clone)]
struct Scenario {
    nvm: usize,
    jitter: f64,
    concurrency: Concurrency,
    /// Per job: (app, input GB, maps, reduces, tier).
    jobs: Vec<(AppKind, f64, usize, usize, Tier)>,
    failure_prob: f64,
    crash: Option<(u32, f64, Option<f64>)>,
    degradation: Option<(Tier, f64, f64, f64)>,
    speculation: f64,
}

fn build(scenario: &Scenario) -> (WorkloadSpec, PlacementMap, SimConfig) {
    let mut spec = WorkloadSpec::empty();
    let mut placements = PlacementMap::new();
    for (i, &(app, gb, maps, reduces, tier)) in scenario.jobs.iter().enumerate() {
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
        *agg.get_mut(t) = DataSize::from_gb(750.0 * scenario.nvm as f64);
    }
    let mut cfg =
        SimConfig::with_aggregate_capacity(Catalog::google_cloud(), scenario.nvm, &agg).unwrap();
    cfg.jitter = scenario.jitter;
    cfg.concurrency = scenario.concurrency;
    cfg.faults = FaultPlan {
        task_failure_prob: scenario.failure_prob,
        speculation_threshold: scenario.speculation,
        vm_crashes: scenario
            .crash
            .iter()
            .map(|&(vm, at_secs, down_secs)| VmCrash {
                vm: vm % scenario.nvm as u32,
                at_secs,
                down_secs,
            })
            .collect(),
        degradations: scenario
            .degradation
            .iter()
            .map(|&(tier, start_secs, len, multiplier)| DegradationWindow {
                vm: None,
                tier,
                start_secs,
                end_secs: start_secs + len,
                multiplier,
            })
            .collect(),
        ..FaultPlan::default()
    };
    (spec, placements, cfg)
}

fn run_both(scenario: &Scenario) -> (Result<SimReport, SimError>, Result<SimReport, SimError>) {
    let (spec, placements, cfg) = build(scenario);
    let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
    let new = Engine::new(&cfg, runs.clone()).run();
    let reference = ReferenceEngine::new(&cfg, runs).run();
    (new, reference)
}

/// |a − b| ≤ 1e-6 · max(1, |a|): relative agreement with an absolute
/// floor, absorbing sub-ulp float-accumulation divergence between the
/// incremental and from-scratch rate computations.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(1.0)
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let cluster = (
        1usize..5,                             // nvm
        prop::sample::select(vec![0.0, 0.08]), // jitter
        prop::sample::select(vec![Concurrency::Sequential, Concurrency::Parallel]),
        prop::collection::vec(
            (
                prop::sample::select(vec![
                    AppKind::Sort,
                    AppKind::Join,
                    AppKind::Grep,
                    AppKind::KMeans,
                    AppKind::PageRank,
                ]),
                1.0f64..24.0,
                1usize..8,
                1usize..4,
                prop::sample::select(vec![Tier::PersSsd, Tier::PersHdd, Tier::EphSsd]),
            ),
            1..5,
        ),
    );
    let faults = (
        prop::sample::select(vec![0.0, 0.2]), // failure prob
        prop::sample::select(vec![
            None,
            Some((0u32, 5.0, None)),
            Some((1u32, 10.0, Some(30.0))),
        ]),
        prop::sample::select(vec![
            None,
            Some((Tier::PersSsd, 4.0, 40.0, 0.25)),
            Some((Tier::PersHdd, 0.0, 25.0, 0.5)),
        ]),
        prop::sample::select(vec![0.0, 0.5]), // speculation
    );
    (cluster, faults).prop_map(
        |((nvm, jitter, concurrency, jobs), (failure_prob, crash, degradation, speculation))| {
            Scenario {
                nvm,
                jitter,
                concurrency,
                jobs,
                failure_prob,
                crash,
                degradation,
                speculation,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: both engines agree on every scenario.
    #[test]
    fn engines_agree(scenario in scenario_strategy()) {
        let (new, reference) = run_both(&scenario);
        match (new, reference) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    close(a.makespan.secs(), b.makespan.secs()),
                    "makespan {} vs {} ({scenario:?})",
                    a.makespan.secs(),
                    b.makespan.secs()
                );
                prop_assert_eq!(a.faults, b.faults);
                prop_assert_eq!(a.jobs.len(), b.jobs.len());
                for ma in &a.jobs {
                    let mb = b.job(ma.job).expect("job present in both reports");
                    for (la, lb, what) in [
                        (ma.submitted, mb.submitted, "submitted"),
                        (ma.started, mb.started, "started"),
                        (ma.finished, mb.finished, "finished"),
                        (ma.stage_in, mb.stage_in, "stage_in"),
                        (ma.map, mb.map, "map"),
                        (ma.reduce, mb.reduce, "reduce"),
                        (ma.stage_out, mb.stage_out, "stage_out"),
                    ] {
                        prop_assert!(
                            close(la.secs(), lb.secs()),
                            "job {} {what}: {} vs {} ({scenario:?})",
                            ma.job, la.secs(), lb.secs()
                        );
                    }
                    prop_assert_eq!(ma.failures, mb.failures);
                    prop_assert_eq!(ma.retries, mb.retries);
                    prop_assert_eq!(ma.speculations, mb.speculations);
                    prop_assert_eq!(ma.kills, mb.kills);
                }
            }
            (Err(ea), Err(eb)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&ea),
                    std::mem::discriminant(&eb)
                );
            }
            (a, b) => {
                prop_assert!(false, "engines disagree on success: {a:?} vs {b:?}");
            }
        }
    }

    /// The event-driven engine is deterministic: repeated runs of the same
    /// prepared scenario serialize to the same bytes.
    #[test]
    fn new_engine_is_deterministic(scenario in scenario_strategy()) {
        let (spec, placements, cfg) = build(&scenario);
        let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
        let first = Engine::new(&cfg, runs.clone()).run();
        let second = Engine::new(&cfg, runs).run();
        match (first, second) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    serde_json::to_string(&a).unwrap(),
                    serde_json::to_string(&b).unwrap()
                );
            }
            (Err(ea), Err(eb)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&ea),
                    std::mem::discriminant(&eb)
                );
            }
            (a, b) => prop_assert!(false, "non-deterministic outcome: {a:?} vs {b:?}"),
        }
    }
}

/// Observability must not perturb the simulation: a recording collector
/// yields the byte-identical report a no-op collector does (the contention
/// sampling stride reads totals, never writes).
#[test]
fn recording_collector_does_not_perturb_results() {
    let scenario = Scenario {
        nvm: 3,
        jitter: 0.08,
        concurrency: Concurrency::Parallel,
        jobs: vec![
            (AppKind::Sort, 12.0, 6, 3, Tier::PersSsd),
            (AppKind::Grep, 20.0, 4, 1, Tier::PersHdd),
            (AppKind::Join, 8.0, 3, 2, Tier::EphSsd),
        ],
        failure_prob: 0.2,
        crash: Some((1, 10.0, Some(30.0))),
        degradation: Some((Tier::PersSsd, 4.0, 40.0, 0.25)),
        speculation: 0.5,
    };
    let (spec, placements, cfg) = build(&scenario);
    let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
    let quiet = Engine::new(&cfg, runs.clone()).run().unwrap();
    let recorder = cast_obs::Collector::recording();
    let observed = Engine::observed(&cfg, runs, recorder.clone())
        .run()
        .unwrap();
    assert_eq!(
        serde_json::to_string(&quiet).unwrap(),
        serde_json::to_string(&observed).unwrap()
    );
    assert!(
        recorder.event_count() > 0,
        "the recording collector actually recorded"
    );
}

/// Step counts are an execution statistic, not a simulated quantity: the
/// event-driven engine takes *fewer* steps than the reference on a
/// multi-wave workload while producing the same makespan.
#[test]
fn event_engine_matches_reference_on_a_dense_workload() {
    let scenario = Scenario {
        nvm: 4,
        jitter: 0.08,
        concurrency: Concurrency::Parallel,
        jobs: vec![
            (AppKind::Sort, 24.0, 7, 3, Tier::PersSsd),
            (AppKind::Grep, 16.0, 6, 1, Tier::PersSsd),
            (AppKind::Join, 12.0, 5, 2, Tier::PersHdd),
            (AppKind::KMeans, 10.0, 4, 1, Tier::EphSsd),
            (AppKind::PageRank, 8.0, 4, 2, Tier::PersSsd),
        ],
        failure_prob: 0.0,
        crash: None,
        degradation: None,
        speculation: 0.0,
    };
    let (spec, placements, cfg) = build(&scenario);
    let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
    let (a, _) = Engine::new(&cfg, runs.clone()).run_with_stats().unwrap();
    let (b, _) = ReferenceEngine::new(&cfg, runs).run_with_stats().unwrap();
    assert!(
        close(a.makespan.secs(), b.makespan.secs()),
        "{} vs {}",
        a.makespan.secs(),
        b.makespan.secs()
    );
}
