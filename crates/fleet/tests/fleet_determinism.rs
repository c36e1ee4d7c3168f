//! Determinism oracle for fleet serving.
//!
//! The fleet's contract extends [`cast_sim::par::run_indexed`]'s: the
//! merged [`cast_fleet::FleetReport`] is a pure function of the
//! registry, the config and the estimator — never of the worker count
//! serving the plan/execute phases. These properties pin the report's
//! *JSON serialisation* byte-identical across 1, 2 and 8 workers and
//! across shard counts, under migration fault plans, safe protocols and
//! capacity pressure that exercises the partial-grant and deferral
//! paths.

use proptest::prelude::*;

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{DataSize, Duration};
use cast_cloud::Catalog;
use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::Estimator;
use cast_fleet::{DedupMode, Fleet, FleetConfig, FleetReport, TenantRegistry};
use cast_runtime::{MigrationProtocol, ReplanPolicy, RuntimeConfig, SkipPolicy};
use cast_solver::AnnealConfig;
use cast_workload::profile::ProfileSet;
use cast_workload::{tenant_fleet, AppKind, FleetWorkloadConfig};

fn estimator(nvm: usize) -> Estimator {
    let mut matrix = ModelMatrix::new();
    for app in AppKind::ALL {
        for tier in Tier::ALL {
            matrix.insert(
                app,
                tier,
                CapacityCurve::fit(&[(
                    375.0,
                    PhaseBw {
                        map: 10.0,
                        shuffle_reduce: 10.0,
                    },
                )])
                .unwrap(),
            );
        }
    }
    Estimator {
        matrix,
        catalog: Catalog::google_cloud(),
        cluster: ClusterSpec {
            nvm,
            map_slots: 16,
            reduce_slots: 8,
            task_startup_secs: 1.5,
        },
        profiles: ProfileSet::defaults(),
    }
}

/// One fleet scenario the strategy draws.
#[derive(Debug, Clone)]
struct Scenario {
    tenants: usize,
    shards: u32,
    seed: u64,
    capacity_gb: f64,
    faulty: bool,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        3usize..8,
        1u32..4,
        0u64..u64::MAX,
        // Ample pools keep everyone uncontended; tight ones force
        // partial grants, deferrals and rejections through admission.
        prop::sample::select(vec![100_000.0, 120.0]),
        prop::sample::select(vec![false, true]),
    )
        .prop_map(|(tenants, shards, seed, capacity_gb, faulty)| Scenario {
            tenants,
            shards,
            seed,
            capacity_gb,
            faulty,
        })
}

fn fleet_config(sc: &Scenario, workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        shard_capacity: PerTier::from_fn(|_| DataSize::from_gb(sc.capacity_gb)),
        runtime: RuntimeConfig {
            epoch: Duration::from_mins(30.0),
            policy: ReplanPolicy::Hysteresis { min_gain: 0.02 },
            protocol: if sc.faulty {
                MigrationProtocol::safe()
            } else {
                MigrationProtocol::default()
            },
            migration_fault_prob: if sc.faulty { 0.3 } else { 0.0 },
            seed: sc.seed,
            ..RuntimeConfig::default()
        },
        anneal: AnnealConfig {
            iterations: 200,
            restarts: 1,
            seed: sc.seed ^ 0xCA57,
        },
        ..FleetConfig::default()
    }
}

fn serve(est: &Estimator, sc: &Scenario, workers: usize) -> (String, FleetReport) {
    serve_with(est, sc, workers, DedupMode::Exact, SkipPolicy::default())
}

fn serve_with(
    est: &Estimator,
    sc: &Scenario,
    workers: usize,
    dedup: DedupMode,
    skip: SkipPolicy,
) -> (String, FleetReport) {
    let specs = tenant_fleet(&FleetWorkloadConfig {
        seed: sc.seed,
        tenants: sc.tenants,
        horizon: Duration::from_mins(60.0),
        base_jobs_per_hour: 6.0,
        max_bin: 3,
        ..FleetWorkloadConfig::default()
    })
    .unwrap();
    let registry = TenantRegistry::new(specs, sc.shards).unwrap();
    let mut cfg = fleet_config(sc, workers);
    cfg.dedup = dedup;
    cfg.runtime.skip = skip;
    let outcome = Fleet::new(est, cfg).run(&registry).unwrap();
    let json = serde_json::to_string(&outcome.report).unwrap();
    (json, outcome.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fleet contract: for every worker count the merged report's
    /// JSON is byte-identical, fault plans included.
    #[test]
    fn merged_report_is_byte_identical_across_workers(sc in scenario_strategy()) {
        let est = estimator(4);
        let (baseline, report) = serve(&est, &sc, 1);
        prop_assert_eq!(report.tenants.len(), sc.tenants);
        prop_assert_eq!(report.shard_count, sc.shards);
        for workers in [2usize, 8] {
            let (json, _) = serve(&est, &sc, workers);
            prop_assert!(
                baseline == json,
                "worker count {} changed the merged fleet report",
                workers
            );
        }
    }

    /// The fast planning path is invisible in the results: grouped
    /// exact-dedup solves and the exact replan-skip gate produce a
    /// merged report byte-identical to always-fresh planning (dedup
    /// off, skip gate disabled), at every worker count, fault plans
    /// included.
    #[test]
    fn dedup_and_exact_skip_match_always_fresh_planning(sc in scenario_strategy()) {
        let est = estimator(4);
        let off = SkipPolicy { enabled: false, ..SkipPolicy::default() };
        let (fresh, _) = serve_with(&est, &sc, 1, DedupMode::Off, off);
        for (workers, dedup) in [
            (1usize, DedupMode::Exact),
            (2, DedupMode::Exact),
            (8, DedupMode::Off),
        ] {
            let (fast, _) = serve_with(&est, &sc, workers, dedup, SkipPolicy::default());
            prop_assert!(
                fresh == fast,
                "dedup={:?} workers={} diverged from always-fresh planning",
                dedup,
                workers
            );
        }
    }
}

/// The equivalence property above is only meaningful if dedup actually
/// groups. A fleet of cloned tenants (identical arrival configs, so
/// identical streams and identical cold solve inputs) must fan most of
/// its plans out from group representatives — and still serve the same
/// bytes as dedup-off planning.
#[test]
fn cloned_tenants_dedup_into_shared_solves() {
    let est = estimator(4);
    let sc = Scenario {
        tenants: 6,
        shards: 2,
        seed: 0xDEDA,
        capacity_gb: 100_000.0,
        faulty: false,
    };
    let template = tenant_fleet(&FleetWorkloadConfig {
        seed: sc.seed,
        tenants: 1,
        horizon: Duration::from_mins(60.0),
        base_jobs_per_hour: 6.0,
        max_bin: 3,
        ..FleetWorkloadConfig::default()
    })
    .unwrap()
    .remove(0);
    let specs: Vec<_> = (0..sc.tenants as u32)
        .map(|i| {
            let mut s = template.clone();
            s.id = cast_workload::TenantId(i);
            s
        })
        .collect();
    let registry = TenantRegistry::new(specs, sc.shards).unwrap();

    let fast = Fleet::new(&est, fleet_config(&sc, 2))
        .run(&registry)
        .unwrap();
    assert!(
        fast.stats.dedup_fanouts > 0,
        "cloned tenants must share solves (solves={})",
        fast.stats.solves
    );

    let mut off = fleet_config(&sc, 2);
    off.dedup = DedupMode::Off;
    off.runtime.skip = SkipPolicy {
        enabled: false,
        ..SkipPolicy::default()
    };
    let fresh = Fleet::new(&est, off).run(&registry).unwrap();
    assert_eq!(fresh.stats.dedup_fanouts, 0);
    assert_eq!(
        serde_json::to_string(&fast.report).unwrap(),
        serde_json::to_string(&fresh.report).unwrap()
    );
}

/// A tight pool must actually exercise the contention paths the
/// property above claims to cover — otherwise the byte-identity proof
/// is vacuous for partial grants and deferrals.
#[test]
fn tight_pools_exercise_contention_paths() {
    let est = estimator(4);
    let sc = Scenario {
        tenants: 8,
        shards: 1,
        seed: 0x7E57,
        capacity_gb: 40.0,
        faulty: false,
    };
    let (json1, report) = serve(&est, &sc, 1);
    let contended: usize = report
        .tenants
        .iter()
        .map(|t| t.admitted_partial + t.deferrals)
        .sum();
    assert!(contended > 0, "40 GB shared by 8 tenants must contend");
    let (json8, _) = serve(&est, &sc, 8);
    assert_eq!(json1, json8);
}

/// Repetition determinism: the same scenario served twice produces the
/// same bytes (no hidden global state, no wall-clock leakage into the
/// report).
#[test]
fn repeated_runs_are_byte_identical() {
    let est = estimator(4);
    let sc = Scenario {
        tenants: 5,
        shards: 2,
        seed: 0xF1EE7,
        capacity_gb: 100_000.0,
        faulty: true,
    };
    let (a, _) = serve(&est, &sc, 2);
    let (b, _) = serve(&est, &sc, 2);
    assert_eq!(a, b);
}
