//! Reproducibility: everything is deterministic given the seeds.

mod common;

use cast::prelude::*;
use cast::workload::synth::{facebook_workload, workflow_suite, FacebookConfig};
use common::{mixed_spec, quick_framework};

#[test]
fn workload_synthesis_is_deterministic() {
    assert_eq!(
        facebook_workload(FacebookConfig::default()).unwrap(),
        facebook_workload(FacebookConfig::default()).unwrap()
    );
    assert_eq!(workflow_suite(3), workflow_suite(3));
    assert_ne!(workflow_suite(3), workflow_suite(4), "seed must matter");
}

#[test]
fn profiling_is_deterministic() {
    let a = quick_framework(2);
    let b = quick_framework(2);
    assert_eq!(a.estimator().matrix, b.estimator().matrix);
}

#[test]
fn planning_and_deployment_are_deterministic() {
    let framework = quick_framework(2);
    let spec = mixed_spec();
    let p1 = framework.plan(&spec, PlanStrategy::Cast).unwrap();
    let p2 = framework.plan(&spec, PlanStrategy::Cast).unwrap();
    assert_eq!(p1.plan, p2.plan);
    let d1 = framework.deploy(&spec, &p1.plan).unwrap();
    let d2 = framework.deploy(&spec, &p2.plan).unwrap();
    assert_eq!(d1.report, d2.report);
    assert_eq!(d1.makespan, d2.makespan);
}

#[test]
fn different_share_fractions_change_the_workload() {
    let none = facebook_workload(FacebookConfig {
        share_fraction: 0.0,
        seed: 42,
    })
    .unwrap();
    let some = facebook_workload(FacebookConfig::default()).unwrap();
    assert!(none.reuse_groups().is_empty());
    assert!(!some.reuse_groups().is_empty());
}

#[test]
fn online_serving_is_bit_deterministic() {
    use cast::solver::AnnealConfig;
    use cast::workload::arrival::generate;

    let stream = generate(&ArrivalConfig {
        seed: 7,
        horizon: Duration::from_mins(45.0),
        process: ArrivalProcess::Poisson {
            jobs_per_hour: 12.0,
        },
        drift: DriftConfig {
            app_shift: 0.4,
            size_growth: 0.4,
        },
        workflow_fraction: 0.2,
        max_bin: 3,
    })
    .unwrap();

    // The whole pipeline — profiling, per-epoch warm-started solves
    // (including the parallel multi-restart path), migration scheduling
    // and simulation — is rebuilt from scratch each time; the serialized
    // reports must be byte-identical.
    let serve = |restarts: usize| {
        let framework = Cast::builder()
            .nvm(2)
            .profiler(common::quick_profiler())
            .build()
            .expect("framework build");
        let report = OnlineRuntime::new(
            framework.estimator(),
            AnnealConfig {
                iterations: 300,
                restarts,
                seed: 11,
            },
            RuntimeConfig {
                epoch: Duration::from_mins(15.0),
                policy: ReplanPolicy::Periodic,
                ..RuntimeConfig::default()
            },
        )
        .run(&stream)
        .expect("online run");
        serde_json::to_string(&report).expect("report serializes")
    };
    assert_eq!(serve(1), serve(1), "single-restart replay must be exact");
    assert_eq!(
        serve(2),
        serve(2),
        "parallel multi-restart replanning must not leak scheduling order"
    );
}
