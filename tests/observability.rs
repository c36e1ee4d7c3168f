//! Cross-crate observability tests: traces round-trip NDJSON, metrics are
//! deterministic under parallel multi-restart solves, and instrumentation
//! never changes a result bit.

mod common;

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use cast::cloud::tier::PerTier;
use cast::obs::{parse_ndjson, to_ndjson, EventBody, Observe};
use cast::prelude::*;
use cast::sim::config::SimConfig;
use cast::sim::placement::PlacementMap;
use cast::sim::Sim;
use cast::solver::{Annealer, EvalContext};
use cast::workload::dataset::{Dataset, DatasetId};
use common::{mixed_spec, quick_framework};

/// One profiled framework shared by every test in this file (profiling is
/// the expensive part; the tests only re-plan and re-deploy).
fn shared_framework() -> &'static Cast {
    static FW: OnceLock<Cast> = OnceLock::new();
    FW.get_or_init(|| quick_framework(2))
}

#[test]
fn recorded_pipeline_trace_round_trips_ndjson() {
    let col = Collector::recording();
    let fw = shared_framework().clone().observe(col.clone());
    let spec = mixed_spec();
    let planned = fw.plan(&spec, PlanStrategy::Cast).expect("planning");
    let out = fw.deploy(&spec, &planned.plan).expect("deployment");
    assert_eq!(out.report.jobs.len(), spec.jobs.len());

    let events = col.events();
    assert!(!events.is_empty());
    // Sequence numbers are the emission order.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    // The run covered both halves of the span taxonomy.
    let labels: BTreeSet<&'static str> = events.iter().map(|e| e.body.label()).collect();
    for expected in [
        "restart_start",
        "move",
        "epoch",
        "restart_end",
        "job_start",
        "phase",
        "wave",
        "task",
        "job_end",
    ] {
        assert!(labels.contains(expected), "missing {expected}: {labels:?}");
    }

    // NDJSON round-trip preserves every event exactly.
    let text = to_ndjson(&events);
    let parsed = parse_ndjson(&text).expect("parseable NDJSON");
    assert_eq!(events, parsed);

    // The metrics snapshot serialises and round-trips too.
    let snap = col.snapshot();
    assert!(snap.counter("sim.tasks.started").unwrap_or(0) > 0);
    assert!(snap.counter("anneal.moves").unwrap_or(0) > 0);
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    assert_eq!(snap, back);
}

#[test]
fn migration_and_fleet_events_round_trip_ndjson() {
    let col = Collector::recording();
    col.emit(
        10.0,
        EventBody::MigrationPhase {
            epoch: 1,
            dataset: 4,
            phase: "verify".into(),
            attempt: 2,
            mb: 512.0,
        },
    );
    col.emit(
        11.0,
        EventBody::ShardLost {
            dataset: 4,
            lost: 1,
            remaining: 0,
            fatal: true,
        },
    );
    col.emit(
        12.0,
        EventBody::TenantEpoch {
            tenant: 17,
            shard: 3,
            epoch: 1,
            admission: "admitted".into(),
            granted_frac: 0.75,
            planned: "deduped".into(),
        },
    );
    let events = col.events();
    let labels: Vec<&'static str> = events.iter().map(|e| e.body.label()).collect();
    assert_eq!(
        labels,
        vec!["migration_phase", "shard_lost", "tenant_epoch"]
    );
    let parsed = parse_ndjson(&to_ndjson(&events)).expect("parseable NDJSON");
    assert_eq!(events, parsed);
}

#[test]
fn parallel_restart_metrics_and_trace_are_deterministic() {
    let fw = shared_framework();
    let spec = mixed_spec();
    let ctx = EvalContext::new(fw.estimator(), &spec);
    let cfg = cast::solver::AnnealConfig {
        iterations: 400,
        restarts: 4,
        ..Default::default()
    };
    let run = || {
        let col = Collector::recording();
        let out = Annealer::new(cfg)
            .observe(col.clone())
            .solve(&ctx, TieringPlan::uniform(&spec, Tier::PersHdd))
            .expect("solve");
        (out.plan, col.events(), col.snapshot().without_wall())
    };
    let (plan_a, events_a, snap_a) = run();
    let (plan_b, events_b, snap_b) = run();
    assert_eq!(plan_a, plan_b);
    // Chains run on scoped threads, but events are flushed in restart
    // order and counters only accumulate commutative adds — so both the
    // trace and the wall-clock-free snapshot are bit-stable.
    assert_eq!(events_a, events_b);
    assert_eq!(snap_a, snap_b);
    // All four restarts appear, in order.
    let restarts: Vec<u32> = events_a
        .iter()
        .filter_map(|e| match e.body {
            EventBody::RestartStart { restart, .. } => Some(restart),
            _ => None,
        })
        .collect();
    assert_eq!(restarts, vec![0, 1, 2, 3]);
}

#[test]
fn unified_error_spans_the_pipeline() {
    let fw = shared_framework();
    let spec = mixed_spec();
    // An empty plan fails deployment with a plan-layer error, surfaced
    // through the unified type as the solver variant.
    let err = fw.deploy(&spec, &TieringPlan::new()).unwrap_err();
    assert!(matches!(err, CastError::Solver(_)), "{err:?}");
    assert!(err.to_string().contains("solver error"));
    assert!(std::error::Error::source(&err).is_some());
}

fn arb_app() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn arb_tier() -> impl Strategy<Value = Tier> {
    prop::sample::select(Tier::ALL.to_vec())
}

/// A random small workload of 1–4 jobs with 1–30 GB inputs.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    prop::collection::vec((arb_app(), 1.0f64..30.0), 1..4).prop_map(|jobs| {
        let mut spec = WorkloadSpec::empty();
        for (i, (app, gb)) in jobs.into_iter().enumerate() {
            let ds = DatasetId(i as u32);
            spec.datasets
                .push(Dataset::single_use(ds, DataSize::from_gb(gb)));
            spec.jobs.push(Job::with_default_layout(
                JobId(i as u32),
                app,
                ds,
                DataSize::from_gb(gb),
            ));
        }
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recording a simulation changes nothing: the instrumented report is
    /// bit-identical to the plain one for arbitrary workloads.
    #[test]
    fn instrumented_simulation_is_bit_identical(spec in arb_spec(), tier in arb_tier()) {
        let agg = PerTier::from_fn(|_| DataSize::from_gb(2000.0));
        let cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 2, &agg)
            .expect("provisionable");
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), tier);
        let plain = Sim::builder(&cfg, &spec, &placements)
            .build()
            .and_then(|sim| sim.run())
            .expect("simulation");
        let col = Collector::recording();
        let observed = Sim::builder(&cfg, &spec, &placements)
            .collector(col.clone())
            .build()
            .and_then(|sim| sim.run())
            .expect("simulation");
        prop_assert_eq!(plain, observed);
        prop_assert!(col.event_count() > 0);
    }

    /// Recording a solve changes nothing either: same plan, bit-identical
    /// evaluation, for arbitrary seeds and starting tiers.
    #[test]
    fn instrumented_solve_is_bit_identical(seed in 0u64..1 << 48, tier in arb_tier()) {
        let fw = shared_framework();
        let spec = mixed_spec();
        let ctx = EvalContext::new(fw.estimator(), &spec);
        let cfg = cast::solver::AnnealConfig {
            iterations: 200,
            seed,
            restarts: 2,
        };
        let init = TieringPlan::uniform(&spec, tier);
        let plain = Annealer::new(cfg).solve(&ctx, init.clone()).expect("solve");
        let col = Collector::recording();
        let observed = Annealer::new(cfg)
            .observe(col.clone())
            .solve(&ctx, init)
            .expect("solve");
        prop_assert_eq!(&plain.plan, &observed.plan);
        prop_assert_eq!(plain.eval.utility.to_bits(), observed.eval.utility.to_bits());
        prop_assert_eq!(plain.eval, observed.eval);
        prop_assert!(col.event_count() > 0);
    }
}
