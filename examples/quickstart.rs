//! Quickstart: profile, plan, deploy, then ask a what-if.
//!
//! Builds a CAST framework for a small cluster, plans a four-job workload
//! with each strategy, deploys the CAST++ plan on the simulated cluster
//! and prints the predicted-vs-observed report. A final section drives
//! the simulator directly through its unified entry point
//! (`Sim::builder`) and uses the snapshot/fork API to score a what-if
//! against the live mid-stream state.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cast::prelude::*;
use cast_estimator::profiler::ProfilerConfig;

fn main() {
    // Profile the applications offline on a small cluster. The default
    // profiler sweeps a wider grid; trimmed here so the example runs in
    // seconds.
    let profiler = ProfilerConfig {
        nvm: 4,
        reference_input: DataSize::from_gb(50.0),
        block_grid: vec![50.0, 100.0, 250.0, 500.0, 1000.0],
        eph_grid: vec![375.0, 750.0],
        objstore_scratch_gb: 100.0,
    };
    let framework = Cast::builder()
        .nvm(4)
        .profiler(profiler)
        .build()
        .expect("offline profiling");

    // A small mixed workload: one job of each studied application.
    let mut spec = WorkloadSpec::empty();
    for (i, (app, gb)) in [
        (AppKind::Sort, 60.0),
        (AppKind::Join, 80.0),
        (AppKind::Grep, 120.0),
        (AppKind::KMeans, 40.0),
    ]
    .iter()
    .enumerate()
    {
        let ds = cast::workload::DatasetId(i as u32);
        spec.datasets.push(cast::workload::Dataset::single_use(
            ds,
            DataSize::from_gb(*gb),
        ));
        spec.jobs.push(Job::with_default_layout(
            JobId(i as u32),
            *app,
            ds,
            DataSize::from_gb(*gb),
        ));
    }
    spec.validate().expect("valid workload");

    // Compare every planning strategy by estimated utility.
    println!("strategy            est. runtime   est. cost   est. utility");
    for strategy in PlanStrategy::ALL {
        let planned = framework.plan(&spec, strategy).expect("planning");
        println!(
            "{:<18}  {:>10}   {:>9}   {:.3e}",
            strategy.label(),
            format!("{}", planned.eval.time),
            format!("{}", planned.eval.cost.total()),
            planned.eval.utility
        );
    }

    // Deploy the CAST++ plan on the simulated cluster.
    let planned = framework
        .plan(&spec, PlanStrategy::CastPlusPlus)
        .expect("planning");
    println!("\nCAST++ assignments:");
    for (job, a) in planned.plan.iter() {
        let j = spec.job(job).expect("assigned job exists");
        println!(
            "  {job}: {} {:>6.0} GB -> {} (x{:.0} capacity)",
            j.app,
            j.input.gb(),
            a.tier,
            a.overprov
        );
    }
    let outcome = framework.deploy(&spec, &planned.plan).expect("deployment");
    let report = cast::core::DeploymentReport {
        strategy: PlanStrategy::CastPlusPlus.label().to_string(),
        predicted: planned.eval,
        observed: outcome,
    };
    println!("\n{}", report.render());

    assert!(report.time_error_pct() < 30.0, "prediction should be sane");

    // The same plan through the simulator's unified entry point: one
    // builder covers jobs, migrations, faults and observability.
    let estimator = framework.estimator();
    let capacities = planned
        .plan
        .capacities(&spec, true)
        .expect("plan capacities");
    let cfg = cast::sim::config::SimConfig::with_aggregate_capacity(
        estimator.catalog.clone(),
        estimator.cluster.nvm,
        &capacities,
    )
    .expect("provisionable cluster");
    let placements = planned.plan.to_placements();
    let mut live = Sim::builder(&cfg, &spec, &placements)
        .build()
        .expect("simulation setup");

    // A live what-if: advance mid-stream, snapshot, and score a fork
    // that redirects every still-waiting job onto one of the plan's own
    // provisioned tiers. The fork owns its state — the live run is
    // untouched and finishes bit-identically to an uninterrupted one.
    let replan_at = report.predicted.time.secs() * 0.5;
    live.run_until(replan_at).expect("prefix");
    let snapshot = live.snapshot();
    let target = planned
        .plan
        .iter()
        .last()
        .map(|(_, a)| a.tier)
        .expect("non-empty plan");
    let candidate: Vec<_> = spec
        .jobs
        .iter()
        .map(|j| cast::sim::CandidateOverride {
            job: j.id,
            placement: cast::sim::placement::JobPlacement::all_on(target),
        })
        .collect();
    let scored = cast::sim::score_forked(&snapshot, &[candidate], 2).expect("what-if scoring");
    let committed = live.run().expect("live run");
    println!(
        "\nwhat-if at t={replan_at:.0}s: committed plan finishes at {:.0}s, \
         all-{target} fork at {:.0}s",
        committed.makespan.secs(),
        scored[0].makespan.secs()
    );
}
