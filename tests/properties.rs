//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary workloads and placements.

mod common;

use proptest::prelude::*;

use cast::cloud::tier::PerTier;
use cast::prelude::*;
use cast::sim::config::SimConfig;
use cast::sim::placement::PlacementMap;
use cast::sim::{Sim, SimError, SimReport};
use cast::solver::{evaluate, EvalContext, TieringPlan};
use cast::workload::dataset::{Dataset, DatasetId};

fn simulate(
    spec: &WorkloadSpec,
    placements: &PlacementMap,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    Sim::builder(cfg, spec, placements).build()?.run()
}

fn arb_app() -> impl Strategy<Value = AppKind> {
    prop::sample::select(AppKind::ALL.to_vec())
}

fn arb_tier() -> impl Strategy<Value = Tier> {
    prop::sample::select(Tier::ALL.to_vec())
}

/// A random small workload of 1–5 jobs with 1–40 GB inputs.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    prop::collection::vec((arb_app(), 1.0f64..40.0), 1..5).prop_map(|jobs| {
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

/// A cluster with every tier generously provisioned.
fn sim_config(nvm: usize) -> SimConfig {
    let agg = PerTier::from_fn(|_| DataSize::from_gb(1000.0) * nvm as f64);
    SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg).expect("provisionable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator never panics, always reports every job, and keeps
    /// basic time accounting consistent for arbitrary workloads and
    /// uniform placements.
    #[test]
    fn simulation_time_accounting_is_consistent(
        spec in arb_spec(),
        tier in arb_tier(),
    ) {
        let cfg = sim_config(2);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), tier);
        let report = simulate(&spec, &placements, &cfg).expect("simulation");
        prop_assert_eq!(report.jobs.len(), spec.jobs.len());
        for m in &report.jobs {
            prop_assert!(m.finished.secs() >= m.started.secs());
            prop_assert!(m.finished.secs() <= report.makespan.secs() + 1e-6);
            // Phase wall times can never exceed the job's span.
            let phases = m.stage_in + m.map + m.reduce + m.stage_out;
            prop_assert!(
                phases.secs() <= m.runtime().secs() + 1e-6,
                "phases {} vs runtime {}",
                phases,
                m.runtime()
            );
        }
    }

    /// Sequential execution: job spans never overlap.
    #[test]
    fn sequential_jobs_never_overlap(spec in arb_spec(), tier in arb_tier()) {
        let cfg = sim_config(2);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), tier);
        let report = simulate(&spec, &placements, &cfg).expect("simulation");
        let mut spans: Vec<(f64, f64)> = report
            .jobs
            .iter()
            .map(|m| (m.started.secs(), m.finished.secs()))
            .collect();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in spans.windows(2) {
            prop_assert!(w[1].0 >= w[0].1 - 1e-6, "overlap: {w:?}");
        }
    }

    /// Plan capacity accounting always covers the Eq. 3 footprints.
    #[test]
    fn plan_capacities_cover_footprints(
        spec in arb_spec(),
        tier in arb_tier(),
        factor in prop::sample::select(vec![1.0f64, 2.0, 4.0]),
    ) {
        let mut plan = TieringPlan::new();
        for j in &spec.jobs {
            plan.assign(j.id, cast::solver::Assignment { tier, overprov: factor });
        }
        let caps = plan.capacities(&spec, false).expect("well-formed plan");
        let total: f64 = Tier::ALL.iter().map(|&t| caps.get(t).gb()).sum();
        let footprints: f64 = spec
            .jobs
            .iter()
            .map(|j| j.footprint(spec.profiles.get(j.app)).gb() * factor)
            .sum();
        // Conventions may add backing capacity but never lose any.
        prop_assert!(total + 1e-6 >= footprints, "{total} < {footprints}");
    }

    /// More provisioned capacity never makes the simulated workload slower
    /// (monotonicity of the performance surface).
    #[test]
    fn capacity_is_monotone_in_the_simulator(
        gb in 5.0f64..60.0,
        app in arb_app(),
    ) {
        let spec = cast::workload::synth::single_job(app, DataSize::from_gb(gb));
        let run = |per_vm: f64| {
            let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
            *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(per_vm) * 2.0;
            let cfg = SimConfig::with_aggregate_capacity(
                Catalog::google_cloud(),
                2,
                &agg,
            )
            .expect("provisionable");
            let placements =
                PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
            simulate(&spec, &placements, &cfg).expect("simulation").makespan.secs()
        };
        let small = run(100.0);
        let large = run(400.0);
        prop_assert!(large <= small * 1.01, "more capacity slower: {small} -> {large}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A snapshot taken at an arbitrary mid-run point forks into an
    /// engine whose completed run is bit-identical to an uninterrupted
    /// one — under task-failure injection, a VM crash, and a migration
    /// barrier alike. This is the guarantee live what-if replanning
    /// leans on: scoring a candidate on a fork equals scoring it on a
    /// cold restart.
    #[test]
    fn forked_runs_bit_match_fresh_runs(
        spec in arb_spec(),
        tier in arb_tier(),
        mig_to in arb_tier(),
        seed in 0u64..100_000,
        failure_prob in 0.0f64..0.08,
        crash_at in 5.0f64..120.0,
        frac in 0.0f64..1.0,
    ) {
        use cast::sim::{prepare_runs, Engine, EngineScratch, MigrationSpec};

        let mut cfg = sim_config(2);
        cfg.faults = FaultPlan {
            seed,
            task_failure_prob: failure_prob,
            // Generous retry budget: the property is about determinism,
            // not about runs surviving, but both arms must complete.
            max_task_attempts: 16,
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: crash_at,
                down_secs: Some(60.0),
            }],
            ..FaultPlan::default()
        };
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), tier);
        let migrations = vec![MigrationSpec {
            id: 0,
            bytes: DataSize::from_gb(8.0),
            from: tier,
            to: mig_to,
            blocks: vec![spec.jobs[0].id],
            after: vec![],
        }];
        let runs = prepare_runs(&spec, &placements, &migrations, &cfg).expect("lowering");

        let (fresh, _) = Engine::new(&cfg, runs.clone()).finish().expect("fresh run");

        let fresh_json = serde_json::to_string(&fresh).expect("serializable");
        let mut live = Engine::new(&cfg, runs.clone());
        live.run_until(fresh.makespan.secs() * frac).expect("prefix");
        let snapshot = live.snapshot();
        let (forked, _) = snapshot.fork().finish().expect("forked run");
        prop_assert_eq!(&fresh_json, &serde_json::to_string(&forked).expect("serializable"));

        // The same fork off a live engine built on a reused scratch, as
        // a serving session reuses its scratch every epoch: a different
        // run stopped mid-way first leaves its flows, heaps and pending
        // retries behind for the next engine's set-up to clear.
        let mut scratch = EngineScratch::default();
        let other = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), mig_to);
        let other_runs = prepare_runs(&spec, &other, &[], &cfg).expect("lowering");
        Engine::with_scratch(&cfg, other_runs, &mut scratch)
            .run_until(fresh.makespan.secs() * 0.5)
            .expect("dirtying prefix");
        let mut live = Engine::with_scratch(&cfg, runs, &mut scratch);
        live.run_until(fresh.makespan.secs() * frac).expect("prefix");
        let (forked, _) = live.snapshot().fork().finish().expect("forked run");
        prop_assert_eq!(&fresh_json, &serde_json::to_string(&forked).expect("serializable"));
    }
}

#[test]
fn evaluated_utility_matches_manual_recomputation() {
    // Non-random cross-check of Eq. 2 wiring through the solver.
    let framework = common::quick_framework(2);
    let spec = common::mixed_spec();
    let ctx = EvalContext::new(framework.estimator(), &spec);
    let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
    let eval = evaluate(&plan, &ctx).expect("evaluation");
    let manual = (1.0 / eval.time.mins()) / eval.cost.total().dollars();
    assert!((eval.utility - manual).abs() / manual < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arrival synthesis holds its marginals for arbitrary seeds: the
    /// job-size distribution stays on the Table 4 bin shares, a Poisson
    /// stream's mean inter-arrival gap matches the configured rate, and
    /// the whole stream is a pure function of the seed.
    #[test]
    fn arrival_streams_follow_table4_and_the_configured_rate(seed in 0u64..100_000) {
        use cast::workload::arrival::{generate, ArrivalConfig, ArrivalProcess, DriftConfig};
        use cast::workload::facebook::table4;

        let cfg = ArrivalConfig {
            seed,
            horizon: Duration::from_hours(12.0),
            process: ArrivalProcess::Poisson { jobs_per_hour: 60.0 },
            drift: DriftConfig::none(),
            workflow_fraction: 0.0,
            max_bin: 4,
        };
        let stream = generate(&cfg).unwrap();
        prop_assert!(generate(&cfg).unwrap() == stream, "stream must replay bit-identically");

        // ~720 exponential gaps with mean 60 s: the sample mean sits
        // within a generous 6-sigma band.
        let mean = stream.mean_interarrival_secs().unwrap();
        prop_assert!((mean - 60.0).abs() < 15.0, "mean inter-arrival {:.1} s, expected ~60 s", mean);

        // With no size drift every job's input is exactly its bin's
        // synthesized size, so map count identifies the bin.
        let bins: Vec<_> = table4().into_iter().filter(|b| b.bin <= cfg.max_bin).collect();
        let weight: f64 = bins.iter().map(|b| b.workload_jobs as f64).sum();
        let n = stream.total_jobs() as f64;
        prop_assert!(n > 300.0, "stream unexpectedly sparse ({n} jobs)");
        for b in &bins {
            let share = stream
                .arrivals
                .iter()
                .flat_map(|a| &a.jobs)
                .filter(|j| (j.input.mb() / 256.0).ceil() as usize == b.workload_maps)
                .count() as f64
                / n;
            let want = b.workload_jobs as f64 / weight;
            prop_assert!(
                (share - want).abs() < 0.08,
                "bin {} share {:.3}, Table 4 share {:.3}",
                b.bin, share, want
            );
        }
    }
}
