//! Property-based tests for the solvers.

use proptest::prelude::*;

use cast_cloud::tier::Tier;
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::Estimator;
use cast_solver::neighbor::{NeighborGen, OVERPROV_GRID};
use cast_solver::{
    evaluate, greedy_plan, restart_seed, AnnealConfig, Annealer, Assignment, EvalContext,
    GreedyMode, IncrementalEval, TieringPlan,
};
use cast_workload::apps::AppKind;
use cast_workload::dataset::{Dataset, DatasetId};
use cast_workload::job::{Job, JobId};
use cast_workload::profile::ProfileSet;
use cast_workload::spec::WorkloadSpec;

fn toy_estimator(nvm: usize) -> Estimator {
    let mut matrix = ModelMatrix::new();
    for app in AppKind::ALL {
        for tier in Tier::ALL {
            let base = match tier {
                Tier::EphSsd => 40.0,
                Tier::PersSsd => 1.0,
                Tier::PersHdd => 0.4,
                Tier::ObjStore => 15.0,
            };
            let samples: Vec<(f64, PhaseBw)> = (1..=4)
                .map(|i| {
                    let cap = 150.0 * i as f64;
                    let bw = if tier.scales_with_capacity() {
                        base * cap / 30.0
                    } else {
                        base
                    };
                    (
                        cap,
                        PhaseBw {
                            map: bw,
                            shuffle_reduce: bw * 0.8,
                        },
                    )
                })
                .collect();
            matrix.insert(app, tier, CapacityCurve::fit(&samples).expect("fit"));
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

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    prop::collection::vec(
        (prop::sample::select(AppKind::ALL.to_vec()), 2.0f64..200.0),
        1..8,
    )
    .prop_map(|jobs| {
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

/// Like [`arb_spec`] but jobs may share their predecessor's dataset, so
/// reuse-aware evaluation (Eq. 7 shared-input discount) gets exercised.
fn arb_reuse_spec() -> impl Strategy<Value = WorkloadSpec> {
    prop::collection::vec(
        (
            prop::sample::select(AppKind::ALL.to_vec()),
            2.0f64..200.0,
            0usize..2,
        ),
        1..8,
    )
    .prop_map(|jobs| {
        let mut spec = WorkloadSpec::empty();
        for (i, (app, gb, share)) in jobs.into_iter().enumerate() {
            let ds = if share == 1 && !spec.datasets.is_empty() {
                spec.datasets[spec.datasets.len() - 1].id
            } else {
                let id = DatasetId(i as u32);
                spec.datasets
                    .push(Dataset::single_use(id, DataSize::from_gb(gb)));
                id
            };
            let size = spec
                .datasets
                .iter()
                .find(|d| d.id == ds)
                .expect("dataset exists")
                .size;
            spec.jobs
                .push(Job::with_default_layout(JobId(i as u32), app, ds, size));
        }
        spec
    })
}

/// A random move/undo script over a plan: for each step, which job to
/// touch, which tier and over-provisioning factor to move it to, and
/// whether to undo the move right after scoring it.
#[allow(clippy::type_complexity)]
fn arb_moves() -> impl Strategy<Value = Vec<(usize, usize, f64, usize)>> {
    prop::collection::vec(
        (0usize..64, 0usize..Tier::ALL.len(), 1.0f64..8.0, 0usize..2),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The annealer's best plan is never worse than its initial plan, for
    /// any seed and any starting tier.
    #[test]
    fn annealer_never_regresses(
        spec in arb_spec(),
        seed in 0u64..1_000,
        tier in prop::sample::select(Tier::ALL.to_vec()),
    ) {
        let est = toy_estimator(4);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, tier);
        let init_u = evaluate(&init, &ctx).expect("eval").utility;
        let cfg = AnnealConfig { iterations: 300, seed, ..AnnealConfig::default() };
        let out = Annealer::new(cfg).solve(&ctx, init).expect("anneal");
        prop_assert!(out.eval.utility + 1e-18 >= init_u);
        prop_assert_eq!(out.plan.len(), spec.jobs.len());
    }

    /// Greedy plans are complete and valid (Eq. 3 respected by
    /// construction).
    #[test]
    fn greedy_plans_are_well_formed(spec in arb_spec()) {
        let est = toy_estimator(4);
        let ctx = EvalContext::new(&est, &spec);
        for mode in [GreedyMode::ExactFit, GreedyMode::OverProvisioned] {
            let plan = greedy_plan(&ctx, mode).expect("greedy");
            prop_assert_eq!(plan.len(), spec.jobs.len());
            for (job, a) in plan.iter() {
                prop_assert!(a.validate(job).is_ok());
            }
            let eval = evaluate(&plan, &ctx).expect("evaluation");
            prop_assert!(eval.utility.is_finite() && eval.utility > 0.0);
            prop_assert!(eval.time.secs().is_finite() && eval.time.secs() > 0.0);
        }
    }

    /// Evaluation is a pure function of the plan.
    #[test]
    fn evaluation_is_deterministic(spec in arb_spec()) {
        let est = toy_estimator(4);
        let ctx = EvalContext::new(&est, &spec);
        let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        let a = evaluate(&plan, &ctx).expect("eval");
        let b = evaluate(&plan, &ctx).expect("eval");
        prop_assert_eq!(a, b);
    }

    /// Raising one job's over-provisioning factor never increases the
    /// plan's estimated completion time.
    #[test]
    fn overprovisioning_never_slows_the_plan(
        spec in arb_spec(),
        idx in 0usize..8,
    ) {
        let est = toy_estimator(4);
        let ctx = EvalContext::new(&est, &spec);
        let job = spec.jobs[idx % spec.jobs.len()].id;
        let base = TieringPlan::uniform(&spec, Tier::PersSsd);
        let mut boosted = base.clone();
        boosted.assign(job, Assignment { tier: Tier::PersSsd, overprov: 8.0 });
        let t_base = evaluate(&base, &ctx).expect("eval").time;
        let t_boost = evaluate(&boosted, &ctx).expect("eval").time;
        prop_assert!(t_boost.secs() <= t_base.secs() + 1e-9);
    }

    /// The incremental scorer is bit-identical to the full oracle over any
    /// random move/undo script, in both plain and reuse-aware evaluation.
    #[test]
    fn incremental_matches_oracle_bitwise(
        spec in arb_reuse_spec(),
        moves in arb_moves(),
        tier in prop::sample::select(Tier::ALL.to_vec()),
        reuse_aware in 0usize..2,
    ) {
        let est = toy_estimator(4);
        let ctx = if reuse_aware == 1 {
            EvalContext::new(&est, &spec).with_reuse_awareness()
        } else {
            EvalContext::new(&est, &spec)
        };
        let init = TieringPlan::uniform(&spec, tier);
        let mut state = IncrementalEval::new(&ctx, &init).expect("state");
        let mut undo = Vec::new();
        for (job_idx, tier_idx, overprov, do_undo) in moves {
            let change = (job_idx % spec.jobs.len(), Assignment { tier: Tier::ALL[tier_idx], overprov });
            state.apply(std::slice::from_ref(&change), &mut undo).expect("valid change");
            let fast = state.score().expect("incremental score");
            let oracle = evaluate(&state.to_plan(), &ctx).expect("oracle").utility;
            prop_assert_eq!(fast.to_bits(), oracle.to_bits());
            if do_undo == 1 {
                state.restore(&undo);
                let fast = state.score().expect("incremental score");
                let oracle = evaluate(&state.to_plan(), &ctx).expect("oracle").utility;
                prop_assert_eq!(fast.to_bits(), oracle.to_bits());
            }
        }
    }

    /// The incremental chain (`Annealer::solve`) and the plan chain
    /// (`solve_with` scoring every neighbour through the `evaluate`
    /// oracle) make the same decisions on generated inputs, reuse groups
    /// and skipped no-op proposals included: same plan, bit-identical
    /// score, same acceptance counts. Under reuse awareness every group
    /// ends on one tier, since each tier flip moves the whole group.
    #[test]
    fn incremental_and_plan_chains_agree(
        spec in arb_reuse_spec(),
        reuse_aware in 0usize..2,
        tier in prop::sample::select(Tier::ALL.to_vec()),
        seed in 0u64..1_000_000,
        iterations in 50usize..801,
    ) {
        let est = toy_estimator(4);
        let ctx = if reuse_aware == 1 {
            EvalContext::new(&est, &spec).with_reuse_awareness()
        } else {
            EvalContext::new(&est, &spec)
        };
        let groups: Vec<Vec<JobId>> = if reuse_aware == 1 {
            spec.reuse_groups().into_iter().map(|(_, jobs)| jobs).collect()
        } else {
            Vec::new()
        };
        let gen = NeighborGen::new(spec.jobs.iter().map(|j| j.id).collect(), groups.clone());
        let init = TieringPlan::uniform(&spec, tier);
        let cfg = AnnealConfig { iterations, seed, ..AnnealConfig::default() };
        let fast = Annealer::new(cfg).solve(&ctx, init.clone()).expect("incremental chain");
        let slow = Annealer::new(cfg)
            .solve_with(init, &gen, |p| evaluate(p, &ctx).map(|e| e.utility), false)
            .expect("plan chain");
        prop_assert_eq!(&fast.plan, &slow.plan);
        prop_assert_eq!(fast.eval.utility.to_bits(), slow.score.to_bits());
        prop_assert_eq!(fast.diagnostics.accepted, slow.diagnostics.accepted);
        prop_assert_eq!(
            fast.diagnostics.uphill_accepted,
            slow.diagnostics.uphill_accepted
        );
        for group in &groups {
            let tiers: Vec<Tier> = group
                .iter()
                .map(|&j| fast.plan.get(j).expect("assigned").tier)
                .collect();
            prop_assert!(tiers.windows(2).all(|w| w[0] == w[1]), "split group {:?}", tiers);
        }
    }

    /// `solve_with` over a generator that covers a strict subset of the
    /// jobs, visiting it at random or in order: jobs outside the
    /// generator keep `init`'s assignment, the returned score has the bits
    /// of `evaluate` on the returned plan, and a rerun with the same seed
    /// returns the same plan.
    #[test]
    fn solve_with_moves_only_the_generator_jobs(
        spec in arb_reuse_spec(),
        reuse_aware in 0usize..2,
        init_choice in prop::collection::vec((0usize..4, 0usize..5), 8),
        members in prop::collection::vec(0usize..2, 8),
        left_out in 0usize..8,
        sequential in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let est = toy_estimator(4);
        let ctx = if reuse_aware == 1 {
            EvalContext::new(&est, &spec).with_reuse_awareness()
        } else {
            EvalContext::new(&est, &spec)
        };
        let mut init = TieringPlan::new();
        for (job, &(t, f)) in spec.jobs.iter().zip(&init_choice) {
            init.assign(job.id, Assignment { tier: Tier::ALL[t], overprov: OVERPROV_GRID[f] });
        }
        // Position `left_out` is never in the generator, so it covers a
        // strict subset of the jobs.
        let left_out = left_out % spec.jobs.len();
        let jobs: Vec<JobId> = spec
            .jobs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != left_out && members[i] == 1)
            .map(|(_, j)| j.id)
            .collect();
        let groups: Vec<Vec<JobId>> = if reuse_aware == 1 {
            spec.reuse_groups().into_iter().map(|(_, jobs)| jobs).collect()
        } else {
            Vec::new()
        };
        let gen = NeighborGen::new(jobs.clone(), groups);
        let cfg = AnnealConfig { iterations: 300, seed, ..AnnealConfig::default() };
        let run = || {
            Annealer::new(cfg)
                .solve_with(
                    init.clone(),
                    &gen,
                    |p| evaluate(p, &ctx).map(|e| e.utility),
                    sequential == 1,
                )
                .expect("plan chain")
        };
        let out = run();
        prop_assert_eq!(out.plan.len(), spec.jobs.len());
        for job in spec.jobs.iter().filter(|j| !jobs.contains(&j.id)) {
            prop_assert_eq!(out.plan.get(job.id), init.get(job.id));
        }
        let oracle = evaluate(&out.plan, &ctx).expect("oracle").utility;
        prop_assert_eq!(out.score.to_bits(), oracle.to_bits());
        prop_assert_eq!(&run().plan, &out.plan);
    }
}

/// Parallel multi-restart annealing is deterministic: for every restart
/// count the solve returns the same plan across repeated runs, and the
/// winner equals a hand-rolled sequential best-of-N over the same derived
/// seeds — i.e. the outcome is independent of thread scheduling.
#[test]
fn multi_restart_is_schedule_independent() {
    let spec = cast_workload::synth::prediction_workload();
    let est = toy_estimator(4);
    let ctx = EvalContext::new(&est, &spec);
    let init = TieringPlan::uniform(&spec, Tier::PersHdd);
    let base = 0xCA57u64;
    for restarts in 1..=4 {
        let cfg = AnnealConfig {
            iterations: 400,
            seed: base,
            restarts,
        };
        let a = Annealer::new(cfg).solve(&ctx, init.clone()).expect("solve");
        let b = Annealer::new(cfg).solve(&ctx, init.clone()).expect("solve");
        assert_eq!(a.plan, b.plan, "restarts={restarts}: plan must be stable");
        assert_eq!(a.eval.utility.to_bits(), b.eval.utility.to_bits());

        // Sequential reference: run each chain alone and pick the best by
        // (score desc, seed asc) — the solver's published selection rule.
        let mut ref_best: Option<(f64, u64, TieringPlan)> = None;
        for r in 0..restarts {
            let seed = restart_seed(base, r);
            let single = Annealer::new(AnnealConfig {
                seed,
                restarts: 1,
                ..cfg
            })
            .solve(&ctx, init.clone())
            .expect("chain");
            let u = single.eval.utility;
            let wins = match &ref_best {
                None => true,
                Some((bu, bs, _)) => u > *bu || (u == *bu && seed < *bs),
            };
            if wins {
                ref_best = Some((u, seed, single.plan));
            }
        }
        let (ref_u, _, ref_plan) = ref_best.expect("at least one chain");
        assert_eq!(
            a.plan, ref_plan,
            "restarts={restarts}: thread-schedule dependent winner"
        );
        assert_eq!(a.eval.utility.to_bits(), ref_u.to_bits());
    }
}

#[test]
fn plan_serde_roundtrip() {
    let mut plan = TieringPlan::new();
    plan.assign(JobId(0), Assignment::exact(Tier::EphSsd));
    plan.assign(
        JobId(7),
        Assignment {
            tier: Tier::ObjStore,
            overprov: 4.0,
        },
    );
    let json = serde_json::to_string(&plan).expect("serialise");
    let back: TieringPlan = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back, plan);
}
