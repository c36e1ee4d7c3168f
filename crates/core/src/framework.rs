//! The [`Cast`] framework object: profiling + planning.

use serde::{Deserialize, Serialize};

use cast_cloud::tier::Tier;
use cast_cloud::Catalog;
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::profiler::{profile_all, ProfilerConfig};
use cast_estimator::Estimator;
use cast_obs::Observe;
use cast_solver::castpp::CastPlusPlus;
use cast_solver::{
    evaluate, greedy_plan, AnnealConfig, Annealer, EvalContext, GreedyMode, PlanEval, SolverError,
    TieringPlan,
};
use cast_workload::profile::ProfileSet;
use cast_workload::spec::WorkloadSpec;

use crate::deploy::{self, DeployOutcome};
use crate::error::CastError;

/// Which planner produces the tiering plan — the eight configurations of
/// Fig. 7 plus CAST++.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanStrategy {
    /// Everything on one tier (the four non-tiered baselines).
    Uniform(Tier),
    /// Algorithm 1 with exact-fit capacities.
    GreedyExactFit,
    /// Algorithm 1 with per-job over-provisioning.
    GreedyOverProvisioned,
    /// Algorithm 2: simulated-annealing utility maximisation.
    Cast,
    /// CAST plus reuse- and workflow-awareness.
    CastPlusPlus,
}

impl PlanStrategy {
    /// All strategies in Fig. 7 presentation order.
    pub const ALL: [PlanStrategy; 8] = [
        PlanStrategy::Uniform(Tier::EphSsd),
        PlanStrategy::Uniform(Tier::PersSsd),
        PlanStrategy::Uniform(Tier::PersHdd),
        PlanStrategy::Uniform(Tier::ObjStore),
        PlanStrategy::GreedyExactFit,
        PlanStrategy::GreedyOverProvisioned,
        PlanStrategy::Cast,
        PlanStrategy::CastPlusPlus,
    ];

    /// Figure label, mirroring [`Tier::name`]: a static string so callers
    /// can store and compare labels without allocating. `Display` renders
    /// the same text for formatting contexts.
    pub fn label(self) -> &'static str {
        match self {
            PlanStrategy::Uniform(Tier::EphSsd) => "ephSSD 100%",
            PlanStrategy::Uniform(Tier::PersSsd) => "persSSD 100%",
            PlanStrategy::Uniform(Tier::PersHdd) => "persHDD 100%",
            PlanStrategy::Uniform(Tier::ObjStore) => "objStore 100%",
            PlanStrategy::GreedyExactFit => "Greedy exact-fit",
            PlanStrategy::GreedyOverProvisioned => "Greedy over-prov",
            PlanStrategy::Cast => "CAST",
            PlanStrategy::CastPlusPlus => "CAST++",
        }
    }
}

impl std::fmt::Display for PlanStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A plan together with its model-side evaluation.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The chosen assignments.
    pub plan: TieringPlan,
    /// Estimated time/cost/utility (Eq. 2–6).
    pub eval: PlanEval,
    /// Per-workflow evaluations (CAST++ only; empty otherwise).
    pub workflows: Vec<(cast_workload::WorkflowId, cast_solver::castpp::WorkflowEval)>,
}

/// The CAST framework: a profiled estimator bound to a target cluster.
#[derive(Debug, Clone)]
pub struct Cast {
    estimator: Estimator,
    obs: cast_obs::Collector,
}

/// Builder for [`Cast`].
#[derive(Debug, Clone)]
pub struct CastBuilder {
    catalog: Catalog,
    cluster: ClusterSpec,
    profiler: ProfilerConfig,
    obs: cast_obs::Collector,
}

impl Default for CastBuilder {
    fn default() -> Self {
        CastBuilder {
            catalog: Catalog::google_cloud(),
            cluster: ClusterSpec::paper(),
            profiler: ProfilerConfig::default(),
            obs: cast_obs::Collector::noop(),
        }
    }
}

impl CastBuilder {
    /// Target cluster size (worker VMs); slots follow the VM shape.
    pub fn nvm(mut self, nvm: usize) -> Self {
        self.cluster.nvm = nvm;
        self
    }

    /// Override the provider catalog.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Override profiling parameters.
    pub fn profiler(mut self, cfg: ProfilerConfig) -> Self {
        self.profiler = cfg;
        self
    }

    /// Run the offline profiling campaign and produce the framework.
    pub fn build(self) -> Result<Cast, CastError> {
        let profiles = ProfileSet::defaults();
        let matrix = profile_all(&self.catalog, &profiles, &self.profiler)?;
        Ok(Cast {
            estimator: Estimator {
                matrix,
                catalog: self.catalog,
                cluster: self.cluster,
                profiles,
            },
            obs: self.obs,
        })
    }

    /// Build with an already-profiled estimator (skips profiling — used by
    /// callers that persist the model matrix).
    pub fn build_with_estimator(self, estimator: Estimator) -> Cast {
        Cast {
            estimator,
            obs: self.obs,
        }
    }
}

/// Subsequent [`Cast::plan`] calls record solver spans and counters into
/// the attached collector, and deployment calls record the simulator's
/// job/phase/wave/task spans. With a recording collector the results stay
/// bit-identical; with the default [`cast_obs::Collector::noop`] every
/// instrumentation point is a no-op.
impl cast_obs::Observe for Cast {
    fn collector_slot(&mut self) -> &mut cast_obs::Collector {
        &mut self.obs
    }
}

/// The collector is forwarded to the built framework (see the
/// [`cast_obs::Observe`] impl on [`Cast`]).
impl cast_obs::Observe for CastBuilder {
    fn collector_slot(&mut self) -> &mut cast_obs::Collector {
        &mut self.obs
    }
}

impl Cast {
    /// Start building a framework.
    pub fn builder() -> CastBuilder {
        CastBuilder::default()
    }

    /// The profiled estimator.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Produce a tiering plan for `spec` with `strategy`. The annealing
    /// strategies run the default schedule ([`AnnealConfig::default`]);
    /// CAST++'s per-workflow solves run their own fixed budget. A spec
    /// that fails [`WorkloadSpec::validate`] is [`CastError::Workload`].
    pub fn plan(&self, spec: &WorkloadSpec, strategy: PlanStrategy) -> Result<Planned, CastError> {
        spec.validate()?;
        let ctx = EvalContext::new(&self.estimator, spec);
        match strategy {
            PlanStrategy::Uniform(tier) => {
                let plan = TieringPlan::uniform(spec, tier);
                let eval = evaluate(&plan, &ctx)?;
                Ok(Planned {
                    plan,
                    eval,
                    workflows: Vec::new(),
                })
            }
            PlanStrategy::GreedyExactFit => {
                let plan = greedy_plan(&ctx, GreedyMode::ExactFit)?;
                let eval = evaluate(&plan, &ctx)?;
                Ok(Planned {
                    plan,
                    eval,
                    workflows: Vec::new(),
                })
            }
            PlanStrategy::GreedyOverProvisioned => {
                let plan = greedy_plan(&ctx, GreedyMode::OverProvisioned)?;
                let eval = evaluate(&plan, &ctx)?;
                Ok(Planned {
                    plan,
                    eval,
                    workflows: Vec::new(),
                })
            }
            PlanStrategy::Cast => {
                let init = best_init(&ctx)?;
                let out = Annealer::new(AnnealConfig::default())
                    .observe(self.obs.clone())
                    .solve(&ctx, init)?;
                Ok(Planned {
                    plan: out.plan,
                    eval: out.eval,
                    workflows: Vec::new(),
                })
            }
            PlanStrategy::CastPlusPlus => {
                let out = CastPlusPlus::new().observe(self.obs.clone()).solve(&ctx)?;
                Ok(Planned {
                    plan: out.plan,
                    eval: out.eval,
                    workflows: out.workflows,
                })
            }
        }
    }

    /// Deploy a plan on the simulated cluster and measure the outcome;
    /// the run records into the attached collector. A spec that fails
    /// [`WorkloadSpec::validate`] is [`CastError::Workload`]; a malformed
    /// plan is [`CastError::Solver`]; a provisioning or simulation
    /// failure is [`CastError::Sim`].
    pub fn deploy(
        &self,
        spec: &WorkloadSpec,
        plan: &TieringPlan,
    ) -> Result<DeployOutcome, CastError> {
        spec.validate()?;
        deploy::deploy(&self.estimator, spec, plan, &self.obs)
    }

    /// Serve an arrival stream online: an epoch loop that replans
    /// (warm-started from the incumbent) and migrates data as the
    /// workload drifts. The returned runtime borrows this framework's
    /// estimator, cold-solves with the default annealing schedule
    /// ([`AnnealConfig::default`]) and inherits the collector; call
    /// [`cast_runtime::OnlineRuntime::run`] on it.
    pub fn online(&self, cfg: cast_runtime::RuntimeConfig) -> cast_runtime::OnlineRuntime<'_> {
        cast_runtime::OnlineRuntime::new(&self.estimator, AnnealConfig::default(), cfg)
            .observe(self.obs.clone())
    }
}

/// The annealer's starting point: the best-estimated of the greedy plans
/// and the four uniform plans (§4.2.2: "the results from the greedy
/// algorithm or the characteristics of analytics applications ... can be
/// used to devise an initial placement").
fn best_init(ctx: &EvalContext<'_>) -> Result<TieringPlan, SolverError> {
    let mut candidates = vec![
        greedy_plan(ctx, GreedyMode::OverProvisioned)?,
        greedy_plan(ctx, GreedyMode::ExactFit)?,
    ];
    for tier in Tier::ALL {
        candidates.push(TieringPlan::uniform(ctx.spec, tier));
    }
    let mut best: Option<(f64, TieringPlan)> = None;
    for plan in candidates {
        let u = evaluate(&plan, ctx)?.utility;
        if best.as_ref().is_none_or(|(bu, _)| u > *bu) {
            best = Some((u, plan));
        }
    }
    Ok(best.expect("non-empty candidate set").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::units::DataSize;
    use cast_estimator::profiler::ProfilerConfig;
    use cast_workload::synth;

    fn quick_framework() -> Cast {
        let profiler = ProfilerConfig {
            nvm: 2,
            reference_input: DataSize::from_gb(20.0),
            block_grid: vec![100.0, 400.0, 1600.0],
            eph_grid: vec![375.0],
            objstore_scratch_gb: 100.0,
        };
        CastBuilder::default()
            .nvm(4)
            .profiler(profiler)
            .build()
            .unwrap()
    }

    #[test]
    fn build_profiles_all_pairs() {
        let fw = quick_framework();
        assert_eq!(fw.estimator().matrix.len(), 20);
    }

    #[test]
    fn online_facade_serves_a_stream() {
        use cast_cloud::units::Duration;
        let fw = quick_framework();
        let stream = cast_workload::arrival::generate(&cast_workload::ArrivalConfig {
            seed: 9,
            horizon: Duration::from_mins(60.0),
            process: cast_workload::ArrivalProcess::Poisson { jobs_per_hour: 8.0 },
            drift: cast_workload::DriftConfig::none(),
            workflow_fraction: 0.0,
            max_bin: 3,
        })
        .unwrap();
        let cfg = cast_runtime::RuntimeConfig {
            policy: cast_runtime::ReplanPolicy::Periodic,
            ..cast_runtime::RuntimeConfig::default()
        };
        let report = fw.online(cfg).run(&stream).unwrap();
        assert_eq!(report.jobs_completed, stream.total_jobs());
        assert!(report.total_cost > 0.0);
    }

    #[test]
    fn every_strategy_produces_a_full_plan() {
        let fw = quick_framework();
        let spec = synth::prediction_workload();
        for strategy in PlanStrategy::ALL {
            let planned = fw.plan(&spec, strategy).unwrap();
            assert_eq!(planned.plan.len(), spec.jobs.len(), "{strategy}");
            assert!(planned.eval.utility.is_finite());
        }
    }

    #[test]
    fn cast_at_least_matches_greedy() {
        let fw = quick_framework();
        let spec = synth::prediction_workload();
        let greedy = fw.plan(&spec, PlanStrategy::GreedyOverProvisioned).unwrap();
        let cast = fw.plan(&spec, PlanStrategy::Cast).unwrap();
        assert!(cast.eval.utility >= greedy.eval.utility - 1e-15);
    }

    #[test]
    fn strategies_select_the_right_solver() {
        let fw = quick_framework();
        let spec = synth::fig4_workflow();
        // Deadline-bound workloads plan with CAST++, which evaluates each
        // workflow.
        let deadline = fw.plan(&spec, PlanStrategy::CastPlusPlus).unwrap();
        assert_eq!(deadline.workflows.len(), 1);
        // Utility maximisation runs plain CAST (no workflow evaluations).
        let utility = fw.plan(&spec, PlanStrategy::Cast).unwrap();
        assert!(utility.workflows.is_empty());
    }

    /// Two Grep jobs on a 20 GB dataset; `corrupt` breaks the spec.
    fn two_grep_jobs(corrupt: impl Fn(&mut WorkloadSpec)) -> WorkloadSpec {
        let mut spec = synth::single_job(cast_workload::AppKind::Grep, DataSize::from_gb(20.0));
        let mut second = spec.jobs[0];
        second.id = cast_workload::JobId(1);
        spec.jobs.push(second);
        corrupt(&mut spec);
        spec
    }

    /// `plan` under both annealing strategies and `deploy` of a uniform
    /// plan all fail on `spec` with `expected`.
    fn assert_rejected(spec: &WorkloadSpec, expected: cast_workload::WorkloadError) {
        let fw = quick_framework();
        for strategy in [PlanStrategy::Cast, PlanStrategy::CastPlusPlus] {
            let err = fw.plan(spec, strategy).unwrap_err();
            assert!(
                matches!(&err, CastError::Workload(e) if *e == expected),
                "{strategy}: {err}"
            );
        }
        let plan = TieringPlan::uniform(spec, Tier::PersSsd);
        let err = fw.deploy(spec, &plan).unwrap_err();
        assert!(
            matches!(&err, CastError::Workload(e) if *e == expected),
            "deploy: {err}"
        );
        assert!(err.to_string().starts_with("workload error"), "{err}");
    }

    #[test]
    fn plan_and_deploy_reject_an_undeclared_dataset() {
        let spec = two_grep_jobs(|s| {
            for job in &mut s.jobs {
                job.dataset = cast_workload::DatasetId(99);
            }
        });
        assert_rejected(
            &spec,
            cast_workload::WorkloadError::UnknownDataset {
                job: 0,
                dataset: 99,
            },
        );
    }

    #[test]
    fn plan_and_deploy_reject_a_duplicate_job_id() {
        let spec = two_grep_jobs(|s| s.jobs[1].id = s.jobs[0].id);
        assert_rejected(&spec, cast_workload::WorkloadError::DuplicateJob(0));
    }

    #[test]
    fn strategy_labels_match_figures() {
        for strategy in PlanStrategy::ALL {
            // Display and the static label agree, and uniform labels track
            // the tier names.
            assert_eq!(strategy.to_string(), strategy.label());
        }
        assert_eq!(PlanStrategy::Uniform(Tier::EphSsd).label(), "ephSSD 100%");
        assert_eq!(
            PlanStrategy::Uniform(Tier::ObjStore).label(),
            format!("{} 100%", Tier::ObjStore.name())
        );
        assert_eq!(PlanStrategy::Cast.label(), "CAST");
        assert_eq!(PlanStrategy::CastPlusPlus.label(), "CAST++");
    }
}
