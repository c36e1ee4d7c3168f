//! Plan deployment: provision the simulated cluster per the plan and run
//! the workload on it.

use serde::{Deserialize, Serialize};

use cast_cloud::cost::{CostBreakdown, CostModel};
use cast_cloud::tier::PerTier;
use cast_cloud::units::{DataSize, Duration};
use cast_estimator::Estimator;
use cast_sim::config::SimConfig;
use cast_sim::metrics::SimReport;
use cast_sim::SimError;
use cast_solver::objective::provision_round;
use cast_solver::TieringPlan;
use cast_workload::spec::WorkloadSpec;

/// What actually happened when the plan ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployOutcome {
    /// Per-job simulation metrics.
    pub report: SimReport,
    /// Observed workload completion time (simulated makespan).
    pub makespan: Duration,
    /// Cost at the observed makespan with the provisioned capacities.
    pub cost: CostBreakdown,
    /// Observed tenant utility (Eq. 2 with observed time and cost).
    pub utility: f64,
    /// Capacities the deployment provisioned.
    pub capacities: PerTier<DataSize>,
}

/// Error deploying a plan: either the plan itself is malformed or the
/// simulation failed.
#[derive(Debug)]
pub enum DeployError {
    /// The plan is incomplete or violates a constraint.
    Plan(cast_solver::SolverError),
    /// Provisioning or simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Plan(e) => write!(f, "plan error: {e}"),
            DeployError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<cast_solver::SolverError> for DeployError {
    fn from(e: cast_solver::SolverError) -> Self {
        DeployError::Plan(e)
    }
}

impl From<SimError> for DeployError {
    fn from(e: SimError) -> Self {
        DeployError::Sim(e)
    }
}

impl From<cast_cloud::CloudError> for DeployError {
    fn from(e: cast_cloud::CloudError) -> Self {
        DeployError::Sim(SimError::Cloud(e))
    }
}

/// Provision and run. Capacities come from the plan (with the paper's
/// scratch/backing conventions and volume-granularity rounding).
pub fn deploy(
    estimator: &Estimator,
    spec: &WorkloadSpec,
    plan: &TieringPlan,
) -> Result<DeployOutcome, DeployError> {
    deploy_with_faults(estimator, spec, plan, &cast_sim::FaultPlan::default())
}

/// [`deploy`], but replaying the solved plan under a fault-injection
/// scenario. With the default (empty) plan this is bit-identical to
/// [`deploy`].
pub fn deploy_with_faults(
    estimator: &Estimator,
    spec: &WorkloadSpec,
    plan: &TieringPlan,
    faults: &cast_sim::FaultPlan,
) -> Result<DeployOutcome, DeployError> {
    deploy_observed(estimator, spec, plan, faults, &cast_obs::Collector::noop())
}

/// [`deploy_with_faults`] with an observability collector: the simulated
/// run records its job/phase/wave/task spans, tier-contention samples and
/// fault edges into `collector`. The outcome is bit-identical to the
/// unobserved call.
pub fn deploy_observed(
    estimator: &Estimator,
    spec: &WorkloadSpec,
    plan: &TieringPlan,
    faults: &cast_sim::FaultPlan,
    collector: &cast_obs::Collector,
) -> Result<DeployOutcome, DeployError> {
    let raw = plan.capacities(spec, true)?;
    let capacities = provision_round(estimator, &raw);
    let nvm = estimator.cluster.nvm;
    let mut cfg = SimConfig::with_aggregate_capacity(estimator.catalog.clone(), nvm, &capacities)?;
    cfg.faults = faults.clone();
    let report = cast_sim::Sim::builder(&cfg, spec, &plan.to_placements())
        .collector(collector.clone())
        .build()?
        .run()?;
    let makespan = report.makespan;
    let cost_model = CostModel::new(&estimator.catalog, nvm);
    let cost = cost_model.breakdown(&capacities, makespan);
    let utility = cost_model.tenant_utility(&capacities, makespan);
    Ok(DeployOutcome {
        report,
        makespan,
        cost,
        utility,
        capacities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::Tier;
    use cast_cloud::Catalog;
    use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
    use cast_estimator::mrcute::ClusterSpec;
    use cast_workload::apps::AppKind;
    use cast_workload::profile::ProfileSet;
    use cast_workload::synth;

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

    #[test]
    fn deploy_runs_and_prices_the_plan() {
        let est = estimator(2);
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(20.0));
        let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        let out = deploy(&est, &spec, &plan).unwrap();
        assert!(out.makespan.secs() > 0.0);
        assert!(out.utility > 0.0);
        assert!(out.cost.total().dollars() > 0.0);
        assert!(out.capacities.get(Tier::PersSsd).gb() > 0.0);
    }

    #[test]
    fn faulted_deploy_degrades_and_empty_plan_matches() {
        let est = estimator(2);
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(20.0));
        let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        let baseline = deploy(&est, &spec, &plan).unwrap();
        let same = deploy_with_faults(&est, &spec, &plan, &cast_sim::FaultPlan::default()).unwrap();
        assert_eq!(baseline.report, same.report, "empty plan must be a no-op");
        let faults = cast_sim::FaultPlan {
            max_task_attempts: 8,
            ..cast_sim::FaultPlan::with_task_failures(0.4)
        };
        let faulted = deploy_with_faults(&est, &spec, &plan, &faults).unwrap();
        assert!(faulted.report.faults.task_failures > 0);
        assert!(faulted.makespan.secs() > baseline.makespan.secs());
        assert!(faulted.utility < baseline.utility);
    }

    #[test]
    fn ephemeral_deployment_provisions_backing_store() {
        let est = estimator(2);
        let spec = synth::single_job(AppKind::Sort, DataSize::from_gb(20.0));
        let plan = TieringPlan::uniform(&spec, Tier::EphSsd);
        let out = deploy(&est, &spec, &plan).unwrap();
        assert!(out.capacities.get(Tier::EphSsd).gb() >= 375.0);
        assert!(out.capacities.get(Tier::ObjStore).gb() > 0.0);
        // The simulation should include staging.
        let m = out.report.jobs[0];
        assert!(m.stage_in.secs() > 0.0);
    }
}
