//! Plan deployment: provision the simulated cluster per the plan and run
//! the workload on it.

use serde::{Deserialize, Serialize};

use cast_cloud::cost::{CostBreakdown, CostModel};
use cast_cloud::tier::PerTier;
use cast_cloud::units::{DataSize, Duration};
use cast_estimator::Estimator;
use cast_obs::Collector;
use cast_sim::config::SimConfig;
use cast_sim::metrics::SimReport;
use cast_sim::SimError;
use cast_solver::objective::provision_round;
use cast_solver::TieringPlan;
use cast_workload::spec::WorkloadSpec;

use crate::error::CastError;

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

/// Provision the cluster per the plan, run the workload on it and price
/// the run; the simulation records its job/phase/wave/task spans into
/// `collector`. Capacities come from the plan (with the paper's
/// scratch/backing conventions and volume-granularity rounding).
pub(crate) fn deploy(
    estimator: &Estimator,
    spec: &WorkloadSpec,
    plan: &TieringPlan,
    collector: &Collector,
) -> Result<DeployOutcome, CastError> {
    let raw = plan.capacities(spec, true)?;
    let capacities = provision_round(estimator, &raw);
    let nvm = estimator.cluster.nvm;
    let cfg = SimConfig::with_aggregate_capacity(estimator.catalog.clone(), nvm, &capacities)
        .map_err(SimError::Cloud)?;
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
        let out = deploy(&est, &spec, &plan, &Collector::noop()).unwrap();
        assert!(out.makespan.secs() > 0.0);
        assert!(out.utility > 0.0);
        assert!(out.cost.total().dollars() > 0.0);
        assert!(out.capacities.get(Tier::PersSsd).gb() > 0.0);
    }

    #[test]
    fn ephemeral_deployment_provisions_backing_store() {
        let est = estimator(2);
        let spec = synth::single_job(AppKind::Sort, DataSize::from_gb(20.0));
        let plan = TieringPlan::uniform(&spec, Tier::EphSsd);
        let out = deploy(&est, &spec, &plan, &Collector::noop()).unwrap();
        assert!(out.capacities.get(Tier::EphSsd).gb() >= 375.0);
        assert!(out.capacities.get(Tier::ObjStore).gb() > 0.0);
        // The simulation should include staging.
        let m = out.report.jobs[0];
        assert!(m.stage_in.secs() > 0.0);
    }
}
