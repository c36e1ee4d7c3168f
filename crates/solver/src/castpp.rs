//! CAST++: reuse- and workflow-aware tiering (§4.3).
//!
//! CAST++ extends the basic solver with two enhancements:
//!
//! 1. **Data-reuse awareness** — jobs sharing an input dataset are pinned
//!    to one tier (Eq. 7) and the shared bytes are charged once. This is
//!    handled by running the annealer with
//!    [`EvalContext::with_reuse_awareness`].
//! 2. **Workflow awareness** — each workflow is optimised separately to
//!    *minimise monetary cost subject to its deadline* (Eq. 8–9), with
//!    cross-tier transfer times charged on DAG edges and neighbour
//!    exploration following a depth-first traversal of the DAG. The
//!    workflow solves run the same annealing loop as the utility solve,
//!    over a plan scored by [`evaluate_workflow_global`].
//!
//! Deviation from the paper: a workflow solve scores bandwidth and cost
//! against the whole plan's pooled provisioned capacities, as deployment
//! provisions them, not against Eq. 10's per-workflow capacities, so
//! same-tier hand-offs get no capacity discount.

use serde::{Deserialize, Serialize};

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{DataSize, Duration, Money};
use cast_obs::Observe;
use cast_workload::workflow::Workflow;

use crate::anneal::{AnnealConfig, Annealer};
use crate::diagnostics::SolveDiagnostics;
use crate::error::SolverError;
use crate::greedy::{greedy_plan, GreedyMode};
use crate::neighbor::NeighborGen;
use crate::objective::{evaluate, provision_round, EvalContext, PlanEval};
use crate::plan::TieringPlan;

/// Fraction of each deadline the solver actually plans to (planning
/// slack absorbing the estimator's single-digit-percent error; a plan
/// that is predicted to finish exactly at the deadline would miss it
/// half the time).
const DEADLINE_MARGIN: f64 = 0.94;

/// Iteration budget of each per-workflow cost solve. The utility solve
/// runs [`AnnealConfig::default`].
const WORKFLOW_ITERATIONS: usize = 2_500;

/// Evaluation of one workflow under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkflowEval {
    /// Estimated completion time: Σ job runtimes + Σ cross-tier transfer
    /// times (Eq. 9, with workflows executing their jobs back-to-back).
    pub time: Duration,
    /// Total monetary cost (Eq. 8).
    pub cost: Money,
    /// Whether the deadline is met.
    pub feasible: bool,
}

/// Outcome of a CAST++ solve.
#[derive(Debug, Clone)]
pub struct CastPlusPlusOutcome {
    /// Combined plan for all jobs (independent + workflow members).
    pub plan: TieringPlan,
    /// Utility evaluation over the whole workload.
    pub eval: PlanEval,
    /// Per-workflow evaluations in spec order.
    pub workflows: Vec<(cast_workload::WorkflowId, WorkflowEval)>,
    /// Diagnostics of the utility solve.
    pub diagnostics: SolveDiagnostics,
}

/// The CAST++ solver.
#[derive(Debug, Clone, Default)]
pub struct CastPlusPlus {
    obs: cast_obs::Collector,
}

/// The attached collector is forwarded to the utility and per-workflow
/// annealers. Results stay bit-identical.
impl cast_obs::Observe for CastPlusPlus {
    fn collector_slot(&mut self) -> &mut cast_obs::Collector {
        &mut self.obs
    }
}

impl CastPlusPlus {
    /// Create the solver (no observability).
    pub fn new() -> CastPlusPlus {
        CastPlusPlus::default()
    }

    /// Run the full CAST++ pipeline over `ctx.spec`.
    pub fn solve(&self, ctx: &EvalContext<'_>) -> Result<CastPlusPlusOutcome, SolverError> {
        let ctx = ctx.clone().with_reuse_awareness();
        // Phase 1: utility-optimise everything with reuse awareness,
        // starting from the best of the greedy and uniform seeds.
        let mut candidates = vec![greedy_plan(&ctx, GreedyMode::OverProvisioned)?];
        for tier in cast_cloud::tier::Tier::ALL {
            candidates.push(TieringPlan::uniform(ctx.spec, tier));
        }
        let mut init: Option<(f64, TieringPlan)> = None;
        for plan in candidates {
            let u = evaluate(&plan, &ctx)?.utility;
            if init.as_ref().is_none_or(|(bu, _)| u > *bu) {
                init = Some((u, plan));
            }
        }
        let init = init.expect("non-empty candidate set").1;
        let utility_out = Annealer::new(AnnealConfig::default())
            .observe(self.obs.clone())
            .solve(&ctx, init)?;
        let mut plan = utility_out.plan;

        // Phase 2: re-optimise each workflow for cost-under-deadline,
        // overriding the utility solution for its member jobs.
        let mut workflows = Vec::new();
        for wf in &ctx.spec.workflows {
            let wf_plan = self.solve_workflow(&ctx, wf, &plan)?;
            for &j in &wf.jobs {
                plan.assign(j, wf_plan.require(j)?);
            }
            let eval = evaluate_workflow_global(&ctx, wf, &plan)?;
            workflows.push((wf.id, eval));
        }

        let eval = evaluate(&plan, &ctx)?;
        Ok(CastPlusPlusOutcome {
            plan,
            eval,
            workflows,
            diagnostics: utility_out.diagnostics,
        })
    }

    /// Optimise one workflow: minimise cost subject to the deadline,
    /// exploring neighbours in DFS order over the DAG.
    pub fn solve_workflow(
        &self,
        ctx: &EvalContext<'_>,
        wf: &Workflow,
        seed_plan: &TieringPlan,
    ) -> Result<TieringPlan, SolverError> {
        // Mutate only this workflow's jobs, visited in DFS order, but
        // evaluate against the whole plan so bandwidth and cost reflect
        // the pooled deployment.
        let gen = NeighborGen::new(wf.dfs_order(), Vec::new());
        let annealer = Annealer::new(AnnealConfig {
            iterations: WORKFLOW_ITERATIONS,
            ..AnnealConfig::default()
        })
        .observe(self.obs.clone());
        let planning_deadline = wf.deadline * DEADLINE_MARGIN;
        // Score-only closure: the annealer materialises nothing per
        // neighbour; callers needing a full evaluation run it once on the
        // winning plan.
        let out = annealer.solve_with(
            seed_plan.clone(),
            &gen,
            |plan| {
                let mut weval = evaluate_workflow_global(ctx, wf, plan)?;
                weval.feasible = weval.time <= planning_deadline;
                Ok(workflow_score(&weval, planning_deadline))
            },
            true,
        )?;
        Ok(out.plan)
    }
}

/// Deadline-aware score: feasible plans are ranked by cheapness, infeasible
/// ones by (negated) lateness so the search is pulled toward feasibility.
pub fn workflow_score(eval: &WorkflowEval, deadline: Duration) -> f64 {
    if eval.feasible {
        1.0 / eval.cost.dollars().max(1e-9)
    } else {
        // Rank infeasible plans by lateness, with a light cost tie-break so
        // the search does not burn money on over-provisioning that buys no
        // speed when no feasible plan exists.
        -(eval.time.secs() / deadline.secs().max(1e-9)) - 0.02 * eval.cost.dollars()
    }
}

/// Eq. 9: a workflow's estimated completion time and cost under `plan`,
/// with bandwidth and cost accounted against the *whole plan's*
/// provisioned capacities — matching deployment, where a tier's volumes
/// are pooled across the workload for its full duration (in place of
/// Eq. 10's per-workflow capacities). `plan` must cover every job in the
/// spec.
pub fn evaluate_workflow_global(
    ctx: &EvalContext<'_>,
    wf: &Workflow,
    plan: &TieringPlan,
) -> Result<WorkflowEval, SolverError> {
    let caps = provision_round(ctx.estimator, &plan.capacities(ctx.spec, ctx.reuse_aware)?);
    let time = workflow_time(ctx, wf, plan, &caps)?;
    let cost = ctx.cost.breakdown(&caps, time).total();
    Ok(WorkflowEval {
        time,
        cost,
        feasible: time <= wf.deadline,
    })
}

/// Σ member runtimes + Σ cross-tier transfer times under the given
/// per-tier capacities (the Eq. 9 serialized execution model, with the
/// deployment's pipelined hand-off semantics).
fn workflow_time(
    ctx: &EvalContext<'_>,
    wf: &Workflow,
    plan: &TieringPlan,
    caps: &PerTier<DataSize>,
) -> Result<Duration, SolverError> {
    let est = ctx.estimator;
    let mut time = Duration::ZERO;
    for &jid in &wf.jobs {
        let a = plan.require(jid)?;
        let job = ctx.spec.job(jid).ok_or(SolverError::Unassigned(jid.0))?;
        let mut phases = est.phases(job, a.tier, *caps.get(a.tier))?;
        // Mirror the deployment's hand-off semantics: an interior
        // ephemeral job receives its dominant parent's output by
        // pipelining but must still download the *fresh* remainder of its
        // input from the backing store; interior outputs are pipelined to
        // the consumer (charged as edge transfers below), so only sinks
        // upload.
        if a.tier == Tier::EphSsd {
            let parents = wf.parents(jid);
            if !parents.is_empty() {
                let dom_out = parents
                    .iter()
                    .map(|&p| {
                        let pj = ctx.spec.job(p).expect("validated member");
                        pj.output(ctx.spec.profiles.get(pj.app)).bytes()
                    })
                    .fold(0.0_f64, f64::max);
                let fresh = DataSize::from_bytes((job.input.bytes() - dom_out).max(0.0));
                phases.stage_in = est.transfer(
                    fresh,
                    ctx.estimator.catalog.backing_store(),
                    Tier::EphSsd,
                    *caps.get(Tier::EphSsd),
                );
            }
            if !wf.children(jid).is_empty() {
                phases.stage_out = Duration::ZERO;
            }
        }
        time += phases.total();
    }
    for &(parent, child) in &wf.edges {
        let pa = plan.require(parent)?;
        let ca = plan.require(child)?;
        if pa.tier != ca.tier {
            let pjob = ctx
                .spec
                .job(parent)
                .ok_or(SolverError::Unassigned(parent.0))?;
            let bytes = pjob.output(ctx.spec.profiles.get(pjob.app));
            let scaled = *caps.get(if ca.tier.scales_with_capacity() {
                ca.tier
            } else {
                pa.tier
            });
            time += est.transfer(bytes, pa.tier, ca.tier, scaled);
        }
    }
    Ok(time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::tests::toy_estimator;
    use cast_workload::job::JobId;
    use cast_workload::synth;

    #[test]
    fn fig4_workflow_solved_within_deadline() {
        let spec = synth::fig4_workflow();
        let est = toy_estimator(10);
        let ctx = EvalContext::new(&est, &spec);
        let out = CastPlusPlus::new().solve(&ctx).unwrap();
        assert_eq!(out.workflows.len(), 1);
        let (_, weval) = out.workflows[0];
        assert!(
            weval.feasible,
            "8000 s deadline should be satisfiable: took {}",
            weval.time
        );
        assert_eq!(out.plan.len(), 4);
    }

    #[test]
    fn workflow_solver_prefers_cheaper_feasible_plans() {
        let spec = synth::fig4_workflow();
        let est = toy_estimator(10);
        let ctx = EvalContext::new(&est, &spec);
        let wf = &spec.workflows[0];
        let pp = CastPlusPlus::new();
        let seed = TieringPlan::uniform(&spec, Tier::PersSsd);
        let solved = pp.solve_workflow(&ctx, wf, &seed).unwrap();
        let solved_eval = evaluate_workflow_global(&ctx, wf, &solved).unwrap();
        let seed_eval = evaluate_workflow_global(&ctx, wf, &seed).unwrap();
        if seed_eval.feasible {
            assert!(solved_eval.feasible);
            assert!(solved_eval.cost.dollars() <= seed_eval.cost.dollars() + 1e-12);
        }
    }

    #[test]
    fn cross_tier_edges_cost_transfer_time() {
        let spec = synth::fig4_workflow();
        let est = toy_estimator(10);
        let ctx = EvalContext::new(&est, &spec);
        let wf = &spec.workflows[0];
        let uniform = TieringPlan::uniform(&spec, Tier::PersSsd);
        let mut split = uniform.clone();
        // Move the sink (Join) to a different tier: its two in-edges now
        // pay transfers.
        split.assign(JobId(3), crate::plan::Assignment::exact(Tier::PersHdd));
        let t_uniform = evaluate_workflow_global(&ctx, wf, &uniform).unwrap().time;
        let t_split = evaluate_workflow_global(&ctx, wf, &split).unwrap().time;
        assert!(t_split.secs() > t_uniform.secs());
    }

    #[test]
    fn infeasible_scores_below_feasible() {
        let feasible = WorkflowEval {
            time: Duration::from_secs(100.0),
            cost: Money::from_dollars(50.0),
            feasible: true,
        };
        let late = WorkflowEval {
            time: Duration::from_secs(300.0),
            cost: Money::from_dollars(1.0),
            feasible: false,
        };
        let d = Duration::from_secs(200.0);
        assert!(workflow_score(&feasible, d) > workflow_score(&late, d));
        // Lateness is penalised monotonically.
        let later = WorkflowEval {
            time: Duration::from_secs(500.0),
            ..late
        };
        assert!(workflow_score(&late, d) > workflow_score(&later, d));
    }

    #[test]
    fn suite_solve_covers_all_31_jobs() {
        let spec = synth::workflow_suite(5);
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let out = CastPlusPlus::new().solve(&ctx).unwrap();
        assert_eq!(out.plan.len(), 31);
        assert_eq!(out.workflows.len(), 5);
    }
}
