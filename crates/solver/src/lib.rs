//! # cast-solver
//!
//! The CAST and CAST++ tiering solvers (§4.2–4.3 of the paper).
//!
//! Given a workload specification, a profiled performance estimator and the
//! provider's price sheet, the solvers choose for every job a storage
//! service `sᵢ` and a provisioned capacity `cᵢ` (Table 3's decision
//! variables) to optimise a tenant goal:
//!
//! * **CAST** ([`anneal`]) maximises tenant utility
//!   `U = (1/T)/($vm + $store)` (Eq. 2) over the whole workload with a
//!   simulated-annealing search (Algorithm 2), subject to the capacity
//!   constraint `cᵢ ≥ inputᵢ + interᵢ + outputᵢ` (Eq. 3).
//! * **Greedy** ([`greedy`]) is Algorithm 1: per-job locally-optimal tier
//!   choice, in `exact-fit` and `over-provisioned` flavours — the paper's
//!   strawmen.
//! * **CAST++** ([`castpp`]) adds data-reuse awareness (jobs sharing a
//!   dataset share a tier, Eq. 7) and workflow awareness: each workflow's
//!   cost is minimised subject to its deadline (Eq. 8–9) with cross-tier
//!   transfer times, exploring neighbours along a DFS traversal of the
//!   workflow DAG. One annealing loop runs both solvers; the workflow
//!   solves score against the whole plan's pooled provisioned capacities.
//!   Deviation from the paper: Eq. 10's per-workflow capacities, with
//!   their discount for same-tier hand-offs, are not applied.
//!
//! The search solvers never touch the simulator — they see the world only
//! through the [`cast_estimator::Estimator`], exactly as CAST sees the real
//! cluster only through its profiled models.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod anneal;
pub mod castpp;
pub mod diagnostics;
pub mod error;
pub mod greedy;
pub mod incremental;
pub mod neighbor;
pub mod objective;
pub mod plan;

pub use anneal::{restart_seed, AnnealConfig, Annealer, SearchOutcome};
pub use castpp::CastPlusPlus;
pub use diagnostics::SolveDiagnostics;
pub use error::SolverError;
pub use greedy::{greedy_plan, GreedyMode};
pub use incremental::{CacheStats, IncrementalEval};
pub use objective::{evaluate, EvalContext, PlanEval};
pub use plan::{Assignment, TieringPlan};
