//! # cast-runtime — the online tiering runtime
//!
//! Offline CAST (the solver crate) answers "given *this* workload, which
//! tier should each job use?". This crate answers the production
//! question: jobs keep *arriving*, the mix drifts, and yesterday's plan
//! slowly rots. The [`OnlineRuntime`] is a deterministic, event-driven
//! epoch loop over a timestamped [`cast_workload::ArrivalStream`]:
//!
//! 1. **Batch** — arrivals are collected per epoch and executed at the
//!    boundary (or later, when the previous batch overruns); fresh data
//!    lands on each app's ingest tier, distilled from the incumbent plan.
//! 2. **Replan** — per [`ReplanPolicy`], the annealer re-runs
//!    *warm-started* from the incumbent
//!    ([`cast_solver::Annealer::resume_from`]: a fixed, cooler and
//!    shorter schedule than a cold solve) over a rolling horizon of the
//!    batch plus a persistence forecast of the next one ([`forecast`]).
//! 3. **Adopt or veto** — [`ReplanPolicy::Hysteresis`] adopts the
//!    candidate only when it beats the incumbent placement by a minimum
//!    relative utility gain, so marginal wins cause zero data movement.
//! 4. **Migrate** — adopting a plan turns the delta into explicit
//!    transfers ([`migrate::plan_delta`]) that the simulator charges
//!    through the same bandwidth-sharing machinery as job I/O; jobs
//!    whose data is in flight wait for it.
//! 5. **Account** — per-epoch cost, deadline misses (CAST++ workflows,
//!    with [`AdmissionPolicy::Deadline`] admission control) and
//!    migration volume roll up into an [`OnlineReport`].
//!
//! The loop never reads the wall clock or ambient randomness: a run is a
//! pure function of `(estimator, AnnealConfig, RuntimeConfig, stream)`
//! and its report serialises byte-identically across repetitions — the
//! property the root determinism tests pin.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod config;
pub mod error;
pub mod forecast;
pub mod migrate;
pub mod report;
pub mod runtime;
pub mod session;

pub use config::{AdmissionPolicy, MigrationProtocol, ReplanPolicy, RuntimeConfig, SkipPolicy};
pub use error::RuntimeError;
pub use forecast::{is_forecast, planning_spec, strip_forecast, FORECAST_ID_BASE};
pub use migrate::{execute_schedule, home_tier, plan_delta, MigrationSchedule, ProtocolOutcome};
pub use report::{EpochReport, OnlineReport};
pub use runtime::OnlineRuntime;
pub use session::{
    ingest_plan, majority_tiers, PendingPlan, PlanPhase, PlanProvenance, PlannedEpoch, SolveInputs,
    SolveProduct, TenantSession, INGEST_FALLBACK,
};
