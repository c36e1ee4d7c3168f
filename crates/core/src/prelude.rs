//! One-stop imports for CAST users, grouped by layer.
//!
//! ```
//! use cast_core::prelude::*;
//! ```

// Façade: the framework object, its strategies, reports, and the
// unified error type every façade method returns.
pub use crate::deploy::DeployOutcome;
pub use crate::error::CastError;
pub use crate::framework::{Cast, CastBuilder, PlanStrategy, Planned};
pub use crate::report::DeploymentReport;

// Cloud model: provider catalogs, storage tiers, and the unit types that
// appear throughout the API surface.
pub use cast_cloud::units::{Bandwidth, DataSize, Duration, Money};
pub use cast_cloud::{Catalog, Tier};

// Estimator: the profiled performance model consumed by the solvers.
pub use cast_estimator::{Estimator, ModelMatrix};

// Simulator: the unified entry point (`Sim::builder`), live-state capture
// for what-if forks, and the fault-injection inputs a `SimConfig` carries.
pub use cast_sim::{
    DegradationWindow, EngineSnapshot, FaultPlan, RunState, Sim, SimBuilder, VmCrash,
};

// Solver: plan representation and annealer tuning knobs.
pub use cast_solver::{AnnealConfig, Assignment, TieringPlan};

// Workload: job and workload descriptions, plus the arrival streams the
// online runtime consumes.
pub use cast_workload::{
    AppKind, ArrivalConfig, ArrivalProcess, ArrivalStream, DriftConfig, Job, JobId, WorkloadSpec,
};

// Online runtime: rolling-horizon replanning over an arrival stream,
// served through `Cast::online`.
pub use cast_runtime::{AdmissionPolicy, OnlineReport, OnlineRuntime, ReplanPolicy, RuntimeConfig};

// Observability: attach a recording `Collector` via the `Observe` trait
// (`X::new(..).observe(collector)` at every layer), then read its events
// (`cast_obs::to_ndjson` writes them as a trace) and snapshot its metrics.
pub use cast_obs::{Collector, MetricsSnapshot, Observe};
