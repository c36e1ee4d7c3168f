//! # cast-workload
//!
//! The analytics workload model for CAST (HPDC'15).
//!
//! A CAST *workload* is a set of MapReduce jobs, each running one of a small
//! number of well-known applications (§6 argues analytics workloads are
//! dominated by a handful of job types). This crate provides:
//!
//! * [`apps`] — the application kinds of Table 2 (Sort, Join, Grep, KMeans,
//!   plus PageRank from the Fig. 4 workflow) and their I/O/CPU character,
//! * [`arrival`] — timestamped job-arrival streams (Poisson/bursty
//!   processes with workload drift) for the online runtime,
//! * [`tenant`] — the multi-tenant fleet factory: deterministic
//!   per-tenant arrival streams with service classes (priority +
//!   fair-share weight) for `cast-fleet`,
//! * [`profile`] — quantitative application profiles: phase selectivities,
//!   per-task processing rates and file-count behaviour that parameterise
//!   both the simulator and the performance estimator,
//! * [`job`] / [`dataset`] — job and dataset descriptions,
//! * [`reuse`] — the data-reuse patterns of §3.1.3 (`reuse-lifetime (1 hr)`
//!   / `(1 week)`),
//! * [`workflow`] — DAGs of inter-dependent jobs with deadlines,
//! * [`facebook`] — the Facebook trace job-size distribution of Table 4,
//! * [`synth`] — deterministic workload synthesis (the paper's 100-job
//!   evaluation workload, workflow suites, and custom mixes), and
//! * [`spec`] — the [`spec::WorkloadSpec`] bundle handed to the CAST
//!   framework.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod apps;
pub mod arrival;
pub mod dataset;
pub mod error;
pub mod facebook;
pub mod job;
pub mod profile;
pub mod reuse;
pub mod spec;
pub mod synth;
pub mod tenant;
pub mod workflow;

pub use apps::AppKind;
pub use arrival::{Arrival, ArrivalConfig, ArrivalProcess, ArrivalStream, DriftConfig};
pub use dataset::{Dataset, DatasetId};
pub use error::WorkloadError;
pub use job::{Job, JobId};
pub use profile::{AppProfile, ProfileSet};
pub use reuse::ReusePattern;
pub use spec::WorkloadSpec;
pub use tenant::{
    splitmix64, tenant_fleet, FleetWorkloadConfig, TenantClass, TenantId, TenantSpec,
};
pub use workflow::{Workflow, WorkflowId};
