//! # cast-sim
//!
//! A discrete-event MapReduce cluster simulator with tiered cloud storage —
//! the substrate standing in for the paper's 400-core Hadoop-on-Google-Cloud
//! testbed.
//!
//! ## Model
//!
//! The simulated cluster is a set of homogeneous worker VMs, each with map
//! and reduce task slots, a NIC, and per-tier storage volumes whose
//! bandwidth comes from the [`cast_cloud`] catalog (so capacity→performance
//! scaling is exactly Table 1). Jobs execute in the classic phase structure:
//!
//! * optional **stage-in** (download from the backing object store when the
//!   primary tier is non-persistent ephemeral SSD, or a cross-tier transfer
//!   between workflow stages),
//! * **map** — each task streams its input split, runs the map function and
//!   spills intermediate data,
//! * **shuffle + reduce** — each reduce task fetches its partition over the
//!   network and streams it through the reduce function to the output tier,
//! * optional **stage-out** (upload of output to the object store).
//!
//! Tasks are *flows*: every active task registers on the resources it
//! touches (a storage volume, the VM NIC) and progresses at the minimum of
//! its fair shares, its per-task client cap, and its application processing
//! rate. The engine is progress-based and event-driven: when a resource's
//! flow set changes, only the tasks sharing that resource have their rates
//! recomputed, and each task's predicted completion is one live entry in
//! an indexed min-heap, re-keyed or removed in place when its rate
//! changes or it leaves (see [`engine`] for the hot-path design and
//! [`mod@reference`] for the equivalence oracle).
//! This reproduces the second-order effects the paper observes on the real
//! cluster — waves from slot limits, stragglers under fine-grained
//! cross-tier placement (Fig. 5), object-store request overheads for
//! many-small-file jobs (Fig. 1b), and diminishing returns from volume
//! over-provisioning (Fig. 2).
//!
//! A small deterministic per-task speed jitter models task-time variance so
//! analytic predictions carry realistic error (Fig. 8's ≈8 %).
//!
//! ## Entry points
//!
//! [`Sim::builder`] takes a [`config::SimConfig`], a
//! [`cast_workload::WorkloadSpec`] and its [`placement::PlacementMap`] and
//! builds the live [`Engine`], whose run yields a [`metrics::SimReport`]
//! with per-job phase timings and the makespan. Callers with migrations
//! or a reused [`EngineScratch`] lower through [`prepare_runs`] and call
//! an [`Engine`] constructor directly.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod jobrun;
pub mod metrics;
pub mod par;
pub mod placement;
pub mod reference;
pub mod resources;
pub mod runner;
pub mod sim;
mod soa;
pub mod task;
pub mod whatif;

pub use config::SimConfig;
pub use engine::{Engine, EngineScratch, EngineSnapshot, EngineStats, RunState};
pub use error::SimError;
pub use fault::{DegradationWindow, FaultPlan, VmCrash};
pub use metrics::{FaultSummary, JobMetrics, SimReport};
pub use placement::{JobPlacement, PlacementMap, SplitPlacement};
pub use runner::{prepare_runs, MigrationSpec, MIGRATION_JOB_BASE};
pub use sim::{Sim, SimBuilder};
pub use whatif::{pick_winner, score_cold, score_forked, CandidateOverride};
