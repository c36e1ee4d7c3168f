//! # cast-fleet — sharded multi-tenant tiering service
//!
//! One simulated region serving thousands of tenants, each with its own
//! class (priority and fair-share weight), workflow deadlines, drift
//! profile and arrival stream from [`cast_workload::tenant_fleet`]. The
//! pieces:
//!
//! * [`TenantRegistry`] + [`shard_of`] — the shard map: tenants hash
//!   onto `N` independent capacity pools via splitmix64, stably and
//!   machine-independently.
//! * [`Fleet`] — the epoch scheduler: per-tenant replan epochs
//!   ([`cast_runtime::TenantSession`], warm starts and the replan-skip
//!   gate included) dispatched across [`cast_sim::par`]'s worker pool.
//! * [`admit_epoch`] — shared-capacity accounting: per-epoch priority
//!   admission over each shard's [`cast_cloud::CapacityLedger`], with
//!   weighted max-min fair share for best-effort classes and
//!   all-or-nothing full grants for guaranteed ones.
//! * [`FleetReport`] / [`FleetStats`] — deterministic cross-shard
//!   settlement (byte-identical across 1/2/8 workers) with wall-clock
//!   latencies quarantined in a side channel.
//!
//! ```
//! use cast_cloud::tier::PerTier;
//! use cast_cloud::units::DataSize;
//! use cast_fleet::{Fleet, FleetConfig, TenantRegistry};
//! # use cast_cloud::tier::Tier;
//! # use cast_cloud::Catalog;
//! # use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
//! # use cast_estimator::mrcute::ClusterSpec;
//! # use cast_estimator::Estimator;
//! # use cast_workload::profile::ProfileSet;
//! # use cast_workload::{tenant_fleet, AppKind, FleetWorkloadConfig};
//! # let mut matrix = ModelMatrix::new();
//! # for app in AppKind::ALL {
//! #     for tier in Tier::ALL {
//! #         let bw = PhaseBw { map: 10.0, shuffle_reduce: 10.0 };
//! #         matrix.insert(app, tier, CapacityCurve::fit(&[(375.0, bw)]).unwrap());
//! #     }
//! # }
//! # let estimator = Estimator {
//! #     matrix,
//! #     catalog: Catalog::google_cloud(),
//! #     cluster: ClusterSpec { nvm: 4, map_slots: 16, reduce_slots: 8, task_startup_secs: 1.5 },
//! #     profiles: ProfileSet::defaults(),
//! # };
//!
//! let specs = tenant_fleet(&FleetWorkloadConfig {
//!     tenants: 4,
//!     ..FleetWorkloadConfig::default()
//! })?;
//! let registry = TenantRegistry::new(specs, 2)?;
//! # let mut cfg = FleetConfig::default();
//! # cfg.anneal.iterations = 300; // keep the doc test quick
//! # let fleet = Fleet::new(&estimator, cfg);
//! # #[cfg(any())]
//! let fleet = Fleet::new(&estimator, FleetConfig::default());
//! let outcome = fleet.run(&registry)?;
//! assert_eq!(outcome.report.tenants.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod admission;
pub mod error;
pub mod fleet;
pub mod report;
pub mod shard;

pub use admission::{admit_epoch, Admission, AdmissionConfig, AdmissionRequest};
pub use error::FleetError;
pub use fleet::{DedupMode, Fleet, FleetConfig, FleetOutcome};
pub use report::{FleetReport, FleetStats, ShardReport, TenantSummary};
pub use shard::{shard_of, TenantRegistry};
