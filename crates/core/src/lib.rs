//! # cast-core
//!
//! The CAST framework façade — the end-to-end pipeline of Fig. 6:
//!
//! ```text
//!  workload spec + plan strategy + cloud service specs
//!        │
//!        ▼
//!  1. job performance estimator  (offline profiling → M̂, REG splines)
//!        │
//!        ▼
//!  2. tiering solver             (greedy / CAST annealing / CAST++)
//!        │
//!        ▼
//!  ⟨S₁,C₁⟩, ⟨S₂,C₂⟩, …          (job → storage service + capacity)
//!        │
//!        ▼
//!  deployment                    (provision volumes, run the workload)
//! ```
//!
//! [`framework::Cast`] owns the profiled estimator and has one method per
//! step: [`Cast::plan`] solves with a [`PlanStrategy`], [`Cast::deploy`]
//! materialises the plan on the simulated cluster and measures what
//! actually happened, and [`report`] compares the two.
//!
//! ```no_run
//! use cast_core::prelude::*;
//!
//! let framework = Cast::builder().nvm(25).build().unwrap();
//! let spec = cast_workload::synth::facebook_workload(Default::default()).unwrap();
//! let planned = framework.plan(&spec, PlanStrategy::CastPlusPlus).unwrap();
//! let outcome = framework.deploy(&spec, &planned.plan).unwrap();
//! println!("{}", outcome.render());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod deploy;
pub mod error;
pub mod framework;
pub mod prelude;
pub mod report;

pub use deploy::DeployOutcome;
pub use error::CastError;
pub use framework::{Cast, CastBuilder, PlanStrategy, Planned};
pub use report::DeploymentReport;
