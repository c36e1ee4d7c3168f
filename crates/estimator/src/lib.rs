//! # cast-estimator
//!
//! Analytics job performance prediction for CAST (§4.1–4.2.1 of the paper).
//!
//! CAST profiles applications offline on each storage service and predicts
//! job runtimes with an adapted MRCute model (Eq. 1):
//!
//! ```text
//! EST = ⌈m / (nvm·mc)⌉ · (inputᵢ/m) / bw_map
//!     + ⌈r / (nvm·rc)⌉ · (interᵢ/r) / bw_shuffle
//!     + ⌈r / (nvm·rc)⌉ · (outputᵢ/r) / bw_reduce
//! ```
//!
//! each phase being `#waves × runtime-per-wave`. Because volume bandwidth
//! scales with provisioned capacity, the per-task bandwidths are functions
//! of capacity; CAST fits a *cubic Hermite spline* through profiled points
//! (the REG(·) of Eq. 4, validated in Fig. 2 and Fig. 8).
//!
//! This crate implements:
//!
//! * [`spline`] — a monotone cubic Hermite spline (Fritsch–Carlson
//!   tangents), the paper's "third degree polynomial-based cubic Hermite
//!   spline";
//! * [`model`] — the model matrix `M̂`: per-(application, tier) phase
//!   bandwidths as spline functions of per-VM capacity;
//! * [`profiler`] — offline profiling: runs calibration jobs on the
//!   [`cast_sim`] cluster (as CAST runs them on the real cluster) and
//!   extracts per-task phase bandwidths;
//! * [`mrcute`] — Eq. 1 itself, plus staging-transfer estimates;
//! * [`regression`] — the [`regression::Estimator`] façade: job + tier +
//!   capacity → predicted runtime;
//! * [`calibration`] — prediction-error statistics (the Fig. 8 methodology).
//!
//! The shuffle and reduce terms of Eq. 1 share the same wave count, so the
//! profiler calibrates them jointly as one shuffle+reduce bandwidth over
//! `(interᵢ+outputᵢ)/r` bytes; the folded form is algebraically identical
//! for prediction while being identifiable from phase-level measurements.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod calibration;
pub mod error;
pub mod model;
pub mod mrcute;
pub mod profiler;
pub mod regression;
pub mod spline;

pub use calibration::PredictionError;
pub use error::EstimatorError;
pub use model::{ModelMatrix, PhaseBw};
pub use mrcute::ClusterSpec;
pub use regression::Estimator;
pub use spline::MonotoneSpline;
