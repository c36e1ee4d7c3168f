//! Error type for the online runtime.

use std::fmt;

use cast_cloud::units::Duration;
use cast_estimator::EstimatorError;
use cast_sim::SimError;
use cast_solver::SolverError;
use cast_workload::WorkloadError;

/// Anything that can go wrong while serving an arrival stream.
#[derive(Debug)]
pub enum RuntimeError {
    /// The arrival stream or an assembled epoch spec is malformed.
    Workload(WorkloadError),
    /// A replan failed.
    Solver(SolverError),
    /// An epoch simulation failed.
    Sim(SimError),
    /// A runtime-side estimate failed (admission control).
    Estimator(EstimatorError),
    /// Cluster provisioning failed.
    Cloud(cast_cloud::CloudError),
    /// `RuntimeConfig::epoch` is zero, negative or NaN: the stream
    /// cannot be cut into epochs.
    InvalidEpoch(Duration),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Workload(e) => write!(f, "workload error: {e}"),
            RuntimeError::Solver(e) => write!(f, "solver error: {e}"),
            RuntimeError::Sim(e) => write!(f, "simulation error: {e}"),
            RuntimeError::Estimator(e) => write!(f, "estimator error: {e}"),
            RuntimeError::Cloud(e) => write!(f, "cloud error: {e}"),
            RuntimeError::InvalidEpoch(d) => {
                write!(f, "invalid epoch length {d}: epochs must be positive")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<WorkloadError> for RuntimeError {
    fn from(e: WorkloadError) -> Self {
        RuntimeError::Workload(e)
    }
}

impl From<SolverError> for RuntimeError {
    fn from(e: SolverError) -> Self {
        RuntimeError::Solver(e)
    }
}

impl From<SimError> for RuntimeError {
    fn from(e: SimError) -> Self {
        RuntimeError::Sim(e)
    }
}

impl From<EstimatorError> for RuntimeError {
    fn from(e: EstimatorError) -> Self {
        RuntimeError::Estimator(e)
    }
}

impl From<cast_cloud::CloudError> for RuntimeError {
    fn from(e: cast_cloud::CloudError) -> Self {
        RuntimeError::Cloud(e)
    }
}
