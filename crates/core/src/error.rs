//! The framework-wide error type.
//!
//! Each layer of the pipeline keeps its own error enum
//! ([`cast_workload::WorkloadError`], [`cast_estimator::EstimatorError`],
//! [`cast_solver::SolverError`], [`cast_sim::SimError`],
//! [`cast_runtime::RuntimeError`]) — those stay
//! the precise, matchable types for callers working inside one layer.
//! [`CastError`] wraps each of them once, so the façade's methods share
//! one `Result` surface and callers can `?` across layers without manual
//! conversions. The variant names the layer that failed.

use cast_estimator::EstimatorError;
use cast_runtime::RuntimeError;
use cast_sim::SimError;
use cast_solver::SolverError;
use cast_workload::WorkloadError;

/// Any failure the [`crate::framework::Cast`] façade can surface.
#[derive(Debug)]
pub enum CastError {
    /// The workload handed to planning or deployment is malformed
    /// (duplicate job id, unknown dataset, cyclic workflow, …).
    Workload(WorkloadError),
    /// Offline profiling or model fitting failed.
    Estimator(EstimatorError),
    /// Planning failed, or a plan handed to deployment is malformed
    /// (unassigned job, infeasible constraint, …).
    Solver(SolverError),
    /// Provisioning or the cluster simulation failed; a provisioning
    /// failure arrives as [`SimError::Cloud`].
    Sim(SimError),
    /// The online tiering runtime failed mid-stream.
    Runtime(RuntimeError),
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastError::Workload(e) => write!(f, "workload error: {e}"),
            CastError::Estimator(e) => write!(f, "estimator error: {e}"),
            CastError::Solver(e) => write!(f, "solver error: {e}"),
            CastError::Sim(e) => write!(f, "simulation error: {e}"),
            CastError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for CastError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CastError::Workload(e) => Some(e),
            CastError::Estimator(e) => Some(e),
            CastError::Solver(e) => Some(e),
            CastError::Sim(e) => Some(e),
            CastError::Runtime(e) => Some(e),
        }
    }
}

impl From<WorkloadError> for CastError {
    fn from(e: WorkloadError) -> Self {
        CastError::Workload(e)
    }
}

impl From<EstimatorError> for CastError {
    fn from(e: EstimatorError) -> Self {
        CastError::Estimator(e)
    }
}

impl From<SolverError> for CastError {
    fn from(e: SolverError) -> Self {
        CastError::Solver(e)
    }
}

impl From<SimError> for CastError {
    fn from(e: SimError) -> Self {
        CastError::Sim(e)
    }
}

impl From<RuntimeError> for CastError {
    fn from(e: RuntimeError) -> Self {
        CastError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_display_their_layer_and_source() {
        let e: CastError = SolverError::Unassigned(3).into();
        assert!(matches!(e, CastError::Solver(SolverError::Unassigned(3))));
        assert!(e.to_string().contains("solver error"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CastError = cast_workload::WorkloadError::DuplicateJob(2).into();
        assert!(e.to_string().contains("workload error"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CastError = SimError::MissingPlacement(1).into();
        assert!(matches!(e, CastError::Sim(SimError::MissingPlacement(1))));
        assert!(e.to_string().contains("simulation error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
