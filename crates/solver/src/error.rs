//! Solver error type.

use std::fmt;

/// Errors raised while constructing or evaluating tiering plans.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A job lacks an assignment in the plan under evaluation.
    Unassigned(u32),
    /// The estimator could not answer (missing profile, bad fit).
    Estimator(cast_estimator::EstimatorError),
    /// An over-provisioning factor below 1 would violate Eq. 3.
    CapacityViolation {
        /// Offending job.
        job: u32,
        /// The factor supplied.
        factor: f64,
    },
    /// The workload itself is malformed (e.g. a reuse group reads a
    /// dataset the spec does not define).
    Workload(cast_workload::WorkloadError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Unassigned(j) => write!(f, "job #{j} has no tier assignment"),
            SolverError::Estimator(e) => write!(f, "estimator error: {e}"),
            SolverError::CapacityViolation { job, factor } => write!(
                f,
                "job #{job}: over-provisioning factor {factor} violates Eq. 3 (must be ≥ 1)"
            ),
            SolverError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<cast_estimator::EstimatorError> for SolverError {
    fn from(e: cast_estimator::EstimatorError) -> Self {
        SolverError::Estimator(e)
    }
}

impl From<cast_workload::WorkloadError> for SolverError {
    fn from(e: cast_workload::WorkloadError) -> Self {
        SolverError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SolverError::Unassigned(3).to_string().contains("#3"));
        let e = SolverError::CapacityViolation {
            job: 1,
            factor: 0.5,
        };
        assert!(e.to_string().contains("0.5"));
    }
}
