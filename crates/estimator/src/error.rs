//! Estimator error type.

use std::fmt;

/// Errors raised while fitting models or answering estimates.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorError {
    /// Spline fit with no points.
    EmptyFit,
    /// Two knots share an x-coordinate.
    DuplicateKnot(f64),
    /// A knot's x-coordinate is NaN.
    NanKnot,
    /// No profile exists for the requested (application, tier).
    NotProfiled {
        /// Application name.
        app: String,
        /// Tier name.
        tier: String,
    },
    /// Profiling simulation failed.
    Profiling(String),
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::EmptyFit => write!(f, "cannot fit a spline through zero points"),
            EstimatorError::DuplicateKnot(x) => {
                write!(f, "duplicate spline knot at x={x}")
            }
            EstimatorError::NanKnot => write!(f, "spline knot at x=NaN"),
            EstimatorError::NotProfiled { app, tier } => {
                write!(f, "no profile for {app} on {tier}; run the profiler first")
            }
            EstimatorError::Profiling(msg) => write!(f, "profiling run failed: {msg}"),
        }
    }
}

impl std::error::Error for EstimatorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = EstimatorError::NotProfiled {
            app: "Sort".into(),
            tier: "persHDD".into(),
        };
        let s = e.to_string();
        assert!(s.contains("Sort") && s.contains("persHDD"));
    }
}
