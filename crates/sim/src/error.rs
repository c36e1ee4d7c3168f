//! Simulator error type.

use std::fmt;

/// Errors raised while preparing or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A job in the workload has no placement.
    MissingPlacement(u32),
    /// A placement references a block tier with zero provisioned capacity.
    UnprovisionedTier {
        /// Offending job.
        job: u32,
        /// Tier lacking capacity.
        tier: String,
    },
    /// A placement's input split fractions are invalid.
    InvalidSplit(u32),
    /// A two-tier input split was asked for a fraction that is NaN or
    /// outside `[0, 1]`.
    SplitFraction(f64),
    /// The engine made no progress. Carries whatever is known about the
    /// blocking work so a zero-bandwidth placement (or a cluster that
    /// never recovers) is diagnosable from the error alone.
    Stalled {
        /// Simulated time at the stall.
        at_secs: f64,
        /// Id of the blocked job, when one is identifiable.
        job: Option<u32>,
        /// Phase the blocked job was in.
        phase: Option<&'static str>,
        /// Tier the blocked stage was reading/writing, when known.
        tier: Option<String>,
    },
    /// A task exhausted its retry budget under fault injection; the owning
    /// job cannot complete.
    JobFailed {
        /// Failed job.
        job: u32,
        /// Attempts the fatal task made (first run + retries).
        attempts: u32,
    },
    /// A migration's `after` chain references an id that does not appear
    /// earlier in the migration list.
    InvalidMigrationChain {
        /// Migration with the dangling dependency.
        id: u32,
        /// The referenced id that was not found before it.
        missing: u32,
    },
    /// A what-if placement swap targeted a job that has already started
    /// (only still-waiting jobs can be redirected on a forked engine).
    PlacementLocked {
        /// Job whose placement was frozen.
        job: u32,
        /// Phase the job had reached.
        phase: &'static str,
    },
    /// The configured [`crate::fault::FaultPlan`] is malformed.
    InvalidFaultPlan {
        /// What was wrong.
        reason: String,
    },
    /// Event budget exhausted — almost certainly a bug or a degenerate
    /// configuration (e.g. zero-bandwidth tier on the critical path).
    /// Carries a snapshot of the run so a runaway is diagnosable without
    /// re-running under tracing.
    EventBudgetExhausted {
        /// Simulated time when the budget ran out.
        at_secs: f64,
        /// Engine steps executed when the fixed event budget ran out.
        steps: u64,
        /// Tasks in flight at exhaustion.
        active_tasks: usize,
        /// Jobs not yet `Done` at exhaustion.
        active_jobs: usize,
    },
    /// Cloud-model error during provisioning.
    Cloud(cast_cloud::CloudError),
    /// Workload-model error.
    Workload(cast_workload::WorkloadError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingPlacement(j) => write!(f, "job #{j} has no placement"),
            SimError::UnprovisionedTier { job, tier } => {
                write!(f, "job #{job} placed on {tier} which has no capacity")
            }
            SimError::InvalidSplit(j) => write!(f, "job #{j} has an invalid input split"),
            SimError::SplitFraction(frac) => {
                write!(f, "input split fraction {frac} is not in [0, 1]")
            }
            SimError::Stalled {
                at_secs,
                job,
                phase,
                tier,
            } => {
                write!(f, "simulation stalled at t={at_secs:.3}s")?;
                if let Some(j) = job {
                    write!(f, " on job #{j}")?;
                }
                if let Some(p) = phase {
                    write!(f, " in phase {p}")?;
                }
                if let Some(t) = tier {
                    write!(f, " blocked on tier {t}")?;
                }
                Ok(())
            }
            SimError::JobFailed { job, attempts } => {
                write!(f, "job #{job} failed: a task exhausted {attempts} attempts")
            }
            SimError::InvalidMigrationChain { id, missing } => write!(
                f,
                "migration #{id} waits on migration #{missing}, which does not \
                 precede it"
            ),
            SimError::PlacementLocked { job, phase } => write!(
                f,
                "job #{job} is already in phase {phase}: placements can only \
                 be swapped while a job is waiting"
            ),
            SimError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimError::EventBudgetExhausted {
                at_secs,
                steps,
                active_tasks,
                active_jobs,
            } => write!(
                f,
                "simulation event budget exhausted after {steps} steps at \
                 t={at_secs:.3}s with {active_tasks} active tasks across \
                 {active_jobs} unfinished jobs"
            ),
            SimError::Cloud(e) => write!(f, "cloud model error: {e}"),
            SimError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<cast_cloud::CloudError> for SimError {
    fn from(e: cast_cloud::CloudError) -> Self {
        SimError::Cloud(e)
    }
}

impl From<cast_workload::WorkloadError> for SimError {
    fn from(e: cast_workload::WorkloadError) -> Self {
        SimError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_job() {
        assert!(SimError::MissingPlacement(4).to_string().contains("#4"));
        let e = SimError::UnprovisionedTier {
            job: 2,
            tier: "persHDD".into(),
        };
        assert!(e.to_string().contains("persHDD"));
    }

    #[test]
    fn stalled_display_includes_context() {
        let e = SimError::Stalled {
            at_secs: 12.5,
            job: Some(3),
            phase: Some("map"),
            tier: Some("persHDD".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("t=12.500"));
        assert!(msg.contains("#3"));
        assert!(msg.contains("map"));
        assert!(msg.contains("persHDD"));
        // A context-free stall still renders.
        let bare = SimError::Stalled {
            at_secs: 1.0,
            job: None,
            phase: None,
            tier: None,
        };
        assert!(bare.to_string().contains("stalled"));
    }

    #[test]
    fn job_failed_display() {
        let e = SimError::JobFailed {
            job: 7,
            attempts: 4,
        };
        assert!(e.to_string().contains("#7"));
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn event_budget_display_includes_snapshot() {
        let e = SimError::EventBudgetExhausted {
            at_secs: 250.25,
            steps: 1000,
            active_tasks: 12,
            active_jobs: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("1000 steps"));
        assert!(msg.contains("t=250.250"));
        assert!(msg.contains("12 active tasks"));
        assert!(msg.contains("3 unfinished jobs"));
    }

    #[test]
    fn conversions() {
        let ce = cast_cloud::CloudError::UnknownTier("x".into());
        let se: SimError = ce.clone().into();
        assert_eq!(se, SimError::Cloud(ce));
    }
}
