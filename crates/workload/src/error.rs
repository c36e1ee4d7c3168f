//! Error type for workload construction and validation.

use std::fmt;

/// Errors raised while building or validating workloads and workflows.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// An application name could not be parsed.
    UnknownApp(String),
    /// A workflow edge references a job that is not part of the workflow.
    UnknownJob(u32),
    /// A workflow DAG contains a cycle.
    CyclicWorkflow {
        /// The workflow's numeric id.
        workflow: u32,
    },
    /// A job appears in more than one workflow.
    JobInMultipleWorkflows(u32),
    /// A job has a non-positive input size or zero tasks.
    DegenerateJob(u32),
    /// Two jobs of one workload share an id.
    DuplicateJob(u32),
    /// A job reads a dataset the workload does not define.
    UnknownDataset {
        /// The job's numeric id.
        job: u32,
        /// The missing dataset's numeric id.
        dataset: u32,
    },
    /// A synthesis parameter is out of range.
    BadSynthesisParameter(&'static str),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownApp(name) => write!(f, "unknown application {name:?}"),
            WorkloadError::UnknownJob(id) => write!(f, "workflow references unknown job #{id}"),
            WorkloadError::CyclicWorkflow { workflow } => {
                write!(f, "workflow #{workflow} contains a dependency cycle")
            }
            WorkloadError::JobInMultipleWorkflows(id) => {
                write!(f, "job #{id} appears in more than one workflow")
            }
            WorkloadError::DegenerateJob(id) => {
                write!(f, "job #{id} has no input data or no tasks")
            }
            WorkloadError::DuplicateJob(id) => write!(f, "job id #{id} is used more than once"),
            WorkloadError::UnknownDataset { job, dataset } => {
                write!(f, "job #{job} reads unknown dataset #{dataset}")
            }
            WorkloadError::BadSynthesisParameter(which) => {
                write!(f, "synthesis parameter out of range: {which}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(WorkloadError::UnknownJob(7).to_string().contains("#7"));
        assert!(WorkloadError::CyclicWorkflow { workflow: 3 }
            .to_string()
            .contains("#3"));
    }
}
