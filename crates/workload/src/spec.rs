//! The workload specification handed to the CAST framework.
//!
//! Mirrors the "analytics workload spec's" input of Fig. 6: the job list,
//! application profiles, input datasets (with reuse patterns), and any
//! workflow structure with deadlines.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use cast_cloud::units::DataSize;

use crate::dataset::{Dataset, DatasetId};
use crate::error::WorkloadError;
use crate::job::{Job, JobId};
use crate::profile::ProfileSet;
use crate::workflow::{Workflow, WorkflowId};

/// A complete analytics workload: jobs, datasets, workflows, profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// All jobs, in submission order.
    pub jobs: Vec<Job>,
    /// All input datasets referenced by jobs.
    pub datasets: Vec<Dataset>,
    /// Workflow structure over a subset of jobs. Jobs not in any workflow
    /// are independent.
    pub workflows: Vec<Workflow>,
    /// Application profiles used by the estimator and simulator.
    pub profiles: ProfileSet,
}

impl WorkloadSpec {
    /// An empty workload with default profiles.
    pub fn empty() -> WorkloadSpec {
        WorkloadSpec {
            jobs: Vec::new(),
            datasets: Vec::new(),
            workflows: Vec::new(),
            profiles: ProfileSet::defaults(),
        }
    }

    /// Look up a job by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Look up a dataset by id.
    pub fn dataset(&self, id: DatasetId) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.id == id)
    }

    /// Look up a workflow by id.
    pub fn workflow(&self, id: WorkflowId) -> Option<&Workflow> {
        self.workflows.iter().find(|w| w.id == id)
    }

    /// The workflow containing `job`, if any.
    pub fn workflow_of(&self, job: JobId) -> Option<&Workflow> {
        self.workflows.iter().find(|w| w.jobs.contains(&job))
    }

    /// Total input bytes across all jobs (shared datasets counted once per
    /// job that reads them).
    pub fn total_input(&self) -> DataSize {
        self.jobs.iter().map(|j| j.input).sum()
    }

    /// Groups of jobs sharing an input dataset (the `D` sets of Eq. 7).
    /// Only datasets read by more than one job are returned.
    pub fn reuse_groups(&self) -> Vec<(DatasetId, Vec<JobId>)> {
        let mut by_ds: HashMap<DatasetId, Vec<JobId>> = HashMap::new();
        for j in &self.jobs {
            by_ds.entry(j.dataset).or_default().push(j.id);
        }
        let mut groups: Vec<(DatasetId, Vec<JobId>)> = by_ds
            .into_iter()
            .filter(|(_, jobs)| jobs.len() > 1)
            .collect();
        for (_, jobs) in &mut groups {
            jobs.sort();
        }
        groups.sort_by_key(|(ds, _)| *ds);
        groups
    }

    /// Validate the whole specification: job shapes, unique ids, dataset
    /// references, workflow membership and acyclicity.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let mut seen = HashSet::new();
        for j in &self.jobs {
            j.validate()?;
            if !seen.insert(j.id) {
                return Err(WorkloadError::DuplicateJob(j.id.0));
            }
            if self.dataset(j.dataset).is_none() {
                return Err(WorkloadError::UnknownDataset {
                    job: j.id.0,
                    dataset: j.dataset.0,
                });
            }
        }
        let mut in_wf: HashSet<JobId> = HashSet::new();
        for w in &self.workflows {
            w.validate()?;
            for &jid in &w.jobs {
                if self.job(jid).is_none() {
                    return Err(WorkloadError::UnknownJob(jid.0));
                }
                if !in_wf.insert(jid) {
                    return Err(WorkloadError::JobInMultipleWorkflows(jid.0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppKind;
    use cast_cloud::units::Duration;

    fn two_job_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::empty();
        let ds = Dataset::single_use(DatasetId(0), DataSize::from_gb(10.0));
        spec.datasets.push(ds);
        spec.jobs.push(Job::with_default_layout(
            JobId(0),
            AppKind::Sort,
            DatasetId(0),
            DataSize::from_gb(10.0),
        ));
        spec.jobs.push(Job::with_default_layout(
            JobId(1),
            AppKind::Grep,
            DatasetId(0),
            DataSize::from_gb(10.0),
        ));
        spec
    }

    #[test]
    fn valid_spec_passes() {
        assert!(two_job_spec().validate().is_ok());
    }

    #[test]
    fn shared_dataset_forms_reuse_group() {
        let spec = two_job_spec();
        let groups = spec.reuse_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, DatasetId(0));
        assert_eq!(groups[0].1, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn duplicate_job_id_rejected() {
        let mut spec = two_job_spec();
        spec.jobs[1].id = JobId(0);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn missing_dataset_rejected() {
        let mut spec = two_job_spec();
        spec.jobs[1].dataset = DatasetId(42);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_names_the_duplicate_job_and_the_missing_dataset() {
        let mut spec = two_job_spec();
        spec.jobs[1].id = JobId(0);
        let err = spec.validate().unwrap_err();
        assert_eq!(err, WorkloadError::DuplicateJob(0));
        assert_eq!(err.to_string(), "job id #0 is used more than once");

        let mut spec = two_job_spec();
        spec.jobs[1].dataset = DatasetId(7);
        let err = spec.validate().unwrap_err();
        assert_eq!(err, WorkloadError::UnknownDataset { job: 1, dataset: 7 });
        assert_eq!(err.to_string(), "job #1 reads unknown dataset #7");
    }

    #[test]
    fn job_in_two_workflows_rejected() {
        let mut spec = two_job_spec();
        spec.workflows.push(Workflow::chain(
            WorkflowId(0),
            vec![JobId(0)],
            Duration::from_mins(10.0),
        ));
        spec.workflows.push(Workflow::chain(
            WorkflowId(1),
            vec![JobId(0), JobId(1)],
            Duration::from_mins(10.0),
        ));
        assert_eq!(
            spec.validate(),
            Err(WorkloadError::JobInMultipleWorkflows(0))
        );
    }

    #[test]
    fn independent_jobs_excludes_workflow_members() {
        let mut spec = two_job_spec();
        spec.workflows.push(Workflow::chain(
            WorkflowId(0),
            vec![JobId(0)],
            Duration::from_mins(10.0),
        ));
        assert!(spec.workflow_of(JobId(0)).is_some());
        assert!(spec.workflow_of(JobId(1)).is_none());
    }

    #[test]
    fn total_input_counts_per_job() {
        let spec = two_job_spec();
        assert!((spec.total_input().gb() - 20.0).abs() < 1e-9);
    }
}
