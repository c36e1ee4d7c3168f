//! Simulation results: per-job phase timings and cluster-level aggregates.

use cast_cloud::units::Duration;
use cast_workload::job::JobId;
use serde::{Deserialize, Serialize};

/// Timing record for one simulated job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// The job this record describes.
    pub job: JobId,
    /// Simulated time the job became runnable.
    pub submitted: Duration,
    /// Simulated time the first task started.
    pub started: Duration,
    /// Simulated time the last task (including stage-out) finished.
    pub finished: Duration,
    /// Wall time of the input download / cross-tier transfer, zero if none.
    pub stage_in: Duration,
    /// Wall time of the map phase.
    pub map: Duration,
    /// Wall time of the shuffle+reduce phase.
    pub reduce: Duration,
    /// Wall time of the output upload, zero if none.
    pub stage_out: Duration,
    /// Task attempts of this job that failed mid-run (fault injection).
    pub failures: u32,
    /// Retry attempts scheduled for this job's failed or killed tasks.
    pub retries: u32,
    /// Speculative backup copies launched for this job's stragglers.
    pub speculations: u32,
    /// Tasks of this job killed by VM crashes or lost speculative races.
    pub kills: u32,
}

impl JobMetrics {
    /// Total runtime from first task start to completion.
    pub fn runtime(&self) -> Duration {
        self.finished - self.started
    }

    /// "Data processing" time in the Fig. 1 sense: everything except
    /// staging transfers.
    pub fn processing(&self) -> Duration {
        self.map + self.reduce
    }
}

/// Cluster-wide fault and recovery totals for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Task attempts that failed mid-run.
    pub task_failures: u32,
    /// Retry attempts scheduled (failed tasks plus crash victims).
    pub retries: u32,
    /// Speculative backup copies launched.
    pub speculations: u32,
    /// Tasks killed by VM crashes or lost speculative races.
    pub kills: u32,
    /// VM crash events that took effect during the run.
    pub vm_crashes: u32,
}

impl FaultSummary {
    /// Whether nothing fault-related happened.
    pub fn is_quiet(&self) -> bool {
        *self == FaultSummary::default()
    }
}

/// Result of simulating a workload.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-job metrics in completion order.
    pub jobs: Vec<JobMetrics>,
    /// Simulated time at which the last job finished.
    pub makespan: Duration,
    /// Fault-injection totals (all-zero for fault-free runs).
    pub faults: FaultSummary,
}

impl SimReport {
    /// Metrics for one job.
    pub fn job(&self, id: JobId) -> Option<&JobMetrics> {
        self.jobs.iter().find(|m| m.job == id)
    }

    /// Makespan per workflow: completion time of the latest member job.
    pub fn workflow_completion(&self, members: &[JobId]) -> Option<Duration> {
        let start = members
            .iter()
            .map(|id| self.job(*id).map(|m| m.started))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .fold(Duration::INFINITY, Duration::min);
        let end = members
            .iter()
            .map(|id| self.job(*id).map(|m| m.finished))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .fold(Duration::ZERO, Duration::max);
        Some(end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(id: u32, start: f64, end: f64) -> JobMetrics {
        JobMetrics {
            job: JobId(id),
            submitted: Duration::from_secs(start),
            started: Duration::from_secs(start),
            finished: Duration::from_secs(end),
            stage_in: Duration::ZERO,
            map: Duration::from_secs((end - start) * 0.6),
            reduce: Duration::from_secs((end - start) * 0.4),
            stage_out: Duration::ZERO,
            failures: 0,
            retries: 0,
            speculations: 0,
            kills: 0,
        }
    }

    #[test]
    fn runtime_and_processing() {
        let m = metrics(0, 10.0, 110.0);
        assert!((m.runtime().secs() - 100.0).abs() < 1e-9);
        assert!((m.processing().secs() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn report_totals() {
        let report = SimReport {
            jobs: vec![metrics(0, 0.0, 50.0), metrics(1, 50.0, 120.0)],
            makespan: Duration::from_secs(120.0),
            faults: FaultSummary::default(),
        };
        assert!(report.job(JobId(1)).is_some());
        assert!(report.job(JobId(9)).is_none());
    }

    #[test]
    fn workflow_completion_spans_members() {
        let report = SimReport {
            jobs: vec![metrics(0, 0.0, 50.0), metrics(1, 50.0, 120.0)],
            makespan: Duration::from_secs(120.0),
            faults: FaultSummary::default(),
        };
        let wf = report.workflow_completion(&[JobId(0), JobId(1)]).unwrap();
        assert!((wf.secs() - 120.0).abs() < 1e-9);
        assert!(report.workflow_completion(&[JobId(7)]).is_none());
    }
}
