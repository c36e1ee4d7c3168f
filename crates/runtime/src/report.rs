//! Per-epoch and whole-run results of an online serving run.

use serde::{Deserialize, Serialize};

/// What happened in one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: u32,
    /// Epoch boundary in stream seconds.
    pub boundary_secs: f64,
    /// Instant the batch actually started executing (≥ boundary when the
    /// previous batch overran).
    pub start_secs: f64,
    /// Arrivals batched at this boundary (after admission control).
    pub arrivals: usize,
    /// Jobs executed (workflow members included, migrations excluded).
    pub jobs: usize,
    /// Whether the annealer re-ran at this boundary.
    pub replanned: bool,
    /// Whether the candidate plan was adopted (false under hysteresis
    /// veto, and trivially false when no replan ran).
    pub adopted: bool,
    /// Candidate's relative utility gain over the incumbent placement
    /// (0 when no replan ran).
    pub score_delta: f64,
    /// Jobs whose tier assignment changed at this boundary.
    pub churn: usize,
    /// Data movements scheduled.
    pub migrations: usize,
    /// Bytes moved by those migrations, in MB.
    pub migrated_mb: f64,
    /// Copy attempts that failed and were retried (copy→verify→retire).
    pub migration_retries: usize,
    /// Moves abandoned after exhausting their attempt budget; their
    /// readers kept the old placement.
    pub migration_rollbacks: usize,
    /// Datasets destroyed by faulted unsafe moves this epoch.
    pub datasets_lost: usize,
    /// Verification read traffic, MB (0 under the unsafe protocol).
    pub verify_mb: f64,
    /// Bandwidth burned by aborted partial copies, MB.
    pub wasted_mb: f64,
    /// Retry backoff serialized into the epoch, seconds.
    pub backoff_secs: f64,
    /// Annealing moves spent replanning (0 when no replan ran).
    pub replan_moves: usize,
    /// Simulated makespan of the batch (migrations included), seconds.
    pub makespan_secs: f64,
    /// Compute rent for the epoch, dollars.
    pub vm_cost: f64,
    /// Storage rent for the epoch, dollars.
    pub storage_cost: f64,
    /// Workflows that finished past their arrival-relative deadline.
    pub deadline_misses: usize,
    /// Workflows rejected by admission control at this boundary.
    pub rejected: usize,
}

impl EpochReport {
    /// Total tenancy cost of the epoch, dollars.
    pub fn cost(&self) -> f64 {
        self.vm_cost + self.storage_cost
    }
}

/// The whole run: one report per non-empty epoch plus totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Policy label the run was served under.
    pub policy: String,
    /// Per-epoch breakdown (empty epochs are skipped).
    pub epochs: Vec<EpochReport>,
    /// Jobs completed across the run.
    pub jobs_completed: usize,
    /// Total tenancy cost, dollars.
    pub total_cost: f64,
    /// Total data movements scheduled across the run. Kept alongside
    /// `migrated_mb`: a run that moves one huge dataset and a run that
    /// moves fifty small ones look identical in MB but not in moves.
    pub migrations: usize,
    /// Total bytes migrated, MB.
    pub migrated_mb: f64,
    /// Total failed-and-retried copy attempts.
    pub migration_retries: usize,
    /// Total moves rolled back after exhausting their attempt budget.
    pub migration_rollbacks: usize,
    /// Total datasets destroyed by faulted unsafe moves.
    pub datasets_lost: usize,
    /// Total deadline misses.
    pub deadline_misses: usize,
    /// Total workflows rejected by admission control.
    pub rejected: usize,
    /// Total annealing moves spent replanning.
    pub replan_moves: usize,
}

impl OnlineReport {
    /// Roll totals up from the per-epoch reports.
    pub fn from_epochs(policy: &str, epochs: Vec<EpochReport>) -> OnlineReport {
        OnlineReport {
            policy: policy.to_string(),
            jobs_completed: epochs.iter().map(|e| e.jobs).sum(),
            total_cost: epochs.iter().map(|e| e.cost()).sum(),
            migrations: epochs.iter().map(|e| e.migrations).sum(),
            migrated_mb: epochs.iter().map(|e| e.migrated_mb).sum(),
            migration_retries: epochs.iter().map(|e| e.migration_retries).sum(),
            migration_rollbacks: epochs.iter().map(|e| e.migration_rollbacks).sum(),
            datasets_lost: epochs.iter().map(|e| e.datasets_lost).sum(),
            deadline_misses: epochs.iter().map(|e| e.deadline_misses).sum(),
            rejected: epochs.iter().map(|e| e.rejected).sum(),
            replan_moves: epochs.iter().map(|e| e.replan_moves).sum(),
            epochs,
        }
    }

    /// Plans adopted across the run (boundaries where data moved or the
    /// placement changed).
    pub fn adoptions(&self) -> usize {
        self.epochs.iter().filter(|e| e.adopted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(i: u32, cost: f64, moves: usize, mb: f64) -> EpochReport {
        EpochReport {
            epoch: i,
            boundary_secs: i as f64 * 100.0,
            start_secs: i as f64 * 100.0,
            arrivals: 2,
            jobs: 3,
            replanned: true,
            adopted: moves > 0,
            score_delta: 0.1,
            churn: 1,
            migrations: moves,
            migrated_mb: mb,
            migration_retries: moves,
            migration_rollbacks: usize::from(moves > 2),
            datasets_lost: 0,
            verify_mb: mb,
            wasted_mb: 0.0,
            backoff_secs: 0.0,
            replan_moves: 500,
            makespan_secs: 80.0,
            vm_cost: cost,
            storage_cost: cost / 2.0,
            deadline_misses: 0,
            rejected: 1,
        }
    }

    #[test]
    fn totals_roll_up() {
        let report = OnlineReport::from_epochs(
            "periodic",
            vec![epoch(0, 2.0, 4, 100.0), epoch(1, 4.0, 0, 0.0)],
        );
        assert_eq!(report.jobs_completed, 6);
        assert!((report.total_cost - 9.0).abs() < 1e-12);
        assert!((report.migrated_mb - 100.0).abs() < 1e-12);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.adoptions(), 1);
        assert_eq!(report.replan_moves, 1000);
    }

    #[test]
    fn move_counts_survive_aggregation_independently_of_bytes() {
        // Many small moves vs one huge move: byte totals tie, move
        // totals must not collapse to an adopted-epoch count.
        let many = OnlineReport::from_epochs(
            "periodic",
            vec![epoch(0, 1.0, 50, 500.0), epoch(1, 1.0, 3, 12.5)],
        );
        assert_eq!(many.migrations, 53);
        assert!((many.migrated_mb - 512.5).abs() < 1e-12);
        let one = OnlineReport::from_epochs("periodic", vec![epoch(0, 1.0, 1, 512.5)]);
        assert_eq!(one.migrations, 1);
        assert!((one.migrated_mb - many.migrated_mb).abs() < 1e-12);
        // Protocol accounting rolls up too.
        assert_eq!(many.migration_retries, 53);
        assert_eq!(many.migration_rollbacks, 2);
        assert_eq!(many.datasets_lost, 0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = OnlineReport::from_epochs("hysteresis", vec![epoch(0, 1.0, 2, 50.0)]);
        let json = serde_json::to_string(&report).unwrap();
        let back: OnlineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
