//! Fleet results: the deterministic merged report and the quarantined
//! wall-clock side channel.
//!
//! [`FleetReport`] is assembled at settlement in (shard, tenant-id)
//! order from values that are pure functions of the fleet's inputs, so
//! its JSON serialisation is byte-identical across worker counts and
//! repetitions — the property `tests/fleet_determinism.rs` pins.
//! Wall-clock measurements (replan latency, total serving time) never
//! belong in it; they live in [`FleetStats`], the side channel the
//! `tenant_scale` bench reads.

use serde::{Deserialize, Serialize};

/// One tenant's whole-run rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    /// Fleet-unique tenant id.
    pub tenant: u32,
    /// Shard the tenant hashes onto.
    pub shard: u32,
    /// Service-class label (`interactive` / `batch` / `bursty`).
    pub class: String,
    /// Epochs that produced a report row (admitted or turned away).
    pub epochs_served: usize,
    /// Epochs granted the full demanded capacity (`frac == 1.0`).
    pub admitted_full: usize,
    /// Epochs granted a partial fair share (`frac < 1.0`).
    pub admitted_partial: usize,
    /// Batches pushed to a later boundary by admission.
    pub deferrals: usize,
    /// Mean granted fraction over admitted epochs (1.0 when never
    /// contended; 0.0 when never admitted).
    pub mean_grant: f64,
    /// Jobs the tenant completed.
    pub jobs_completed: usize,
    /// Workflows that finished past their deadline.
    pub deadline_misses: usize,
    /// Workflows rejected (tenant admission policy + fleet capacity).
    pub rejected: usize,
    /// The tenant's total tenancy cost, dollars.
    pub total_cost: f64,
}

/// One shard's whole-run rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Tenants hashed onto this shard.
    pub tenants: usize,
    /// Tenant-epochs admitted (full or partial).
    pub admitted: usize,
    /// Tenant-epochs deferred.
    pub deferred: usize,
    /// Tenant-epochs rejected by capacity admission.
    pub rejected_batches: usize,
    /// Peak committed/provisioned ratio over the run, in `[0, 1]`.
    pub peak_utilization: f64,
}

/// The merged fleet result: per-tenant and per-shard rollups plus
/// region totals, assembled in deterministic (shard, tenant) order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Epochs on the region grid.
    pub epochs: u32,
    /// Shards in the region.
    pub shard_count: u32,
    /// Per-tenant rollups, in tenant-id order.
    pub tenants: Vec<TenantSummary>,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardReport>,
    /// Jobs completed across the fleet.
    pub jobs_completed: usize,
    /// Deadline misses across the fleet.
    pub deadline_misses: usize,
    /// Workflows rejected across the fleet.
    pub rejected: usize,
    /// Batches deferred across the fleet.
    pub deferrals: usize,
    /// Total tenancy cost across the fleet, dollars.
    pub total_cost: f64,
}

impl FleetReport {
    /// Tenants whose every admitted epoch ran at the full grant and that
    /// were never deferred or capacity-rejected — the tenants whose runs
    /// are bit-identical to serving them alone.
    pub fn uncontended_tenants(&self) -> impl Iterator<Item = &TenantSummary> {
        self.tenants
            .iter()
            .filter(|t| t.admitted_partial == 0 && t.deferrals == 0 && t.mean_grant >= 1.0)
    }
}

/// Wall-clock measurements from one fleet run. **Not deterministic** —
/// values change run to run — which is why they are quarantined out of
/// [`FleetReport`]. Sample *counts* and ordering are deterministic.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Wall seconds of each per-tenant plan call that produced a batch,
    /// in (epoch, tenant) order. A tenant's sample covers the work done
    /// *for it*: batch assembly + epoch sealing, plus the annealer solve
    /// when the tenant was its signature group's representative —
    /// deduped and skip-gated tenants book only their share.
    pub replan_wall_secs: Vec<f64>,
    /// Wall seconds for the whole run.
    pub total_wall_secs: f64,
    /// Tenant-epochs executed (admitted batches).
    pub executed_epochs: usize,
    /// Annealer solves actually run (one per signature group).
    pub solves: u64,
    /// Plans fanned out from a group representative's solve instead of
    /// solving (cross-tenant dedup hits).
    pub dedup_fanouts: u64,
    /// Epochs whose annealer was skipped by the replan-skip gates
    /// (exact cache hits + drift-gated skips + policy no-replans).
    pub replans_skipped: u64,
    /// Wall seconds in the plan phase (begin + solve + finish), summed
    /// over epochs.
    pub plan_wall_secs: f64,
    /// Wall seconds in shard admission, summed over epochs.
    pub admit_wall_secs: f64,
    /// Wall seconds in the execute phase, summed over epochs.
    pub exec_wall_secs: f64,
}

impl FleetStats {
    /// Percentile (0–100, nearest-rank) over the replan latencies, in
    /// seconds. Returns 0.0 with no samples.
    pub fn replan_percentile(&self, pct: f64) -> f64 {
        if self.replan_wall_secs.is_empty() {
            return 0.0;
        }
        let mut sorted = self.replan_wall_secs.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let stats = FleetStats {
            replan_wall_secs: (1..=100).map(|i| i as f64).collect(),
            total_wall_secs: 1.0,
            executed_epochs: 100,
            ..FleetStats::default()
        };
        assert_eq!(stats.replan_percentile(0.0), 1.0);
        assert_eq!(stats.replan_percentile(50.0), 51.0);
        assert_eq!(stats.replan_percentile(100.0), 100.0);
        assert_eq!(FleetStats::default().replan_percentile(99.0), 0.0);
        // The samples are public, so a caller-built set may hold a NaN:
        // it sorts last instead of panicking.
        let mut with_nan = stats.clone();
        with_nan.replan_wall_secs.push(f64::NAN);
        assert_eq!(with_nan.replan_percentile(50.0), 51.0);
        assert!(with_nan.replan_percentile(100.0).is_nan());
    }

    #[test]
    fn uncontended_filter_requires_full_grants_everywhere() {
        let t = |partial: usize, deferrals: usize, grant: f64| TenantSummary {
            tenant: 0,
            shard: 0,
            class: "interactive".into(),
            epochs_served: 3,
            admitted_full: 3 - partial,
            admitted_partial: partial,
            deferrals,
            mean_grant: grant,
            jobs_completed: 5,
            deadline_misses: 0,
            rejected: 0,
            total_cost: 1.0,
        };
        let report = FleetReport {
            epochs: 3,
            shard_count: 1,
            tenants: vec![t(0, 0, 1.0), t(1, 0, 0.9), t(0, 1, 1.0)],
            shards: Vec::new(),
            jobs_completed: 15,
            deadline_misses: 0,
            rejected: 0,
            deferrals: 1,
            total_cost: 3.0,
        };
        assert_eq!(report.uncontended_tenants().count(), 1);
    }
}
