//! Shared-capacity accounting for multi-tenant regions.
//!
//! A fleet shard provisions a fixed pool of per-tier capacity and lets
//! many tenants draw epoch-scoped grants from it. Two pieces model the
//! contention:
//!
//! * [`CapacityLedger`] — double-entry bookkeeping per tier: what the
//!   shard provisioned, what is currently committed to tenants, and what
//!   remains. Grants are all-or-nothing per call; epoch settlement
//!   releases everything back.
//! * [`weighted_max_min`] — the fair-share allocator: given concurrent
//!   demands with priorities (weights), split each tier's capacity by
//!   weighted max-min fairness (progressive water-filling). Small
//!   demands are satisfied exactly; the rest divide the remainder in
//!   weight proportion. The allocation is a pure function of its inputs
//!   — no RNG, no iteration-order dependence — so fleet settlement stays
//!   bit-deterministic.
//!
//! Everything is `f64`-exact arithmetic over [`DataSize`]; callers that
//! need byte-identical reports across worker counts get it for free as
//! long as they present demands in a deterministic order.

use crate::tier::{PerTier, Tier};
use crate::units::DataSize;

/// One tenant's demand in a fair-share round: a priority weight and the
/// per-tier capacity it wants for the coming epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareRequest {
    /// Relative priority weight (> 0). Twice the weight ⇒ twice the
    /// share of any saturated tier.
    pub weight: f64,
    /// Requested capacity per tier.
    pub demand: PerTier<DataSize>,
}

/// Weighted max-min fair allocation of `capacity` across `requests`,
/// tier by tier.
///
/// Per tier this is progressive filling: every unsatisfied request
/// receives water in proportion to its weight until it either reaches
/// its demand (and stops drawing) or the tier runs dry. The result is
/// the unique allocation where no request can gain without a
/// lower-priority-per-weight request losing.
///
/// Properties (pinned by tests):
/// * never over-allocates a tier;
/// * a request never receives more than its demand;
/// * when total demand fits, everyone gets exactly their demand;
/// * under saturation, fully-throttled requests split the tier in
///   weight proportion.
pub fn weighted_max_min(
    capacity: &PerTier<DataSize>,
    requests: &[ShareRequest],
) -> Vec<PerTier<DataSize>> {
    let mut grants: Vec<PerTier<DataSize>> =
        vec![PerTier::from_fn(|_| DataSize::ZERO); requests.len()];
    for tier in Tier::ALL {
        let mut remaining = capacity.get(tier).gb();
        // Active set: indices still below their demand.
        let mut active: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].demand.get(tier).gb() > 0.0 && requests[i].weight > 0.0)
            .collect();
        // Water-filling rounds: each round either satisfies at least one
        // request exactly (removing it from the active set) or exhausts
        // the tier, so it terminates in ≤ n rounds.
        while remaining > 1e-12 && !active.is_empty() {
            let weight_sum: f64 = active.iter().map(|&i| requests[i].weight).sum();
            // The level at which the first active request saturates.
            let mut level = f64::INFINITY;
            for &i in &active {
                let deficit = requests[i].demand.get(tier).gb() - grants[i].get(tier).gb();
                level = level.min(deficit / requests[i].weight);
            }
            let fill = level.min(remaining / weight_sum);
            for &i in &active {
                let add = fill * requests[i].weight;
                *grants[i].get_mut(tier) = *grants[i].get(tier) + DataSize::from_gb(add);
                remaining -= add;
            }
            if fill < level {
                break; // tier exhausted mid-round
            }
            active.retain(|&i| requests[i].demand.get(tier).gb() - grants[i].get(tier).gb() > 1e-9);
        }
        // Clamp accumulated f64 noise: a grant never exceeds its demand.
        for (i, req) in requests.iter().enumerate() {
            let g = grants[i].get_mut(tier);
            *g = g.min(*req.demand.get(tier));
        }
    }
    grants
}

/// Double-entry per-tier capacity bookkeeping for one shard's
/// provisioned storage pool.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityLedger {
    provisioned: PerTier<DataSize>,
    committed: PerTier<DataSize>,
}

impl CapacityLedger {
    /// A ledger over a fixed provisioned pool, nothing committed.
    pub fn new(provisioned: PerTier<DataSize>) -> CapacityLedger {
        CapacityLedger {
            provisioned,
            committed: PerTier::from_fn(|_| DataSize::ZERO),
        }
    }

    /// The fixed provisioned pool.
    pub fn provisioned(&self) -> &PerTier<DataSize> {
        &self.provisioned
    }

    /// Capacity currently committed to tenants.
    pub fn committed(&self) -> &PerTier<DataSize> {
        &self.committed
    }

    /// Capacity still free on each tier.
    pub fn available(&self) -> PerTier<DataSize> {
        PerTier::from_fn(|t| {
            let free = self.provisioned.get(t).gb() - self.committed.get(t).gb();
            DataSize::from_gb(free.max(0.0))
        })
    }

    /// Whether `demand` fits in the free pool on every tier.
    pub fn fits(&self, demand: &PerTier<DataSize>) -> bool {
        let free = self.available();
        Tier::ALL
            .into_iter()
            .all(|t| demand.get(t).gb() <= free.get(t).gb() + 1e-9)
    }

    /// Commit `grant` against the pool. Returns `false` (and commits
    /// nothing) when any tier would go over-committed.
    pub fn commit(&mut self, grant: &PerTier<DataSize>) -> bool {
        if !self.fits(grant) {
            return false;
        }
        for t in Tier::ALL {
            *self.committed.get_mut(t) = *self.committed.get(t) + *grant.get(t);
        }
        true
    }

    /// Release a previously committed grant (epoch settlement). Floors
    /// at zero so a stray double-release cannot underflow the books.
    pub fn release(&mut self, grant: &PerTier<DataSize>) {
        for t in Tier::ALL {
            let left = self.committed.get(t).gb() - grant.get(t).gb();
            *self.committed.get_mut(t) = DataSize::from_gb(left.max(0.0));
        }
    }

    /// Peak utilization across tiers, in `[0, 1]` (0 when nothing is
    /// provisioned).
    pub fn utilization(&self) -> f64 {
        Tier::ALL
            .into_iter()
            .map(|t| {
                let p = self.provisioned.get(t).gb();
                if p > 0.0 {
                    self.committed.get(t).gb() / p
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(v: f64) -> DataSize {
        DataSize::from_gb(v)
    }

    fn uniform(v: f64) -> PerTier<DataSize> {
        PerTier::from_fn(|_| gb(v))
    }

    fn req(weight: f64, demand_gb: f64) -> ShareRequest {
        ShareRequest {
            weight,
            demand: uniform(demand_gb),
        }
    }

    #[test]
    fn underloaded_pool_satisfies_everyone_exactly() {
        let grants = weighted_max_min(&uniform(100.0), &[req(1.0, 30.0), req(5.0, 40.0)]);
        for t in Tier::ALL {
            assert!((grants[0].get(t).gb() - 30.0).abs() < 1e-9);
            assert!((grants[1].get(t).gb() - 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn saturated_pool_splits_by_weight() {
        // Both want the whole tier; weights 1:3 must split 25:75.
        let grants = weighted_max_min(&uniform(100.0), &[req(1.0, 100.0), req(3.0, 100.0)]);
        for t in Tier::ALL {
            assert!((grants[0].get(t).gb() - 25.0).abs() < 1e-6);
            assert!((grants[1].get(t).gb() - 75.0).abs() < 1e-6);
        }
    }

    #[test]
    fn max_min_protects_small_demands() {
        // The small request is fully satisfied; the two big ones split
        // the remainder evenly (90/2 = 45 each), not weight-blindly.
        let grants = weighted_max_min(
            &uniform(100.0),
            &[req(1.0, 10.0), req(1.0, 80.0), req(1.0, 80.0)],
        );
        for t in Tier::ALL {
            assert!((grants[0].get(t).gb() - 10.0).abs() < 1e-6);
            assert!((grants[1].get(t).gb() - 45.0).abs() < 1e-6);
            assert!((grants[2].get(t).gb() - 45.0).abs() < 1e-6);
        }
    }

    #[test]
    fn never_over_allocates_and_never_exceeds_demand() {
        let requests = [
            req(2.0, 13.0),
            req(0.5, 77.0),
            req(9.0, 41.0),
            req(1.0, 5.0),
        ];
        let grants = weighted_max_min(&uniform(60.0), &requests);
        for t in Tier::ALL {
            let total: f64 = grants.iter().map(|g| g.get(t).gb()).sum();
            assert!(total <= 60.0 + 1e-6, "over-allocated tier {t}");
            for (g, r) in grants.iter().zip(requests.iter()) {
                assert!(g.get(t).gb() <= r.demand.get(t).gb() + 1e-9);
            }
        }
    }

    #[test]
    fn zero_weight_and_zero_demand_draw_nothing() {
        let grants = weighted_max_min(&uniform(100.0), &[req(0.0, 50.0), req(1.0, 0.0)]);
        for t in Tier::ALL {
            assert_eq!(grants[0].get(t).gb(), 0.0);
            assert_eq!(grants[1].get(t).gb(), 0.0);
        }
    }

    #[test]
    fn ledger_commit_release_round_trip() {
        let mut ledger = CapacityLedger::new(uniform(100.0));
        assert!(ledger.commit(&uniform(60.0)));
        assert!((ledger.utilization() - 0.6).abs() < 1e-12);
        // A grant that no longer fits is refused atomically.
        assert!(!ledger.commit(&uniform(50.0)));
        assert!(
            (ledger.utilization() - 0.6).abs() < 1e-12,
            "refused commit must not move the books"
        );
        assert!(ledger.commit(&uniform(40.0)));
        assert!(!ledger.commit(&uniform(1.0)));
        ledger.release(&uniform(60.0));
        assert!(ledger.commit(&uniform(60.0)));
        ledger.release(&uniform(100.0));
        assert_eq!(ledger.available(), uniform(100.0));
        assert_eq!(ledger.utilization(), 0.0);
    }

    #[test]
    fn release_floors_at_zero() {
        let mut ledger = CapacityLedger::new(uniform(10.0));
        assert!(ledger.commit(&uniform(4.0)));
        ledger.release(&uniform(9.0));
        assert_eq!(*ledger.committed(), PerTier::from_fn(|_| DataSize::ZERO));
    }

    #[test]
    fn allocation_is_deterministic() {
        let requests: Vec<ShareRequest> = (0..17)
            .map(|i| req(1.0 + (i % 3) as f64, 7.0 * (i + 1) as f64 % 53.0))
            .collect();
        let a = weighted_max_min(&uniform(120.0), &requests);
        let b = weighted_max_min(&uniform(120.0), &requests);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
