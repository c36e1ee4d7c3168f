//! Per-shard, per-epoch priority admission over shared capacity.
//!
//! Each epoch a shard's tenants present their planned batches' raw
//! per-tier capacity demands. Admission walks priority classes from
//! highest to lowest against one [`CapacityLedger`]:
//!
//! * **Guaranteed classes** (priority ≥ `guaranteed_priority`) are
//!   admitted all-or-nothing, in tenant-id order: a tenant whose full
//!   demand fits is granted exactly `1.0` — making its epoch bit-identical
//!   to running alone — otherwise it is deferred (or rejected once its
//!   deferral budget is spent). Guaranteed tenants are never throttled.
//! * **Best-effort classes** split whatever remains by
//!   [`weighted_max_min`] fair share. A tenant's scalar grant fraction is
//!   the tightest ratio of allocation to demand across the tiers it asked
//!   for; fractions below `min_grant` defer rather than thrash.
//!
//! The walk is a pure function of `(ledger capacity, config, requests)`
//! presented in deterministic order, so fleet settlement inherits the
//! workspace determinism contract.

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::{weighted_max_min, CapacityLedger, ShareRequest};
use serde::{Deserialize, Serialize};

/// One admission verdict for one tenant's planned epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Admission {
    /// Execute now with `frac` of the demanded capacity (`1.0` =
    /// uncontended, bit-identical to a solo run).
    Admitted {
        /// Granted fraction of demand, in `(0, 1]`.
        frac: f64,
    },
    /// Capacity denied this epoch; the batch re-enters the next boundary.
    Deferred,
    /// Capacity denied for good; the batch is turned away.
    Rejected,
}

impl Admission {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Admission::Admitted { .. } => "admitted",
            Admission::Deferred => "deferred",
            Admission::Rejected => "rejected",
        }
    }

    /// The granted fraction (0.0 unless admitted).
    pub fn granted_frac(&self) -> f64 {
        match self {
            Admission::Admitted { frac } => *frac,
            Admission::Deferred | Admission::Rejected => 0.0,
        }
    }
}

/// Admission-control knobs shared by every shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Smallest fair-share fraction worth executing; anything lower is
    /// deferred instead of running an epoch on starvation rations.
    pub min_grant: f64,
    /// Consecutive deferrals a tenant absorbs before its batch is
    /// rejected outright (backlog cap).
    pub max_deferrals: usize,
    /// Priority at or above which a class is *guaranteed*: full grant or
    /// nothing, never throttled. Defaults to the Interactive class.
    pub guaranteed_priority: u8,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            min_grant: 0.25,
            max_deferrals: 2,
            guaranteed_priority: 2,
        }
    }
}

/// One tenant's seat at the admission table.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRequest {
    /// Dense fleet tenant index (for reporting only).
    pub tenant: u32,
    /// Service-class priority (higher admits first).
    pub priority: u8,
    /// Fair-share weight within the class.
    pub weight: f64,
    /// Raw per-tier capacity the planned batch wants.
    pub demand: PerTier<DataSize>,
    /// Consecutive deferrals already absorbed.
    pub deferrals: usize,
}

/// Decide one shard-epoch: walk priority classes high→low against the
/// ledger and return one verdict per request, in request order.
/// `requests` must arrive in deterministic (tenant-id) order — ties
/// within a class are broken by position.
pub fn admit_epoch(
    ledger: &mut CapacityLedger,
    cfg: &AdmissionConfig,
    requests: &[AdmissionRequest],
) -> Vec<Admission> {
    let mut verdicts = vec![Admission::Deferred; requests.len()];
    let deny = |r: &AdmissionRequest| {
        if r.deferrals < cfg.max_deferrals {
            Admission::Deferred
        } else {
            Admission::Rejected
        }
    };

    // Distinct priority levels, descending.
    let mut levels: Vec<u8> = requests.iter().map(|r| r.priority).collect();
    levels.sort_unstable_by(|a, b| b.cmp(a));
    levels.dedup();

    for level in levels {
        let class: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].priority == level)
            .collect();
        if level >= cfg.guaranteed_priority {
            // Guaranteed: full grant or nothing, first-come by id order.
            for &i in &class {
                let r = &requests[i];
                verdicts[i] = if ledger.commit(&r.demand) {
                    Admission::Admitted { frac: 1.0 }
                } else {
                    deny(r)
                };
            }
        } else {
            // Best effort: weighted max-min over whatever remains.
            let share_reqs: Vec<ShareRequest> = class
                .iter()
                .map(|&i| ShareRequest {
                    weight: requests[i].weight,
                    demand: requests[i].demand,
                })
                .collect();
            let allocs = weighted_max_min(&ledger.available(), &share_reqs);
            for (&i, alloc) in class.iter().zip(allocs.iter()) {
                let r = &requests[i];
                let frac = grant_fraction(&r.demand, alloc);
                if frac >= cfg.min_grant {
                    // Book what the allocator set aside, capped by the
                    // allocation so float noise in a snapped full grant
                    // cannot over-commit the pool.
                    let grant = PerTier::from_fn(|t| {
                        DataSize::from_gb((r.demand.get(t).gb() * frac).min(alloc.get(t).gb()))
                    });
                    let committed = ledger.commit(&grant);
                    debug_assert!(committed, "fair-share grant must fit");
                    verdicts[i] = Admission::Admitted { frac };
                } else {
                    verdicts[i] = deny(r);
                }
            }
        }
    }
    verdicts
}

/// The scalar grant fraction: the tightest allocation/demand ratio over
/// the tiers actually demanded (1.0 for an empty demand). Fractions
/// within float noise of 1.0 snap to exactly 1.0 — a demand the
/// water-filling allocator met in full must take the full-grant path,
/// which is bit-identical to running alone.
fn grant_fraction(demand: &PerTier<DataSize>, alloc: &PerTier<DataSize>) -> f64 {
    let mut frac = 1.0f64;
    for t in Tier::ALL {
        let d = demand.get(t).gb();
        if d > 0.0 {
            frac = frac.min(alloc.get(t).gb() / d);
        }
    }
    if frac >= 1.0 - 1e-9 {
        1.0
    } else {
        frac.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(v: f64) -> PerTier<DataSize> {
        PerTier::from_fn(|_| DataSize::from_gb(v))
    }

    fn req(tenant: u32, priority: u8, weight: f64, gb: f64, deferrals: usize) -> AdmissionRequest {
        AdmissionRequest {
            tenant,
            priority,
            weight,
            demand: uniform(gb),
            deferrals,
        }
    }

    #[test]
    fn guaranteed_class_gets_full_grants_until_the_pool_runs_dry() {
        let mut ledger = CapacityLedger::new(uniform(100.0));
        let cfg = AdmissionConfig::default();
        let verdicts = admit_epoch(
            &mut ledger,
            &cfg,
            &[
                req(0, 2, 4.0, 60.0, 0),
                req(1, 2, 4.0, 60.0, 0),
                req(2, 2, 4.0, 30.0, 0),
            ],
        );
        assert_eq!(verdicts[0], Admission::Admitted { frac: 1.0 });
        // Tenant 1 does not fit (60 > 40 left) — deferred, never
        // throttled.
        assert_eq!(verdicts[1], Admission::Deferred);
        // Tenant 2 fits in the gap tenant 1 left.
        assert_eq!(verdicts[2], Admission::Admitted { frac: 1.0 });
    }

    #[test]
    fn best_effort_splits_the_leftovers_fairly() {
        let mut ledger = CapacityLedger::new(uniform(100.0));
        let cfg = AdmissionConfig::default();
        let verdicts = admit_epoch(
            &mut ledger,
            &cfg,
            &[
                req(0, 2, 4.0, 60.0, 0),
                // Both want the remaining 40; weights 2:1 ⇒ fracs
                // (26.67/40, 13.33/40) = (0.667, 0.333).
                req(1, 1, 2.0, 40.0, 0),
                req(2, 0, 1.0, 40.0, 0),
            ],
        );
        assert_eq!(verdicts[0], Admission::Admitted { frac: 1.0 });
        // Batch (priority 1) admits before Bursty (priority 0) and takes
        // the whole remainder its demand allows.
        let f1 = verdicts[1].granted_frac();
        assert!(f1 > 0.99, "batch class should get the full remainder: {f1}");
        // Bursty sees nothing left → deferred.
        assert_eq!(verdicts[2], Admission::Deferred);
    }

    #[test]
    fn same_class_contention_splits_by_weight() {
        let mut ledger = CapacityLedger::new(uniform(90.0));
        let cfg = AdmissionConfig::default();
        let verdicts = admit_epoch(
            &mut ledger,
            &cfg,
            &[req(0, 1, 2.0, 90.0, 0), req(1, 1, 1.0, 90.0, 0)],
        );
        let (f0, f1) = (verdicts[0].granted_frac(), verdicts[1].granted_frac());
        assert!((f0 - 2.0 / 3.0).abs() < 1e-6, "{f0}");
        assert!((f1 - 1.0 / 3.0).abs() < 1e-6, "{f1}");
    }

    #[test]
    fn starvation_rations_defer_then_reject() {
        let mut ledger = CapacityLedger::new(uniform(10.0));
        let cfg = AdmissionConfig::default();
        // 10 GB pool, 100 GB ask → frac 0.1 < min_grant 0.25.
        let fresh = admit_epoch(&mut ledger, &cfg, &[req(0, 0, 1.0, 100.0, 0)]);
        assert_eq!(fresh[0], Admission::Deferred);
        let mut ledger = CapacityLedger::new(uniform(10.0));
        let exhausted = admit_epoch(&mut ledger, &cfg, &[req(0, 0, 1.0, 100.0, 2)]);
        assert_eq!(exhausted[0], Admission::Rejected);
    }

    #[test]
    fn empty_demand_is_admitted_in_full() {
        let mut ledger = CapacityLedger::new(uniform(10.0));
        let cfg = AdmissionConfig::default();
        let verdicts = admit_epoch(&mut ledger, &cfg, &[req(0, 0, 1.0, 0.0, 0)]);
        assert_eq!(verdicts[0], Admission::Admitted { frac: 1.0 });
    }

    #[test]
    fn labels_round_trip() {
        assert_eq!(Admission::Admitted { frac: 0.5 }.label(), "admitted");
        assert_eq!(Admission::Deferred.label(), "deferred");
        assert_eq!(Admission::Rejected.label(), "rejected");
        assert_eq!(Admission::Rejected.granted_frac(), 0.0);
    }
}
