//! Cluster storage provisioning.
//!
//! A tiering plan talks about *aggregate* capacity per tier ("this workload
//! needs 2 TB of persSSD"); a real deployment attaches *volumes to VMs*.
//! The [`Provisioner`] turns aggregates into a per-VM [`ProvisionPlan`],
//! enforcing the provider rules (375 GB ephemeral volume granularity, at
//! most 4 ephemeral volumes per VM, 10 240 GB per persistent volume), and
//! exposes the resulting per-VM bandwidth that the simulator and the
//! REG(·) regression both consume.

use serde::{Deserialize, Serialize};

use crate::catalog::Catalog;
use crate::error::CloudError;
use crate::tier::{PerTier, Tier};
use crate::units::{Bandwidth, DataSize};

/// A fully-resolved storage layout for a homogeneous cluster: every worker
/// VM carries the same volume set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvisionPlan {
    /// Per-VM capacity on each tier.
    pub per_vm: PerTier<DataSize>,
    /// Number of worker VMs.
    pub nvm: usize,
}

impl ProvisionPlan {
    /// Aggregate provisioned capacity across the cluster for `tier`.
    pub fn aggregate(&self, tier: Tier) -> DataSize {
        *self.per_vm.get(tier) * self.nvm as f64
    }

    /// Total provisioned bytes across all tiers and VMs.
    pub fn total(&self) -> DataSize {
        Tier::ALL.iter().map(|&t| self.aggregate(t)).sum()
    }
}

/// Validates and materialises provisioning requests against a catalog.
#[derive(Debug, Clone)]
pub struct Provisioner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Provisioner<'a> {
    /// Create a provisioner for `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Provisioner { catalog }
    }

    /// Turn aggregate per-tier capacity demands into a per-VM plan for a
    /// cluster of `nvm` workers.
    ///
    /// Object storage needs no attachment and passes through unrounded.
    /// Block tiers are split evenly across VMs and rounded up to the tier's
    /// provisionable granularity; attachment limits are enforced.
    pub fn plan(
        &self,
        aggregate: &PerTier<DataSize>,
        nvm: usize,
    ) -> Result<ProvisionPlan, CloudError> {
        assert!(nvm > 0, "cluster must have at least one worker");
        let mut per_vm = PerTier::from_fn(|_| DataSize::ZERO);
        for tier in Tier::ALL {
            let total = *aggregate.get(tier);
            if total.is_zero() {
                continue;
            }
            let svc = self.catalog.service(tier);
            let raw = total / nvm as f64;
            let rounded = if tier.is_block() {
                svc.provisionable(raw)
            } else {
                raw
            };
            if let (Some(limit), Some(max_vol)) = (svc.max_volumes_per_vm, svc.max_volume) {
                let nvol = (rounded.gb() / max_vol.gb()).ceil() as usize;
                if nvol > limit {
                    return Err(CloudError::AttachmentLimit {
                        tier: tier.name().to_string(),
                        requested: nvol,
                        limit,
                    });
                }
            }
            svc.validate_capacity(rounded)?;
            *per_vm.get_mut(tier) = rounded;
        }
        Ok(ProvisionPlan { per_vm, nvm })
    }

    /// Sequential bandwidth one VM enjoys on `tier` under `plan`.
    pub fn per_vm_bandwidth(&self, plan: &ProvisionPlan, tier: Tier) -> Bandwidth {
        let cap = *plan.per_vm.get(tier);
        if tier.is_block() && cap.is_zero() {
            return Bandwidth::ZERO;
        }
        self.catalog.service(tier).throughput(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(eph: f64, ssd: f64, hdd: f64, obj: f64) -> PerTier<DataSize> {
        let mut m = PerTier::from_fn(|_| DataSize::ZERO);
        *m.get_mut(Tier::EphSsd) = DataSize::from_gb(eph);
        *m.get_mut(Tier::PersSsd) = DataSize::from_gb(ssd);
        *m.get_mut(Tier::PersHdd) = DataSize::from_gb(hdd);
        *m.get_mut(Tier::ObjStore) = DataSize::from_gb(obj);
        m
    }

    #[test]
    fn ephemeral_rounds_to_whole_volumes_per_vm() {
        let catalog = Catalog::google_cloud();
        let p = Provisioner::new(&catalog);
        // 1000 GB over 10 VMs = 100 GB/VM → one 375 GB volume each.
        let plan = p.plan(&agg(1000.0, 0.0, 0.0, 0.0), 10).unwrap();
        assert!((plan.per_vm.get(Tier::EphSsd).gb() - 375.0).abs() < 1e-9);
        assert!((plan.aggregate(Tier::EphSsd).gb() - 3750.0).abs() < 1e-9);
    }

    #[test]
    fn ephemeral_attachment_limit_enforced() {
        let catalog = Catalog::google_cloud();
        let p = Provisioner::new(&catalog);
        // 375*5 GB per VM would need 5 volumes — over the 4-volume limit.
        let err = p.plan(&agg(375.0 * 5.0, 0.0, 0.0, 0.0), 1).unwrap_err();
        assert!(matches!(err, CloudError::AttachmentLimit { .. }));
    }

    #[test]
    fn objstore_passes_through_unrounded() {
        let catalog = Catalog::google_cloud();
        let p = Provisioner::new(&catalog);
        let plan = p.plan(&agg(0.0, 0.0, 0.0, 123.4), 10).unwrap();
        assert!((plan.per_vm.get(Tier::ObjStore).gb() - 12.34).abs() < 1e-9);
    }

    #[test]
    fn per_vm_bandwidth_reflects_scaling() {
        let catalog = Catalog::google_cloud();
        let p = Provisioner::new(&catalog);
        let plan = p.plan(&agg(0.0, 2000.0, 0.0, 0.0), 10).unwrap();
        // 200 GB/VM of persSSD ≈ 93.6 MB/s.
        let bw = p.per_vm_bandwidth(&plan, Tier::PersSsd);
        assert!((bw.mb_per_sec() - 0.468 * 200.0).abs() < 1e-9);
        // Unprovisioned block tier gives zero bandwidth.
        assert_eq!(p.per_vm_bandwidth(&plan, Tier::PersHdd), Bandwidth::ZERO);
        // objStore bandwidth exists without provisioning.
        let plan2 = p.plan(&agg(0.0, 0.0, 0.0, 10.0), 10).unwrap();
        assert!(p.per_vm_bandwidth(&plan2, Tier::ObjStore).mb_per_sec() > 0.0);
    }

    #[test]
    fn totals_add_up() {
        let catalog = Catalog::google_cloud();
        let p = Provisioner::new(&catalog);
        let plan = p.plan(&agg(0.0, 1000.0, 500.0, 250.0), 5).unwrap();
        let want = 1000.0 + 500.0 + 250.0;
        assert!((plan.total().gb() - want).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_vm_cluster_panics() {
        let catalog = Catalog::google_cloud();
        let _ = Provisioner::new(&catalog).plan(&agg(0.0, 0.0, 0.0, 0.0), 0);
    }
}
