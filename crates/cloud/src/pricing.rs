//! Price sheet utilities.
//!
//! Thin helpers over [`Catalog`] that answer the
//! pricing questions the solver asks: the `price_vm` and `price_store`
//! terms of Table 3.

use serde::{Deserialize, Serialize};

use crate::catalog::Catalog;
use crate::tier::{PerTier, Tier};
use crate::units::{DataSize, Money};

/// Snapshot of the prices the optimizer needs, decoupled from the richer
/// catalog so solver code stays allocation-free in its inner loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceSheet {
    /// $/GB/hour per tier (monthly list price over a 730-hour month).
    pub storage_per_gb_hour: PerTier<Money>,
    /// Raw bytes billed per logical byte on each tier — the tier's
    /// [`crate::redundancy::RedundancyScheme::storage_factor`] (1.0 for
    /// provider-internal durability, 3.0 for 3× replication, 1.5 for
    /// 4+2 erasure coding).
    pub redundancy_factor: PerTier<f64>,
    /// $/minute for one worker VM.
    pub worker_vm_per_minute: Money,
    /// $/minute for the master VM.
    pub master_vm_per_minute: Money,
}

impl PriceSheet {
    /// Extract the price sheet from a catalog.
    pub fn from_catalog(catalog: &Catalog) -> PriceSheet {
        PriceSheet {
            storage_per_gb_hour: PerTier::from_fn(|t| {
                catalog.service(t).price_per_hour(DataSize::from_gb(1.0))
            }),
            redundancy_factor: PerTier::from_fn(|t| catalog.service(t).redundancy.storage_factor()),
            worker_vm_per_minute: catalog.worker_vm.price_per_minute(),
            master_vm_per_minute: catalog.master_vm.price_per_minute(),
        }
    }

    /// Hourly storage price for a *logical* `capacity` on `tier`: the
    /// bill covers the raw bytes the tier's redundancy scheme actually
    /// stores (`capacity × redundancy_factor`).
    #[inline]
    pub fn storage_hourly(&self, tier: Tier, capacity: DataSize) -> Money {
        *self.storage_per_gb_hour.get(tier) * (capacity.gb() * self.redundancy_factor.get(tier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::RedundancyScheme;

    /// Table 1 with persistent HDD recast as a 4+2 Reed–Solomon cold tier.
    fn ec_cold_tier() -> Catalog {
        let mut c = Catalog::google_cloud();
        c.service_mut(Tier::PersHdd).redundancy = RedundancyScheme::RS_4_2;
        c
    }

    #[test]
    fn sheet_matches_catalog() {
        let c = Catalog::google_cloud();
        let p = PriceSheet::from_catalog(&c);
        // persHDD: $0.04/GB-month / 730 h.
        let want = 0.04 / 730.0;
        assert!((p.storage_per_gb_hour.get(Tier::PersHdd).dollars() - want).abs() < 1e-15);
        assert!((p.worker_vm_per_minute.dollars() - 0.80 / 60.0).abs() < 1e-15);
    }

    #[test]
    fn storage_hourly_scales_with_capacity() {
        let p = PriceSheet::from_catalog(&Catalog::google_cloud());
        let one = p.storage_hourly(Tier::ObjStore, DataSize::from_gb(100.0));
        let two = p.storage_hourly(Tier::ObjStore, DataSize::from_gb(200.0));
        assert!((two.dollars() - 2.0 * one.dollars()).abs() < 1e-15);
    }

    #[test]
    fn default_redundancy_factor_is_identity() {
        let p = PriceSheet::from_catalog(&Catalog::google_cloud());
        for t in Tier::ALL {
            assert!((p.redundancy_factor.get(t) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn ec_cold_tier_bills_raw_capacity() {
        let base = PriceSheet::from_catalog(&Catalog::google_cloud());
        let ec = PriceSheet::from_catalog(&ec_cold_tier());
        let cap = DataSize::from_gb(1000.0);
        let plain = base.storage_hourly(Tier::PersHdd, cap).dollars();
        let coded = ec.storage_hourly(Tier::PersHdd, cap).dollars();
        // rs(4+2) stores 1.5 raw bytes per logical byte.
        assert!((coded - 1.5 * plain).abs() < 1e-12);
        // Other tiers are untouched by the preset.
        let a = base.storage_hourly(Tier::ObjStore, cap).dollars();
        let b = ec.storage_hourly(Tier::ObjStore, cap).dollars();
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn replication_vs_erasure_cost_gap() {
        let mut rep3 = Catalog::google_cloud();
        rep3.service_mut(Tier::PersHdd).redundancy = RedundancyScheme::TRIPLE;
        let rep3 = PriceSheet::from_catalog(&rep3);
        let ec = PriceSheet::from_catalog(&ec_cold_tier());
        let cap = DataSize::from_gb(1000.0);
        let rep_cost = rep3.storage_hourly(Tier::PersHdd, cap).dollars();
        let ec_cost = ec.storage_hourly(Tier::PersHdd, cap).dollars();
        // Same fault tolerance (2 losses), but ec pays 1.5/3.0 = 50% of the
        // replicated bill — comfortably past the 40% reduction target.
        let reduction = 1.0 - ec_cost / rep_cost;
        assert!(reduction >= 0.40, "reduction {reduction}");
    }
}
