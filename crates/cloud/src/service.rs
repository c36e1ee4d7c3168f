//! Description of a single storage service (one row group of Table 1).

use serde::{Deserialize, Serialize};

use crate::error::CloudError;
use crate::redundancy::RedundancyScheme;
use crate::scaling::ScalingModel;
use crate::tier::Tier;
use crate::units::{Bandwidth, DataSize, Duration, Money};

/// A storage service offered by the cloud provider: one of the tiers of
/// Table 1 together with its performance surface, pricing, and provisioning
/// rules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageService {
    /// Which tier this service implements.
    pub tier: Tier,
    /// How performance responds to provisioned capacity.
    pub scaling: ScalingModel,
    /// Price per GB per month (Table 1's `$/month` column divided by GB).
    pub price_per_gb_month: Money,
    /// Fixed latency paid per object/request — the GCS-connector connection
    /// setup cost of §3.1.2. Zero for block devices.
    pub request_overhead: Duration,
    /// Largest provisionable volume, if bounded (10 240 GB for persistent
    /// disks; ephemeral SSD is bounded through `scaling`'s volume count).
    pub max_volume: Option<DataSize>,
    /// Maximum number of volumes attachable to one VM, if bounded.
    pub max_volumes_per_vm: Option<usize>,
    /// How the service keeps data alive. The default,
    /// [`RedundancyScheme::NONE`], models provider-internal durability
    /// already folded into the list price; explicit schemes make the
    /// raw-capacity overhead billable.
    pub redundancy: RedundancyScheme,
}

impl StorageService {
    /// Aggregate sequential bandwidth one VM gets from `capacity` provisioned
    /// on this service.
    #[inline]
    pub fn throughput(&self, capacity: DataSize) -> Bandwidth {
        self.scaling.throughput(capacity)
    }

    /// Aggregate 4 KB IOPS for `capacity`.
    #[inline]
    pub fn iops(&self, capacity: DataSize) -> f64 {
        self.scaling.iops(capacity)
    }

    /// Round a raw dataset footprint up to the capacity that must actually
    /// be provisioned (volume granularity).
    #[inline]
    pub fn provisionable(&self, size: DataSize) -> DataSize {
        self.scaling.provisionable(size)
    }

    /// Hourly price for `capacity` of this service. Cloud storage is listed
    /// monthly; CAST bills by the hour (Eq. 6), using a 730-hour month.
    pub fn price_per_hour(&self, capacity: DataSize) -> Money {
        const HOURS_PER_MONTH: f64 = 730.0;
        self.price_per_gb_month * (capacity.gb() / HOURS_PER_MONTH)
    }

    /// Validate a requested per-VM capacity against this service's rules.
    pub fn validate_capacity(&self, capacity: DataSize) -> Result<(), CloudError> {
        if capacity.gb().is_nan() || capacity.gb() < 0.0 || !capacity.gb().is_finite() {
            return Err(CloudError::InvalidCapacity {
                tier: self.tier.name().to_string(),
                requested_gb: capacity.gb(),
                rule: "capacity must be a finite non-negative number",
            });
        }
        if let Some(max) = self.max_volume {
            // For volume-granular tiers the limit applies per volume, which
            // `scaling.provisionable` already respects; for linear tiers the
            // requested capacity itself may not exceed one max volume times
            // the per-VM attachment budget.
            let budget = self.max_volumes_per_vm.unwrap_or(1) as f64;
            if capacity.gb() > max.gb() * budget {
                return Err(CloudError::InvalidCapacity {
                    tier: self.tier.name().to_string(),
                    requested_gb: capacity.gb(),
                    rule: "capacity exceeds per-VM volume budget",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> StorageService {
        StorageService {
            tier: Tier::ObjStore,
            scaling: ScalingModel::FlatStream {
                stream_bw: Bandwidth::from_mbps(265.0),
                iops: 550.0,
            },
            price_per_gb_month: Money::from_dollars(0.026),
            request_overhead: Duration::from_secs(0.08),
            max_volume: None,
            max_volumes_per_vm: None,
            redundancy: RedundancyScheme::NONE,
        }
    }

    #[test]
    fn hourly_price_uses_730_hour_month() {
        let s = obj();
        let hourly = s.price_per_hour(DataSize::from_gb(730.0));
        // 730 GB * $0.026/GB-month / 730 h = $0.026/h.
        assert!((hourly.dollars() - 0.026).abs() < 1e-12);
    }

    #[test]
    fn unbounded_service_accepts_huge_capacity() {
        let s = obj();
        assert!(s.validate_capacity(DataSize::from_tb(10_000.0)).is_ok());
    }

    #[test]
    fn negative_capacity_rejected() {
        let s = obj();
        assert!(s.validate_capacity(DataSize::from_gb(-1.0)).is_err());
    }

    #[test]
    fn bounded_service_rejects_over_budget() {
        let mut s = obj();
        s.max_volume = Some(DataSize::from_gb(10_240.0));
        s.max_volumes_per_vm = Some(2);
        assert!(s.validate_capacity(DataSize::from_gb(20_480.0)).is_ok());
        assert!(s.validate_capacity(DataSize::from_gb(20_481.0)).is_err());
    }
}
