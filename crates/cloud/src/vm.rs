//! Virtual machine shapes.
//!
//! The paper's testbed uses `n1-standard-16` slaves (16 vCPUs, 60 GB) and an
//! `n1-standard-4` master. CAST's optimization model deliberately fixes one
//! VM type (§4.2.1 footnote 3) and tiers only storage; we keep the VM model
//! small but explicit so the cost terms (Eq. 5) and the simulator's slot and
//! NIC limits have one source of truth.

use serde::{Deserialize, Serialize};

use crate::units::{Bandwidth, Money};

/// A virtual machine shape with its price and the resources the MapReduce
/// runtime carves out of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmType {
    /// Provider name, e.g. `n1-standard-16`.
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: usize,
    /// Guest memory in GB.
    pub memory_gb: f64,
    /// On-demand price per hour.
    pub price_per_hour: Money,
    /// Network bandwidth available to the guest. Google Cloud granted
    /// ~2 Gbit/s per vCPU, capped at 16 Gbit/s, circa 2015.
    pub nic: Bandwidth,
    /// Concurrent map tasks this VM runs (one per vCPU by default).
    pub map_slots: usize,
    /// Concurrent reduce tasks this VM runs (half the vCPUs by default).
    pub reduce_slots: usize,
}

impl VmType {
    /// The 16-vCPU worker shape used by the paper's evaluation cluster.
    pub fn n1_standard_16() -> VmType {
        VmType {
            name: "n1-standard-16".to_string(),
            vcpus: 16,
            memory_gb: 60.0,
            // GCE on-demand price as of early 2015.
            price_per_hour: Money::from_dollars(0.80),
            nic: Bandwidth::from_gbps(2.0), // 16 Gbit/s
            map_slots: 16,
            reduce_slots: 8,
        }
    }

    /// The 4-vCPU master shape.
    pub fn n1_standard_4() -> VmType {
        VmType {
            name: "n1-standard-4".to_string(),
            vcpus: 4,
            memory_gb: 15.0,
            price_per_hour: Money::from_dollars(0.20),
            nic: Bandwidth::from_gbps(1.0), // 8 Gbit/s
            map_slots: 4,
            reduce_slots: 2,
        }
    }

    /// Per-minute price, the `price_vm` of Table 3.
    pub fn price_per_minute(&self) -> Money {
        self.price_per_hour * (1.0 / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_16_shape() {
        let vm = VmType::n1_standard_16();
        assert_eq!(vm.vcpus, 16);
        assert_eq!(vm.map_slots, 16);
        assert_eq!(vm.reduce_slots, 8);
        assert!((vm.nic.mb_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn per_minute_price_is_hourly_over_sixty() {
        let vm = VmType::n1_standard_4();
        assert!((vm.price_per_minute().dollars() - 0.20 / 60.0).abs() < 1e-12);
    }
}
