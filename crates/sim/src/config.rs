//! Simulator configuration: the cluster being simulated.

use serde::{Deserialize, Serialize};

use cast_cloud::provision::{ProvisionPlan, Provisioner};
use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{Bandwidth, DataSize};
use cast_cloud::{Catalog, VmType};

use crate::fault::FaultPlan;

/// Cap on engine steps before a run aborts with
/// [`crate::error::SimError::EventBudgetExhausted`].
pub(crate) const EVENT_BUDGET: u64 = 50_000_000;

/// Fraction of VM memory usable as write-back page cache for intermediate
/// data. Hadoop spills transit the page cache; when a job's intermediate
/// data fits, most of it never touches the volume.
const CACHE_FRACTION: f64 = 0.75;

/// Parallel staging/transfer streams per VM (a distcp-style copy job runs
/// many tasks, amortising per-object request overheads).
pub(crate) const TRANSFER_STREAMS_PER_VM: usize = 4;

/// How jobs contend for the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Concurrency {
    /// Jobs run strictly back-to-back (the execution model behind Eq. 4,
    /// and how the paper's trace replays drive a saturated cluster).
    Sequential,
    /// Independent jobs run concurrently, sharing slots; workflow edges are
    /// still honoured.
    Parallel,
}

/// A simulated cluster: VM fleet plus its per-tier storage provisioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The provider catalog (storage performance, prices, request
    /// overheads).
    pub catalog: Catalog,
    /// Worker VM shape.
    pub vm: VmType,
    /// Number of worker VMs.
    pub nvm: usize,
    /// Per-VM provisioned capacity on each tier (drives volume bandwidth
    /// via the catalog's scaling models).
    pub plan: ProvisionPlan,
    /// Deterministic per-task speed jitter amplitude (0 = all tasks of a
    /// wave identical; 0.08 gives ±8 % spread, matching the task-time
    /// variance of a real cluster).
    pub jitter: f64,
    /// Job scheduling mode.
    pub concurrency: Concurrency,
    /// Fixed per-task framework overhead (JVM launch + scheduling),
    /// seconds. Sets the runtime floor that makes further volume
    /// over-provisioning futile beyond a point (Fig. 2's plateau).
    pub task_startup_secs: f64,
    /// Cluster-wide object-store throughput ceiling (MB/s): per-VM streams
    /// see the Table 1 rate, but the bucket saturates once enough VMs pull
    /// concurrently.
    pub objstore_cluster_mbps: f64,
    /// Fault-injection scenario. The default (empty) plan reproduces
    /// fault-free simulations bit-identically.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// A cluster of `nvm` workers with per-tier *aggregate* capacities,
    /// provisioned through the catalog rules.
    pub fn with_aggregate_capacity(
        catalog: Catalog,
        nvm: usize,
        aggregate: &PerTier<DataSize>,
    ) -> Result<SimConfig, cast_cloud::CloudError> {
        if nvm == 0 {
            return Err(cast_cloud::CloudError::EmptyCluster);
        }
        let vm = catalog.worker_vm.clone();
        let plan = Provisioner::new(&catalog).plan(aggregate, nvm)?;
        Ok(SimConfig {
            catalog,
            vm,
            nvm,
            plan,
            jitter: 0.08,
            concurrency: Concurrency::Sequential,
            task_startup_secs: 1.5,
            objstore_cluster_mbps: cast_cloud::catalog::OBJSTORE_CLUSTER_MBPS,
            faults: FaultPlan::default(),
        })
    }

    /// The paper's evaluation cluster: 25 × n1-standard-16 (400 cores),
    /// with `aggregate` capacity per tier.
    pub fn paper_cluster(
        aggregate: &PerTier<DataSize>,
    ) -> Result<SimConfig, cast_cloud::CloudError> {
        SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 25, aggregate)
    }

    /// Sequential bandwidth one VM gets on `tier` under this provisioning.
    pub fn vm_tier_bandwidth(&self, tier: Tier) -> Bandwidth {
        Provisioner::new(&self.catalog).per_vm_bandwidth(&self.plan, tier)
    }

    /// Total map slots across the cluster.
    pub fn map_slots(&self) -> usize {
        self.vm.map_slots * self.nvm
    }

    /// Total reduce slots across the cluster.
    pub fn reduce_slots(&self) -> usize {
        self.vm.reduce_slots * self.nvm
    }

    /// Cluster-wide page-cache budget for intermediate data.
    pub fn cache_budget(&self) -> DataSize {
        DataSize::from_gb(self.vm.memory_gb * CACHE_FRACTION) * self.nvm as f64
    }

    /// Page-cache hit fraction for repeated reads of an `input`-sized
    /// dataset (iterative applications re-reading their input).
    pub fn input_cache_hit(&self, input: DataSize) -> f64 {
        if input.bytes() <= 0.0 {
            return 1.0;
        }
        (self.cache_budget() / input).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(ssd_gb: f64) -> PerTier<DataSize> {
        let mut a = PerTier::from_fn(|_| DataSize::ZERO);
        *a.get_mut(Tier::PersSsd) = DataSize::from_gb(ssd_gb);
        a
    }

    #[test]
    fn paper_cluster_has_400_cores() {
        let cfg = SimConfig::paper_cluster(&agg(1000.0)).unwrap();
        assert_eq!(cfg.nvm * cfg.vm.vcpus, 400);
        assert_eq!(cfg.map_slots(), 400);
        assert_eq!(cfg.reduce_slots(), 200);
    }

    #[test]
    fn vm_tier_bandwidth_tracks_provisioning() {
        let small = SimConfig::paper_cluster(&agg(25.0 * 100.0)).unwrap();
        let large = SimConfig::paper_cluster(&agg(25.0 * 500.0)).unwrap();
        let bw_small = small.vm_tier_bandwidth(Tier::PersSsd).mb_per_sec();
        let bw_large = large.vm_tier_bandwidth(Tier::PersSsd).mb_per_sec();
        assert!(bw_large > 4.0 * bw_small, "{bw_small} vs {bw_large}");
    }

    #[test]
    fn input_cache_hit_clamps() {
        let cfg = SimConfig::paper_cluster(&agg(1000.0)).unwrap();
        // Cache budget: 25 VMs × 60 GB × 0.75 = 1125 GB.
        assert_eq!(cfg.input_cache_hit(DataSize::from_gb(100.0)), 1.0);
        assert_eq!(cfg.input_cache_hit(DataSize::ZERO), 1.0);
        let h = cfg.input_cache_hit(DataSize::from_gb(2250.0));
        assert!((h - 0.5).abs() < 1e-9);
        assert!(cfg.input_cache_hit(DataSize::from_tb(100.0)) < 0.02);
    }

    #[test]
    fn objstore_bandwidth_exists_without_provisioning() {
        let cfg = SimConfig::paper_cluster(&agg(100.0)).unwrap();
        assert!(cfg.vm_tier_bandwidth(Tier::ObjStore).mb_per_sec() > 0.0);
    }

    #[test]
    fn zero_vm_cluster_is_rejected() {
        let err = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 0, &agg(100.0))
            .unwrap_err();
        assert_eq!(err, cast_cloud::CloudError::EmptyCluster);
    }

    #[test]
    fn default_fault_plan_is_empty() {
        let cfg = SimConfig::paper_cluster(&agg(1000.0)).unwrap();
        assert!(cfg.faults.is_empty());
    }

    #[test]
    fn sim_config_roundtrips_through_json() {
        // Runtime checkpoints serialize the full cluster configuration —
        // including a populated fault plan — and must get it back intact.
        let mut cfg = SimConfig::paper_cluster(&agg(1000.0)).unwrap();
        cfg.concurrency = Concurrency::Parallel;
        cfg.faults = crate::fault::FaultPlan {
            task_failure_prob: 0.01,
            ..crate::fault::FaultPlan::default()
        };
        cfg.faults.vm_crashes.push(crate::fault::VmCrash {
            vm: 3,
            at_secs: 120.0,
            down_secs: Some(60.0),
        });
        let json = serde_json::to_string(&cfg).expect("serialize");
        // Configs saved by older versions may still carry the retired
        // `collect_trace`, `cache_fraction`, `transfer_streams_per_vm` and
        // `event_budget` fields; unknown fields are ignored.
        let old = json.replacen(
            '{',
            "{\"collect_trace\":true,\"cache_fraction\":0.75,\
             \"transfer_streams_per_vm\":4,\"event_budget\":50000000,",
            1,
        );
        for text in [json, old] {
            let back: SimConfig = serde_json::from_str(&text).expect("deserialize");
            assert_eq!(cfg, back);
        }
    }
}
