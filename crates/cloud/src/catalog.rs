//! The storage service catalog — Table 1 of the paper as data.

use serde::{Deserialize, Serialize};

use crate::redundancy::RedundancyScheme;
use crate::scaling::ScalingModel;
use crate::service::StorageService;
use crate::tier::{PerTier, Tier};
use crate::units::{Bandwidth, DataSize, Duration, Money};
use crate::vm::VmType;

/// Cluster-wide object-store throughput ceiling in MB/s (2015-era GCS
/// bucket throughput: individual VMs each saw ~265 MB/s, but a whole
/// cluster hammering one bucket saturated at roughly a dozen VMs' worth).
pub const OBJSTORE_CLUSTER_MBPS: f64 = 3500.0;

/// A provider's storage offerings plus the VM shape CAST deploys on.
///
/// The default, [`Catalog::google_cloud`], is Table 1 verbatim (Google Cloud,
/// prices and measurements as of 2015-01-14). Other providers — or ablation
/// variants such as "objStore with no request overhead" — are expressed by
/// mutating a copy.
///
/// ```
/// use cast_cloud::{Catalog, Tier};
/// use cast_cloud::units::DataSize;
///
/// let catalog = Catalog::google_cloud();
/// let ssd = catalog.service(Tier::PersSsd);
/// // A 500 GB persSSD volume delivers Table 1's 234 MB/s.
/// assert_eq!(ssd.throughput(DataSize::from_gb(500.0)).mb_per_sec().round(), 234.0);
/// assert_eq!(ssd.iops(DataSize::from_gb(500.0)), 15_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    services: PerTier<StorageService>,
    /// Worker VM shape used for all slaves.
    pub worker_vm: VmType,
    /// Master VM shape (runs no tasks; contributes cost only).
    pub master_vm: VmType,
}

impl Catalog {
    /// Table 1: Google Cloud storage details.
    ///
    /// * `ephSSD` — 375 GB volumes, 733 MB/s and 100 000 IOPS each, at most
    ///   4 per VM, $0.218/GB-month.
    /// * `persSSD` — linear scaling ≈0.468 MB/s and exactly 30 IOPS per GB
    ///   (48/118/234 MB/s and 3 000/7 500/15 000 IOPS at 100/250/500 GB),
    ///   up to 10 240 GB per volume, $0.17/GB-month.
    /// * `persHDD` — ≈0.194 MB/s and 1.5 IOPS per GB (20/45/97 MB/s at
    ///   100/250/500 GB), up to 10 240 GB, $0.04/GB-month.
    /// * `objStore` — 265 MB/s streams, 550 IOPS, no capacity limit,
    ///   $0.026/GB-month, plus a per-request connection-setup overhead
    ///   (the GCS-connector effect of §3.1.2).
    pub fn google_cloud() -> Catalog {
        let services = PerTier::from_fn(|tier| match tier {
            Tier::EphSsd => StorageService {
                tier,
                scaling: ScalingModel::PerVolume {
                    volume: DataSize::from_gb(375.0),
                    bw_per_volume: Bandwidth::from_mbps(733.0),
                    iops_per_volume: 100_000.0,
                    max_volumes: 4,
                },
                price_per_gb_month: Money::from_dollars(0.218),
                request_overhead: Duration::ZERO,
                max_volume: Some(DataSize::from_gb(375.0)),
                max_volumes_per_vm: Some(4),
                redundancy: RedundancyScheme::NONE,
            },
            Tier::PersSsd => StorageService {
                tier,
                scaling: ScalingModel::Linear {
                    bw_per_gb: 0.468,
                    iops_per_gb: 30.0,
                    // The 2015-era per-VM persistent-SSD throughput ceiling
                    // (Table 1's 500 GB row sits essentially at the cap).
                    bw_cap: Bandwidth::from_mbps(240.0),
                    iops_cap: 15_000.0,
                },
                price_per_gb_month: Money::from_dollars(0.17),
                request_overhead: Duration::ZERO,
                max_volume: Some(DataSize::from_gb(10_240.0)),
                max_volumes_per_vm: Some(8),
                redundancy: RedundancyScheme::NONE,
            },
            Tier::PersHdd => StorageService {
                tier,
                scaling: ScalingModel::Linear {
                    bw_per_gb: 0.194,
                    iops_per_gb: 1.5,
                    bw_cap: Bandwidth::from_mbps(180.0),
                    iops_cap: 3_000.0,
                },
                price_per_gb_month: Money::from_dollars(0.04),
                request_overhead: Duration::ZERO,
                max_volume: Some(DataSize::from_gb(10_240.0)),
                max_volumes_per_vm: Some(8),
                redundancy: RedundancyScheme::NONE,
            },
            Tier::ObjStore => StorageService {
                tier,
                scaling: ScalingModel::FlatStream {
                    stream_bw: Bandwidth::from_mbps(265.0),
                    iops: 550.0,
                },
                price_per_gb_month: Money::from_dollars(0.026),
                request_overhead: Duration::from_secs(0.5),
                max_volume: None,
                max_volumes_per_vm: None,
                redundancy: RedundancyScheme::NONE,
            },
        });
        Catalog {
            services,
            worker_vm: VmType::n1_standard_16(),
            master_vm: VmType::n1_standard_4(),
        }
    }

    /// An AWS-2015-style catalog, demonstrating that the model is not
    /// Google-specific (§1: "Other cloud service providers such as AWS
    /// EC2, Microsoft Azure, and HP Cloud provide similar storage services
    /// with different performance–cost trade-offs"):
    ///
    /// * instance-store SSD (~800 GB volumes on i2-class instances),
    /// * EBS gp2 (3 IOPS/GB burstable, ~0.75 MB/s per GB effective
    ///   streaming, 160 MB/s per-volume ceiling, $0.10/GB-month),
    /// * EBS magnetic ($0.05/GB-month),
    /// * S3 (no capacity limit, $0.03/GB-month, higher request latency).
    pub fn aws_like() -> Catalog {
        let mut c = Catalog::google_cloud();
        *c.service_mut(Tier::EphSsd) = StorageService {
            tier: Tier::EphSsd,
            scaling: ScalingModel::PerVolume {
                volume: DataSize::from_gb(800.0),
                bw_per_volume: Bandwidth::from_mbps(400.0),
                iops_per_volume: 40_000.0,
                max_volumes: 8,
            },
            price_per_gb_month: Money::from_dollars(0.0), // bundled with the instance
            request_overhead: Duration::ZERO,
            max_volume: Some(DataSize::from_gb(800.0)),
            max_volumes_per_vm: Some(8),
            redundancy: RedundancyScheme::NONE,
        };
        *c.service_mut(Tier::PersSsd) = StorageService {
            tier: Tier::PersSsd,
            scaling: ScalingModel::Linear {
                bw_per_gb: 0.75,
                iops_per_gb: 3.0,
                bw_cap: Bandwidth::from_mbps(160.0),
                iops_cap: 10_000.0,
            },
            price_per_gb_month: Money::from_dollars(0.10),
            request_overhead: Duration::ZERO,
            max_volume: Some(DataSize::from_gb(16_384.0)),
            max_volumes_per_vm: Some(8),
            redundancy: RedundancyScheme::NONE,
        };
        *c.service_mut(Tier::PersHdd) = StorageService {
            tier: Tier::PersHdd,
            scaling: ScalingModel::Linear {
                bw_per_gb: 0.12,
                iops_per_gb: 0.5,
                bw_cap: Bandwidth::from_mbps(90.0),
                iops_cap: 500.0,
            },
            price_per_gb_month: Money::from_dollars(0.05),
            request_overhead: Duration::ZERO,
            max_volume: Some(DataSize::from_gb(1_024.0)),
            max_volumes_per_vm: Some(8),
            redundancy: RedundancyScheme::NONE,
        };
        *c.service_mut(Tier::ObjStore) = StorageService {
            tier: Tier::ObjStore,
            scaling: ScalingModel::FlatStream {
                stream_bw: Bandwidth::from_mbps(220.0),
                iops: 300.0,
            },
            price_per_gb_month: Money::from_dollars(0.03),
            request_overhead: Duration::from_secs(0.6),
            max_volume: None,
            max_volumes_per_vm: None,
            redundancy: RedundancyScheme::NONE,
        };
        c
    }

    /// Look up one service.
    #[inline]
    pub fn service(&self, tier: Tier) -> &StorageService {
        self.services.get(tier)
    }

    /// Mutable access for ablations and what-if analysis.
    #[inline]
    pub fn service_mut(&mut self, tier: Tier) -> &mut StorageService {
        self.services.get_mut(tier)
    }

    /// Iterate services in Table 1 order.
    pub fn services(&self) -> impl Iterator<Item = &StorageService> {
        Tier::ALL.iter().map(move |&t| self.service(t))
    }

    /// The tier data is staged through when a job runs on non-persistent
    /// storage (Fig. 1 accounts input download and output upload against
    /// `objStore`).
    pub fn backing_store(&self) -> Tier {
        Tier::ObjStore
    }

    /// Render Table 1 as aligned text rows (used by the `table1` bench
    /// binary and doc examples).
    pub fn table1(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Storage    Capacity       Throughput  IOPS      Cost\n\
             type       (GB/volume)    (MB/sec)    (4KB)     ($/month)\n",
        );
        for (sample_gb, svc) in [
            (375.0, self.service(Tier::EphSsd)),
            (500.0, self.service(Tier::PersSsd)),
            (500.0, self.service(Tier::PersHdd)),
            (f64::NAN, self.service(Tier::ObjStore)),
        ] {
            let cap = DataSize::from_gb(if sample_gb.is_nan() { 1.0 } else { sample_gb });
            let cap_str = if sample_gb.is_nan() {
                "N/A".to_string()
            } else {
                format!("{sample_gb:.0}")
            };
            out.push_str(&format!(
                "{:<10} {:<14} {:<11.0} {:<9.0} {:.3}/GB\n",
                svc.tier.name(),
                cap_str,
                svc.throughput(cap).mb_per_sec(),
                svc.iops(cap),
                svc.price_per_gb_month.dollars(),
            ));
        }
        out
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::google_cloud()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_throughput_points() {
        let c = Catalog::google_cloud();
        let cases = [
            (Tier::EphSsd, 375.0, 733.0, 0.0),
            (Tier::PersSsd, 100.0, 48.0, 0.03),
            (Tier::PersSsd, 250.0, 118.0, 0.03),
            (Tier::PersSsd, 500.0, 234.0, 0.01),
            (Tier::PersHdd, 100.0, 20.0, 0.03),
            (Tier::PersHdd, 250.0, 45.0, 0.08),
            (Tier::PersHdd, 500.0, 97.0, 0.01),
            (Tier::ObjStore, 500.0, 265.0, 0.0),
        ];
        for (tier, gb, want, tol) in cases {
            let got = c
                .service(tier)
                .throughput(DataSize::from_gb(gb))
                .mb_per_sec();
            let err = (got - want).abs() / want;
            assert!(
                err <= tol + 1e-9,
                "{tier} @ {gb} GB: got {got:.1} MB/s, want {want} (tol {tol})"
            );
        }
    }

    #[test]
    fn table1_iops_points_are_exact() {
        let c = Catalog::google_cloud();
        let cases = [
            (Tier::EphSsd, 375.0, 100_000.0),
            (Tier::PersSsd, 100.0, 3_000.0),
            (Tier::PersSsd, 250.0, 7_500.0),
            (Tier::PersSsd, 500.0, 15_000.0),
            (Tier::PersHdd, 100.0, 150.0),
            (Tier::PersHdd, 250.0, 375.0),
            (Tier::PersHdd, 500.0, 750.0),
            (Tier::ObjStore, 500.0, 550.0),
        ];
        for (tier, gb, want) in cases {
            let got = c.service(tier).iops(DataSize::from_gb(gb));
            assert!((got - want).abs() < 1e-6, "{tier} @ {gb} GB IOPS");
        }
    }

    #[test]
    fn table1_prices() {
        let c = Catalog::google_cloud();
        let prices = [
            (Tier::EphSsd, 0.218),
            (Tier::PersSsd, 0.17),
            (Tier::PersHdd, 0.04),
            (Tier::ObjStore, 0.026),
        ];
        for (tier, want) in prices {
            assert!((c.service(tier).price_per_gb_month.dollars() - want).abs() < 1e-12);
        }
    }

    #[test]
    fn price_ordering_matches_paper_narrative() {
        // ephSSD is the most expensive, objStore the cheapest.
        let c = Catalog::google_cloud();
        let p = |t: Tier| c.service(t).price_per_gb_month.dollars();
        assert!(p(Tier::EphSsd) > p(Tier::PersSsd));
        assert!(p(Tier::PersSsd) > p(Tier::PersHdd));
        assert!(p(Tier::PersHdd) > p(Tier::ObjStore));
    }

    #[test]
    fn only_objstore_has_request_overhead() {
        let c = Catalog::google_cloud();
        for t in Tier::ALL {
            let has = !c.service(t).request_overhead.is_zero();
            assert_eq!(has, t == Tier::ObjStore, "{t}");
        }
    }

    #[test]
    fn table1_render_contains_all_tiers() {
        let s = Catalog::google_cloud().table1();
        for t in Tier::ALL {
            assert!(s.contains(t.name()), "missing {t} in:\n{s}");
        }
    }

    #[test]
    fn backing_store_is_objstore() {
        assert_eq!(Catalog::google_cloud().backing_store(), Tier::ObjStore);
    }

    #[test]
    fn aws_like_catalog_has_same_structure_different_surface() {
        let aws = Catalog::aws_like();
        let gcp = Catalog::google_cloud();
        // Same tier menu, different performance/price points.
        for t in Tier::ALL {
            assert_eq!(aws.service(t).tier, t);
        }
        assert_ne!(
            aws.service(Tier::PersSsd).price_per_gb_month,
            gcp.service(Tier::PersSsd).price_per_gb_month
        );
        // Instance store comes bundled with the instance on AWS.
        assert_eq!(aws.service(Tier::EphSsd).price_per_gb_month.dollars(), 0.0);
        // gp2's burstable streaming beats pd-ssd per GB but caps lower.
        let cap = DataSize::from_gb(100.0);
        assert!(
            aws.service(Tier::PersSsd).throughput(cap).mb_per_sec()
                > gcp.service(Tier::PersSsd).throughput(cap).mb_per_sec()
        );
        assert!(
            aws.service(Tier::PersSsd)
                .throughput(DataSize::from_gb(2000.0))
                .mb_per_sec()
                < gcp
                    .service(Tier::PersSsd)
                    .throughput(DataSize::from_gb(2000.0))
                    .mb_per_sec()
        );
    }

    #[test]
    fn catalogs_serde_roundtrip() {
        for catalog in [Catalog::google_cloud(), Catalog::aws_like()] {
            let json = serde_json::to_string(&catalog).unwrap();
            let back: Catalog = serde_json::from_str(&json).unwrap();
            assert_eq!(back, catalog);
        }
    }
}
