//! Multi-tenant workload synthesis: a deterministic factory stamping out
//! per-tenant arrival streams for fleet-scale serving.
//!
//! One tenant = one [`ArrivalConfig`] (its own seed, rate, drift and
//! workflow mix) plus a service class carrying scheduling intent:
//!
//! * [`TenantClass::Interactive`] — high priority, deadline-heavy
//!   workflow mix, modest volume. The tenants whose SLOs the fleet's
//!   fair-share admission protects first.
//! * [`TenantClass::Batch`] — normal priority, steady Poisson load,
//!   bigger inputs, few deadlines. The throughput filler.
//! * [`TenantClass::Bursty`] — low priority, spiky on/off load. The
//!   first to be throttled or deferred when a shard saturates.
//!
//! [`tenant_fleet`] derives every tenant's stream seed from the fleet
//! seed and the tenant index with a splitmix64 walk, so the whole fleet
//! is a pure function of its [`FleetWorkloadConfig`]: regenerating it —
//! on any machine, in any order, across any worker count — yields
//! bit-identical streams.

use cast_cloud::units::Duration;

use crate::arrival::{ArrivalConfig, ArrivalProcess, ArrivalStream, DriftConfig};
use crate::error::WorkloadError;

/// Fleet-unique tenant identifier (dense, assignment order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Service class a tenant is sold: bundles priority and workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Deadline-sensitive, low-volume, high priority.
    Interactive,
    /// Steady throughput-oriented load, normal priority.
    Batch,
    /// Spiky opportunistic load, lowest priority.
    Bursty,
}

impl TenantClass {
    /// All classes, in priority order (highest first).
    pub const ALL: [TenantClass; 3] = [
        TenantClass::Interactive,
        TenantClass::Batch,
        TenantClass::Bursty,
    ];

    /// Admission priority: higher admits first (ties broken by
    /// [`TenantId`]).
    pub fn priority(self) -> u8 {
        match self {
            TenantClass::Interactive => 2,
            TenantClass::Batch => 1,
            TenantClass::Bursty => 0,
        }
    }

    /// Fair-share weight inside a priority class.
    pub fn weight(self) -> f64 {
        match self {
            TenantClass::Interactive => 4.0,
            TenantClass::Batch => 2.0,
            TenantClass::Bursty => 1.0,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::Interactive => "interactive",
            TenantClass::Batch => "batch",
            TenantClass::Bursty => "bursty",
        }
    }
}

/// One tenant of the fleet: identity, class and the generator config of
/// its private arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Fleet-unique id (dense; doubles as the shard-map hash key).
    pub id: TenantId,
    /// Service class (priority + workload shape).
    pub class: TenantClass,
    /// The tenant's stream generator parameters.
    pub arrivals: ArrivalConfig,
}

impl TenantSpec {
    /// Generate the tenant's arrival stream (bit-deterministic per spec).
    pub fn stream(&self) -> Result<ArrivalStream, WorkloadError> {
        crate::arrival::generate(&self.arrivals)
    }

    /// The class's admission priority.
    pub fn priority(&self) -> u8 {
        self.class.priority()
    }

    /// The class's fair-share weight.
    pub fn weight(&self) -> f64 {
        self.class.weight()
    }

    /// Digest of the tenant's *planning template*: the generator shape
    /// that determines what kind of batches it will present — class,
    /// arrival process (rates quantized to 1/16 job/hour so rate jitter
    /// within a bucket shares a template), drift knobs, workflow mix,
    /// horizon and Table-4 bin ceiling. The stream `seed` is deliberately
    /// excluded: two tenants with equal signatures are drawn from the
    /// same distribution even though their concrete arrivals differ.
    /// Fleet benchmarks use this to count distinct templates; the solve
    /// dedup cache keys on concrete batch content, not on this.
    pub fn planning_signature(&self) -> u64 {
        let q = |rate: f64| (rate * 16.0).round() as u64;
        let mut h = splitmix64(self.class.priority() as u64 ^ 0x7E_4A17);
        let a = &self.arrivals;
        match a.process {
            ArrivalProcess::Poisson { jobs_per_hour } => {
                h = splitmix64(h ^ 0x1 ^ q(jobs_per_hour));
            }
            ArrivalProcess::Bursty {
                jobs_per_hour,
                burst_factor,
                period,
                duty,
            } => {
                h = splitmix64(h ^ 0x2 ^ q(jobs_per_hour));
                h = splitmix64(h ^ burst_factor.to_bits());
                h = splitmix64(h ^ period.secs().to_bits());
                h = splitmix64(h ^ duty.to_bits());
            }
        }
        h = splitmix64(h ^ a.drift.app_shift.to_bits());
        h = splitmix64(h ^ a.drift.size_growth.to_bits());
        h = splitmix64(h ^ a.workflow_fraction.to_bits());
        h = splitmix64(h ^ a.horizon.secs().to_bits());
        splitmix64(h ^ a.max_bin as u64)
    }
}

/// Parameters of a synthesized tenant fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWorkloadConfig {
    /// Fleet seed; every tenant's stream seed derives from it.
    pub seed: u64,
    /// Number of tenants.
    pub tenants: usize,
    /// Shared stream horizon (every tenant serves the same region epoch
    /// grid).
    pub horizon: Duration,
    /// Fraction of tenants sold the Interactive class, in `[0, 1]`.
    pub interactive_fraction: f64,
    /// Fraction sold the Bursty class, in `[0, 1]` (the remainder after
    /// interactive + bursty is Batch).
    pub bursty_fraction: f64,
    /// Mean per-tenant arrival rate (jobs/hour) for the Batch class;
    /// Interactive runs lighter, Bursty spikier, both scaled from this.
    pub base_jobs_per_hour: f64,
    /// Highest Table 4 bin tenants draw jobs from (1–7).
    pub max_bin: usize,
}

impl Default for FleetWorkloadConfig {
    fn default() -> Self {
        FleetWorkloadConfig {
            seed: 0xF1EE7,
            tenants: 64,
            horizon: Duration::from_hours(1.0),
            interactive_fraction: 0.2,
            bursty_fraction: 0.3,
            base_jobs_per_hour: 8.0,
            max_bin: 3,
        }
    }
}

/// splitmix64: the standard 64-bit seed sequencer. Decorrelates
/// per-tenant stream seeds from the fleet seed without any shared RNG
/// state, so tenant `i`'s stream never depends on how many tenants
/// preceded it. Also the fleet shard map's hash: well-mixed low bits
/// make `splitmix64(id) % shards` a balanced assignment.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stamp out a deterministic tenant fleet.
///
/// Class assignment cycles through the configured mix by index (so any
/// prefix of the fleet has roughly the configured proportions), and each
/// tenant's stream seed is `splitmix64(fleet_seed ^ index)` — tenants
/// are independent, reproducible and order-insensitive.
pub fn tenant_fleet(cfg: &FleetWorkloadConfig) -> Result<Vec<TenantSpec>, WorkloadError> {
    if cfg.tenants == 0 {
        return Err(WorkloadError::BadSynthesisParameter("tenants"));
    }
    if !(0.0..=1.0).contains(&cfg.interactive_fraction)
        || !(0.0..=1.0).contains(&cfg.bursty_fraction)
        || cfg.interactive_fraction + cfg.bursty_fraction > 1.0
    {
        return Err(WorkloadError::BadSynthesisParameter("class mix"));
    }
    if cfg.base_jobs_per_hour <= 0.0 {
        return Err(WorkloadError::BadSynthesisParameter("base_jobs_per_hour"));
    }
    let mut fleet = Vec::with_capacity(cfg.tenants);
    let (mut n_interactive, mut n_bursty) = (0usize, 0usize);
    for i in 0..cfg.tenants {
        // Deterministic class assignment by running quota: every prefix
        // of length k carries ⌊k·fraction⌋ tenants of each minority
        // class, interactive served first when both quotas are behind.
        let quota = |f: f64| ((i + 1) as f64 * f).floor() as usize;
        let class = if n_interactive < quota(cfg.interactive_fraction) {
            n_interactive += 1;
            TenantClass::Interactive
        } else if n_bursty < quota(cfg.bursty_fraction) {
            n_bursty += 1;
            TenantClass::Bursty
        } else {
            TenantClass::Batch
        };
        let seed = splitmix64(cfg.seed ^ (i as u64));
        // Jitter the rate ±25% around the class mean so tenants are not
        // clones of each other (seed-derived, still deterministic).
        let jitter = 0.75 + 0.5 * ((seed >> 11) as f64 / (1u64 << 53) as f64);
        let arrivals = match class {
            TenantClass::Interactive => ArrivalConfig {
                seed,
                horizon: cfg.horizon,
                process: ArrivalProcess::Poisson {
                    jobs_per_hour: cfg.base_jobs_per_hour * 0.75 * jitter,
                },
                drift: DriftConfig::none(),
                workflow_fraction: 0.6,
                max_bin: cfg.max_bin,
            },
            TenantClass::Batch => ArrivalConfig {
                seed,
                horizon: cfg.horizon,
                process: ArrivalProcess::Poisson {
                    jobs_per_hour: cfg.base_jobs_per_hour * jitter,
                },
                drift: DriftConfig {
                    app_shift: 0.4,
                    size_growth: 0.3,
                },
                workflow_fraction: 0.1,
                max_bin: cfg.max_bin,
            },
            TenantClass::Bursty => ArrivalConfig {
                seed,
                horizon: cfg.horizon,
                process: ArrivalProcess::Bursty {
                    jobs_per_hour: cfg.base_jobs_per_hour * 1.5 * jitter,
                    burst_factor: 3.0,
                    period: Duration::from_mins(20.0),
                    duty: 0.25,
                },
                drift: DriftConfig::none(),
                workflow_fraction: 0.05,
                max_bin: cfg.max_bin,
            },
        };
        fleet.push(TenantSpec {
            id: TenantId(i as u32),
            class,
            arrivals,
        });
    }
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_ids_are_dense() {
        let cfg = FleetWorkloadConfig::default();
        let a = tenant_fleet(&cfg).unwrap();
        let b = tenant_fleet(&cfg).unwrap();
        assert_eq!(a, b);
        for (i, t) in a.iter().enumerate() {
            assert_eq!(t.id, TenantId(i as u32));
        }
        // Per-tenant streams replay bit-identically too.
        assert_eq!(a[7].stream().unwrap(), b[7].stream().unwrap());
    }

    #[test]
    fn class_mix_matches_fractions() {
        let cfg = FleetWorkloadConfig {
            tenants: 200,
            interactive_fraction: 0.25,
            bursty_fraction: 0.4,
            ..FleetWorkloadConfig::default()
        };
        let fleet = tenant_fleet(&cfg).unwrap();
        let count = |c: TenantClass| fleet.iter().filter(|t| t.class == c).count();
        // Quotas are served one tenant per index (interactive first), so
        // a class can trail its exact target by the final simultaneous
        // quota jump — within one of target, never over.
        assert_eq!(count(TenantClass::Interactive), 50);
        let bursty = count(TenantClass::Bursty);
        assert!((79..=80).contains(&bursty), "bursty count {bursty}");
        assert_eq!(
            count(TenantClass::Batch),
            200 - 50 - bursty,
            "remainder is batch"
        );
    }

    #[test]
    fn tenants_are_not_stream_clones() {
        let fleet = tenant_fleet(&FleetWorkloadConfig::default()).unwrap();
        let seeds: std::collections::HashSet<u64> = fleet.iter().map(|t| t.arrivals.seed).collect();
        assert_eq!(seeds.len(), fleet.len(), "per-tenant seeds must be unique");
    }

    #[test]
    fn class_priorities_are_ordered() {
        assert!(TenantClass::Interactive.priority() > TenantClass::Batch.priority());
        assert!(TenantClass::Batch.priority() > TenantClass::Bursty.priority());
        assert!(TenantClass::Interactive.weight() > TenantClass::Bursty.weight());
    }

    #[test]
    fn planning_signature_ignores_seed_but_sees_shape() {
        let fleet = tenant_fleet(&FleetWorkloadConfig::default()).unwrap();
        let mut reseeded = fleet[0].clone();
        reseeded.arrivals.seed ^= 0xDEAD_BEEF;
        assert_eq!(
            fleet[0].planning_signature(),
            reseeded.planning_signature(),
            "stream seed must not affect the template"
        );
        // Two tenants of different classes never share a template.
        let interactive = fleet
            .iter()
            .find(|t| t.class == TenantClass::Interactive)
            .unwrap();
        let bursty = fleet
            .iter()
            .find(|t| t.class == TenantClass::Bursty)
            .unwrap();
        assert_ne!(
            interactive.planning_signature(),
            bursty.planning_signature()
        );
        // Rate jitter within a 1/16 job/hour bucket shares a template.
        let mut nudged = fleet[0].clone();
        if let ArrivalProcess::Poisson {
            ref mut jobs_per_hour,
        } = nudged.arrivals.process
        {
            *jobs_per_hour += 1e-6;
        }
        assert_eq!(fleet[0].planning_signature(), nudged.planning_signature());
    }

    #[test]
    fn bad_parameters_rejected() {
        for cfg in [
            FleetWorkloadConfig {
                tenants: 0,
                ..FleetWorkloadConfig::default()
            },
            FleetWorkloadConfig {
                interactive_fraction: 0.7,
                bursty_fraction: 0.7,
                ..FleetWorkloadConfig::default()
            },
            FleetWorkloadConfig {
                base_jobs_per_hour: 0.0,
                ..FleetWorkloadConfig::default()
            },
        ] {
            assert!(tenant_fleet(&cfg).is_err());
        }
    }
}
