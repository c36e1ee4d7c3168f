//! Durability: shard liveness, degraded reads and background repair.
//!
//! The cloud catalog gives every tier a [`RedundancyScheme`]; this module
//! makes that scheme *simulatable*. A pre-pass walks the fault plan's
//! shard-loss timeline ([`crate::fault::ShardKill`] entries plus permanent
//! VM crashes, which destroy the VM-local shards of ephemeral-SSD
//! datasets), tracks per-dataset shard liveness, and lowers the damage
//! into work the engine already knows how to charge:
//!
//! * **degraded reads** — a dataset missing shards (but still above its
//!   scheme's read threshold) costs its readers reconstruction bandwidth:
//!   each read is inflated by
//!   [`RedundancyScheme::degraded_read_amplification`] as an extra
//!   stage-in flow on the home tier;
//! * **background repair** — every surviving-but-damaged dataset gets a
//!   reconstruction transfer ([`MigrationSpec`] from the home tier to
//!   itself) whose traffic contends with foreground jobs for tier
//!   bandwidth;
//! * **data loss** — losses beyond the scheme's tolerance surface as
//!   [`SimError::DataLoss`]: the dataset is unrecoverable and the
//!   simulation refuses to pretend otherwise.
//!
//! Approximations, deliberately: shard damage is applied before the run
//! (readers pay the degraded penalty for the whole simulation, repairs
//! start at `t = 0`), and workflow-interior jobs whose stage-in the
//! runner rewrites for pipelining do not carry the degraded-read
//! surcharge. Both keep the pre-pass independent of engine timing, which
//! is what makes fault sweeps monotone and bit-reproducible.
//!
//! Shard→VM mapping is deterministic: shard `i` of dataset `d` lives on
//! VM `(h(d) + i) mod nvm` where `h` is keyed by the fault-plan seed, so
//! the same plan always kills the same shards.

use std::collections::HashMap;

use cast_cloud::redundancy::RedundancyScheme;
use cast_cloud::tier::Tier;
use cast_cloud::units::DataSize;
use cast_obs::{Collector, EventBody};
use cast_workload::spec::WorkloadSpec;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::placement::PlacementMap;
use crate::runner::MigrationSpec;

/// Liveness of one dataset's redundancy shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Dataset id (the workload's [`cast_workload::DatasetId`] bits).
    pub dataset: u32,
    /// Tier the dataset lives on (primary tier of its first reader).
    pub tier: Tier,
    /// Redundancy scheme of that tier.
    pub scheme: RedundancyScheme,
    /// Logical dataset size.
    pub logical: DataSize,
    /// Shards lost so far.
    pub lost: u32,
}

impl ShardState {
    /// Shards still alive.
    pub fn live(&self) -> u32 {
        self.scheme.shard_count().saturating_sub(self.lost)
    }

    /// Whether the dataset can still be read (possibly degraded).
    pub fn readable(&self) -> bool {
        self.live() >= self.scheme.read_threshold()
    }
}

/// What the durability pre-pass did to one simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DurabilityReport {
    /// Final per-dataset shard state (workload datasets only, in job
    /// order; empty when the plan kills nothing).
    pub states: Vec<ShardState>,
    /// Datasets that finished the timeline damaged but readable.
    pub degraded_datasets: u32,
    /// Extra read traffic charged to degraded readers, MB.
    pub degraded_read_mb: f64,
    /// Background reconstruction traffic injected, MB.
    pub repair_mb: f64,
    /// Reconstruction transfers injected.
    pub repairs: u32,
}

/// Map every workload dataset to its shard state under `placements`.
///
/// A dataset's home tier is the primary input tier of its first reader
/// job; its scheme comes from the catalog's service on that tier. Fails
/// with [`SimError::InvalidSplit`] when that reader's input split has no
/// parts.
pub fn shard_states(
    spec: &WorkloadSpec,
    placements: &PlacementMap,
    cfg: &SimConfig,
) -> Result<Vec<ShardState>, SimError> {
    let mut seen: HashMap<u32, usize> = HashMap::new();
    let mut states: Vec<ShardState> = Vec::new();
    for job in &spec.jobs {
        if seen.contains_key(&job.dataset.0) {
            continue;
        }
        let tier = match placements.get(job.id) {
            Some(p) => p.input.primary().ok_or(SimError::InvalidSplit(job.id.0))?,
            None => continue,
        };
        let logical = spec
            .dataset(job.dataset)
            .map(|d| d.size)
            .unwrap_or(job.input);
        seen.insert(job.dataset.0, states.len());
        states.push(ShardState {
            dataset: job.dataset.0,
            tier,
            scheme: cfg.catalog.service(tier).redundancy,
            logical,
            lost: 0,
        });
    }
    Ok(states)
}

/// Deterministic home VM of a dataset's shard 0.
fn shard_anchor(seed: u64, dataset: u32, nvm: usize) -> usize {
    let h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(dataset).wrapping_mul(0xff51_afd7_ed55_8ccd));
    (h >> 17) as usize % nvm.max(1)
}

/// Run the fault plan's shard-loss timeline over `states`.
///
/// Emits [`EventBody::ShardLost`] per edge and fails with
/// [`SimError::DataLoss`] the moment any dataset drops below its read
/// threshold.
fn apply_loss_timeline(
    states: &mut [ShardState],
    cfg: &SimConfig,
    collector: &Collector,
) -> Result<(), SimError> {
    let faults = &cfg.faults;
    let index: HashMap<u32, usize> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.dataset, i))
        .collect();
    // Merge explicit kills and permanent-crash-induced ephemeral losses
    // into one time-ordered edge list.
    let mut edges: Vec<(f64, u32, u32)> = faults
        .shard_kills
        .iter()
        .map(|k| (k.at_secs, k.dataset, k.shards))
        .collect();
    for c in &faults.vm_crashes {
        if c.down_secs.is_some() {
            continue; // the VM comes back; persistent volumes survive anyway
        }
        for s in states.iter() {
            if s.tier != Tier::EphSsd {
                continue;
            }
            let anchor = shard_anchor(faults.seed, s.dataset, cfg.nvm);
            let killed = (0..s.scheme.shard_count())
                .filter(|&i| (anchor + i as usize) % cfg.nvm.max(1) == c.vm as usize)
                .count() as u32;
            if killed > 0 {
                edges.push((c.at_secs, s.dataset, killed));
            }
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    for (at, dataset, shards) in edges {
        let Some(&i) = index.get(&dataset) else {
            continue; // kill aimed at a dataset this workload never reads
        };
        let s = &mut states[i];
        s.lost = (s.lost + shards).min(s.scheme.shard_count());
        let fatal = !s.readable();
        collector.emit(
            at,
            EventBody::ShardLost {
                dataset,
                lost: shards,
                remaining: s.live(),
                fatal,
            },
        );
        if fatal {
            return Err(SimError::DataLoss {
                dataset,
                lost: s.lost,
                tolerance: s.scheme.fault_tolerance(),
            });
        }
    }
    Ok(())
}

/// What the durability pre-pass decided before the simulation runs:
/// either the inputs were undamaged (simulate them unmodified — the
/// bit-identical fast path) or they were rewritten with degraded-read
/// inflation and repair transfers. Shared by [`simulate_durable`] and
/// the [`crate::Sim`] builder's durable mode.
pub(crate) struct DurabilityPrepass {
    /// Rewritten `(placements, migrations)` when datasets were damaged;
    /// `None` when the loss timeline left everything intact.
    pub(crate) rewritten: Option<(PlacementMap, Vec<MigrationSpec>)>,
    pub(crate) report: DurabilityReport,
}

/// Run the shard-loss timeline and compute the simulation inputs it
/// implies, without running the simulation itself.
pub(crate) fn durability_prepass(
    spec: &WorkloadSpec,
    placements: &PlacementMap,
    migrations: &[MigrationSpec],
    cfg: &SimConfig,
    collector: &Collector,
) -> Result<DurabilityPrepass, SimError> {
    if let Err(reason) = cfg.faults.validate(cfg.nvm) {
        return Err(SimError::InvalidFaultPlan { reason });
    }
    let mut states = shard_states(spec, placements, cfg)?;
    apply_loss_timeline(&mut states, cfg, collector)?;

    let damaged: Vec<usize> = (0..states.len()).filter(|&i| states[i].lost > 0).collect();
    if damaged.is_empty() {
        return Ok(DurabilityPrepass {
            rewritten: None,
            report: DurabilityReport::default(),
        });
    }

    // Degraded readers pay reconstruction bandwidth: inflate (or create)
    // their stage-in by the scheme's read amplification on the home tier.
    let mut placements = placements.clone();
    let mut degraded_read_mb = 0.0;
    for &i in &damaged {
        let s = &states[i];
        let amp = s.scheme.degraded_read_amplification(s.lost);
        if amp <= 0.0 {
            continue;
        }
        for job in spec.jobs.iter().filter(|j| j.dataset.0 == s.dataset) {
            let Some(p) = placements.get(job.id) else {
                continue;
            };
            let mut p = p.clone();
            let extra = DataSize::from_bytes(job.input.bytes() * amp);
            match (p.stage_in_from, p.stage_in_bytes) {
                (Some(_), Some(prev)) => {
                    p.stage_in_bytes = Some(DataSize::from_bytes(prev.bytes() + extra.bytes()));
                }
                _ => {
                    p.stage_in_from = Some(s.tier);
                    p.stage_in_bytes = Some(extra);
                }
            }
            degraded_read_mb += extra.mb();
            placements.set(job.id, p);
        }
    }

    // Background reconstruction: one repair transfer per damaged dataset,
    // contending on the home tier but blocking nobody.
    let mut all_migrations: Vec<MigrationSpec> = migrations.to_vec();
    let mut next_id = migrations.iter().map(|m| m.id + 1).max().unwrap_or(0);
    let mut repair_mb = 0.0;
    let mut repairs = 0u32;
    for &i in &damaged {
        let s = &states[i];
        // EC repair streams `data` shards' worth to rebuild; replication
        // re-copies each lost replica in full.
        let bytes = if s.scheme.is_erasure_coded() {
            s.logical
        } else {
            DataSize::from_bytes(s.logical.bytes() * f64::from(s.lost))
        };
        if bytes.bytes() <= 0.0 {
            continue;
        }
        collector.emit(
            0.0,
            EventBody::Reconstructed {
                dataset: s.dataset,
                shards: s.lost,
                mb: bytes.mb(),
            },
        );
        all_migrations.push(MigrationSpec {
            id: next_id,
            bytes,
            from: s.tier,
            to: s.tier,
            blocks: vec![],
            after: vec![],
        });
        next_id += 1;
        repair_mb += bytes.mb();
        repairs += 1;
    }

    let degraded_datasets = damaged.len() as u32;
    Ok(DurabilityPrepass {
        rewritten: Some((placements, all_migrations)),
        report: DurabilityReport {
            states,
            degraded_datasets,
            degraded_read_mb,
            repair_mb,
            repairs,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, ShardKill, VmCrash};
    use crate::metrics::SimReport;
    use crate::sim::Sim;
    use cast_cloud::tier::PerTier;
    use cast_cloud::Catalog;
    use cast_workload::apps::AppKind;
    use cast_workload::synth;

    fn simulate_plain(
        spec: &WorkloadSpec,
        placements: &PlacementMap,
        cfg: &SimConfig,
    ) -> Result<SimReport, SimError> {
        Sim::builder(cfg).jobs(spec, placements).build()?.run()
    }

    fn simulate_durable(
        spec: &WorkloadSpec,
        placements: &PlacementMap,
        cfg: &SimConfig,
        collector: &Collector,
    ) -> Result<(SimReport, DurabilityReport), SimError> {
        Sim::builder(cfg)
            .jobs(spec, placements)
            .collector(collector.clone())
            .durability(true)
            .build()?
            .run_durable()
    }

    fn cfg_with(catalog: Catalog, nvm: usize, faults: FaultPlan) -> SimConfig {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        for t in Tier::ALL {
            *agg.get_mut(t) = DataSize::from_gb(750.0 * nvm as f64);
        }
        let mut c = SimConfig::with_aggregate_capacity(catalog, nvm, &agg).unwrap();
        c.jitter = 0.0;
        c.faults = faults;
        c
    }

    fn ec_spec_and_placement() -> (WorkloadSpec, PlacementMap) {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(20.0));
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersHdd);
        (spec, placements)
    }

    #[test]
    fn no_kills_is_bit_identical_to_plain_sim() {
        let (spec, placements) = ec_spec_and_placement();
        let cfg = cfg_with(Catalog::with_ec_cold_tier(), 2, FaultPlan::default());
        let plain = simulate_plain(&spec, &placements, &cfg).unwrap();
        let (durable, rep) =
            simulate_durable(&spec, &placements, &cfg, &Collector::noop()).unwrap();
        assert_eq!(
            plain.makespan.secs().to_bits(),
            durable.makespan.secs().to_bits()
        );
        assert_eq!(rep, DurabilityReport::default());
    }

    #[test]
    fn empty_split_is_an_error_before_the_loss_timeline() {
        let (spec, mut placements) = ec_spec_and_placement();
        let mut empty = crate::placement::JobPlacement::all_on(Tier::PersHdd);
        empty.input.parts.clear();
        placements.set(spec.jobs[0].id, empty);
        let cfg = cfg_with(Catalog::with_ec_cold_tier(), 2, FaultPlan::default());
        let err = simulate_durable(&spec, &placements, &cfg, &Collector::noop()).unwrap_err();
        assert_eq!(err, SimError::InvalidSplit(0));
    }

    #[test]
    fn tolerated_loss_degrades_and_repairs() {
        let (spec, placements) = ec_spec_and_placement();
        let faults = FaultPlan {
            shard_kills: vec![ShardKill {
                dataset: 0,
                at_secs: 0.0,
                shards: 2,
            }],
            ..FaultPlan::default()
        };
        let cfg = cfg_with(Catalog::with_ec_cold_tier(), 2, faults);
        let quiet = cfg_with(Catalog::with_ec_cold_tier(), 2, FaultPlan::default());
        let baseline = simulate_plain(&spec, &placements, &quiet).unwrap();
        let col = Collector::recording();
        let (report, durability) = simulate_durable(&spec, &placements, &cfg, &col).unwrap();
        assert_eq!(durability.degraded_datasets, 1);
        assert_eq!(durability.repairs, 1);
        assert!(durability.degraded_read_mb > 0.0);
        assert!(durability.repair_mb > 0.0);
        assert!(
            report.makespan.secs() > baseline.makespan.secs(),
            "degraded reads + repair traffic must cost time ({} vs {})",
            report.makespan.secs(),
            baseline.makespan.secs()
        );
        let labels: Vec<&'static str> = col.events().iter().map(|e| e.body.label()).collect();
        assert!(labels.contains(&"shard_lost"));
        assert!(labels.contains(&"reconstructed"));
        // rs(4+2) two shards down: still readable.
        assert!(durability.states[0].readable());
        assert_eq!(durability.states[0].live(), 4);
    }

    #[test]
    fn loss_beyond_tolerance_is_data_loss() {
        let (spec, placements) = ec_spec_and_placement();
        let faults = FaultPlan {
            shard_kills: vec![ShardKill {
                dataset: 0,
                at_secs: 1.0,
                shards: 3,
            }],
            ..FaultPlan::default()
        };
        let cfg = cfg_with(Catalog::with_ec_cold_tier(), 2, faults);
        let err = simulate_durable(&spec, &placements, &cfg, &Collector::noop()).unwrap_err();
        assert!(matches!(
            err,
            SimError::DataLoss {
                dataset: 0,
                lost: 3,
                tolerance: 2,
            }
        ));
    }

    #[test]
    fn unreplicated_tier_loses_data_on_first_kill() {
        // Default catalog: every tier is rep(1), tolerance 0.
        let (spec, placements) = ec_spec_and_placement();
        let faults = FaultPlan {
            shard_kills: vec![ShardKill {
                dataset: 0,
                at_secs: 0.0,
                shards: 1,
            }],
            ..FaultPlan::default()
        };
        let cfg = cfg_with(Catalog::google_cloud(), 2, faults);
        let err = simulate_durable(&spec, &placements, &cfg, &Collector::noop()).unwrap_err();
        assert!(matches!(err, SimError::DataLoss { dataset: 0, .. }));
    }

    #[test]
    fn losses_accumulate_across_kills() {
        let (spec, placements) = ec_spec_and_placement();
        let faults = FaultPlan {
            shard_kills: vec![
                ShardKill {
                    dataset: 0,
                    at_secs: 1.0,
                    shards: 1,
                },
                ShardKill {
                    dataset: 0,
                    at_secs: 2.0,
                    shards: 1,
                },
                ShardKill {
                    dataset: 0,
                    at_secs: 3.0,
                    shards: 1,
                },
            ],
            ..FaultPlan::default()
        };
        let cfg = cfg_with(Catalog::with_ec_cold_tier(), 2, faults);
        let err = simulate_durable(&spec, &placements, &cfg, &Collector::noop()).unwrap_err();
        assert!(matches!(err, SimError::DataLoss { lost: 3, .. }));
    }

    #[test]
    fn permanent_crash_kills_ephemeral_shards_only() {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let faults = FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: 1.0e9, // after the workload finishes: pure shard damage
                down_secs: None,
            }],
            ..FaultPlan::default()
        };
        // Persistent tier: the crash destroys no shards.
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersHdd);
        let cfg = cfg_with(Catalog::google_cloud(), 2, faults.clone());
        let (_, rep) = simulate_durable(&spec, &placements, &cfg, &Collector::noop()).unwrap();
        assert_eq!(rep, DurabilityReport::default());
        // Ephemeral tier under rep(1): the crash takes the only copy.
        let eph = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::EphSsd);
        let cfg = cfg_with(Catalog::google_cloud(), 1, faults);
        let err = simulate_durable(&spec, &eph, &cfg, &Collector::noop()).unwrap_err();
        assert!(matches!(err, SimError::DataLoss { .. }));
    }

    #[test]
    fn shard_anchor_is_deterministic() {
        let a = shard_anchor(42, 7, 16);
        let b = shard_anchor(42, 7, 16);
        assert_eq!(a, b);
        assert!(a < 16);
    }
}
