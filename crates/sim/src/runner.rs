//! Workload lowering for the simulation engine.
//!
//! [`prepare_runs`] validates a workload + placement against a cluster
//! configuration, wires up workflow dependencies (including cross-tier
//! transfer staging between producer and consumer jobs), orders jobs
//! topologically, and lowers everything into the dependency-ordered
//! [`JobRun`] table an engine executes. [`crate::Sim::builder`] drives
//! it for a plain workload; callers that simulate migrations alongside
//! the workload call it directly and hand the runs to an
//! [`crate::Engine`] constructor.

use std::collections::HashMap;

use cast_cloud::tier::Tier;
use cast_cloud::units::DataSize;
use cast_workload::apps::AppKind;
use cast_workload::dataset::DatasetId;
use cast_workload::job::{Job, JobId};
use cast_workload::spec::WorkloadSpec;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::jobrun::JobRun;
use crate::placement::{JobPlacement, PlacementMap};

/// Job-id namespace for synthetic migration runs: ids at or above this
/// value belong to data movements, not workload jobs (reports keep both,
/// so consumers can split them apart).
pub const MIGRATION_JOB_BASE: u32 = 1 << 30;

/// One planned data movement: `bytes` of a dataset relocating between
/// tiers as part of a plan change. Jobs listed in `blocks` read the moved
/// data under its *new* placement and therefore wait for the move; all
/// other jobs are unaffected (in-flight work keeps the old placement).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationSpec {
    /// Movement id, unique within one simulation (the synthetic job id
    /// becomes `MIGRATION_JOB_BASE + id`).
    pub id: u32,
    /// Bytes to move.
    pub bytes: DataSize,
    /// Source tier.
    pub from: Tier,
    /// Destination tier.
    pub to: Tier,
    /// Workload jobs that must not start before this move completes.
    pub blocks: Vec<JobId>,
    /// Ids of *earlier* migrations in the same batch that must complete
    /// before this one starts — the copy→verify→retire protocol chains its
    /// verify pass after the copy this way. Each referenced id must appear
    /// before this spec in the migration list.
    pub after: Vec<u32>,
}

/// Validate and lower a workload + placement (+ migrations) into the
/// dependency-ordered [`JobRun`] table an engine executes. Exposed so
/// benches and equivalence tests can run both engines over the *same*
/// prepared runs ([`JobRun`] is `Clone`).
pub fn prepare_runs(
    spec: &WorkloadSpec,
    placements: &PlacementMap,
    migrations: &[MigrationSpec],
    cfg: &SimConfig,
) -> Result<Vec<JobRun>, SimError> {
    spec.validate()?;
    let order = execution_order(spec);
    let n_mig = migrations.len();
    let index_of: HashMap<JobId, usize> = order
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i + n_mig))
        .collect();

    // Migration runs occupy engine indices `0..n_mig` (the engine requires
    // dependency indices below the dependent's own index, so movers must
    // precede the jobs they gate).
    let mut runs: Vec<JobRun> = Vec::with_capacity(order.len() + n_mig);
    let mut blocked_by: HashMap<JobId, Vec<usize>> = HashMap::new();
    let mut mover_index: HashMap<u32, usize> = HashMap::with_capacity(n_mig);
    for (m_idx, m) in migrations.iter().enumerate() {
        for t in [m.from, m.to] {
            if t.is_block() && cfg.vm_tier_bandwidth(t).mb_per_sec() <= 0.0 {
                return Err(SimError::UnprovisionedTier {
                    job: MIGRATION_JOB_BASE + m.id,
                    tier: t.name().to_string(),
                });
            }
        }
        let mut deps: Vec<usize> = Vec::with_capacity(m.after.len());
        for &pred in &m.after {
            match mover_index.get(&pred) {
                Some(&i) => deps.push(i),
                None => {
                    return Err(SimError::InvalidMigrationChain {
                        id: m.id,
                        missing: pred,
                    })
                }
            }
        }
        let job = Job {
            id: JobId(MIGRATION_JOB_BASE + m.id),
            app: AppKind::Grep,
            dataset: DatasetId(MIGRATION_JOB_BASE + m.id),
            input: m.bytes,
            maps: 1,
            reduces: 1,
        };
        let profile = *spec.profiles.get(job.app);
        let mut run = JobRun::migration(job, m.from, m.to, profile);
        run.deps = deps;
        runs.push(run);
        mover_index.insert(m.id, m_idx);
        for &jid in &m.blocks {
            blocked_by.entry(jid).or_default().push(m_idx);
        }
    }

    for &jid in &order {
        let job = *spec.job(jid).expect("ordered job exists");
        let placement = placements
            .get(jid)
            .ok_or(SimError::MissingPlacement(jid.0))?
            .clone();
        validate_placement(jid, &placement, cfg)?;
        let mut placement = placement;
        let mut deps: Vec<usize> = Vec::new();
        if let Some(movers) = blocked_by.get(&jid) {
            deps.extend(movers.iter().copied());
        }
        if let Some(wf) = spec.workflow_of(jid) {
            let parents = wf.parents(jid);
            for &p in &parents {
                deps.push(index_of[&p]);
            }
            let own_in = placement
                .input
                .primary()
                .expect("validate_placement rejects empty splits");
            // Output pipelining (§3.1.3 / Eq. 9): an interior job writes
            // its output directly to the tier its (dominant) consumer
            // reads from, instead of persisting it through the backing
            // store.
            let children = wf.children(jid);
            if let Some(&child) = children.first() {
                let child_tier = placements
                    .get(child)
                    .ok_or(SimError::MissingPlacement(child.0))?
                    .input
                    .primary()
                    .ok_or(SimError::InvalidSplit(child.0))?;
                placement.output = child_tier;
                placement.stage_out_to = None;
            }
            // Input arrival: the dominant (largest-output) parent's bytes
            // land on this job's tier via pipelining; any remaining fresh
            // input follows the tier's own convention (ephemeral SSD must
            // download it from the backing store, persistent tiers hold it
            // already).
            let dominant_out = parents
                .iter()
                .map(|&p| {
                    let job = spec.job(p).expect("validated member");
                    job.output(spec.profiles.get(job.app)).bytes()
                })
                .fold(0.0_f64, f64::max);
            let fresh = (job.input.bytes() - dominant_out).max(0.0);
            if !parents.is_empty() {
                if own_in == Tier::EphSsd && fresh > 0.0 {
                    placement.stage_in_from = Some(Tier::ObjStore);
                    placement.stage_in_bytes = Some(cast_cloud::units::DataSize::from_bytes(fresh));
                } else {
                    placement.stage_in_from = None;
                    placement.stage_in_bytes = None;
                }
            }
        }
        let profile = *spec.profiles.get(job.app);
        runs.push(JobRun::new(job, placement, profile, deps));
    }
    Ok(runs)
}

/// Topological execution order: independent jobs in id order, workflow
/// members in dependency order at the position of their first member.
fn execution_order(spec: &WorkloadSpec) -> Vec<JobId> {
    let mut order: Vec<JobId> = Vec::with_capacity(spec.jobs.len());
    let mut emitted: std::collections::HashSet<JobId> = Default::default();
    for job in &spec.jobs {
        if emitted.contains(&job.id) {
            continue;
        }
        match spec.workflow_of(job.id) {
            Some(wf) => {
                for j in wf.topo_order().expect("validated workflow") {
                    if emitted.insert(j) {
                        order.push(j);
                    }
                }
            }
            None => {
                emitted.insert(job.id);
                order.push(job.id);
            }
        }
    }
    order
}

/// Reject placements that use block tiers with no provisioned capacity.
fn validate_placement(
    jid: JobId,
    placement: &JobPlacement,
    cfg: &SimConfig,
) -> Result<(), SimError> {
    if !placement.input.is_valid() {
        return Err(SimError::InvalidSplit(jid.0));
    }
    let mut tiers: Vec<Tier> = placement.input.parts.iter().map(|&(t, _)| t).collect();
    tiers.push(placement.inter);
    tiers.push(placement.output);
    if let Some(t) = placement.stage_in_from {
        tiers.push(t);
    }
    if let Some(t) = placement.stage_out_to {
        tiers.push(t);
    }
    for t in tiers {
        if t.is_block() && cfg.vm_tier_bandwidth(t).mb_per_sec() <= 0.0 {
            return Err(SimError::UnprovisionedTier {
                job: jid.0,
                tier: t.name().to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::metrics::SimReport;
    use crate::sim::Sim;
    use cast_cloud::tier::PerTier;
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;
    use cast_workload::apps::AppKind;
    use cast_workload::synth;

    fn simulate(
        spec: &WorkloadSpec,
        placements: &PlacementMap,
        cfg: &SimConfig,
    ) -> Result<SimReport, SimError> {
        Sim::builder(cfg, spec, placements).build()?.run()
    }

    fn simulate_with_migrations(
        spec: &WorkloadSpec,
        placements: &PlacementMap,
        migrations: &[MigrationSpec],
        cfg: &SimConfig,
    ) -> Result<SimReport, SimError> {
        let runs = prepare_runs(spec, placements, migrations, cfg)?;
        Engine::new(cfg, runs).run()
    }

    fn full_cfg(nvm: usize) -> SimConfig {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        for t in Tier::ALL {
            *agg.get_mut(t) = DataSize::from_gb(750.0 * nvm as f64);
        }
        let mut c = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg).unwrap();
        c.jitter = 0.0;
        c
    }

    #[test]
    fn single_job_simulates() {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let cfg = full_cfg(1);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        let report = simulate(&spec, &placements, &cfg).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(report.makespan.secs() > 0.0);
    }

    #[test]
    fn missing_placement_is_an_error() {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let cfg = full_cfg(1);
        let err = simulate(&spec, &PlacementMap::new(), &cfg).unwrap_err();
        assert!(matches!(err, SimError::MissingPlacement(0)));
    }

    #[test]
    fn workflow_respects_dependencies_and_transfers() {
        let spec = synth::fig4_workflow();
        let cfg = full_cfg(4);
        // Heterogeneous plan: Sort on ephemeral SSD inside the workflow —
        // its fresh input (beyond the tiny Grep output) must be staged
        // down from the backing store.
        let mut placements = PlacementMap::new();
        for i in [0u32, 1, 3] {
            placements.set(JobId(i), JobPlacement::all_on(Tier::PersSsd));
        }
        placements.set(JobId(2), JobPlacement::all_on(Tier::EphSsd));
        let report = simulate(&spec, &placements, &cfg).unwrap();
        let grep = report.job(JobId(0)).unwrap();
        let join = report.job(JobId(3)).unwrap();
        assert!(join.started.secs() >= grep.finished.secs() - 1e-6);
        let sort = report.job(JobId(2)).unwrap();
        assert!(
            sort.stage_in.secs() > 0.0,
            "fresh input download must cost time"
        );
    }

    #[test]
    fn empty_split_on_a_workflow_child_is_an_error() {
        let mut empty = JobPlacement::all_on(Tier::PersSsd);
        empty.input.parts.clear();
        // Job 0 reads its first child's input tier before job 1's own
        // placement is validated.
        let spec = synth::fig4_workflow();
        let cfg = full_cfg(4);
        let mut placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        placements.set(JobId(1), empty.clone());
        let err = simulate(&spec, &placements, &cfg).unwrap_err();
        assert_eq!(err, SimError::InvalidSplit(1));
        // An independent job's own split is validated directly.
        let single = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let mut placements = PlacementMap::new();
        placements.set(single.jobs[0].id, empty);
        let err = simulate(&single, &placements, &cfg).unwrap_err();
        assert_eq!(err, SimError::InvalidSplit(single.jobs[0].id.0));
    }

    #[test]
    fn uniform_tier_workflow_has_no_internal_transfers() {
        let spec = synth::fig4_workflow();
        let cfg = full_cfg(4);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        let report = simulate(&spec, &placements, &cfg).unwrap();
        for m in &report.jobs {
            assert_eq!(m.stage_in.secs(), 0.0, "{}", m.job);
        }
    }

    #[test]
    fn unprovisioned_block_tier_rejected_up_front() {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(500.0);
        let cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg).unwrap();
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersHdd);
        let err = simulate(&spec, &placements, &cfg).unwrap_err();
        assert!(matches!(err, SimError::UnprovisionedTier { .. }));
    }

    #[test]
    fn migrations_gate_only_their_blocked_jobs() {
        let mut spec = synth::single_job(AppKind::Grep, DataSize::from_gb(8.0));
        let mut other = spec.jobs[0];
        other.id = JobId(1);
        other.dataset = cast_workload::DatasetId(1);
        spec.jobs.push(other);
        spec.datasets.push(cast_workload::Dataset::single_use(
            other.dataset,
            other.input,
        ));
        let mut cfg = full_cfg(4);
        cfg.concurrency = crate::config::Concurrency::Parallel;
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        let migrations = vec![MigrationSpec {
            id: 0,
            bytes: DataSize::from_gb(40.0),
            from: Tier::PersHdd,
            to: Tier::PersSsd,
            blocks: vec![JobId(0)],
            after: vec![],
        }];
        let report = simulate_with_migrations(&spec, &placements, &migrations, &cfg).unwrap();
        assert_eq!(report.jobs.len(), 3, "two jobs plus the migration run");
        let mover = report.job(JobId(MIGRATION_JOB_BASE)).unwrap();
        assert!(mover.finished.secs() > 0.0, "migration moves real bytes");
        let blocked = report.job(JobId(0)).unwrap();
        let free = report.job(JobId(1)).unwrap();
        assert!(
            blocked.started.secs() >= mover.finished.secs() - 1e-6,
            "blocked job must wait for the move"
        );
        assert!(
            free.started.secs() < mover.finished.secs(),
            "unblocked job starts while the move is in flight"
        );
    }

    #[test]
    fn migration_contends_for_tier_bandwidth() {
        // The same job runs slower when a migration hammers its input tier.
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(20.0));
        let mut cfg = full_cfg(2);
        cfg.concurrency = crate::config::Concurrency::Parallel;
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersHdd);
        let quiet = simulate(&spec, &placements, &cfg).unwrap();
        let migrations = vec![MigrationSpec {
            id: 0,
            bytes: DataSize::from_gb(200.0),
            from: Tier::PersHdd,
            to: Tier::PersSsd,
            blocks: vec![],
            after: vec![],
        }];
        let busy = simulate_with_migrations(&spec, &placements, &migrations, &cfg).unwrap();
        let quiet_job = quiet.job(JobId(0)).unwrap();
        let busy_job = busy.job(JobId(0)).unwrap();
        assert!(
            busy_job.finished.secs() > quiet_job.finished.secs() * 1.05,
            "migration I/O must slow the co-running job ({} vs {})",
            busy_job.finished.secs(),
            quiet_job.finished.secs()
        );
    }

    #[test]
    fn empty_migration_list_matches_plain_simulate() {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let cfg = full_cfg(2);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        let plain = simulate(&spec, &placements, &cfg).unwrap();
        let with = simulate_with_migrations(&spec, &placements, &[], &cfg).unwrap();
        assert_eq!(
            plain.makespan.secs().to_bits(),
            with.makespan.secs().to_bits()
        );
    }

    #[test]
    fn facebook_workload_smoke() {
        // Scaled-down check that a many-job mixed workload completes.
        let spec = synth::facebook_workload(Default::default()).unwrap();
        let cfg = full_cfg(8);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        // Trim to the 30 smallest jobs to keep the debug-build test fast.
        let mut small = spec.clone();
        small.jobs.truncate(60);
        small.jobs.retain(|j| j.maps <= 50);
        small.workflows.clear();
        let report = simulate(&small, &placements, &cfg).unwrap();
        assert_eq!(report.jobs.len(), small.jobs.len());
        assert!(report.makespan.secs() > 0.0);
    }
}
