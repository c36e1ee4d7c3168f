//! Expansion of jobs into per-phase task templates.
//!
//! A [`JobRun`] tracks one job through its phase sequence
//! `StageIn → Map → Reduce → StageOut` (phases without work are skipped)
//! and generates the task templates for each phase on entry. Per-task data
//! skew is modelled with a deterministic multiplicative jitter on split
//! sizes, seeded per job, so simulated task times vary like a real
//! cluster's without breaking reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use cast_cloud::tier::Tier;
use cast_workload::job::Job;
use cast_workload::profile::AppProfile;

use crate::config::{SimConfig, TRANSFER_STREAMS_PER_VM};
use crate::placement::JobPlacement;
use crate::task::{SlotKind, StageLabel, StageSpec, TaskTemplate};

/// Phase progression of a job inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Dependencies not yet satisfied.
    Waiting,
    /// Input download / cross-tier transfer.
    StageIn,
    /// Map phase.
    Map,
    /// Shuffle + reduce phase.
    Reduce,
    /// Output upload.
    StageOut,
    /// All work finished.
    Done,
}

impl JobPhase {
    /// Human-readable phase name (used in diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Waiting => "waiting",
            JobPhase::StageIn => "stage-in",
            JobPhase::Map => "map",
            JobPhase::Reduce => "reduce",
            JobPhase::StageOut => "stage-out",
            JobPhase::Done => "done",
        }
    }
}

/// Per-job execution state.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The workload job being executed.
    pub job: Job,
    /// Its placement.
    pub placement: JobPlacement,
    /// Application profile.
    pub profile: AppProfile,
    /// Current phase.
    pub phase: JobPhase,
    /// Templates not yet dispatched for the current phase.
    pub pending: VecDeque<TaskTemplate>,
    /// Tasks of the current phase in flight.
    pub active: usize,
    /// Engine indices of jobs that must complete first.
    pub deps: Vec<usize>,
    /// Simulated time the job became runnable.
    pub submitted: f64,
    /// Simulated time the first phase started (NaN = not started).
    pub started: f64,
    /// Simulated time the job finished (NaN = not finished).
    pub finished: f64,
    /// Simulated time the current phase was entered.
    pub phase_started: f64,
    /// Accumulated per-phase wall times, indexed by [`StageLabel`] order
    /// `[StageIn, Map, Shuffle(unused), Reduce, StageOut]`.
    pub phase_secs: [f64; 5],
    /// Failed/killed tasks of the current phase waiting out their retry
    /// backoff (the phase cannot drain while any are pending).
    pub retries_pending: usize,
    /// Task attempts of this job that failed mid-run.
    pub failures: u32,
    /// Retry attempts scheduled for this job.
    pub retries: u32,
    /// Speculative backups launched for this job.
    pub speculations: u32,
    /// Tasks of this job killed by crashes or lost speculative races.
    pub kills: u32,
    /// Pure data-movement run (tier migration): only the stage-in
    /// transfer executes; map/reduce/stage-out phases are empty.
    pub transfer_only: bool,
    rng: StdRng,
}

impl JobRun {
    /// Create the run in `Waiting` state.
    pub fn new(job: Job, placement: JobPlacement, profile: AppProfile, deps: Vec<usize>) -> JobRun {
        JobRun {
            rng: StdRng::seed_from_u64(0x5ca1ab1e ^ u64::from(job.id.0)),
            job,
            placement,
            profile,
            phase: JobPhase::Waiting,
            pending: VecDeque::new(),
            active: 0,
            deps,
            submitted: f64::NAN,
            started: f64::NAN,
            finished: f64::NAN,
            phase_started: f64::NAN,
            phase_secs: [0.0; 5],
            retries_pending: 0,
            failures: 0,
            retries: 0,
            speculations: 0,
            kills: 0,
            transfer_only: false,
        }
    }

    /// Create a pure data-migration run moving `job.input` bytes from
    /// `from` to `to`. The run executes exactly one phase — a stage-in
    /// transfer whose streams contend for tier bandwidth (and the NIC)
    /// like any other I/O — then completes. Jobs that must observe the
    /// moved data list the migration's engine index in their `deps`, so
    /// they keep running against their old placement until the move
    /// finishes.
    pub fn migration(job: Job, from: Tier, to: Tier, profile: AppProfile) -> JobRun {
        let placement = JobPlacement {
            input: crate::placement::SplitPlacement::single(to),
            inter: to,
            output: to,
            stage_in_from: Some(from),
            stage_in_bytes: Some(job.input),
            stage_out_to: None,
        };
        let mut run = JobRun::new(job, placement, profile, Vec::new());
        run.transfer_only = true;
        run
    }

    /// Whether the current phase has fully drained (no templates waiting,
    /// no tasks in flight, no retries pending their backoff).
    pub fn phase_drained(&self) -> bool {
        self.pending.is_empty() && self.active == 0 && self.retries_pending == 0
    }

    /// Record the current phase's wall time and enter the next phase with
    /// work, generating its task templates. Returns the new phase.
    pub fn advance_phase(&mut self, now: f64, cfg: &SimConfig) -> JobPhase {
        // Close out the finished phase.
        match self.phase {
            JobPhase::StageIn => self.phase_secs[0] += now - self.phase_started,
            JobPhase::Map => self.phase_secs[1] += now - self.phase_started,
            JobPhase::Reduce => self.phase_secs[3] += now - self.phase_started,
            JobPhase::StageOut => self.phase_secs[4] += now - self.phase_started,
            JobPhase::Waiting | JobPhase::Done => {}
        }
        loop {
            let next = match self.phase {
                JobPhase::Waiting => JobPhase::StageIn,
                JobPhase::StageIn => JobPhase::Map,
                JobPhase::Map => JobPhase::Reduce,
                JobPhase::Reduce => JobPhase::StageOut,
                JobPhase::StageOut | JobPhase::Done => JobPhase::Done,
            };
            self.phase = next;
            if next == JobPhase::Done {
                self.finished = now;
                return next;
            }
            let tasks = match next {
                JobPhase::StageIn => self.stage_in_tasks(cfg),
                JobPhase::Map => self.map_tasks(cfg),
                JobPhase::Reduce => self.reduce_tasks(cfg),
                JobPhase::StageOut => self.stage_out_tasks(cfg),
                _ => unreachable!(),
            };
            if !tasks.is_empty() {
                if self.started.is_nan() {
                    self.started = now;
                }
                self.phase_started = now;
                self.pending = tasks.into();
                return next;
            }
            // Empty phase: fall through to the next one.
        }
    }

    /// Multiplicative per-task skew factor in `[1-jitter, 1+jitter]`.
    fn skew(&mut self, jitter: f64) -> f64 {
        if jitter <= 0.0 {
            1.0
        } else {
            1.0 + jitter * (self.rng.gen::<f64>() * 2.0 - 1.0)
        }
    }

    fn overhead(&self, tier: Tier, cfg: &SimConfig) -> f64 {
        cfg.catalog.service(tier).request_overhead.secs()
    }

    /// One transfer stream per VM moving the input from `stage_in_from`
    /// onto the input tier.
    fn stage_in_tasks(&mut self, cfg: &SimConfig) -> Vec<TaskTemplate> {
        let Some(src) = self.placement.stage_in_from else {
            return Vec::new();
        };
        // `src == dst` is intentional work, not a no-op: a
        // copy→verify→retire verify pass is a migration run that reads
        // and rewrites the destination tier's volumes. An input split
        // with no parts has no tier to stage onto.
        let Some(dst) = self.placement.input.primary() else {
            return Vec::new();
        };
        let bytes = self
            .placement
            .stage_in_bytes
            .map(|b| b.mb())
            .unwrap_or_else(|| self.job.input.mb());
        self.transfer_tasks(cfg, src, dst, bytes, StageLabel::StageIn)
    }

    /// One transfer stream per VM uploading the output to `stage_out_to`.
    fn stage_out_tasks(&mut self, cfg: &SimConfig) -> Vec<TaskTemplate> {
        let Some(dst) = self.placement.stage_out_to else {
            return Vec::new();
        };
        let src = self.placement.output;
        if src == dst {
            return Vec::new();
        }
        let bytes = self.job.output(&self.profile).mb();
        self.transfer_tasks(cfg, src, dst, bytes, StageLabel::StageOut)
    }

    fn transfer_tasks(
        &mut self,
        cfg: &SimConfig,
        src: Tier,
        dst: Tier,
        total_mb: f64,
        label: StageLabel,
    ) -> Vec<TaskTemplate> {
        if total_mb <= 0.0 {
            return Vec::new();
        }
        let n = cfg.nvm * TRANSFER_STREAMS_PER_VM;
        let per_stream = total_mb / n as f64;
        // Objects move in ~256 MB chunks; each pays the per-request setup
        // of whichever endpoint is an object store.
        let files_per_stream = (per_stream / 256.0).ceil().max(1.0);
        let fixed = files_per_stream * (self.overhead(src, cfg) + self.overhead(dst, cfg));
        let net = if src.is_block() && src != Tier::EphSsd
            || dst.is_block() && dst != Tier::EphSsd
            || src == Tier::ObjStore
            || dst == Tier::ObjStore
        {
            1.0
        } else {
            0.0
        };
        (0..n)
            .map(|_| {
                let skew = self.skew(cfg.jitter);
                TaskTemplate {
                    slot: SlotKind::Transfer,
                    stages: vec![StageSpec {
                        label,
                        fixed,
                        units: per_stream * skew,
                        read: Some((src, 1.0)),
                        write: Some((dst, 1.0)),
                        net_ratio: net,
                        rate_cap: f64::INFINITY,
                    }],
                }
            })
            .collect()
    }

    /// Map tasks, allocated across the input split's tiers proportionally
    /// to their fractions (Fig. 5's fine-grained partitioning).
    fn map_tasks(&mut self, cfg: &SimConfig) -> Vec<TaskTemplate> {
        if self.transfer_only {
            return Vec::new();
        }
        let m = self.job.maps.max(1);
        let split_mb = self.job.input.mb() / m as f64;
        // Spills are written through to the volume: a write-back cache
        // cannot absorb a sustained intermediate stream.
        let sel_eff = self.profile.map_selectivity;
        let inter_tier = self.placement.inter;
        // Iterative apps re-read the input every pass: block tiers serve
        // re-reads from the page cache, the object store re-fetches.
        let iters = self.profile.iterations.max(1) as f64;
        let hit = cfg.input_cache_hit(self.job.input);
        let read_ratio_block = 1.0 + (iters - 1.0) * (1.0 - hit);
        let read_ratio_obj = iters;

        // Distribute m tasks over split parts (largest remainder).
        let mut counts: Vec<(Tier, usize)> = Vec::new();
        let mut assigned = 0usize;
        for (i, &(tier, frac)) in self.placement.input.parts.iter().enumerate() {
            let n = if i + 1 == self.placement.input.parts.len() {
                m - assigned
            } else {
                ((m as f64 * frac).round() as usize).min(m - assigned)
            };
            assigned += n;
            counts.push((tier, n));
        }

        let mut out = Vec::with_capacity(m);
        for (tier, n) in counts {
            for _ in 0..n {
                let skew = self.skew(cfg.jitter);
                let fixed = cfg.task_startup_secs
                    + self.profile.input_files_per_map as f64 * self.overhead(tier, cfg);
                let read_ratio = if tier == Tier::ObjStore {
                    read_ratio_obj
                } else {
                    read_ratio_block
                };
                let net_ratio =
                    net_part(tier, read_ratio, cfg) + net_part(inter_tier, sel_eff, cfg);
                out.push(TaskTemplate {
                    slot: SlotKind::Map,
                    stages: vec![StageSpec {
                        label: StageLabel::Map,
                        fixed,
                        units: split_mb * skew,
                        read: Some((tier, read_ratio)),
                        write: (sel_eff > 0.0).then_some((inter_tier, sel_eff)),
                        net_ratio,
                        rate_cap: self
                            .profile
                            .per_task_io_cap
                            .mb_per_sec()
                            .min(self.profile.map_rate.mb_per_sec()),
                    }],
                });
            }
        }
        out
    }

    /// Reduce tasks: a shuffle-fetch stage followed by the reduce stream.
    fn reduce_tasks(&mut self, cfg: &SimConfig) -> Vec<TaskTemplate> {
        if self.transfer_only {
            return Vec::new();
        }
        let r = self.job.reduces.max(1);
        let inter = self.job.inter(&self.profile);
        let output = self.job.output(&self.profile);
        if inter.mb() <= 0.0 && output.mb() <= 0.0 {
            return Vec::new();
        }
        let per_fetch = inter.mb() / r as f64;
        let inter_tier = self.placement.inter;
        let out_tier = self.placement.output;
        // Bytes written per byte of intermediate consumed.
        let out_ratio = if inter.mb() > 0.0 {
            output.mb() / inter.mb()
        } else {
            0.0
        };
        // Fraction of shuffle traffic that crosses the network in an
        // all-to-all exchange.
        let remote_frac = if cfg.nvm > 1 {
            (cfg.nvm - 1) as f64 / cfg.nvm as f64
        } else {
            0.0
        };
        let cap = self.profile.per_task_io_cap.mb_per_sec();
        (0..r)
            .map(|_| {
                let skew = self.skew(cfg.jitter);
                let fetch = StageSpec {
                    label: StageLabel::Shuffle,
                    fixed: cfg.task_startup_secs,
                    units: per_fetch * skew,
                    read: (per_fetch > 0.0).then_some((inter_tier, 1.0)),
                    write: None,
                    net_ratio: remote_frac,
                    rate_cap: cap,
                };
                let out_files = self.profile.output_files_per_reduce as f64;
                let reduce = StageSpec {
                    label: StageLabel::Reduce,
                    fixed: out_files * self.overhead(out_tier, cfg),
                    units: per_fetch * skew,
                    read: None,
                    write: (out_ratio > 0.0).then_some((out_tier, out_ratio)),
                    net_ratio: net_part(out_tier, out_ratio, cfg),
                    rate_cap: cap.min(self.profile.reduce_rate.mb_per_sec()),
                };
                TaskTemplate {
                    slot: SlotKind::Reduce,
                    stages: vec![fetch, reduce],
                }
            })
            .collect()
    }
}

/// NIC bytes-per-unit contributed by touching `tier` with `ratio` bytes per
/// unit: network-attached tiers (persistent volumes, object store) cross
/// the NIC, VM-local ephemeral SSD does not.
fn net_part(tier: Tier, ratio: f64, _cfg: &SimConfig) -> f64 {
    match tier {
        Tier::EphSsd => 0.0,
        _ => ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::PerTier;
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;
    use cast_workload::apps::AppKind;
    use cast_workload::dataset::DatasetId;
    use cast_workload::job::JobId;
    use cast_workload::profile::ProfileSet;

    fn cfg() -> SimConfig {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(2000.0);
        *agg.get_mut(Tier::EphSsd) = DataSize::from_gb(750.0);
        *agg.get_mut(Tier::PersHdd) = DataSize::from_gb(2000.0);
        SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 2, &agg).unwrap()
    }

    fn run_for(app: AppKind, gb: f64, tier: Tier) -> JobRun {
        let job = Job::with_default_layout(JobId(1), app, DatasetId(0), DataSize::from_gb(gb));
        let profiles = ProfileSet::defaults();
        JobRun::new(job, JobPlacement::all_on(tier), *profiles.get(app), vec![])
    }

    #[test]
    fn phases_progress_and_skip_empty() {
        let c = cfg();
        let mut run = run_for(AppKind::Sort, 10.0, Tier::PersSsd);
        // persSSD placement has no staging: first real phase is Map.
        assert_eq!(run.advance_phase(0.0, &c), JobPhase::Map);
        assert_eq!(run.pending.len(), run.job.maps);
        run.pending.clear();
        assert_eq!(run.advance_phase(5.0, &c), JobPhase::Reduce);
        assert_eq!(run.pending.len(), run.job.reduces);
        run.pending.clear();
        assert_eq!(run.advance_phase(9.0, &c), JobPhase::Done);
        assert!((run.phase_secs[1] - 5.0).abs() < 1e-9, "map wall time");
        assert!((run.phase_secs[3] - 4.0).abs() < 1e-9, "reduce wall time");
        assert!((run.finished - 9.0).abs() < 1e-12);
    }

    #[test]
    fn ephemeral_placement_stages_in_and_out() {
        let c = cfg();
        let mut run = run_for(AppKind::Sort, 10.0, Tier::EphSsd);
        assert_eq!(run.advance_phase(0.0, &c), JobPhase::StageIn);
        assert_eq!(run.pending.len(), c.nvm * TRANSFER_STREAMS_PER_VM);
        let t = &run.pending[0];
        assert_eq!(t.slot, SlotKind::Transfer);
        let s = &t.stages[0];
        assert_eq!(s.read.unwrap().0, Tier::ObjStore);
        assert_eq!(s.write.unwrap().0, Tier::EphSsd);
        assert!(s.fixed > 0.0, "object store requests cost setup time");
        // Drain through map and reduce to reach StageOut.
        run.pending.clear();
        assert_eq!(run.advance_phase(1.0, &c), JobPhase::Map);
        run.pending.clear();
        assert_eq!(run.advance_phase(2.0, &c), JobPhase::Reduce);
        run.pending.clear();
        assert_eq!(run.advance_phase(3.0, &c), JobPhase::StageOut);
        run.pending.clear();
        assert_eq!(run.advance_phase(4.0, &c), JobPhase::Done);
    }

    #[test]
    fn map_tasks_have_expected_shape() {
        let c = cfg();
        let mut run = run_for(AppKind::Sort, 10.0, Tier::PersSsd);
        run.advance_phase(0.0, &c);
        let m = run.job.maps as f64;
        let total_units: f64 = run.pending.iter().map(|t| t.stages[0].units).sum();
        // Skew preserves the mean only approximately; total within ±10 %.
        assert!((total_units - 10_000.0).abs() / 10_000.0 < 0.1);
        let s = &run.pending[0].stages[0];
        assert_eq!(s.read.unwrap(), (Tier::PersSsd, 1.0));
        // Sort spills its full intermediate stream to the volume.
        assert_eq!(s.write.unwrap(), (Tier::PersSsd, 1.0));
        assert!((s.units - 10_000.0 / m).abs() / (10_000.0 / m) < 0.1);
    }

    #[test]
    fn iterative_app_rereads_scale_with_tier() {
        let c = cfg();
        // KMeans re-reads its input every pass: on a block tier most
        // passes hit the page cache; on the object store every pass
        // re-fetches.
        let mut on_block = run_for(AppKind::KMeans, 30.0, Tier::PersSsd);
        on_block.advance_phase(0.0, &c);
        let block_ratio = on_block.pending[0].stages[0].read.unwrap().1;
        let mut on_obj = run_for(AppKind::KMeans, 30.0, Tier::ObjStore);
        on_obj.advance_phase(0.0, &c);
        let obj_ratio = on_obj.pending[0].stages[0].read.unwrap().1;
        assert!(block_ratio < 2.0, "cached re-reads, got {block_ratio}");
        assert!(
            (obj_ratio - 8.0).abs() < 1e-9,
            "8 fetch passes, got {obj_ratio}"
        );
    }

    #[test]
    fn split_placement_partitions_map_tasks() {
        let c = cfg();
        let mut run = run_for(AppKind::Grep, 6.0, Tier::PersHdd);
        run.placement.input =
            crate::placement::SplitPlacement::split(Tier::EphSsd, 0.5, Tier::PersHdd).unwrap();
        run.advance_phase(0.0, &c);
        let on_eph = run
            .pending
            .iter()
            .filter(|t| t.stages[0].read.unwrap().0 == Tier::EphSsd)
            .count();
        let on_hdd = run.pending.len() - on_eph;
        assert_eq!(run.pending.len(), 24);
        assert_eq!(on_eph, 12);
        assert_eq!(on_hdd, 12);
    }

    #[test]
    fn reduce_tasks_fetch_then_stream() {
        let c = cfg();
        let mut run = run_for(AppKind::Join, 50.0, Tier::ObjStore);
        run.advance_phase(0.0, &c); // map
        run.pending.clear();
        run.advance_phase(10.0, &c); // reduce
        let t = &run.pending[0];
        assert_eq!(t.slot, SlotKind::Reduce);
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.stages[0].label, StageLabel::Shuffle);
        assert_eq!(t.stages[1].label, StageLabel::Reduce);
        // Join on objStore pays per-file setup on its many output files.
        assert!(t.stages[1].fixed > 1.0);
        // Output goes to the object store.
        assert_eq!(t.stages[1].write.unwrap().0, Tier::ObjStore);
    }

    #[test]
    fn deterministic_expansion() {
        let c = cfg();
        let mut a = run_for(AppKind::Sort, 20.0, Tier::PersSsd);
        let mut b = run_for(AppKind::Sort, 20.0, Tier::PersSsd);
        a.advance_phase(0.0, &c);
        b.advance_phase(0.0, &c);
        assert_eq!(a.pending, b.pending);
    }

    #[test]
    fn migration_run_is_a_single_transfer_phase() {
        let c = cfg();
        let job = Job::with_default_layout(
            JobId(9),
            AppKind::Grep,
            DatasetId(0),
            DataSize::from_gb(12.0),
        );
        let profiles = ProfileSet::defaults();
        let mut run = JobRun::migration(
            job,
            Tier::PersHdd,
            Tier::PersSsd,
            *profiles.get(AppKind::Grep),
        );
        assert_eq!(run.advance_phase(0.0, &c), JobPhase::StageIn);
        assert_eq!(run.pending.len(), c.nvm * TRANSFER_STREAMS_PER_VM);
        let total: f64 = run.pending.iter().map(|t| t.stages[0].units).sum();
        assert!((total - 12_000.0).abs() / 12_000.0 < 0.1, "moves all bytes");
        let s = &run.pending[0].stages[0];
        assert_eq!(s.read.unwrap().0, Tier::PersHdd);
        assert_eq!(s.write.unwrap().0, Tier::PersSsd);
        assert_eq!(run.pending[0].slot, SlotKind::Transfer);
        // No compute or stage-out follows the move.
        run.pending.clear();
        assert_eq!(run.advance_phase(30.0, &c), JobPhase::Done);
        assert!((run.phase_secs[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_jitter_gives_identical_tasks() {
        let mut c = cfg();
        c.jitter = 0.0;
        let mut run = run_for(AppKind::Sort, 20.0, Tier::PersSsd);
        run.advance_phase(0.0, &c);
        let u0 = run.pending[0].stages[0].units;
        assert!(run
            .pending
            .iter()
            .all(|t| (t.stages[0].units - u0).abs() < 1e-12));
    }
}
