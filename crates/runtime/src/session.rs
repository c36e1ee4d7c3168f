//! The steppable per-tenant epoch machine behind
//! [`OnlineRuntime`](crate::OnlineRuntime) and `cast-fleet`.
//!
//! [`crate::OnlineRuntime::run`] serves one stream start-to-finish; a
//! multi-tenant fleet interleaves *thousands* of such loops against
//! shared tier capacity. [`TenantSession`] is the epoch loop broken at
//! its natural seam:
//!
//! * [`TenantSession::plan_epoch`] — batch + admit + (warm-started)
//!   replan + hysteresis + migration diff, returning a [`PlannedEpoch`]
//!   that carries the batch's raw per-tier capacity demand. Nothing has
//!   been provisioned or simulated yet, so a scheduler can inspect the
//!   demand of every tenant before committing any capacity.
//! * [`TenantSession::execute_epoch`] — provision (scaled by the granted
//!   capacity fraction), lower migrations through the protocol, simulate,
//!   and account. A grant of `1.0` is bit-identical to the solo runtime.
//! * [`TenantSession::defer_epoch`] / [`TenantSession::reject_epoch`] —
//!   the two ways a fleet scheduler can deny capacity: deferred batches
//!   re-enter the next boundary (keeping their original arrival instants,
//!   so queueing counts against deadlines); rejected batches are turned
//!   away wholesale.
//!
//! A session is a pure function of `(estimator, AnnealConfig,
//! RuntimeConfig, stream, grant sequence)` — the determinism contract the
//! solo runtime pins extends to any deterministic grant sequence.

use std::collections::HashMap;

use cast_cloud::cost::CostModel;
use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{DataSize, Duration};
use cast_estimator::Estimator;
use cast_obs::{Collector, EventBody, Observe};
use cast_sim::config::Concurrency;
use cast_sim::{prepare_runs, Engine, EngineScratch, SimConfig};
use cast_solver::objective::provision_round;
use cast_solver::{evaluate, AnnealConfig, Annealer, Assignment, EvalContext, TieringPlan};
use cast_workload::arrival::assemble_spec;
use cast_workload::{
    splitmix64, AppKind, Arrival, ArrivalStream, DatasetId, Job, ProfileSet, WorkloadSpec,
};

use crate::config::{AdmissionPolicy, ReplanPolicy, RuntimeConfig};
use crate::error::RuntimeError;
use crate::forecast::{planning_spec, strip_forecast};
use crate::migrate::{execute_schedule, plan_delta, MigrationSchedule};
use crate::report::{EpochReport, OnlineReport};

/// Tier newly-arrived data lands on when the incumbent plan has no
/// opinion about the job's application yet (before the first solve, or
/// for an app the plan never placed). Persistent SSD is the safe middle:
/// durable, fast enough for anything, never the paper's worst choice.
pub const INGEST_FALLBACK: Tier = Tier::PersSsd;

/// Salt folded into the content-derived per-solve seed. The solver seed
/// is a pure function of the solve's *inputs* (canonical spec content,
/// init placement, warm flag, `cfg.seed`), not of the epoch index: two
/// solves presented with identical inputs — the same tenant at a later
/// boundary, or two tenants in a fleet — run identical trajectories.
/// That is what makes exact replan-skipping and cross-tenant solve
/// dedup bit-identical to fresh solves *by construction* rather than by
/// approximation.
const SOLVE_SEED_SALT: u64 = 0x5EED_CA57_0000_0001;

/// How a [`PlannedEpoch`]'s execution plan was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanProvenance {
    /// The annealer ran for this tenant this epoch.
    Fresh,
    /// The winning assignment was fanned out from another tenant's
    /// bit-identical solve (fleet cross-tenant dedup).
    Deduped,
    /// The annealer was skipped: replan policy said no, the plan cache
    /// held an exact input match, or the drift gate held.
    Skipped,
}

impl PlanProvenance {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlanProvenance::Fresh => "fresh",
            PlanProvenance::Deduped => "deduped",
            PlanProvenance::Skipped => "skipped",
        }
    }
}

/// Canonical, *renumbering-invariant* content of one annealer solve:
/// everything the solver reads, with raw `JobId`/`DatasetId` values
/// replaced by positions and ranks. Two [`SolveInputs`] comparing equal
/// (under a shared estimator and solver config) guarantee the annealer
/// would walk identical trajectories — the foundation of both the exact
/// replan-skip and fleet solve dedup.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveInputs {
    /// Per planning-spec job, in positional order: the solver class key
    /// (app, input bits, maps, reduces) plus the rank of the job's
    /// dataset among the spec's sorted distinct dataset ids.
    jobs: Vec<(AppKind, u64, usize, usize, u32)>,
    /// Dataset size bits, in rank order.
    sizes: Vec<u64>,
    /// App profiles (the estimator-side job parameters).
    profiles: ProfileSet,
    /// Init placement, positional over the planning spec's jobs.
    init: Vec<Assignment>,
    /// Whether the solve warm-starts (`resume_from`) or runs cold.
    warm: bool,
}

impl SolveInputs {
    /// Digest these inputs and the config seed into the grouping
    /// signature, which salted also seeds the solve. Equal inputs give
    /// equal signatures; the reverse holds only up to collisions, so
    /// callers confirm a match by comparing the inputs. Every plan's
    /// solver seed comes from this fold: changing its order or any
    /// constant changes every plan.
    fn signature(&self, cfg_seed: u64) -> u64 {
        // The spec side: each job's class digest and dataset rank, the
        // sizes in rank order, then the profiles of the apps in
        // first-use order. The leading `^ 1` is the reuse-awareness flag
        // every session solve sets.
        let mut h = splitmix64(0x5016_C1A5 ^ 1);
        let mut apps: Vec<AppKind> = Vec::new();
        for &(app, input_bits, maps, reduces, rank) in &self.jobs {
            let mut class = splitmix64(app as u64 ^ 0xC1A5_5E5E);
            class = splitmix64(class ^ input_bits);
            class = splitmix64(class ^ maps as u64);
            class = splitmix64(class ^ reduces as u64);
            h = splitmix64(h ^ class);
            h = splitmix64(h ^ u64::from(rank));
            if !apps.contains(&app) {
                apps.push(app);
            }
        }
        for &size in &self.sizes {
            h = splitmix64(h ^ size);
        }
        for app in apps {
            let p = self.profiles.get(app);
            h = splitmix64(h ^ p.map_selectivity.to_bits());
            h = splitmix64(h ^ p.output_selectivity.to_bits());
            h = splitmix64(h ^ p.map_rate.mb_per_sec().to_bits());
            h = splitmix64(h ^ p.reduce_rate.mb_per_sec().to_bits());
        }
        // Then the config seed, the init placement and the warm flag.
        h = splitmix64(cfg_seed ^ h);
        for a in &self.init {
            h = splitmix64(h ^ a.tier.index() as u64);
            h = splitmix64(h ^ a.overprov.to_bits());
        }
        splitmix64(h ^ self.warm as u64)
    }
}

/// One boundary's admitted batch, carried whole from
/// [`TenantSession::begin_epoch`] through planning to execution, deferral
/// or rejection.
#[derive(Debug)]
struct Batch {
    epoch: u32,
    boundary: Duration,
    /// When the batch starts executing: the boundary, or later when the
    /// previous batch still holds the cluster.
    start: Duration,
    admitted: Vec<Arrival>,
    /// Admission rejections surfaced in this batch's report row.
    rejected: usize,
    spec: WorkloadSpec,
    /// The incumbent-derived placement (see [`ingest_plan`]).
    ingest: TieringPlan,
}

/// A batch that has been assembled and admitted but whose annealer solve
/// has not run yet. Produced by [`TenantSession::begin_epoch`]; consumed
/// by [`TenantSession::solve_pending`] + [`TenantSession::finish_epoch`].
/// A fleet groups these by [`PendingPlan::signature`] and solves one
/// representative per group.
#[derive(Debug)]
pub struct PendingPlan {
    batch: Batch,
    pspec: WorkloadSpec,
    init: TieringPlan,
    inputs: SolveInputs,
    signature: u64,
    seed: u64,
}

impl PendingPlan {
    /// Epoch index on the region grid.
    pub fn epoch(&self) -> u32 {
        self.batch.epoch
    }

    /// 64-bit digest of the solve inputs (plus the config seed). Equal
    /// signatures are a grouping hint; callers fanning a solve out must
    /// confirm with [`PendingPlan::inputs`] equality — the digest
    /// collides, the canonical content does not.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The canonical solve content backing the signature.
    pub fn inputs(&self) -> &SolveInputs {
        &self.inputs
    }
}

/// The portable result of one annealer solve: the winning assignment in
/// planning-spec *positional* order (valid for any [`PendingPlan`] whose
/// [`SolveInputs`] equal the solved one) plus replan diagnostics.
#[derive(Debug, Clone)]
pub struct SolveProduct {
    /// Winning assignment, positional over the planning spec's jobs.
    pub assignments: Vec<Assignment>,
    /// Annealer moves to reach the best score (diagnostics).
    pub replan_moves: usize,
}

/// The session's memory of its last real solve, backing the replan-skip
/// gates.
#[derive(Debug)]
struct PlanCache {
    /// Inputs of the last solved epoch (exact-skip comparand).
    inputs: SolveInputs,
    /// Its winning assignment (fanned back out on an exact hit).
    product: SolveProduct,
    /// The solve's relative gain over its own incumbent — the same-spec
    /// `score_delta` the hysteresis judgement computed. A marginal gain
    /// on an un-drifted stream predicts the *next* solve lands inside
    /// the veto band too, which is what the drift gate bets on.
    last_gain: f64,
    /// Sorted drift-bucket keys of that epoch's real batch.
    drift_keys: Vec<u64>,
}

/// What [`TenantSession::begin_epoch`] found at a boundary.
// `Planned` is the common case and callers match it by value; boxing it
// would cost an allocation per planned tenant-epoch to shrink `Idle`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PlanPhase {
    /// Nothing to execute (empty window, or every arrival rejected —
    /// the latter already wrote its report row).
    Idle,
    /// Fully planned without running the annealer (replan policy said
    /// no, exact cache hit, or the drift gate held).
    Planned(PlannedEpoch),
    /// Batch assembled; the annealer still needs to run. Feed to
    /// [`TenantSession::solve_pending`] (or adopt a matching group
    /// representative's [`SolveProduct`]) and then
    /// [`TenantSession::finish_epoch`].
    Solve(Box<PendingPlan>),
}

/// One planned-but-not-yet-executed epoch: the replanning decision plus
/// the batch's raw per-tier capacity demand, waiting on a capacity grant.
#[derive(Debug)]
pub struct PlannedEpoch {
    batch: Batch,
    exec: TieringPlan,
    sched: MigrationSchedule,
    replanned: bool,
    adopted: bool,
    score_delta: f64,
    replan_moves: usize,
    demand: PerTier<DataSize>,
    provenance: PlanProvenance,
}

impl PlannedEpoch {
    /// Epoch index on the region grid.
    pub fn epoch(&self) -> u32 {
        self.batch.epoch
    }

    /// Raw (pre-provisioning) per-tier capacity the batch wants. This is
    /// what a fleet scheduler feeds the fair-share allocator.
    pub fn demand(&self) -> &PerTier<DataSize> {
        &self.demand
    }

    /// Arrivals admitted into the batch.
    pub fn arrivals(&self) -> usize {
        self.batch.admitted.len()
    }

    /// Jobs across the admitted arrivals.
    pub fn jobs(&self) -> usize {
        self.batch.spec.jobs.len()
    }

    /// How this epoch's execution plan was obtained.
    pub fn provenance(&self) -> PlanProvenance {
        self.provenance
    }
}

/// One tenant's online tiering loop, broken at the plan/execute seam so
/// an external scheduler can mediate capacity between the two halves.
pub struct TenantSession<'a> {
    estimator: &'a Estimator,
    anneal: AnnealConfig,
    cfg: RuntimeConfig,
    obs: Collector,
    stream: ArrivalStream,
    n_epochs: u32,
    // Live state: the per-app ingest rule distilled from the last
    // adopted plan, whether a solve has happened yet (the first one is
    // cold; replans after it warm-start from the incumbent placement
    // rule, adopted or not), the previous window's jobs (the persistence
    // forecast) and the cluster's next free instant.
    ingest_map: HashMap<AppKind, Tier>,
    solved_once: bool,
    prev_jobs: Vec<Job>,
    clock: Duration,
    // Batches a fleet scheduler deferred, re-entering the next boundary.
    carryover: Vec<Arrival>,
    // Admission rejections from a boundary whose batch was then
    // deferred; surfaced in the next report row.
    pending_rejected: usize,
    deferrals: usize,
    epochs: Vec<EpochReport>,
    // The last real solve, backing the replan-skip gates.
    plan_cache: Option<PlanCache>,
    // Reusable engine buffers: steady-state epochs simulate without
    // reallocating the event heap, flow tables or wake arena.
    scratch: EngineScratch,
}

impl<'a> TenantSession<'a> {
    /// Open a session over `stream`. `anneal` is the cold-start solver
    /// schedule; replans after the first resume from the incumbent on
    /// [`Annealer::resume_from`]'s fixed warm schedule. A non-positive
    /// `cfg.epoch` is reported by the first
    /// [`TenantSession::begin_epoch`].
    pub fn new(
        estimator: &'a Estimator,
        anneal: AnnealConfig,
        cfg: RuntimeConfig,
        stream: ArrivalStream,
    ) -> Self {
        let n_epochs = (stream.horizon.secs() / cfg.epoch.secs()).ceil().max(1.0) as u32;
        TenantSession {
            estimator,
            anneal,
            cfg,
            obs: Collector::noop(),
            stream,
            n_epochs,
            ingest_map: HashMap::new(),
            solved_once: false,
            prev_jobs: Vec::new(),
            clock: Duration::ZERO,
            carryover: Vec::new(),
            pending_rejected: 0,
            deferrals: 0,
            epochs: Vec::new(),
            plan_cache: None,
            scratch: EngineScratch::default(),
        }
    }

    /// Epochs on the session's grid (`ceil(horizon / epoch)`, min 1).
    pub fn epoch_count(&self) -> u32 {
        self.n_epochs
    }

    /// Batches a scheduler deferred so far.
    pub fn deferrals(&self) -> usize {
        self.deferrals
    }

    /// The instant the cluster frees up (end of the last executed batch).
    pub fn clock(&self) -> Duration {
        self.clock
    }

    /// Plan boundary `k`: batch arrivals (plus any deferred carryover),
    /// admit, replan per policy and diff migrations. Returns `None` when
    /// the boundary has nothing to execute (empty window, or every
    /// arrival rejected by admission — the latter still writes its
    /// report row).
    ///
    /// This is [`TenantSession::begin_epoch`] + [`TenantSession::
    /// solve_pending`] + [`TenantSession::finish_epoch`] composed — the
    /// solo path. A fleet drives the three stages itself so it can
    /// group pending solves across tenants.
    pub fn plan_epoch(&mut self, k: u32) -> Result<Option<PlannedEpoch>, RuntimeError> {
        match self.begin_epoch(k)? {
            PlanPhase::Idle => Ok(None),
            PlanPhase::Planned(planned) => Ok(Some(planned)),
            PlanPhase::Solve(pending) => {
                let product = self.solve_pending(&pending)?;
                Ok(Some(self.finish_epoch(
                    *pending,
                    &product,
                    PlanProvenance::Fresh,
                )?))
            }
        }
    }

    /// Stage 1 of planning boundary `k`: batch, admit, and either seal
    /// the epoch without a solve (empty boundary, replan policy says no,
    /// exact cache hit, drift gate holds) or hand back a [`PendingPlan`]
    /// carrying everything the annealer needs.
    pub fn begin_epoch(&mut self, k: u32) -> Result<PlanPhase, RuntimeError> {
        let epoch_len = self.cfg.epoch;
        if epoch_len.secs().is_nan() || epoch_len.secs() <= 0.0 {
            return Err(RuntimeError::InvalidEpoch(epoch_len));
        }
        let t0 = epoch_len * k as f64;
        let t1 = epoch_len * (k + 1) as f64;
        // Deferred batches go first: they arrived earlier, and their
        // original `at` instants keep deadline accounting honest.
        let mut arrivals = std::mem::take(&mut self.carryover);
        arrivals.extend(self.stream.window(t0, t1).iter().cloned());
        if arrivals.is_empty() {
            return Ok(PlanPhase::Idle);
        }
        // Arrivals in [t0, t1) execute at the boundary t1 — or later,
        // when the previous batch still holds the cluster.
        let batch_start = t1.max(self.clock);
        let (admitted, mut rejected) = self.admit(&arrivals, batch_start)?;
        rejected += std::mem::take(&mut self.pending_rejected);
        if admitted.is_empty() {
            self.obs.counter("runtime.rejected").add(rejected as u64);
            self.epochs.push(empty_epoch(k, t1, batch_start, rejected));
            return Ok(PlanPhase::Idle);
        }
        let spec = assemble_spec(admitted.iter());
        spec.validate()?;
        let ingest = ingest_plan(&spec, &self.ingest_map);
        let batch = Batch {
            epoch: k,
            boundary: t1,
            start: batch_start,
            admitted,
            rejected,
            spec,
            ingest,
        };

        let must_replan = match self.cfg.policy {
            ReplanPolicy::Static => !self.solved_once,
            ReplanPolicy::Periodic | ReplanPolicy::Hysteresis { .. } => true,
        };
        if !must_replan {
            return Ok(PlanPhase::Planned(seal_without_solve(batch)?));
        }

        let pspec = planning_spec(&batch.spec, &self.prev_jobs);
        let init = ingest_plan(&pspec, &self.ingest_map);
        let inputs = canonical_inputs(&pspec, &init, self.solved_once)?;
        let signature = inputs.signature(self.cfg.seed);
        let seed = splitmix64(signature ^ SOLVE_SEED_SALT);
        let pending = PendingPlan {
            batch,
            pspec,
            init,
            inputs,
            signature,
            seed,
        };

        if self.cfg.skip.enabled {
            if let Some(cache) = &self.plan_cache {
                // Exact path: identical inputs drive an identical
                // trajectory (the seed is content-derived), so the
                // cached product *is* this epoch's fresh solve.
                if cache.inputs == pending.inputs {
                    let product = cache.product.clone();
                    self.obs.counter("runtime.replans_skipped").inc();
                    let planned = self.finish_epoch(pending, &product, PlanProvenance::Skipped)?;
                    return Ok(PlanPhase::Planned(planned));
                }
                // Drift gate (opt-in: zero thresholds disable it): when
                // the batch's shape barely moved since the last real
                // solve *and* that solve's own gain was already inside
                // the tolerance, the next anneal is overwhelmingly
                // likely to land inside the hysteresis veto band too —
                // serve the incumbent without paying for it. Purely
                // predictive: no estimator call, no anneal.
                let skip = self.cfg.skip;
                if pending.inputs.warm
                    && (skip.max_drift > 0.0 || skip.max_score_delta > 0.0)
                    && cache.last_gain <= skip.max_score_delta
                {
                    let keys = drift_keys(&pending.batch.spec);
                    if drift_distance(&keys, &cache.drift_keys) <= skip.max_drift {
                        self.obs.counter("runtime.replans_skipped").inc();
                        return Ok(PlanPhase::Planned(seal_without_solve(pending.batch)?));
                    }
                }
            }
        }
        Ok(PlanPhase::Solve(Box::new(pending)))
    }

    /// Stage 2: run the annealer on a pending plan. Takes `&self` — the
    /// session's state is untouched — so a fleet can fan representative
    /// solves out across threads while holding the sessions immutably.
    pub fn solve_pending(&self, pending: &PendingPlan) -> Result<SolveProduct, RuntimeError> {
        let pctx = EvalContext::new(self.estimator, &pending.pspec).with_reuse_awareness();
        let acfg = AnnealConfig {
            seed: pending.seed,
            ..self.anneal
        };
        let annealer = Annealer::new(acfg).observe(self.obs.clone());
        let t_wall = std::time::Instant::now();
        let outcome = if pending.inputs.warm {
            annealer.resume_from(&pctx, pending.init.clone())?
        } else {
            annealer.solve(&pctx, pending.init.clone())?
        };
        self.obs
            .gauge("runtime.replan_latency.wall")
            .set(t_wall.elapsed().as_secs_f64());
        let d = &outcome.diagnostics;
        let replan_moves = d.moves_to_reach(d.best_score).unwrap_or(d.iterations);
        let assignments = pending
            .pspec
            .jobs
            .iter()
            .map(|j| outcome.plan.require(j.id))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SolveProduct {
            assignments,
            replan_moves,
        })
    }

    /// Stage 3: seal a pending epoch with a solve product — the
    /// session's own ([`PlanProvenance::Fresh`]), a cache hit
    /// ([`PlanProvenance::Skipped`]) or a group representative's
    /// ([`PlanProvenance::Deduped`]; caller must have verified
    /// [`SolveInputs`] equality). Runs the hysteresis judgement,
    /// migration diff and demand aggregation, and refreshes the plan
    /// cache.
    pub fn finish_epoch(
        &mut self,
        pending: PendingPlan,
        product: &SolveProduct,
        provenance: PlanProvenance,
    ) -> Result<PlannedEpoch, RuntimeError> {
        let PendingPlan {
            batch,
            pspec,
            inputs,
            ..
        } = pending;
        if product.assignments.len() != pspec.jobs.len() {
            return Err(RuntimeError::Solver(cast_solver::SolverError::Unassigned(
                pspec.jobs.len() as u32,
            )));
        }
        self.solved_once = true;
        let replan_moves = product.replan_moves;
        // Rehydrate the positional assignment onto this tenant's own
        // job ids, then drop the forecast tail.
        let mut full = TieringPlan::new();
        for (job, a) in pspec.jobs.iter().zip(product.assignments.iter()) {
            full.assign(job.id, *a);
        }
        let candidate = strip_forecast(&full);

        // Judge the candidate on the *real* batch only — forecast
        // jobs must not pad its score.
        let (spec, ingest) = (&batch.spec, &batch.ingest);
        let rctx = EvalContext::new(self.estimator, spec).with_reuse_awareness();
        let incumbent_utility = evaluate(ingest, &rctx)?.utility;
        let candidate_utility = evaluate(&candidate, &rctx)?.utility;
        let score_delta = if incumbent_utility > 0.0 {
            (candidate_utility - incumbent_utility) / incumbent_utility
        } else {
            f64::INFINITY
        };
        let accept = match self.cfg.policy {
            ReplanPolicy::Hysteresis { min_gain } => score_delta >= min_gain,
            ReplanPolicy::Static | ReplanPolicy::Periodic => true,
        };
        let mut adopted = false;
        let mut exec = ingest.clone();
        let mut sched = MigrationSchedule::default();
        if accept {
            adopted = true;
            sched = plan_delta(spec, ingest, &candidate);
            exec = candidate;
            for (app, tier) in majority_tiers(spec, &exec) {
                self.ingest_map.insert(app, tier);
            }
        }
        self.plan_cache = Some(PlanCache {
            inputs,
            product: product.clone(),
            // INFINITY when the incumbent scored ≤ 0: an unscorable
            // incumbent blocks future drift-skips until a clean solve.
            last_gain: score_delta,
            drift_keys: drift_keys(spec),
        });

        // The epoch's raw capacity demand. During a migration epoch both
        // the old (ingest) and new layout hold data simultaneously, so
        // each tier wants the larger of the two demands.
        let raw_ingest = ingest.capacities(spec, true)?;
        let demand = if adopted {
            let raw_exec = exec.capacities(spec, true)?;
            PerTier::from_fn(|t| (*raw_ingest.get(t)).max(*raw_exec.get(t)))
        } else {
            raw_ingest
        };

        Ok(PlannedEpoch {
            batch,
            exec,
            sched,
            replanned: true,
            adopted,
            score_delta,
            replan_moves,
            demand,
            provenance,
        })
    }

    /// Execute a planned epoch under a capacity grant. `grant_frac` is
    /// the fraction of the demanded capacity the scheduler awarded:
    /// `1.0` provisions exactly what the solo runtime would (bit-
    /// identical), smaller grants provision proportionally less on every
    /// capacity-scaled tier — so volumes are slower — and throttle the
    /// shared object-store ceiling by the same factor.
    pub fn execute_epoch(
        &mut self,
        planned: PlannedEpoch,
        grant_frac: f64,
    ) -> Result<(), RuntimeError> {
        let PlannedEpoch {
            batch,
            mut exec,
            sched,
            replanned,
            adopted,
            score_delta,
            replan_moves,
            demand,
            provenance: _,
        } = planned;
        let k = batch.epoch;
        let frac = grant_frac.clamp(0.0, 1.0);
        // A full grant must reproduce the solo runtime bit-for-bit, so
        // only scale when the scheduler actually took capacity away.
        let raw = if frac < 1.0 {
            PerTier::from_fn(|t| *demand.get(t) * frac)
        } else {
            demand
        };
        let capacities = provision_round(self.estimator, &raw);
        let nvm = self.estimator.cluster.nvm;
        let mut scfg =
            SimConfig::with_aggregate_capacity(self.estimator.catalog.clone(), nvm, &capacities)?;
        scfg.concurrency = Concurrency::Parallel;
        if frac < 1.0 {
            scfg.objstore_cluster_mbps *= frac;
        }

        // Lower the schedule through the migration protocol: retries,
        // verify passes and rollbacks become explicit flows; moves that
        // rolled back revert their readers to the incumbent placement
        // before the epoch simulates.
        let protocol = execute_schedule(
            &sched,
            self.cfg.protocol,
            self.cfg.migration_fault_prob,
            self.cfg.seed,
            k,
            &self.obs,
        );
        for &jid in &protocol.rolled_back_jobs {
            if let Some(a) = batch.ingest.get(jid) {
                exec.assign(jid, a);
            }
        }
        let runs = prepare_runs(&batch.spec, &exec.to_placements(), &protocol.flows, &scfg)?;
        let report =
            Engine::observed_with_scratch(&scfg, runs, self.obs.clone(), &mut self.scratch)
                .run()?;
        // Retry backoff is wall time the protocol serialized into the
        // epoch on top of the simulated flows.
        let makespan = report.makespan + Duration::from_secs(protocol.backoff_secs);

        // Deadline accounting: a workflow's budget runs from its arrival
        // instant, so queueing before batch start counts.
        let mut misses = 0usize;
        for a in &batch.admitted {
            if let Some(wf) = &a.workflow {
                let end = wf
                    .jobs
                    .iter()
                    .filter_map(|id| report.job(*id))
                    .map(|m| m.finished)
                    .fold(Duration::ZERO, Duration::max);
                if (batch.start + end - a.at).secs() > wf.deadline.secs() {
                    misses += 1;
                }
            }
        }

        let cost_model = CostModel::new(&self.estimator.catalog, nvm);
        let cost = cost_model.breakdown(&capacities, makespan);

        self.obs.emit(
            batch.start.secs(),
            EventBody::EpochPlan {
                epoch: k,
                arrivals: batch.admitted.len() as u32,
                replanned,
                adopted,
                score_delta,
                churn: sched.churn as u32,
            },
        );
        if self.obs.enabled() {
            for m in &sched.moves {
                self.obs.emit(
                    batch.start.secs(),
                    EventBody::Migration {
                        epoch: k,
                        from: m.from.name().to_string(),
                        to: m.to.name().to_string(),
                        mb: m.bytes.mb(),
                    },
                );
            }
        }
        self.obs.counter("runtime.epochs").inc();
        self.obs
            .counter("runtime.migrations")
            .add(sched.moves.len() as u64);
        self.obs
            .counter("runtime.migrated_mb")
            .add(sched.total.mb().round() as u64);
        // Protocol counters only materialize when the protocol did
        // something — default (faultless unsafe) snapshots stay
        // byte-identical to pre-protocol runs.
        if protocol.retries > 0 {
            self.obs
                .counter("runtime.migration_retries")
                .add(protocol.retries as u64);
        }
        if protocol.rollbacks > 0 {
            self.obs
                .counter("runtime.migration_rollbacks")
                .add(protocol.rollbacks as u64);
        }
        if !protocol.lost.is_empty() {
            self.obs
                .counter("runtime.datasets_lost")
                .add(protocol.lost.len() as u64);
        }
        self.obs
            .counter("runtime.rejected")
            .add(batch.rejected as u64);
        self.obs
            .counter("runtime.deadline_misses")
            .add(misses as u64);
        self.obs.gauge("runtime.plan_churn").set(sched.churn as f64);
        self.obs
            .histogram(
                "runtime.replan_moves",
                &[100.0, 300.0, 1_000.0, 3_000.0, 10_000.0],
            )
            .record(replan_moves as f64);

        self.epochs.push(EpochReport {
            epoch: k,
            boundary_secs: batch.boundary.secs(),
            start_secs: batch.start.secs(),
            arrivals: batch.admitted.len(),
            jobs: batch.spec.jobs.len(),
            replanned,
            adopted,
            score_delta,
            churn: sched.churn,
            migrations: sched.moves.len(),
            migrated_mb: sched.total.mb(),
            migration_retries: protocol.retries,
            migration_rollbacks: protocol.rollbacks,
            datasets_lost: protocol.lost.len(),
            verify_mb: protocol.verify_mb,
            wasted_mb: protocol.wasted_mb,
            backoff_secs: protocol.backoff_secs,
            replan_moves,
            makespan_secs: makespan.secs(),
            vm_cost: cost.vm.dollars(),
            storage_cost: cost.storage_total().dollars(),
            deadline_misses: misses,
            rejected: batch.rejected,
        });
        self.clock = batch.start + makespan;
        self.prev_jobs = batch.spec.jobs;
        Ok(())
    }

    /// Push a planned batch to the next boundary (capacity denied, try
    /// again). The batch's arrivals keep their original instants, so the
    /// deferral delay counts against their deadlines; admission
    /// rejections from the boundary surface in the next report row.
    pub fn defer_epoch(&mut self, planned: PlannedEpoch) {
        self.deferrals += 1;
        self.pending_rejected += planned.batch.rejected;
        self.obs.counter("runtime.deferred").inc();
        self.carryover = planned.batch.admitted;
    }

    /// Turn a planned batch away wholesale (capacity denied for good).
    /// Every arrival — admitted or not — is recorded as rejected and
    /// nothing executes, provisions or costs anything.
    pub fn reject_epoch(&mut self, planned: PlannedEpoch) {
        let b = planned.batch;
        let rejected = b.admitted.len() + b.rejected;
        self.obs.counter("runtime.rejected").add(rejected as u64);
        self.epochs
            .push(empty_epoch(b.epoch, b.boundary, b.start, rejected));
    }

    /// Close the session and roll its epochs up into an [`OnlineReport`].
    pub fn finish(self) -> OnlineReport {
        OnlineReport::from_epochs(self.cfg.policy.label(), self.epochs)
    }

    /// Split one boundary's batch into admitted arrivals and a rejection
    /// count. Plain jobs are always admitted; under
    /// [`AdmissionPolicy::Deadline`] a workflow is turned away when the
    /// queueing delay it has already absorbed plus the Eq. 4 estimate of
    /// its chain on the current ingest tiers exceeds `slack × deadline`.
    fn admit(
        &self,
        batch: &[Arrival],
        batch_start: Duration,
    ) -> Result<(Vec<Arrival>, usize), RuntimeError> {
        let AdmissionPolicy::Deadline { slack } = self.cfg.admission else {
            return Ok((batch.to_vec(), 0));
        };
        let mut admitted = Vec::with_capacity(batch.len());
        let mut rejected = 0;
        for a in batch {
            let Some(wf) = &a.workflow else {
                admitted.push(a.clone());
                continue;
            };
            let mut estimate = batch_start - a.at;
            for job in &a.jobs {
                let tier = ingest_tier(job.app, &self.ingest_map);
                estimate += self.estimator.reg(job, tier, job.input)?;
            }
            if estimate.secs() > slack * wf.deadline.secs() {
                rejected += 1;
            } else {
                admitted.push(a.clone());
            }
        }
        Ok((admitted, rejected))
    }
}

/// Epoch-plan and migration events, runtime counters/gauges plus the
/// solver's and simulator's own instrumentation all land in the attached
/// collector. Results are bit-identical to an unobserved run (replan
/// latency is recorded under a `.wall` metric, which determinism checks
/// quarantine).
impl cast_obs::Observe for TenantSession<'_> {
    fn collector_slot(&mut self) -> &mut Collector {
        &mut self.obs
    }
}

/// Seal an epoch whose annealer never ran (replan policy said no, or the
/// drift gate held): the incumbent-derived ingest placement executes
/// as-is, nothing migrates, and the demand is the ingest layout's raw
/// capacity.
fn seal_without_solve(batch: Batch) -> Result<PlannedEpoch, RuntimeError> {
    let demand = batch.ingest.capacities(&batch.spec, true)?;
    let exec = batch.ingest.clone();
    Ok(PlannedEpoch {
        batch,
        exec,
        sched: MigrationSchedule::default(),
        replanned: false,
        adopted: false,
        score_delta: 0.0,
        replan_moves: 0,
        demand,
        provenance: PlanProvenance::Skipped,
    })
}

/// Reduce a planning spec + init placement to the canonical
/// renumbering-invariant [`SolveInputs`] form.
fn canonical_inputs(
    pspec: &WorkloadSpec,
    init: &TieringPlan,
    warm: bool,
) -> Result<SolveInputs, RuntimeError> {
    let mut ds: Vec<DatasetId> = pspec.datasets.iter().map(|d| d.id).collect();
    ds.sort_unstable();
    ds.dedup();
    let mut jobs = Vec::with_capacity(pspec.jobs.len());
    let mut init_pos = Vec::with_capacity(pspec.jobs.len());
    for job in &pspec.jobs {
        let rank = ds
            .binary_search(&job.dataset)
            .expect("validated spec: every job's dataset exists") as u32;
        jobs.push((
            job.app,
            job.input.bytes().to_bits(),
            job.maps,
            job.reduces,
            rank,
        ));
        init_pos.push(init.require(job.id).map_err(RuntimeError::Solver)?);
    }
    let sizes = ds
        .iter()
        .map(|id| {
            pspec
                .dataset(*id)
                .expect("validated spec")
                .size
                .bytes()
                .to_bits()
        })
        .collect();
    Ok(SolveInputs {
        jobs,
        sizes,
        profiles: pspec.profiles.clone(),
        init: init_pos,
        warm,
    })
}

/// Sorted drift-bucket keys of a batch (the shape multiset the drift
/// gate compares across epochs).
fn drift_keys(spec: &WorkloadSpec) -> Vec<u64> {
    let mut keys: Vec<u64> = spec.jobs.iter().map(|j| j.drift_key()).collect();
    keys.sort_unstable();
    keys
}

/// Normalized multiset distance between two sorted key sets: the
/// symmetric-difference count over the total count, in `[0, 1]` (0 =
/// identical shape, 1 = nothing in common).
fn drift_distance(a: &[u64], b: &[u64]) -> f64 {
    let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    let total = a.len() + b.len();
    if total == 0 {
        return 0.0;
    }
    (total - 2 * common) as f64 / total as f64
}

/// Where `app`'s fresh data lands under the current ingest rule.
fn ingest_tier(app: AppKind, map: &HashMap<AppKind, Tier>) -> Tier {
    map.get(&app).copied().unwrap_or(INGEST_FALLBACK)
}

/// The incumbent-derived placement for a batch: every job on its app's
/// ingest tier. This is both the no-replan execution plan and the warm
/// start the annealer resumes from.
pub fn ingest_plan(spec: &WorkloadSpec, map: &HashMap<AppKind, Tier>) -> TieringPlan {
    let mut plan = TieringPlan::new();
    for job in &spec.jobs {
        plan.assign(
            job.id,
            Assignment {
                tier: ingest_tier(job.app, map),
                overprov: 1.0,
            },
        );
    }
    plan
}

/// Per-app majority tier of `plan` over `spec`'s jobs, in deterministic
/// (tier-order) tie-breaking. This is what the next epoch's ingest rule
/// becomes when the plan is adopted.
pub fn majority_tiers(spec: &WorkloadSpec, plan: &TieringPlan) -> Vec<(AppKind, Tier)> {
    let mut counts: HashMap<AppKind, PerTier<usize>> = HashMap::new();
    for job in &spec.jobs {
        if let Some(a) = plan.get(job.id) {
            *counts.entry(job.app).or_default().get_mut(a.tier) += 1;
        }
    }
    let mut out: Vec<(AppKind, Tier)> = counts
        .into_iter()
        .map(|(app, per)| {
            let tier = Tier::ALL
                .into_iter()
                .max_by_key(|&t| (*per.get(t), std::cmp::Reverse(t)))
                .expect("four tiers");
            (app, tier)
        })
        .collect();
    out.sort_by_key(|&(app, _)| app);
    out
}

/// Report row for a boundary whose every arrival was rejected: nothing
/// ran, nothing was provisioned, nothing cost anything.
fn empty_epoch(k: u32, boundary: Duration, start: Duration, rejected: usize) -> EpochReport {
    EpochReport {
        epoch: k,
        boundary_secs: boundary.secs(),
        start_secs: start.secs(),
        rejected,
        ..EpochReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_workload::{Dataset, JobId};

    /// A Sort and a Grep job, each on its own dataset, with job ids from
    /// `job_base` and dataset ids from `ds_base` (dataset ranks stay put).
    fn pspec(job_base: u32, ds_base: u32) -> WorkloadSpec {
        let mut spec = WorkloadSpec::empty();
        for (k, (app, gb)) in [(AppKind::Sort, 10.0), (AppKind::Grep, 40.0)]
            .into_iter()
            .enumerate()
        {
            let ds = DatasetId(ds_base + 10 * k as u32);
            let size = DataSize::from_gb(gb);
            spec.datasets.push(Dataset::single_use(ds, size));
            spec.jobs.push(Job::with_default_layout(
                JobId(job_base + k as u32),
                app,
                ds,
                size,
            ));
        }
        spec
    }

    fn identity(spec: &WorkloadSpec, warm: bool) -> (SolveInputs, u64) {
        let init = ingest_plan(spec, &HashMap::new());
        let inputs = canonical_inputs(spec, &init, warm).expect("every job assigned");
        let signature = inputs.signature(7);
        (inputs, signature)
    }

    #[test]
    fn solve_identity_ignores_ids_but_sees_shape_and_warmth() {
        let (base, base_sig) = identity(&pspec(0, 0), true);
        let (renumbered, renumbered_sig) = identity(&pspec(500, 40), true);
        assert_eq!(base, renumbered);
        assert_eq!(base_sig, renumbered_sig);

        let mut other_app = pspec(0, 0);
        other_app.jobs[0].app = AppKind::Join;
        let mut other_size = pspec(0, 0);
        other_size.jobs[1].input = DataSize::from_gb(41.0);
        for spec in [other_app, other_size] {
            let (inputs, signature) = identity(&spec, true);
            assert_ne!(inputs, base);
            assert_ne!(signature, base_sig);
        }

        let (cold, cold_sig) = identity(&pspec(0, 0), false);
        assert_ne!(cold, base);
        assert_ne!(cold_sig, base_sig);
    }
}
