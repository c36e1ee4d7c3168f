//! The fleet scheduler: dispatching per-tenant replan epochs across a
//! worker pool with shared-capacity admission between plan and execute.
//!
//! Each tenant owns one slot — its [`TenantSession`], the stage its
//! current boundary has reached, and its settlement tallies — and each
//! region epoch moves every slot through four phases:
//!
//! 1. **Plan (parallel with a sequential grouping step)** — every
//!    tenant's [`TenantSession::begin_epoch`] fans out over
//!    [`cast_sim::par::run_indexed_mut`]'s work-stealing pool and leaves
//!    the slot `Planned` (sealed without the annealer) or `Pending`. The
//!    fleet takes the pending plans out in tenant order, groups them by
//!    solve signature, confirms each member's canonical
//!    [`cast_runtime::SolveInputs`] equal its group representative's,
//!    solves **one representative per group** in parallel
//!    ([`TenantSession::solve_pending`] takes `&self`), moves the
//!    winning assignment into every member's slot, and seals each slot
//!    via [`TenantSession::finish_epoch`] — bit-identical to a fresh
//!    solve because the solver seed is content-derived.
//! 2. **Admit (parallel across shards)** — each shard's planned demands
//!    meet its own [`CapacityLedger`] under priority admission
//!    ([`crate::admission::admit_epoch`]): guaranteed tenants get full
//!    grants or defer; best-effort tenants split the leftovers by
//!    weighted max-min fair share. Shards are independent pure
//!    functions of `(capacity, config, requests)`, so the fan-out
//!    changes wall time only; verdicts merge in shard order.
//! 3. **Settle (sequential)** — verdicts land in the fleet collector as
//!    `tenant_epoch` trace events (tagged with the plan's provenance:
//!    fresh / deduped / skipped) and in the per-tenant/per-shard
//!    accumulators, always in (shard, tenant-id) order. Admitted slots
//!    carry their grant; deferred and rejected batches go back to their
//!    sessions.
//! 4. **Execute (parallel)** — admitted slots run
//!    [`TenantSession::execute_epoch`] under their granted fraction.
//!
//! The parallel stages run under the `run_indexed` determinism contract
//! (outputs depend only on the index, never on worker count or claim
//! order), and every merge is a single-threaded walk in fixed order —
//! so the merged [`FleetReport`] serialises byte-identically across 1,
//! 2 or 8 workers, and across [`DedupMode::Exact`] vs
//! [`DedupMode::Off`]. Wall-clock measurements and plan-cache counters
//! are quarantined in [`FleetStats`].

use std::collections::BTreeMap;
use std::time::Instant;

use cast_cloud::tier::PerTier;
use cast_cloud::units::DataSize;
use cast_cloud::CapacityLedger;
use cast_estimator::Estimator;
use cast_obs::{Collector, EventBody};
use cast_runtime::{
    PendingPlan, PlanPhase, PlanProvenance, PlannedEpoch, RuntimeConfig, RuntimeError,
    SolveProduct, TenantSession,
};
use cast_sim::par::{run_indexed, run_indexed_mut};
use cast_solver::AnnealConfig;

use crate::admission::{admit_epoch, Admission, AdmissionConfig, AdmissionRequest};
use crate::error::FleetError;
use crate::report::{FleetReport, FleetStats, ShardReport, TenantSummary};
use crate::shard::TenantRegistry;

/// Knobs of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads for the parallel plan/execute phases. Any value
    /// produces the same [`FleetReport`]; this only trades wall time.
    pub workers: usize,
    /// Capacity each shard provisions per tier — the pool tenants draw
    /// epoch grants from.
    pub shard_capacity: PerTier<DataSize>,
    /// Priority-admission knobs shared by every shard.
    pub admission: AdmissionConfig,
    /// Per-tenant runtime configuration (epoch cadence, replan policy,
    /// admission, migration protocol, skip gate).
    pub runtime: RuntimeConfig,
    /// Cold-start anneal schedule per tenant (replans resume on
    /// [`cast_solver::Annealer::resume_from`]'s fixed warm schedule).
    pub anneal: AnnealConfig,
    /// Cross-tenant solve dedup mode (see [`DedupMode`]).
    pub dedup: DedupMode,
}

/// How the fleet groups pending solves for cross-tenant dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Every pending solve runs its own annealer — the always-fresh
    /// reference the determinism tests compare [`DedupMode::Exact`]
    /// against.
    Off,
    /// Group by the exact solve signature and verify each member's
    /// canonical [`cast_runtime::SolveInputs`] equal the group
    /// representative's. The solver seed is content-derived, so the
    /// merged report is byte-identical to [`DedupMode::Off`] — exact
    /// dedup only trades throughput for simpler accounting.
    #[default]
    Exact,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: cast_sim::par::default_workers(),
            shard_capacity: PerTier::from_fn(|_| DataSize::from_tb(2.0)),
            admission: AdmissionConfig::default(),
            runtime: RuntimeConfig::default(),
            anneal: AnnealConfig::default(),
            dedup: DedupMode::Exact,
        }
    }
}

/// What a fleet run returns: the deterministic merged report and the
/// wall-clock side channel.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Deterministic merged result (byte-identical across workers).
    pub report: FleetReport,
    /// Wall-clock measurements (never deterministic, never merged into
    /// the report).
    pub stats: FleetStats,
}

/// The multi-tenant tiering service for one region.
pub struct Fleet<'a> {
    estimator: &'a Estimator,
    cfg: FleetConfig,
    obs: Collector,
}

/// `tenant_epoch` settlement events land in the attached collector, in
/// deterministic (shard, tenant) order per epoch — the fleet's span
/// dimension on top of each tenant's own (unattached) instrumentation.
impl cast_obs::Observe for Fleet<'_> {
    fn collector_slot(&mut self) -> &mut Collector {
        &mut self.obs
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TenantAccum {
    admitted_full: usize,
    admitted_partial: usize,
    deferrals: usize,
    grant_sum: f64,
}

/// How far a tenant's current boundary has come. Each phase moves a
/// stage one step: begin leaves it `Idle`, `Planned` or `Pending`;
/// grouping takes `Pending` out and the solve hands it back `Solved`;
/// finish turns `Solved` into `Planned`; settlement turns `Planned`
/// into `Admitted` or returns it to the session; execute leaves `Idle`.
enum Stage {
    Idle,
    Pending(Box<PendingPlan>),
    Solved {
        pending: Box<PendingPlan>,
        product: SolveProduct,
        provenance: PlanProvenance,
    },
    Planned(PlannedEpoch),
    /// Admitted under the granted capacity fraction.
    Admitted(PlannedEpoch, f64),
}

/// One tenant's session plus everything the epoch loop carries for it
/// between phases.
struct TenantSlot<'a> {
    session: TenantSession<'a>,
    stage: Stage,
    /// Wall seconds of this boundary's planning done for this tenant
    /// (begin + finish, plus the solve when it represented its group).
    plan_wall: f64,
    /// Consecutive deferrals, which admission escalates to rejection.
    consec_defer: usize,
    accum: TenantAccum,
}

impl TenantSlot<'_> {
    fn begin(&mut self, k: u32) -> Result<(), RuntimeError> {
        let t = Instant::now();
        let phase = self.session.begin_epoch(k);
        self.plan_wall = t.elapsed().as_secs_f64();
        self.stage = match phase? {
            PlanPhase::Idle => Stage::Idle,
            PlanPhase::Planned(p) => Stage::Planned(p),
            PlanPhase::Solve(p) => Stage::Pending(p),
        };
        Ok(())
    }

    fn finish(&mut self) -> Result<(), RuntimeError> {
        match std::mem::replace(&mut self.stage, Stage::Idle) {
            Stage::Solved {
                pending,
                product,
                provenance,
            } => {
                let t = Instant::now();
                let planned = self.session.finish_epoch(*pending, &product, provenance)?;
                self.plan_wall += t.elapsed().as_secs_f64();
                self.stage = Stage::Planned(planned);
            }
            other => self.stage = other,
        }
        Ok(())
    }

    /// Run an admitted batch under its grant; `false` when the slot had
    /// none.
    fn execute(&mut self) -> Result<bool, RuntimeError> {
        let Stage::Admitted(planned, frac) = std::mem::replace(&mut self.stage, Stage::Idle) else {
            return Ok(false);
        };
        self.session.execute_epoch(planned, frac)?;
        Ok(true)
    }
}

/// One annealer solve: the representative tenant whose session runs it
/// and the members whose plans adopt its product.
struct Group {
    rep: usize,
    plan: Box<PendingPlan>,
    members: Vec<(usize, Box<PendingPlan>)>,
}

/// Take every `Pending` plan out of its slot and group the plans for
/// solving. The signature is a grouping hint only: each member's
/// canonical content must equal the representative's, or it starts its
/// own group — a digest collision can cost a solve, never correctness.
/// Tenants are walked in id order, so the representative choice is
/// deterministic regardless of worker count.
fn group_pending(dedup: DedupMode, slots: &mut [TenantSlot<'_>]) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut by_sig: BTreeMap<u64, Vec<Group>> = BTreeMap::new();
    for (i, slot) in slots.iter_mut().enumerate() {
        let plan = match std::mem::replace(&mut slot.stage, Stage::Idle) {
            Stage::Pending(plan) => plan,
            other => {
                slot.stage = other;
                continue;
            }
        };
        let solo = Group {
            rep: i,
            plan,
            members: Vec::new(),
        };
        if dedup == DedupMode::Off {
            groups.push(solo);
            continue;
        }
        let subs = by_sig.entry(solo.plan.signature()).or_default();
        match subs
            .iter_mut()
            .find(|g| g.plan.inputs() == solo.plan.inputs())
        {
            Some(g) => g.members.push((i, solo.plan)),
            None => subs.push(solo),
        }
    }
    groups.extend(by_sig.into_values().flatten());
    groups
}

impl<'a> Fleet<'a> {
    /// A fleet over `estimator`'s cloud with the given knobs.
    pub fn new(estimator: &'a Estimator, cfg: FleetConfig) -> Self {
        Fleet {
            estimator,
            cfg,
            obs: Collector::noop(),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Serve every registered tenant's stream to completion.
    pub fn run(&self, registry: &TenantRegistry) -> Result<FleetOutcome, FleetError> {
        let t_run = Instant::now();
        let cfg = &self.cfg;
        if cfg.workers == 0 {
            return Err(FleetError::Config("workers must be > 0"));
        }
        let mut slots: Vec<TenantSlot<'a>> = Vec::with_capacity(registry.len());
        for spec in registry.specs() {
            slots.push(TenantSlot {
                session: TenantSession::new(
                    self.estimator,
                    cfg.anneal,
                    cfg.runtime,
                    spec.stream()?,
                ),
                stage: Stage::Idle,
                plan_wall: 0.0,
                consec_defer: 0,
                accum: TenantAccum::default(),
            });
        }
        let epochs = slots
            .iter()
            .map(|s| s.session.epoch_count())
            .max()
            .unwrap_or(1);

        let mut sacc: Vec<ShardReport> = (0..registry.shards())
            .map(|shard| ShardReport {
                shard,
                tenants: registry.shard_tenants(shard).len(),
                admitted: 0,
                deferred: 0,
                rejected_batches: 0,
                peak_utilization: 0.0,
            })
            .collect();
        let mut stats = FleetStats::default();

        for k in 0..epochs {
            // Phase 1a — open every tenant's boundary in parallel.
            let t_plan = Instant::now();
            for r in run_indexed_mut(cfg.workers, &mut slots, |_, slot| slot.begin(k)) {
                r?;
            }

            // Phase 1b — group the pending solves (sequential, cheap).
            let groups = group_pending(cfg.dedup, &mut slots);
            let fanouts = groups.iter().map(|g| g.members.len() as u64).sum::<u64>();
            stats.solves += groups.len() as u64;
            stats.dedup_fanouts += fanouts;
            self.obs
                .counter("fleet.plan.solves")
                .add(groups.len() as u64);
            self.obs.counter("fleet.plan.deduped").add(fanouts);

            // Phase 1c — solve one representative per group in
            // parallel; `solve_pending` holds the sessions immutably.
            // Products then move into the slots in group order: the
            // representative adopts as Fresh, the rest as Deduped.
            let (slots_ref, groups_ref) = (&slots, &groups);
            let solved = run_indexed(cfg.workers, groups.len(), |g| {
                let group = &groups_ref[g];
                let t = Instant::now();
                let r = slots_ref[group.rep].session.solve_pending(&group.plan);
                (r, t.elapsed().as_secs_f64())
            });
            for (group, (result, solve_wall)) in groups.into_iter().zip(solved) {
                let product = result?;
                for (i, pending) in group.members {
                    slots[i].stage = Stage::Solved {
                        pending,
                        product: product.clone(),
                        provenance: PlanProvenance::Deduped,
                    };
                }
                let rep = &mut slots[group.rep];
                rep.plan_wall += solve_wall;
                rep.stage = Stage::Solved {
                    pending: group.plan,
                    product,
                    provenance: PlanProvenance::Fresh,
                };
            }

            // Phase 1d — seal every solved slot in parallel: hysteresis
            // judgement, migration diff and demand aggregation.
            for r in run_indexed_mut(cfg.workers, &mut slots, |_, slot| slot.finish()) {
                r?;
            }
            for slot in &slots {
                if let Stage::Planned(p) = &slot.stage {
                    stats.replan_wall_secs.push(slot.plan_wall);
                    if p.provenance() == PlanProvenance::Skipped {
                        stats.replans_skipped += 1;
                        self.obs.counter("fleet.plan.skipped").inc();
                    }
                }
            }
            stats.plan_wall_secs += t_plan.elapsed().as_secs_f64();

            // Phase 2 — shard-local priority admission over per-shard
            // ledgers, fanned out across shards (each shard is a pure
            // function of its own requests; merge order is fixed).
            let t_admit = Instant::now();
            let slots_ref = &slots;
            let shard_verdicts: Vec<(Vec<(usize, Admission)>, f64)> =
                run_indexed(cfg.workers, registry.shards() as usize, |shard| {
                    let planned: Vec<(usize, &PlannedEpoch)> = registry
                        .shard_tenants(shard as u32)
                        .iter()
                        .filter_map(|&i| match &slots_ref[i].stage {
                            Stage::Planned(p) => Some((i, p)),
                            _ => None,
                        })
                        .collect();
                    if planned.is_empty() {
                        return (Vec::new(), 0.0);
                    }
                    let requests: Vec<AdmissionRequest> = planned
                        .iter()
                        .map(|&(i, p)| {
                            let spec = &registry.specs()[i];
                            AdmissionRequest {
                                tenant: spec.id.0,
                                priority: spec.priority(),
                                weight: spec.weight(),
                                demand: *p.demand(),
                                deferrals: slots_ref[i].consec_defer,
                            }
                        })
                        .collect();
                    let mut ledger = CapacityLedger::new(cfg.shard_capacity);
                    let vs = admit_epoch(&mut ledger, &cfg.admission, &requests);
                    let tenants = planned.into_iter().map(|(i, _)| i);
                    (tenants.zip(vs).collect(), ledger.utilization())
                });
            stats.admit_wall_secs += t_admit.elapsed().as_secs_f64();

            // Phase 3 — settle verdicts in (shard, tenant) order: trace
            // events, accumulators, defer/reject bookkeeping; admitted
            // slots keep their plan and grant for execution.
            let boundary_secs = cfg.runtime.epoch.secs() * (k + 1) as f64;
            for (shard, (verdicts, utilization)) in shard_verdicts.into_iter().enumerate() {
                let sr = &mut sacc[shard];
                sr.peak_utilization = sr.peak_utilization.max(utilization);
                for (i, v) in verdicts {
                    let slot = &mut slots[i];
                    let Stage::Planned(p) = std::mem::replace(&mut slot.stage, Stage::Idle) else {
                        continue;
                    };
                    if self.obs.enabled() {
                        self.obs.emit(
                            boundary_secs,
                            EventBody::TenantEpoch {
                                tenant: registry.specs()[i].id.0,
                                shard: shard as u32,
                                epoch: k,
                                admission: v.label().to_string(),
                                granted_frac: v.granted_frac(),
                                planned: p.provenance().label().to_string(),
                            },
                        );
                    }
                    match v {
                        Admission::Admitted { frac } => {
                            slot.consec_defer = 0;
                            if frac >= 1.0 {
                                slot.accum.admitted_full += 1;
                            } else {
                                slot.accum.admitted_partial += 1;
                            }
                            slot.accum.grant_sum += frac;
                            sr.admitted += 1;
                            slot.stage = Stage::Admitted(p, frac);
                        }
                        Admission::Deferred => {
                            slot.consec_defer += 1;
                            slot.accum.deferrals += 1;
                            sr.deferred += 1;
                            slot.session.defer_epoch(p);
                        }
                        Admission::Rejected => {
                            slot.consec_defer = 0;
                            sr.rejected_batches += 1;
                            slot.session.reject_epoch(p);
                        }
                    }
                }
            }

            // Phase 4 — execute admitted batches in parallel under their
            // grants.
            let t_exec = Instant::now();
            for r in run_indexed_mut(cfg.workers, &mut slots, |_, slot| slot.execute()) {
                if r? {
                    stats.executed_epochs += 1;
                }
            }
            stats.exec_wall_secs += t_exec.elapsed().as_secs_f64();
        }

        // Final settlement: per-tenant rollups in id order, region totals.
        let mut tenants = Vec::with_capacity(slots.len());
        for (i, (slot, spec)) in slots.into_iter().zip(registry.specs()).enumerate() {
            let report = slot.session.finish();
            let a = slot.accum;
            let admitted = a.admitted_full + a.admitted_partial;
            tenants.push(TenantSummary {
                tenant: spec.id.0,
                shard: registry.shard_of_index(i),
                class: spec.class.label().to_string(),
                epochs_served: report.epochs.len(),
                admitted_full: a.admitted_full,
                admitted_partial: a.admitted_partial,
                deferrals: a.deferrals,
                mean_grant: if admitted > 0 {
                    a.grant_sum / admitted as f64
                } else {
                    0.0
                },
                jobs_completed: report.jobs_completed,
                deadline_misses: report.deadline_misses,
                rejected: report.rejected,
                total_cost: report.total_cost,
            });
        }
        let report = FleetReport {
            epochs,
            shard_count: registry.shards(),
            jobs_completed: tenants.iter().map(|t| t.jobs_completed).sum(),
            deadline_misses: tenants.iter().map(|t| t.deadline_misses).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            deferrals: tenants.iter().map(|t| t.deferrals).sum(),
            total_cost: tenants.iter().map(|t| t.total_cost).sum(),
            tenants,
            shards: sacc,
        };
        stats.total_wall_secs = t_run.elapsed().as_secs_f64();
        Ok(FleetOutcome { report, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::Tier;
    use cast_cloud::units::Duration;
    use cast_cloud::Catalog;
    use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
    use cast_estimator::mrcute::ClusterSpec;
    use cast_obs::Observe;
    use cast_runtime::{OnlineRuntime, ReplanPolicy};
    use cast_workload::profile::ProfileSet;
    use cast_workload::{tenant_fleet, AppKind, FleetWorkloadConfig, TenantClass};

    fn estimator(nvm: usize) -> Estimator {
        let mut matrix = ModelMatrix::new();
        for app in AppKind::ALL {
            for tier in Tier::ALL {
                matrix.insert(
                    app,
                    tier,
                    CapacityCurve::fit(&[(
                        375.0,
                        PhaseBw {
                            map: 10.0,
                            shuffle_reduce: 10.0,
                        },
                    )])
                    .unwrap(),
                );
            }
        }
        Estimator {
            matrix,
            catalog: Catalog::google_cloud(),
            cluster: ClusterSpec {
                nvm,
                map_slots: 16,
                reduce_slots: 8,
                task_startup_secs: 1.5,
            },
            profiles: ProfileSet::defaults(),
        }
    }

    fn small_fleet(tenants: usize, seed: u64) -> TenantRegistry {
        let specs = tenant_fleet(&FleetWorkloadConfig {
            seed,
            tenants,
            horizon: Duration::from_mins(60.0),
            base_jobs_per_hour: 6.0,
            max_bin: 3,
            ..FleetWorkloadConfig::default()
        })
        .unwrap();
        TenantRegistry::new(specs, 2).unwrap()
    }

    fn quick_cfg(capacity_tb: f64) -> FleetConfig {
        FleetConfig {
            workers: 2,
            shard_capacity: PerTier::from_fn(|_| DataSize::from_tb(capacity_tb)),
            runtime: RuntimeConfig {
                epoch: Duration::from_mins(30.0),
                policy: ReplanPolicy::Hysteresis { min_gain: 0.02 },
                ..RuntimeConfig::default()
            },
            anneal: AnnealConfig {
                iterations: 300,
                restarts: 1,
                ..AnnealConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn ample_capacity_serves_everyone_uncontended() {
        let est = estimator(4);
        let reg = small_fleet(10, 0xA11);
        let out = Fleet::new(&est, quick_cfg(100.0)).run(&reg).unwrap();
        assert_eq!(out.report.tenants.len(), 10);
        assert_eq!(out.report.deferrals, 0);
        // With capacity to spare every admitted epoch is a full grant.
        assert_eq!(out.report.uncontended_tenants().count(), 10);
        assert!(out.report.jobs_completed > 0);
        assert!(out.report.total_cost > 0.0);
        assert!(out.stats.executed_epochs > 0);
        assert!(out.stats.total_wall_secs > 0.0);
    }

    #[test]
    fn uncontended_tenant_matches_its_solo_baseline() {
        // The fleet's full-grant path must be bit-identical to serving
        // the tenant alone — same jobs, same misses, same cost.
        let est = estimator(4);
        let reg = small_fleet(6, 0xB22);
        let cfg = quick_cfg(100.0);
        let out = Fleet::new(&est, cfg.clone()).run(&reg).unwrap();
        for (spec, summary) in reg.specs().iter().zip(out.report.tenants.iter()) {
            let solo = OnlineRuntime::new(&est, cfg.anneal, cfg.runtime)
                .run(&spec.stream().unwrap())
                .unwrap();
            assert_eq!(summary.jobs_completed, solo.jobs_completed, "t{}", spec.id);
            assert_eq!(
                summary.deadline_misses, solo.deadline_misses,
                "t{}",
                spec.id
            );
            assert!(
                (summary.total_cost - solo.total_cost).abs() < 1e-12,
                "t{}",
                spec.id
            );
        }
    }

    #[test]
    fn scarce_capacity_throttles_best_effort_first() {
        let est = estimator(4);
        let reg = small_fleet(10, 0xC33);
        // A pool small enough that epochs contend.
        let out = Fleet::new(&est, quick_cfg(0.05)).run(&reg).unwrap();
        let contended: usize = out
            .report
            .tenants
            .iter()
            .map(|t| t.admitted_partial + t.deferrals)
            .sum();
        assert!(contended > 0, "a 50 GB shard pool must contend");
        // Guaranteed (interactive) tenants are never partially granted.
        for (spec, t) in reg.specs().iter().zip(out.report.tenants.iter()) {
            if spec.class == TenantClass::Interactive {
                assert_eq!(t.admitted_partial, 0, "t{} throttled", spec.id);
            }
        }
        // Shard books saw real utilization.
        assert!(out.report.shards.iter().any(|s| s.peak_utilization > 0.5));
    }

    #[test]
    fn settlement_emits_tenant_epoch_spans_in_order() {
        let est = estimator(4);
        let reg = small_fleet(6, 0xD44);
        let col = Collector::recording();
        let fleet = Fleet::new(&est, quick_cfg(100.0)).observe(col.clone());
        fleet.run(&reg).unwrap();
        let events = col.events();
        assert!(!events.is_empty());
        let mut last = (0u32, 0u32, 0u32);
        let mut seen = 0;
        for e in &events {
            if let EventBody::TenantEpoch {
                tenant,
                shard,
                epoch,
                admission,
                granted_frac,
                planned,
            } = &e.body
            {
                seen += 1;
                assert_eq!(admission, "admitted");
                assert_eq!(*granted_frac, 1.0);
                assert!(
                    ["fresh", "deduped", "skipped"].contains(&planned.as_str()),
                    "unexpected provenance {planned}"
                );
                let key = (*epoch, *shard, *tenant);
                assert!(key > last || seen == 1, "{key:?} after {last:?}");
                last = key;
            }
        }
        assert!(seen > 0, "settlement must trace tenant epochs");
    }

    #[test]
    fn plan_cache_counters_land_in_the_metrics_registry() {
        // FleetStats is the wall-clock side channel; the same plan-cache
        // tallies must also flow through the attached collector so fleet
        // dashboards see them without holding a FleetOutcome.
        let est = estimator(4);
        let reg = small_fleet(6, 0xE55);
        let col = Collector::recording();
        let fleet = Fleet::new(&est, quick_cfg(100.0)).observe(col.clone());
        let out = fleet.run(&reg).unwrap();
        let snap = col.snapshot();
        assert!(out.stats.solves > 0);
        assert_eq!(snap.counter("fleet.plan.solves"), Some(out.stats.solves));
        assert_eq!(
            snap.counter("fleet.plan.deduped").unwrap_or(0),
            out.stats.dedup_fanouts
        );
        assert_eq!(
            snap.counter("fleet.plan.skipped").unwrap_or(0),
            out.stats.replans_skipped
        );
    }

    #[test]
    fn every_planned_tenant_epoch_has_one_provenance_and_one_verdict() {
        // Each planned tenant-epoch is exactly one of fresh, deduped or
        // skipped, and settlement traces exactly one verdict for it — on
        // both dedup modes, any worker count, ample and contended pools.
        let est = estimator(4);
        let reg = small_fleet(10, 0xF66);
        for dedup in [DedupMode::Exact, DedupMode::Off] {
            for workers in [1, 8] {
                for capacity_tb in [100.0, 0.05] {
                    let cfg = FleetConfig {
                        workers,
                        dedup,
                        ..quick_cfg(capacity_tb)
                    };
                    let col = Collector::recording();
                    let out = Fleet::new(&est, cfg)
                        .observe(col.clone())
                        .run(&reg)
                        .unwrap();
                    let s = &out.stats;
                    let planned = s.replan_wall_secs.len() as u64;
                    let case = format!("{dedup:?} workers={workers} capacity={capacity_tb} TB");
                    assert!(planned > 0, "{case}");
                    assert_eq!(
                        s.solves + s.dedup_fanouts + s.replans_skipped,
                        planned,
                        "{case}"
                    );
                    let verdicts = col
                        .events()
                        .iter()
                        .filter(|e| matches!(e.body, EventBody::TenantEpoch { .. }))
                        .count() as u64;
                    assert_eq!(verdicts, planned, "{case}");
                    if capacity_tb < 1.0 {
                        assert!(out.report.deferrals > 0, "{case} must contend");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let est = estimator(4);
        let reg = small_fleet(2, 1);
        let cfg = FleetConfig {
            workers: 0,
            ..quick_cfg(1.0)
        };
        assert!(matches!(
            Fleet::new(&est, cfg).run(&reg),
            Err(FleetError::Config(_))
        ));
    }
}
