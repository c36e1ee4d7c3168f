//! Incremental plan evaluation — the annealer's hot path.
//!
//! [`evaluate`](crate::objective::evaluate) re-derives everything from
//! scratch: it walks the plan's `BTreeMap`, re-aggregates per-tier raw
//! demand (with the Eq. 7 reuse discount), re-rounds provisioned volumes
//! and re-runs the spline-backed `REG(·)` estimator for *every* job — on
//! every one of the ~12k neighbours a solve visits. [`IncrementalEval`]
//! keeps that state alive between neighbours instead:
//!
//! * per-job inputs to the Eq. 3/Eq. 6 aggregation (footprint,
//!   intermediate bytes, backing-store bytes) are precomputed once, so raw
//!   per-tier demand is re-derived from flat arrays with no map lookups or
//!   profile dereferences — and in *exactly* the floating-point operation
//!   order of [`TieringPlan::capacities`], keeping scores bit-identical;
//! * jobs are addressed by *position* (spec order, the order
//!   [`crate::neighbor::NeighborGen`] proposes in), so a move touches no
//!   `JobId` map, and Eq. 3 is checked once per change —
//!   [`IncrementalEval::new`] validates the initial plan and
//!   [`IncrementalEval::apply`] each change it is handed — instead of for
//!   every job on every score;
//! * each tier's rounded capacity bits and per-VM capacity are cached, so
//!   [`per_vm_capacity`] reruns only for tiers whose rounded capacity
//!   changed;
//! * a per-job **time ledger** remembers the last scoring key each job
//!   was scored at; a one-job move changes at most a handful of tiers'
//!   rounded capacities, so jobs whose key is unchanged reuse their
//!   ledger entry without touching the estimator. The ledger is checked
//!   on the unclamped per-VM capacity first, and only a miss there pays
//!   for the class's clamp lookup and the clamped key;
//! * a **memo cache** keyed by `(job class, tier, effective per-VM
//!   capacity)` absorbs job duplication — jobs with identical
//!   `(app, input, maps, reduces)`, the whole of what `REG` reads from a
//!   job, share one cache row — and the estimator's capacity
//!   saturation: a tier's total only reaches `REG` through
//!   [`per_vm_capacity`], which rounds volume-granular tiers to whole
//!   volumes, and through the profiled [`CapacityCurve`], which
//!   extrapolates flat outside its knot domain (and staging throughput,
//!   which caps at `max_volumes`). Clamping the per-VM capacity into
//!   that effective domain per `(class, tier)` makes every total on the
//!   saturated plateau hit the same cache row, so the continuous stream
//!   of fresh tier totals an annealing trajectory produces costs almost
//!   no estimator calls.
//!
//! [`CapacityCurve`]: cast_estimator::model::CapacityCurve
//!
//! The full `evaluate()` stays the oracle: `REG` is a pure function of
//! `(job, tier, capacity)` and the aggregation replays the oracle's
//! operation order, so [`IncrementalEval::score`] is bit-for-bit equal to
//! `evaluate(&self.to_plan(), ctx)?.utility` (property-tested in
//! `tests/properties.rs`).

use std::collections::HashMap;

use cast_cloud::scaling::ScalingModel;
use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{DataSize, Duration};
use cast_estimator::regression::per_vm_capacity;
use cast_estimator::PhaseBw;
use cast_workload::job::{Job, JobId};
use cast_workload::WorkloadError;

use crate::error::SolverError;
use crate::objective::{provision_round, EvalContext};
use crate::plan::{Assignment, TieringPlan};

/// The solver's job equivalence class: the whole of what `REG(·)` — and
/// therefore the objective — reads from a job. Jobs with equal keys are
/// interchangeable to the estimator, and [`IncrementalEval`] memoises on
/// this key. Fleet solve dedup does not call it: it compares
/// `cast-runtime`'s `SolveInputs`, which build the same tuple per job.
fn job_class_key(job: &Job) -> (cast_workload::AppKind, u64, usize, usize) {
    (job.app, job.input.bytes().to_bits(), job.maps, job.reduces)
}

/// Cache-effectiveness counters for one [`IncrementalEval`] lifetime.
///
/// Kept as plain integers (no atomics, no collector indirection) because a
/// rescore touches one of them per job; the annealer rolls them up into
/// its observability counters once per chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Job rescored at an unchanged `(tier, capacity)` key — no cache
    /// scan, no estimator work.
    pub ledger_hits: u64,
    /// Runtime found in the `(job class, tier)` memo row.
    pub memo_hits: u64,
    /// Memo miss whose spline bandwidths were still shared via the
    /// per-application bandwidth memo (only phase arithmetic re-ran).
    pub bw_hits: u64,
    /// Full miss: spline evaluation plus phase arithmetic.
    pub misses: u64,
}

/// One job's time-ledger entry: the runtime it was last scored at and
/// the key it was scored under.
#[derive(Debug, Clone, Copy)]
struct LedgerEntry {
    /// Tier index.
    tier: u8,
    /// Bits of the tier's per-VM capacity.
    per_vm: u64,
    /// Bits of that capacity clamped into the class's saturation domain:
    /// the key `REG` is a function of.
    clamped: u64,
    /// `REG` runtime at that key.
    time: Duration,
}

/// Sentinel that never matches a real tier index.
const NO_ENTRY: LedgerEntry = LedgerEntry {
    tier: u8::MAX,
    per_vm: u64::MAX,
    clamped: u64::MAX,
    time: Duration::ZERO,
};

/// Sentinel that never matches a real capacity's bits (a NaN payload).
const NO_BITS: u64 = u64::MAX;

/// Mutable evaluation state for one plan under one [`EvalContext`].
#[derive(Debug, Clone)]
pub struct IncrementalEval<'a> {
    ctx: &'a EvalContext<'a>,
    /// Current assignment per job, in spec order (a job's index here is
    /// its position).
    assignments: Vec<Assignment>,
    /// `inputᵢ + interᵢ + outputᵢ` per job (the Eq. 3 floor).
    footprint: Vec<DataSize>,
    /// `interᵢ` per job (moved to the persSSD scratch for objStore jobs).
    inter: Vec<DataSize>,
    /// `inputᵢ + outputᵢ` per job (backing objStore bytes for ephSSD jobs).
    in_out: Vec<DataSize>,
    /// Reuse groups as `(dataset size, member indices)`, in
    /// [`cast_workload::WorkloadSpec::reuse_groups`] order (empty when
    /// reuse is off).
    groups: Vec<(DataSize, Vec<usize>)>,
    /// Last-scored key and runtime per job.
    ledger: Vec<LedgerEntry>,
    /// Per tier, the bits of the rounded capacity last scored.
    cap_bits: [u64; 4],
    /// Per tier, [`per_vm_capacity`] of that rounded capacity.
    per_vm: [f64; 4],
    /// Equivalence class of each job: jobs with identical
    /// `(app, input, maps, reduces)` are indistinguishable to `REG`.
    class: Vec<usize>,
    /// Application index (into the distinct-app tables below) per class.
    class_app: Vec<usize>,
    /// Per-(app, tier) clamp bounds for the scoring key: the profiled
    /// curve's knot domain (flat extrapolation outside it), widened for
    /// volume-granular tiers to the staging-throughput saturation point
    /// (`volume × max_volumes`). Two totals whose clamped per-VM
    /// capacities coincide are bit-identical to `REG`.
    clamp: Vec<[(f64, f64); 4]>,
    /// `REG` results per `(job class, tier)` as `(clamped per-VM
    /// capacity bits, runtime)` rows, most-recently-used first and
    /// bounded at [`MEMO_ROW_CAP`]. An indexed scan of a short
    /// self-organising row beats a hashed map by an order of magnitude
    /// on the one-lookup-per-job cost a neighbour rescore pays.
    memo: Vec<[Vec<(u64, Duration)>; 4]>,
    /// Model-matrix bandwidths per `(app, tier)` at the same clamped
    /// per-VM capacity keys: when a class row misses on a genuinely new
    /// capacity point, classes sharing an application still share the
    /// spline evaluation and only re-run the phase arithmetic.
    bw_memo: Vec<[Vec<(u64, PhaseBw)>; 4]>,
    /// Hit/miss tallies across the three cache levels.
    stats: CacheStats,
}

/// Entries kept per `(job class, tier)` memo row. Eviction only costs a
/// recomputation, so the cap trades a bounded footprint (and bounded scan
/// time on the misses an annealing trajectory's continuous fresh
/// capacity points produce) for occasional extra `REG` calls; saturated
/// plateaus need one entry and reject/restore toggles only a few, so a
/// short row keeps the hits.
const MEMO_ROW_CAP: usize = 8;

impl<'a> IncrementalEval<'a> {
    /// Build evaluation state for `plan`, which must assign every job of
    /// `ctx.spec` a factor satisfying Eq. 3. Positions are spec order, so
    /// the spec's job ids must be unique
    /// ([`cast_workload::WorkloadSpec::validate`]). Under reuse awareness
    /// a shared dataset the spec does not define is
    /// [`SolverError::Workload`].
    pub fn new(ctx: &'a EvalContext<'a>, plan: &TieringPlan) -> Result<Self, SolverError> {
        let spec = ctx.spec;
        let n = spec.jobs.len();
        let mut assignments = Vec::with_capacity(n);
        let mut footprint = Vec::with_capacity(n);
        let mut inter = Vec::with_capacity(n);
        let mut in_out = Vec::with_capacity(n);
        let mut class_of: HashMap<(cast_workload::AppKind, u64, usize, usize), usize> =
            HashMap::new();
        let mut app_of: HashMap<cast_workload::AppKind, usize> = HashMap::new();
        let mut apps = Vec::new();
        let mut class = Vec::with_capacity(n);
        let mut class_app = Vec::new();
        for job in &spec.jobs {
            assignments.push(plan.require(job.id)?);
            let profile = spec.profiles.get(job.app);
            footprint.push(job.footprint(profile));
            inter.push(job.inter(profile));
            in_out.push(job.input + job.output(profile));
            let key = job_class_key(job);
            let next = class_of.len();
            let c = *class_of.entry(key).or_insert(next);
            if c == class_app.len() {
                let next_app = apps.len();
                let a = *app_of.entry(job.app).or_insert(next_app);
                if a == apps.len() {
                    apps.push(job.app);
                }
                class_app.push(a);
            }
            class.push(c);
        }
        // Eq. 3 is checked here for the whole plan, once every job is
        // known to be assigned (an unassigned job is reported first), and
        // by `apply` for each later change; `score` relies on both.
        for (job, a) in spec.jobs.iter().zip(&assignments) {
            a.validate(job.id)?;
        }
        let clamp = apps
            .iter()
            .map(|&app| {
                let mut per_tier = [(f64::NEG_INFINITY, f64::INFINITY); 4];
                for tier in Tier::ALL {
                    let Some(curve) = ctx.estimator.matrix.curve(app, tier) else {
                        // Unprofiled pair: no collapse; `REG` errors on
                        // use, exactly as the oracle would.
                        continue;
                    };
                    let knots = curve.capacities();
                    let (lo, hi) = (knots[0], knots[knots.len() - 1]);
                    per_tier[tier.index()] = match ctx.estimator.catalog.service(tier).scaling {
                        // Below the knot domain the curve is flat, but
                        // staging throughput still grows per volume —
                        // and per-VM capacity is already quantized to
                        // whole volumes, so no low clamp is needed.
                        ScalingModel::PerVolume {
                            volume,
                            max_volumes,
                            ..
                        } => (f64::NEG_INFINITY, hi.max(volume.gb() * max_volumes as f64)),
                        _ => (lo, hi),
                    };
                }
                per_tier
            })
            .collect();
        let groups = if ctx.reuse_aware {
            let position: HashMap<JobId, usize> = spec
                .jobs
                .iter()
                .enumerate()
                .map(|(i, j)| (j.id, i))
                .collect();
            spec.reuse_groups()
                .into_iter()
                .map(|(ds, jobs)| {
                    let size = spec
                        .dataset(ds)
                        .ok_or(WorkloadError::UnknownDataset {
                            job: jobs[0].0,
                            dataset: ds.0,
                        })?
                        .size;
                    let members = jobs.iter().map(|j| position[j]).collect();
                    Ok((size, members))
                })
                .collect::<Result<_, SolverError>>()?
        } else {
            Vec::new()
        };
        Ok(IncrementalEval {
            ctx,
            assignments,
            footprint,
            inter,
            in_out,
            groups,
            ledger: vec![NO_ENTRY; n],
            cap_bits: [NO_BITS; 4],
            per_vm: [0.0; 4],
            memo: vec![Default::default(); class_of.len()],
            bw_memo: vec![Default::default(); apps.len()],
            stats: CacheStats::default(),
            class,
            class_app,
            clamp,
        })
    }

    /// Current assignments in spec order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Apply a batch of `(position, assignment)` changes, pushing the
    /// displaced assignments onto `undo` (in change order) so
    /// [`Self::restore`] can roll the move back. A change that violates
    /// Eq. 3 is a [`SolverError::CapacityViolation`], and then nothing is
    /// applied.
    ///
    /// # Panics
    ///
    /// If a position is not below the spec's job count.
    pub fn apply(
        &mut self,
        changes: &[(usize, Assignment)],
        undo: &mut Vec<(usize, Assignment)>,
    ) -> Result<(), SolverError> {
        undo.clear();
        for &(i, a) in changes {
            a.validate(self.ctx.spec.jobs[i].id)?;
        }
        for &(i, a) in changes {
            undo.push((i, self.assignments[i]));
            self.assignments[i] = a;
        }
        Ok(())
    }

    /// Roll back a move recorded by [`Self::apply`].
    pub fn restore(&mut self, undo: &[(usize, Assignment)]) {
        for &(i, a) in undo.iter().rev() {
            self.assignments[i] = a;
        }
    }

    /// Raw per-tier demand, replaying [`TieringPlan::capacities`]'s exact
    /// operation order over the precomputed per-job quantities. Every
    /// assignment already satisfies Eq. 3: `new` and `apply` checked it.
    fn raw_capacities(&self) -> PerTier<DataSize> {
        let mut caps = PerTier::from_fn(|_| DataSize::ZERO);
        for (size, members) in &self.groups {
            // Distinct tiers in first-seen member order (≤ 4 of them).
            let mut tiers = [Tier::EphSsd; 4];
            let mut ntiers = 0;
            for &m in members {
                let t = self.assignments[m].tier;
                if !tiers[..ntiers].contains(&t) {
                    tiers[ntiers] = t;
                    ntiers += 1;
                }
            }
            for &t in &tiers[..ntiers] {
                let members_on_t = members
                    .iter()
                    .filter(|&&m| self.assignments[m].tier == t)
                    .count();
                if members_on_t > 1 {
                    *caps.get_mut(t) -= *size * (members_on_t - 1) as f64;
                }
            }
        }
        for (i, &a) in self.assignments.iter().enumerate() {
            let c = self.footprint[i] * a.overprov;
            *caps.get_mut(a.tier) += c;
            match a.tier {
                Tier::ObjStore => {
                    *caps.get_mut(Tier::ObjStore) -= self.inter[i];
                    *caps.get_mut(Tier::PersSsd) += self.inter[i];
                }
                Tier::EphSsd => {
                    *caps.get_mut(Tier::ObjStore) += self.in_out[i];
                }
                _ => {}
            }
        }
        caps
    }

    /// Score the current assignments: the Eq. 2 tenant utility,
    /// bit-identical to `evaluate(&self.to_plan(), ctx)?.utility`.
    pub fn score(&mut self) -> Result<f64, SolverError> {
        let raw = self.raw_capacities();
        let capacities = provision_round(self.ctx.estimator, &raw);
        // A tier's total reaches `REG` only through its per-VM capacity
        // (volume-rounded on volume-granular tiers), so that — clamped
        // into each class's saturation domain — is the scoring key. It is
        // recomputed only for tiers whose rounded capacity moved.
        let est = self.ctx.estimator;
        for tier in Tier::ALL {
            let ti = tier.index();
            let bits = capacities.get(tier).bytes().to_bits();
            if self.cap_bits[ti] != bits {
                self.cap_bits[ti] = bits;
                self.per_vm[ti] =
                    per_vm_capacity(&est.catalog, tier, *capacities.get(tier), est.cluster.nvm);
            }
        }
        let mut time = Duration::ZERO;
        for (i, job) in self.ctx.spec.jobs.iter().enumerate() {
            let a = self.assignments[i];
            let ti = a.tier.index();
            let per_vm = self.per_vm[ti];
            let entry = &mut self.ledger[i];
            // Equal per-VM capacities clamp to equal keys, so this hit
            // skips the clamp lookup as well as the estimator.
            if entry.tier == ti as u8 && entry.per_vm == per_vm.to_bits() {
                self.stats.ledger_hits += 1;
                time += entry.time;
                continue;
            }
            let cls = self.class[i];
            let (lo, hi) = self.clamp[self.class_app[cls]][ti];
            let bits = per_vm.clamp(lo, hi).to_bits();
            let t = if entry.tier == ti as u8 && entry.clamped == bits {
                self.stats.ledger_hits += 1;
                entry.time
            } else {
                let row = &mut self.memo[cls][ti];
                match row.iter().position(|&(c, _)| c == bits) {
                    Some(pos) => {
                        self.stats.memo_hits += 1;
                        // Transpose-to-front: hot capacity points stay at
                        // the head of the scan.
                        row.swap(0, pos);
                        row[0].1
                    }
                    None => {
                        let bw_row = &mut self.bw_memo[self.class_app[cls]][ti];
                        let bw = match bw_row.iter().position(|&(c, _)| c == bits) {
                            Some(pos) => {
                                self.stats.bw_hits += 1;
                                bw_row.swap(0, pos);
                                bw_row[0].1
                            }
                            None => {
                                self.stats.misses += 1;
                                let bw = est.matrix.bandwidths(job.app, a.tier, per_vm)?;
                                if bw_row.len() >= MEMO_ROW_CAP {
                                    bw_row.pop();
                                }
                                bw_row.push((bits, bw));
                                let last = bw_row.len() - 1;
                                bw_row.swap(0, last);
                                bw
                            }
                        };
                        let tier_total = *capacities.get(a.tier);
                        let t = est.reg_with_bw(job, a.tier, tier_total, bw);
                        if row.len() >= MEMO_ROW_CAP {
                            row.pop();
                        }
                        // O(1) front insertion: push, then swap the old
                        // head to the vacated back slot.
                        row.push((bits, t));
                        let last = row.len() - 1;
                        row.swap(0, last);
                        t
                    }
                }
            };
            *entry = LedgerEntry {
                tier: ti as u8,
                per_vm: per_vm.to_bits(),
                clamped: bits,
                time: t,
            };
            time += t;
        }
        Ok(self.ctx.cost.tenant_utility(&capacities, time))
    }

    /// Materialise the current assignments as a [`TieringPlan`].
    pub fn to_plan(&self) -> TieringPlan {
        plan_from_assignments(self.ctx, &self.assignments)
    }

    /// Hit/miss tallies accumulated across every [`Self::score`] call.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct `(job, tier, capacity)` points evaluated so far
    /// (cache diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo
            .iter()
            .map(|rows| rows.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

/// Build a [`TieringPlan`] from a spec-ordered assignment snapshot.
pub fn plan_from_assignments(ctx: &EvalContext<'_>, assignments: &[Assignment]) -> TieringPlan {
    let mut plan = TieringPlan::new();
    for (job, &a) in ctx.spec.jobs.iter().zip(assignments) {
        plan.assign(job.id, a);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{evaluate, tests::toy_estimator};
    use cast_workload::synth;

    #[test]
    fn matches_oracle_on_fresh_state() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        let mut inc = IncrementalEval::new(&ctx, &plan).unwrap();
        let oracle = evaluate(&plan, &ctx).unwrap().utility;
        assert_eq!(inc.score().unwrap().to_bits(), oracle.to_bits());
    }

    #[test]
    fn apply_restore_roundtrips() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let plan = TieringPlan::uniform(&spec, Tier::PersHdd);
        let mut inc = IncrementalEval::new(&ctx, &plan).unwrap();
        let before = inc.score().unwrap();
        let mut undo = Vec::new();
        inc.apply(
            &[(
                0,
                Assignment {
                    tier: Tier::EphSsd,
                    overprov: 4.0,
                },
            )],
            &mut undo,
        )
        .unwrap();
        let moved = inc.score().unwrap();
        let moved_oracle = evaluate(&inc.to_plan(), &ctx).unwrap().utility;
        assert_eq!(moved.to_bits(), moved_oracle.to_bits());
        inc.restore(&undo);
        assert_eq!(inc.score().unwrap().to_bits(), before.to_bits());
        assert_eq!(inc.to_plan(), plan);
    }

    #[test]
    fn apply_rejects_a_capacity_violation_and_changes_nothing() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        let mut inc = IncrementalEval::new(&ctx, &plan).unwrap();
        let before = inc.score().unwrap();
        let mut undo = Vec::new();
        let valid = Assignment {
            tier: Tier::PersHdd,
            overprov: 2.0,
        };
        let invalid = Assignment {
            tier: Tier::ObjStore,
            overprov: 0.5,
        };
        // The valid change listed first must not be applied either.
        let err = inc.apply(&[(0, valid), (1, invalid)], &mut undo);
        assert!(
            matches!(
                err,
                Err(SolverError::CapacityViolation { job, factor })
                    if job == spec.jobs[1].id.0 && factor == 0.5
            ),
            "{err:?}"
        );
        assert!(undo.is_empty());
        assert_eq!(inc.to_plan(), plan);
        assert_eq!(inc.score().unwrap().to_bits(), before.to_bits());
    }

    #[test]
    fn new_rejects_a_capacity_violation() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let mut plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        for &i in &[3, 1] {
            plan.assign(
                spec.jobs[i].id,
                Assignment {
                    tier: Tier::PersSsd,
                    overprov: 0.5,
                },
            );
        }
        // The first violation in spec order, as `evaluate` reports it.
        let err = IncrementalEval::new(&ctx, &plan).unwrap_err();
        assert_eq!(err, evaluate(&plan, &ctx).unwrap_err());
        assert!(matches!(
            err,
            SolverError::CapacityViolation { job, .. } if job == spec.jobs[1].id.0
        ));
    }

    #[test]
    fn memo_absorbs_quantized_capacity_space() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let plan = TieringPlan::uniform(&spec, Tier::PersSsd);
        let mut inc = IncrementalEval::new(&ctx, &plan).unwrap();
        inc.score().unwrap();
        let after_first = inc.memo_len();
        // Toggle one job back and forth: the revisited states must not
        // grow the memo.
        let original = inc.assignments()[0];
        let mut undo = Vec::new();
        for _ in 0..8 {
            inc.apply(
                &[(
                    0,
                    Assignment {
                        tier: Tier::PersHdd,
                        overprov: 2.0,
                    },
                )],
                &mut undo,
            )
            .unwrap();
            inc.score().unwrap();
            inc.restore(&undo);
            inc.score().unwrap();
        }
        assert_eq!(inc.assignments()[0], original);
        let grown = inc.memo_len() - after_first;
        // One new (tier, capacity) point per affected tier on the first
        // toggle; every later toggle hits the cache.
        assert!(grown <= spec.jobs.len() * 2, "memo grew by {grown}");
    }
}
