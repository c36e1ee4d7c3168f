//! The migration scheduler: turning a plan delta into data movement.
//!
//! When a replan changes a job's tier, the job's input data has to
//! physically relocate before the job can run under the new placement.
//! [`plan_delta`] diffs two plans over one epoch's spec and emits one
//! [`MigrationSpec`] per dataset whose *home* changed; the simulator then
//! charges the movement through the same bandwidth-sharing machinery as
//! every other flow, and the jobs reading the moved data wait for it
//! (everything else keeps running against the old layout).
//!
//! [`execute_schedule`] then lowers the schedule under a
//! [`MigrationProtocol`]:
//!
//! * **unsafe** (the default) streams each move destructively — one copy
//!   flow per move, source retired as it drains. A fault mid-move
//!   destroys the only copy and the dataset is gone.
//! * **copy→verify→retire** retains the source until a verification read
//!   of the destination passes. Each failed copy attempt still costs its
//!   partial bandwidth plus exponential backoff; when the attempt budget
//!   runs out the move *rolls back* — readers keep the old placement and
//!   no byte is ever lost.
//!
//! Every flow the protocol emits is an ordinary [`MigrationSpec`]
//! chained through `after`, so retries, verify passes and foreground
//! jobs all contend for tier bandwidth in one simulation. Fault draws
//! come from the simulator's keyed task-fault RNG
//! ([`cast_sim::fault::attempt_rng`]) with `uid = (epoch << 32) | move`,
//! so sweeps are monotone and runs are bit-reproducible.

use std::collections::HashMap;

use cast_cloud::tier::Tier;
use cast_cloud::units::DataSize;
use cast_obs::{Collector, EventBody};
use cast_sim::fault::attempt_rng;
use cast_sim::MigrationSpec;
use cast_solver::TieringPlan;
use cast_workload::{DatasetId, JobId, WorkloadSpec};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::MigrationProtocol;

/// Where a dataset physically lives for a job assigned to `assigned`.
/// Ephemeral SSD is transient — its data's durable home is the backing
/// object store, from which each run stages in (§3.1.2's convention), so
/// reassigning a job between ephemeral SSD and the object store moves no
/// bytes ahead of time.
pub fn home_tier(assigned: Tier) -> Tier {
    match assigned {
        Tier::EphSsd => Tier::ObjStore,
        t => t,
    }
}

/// The migrations implied by switching an epoch from `from_plan` to
/// `to_plan`, plus summary statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationSchedule {
    /// One movement per relocating dataset, in first-reader order.
    pub moves: Vec<MigrationSpec>,
    /// The dataset each move relocates, parallel to `moves`.
    pub datasets: Vec<DatasetId>,
    /// Total bytes scheduled to move.
    pub total: DataSize,
    /// Jobs whose tier assignment changed (the plan-churn gauge; counts
    /// assignment flips even when no bytes move, e.g. ephemeral SSD ↔
    /// object store).
    pub churn: usize,
}

/// Diff `from_plan` → `to_plan` over `spec`'s jobs. Jobs missing from
/// either plan are skipped. A dataset shared by several jobs moves once,
/// to the home of its first reader's new tier, and every reader of the
/// moved dataset blocks on the move.
pub fn plan_delta(
    spec: &WorkloadSpec,
    from_plan: &TieringPlan,
    to_plan: &TieringPlan,
) -> MigrationSchedule {
    let mut sched = MigrationSchedule::default();
    let mut by_dataset: HashMap<DatasetId, usize> = HashMap::new();
    for job in &spec.jobs {
        let (Some(a), Some(b)) = (from_plan.get(job.id), to_plan.get(job.id)) else {
            continue;
        };
        if a.tier != b.tier {
            sched.churn += 1;
        }
        let (src, dst) = (home_tier(a.tier), home_tier(b.tier));
        if let Some(&idx) = by_dataset.get(&job.dataset) {
            // Dataset already scheduled by an earlier reader: this job
            // must observe the same move.
            sched.moves[idx].blocks.push(job.id);
            continue;
        }
        if src == dst {
            continue;
        }
        let bytes = spec
            .dataset(job.dataset)
            .map(|d| d.size)
            .unwrap_or(job.input);
        if bytes.bytes() <= 0.0 {
            continue;
        }
        by_dataset.insert(job.dataset, sched.moves.len());
        sched.total += bytes;
        sched.datasets.push(job.dataset);
        sched.moves.push(MigrationSpec {
            id: sched.moves.len() as u32,
            bytes,
            from: src,
            to: dst,
            blocks: vec![job.id],
            after: vec![],
        });
    }
    sched
}

/// What [`execute_schedule`] did with one epoch's migration schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProtocolOutcome {
    /// Flows to hand the simulator: copies (full and aborted partials)
    /// and verify passes, `after`-chained per move.
    pub flows: Vec<MigrationSpec>,
    /// Datasets destroyed by faulted unsafe moves. Always empty under
    /// copy→verify→retire.
    pub lost: Vec<DatasetId>,
    /// Jobs whose new-plan assignment must revert because their move
    /// rolled back (readers keep the old placement).
    pub rolled_back_jobs: Vec<JobId>,
    /// Moves whose data landed and was verified (or streamed without a
    /// fault under the unsafe protocol).
    pub committed: usize,
    /// Copy attempts that failed and were retried.
    pub retries: usize,
    /// Moves abandoned after exhausting their attempt budget.
    pub rollbacks: usize,
    /// Total retry backoff serialized into the epoch, seconds.
    pub backoff_secs: f64,
    /// Verification read traffic, MB.
    pub verify_mb: f64,
    /// Bandwidth burned by aborted partial copies, MB.
    pub wasted_mb: f64,
}

/// Fraction of a move's bytes a faulted copy attempt streams before
/// dying, drawn uniformly from `[0.1, 0.9)` — partial work is paid for
/// even though it is thrown away.
fn partial_fraction(rng: &mut StdRng) -> f64 {
    0.1 + 0.8 * rng.gen::<f64>()
}

/// Emit one [`EventBody::MigrationPhase`], building its payload only when
/// `collector` records.
fn emit_phase(
    collector: &Collector,
    epoch: u32,
    dataset: DatasetId,
    phase: &str,
    attempt: u32,
    mb: f64,
) {
    if collector.enabled() {
        collector.emit(
            0.0,
            EventBody::MigrationPhase {
                epoch,
                dataset: dataset.0,
                phase: phase.to_string(),
                attempt,
                mb,
            },
        );
    }
}

/// Run `sched` through `protocol` under a per-attempt fault probability,
/// producing the flow list to simulate plus the protocol's accounting.
///
/// With `fault_prob == 0` and the unsafe protocol the flows are exactly
/// `sched.moves` — the pre-protocol behaviour, bit for bit. Protocol
/// phase transitions are emitted to `collector` as
/// [`EventBody::MigrationPhase`] events (none under faultless unsafe
/// moves, keeping default traces unchanged).
pub fn execute_schedule(
    sched: &MigrationSchedule,
    protocol: MigrationProtocol,
    fault_prob: f64,
    seed: u64,
    epoch: u32,
    collector: &Collector,
) -> ProtocolOutcome {
    let mut out = ProtocolOutcome::default();
    let mut next_id = 0u32;
    for (i, m) in sched.moves.iter().enumerate() {
        let dataset = sched.datasets[i];
        // Copy attempts draw from the simulator's keyed fault RNG, so
        // failure sets couple across fault intensities.
        let uid = (u64::from(epoch) << 32) | u64::from(m.id);
        match protocol {
            MigrationProtocol::Unsafe => {
                let mut rng = attempt_rng(seed, uid, 1);
                let faulted = fault_prob > 0.0 && rng.gen::<f64>() < fault_prob;
                if !faulted {
                    out.flows.push(MigrationSpec {
                        id: next_id,
                        ..m.clone()
                    });
                    out.committed += 1;
                    next_id += 1;
                    continue;
                }
                // The move died with the source partially retired: the
                // only surviving copy is incomplete. Data loss.
                let frac = partial_fraction(&mut rng);
                let partial = DataSize::from_bytes(m.bytes.bytes() * frac);
                out.wasted_mb += partial.mb();
                out.lost.push(dataset);
                emit_phase(collector, epoch, dataset, "copy", 1, partial.mb());
                collector.emit(
                    0.0,
                    EventBody::ShardLost {
                        dataset: dataset.0,
                        lost: 1,
                        remaining: 0,
                        fatal: true,
                    },
                );
                out.flows.push(MigrationSpec {
                    id: next_id,
                    bytes: partial,
                    blocks: vec![], // nothing left to wait for
                    ..m.clone()
                });
                next_id += 1;
            }
            MigrationProtocol::CopyVerifyRetire {
                max_attempts,
                backoff_secs,
            } => {
                let mut prev: Option<u32> = None;
                let mut committed = false;
                for attempt in 1..=max_attempts.max(1) {
                    let mut rng = attempt_rng(seed, uid, attempt);
                    let faulted = fault_prob > 0.0 && rng.gen::<f64>() < fault_prob;
                    let after: Vec<u32> = prev.into_iter().collect();
                    if faulted {
                        let frac = partial_fraction(&mut rng);
                        let partial = DataSize::from_bytes(m.bytes.bytes() * frac);
                        out.wasted_mb += partial.mb();
                        out.retries += 1;
                        out.backoff_secs += backoff_secs * f64::from(1u32 << (attempt - 1).min(16));
                        emit_phase(collector, epoch, dataset, "copy", attempt, partial.mb());
                        out.flows.push(MigrationSpec {
                            id: next_id,
                            bytes: partial,
                            blocks: vec![],
                            after,
                            ..m.clone()
                        });
                        prev = Some(next_id);
                        next_id += 1;
                        continue;
                    }
                    // Copy landed in full; verify it with a read pass
                    // over the destination before retiring the source.
                    emit_phase(collector, epoch, dataset, "copy", attempt, m.bytes.mb());
                    out.flows.push(MigrationSpec {
                        id: next_id,
                        blocks: vec![],
                        after,
                        ..m.clone()
                    });
                    let copy_id = next_id;
                    next_id += 1;
                    emit_phase(collector, epoch, dataset, "verify", attempt, m.bytes.mb());
                    out.verify_mb += m.bytes.mb();
                    out.flows.push(MigrationSpec {
                        id: next_id,
                        bytes: m.bytes,
                        from: m.to,
                        to: m.to,
                        blocks: m.blocks.clone(),
                        after: vec![copy_id],
                    });
                    next_id += 1;
                    emit_phase(collector, epoch, dataset, "retire", attempt, m.bytes.mb());
                    out.committed += 1;
                    committed = true;
                    break;
                }
                if !committed {
                    // Attempt budget exhausted: abandon the move. The
                    // source was never retired, so readers simply keep
                    // the old placement — no data at risk.
                    out.rollbacks += 1;
                    out.rolled_back_jobs.extend(m.blocks.iter().copied());
                    emit_phase(collector, epoch, dataset, "rollback", max_attempts, 0.0);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_solver::Assignment;
    use cast_workload::{AppKind, Dataset, Job, JobId};

    fn assignment(tier: Tier) -> Assignment {
        Assignment {
            tier,
            overprov: 1.0,
        }
    }

    fn spec_with(jobs: &[(u32, u32, f64)]) -> WorkloadSpec {
        // (job id, dataset id, gb)
        let mut spec = WorkloadSpec::empty();
        for &(j, d, gb) in jobs {
            let job = Job::with_default_layout(
                JobId(j),
                AppKind::Grep,
                DatasetId(d),
                DataSize::from_gb(gb),
            );
            if spec.dataset(DatasetId(d)).is_none() {
                spec.datasets
                    .push(Dataset::single_use(DatasetId(d), job.input));
            }
            spec.jobs.push(job);
        }
        spec
    }

    fn plan_of(assignments: &[(u32, Tier)]) -> TieringPlan {
        let mut plan = TieringPlan::new();
        for &(j, t) in assignments {
            plan.assign(JobId(j), assignment(t));
        }
        plan
    }

    #[test]
    fn unchanged_plan_schedules_nothing() {
        let spec = spec_with(&[(0, 0, 10.0), (1, 1, 20.0)]);
        let p = plan_of(&[(0, Tier::PersSsd), (1, Tier::PersHdd)]);
        let sched = plan_delta(&spec, &p, &p);
        assert!(sched.moves.is_empty());
        assert_eq!(sched.churn, 0);
        assert!(sched.total.is_zero());
    }

    #[test]
    fn tier_change_moves_the_dataset_and_blocks_the_job() {
        let spec = spec_with(&[(0, 0, 10.0), (1, 1, 20.0)]);
        let from = plan_of(&[(0, Tier::PersHdd), (1, Tier::PersHdd)]);
        let to = plan_of(&[(0, Tier::PersSsd), (1, Tier::PersHdd)]);
        let sched = plan_delta(&spec, &from, &to);
        assert_eq!(sched.churn, 1);
        assert_eq!(sched.moves.len(), 1);
        let m = &sched.moves[0];
        assert_eq!((m.from, m.to), (Tier::PersHdd, Tier::PersSsd));
        assert_eq!(m.blocks, vec![JobId(0)]);
        assert_eq!(sched.total, DataSize::from_gb(10.0));
    }

    #[test]
    fn shared_dataset_moves_once_but_blocks_all_readers() {
        let spec = spec_with(&[(0, 5, 40.0), (1, 5, 40.0)]);
        let from = plan_of(&[(0, Tier::PersHdd), (1, Tier::PersHdd)]);
        let to = plan_of(&[(0, Tier::PersSsd), (1, Tier::PersSsd)]);
        let sched = plan_delta(&spec, &from, &to);
        assert_eq!(sched.moves.len(), 1);
        assert_eq!(sched.moves[0].blocks, vec![JobId(0), JobId(1)]);
        assert_eq!(sched.churn, 2);
        assert_eq!(sched.total, DataSize::from_gb(40.0));
    }

    fn two_move_schedule() -> MigrationSchedule {
        let spec = spec_with(&[(0, 0, 10.0), (1, 1, 20.0)]);
        let from = plan_of(&[(0, Tier::PersHdd), (1, Tier::PersHdd)]);
        let to = plan_of(&[(0, Tier::PersSsd), (1, Tier::ObjStore)]);
        plan_delta(&spec, &from, &to)
    }

    #[test]
    fn faultless_unsafe_flows_are_the_schedule_itself() {
        let sched = two_move_schedule();
        let out = execute_schedule(
            &sched,
            MigrationProtocol::Unsafe,
            0.0,
            7,
            0,
            &Collector::noop(),
        );
        assert_eq!(out.flows, sched.moves);
        assert_eq!(out.committed, 2);
        assert_eq!(
            (out.retries, out.rollbacks, out.lost.len(), out.wasted_mb),
            (0, 0, 0, 0.0)
        );
    }

    #[test]
    fn faultless_cvr_adds_chained_verify_passes() {
        let sched = two_move_schedule();
        let out = execute_schedule(
            &sched,
            MigrationProtocol::safe(),
            0.0,
            7,
            0,
            &Collector::noop(),
        );
        assert_eq!(out.flows.len(), 4, "copy + verify per move");
        assert_eq!(out.committed, 2);
        assert!((out.verify_mb - sched.total.mb()).abs() < 1e-9);
        for i in 0..sched.moves.len() {
            let copy = &out.flows[2 * i];
            let verify = &out.flows[2 * i + 1];
            assert!(copy.blocks.is_empty(), "readers wait on verify, not copy");
            assert_eq!(verify.after, vec![copy.id]);
            assert_eq!((verify.from, verify.to), (copy.to, copy.to));
            assert_eq!(verify.blocks, sched.moves[i].blocks);
        }
        assert!(out.lost.is_empty());
        assert_eq!(out.backoff_secs, 0.0);
    }

    #[test]
    fn certain_faults_roll_cvr_back_without_loss() {
        let sched = two_move_schedule();
        let col = Collector::recording();
        let out = execute_schedule(&sched, MigrationProtocol::safe(), 1.0, 7, 0, &col);
        assert_eq!(out.rollbacks, 2);
        assert_eq!(out.committed, 0);
        assert!(out.lost.is_empty(), "CVR never loses data");
        assert_eq!(out.rolled_back_jobs, vec![JobId(0), JobId(1)]);
        assert_eq!(out.retries, 6, "3 attempts per move all burned");
        // 5 + 10 + 20 per move.
        assert!((out.backoff_secs - 70.0).abs() < 1e-9);
        assert!(out.wasted_mb > 0.0);
        // Partial attempts chain so retries serialize on the tier.
        assert_eq!(out.flows[1].after, vec![out.flows[0].id]);
        assert!(out.flows.iter().all(|f| f.blocks.is_empty()));
        let labels: Vec<String> = col
            .events()
            .iter()
            .filter_map(|e| match &e.body {
                cast_obs::EventBody::MigrationPhase { phase, .. } => Some(phase.clone()),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"rollback".to_string()));
    }

    #[test]
    fn certain_faults_lose_data_under_unsafe() {
        let sched = two_move_schedule();
        let col = Collector::recording();
        let out = execute_schedule(&sched, MigrationProtocol::Unsafe, 1.0, 7, 0, &col);
        assert_eq!(out.lost, vec![DatasetId(0), DatasetId(1)]);
        assert_eq!(out.committed, 0);
        assert!(out.wasted_mb > 0.0);
        // The partial flows still contend for bandwidth but gate nobody.
        assert_eq!(out.flows.len(), 2);
        assert!(out.flows.iter().all(|f| f.blocks.is_empty()));
        assert!(out
            .flows
            .iter()
            .zip(&sched.moves)
            .all(|(f, m)| f.bytes.mb() < m.bytes.mb()));
        let fatal = col
            .events()
            .iter()
            .any(|e| matches!(e.body, cast_obs::EventBody::ShardLost { fatal: true, .. }));
        assert!(fatal, "unsafe loss must surface as a fatal ShardLost event");
    }

    #[test]
    fn protocol_outcomes_are_deterministic() {
        let sched = two_move_schedule();
        let run = || {
            execute_schedule(
                &sched,
                MigrationProtocol::safe(),
                0.5,
                42,
                3,
                &Collector::noop(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ephemeral_and_objstore_share_a_home() {
        let spec = spec_with(&[(0, 0, 10.0)]);
        let from = plan_of(&[(0, Tier::ObjStore)]);
        let to = plan_of(&[(0, Tier::EphSsd)]);
        let sched = plan_delta(&spec, &from, &to);
        assert!(sched.moves.is_empty(), "no bytes move ahead of staging");
        assert_eq!(sched.churn, 1, "the assignment still counts as churn");
    }
}
