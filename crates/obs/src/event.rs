//! Structured trace events.
//!
//! Every event carries a monotonic sequence number (assigned by the
//! [`Collector`](crate::Collector) at emission time) and a timestamp `t`.
//! For simulator events `t` is simulated seconds; for solver events it is
//! the annealing iteration index. The payload is an [`EventBody`] — one
//! variant per point in the span taxonomy:
//!
//! * simulator: job → phase → wave → task, plus tier-contention samples and
//!   fault edges;
//! * solver: restart → epoch → move, with acceptance / temperature / score
//!   payloads.
//!
//! Seeds are stored as `i64` (`seed as i64`) because the vendored serde shim
//! represents all JSON integers as `i64`; cast back with `as u64` to recover
//! the original bits.

use serde::{Deserialize, Serialize};

/// One trace record: sequence number, timestamp and payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic per-collector sequence number (emission order).
    pub seq: u64,
    /// Simulated seconds (sim events) or iteration index (solver events).
    pub t: f64,
    /// The structured payload.
    pub body: EventBody,
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventBody {
    /// A job became runnable and entered its first phase.
    JobStart {
        /// Simulator job index.
        job: u32,
        /// Job name from the workload spec.
        name: String,
    },
    /// A job retired all of its tasks.
    JobEnd {
        /// Simulator job index.
        job: u32,
        /// Completion minus submission, in simulated seconds.
        makespan: f64,
    },
    /// A job moved to a new execution phase (map / shuffle / reduce / …).
    Phase {
        /// Simulator job index.
        job: u32,
        /// Phase name, e.g. `"map"`.
        phase: String,
    },
    /// One dispatch round launched `tasks` tasks of a job — a wave.
    Wave {
        /// Simulator job index.
        job: u32,
        /// Phase the wave belongs to.
        phase: String,
        /// Number of tasks launched in this round.
        tasks: u32,
    },
    /// A task-lifecycle edge (started / finished / failed / retried /
    /// speculated / killed).
    Task {
        /// Simulator job index.
        job: u32,
        /// VM the task runs on.
        vm: u32,
        /// Slot pool the task occupies: `"map"`, `"reduce"` or
        /// `"transfer"`.
        slot: String,
        /// Lifecycle edge name, e.g. `"started"` or `"killed"`.
        kind: String,
    },
    /// Sampled tier-bandwidth contention: aggregate demand vs. capacity.
    ///
    /// Sampled every `CONTENTION_STRIDE` engine steps, so sample *timing*
    /// depends on how the emitting engine discretizes time — the
    /// event-driven simulator takes far fewer (and differently spaced)
    /// steps than its reference stepper for the same scenario. Treat the
    /// series as a load profile, not a step-synchronous signal.
    Contention {
        /// Storage tier name.
        tier: String,
        /// Registered flow count across the tier's volumes.
        demand: f64,
        /// Aggregate bandwidth capacity (MB/s) across the tier's volumes.
        capacity: f64,
    },
    /// A fault-injection edge fired (crash / recover / degradation).
    Fault {
        /// Edge name, e.g. `"crash"`.
        kind: String,
        /// Affected VM (or `u32::MAX` for cluster-wide edges).
        vm: u32,
    },
    /// An annealing restart chain began.
    RestartStart {
        /// Restart index within the solve.
        restart: u32,
        /// Chain seed bits (cast from `u64`; recover with `as u64`).
        seed: i64,
    },
    /// An annealing restart chain finished.
    RestartEnd {
        /// Restart index within the solve.
        restart: u32,
        /// Best score reached by the chain.
        score: f64,
        /// Iterations executed.
        iterations: u64,
        /// Moves accepted (downhill + uphill).
        accepted: u64,
    },
    /// A sampled annealing move (one per trace stride).
    Move {
        /// Restart index within the solve.
        restart: u32,
        /// Iteration index of the sampled move.
        iter: u64,
        /// Score of the proposed neighbour.
        score: f64,
        /// Best score so far in this chain.
        best: f64,
        /// Temperature at the sample point.
        temp: f64,
        /// Whether the move was accepted.
        accepted: bool,
    },
    /// Aggregate counters over one trace-stride window of a chain.
    Epoch {
        /// Restart index within the solve.
        restart: u32,
        /// Iteration index at the window end.
        iter: u64,
        /// Best score so far in this chain.
        best: f64,
        /// Temperature at the window end.
        temp: f64,
        /// Moves accepted since the chain started.
        accepted: u64,
        /// Uphill moves accepted since the chain started.
        uphill: u64,
    },
    /// One online-runtime epoch boundary: the replanning decision and its
    /// outcome. `t` is the epoch's start in stream seconds.
    EpochPlan {
        /// Epoch index within the run.
        epoch: u32,
        /// Jobs that arrived during the epoch (this boundary's batch).
        arrivals: u32,
        /// Whether the annealer was re-run at this boundary.
        replanned: bool,
        /// Whether the candidate plan was adopted (hysteresis may veto).
        adopted: bool,
        /// Candidate's relative score gain over the incumbent (0 when no
        /// replan ran).
        score_delta: f64,
        /// Jobs whose tier assignment changed at this boundary.
        churn: u32,
    },
    /// One scheduled data migration (a plan delta turned into movement
    /// work charged through the simulator).
    Migration {
        /// Epoch index the migration was scheduled at.
        epoch: u32,
        /// Source tier name.
        from: String,
        /// Destination tier name.
        to: String,
        /// Bytes moved, in MB.
        mb: f64,
    },
    /// A copy→verify→retire migration crossed a protocol phase boundary.
    MigrationPhase {
        /// Epoch index the migration was scheduled at.
        epoch: u32,
        /// Dataset being moved.
        dataset: u32,
        /// Protocol phase: `"copy"`, `"verify"`, `"retire"` or
        /// `"rollback"`.
        phase: String,
        /// Attempt number (first try = 1); 0 where no retry applies.
        attempt: u32,
        /// Bytes the phase streams, in MB.
        mb: f64,
    },
    /// An unsafe migration faulted mid-move and destroyed the only copy
    /// of a dataset.
    ShardLost {
        /// Affected dataset.
        dataset: u32,
        /// Shards lost at this edge.
        lost: u32,
        /// Live shards remaining after the edge.
        remaining: u32,
        /// Whether the loss exceeds the scheme's tolerance (data gone).
        fatal: bool,
    },
    /// One tenant's epoch under fleet scheduling: the tenant/shard span
    /// dimension. `t` is the epoch boundary in stream seconds. Emitted by
    /// `cast-fleet` at settlement, in deterministic (shard, tenant)
    /// order, so traces are byte-identical across worker counts.
    TenantEpoch {
        /// Fleet-unique tenant id.
        tenant: u32,
        /// Shard the tenant hashes onto.
        shard: u32,
        /// Region epoch index.
        epoch: u32,
        /// Admission outcome: `"admitted"`, `"deferred"` or `"rejected"`.
        admission: String,
        /// Fraction of the tenant's demanded capacity the fair-share
        /// allocator granted (1.0 = uncontended, 0.0 = not admitted).
        granted_frac: f64,
        /// How the epoch's plan was obtained: `"fresh"` (annealer ran),
        /// `"deduped"` (fanned out from an identical tenant's solve) or
        /// `"skipped"` (replan-skip gate held).
        planned: String,
    },
}

impl EventBody {
    /// Short span-taxonomy label for the variant, e.g. `"task"` or `"move"`.
    pub fn label(&self) -> &'static str {
        match self {
            EventBody::JobStart { .. } => "job_start",
            EventBody::JobEnd { .. } => "job_end",
            EventBody::Phase { .. } => "phase",
            EventBody::Wave { .. } => "wave",
            EventBody::Task { .. } => "task",
            EventBody::Contention { .. } => "contention",
            EventBody::Fault { .. } => "fault",
            EventBody::RestartStart { .. } => "restart_start",
            EventBody::RestartEnd { .. } => "restart_end",
            EventBody::Move { .. } => "move",
            EventBody::Epoch { .. } => "epoch",
            EventBody::EpochPlan { .. } => "epoch_plan",
            EventBody::Migration { .. } => "migration",
            EventBody::MigrationPhase { .. } => "migration_phase",
            EventBody::ShardLost { .. } => "shard_lost",
            EventBody::TenantEpoch { .. } => "tenant_epoch",
        }
    }
}
