//! The event-driven discrete-event engine.
//!
//! The engine owns the job table, the active task set and the resource
//! registry. Work per event is proportional to the number of *affected*
//! flows, not the number of active tasks:
//!
//! * **Incremental share rates** — every streaming stage registers
//!   persistent flows in the [`ShareRegistry`]; when a resource's load or
//!   capacity changes, only the tasks with a flow on that resource are
//!   recomputed (the registry's dirty-set drives this). A task whose
//!   recomputed rate is bit-equal to its current rate keeps its heap
//!   entry untouched.
//! * **Completion heap** — each task's predicted completion (or doom
//!   point) sits in an *indexed* binary min-heap (`TaskHeap`): the
//!   task table stores each entry's heap position, so a rate change
//!   re-keys the existing entry in place (one sift) and task removal
//!   deletes it outright. The heap holds exactly one entry per
//!   scheduled task — no stale entries, no validity checks on pop, no
//!   compaction passes. Scheduled fault events and retry wake-ups live
//!   in a small separate wake heap of bare timestamps.
//! * **Lazy task advancement** — a task records `(anchor clock, rate)`
//!   and materializes its remaining units only when its rate changes, it
//!   completes, it fails, or speculation samples it. Between rate changes
//!   no per-event bookkeeping touches it.
//! * **Slot pools** — each slot kind keeps one pool of free slots per
//!   VM, with a lazy max-heap that answers the most-free-VM question in
//!   O(log n); a saturated pool's heap is empty, so its "no slot" answer
//!   is O(1). Dispatch, retries and speculative backups all take their
//!   slots through it.
//!
//! ## Data-oriented hot state
//!
//! Per-task state is struct-of-arrays (`soa::TaskTable`): flat
//! index-parallel columns addressed by dense indices, with the current
//! stage's remaining work and pre-resolved resource indices mirrored into
//! hot columns so a rate refresh reads four contiguous arrays instead of
//! chasing per-task pointers. Task templates are interned in a
//! reference-counted arena (`soa::TemplateArena`) — dispatch
//! moves them out of the job queue once; retries and speculative backups
//! share by id instead of cloning boxes. Stage buffers, retry slots, the
//! slot pools, every per-run scratch vector and the run loop's scalars
//! (clock, cursors, counters) live in an [`EngineScratch`] that can be
//! reused across runs ([`Engine::with_scratch`]), so repeated simulation
//! of the same catalog allocates nothing in steady state
//! ([`EngineStats::scratch_reallocs`] proves it). The scratch plus the
//! job runs is the whole simulation state, which is what
//! [`Engine::snapshot`] copies.
//!
//! The pre-overhaul stepper that recomputed every rate and advanced every
//! task on every event survives as [`crate::reference::ReferenceEngine`]
//! and serves as the equivalence oracle: both engines agree within 1e-6
//! relative on makespan and per-job phase times across randomized
//! workloads, placements and fault plans (`tests/engine_equivalence.rs`).
//! Decision points — dispatch order, VM picks, fault arming, speculation
//! policy — are kept in lockstep between the two implementations; edit
//! them together. The two share the fault draw, report assembly and the
//! stall and budget errors; each keeps its own time advancement, VM pick
//! and slot counts, so the oracle checks those independently.
//!
//! ## Fault injection and recovery
//!
//! When [`SimConfig::faults`] carries a non-empty
//! [`crate::fault::FaultPlan`], the engine layers recovery semantics on
//! top of the event loop:
//!
//! * every task attempt draws — from an RNG keyed by `(plan seed, task
//!   uid, attempt)` — whether and where it fails mid-stream;
//! * failed tasks re-enqueue with exponential backoff, up to the plan's
//!   attempt budget ([`SimError::JobFailed`] beyond it);
//! * scheduled VM crashes kill resident tasks (re-enqueued at the *same*
//!   attempt — the crash was not their fault) and take the VM's slots
//!   offline until the scheduled recovery, if any;
//! * degradation windows scale volume capacities for their duration;
//! * optional Hadoop-style speculation launches a backup copy of any task
//!   streaming slower than a configured fraction of its wave's median
//!   rate; whichever copy finishes first kills the other.
//!
//! The empty plan takes none of these code paths, so fault-free
//! simulations are bit-identical with the machinery present.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::Rng;

use cast_obs::{Collector, Counter, EventBody, Histogram};

use crate::config::{Concurrency, SimConfig, EVENT_BUDGET};
use crate::error::SimError;
use crate::fault::{attempt_rng, FaultPlan};
use crate::jobrun::{JobPhase, JobRun};
use crate::metrics::{FaultSummary, JobMetrics, SimReport};
use crate::resources::{ResKind, ShareRegistry};
use crate::soa::{
    TaskTable, TemplateArena, NO_DOOM, NO_HEAP, NO_POS, NO_RES, NO_TEMPLATE, NO_TWIN,
};
use crate::task::{bind_spec, BoundStage, RunningTask, SlotKind, TaskTemplate};
use cast_cloud::units::Duration;

/// Completion tolerance for floating-point progress.
pub(crate) const EPS: f64 = 1e-9;
/// High bit marking the uid of a speculative backup copy.
pub(crate) const BACKUP_BIT: u64 = 1 << 63;
/// Cap on consecutive simulated object-store request retries per stage.
pub(crate) const MAX_OBJ_RETRIES: u32 = 16;
/// Engine steps between tier-contention samples on a recording collector.
pub(crate) const CONTENTION_STRIDE: u64 = 32;

/// Observability handles, resolved once at engine construction so the hot
/// loop never touches the registry. With a no-op collector every operation
/// is a single branch; none of them feed back into the simulation.
pub(crate) struct SimObs {
    pub(crate) col: Collector,
    pub(crate) started: Counter,
    pub(crate) finished: Counter,
    pub(crate) failed: Counter,
    pub(crate) retried: Counter,
    pub(crate) speculated: Counter,
    pub(crate) killed: Counter,
    pub(crate) steps: Counter,
    pub(crate) fault_edges: Counter,
    pub(crate) wave_tasks: Histogram,
}

impl SimObs {
    pub(crate) fn new(col: Collector) -> SimObs {
        SimObs {
            started: col.counter("sim.tasks.started"),
            finished: col.counter("sim.tasks.finished"),
            failed: col.counter("sim.tasks.failed"),
            retried: col.counter("sim.tasks.retried"),
            speculated: col.counter("sim.tasks.speculated"),
            killed: col.counter("sim.tasks.killed"),
            steps: col.counter("sim.steps"),
            fault_edges: col.counter("sim.fault.edges"),
            wave_tasks: col.histogram(
                "sim.wave_tasks",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
            ),
            col,
        }
    }

    /// Count one task-lifecycle edge under `sim.tasks.*` and, on a
    /// recording collector, emit it as a `task` event at time `t`.
    pub(crate) fn task(&self, t: f64, job: usize, vm: u32, slot: SlotKind, kind: TaskEventKind) {
        let (counter, label) = match kind {
            TaskEventKind::Started => (&self.started, "started"),
            TaskEventKind::Finished => (&self.finished, "finished"),
            TaskEventKind::Failed => (&self.failed, "failed"),
            TaskEventKind::Retried => (&self.retried, "retried"),
            TaskEventKind::Speculated => (&self.speculated, "speculated"),
            TaskEventKind::Killed => (&self.killed, "killed"),
        };
        counter.inc();
        if self.col.enabled() {
            let slot = match slot {
                SlotKind::Map => "map",
                SlotKind::Reduce => "reduce",
                SlotKind::Transfer => "transfer",
            };
            self.col.emit(
                t,
                EventBody::Task {
                    job: job as u32,
                    vm,
                    slot: slot.to_string(),
                    kind: label.to_string(),
                },
            );
        }
    }
}

/// A task-lifecycle edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskEventKind {
    /// A task was dispatched onto a slot.
    Started,
    /// A task finished and released its slot.
    Finished,
    /// A task attempt failed mid-run (fault injection).
    Failed,
    /// A previously failed or killed task was re-dispatched.
    Retried,
    /// A speculative backup copy of a straggler was launched.
    Speculated,
    /// A task was killed — its VM crashed, or its twin won the
    /// speculative race.
    Killed,
}

/// A scheduled point where the fault plan changes the cluster.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultEvent {
    pub(crate) at: f64,
    pub(crate) kind: FaultEventKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultEventKind {
    Crash(u32),
    Recover(u32),
    /// A degradation window opens or closes; capacities are re-derived
    /// from scratch at every edge.
    DegradationEdge,
}

/// A failed or crash-killed task waiting out its retry backoff.
/// Arena-backed: `tid` holds one reference on the shared template, so a
/// retry allocates nothing.
#[derive(Debug, Clone, Copy)]
struct RetrySlot {
    ready_at: f64,
    job: u32,
    uid: u64,
    attempt: u32,
    tid: u32,
}

/// A failed or crash-killed task waiting out its retry backoff
/// (reference stepper's boxed form).
#[derive(Debug, Clone)]
pub(crate) struct RetryEntry {
    pub(crate) ready_at: f64,
    pub(crate) job: usize,
    pub(crate) uid: u64,
    pub(crate) attempt: u32,
    pub(crate) template: Box<TaskTemplate>,
}

/// Engine-side fault bookkeeping for the reference stepper (the
/// event-driven engine keeps the same state inside [`EngineScratch`]).
pub(crate) struct FaultState {
    pub(crate) enabled: bool,
    pub(crate) crashed: Vec<bool>,
    pub(crate) events: Vec<FaultEvent>,
    pub(crate) next_event: usize,
    pub(crate) retries: Vec<RetryEntry>,
    /// Per-job counter handing out stable task uids.
    pub(crate) seq: Vec<u32>,
    pub(crate) vm_crashes: u32,
}

impl FaultState {
    pub(crate) fn new(cfg: &SimConfig, njobs: usize) -> FaultState {
        let mut events = Vec::new();
        let enabled = !cfg.faults.is_empty();
        if enabled {
            build_fault_events(&cfg.faults, &mut events);
        }
        FaultState {
            enabled,
            crashed: vec![false; cfg.nvm],
            events,
            next_event: 0,
            retries: Vec::new(),
            seq: vec![0; njobs],
            vm_crashes: 0,
        }
    }
}

/// Fill `events` with the plan's scheduled edges, sorted by time.
pub(crate) fn build_fault_events(plan: &FaultPlan, events: &mut Vec<FaultEvent>) {
    for c in &plan.vm_crashes {
        events.push(FaultEvent {
            at: c.at_secs,
            kind: FaultEventKind::Crash(c.vm),
        });
        if let Some(d) = c.down_secs {
            events.push(FaultEvent {
                at: c.at_secs + d,
                kind: FaultEventKind::Recover(c.vm),
            });
        }
    }
    for w in &plan.degradations {
        for at in [w.start_secs, w.end_secs] {
            events.push(FaultEvent {
                at,
                kind: FaultEventKind::DegradationEdge,
            });
        }
    }
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
}

/// Execution statistics alongside a [`SimReport`]; see
/// [`Engine::run_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Engine steps (discrete events) processed.
    pub steps: u64,
    /// Always 0. It counted stale completion-heap entries, and the
    /// indexed heap has none: entries are re-keyed or removed in place.
    /// The field stays because benchmark reports still carry it.
    pub heap_stale_popped: u64,
    /// Wake sentinel entries pushed (fault edges at start-of-run, retry
    /// backoffs as they are scheduled).
    pub wake_entries_allocated: u64,
    /// Dirty-set drains that actually recomputed at least one flow
    /// (batched: one drain per clock advance covers every resource that
    /// changed in that event).
    pub dirty_drain_batches: u64,
    /// Internal buffers that had to grow during this run's scratch
    /// preparation. Zero when the engine reused a scratch last sized for
    /// an equal-or-larger catalog ([`Engine::with_scratch`]).
    pub scratch_reallocs: u64,
}

/// Outcome of a bounded run segment ([`Engine::run_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// The horizon was reached with work still in flight; the engine is
    /// live and can be advanced further, snapshotted, or forked.
    Running,
    /// Every job reached `Done`; call [`Engine::run`] or
    /// [`Engine::run_with_stats`] for the report.
    Done,
}

/// Indexed binary min-heap of predicted task milestones, keyed
/// `(time, task)` — earliest time first, ties broken by the smaller
/// task index for determinism. The task table's `heap_pos` column names
/// the slot each task's entry occupies (maintained by every sift), so
/// [`TaskHeap::set`] is an in-place re-key and [`TaskHeap::remove`] a
/// positional delete: at most one entry per task ever exists, and every
/// entry in the heap is live. The position column is passed in by the
/// caller (`&mut table.heap_pos`) to keep the borrows disjoint.
#[derive(Clone, Default)]
struct TaskHeap {
    v: Vec<(f64, u32)>,
}

impl TaskHeap {
    #[inline]
    fn less(a: (f64, u32), b: (f64, u32)) -> bool {
        match a.0.total_cmp(&b.0) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.1 < b.1,
        }
    }

    fn clear(&mut self) {
        self.v.clear();
    }

    #[inline]
    fn peek(&self) -> Option<(f64, u32)> {
        self.v.first().copied()
    }

    /// Insert task `t` at key `time`, or re-key its existing entry.
    fn set(&mut self, pos: &mut [u32], t: u32, time: f64) {
        let p = pos[t as usize];
        let i = if p == NO_HEAP {
            let i = self.v.len();
            self.v.push((time, t));
            pos[t as usize] = i as u32;
            i
        } else {
            self.v[p as usize].0 = time;
            p as usize
        };
        let i = self.sift_up(pos, i);
        self.sift_down(pos, i);
    }

    /// Delete task `t`'s entry, if it has one.
    fn remove(&mut self, pos: &mut [u32], t: u32) {
        let p = pos[t as usize];
        if p == NO_HEAP {
            return;
        }
        pos[t as usize] = NO_HEAP;
        let i = p as usize;
        let last = self.v.len() - 1;
        if i == last {
            self.v.pop();
            return;
        }
        self.v.swap(i, last);
        self.v.pop();
        pos[self.v[i].1 as usize] = i as u32;
        let i = self.sift_up(pos, i);
        self.sift_down(pos, i);
    }

    /// Pop the earliest entry.
    fn pop(&mut self, pos: &mut [u32]) -> Option<(f64, u32)> {
        let top = self.peek()?;
        self.remove(pos, top.1);
        Some(top)
    }

    /// Rename the task an entry refers to (after a table swap-remove
    /// moved the task to a new index). The key is unchanged but the
    /// tie-break component is, so re-sift to keep the invariant exact.
    fn retag(&mut self, pos: &mut [u32], p: u32, t: u32) {
        let i = p as usize;
        self.v[i].1 = t;
        pos[t as usize] = p;
        let i = self.sift_up(pos, i);
        self.sift_down(pos, i);
    }

    fn sift_up(&mut self, pos: &mut [u32], mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::less(self.v[i], self.v[parent]) {
                break;
            }
            self.v.swap(i, parent);
            pos[self.v[i].1 as usize] = i as u32;
            i = parent;
        }
        pos[self.v[i].1 as usize] = i as u32;
        i
    }

    fn sift_down(&mut self, pos: &mut [u32], mut i: usize) {
        let n = self.v.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && Self::less(self.v[r], self.v[l]) {
                r
            } else {
                l
            };
            if !Self::less(self.v[c], self.v[i]) {
                break;
            }
            self.v.swap(i, c);
            pos[self.v[i].1 as usize] = i as u32;
            i = c;
        }
        pos[self.v[i].1 as usize] = i as u32;
    }
}

/// Bare clock wake-up (scheduled fault event, retry backoff) in the
/// wake heap. Ordering reversed so `BinaryHeap` pops the earliest.
#[derive(PartialEq, Clone, Copy)]
struct Wake(f64);

impl Eq for Wake {}
impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Wake) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Wake {
    fn cmp(&self, other: &Wake) -> Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// One slot kind's free slots per VM. `heap` is a lazy max-heap of
/// `(free slots, vm)`, the O(log n) answer to the most-free-VM scan
/// [`pick_vm`] does on every launch: every live VM with free slots has a
/// current entry, and an entry whose count went out of date or whose VM
/// crashed is discarded when it surfaces, so a pool with no free slot
/// answers from an empty heap. Tuple order ties on the higher VM index,
/// matching `max_by_key`'s last-max-wins.
#[derive(Clone, Default)]
struct SlotPool {
    free: Vec<usize>,
    heap: BinaryHeap<(u32, u32)>,
}

impl SlotPool {
    /// Give each of `nvm` live VMs `slots` free slots.
    fn reset(&mut self, nvm: usize, slots: usize, grown: &mut u64) {
        fit(&mut self.free, nvm, slots, grown);
        if self.heap.capacity() < nvm {
            *grown += 1;
        }
        self.heap.clear();
        if slots > 0 {
            self.heap
                .extend((0..nvm).map(|vm| (slots as u32, vm as u32)));
        }
    }

    /// Record live VM `vm`'s new count; the entry it supersedes is
    /// discarded when it surfaces.
    #[inline]
    fn bump(&mut self, vm: usize) {
        let c = self.free[vm] as u32;
        if c > 0 {
            self.heap.push((c, vm as u32));
        }
    }

    /// [`pick_vm`] over this pool, leaving out `except` (a straggler's
    /// own host when placing its backup). Current entries for `except`
    /// are popped past; they all carry one `(count, vm)` value, so
    /// pushing one back keeps the VM represented.
    #[inline]
    fn pick(&mut self, crashed: &[bool], except: Option<usize>) -> Option<usize> {
        let mut stash = None;
        let found = loop {
            let Some(&(c, vm)) = self.heap.peek() else {
                break None;
            };
            let vm = vm as usize;
            if crashed[vm] || self.free[vm] as u32 != c {
                self.heap.pop();
            } else if Some(vm) == except {
                stash = self.heap.pop();
            } else {
                break Some(vm);
            }
        };
        if let Some(e) = stash {
            self.heap.push(e);
        }
        found
    }

    /// Occupy one free slot on live VM `vm`.
    #[inline]
    fn take(&mut self, vm: usize) {
        self.free[vm] -= 1;
        self.bump(vm);
    }

    /// Free one slot on `vm`; on a crashed VM it stays out of reach.
    fn release(&mut self, vm: usize, crashed: &[bool]) {
        self.free[vm] += 1;
        if !crashed[vm] {
            self.bump(vm);
        }
    }

    /// VM `vm` crashed: its count resets to the `slots` it brings back
    /// on recovery.
    fn crash(&mut self, vm: usize, slots: usize) {
        self.free[vm] = slots;
    }

    /// VM `vm` recovered: its free slots rejoin the heap.
    fn recover(&mut self, vm: usize) {
        self.bump(vm);
    }
}

/// The run loop's scalars: how far the run has got and what it has
/// counted. [`EngineScratch::prepare`] resets them, and a snapshot copies
/// them with the rest of the scratch.
#[derive(Clone, Default)]
struct LoopState {
    clock: f64,
    /// Set when a job reaches `Done` (re-runs dependency activation).
    jobs_changed: bool,
    dispatch_cursor: usize,
    /// Length of the prefix of the jobs that is entirely `Done`. Jobs
    /// only move monotonically into `Done`, so this never retreats; it
    /// turns sequential-mode activation's "any earlier job unfinished?"
    /// scan into an O(1) comparison (the scan is O(done-prefix) per
    /// waiting job, which goes quadratic-in-jobs on long sequential
    /// backlogs).
    done_prefix: usize,
    fault_enabled: bool,
    next_fault_event: usize,
    vm_crashes: u32,
    /// Whether start-of-run work (fault-plan validation, fault-edge
    /// wake-ups) has happened; [`Engine::run_until`] makes runs
    /// resumable, so it must happen exactly once.
    started: bool,
    /// Events processed so far, counted against the budget across
    /// [`Engine::run_until`] segments.
    events: u64,
    steps_done: u64,
    wake_entries_allocated: u64,
    dirty_drain_batches: u64,
}

/// Everything the engine allocates that can outlive a run: the resource
/// registry, the SoA task table, the template arena, pooled stage
/// buffers, the completion heap and every scratch vector. Owned by the
/// engine by default; pass one explicitly via [`Engine::with_scratch`]
/// to amortize allocation across repeated runs (annealer scoring loops,
/// benchmark reps). Preparation is in-place: buffers are cleared, not
/// dropped, and [`EngineStats::scratch_reallocs`] counts the ones that
/// had to grow. It also holds the run loop's scalars, so it is the whole
/// state a snapshot copies besides the job runs.
#[derive(Clone)]
pub struct EngineScratch {
    reg: ShareRegistry,
    table: TaskTable,
    arena: TemplateArena,
    buf_pool: Vec<Vec<BoundStage>>,
    heap: TaskHeap,
    /// Pending bare clock wake-ups, separate from task milestones.
    wakes: BinaryHeap<Wake>,
    dirty_tasks: Vec<u32>,
    /// Task ids drained as due at the current step.
    due: Vec<u32>,
    /// Finished speculated tasks whose twin must be killed:
    /// `(uid, backup_of)` with [`NO_TWIN`] sentinels.
    winners: Vec<(u64, u64)>,
    affected_jobs: Vec<u32>,
    affected_flags: Vec<bool>,
    /// Sorted indices of jobs with undispatched templates. A sorted vec
    /// beats a `BTreeSet` here: dispatch snapshots it every event, and two
    /// `memcpy`s of a small `u32` slice cost less than one B-tree walk.
    pending_jobs: Vec<u32>,
    /// Slot kind of each job's front pending template — a dense mirror so
    /// saturated dispatch can skip a job without touching its (cold)
    /// `JobRun` and template deque. Maintained at the two places the
    /// front can change: `advance_phase` refills and dispatch pops.
    front_slot: Vec<SlotKind>,
    dispatch_scratch: Vec<u32>,
    spec_rates: Vec<f64>,
    stragglers: Vec<usize>,
    wave_scratch: Vec<f64>,
    map: SlotPool,
    red: SlotPool,
    crashed: Vec<bool>,
    /// Per-job counter handing out stable task uids.
    seq: Vec<u32>,
    retries: Vec<RetrySlot>,
    fault_events: Vec<FaultEvent>,
    reallocs: u64,
    run: LoopState,
}

fn fit<T: Copy>(v: &mut Vec<T>, n: usize, x: T, grown: &mut u64) {
    if v.capacity() < n {
        *grown += 1;
    }
    v.clear();
    v.resize(n, x);
}

impl EngineScratch {
    /// An empty scratch; the engine provisions it per run.
    pub fn new() -> EngineScratch {
        EngineScratch {
            reg: ShareRegistry::empty(),
            table: TaskTable::default(),
            arena: TemplateArena::default(),
            buf_pool: Vec::new(),
            heap: TaskHeap::default(),
            wakes: BinaryHeap::new(),
            dirty_tasks: Vec::new(),
            due: Vec::new(),
            winners: Vec::new(),
            affected_jobs: Vec::new(),
            affected_flags: Vec::new(),
            pending_jobs: Vec::new(),
            front_slot: Vec::new(),
            dispatch_scratch: Vec::new(),
            spec_rates: Vec::new(),
            stragglers: Vec::new(),
            wave_scratch: Vec::new(),
            map: SlotPool::default(),
            red: SlotPool::default(),
            crashed: Vec::new(),
            seq: Vec::new(),
            retries: Vec::new(),
            fault_events: Vec::new(),
            reallocs: 0,
            run: LoopState::default(),
        }
    }

    /// Size and clear everything for a run over `cfg` with `njobs` jobs,
    /// reusing existing allocations wherever possible.
    fn prepare(&mut self, cfg: &SimConfig, njobs: usize) {
        let mut grown = self.reg.reset_for(cfg);
        self.table.clear_into(&mut self.buf_pool);
        self.arena.clear();
        self.heap.clear();
        self.wakes.clear();
        self.dirty_tasks.clear();
        self.due.clear();
        self.winners.clear();
        self.affected_jobs.clear();
        fit(&mut self.affected_flags, njobs, false, &mut grown);
        self.pending_jobs.clear();
        fit(&mut self.front_slot, njobs, SlotKind::Map, &mut grown);
        self.dispatch_scratch.clear();
        self.spec_rates.clear();
        self.stragglers.clear();
        self.wave_scratch.clear();
        self.map.reset(cfg.nvm, cfg.vm.map_slots, &mut grown);
        self.red.reset(cfg.nvm, cfg.vm.reduce_slots, &mut grown);
        fit(&mut self.crashed, cfg.nvm, false, &mut grown);
        fit(&mut self.seq, njobs, 0, &mut grown);
        self.retries.clear();
        self.fault_events.clear();
        if !cfg.faults.is_empty() {
            build_fault_events(&cfg.faults, &mut self.fault_events);
        }
        self.reallocs = grown;
        self.run = LoopState {
            jobs_changed: true,
            fault_enabled: !cfg.faults.is_empty(),
            ..LoopState::default()
        };
    }

    /// Take a slot for a new `slot` task, leaving out VM `except`, and
    /// return the VM it runs on; `None` when no slot is free. Map and
    /// reduce tasks go to the live VM with the most free slots of their
    /// kind. Transfers hold no slot: they round-robin over VMs, rotating
    /// past crashed ones.
    fn take_slot(&mut self, slot: SlotKind, except: Option<usize>) -> Option<usize> {
        let pool = match slot {
            SlotKind::Map => &mut self.map,
            SlotKind::Reduce => &mut self.red,
            SlotKind::Transfer => {
                let n = self.crashed.len();
                let start = self.table.len() % n;
                return (0..n)
                    .map(|off| (start + off) % n)
                    .find(|&vm| !self.crashed[vm]);
            }
        };
        let vm = pool.pick(&self.crashed, except)?;
        pool.take(vm);
        Some(vm)
    }

    /// Give back the slot a finished, failed or killed task held.
    fn release_slot(&mut self, slot: SlotKind, vm: usize) {
        match slot {
            SlotKind::Map => self.map.release(vm, &self.crashed),
            SlotKind::Reduce => self.red.release(vm, &self.crashed),
            SlotKind::Transfer => {}
        }
    }
}

impl Default for EngineScratch {
    fn default() -> EngineScratch {
        EngineScratch::new()
    }
}

/// Owned-or-borrowed scratch; both deref to [`EngineScratch`] so the hot
/// path is identical.
enum ScratchRef<'a> {
    Owned(Box<EngineScratch>),
    Borrowed(&'a mut EngineScratch),
}

impl std::ops::Deref for ScratchRef<'_> {
    type Target = EngineScratch;
    #[inline]
    fn deref(&self) -> &EngineScratch {
        match self {
            ScratchRef::Owned(b) => b,
            ScratchRef::Borrowed(r) => r,
        }
    }
}

impl std::ops::DerefMut for ScratchRef<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut EngineScratch {
        match self {
            ScratchRef::Owned(b) => b,
            ScratchRef::Borrowed(r) => r,
        }
    }
}

/// What [`Engine::remove_task`] hands back about the removed task.
struct Removed {
    job: usize,
    vm: u32,
    slot: SlotKind,
    uid: u64,
    attempt: u32,
    backup_of: u64,
    speculated: bool,
    /// Arena template id; the removed task's reference transfers to the
    /// caller, who must release it or hand it to a retry slot.
    tid: u32,
    /// Former index of a task swap-moved into the freed slot, if any.
    moved: Option<usize>,
}

/// An owned, opaque copy of a live simulation's complete state, taken
/// with [`Engine::snapshot`]. Independent of the source engine's
/// lifetime (it owns its own `SimConfig` and job runs) and `Send + Sync`,
/// so one snapshot can be shared across a worker pool and forked once
/// per candidate plan ([`crate::par::run_indexed`]).
///
/// Captured: the job runs (placements, phases, per-job RNG streams) and
/// the whole [`EngineScratch`] — SoA task table and template arena,
/// completion and wake heaps, the `ShareRegistry` (flows, loads,
/// degradation scales), slot pools, uid counters, retry backlog, fault
/// cursors, and the run loop's scalars (clock, dispatch cursor,
/// done-prefix watermark, event/budget and health counters). Not
/// captured: the observability collector — forks record into a no-op
/// one.
pub struct EngineSnapshot {
    cfg: SimConfig,
    jobs: Vec<JobRun>,
    state: Box<EngineScratch>,
}

impl EngineSnapshot {
    /// Fork a fresh engine resuming from the captured state. Each fork
    /// is fully independent; the snapshot can be forked any number of
    /// times. Running a fork to completion is bit-identical to the
    /// source engine having run uninterrupted (with the same
    /// post-snapshot decisions). The fork records into a no-op
    /// collector.
    pub fn fork(&self) -> Engine<'_> {
        Engine {
            cfg: &self.cfg,
            st: ScratchRef::Owned(self.state.clone()),
            jobs: self.jobs.clone(),
            obs: SimObs::new(Collector::noop()),
        }
    }
}

/// The simulation engine. Construct with [`Engine::new`], run with
/// [`Engine::run`].
pub struct Engine<'a> {
    cfg: &'a SimConfig,
    st: ScratchRef<'a>,
    jobs: Vec<JobRun>,
    obs: SimObs,
}

impl<'a> Engine<'a> {
    /// Build an engine over prepared job runs. `jobs` must be ordered so
    /// that every dependency index is smaller than the dependent's index.
    pub fn new(cfg: &'a SimConfig, jobs: Vec<JobRun>) -> Engine<'a> {
        Engine::observed(cfg, jobs, Collector::noop())
    }

    /// [`Engine::new`] with an observability collector attached. The
    /// collector only records what the engine already computes; results
    /// are bit-identical to an unobserved run.
    pub fn observed(cfg: &'a SimConfig, jobs: Vec<JobRun>, collector: Collector) -> Engine<'a> {
        Engine::build(cfg, jobs, collector, ScratchRef::Owned(Box::default()))
    }

    /// [`Engine::new`] reusing caller-owned scratch state. Results are
    /// bit-identical to a fresh engine; repeated runs over the same (or a
    /// smaller) catalog do zero re-allocation
    /// ([`EngineStats::scratch_reallocs`]).
    pub fn with_scratch(
        cfg: &'a SimConfig,
        jobs: Vec<JobRun>,
        scratch: &'a mut EngineScratch,
    ) -> Engine<'a> {
        Engine::observed_with_scratch(cfg, jobs, Collector::noop(), scratch)
    }

    /// [`Engine::observed`] reusing caller-owned scratch state.
    pub fn observed_with_scratch(
        cfg: &'a SimConfig,
        jobs: Vec<JobRun>,
        collector: Collector,
        scratch: &'a mut EngineScratch,
    ) -> Engine<'a> {
        Engine::build(cfg, jobs, collector, ScratchRef::Borrowed(scratch))
    }

    fn build(
        cfg: &'a SimConfig,
        jobs: Vec<JobRun>,
        collector: Collector,
        mut st: ScratchRef<'a>,
    ) -> Engine<'a> {
        st.prepare(cfg, jobs.len());
        Engine {
            cfg,
            st,
            jobs,
            obs: SimObs::new(collector),
        }
    }

    /// Run to completion, producing per-job metrics.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_stats().map(|(report, _)| report)
    }

    /// Run whatever remains to completion and produce the report plus
    /// execution statistics (step count, for events/sec benchmarking,
    /// plus allocation health counters). Counters cover the whole run,
    /// including any prior [`Engine::run_until`] segments (and, on a
    /// fork, the parent's pre-snapshot work).
    pub fn run_with_stats(mut self) -> Result<(SimReport, EngineStats), SimError> {
        self.ensure_started()?;
        while !self.step_once()? {}
        let run = &self.st.run;
        let stats = EngineStats {
            steps: run.events,
            heap_stale_popped: 0,
            wake_entries_allocated: run.wake_entries_allocated,
            dirty_drain_batches: run.dirty_drain_batches,
            scratch_reallocs: self.st.reallocs,
        };
        Ok((build_report(&self.jobs, run.clock, run.vm_crashes), stats))
    }

    /// Start-of-run work, exactly once per engine (or fork) regardless of
    /// how the run is segmented into [`Engine::run_until`] calls.
    fn ensure_started(&mut self) -> Result<(), SimError> {
        if self.st.run.started {
            return Ok(());
        }
        if let Err(reason) = self.cfg.faults.validate(self.cfg.nvm) {
            return Err(SimError::InvalidFaultPlan { reason });
        }
        // Every scheduled fault event is a wake-up the clock must land on.
        for k in 0..self.st.fault_events.len() {
            let at = self.st.fault_events[k].at;
            self.push_wake(at);
        }
        self.st.run.started = true;
        Ok(())
    }

    /// One full scheduling round: fault edges, job activation, retry and
    /// fresh dispatch, speculation, then a single clock advance. Returns
    /// `true` once every job is `Done`. This is the engine's atomic unit
    /// with respect to snapshot/fork — decision state such as the
    /// dispatch cursor (which rotates once per round even with nothing to
    /// dispatch) is never captured mid-update, so a run segmented at any
    /// round boundary is bit-identical to an uninterrupted one.
    fn step_once(&mut self) -> Result<bool, SimError> {
        self.process_fault_events();
        if self.st.run.jobs_changed {
            self.st.run.jobs_changed = false;
            self.activate_ready_jobs();
        }
        self.dispatch_retries();
        self.dispatch();
        self.speculate()?;
        if self.st.table.is_empty() {
            if self.jobs.iter().all(|j| j.phase == JobPhase::Done) {
                return Ok(true);
            }
            // No runnable work, but a retry backoff or a scheduled
            // fault event (e.g. a VM recovery) may unblock us.
            let Some(wake) = self.next_wake() else {
                return Err(stalled_error(&self.jobs, self.st.run.clock));
            };
            self.st.run.clock = wake;
        } else {
            self.step()?;
        }
        let run = &mut self.st.run;
        run.events += 1;
        if run.events > EVENT_BUDGET {
            let (clock, steps) = (run.clock, run.events);
            return Err(budget_error(&self.jobs, clock, steps, self.st.table.len()));
        }
        Ok(false)
    }

    /// Advance the simulation until the clock reaches `horizon` (the
    /// round that crosses it completes in full) or the workload
    /// finishes, whichever comes first. The engine stays live either
    /// way: snapshot it, fork candidates, keep running. Event budget
    /// and error semantics are identical to [`Engine::run`] — a run
    /// segmented into `run_until` slices is bit-identical to an
    /// uninterrupted one.
    pub fn run_until(&mut self, horizon: f64) -> Result<RunState, SimError> {
        self.ensure_started()?;
        while self.st.run.clock < horizon {
            if self.step_once()? {
                return Ok(RunState::Done);
            }
        }
        Ok(RunState::Running)
    }

    // ---- snapshot / fork ----

    /// Capture the complete simulation state — the job runs and the
    /// whole scratch, clock and cursors included — as an owned,
    /// engine-lifetime-independent [`EngineSnapshot`]. Cost is O(live
    /// state). The engine keeps running; snapshot at a replan point,
    /// fork one candidate per plan, and keep the live run as the
    /// incumbent.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            cfg: self.cfg.clone(),
            jobs: self.jobs.clone(),
            state: Box::new((*self.st).clone()),
        }
    }

    /// The engine's job runs (placements, phases, progress counters).
    pub fn jobs(&self) -> &[JobRun] {
        &self.jobs
    }

    /// Swap the placement of a still-[`JobPhase::Waiting`] job — the
    /// what-if lever for candidate-plan scoring on a fork. Waiting jobs
    /// have generated no task templates yet, so the swap is exact: the
    /// fork behaves as if the job had been prepared with this placement
    /// from the start. Jobs past `Waiting` have work derived from their
    /// old placement in flight and cannot be redirected.
    pub fn set_placement(
        &mut self,
        job: usize,
        placement: crate::placement::JobPlacement,
    ) -> Result<(), SimError> {
        if self.jobs[job].phase != JobPhase::Waiting {
            return Err(SimError::PlacementLocked {
                job: self.jobs[job].job.id.0,
                phase: self.jobs[job].phase.name(),
            });
        }
        self.jobs[job].placement = placement;
        Ok(())
    }

    // ---- incremental bookkeeping ----

    /// Set (or re-key) task `idx`'s milestone to `time`, recording `rate`
    /// as the rate it will stream at until then.
    fn schedule(&mut self, idx: usize, time: f64, rate: f64) {
        let st = &mut *self.st;
        st.table.rate[idx] = rate;
        st.table.predicted[idx] = time;
        st.heap.set(&mut st.table.heap_pos, idx as u32, time);
    }

    /// Mark task `idx` as having no scheduled milestone (frozen, or
    /// awaiting its first rate from the next dirty flush).
    fn invalidate(&mut self, idx: usize) {
        let st = &mut *self.st;
        st.table.rate[idx] = 0.0;
        st.table.predicted[idx] = f64::INFINITY;
        st.heap.remove(&mut st.table.heap_pos, idx as u32);
    }

    fn push_wake(&mut self, time: f64) {
        self.st.run.wake_entries_allocated += 1;
        self.st.wakes.push(Wake(time));
    }

    /// Bring task `idx`'s progress up to the current clock using the rate
    /// it has streamed at since its anchor.
    fn materialize(&mut self, idx: usize) {
        let clock = self.st.run.clock;
        let t = &mut self.st.table;
        let dtime = clock - t.anchor[idx];
        t.anchor[idx] = clock;
        if dtime <= 0.0 || !t.has_stage(idx) {
            return;
        }
        if t.fixed[idx] > 0.0 {
            t.fixed[idx] -= dtime;
            if t.fixed[idx] < EPS {
                t.fixed[idx] = 0.0;
            }
        } else {
            let rate = t.rate[idx];
            if rate > 0.0 {
                t.units[idx] -= dtime * rate;
                if t.units[idx] < EPS {
                    t.units[idx] = 0.0;
                }
                // NO_DOOM (+∞) stays +∞ under subtraction: the sentinel
                // needs no branch.
                t.doom[idx] -= dtime * rate;
            }
        }
    }

    /// Register the current stage's flows (positional with
    /// [`BoundStage::flow_parts`]); marks the touched resources dirty.
    fn register_stage(&mut self, idx: usize) {
        let st = &mut *self.st;
        let res = st.table.part_res[idx];
        let w = st.table.part_w[idx];
        let mut pos = [NO_POS; 4];
        for (k, p) in pos.iter_mut().enumerate() {
            if res[k] != NO_RES {
                *p = st.reg.register_flow_at(res[k], w[k], idx as u32);
            }
        }
        st.table.flow_pos[idx] = pos;
        st.table.registered[idx] = true;
    }

    /// Unregister the current stage's flows, applying swap-remove fix-ups
    /// to whichever task's flow position moved.
    fn unregister_stage(&mut self, idx: usize) {
        let st = &mut *self.st;
        for h in 0..4 {
            let pos = st.table.flow_pos[idx][h];
            if pos == NO_POS {
                continue;
            }
            st.table.flow_pos[idx][h] = NO_POS;
            let res = st.table.part_res[idx][h];
            if let Some(m) = st.reg.unregister_flow_at(res, pos) {
                let owner = m.task as usize;
                let ores = &st.table.part_res[owner];
                let opos = &mut st.table.flow_pos[owner];
                for f in 0..4 {
                    if ores[f] == m.res && opos[f] == m.from {
                        opos[f] = m.to;
                        break;
                    }
                }
            }
        }
        st.table.registered[idx] = false;
    }

    /// Remove task `idx` (swap-remove, all columns in lockstep),
    /// returning its identity and — when another task was moved into the
    /// freed slot — that task's former index so callers can fix any
    /// reference to it. The removed task's template reference transfers
    /// to the caller.
    fn remove_task(&mut self, idx: usize) -> Removed {
        if self.st.table.registered[idx] {
            self.unregister_stage(idx);
        }
        let st = &mut *self.st;
        let t = &st.table;
        let mut r = Removed {
            job: t.job[idx] as usize,
            vm: t.vm[idx],
            slot: t.slot[idx],
            uid: t.uid[idx],
            attempt: t.attempt[idx],
            backup_of: t.backup_of[idx],
            speculated: t.speculated[idx],
            tid: t.template[idx],
            moved: None,
        };
        st.heap.remove(&mut st.table.heap_pos, idx as u32);
        let mut buf = st.table.swap_remove(idx);
        buf.clear();
        st.buf_pool.push(buf);
        let old_last = st.table.len();
        if idx < old_last {
            // The task formerly at `old_last` now lives at `idx`: re-point
            // its registered flows and rename its heap entry (the swap
            // moved its `heap_pos` along with the other columns).
            if st.table.registered[idx] {
                for h in 0..4 {
                    let pos = st.table.flow_pos[idx][h];
                    if pos != NO_POS {
                        st.reg
                            .retarget_flow_at(st.table.part_res[idx][h], pos, idx as u32);
                    }
                }
            }
            let p = st.table.heap_pos[idx];
            if p != NO_HEAP {
                st.heap.retag(&mut st.table.heap_pos, p, idx as u32);
            }
            r.moved = Some(old_last);
        }
        r
    }

    /// Drop one template-arena reference (no-op for templateless tasks).
    fn release_tid(&mut self, tid: u32) {
        if tid != NO_TEMPLATE {
            self.st.arena.release(tid);
        }
    }

    /// Push a new task into the table and schedule its first milestone.
    #[allow(clippy::too_many_arguments)]
    fn spawn_task(
        &mut self,
        job: usize,
        vm: u32,
        slot: SlotKind,
        uid: u64,
        attempt: u32,
        backup_of: u64,
        tid: u32,
        buf: Vec<BoundStage>,
        doom: f64,
    ) {
        let clock = self.st.run.clock;
        let st = &mut *self.st;
        // A spawned task is speculated exactly when it is a backup.
        let speculated = backup_of != NO_TWIN;
        let idx = st.table.push(
            job, vm, slot, uid, attempt, backup_of, speculated, doom, tid, buf, clock,
        );
        let (has_stage, latent, fixed, tiny) = if st.table.nstages[idx] > 0 {
            let reg = &st.reg;
            st.table.load_stage(idx, |key| reg.res_index(key));
            (
                true,
                st.table.fixed[idx] > 0.0,
                st.table.fixed[idx],
                st.table.units[idx] <= EPS,
            )
        } else {
            (false, false, 0.0, true)
        };
        if !has_stage || (!latent && tiny) {
            // Nothing (or nothing measurable) to do: due immediately.
            self.schedule(idx, clock, 0.0);
        } else if latent {
            self.schedule(idx, clock + fixed, 0.0);
        } else {
            // Streaming: rate and milestone arrive at the next dirty
            // flush, triggered by this very registration.
            self.register_stage(idx);
            self.invalidate(idx);
        }
    }

    /// Recompute every task whose resources changed since the last flush.
    /// One drain covers all resources dirtied in the current clock
    /// advance. Returns the stall error when a frozen task has no future
    /// wake-up.
    fn flush_dirty(&mut self) -> Result<(), SimError> {
        if !self.st.reg.has_dirty() {
            return Ok(());
        }
        self.st.run.dirty_drain_batches += 1;
        {
            let EngineScratch {
                reg,
                table,
                dirty_tasks,
                ..
            } = &mut *self.st;
            reg.drain_dirty(|t| {
                let flag = &mut table.dirty[t as usize];
                if !*flag {
                    *flag = true;
                    dirty_tasks.push(t);
                }
            });
        }
        let wake_exists = self.next_wake().is_some();
        let mut k = 0;
        while k < self.st.dirty_tasks.len() {
            let i = self.st.dirty_tasks[k] as usize;
            self.st.table.dirty[i] = false;
            self.refresh_task(i, wake_exists)?;
            k += 1;
        }
        self.st.dirty_tasks.clear();
        Ok(())
    }

    /// Recompute task `i`'s rate from the precomputed resource-index
    /// mirror; if unchanged, its heap entry is already exact and nothing
    /// further happens. Otherwise materialize and re-schedule.
    fn refresh_task(&mut self, i: usize, wake_exists: bool) -> Result<(), SimError> {
        // Same f64::min sequence as BoundStage::rate (cap, then read,
        // write, net, global) — bit-identical by construction.
        let rate = {
            let st = &*self.st;
            let res = &st.table.part_res[i];
            let mut rate = st.table.cap[i];
            for &r in res.iter() {
                if r != NO_RES {
                    rate = rate.min(st.reg.unit_rate_at(r));
                }
            }
            // Fast path: a registered mid-stream task whose rate did not
            // change keeps its milestone — skipping the re-materialize
            // avoids both the float churn and a redundant heap push.
            if rate > 0.0
                && rate == st.table.rate[i]
                && st.table.registered[i]
                && st.table.predicted[i].is_finite()
            {
                return Ok(());
            }
            rate
        };
        self.materialize(i);
        let (has_stage, fixed, units, doom) = {
            let t = &self.st.table;
            if !t.has_stage(i) {
                return Ok(()); // stageless; already scheduled due-now
            }
            (true, t.fixed[i], t.units[i], t.doom[i])
        };
        debug_assert!(has_stage);
        if fixed > 0.0 {
            self.schedule(i, self.st.run.clock + fixed, 0.0);
            return Ok(());
        }
        if units <= EPS {
            self.schedule(i, self.st.run.clock, 0.0);
            return Ok(());
        }
        if rate <= 0.0 || rate.is_nan() {
            // A fully-degraded tier (e.g. a transient outage window with
            // multiplier 0) freezes the task; a scheduled fault edge or
            // retry wake-up may restore its bandwidth, so only a stall
            // with no such future event is an error.
            if !wake_exists {
                let t = &self.st.table;
                let job = t.job[i] as usize;
                return Err(SimError::Stalled {
                    at_secs: self.st.run.clock,
                    job: Some(self.jobs[job].job.id.0),
                    phase: Some(self.jobs[job].phase.name()),
                    tier: t.bound_stage(i).and_then(stage_tier),
                });
            }
            self.invalidate(i);
            return Ok(());
        }
        let mut dt = units / rate;
        // NO_DOOM (+∞) makes the clamp a no-op without a branch.
        dt = dt.min(doom.max(0.0) / rate);
        self.schedule(i, self.st.run.clock + dt, rate);
        Ok(())
    }

    fn push_affected(&mut self, job: usize) {
        let st = &mut *self.st;
        if !st.affected_flags[job] {
            st.affected_flags[job] = true;
            st.affected_jobs.push(job as u32);
        }
    }

    // ---- job lifecycle ----

    /// Move `Waiting` jobs whose dependencies are done into their first
    /// working phase, respecting the concurrency mode. Only called when a
    /// job reached `Done` since the last check (dependency/sequencing
    /// conditions cannot change otherwise).
    fn activate_ready_jobs(&mut self) {
        for i in 0..self.jobs.len() {
            if self.jobs[i].phase != JobPhase::Waiting {
                continue;
            }
            let deps_done = self.jobs[i]
                .deps
                .iter()
                .all(|&d| self.jobs[d].phase == JobPhase::Done);
            if !deps_done {
                continue;
            }
            if self.cfg.concurrency == Concurrency::Sequential {
                // Only the earliest unfinished job may start: advance the
                // watermark over the done prefix (covers jobs that went
                // straight to `Done` earlier in this same pass), then the
                // original "any earlier job unfinished?" scan collapses
                // to one comparison.
                while self.st.run.done_prefix < i
                    && self.jobs[self.st.run.done_prefix].phase == JobPhase::Done
                {
                    self.st.run.done_prefix += 1;
                }
                if self.st.run.done_prefix < i {
                    continue;
                }
            }
            let job = &mut self.jobs[i];
            job.submitted = self.st.run.clock;
            let phase = job.advance_phase(self.st.run.clock, self.cfg);
            if phase != JobPhase::Done && !self.jobs[i].pending.is_empty() {
                self.st.front_slot[i] = self.jobs[i].pending.front().expect("nonempty").slot;
                pending_insert(&mut self.st.pending_jobs, i);
            }
            if self.obs.col.enabled() {
                let name = self.jobs[i].job.app.name().to_string();
                self.obs.col.emit(
                    self.st.run.clock,
                    EventBody::JobStart {
                        job: i as u32,
                        name,
                    },
                );
                self.emit_phase(i, phase);
            }
        }
    }

    /// Emit the trace edge for job `i` entering `phase` (including the
    /// terminal `Done`, which closes the job span).
    fn emit_phase(&self, i: usize, phase: JobPhase) {
        if !self.obs.col.enabled() {
            return;
        }
        if phase == JobPhase::Done {
            let makespan = self.jobs[i].finished - self.jobs[i].submitted;
            self.obs.col.emit(
                self.st.run.clock,
                EventBody::JobEnd {
                    job: i as u32,
                    makespan,
                },
            );
        } else {
            self.obs.col.emit(
                self.st.run.clock,
                EventBody::Phase {
                    job: i as u32,
                    phase: phase.name().to_string(),
                },
            );
        }
    }

    /// Advance the phase of every job a retire/fail/kill touched this
    /// step, once its phase fully drained. Runs at the end of [`step`] so
    /// phase edges are stamped at the advanced clock, exactly like the
    /// reference stepper's end-of-step drain scan.
    fn check_affected_jobs(&mut self) {
        let mut k = 0;
        while k < self.st.affected_jobs.len() {
            let i = self.st.affected_jobs[k] as usize;
            k += 1;
            self.st.affected_flags[i] = false;
            let job = &mut self.jobs[i];
            if job.phase == JobPhase::Waiting || job.phase == JobPhase::Done || !job.phase_drained()
            {
                continue;
            }
            let phase = job.advance_phase(self.st.run.clock, self.cfg);
            self.emit_phase(i, phase);
            if phase == JobPhase::Done {
                self.st.run.jobs_changed = true;
                pending_remove(&mut self.st.pending_jobs, i);
            } else if !self.jobs[i].pending.is_empty() {
                self.st.front_slot[i] = self.jobs[i].pending.front().expect("nonempty").slot;
                pending_insert(&mut self.st.pending_jobs, i);
            }
        }
        self.st.affected_jobs.clear();
    }

    // ---- dispatch ----

    /// Assign pending task templates to free slots. Visits only jobs with
    /// undispatched templates, in the same cursor rotation the reference
    /// stepper scans with.
    fn dispatch(&mut self) {
        let n = self.jobs.len();
        let run = &mut self.st.run;
        let (clock, cursor) = (run.clock, run.dispatch_cursor);
        run.dispatch_cursor = (cursor + 1) % n.max(1);
        if self.st.pending_jobs.is_empty() {
            return;
        }
        {
            let st = &mut *self.st;
            st.dispatch_scratch.clear();
            let start = st.pending_jobs.partition_point(|&j| j < cursor as u32);
            st.dispatch_scratch
                .extend_from_slice(&st.pending_jobs[start..]);
            st.dispatch_scratch
                .extend_from_slice(&st.pending_jobs[..start]);
        }
        for k in 0..self.st.dispatch_scratch.len() {
            let i = self.st.dispatch_scratch[k] as usize;
            // Cheap pre-check on the mirror: a job whose next template
            // needs a slot kind with nothing free would launch nothing —
            // identical outcome to visiting it.
            let st = &mut *self.st;
            let full = match st.front_slot[i] {
                SlotKind::Map => st.map.pick(&st.crashed, None).is_none(),
                SlotKind::Reduce => st.red.pick(&st.crashed, None).is_none(),
                SlotKind::Transfer => false,
            };
            if full {
                continue;
            }
            let mut launched: u32 = 0;
            while let Some(tmpl) = self.jobs[i].pending.front() {
                if matches!(self.jobs[i].phase, JobPhase::Waiting | JobPhase::Done) {
                    break;
                }
                let slot = tmpl.slot;
                let Some(vm) = self.st.take_slot(slot, None) else {
                    break;
                };
                let tmpl = self.jobs[i].pending.pop_front().expect("peeked");
                if let Some(next) = self.jobs[i].pending.front() {
                    self.st.front_slot[i] = next.slot;
                }
                self.obs
                    .task(clock, i, vm as u32, slot, TaskEventKind::Started);
                let mut buf = bind_template(&mut self.st.buf_pool, vm as u32, &tmpl);
                let (mut uid, mut tid, mut doom) = (0u64, NO_TEMPLATE, NO_DOOM);
                if self.st.run.fault_enabled {
                    let seq = self.st.seq[i];
                    self.st.seq[i] += 1;
                    uid = ((i as u64) << 32) | u64::from(seq);
                    let plan = &self.cfg.faults;
                    let mut rng = attempt_rng(plan.seed, uid, 1);
                    doom = arm_stages_with(plan, &mut rng, tmpl.total_units(), &mut buf);
                    tid = self.st.arena.insert(tmpl);
                }
                self.spawn_task(i, vm as u32, slot, uid, 1, NO_TWIN, tid, buf, doom);
                self.jobs[i].active += 1;
                launched += 1;
            }
            if launched > 0 {
                self.obs.wave_tasks.record(f64::from(launched));
                if self.obs.col.enabled() {
                    self.obs.col.emit(
                        clock,
                        EventBody::Wave {
                            job: i as u32,
                            phase: self.jobs[i].phase.name().to_string(),
                            tasks: launched,
                        },
                    );
                }
            }
            if self.jobs[i].pending.is_empty() {
                pending_remove(&mut self.st.pending_jobs, i);
            }
        }
    }

    /// Re-dispatch retry entries whose backoff has elapsed, slots
    /// permitting.
    fn dispatch_retries(&mut self) {
        if !self.st.run.fault_enabled || self.st.retries.is_empty() {
            return;
        }
        let clock = self.st.run.clock;
        let mut i = 0;
        while i < self.st.retries.len() {
            let entry = self.st.retries[i];
            if entry.ready_at > clock + EPS {
                i += 1;
                continue;
            }
            let slot = self.st.arena.get(entry.tid).slot;
            let Some(vm) = self.st.take_slot(slot, None) else {
                i += 1;
                continue;
            };
            self.st.retries.remove(i);
            let job = entry.job as usize;
            self.obs
                .task(clock, job, vm as u32, slot, TaskEventKind::Retried);
            self.jobs[job].retries_pending -= 1;
            // The retry slot's template reference transfers to the task.
            self.launch(job, vm, entry.uid, entry.attempt, NO_TWIN, entry.tid);
        }
    }

    /// Launch speculative backups for tasks streaming far below their
    /// wave's median rate (Hadoop-style speculative execution). Uses the
    /// cached per-task rates (flushed first) instead of re-registering
    /// the whole active set like the reference stepper.
    fn speculate(&mut self) -> Result<(), SimError> {
        let thr = self.cfg.faults.speculation_threshold;
        if !self.st.run.fault_enabled || thr <= 0.0 || self.st.table.is_empty() {
            return Ok(());
        }
        self.flush_dirty()?;
        {
            let st = &mut *self.st;
            let t = &st.table;
            st.spec_rates.clear();
            for i in 0..t.len() {
                let streaming = t.has_stage(i) && t.fixed[i] <= 0.0 && t.units[i] > EPS;
                st.spec_rates.push(if streaming { t.rate[i] } else { 0.0 });
            }
            st.stragglers.clear();
            for i in 0..t.len() {
                let job = t.job[i] as usize;
                if st.spec_rates[i] <= 0.0
                    || t.speculated[i]
                    || t.backup_of[i] != NO_TWIN
                    || t.slot[i] == SlotKind::Transfer
                    || !self.jobs[job].pending.is_empty()
                {
                    continue;
                }
                st.wave_scratch.clear();
                for k in 0..t.len() {
                    if t.job[k] as usize == job
                        && t.slot[k] == t.slot[i]
                        && st.spec_rates[k] > 0.0
                        && t.backup_of[k] == NO_TWIN
                    {
                        st.wave_scratch.push(st.spec_rates[k]);
                    }
                }
                if st.wave_scratch.len() < 2 {
                    continue;
                }
                st.wave_scratch.sort_by(f64::total_cmp);
                let median = st.wave_scratch[st.wave_scratch.len() / 2];
                if st.spec_rates[i] < thr * median {
                    st.stragglers.push(i);
                }
            }
        }
        for si in 0..self.st.stragglers.len() {
            let i = self.st.stragglers[si];
            let t = &self.st.table;
            let (tid, slot, orig_vm) = (t.template[i], t.slot[i], t.vm[i] as usize);
            if tid == NO_TEMPLATE {
                continue;
            }
            // Stragglers are map or reduce tasks, so this is a slot pick.
            let Some(vm) = self.st.take_slot(slot, Some(orig_vm)) else {
                continue;
            };
            let t = &mut self.st.table;
            let (job, orig_uid, attempt) = (t.job[i] as usize, t.uid[i], t.attempt[i]);
            t.speculated[i] = true;
            let clock = self.st.run.clock;
            self.obs
                .task(clock, job, vm as u32, slot, TaskEventKind::Speculated);
            self.st.arena.retain(tid);
            self.jobs[job].speculations += 1;
            let uid = orig_uid | BACKUP_BIT;
            self.launch(job, vm, uid, attempt, orig_uid, tid);
        }
        Ok(())
    }

    /// Bind arena template `tid` onto `vm`, draw the attempt's fate from
    /// its keyed RNG and spawn it — the tail a retry and a speculative
    /// backup share. The task takes over one reference on `tid`.
    fn launch(&mut self, job: usize, vm: usize, uid: u64, attempt: u32, backup_of: u64, tid: u32) {
        let st = &mut *self.st;
        let tmpl = st.arena.get(tid);
        let mut buf = bind_template(&mut st.buf_pool, vm as u32, tmpl);
        let plan = &self.cfg.faults;
        let mut rng = attempt_rng(plan.seed, uid, attempt);
        let doom = arm_stages_with(plan, &mut rng, tmpl.total_units(), &mut buf);
        let slot = tmpl.slot;
        self.jobs[job].active += 1;
        self.spawn_task(
            job, vm as u32, slot, uid, attempt, backup_of, tid, buf, doom,
        );
    }

    // ---- fault machinery ----

    /// Apply all fault-plan events due at the current clock.
    fn process_fault_events(&mut self) {
        while let Some(&ev) = self.st.fault_events.get(self.st.run.next_fault_event) {
            if ev.at > self.st.run.clock + EPS {
                break;
            }
            self.st.run.next_fault_event += 1;
            self.obs.fault_edges.inc();
            if self.obs.col.enabled() {
                let (kind, vm) = match ev.kind {
                    FaultEventKind::Crash(vm) => ("crash", vm),
                    FaultEventKind::Recover(vm) => ("recover", vm),
                    FaultEventKind::DegradationEdge => ("degradation", u32::MAX),
                };
                self.obs.col.emit(
                    self.st.run.clock,
                    EventBody::Fault {
                        kind: kind.to_string(),
                        vm,
                    },
                );
            }
            match ev.kind {
                FaultEventKind::Crash(vm) => self.crash_vm(vm as usize),
                FaultEventKind::Recover(vm) => {
                    let (st, vm) = (&mut *self.st, vm as usize);
                    st.crashed[vm] = false;
                    st.map.recover(vm);
                    st.red.recover(vm);
                }
                FaultEventKind::DegradationEdge => self.apply_degradations(),
            }
        }
    }

    /// Re-derive degraded capacities from the windows active right now.
    /// The registry marks every resource whose capacity actually changes,
    /// so affected tasks are refreshed at the next flush.
    fn apply_degradations(&mut self) {
        self.st.reg.reset_scales();
        for w in &self.cfg.faults.degradations {
            if w.start_secs <= self.st.run.clock + EPS && self.st.run.clock < w.end_secs - EPS {
                self.st.reg.scale_tier(w.vm, w.tier, w.multiplier);
            }
        }
    }

    /// Take a VM offline: kill its resident tasks (re-enqueuing any
    /// without a live speculative twin) and reset its slot pools, which
    /// stay unreachable until the matching recovery event.
    fn crash_vm(&mut self, vm: usize) {
        if self.st.crashed[vm] {
            return;
        }
        self.st.crashed[vm] = true;
        self.st.run.vm_crashes += 1;
        let clock = self.st.run.clock;
        self.st.map.crash(vm, self.cfg.vm.map_slots);
        self.st.red.crash(vm, self.cfg.vm.reduce_slots);
        let mut idx = 0;
        while idx < self.st.table.len() {
            if self.st.table.vm[idx] as usize != vm {
                idx += 1;
                continue;
            }
            let victim = self.remove_task(idx);
            let job = victim.job;
            self.jobs[job].active -= 1;
            self.jobs[job].kills += 1;
            self.obs
                .task(clock, job, victim.vm, victim.slot, TaskEventKind::Killed);
            self.push_affected(job);
            if victim.speculated && self.twin_index(victim.uid, victim.backup_of).is_some() {
                // The surviving copy carries the work.
                self.release_tid(victim.tid);
                continue;
            }
            if victim.tid == NO_TEMPLATE {
                continue;
            }
            // Same attempt number: the crash was not the task's fault.
            self.jobs[job].retries += 1;
            self.jobs[job].retries_pending += 1;
            self.st.retries.push(RetrySlot {
                ready_at: clock,
                job: job as u32,
                uid: victim.uid,
                attempt: victim.attempt,
                tid: victim.tid,
            });
        }
    }

    /// Index of the live twin (original ↔ backup) of task `uid`.
    fn twin_index(&self, uid: u64, backup_of: u64) -> Option<usize> {
        let t = &self.st.table;
        (0..t.len()).find(|&k| backup_of == t.uid[k] || t.backup_of[k] == uid)
    }

    /// Earliest strictly-future time at which a fault event fires or a
    /// retry becomes ready.
    fn next_wake(&self) -> Option<f64> {
        let mut wake = f64::INFINITY;
        if let Some(ev) = self.st.fault_events.get(self.st.run.next_fault_event) {
            if ev.at > self.st.run.clock {
                wake = wake.min(ev.at);
            }
        }
        for r in &self.st.retries {
            if r.ready_at > self.st.run.clock {
                wake = wake.min(r.ready_at);
            }
        }
        wake.is_finite().then_some(wake)
    }

    /// Stall diagnosis when the heap has no milestone left but tasks
    /// remain: every survivor is frozen with no wake-up; report the first
    /// (the reference's per-step scan does the same).
    fn frozen_stall_error(&self) -> SimError {
        let t = &self.st.table;
        for i in 0..t.len() {
            if t.has_stage(i) && t.fixed[i] <= 0.0 && t.rate[i] <= 0.0 {
                let job = t.job[i] as usize;
                return SimError::Stalled {
                    at_secs: self.st.run.clock,
                    job: Some(self.jobs[job].job.id.0),
                    phase: Some(self.jobs[job].phase.name()),
                    tier: t.bound_stage(i).and_then(stage_tier),
                };
            }
        }
        stalled_error(&self.jobs, self.st.run.clock)
    }

    // ---- the event step ----

    /// Advance time to the next predicted milestone and process every
    /// task due there. O(affected flows), not O(active tasks).
    fn step(&mut self) -> Result<(), SimError> {
        self.flush_dirty()?;
        let task_top = self.st.heap.peek().map(|(t, _)| t);
        let wake_top = self.st.wakes.peek().map(|w| w.0);
        let t_next = match (task_top, wake_top) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return Err(self.frozen_stall_error()),
        };
        let t_next = t_next.max(self.st.run.clock);
        self.obs.steps.inc();
        self.st.run.steps_done += 1;
        if self.obs.col.enabled() && self.st.run.steps_done % CONTENTION_STRIDE == 1 {
            for tier in cast_cloud::tier::Tier::ALL {
                let (demand, capacity) = self.st.reg.tier_totals(tier);
                if demand > 0.0 {
                    self.obs.col.emit(
                        self.st.run.clock,
                        EventBody::Contention {
                            tier: tier.name().to_string(),
                            demand,
                            capacity,
                        },
                    );
                }
            }
        }
        self.st.run.clock = t_next;
        // Drain every entry due within the completion tolerance. Whether
        // a drained task actually finished is decided by materializing
        // it — a candidate with more than EPS units left is re-scheduled,
        // which reproduces the reference stepper's units-space clamp.
        {
            let EngineScratch {
                heap,
                wakes,
                due,
                table,
                ..
            } = &mut *self.st;
            due.clear();
            while let Some((time, task)) = heap.peek() {
                if time > t_next + EPS {
                    break;
                }
                heap.pop(&mut table.heap_pos);
                due.push(task);
            }
            // Wake-ups the clock has landed on are consumed; the run
            // loop's fault/retry dispatch acts on them.
            while wakes.peek().is_some_and(|w| w.0 <= t_next + EPS) {
                wakes.pop();
            }
        }
        self.process_due()?;
        self.check_affected_jobs();
        Ok(())
    }

    /// Process the due batch in ascending task-index order, mirroring the
    /// reference stepper's retire scan (including its swap-remove
    /// revisit: a due task moved into a freed slot is processed next).
    fn process_due(&mut self) -> Result<(), SimError> {
        if self.st.due.is_empty() {
            return Ok(());
        }
        self.st.due.sort_unstable();
        self.st.winners.clear();
        let mut k = 0;
        while k < self.st.due.len() {
            let idx = self.st.due[k] as usize;
            k += 1;
            if idx >= self.st.table.len() {
                continue;
            }
            if let Some(from) = self.process_due_task(idx)? {
                let st = &mut *self.st;
                if let Some(rel) = st.due[k..].iter().position(|&t| t as usize == from) {
                    let j = k + rel;
                    st.due[j] = idx as u32;
                    st.due.swap(k, j);
                }
            }
        }
        // Winners kill their twins (after the scan, like the reference).
        for wi in 0..self.st.winners.len() {
            let (uid, backup_of) = self.st.winners[wi];
            if let Some(t) = self.twin_index(uid, backup_of) {
                let loser = self.remove_task(t);
                self.release_tid(loser.tid);
                self.st.release_slot(loser.slot, loser.vm as usize);
                let job = loser.job;
                self.obs.task(
                    self.st.run.clock,
                    job,
                    loser.vm,
                    loser.slot,
                    TaskEventKind::Killed,
                );
                self.jobs[job].active -= 1;
                self.jobs[job].kills += 1;
                self.push_affected(job);
            }
        }
        Ok(())
    }

    /// Handle one due task: materialize it, then fail, retire, or
    /// re-schedule it. Returns the former index of a task that was
    /// swap-moved into `idx`, if any.
    fn process_due_task(&mut self, idx: usize) -> Result<Option<usize>, SimError> {
        self.materialize(idx);
        if self.st.table.doom[idx] <= EPS {
            return self.fail_task(idx);
        }
        loop {
            let done = {
                let t = &self.st.table;
                t.has_stage(idx) && t.stage_done(idx)
            };
            if !done {
                break;
            }
            if self.st.table.registered[idx] {
                self.unregister_stage(idx);
            }
            let st = &mut *self.st;
            st.table.stage[idx] += 1;
            if st.table.has_stage(idx) {
                let reg = &st.reg;
                st.table.load_stage(idx, |key| reg.res_index(key));
            }
        }
        if !self.st.table.has_stage(idx) {
            let task = self.remove_task(idx);
            self.release_tid(task.tid);
            self.st.release_slot(task.slot, task.vm as usize);
            let job = task.job;
            self.obs.task(
                self.st.run.clock,
                job,
                task.vm,
                task.slot,
                TaskEventKind::Finished,
            );
            self.jobs[job].active -= 1;
            if task.speculated {
                self.st.winners.push((task.uid, task.backup_of));
            }
            self.push_affected(job);
            return Ok(task.moved);
        }
        // Not finished: schedule the next milestone of the (possibly new)
        // current stage.
        let (fixed, units, registered, rate, doom) = {
            let t = &self.st.table;
            (
                t.fixed[idx],
                t.units[idx],
                t.registered[idx],
                t.rate[idx],
                t.doom[idx],
            )
        };
        if fixed > 0.0 {
            let at = self.st.run.clock + fixed;
            if at > self.st.run.clock {
                self.schedule(idx, at, 0.0);
            } else {
                // The latency residue is below the clock's ulp: `clock +
                // fixed` rounds back to `clock`, so a milestone there
                // would re-pop forever with `materialize` accruing
                // `dtime == 0`. The reference stepper subtracts the exact
                // `dt` before the (rounded) clock advance and clamps to
                // zero — do the same and re-process.
                self.st.table.fixed[idx] = 0.0;
                return self.process_due_task(idx);
            }
        } else if !registered {
            // A fresh streaming stage: its rate (and milestone) arrive at
            // the next dirty flush, triggered by this registration.
            self.register_stage(idx);
            self.invalidate(idx);
        } else {
            // Still mid-stream (the candidate had > EPS units left after
            // materializing): re-schedule at the current rate.
            if rate > 0.0 {
                let mut dt = units / rate;
                dt = dt.min(doom.max(0.0) / rate);
                let at = self.st.run.clock + dt;
                if at > self.st.run.clock {
                    self.schedule(idx, at, rate);
                } else {
                    // The streaming residue is too small to advance the
                    // f64 clock (`units / rate` is below the clock's
                    // half-ulp — reachable once makespans grow past ~2^16
                    // seconds): a milestone at `at == clock` would re-pop
                    // forever with `materialize` accruing `dtime == 0`.
                    // Pay the residue down with the unrounded `dt`,
                    // exactly as the reference stepper does before its
                    // (rounded) clock advance, then re-process: the stage
                    // completes — or, when `doom` bound `dt`, the attempt
                    // fails — at the current instant.
                    let t = &mut self.st.table;
                    t.units[idx] -= dt * rate;
                    if t.units[idx] < EPS {
                        t.units[idx] = 0.0;
                    }
                    t.doom[idx] -= dt * rate;
                    return self.process_due_task(idx);
                }
            } else {
                self.invalidate(idx);
            }
        }
        Ok(None)
    }

    /// Handle a mid-stream task failure at `idx`: schedule a retry with
    /// exponential backoff, or give up on the job past the attempt
    /// budget. Returns the swap-move fix-up like [`Engine::remove_task`].
    fn fail_task(&mut self, idx: usize) -> Result<Option<usize>, SimError> {
        let task = self.remove_task(idx);
        self.st.release_slot(task.slot, task.vm as usize);
        let job = task.job;
        self.jobs[job].active -= 1;
        self.jobs[job].failures += 1;
        self.obs.task(
            self.st.run.clock,
            job,
            task.vm,
            task.slot,
            TaskEventKind::Failed,
        );
        self.push_affected(job);
        if task.speculated && self.twin_index(task.uid, task.backup_of).is_some() {
            // The surviving copy carries the work; no retry needed.
            self.release_tid(task.tid);
            return Ok(task.moved);
        }
        if task.attempt >= self.cfg.faults.max_task_attempts {
            return Err(SimError::JobFailed {
                job: self.jobs[job].job.id.0,
                attempts: task.attempt,
            });
        }
        let backoff =
            self.cfg.faults.retry_backoff_secs * f64::powi(2.0, (task.attempt - 1) as i32);
        debug_assert_ne!(task.tid, NO_TEMPLATE, "faulted task retains its template");
        self.jobs[job].retries += 1;
        self.jobs[job].retries_pending += 1;
        let ready_at = self.st.run.clock + backoff;
        if ready_at > self.st.run.clock {
            self.push_wake(ready_at);
        }
        self.st.retries.push(RetrySlot {
            ready_at,
            job: job as u32,
            uid: task.uid,
            attempt: task.attempt + 1,
            tid: task.tid,
        });
        Ok(task.moved)
    }
}

/// Bind a template's stages into a pooled buffer.
fn bind_template(
    buf_pool: &mut Vec<Vec<BoundStage>>,
    vm: u32,
    tmpl: &TaskTemplate,
) -> Vec<BoundStage> {
    let mut buf = buf_pool.pop().unwrap_or_default();
    buf.clear();
    buf.extend(tmpl.stages.iter().map(|s| bind_spec(vm, s)));
    buf
}

/// Insert job `i` into the sorted pending set (no-op if present).
#[inline]
fn pending_insert(v: &mut Vec<u32>, i: usize) {
    let i = i as u32;
    if let Err(pos) = v.binary_search(&i) {
        v.insert(pos, i);
    }
}

/// Remove job `i` from the sorted pending set (no-op if absent).
#[inline]
fn pending_remove(v: &mut Vec<u32>, i: usize) {
    if let Ok(pos) = v.binary_search(&(i as u32)) {
        v.remove(pos);
    }
}

/// Live VM with the most free slots, or `None` if none has capacity.
/// The reference stepper scans for it on every launch; the event engine
/// answers the same question from a [`SlotPool`]'s heap.
pub(crate) fn pick_vm(free: &[usize], crashed: &[bool]) -> Option<usize> {
    free.iter()
        .enumerate()
        .filter(|&(vm, &n)| n > 0 && !crashed[vm])
        .max_by_key(|&(_, &n)| n)
        .map(|(vm, _)| vm)
}

/// The storage tier a stage streams against, for diagnostics.
pub(crate) fn stage_tier(s: &BoundStage) -> Option<String> {
    [s.read, s.write]
        .into_iter()
        .flatten()
        .find_map(|(key, _)| match key.kind {
            ResKind::Volume(t) => Some(t.name().to_string()),
            ResKind::Nic => None,
        })
}

/// Sample one attempt's fate from its private RNG: whether (and how far
/// in) it fails — returned as doom units, [`NO_DOOM`] for "will not
/// fail" — plus simulated object-store request retries inflating fixed
/// latencies in place. Deterministic in the RNG; shared by both engines
/// so fault draws stay in lockstep.
pub(crate) fn arm_stages_with(
    plan: &FaultPlan,
    rng: &mut StdRng,
    total_units: f64,
    stages: &mut [BoundStage],
) -> f64 {
    let mut doom = NO_DOOM;
    if plan.task_failure_prob > 0.0 {
        // First draw decides failure: at rate p₂ > p₁ the failing set
        // is a superset, so sweeps over intensity are coupled.
        let u: f64 = rng.gen();
        if u < plan.task_failure_prob {
            let frac: f64 = rng.gen();
            if total_units > 0.0 {
                doom = (frac * total_units).max(EPS);
            }
        }
    }
    if plan.objstore_request_failure > 0.0 {
        for s in stages.iter_mut() {
            if s.global.is_some() && s.fixed_remaining > 0.0 {
                let mut extra = 0u32;
                while extra < MAX_OBJ_RETRIES && rng.gen::<f64>() < plan.objstore_request_failure {
                    extra += 1;
                }
                // Each failed request repeats the setup latency.
                s.fixed_remaining *= 1.0 + f64::from(extra);
            }
        }
    }
    doom
}

/// [`arm_stages_with`] on a boxed [`RunningTask`] (reference stepper).
pub(crate) fn arm_task_with(plan: &FaultPlan, rng: &mut StdRng, task: &mut RunningTask) {
    let total = task
        .template
        .as_deref()
        .map(TaskTemplate::total_units)
        .unwrap_or(0.0);
    let doom = arm_stages_with(plan, rng, total, task.stages.make_contiguous());
    if doom.is_finite() {
        task.doom_units = Some(doom);
    }
}

/// The report both engines return: per-job metrics in finishing order,
/// the makespan `clock` and the run's fault totals.
pub(crate) fn build_report(jobs: &[JobRun], clock: f64, vm_crashes: u32) -> SimReport {
    let nan_zero = |x: f64| if x.is_nan() { 0.0 } else { x };
    let mut metrics: Vec<JobMetrics> = jobs
        .iter()
        .map(|j| JobMetrics {
            job: j.job.id,
            submitted: Duration::from_secs(nan_zero(j.submitted)),
            started: Duration::from_secs(nan_zero(j.started)),
            finished: Duration::from_secs(nan_zero(j.finished)),
            stage_in: Duration::from_secs(j.phase_secs[0]),
            map: Duration::from_secs(j.phase_secs[1]),
            reduce: Duration::from_secs(j.phase_secs[3]),
            stage_out: Duration::from_secs(j.phase_secs[4]),
            failures: j.failures,
            retries: j.retries,
            speculations: j.speculations,
            kills: j.kills,
        })
        .collect();
    metrics.sort_by(|a, b| a.finished.secs().total_cmp(&b.finished.secs()));
    SimReport {
        jobs: metrics,
        makespan: Duration::from_secs(clock),
        faults: FaultSummary {
            task_failures: jobs.iter().map(|j| j.failures).sum(),
            retries: jobs.iter().map(|j| j.retries).sum(),
            speculations: jobs.iter().map(|j| j.speculations).sum(),
            kills: jobs.iter().map(|j| j.kills).sum(),
            vm_crashes,
        },
    }
}

/// A [`SimError::Stalled`] at `clock` carrying whatever is known about
/// the first unfinished job: its id, its phase and the tier its next
/// task streams against.
pub(crate) fn stalled_error(jobs: &[JobRun], clock: f64) -> SimError {
    let blocked = jobs.iter().find(|j| j.phase != JobPhase::Done);
    let (job, phase, tier) = match blocked {
        Some(j) => {
            let tier = j
                .pending
                .front()
                .and_then(|t| t.stages.first())
                .and_then(|s| s.read.map(|(t, _)| t).or(s.write.map(|(t, _)| t)))
                .map(|t| t.name().to_string());
            (Some(j.job.id.0), Some(j.phase.name()), tier)
        }
        None => (None, None, None),
    };
    SimError::Stalled {
        at_secs: clock,
        job,
        phase,
        tier,
    }
}

/// A [`SimError::EventBudgetExhausted`] at `clock` after `steps` events,
/// with `active_tasks` still running.
pub(crate) fn budget_error(
    jobs: &[JobRun],
    clock: f64,
    steps: u64,
    active_tasks: usize,
) -> SimError {
    SimError::EventBudgetExhausted {
        at_secs: clock,
        steps,
        active_tasks,
        active_jobs: jobs.iter().filter(|j| j.phase != JobPhase::Done).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DegradationWindow, FaultPlan, VmCrash};
    use crate::placement::JobPlacement;
    use cast_cloud::tier::{PerTier, Tier};
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;
    use cast_workload::apps::AppKind;
    use cast_workload::dataset::DatasetId;
    use cast_workload::job::{Job, JobId};
    use cast_workload::profile::ProfileSet;

    pub(crate) fn cfg(nvm: usize) -> SimConfig {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(500.0 * nvm as f64);
        *agg.get_mut(Tier::PersHdd) = DataSize::from_gb(500.0 * nvm as f64);
        *agg.get_mut(Tier::EphSsd) = DataSize::from_gb(375.0 * nvm as f64);
        let mut c = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg).unwrap();
        c.jitter = 0.0;
        c
    }

    /// One `app` job over `gb` of input, placed entirely on `tier`.
    fn one_job(app: AppKind, gb: f64, tier: Tier) -> Vec<JobRun> {
        let profiles = ProfileSet::defaults();
        let job = Job::with_default_layout(JobId(0), app, DatasetId(0), DataSize::from_gb(gb));
        vec![JobRun::new(
            job,
            JobPlacement::all_on(tier),
            *profiles.get(app),
            vec![],
        )]
    }

    fn run(app: AppKind, gb: f64, tier: Tier, c: &SimConfig) -> SimReport {
        Engine::new(c, one_job(app, gb, tier)).run().unwrap()
    }

    pub(crate) fn try_run(
        app: AppKind,
        gb: f64,
        tier: Tier,
        c: &SimConfig,
    ) -> Result<SimReport, SimError> {
        Engine::new(c, one_job(app, gb, tier)).run()
    }

    /// One `task` event of a recorded run.
    #[derive(Debug, PartialEq)]
    struct Edge {
        t: f64,
        vm: u32,
        slot: String,
        kind: String,
    }

    impl Edge {
        /// Whether the edge puts a task onto a slot.
        fn opens(&self) -> bool {
            matches!(self.kind.as_str(), "started" | "retried" | "speculated")
        }
    }

    fn count(edges: &[Edge], kind: &str) -> usize {
        edges.iter().filter(|e| e.kind == kind).count()
    }

    /// [`try_run`] on a recording collector, also returning the run's
    /// `task` events in emission order.
    fn try_run_edges(
        app: AppKind,
        gb: f64,
        tier: Tier,
        c: &SimConfig,
    ) -> Result<(SimReport, Vec<Edge>), SimError> {
        let col = Collector::recording();
        let report = Engine::observed(c, one_job(app, gb, tier), col.clone()).run()?;
        let edges = col
            .events()
            .into_iter()
            .filter_map(|e| match e.body {
                EventBody::Task { vm, slot, kind, .. } => Some(Edge {
                    t: e.t,
                    vm,
                    slot,
                    kind,
                }),
                _ => None,
            })
            .collect();
        Ok((report, edges))
    }

    #[test]
    fn grep_runtime_tracks_storage_bandwidth() {
        let c = cfg(1);
        // Grep is map-I/O bound: 30 GB at ~234 MB/s (500 GB persSSD)
        // against ~97 MB/s (500 GB persHDD): HDD should be ~2.4× slower.
        let ssd = run(AppKind::Grep, 30.0, Tier::PersSsd, &c);
        let hdd = run(AppKind::Grep, 30.0, Tier::PersHdd, &c);
        let ratio = hdd.makespan.secs() / ssd.makespan.secs();
        assert!(
            (1.8..3.2).contains(&ratio),
            "expected ~2.4x slowdown, got {ratio:.2} ({} vs {})",
            ssd.makespan,
            hdd.makespan
        );
    }

    #[test]
    fn grep_map_io_estimate_close_to_bandwidth_bound() {
        let c = cfg(1);
        let r = run(AppKind::Grep, 30.0, Tier::PersSsd, &c);
        // Lower bound: 30 000 MB / 234 MB/s ≈ 128 s.
        let lb = 30_000.0 / 234.0;
        let got = r.makespan.secs();
        assert!(got >= lb * 0.95, "impossibly fast: {got} < {lb}");
        assert!(got <= lb * 1.6, "too slow: {got} vs bound {lb}");
    }

    #[test]
    fn kmeans_insensitive_to_tier() {
        let c = cfg(1);
        let ssd = run(AppKind::KMeans, 20.0, Tier::PersSsd, &c);
        let hdd = run(AppKind::KMeans, 20.0, Tier::PersHdd, &c);
        let ratio = hdd.makespan.secs() / ssd.makespan.secs();
        assert!(
            (0.9..1.2).contains(&ratio),
            "CPU-bound app should not care about tier, got {ratio:.2}"
        );
    }

    #[test]
    fn ephemeral_pays_staging() {
        let c = cfg(1);
        let r = run(AppKind::Grep, 30.0, Tier::EphSsd, &c);
        let m = &r.jobs[0];
        assert!(m.stage_in.secs() > 0.0, "must download input");
        // Grep output is tiny; upload may be near-zero but present.
        assert!(m.map.secs() > 0.0);
        // Download at 265 MB/s vs map at 733 MB/s: staging dominates.
        assert!(m.stage_in.secs() > m.map.secs());
    }

    #[test]
    fn sort_slower_than_grep_same_tier() {
        let c = cfg(1);
        let sort = run(AppKind::Sort, 20.0, Tier::PersSsd, &c);
        let grep = run(AppKind::Grep, 20.0, Tier::PersSsd, &c);
        assert!(
            sort.makespan.secs() > 1.5 * grep.makespan.secs(),
            "sort moves ~3-4x the bytes: {} vs {}",
            sort.makespan,
            grep.makespan
        );
    }

    #[test]
    fn more_vms_speed_up_io_bound_jobs() {
        let c1 = cfg(1);
        let c4 = cfg(4);
        let one = run(AppKind::Grep, 60.0, Tier::PersSsd, &c1);
        let four = run(AppKind::Grep, 60.0, Tier::PersSsd, &c4);
        let speedup = one.makespan.secs() / four.makespan.secs();
        assert!(
            speedup > 2.5,
            "4 VMs with 4x aggregate volume bandwidth: got {speedup:.2}x"
        );
    }

    #[test]
    fn sequential_jobs_do_not_overlap() {
        let c = cfg(1);
        let profiles = ProfileSet::defaults();
        let jobs: Vec<JobRun> = (0..2)
            .map(|i| {
                let job = Job::with_default_layout(
                    JobId(i),
                    AppKind::Grep,
                    DatasetId(i),
                    DataSize::from_gb(10.0),
                );
                JobRun::new(
                    job,
                    JobPlacement::all_on(Tier::PersSsd),
                    *profiles.get(AppKind::Grep),
                    vec![],
                )
            })
            .collect();
        let report = Engine::new(&c, jobs).run().unwrap();
        let a = report.job(JobId(0)).unwrap();
        let b = report.job(JobId(1)).unwrap();
        assert!(b.started.secs() >= a.finished.secs() - 1e-6);
    }

    #[test]
    fn parallel_jobs_overlap_and_contend() {
        let mut c = cfg(1);
        let profiles = ProfileSet::defaults();
        let mk = |i: u32| {
            let job = Job::with_default_layout(
                JobId(i),
                AppKind::Grep,
                DatasetId(i),
                DataSize::from_gb(10.0),
            );
            JobRun::new(
                job,
                JobPlacement::all_on(Tier::PersSsd),
                *profiles.get(AppKind::Grep),
                vec![],
            )
        };
        let seq = Engine::new(&c, vec![mk(0), mk(1)]).run().unwrap();
        c.concurrency = Concurrency::Parallel;
        let par = Engine::new(&c, vec![mk(0), mk(1)]).run().unwrap();
        let b = par.job(JobId(1)).unwrap();
        let a = par.job(JobId(0)).unwrap();
        assert!(
            b.started.secs() < a.finished.secs(),
            "parallel mode must overlap"
        );
        // Sharing the volume: parallel makespan close to sequential (same
        // aggregate bytes through the same bottleneck).
        let ratio = par.makespan.secs() / seq.makespan.secs();
        assert!((0.8..1.25).contains(&ratio), "got {ratio}");
    }

    #[test]
    fn dependency_ordering_enforced() {
        let mut c = cfg(1);
        c.concurrency = Concurrency::Parallel;
        let profiles = ProfileSet::defaults();
        let j0 = Job::with_default_layout(
            JobId(0),
            AppKind::Grep,
            DatasetId(0),
            DataSize::from_gb(10.0),
        );
        let j1 = Job::with_default_layout(
            JobId(1),
            AppKind::Grep,
            DatasetId(1),
            DataSize::from_gb(5.0),
        );
        let runs = vec![
            JobRun::new(
                j0,
                JobPlacement::all_on(Tier::PersSsd),
                *profiles.get(AppKind::Grep),
                vec![],
            ),
            JobRun::new(
                j1,
                JobPlacement::all_on(Tier::PersSsd),
                *profiles.get(AppKind::Grep),
                vec![0],
            ),
        ];
        let report = Engine::new(&c, runs).run().unwrap();
        let a = report.job(JobId(0)).unwrap();
        let b = report.job(JobId(1)).unwrap();
        assert!(b.started.secs() >= a.finished.secs() - 1e-6);
    }

    #[test]
    fn fine_grained_split_straggles() {
        // A tenant splitting 6 GB 90/10 across ephSSD/persHDD provisions a
        // minimal 100 GB HDD volume (20 MB/s) for the small slice.
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::EphSsd) = DataSize::from_gb(375.0);
        *agg.get_mut(Tier::PersHdd) = DataSize::from_gb(100.0);
        let mut c = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg).unwrap();
        c.jitter = 0.0;
        let profiles = ProfileSet::defaults();
        let mk = |input: crate::placement::SplitPlacement| {
            let job = Job::with_default_layout(
                JobId(0),
                AppKind::Grep,
                DatasetId(0),
                DataSize::from_gb(6.0),
            );
            let mut p = JobPlacement::all_on(Tier::EphSsd);
            p.stage_in_from = None; // isolate the map phase effect
            p.stage_out_to = None;
            p.input = input;
            JobRun::new(job, p, *profiles.get(AppKind::Grep), vec![])
        };
        let all_eph = Engine::new(
            &c,
            vec![mk(crate::placement::SplitPlacement::single(Tier::EphSsd))],
        )
        .run()
        .unwrap();
        let split = Engine::new(
            &c,
            vec![mk(crate::placement::SplitPlacement::split(
                Tier::EphSsd,
                0.9,
                Tier::PersHdd,
            )
            .unwrap())],
        )
        .run()
        .unwrap();
        // Even with 90% of data on the fast tier, the slow-tier tasks
        // dominate the single map wave (Fig. 5b).
        assert!(
            split.makespan.secs() > 1.5 * all_eph.makespan.secs(),
            "{} vs {}",
            split.makespan,
            all_eph.makespan
        );
    }

    #[test]
    fn stalls_on_unprovisioned_tier() {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(500.0);
        let c = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg).unwrap();
        let profiles = ProfileSet::defaults();
        let job = Job::with_default_layout(
            JobId(0),
            AppKind::Grep,
            DatasetId(0),
            DataSize::from_gb(1.0),
        );
        // persHDD has zero provisioned capacity → zero bandwidth → stall.
        let jr = JobRun::new(
            job,
            JobPlacement::all_on(Tier::PersHdd),
            *profiles.get(AppKind::Grep),
            vec![],
        );
        let err = Engine::new(&c, vec![jr]).run().unwrap_err();
        match err {
            SimError::Stalled {
                job, phase, tier, ..
            } => {
                assert_eq!(job, Some(0));
                assert_eq!(phase, Some("map"));
                assert_eq!(tier.as_deref(), Some("persHDD"));
            }
            other => panic!("expected enriched stall, got {other:?}"),
        }
    }

    // ---- fault injection & recovery ----

    #[test]
    fn empty_plan_is_bit_identical_regardless_of_seed() {
        let c = cfg(1);
        let baseline = run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        let mut reseeded = cfg(1);
        reseeded.faults = FaultPlan {
            seed: 0xdead_beef,
            retry_backoff_secs: 99.0,
            ..FaultPlan::default()
        };
        assert!(reseeded.faults.is_empty());
        let again = run(AppKind::Grep, 10.0, Tier::PersSsd, &reseeded);
        assert_eq!(baseline, again);
        assert!(again.faults.is_quiet());
    }

    #[test]
    fn deterministic_under_faults() {
        let mut c = cfg(2);
        c.faults = FaultPlan::with_task_failures(0.3);
        let a = try_run_edges(AppKind::Sort, 10.0, Tier::PersSsd, &c).unwrap();
        let b = try_run_edges(AppKind::Sort, 10.0, Tier::PersSsd, &c).unwrap();
        assert_eq!(
            a, b,
            "same plan + seed must give identical reports and task edges"
        );
        assert!(a.0.faults.task_failures > 0, "p=0.3 should hit some tasks");
    }

    #[test]
    fn task_failures_are_retried_to_completion() {
        let mut c = cfg(1);
        let baseline = run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        c.faults = FaultPlan {
            // High failure rate with a budget deep enough that no task
            // plausibly exhausts it (0.5⁸ ≈ 0.4 %).
            max_task_attempts: 8,
            ..FaultPlan::with_task_failures(0.5)
        };
        let (faulted, edges) = try_run_edges(AppKind::Grep, 10.0, Tier::PersSsd, &c).unwrap();
        assert!(faulted.faults.task_failures > 0);
        // Without crashes or speculation every failure schedules a retry.
        assert_eq!(faulted.faults.retries, faulted.faults.task_failures);
        assert!(
            faulted.makespan.secs() > baseline.makespan.secs(),
            "re-executed work must cost time: {} vs {}",
            faulted.makespan,
            baseline.makespan
        );
        assert_eq!(
            count(&edges, "failed"),
            faulted.faults.task_failures as usize
        );
        assert_eq!(count(&edges, "retried"), faulted.faults.retries as usize);
        // Per-job counters roll up to the summary.
        let m = &faulted.jobs[0];
        assert_eq!(m.failures, faulted.faults.task_failures);
        assert_eq!(m.retries, faulted.faults.retries);
    }

    #[test]
    fn failure_sweep_trends_upward() {
        // Strict monotonicity is not a theorem under bandwidth sharing (a
        // failed task frees its share mid-wave, and its retry later runs
        // uncontended), so allow sub-percent dips while requiring the
        // overall degradation trend.
        let mut makespans = Vec::new();
        for p in [0.0, 0.1, 0.3, 0.6] {
            let mut c = cfg(1);
            c.faults = FaultPlan {
                max_task_attempts: 16,
                ..FaultPlan::with_task_failures(p)
            };
            makespans.push(run(AppKind::Grep, 5.0, Tier::PersSsd, &c).makespan.secs());
        }
        for w in makespans.windows(2) {
            assert!(w[1] >= 0.99 * w[0], "big makespan drop: {makespans:?}");
        }
        assert!(
            makespans[3] > 1.1 * makespans[0],
            "60% failures must cost real time: {makespans:?}"
        );
    }

    #[test]
    fn vm_crash_finishes_via_reexecution() {
        let mut c = cfg(2);
        let baseline = run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        c.faults = FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: 5.0,
                down_secs: None, // never recovers
            }],
            ..FaultPlan::default()
        };
        let (r, edges) = try_run_edges(AppKind::Grep, 10.0, Tier::PersSsd, &c)
            .expect("crash must be survivable, not a stall");
        assert_eq!(r.faults.vm_crashes, 1);
        assert!(r.faults.kills > 0, "resident tasks must be killed");
        assert!(r.faults.retries > 0, "killed tasks must be re-executed");
        assert!(count(&edges, "killed") > 0);
        assert!(count(&edges, "retried") > 0);
        assert!(
            r.makespan.secs() > baseline.makespan.secs(),
            "half the cluster is gone: {} vs {}",
            r.makespan,
            baseline.makespan
        );
        // Nothing ran on the dead VM after the crash.
        assert!(edges
            .iter()
            .filter(|e| e.t > 5.0 + 1e-9 && e.opens())
            .all(|e| e.vm != 0));
    }

    #[test]
    fn crashed_vm_recovery_restores_capacity() {
        let mut c = cfg(2);
        c.faults = FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: 5.0,
                down_secs: Some(20.0),
            }],
            ..FaultPlan::default()
        };
        let (_, edges) = try_run_edges(AppKind::Sort, 20.0, Tier::PersSsd, &c).unwrap();
        // Work lands on VM 0 again after recovery at t=25.
        assert!(
            edges.iter().any(|e| e.vm == 0 && e.t > 25.0 && e.opens()),
            "recovered VM must take tasks again"
        );
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_job() {
        let mut c = cfg(1);
        c.faults = FaultPlan {
            task_failure_prob: 1.0,
            max_task_attempts: 2,
            retry_backoff_secs: 0.5,
            ..FaultPlan::default()
        };
        let err = try_run(AppKind::Grep, 2.0, Tier::PersSsd, &c).unwrap_err();
        assert_eq!(
            err,
            SimError::JobFailed {
                job: 0,
                attempts: 2
            }
        );
    }

    #[test]
    fn degradation_window_slows_the_job() {
        let mut c = cfg(1);
        let baseline = run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        c.faults = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersSsd,
                start_secs: 0.0,
                end_secs: 1e9,
                multiplier: 0.25,
            }],
            ..FaultPlan::default()
        };
        let degraded = run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        assert!(
            degraded.makespan.secs() > 1.5 * baseline.makespan.secs(),
            "quartered volume bandwidth must hurt an I/O-bound job: {} vs {}",
            degraded.makespan,
            baseline.makespan
        );
        // A window that closes before the run ends costs less than the
        // permanent one.
        let mut brief = cfg(1);
        brief.faults = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersSsd,
                start_secs: 0.0,
                end_secs: 10.0,
                multiplier: 0.25,
            }],
            ..FaultPlan::default()
        };
        let transient = run(AppKind::Grep, 10.0, Tier::PersSsd, &brief);
        assert!(transient.makespan.secs() < degraded.makespan.secs());
        assert!(transient.makespan.secs() > baseline.makespan.secs() - 1e-6);
    }

    #[test]
    fn speculation_rescues_degraded_vm_stragglers() {
        // VM 0's volume crawls at 5% speed; tasks placed there straggle.
        let slow_vm = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: Some(0),
                tier: Tier::PersSsd,
                start_secs: 0.0,
                end_secs: 1e9,
                multiplier: 0.05,
            }],
            ..FaultPlan::default()
        };
        let mut without = cfg(2);
        without.faults = slow_vm.clone();
        let stuck = run(AppKind::Grep, 2.0, Tier::PersSsd, &without);
        let mut with = cfg(2);
        with.faults = FaultPlan {
            speculation_threshold: 0.5,
            ..slow_vm
        };
        let (rescued, edges) = try_run_edges(AppKind::Grep, 2.0, Tier::PersSsd, &with).unwrap();
        assert!(rescued.faults.speculations > 0, "backups must launch");
        assert!(rescued.faults.kills > 0, "a race must have a loser");
        assert!(
            rescued.makespan.secs() < 0.9 * stuck.makespan.secs(),
            "speculation must beat waiting on the slow VM: {} vs {}",
            rescued.makespan,
            stuck.makespan
        );
        assert_eq!(
            count(&edges, "speculated"),
            rescued.faults.speculations as usize
        );
    }

    #[test]
    fn vm_crash_at_time_zero_runs_entirely_on_survivors() {
        // The crash edge fires before any task is placed: nothing to
        // kill, but the dead VM must never take work and the job must
        // still finish on the survivor.
        let mut c = cfg(2);
        c.faults = FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: 0.0,
                down_secs: None,
            }],
            ..FaultPlan::default()
        };
        let (r, edges) = try_run_edges(AppKind::Grep, 10.0, Tier::PersSsd, &c)
            .expect("a boot-time crash must be survivable");
        assert_eq!(r.faults.vm_crashes, 1);
        assert_eq!(r.faults.kills, 0, "no resident tasks to kill at t=0");
        assert!(edges.iter().any(Edge::opens), "the survivor must run tasks");
        assert!(
            edges.iter().filter(|e| e.opens()).all(|e| e.vm != 0),
            "dead-from-boot VM must never open a task"
        );
        // One VM doing all the work is slower than two.
        let baseline = run(AppKind::Grep, 10.0, Tier::PersSsd, &cfg(2));
        assert!(r.makespan.secs() > baseline.makespan.secs());
    }

    #[test]
    fn zero_duration_degradation_window_is_inert() {
        // start == end validates (the plan may be machine-generated) but
        // is never active: both edges fire at the same instant and the
        // active-window predicate is empty between them.
        let baseline = run(AppKind::Grep, 10.0, Tier::PersSsd, &cfg(1));
        let mut c = cfg(1);
        c.faults = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersSsd,
                start_secs: 5.0,
                end_secs: 5.0,
                multiplier: 0.0,
            }],
            ..FaultPlan::default()
        };
        let r = run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        assert_eq!(
            r.makespan.secs(),
            baseline.makespan.secs(),
            "a zero-duration window must not perturb the schedule"
        );
    }

    #[test]
    fn overlapping_same_tier_windows_compose_multiplicatively() {
        let mk = |windows: Vec<DegradationWindow>| {
            let mut c = cfg(1);
            c.faults = FaultPlan {
                degradations: windows,
                ..FaultPlan::default()
            };
            run(AppKind::Grep, 10.0, Tier::PersSsd, &c).makespan.secs()
        };
        let half = |mult: f64| DegradationWindow {
            vm: None,
            tier: Tier::PersSsd,
            start_secs: 0.0,
            end_secs: 1e9,
            multiplier: mult,
        };
        let single = mk(vec![half(0.5)]);
        let overlapped = mk(vec![half(0.5), half(0.5)]);
        let quartered = mk(vec![half(0.25)]);
        assert!(
            overlapped > single,
            "two overlapping windows must hurt more than one: {overlapped} vs {single}"
        );
        // Overlap composes multiplicatively: 0.5 × 0.5 ≡ one 0.25 window.
        assert!(
            (overlapped - quartered).abs() <= 1e-9 * quartered,
            "0.5 x 0.5 overlap must equal a single 0.25 window: \
             {overlapped} vs {quartered}"
        );
    }

    // ---- slot pool ----

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The heap-backed pick answers what the reference engine's scan
        /// answers, through any mix of takes, releases, crashes and
        /// recoveries: after every operation `pick(crashed, except)`
        /// equals [`pick_vm`] over the free counts with `except` zeroed.
        #[test]
        fn slot_pool_pick_matches_the_scan(
            nvm in 1usize..41,
            slots in 0usize..4,
            ops in proptest::collection::vec((0u32..5, 0usize..40, 0usize..41), 1..150),
        ) {
            let mut pool = SlotPool::default();
            pool.reset(nvm, slots, &mut 0);
            let mut crashed = vec![false; nvm];
            for (op, vm, except) in ops {
                let vm = vm % nvm;
                match op {
                    // Take where dispatch would: on the VM a pick returns.
                    0 => {
                        if let Some(v) = pool.pick(&crashed, None) {
                            pool.take(v);
                        }
                    }
                    1 if !crashed[vm] && pool.free[vm] > 0 => pool.take(vm),
                    2 if !crashed[vm] && pool.free[vm] < slots => pool.release(vm, &crashed),
                    3 if !crashed[vm] => {
                        crashed[vm] = true;
                        pool.crash(vm, slots);
                    }
                    4 if crashed[vm] => {
                        crashed[vm] = false;
                        pool.recover(vm);
                    }
                    _ => {}
                }
                let except = (except % (nvm + 1) < nvm).then_some(except % (nvm + 1));
                for except in [None, except] {
                    let mut free = pool.free.clone();
                    if let Some(e) = except {
                        free[e] = 0;
                    }
                    let scan = pick_vm(&free, &crashed);
                    proptest::prop_assert_eq!(pool.pick(&crashed, except), scan);
                }
            }
        }
    }
}

#[cfg(test)]
mod review_probe {
    use super::tests::*;
    use crate::fault::{DegradationWindow, FaultPlan};
    use cast_cloud::tier::Tier;
    use cast_workload::apps::AppKind;

    #[test]
    fn transient_full_outage_window() {
        let mut c = cfg(1);
        c.faults = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersSsd,
                start_secs: 5.0,
                end_secs: 10.0,
                multiplier: 0.0, // full outage for 5s, then recovers
            }],
            ..FaultPlan::default()
        };
        let r = try_run(AppKind::Grep, 10.0, Tier::PersSsd, &c);
        eprintln!(
            "RESULT: {:?}",
            r.as_ref().map(|x| x.makespan).map_err(|e| e.to_string())
        );
        assert!(r.is_ok(), "transient outage should be survivable");
    }
}

#[cfg(test)]
mod scratch_tests {
    use super::tests::cfg;
    use super::*;
    use crate::fault::{FaultPlan, VmCrash};
    use crate::placement::JobPlacement;
    use cast_cloud::tier::Tier;
    use cast_cloud::units::DataSize;
    use cast_workload::apps::AppKind;
    use cast_workload::dataset::DatasetId;
    use cast_workload::job::{Job, JobId};
    use cast_workload::profile::ProfileSet;

    fn jobs(n: usize) -> Vec<JobRun> {
        let profiles = ProfileSet::defaults();
        (0..n)
            .map(|i| {
                let app = if i % 2 == 0 {
                    AppKind::Grep
                } else {
                    AppKind::Sort
                };
                let job = Job::with_default_layout(
                    JobId(i as u32),
                    app,
                    DatasetId(i as u32),
                    DataSize::from_gb(5.0 + i as f64),
                );
                JobRun::new(
                    job,
                    JobPlacement::all_on(Tier::PersSsd),
                    *profiles.get(app),
                    vec![],
                )
            })
            .collect()
    }

    fn faulty_cfg(nvm: usize) -> SimConfig {
        let mut c = cfg(nvm);
        c.faults = FaultPlan {
            seed: 7,
            task_failure_prob: 0.08,
            vm_crashes: vec![VmCrash {
                vm: 1,
                at_secs: 40.0,
                down_secs: Some(60.0),
            }],
            ..FaultPlan::default()
        };
        c
    }

    #[test]
    fn scratch_reuse_does_zero_reallocation() {
        let c = cfg(4);
        let mut scratch = EngineScratch::new();
        let (first, s1) = Engine::with_scratch(&c, jobs(6), &mut scratch)
            .run_with_stats()
            .unwrap();
        assert!(s1.scratch_reallocs > 0, "first run must size the scratch");
        for _ in 0..3 {
            let (again, s2) = Engine::with_scratch(&c, jobs(6), &mut scratch)
                .run_with_stats()
                .unwrap();
            assert_eq!(
                s2.scratch_reallocs, 0,
                "reused scratch over the same catalog must not re-allocate"
            );
            assert_eq!(first.makespan, again.makespan);
            assert_eq!(s1.steps, s2.steps);
        }
    }

    #[test]
    fn scratch_runs_are_bit_identical_to_owned() {
        for c in [cfg(4), faulty_cfg(4)] {
            let (owned, so) = Engine::new(&c, jobs(5)).run_with_stats().unwrap();
            let mut scratch = EngineScratch::new();
            // Prime the scratch with a different-shaped run first.
            let _ = Engine::with_scratch(&cfg(2), jobs(2), &mut scratch)
                .run_with_stats()
                .unwrap();
            let (reused, sr) = Engine::with_scratch(&c, jobs(5), &mut scratch)
                .run_with_stats()
                .unwrap();
            assert_eq!(
                owned.makespan.secs().to_bits(),
                reused.makespan.secs().to_bits()
            );
            assert_eq!(owned.jobs.len(), reused.jobs.len());
            for (a, b) in owned.jobs.iter().zip(reused.jobs.iter()) {
                assert_eq!(a.finished.secs().to_bits(), b.finished.secs().to_bits());
                assert_eq!(a.failures, b.failures);
                assert_eq!(a.retries, b.retries);
            }
            assert_eq!(so.steps, sr.steps);
            assert_eq!(so.heap_stale_popped, sr.heap_stale_popped);
            assert_eq!(so.dirty_drain_batches, sr.dirty_drain_batches);
        }
    }

    #[test]
    fn engine_stats_counters_are_populated() {
        let c = faulty_cfg(4);
        let (_, stats) = Engine::new(&c, jobs(6)).run_with_stats().unwrap();
        assert!(stats.steps > 0);
        assert!(
            stats.dirty_drain_batches > 0,
            "streaming stages must trigger dirty drains"
        );
        assert!(
            stats.dirty_drain_batches <= stats.steps + 1,
            "drains are batched per clock advance: {} vs {} steps",
            stats.dirty_drain_batches,
            stats.steps
        );
        assert!(
            stats.wake_entries_allocated > 0,
            "fault plan events must allocate wake entries"
        );
    }
}
