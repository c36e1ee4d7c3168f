//! Data-oriented storage for the event-driven engine's hot state.
//!
//! The engine's per-task state lives here as struct-of-arrays columns
//! ([`TaskTable`]) indexed by dense `u32`-sized handles, instead of a
//! `Vec<RunningTask>` of pointer-rich structs. The hot loop (rate
//! refreshes, materialization, heap scheduling) touches only the few
//! columns it needs, each a contiguous array:
//!
//! * identity columns (`job`, `vm`, `slot`, `uid`, …) are written once at
//!   spawn and read on retire/fail paths;
//! * the *current-stage mirror* (`fixed`, `units`, `cap`, `part_res`,
//!   `part_w`) caches the streaming stage's remaining work and its
//!   pre-resolved resource indices, so a rate recomputation is four array
//!   reads instead of re-deriving `ResKey → index` per flow part;
//! * the incremental-scheduling columns (`rate`, `anchor`, `predicted`,
//!   `heap_pos`, `flow_pos`, `registered`, `dirty`) replace the old
//!   index-parallel `TaskAux` vector.
//!
//! Sentinels replace `Option` wrappers so columns stay flat primitives:
//! [`NO_RES`]/[`NO_POS`]/[`NO_TEMPLATE`] (`u32::MAX`), [`NO_TWIN`]
//! (`u64::MAX` — task uids are `(job << 32) | seq`, optionally with the
//! backup bit, and can never collide), and [`NO_DOOM`] (`+∞`, which is
//! algebraically inert: subtracting streamed units keeps it infinite and
//! the doom-clamp `min(∞ / rate)` is a no-op).
//!
//! Task templates are interned in a [`TemplateArena`]: dispatch *moves*
//! each template out of the job's pending queue into a reference-counted
//! slab slot, so retries and speculative backups share one copy by id
//! instead of cloning `Box<TaskTemplate>` per attempt. Bound-stage
//! buffers are pooled (returned on [`TaskTable::swap_remove`] and
//! [`TaskTable::clear_into`]) and reused across task lifetimes and
//! across runs, so the steady state allocates nothing.

use crate::task::{BoundStage, SlotKind, TaskTemplate};

/// Sentinel resource index: flow part absent (or zero demand).
pub(crate) const NO_RES: u32 = u32::MAX;
/// Sentinel flow position: part not currently registered.
pub(crate) const NO_POS: u32 = u32::MAX;
/// Sentinel template id (task spawned without an interned template).
pub(crate) const NO_TEMPLATE: u32 = u32::MAX;
/// Sentinel uid for "no twin": never a real task uid.
pub(crate) const NO_TWIN: u64 = u64::MAX;
/// Sentinel doom point: the attempt will not fail. `+∞` is inert under
/// the engine's doom arithmetic (`∞ − x = ∞`, `min(dt, ∞/rate) = dt`).
pub(crate) const NO_DOOM: f64 = f64::INFINITY;
/// Sentinel heap position: the task has no entry in the completion heap.
pub(crate) const NO_HEAP: u32 = u32::MAX;

/// Struct-of-arrays task state; all columns are index-parallel and
/// swap-removed in lockstep.
#[derive(Clone, Default)]
pub(crate) struct TaskTable {
    // ---- identity (written at spawn) ----
    pub job: Vec<u32>,
    pub vm: Vec<u32>,
    pub slot: Vec<SlotKind>,
    pub uid: Vec<u64>,
    pub attempt: Vec<u32>,
    /// Uid of the original this backup shadows, or [`NO_TWIN`].
    pub backup_of: Vec<u64>,
    pub speculated: Vec<bool>,
    /// Streaming units left until this attempt fails ([`NO_DOOM`] =
    /// the attempt will not fail).
    pub doom: Vec<f64>,
    /// Interned template id in the [`TemplateArena`].
    pub template: Vec<u32>,
    // ---- stage cursor ----
    /// Index of the current stage within `stage_buf`.
    pub stage: Vec<u32>,
    pub nstages: Vec<u32>,
    /// Bound stages (armed fixed latencies included), one pooled buffer
    /// per task. Only read on stage advancement and error paths; the
    /// current stage's hot fields are mirrored in the columns below.
    pub stage_buf: Vec<Vec<BoundStage>>,
    // ---- current-stage mirror (hot) ----
    pub fixed: Vec<f64>,
    pub units: Vec<f64>,
    /// Per-task rate cap of the current stage.
    pub cap: Vec<f64>,
    /// Resolved registry indices of the stage's flow parts (read, write,
    /// net, global), [`NO_RES`] where absent.
    pub part_res: Vec<[u32; 4]>,
    /// Bytes-per-unit weights matching `part_res`.
    pub part_w: Vec<[f64; 4]>,
    // ---- incremental scheduling ----
    pub rate: Vec<f64>,
    pub anchor: Vec<f64>,
    pub predicted: Vec<f64>,
    /// Slot this task's entry occupies in the completion heap, or
    /// [`NO_HEAP`]. Maintained by the heap's sift operations so re-keying
    /// and removal are positional instead of version-churned.
    pub heap_pos: Vec<u32>,
    /// Registered flow position per part, [`NO_POS`] when unregistered.
    pub flow_pos: Vec<[u32; 4]>,
    pub registered: Vec<bool>,
    /// Dedup flag for the dirty drain (false outside `flush_dirty`).
    pub dirty: Vec<bool>,
}

impl TaskTable {
    #[inline]
    pub fn len(&self) -> usize {
        self.job.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.job.is_empty()
    }

    /// Push one task; the caller fills the current-stage mirror via
    /// [`TaskTable::load_stage`] afterwards. Returns the new index.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        job: usize,
        vm: u32,
        slot: SlotKind,
        uid: u64,
        attempt: u32,
        backup_of: u64,
        speculated: bool,
        doom: f64,
        template: u32,
        buf: Vec<BoundStage>,
        clock: f64,
    ) -> usize {
        let idx = self.len();
        self.job.push(job as u32);
        self.vm.push(vm);
        self.slot.push(slot);
        self.uid.push(uid);
        self.attempt.push(attempt);
        self.backup_of.push(backup_of);
        self.speculated.push(speculated);
        self.doom.push(doom);
        self.template.push(template);
        self.stage.push(0);
        self.nstages.push(buf.len() as u32);
        self.stage_buf.push(buf);
        self.fixed.push(0.0);
        self.units.push(0.0);
        self.cap.push(0.0);
        self.part_res.push([NO_RES; 4]);
        self.part_w.push([0.0; 4]);
        self.rate.push(0.0);
        self.anchor.push(clock);
        self.predicted.push(f64::INFINITY);
        self.heap_pos.push(NO_HEAP);
        self.flow_pos.push([NO_POS; 4]);
        self.registered.push(false);
        self.dirty.push(false);
        idx
    }

    /// Whether the task has a current stage (not yet past its last).
    #[inline]
    pub fn has_stage(&self, idx: usize) -> bool {
        self.stage[idx] < self.nstages[idx]
    }

    /// Whether the current stage has nothing left (mirrors
    /// [`BoundStage::is_done`]).
    #[inline]
    pub fn stage_done(&self, idx: usize) -> bool {
        self.fixed[idx] <= 0.0 && self.units[idx] <= 1e-9
    }

    /// The current stage's bound form (error paths and stage advancement;
    /// remaining-work fields may be stale — the mirror is authoritative).
    #[inline]
    pub fn bound_stage(&self, idx: usize) -> Option<&BoundStage> {
        self.stage_buf[idx].get(self.stage[idx] as usize)
    }

    /// Load the current stage's hot fields into the mirror columns.
    /// `resolve` maps each flow part `(ResKey, weight)` to its registry
    /// index (or [`NO_RES`] for zero-demand parts).
    #[inline]
    pub fn load_stage(&mut self, idx: usize, resolve: impl Fn(crate::resources::ResKey) -> u32) {
        let s = &self.stage_buf[idx][self.stage[idx] as usize];
        self.fixed[idx] = s.fixed_remaining;
        self.units[idx] = s.units_remaining;
        self.cap[idx] = s.rate_cap;
        let mut res = [NO_RES; 4];
        let mut w = [0.0; 4];
        for (k, part) in s.flow_parts().into_iter().enumerate() {
            if let Some((key, ratio)) = part {
                if ratio > 0.0 {
                    res[k] = resolve(key);
                    w[k] = ratio;
                }
            }
        }
        self.part_res[idx] = res;
        self.part_w[idx] = w;
    }

    /// Swap-remove task `idx` from every column, returning its pooled
    /// stage buffer for reuse. The caller handles flow/heap fix-ups for
    /// the task moved into the freed slot.
    pub fn swap_remove(&mut self, idx: usize) -> Vec<BoundStage> {
        self.job.swap_remove(idx);
        self.vm.swap_remove(idx);
        self.slot.swap_remove(idx);
        self.uid.swap_remove(idx);
        self.attempt.swap_remove(idx);
        self.backup_of.swap_remove(idx);
        self.speculated.swap_remove(idx);
        self.doom.swap_remove(idx);
        self.template.swap_remove(idx);
        self.stage.swap_remove(idx);
        self.nstages.swap_remove(idx);
        let buf = self.stage_buf.swap_remove(idx);
        self.fixed.swap_remove(idx);
        self.units.swap_remove(idx);
        self.cap.swap_remove(idx);
        self.part_res.swap_remove(idx);
        self.part_w.swap_remove(idx);
        self.rate.swap_remove(idx);
        self.anchor.swap_remove(idx);
        self.predicted.swap_remove(idx);
        self.heap_pos.swap_remove(idx);
        self.flow_pos.swap_remove(idx);
        self.registered.swap_remove(idx);
        self.dirty.swap_remove(idx);
        buf
    }

    /// Drop all tasks, returning their stage buffers to `pool` so the
    /// next run reuses them.
    pub fn clear_into(&mut self, pool: &mut Vec<Vec<BoundStage>>) {
        pool.extend(self.stage_buf.drain(..).map(|mut b| {
            b.clear();
            b
        }));
        self.job.clear();
        self.vm.clear();
        self.slot.clear();
        self.uid.clear();
        self.attempt.clear();
        self.backup_of.clear();
        self.speculated.clear();
        self.doom.clear();
        self.template.clear();
        self.stage.clear();
        self.nstages.clear();
        self.fixed.clear();
        self.units.clear();
        self.cap.clear();
        self.part_res.clear();
        self.part_w.clear();
        self.rate.clear();
        self.anchor.clear();
        self.predicted.clear();
        self.heap_pos.clear();
        self.flow_pos.clear();
        self.registered.clear();
        self.dirty.clear();
    }
}

/// Reference-counted slab of interned [`TaskTemplate`]s.
///
/// Dispatch moves each template out of the job's pending queue into a
/// slot; retries and speculative backups share the slot by id (bumping
/// the count) instead of cloning. Freed slots are recycled — the old
/// template is dropped only when a new one overwrites its slot, so the
/// arena's footprint is bounded by the peak live-task count.
#[derive(Clone, Default)]
pub(crate) struct TemplateArena {
    slots: Vec<TaskTemplate>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl TemplateArena {
    /// Intern `template` (by move), returning its id with refcount 1.
    pub fn insert(&mut self, template: TaskTemplate) -> u32 {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = template;
            self.refs[id as usize] = 1;
            id
        } else {
            let id = self.slots.len() as u32;
            self.slots.push(template);
            self.refs.push(1);
            id
        }
    }

    #[inline]
    pub fn get(&self, id: u32) -> &TaskTemplate {
        &self.slots[id as usize]
    }

    /// Add one reference (a retry entry or speculative backup sharing
    /// the template).
    #[inline]
    pub fn retain(&mut self, id: u32) {
        self.refs[id as usize] += 1;
    }

    /// Drop one reference; the slot is recycled once the count reaches
    /// zero.
    pub fn release(&mut self, id: u32) {
        let r = &mut self.refs[id as usize];
        *r -= 1;
        if *r == 0 {
            self.free.push(id);
        }
    }

    /// Drop every template (run teardown); slot storage is kept.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.refs.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{SlotKind, StageLabel, StageSpec};

    fn template(units: f64) -> TaskTemplate {
        TaskTemplate {
            slot: SlotKind::Map,
            stages: vec![StageSpec {
                label: StageLabel::Map,
                fixed: 0.0,
                units,
                read: None,
                write: None,
                net_ratio: 0.0,
                rate_cap: 1.0,
            }],
        }
    }

    #[test]
    fn arena_recycles_slots_after_release() {
        let mut a = TemplateArena::default();
        let x = a.insert(template(1.0));
        let y = a.insert(template(2.0));
        assert_ne!(x, y);
        a.retain(x);
        a.release(x);
        // Still one reference: the slot must not be reused.
        let z = a.insert(template(3.0));
        assert_ne!(z, x);
        a.release(x);
        let reused = a.insert(template(4.0));
        assert_eq!(reused, x, "freed slot must be recycled");
        assert!((a.get(reused).total_units() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_swap_remove_keeps_columns_parallel() {
        let mut t = TaskTable::default();
        for i in 0..3u64 {
            t.push(
                i as usize,
                i as u32,
                SlotKind::Map,
                i,
                1,
                NO_TWIN,
                false,
                NO_DOOM,
                NO_TEMPLATE,
                Vec::new(),
                0.0,
            );
        }
        let buf = t.swap_remove(0);
        assert!(buf.is_empty());
        assert_eq!(t.len(), 2);
        // Task 2 moved into slot 0.
        assert_eq!(t.uid[0], 2);
        assert_eq!(t.job[0], 2);
        assert_eq!(t.uid[1], 1);
        let mut pool = Vec::new();
        t.clear_into(&mut pool);
        assert_eq!(pool.len(), 2);
        assert!(t.is_empty());
    }
}
