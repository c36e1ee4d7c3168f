//! Shared-resource bookkeeping: per-VM storage volumes and NICs.
//!
//! Every active streaming task registers its flows on the resources they
//! touch, weighted by bytes-per-unit demand. A resource's bandwidth is
//! divided in proportion to demand: every registered flow progresses at
//! the same *units* rate `capacity / Σ weights`, consuming
//! `weight × rate` bytes — demand-weighted processor sharing. This keeps
//! a volume fully utilised even when some flows (e.g. a map task's small
//! intermediate spill) need far fewer bytes per unit than others, while
//! staying O(flows) to recompute. Slack from flows capped elsewhere (CPU
//! rate, per-task client caps) is not redistributed — a deliberate,
//! conservative simplification that errs in the same direction as real
//! interference.
//!
//! Two registration APIs coexist:
//!
//! * the *batch* API ([`ShareRegistry::clear_counts`] +
//!   [`ShareRegistry::register`]) rebuilds loads from scratch each step —
//!   used by the reference stepper;
//! * the crate-private *incremental* API (`register_flow_at` /
//!   `unregister_flow_at`, addressed by dense resource index and flow
//!   position) keeps per-resource flow lists and a dirty-set so the
//!   event-driven engine can recompute only the tasks whose resources
//!   actually changed.
//!
//! An engine instance must use one API exclusively; mixing them on the
//! same registry desynchronises loads from flow lists.

use serde::{Deserialize, Serialize};

use cast_cloud::tier::Tier;

use crate::config::SimConfig;

/// Identifies one shareable resource in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResKey {
    /// Worker VM index.
    pub vm: u32,
    /// Which of the VM's resources.
    pub kind: ResKind,
}

/// The kinds of per-VM resources tasks contend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResKind {
    /// The VM's provisioned volume (or object-store budget) on a tier.
    Volume(Tier),
    /// The VM's network interface.
    Nic,
}

/// Resources per VM: four tier volumes + one NIC.
const SLOTS_PER_VM: usize = 5;

/// Number of storage tiers (per-VM volume slots `0..NTIERS`).
const NTIERS: usize = 4;

/// Sentinel VM id addressing cluster-global resources (the object-store
/// bucket ceiling).
pub const GLOBAL_VM: u32 = u32::MAX;

#[inline]
fn slot(kind: ResKind) -> usize {
    match kind {
        ResKind::Volume(t) => t.index(),
        ResKind::Nic => 4,
    }
}

/// One registered flow on a resource (incremental API).
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Owning task's index in the engine's task vector.
    task: u32,
    /// Bytes-per-unit demand.
    weight: f64,
}

/// Reported when unregistering a flow moved another flow into the freed
/// position (swap-remove): the owner of the moved flow must update the
/// position it holds for resource `res` from `from` to `to`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MovedFlow {
    /// Task owning the moved flow.
    pub(crate) task: u32,
    /// Resource index the move happened on.
    pub(crate) res: u32,
    /// The moved flow's old position (the former last slot).
    pub(crate) from: u32,
    /// The moved flow's new position.
    pub(crate) to: u32,
}

/// Tracks capacity and aggregate flow demand for every resource.
#[derive(Debug, Clone)]
pub struct ShareRegistry {
    caps: Vec<f64>,
    /// Memoized `caps / load` per resource (`+inf` when unloaded),
    /// refreshed whenever either input changes. Rate queries outnumber
    /// load changes several-fold on the hot path, so paying the division
    /// once per change instead of once per query is a net win — and the
    /// cached value is the *same* division, so it is bit-identical to
    /// computing fresh.
    unit_cache: Vec<f64>,
    /// Undegraded capacities; `caps` is rebuilt from these whenever a
    /// fault-injection degradation window opens or closes.
    base: Vec<f64>,
    load: Vec<f64>,
    /// Per-resource flow lists (incremental API only; empty under the
    /// batch API).
    flows: Vec<Vec<Flow>>,
    /// Resources whose load or capacity changed since the last
    /// [`ShareRegistry::drain_dirty`].
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Running per-tier demand across VM volumes (cluster-global slot
    /// excluded), kept so contention samples are O(1) instead of a
    /// registry scan.
    tier_demand: [f64; NTIERS],
    /// Running per-tier capacity across VM volumes.
    tier_cap: [f64; NTIERS],
}

impl ShareRegistry {
    /// An unprovisioned registry (no resources). Provision it with
    /// [`ShareRegistry::reset_for`]; useful for scratch state that is
    /// built once and re-pointed at a cluster per run.
    pub fn empty() -> ShareRegistry {
        ShareRegistry {
            caps: Vec::new(),
            unit_cache: Vec::new(),
            base: Vec::new(),
            load: Vec::new(),
            flows: Vec::new(),
            dirty: Vec::new(),
            dirty_list: Vec::new(),
            tier_demand: [0.0; NTIERS],
            tier_cap: [0.0; NTIERS],
        }
    }

    /// Build the registry for a configured cluster.
    pub fn new(cfg: &SimConfig) -> ShareRegistry {
        let mut reg = ShareRegistry::empty();
        reg.reset_for(cfg);
        reg
    }

    /// Re-provision for `cfg` in place, reusing every allocation and
    /// clearing all flows, loads, and degradation scales. The per-VM
    /// capacity pattern is computed once and stamped across VMs (the
    /// provisioner is deterministic per tier, so per-VM recomputation is
    /// pure waste at 10k-VM scale). Returns how many internal buffers had
    /// to grow — zero when the registry was last provisioned for an
    /// equal-or-larger cluster.
    pub fn reset_for(&mut self, cfg: &SimConfig) -> u64 {
        // One extra slot at the end for the cluster-global object-store
        // ceiling.
        let n = cfg.nvm * SLOTS_PER_VM + 1;
        let mut grown = 0u64;
        let mut fit = |v: &mut Vec<f64>| {
            if v.capacity() < n {
                grown += 1;
            }
            v.clear();
            v.resize(n, 0.0);
        };
        fit(&mut self.caps);
        fit(&mut self.base);
        fit(&mut self.load);
        fit(&mut self.unit_cache);
        self.unit_cache.iter_mut().for_each(|c| *c = f64::INFINITY);
        if self.dirty.capacity() < n {
            grown += 1;
        }
        self.dirty.clear();
        self.dirty.resize(n, false);
        self.dirty_list.clear();
        if self.flows.capacity() < n {
            grown += 1;
        }
        for f in &mut self.flows {
            f.clear();
        }
        self.flows.truncate(n);
        while self.flows.len() < n {
            self.flows.push(Vec::new());
        }

        let mut vm_caps = [0.0; SLOTS_PER_VM];
        for tier in Tier::ALL {
            vm_caps[slot(ResKind::Volume(tier))] = cfg.vm_tier_bandwidth(tier).mb_per_sec();
        }
        vm_caps[slot(ResKind::Nic)] = cfg.vm.nic.mb_per_sec();
        for vm in 0..cfg.nvm {
            self.base[vm * SLOTS_PER_VM..(vm + 1) * SLOTS_PER_VM].copy_from_slice(&vm_caps);
        }
        self.base[n - 1] = cfg.objstore_cluster_mbps;
        self.caps.copy_from_slice(&self.base);
        self.tier_demand = [0.0; NTIERS];
        self.recompute_tier_caps();
        grown
    }

    /// Number of per-VM resource blocks.
    fn nvm(&self) -> usize {
        (self.caps.len() - 1) / SLOTS_PER_VM
    }

    /// Tier index of resource `i`, if it is a per-VM volume (the
    /// cluster-global slot and NICs carry no tier).
    #[inline]
    fn tier_of_index(&self, i: usize) -> Option<usize> {
        if i + 1 == self.caps.len() {
            return None;
        }
        let s = i % SLOTS_PER_VM;
        (s < NTIERS).then_some(s)
    }

    fn recompute_tier_caps(&mut self) {
        self.tier_cap = [0.0; NTIERS];
        for i in 0..self.caps.len() {
            if let Some(t) = self.tier_of_index(i) {
                self.tier_cap[t] += self.caps[i];
            }
        }
    }

    #[inline]
    fn mark_dirty(&mut self, i: usize) {
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(i as u32);
        }
    }

    /// Restore every capacity to its undegraded value, marking resources
    /// whose capacity actually changes as dirty.
    pub fn reset_scales(&mut self) {
        for i in 0..self.caps.len() {
            if self.caps[i] != self.base[i] {
                self.caps[i] = self.base[i];
                self.refresh_cache(i);
                self.mark_dirty(i);
            }
        }
        self.recompute_tier_caps();
    }

    /// Re-derive the memoized unit rate after a load or capacity change.
    #[inline]
    fn refresh_cache(&mut self, i: usize) {
        self.unit_cache[i] = if self.load[i] <= 0.0 {
            f64::INFINITY
        } else {
            self.caps[i] / self.load[i]
        };
    }

    /// Multiply the capacity of `tier`'s volume by `factor` — on one VM,
    /// or (with `vm = None`) on every VM plus, for the object store, the
    /// cluster-global ceiling. Factors compose multiplicatively until the
    /// next [`ShareRegistry::reset_scales`].
    pub fn scale_tier(&mut self, vm: Option<u32>, tier: Tier, factor: f64) {
        match vm {
            Some(v) => {
                let i = v as usize * SLOTS_PER_VM + slot(ResKind::Volume(tier));
                self.rescale(i, factor);
            }
            None => {
                for v in 0..self.nvm() {
                    let i = v * SLOTS_PER_VM + slot(ResKind::Volume(tier));
                    self.rescale(i, factor);
                }
                if tier == Tier::ObjStore {
                    let n = self.caps.len();
                    self.rescale(n - 1, factor);
                }
            }
        }
        self.recompute_tier_caps();
    }

    #[inline]
    fn rescale(&mut self, i: usize, factor: f64) {
        let new = self.caps[i] * factor;
        if new != self.caps[i] {
            self.caps[i] = new;
            self.refresh_cache(i);
            self.mark_dirty(i);
        }
    }

    #[inline]
    fn index(&self, key: ResKey) -> usize {
        if key.vm == GLOBAL_VM {
            self.caps.len() - 1
        } else {
            key.vm as usize * SLOTS_PER_VM + slot(key.kind)
        }
    }

    /// Reset all loads (called before re-registering the active set).
    /// Batch API.
    pub fn clear_counts(&mut self) {
        self.load.iter_mut().for_each(|c| *c = 0.0);
        self.unit_cache.iter_mut().for_each(|c| *c = f64::INFINITY);
        self.tier_demand = [0.0; NTIERS];
    }

    /// Register one flow on `key` demanding `weight` bytes per unit.
    /// Batch API.
    #[inline]
    pub fn register(&mut self, key: ResKey, weight: f64) {
        let i = self.index(key);
        self.load[i] += weight;
        self.refresh_cache(i);
        if let Some(t) = self.tier_of_index(i) {
            self.tier_demand[t] += weight;
        }
    }

    /// Resolve `key` to its dense resource index, for engines that cache
    /// indices instead of re-deriving them per rate query.
    #[inline]
    pub(crate) fn res_index(&self, key: ResKey) -> u32 {
        self.index(key) as u32
    }

    /// Units-rate of the resource at dense index `i` (see
    /// [`ShareRegistry::unit_rate`]).
    #[inline]
    pub(crate) fn unit_rate_at(&self, i: u32) -> f64 {
        self.unit_cache[i as usize]
    }

    /// Register a persistent flow for `task` on the resource at dense
    /// index `i` (incremental API), returning the flow's position.
    #[inline]
    pub(crate) fn register_flow_at(&mut self, i: u32, weight: f64, task: u32) -> u32 {
        let i = i as usize;
        self.load[i] += weight;
        self.refresh_cache(i);
        if let Some(t) = self.tier_of_index(i) {
            self.tier_demand[t] += weight;
        }
        let pos = self.flows[i].len() as u32;
        self.flows[i].push(Flow { task, weight });
        self.mark_dirty(i);
        pos
    }

    /// Remove the flow at position `pos` of resource `res` (incremental
    /// API). The load is re-summed from the remaining flows, so it cannot
    /// drift away from the true sum over long runs and is exactly zero
    /// when the list empties. Returns the fix-up the caller must apply
    /// when another flow was swapped into the freed position.
    pub(crate) fn unregister_flow_at(&mut self, res: u32, pos: u32) -> Option<MovedFlow> {
        let i = res as usize;
        self.flows[i].swap_remove(pos as usize);
        let new_load: f64 = self.flows[i].iter().map(|f| f.weight).sum();
        if let Some(t) = self.tier_of_index(i) {
            self.tier_demand[t] += new_load - self.load[i];
        }
        self.load[i] = new_load;
        self.refresh_cache(i);
        self.mark_dirty(i);
        let from = self.flows[i].len() as u32;
        (pos < from).then(|| MovedFlow {
            task: self.flows[i][pos as usize].task,
            res,
            from,
            to: pos,
        })
    }

    /// Re-point the flow at position `pos` of resource `res` at a new
    /// owning task index (after the engine swap-removes a task). Load is
    /// unchanged.
    #[inline]
    pub(crate) fn retarget_flow_at(&mut self, res: u32, pos: u32, task: u32) {
        self.flows[res as usize][pos as usize].task = task;
    }

    /// Whether any resource changed since the last drain.
    #[inline]
    pub fn has_dirty(&self) -> bool {
        !self.dirty_list.is_empty()
    }

    /// Visit the owning task of every flow on every dirty resource (a
    /// task may be visited more than once), then clear the dirty set.
    /// Visit order is deterministic: dirty resources in marking order,
    /// flows in list order.
    pub fn drain_dirty(&mut self, mut f: impl FnMut(u32)) {
        for k in 0..self.dirty_list.len() {
            let i = self.dirty_list[k] as usize;
            self.dirty[i] = false;
            for flow in &self.flows[i] {
                f(flow.task);
            }
        }
        self.dirty_list.clear();
    }

    /// Raw capacity of `key` in MB/s.
    #[inline]
    pub fn capacity(&self, key: ResKey) -> f64 {
        self.caps[self.index(key)]
    }

    /// Units-rate available on `key`: `capacity / Σ weights`. A resource
    /// with no registered demand imposes no constraint beyond capacity.
    #[inline]
    pub fn unit_rate(&self, key: ResKey) -> f64 {
        let i = self.index(key);
        if self.load[i] <= 0.0 {
            f64::INFINITY
        } else {
            self.caps[i] / self.load[i]
        }
    }

    /// Aggregate registered demand on `key` (bytes per unit summed over
    /// flows).
    #[inline]
    pub fn load(&self, key: ResKey) -> f64 {
        self.load[self.index(key)]
    }

    /// Cluster-wide `(demand, capacity)` for `tier`, summed over every
    /// VM's volume of that tier (the cluster-global object-store ceiling
    /// is a separate resource and not included). O(1): read from running
    /// totals maintained at register/unregister/rescale time. Used for
    /// observability contention samples; never consulted by the rate
    /// computation.
    pub fn tier_totals(&self, tier: Tier) -> (f64, f64) {
        let t = tier.index();
        (self.tier_demand[t], self.tier_cap[t])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::PerTier;
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;

    fn cfg() -> SimConfig {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(500.0);
        SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 2, &agg).unwrap()
    }

    #[test]
    fn capacities_match_config() {
        let c = cfg();
        let reg = ShareRegistry::new(&c);
        let key = ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::PersSsd),
        };
        // 250 GB per VM → 117 MB/s.
        assert!((reg.capacity(key) - 0.468 * 250.0).abs() < 1e-9);
        let nic = ResKey {
            vm: 1,
            kind: ResKind::Nic,
        };
        assert!((reg.capacity(nic) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_sharing_divides_by_demand() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        let key = ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::ObjStore),
        };
        assert_eq!(reg.unit_rate(key), f64::INFINITY);
        // A full-rate reader (weight 1) plus a small spill (weight 0.25):
        // both progress at 265/1.25 = 212 units/s; the reader consumes
        // 212 MB/s, the spill 53 MB/s — the volume is fully used.
        reg.register(key, 1.0);
        reg.register(key, 0.25);
        assert!((reg.unit_rate(key) - 265.0 / 1.25).abs() < 1e-9);
        assert!((reg.load(key) - 1.25).abs() < 1e-12);
        reg.clear_counts();
        assert_eq!(reg.load(key), 0.0);
    }

    #[test]
    fn vms_are_independent() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        let a = ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::PersSsd),
        };
        let b = ResKey {
            vm: 1,
            kind: ResKind::Volume(Tier::PersSsd),
        };
        reg.register(a, 1.0);
        assert_eq!(reg.load(b), 0.0);
        assert!(reg.unit_rate(b) > reg.unit_rate(a));
    }

    #[test]
    fn equal_weights_reduce_to_equal_share() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        let key = ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::PersSsd),
        };
        for _ in 0..4 {
            reg.register(key, 1.0);
        }
        let cap = reg.capacity(key);
        assert!((reg.unit_rate(key) - cap / 4.0).abs() < 1e-9);
    }

    // ---- incremental API ----

    #[test]
    fn flow_register_unregister_roundtrips_exactly() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        let key = ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::PersSsd),
        };
        let res = reg.res_index(key);
        let a = reg.register_flow_at(res, 0.1, 7);
        let b = reg.register_flow_at(res, 0.2, 8);
        reg.register_flow_at(res, 0.3, 9);
        assert!((reg.load(key) - 0.6).abs() < 1e-12);
        // Removing the first flow swaps the last into its slot.
        let moved = reg.unregister_flow_at(res, a).expect("swap moved a flow");
        assert_eq!(moved.task, 9);
        assert_eq!(moved.res, res);
        assert_eq!(moved.to, 0);
        assert_eq!(moved.from, 2);
        assert!((reg.load(key) - 0.5).abs() < 1e-12);
        assert!(reg.unregister_flow_at(res, b).is_none());
        assert!(reg.unregister_flow_at(res, moved.to).is_none());
        // Re-summing on unregister guarantees an exactly idle resource.
        assert_eq!(reg.load(key), 0.0);
        assert_eq!(reg.unit_rate(key), f64::INFINITY);
    }

    #[test]
    fn dirty_set_reports_affected_tasks_once_per_flow() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        let key = ResKey {
            vm: 1,
            kind: ResKind::Nic,
        };
        let res = reg.res_index(key);
        reg.register_flow_at(res, 1.0, 3);
        reg.register_flow_at(res, 1.0, 4);
        assert!(reg.has_dirty());
        let mut seen = Vec::new();
        reg.drain_dirty(|t| seen.push(t));
        assert_eq!(seen, vec![3, 4]);
        assert!(!reg.has_dirty());
        // Capacity changes re-dirty the resource's flows.
        reg.scale_tier(Some(1), Tier::PersSsd, 0.5);
        let mut seen = Vec::new();
        reg.drain_dirty(|t| seen.push(t));
        assert!(seen.is_empty(), "no flows on the scaled volume");
        reg.reset_scales();
        assert!(
            !reg.has_dirty() || {
                let mut any = false;
                reg.drain_dirty(|_| any = true);
                !any
            }
        );
    }

    #[test]
    fn scale_of_one_does_not_dirty() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        reg.scale_tier(None, Tier::PersSsd, 1.0);
        assert!(!reg.has_dirty());
        reg.reset_scales();
        assert!(!reg.has_dirty());
    }

    #[test]
    fn tier_totals_track_running_sums() {
        let c = cfg();
        let mut reg = ShareRegistry::new(&c);
        let (d0, cap0) = reg.tier_totals(Tier::PersSsd);
        assert_eq!(d0, 0.0);
        let per_vm = reg.capacity(ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::PersSsd),
        });
        assert!((cap0 - 2.0 * per_vm).abs() < 1e-9);
        let key = ResKey {
            vm: 0,
            kind: ResKind::Volume(Tier::PersSsd),
        };
        let h = reg.res_index(key);
        let h_pos = reg.register_flow_at(h, 1.5, 0);
        // The cluster-global object-store slot must stay excluded.
        let g = reg.res_index(ResKey {
            vm: GLOBAL_VM,
            kind: ResKind::Volume(Tier::ObjStore),
        });
        let g_pos = reg.register_flow_at(g, 9.0, 0);
        assert!((reg.tier_totals(Tier::PersSsd).0 - 1.5).abs() < 1e-12);
        assert_eq!(reg.tier_totals(Tier::ObjStore).0, 0.0);
        reg.unregister_flow_at(h, h_pos);
        reg.unregister_flow_at(g, g_pos);
        assert_eq!(reg.tier_totals(Tier::PersSsd).0, 0.0);
        // Degradation scaling is reflected in the running capacity.
        reg.scale_tier(None, Tier::PersSsd, 0.25);
        let (_, cap) = reg.tier_totals(Tier::PersSsd);
        assert!((cap - 0.5 * per_vm).abs() < 1e-9);
        reg.reset_scales();
        assert!((reg.tier_totals(Tier::PersSsd).1 - cap0).abs() < 1e-9);
    }
}
