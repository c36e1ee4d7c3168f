//! The pre-overhaul progress-based stepper, kept as an equivalence oracle.
//!
//! [`ReferenceEngine`] recomputes *every* streaming task's rate and
//! advances *every* active task on *every* event — O(events × active
//! tasks) overall. It is the original engine implementation, preserved
//! so the event-driven [`crate::engine::Engine`] can be checked against
//! it: across randomized specs, placements and fault plans the two must
//! agree within 1e-6 relative on makespan and per-job phase times (see
//! `tests/engine_equivalence.rs`). Only tests call it, so release
//! binaries do not contain it.
//!
//! Semantics are documented on [`crate::engine`]; this module only
//! differs in *how* time is advanced, never in *what* is simulated. Keep
//! the two engines' decision points (dispatch order, VM picks, fault
//! arming, speculation policy) in lockstep when editing either. The
//! engines share code only where a second copy would check nothing: the
//! keyed fault draw, report assembly and the stall and budget errors.
//! Time advancement, the `pick_vm` scan and the per-VM slot counts here
//! are the reference's own, so the oracle checks the event engine's
//! completion heap, lazy advancement and slot pools independently.

use cast_obs::{Collector, EventBody};

use crate::config::{Concurrency, SimConfig, EVENT_BUDGET};
use crate::engine::{
    budget_error, build_report, pick_vm, stage_tier, stalled_error, EngineStats, FaultEventKind,
    FaultState, RetryEntry, SimObs, TaskEventKind, BACKUP_BIT, CONTENTION_STRIDE, EPS,
};
use crate::error::SimError;
use crate::fault::attempt_rng;
use crate::jobrun::{JobPhase, JobRun};
use crate::metrics::SimReport;
use crate::resources::ShareRegistry;
use crate::task::{RunningTask, SlotKind};

/// The original O(events × active tasks) stepper. Construct with
/// [`ReferenceEngine::new`], run with [`ReferenceEngine::run`].
pub struct ReferenceEngine<'a> {
    cfg: &'a SimConfig,
    reg: ShareRegistry,
    jobs: Vec<JobRun>,
    tasks: Vec<RunningTask>,
    rates: Vec<f64>,
    free_map: Vec<usize>,
    free_red: Vec<usize>,
    clock: f64,
    dispatch_cursor: usize,
    fault: FaultState,
    obs: SimObs,
    steps_done: u64,
}

impl<'a> ReferenceEngine<'a> {
    /// Build an engine over prepared job runs. `jobs` must be ordered so
    /// that every dependency index is smaller than the dependent's index.
    pub fn new(cfg: &'a SimConfig, jobs: Vec<JobRun>) -> ReferenceEngine<'a> {
        ReferenceEngine::observed(cfg, jobs, Collector::noop())
    }

    /// [`ReferenceEngine::new`] with an observability collector attached.
    pub fn observed(
        cfg: &'a SimConfig,
        jobs: Vec<JobRun>,
        collector: Collector,
    ) -> ReferenceEngine<'a> {
        let fault = FaultState::new(cfg, jobs.len());
        ReferenceEngine {
            reg: ShareRegistry::new(cfg),
            jobs,
            tasks: Vec::new(),
            rates: Vec::new(),
            free_map: vec![cfg.vm.map_slots; cfg.nvm],
            free_red: vec![cfg.vm.reduce_slots; cfg.nvm],
            clock: 0.0,
            dispatch_cursor: 0,
            fault,
            obs: SimObs::new(collector),
            steps_done: 0,
            cfg,
        }
    }

    /// Run to completion, producing per-job metrics.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_stats().map(|(report, _)| report)
    }

    /// [`ReferenceEngine::run`], also returning execution statistics
    /// (mirrors [`crate::engine::Engine::run_with_stats`]; only `steps`
    /// is counted).
    pub fn run_with_stats(mut self) -> Result<(SimReport, EngineStats), SimError> {
        if let Err(reason) = self.cfg.faults.validate(self.cfg.nvm) {
            return Err(SimError::InvalidFaultPlan { reason });
        }
        let mut events: u64 = 0;
        loop {
            self.process_fault_events();
            self.activate_ready_jobs();
            self.dispatch_retries();
            self.dispatch();
            self.speculate();
            if self.tasks.is_empty() {
                if self.jobs.iter().all(|j| j.phase == JobPhase::Done) {
                    break;
                }
                // No runnable work, but a retry backoff or a scheduled
                // fault event (e.g. a VM recovery) may unblock us.
                let Some(wake) = self.next_wake() else {
                    return Err(stalled_error(&self.jobs, self.clock));
                };
                self.clock = wake;
            } else {
                self.step()?;
            }
            events += 1;
            if events > EVENT_BUDGET {
                return Err(budget_error(
                    &self.jobs,
                    self.clock,
                    events,
                    self.tasks.len(),
                ));
            }
        }
        let report = build_report(&self.jobs, self.clock, self.fault.vm_crashes);
        let stats = EngineStats {
            steps: events,
            ..EngineStats::default()
        };
        Ok((report, stats))
    }

    /// Move `Waiting` jobs whose dependencies are done into their first
    /// working phase, respecting the concurrency mode.
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
                // Only the earliest unfinished job may start.
                let earlier_unfinished = self.jobs[..i].iter().any(|j| j.phase != JobPhase::Done);
                if earlier_unfinished {
                    continue;
                }
            }
            let job = &mut self.jobs[i];
            job.submitted = self.clock;
            let phase = job.advance_phase(self.clock, self.cfg);
            if self.obs.col.enabled() {
                let name = self.jobs[i].job.app.name().to_string();
                self.obs.col.emit(
                    self.clock,
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
                self.clock,
                EventBody::JobEnd {
                    job: i as u32,
                    makespan,
                },
            );
        } else {
            self.obs.col.emit(
                self.clock,
                EventBody::Phase {
                    job: i as u32,
                    phase: phase.name().to_string(),
                },
            );
        }
    }

    /// Assign pending task templates to free slots.
    fn dispatch(&mut self) {
        let n = self.jobs.len();
        for off in 0..n {
            let i = (self.dispatch_cursor + off) % n;
            let mut launched: u32 = 0;
            while let Some(tmpl) = self.jobs[i].pending.front() {
                if matches!(self.jobs[i].phase, JobPhase::Waiting | JobPhase::Done) {
                    break;
                }
                let vm = match tmpl.slot {
                    SlotKind::Map => pick_vm(&self.free_map, &self.fault.crashed),
                    SlotKind::Reduce => pick_vm(&self.free_red, &self.fault.crashed),
                    SlotKind::Transfer => self.pick_transfer_vm(),
                };
                let Some(vm) = vm else { break };
                let tmpl = self.jobs[i].pending.pop_front().expect("peeked");
                match tmpl.slot {
                    SlotKind::Map => self.free_map[vm] -= 1,
                    SlotKind::Reduce => self.free_red[vm] -= 1,
                    SlotKind::Transfer => {}
                }
                self.obs
                    .task(self.clock, i, vm as u32, tmpl.slot, TaskEventKind::Started);
                let mut task = RunningTask::bind(i, vm as u32, &tmpl);
                if self.fault.enabled {
                    let seq = self.fault.seq[i];
                    self.fault.seq[i] += 1;
                    task.uid = ((i as u64) << 32) | u64::from(seq);
                    task.template = Some(Box::new(tmpl));
                    self.arm_task(&mut task);
                }
                self.tasks.push(task);
                self.jobs[i].active += 1;
                launched += 1;
            }
            if launched > 0 {
                self.obs.wave_tasks.record(f64::from(launched));
                if self.obs.col.enabled() {
                    self.obs.col.emit(
                        self.clock,
                        EventBody::Wave {
                            job: i as u32,
                            phase: self.jobs[i].phase.name().to_string(),
                            tasks: launched,
                        },
                    );
                }
            }
        }
        self.dispatch_cursor = (self.dispatch_cursor + 1) % n.max(1);
    }

    /// Transfer streams round-robin over VMs; rotate past crashed ones.
    fn pick_transfer_vm(&self) -> Option<usize> {
        let n = self.cfg.nvm;
        let start = self.tasks.len() % n;
        (0..n)
            .map(|off| (start + off) % n)
            .find(|&vm| !self.fault.crashed[vm])
    }

    /// Re-dispatch retry entries whose backoff has elapsed, slots
    /// permitting.
    fn dispatch_retries(&mut self) {
        if !self.fault.enabled {
            return;
        }
        let mut i = 0;
        while i < self.fault.retries.len() {
            if self.fault.retries[i].ready_at > self.clock + EPS {
                i += 1;
                continue;
            }
            let slot = self.fault.retries[i].template.slot;
            let vm = match slot {
                SlotKind::Map => pick_vm(&self.free_map, &self.fault.crashed),
                SlotKind::Reduce => pick_vm(&self.free_red, &self.fault.crashed),
                SlotKind::Transfer => self.pick_transfer_vm(),
            };
            let Some(vm) = vm else {
                i += 1;
                continue;
            };
            let entry = self.fault.retries.remove(i);
            match slot {
                SlotKind::Map => self.free_map[vm] -= 1,
                SlotKind::Reduce => self.free_red[vm] -= 1,
                SlotKind::Transfer => {}
            }
            self.obs.task(
                self.clock,
                entry.job,
                vm as u32,
                slot,
                TaskEventKind::Retried,
            );
            let mut task = RunningTask::bind(entry.job, vm as u32, &entry.template);
            task.uid = entry.uid;
            task.attempt = entry.attempt;
            task.template = Some(entry.template);
            self.arm_task(&mut task);
            self.jobs[entry.job].retries_pending -= 1;
            self.jobs[entry.job].active += 1;
            self.tasks.push(task);
        }
    }

    /// Launch speculative backups for tasks streaming far below their
    /// wave's median rate (Hadoop-style speculative execution).
    fn speculate(&mut self) {
        let thr = self.cfg.faults.speculation_threshold;
        if !self.fault.enabled || thr <= 0.0 || self.tasks.is_empty() {
            return;
        }
        // Instantaneous streaming rates under current contention.
        self.reg.clear_counts();
        for t in &self.tasks {
            if let Some(s) = t.current() {
                if !s.is_latent() && s.units_remaining > EPS {
                    s.register(&mut self.reg);
                }
            }
        }
        let rates: Vec<f64> = self
            .tasks
            .iter()
            .map(|t| match t.current() {
                Some(s) if !s.is_latent() && s.units_remaining > EPS => s.rate(&self.reg),
                _ => 0.0,
            })
            .collect();
        let mut stragglers: Vec<usize> = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if rates[i] <= 0.0
                || t.speculated
                || t.backup_of.is_some()
                || t.slot == SlotKind::Transfer
                || !self.jobs[t.job].pending.is_empty()
            {
                continue;
            }
            let mut wave: Vec<f64> = self
                .tasks
                .iter()
                .zip(rates.iter())
                .filter(|(o, &r)| {
                    o.job == t.job && o.slot == t.slot && r > 0.0 && o.backup_of.is_none()
                })
                .map(|(_, &r)| r)
                .collect();
            if wave.len() < 2 {
                continue;
            }
            wave.sort_by(f64::total_cmp);
            let median = wave[wave.len() / 2];
            if rates[i] < thr * median {
                stragglers.push(i);
            }
        }
        for i in stragglers {
            let orig_vm = self.tasks[i].vm as usize;
            let slot = self.tasks[i].slot;
            let free = match slot {
                SlotKind::Map => &self.free_map,
                SlotKind::Reduce => &self.free_red,
                SlotKind::Transfer => continue,
            };
            let vm = free
                .iter()
                .enumerate()
                .filter(|&(v, &n)| n > 0 && !self.fault.crashed[v] && v != orig_vm)
                .max_by_key(|&(_, &n)| n)
                .map(|(v, _)| v);
            let Some(vm) = vm else { continue };
            let Some(tmpl) = self.tasks[i].template.clone() else {
                continue;
            };
            match slot {
                SlotKind::Map => self.free_map[vm] -= 1,
                SlotKind::Reduce => self.free_red[vm] -= 1,
                SlotKind::Transfer => {}
            }
            let job = self.tasks[i].job;
            let orig_uid = self.tasks[i].uid;
            self.tasks[i].speculated = true;
            self.obs
                .task(self.clock, job, vm as u32, slot, TaskEventKind::Speculated);
            let mut backup = RunningTask::bind(job, vm as u32, &tmpl);
            backup.uid = orig_uid | BACKUP_BIT;
            backup.attempt = self.tasks[i].attempt;
            backup.backup_of = Some(orig_uid);
            backup.speculated = true;
            backup.template = Some(tmpl);
            self.arm_task(&mut backup);
            self.jobs[job].speculations += 1;
            self.jobs[job].active += 1;
            self.tasks.push(backup);
        }
    }

    /// Sample this attempt's fate from its private RNG; see
    /// [`crate::engine`] for the policy.
    fn arm_task(&self, task: &mut RunningTask) {
        let plan = &self.cfg.faults;
        let mut rng = attempt_rng(plan.seed, task.uid, task.attempt);
        crate::engine::arm_task_with(plan, &mut rng, task);
    }

    /// Apply all fault-plan events due at the current clock.
    fn process_fault_events(&mut self) {
        while let Some(&ev) = self.fault.events.get(self.fault.next_event) {
            if ev.at > self.clock + EPS {
                break;
            }
            self.fault.next_event += 1;
            self.obs.fault_edges.inc();
            if self.obs.col.enabled() {
                let (kind, vm) = match ev.kind {
                    FaultEventKind::Crash(vm) => ("crash", vm),
                    FaultEventKind::Recover(vm) => ("recover", vm),
                    FaultEventKind::DegradationEdge => ("degradation", u32::MAX),
                };
                self.obs.col.emit(
                    self.clock,
                    EventBody::Fault {
                        kind: kind.to_string(),
                        vm,
                    },
                );
            }
            match ev.kind {
                FaultEventKind::Crash(vm) => self.crash_vm(vm as usize),
                FaultEventKind::Recover(vm) => self.fault.crashed[vm as usize] = false,
                FaultEventKind::DegradationEdge => self.apply_degradations(),
            }
        }
    }

    /// Re-derive degraded capacities from the windows active right now.
    fn apply_degradations(&mut self) {
        self.reg.reset_scales();
        for w in &self.cfg.faults.degradations {
            if w.start_secs <= self.clock + EPS && self.clock < w.end_secs - EPS {
                self.reg.scale_tier(w.vm, w.tier, w.multiplier);
            }
        }
    }

    /// Take a VM offline: kill its resident tasks (re-enqueuing any
    /// without a live speculative twin) and reset its slot pools, which
    /// stay unreachable until the matching recovery event.
    fn crash_vm(&mut self, vm: usize) {
        if self.fault.crashed[vm] {
            return;
        }
        self.fault.crashed[vm] = true;
        self.fault.vm_crashes += 1;
        self.free_map[vm] = self.cfg.vm.map_slots;
        self.free_red[vm] = self.cfg.vm.reduce_slots;
        let mut idx = 0;
        while idx < self.tasks.len() {
            if self.tasks[idx].vm as usize != vm {
                idx += 1;
                continue;
            }
            let victim = self.tasks.swap_remove(idx);
            let job = victim.job;
            self.jobs[job].active -= 1;
            self.jobs[job].kills += 1;
            self.obs.task(
                self.clock,
                job,
                victim.vm,
                victim.slot,
                TaskEventKind::Killed,
            );
            if victim.speculated && self.twin_index(victim.uid, victim.backup_of).is_some() {
                // The surviving copy carries the work.
                continue;
            }
            let Some(template) = victim.template else {
                continue;
            };
            // Same attempt number: the crash was not the task's fault.
            self.jobs[job].retries += 1;
            self.jobs[job].retries_pending += 1;
            self.fault.retries.push(RetryEntry {
                ready_at: self.clock,
                job,
                uid: victim.uid,
                attempt: victim.attempt,
                template,
            });
        }
    }

    /// Index of the live twin (original ↔ backup) of task `uid`.
    fn twin_index(&self, uid: u64, backup_of: Option<u64>) -> Option<usize> {
        self.tasks
            .iter()
            .position(|o| backup_of == Some(o.uid) || o.backup_of == Some(uid))
    }

    /// Earliest strictly-future time at which a fault event fires or a
    /// retry becomes ready.
    fn next_wake(&self) -> Option<f64> {
        let mut wake = f64::INFINITY;
        if let Some(ev) = self.fault.events.get(self.fault.next_event) {
            if ev.at > self.clock {
                wake = wake.min(ev.at);
            }
        }
        for r in &self.fault.retries {
            if r.ready_at > self.clock {
                wake = wake.min(r.ready_at);
            }
        }
        wake.is_finite().then_some(wake)
    }

    fn release_slot(&mut self, vm: usize, slot: SlotKind) {
        match slot {
            SlotKind::Map => self.free_map[vm] += 1,
            SlotKind::Reduce => self.free_red[vm] += 1,
            SlotKind::Transfer => {}
        }
    }

    /// Advance time to the next stage completion, scheduled fault event,
    /// or injected task failure.
    fn step(&mut self) -> Result<(), SimError> {
        // Register flows of streaming (non-latent) stages.
        self.reg.clear_counts();
        for t in &self.tasks {
            if let Some(s) = t.current() {
                if !s.is_latent() && s.units_remaining > EPS {
                    s.register(&mut self.reg);
                }
            }
        }
        self.obs.steps.inc();
        self.steps_done += 1;
        if self.obs.col.enabled() && self.steps_done % CONTENTION_STRIDE == 1 {
            for tier in cast_cloud::tier::Tier::ALL {
                let (demand, capacity) = self.reg.tier_totals(tier);
                if demand > 0.0 {
                    self.obs.col.emit(
                        self.clock,
                        EventBody::Contention {
                            tier: tier.name().to_string(),
                            demand,
                            capacity,
                        },
                    );
                }
            }
        }
        // Compute rates and the time of the earliest completion.
        let wake = self.next_wake();
        self.rates.clear();
        let mut dt = f64::INFINITY;
        for t in &self.tasks {
            let s = t.current().expect("active task has a stage");
            if s.is_latent() {
                self.rates.push(0.0);
                dt = dt.min(s.fixed_remaining);
            } else if s.units_remaining <= EPS {
                self.rates.push(0.0);
                dt = 0.0;
            } else {
                let rate = s.rate(&self.reg);
                if rate <= 0.0 || rate.is_nan() {
                    // A fully-degraded tier (e.g. a transient outage
                    // window with multiplier 0) freezes the task; a
                    // scheduled fault edge or retry wake-up may restore
                    // its bandwidth, so only a stall with no such future
                    // event is an error.
                    if wake.is_some() {
                        self.rates.push(0.0);
                        continue;
                    }
                    return Err(SimError::Stalled {
                        at_secs: self.clock,
                        job: Some(self.jobs[t.job].job.id.0),
                        phase: Some(self.jobs[t.job].phase.name()),
                        tier: stage_tier(s),
                    });
                }
                self.rates.push(rate);
                dt = dt.min(s.units_remaining / rate);
                // A doomed attempt fails partway through its stream.
                if let Some(doom) = t.doom_units {
                    dt = dt.min(doom / rate);
                }
            }
        }
        // Never step past a scheduled fault event or retry wake-up.
        if let Some(wake) = wake {
            if wake > self.clock {
                dt = dt.min(wake - self.clock);
            }
        }
        debug_assert!(dt.is_finite(), "no progress possible");
        // Advance all tasks by dt.
        self.clock += dt;
        for (t, &rate) in self.tasks.iter_mut().zip(self.rates.iter()) {
            let s = t.current_mut().expect("active task has a stage");
            if s.fixed_remaining > 0.0 {
                s.fixed_remaining -= dt;
                if s.fixed_remaining < EPS {
                    s.fixed_remaining = 0.0;
                }
            } else {
                s.units_remaining -= dt * rate;
                if s.units_remaining < EPS {
                    s.units_remaining = 0.0;
                }
                if let Some(doom) = t.doom_units.as_mut() {
                    *doom -= dt * rate;
                }
            }
        }
        // Retire failed and completed tasks. `winners` collects finished
        // tasks whose speculative twin must be killed afterwards.
        let mut winners: Vec<(u64, Option<u64>)> = Vec::new();
        let mut idx = 0;
        while idx < self.tasks.len() {
            if self.tasks[idx].doom_units.is_some_and(|d| d <= EPS) {
                self.fail_task(idx)?;
                continue;
            }
            let task = &mut self.tasks[idx];
            while task.current().is_some_and(|s| s.is_done()) {
                task.stages.pop_front();
            }
            if task.is_done() {
                let task = self.tasks.swap_remove(idx);
                self.release_slot(task.vm as usize, task.slot);
                let job = task.job;
                self.obs
                    .task(self.clock, job, task.vm, task.slot, TaskEventKind::Finished);
                self.jobs[job].active -= 1;
                if task.speculated {
                    winners.push((task.uid, task.backup_of));
                }
            } else {
                idx += 1;
            }
        }
        // Winners kill their twins.
        for (uid, backup_of) in winners {
            if let Some(k) = self.twin_index(uid, backup_of) {
                let loser = self.tasks.swap_remove(k);
                self.release_slot(loser.vm as usize, loser.slot);
                let job = loser.job;
                self.obs
                    .task(self.clock, job, loser.vm, loser.slot, TaskEventKind::Killed);
                self.jobs[job].active -= 1;
                self.jobs[job].kills += 1;
            }
        }
        // Advance any job whose phase fully drained this step.
        for i in 0..self.jobs.len() {
            let job = &mut self.jobs[i];
            if job.phase != JobPhase::Waiting && job.phase != JobPhase::Done && job.phase_drained()
            {
                let phase = job.advance_phase(self.clock, self.cfg);
                self.emit_phase(i, phase);
            }
        }
        Ok(())
    }

    /// Handle a mid-stream task failure at `idx`: schedule a retry with
    /// exponential backoff, or give up on the job past the attempt budget.
    fn fail_task(&mut self, idx: usize) -> Result<(), SimError> {
        let task = self.tasks.swap_remove(idx);
        self.release_slot(task.vm as usize, task.slot);
        let job = task.job;
        self.jobs[job].active -= 1;
        self.jobs[job].failures += 1;
        self.obs
            .task(self.clock, job, task.vm, task.slot, TaskEventKind::Failed);
        if task.speculated && self.twin_index(task.uid, task.backup_of).is_some() {
            // The surviving copy carries the work; no retry needed.
            return Ok(());
        }
        if task.attempt >= self.cfg.faults.max_task_attempts {
            return Err(SimError::JobFailed {
                job: self.jobs[job].job.id.0,
                attempts: task.attempt,
            });
        }
        let backoff =
            self.cfg.faults.retry_backoff_secs * f64::powi(2.0, (task.attempt - 1) as i32);
        let template = task.template.expect("faulted task retains its template");
        self.jobs[job].retries += 1;
        self.jobs[job].retries_pending += 1;
        self.fault.retries.push(RetryEntry {
            ready_at: self.clock + backoff,
            job,
            uid: task.uid,
            attempt: task.attempt + 1,
            template,
        });
        Ok(())
    }
}
