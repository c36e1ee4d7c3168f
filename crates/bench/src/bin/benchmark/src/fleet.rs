//! The fleet workloads: `Fleet::run` passes with tracing off, and a
//! traced replay that re-runs the same epoch loop from outside through
//! the public per-tenant calls.
//!
//! The traced replay follows `Fleet::run` step for step at one worker:
//! begin every tenant's boundary, group pending plans by
//! `PendingPlan::signature()` and confirm `inputs()` equality (Exact
//! dedup), solve one representative per group, seal every tenant, admit
//! each shard on a fresh `CapacityLedger`, settle in (shard, tenant)
//! order, execute, and finally close every session. It assembles its
//! own `FleetReport`, which must serialise byte-identically to
//! `Fleet::run`'s, so the per-layer breakdown provably describes the
//! program the end-to-end numbers measure.

use std::collections::BTreeMap;
use std::time::Instant;

use cast_cloud::{CapacityLedger, Catalog};
use cast_estimator::profiler::{profile_all, ProfilerConfig};
use cast_estimator::{ClusterSpec, Estimator};
use cast_fleet::{
    admit_epoch, Admission, AdmissionRequest, DedupMode, Fleet, FleetReport, ShardReport,
    TenantRegistry, TenantSummary,
};
use cast_runtime::{
    OnlineReport, PendingPlan, PlanPhase, PlanProvenance, PlannedEpoch, SolveProduct, TenantSession,
};
use cast_workload::{tenant_fleet, FleetWorkloadConfig, ProfileSet};

use crate::metrics::{self, Layers, Outcome};
use crate::stats::{self, median, ratio};
use crate::trace::{self, At, Recorder};
use crate::workloads::{fleet_inputs, FleetInputs, Scale, Workload};
use crate::{err, repeat_for, timed_setup, Opts, Res, RunOutput};

struct FleetSetup {
    est: Estimator,
    inputs: FleetInputs,
    registry: TenantRegistry,
}

/// The estimator for the paper's cluster, profiled from scratch: CAST's
/// offline step, and the one input the planners need from it.
fn profiled_estimator() -> Res<Estimator> {
    let catalog = Catalog::google_cloud();
    let profiles = ProfileSet::defaults();
    let matrix = profile_all(&catalog, &profiles, &ProfilerConfig::default()).map_err(err)?;
    Ok(Estimator {
        matrix,
        catalog,
        cluster: ClusterSpec::paper(),
        profiles,
    })
}

/// Profile the estimator, synthesise the tenants and build the shard map.
fn setup(w: Workload, seed: u64, scale: Scale) -> Res<FleetSetup> {
    let est = profiled_estimator()?;
    let inputs = fleet_inputs(w, scale);
    let specs = tenant_fleet(&FleetWorkloadConfig {
        seed,
        tenants: inputs.tenants,
        horizon: inputs.horizon,
        max_bin: inputs.max_bin,
        ..FleetWorkloadConfig::default()
    })
    .map_err(err)?;
    let registry = TenantRegistry::new(specs, inputs.shards).map_err(err)?;
    Ok(FleetSetup {
        est,
        inputs,
        registry,
    })
}

struct Pass {
    wall_s: f64,
    report: FleetReport,
    /// Tenant-epochs that produced a plan: the pass's unit of work.
    tenant_epochs: usize,
}

/// One `Fleet::run`, timed from outside.
fn untraced(s: &FleetSetup) -> Res<Pass> {
    let fleet = Fleet::new(&s.est, s.inputs.cfg.clone());
    let t = Instant::now();
    let out = fleet.run(&s.registry).map_err(err)?;
    Ok(Pass {
        wall_s: t.elapsed().as_secs_f64(),
        tenant_epochs: out.stats.replan_wall_secs.len(),
        report: out.report,
    })
}

struct Traced {
    pass: Pass,
    solves: u64,
    fanouts: u64,
    skipped: u64,
    /// Σ `SolveProduct::replan_moves` over the solves run.
    moves_to_best: u64,
    /// Per tenant-epoch decision latency: begin + the solve when the
    /// tenant represented its group + finish, microseconds.
    epoch_us: Vec<f64>,
    sessions: Vec<OnlineReport>,
}

#[derive(Debug, Clone, Copy, Default)]
struct TenantAccum {
    admitted_full: usize,
    admitted_partial: usize,
    deferrals: usize,
    grant_sum: f64,
}

/// Group pending plans as `DedupMode::Exact` does: by signature in
/// ascending order, members in tenant order, and a member whose
/// canonical inputs differ from every representative's (a digest
/// collision) starts its own group.
fn exact_groups(pendings: &[Option<Box<PendingPlan>>]) -> Vec<(usize, Vec<usize>)> {
    let mut by_sig: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, p) in pendings.iter().enumerate() {
        if let Some(p) = p {
            by_sig.entry(p.signature()).or_default().push(i);
        }
    }
    let inputs = |i: usize| {
        pendings[i]
            .as_deref()
            .expect("grouped plans are pending")
            .inputs()
    };
    let mut groups = Vec::new();
    for members in by_sig.values() {
        let mut subs: Vec<(usize, Vec<usize>)> = Vec::new();
        for &i in members {
            match subs.iter_mut().find(|(rep, _)| inputs(*rep) == inputs(i)) {
                Some((_, v)) => v.push(i),
                None => subs.push((i, Vec::new())),
            }
        }
        groups.extend(subs);
    }
    groups
}

/// The fleet's epoch loop driven from outside, one span per public call.
fn traced_pass(s: &FleetSetup, rec: &mut Recorder) -> Res<Traced> {
    let cfg = &s.inputs.cfg;
    if cfg.dedup != DedupMode::Exact {
        return Err("the traced replay covers Exact dedup only".into());
    }
    let reg = &s.registry;
    let n = reg.len();
    let pass = rec.open("pass", At::default());
    let in_pass = |tenant: usize| At {
        parent: Some(pass),
        tenant: Some(tenant as u32),
        epoch: None,
    };

    let mut sessions = Vec::with_capacity(n);
    for (i, spec) in reg.specs().iter().enumerate() {
        let session = rec
            .time("runtime.open", in_pass(i), || {
                spec.stream()
                    .map(|stream| TenantSession::new(&s.est, cfg.anneal, cfg.runtime, stream))
            })
            .map_err(err)?;
        sessions.push(session);
    }
    let epochs = sessions.iter().map(|s| s.epoch_count()).max().unwrap_or(1);

    let mut t = Traced {
        pass: Pass {
            wall_s: 0.0,
            report: empty_report(),
            tenant_epochs: 0,
        },
        solves: 0,
        fanouts: 0,
        skipped: 0,
        moves_to_best: 0,
        epoch_us: Vec::new(),
        sessions: Vec::with_capacity(n),
    };
    let mut consec_defer = vec![0usize; n];
    let mut tacc = vec![TenantAccum::default(); n];
    let mut sacc: Vec<ShardReport> = (0..reg.shards())
        .map(|shard| ShardReport {
            shard,
            tenants: reg.shard_tenants(shard).len(),
            admitted: 0,
            deferred: 0,
            rejected_batches: 0,
            peak_utilization: 0.0,
        })
        .collect();

    for k in 0..epochs {
        let ep = rec.open(
            "epoch",
            At {
                parent: Some(pass),
                tenant: None,
                epoch: Some(k),
            },
        );
        let at = |tenant: Option<usize>| At {
            parent: Some(ep),
            tenant: tenant.map(|i| i as u32),
            epoch: Some(k),
        };

        // Plan: every tenant's boundary; plans the skip gates or the
        // replan policy sealed come back planned, the rest pending.
        let mut plans: Vec<Option<PlannedEpoch>> = Vec::with_capacity(n);
        let mut pendings: Vec<Option<Box<PendingPlan>>> = Vec::with_capacity(n);
        let mut walls = vec![0.0f64; n];
        for (i, session) in sessions.iter_mut().enumerate() {
            let phase = rec
                .time("runtime.begin", at(Some(i)), || session.begin_epoch(k))
                .map_err(err)?;
            walls[i] = rec.last_secs();
            let (plan, pending) = match phase {
                PlanPhase::Idle => (None, None),
                PlanPhase::Planned(p) => (Some(p), None),
                PlanPhase::Solve(pp) => (None, Some(pp)),
            };
            plans.push(plan);
            pendings.push(pending);
        }

        let groups = rec.time("fleet.group", at(None), || exact_groups(&pendings));
        let mut adopt: Vec<Option<(SolveProduct, PlanProvenance)>> = vec![None; n];
        for (rep, members) in &groups {
            let pending = pendings[*rep]
                .as_deref()
                .expect("representatives are pending");
            let product = rec
                .time("solver.solve", at(Some(*rep)), || {
                    sessions[*rep].solve_pending(pending)
                })
                .map_err(err)?;
            walls[*rep] += rec.last_secs();
            t.moves_to_best += product.replan_moves as u64;
            for &i in members {
                adopt[i] = Some((product.clone(), PlanProvenance::Deduped));
            }
            adopt[*rep] = Some((product, PlanProvenance::Fresh));
        }
        t.solves += groups.len() as u64;
        t.fanouts += groups.iter().map(|(_, m)| m.len() as u64).sum::<u64>();

        for i in 0..n {
            let Some(pending) = pendings[i].take() else {
                continue;
            };
            let (product, provenance) = adopt[i].take().expect("every pending plan has a group");
            let plan = rec
                .time("runtime.finish", at(Some(i)), || {
                    sessions[i].finish_epoch(*pending, &product, provenance)
                })
                .map_err(err)?;
            walls[i] += rec.last_secs();
            plans[i] = Some(plan);
        }
        for (i, plan) in plans.iter().enumerate() {
            if let Some(p) = plan {
                t.pass.tenant_epochs += 1;
                t.epoch_us.push(walls[i] * 1e6);
                if p.provenance() == PlanProvenance::Skipped {
                    t.skipped += 1;
                }
            }
        }

        // Admit: each shard's planned demands against a fresh ledger.
        let mut verdicts: Vec<Option<Admission>> = vec![None; n];
        for shard in 0..reg.shards() {
            let idxs: Vec<usize> = reg
                .shard_tenants(shard)
                .iter()
                .copied()
                .filter(|&i| plans[i].is_some())
                .collect();
            if idxs.is_empty() {
                continue;
            }
            let (vs, utilization) = rec.time("fleet.admit", at(None), || {
                let requests: Vec<AdmissionRequest> = idxs
                    .iter()
                    .map(|&i| {
                        let spec = &reg.specs()[i];
                        AdmissionRequest {
                            tenant: spec.id.0,
                            priority: spec.priority(),
                            weight: spec.weight(),
                            demand: *plans[i].as_ref().expect("filtered to planned").demand(),
                            deferrals: consec_defer[i],
                        }
                    })
                    .collect();
                let mut ledger = CapacityLedger::new(cfg.shard_capacity);
                let vs = admit_epoch(&mut ledger, &cfg.admission, &requests);
                (vs, ledger.utilization())
            });
            let sr = &mut sacc[shard as usize];
            sr.peak_utilization = sr.peak_utilization.max(utilization);
            for (i, v) in idxs.into_iter().zip(vs) {
                verdicts[i] = Some(v);
            }
        }

        // Settle in (shard, tenant) order; admitted batches queue.
        let mut exec: Vec<Option<(PlannedEpoch, f64)>> = (0..n).map(|_| None).collect();
        for shard in 0..reg.shards() {
            for &i in reg.shard_tenants(shard) {
                let Some(v) = verdicts[i] else { continue };
                let p = plans[i].take().expect("a verdict implies a plan");
                let sr = &mut sacc[shard as usize];
                match v {
                    Admission::Admitted { frac } => {
                        consec_defer[i] = 0;
                        if frac >= 1.0 {
                            tacc[i].admitted_full += 1;
                        } else {
                            tacc[i].admitted_partial += 1;
                        }
                        tacc[i].grant_sum += frac;
                        sr.admitted += 1;
                        exec[i] = Some((p, frac));
                    }
                    Admission::Deferred => {
                        consec_defer[i] += 1;
                        tacc[i].deferrals += 1;
                        sr.deferred += 1;
                        rec.time("runtime.settle", at(Some(i)), || sessions[i].defer_epoch(p));
                    }
                    Admission::Rejected => {
                        consec_defer[i] = 0;
                        sr.rejected_batches += 1;
                        rec.time("runtime.settle", at(Some(i)), || {
                            sessions[i].reject_epoch(p)
                        });
                    }
                }
            }
        }

        for (i, slot) in exec.into_iter().enumerate() {
            if let Some((p, frac)) = slot {
                rec.time("runtime.execute", at(Some(i)), || {
                    sessions[i].execute_epoch(p, frac)
                })
                .map_err(err)?;
            }
        }
        rec.close(ep);
    }

    // Close every session and roll up exactly as `Fleet::run` does.
    let mut tenants = Vec::with_capacity(n);
    for (i, (session, spec)) in sessions.into_iter().zip(reg.specs()).enumerate() {
        let report = rec.time("runtime.close", in_pass(i), || session.finish());
        let a = tacc[i];
        let admitted = a.admitted_full + a.admitted_partial;
        tenants.push(TenantSummary {
            tenant: spec.id.0,
            shard: reg.shard_of_index(i),
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
        t.sessions.push(report);
    }
    t.pass.report = FleetReport {
        epochs,
        shard_count: reg.shards(),
        jobs_completed: tenants.iter().map(|t| t.jobs_completed).sum(),
        deadline_misses: tenants.iter().map(|t| t.deadline_misses).sum(),
        rejected: tenants.iter().map(|t| t.rejected).sum(),
        deferrals: tenants.iter().map(|t| t.deferrals).sum(),
        total_cost: tenants.iter().map(|t| t.total_cost).sum(),
        tenants,
        shards: sacc,
    };
    rec.close(pass);
    t.pass.wall_s = rec.span(pass).duration_ns() as f64 * 1e-9;
    Ok(t)
}

fn empty_report() -> FleetReport {
    FleetReport {
        epochs: 0,
        shard_count: 0,
        tenants: Vec::new(),
        shards: Vec::new(),
        jobs_completed: 0,
        deadline_misses: 0,
        rejected: 0,
        deferrals: 0,
        total_cost: 0.0,
    }
}

/// What the tenants' runtimes did over one pass, from their reports.
#[derive(Debug, Default)]
struct RuntimeTotals {
    replanned: usize,
    adopted: usize,
    migrations: usize,
    retries: usize,
    rollbacks: usize,
    verify_mb: f64,
    wasted_mb: f64,
    lost: usize,
}

impl RuntimeTotals {
    fn of(sessions: &[OnlineReport]) -> RuntimeTotals {
        let mut r = RuntimeTotals::default();
        for e in sessions.iter().flat_map(|s| &s.epochs) {
            r.replanned += e.replanned as usize;
            r.adopted += e.adopted as usize;
            r.migrations += e.migrations;
            r.retries += e.migration_retries;
            r.rollbacks += e.migration_rollbacks;
            r.verify_mb += e.verify_mb;
            r.wasted_mb += e.wasted_mb;
            r.lost += e.datasets_lost;
        }
        r
    }
}

fn partial_grants(r: &FleetReport) -> usize {
    r.tenants.iter().map(|t| t.admitted_partial).sum()
}

fn rejected_batches(r: &FleetReport) -> usize {
    r.shards.iter().map(|s| s.rejected_batches).sum()
}

/// The workload's invariants. Only the benchmark scale is large enough
/// for the contention checks to be meaningful.
fn check(
    w: Workload,
    s: &FleetSetup,
    scale: Scale,
    r: &FleetReport,
    rt: Option<&RuntimeTotals>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    need(
        r.tenants.len() == s.registry.len(),
        format!(
            "{} tenant summaries for {} tenants",
            r.tenants.len(),
            s.registry.len()
        ),
    );
    need(r.jobs_completed > 0, "no job completed".into());
    need(
        r.total_cost.is_finite() && r.total_cost > 0.0,
        format!("total cost {}", r.total_cost),
    );
    if let Some(rt) = rt {
        need(rt.lost == 0, format!("{} datasets lost", rt.lost));
    }
    if scale == Scale::Tiny {
        return failures;
    }
    let (deferred, partial) = (r.deferrals, partial_grants(r));
    if w == Workload::FleetContended {
        need(deferred > 0, "contended fleet deferred nothing".into());
        need(
            partial > 0,
            "contended fleet granted no partial share".into(),
        );
        if let Some(rt) = rt {
            need(rt.retries > 0, "no migration copy was retried".into());
            need(rt.rollbacks > 0, "no migration rolled back".into());
        }
    } else {
        need(
            deferred == 0,
            format!("{deferred} deferrals on ample capacity"),
        );
        need(
            partial == 0,
            format!("{partial} partial grants on ample capacity"),
        );
        need(
            rejected_batches(r) == 0,
            "batches rejected on ample capacity".into(),
        );
        if let Some(rt) = rt {
            need(rt.retries == 0, "migration retries without faults".into());
        }
    }
    failures
}

/// A failure message when `report` does not serialise like the first
/// pass's report; the first call records the reference.
fn differs(reference: &mut Option<String>, report: &FleetReport, what: &str) -> Option<String> {
    let json = serde_json::to_string(report).expect("reports serialize");
    match reference {
        None => {
            *reference = Some(json);
            None
        }
        Some(r) if *r != json => Some(format!("{what} report differs from the first pass")),
        Some(_) => None,
    }
}

pub fn run(w: Workload, opts: &Opts) -> Res<RunOutput> {
    let (setup_s, s) = timed_setup(|| setup(w, opts.seed, opts.scale))?;
    let mut failures = Vec::new();
    let mut reference = None;
    let mut untraced_walls = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut rec = Recorder::new();
    let mut attempted = 0u64;
    // With tracing on, every untraced pass is followed by a traced one.
    let min_passes = if opts.trace { 1 } else { 3 };
    let reports = repeat_for(opts.seconds, min_passes, || {
        let p = untraced(&s)?;
        failures.extend(differs(&mut reference, &p.report, "Fleet::run"));
        attempted += p.tenant_epochs as u64;
        untraced_walls.push(p.wall_s);
        if opts.trace {
            let t = traced_pass(&s, &mut rec)?;
            failures.extend(differs(&mut reference, &t.pass.report, "traced replay"));
            if t.pass.tenant_epochs != p.tenant_epochs {
                failures.push(format!(
                    "traced replay planned {} tenant-epochs, Fleet::run {}",
                    t.pass.tenant_epochs, p.tenant_epochs
                ));
            }
            attempted += t.pass.tenant_epochs as u64;
            traced.push(t);
        }
        Ok(p.report)
    })?;
    let report = &reports[0];
    let rt = traced.first().map(|t| RuntimeTotals::of(&t.sessions));
    failures.extend(check(w, &s, opts.scale, report, rt.as_ref()));
    let metrics = match &rt {
        Some(rt) => layers(&traced, &rec, &untraced_walls, report, rt).into_metrics(),
        None => metrics::end_to_end(
            median(&untraced_walls),
            setup_s,
            report.total_cost / report.jobs_completed as f64,
            metrics::peak_rss_mb()?,
        ),
    };
    Ok(RunOutput {
        outcome: Outcome {
            correct: failures.is_empty(),
            attempted,
            failed: 0,
            metrics,
        },
        failures,
        digest: metrics::digest(reference.as_deref().unwrap_or_default()),
        spans: opts.trace.then_some(rec),
    })
}

/// The per-layer numbers of a traced run, averaged per pass.
fn layers(
    traced: &[Traced],
    rec: &Recorder,
    untraced_walls: &[f64],
    report: &FleetReport,
    rt: &RuntimeTotals,
) -> Layers {
    let k = traced.len();
    let first = &traced[0];
    let f = trace::fold(rec.spans());
    let mut l = Layers::default();
    let te = first.pass.tenant_epochs as f64;
    let verdicts: usize = report
        .shards
        .iter()
        .map(|s| s.admitted + s.deferred + s.rejected_batches)
        .sum();

    l.set("fleet.tenant_epochs", te);
    l.busy("fleet.admit", &f.layer("fleet.admit"), k);
    l.set(
        "fleet.group.busy_s",
        f.layer("fleet.group").busy_s / k as f64,
    );
    l.set("fleet.solves", first.solves as f64);
    l.set("fleet.dedup_fanouts", first.fanouts as f64);
    l.set("fleet.replans_skipped", first.skipped as f64);
    let planned = (first.solves + first.fanouts) as f64;
    l.set("fleet.dedup_ratio", ratio(first.fanouts as f64, planned));
    l.set("fleet.deferred", report.deferrals as f64);
    l.set("fleet.partial_grants", partial_grants(report) as f64);
    l.set("fleet.rejected_batches", rejected_batches(report) as f64);
    let refused = report.deferrals + rejected_batches(report);
    l.set(
        "fleet.refused_share",
        ratio(refused as f64, verdicts as f64),
    );
    l.set("fleet.deadline_misses", report.deadline_misses as f64);

    l.busy("runtime.open", &f.layer("runtime.open"), k);
    l.latency("runtime.begin", &f.layer("runtime.begin"), k);
    l.latency("runtime.finish", &f.layer("runtime.finish"), k);
    l.latency("runtime.execute", &f.layer("runtime.execute"), k);
    l.busy("runtime.settle", &f.layer("runtime.settle"), k);
    l.busy("runtime.close", &f.layer("runtime.close"), k);
    l.set("runtime.epoch.calls", te);
    let epoch_us: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.epoch_us.iter().copied())
        .collect();
    l.percentiles("runtime.epoch", &epoch_us);
    l.set(
        "runtime.adopt_ratio",
        ratio(rt.adopted as f64, rt.replanned as f64),
    );
    l.set("runtime.skip_ratio", ratio(first.skipped as f64, te));
    l.set("runtime.migrations", rt.migrations as f64);
    l.set("runtime.migration_retries", rt.retries as f64);
    l.set("runtime.migration_rollbacks", rt.rollbacks as f64);
    l.set("runtime.verify_mb", rt.verify_mb);
    l.set("runtime.wasted_mb", rt.wasted_mb);
    l.set("runtime.datasets_lost", rt.lost as f64);

    l.latency("solver.solve", &f.layer("solver.solve"), k);
    l.set("solver.moves_to_best", first.moves_to_best as f64);

    l.set("trace.untimed_share", f.untimed_s / f.wall_s);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.pass.wall_s).collect();
    l.set(
        "trace.overhead",
        stats::paired_overhead(untraced_walls, &traced_walls),
    );
    l
}
