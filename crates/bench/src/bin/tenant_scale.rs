//! `tenant_scale` — multi-tenant serving throughput for `cast-fleet`,
//! with a machine-readable regression gate.
//!
//! The bin serves one sharded region ([`cast_fleet::Fleet`]) to
//! completion and reports **tenants per second** of wall time plus the
//! p50/p99 of every per-tenant replan's wall latency and a phase-time
//! breakdown (plan / admit / execute) with the plan-cache tallies
//! (solves, dedup fan-outs, replans skipped). Full mode serves a
//! 192-tenant smoke-sized reference first, then 1024 tenants on an
//! 8-shard map, then an 8192-tenant region on 16 shards; `--smoke`
//! serves only the 192-tenant fleet with identical per-tenant work.
//!
//! A gated fleet is served [`GATE_RUNS`] times and its wall-time fields
//! are the per-field medians, so one slow spell of a shared machine
//! cannot fail the gate; every serve must report byte-identically. The
//! smoke reference is measured exactly as a `--smoke` run measures its
//! fleet (first in the process, same repetitions), and the CI smoke run
//! gates against that section. The XL region is served once.
//!
//! The throughput scenario runs the planning path the fleet ships with:
//! exact cross-tenant solve dedup ([`cast_fleet::DedupMode::Exact`],
//! the default) plus the drift-gated replan skip (`max_drift` 0.4,
//! `max_score_delta` 0.10) — tenants whose batch shape barely moved
//! serve their incumbent plan instead of re-running the annealer. Full
//! mode asserts both paths actually engage (dedup fan-outs > 0, replans
//! skipped > 0): a silent fall-back to always-fresh planning must fail
//! the bench, not quietly regress it.
//!
//! Two correctness pins ride along, off the throughput clock:
//!
//! 1. **Worker-count byte-identity** — a 64-tenant fleet is served with
//!    1, 2 and 8 workers and the merged reports' JSON must be
//!    byte-identical (the determinism contract `cast-fleet` inherits
//!    from `cast_sim::par`).
//! 2. **Guaranteed-class fairness** — on a deliberately contended pool,
//!    every interactive tenant admitted at every boundary must finish
//!    with deadline misses at or below its single-tenant baseline
//!    (full grants are bit-identical to running alone — the skip gate
//!    and dedup are per-session-deterministic, so the solo baseline
//!    runs the identical fast path).
//!
//! Gated by [`cast_bench::gate`]:
//!
//! ```text
//! tenant_scale [--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]
//! ```
//!
//! `--smoke` shrinks the fleet (CI-friendly) and skips the 8192 run.
//! `--check` compares the `fleet` section against the baseline's `smoke`
//! section on a smoke run (its `fleet` section otherwise): the median
//! tenants/s and replan p50/p99 within the tolerance, and the
//! deterministic `solves`, `dedup_fanouts`, `replans_skipped`,
//! `jobs_completed` and `deadline_misses` exactly.
//!
//! The fleet runs on `cast_sim::par::default_workers()` threads, and the
//! worker pool only overlaps replans when the machine has cores to run
//! them: report the host's core count with any throughput number.

use std::collections::BTreeSet;

use cast_cloud::tier::PerTier;
use cast_cloud::units::{DataSize, Duration};
use cast_fleet::{Fleet, FleetConfig, FleetOutcome, TenantRegistry};
use cast_runtime::{OnlineRuntime, ReplanPolicy, RuntimeConfig, SkipPolicy};
use cast_solver::AnnealConfig;
use cast_workload::{tenant_fleet, FleetWorkloadConfig, TenantClass, TenantSpec};

use cast_bench::gate::{self, Check, Kind};

const FLEET_SEED: u64 = 0xCA57_F1EE;
const SOLVER_SEED: u64 = 0xCA57_0712;

/// Tenants in the gated throughput fleet (the acceptance bar's "≥ 1000
/// concurrent tenants on one shard map").
const FULL_TENANTS: usize = 1024;
const FULL_SHARDS: u32 = 8;
/// The scale-out scenario full mode runs after the gated fleet.
const XL_TENANTS: usize = 8192;
const XL_SHARDS: u32 = 16;
const SMOKE_TENANTS: usize = 192;
const SMOKE_SHARDS: u32 = 4;
/// Tenants in the off-the-clock byte-identity and fairness fleets.
const PIN_TENANTS: usize = 64;
const PIN_SHARDS: u32 = 2;
/// Serves of each gated fleet; its wall-time fields are the medians.
const GATE_RUNS: usize = 5;

fn workload(tenants: usize) -> FleetWorkloadConfig {
    FleetWorkloadConfig {
        seed: FLEET_SEED,
        tenants,
        horizon: Duration::from_mins(60.0),
        base_jobs_per_hour: 6.0,
        max_bin: 3,
        ..FleetWorkloadConfig::default()
    }
}

/// Per-tenant work is identical in both modes: same epoch grid, same
/// anneal budget, same arrival rate, same skip thresholds. Only the
/// fleet size changes.
fn fleet_config(workers: usize, capacity: PerTier<DataSize>) -> FleetConfig {
    FleetConfig {
        workers,
        shard_capacity: capacity,
        runtime: RuntimeConfig {
            epoch: Duration::from_mins(30.0),
            policy: ReplanPolicy::Hysteresis { min_gain: 0.02 },
            skip: SkipPolicy {
                enabled: true,
                max_drift: 0.4,
                max_score_delta: 0.10,
            },
            ..RuntimeConfig::default()
        },
        anneal: AnnealConfig {
            iterations: 600,
            restarts: 1,
            seed: SOLVER_SEED,
        },
        ..FleetConfig::default()
    }
}

fn registry(tenants: usize, shards: u32) -> TenantRegistry {
    let specs = tenant_fleet(&workload(tenants)).expect("tenant synthesis");
    TenantRegistry::new(specs, shards).expect("registry")
}

fn serve(tenants: usize, shards: u32, workers: usize, capacity_gb: f64) -> FleetOutcome {
    let registry = registry(tenants, shards);
    let estimator = cast_bench::paper_estimator();
    let capacity = PerTier::from_fn(|_| DataSize::from_gb(capacity_gb));
    Fleet::new(&estimator, fleet_config(workers, capacity))
        .run(&registry)
        .expect("fleet run")
}

/// Distinct planning templates across the fleet's specs
/// ([`TenantSpec::planning_signature`] — class × arrival shape, seed
/// excluded). Context for the dedup tallies: tenants sharing a template
/// are drawn from the same distribution, the upper bound on what
/// content-equality grouping could ever merge.
fn distinct_templates(specs: &[TenantSpec]) -> usize {
    specs
        .iter()
        .map(|s| s.planning_signature())
        .collect::<BTreeSet<u64>>()
        .len()
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    mode: String,
    fleet: FleetSection,
    /// The 8192-tenant scale-out run (full mode only; absent → smoke).
    #[serde(skip_serializing_if = "Option::is_none")]
    xl: Option<FleetSection>,
    /// A smoke-sized reference run (full mode only), served first and
    /// cold like a `--smoke` run's fleet: a smoke run gates against
    /// this section, not the 1024-tenant number.
    #[serde(skip_serializing_if = "Option::is_none")]
    smoke: Option<FleetSection>,
    identity: IdentitySection,
    fairness: FairnessSection,
}

/// One throughput measurement: a region served to completion on the
/// clock, `runs` times.
#[derive(serde::Serialize)]
struct FleetSection {
    tenants: usize,
    shards: u32,
    workers: usize,
    /// Serves measured; the wall-time fields are their medians.
    runs: usize,
    epochs: u32,
    /// Distinct `TenantSpec::planning_signature` values in the fleet.
    planning_templates: usize,
    /// Tenants served per second of wall time — the gated metric.
    tenants_per_sec: f64,
    total_wall_secs: f64,
    replan_p50_secs: f64,
    replan_p99_secs: f64,
    /// Phase walls, summed over epochs.
    plan_wall_secs: f64,
    admit_wall_secs: f64,
    exec_wall_secs: f64,
    /// Plan-cache tallies: annealer solves actually run, plans fanned
    /// out from a group representative, epochs the skip gates sealed.
    solves: u64,
    dedup_fanouts: u64,
    replans_skipped: u64,
    executed_epochs: usize,
    jobs_completed: usize,
    deadline_misses: usize,
    deferrals: usize,
    rejected: usize,
}

impl FleetSection {
    fn from_run(tenants: usize, shards: u32, workers: usize, out: &FleetOutcome) -> FleetSection {
        let specs = tenant_fleet(&workload(tenants)).expect("tenant synthesis");
        FleetSection {
            tenants,
            shards,
            workers,
            runs: 1,
            epochs: out.report.epochs,
            planning_templates: distinct_templates(&specs),
            tenants_per_sec: tenants as f64 / out.stats.total_wall_secs,
            total_wall_secs: out.stats.total_wall_secs,
            replan_p50_secs: out.stats.replan_percentile(50.0),
            replan_p99_secs: out.stats.replan_percentile(99.0),
            plan_wall_secs: out.stats.plan_wall_secs,
            admit_wall_secs: out.stats.admit_wall_secs,
            exec_wall_secs: out.stats.exec_wall_secs,
            solves: out.stats.solves,
            dedup_fanouts: out.stats.dedup_fanouts,
            replans_skipped: out.stats.replans_skipped,
            executed_epochs: out.stats.executed_epochs,
            jobs_completed: out.report.jobs_completed,
            deadline_misses: out.report.deadline_misses,
            deferrals: out.report.deferrals,
            rejected: out.report.rejected,
        }
    }

    /// Serve the fleet `runs` times. Every serve must report
    /// byte-identically; the tallies are the first serve's and each
    /// wall-time field is the median over the serves.
    fn measure(tenants: usize, shards: u32, workers: usize, runs: usize) -> FleetSection {
        let mut sections = Vec::with_capacity(runs);
        let mut reports = BTreeSet::new();
        for _ in 0..runs {
            let out = serve(tenants, shards, workers, 100_000.0);
            reports.insert(serde_json::to_string(&out.report).expect("serialize"));
            sections.push(FleetSection::from_run(tenants, shards, workers, &out));
        }
        assert_eq!(reports.len(), 1, "repeated serves must report identically");
        let median = |field: fn(&FleetSection) -> f64| {
            let mut v: Vec<f64> = sections.iter().map(field).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        FleetSection {
            runs,
            tenants_per_sec: median(|s| s.tenants_per_sec),
            total_wall_secs: median(|s| s.total_wall_secs),
            replan_p50_secs: median(|s| s.replan_p50_secs),
            replan_p99_secs: median(|s| s.replan_p99_secs),
            plan_wall_secs: median(|s| s.plan_wall_secs),
            admit_wall_secs: median(|s| s.admit_wall_secs),
            exec_wall_secs: median(|s| s.exec_wall_secs),
            ..sections.swap_remove(0)
        }
    }

    fn log(&self, label: &str) {
        eprintln!(
            "tenant_scale {label}: {:.1} tenants/s ({:.2}s total: plan {:.2}s, admit {:.3}s, \
             exec {:.2}s), replan p50 {:.5}s p99 {:.5}s, {} solves + {} deduped + {} skipped, \
             {} jobs",
            self.tenants_per_sec,
            self.total_wall_secs,
            self.plan_wall_secs,
            self.admit_wall_secs,
            self.exec_wall_secs,
            self.replan_p50_secs,
            self.replan_p99_secs,
            self.solves,
            self.dedup_fanouts,
            self.replans_skipped,
            self.jobs_completed
        );
    }
}

/// The worker-count determinism pin (off the throughput clock).
#[derive(serde::Serialize)]
struct IdentitySection {
    tenants: usize,
    workers_checked: Vec<usize>,
    byte_identical: bool,
}

/// The guaranteed-class fairness pin on a contended pool (off the
/// throughput clock).
#[derive(serde::Serialize)]
struct FairnessSection {
    tenants: usize,
    /// Tenant-epochs that contended (partial grants + deferrals) — the
    /// pin is vacuous without pressure.
    contended_epochs: usize,
    /// Interactive tenants admitted at every boundary, each checked
    /// against its single-tenant baseline.
    interactive_checked: usize,
    /// Checked tenants whose fleet deadline misses exceeded solo.
    violations: usize,
}

/// Serve the pin fleet with 1, 2 and 8 workers and require the merged
/// reports to serialise byte-identically.
fn pin_identity() -> IdentitySection {
    let workers = vec![1usize, 2, 8];
    let mut jsons = Vec::new();
    for &w in &workers {
        let out = serve(PIN_TENANTS, PIN_SHARDS, w, 100_000.0);
        jsons.push(serde_json::to_string(&out.report).expect("serialize"));
    }
    let identical = jsons.windows(2).all(|w| w[0] == w[1]);
    assert!(
        identical,
        "merged fleet report must be byte-identical across worker counts"
    );
    IdentitySection {
        tenants: PIN_TENANTS,
        workers_checked: workers,
        byte_identical: identical,
    }
}

/// Serve the pin fleet on a pool tight enough that best-effort classes
/// contend, then check every always-admitted interactive tenant against
/// its solo baseline.
fn pin_fairness() -> FairnessSection {
    let registry = registry(PIN_TENANTS, PIN_SHARDS);
    let estimator = cast_bench::paper_estimator();
    let cfg = fleet_config(1, PerTier::from_fn(|_| DataSize::from_gb(300.0)));
    let out = Fleet::new(&estimator, cfg.clone())
        .run(&registry)
        .expect("fleet run");

    let contended_epochs: usize = out
        .report
        .tenants
        .iter()
        .map(|t| t.admitted_partial + t.deferrals)
        .sum();
    assert!(
        contended_epochs > 0,
        "the fairness pool must actually contend ({} tenants on {} GB/tier shards)",
        PIN_TENANTS,
        300
    );

    let solo = OnlineRuntime::new(&estimator, cfg.anneal, cfg.runtime);
    let mut checked = 0;
    let mut violations = 0;
    for (spec, summary) in registry.specs().iter().zip(out.report.tenants.iter()) {
        if spec.class != TenantClass::Interactive {
            continue;
        }
        // "Admitted" means admitted at every boundary: deferrals push a
        // guaranteed tenant's batches late, which is exactly the case
        // the acceptance bar excludes.
        if summary.admitted_partial > 0 || summary.deferrals > 0 {
            continue;
        }
        let baseline = solo.run(&spec.stream().expect("stream")).expect("solo run");
        checked += 1;
        if summary.deadline_misses > baseline.deadline_misses {
            violations += 1;
            eprintln!(
                "fairness violation: tenant {} misses {} > solo {}",
                spec.id, summary.deadline_misses, baseline.deadline_misses
            );
        }
    }
    assert!(checked > 0, "no admitted interactive tenant to check");
    assert_eq!(
        violations, 0,
        "admitted guaranteed tenants must never miss more deadlines than solo"
    );
    FairnessSection {
        tenants: PIN_TENANTS,
        contended_epochs,
        interactive_checked: checked,
        violations,
    }
}

/// The fleet's median throughput and replan latency within the
/// tolerance; its plan-cache tallies and job outcomes exactly.
fn checks(report: &Report, smoke: bool, baseline: &serde_json::Value) -> Vec<Check> {
    let (section, base) = gate::fleet_section(baseline, smoke);
    let f = &report.fleet;
    let check = |field: &str, current: f64, kind| {
        Check::new(format!("{section}.{field}"), current, &base[field], kind)
    };
    vec![
        check("tenants_per_sec", f.tenants_per_sec, Kind::AtLeast),
        check("replan_p50_secs", f.replan_p50_secs, Kind::AtMost),
        check("replan_p99_secs", f.replan_p99_secs, Kind::AtMost),
        check("solves", f.solves as f64, Kind::Exact),
        check("dedup_fanouts", f.dedup_fanouts as f64, Kind::Exact),
        check("replans_skipped", f.replans_skipped as f64, Kind::Exact),
        check("jobs_completed", f.jobs_completed as f64, Kind::Exact),
        check("deadline_misses", f.deadline_misses as f64, Kind::Exact),
    ]
}

fn main() {
    let args = gate::Args::from_env("tenant_scale");
    let smoke = args.smoke;
    let workers = cast_sim::par::default_workers();
    // Served first and repeated, as a `--smoke` run measures its fleet.
    let smoke_ref = if smoke {
        None
    } else {
        eprintln!(
            "tenant_scale: serving {SMOKE_TENANTS} tenants on {SMOKE_SHARDS} shards \
             x{GATE_RUNS} (smoke reference)"
        );
        let section = FleetSection::measure(SMOKE_TENANTS, SMOKE_SHARDS, workers, GATE_RUNS);
        section.log("smoke-ref");
        Some(section)
    };

    let (tenants, shards) = if smoke {
        (SMOKE_TENANTS, SMOKE_SHARDS)
    } else {
        (FULL_TENANTS, FULL_SHARDS)
    };
    eprintln!(
        "tenant_scale: serving {tenants} tenants on {shards} shards with {workers} workers \
         x{GATE_RUNS}"
    );
    let fleet = FleetSection::measure(tenants, shards, workers, GATE_RUNS);
    fleet.log("fleet");
    if !smoke {
        assert!(
            fleet.dedup_fanouts > 0,
            "the full fleet must dedup at least one solve"
        );
        assert!(
            fleet.replans_skipped > 0,
            "the full fleet must skip at least one replan"
        );
    }

    let xl = if smoke {
        None
    } else {
        eprintln!("tenant_scale: serving {XL_TENANTS} tenants on {XL_SHARDS} shards (scale-out)");
        let section = FleetSection::measure(XL_TENANTS, XL_SHARDS, workers, 1);
        section.log("xl");
        assert!(section.dedup_fanouts > 0);
        assert!(section.replans_skipped > 0);
        Some(section)
    };

    let identity = pin_identity();
    eprintln!(
        "tenant_scale identity: {} tenants byte-identical across {:?} workers",
        identity.tenants, identity.workers_checked
    );
    let fairness = pin_fairness();
    eprintln!(
        "tenant_scale fairness: {} interactive tenants checked against solo baselines \
         ({} contended tenant-epochs), {} violations",
        fairness.interactive_checked, fairness.contended_epochs, fairness.violations
    );

    let report = Report {
        bench: "tenant_scale".to_string(),
        mode: args.mode().to_string(),
        fleet,
        xl,
        smoke: smoke_ref,
        identity,
        fairness,
    };
    gate::finish(&args, &report, |baseline| checks(&report, smoke, baseline));
}
