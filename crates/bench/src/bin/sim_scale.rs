//! `sim_scale` — engine-throughput scaling benchmark.
//!
//! Runs the Facebook-derived workload at several cluster/workload scales
//! through the event-driven engine and reports steps-per-second
//! throughput as machine-readable JSON (`BENCH_sim.json`), including the
//! engine's health counters ([`cast_sim::EngineStats`]). A final section
//! executes independent repetitions of one scenario concurrently on the
//! [`cast_sim::par`] worker pool and reports the aggregate event rate —
//! the multi-core figure of merit for fleet-scale sweeps.
//!
//! Doubles as a CI regression gate ([`cast_bench::gate`]):
//!
//! ```text
//! sim_scale [--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]
//! ```
//!
//! `--smoke` runs a reduced grid (the small 25-VM scenario plus one
//! 4000-job stress scenario). `--check` gates each scenario present in
//! both reports: `events_per_sec` within the tolerance, `steps` and
//! `scratch_reallocs` exactly. The parallel section is not gated — its
//! scenario differs between smoke and full mode.

use std::time::Instant;

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_sim::config::SimConfig;
use cast_sim::engine::{Engine, EngineScratch};
use cast_sim::par;
use cast_sim::placement::PlacementMap;
use cast_sim::prepare_runs;
use cast_workload::dataset::DatasetId;
use cast_workload::job::JobId;
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth;

use cast_bench::gate::{self, Check, Kind};

/// (nvm, jobs) grid of the full run. The 2000/10000-VM rows
/// size the scratch (slot heaps, share registry) at fleet scale; the
/// 4000-job row stresses the dispatch and completion-heap paths with a
/// deep backlog.
const FULL: &[(usize, usize)] = &[
    (25, 100),
    (100, 100),
    (400, 100),
    (25, 400),
    (100, 400),
    (400, 400),
    (2000, 100),
    (10000, 100),
    (400, 4000),
];
/// CI grid: the small scenario plus the 4000-job stress scenario.
const SMOKE: &[(usize, usize)] = &[(25, 100), (400, 4000)];

/// Timed repetitions per scenario (fastest wins, after one warm-up).
const REPS: usize = 3;

/// Worker count and run count for the parallel-aggregate section. Eight
/// workers matches the fleet-sweep target configuration; on machines
/// with fewer cores the pool still claims all runs and the reported
/// aggregate reflects the hardware honestly.
const PAR_WORKERS: usize = 8;
const PAR_RUNS: usize = 8;

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    mode: String,
    scenarios: Vec<Scenario>,
    parallel: Parallel,
}

#[derive(serde::Serialize)]
struct Scenario {
    nvm: usize,
    jobs: usize,
    steps: u64,
    wall_secs: f64,
    events_per_sec: f64,
    // ---- engine health counters (EngineStats of the last rep) ----
    heap_stale_popped: u64,
    wake_entries_allocated: u64,
    dirty_drain_batches: u64,
    scratch_reallocs: u64,
}

/// Aggregate throughput of independent concurrent runs of the largest
/// grid scenario on the [`par`] worker pool.
#[derive(serde::Serialize)]
struct Parallel {
    nvm: usize,
    jobs: usize,
    workers: usize,
    runs: usize,
    steps_total: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

/// The 100-job Facebook workload, or `copies` of it merged with offset
/// job/dataset id namespaces.
fn workload(copies: usize) -> WorkloadSpec {
    let base = synth::facebook_workload(Default::default()).expect("synthesis");
    if copies == 1 {
        return base;
    }
    let mut spec = WorkloadSpec::empty();
    spec.profiles = base.profiles;
    let job_stride = base.jobs.iter().map(|j| j.id.0).max().unwrap_or(0) + 1;
    let ds_stride = base.datasets.iter().map(|d| d.id.0).max().unwrap_or(0) + 1;
    for c in 0..copies as u32 {
        for &j in &base.jobs {
            let mut j = j;
            j.id = JobId(j.id.0 + c * job_stride);
            j.dataset = DatasetId(j.dataset.0 + c * ds_stride);
            spec.jobs.push(j);
        }
        for d in &base.datasets {
            let mut d = *d;
            d.id = DatasetId(d.id.0 + c * ds_stride);
            spec.datasets.push(d);
        }
    }
    spec.validate().expect("merged workload is valid");
    spec
}

fn cluster(nvm: usize) -> SimConfig {
    let agg = PerTier::from_fn(|_| DataSize::from_gb(1000.0) * nvm as f64);
    SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg).expect("provision")
}

fn run_scenario(nvm: usize, jobs: usize) -> Scenario {
    let spec = workload(jobs / 100);
    assert_eq!(spec.jobs.len(), jobs);
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
    let cfg = cluster(nvm);
    let runs = prepare_runs(&spec, &placements, &[], &cfg).expect("prepare");

    let mut best = f64::INFINITY;
    let mut steps = 0;
    let mut last_stats = cast_sim::EngineStats::default();
    let mut scratch = EngineScratch::new();
    for rep in 0..=REPS {
        let t0 = Instant::now();
        let (_, stats) = Engine::with_scratch(&cfg, runs.clone(), &mut scratch)
            .run_with_stats()
            .expect("simulation");
        let wall = t0.elapsed().as_secs_f64();
        if rep > 0 {
            // The warm-up rep sized every buffer; timed reps must reuse
            // them without growing anything.
            assert_eq!(
                stats.scratch_reallocs, 0,
                "scratch reuse must not re-allocate on repeated runs"
            );
            best = best.min(wall);
            steps = stats.steps;
            last_stats = stats;
        }
    }

    Scenario {
        nvm,
        jobs,
        steps,
        wall_secs: best,
        events_per_sec: steps as f64 / best,
        heap_stale_popped: last_stats.heap_stale_popped,
        wake_entries_allocated: last_stats.wake_entries_allocated,
        dirty_drain_batches: last_stats.dirty_drain_batches,
        scratch_reallocs: last_stats.scratch_reallocs,
    }
}

/// Execute `PAR_RUNS` independent repetitions of the `(nvm, jobs)`
/// scenario concurrently and report the aggregate event rate. Every run
/// simulates the identical prepared workload (the pool's determinism
/// contract: a run's output depends only on its index), so per-run step
/// counts are equal and the aggregate is purely a wall-clock figure.
fn run_parallel(nvm: usize, jobs: usize) -> Parallel {
    let spec = workload(jobs / 100);
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
    let cfg = cluster(nvm);
    let runs = prepare_runs(&spec, &placements, &[], &cfg).expect("prepare");

    // One warm-up run so first-touch page faults and lazy synthesis are
    // off the clock.
    Engine::new(&cfg, runs.clone())
        .run_with_stats()
        .expect("simulation");

    let t0 = Instant::now();
    let step_counts: Vec<u64> = par::run_indexed(PAR_WORKERS, PAR_RUNS, |_| {
        let (_, stats) = Engine::new(&cfg, runs.clone())
            .run_with_stats()
            .expect("simulation");
        stats.steps
    });
    let wall = t0.elapsed().as_secs_f64();
    let steps_total: u64 = step_counts.iter().sum();
    Parallel {
        nvm,
        jobs,
        workers: PAR_WORKERS,
        runs: PAR_RUNS,
        steps_total,
        wall_secs: wall,
        events_per_sec: steps_total as f64 / wall,
    }
}

/// Per scenario: the event rate within the tolerance, the step and
/// scratch-realloc counters exactly. A scenario the baseline lacks
/// reports its checks as skipped.
fn checks(report: &Report, baseline: &serde_json::Value) -> Vec<Check> {
    let (empty, null) = (Vec::new(), serde_json::Value::Null);
    let base_scenarios = baseline["scenarios"].as_array().unwrap_or(&empty);
    let mut checks = Vec::new();
    for cur in &report.scenarios {
        let base = base_scenarios
            .iter()
            .find(|b| b["nvm"] == cur.nvm && b["jobs"] == cur.jobs)
            .unwrap_or(&null);
        let label = |field: &str| format!("nvm={} jobs={} {field}", cur.nvm, cur.jobs);
        checks.extend([
            Check::new(
                label("events_per_sec"),
                cur.events_per_sec,
                &base["events_per_sec"],
                Kind::AtLeast,
            ),
            Check::new(
                label("steps"),
                cur.steps as f64,
                &base["steps"],
                Kind::Exact,
            ),
            Check::new(
                label("scratch_reallocs"),
                cur.scratch_reallocs as f64,
                &base["scratch_reallocs"],
                Kind::Exact,
            ),
        ]);
    }
    checks
}

fn main() {
    let args = gate::Args::from_env("sim_scale");
    let smoke = args.smoke;
    let grid = if smoke { SMOKE } else { FULL };
    let mut scenarios = Vec::new();
    for &(nvm, jobs) in grid {
        let s = run_scenario(nvm, jobs);
        eprintln!(
            "sim_scale nvm={nvm} jobs={jobs}: {} steps in {:.3}s = {:.0} events/s",
            s.steps, s.wall_secs, s.events_per_sec,
        );
        scenarios.push(s);
    }
    // Parallel aggregate: the fleet-scale scenario in full mode, the
    // small scenario in smoke mode (exercises the pool without the 10k-VM
    // scratch footprint).
    let (par_nvm, par_jobs) = if smoke { (25, 100) } else { (10000, 100) };
    let parallel = run_parallel(par_nvm, par_jobs);
    eprintln!(
        "sim_scale parallel nvm={} jobs={} workers={}: {} total steps in {:.3}s = {:.0} events/s aggregate",
        parallel.nvm,
        parallel.jobs,
        parallel.workers,
        parallel.steps_total,
        parallel.wall_secs,
        parallel.events_per_sec,
    );
    let report = Report {
        bench: "sim_scale".to_string(),
        mode: args.mode().to_string(),
        scenarios,
        parallel,
    };
    gate::finish(&args, &report, |baseline| checks(&report, baseline));
}
