//! The `sim_engine` workload: the simulator alone, with no fleet or
//! solver involved.
//!
//! A pass is one run of a 4000-job workload (40 seeded copies of the
//! paper's 100-job Facebook mix) on 400 VMs through an `Engine` that
//! reuses a warm `EngineScratch`, then what-if slates against ten live
//! drifted epochs, each at 90% of its makespan: each slate snapshots the
//! live engine and forks one tail per candidate (`score_forked`), as the
//! runtime's fork-backed replanning does. One epoch's tail can cost
//! twice another's, so a pass spreads its slates over ten epochs rather
//! than letting one seed's epoch set the fork cost.

use std::time::Instant;

use cast_cloud::cost::CostModel;
use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{DataSize, Duration};
use cast_cloud::Catalog;
use cast_sim::config::Concurrency;
use cast_sim::jobrun::JobRun;
use cast_sim::{
    pick_winner, prepare_runs, score_cold, score_forked, CandidateOverride, Engine, EngineScratch,
    EngineSnapshot, EngineStats, JobPlacement, PlacementMap, SimConfig, SimReport,
};
use cast_workload::arrival::{assemble_spec, generate};
use cast_workload::synth::{facebook_workload, FacebookConfig};
use cast_workload::{
    splitmix64, ArrivalConfig, ArrivalProcess, DatasetId, DriftConfig, JobId, WorkloadSpec,
};

use crate::metrics::{self, Layers, Outcome};
use crate::stats::{self, median};
use crate::trace::{self, At, Recorder};
use crate::workloads::{sim_inputs, Scale, SimInputs};
use crate::{err, repeat_for, timed_setup, Opts, Res, RunOutput};

/// Candidates per what-if slate.
const CANDIDATES: usize = 8;
/// The replan point, as a share of the live epoch's makespan: late,
/// where a cold restart would re-simulate most of the run.
const FORK_FRACTION: f64 = 0.9;
/// VMs of the what-if epoch's cluster.
const WHATIF_NVM: usize = 8;
/// Separates the what-if stream's seed from the Facebook copies'.
const WHATIF_SALT: u64 = 0x5717_F0C5;

struct SimSetup {
    inputs: SimInputs,
    spec: WorkloadSpec,
    capacity: PerTier<DataSize>,
    cfg: SimConfig,
    runs: Vec<JobRun>,
    scratch: EngineScratch,
    /// The warm-up run: every timed run must reproduce it.
    steps: u64,
    report_json: String,
    /// Simulated tenancy cost of the engine run per job.
    usd_per_job: f64,
    whatifs: Vec<WhatIf>,
}

/// One live what-if epoch at its replan point.
struct WhatIf {
    live: EngineSnapshot,
    slate: Vec<Vec<CandidateOverride>>,
    /// The slate's reports and winner at set-up: every pass must repeat
    /// them.
    forks_json: String,
    winner: usize,
}

/// `copies` Facebook workloads, each from its own seed, merged with
/// disjoint job and dataset ids.
fn facebook_copies(seed: u64, copies: usize) -> Res<WorkloadSpec> {
    let mut spec = WorkloadSpec::empty();
    for c in 0..copies as u64 {
        let base = facebook_workload(FacebookConfig {
            seed: splitmix64(seed ^ c),
            ..FacebookConfig::default()
        })
        .map_err(err)?;
        let job_base = spec.jobs.iter().map(|j| j.id.0 + 1).max().unwrap_or(0);
        let ds_base = spec.datasets.iter().map(|d| d.id.0 + 1).max().unwrap_or(0);
        spec.profiles = base.profiles;
        for mut j in base.jobs {
            j.id = JobId(j.id.0 + job_base);
            j.dataset = DatasetId(j.dataset.0 + ds_base);
            spec.jobs.push(j);
        }
        for mut d in base.datasets {
            d.id = DatasetId(d.id.0 + ds_base);
            spec.datasets.push(d);
        }
    }
    spec.validate().map_err(err)?;
    Ok(spec)
}

/// The last 100 arrivals of a drifting bursty stream.
fn drifted_epoch(seed: u64) -> Res<WorkloadSpec> {
    let stream = generate(&ArrivalConfig {
        seed,
        horizon: Duration::from_hours(4.0),
        process: ArrivalProcess::Bursty {
            jobs_per_hour: 50.0,
            burst_factor: 2.0,
            period: Duration::from_mins(60.0),
            duty: 0.4,
        },
        drift: DriftConfig {
            app_shift: 0.6,
            size_growth: 0.8,
        },
        workflow_fraction: 0.0,
        max_bin: 3,
    })
    .map_err(err)?;
    let arrivals = stream.window(Duration::ZERO, Duration::from_hours(4.0));
    Ok(assemble_spec(
        &arrivals[arrivals.len().saturating_sub(100)..],
    ))
}

/// Eight candidates: every job on one tier (four), and every job `j` of
/// candidate `c` on tier `(j + c) mod 4` (four striped).
fn candidate_slate(spec: &WorkloadSpec) -> Vec<Vec<CandidateOverride>> {
    (0..CANDIDATES)
        .map(|c| {
            spec.jobs
                .iter()
                .enumerate()
                .map(|(j, job)| {
                    let tier = if c < Tier::ALL.len() {
                        Tier::ALL[c]
                    } else {
                        Tier::ALL[(j + c) % Tier::ALL.len()]
                    };
                    CandidateOverride {
                        job: job.id,
                        placement: JobPlacement::all_on(tier),
                    }
                })
                .collect()
        })
        .collect()
}

fn provision(nvm: usize, capacity: &PerTier<DataSize>) -> Res<SimConfig> {
    SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, capacity).map_err(err)
}

fn prepare(spec: &WorkloadSpec, cfg: &SimConfig) -> Res<Vec<JobRun>> {
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
    prepare_runs(spec, &placements, &[], cfg).map_err(err)
}

fn json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("reports serialize")
}

/// Synthesise, provision and prepare both simulations, size the scratch
/// with a warm-up run, and check fork-backed scoring against cold
/// restarts on one slate.
fn setup(seed: u64, scale: Scale) -> Res<SimSetup> {
    let inputs = sim_inputs(scale);
    let spec = facebook_copies(seed, inputs.copies)?;
    let capacity = PerTier::from_fn(|_| DataSize::from_gb(1000.0) * inputs.nvm as f64);
    let cfg = provision(inputs.nvm, &capacity)?;
    let runs = prepare(&spec, &cfg)?;
    let mut scratch = EngineScratch::new();
    let (report, stats) = Engine::with_scratch(&cfg, runs.clone(), &mut scratch)
        .run_with_stats()
        .map_err(err)?;
    let usd_per_job = CostModel::new(&cfg.catalog, inputs.nvm)
        .breakdown(&capacity, report.makespan)
        .total()
        .dollars()
        / spec.jobs.len() as f64;

    let whatifs = (0..inputs.epochs as u64)
        .map(|e| whatif(splitmix64(seed ^ WHATIF_SALT ^ e), e == 0))
        .collect::<Res<Vec<_>>>()?;
    Ok(SimSetup {
        inputs,
        spec,
        capacity,
        steps: stats.steps,
        report_json: json(&report),
        usd_per_job,
        cfg,
        runs,
        scratch,
        whatifs,
    })
}

/// Run a drifted epoch to its replan point and score one slate there;
/// with `check_cold`, cold restarts must score it byte-identically.
fn whatif(seed: u64, check_cold: bool) -> Res<WhatIf> {
    let epoch = drifted_epoch(seed)?;
    let capacity = PerTier::from_fn(|_| DataSize::from_gb(1000.0) * WHATIF_NVM as f64);
    let mut cfg = provision(WHATIF_NVM, &capacity)?;
    cfg.concurrency = Concurrency::Parallel;
    let runs = prepare(&epoch, &cfg)?;
    let makespan = Engine::new(&cfg, runs.clone()).run().map_err(err)?.makespan;
    let horizon = makespan.secs() * FORK_FRACTION;
    let mut live = Engine::new(&cfg, runs.clone());
    live.run_until(horizon).map_err(err)?;
    let live = live.snapshot();
    let slate = candidate_slate(&epoch);
    let forked = score_forked(&live, &slate, 1).map_err(err)?;
    let forks_json = json(&forked);
    if check_cold && forks_json != json(&score_cold(&cfg, &runs, &slate, horizon, 1).map_err(err)?)
    {
        return Err("score_forked and score_cold disagree on a what-if slate".into());
    }
    Ok(WhatIf {
        winner: pick_winner(&forked).ok_or("empty what-if slate")?,
        live,
        slate,
        forks_json,
    })
}

struct Pass {
    wall_s: f64,
    report: SimReport,
    stats: EngineStats,
    /// Each epoch's first slate of candidate reports.
    first_slates: Vec<Vec<SimReport>>,
    /// Slates whose winner differs from setup's.
    wrong_winners: usize,
}

/// One pass, every call under a span of `rec` (a no-op recorder when
/// tracing is off).
fn pass(s: &mut SimSetup, rec: &mut Recorder) -> Res<Pass> {
    let t = Instant::now();
    let root = rec.open("pass", At::default());
    let at = At {
        parent: Some(root),
        ..At::default()
    };
    let (report, stats) = rec
        .time("sim.engine", at, || {
            Engine::with_scratch(&s.cfg, s.runs.clone(), &mut s.scratch).run_with_stats()
        })
        .map_err(err)?;
    let mut first_slates = Vec::new();
    let mut wrong_winners = 0;
    for w in &s.whatifs {
        let live = w.live.fork();
        for i in 0..s.inputs.slates {
            let snap = rec.time("sim.snapshot", at, || live.snapshot());
            let reports = rec
                .time("sim.fork", at, || score_forked(&snap, &w.slate, 1))
                .map_err(err)?;
            if pick_winner(&reports) != Some(w.winner) {
                wrong_winners += 1;
            }
            if i == 0 {
                first_slates.push(reports);
            }
        }
    }
    rec.close(root);
    Ok(Pass {
        wall_s: t.elapsed().as_secs_f64(),
        report,
        stats,
        first_slates,
        wrong_winners,
    })
}

/// Provisioning and lowering, timed under their own root: the set-up
/// work `setup_s` covers, broken into layers.
fn traced_setup(s: &SimSetup, rec: &mut Recorder) -> Res<()> {
    let root = rec.open("setup", At::default());
    let at = At {
        parent: Some(root),
        ..At::default()
    };
    let cfg = rec.time("sim.provision", at, || provision(s.inputs.nvm, &s.capacity))?;
    rec.time("sim.prepare", at, || prepare(&s.spec, &cfg))?;
    rec.close(root);
    Ok(())
}

fn check(s: &SimSetup, p: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    if p.stats.scratch_reallocs != 0 {
        failures.push(format!(
            "warm scratch re-allocated {} buffers",
            p.stats.scratch_reallocs
        ));
    }
    if p.stats.steps != s.steps || json(&p.report) != s.report_json {
        failures.push("engine run differs from the warm-up run".into());
    }
    for (w, slate) in s.whatifs.iter().zip(&p.first_slates) {
        if json(slate) != w.forks_json {
            failures.push("forked slate differs from set-up's".into());
        }
    }
    if p.wrong_winners > 0 {
        failures.push(format!("{} slates picked another winner", p.wrong_winners));
    }
    failures
}

pub fn run(opts: &Opts) -> Res<RunOutput> {
    let (setup_s, mut s) = timed_setup(|| setup(opts.seed, opts.scale))?;
    let mut off = Recorder::off();
    let mut rec = Recorder::new();
    let mut failures = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let min_passes = if opts.trace { 1 } else { 3 };
    repeat_for(opts.seconds, min_passes, || {
        let p = pass(&mut s, &mut off)?;
        failures.extend(check(&s, &p));
        untraced_walls.push(p.wall_s);
        if opts.trace {
            traced_setup(&s, &mut rec)?;
            let t = pass(&mut s, &mut rec)?;
            failures.extend(check(&s, &t));
            traced.push(t);
        }
        Ok(())
    })?;
    let passes = untraced_walls.len() + traced.len();
    let metrics = if opts.trace {
        layers(&s, &traced, &rec, &untraced_walls).into_metrics()
    } else {
        metrics::end_to_end(
            median(&untraced_walls),
            setup_s,
            s.usd_per_job,
            metrics::peak_rss_mb()?,
        )
    };
    Ok(RunOutput {
        outcome: Outcome {
            correct: failures.is_empty(),
            attempted: (passes * (1 + s.inputs.epochs * s.inputs.slates)) as u64,
            failed: 0,
            metrics,
        },
        failures,
        digest: metrics::digest(
            &s.whatifs
                .iter()
                .fold(s.report_json.clone(), |acc, w| acc + &w.forks_json),
        ),
        spans: opts.trace.then_some(rec),
    })
}

fn layers(s: &SimSetup, traced: &[Pass], rec: &Recorder, untraced_walls: &[f64]) -> Layers {
    let k = traced.len();
    let f = trace::fold(rec.spans());
    let mut l = Layers::default();
    l.set(
        "sim.provision.busy_s",
        f.layer("sim.provision").busy_s / k as f64,
    );
    l.set(
        "sim.prepare.busy_s",
        f.layer("sim.prepare").busy_s / k as f64,
    );
    let engine = f.layer("sim.engine");
    let busy = engine.busy_s / k as f64;
    l.set("sim.engine.busy_s", busy);
    l.set("sim.engine.runs", engine.calls as f64 / k as f64);
    l.set("sim.engine.events", s.steps as f64);
    l.set("sim.engine.ns_per_event", busy * 1e9 / s.steps as f64);
    let per_pass = |field: fn(&EngineStats) -> u64| {
        traced.iter().map(|p| field(&p.stats)).sum::<u64>() as f64 / k as f64
    };
    l.set(
        "sim.engine.scratch_reallocs",
        per_pass(|st| st.scratch_reallocs),
    );
    l.set(
        "sim.engine.heap_stale_popped",
        per_pass(|st| st.heap_stale_popped),
    );
    l.set(
        "sim.engine.dirty_drain_batches",
        per_pass(|st| st.dirty_drain_batches),
    );
    l.busy("sim.snapshot", &f.layer("sim.snapshot"), k);
    l.latency("sim.fork", &f.layer("sim.fork"), k);
    l.set("trace.untimed_share", f.untimed_s / f.wall_s);
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    l.set(
        "trace.overhead",
        stats::paired_overhead(untraced_walls, &traced_walls),
    );
    l
}
