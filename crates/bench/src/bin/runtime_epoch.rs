//! `runtime_epoch` — replan-step latency benchmark for the online
//! runtime, with a machine-readable regression gate.
//!
//! One epoch of [`cast_runtime::OnlineRuntime`]'s loop has two costed
//! halves, and this bin times both on the same drifted next-epoch batch:
//!
//! 1. **Solver replan** — either a cold `solve` from the ingest fallback
//!    or a warm `resume_from` seeded with the incumbent plan projected
//!    through the per-app ingest rule. The setup pins the acceptance
//!    claim behind warm-starting: the warm chain reaches
//!    incumbent-or-better quality in measurably fewer moves.
//! 2. **What-if candidate scoring** — eight candidate plans scored
//!    against a live mid-epoch simulation, the cold-restart way
//!    ([`cast_sim::score_cold`]: one fresh engine per candidate
//!    re-simulating the shared prefix) versus the fork-backed way
//!    ([`cast_sim::score_forked`]: snapshot the live engine once, fork
//!    one tail per candidate). Fork equivalence makes the two backends
//!    byte-identical, which the bin asserts, so the speedup is free of
//!    semantic drift; the acceptance bar is ≥ 3× at 8 candidates.
//!
//! A third section times what makes the annealer fast enough to replan
//! at all: a full 12k-iteration solve of the 100-job Facebook workload
//! scored through [`cast_solver::IncrementalEval`] (`Annealer::solve`)
//! versus through a full [`cast_solver::evaluate`] per neighbour
//! (`Annealer::solve_with`). The bin asserts the incremental path is
//! ≥ 3× faster.
//!
//! Results land in `BENCH_runtime.json` (replan latency p50/p99 for
//! every arm, forks/s, speedups), gated by [`cast_bench::gate`]:
//!
//! ```text
//! runtime_epoch [--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]
//! ```
//!
//! `--smoke` cuts the timed repetitions. `--check` gates `forks_per_sec`
//! within the tolerance and the deterministic `solver.warm_moves`,
//! `solver.cold_moves` and `whatif.winner` exactly.

use std::collections::HashMap;
use std::time::Instant;

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::{DataSize, Duration};
use cast_cloud::Catalog;
use cast_sim::config::SimConfig;
use cast_sim::engine::Engine;
use cast_sim::placement::JobPlacement;
use cast_sim::{pick_winner, prepare_runs, score_cold, score_forked, CandidateOverride};
use cast_solver::neighbor::NeighborGen;
use cast_solver::{evaluate, AnnealConfig, Annealer, EvalContext, TieringPlan};
use cast_workload::arrival::{assemble_spec, generate, ArrivalConfig, ArrivalProcess};
use cast_workload::{synth, AppKind, DriftConfig, WorkloadSpec};

use cast_bench::gate::{self, Check, Kind};
use cast_runtime::{ingest_plan, majority_tiers};

const STREAM_SEED: u64 = 0xCA57_D21F;
const SOLVER_SEED: u64 = 0xCA57_0711;

/// Candidate slate size for the what-if section (the acceptance bar's
/// "8 candidate plans").
const CANDIDATES: usize = 8;
/// Worker-pool width for candidate scoring. Any width yields the same
/// reports ([`cast_sim::par::run_indexed`]'s determinism contract).
const WORKERS: usize = 4;
/// How far into the epoch the live simulation is when the replan point
/// hits: the snapshot is taken at this fraction of the full makespan.
/// Late-epoch replans are where cold restarts hurt most — the shared
/// prefix each cold candidate re-simulates is 9/10 of the run.
const FORK_FRACTION: f64 = 0.9;

struct Epochs {
    estimator: cast_estimator::Estimator,
    /// The new batch the runtime replans for.
    spec_b: WorkloadSpec,
    /// Warm start: the incumbent plan projected onto the new batch.
    warm_init: TieringPlan,
    /// Cold start: every job on the ingest fallback tier.
    cold_init: TieringPlan,
    /// The whole 2-hour stream, placed by the incumbent ingest rule —
    /// the live mid-stream simulation the what-if section snapshots.
    spec_live: WorkloadSpec,
    live_init: TieringPlan,
}

/// Two consecutive half-hour windows of a drifting stream; the first is
/// solved to convergence to produce the incumbent ingest rule.
fn setup() -> Epochs {
    let stream = generate(&ArrivalConfig {
        seed: STREAM_SEED,
        horizon: Duration::from_hours(2.0),
        process: ArrivalProcess::Bursty {
            jobs_per_hour: 24.0,
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
    .expect("arrival synthesis");
    let half = Duration::from_mins(30.0);
    let spec_a = assemble_spec(stream.window(half * 2.0, half * 3.0));
    let spec_b = assemble_spec(stream.window(half * 3.0, half * 4.0));
    let estimator = cast_bench::paper_estimator();

    let ctx_a = EvalContext::new(&estimator, &spec_a).with_reuse_awareness();
    let none: HashMap<AppKind, Tier> = HashMap::new();
    let incumbent = Annealer::new(anneal_cfg())
        .solve(&ctx_a, ingest_plan(&spec_a, &none))
        .expect("incumbent solve")
        .plan;
    let rule: HashMap<AppKind, Tier> = majority_tiers(&spec_a, &incumbent).into_iter().collect();

    let warm_init = ingest_plan(&spec_b, &rule);
    let cold_init = ingest_plan(&spec_b, &none);
    let spec_live = assemble_spec(stream.window(Duration::ZERO, half * 4.0));
    let live_init = ingest_plan(&spec_live, &rule);
    Epochs {
        estimator,
        spec_b,
        warm_init,
        cold_init,
        spec_live,
        live_init,
    }
}

fn anneal_cfg() -> AnnealConfig {
    AnnealConfig {
        iterations: 3_000,
        restarts: 1,
        seed: SOLVER_SEED,
    }
}

/// p-th percentile of a latency sample (nearest-rank on the sorted set).
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    mode: String,
    solver: SolverSection,
    whatif: WhatifSection,
    incremental: IncrementalSection,
}

/// Cold-solve vs warm-resume replan latency, plus the warm-start quality
/// claim (moves to reach the cold chain's converged score).
#[derive(serde::Serialize)]
struct SolverSection {
    iterations: usize,
    warm_moves: usize,
    cold_moves: usize,
    cold_p50_secs: f64,
    cold_p99_secs: f64,
    warm_p50_secs: f64,
    warm_p99_secs: f64,
}

/// Cold-restart vs fork-backed candidate scoring at the replan point.
/// One "replan" = scoring the full slate; the fork arm's samples include
/// the per-replan snapshot.
#[derive(serde::Serialize)]
struct WhatifSection {
    candidates: usize,
    workers: usize,
    fork_fraction: f64,
    winner: usize,
    cold_p50_secs: f64,
    cold_p99_secs: f64,
    fork_p50_secs: f64,
    fork_p99_secs: f64,
    /// Candidate forks scored per second of fork-arm wall time.
    forks_per_sec: f64,
    /// cold p50 / fork p50 — the acceptance bar is ≥ 3× at 8 candidates.
    speedup: f64,
}

/// Full-oracle vs incremental scoring over one whole annealing solve.
#[derive(serde::Serialize)]
struct IncrementalSection {
    jobs: usize,
    iterations: usize,
    /// `Annealer::solve_with` scoring every neighbour via `evaluate`.
    full_p50_secs: f64,
    /// `Annealer::solve` over the incremental ledger + memo.
    incremental_p50_secs: f64,
    /// full p50 / incremental p50 — asserted ≥ 3×.
    speedup: f64,
}

/// Time the solver half of the epoch and pin the warm-start claim.
fn bench_solver(e: &Epochs, reps: usize) -> SolverSection {
    let ctx = EvalContext::new(&e.estimator, &e.spec_b).with_reuse_awareness();
    let annealer = Annealer::new(anneal_cfg());

    // Both chains score on the same incremental-evaluation scale, so the
    // cold chain's own converged best is a quality bar both can be
    // measured against: the warm chain starts at (or above) incumbent
    // quality and must get there in measurably fewer moves.
    let warm_out = annealer
        .resume_from(&ctx, e.warm_init.clone())
        .expect("warm replan");
    let cold_out = annealer
        .solve(&ctx, e.cold_init.clone())
        .expect("cold replan");
    let target = cold_out.diagnostics.best_score;
    let moves =
        |d: &cast_solver::SolveDiagnostics| d.moves_to_reach(target).unwrap_or(d.iterations);
    let (warm_moves, cold_moves) = (moves(&warm_out.diagnostics), moves(&cold_out.diagnostics));
    eprintln!(
        "replan to cold-converged quality {target:.4}: warm {warm_moves} moves \
         (from {:.4}) vs cold {cold_moves} moves (from {:.4})",
        warm_out.diagnostics.initial_score, cold_out.diagnostics.initial_score
    );
    assert!(
        warm_moves < cold_moves,
        "warm resume must reach incumbent-or-better in fewer moves \
         ({warm_moves} vs {cold_moves})"
    );

    let mut cold_lat = Vec::with_capacity(reps);
    let mut warm_lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        annealer
            .solve(&ctx, e.cold_init.clone())
            .expect("cold replan");
        cold_lat.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        annealer
            .resume_from(&ctx, e.warm_init.clone())
            .expect("warm replan");
        warm_lat.push(t0.elapsed().as_secs_f64());
    }
    SolverSection {
        iterations: anneal_cfg().iterations,
        warm_moves,
        cold_moves,
        cold_p50_secs: percentile(&cold_lat, 0.50),
        cold_p99_secs: percentile(&cold_lat, 0.99),
        warm_p50_secs: percentile(&warm_lat, 0.50),
        warm_p99_secs: percentile(&warm_lat, 0.99),
    }
}

/// An 8-slate candidate set over `spec`: four per-tier uniform redirects
/// plus four striped variants (job *j* of candidate *c* redirects to
/// tier `(j + c) mod 4`), all on generously provisioned tiers.
fn redirect_slates(spec: &WorkloadSpec) -> Vec<Vec<CandidateOverride>> {
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

/// Time cold-restart vs fork-backed scoring of the same slate at the
/// same replan point, and assert the two backends agree byte-for-byte.
fn bench_whatif(e: &Epochs, reps: usize) -> WhatifSection {
    // The live mid-stream simulation: the whole stream so far, placed by
    // the incumbent ingest rule, on a cluster with every tier generously
    // provisioned so any candidate redirect is viable.
    let nvm = 8;
    let agg = PerTier::from_fn(|_| DataSize::from_gb(1000.0) * nvm as f64);
    let mut cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg)
        .expect("provisionable");
    cfg.concurrency = cast_sim::config::Concurrency::Parallel;
    let placements = e.live_init.to_placements();
    let runs = prepare_runs(&e.spec_live, &placements, &[], &cfg).expect("lowering");
    let candidates = redirect_slates(&e.spec_live);

    let probe = Engine::new(&cfg, runs.clone()).run().expect("probe run");
    let horizon = probe.makespan.secs() * FORK_FRACTION;

    // Pin fork equivalence once, off the clock: the acceptance speedup
    // only counts if both backends commit the same decision.
    let cold_reports = score_cold(&cfg, &runs, &candidates, horizon, WORKERS).expect("cold");
    let mut live = Engine::new(&cfg, runs.clone());
    live.run_until(horizon).expect("prefix");
    let fork_reports = score_forked(&live.snapshot(), &candidates, WORKERS).expect("fork");
    assert_eq!(
        serde_json::to_string(&cold_reports).expect("serialize"),
        serde_json::to_string(&fork_reports).expect("serialize"),
        "fork-backed scoring must be byte-identical to cold restarts"
    );
    let winner = pick_winner(&cold_reports).expect("non-empty slate");

    let mut cold_lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        score_cold(&cfg, &runs, &candidates, horizon, WORKERS).expect("cold");
        cold_lat.push(t0.elapsed().as_secs_f64());
    }

    // The fork arm pays what the runtime pays per replan: one snapshot
    // of the live engine plus one forked tail per candidate.
    let mut fork_lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let snap = live.snapshot();
        score_forked(&snap, &candidates, WORKERS).expect("fork");
        fork_lat.push(t0.elapsed().as_secs_f64());
    }

    let fork_total: f64 = fork_lat.iter().sum();
    let cold_p50 = percentile(&cold_lat, 0.50);
    let fork_p50 = percentile(&fork_lat, 0.50);
    WhatifSection {
        candidates: CANDIDATES,
        workers: WORKERS,
        fork_fraction: FORK_FRACTION,
        winner,
        cold_p50_secs: cold_p50,
        cold_p99_secs: percentile(&cold_lat, 0.99),
        fork_p50_secs: fork_p50,
        fork_p99_secs: percentile(&fork_lat, 0.99),
        forks_per_sec: (reps * CANDIDATES) as f64 / fork_total,
        speedup: cold_p50 / fork_p50,
    }
}

/// Time a default-budget solve of the 100-job Facebook workload on both
/// scoring substrates.
fn bench_incremental(reps: usize) -> IncrementalSection {
    let spec = synth::facebook_workload(Default::default()).expect("synthesis");
    let estimator = cast_bench::paper_estimator();
    let ctx = EvalContext::new(&estimator, &spec);
    let init = TieringPlan::uniform(&spec, Tier::PersSsd);
    let gen = NeighborGen::new(spec.jobs.iter().map(|j| j.id).collect(), Vec::new());
    let annealer = Annealer::new(AnnealConfig::default());

    let mut full_lat = Vec::with_capacity(reps);
    let mut incr_lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        annealer
            .solve_with(
                init.clone(),
                &gen,
                |p| evaluate(p, &ctx).map(|e| e.utility),
                false,
            )
            .expect("full-scoring solve");
        full_lat.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        annealer
            .solve(&ctx, init.clone())
            .expect("incremental solve");
        incr_lat.push(t0.elapsed().as_secs_f64());
    }
    let full_p50 = percentile(&full_lat, 0.50);
    let incremental_p50 = percentile(&incr_lat, 0.50);
    IncrementalSection {
        jobs: spec.jobs.len(),
        iterations: AnnealConfig::default().iterations,
        full_p50_secs: full_p50,
        incremental_p50_secs: incremental_p50,
        speedup: full_p50 / incremental_p50,
    }
}

/// Fork throughput within the tolerance; the deterministic move counts
/// and what-if winner exactly.
fn checks(report: &Report, baseline: &serde_json::Value) -> Vec<Check> {
    let (solver, whatif) = (&baseline["solver"], &baseline["whatif"]);
    vec![
        Check::new(
            "whatif.forks_per_sec",
            report.whatif.forks_per_sec,
            &whatif["forks_per_sec"],
            Kind::AtLeast,
        ),
        Check::new(
            "solver.warm_moves",
            report.solver.warm_moves as f64,
            &solver["warm_moves"],
            Kind::Exact,
        ),
        Check::new(
            "solver.cold_moves",
            report.solver.cold_moves as f64,
            &solver["cold_moves"],
            Kind::Exact,
        ),
        Check::new(
            "whatif.winner",
            report.whatif.winner as f64,
            &whatif["winner"],
            Kind::Exact,
        ),
    ]
}

fn main() {
    let args = gate::Args::from_env("runtime_epoch");
    let smoke = args.smoke;
    let reps = if smoke { 10 } else { 30 };
    let e = setup();
    let solver_reps = reps.min(10);
    let solver = bench_solver(&e, solver_reps);
    eprintln!(
        "runtime_epoch solver: cold p50 {:.4}s vs warm p50 {:.4}s",
        solver.cold_p50_secs, solver.warm_p50_secs
    );
    let whatif = bench_whatif(&e, reps);
    eprintln!(
        "runtime_epoch whatif ({} candidates, {} workers): cold p50 {:.5}s vs fork p50 {:.5}s \
         = {:.1}x, {:.0} forks/s",
        whatif.candidates,
        whatif.workers,
        whatif.cold_p50_secs,
        whatif.fork_p50_secs,
        whatif.speedup,
        whatif.forks_per_sec
    );
    assert!(
        whatif.speedup >= 3.0,
        "fork-backed replan must be >= 3x faster than cold restarts at {} candidates \
         (got {:.2}x)",
        whatif.candidates,
        whatif.speedup
    );

    let incremental = bench_incremental(solver_reps);
    eprintln!(
        "runtime_epoch incremental ({} jobs, {} iters): full p50 {:.4}s vs incremental p50 \
         {:.4}s = {:.1}x",
        incremental.jobs,
        incremental.iterations,
        incremental.full_p50_secs,
        incremental.incremental_p50_secs,
        incremental.speedup
    );
    assert!(
        incremental.speedup >= 3.0,
        "incremental scoring must solve >= 3x faster than full scoring (got {:.2}x)",
        incremental.speedup
    );

    let report = Report {
        bench: "runtime_epoch".to_string(),
        mode: args.mode().to_string(),
        solver,
        whatif,
        incremental,
    };
    gate::finish(&args, &report, |baseline| checks(&report, baseline));
}
