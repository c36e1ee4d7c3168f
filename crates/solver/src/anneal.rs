//! Algorithm 2: the simulated-annealing tiering solver (CAST).
//!
//! Starting from an initial plan (usually greedy's output), the annealer
//! repeatedly scores a random neighbour; better plans are always adopted,
//! worse ones with probability `exp(Δ/temp)` (Metropolis), and the
//! temperature decays geometrically each iteration — "making the search
//! narrower as iterations increase" (§4.2.2). The schedule is fixed: a
//! cold solve starts at temperature 0.3 and cools by 0.998 per
//! iteration; a warm re-solve ([`Annealer::resume_from`]) starts at a
//! quarter of that temperature and runs a fixed 3000 iterations.
//! Utility differences are normalised by the initial score so one
//! temperature scale works across workloads of any size.
//!
//! One loop runs every solve, over one of two states that address jobs
//! by [`NeighborGen`] position: [`IncrementalEval`] for
//! [`Annealer::solve`] and [`Annealer::resume_from`], and a whole plan
//! scored by the caller's closure for [`Annealer::solve_with`] (CAST++'s
//! per-workflow cost solves).
//!
//! Two performance properties of this implementation matter (see
//! DESIGN.md "Solver performance"):
//!
//! * the inner loop never materialises a neighbour plan — moves are
//!   applied in place and undone on rejection, and utility-mode solves
//!   score through [`IncrementalEval`]'s ledger + memo instead of a full
//!   [`evaluate`] per neighbour (bit-identical scores, same trajectory).
//!   A proposal that changes nothing (a capacity nudge past either end of
//!   the grid) is not scored at all: it keeps the current score, which is
//!   exact because scoring is a pure function of the plan and Metropolis
//!   draws no random number at Δ = 0;
//! * `restarts > 1` runs N independent annealing chains on the
//!   [`cast_sim::par`] worker pool (index-claimed, capped at the
//!   machine's parallelism instead of one thread per restart), each
//!   seeded deterministically from its restart index; the winner is
//!   chosen by `(score, seed)` so the result is machine-independent and
//!   identical to running the chains one by one.

use cast_obs::{Collector, EventBody};
use cast_sim::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::diagnostics::SolveDiagnostics;
use crate::error::SolverError;
use crate::incremental::{plan_from_assignments, IncrementalEval};
use crate::neighbor::NeighborGen;
use crate::objective::{evaluate, EvalContext, PlanEval};
use crate::plan::{Assignment, TieringPlan};

/// Initial temperature of a cold solve, in normalised-utility units.
const TEMP_INIT: f64 = 0.3;

/// Geometric cooling factor: `temp ← COOLING · temp` every iteration.
const COOLING: f64 = 0.998;

/// Start temperature of a warm re-solve. An online replan starts from a
/// near-optimal incumbent, so a cold start's temperature would walk away
/// from it before re-converging.
const WARM_TEMP_INIT: f64 = TEMP_INIT * 0.25;

/// Iteration budget of a warm re-solve, per restart. Fixed rather than
/// relative to the cold budget: warm solves reach their best at a median
/// of ~930 and a p90 of ~2370 moves, so a budget tied to a short cold
/// schedule would cut most of them off.
const WARM_ITERATIONS: usize = 3_000;

/// Annealer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Iteration budget (`iter_max` of Algorithm 2) per restart.
    pub iterations: usize,
    /// RNG seed (restart 0 uses it verbatim; restarts `1..N` derive
    /// theirs via [`restart_seed`]).
    pub seed: u64,
    /// Independent annealing chains to run; the best result by
    /// `(score, seed)` wins. `1` reproduces a classic single-chain solve;
    /// values above 1 run the chains on scoped threads.
    pub restarts: usize,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 12_000,
            seed: 0xCA57,
            restarts: 1,
        }
    }
}

/// The seed driving restart `restart` of a multi-restart solve. Restart 0
/// is the base seed itself, so `restarts = 1` is bit-compatible with a
/// single-chain run; later restarts decorrelate through SplitMix64's
/// finaliser.
pub fn restart_seed(base: u64, restart: usize) -> u64 {
    if restart == 0 {
        return base;
    }
    let mut z = base ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Best plan found.
    pub plan: TieringPlan,
    /// Its evaluation.
    pub eval: PlanEval,
    /// Run statistics (of the winning restart).
    pub diagnostics: SolveDiagnostics,
}

/// Result of a generic (score-only) annealing search: the winning plan is
/// materialised once; callers that need a full evaluation run their
/// objective one final time.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best plan found.
    pub plan: TieringPlan,
    /// Its score under the search objective.
    pub score: f64,
    /// Run statistics (of the winning restart).
    pub diagnostics: SolveDiagnostics,
}

/// The state one annealing chain walks: assignments addressed by
/// generator position, changed in place and rolled back on rejection.
trait ChainState {
    /// The assignment at `position`; `None` when the state holds none,
    /// and then the job is never moved.
    fn get(&self, position: usize) -> Option<Assignment>;
    /// Apply `(position, assignment)` changes, recording the displaced
    /// assignments in `undo`.
    fn apply(
        &mut self,
        changes: &[(usize, Assignment)],
        undo: &mut Vec<(usize, Assignment)>,
    ) -> Result<(), SolverError>;
    /// Roll back the changes recorded in `undo`.
    fn restore(&mut self, undo: &[(usize, Assignment)]);
    /// Score the current assignments: a pure function of them.
    fn score(&mut self) -> Result<f64, SolverError>;
}

/// [`Annealer::solve`]'s state: positions are spec order.
impl ChainState for IncrementalEval<'_> {
    fn get(&self, position: usize) -> Option<Assignment> {
        self.assignments().get(position).copied()
    }

    fn apply(
        &mut self,
        changes: &[(usize, Assignment)],
        undo: &mut Vec<(usize, Assignment)>,
    ) -> Result<(), SolverError> {
        IncrementalEval::apply(self, changes, undo)
    }

    fn restore(&mut self, undo: &[(usize, Assignment)]) {
        IncrementalEval::restore(self, undo);
    }

    fn score(&mut self) -> Result<f64, SolverError> {
        IncrementalEval::score(self)
    }
}

/// [`Annealer::solve_with`]'s state: a whole plan, scored by the caller's
/// closure, whose generator positions map to jobs through
/// [`NeighborGen::job_at`].
struct PlanChain<'a, S> {
    plan: TieringPlan,
    gen: &'a NeighborGen,
    score: &'a S,
}

impl<S> ChainState for PlanChain<'_, S>
where
    S: Fn(&TieringPlan) -> Result<f64, SolverError>,
{
    fn get(&self, position: usize) -> Option<Assignment> {
        self.plan.get(self.gen.job_at(position))
    }

    fn apply(
        &mut self,
        changes: &[(usize, Assignment)],
        undo: &mut Vec<(usize, Assignment)>,
    ) -> Result<(), SolverError> {
        undo.clear();
        for &(p, a) in changes {
            let job = self.gen.job_at(p);
            undo.push((p, self.plan.require(job)?));
            self.plan.assign(job, a);
        }
        Ok(())
    }

    fn restore(&mut self, undo: &[(usize, Assignment)]) {
        for &(p, a) in undo.iter().rev() {
            self.plan.assign(self.gen.job_at(p), a);
        }
    }

    fn score(&mut self) -> Result<f64, SolverError> {
        (self.score)(&self.plan)
    }
}

/// One restart's result, before best-of-N selection.
struct ChainResult {
    /// The best assignments found, by generator position.
    best: Vec<Option<Assignment>>,
    score: f64,
    seed: u64,
    diagnostics: SolveDiagnostics,
    /// Trace events buffered chain-locally as `(iteration, body)` pairs,
    /// flushed into the collector in restart order after the join so the
    /// recorded stream is independent of thread scheduling.
    events: Vec<(f64, EventBody)>,
}

/// The CAST simulated-annealing solver.
#[derive(Debug, Clone)]
pub struct Annealer {
    cfg: AnnealConfig,
    /// Start temperature: `TEMP_INIT`, or `WARM_TEMP_INIT` under
    /// [`Annealer::resume_from`].
    temp_init: f64,
    obs: Collector,
}

/// Solves record restart / epoch / move spans plus acceptance and cache
/// counters into the attached collector. Emission never touches the RNG
/// stream or the scoring arithmetic, so results are bit-identical to an
/// unobserved solve.
impl cast_obs::Observe for Annealer {
    fn collector_slot(&mut self) -> &mut Collector {
        &mut self.obs
    }
}

impl Annealer {
    /// Create with the given parameters (no observability).
    pub fn new(cfg: AnnealConfig) -> Annealer {
        Annealer {
            cfg,
            temp_init: TEMP_INIT,
            obs: Collector::noop(),
        }
    }

    /// Maximise tenant utility starting from `init` (Algorithm 2).
    ///
    /// When `ctx.reuse_aware` is set, reuse groups move between tiers as a
    /// unit and shared inputs are charged once (CAST++ Enhancement 1).
    ///
    /// Scoring goes through [`IncrementalEval`] (bit-identical to
    /// [`evaluate`], which stays the oracle and produces the final
    /// [`PlanEval`]); with `cfg.restarts > 1` the independent chains run
    /// on scoped threads.
    pub fn solve(
        &self,
        ctx: &EvalContext<'_>,
        init: TieringPlan,
    ) -> Result<AnnealOutcome, SolverError> {
        let groups = if ctx.reuse_aware {
            ctx.spec
                .reuse_groups()
                .into_iter()
                .map(|(_, jobs)| jobs)
                .collect()
        } else {
            Vec::new()
        };
        let jobs = ctx.spec.jobs.iter().map(|j| j.id).collect();
        let gen = NeighborGen::new(jobs, groups);
        let winner = self.best_of_restarts(|r| {
            let mut state = IncrementalEval::new(ctx, &init)?;
            let chain = self.chain(&mut state, &gen, false, r)?;
            let cache = state.cache_stats();
            self.obs
                .counter("solver.cache.ledger_hits")
                .add(cache.ledger_hits);
            self.obs
                .counter("solver.cache.memo_hits")
                .add(cache.memo_hits);
            self.obs.counter("solver.cache.bw_hits").add(cache.bw_hits);
            self.obs.counter("solver.cache.misses").add(cache.misses);
            Ok(chain)
        })?;
        // `IncrementalEval` assigns every spec position, so none is dropped.
        let best: Vec<Assignment> = winner.best.into_iter().flatten().collect();
        let plan = plan_from_assignments(ctx, &best);
        let eval = evaluate(&plan, ctx)?;
        Ok(AnnealOutcome {
            plan,
            eval,
            diagnostics: winner.diagnostics,
        })
    }

    /// Re-solve warm-started from an incumbent plan (the online runtime's
    /// replan path).
    ///
    /// Identical to [`Annealer::solve`] except the schedule: the chain
    /// resumes at a quarter of the cold start temperature and runs 3000
    /// moves per restart, whatever `cfg.iterations` says. Because every
    /// chain's best-so-far starts at the incumbent, the outcome can never
    /// score below it — warm starts are monotone. The incumbent must
    /// assign every job in `ctx.spec` (jobs it does not cover would
    /// poison scoring; extend the plan before resuming).
    pub fn resume_from(
        &self,
        ctx: &EvalContext<'_>,
        incumbent: TieringPlan,
    ) -> Result<AnnealOutcome, SolverError> {
        let warm = Annealer {
            cfg: AnnealConfig {
                iterations: WARM_ITERATIONS,
                ..self.cfg
            },
            temp_init: WARM_TEMP_INIT,
            obs: self.obs.clone(),
        };
        warm.solve(ctx, incumbent)
    }

    /// Generic annealing search over an arbitrary score function: only
    /// the jobs `gen` covers move, and the rest keep `init`'s assignment.
    /// With `sequential` set, iteration `i` mutates the job at position
    /// `i mod gen.len()` (CAST++'s DFS traversal, when `gen` lists the
    /// jobs in that order); otherwise neighbours mutate random jobs.
    ///
    /// The score closure is called on the candidate plan only — no
    /// per-iteration evaluation payloads are built; the caller
    /// materialises whatever it needs from the winning plan once. A
    /// proposal that leaves the plan unchanged keeps the current score
    /// without a call, so `score` must be a pure function of the plan.
    pub fn solve_with<S>(
        &self,
        init: TieringPlan,
        gen: &NeighborGen,
        score: S,
        sequential: bool,
    ) -> Result<SearchOutcome, SolverError>
    where
        S: Fn(&TieringPlan) -> Result<f64, SolverError> + Sync,
    {
        let winner = self.best_of_restarts(|r| {
            let mut state = PlanChain {
                plan: init.clone(),
                gen,
                score: &score,
            };
            self.chain(&mut state, gen, sequential, r)
        })?;
        let mut plan = init;
        for (p, a) in winner.best.into_iter().enumerate() {
            if let Some(a) = a {
                plan.assign(gen.job_at(p), a);
            }
        }
        Ok(SearchOutcome {
            plan,
            score: winner.score,
            diagnostics: winner.diagnostics,
        })
    }

    /// Run `cfg.restarts` independent chains on the worker pool and keep
    /// the best by `(score, seed)`: highest score, ties to the smallest
    /// seed. Each restart derives its seed from its index, so the winner
    /// is bit-identical for any worker count and thread schedule
    /// (cast_sim::par's determinism contract).
    fn best_of_restarts<F>(&self, run: F) -> Result<ChainResult, SolverError>
    where
        F: Fn(usize) -> Result<ChainResult, SolverError> + Sync,
    {
        let restarts = self.cfg.restarts.max(1);
        let t0 = std::time::Instant::now();
        let mut chains = par::run_indexed(workers(restarts), restarts, run);
        self.observe_chains(&mut chains, t0.elapsed().as_secs_f64());
        let mut best: Option<ChainResult> = None;
        for chain in chains {
            let chain = chain?;
            if best.as_ref().is_none_or(|b| {
                chain.score > b.score || (chain.score == b.score && chain.seed < b.seed)
            }) {
                best = Some(chain);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    /// Restart `restart`'s annealing chain over `state` (Algorithm 2).
    /// `gen` proposes each move by position; with `sequential` set,
    /// iteration `i` mutates position `i mod gen.len()`.
    fn chain<St: ChainState>(
        &self,
        state: &mut St,
        gen: &NeighborGen,
        sequential: bool,
        restart: usize,
    ) -> Result<ChainResult, SolverError> {
        let seed = restart_seed(self.cfg.seed, restart);
        let mut rng = StdRng::seed_from_u64(seed);
        let init_score = state.score()?;
        let scale = init_score.abs().max(f64::MIN_POSITIVE);

        let mut current_score = init_score;
        let mut best: Vec<Option<Assignment>> = (0..gen.len()).map(|p| state.get(p)).collect();
        let mut best_score = init_score;

        let mut diag = SolveDiagnostics {
            initial_score: init_score,
            trace_stride: (self.cfg.iterations / 100).max(1),
            restarts: self.cfg.restarts.max(1),
            ..SolveDiagnostics::default()
        };
        let mut events = ChainEvents::new(&self.obs, restart, seed);
        let mut temp = self.temp_init;
        let mut moves: Vec<(usize, Assignment)> = Vec::new();
        let mut undo: Vec<(usize, Assignment)> = Vec::new();
        let mut until_sample = 0;

        for iter in 0..self.cfg.iterations {
            temp *= COOLING;
            gen.propose(
                |p| state.get(p),
                &mut rng,
                sequential.then_some(iter),
                &mut moves,
            );
            state.apply(&moves, &mut undo)?;
            // An empty proposal leaves the plan as it is, and `score` is a
            // pure function of the plan.
            let n_score = if moves.is_empty() {
                current_score
            } else {
                state.score()?
            };
            diag.iterations += 1;

            if n_score > best_score {
                for (p, b) in best.iter_mut().enumerate() {
                    *b = state.get(p);
                }
                best_score = n_score;
                diag.improvements += 1;
            }
            let accepted = metropolis(n_score, current_score, scale, temp, &mut rng, &mut diag);
            if accepted {
                current_score = n_score;
                diag.accepted += 1;
            } else {
                state.restore(&undo);
            }
            if until_sample == 0 {
                until_sample = diag.trace_stride;
                diag.trace.push(best_score);
                events.sample(iter, n_score, best_score, temp, accepted, &diag);
            }
            until_sample -= 1;
        }
        diag.best_score = best_score;
        Ok(ChainResult {
            best,
            score: best_score,
            seed,
            events: events.finish(best_score, &diag, &self.obs),
            diagnostics: diag,
        })
    }

    /// Flush the chains' buffered trace events into the collector in
    /// restart order (the `chains` vec is indexed by restart), then set
    /// the run-level gauges. Called once after all chains have joined, so
    /// the recorded stream — and the metrics snapshot minus `.wall`
    /// entries — is identical no matter how the scheduler interleaved the
    /// worker threads.
    fn observe_chains(&self, chains: &mut [Result<ChainResult, SolverError>], elapsed: f64) {
        if !self.obs.enabled() {
            return;
        }
        let mut moves_total: u64 = 0;
        let mut scores: Vec<f64> = Vec::with_capacity(chains.len());
        for chain in chains.iter_mut().flatten() {
            self.obs.emit_batch(std::mem::take(&mut chain.events));
            moves_total += chain.diagnostics.iterations as u64;
            scores.push(chain.score);
        }
        if elapsed > 0.0 {
            self.obs
                .gauge("anneal.moves_per_sec.wall")
                .set(moves_total as f64 / elapsed);
        }
        if scores.len() > 1 {
            scores.sort_by(|a, b| b.total_cmp(a));
            self.obs
                .gauge("anneal.restart_win_margin")
                .set(scores[0] - scores[1]);
        }
    }
}

/// Per-chain trace buffer. Events are appended locally while the chain
/// runs (possibly on a worker thread) and handed back through
/// [`ChainResult::events`]; [`Annealer::observe_chains`] flushes them in
/// restart order. All methods are no-ops when the collector is disabled.
struct ChainEvents {
    buf: Vec<(f64, EventBody)>,
    restart: u32,
    enabled: bool,
}

impl ChainEvents {
    fn new(obs: &Collector, restart: usize, seed: u64) -> ChainEvents {
        let enabled = obs.enabled();
        let mut buf = Vec::new();
        if enabled {
            buf.push((
                0.0,
                EventBody::RestartStart {
                    restart: restart as u32,
                    // Stored as the i64 bit pattern: the vendored serde
                    // shim keeps all JSON integers as i64, so a raw u64
                    // above i64::MAX would not round-trip.
                    seed: seed as i64,
                },
            ));
        }
        ChainEvents {
            buf,
            restart: restart as u32,
            enabled,
        }
    }

    /// Record one trace-stride sample: the move that landed on the stride
    /// boundary plus an epoch summary of the chain so far.
    fn sample(
        &mut self,
        iter: usize,
        score: f64,
        best: f64,
        temp: f64,
        accepted: bool,
        diag: &SolveDiagnostics,
    ) {
        if !self.enabled {
            return;
        }
        let t = iter as f64;
        self.buf.push((
            t,
            EventBody::Move {
                restart: self.restart,
                iter: iter as u64,
                score,
                best,
                temp,
                accepted,
            },
        ));
        self.buf.push((
            t,
            EventBody::Epoch {
                restart: self.restart,
                iter: iter as u64,
                best,
                temp,
                accepted: diag.accepted as u64,
                uphill: diag.uphill_accepted as u64,
            },
        ));
    }

    /// Close the chain: append its `RestartEnd` event and roll the chain's
    /// acceptance statistics into the shared counters (atomic adds
    /// commute, so totals are deterministic across thread schedules).
    fn finish(
        mut self,
        best_score: f64,
        diag: &SolveDiagnostics,
        obs: &Collector,
    ) -> Vec<(f64, EventBody)> {
        if !self.enabled {
            return self.buf;
        }
        self.buf.push((
            diag.iterations as f64,
            EventBody::RestartEnd {
                restart: self.restart,
                score: best_score,
                iterations: diag.iterations as u64,
                accepted: diag.accepted as u64,
            },
        ));
        obs.counter("anneal.moves").add(diag.iterations as u64);
        obs.counter("anneal.accepted").add(diag.accepted as u64);
        obs.counter("anneal.uphill_accepted")
            .add(diag.uphill_accepted as u64);
        obs.counter("anneal.improvements")
            .add(diag.improvements as u64);
        self.buf
    }
}

/// Worker threads for `restarts` chains. A single chain runs inline, so
/// it skips `available_parallelism`, which reads cgroup files on Linux.
fn workers(restarts: usize) -> usize {
    if restarts > 1 {
        par::default_workers()
    } else {
        1
    }
}

/// The Metropolis acceptance rule: accept improvements outright, worse
/// moves with probability `exp(Δ/temp)`. Consumes one RNG draw exactly
/// when `Δ < 0`.
fn metropolis(
    n_score: f64,
    current_score: f64,
    scale: f64,
    temp: f64,
    rng: &mut StdRng,
    diag: &mut SolveDiagnostics,
) -> bool {
    let delta = (n_score - current_score) / scale;
    if delta >= 0.0 {
        return true;
    }
    let p = (delta / temp.max(1e-12)).exp();
    let uphill = rng.gen_bool(p.clamp(0.0, 1.0));
    if uphill {
        diag.uphill_accepted += 1;
    }
    uphill
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_plan, GreedyMode};
    use crate::objective::tests::toy_estimator;
    use cast_cloud::tier::Tier;
    use cast_workload::synth;

    fn quick_cfg(seed: u64) -> AnnealConfig {
        AnnealConfig {
            iterations: 800,
            seed,
            ..AnnealConfig::default()
        }
    }

    #[test]
    fn annealer_beats_or_matches_uniform_baselines() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::PersSsd);
        let cfg = AnnealConfig {
            iterations: 5000,
            seed: 1,
            ..AnnealConfig::default()
        };
        let out = Annealer::new(cfg).solve(&ctx, init).unwrap();
        for tier in Tier::ALL {
            let u = evaluate(&TieringPlan::uniform(&spec, tier), &ctx)
                .unwrap()
                .utility;
            assert!(
                out.eval.utility >= u - 1e-15,
                "annealer worse than uniform {tier}: {} vs {u}",
                out.eval.utility
            );
        }
    }

    #[test]
    fn annealer_improves_on_greedy_init_or_keeps_it() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let greedy = greedy_plan(&ctx, GreedyMode::OverProvisioned).unwrap();
        let greedy_u = evaluate(&greedy, &ctx).unwrap().utility;
        let out = Annealer::new(quick_cfg(2)).solve(&ctx, greedy).unwrap();
        assert!(out.eval.utility >= greedy_u - 1e-15);
        assert!(out.diagnostics.iterations == 800);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::PersHdd);
        let a = Annealer::new(quick_cfg(7))
            .solve(&ctx, init.clone())
            .unwrap();
        let b = Annealer::new(quick_cfg(7)).solve(&ctx, init).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.eval.utility, b.eval.utility);
    }

    #[test]
    fn incremental_and_plan_paths_share_one_trajectory() {
        // The generic plan-scoring loop (scoring via the full oracle) and
        // the incremental loop must make identical decisions: same seed,
        // same plan, bit-identical score.
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::ObjStore);
        let cfg = quick_cfg(13);
        let fast = Annealer::new(cfg).solve(&ctx, init.clone()).unwrap();
        let jobs = ctx.spec.jobs.iter().map(|j| j.id).collect();
        let gen = NeighborGen::new(jobs, Vec::new());
        let slow = Annealer::new(cfg)
            .solve_with(init, &gen, |p| evaluate(p, &ctx).map(|e| e.utility), false)
            .unwrap();
        assert_eq!(fast.plan, slow.plan);
        assert_eq!(fast.eval.utility.to_bits(), slow.score.to_bits());
        assert_eq!(fast.diagnostics.accepted, slow.diagnostics.accepted);
        assert_eq!(
            fast.diagnostics.uphill_accepted,
            slow.diagnostics.uphill_accepted
        );
    }

    #[test]
    fn reuse_mode_keeps_groups_united() {
        // Two Grep jobs sharing a dataset.
        let mut spec = synth::single_job(
            cast_workload::AppKind::Grep,
            cast_cloud::units::DataSize::from_gb(200.0),
        );
        let mut j2 = spec.jobs[0];
        j2.id = cast_workload::JobId(1);
        spec.jobs.push(j2);
        let est = toy_estimator(5);
        let ctx = EvalContext::new(&est, &spec).with_reuse_awareness();
        let init = TieringPlan::uniform(&spec, Tier::PersSsd);
        let out = Annealer::new(quick_cfg(3)).solve(&ctx, init).unwrap();
        let t0 = out.plan.get(cast_workload::JobId(0)).unwrap().tier;
        let t1 = out.plan.get(cast_workload::JobId(1)).unwrap().tier;
        assert_eq!(t0, t1, "Eq. 7: shared-input jobs share a tier");
    }

    #[test]
    fn reuse_aware_solve_reports_an_undeclared_dataset() {
        // Two Grep jobs sharing a dataset the spec does not declare.
        let mut spec = synth::single_job(
            cast_workload::AppKind::Grep,
            cast_cloud::units::DataSize::from_gb(200.0),
        );
        spec.jobs[0].dataset = cast_workload::DatasetId(99);
        let mut j2 = spec.jobs[0];
        j2.id = cast_workload::JobId(1);
        spec.jobs.push(j2);
        let est = toy_estimator(5);
        let ctx = EvalContext::new(&est, &spec).with_reuse_awareness();
        let init = TieringPlan::uniform(&spec, Tier::PersSsd);
        let err = Annealer::new(quick_cfg(3)).solve(&ctx, init).unwrap_err();
        assert_eq!(
            err,
            SolverError::Workload(cast_workload::WorkloadError::UnknownDataset {
                job: 0,
                dataset: 99
            })
        );
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::ObjStore);
        let out = Annealer::new(quick_cfg(9)).solve(&ctx, init).unwrap();
        for w in out.diagnostics.trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-18, "best-score trace must not regress");
        }
    }

    #[test]
    fn multi_restart_never_loses_to_its_own_base_chain() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::PersHdd);
        let single = Annealer::new(quick_cfg(21))
            .solve(&ctx, init.clone())
            .unwrap();
        let multi = Annealer::new(AnnealConfig {
            restarts: 4,
            ..quick_cfg(21)
        })
        .solve(&ctx, init)
        .unwrap();
        // Restart 0 runs the base seed, so best-of-4 can only match or
        // beat the single chain.
        assert!(multi.eval.utility >= single.eval.utility);
        assert_eq!(multi.diagnostics.restarts, 4);
    }

    #[test]
    fn warm_start_never_regresses_below_incumbent() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::PersHdd);
        let cold = Annealer::new(quick_cfg(5)).solve(&ctx, init).unwrap();
        let warm = Annealer::new(quick_cfg(6))
            .resume_from(&ctx, cold.plan.clone())
            .unwrap();
        assert!(
            warm.eval.utility >= cold.eval.utility - 1e-15,
            "warm start regressed: {} < {}",
            warm.eval.utility,
            cold.eval.utility
        );
    }

    #[test]
    fn warm_start_reaches_incumbent_in_fewer_moves_than_cold() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::PersHdd);
        let incumbent = Annealer::new(quick_cfg(11))
            .solve(&ctx, init.clone())
            .unwrap();
        let target = incumbent.eval.utility;
        let warm = Annealer::new(quick_cfg(12))
            .resume_from(&ctx, incumbent.plan)
            .unwrap();
        let cold = Annealer::new(AnnealConfig {
            iterations: WARM_ITERATIONS,
            seed: 12,
            ..AnnealConfig::default()
        })
        .solve(&ctx, init)
        .unwrap();
        let warm_moves = warm.diagnostics.moves_to_reach(target).unwrap();
        assert_eq!(warm_moves, 0, "warm chain starts at the incumbent score");
        let cold_moves = cold
            .diagnostics
            .moves_to_reach(target)
            .unwrap_or(cold.diagnostics.iterations);
        assert!(
            cold_moves > warm_moves,
            "cold start should need moves to climb back ({cold_moves} vs {warm_moves})"
        );
    }

    #[test]
    fn warm_start_is_deterministic() {
        let spec = synth::prediction_workload();
        let est = toy_estimator(25);
        let ctx = EvalContext::new(&est, &spec);
        let init = TieringPlan::uniform(&spec, Tier::ObjStore);
        let incumbent = Annealer::new(quick_cfg(17)).solve(&ctx, init).unwrap();
        let a = Annealer::new(quick_cfg(18))
            .resume_from(&ctx, incumbent.plan.clone())
            .unwrap();
        let b = Annealer::new(quick_cfg(18))
            .resume_from(&ctx, incumbent.plan)
            .unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.eval.utility.to_bits(), b.eval.utility.to_bits());
    }

    #[test]
    fn restart_seeds_are_stable_and_distinct() {
        let base = 0xCA57u64;
        assert_eq!(restart_seed(base, 0), base);
        let seeds: Vec<u64> = (0..8).map(|r| restart_seed(base, r)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds must be distinct");
        // Stable across calls (pure function of (base, restart)).
        assert_eq!(restart_seed(base, 3), restart_seed(base, 3));
    }
}
