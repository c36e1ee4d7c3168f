//! Simulation-backed candidate scoring for live replanning.
//!
//! The annealer scores plans through the estimator (Eq. 4); this module
//! scores them by *simulating* them against the batch: the shared prefix
//! runs once, then a live mid-stream engine is forked per candidate
//! ([`cast_sim::whatif`]). By fork equivalence this commits exactly the
//! winner a cold restart per candidate ([`cast_sim::score_cold`]) would,
//! paying for the prefix once instead of once per candidate.
//!
//! The candidate slate here is deliberately simple — the committed plan
//! plus one uniform redirect per tier — because the what-if question at
//! a replan point is coarse: "is there a tier the still-waiting jobs
//! would rather be on, given what is actually in flight?".

use serde::{Deserialize, Serialize};

use cast_cloud::tier::Tier;
use cast_sim::config::SimConfig;
use cast_sim::engine::Engine;
use cast_sim::error::SimError;
use cast_sim::jobrun::JobRun;
use cast_sim::metrics::SimReport;
use cast_sim::placement::JobPlacement;
use cast_sim::whatif::{pick_winner, score_forked, CandidateOverride};
use cast_workload::spec::WorkloadSpec;

/// How an epoch's candidate plans are scored at the replan point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateScoring {
    /// Estimator-only (Eq. 4) scoring — the original behaviour; the
    /// simulator runs once, on the committed plan.
    #[default]
    Analytic,
    /// Simulate the shared prefix once, snapshot the live engine at the
    /// replan horizon, and fork one engine per candidate
    /// ([`cast_sim::EngineSnapshot::fork`]). Byte-identical decisions to
    /// re-simulating every candidate from the epoch boundary.
    ForkLive,
}

impl CandidateScoring {
    /// Short label for tables and result files.
    pub fn label(&self) -> &'static str {
        match self {
            CandidateScoring::Analytic => "analytic",
            CandidateScoring::ForkLive => "fork-live",
        }
    }

    /// Whether this mode scores candidates by simulation at all.
    pub fn simulated(&self) -> bool {
        *self != CandidateScoring::Analytic
    }
}

/// The committed plan's slate of what-if alternatives: index 0 is the
/// committed plan itself (no overrides), followed by one uniform
/// redirect of every job to each tier of `tiers`, in order. Callers
/// restrict `tiers` to services the epoch actually provisioned — a
/// redirect onto an unprovisioned tier has zero bandwidth and can only
/// stall. Overrides only take effect on jobs still waiting at the
/// replan horizon, so the redirects answer "move everything not yet
/// started to tier t".
pub fn candidate_slate(spec: &WorkloadSpec, tiers: &[Tier]) -> Vec<Vec<CandidateOverride>> {
    let mut slate = vec![Vec::new()];
    for &tier in tiers {
        slate.push(
            spec.jobs
                .iter()
                .map(|j| CandidateOverride {
                    job: j.id,
                    placement: JobPlacement::all_on(tier),
                })
                .collect(),
        );
    }
    slate
}

/// Outcome of a simulation-backed replan: which candidate won and its
/// full-run report (the epoch's committed result — no re-simulation
/// needed after the decision).
#[derive(Debug, Clone)]
pub struct ReplanDecision {
    /// Winning candidate index into the slate (0 = the committed plan).
    pub winner: usize,
    /// The winner's complete simulation report.
    pub report: SimReport,
}

/// Score `candidates` over the prepared `runs` and commit the winner
/// (smallest makespan, ties to the lowest index). `horizon` is the
/// replan point in simulated seconds from the epoch boundary; `workers`
/// fans candidates out through [`cast_sim::par::run_indexed`], so the
/// result is identical for any worker count.
///
/// # Panics
///
/// If `mode` is [`CandidateScoring::Analytic`] (nothing to simulate) or
/// `candidates` is empty.
pub fn score_candidates(
    mode: CandidateScoring,
    cfg: &SimConfig,
    runs: Vec<JobRun>,
    candidates: &[Vec<CandidateOverride>],
    horizon: f64,
    workers: usize,
) -> Result<ReplanDecision, SimError> {
    let reports = match mode {
        CandidateScoring::Analytic => {
            panic!("score_candidates needs a simulated scoring mode")
        }
        CandidateScoring::ForkLive => {
            let mut live = Engine::new(cfg, runs);
            live.run_until(horizon)?;
            let snapshot = live.snapshot();
            score_forked(&snapshot, candidates, workers)?
        }
    };
    let winner = pick_winner(&reports).expect("non-empty candidate slate");
    let report = reports
        .into_iter()
        .nth(winner)
        .expect("winner indexes reports");
    Ok(ReplanDecision { winner, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::PerTier;
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;
    use cast_sim::placement::PlacementMap;
    use cast_sim::prepare_runs;
    use cast_sim::whatif::score_cold;
    use cast_workload::synth;

    fn setup() -> (WorkloadSpec, SimConfig, Vec<JobRun>) {
        let spec = synth::workflow_suite(0xD1CE);
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersHdd);
        let agg = PerTier::from_fn(|_| DataSize::from_gb(4000.0));
        let mut cfg = SimConfig::with_aggregate_capacity(Catalog::aws_like(), 8, &agg).unwrap();
        cfg.jitter = 0.0;
        let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
        (spec, cfg, runs)
    }

    #[test]
    fn slate_leads_with_the_committed_plan() {
        let (spec, _, _) = setup();
        let slate = candidate_slate(&spec, &Tier::ALL);
        assert_eq!(slate.len(), 1 + Tier::ALL.len());
        assert!(slate[0].is_empty(), "index 0 is the no-redirect candidate");
        assert!(slate[1..].iter().all(|c| c.len() == spec.jobs.len()));
    }

    #[test]
    fn cold_and_fork_live_commit_the_same_winner() {
        let (spec, cfg, runs) = setup();
        let slate = candidate_slate(&spec, &[Tier::PersHdd, Tier::PersSsd, Tier::EphSsd]);
        let cold = score_cold(&cfg, &runs, &slate, 40.0, 2).unwrap();
        let cold_winner = pick_winner(&cold).unwrap();
        let fork =
            score_candidates(CandidateScoring::ForkLive, &cfg, runs, &slate, 40.0, 2).unwrap();
        assert_eq!(cold_winner, fork.winner);
        assert_eq!(
            serde_json::to_string(&cold[cold_winner]).unwrap(),
            serde_json::to_string(&fork.report).unwrap()
        );
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(CandidateScoring::default(), CandidateScoring::Analytic);
        assert!(!CandidateScoring::Analytic.simulated());
        assert!(CandidateScoring::ForkLive.simulated());
        assert_eq!(CandidateScoring::ForkLive.label(), "fork-live");
    }
}
