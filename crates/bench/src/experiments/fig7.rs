//! Fig. 7: the headline evaluation — tenant utility, cost/runtime, and
//! capacity breakdown for the 100-job Facebook-derived workload across
//! eight configurations (four non-tiered, two greedy variants, CAST,
//! CAST++) on the 400-core cluster.

use cast_cloud::tier::Tier;
use cast_core::framework::{Cast, PlanStrategy};
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth::{facebook_workload, FacebookConfig};

use crate::format::{Cell, TableWriter};
use crate::harness::paper_framework;

/// One configuration's measured outcome.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Figure label.
    pub label: &'static str,
    /// Observed (simulated) workload completion, minutes.
    pub runtime_min: f64,
    /// Observed deployment cost, dollars.
    pub cost: f64,
    /// Observed tenant utility.
    pub utility: f64,
    /// Capacity fraction per tier (Fig. 7c).
    pub capacity_frac: [f64; 4],
    /// Solver-estimated completion, minutes.
    pub est_runtime_min: f64,
    /// Solver-estimated utility.
    pub est_utility: f64,
}

/// Plan and deploy every Fig. 7 configuration.
pub fn evaluate_all(framework: &Cast, spec: &WorkloadSpec) -> Vec<ConfigResult> {
    PlanStrategy::ALL
        .into_iter()
        .map(|strategy| {
            let planned = framework.plan(spec, strategy).expect("planning");
            let out = framework.deploy(spec, &planned.plan).expect("deployment");
            let total: f64 = Tier::ALL.iter().map(|&t| out.capacities.get(t).gb()).sum();
            let capacity_frac =
                Tier::ALL.map(|t| out.capacities.get(t).gb() / total.max(f64::MIN_POSITIVE));
            ConfigResult {
                label: strategy.label(),
                runtime_min: out.makespan.mins(),
                cost: out.cost.total().dollars(),
                utility: out.utility,
                capacity_frac,
                est_runtime_min: planned.eval.time.mins(),
                est_utility: planned.eval.utility,
            }
        })
        .collect()
}

/// Reproduce Fig. 7 (all three panels as one table).
pub fn run() -> TableWriter {
    let framework = paper_framework();
    let spec = facebook_workload(FacebookConfig::default()).expect("synthesis");
    let results = evaluate_all(&framework, &spec);
    table(&results)
}

/// Render the Fig. 7 table from precomputed results.
pub fn table(results: &[ConfigResult]) -> TableWriter {
    let cast_u = results
        .iter()
        .find(|r| r.label == "CAST")
        .expect("CAST row")
        .utility;
    let mut t = TableWriter::new(
        "Fig. 7: 100-job workload across configurations (400-core cluster)",
        &[
            "Configuration",
            "Utility (norm. to CAST)",
            "Runtime (min)",
            "Est. runtime (min)",
            "Cost ($)",
            "%ephSSD",
            "%persSSD",
            "%persHDD",
            "%objStore",
        ],
    );
    for r in results {
        t.row(vec![
            r.label.to_string().into(),
            Cell::Prec(r.utility / cast_u, 3),
            Cell::Prec(r.runtime_min, 0),
            Cell::Prec(r.est_runtime_min, 0),
            Cell::Prec(r.cost, 2),
            Cell::Prec(r.capacity_frac[0] * 100.0, 0),
            Cell::Prec(r.capacity_frac[1] * 100.0, 0),
            Cell::Prec(r.capacity_frac[2] * 100.0, 0),
            Cell::Prec(r.capacity_frac[3] * 100.0, 0),
        ]);
    }
    t
}

/// The abstract's headline: CAST++ vs the local-storage (ephSSD)
/// configuration — paper: 1.21× performance at 51.4 % lower cost.
/// Returns `(speedup, cost_reduction_fraction)`.
pub fn headline(results: &[ConfigResult]) -> (f64, f64) {
    let get = |label: &str| {
        results
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("{label} missing"))
    };
    let local = get("ephSSD 100%");
    let castpp = get("CAST++");
    (
        local.runtime_min / castpp.runtime_min,
        1.0 - castpp.cost / local.cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "slow: plans and simulates 8 configurations of 100 jobs; run with --ignored"]
    fn cast_beats_non_tiered_and_castpp_beats_cast() {
        let framework = paper_framework();
        let spec = facebook_workload(FacebookConfig::default()).unwrap();
        let results = evaluate_all(&framework, &spec);
        let get = |label: &str| {
            results
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
                .utility
        };
        let cast = get("CAST");
        for tier in [
            "ephSSD 100%",
            "persSSD 100%",
            "persHDD 100%",
            "objStore 100%",
        ] {
            assert!(
                cast > get(tier) * 1.02,
                "CAST must beat {tier}: {cast:.3e} vs {:.3e}",
                get(tier)
            );
        }
        // The worst non-tiered configuration loses big (paper: 178%).
        assert!(cast > get("objStore 100%") * 1.5);
        assert!(
            cast > get("Greedy exact-fit") * 1.5,
            "CAST vs greedy exact-fit"
        );
        assert!(cast > get("Greedy over-prov"), "CAST vs greedy over-prov");
        assert!(get("CAST++") >= cast * 0.98, "CAST++ must not lose to CAST");
    }
}
