//! Deployment reports: predicted vs observed.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use cast_cloud::tier::Tier;
use cast_solver::PlanEval;

use crate::deploy::DeployOutcome;

/// A side-by-side comparison of the solver's prediction and the deployed
/// (simulated) reality — what a tenant reviews before trusting CAST.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Strategy label (e.g. `"CAST++"`).
    pub strategy: String,
    /// The solver's model-side evaluation.
    pub predicted: PlanEval,
    /// What the deployment measured.
    pub observed: DeployOutcome,
}

impl DeploymentReport {
    /// Relative runtime prediction error, in percent.
    pub fn time_error_pct(&self) -> f64 {
        let obs = self.observed.makespan.secs();
        if obs <= 0.0 {
            return 0.0;
        }
        100.0 * (self.predicted.time.secs() - obs).abs() / obs
    }

    /// Render a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.strategy);
        let _ = writeln!(
            out,
            "predicted: T={} cost={} utility={:.3e}",
            self.predicted.time,
            self.predicted.cost.total(),
            self.predicted.utility
        );
        let _ = writeln!(
            out,
            "observed:  T={} cost={} utility={:.3e}  (err {:.1}%)",
            self.observed.makespan,
            self.observed.cost.total(),
            self.observed.utility,
            self.time_error_pct()
        );
        let _ = writeln!(out, "capacities:");
        for tier in Tier::ALL {
            let c = *self.observed.capacities.get(tier);
            if !c.is_zero() {
                let _ = writeln!(out, "  {:<9} {}", tier.name(), c);
            }
        }
        out
    }
}

impl DeployOutcome {
    /// Short textual summary of the outcome alone.
    pub fn render(&self) -> String {
        format!(
            "makespan={} cost={} utility={:.3e} ({} jobs)",
            self.makespan,
            self.cost.total(),
            self.utility,
            self.report.jobs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::cost::CostBreakdown;
    use cast_cloud::tier::PerTier;
    use cast_cloud::units::{DataSize, Duration, Money};
    use cast_sim::metrics::SimReport;

    fn outcome(makespan: f64) -> DeployOutcome {
        DeployOutcome {
            report: SimReport::default(),
            makespan: Duration::from_secs(makespan),
            cost: CostBreakdown {
                vm: Money::from_dollars(10.0),
                storage: PerTier::from_fn(|_| Money::ZERO),
            },
            utility: 0.01,
            capacities: PerTier::from_fn(|_| DataSize::from_gb(1.0)),
        }
    }

    fn eval(time: f64) -> PlanEval {
        PlanEval {
            time: Duration::from_secs(time),
            cost: CostBreakdown {
                vm: Money::from_dollars(9.0),
                storage: PerTier::from_fn(|_| Money::ZERO),
            },
            utility: 0.011,
            capacities: PerTier::from_fn(|_| DataSize::ZERO),
        }
    }

    #[test]
    fn error_math() {
        let r = DeploymentReport {
            strategy: "CAST".into(),
            predicted: eval(110.0),
            observed: outcome(100.0),
        };
        assert!((r.time_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_strategy_and_tiers() {
        let r = DeploymentReport {
            strategy: "CAST++".into(),
            predicted: eval(90.0),
            observed: outcome(100.0),
        };
        let s = r.render();
        assert!(s.contains("CAST++"));
        assert!(s.contains("ephSSD"));
        assert!(s.contains("err 10.0%"));
    }
}
