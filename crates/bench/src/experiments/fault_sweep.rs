//! Fault sweep: resilience of the Fig. 7 workload under increasing fault
//! intensity.
//!
//! Replays a trimmed Facebook-derived workload (all on persSSD, the
//! paper's default comparison tier) under a grid of per-task failure
//! probabilities, plus a VM-crash scenario and a tier-degradation
//! scenario. Makespan must grow (weakly) with failure rate — the engine
//! pays for every retry — and the crash scenario must finish via
//! re-execution rather than stalling.

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_sim::{DegradationWindow, FaultPlan, PlacementMap, Sim, SimConfig, SimReport, VmCrash};
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth::{facebook_workload, FacebookConfig};

use crate::format::{Cell, TableWriter};

/// Cluster size for the sweep (same shape as the runner smoke tests).
const NVM: usize = 8;

/// Per-task failure probabilities swept in the table.
pub const FAILURE_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];

fn cluster() -> SimConfig {
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    for t in Tier::ALL {
        *agg.get_mut(t) = DataSize::from_gb(750.0 * NVM as f64);
    }
    let mut cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), NVM, &agg)
        .expect("cluster config");
    cfg.jitter = 0.0;
    cfg
}

/// The Fig. 7 workload trimmed to its small-job prefix so the sweep runs
/// in seconds (same trim as the runner's smoke test).
fn workload() -> WorkloadSpec {
    let mut spec = facebook_workload(FacebookConfig::default()).expect("synthesis");
    spec.jobs.truncate(60);
    spec.jobs.retain(|j| j.maps <= 50);
    spec.workflows.clear();
    spec
}

/// One sweep scenario: a label plus the fault plan it replays.
struct Scenario {
    label: String,
    plan: FaultPlan,
}

fn scenarios(makespan_hint_secs: f64) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = FAILURE_RATES
        .iter()
        .map(|&p| Scenario {
            label: format!("task failures p={p}"),
            plan: FaultPlan {
                // Generous budget so even p=0.2 never exhausts retries.
                max_task_attempts: 12,
                ..FaultPlan::with_task_failures(p)
            },
        })
        .collect();
    // Crash one VM mid-run; its resident tasks must be re-executed
    // elsewhere and the workload must still finish.
    out.push(Scenario {
        label: "VM 0 crash (permanent)".into(),
        plan: FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: makespan_hint_secs * 0.25,
                down_secs: None,
            }],
            ..FaultPlan::default()
        },
    });
    // Degrade one VM's persSSD to 10% and let speculative execution
    // race backups on the healthy VMs.
    out.push(Scenario {
        label: "VM 0 persSSD x0.1 + speculation".into(),
        plan: FaultPlan {
            degradations: vec![DegradationWindow {
                vm: Some(0),
                tier: Tier::PersSsd,
                start_secs: 0.0,
                end_secs: 1e12,
                multiplier: 0.1,
            }],
            speculation_threshold: 0.5,
            ..FaultPlan::default()
        },
    });
    out
}

fn run_one(spec: &WorkloadSpec, placements: &PlacementMap, plan: &FaultPlan) -> SimReport {
    let mut cfg = cluster();
    cfg.faults = plan.clone();
    Sim::builder(&cfg, spec, placements)
        .collector(crate::harness::observer())
        .build()
        .and_then(|s| s.run())
        .expect("fault scenario must finish via recovery")
}

/// Sweep fault intensity over the trimmed Fig. 7 workload.
pub fn run() -> TableWriter {
    let spec = workload();
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);

    // Fault-free baseline first: it anchors the table and tells the crash
    // scenario when "mid-run" is.
    let baseline = run_one(&spec, &placements, &FaultPlan::default());
    let base_secs = baseline.makespan.secs();

    let mut t = TableWriter::new(
        "Fault sweep: trimmed Fig. 7 workload on persSSD (8 VMs)",
        &[
            "Scenario",
            "Makespan (min)",
            "vs baseline",
            "Task failures",
            "Retries",
            "Speculations",
            "Kills",
            "VM crashes",
        ],
    );

    // Scenarios are independent runs over the same spec/placements:
    // execute them on the worker pool; results come back in scenario
    // order, so rows and the monotonicity check match a sequential sweep.
    let scenarios = scenarios(base_secs);
    let reports =
        cast_sim::par::run_indexed(cast_sim::par::default_workers(), scenarios.len(), |i| {
            run_one(&spec, &placements, &scenarios[i].plan)
        });

    let mut sweep_makespans: Vec<f64> = Vec::new();
    for (sc, report) in scenarios.iter().zip(reports) {
        let f = &report.faults;
        if sc.label.starts_with("task failures") {
            sweep_makespans.push(report.makespan.secs());
        }
        t.row(vec![
            sc.label.clone().into(),
            Cell::Prec(report.makespan.mins(), 2),
            Cell::Prec(report.makespan.secs() / base_secs, 3),
            Cell::Prec(f.task_failures as f64, 0),
            Cell::Prec(f.retries as f64, 0),
            Cell::Prec(f.speculations as f64, 0),
            Cell::Prec(f.kills as f64, 0),
            Cell::Prec(f.vm_crashes as f64, 0),
        ]);
    }

    // Acceptance: makespan is monotonically non-decreasing in the failure
    // rate (the engine pays for every failed attempt).
    for w in sweep_makespans.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-9,
            "makespan must not drop as the failure rate rises: {} -> {}",
            w[0],
            w[1]
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_and_recovers() {
        // `run()` itself asserts monotonicity and panics if any scenario
        // stalls; the rows cover the full grid plus the two recovery
        // scenarios.
        let t = run();
        assert_eq!(t.len(), FAILURE_RATES.len() + 2);
    }
}
