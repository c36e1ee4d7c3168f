//! Durability sweep: failure-safe migration vs fire-and-forget, plus the
//! erasure-coding storage-cost Pareto.
//!
//! Beyond the paper: CAST migrates data between tiers but treats every
//! copy as instantaneous and infallible. This experiment injects copy
//! faults into the online runtime's migrations at increasing rates and
//! serves the same drifting arrival stream under both protocols:
//!
//! * **unsafe** — the pre-durability fire-and-forget move. A faulted
//!   copy leaves a partial destination and a retired source: the dataset
//!   is gone.
//! * **copy→verify→retire** — the source is retained until the
//!   destination passes a verification read; failed copies are retried
//!   with exponential backoff and rolled back (readers keep the old
//!   placement) when the attempt budget is exhausted.
//!
//! The reproduction targets:
//!
//! * **zero data loss under copy→verify→retire at every fault rate**,
//!   while the unsafe protocol loses datasets once faults are likely;
//! * the safety premium is visible and bounded: verification reads and
//!   retry backoff cost bandwidth and time, never correctness;
//! * **rs(4+2) erasure coding cuts the cold-tier storage bill ≥ 40 %**
//!   against 3× replication at the same two-loss fault tolerance.
//!
//! Everything is a pure function of the seeds in [`online_drift`]; the
//! tables and JSON are byte-identical across runs and machines.

use cast_cloud::units::{DataSize, Duration};
use cast_cloud::{Catalog, PriceSheet, RedundancyScheme, Tier};
use cast_obs::Observe;
use cast_runtime::{
    AdmissionPolicy, MigrationProtocol, OnlineReport, OnlineRuntime, ReplanPolicy, RuntimeConfig,
};
use cast_solver::AnnealConfig;

use crate::experiments::online_drift::{self, OnlineDriftConfig};
use crate::format::{Cell, TableWriter};

/// Solver seed, distinct from the stream seed so the annealer and the
/// arrival process never share randomness.
const SOLVER_SEED: u64 = 0xCA57_D00D;

/// Logical cold-tier footprint priced in the Pareto table.
const PARETO_CAPACITY_GB: f64 = 10_000.0;

/// One run of the experiment: scaled down for `--smoke` (CI) runs.
#[derive(Debug, Clone)]
pub struct DurabilitySweepConfig {
    /// Stream/solver sizing, shared with the drift experiment so the
    /// migrations being faulted are the ones that experiment validates.
    pub drift: OnlineDriftConfig,
    /// Per-move copy-fault probabilities swept.
    pub fault_rates: Vec<f64>,
}

impl DurabilitySweepConfig {
    /// The full experiment: the 4-hour drifting stream, five fault rates.
    pub fn full() -> DurabilitySweepConfig {
        DurabilitySweepConfig {
            drift: OnlineDriftConfig::full(),
            fault_rates: vec![0.0, 0.1, 0.3, 0.6, 0.9],
        }
    }

    /// CI-sized: the two-hour stream, three fault rates.
    pub fn smoke() -> DurabilitySweepConfig {
        DurabilitySweepConfig {
            drift: OnlineDriftConfig::smoke(),
            fault_rates: vec![0.0, 0.5, 0.9],
        }
    }
}

/// Serve the drift stream under one `(protocol, fault rate)` cell.
///
/// Periodic replanning with open admission maximises migration traffic —
/// every adopted replan moves data, so every fault rate gets plenty of
/// copies to break.
pub fn serve(
    cfg: &DurabilitySweepConfig,
    protocol: MigrationProtocol,
    fault_prob: f64,
) -> OnlineReport {
    let estimator = crate::paper_estimator();
    let anneal = AnnealConfig {
        iterations: cfg.drift.iterations,
        restarts: cfg.drift.restarts,
        seed: SOLVER_SEED,
    };
    let rt_cfg = RuntimeConfig {
        epoch: Duration::from_mins(30.0),
        policy: ReplanPolicy::Periodic,
        admission: AdmissionPolicy::AcceptAll,
        seed: SOLVER_SEED,
        protocol,
        migration_fault_prob: fault_prob,
        skip: cast_runtime::SkipPolicy::default(),
    };
    OnlineRuntime::new(&estimator, anneal, rt_cfg)
        .observe(crate::observer())
        .run(&online_drift::stream(&cfg.drift))
        .expect("online run")
}

/// The protocol grid swept at each fault rate.
fn protocols() -> Vec<(&'static str, MigrationProtocol)> {
    vec![
        ("unsafe", MigrationProtocol::Unsafe),
        ("copy-verify-retire", MigrationProtocol::safe()),
    ]
}

/// The redundancy schemes priced against each other on the cold tier.
fn pareto_schemes() -> Vec<(&'static str, RedundancyScheme)> {
    vec![
        ("rep(1) provider-internal", RedundancyScheme::NONE),
        ("rep(3) replication", RedundancyScheme::TRIPLE),
        ("rs(4+2) erasure coding", RedundancyScheme::RS_4_2),
    ]
}

/// Price `PARETO_CAPACITY_GB` of logical persHDD data under `scheme`,
/// dollars per month (730 h).
fn monthly_cold_cost(scheme: RedundancyScheme) -> f64 {
    let mut catalog = Catalog::google_cloud();
    catalog.service_mut(Tier::PersHdd).redundancy = scheme;
    let sheet = PriceSheet::from_catalog(&catalog);
    sheet
        .storage_hourly(Tier::PersHdd, DataSize::from_gb(PARETO_CAPACITY_GB))
        .dollars()
        * 730.0
}

/// Run the sweep and the Pareto table; returns both tables plus the JSON
/// payload saved under `results/durability_sweep.json`.
pub fn run(cfg: &DurabilitySweepConfig) -> (TableWriter, TableWriter, serde_json::Value) {
    let mut sweep = TableWriter::new(
        "Migration protocol under injected copy faults (same drift stream)",
        &[
            "protocol",
            "fault p",
            "moves",
            "moved MB",
            "lost",
            "retries",
            "rollbacks",
            "verify MB",
            "wasted MB",
            "cost $",
        ],
    );
    // The (fault rate × protocol) cells are independent runs: execute
    // them on the worker pool and emit rows in grid order, which is
    // identical to the sequential sweep (par's determinism contract).
    let grid: Vec<(&'static str, MigrationProtocol, f64)> = cfg
        .fault_rates
        .iter()
        .flat_map(|&rate| {
            protocols()
                .into_iter()
                .map(move |(label, protocol)| (label, protocol, rate))
        })
        .collect();
    let reports = cast_sim::par::run_indexed(cast_sim::par::default_workers(), grid.len(), |i| {
        serve(cfg, grid[i].1, grid[i].2)
    });
    let mut cells = Vec::new();
    for ((label, _, rate), report) in grid.into_iter().zip(reports) {
        sweep.row(vec![
            Cell::Text(label.to_string()),
            Cell::Prec(rate, 2),
            Cell::Prec(report.migrations as f64, 0),
            Cell::Num(report.migrated_mb),
            Cell::Prec(report.datasets_lost as f64, 0),
            Cell::Prec(report.migration_retries as f64, 0),
            Cell::Prec(report.migration_rollbacks as f64, 0),
            Cell::Num(report.epochs.iter().map(|e| e.verify_mb).sum::<f64>()),
            Cell::Num(report.epochs.iter().map(|e| e.wasted_mb).sum::<f64>()),
            Cell::Prec(report.total_cost, 2),
        ]);
        cells.push((label, rate, report));
    }

    // Acceptance: copy→verify→retire never loses a dataset at any fault
    // rate, while fire-and-forget loses data once faults are near-certain.
    for (label, rate, report) in &cells {
        if *label == "copy-verify-retire" {
            assert_eq!(
                report.datasets_lost, 0,
                "safe protocol lost data at fault rate {rate}"
            );
        }
    }
    let max_rate = cfg
        .fault_rates
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let unsafe_at_max = cells
        .iter()
        .find(|(l, r, _)| *l == "unsafe" && *r == max_rate)
        .map(|(_, _, rep)| rep)
        .expect("unsafe cell at max rate");
    assert!(
        unsafe_at_max.datasets_lost > 0,
        "fire-and-forget must lose data at fault rate {max_rate}"
    );
    let safe_at_max = cells
        .iter()
        .find(|(l, r, _)| *l == "copy-verify-retire" && *r == max_rate)
        .map(|(_, _, rep)| rep)
        .expect("safe cell at max rate");
    assert!(
        safe_at_max.migration_retries > 0,
        "near-certain faults must force retries under copy-verify-retire"
    );
    // Fault-free runs pay nothing for the unsafe protocol and only
    // verification reads (no retries, no waste) for the safe one.
    for (label, rate, report) in &cells {
        if *rate == 0.0 {
            assert_eq!(report.datasets_lost, 0);
            assert_eq!(report.migration_rollbacks, 0);
            assert_eq!(report.migration_retries, 0);
            let wasted: f64 = report.epochs.iter().map(|e| e.wasted_mb).sum();
            assert_eq!(wasted, 0.0, "{label} wasted bandwidth without faults");
        }
    }

    // The storage-cost Pareto: equal two-loss tolerance, very different
    // raw-capacity bills.
    let rep3_cost = monthly_cold_cost(RedundancyScheme::TRIPLE);
    let mut pareto = TableWriter::new(
        "Cold-tier redundancy Pareto (10 TB logical on persHDD)",
        &["scheme", "raw x", "tolerates", "$/month", "vs rep(3)"],
    );
    let mut pareto_rows = Vec::new();
    for (label, scheme) in pareto_schemes() {
        let cost = monthly_cold_cost(scheme);
        let vs_rep3 = cost / rep3_cost - 1.0;
        pareto.row(vec![
            Cell::Text(label.to_string()),
            Cell::Prec(scheme.storage_factor(), 2),
            Cell::Prec(f64::from(scheme.fault_tolerance()), 0),
            Cell::Prec(cost, 2),
            Cell::Prec(vs_rep3 * 100.0, 1),
        ]);
        pareto_rows.push((label, scheme, cost, vs_rep3));
    }
    let ec_reduction = pareto_rows
        .iter()
        .find(|(_, s, _, _)| s.is_erasure_coded())
        .map(|(_, _, cost, _)| 1.0 - cost / rep3_cost)
        .expect("erasure-coded row");
    assert!(
        ec_reduction >= 0.40,
        "rs(4+2) must cut the cold-tier bill >= 40 % vs rep(3), got {ec_reduction:.3}"
    );

    let json = serde_json::json!({
        "stream_seed": online_drift::STREAM_SEED as i64,
        "horizon_secs": cfg.drift.horizon.secs(),
        "fault_rates": cfg.fault_rates,
        "sweep": cells
            .iter()
            .map(|(label, rate, r)| {
                serde_json::json!({
                    "protocol": label,
                    "fault_prob": rate,
                    "migrations": r.migrations,
                    "migrated_mb": r.migrated_mb,
                    "datasets_lost": r.datasets_lost,
                    "migration_retries": r.migration_retries,
                    "migration_rollbacks": r.migration_rollbacks,
                    "verify_mb": r.epochs.iter().map(|e| e.verify_mb).sum::<f64>(),
                    "wasted_mb": r.epochs.iter().map(|e| e.wasted_mb).sum::<f64>(),
                    "backoff_secs": r.epochs.iter().map(|e| e.backoff_secs).sum::<f64>(),
                    "total_cost": r.total_cost,
                    "jobs_completed": r.jobs_completed,
                })
            })
            .collect::<Vec<_>>(),
        "pareto": pareto_rows
            .iter()
            .map(|(label, scheme, cost, vs_rep3)| {
                serde_json::json!({
                    "scheme": label,
                    "storage_factor": scheme.storage_factor(),
                    "fault_tolerance": scheme.fault_tolerance(),
                    "monthly_cost": cost,
                    "vs_rep3": vs_rep3,
                })
            })
            .collect::<Vec<_>>(),
        "ec_reduction_vs_rep3": ec_reduction,
    });
    (sweep, pareto, json)
}

/// The two headline numbers the binary prints: datasets lost by the
/// unsafe protocol at the highest fault rate, and the erasure-coding
/// cost reduction against 3× replication.
pub fn headline(json: &serde_json::Value) -> (usize, f64) {
    let max_rate = json["fault_rates"]
        .as_array()
        .expect("rates")
        .iter()
        .filter_map(|v| v.as_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    let lost = json["sweep"]
        .as_array()
        .expect("sweep rows")
        .iter()
        .find(|r| r["protocol"] == "unsafe" && r["fault_prob"] == max_rate)
        .expect("unsafe row at max rate")["datasets_lost"]
        .as_f64()
        .expect("lost count") as usize;
    let reduction = json["ec_reduction_vs_rep3"].as_f64().expect("reduction");
    (lost, reduction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_safe_and_pareto_holds() {
        // `run()` itself asserts the acceptance criteria: zero loss under
        // copy→verify→retire at every rate, losses under unsafe at the
        // highest rate, and the >= 40 % erasure-coding cost reduction.
        let cfg = DurabilitySweepConfig::smoke();
        let (sweep, pareto, json) = run(&cfg);
        assert_eq!(sweep.len(), cfg.fault_rates.len() * 2);
        assert_eq!(pareto.len(), 3);
        let (lost, reduction) = headline(&json);
        assert!(lost > 0);
        assert!(reduction >= 0.40);
    }
}
