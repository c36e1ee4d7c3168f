//! Online serving under workload drift: static CAST vs periodic
//! replanning vs replanning with hysteresis.
//!
//! Beyond the paper: CAST solves offline for a known workload, but a
//! production cluster sees *arrivals* whose mix drifts. This experiment
//! serves the same seeded, drifting arrival stream under the three
//! [`cast_runtime::ReplanPolicy`] variants (plus a deadline-admission
//! variant of hysteresis) and compares tenancy cost, migration volume
//! and deadline misses. The reproduction targets:
//!
//! * **periodic beats static on tenancy cost** — a plan frozen at the
//!   first epoch rots as sizes grow and the app mix shifts;
//! * **hysteresis migrates strictly fewer bytes than naive replanning**
//!   — vetoing marginal wins suppresses plan thrash while keeping most
//!   of the cost advantage over static serving.
//!
//! Everything is a pure function of the seeds below; the produced table
//! and JSON are byte-identical across runs and machines.

use cast_cloud::units::Duration;
use cast_obs::Observe;
use cast_runtime::{AdmissionPolicy, OnlineRuntime, ReplanPolicy, RuntimeConfig};
use cast_solver::AnnealConfig;
use cast_workload::{ArrivalConfig, ArrivalProcess, ArrivalStream, DriftConfig};

use crate::format::{Cell, TableWriter};

/// Stream seed (the arrival process) and solver seed (the annealer) are
/// fixed so every policy serves the identical stream.
pub const STREAM_SEED: u64 = 0xCA57_D21F;
const SOLVER_SEED: u64 = 0xCA57_0711;

/// One run of the experiment: scaled down for `--smoke` (CI) runs.
#[derive(Debug, Clone, Copy)]
pub struct OnlineDriftConfig {
    /// Stream length.
    pub horizon: Duration,
    /// Mean arrival rate.
    pub jobs_per_hour: f64,
    /// Largest Table 4 map-count bin synthesised (caps job size).
    pub max_bin: usize,
    /// Cold-start annealing iterations (warm replans run the fixed
    /// 3000-move schedule of [`cast_solver::Annealer::resume_from`]).
    pub iterations: usize,
    /// Independent annealing restarts per solve.
    pub restarts: usize,
}

impl OnlineDriftConfig {
    /// The full experiment: a 4-hour drifting stream.
    pub fn full() -> OnlineDriftConfig {
        OnlineDriftConfig {
            horizon: Duration::from_hours(4.0),
            jobs_per_hour: 30.0,
            max_bin: 5,
            iterations: 4_000,
            restarts: 2,
        }
    }

    /// CI-sized: a two-hour stream, small jobs, short solves. Two
    /// restarts, not one — with content-derived solve seeds a single
    /// unlucky chain can serve the whole smoke stream without ever
    /// moving an existing dataset, which collapses the migration
    /// headline to a vacuous `0 < 0`.
    pub fn smoke() -> OnlineDriftConfig {
        OnlineDriftConfig {
            horizon: Duration::from_hours(2.0),
            jobs_per_hour: 24.0,
            max_bin: 3,
            iterations: 800,
            restarts: 2,
        }
    }
}

/// The drifting arrival stream every policy serves.
pub fn stream(cfg: &OnlineDriftConfig) -> ArrivalStream {
    cast_workload::arrival::generate(&ArrivalConfig {
        seed: STREAM_SEED,
        horizon: cfg.horizon,
        process: ArrivalProcess::Bursty {
            jobs_per_hour: cfg.jobs_per_hour,
            burst_factor: 2.0,
            period: Duration::from_mins(60.0),
            duty: 0.4,
        },
        drift: DriftConfig {
            app_shift: 0.6,
            size_growth: 0.8,
        },
        workflow_fraction: 0.15,
        max_bin: cfg.max_bin,
    })
    .expect("arrival synthesis")
}

/// The policy grid: the three replanning policies under open admission,
/// plus hysteresis with deadline admission (the CAST++ serving mode).
pub fn policies() -> Vec<(&'static str, ReplanPolicy, AdmissionPolicy)> {
    vec![
        ("static", ReplanPolicy::Static, AdmissionPolicy::AcceptAll),
        (
            "periodic",
            ReplanPolicy::Periodic,
            AdmissionPolicy::AcceptAll,
        ),
        (
            "hysteresis",
            ReplanPolicy::Hysteresis { min_gain: 0.2 },
            AdmissionPolicy::AcceptAll,
        ),
        (
            "hysteresis+admission",
            ReplanPolicy::Hysteresis { min_gain: 0.2 },
            AdmissionPolicy::Deadline { slack: 1.0 },
        ),
    ]
}

/// Serve the stream under one policy.
pub fn serve(
    cfg: &OnlineDriftConfig,
    policy: ReplanPolicy,
    admission: AdmissionPolicy,
) -> cast_runtime::OnlineReport {
    let estimator = crate::paper_estimator();
    let anneal = AnnealConfig {
        iterations: cfg.iterations,
        restarts: cfg.restarts,
        seed: SOLVER_SEED,
    };
    let rt_cfg = RuntimeConfig {
        epoch: Duration::from_mins(30.0),
        policy,
        admission,
        seed: SOLVER_SEED,
        protocol: cast_runtime::MigrationProtocol::Unsafe,
        migration_fault_prob: 0.0,
        skip: cast_runtime::SkipPolicy::default(),
    };
    OnlineRuntime::new(&estimator, anneal, rt_cfg)
        .observe(crate::observer())
        .run(&stream(cfg))
        .expect("online run")
}

/// Run the whole grid and tabulate.
pub fn run(cfg: &OnlineDriftConfig) -> (TableWriter, serde_json::Value) {
    let mut table = TableWriter::new(
        "Online serving under drift (same stream, per policy)",
        &[
            "policy",
            "epochs",
            "replans",
            "adoptions",
            "migrations",
            "migrated MB",
            "cost $",
            "misses",
            "rejected",
            "jobs",
        ],
    );
    let mut reports = Vec::new();
    for (label, policy, admission) in policies() {
        let report = serve(cfg, policy, admission);
        table.row(vec![
            Cell::Text(label.to_string()),
            Cell::Prec(report.epochs.len() as f64, 0),
            Cell::Prec(
                report.epochs.iter().filter(|e| e.replanned).count() as f64,
                0,
            ),
            Cell::Prec(report.adoptions() as f64, 0),
            Cell::Prec(
                report.epochs.iter().map(|e| e.migrations).sum::<usize>() as f64,
                0,
            ),
            Cell::Num(report.migrated_mb),
            Cell::Prec(report.total_cost, 2),
            Cell::Prec(report.deadline_misses as f64, 0),
            Cell::Prec(report.rejected as f64, 0),
            Cell::Prec(report.jobs_completed as f64, 0),
        ]);
        reports.push((label, report));
    }
    let json = serde_json::json!({
        "stream_seed": STREAM_SEED as i64,
        "horizon_secs": cfg.horizon.secs(),
        "policies": reports
            .iter()
            .map(|(label, r)| {
                let mut v = serde_json::to_value(r).expect("report serializes");
                if let serde_json::Value::Object(map) = &mut v {
                    map.insert(
                        "label".to_string(),
                        serde_json::Value::String(label.to_string()),
                    );
                }
                v
            })
            .collect::<Vec<_>>(),
    });
    (table, json)
}

/// The headline comparisons the experiment must reproduce; returns
/// `(static_cost, periodic_cost, periodic_mb, hysteresis_mb,
/// periodic_adoptions, hysteresis_adoptions)`.
///
/// Adoption counts are part of the headline because content-derived
/// solve seeds changed what hysteresis saves: an un-drifted epoch now
/// re-solves to the *identical* plan (same inputs, same seed, same
/// trajectory), so periodic replanning no longer thrashes on anneal
/// noise and its vetoable migrations can be zero-volume. Hysteresis
/// must still migrate no *more* and adopt strictly *fewer* plans.
pub fn headline(json: &serde_json::Value) -> (f64, f64, f64, f64, usize, usize) {
    let policy = |label: &str| {
        json["policies"]
            .as_array()
            .expect("policy array")
            .iter()
            .find(|p| p["label"] == label)
            .unwrap_or_else(|| panic!("policy {label}"))
    };
    let get = |label: &str, field: &str| policy(label)[field].as_f64().expect("numeric field");
    let adoptions = |label: &str| {
        policy(label)["epochs"]
            .as_array()
            .expect("epoch array")
            .iter()
            .filter(|e| e["adopted"].as_bool().expect("adopted flag"))
            .count()
    };
    (
        get("static", "total_cost"),
        get("periodic", "total_cost"),
        get("periodic", "migrated_mb"),
        get("hysteresis", "migrated_mb"),
        adoptions("periodic"),
        adoptions("hysteresis"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_reproduces_the_headlines() {
        let cfg = OnlineDriftConfig::smoke();
        let (_, json) = run(&cfg);
        let (static_cost, periodic_cost, periodic_mb, hysteresis_mb, periodic_adopt, hyst_adopt) =
            headline(&json);
        assert!(
            periodic_cost < static_cost,
            "periodic replanning must beat static serving on tenancy cost \
             ({periodic_cost:.2} vs {static_cost:.2})"
        );
        assert!(
            hysteresis_mb <= periodic_mb,
            "hysteresis must never migrate more bytes than naive \
             replanning ({hysteresis_mb:.0} vs {periodic_mb:.0} MB)"
        );
        assert!(
            hyst_adopt < periodic_adopt,
            "hysteresis must veto at least one marginal adoption \
             ({hyst_adopt} vs {periodic_adopt})"
        );
    }
}
