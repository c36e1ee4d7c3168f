//! Snapshot of the public prelude surface.
//!
//! The prelude is the API contract most users see; this test pins its
//! item names so additions and removals are deliberate, reviewed diffs
//! of the sorted list below rather than silent drift.

#[allow(unused_imports)]
use cast::prelude::*;

/// The prelude source itself, parsed rather than reflected: Rust has no
/// runtime surface enumeration, and the re-export list *is* the surface.
const PRELUDE_SRC: &str = include_str!("../crates/core/src/prelude.rs");

/// Every public item the prelude exports, sorted.
const EXPECTED: &[&str] = &[
    "AdmissionPolicy",
    "AnnealConfig",
    "AppKind",
    "ArrivalConfig",
    "ArrivalProcess",
    "ArrivalStream",
    "Assignment",
    "Bandwidth",
    "Cast",
    "CastBuilder",
    "CastError",
    "Catalog",
    "Collector",
    "DataSize",
    "DegradationWindow",
    "DeployOutcome",
    "DeploymentReport",
    "DriftConfig",
    "Duration",
    "EngineSnapshot",
    "Estimator",
    "FaultPlan",
    "Job",
    "JobId",
    "MetricsSnapshot",
    "ModelMatrix",
    "Money",
    "Observe",
    "OnlineReport",
    "OnlineRuntime",
    "PlanStrategy",
    "Planned",
    "ReplanPolicy",
    "RunState",
    "RuntimeConfig",
    "Sim",
    "SimBuilder",
    "Tier",
    "TieringPlan",
    "VmCrash",
    "WorkloadSpec",
];

/// Item names re-exported by `pub use` statements in `src`, sorted and
/// deduplicated.
fn exported_names(src: &str) -> Vec<String> {
    let flat: String = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join(" ");
    let mut names = std::collections::BTreeSet::new();
    for stmt in flat.split("pub use ").skip(1) {
        let stmt = stmt.split(';').next().expect("terminated use statement");
        if let Some(open) = stmt.find('{') {
            let inner = &stmt[open + 1..stmt.rfind('}').expect("closed brace")];
            for item in inner.split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    names.insert(item.to_string());
                }
            }
        } else {
            let item = stmt.trim().rsplit("::").next().expect("path segment");
            names.insert(item.trim().to_string());
        }
    }
    names.into_iter().collect()
}

#[test]
fn prelude_surface_matches_snapshot() {
    let actual = exported_names(PRELUDE_SRC);
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert!(
        expected.windows(2).all(|w| w[0] < w[1]),
        "EXPECTED must stay sorted and deduplicated"
    );
    assert_eq!(
        actual, expected,
        "prelude surface changed: update tests/api_surface.rs deliberately"
    );
}
