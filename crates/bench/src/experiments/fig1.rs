//! Fig. 1: application performance and tenant utility per storage tier.
//!
//! One 16-vCPU worker, the four Table 2 applications on each of the four
//! services, with the paper's staging/scratch conventions. Reports the
//! runtime breakdown (input download / data processing / output upload)
//! and tenant utility normalised to ephSSD.

use cast_cloud::tier::Tier;
use cast_cloud::units::DataSize;
use cast_workload::apps::AppKind;

use crate::format::{Cell, TableWriter};
use crate::harness::{fig1_cluster, SingleRun};

/// The per-application input sizes (GB) used by the study.
pub const INPUTS: [(AppKind, f64); 4] = [
    (AppKind::Sort, 100.0),
    (AppKind::Join, 120.0),
    (AppKind::Grep, 300.0),
    (AppKind::KMeans, 50.0),
];

/// Run the 16 (app × tier) cells.
pub fn runs() -> Vec<(AppKind, Tier, SingleRun)> {
    let cells: Vec<(AppKind, f64, Tier)> = INPUTS
        .iter()
        .flat_map(|&(app, gb)| Tier::ALL.map(move |t| (app, gb, t)))
        .collect();
    cells
        .into_iter()
        .map(|(app, gb, tier)| (app, tier, fig1_cluster(app, DataSize::from_gb(gb), tier, 1)))
        .collect()
}

/// Reproduce Fig. 1.
pub fn run() -> TableWriter {
    let results = runs();
    let mut t = TableWriter::new(
        "Fig. 1: application performance and tenant utility per tier (1 worker VM)",
        &[
            "App",
            "Tier",
            "Download (s)",
            "Processing (s)",
            "Upload (s)",
            "Total (s)",
            "Cost ($)",
            "Utility (norm. to ephSSD)",
        ],
    );
    for (app, _) in INPUTS {
        let eph = results
            .iter()
            .find(|(a, tier, _)| *a == app && *tier == Tier::EphSsd)
            .expect("ephSSD run present")
            .2
            .utility;
        for tier in Tier::ALL {
            let (_, _, r) = results
                .iter()
                .find(|(a, t2, _)| *a == app && *t2 == tier)
                .expect("cell present");
            t.row(vec![
                app.name().into(),
                tier.name().into(),
                Cell::Prec(r.metrics.stage_in.secs(), 0),
                Cell::Prec(r.metrics.processing().secs(), 0),
                Cell::Prec(r.metrics.stage_out.secs(), 0),
                Cell::Prec(r.runtime.secs(), 0),
                Cell::Prec(r.cost, 2),
                Cell::Prec(r.utility / eph, 2),
            ]);
        }
    }
    t
}

/// The best-utility tier per application (for EXPERIMENTS.md shape checks).
pub fn winners() -> Vec<(AppKind, Tier)> {
    let results = runs();
    INPUTS
        .iter()
        .map(|&(app, _)| {
            let best = results
                .iter()
                .filter(|(a, _, _)| *a == app)
                .max_by(|x, y| x.2.utility.partial_cmp(&y.2.utility).expect("finite"))
                .expect("nonempty");
            (app, best.1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected::FIG1_BEST_UTILITY;

    #[test]
    #[ignore = "slow: full Fig. 1 sweep; run with --ignored"]
    fn winners_match_paper() {
        let winners = winners();
        for ((app, tier), (want_app, want_tier)) in winners.iter().zip(FIG1_BEST_UTILITY) {
            assert_eq!(app.name(), want_app);
            assert_eq!(tier.name(), want_tier, "{want_app}");
        }
    }
}
