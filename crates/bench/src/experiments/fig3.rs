//! Fig. 3: tenant utility under data-reuse patterns.
//!
//! Each application re-accesses its dataset 7 times over one hour
//! (`reuse-lifetime (1 hr)`) or one week (`reuse-lifetime (1 week)`);
//! storage rent accrues over the whole lifetime while ephemeral staging is
//! paid once (data stays resident between accesses). Utility is normalised
//! to ephSSD within each pattern.

use cast_cloud::tier::Tier;
use cast_cloud::units::DataSize;
use cast_workload::apps::AppKind;
use cast_workload::reuse::ReusePattern;

use crate::experiments::fig1::INPUTS;
use crate::format::{Cell, TableWriter};
use crate::harness::single_run;

/// The three studied patterns, with the paper's labels.
pub fn patterns() -> [(&'static str, ReusePattern); 3] {
    [
        ("no reuse", ReusePattern::none()),
        ("reuse-lifetime (1 hr)", ReusePattern::short_term()),
        ("reuse-lifetime (1 week)", ReusePattern::long_term()),
    ]
}

/// Raw utility for every (app, tier, pattern) cell.
pub fn cells() -> Vec<(AppKind, Tier, &'static str, f64)> {
    let combos: Vec<(AppKind, f64, Tier, &'static str, ReusePattern)> = INPUTS
        .iter()
        .flat_map(|&(app, gb)| {
            Tier::ALL.into_iter().flat_map(move |tier| {
                patterns()
                    .into_iter()
                    .map(move |(label, p)| (app, gb, tier, label, p))
            })
        })
        .collect();
    combos
        .into_iter()
        .map(|(app, gb, tier, label, pattern)| {
            let r = single_run(app, DataSize::from_gb(gb), tier, 1, pattern);
            (app, tier, label, r.utility)
        })
        .collect()
}

/// Reproduce Fig. 3.
pub fn run() -> TableWriter {
    let results = cells();
    let mut t = TableWriter::new(
        "Fig. 3: tenant utility under data reuse patterns (normalised to ephSSD)",
        &["App", "Tier", "no reuse", "reuse (1 hr)", "reuse (1 week)"],
    );
    let get = |app: AppKind, tier: Tier, label: &str| {
        results
            .iter()
            .find(|(a, t2, l, _)| *a == app && *t2 == tier && *l == label)
            .expect("cell present")
            .3
    };
    for (app, _) in INPUTS {
        for tier in Tier::ALL {
            let mut row = vec![app.name().into(), tier.name().into()];
            for (label, _) in patterns() {
                let eph = get(app, Tier::EphSsd, label);
                row.push(Cell::Prec(get(app, tier, label) / eph, 2));
            }
            t.row(row);
        }
    }
    t
}

/// Best tier per (app, pattern) for shape checks.
pub fn winners() -> Vec<(AppKind, &'static str, Tier)> {
    let results = cells();
    let mut out = Vec::new();
    for (app, _) in INPUTS {
        for (label, _) in patterns() {
            let best = results
                .iter()
                .filter(|(a, _, l, _)| *a == app && *l == label)
                .max_by(|x, y| x.3.partial_cmp(&y.3).expect("finite"))
                .expect("nonempty");
            out.push((app, label, best.1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "slow: 48-cell sweep; run with --ignored"]
    fn reuse_shifts_choices_like_the_paper() {
        let winners = winners();
        let find = |app: AppKind, label: &str| {
            winners
                .iter()
                .find(|(a, l, _)| *a == app && *l == label)
                .expect("present")
                .2
        };
        // Short-term reuse pulls the I/O apps onto ephSSD (download
        // amortised over 7 accesses in an hour).
        assert_eq!(find(AppKind::Join, "reuse-lifetime (1 hr)"), Tier::EphSsd);
        assert_eq!(find(AppKind::Grep, "reuse-lifetime (1 hr)"), Tier::EphSsd);
        // Week-long retention makes the cheap object store win for Sort.
        assert_eq!(
            find(AppKind::Sort, "reuse-lifetime (1 week)"),
            Tier::ObjStore
        );
        // CPU-bound KMeans sticks with persHDD regardless.
        for (label, _) in patterns() {
            assert_eq!(find(AppKind::KMeans, label), Tier::PersHdd, "{label}");
        }
    }
}
