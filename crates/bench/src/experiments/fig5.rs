//! Fig. 5: why fine-grained cross-tier partitioning fails.
//!
//! A 6 GB Grep (24 map tasks, one wave on a 24-slot VM) runs with its
//! input split across tiers at HDFS-block granularity. Tasks reading the
//! slow tier dominate the wave: even 90 % of blocks on ephemeral SSD
//! barely improves on an all-persHDD placement — the case for CAST's
//! all-or-nothing, job-level placement (§3.2).

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_sim::config::SimConfig;
use cast_sim::placement::{JobPlacement, PlacementMap, SplitPlacement};
use cast_sim::Sim;
use cast_workload::apps::AppKind;
use cast_workload::job::JobId;
use cast_workload::synth;

use crate::format::{Cell, TableWriter};

/// Simulate the 6 GB Grep with `input` placement. Block volumes: one
/// 375 GB ephemeral volume, a 500 GB persSSD, and a minimal 100 GB persHDD
/// (the provisioning a tenant would buy for a small cold slice).
pub fn grep_runtime(input: SplitPlacement) -> f64 {
    let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(6.0));
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    *agg.get_mut(Tier::EphSsd) = DataSize::from_gb(375.0);
    *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(500.0);
    *agg.get_mut(Tier::PersHdd) = DataSize::from_gb(100.0);
    let mut cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg)
        .expect("valid capacities");
    // The paper schedules all 24 maps as a single wave.
    cfg.vm.map_slots = 24;
    let primary = input.primary().expect("Fig. 5 splits are non-empty");
    let mut placement = JobPlacement::all_on(primary);
    placement.input = input;
    // Isolate the map phase effect: no staging, intermediate on the
    // fastest available tier.
    placement.stage_in_from = None;
    placement.stage_out_to = None;
    placement.inter = Tier::EphSsd;
    placement.output = Tier::EphSsd;
    let mut placements = PlacementMap::new();
    placements.set(JobId(0), placement);
    Sim::builder(&cfg, &spec, &placements)
        .build()
        .and_then(|s| s.run())
        .expect("simulation")
        .makespan
        .secs()
}

/// Fig. 5(a): hybrid whole-tier configurations.
pub fn part_a() -> Vec<(&'static str, f64)> {
    let eph = grep_runtime(SplitPlacement::single(Tier::EphSsd));
    [
        ("ephSSD 100%", SplitPlacement::single(Tier::EphSsd)),
        ("persSSD 100%", SplitPlacement::single(Tier::PersSsd)),
        ("persHDD 100%", SplitPlacement::single(Tier::PersHdd)),
        (
            "ephSSD 50% persSSD 50%",
            SplitPlacement::split(Tier::EphSsd, 0.5, Tier::PersSsd).expect("half split"),
        ),
        (
            "ephSSD 50% persHDD 50%",
            SplitPlacement::split(Tier::EphSsd, 0.5, Tier::PersHdd).expect("half split"),
        ),
    ]
    .into_iter()
    .map(|(label, p)| (label, grep_runtime(p) / eph * 100.0))
    .collect()
}

/// Fig. 5(b): fraction of blocks on ephSSD vs persHDD.
pub fn part_b() -> Vec<(f64, f64)> {
    let eph = grep_runtime(SplitPlacement::single(Tier::EphSsd));
    [0.0, 0.3, 0.7, 0.9, 1.0]
        .into_iter()
        .map(|frac| {
            let p =
                SplitPlacement::split(Tier::EphSsd, frac, Tier::PersHdd).expect("grid in [0, 1]");
            (frac * 100.0, grep_runtime(p) / eph * 100.0)
        })
        .collect()
}

/// Reproduce Fig. 5 (both panels).
pub fn run() -> (TableWriter, TableWriter) {
    let mut a = TableWriter::new(
        "Fig. 5a: Grep runtime under hybrid configurations (normalised to ephSSD 100%)",
        &["Configuration", "Normalised runtime (%)"],
    );
    for (label, pct) in part_a() {
        a.row(vec![label.into(), Cell::Prec(pct, 0)]);
    }
    let mut b = TableWriter::new(
        "Fig. 5b: fine-grained partitioning, % of blocks on ephSSD (rest persHDD)",
        &["% data on ephSSD", "Normalised runtime (%)"],
    );
    for (frac, pct) in part_b() {
        b.row(vec![Cell::Prec(frac, 0), Cell::Prec(pct, 0)]);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_does_not_rescue_performance() {
        let b = part_b();
        let at = |frac: f64| {
            b.iter()
                .find(|(f, _)| (*f - frac).abs() < 1e-9)
                .expect("fraction present")
                .1
        };
        // All-ephSSD is the 100% baseline.
        assert!((at(100.0) - 100.0).abs() < 1e-6);
        // Even with 90% of blocks on the fast tier, the slow-tier
        // stragglers keep runtime far above the all-fast case (Fig. 5b).
        assert!(at(90.0) > 200.0, "90% fast: got {}%", at(90.0));
        // And a 50/50 hybrid is dominated by the slow tier (Fig. 5a).
        let a = part_a();
        let hybrid = a
            .iter()
            .find(|(l, _)| l.contains("persHDD 50%"))
            .expect("hybrid row")
            .1;
        let hdd_only = a
            .iter()
            .find(|(l, _)| *l == "persHDD 100%")
            .expect("hdd row")
            .1;
        assert!(
            hybrid > 0.4 * hdd_only,
            "50/50 should be slow-tier dominated: {hybrid}% vs {hdd_only}%"
        );
    }
}
