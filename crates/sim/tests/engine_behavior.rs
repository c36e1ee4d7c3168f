//! Behavioural tests for the simulation engine beyond the unit level:
//! contention scaling, staging accounting, jitter bounds, and failure
//! modes.

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_cloud::Catalog;
use cast_obs::{Collector, EventBody};
use cast_sim::config::{Concurrency, SimConfig};
use cast_sim::metrics::SimReport;
use cast_sim::placement::{JobPlacement, PlacementMap};
use cast_sim::{Sim, SimError};
use cast_workload::apps::AppKind;
use cast_workload::job::JobId;
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth;

fn simulate(
    spec: &WorkloadSpec,
    placements: &PlacementMap,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    Sim::builder(cfg, spec, placements).build()?.run()
}

fn cfg_with(nvm: usize, per_vm_gb: f64) -> SimConfig {
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    for t in [Tier::EphSsd, Tier::PersSsd, Tier::PersHdd] {
        *agg.get_mut(t) = DataSize::from_gb(per_vm_gb) * nvm as f64;
    }
    let mut c = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg)
        .expect("provisionable");
    c.jitter = 0.0;
    c
}

#[test]
fn io_bound_runtime_scales_inversely_with_bandwidth() {
    // Grep at 100 GB/VM vs 500 GB/VM persSSD: bandwidth ratio ~4.9.
    let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(40.0));
    let run = |per_vm: f64| {
        let cfg = cfg_with(2, per_vm);
        let placements = PlacementMap::uniform([JobId(0)], Tier::PersSsd);
        simulate(&spec, &placements, &cfg)
            .expect("sim")
            .makespan
            .secs()
    };
    let slow = run(100.0);
    let fast = run(500.0);
    let ratio = slow / fast;
    assert!(
        (3.0..6.0).contains(&ratio),
        "expected ~4.9x speedup, got {ratio:.2}"
    );
}

#[test]
fn staging_bytes_match_input_and_output() {
    // Ephemeral Grep: stage-in carries the input at ~objStore rate; the
    // tiny output upload is near-free.
    let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(30.0));
    let cfg = cfg_with(1, 500.0);
    let placements = PlacementMap::uniform([JobId(0)], Tier::EphSsd);
    let report = simulate(&spec, &placements, &cfg).expect("sim");
    let m = report.jobs[0];
    let expected_in = 30_000.0 / 265.0; // MB at objStore per-VM rate
    assert!(
        (m.stage_in.secs() - expected_in).abs() / expected_in < 0.25,
        "stage-in {} vs ~{expected_in}s",
        m.stage_in
    );
    assert!(m.stage_out.secs() < 0.1 * m.stage_in.secs());
}

#[test]
fn jitter_spreads_but_preserves_the_mean() {
    let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(50.0));
    let placements = PlacementMap::uniform([JobId(0)], Tier::PersSsd);
    let mut smooth = cfg_with(2, 400.0);
    smooth.jitter = 0.0;
    let mut skewed = cfg_with(2, 400.0);
    skewed.jitter = 0.10;
    let t0 = simulate(&spec, &placements, &smooth)
        .expect("sim")
        .makespan
        .secs();
    let t1 = simulate(&spec, &placements, &skewed)
        .expect("sim")
        .makespan
        .secs();
    // Skew redistributes split sizes: the makespan may move either way
    // (a light trailing wave can even finish sooner) but stays close to
    // the smooth run.
    assert!((t1 - t0).abs() / t0 < 0.15, "{t1} vs {t0}");
}

#[test]
fn parallel_mode_keeps_cluster_busy() {
    // Four small independent jobs: parallel execution must beat
    // sequential makespan when slots are plentiful (different volumes).
    let mut spec = synth::single_job(AppKind::Grep, DataSize::from_gb(8.0));
    for i in 1..4u32 {
        let mut j = spec.jobs[0];
        j.id = JobId(i);
        // Each on its own dataset.
        let ds = cast_workload::dataset::DatasetId(i);
        spec.datasets
            .push(cast_workload::dataset::Dataset::single_use(
                ds,
                DataSize::from_gb(8.0),
            ));
        j.dataset = ds;
        spec.jobs.push(j);
    }
    // Place jobs on different tiers so they do not share a bottleneck.
    let mut placements = PlacementMap::new();
    for (i, tier) in [Tier::PersSsd, Tier::PersHdd, Tier::PersSsd, Tier::PersHdd]
        .iter()
        .enumerate()
    {
        let mut p = JobPlacement::all_on(*tier);
        p.inter = *tier;
        placements.set(JobId(i as u32), p);
    }
    let mut seq = cfg_with(4, 500.0);
    seq.concurrency = Concurrency::Sequential;
    let mut par = cfg_with(4, 500.0);
    par.concurrency = Concurrency::Parallel;
    let t_seq = simulate(&spec, &placements, &seq)
        .expect("sim")
        .makespan
        .secs();
    let t_par = simulate(&spec, &placements, &par)
        .expect("sim")
        .makespan
        .secs();
    assert!(
        t_par < t_seq * 0.75,
        "parallel {t_par}s should beat sequential {t_seq}s"
    );
}

#[test]
fn objstore_cluster_ceiling_binds_at_scale() {
    // One VM sees the full 265 MB/s stream; 25 VMs share the bucket
    // ceiling (3.5 GB/s < 25×265).
    let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(200.0));
    let run = |nvm: usize| {
        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(100.0) * nvm as f64;
        let mut c = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), nvm, &agg)
            .expect("provisionable");
        c.jitter = 0.0;
        let placements = PlacementMap::uniform([JobId(0)], Tier::ObjStore);
        simulate(&spec, &placements, &c)
            .expect("sim")
            .makespan
            .secs()
    };
    let one = run(1);
    let twentyfive = run(25);
    let speedup = one / twentyfive;
    assert!(
        speedup < 16.0,
        "bucket ceiling must prevent 25x scaling: got {speedup:.1}x"
    );
    assert!(
        speedup > 6.0,
        "still substantial parallelism: {speedup:.1}x"
    );
}

#[test]
fn workflow_parallel_mode_runs_branches_concurrently() {
    let spec = synth::fig4_workflow();
    let mut cfg = cfg_with(4, 500.0);
    cfg.concurrency = Concurrency::Parallel;
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
    let report = simulate(&spec, &placements, &cfg).expect("sim");
    // PageRank (1) and Sort (2) are siblings: in parallel mode they must
    // overlap.
    let pr = report.job(JobId(1)).expect("simulated");
    let sort = report.job(JobId(2)).expect("simulated");
    let overlap =
        pr.started.secs() < sort.finished.secs() && sort.started.secs() < pr.finished.secs();
    assert!(overlap, "sibling branches should overlap in parallel mode");
}

#[test]
fn missing_capacity_is_reported_not_hung() {
    let spec = synth::single_job(AppKind::Sort, DataSize::from_gb(5.0));
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(100.0);
    let cfg = SimConfig::with_aggregate_capacity(Catalog::google_cloud(), 1, &agg)
        .expect("provisionable");
    let placements = PlacementMap::uniform([JobId(0)], Tier::EphSsd);
    let err = simulate(&spec, &placements, &cfg).unwrap_err();
    assert!(matches!(err, SimError::UnprovisionedTier { .. }), "{err}");
}

#[test]
fn empty_workload_completes_instantly() {
    let spec = cast_workload::spec::WorkloadSpec::empty();
    let cfg = cfg_with(1, 500.0);
    let report = simulate(&spec, &PlacementMap::new(), &cfg).expect("sim");
    assert!(report.jobs.is_empty());
    assert_eq!(report.makespan.secs(), 0.0);
}

#[test]
fn trace_accounts_every_task() {
    let spec = synth::single_job(AppKind::Sort, DataSize::from_gb(10.0));
    let cfg = cfg_with(2, 500.0);
    let placements = PlacementMap::uniform([JobId(0)], Tier::PersSsd);
    let col = Collector::recording();
    let report = Sim::builder(&cfg, &spec, &placements)
        .collector(col.clone())
        .build()
        .and_then(|s| s.run())
        .expect("sim");
    let events = col.events();
    let job = &spec.jobs[0];
    for (pool, tasks, slots) in [
        ("map", job.maps, cfg.map_slots()),
        ("reduce", job.reduces, cfg.reduce_slots()),
    ] {
        let edges: Vec<(f64, &str)> = events
            .iter()
            .filter_map(|e| match &e.body {
                EventBody::Task { slot, kind, .. } if slot == pool => Some((e.t, kind.as_str())),
                _ => None,
            })
            .collect();
        let started = edges.iter().filter(|&&(_, k)| k == "started").count();
        assert_eq!(started, tasks, "{pool} tasks started");
        // Every opening edge is closed by the end of the run, so busy
        // slot-seconds are Σ close times − Σ open times, whatever the
        // pairing.
        let (mut busy, mut level, mut peak) = (0.0, 0usize, 0usize);
        for &(t, kind) in &edges {
            if matches!(kind, "started" | "retried" | "speculated") {
                busy -= t;
                level += 1;
                peak = peak.max(level);
            } else {
                busy += t;
                level -= 1;
            }
        }
        assert_eq!(level, 0, "every {pool} task released its slot");
        // Busy time fits within the slot budget over the makespan.
        let util = busy / (slots as f64 * report.makespan.secs());
        assert!(util > 0.0 && util <= 1.0, "{pool} utilization {util}");
        // Peak concurrency never exceeds the slot pool.
        assert!(peak <= slots, "{pool} peak {peak} > {slots} slots");
    }
}
