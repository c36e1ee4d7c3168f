//! Shared experiment machinery.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use cast_cloud::cost::CostModel;
use cast_cloud::tier::Tier;
use cast_cloud::units::{DataSize, Duration};
use cast_cloud::Catalog;
use cast_core::framework::{Cast, CastBuilder};
use cast_estimator::mrcute::ClusterSpec;
use cast_estimator::profiler::{profile_all, ProfilerConfig};
use cast_estimator::{Estimator, ModelMatrix};
use cast_obs::Observe;
use cast_sim::config::SimConfig;
use cast_sim::metrics::JobMetrics;
use cast_sim::placement::PlacementMap;
use cast_sim::Sim;
use cast_solver::objective::provision_round;
use cast_solver::TieringPlan;
use cast_workload::apps::AppKind;
use cast_workload::profile::ProfileSet;
use cast_workload::reuse::ReusePattern;
use cast_workload::synth;

/// Directory where experiment outputs are written. The env lookup and
/// `create_dir_all` run once per process; every later call (each table
/// row saved, each experiment section) is a cached clone.
pub fn results_dir() -> PathBuf {
    static RESULTS_DIR: OnceLock<PathBuf> = OnceLock::new();
    RESULTS_DIR
        .get_or_init(|| {
            let dir = std::env::var("CAST_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
            let path = PathBuf::from(dir);
            fs::create_dir_all(&path).expect("create results directory");
            path
        })
        .clone()
}

/// Write a JSON value under `results/<name>.json`.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[saved {}]", path.display());
}

/// The profiled estimator for the paper's 400-core cluster. The profiling
/// campaign (~120 calibration simulations) is cached on disk under
/// `results/model_matrix.json` so repeated experiment binaries start fast.
pub fn paper_estimator() -> Estimator {
    let catalog = Catalog::google_cloud();
    let profiles = ProfileSet::defaults();
    let cache = results_dir().join("model_matrix.json");
    let matrix: ModelMatrix = match fs::read_to_string(&cache)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
    {
        Some(m) => m,
        None => {
            eprintln!("[profiling applications offline — cached after first run]");
            let m = profile_all(&catalog, &profiles, &ProfilerConfig::default())
                .expect("profiling campaign");
            if let Ok(s) = serde_json::to_string(&m) {
                let _ = fs::write(&cache, s);
            }
            m
        }
    };
    Estimator {
        matrix,
        catalog,
        cluster: ClusterSpec::paper(),
        profiles,
    }
}

/// The process-wide observability collector shared by every experiment.
///
/// Defaults to the no-op collector (zero overhead); an experiment binary
/// running with `--trace-out` calls [`install_observer`] with a recording
/// collector *before* any experiment starts. Everything built through
/// [`paper_framework`] (and the fault sweep's direct simulations) records
/// into it.
pub fn observer() -> cast_obs::Collector {
    observer_cell()
        .get_or_init(cast_obs::Collector::noop)
        .clone()
}

/// Install `collector` as the process-wide observer. Returns `false` if an
/// observer (including the lazily-initialised no-op) was already in place,
/// in which case the call has no effect.
pub fn install_observer(collector: cast_obs::Collector) -> bool {
    observer_cell().set(collector).is_ok()
}

fn observer_cell() -> &'static OnceLock<cast_obs::Collector> {
    static OBSERVER: OnceLock<cast_obs::Collector> = OnceLock::new();
    &OBSERVER
}

/// If the process-wide observer is recording, write its trace as NDJSON to
/// `results/<stem>.trace.ndjson` and its metrics snapshot to
/// `results/<stem>.metrics.json`. No-op (and no files) otherwise.
pub fn dump_observations(stem: &str) {
    let col = observer();
    if !col.enabled() {
        return;
    }
    let trace_path = results_dir().join(format!("{stem}.trace.ndjson"));
    fs::write(&trace_path, cast_obs::to_ndjson(&col.events()))
        .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
    let metrics_path = results_dir().join(format!("{stem}.metrics.json"));
    let snapshot =
        serde_json::to_string_pretty(&col.snapshot()).expect("metrics snapshot serializes");
    fs::write(&metrics_path, snapshot)
        .unwrap_or_else(|e| panic!("write {}: {e}", metrics_path.display()));
    eprintln!(
        "[trace: {} ({} events); metrics: {}]",
        trace_path.display(),
        col.event_count(),
        metrics_path.display()
    );
}

/// Parse a `--trace-out [STEM]` flag from `args`; when present, install a
/// recording observer and return the stem (defaulting to `default_stem`)
/// for a later [`dump_observations`] call. Must run before any experiment
/// touches [`observer`].
pub fn trace_out_arg(args: &[String], default_stem: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == "--trace-out")?;
    let stem = match args.get(pos + 1) {
        Some(v) if !v.starts_with('-') => v.clone(),
        _ => default_stem.to_string(),
    };
    if !install_observer(cast_obs::Collector::recording()) {
        eprintln!("[--trace-out ignored: observer already initialised]");
        return None;
    }
    Some(stem)
}

/// One experiment binary's I/O surface: flag parsing, the shared results
/// directory, JSON persistence and the `--trace-out` lifecycle, unified
/// so every binary (`all_experiments`, `fault_sweep`, `online_drift`, …)
/// resolves paths and handles observability identically.
///
/// Construct it *first* in `main` — [`ExperimentIo::from_args`] installs
/// the recording observer when `--trace-out` is present, which must
/// happen before any experiment touches [`observer`]. Call
/// [`ExperimentIo::finish`] last to flush the recorded trace.
pub struct ExperimentIo {
    args: Vec<String>,
    trace_stem: Option<String>,
}

impl ExperimentIo {
    /// Parse the process arguments; `default_stem` names the trace files
    /// when `--trace-out` is passed without a value.
    pub fn from_args(default_stem: &str) -> ExperimentIo {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let trace_stem = trace_out_arg(&args, default_stem);
        ExperimentIo { args, trace_stem }
    }

    /// Whether a bare flag (e.g. `--smoke`) was passed.
    pub fn flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The shared results directory (see [`results_dir`]).
    pub fn results_dir(&self) -> PathBuf {
        results_dir()
    }

    /// Persist a JSON result under `results/<name>.json`.
    pub fn save_json(&self, name: &str, value: &serde_json::Value) {
        save_json(name, value);
    }

    /// Flush the recorded trace and metrics, when `--trace-out` was
    /// given; no-op otherwise.
    pub fn finish(&self) {
        if let Some(stem) = &self.trace_stem {
            dump_observations(stem);
        }
    }
}

/// The full framework bound to the paper cluster, recording into the
/// process-wide [`observer`].
pub fn paper_framework() -> Cast {
    CastBuilder::default()
        .observe(observer())
        .build_with_estimator(paper_estimator())
}

/// Outcome of one single-application run (the Fig. 1 / Fig. 3 unit).
#[derive(Debug, Clone, Copy)]
pub struct SingleRun {
    /// Per-phase metrics of the job.
    pub metrics: JobMetrics,
    /// Total runtime (staging included).
    pub runtime: Duration,
    /// Tenant utility of the run.
    pub utility: f64,
    /// Deployment cost in dollars.
    pub cost: f64,
}

/// The Fig. 1 experimental unit: one application, one tier, a cluster of
/// `nvm` 16-vCPU workers, capacities provisioned for exactly this job
/// (with the paper's scratch/backing conventions).
pub fn fig1_cluster(app: AppKind, input: DataSize, tier: Tier, nvm: usize) -> SingleRun {
    single_run(app, input, tier, nvm, ReusePattern::none())
}

/// Like [`fig1_cluster`] with a data-reuse pattern: the job re-runs once
/// per access (staging amortised for persistent-resident data) and storage
/// rent accrues over the reuse lifetime (the Fig. 3 methodology).
pub fn single_run(
    app: AppKind,
    input: DataSize,
    tier: Tier,
    nvm: usize,
    reuse: ReusePattern,
) -> SingleRun {
    let spec = synth::single_job_with_reuse(app, input, reuse);
    let catalog = Catalog::google_cloud();
    let plan = TieringPlan::uniform(&spec, tier);
    let raw = plan.capacities(&spec, false).expect("plan covers the job");
    // Round to provisionable volumes for an nvm-wide cluster.
    let est_for_round = Estimator {
        matrix: ModelMatrix::new(),
        catalog: catalog.clone(),
        cluster: ClusterSpec {
            nvm,
            map_slots: 16,
            reduce_slots: 8,
            task_startup_secs: 1.5,
        },
        profiles: spec.profiles.clone(),
    };
    let mut capacities = provision_round(&est_for_round, &raw);
    // The paper's single-application studies provision standard volumes
    // rather than byte-exact ones: a 500 GB block volume per VM for the
    // primary tier (Table 1's reference row) and a 100 GB persSSD scratch
    // per VM for objStore intermediates ("we used a 100 GB persSSD as
    // intermediate data store", Fig. 1 caption).
    if tier.is_block() && tier != Tier::EphSsd {
        let floor = DataSize::from_gb(500.0) * nvm as f64;
        *capacities.get_mut(tier) = capacities.get(tier).max(floor);
    }
    if tier == Tier::ObjStore {
        // Scratch persSSD behind the object store, sized at twice the
        // job's intermediate footprint (spill + merge copies), floored at
        // the paper's Fig. 1 convention of 100 GB per VM.
        let inter = spec.jobs[0].inter(spec.profiles.get(app));
        let scratch = (inter * 2.0).max(DataSize::from_gb(100.0) * nvm as f64);
        *capacities.get_mut(Tier::PersSsd) = capacities.get(Tier::PersSsd).max(scratch);
    }
    let cfg = SimConfig::with_aggregate_capacity(catalog.clone(), nvm, &capacities)
        .expect("provisionable capacities");
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), tier);
    let first = Sim::builder(&cfg, &spec, &placements)
        .build()
        .and_then(|s| s.run())
        .expect("simulation");
    let first_m = first.jobs[0];

    // Re-accesses: data already resident on its tier, so persistent tiers
    // and the object store skip nothing (they never staged), while the
    // ephemeral tier skips the input download (the VMs and data are kept
    // alive between accesses within the reuse lifetime).
    let rerun_time = if reuse.accesses > 1 {
        let mut p2 = placements.clone();
        if tier == Tier::EphSsd {
            let mut placement = p2.get(spec.jobs[0].id).unwrap().clone();
            placement.stage_in_from = None;
            p2.set(spec.jobs[0].id, placement);
        }
        let rerun = Sim::builder(&cfg, &spec, &p2)
            .build()
            .and_then(|s| s.run())
            .expect("re-access simulation");
        rerun.makespan
    } else {
        Duration::ZERO
    };

    let accesses = reuse.accesses.max(1);
    let compute_time = first.makespan + rerun_time * (accesses - 1) as f64;
    // Storage is rented for at least the whole reuse lifetime; compute is
    // paid only while jobs run — EXCEPT on ephemeral SSD, where the data
    // only survives while its VMs do (§3.2): keeping a dataset hot on
    // ephSSD between re-accesses means renting the fleet for the whole
    // lifetime.
    let rent_time = compute_time.max(reuse.lifetime);
    let cost_model = CostModel::new(&catalog, nvm);
    // Storage billing: performance-sized volumes are paid while jobs run;
    // between accesses the tenant keeps only the dataset itself on its
    // tier (detaching scratch volumes and shrinking to dataset-sized
    // storage — snapshots bill similarly), so idle rent accrues on the
    // dataset bytes alone. Ephemeral placements, by contrast, must keep
    // the whole fleet alive to retain data (§3.2), charged below.
    let compute_rent: cast_cloud::units::Money = cost_model
        .storage_cost(&capacities, compute_time)
        .iter()
        .map(|(_, &m)| m)
        .sum();
    let idle = (rent_time - compute_time).max(cast_cloud::units::Duration::ZERO);
    let mut dataset_caps = cast_cloud::tier::PerTier::from_fn(|_| DataSize::ZERO);
    *dataset_caps.get_mut(tier) = input;
    let idle_rent: cast_cloud::units::Money = if reuse.accesses > 1 && !idle.is_zero() {
        cost_model
            .storage_cost(&dataset_caps, idle)
            .iter()
            .map(|(_, &m)| m)
            .sum()
    } else {
        cast_cloud::units::Money::ZERO
    };
    let storage = compute_rent + idle_rent;
    let vm_time = if tier == Tier::EphSsd {
        rent_time
    } else {
        compute_time
    };
    let vm = cost_model.vm_cost(vm_time);
    let total = vm + storage;
    let mean_runtime = compute_time / accesses as f64;
    let utility = if mean_runtime.mins() > 0.0 && total.dollars() > 0.0 {
        (1.0 / mean_runtime.mins()) / total.dollars()
    } else {
        0.0
    };
    SingleRun {
        metrics: first_m,
        runtime: first.makespan,
        utility,
        cost: total.dollars(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_unit_runs() {
        let r = fig1_cluster(AppKind::Grep, DataSize::from_gb(30.0), Tier::PersSsd, 1);
        assert!(r.runtime.secs() > 0.0);
        assert!(r.utility > 0.0);
        assert!(r.cost > 0.0);
    }

    #[test]
    fn reuse_changes_utility() {
        let none = single_run(
            AppKind::Grep,
            DataSize::from_gb(30.0),
            Tier::EphSsd,
            1,
            ReusePattern::none(),
        );
        let short = single_run(
            AppKind::Grep,
            DataSize::from_gb(30.0),
            Tier::EphSsd,
            1,
            ReusePattern::short_term(),
        );
        let long = single_run(
            AppKind::Grep,
            DataSize::from_gb(30.0),
            Tier::EphSsd,
            1,
            ReusePattern::long_term(),
        );
        // Week-long retention on ephemeral SSD rents the fleet for a week
        // — ruinous next to an hour of amortised re-accesses.
        assert!(long.utility < short.utility);
        assert!(none.utility > 0.0 && short.utility > 0.0 && long.utility > 0.0);
    }
}
