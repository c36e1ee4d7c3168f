//! Fig. 8: accuracy of the capacity-scaling regression.
//!
//! The 16-job / 2 TB workload runs on the 400-core cluster while the
//! per-VM persSSD capacity sweeps 100→500 GB. For each point we compare
//! the REG(·) prediction (spline-interpolated Eq. 1) with the simulated
//! runtime. The paper reports an average error of 7.9 %.

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_estimator::{Estimator, PredictionError};
use cast_sim::config::SimConfig;
use cast_sim::placement::PlacementMap;
use cast_sim::Sim;
use cast_workload::spec::WorkloadSpec;
use cast_workload::synth;

use crate::format::{Cell, TableWriter};
use crate::harness::paper_estimator;

/// Per-VM persSSD capacities swept (GB), as in the figure's x-axis.
pub const CAPACITIES: [f64; 5] = [100.0, 200.0, 300.0, 400.0, 500.0];

/// Predicted total runtime (minutes) of the whole workload at a per-VM
/// persSSD capacity.
pub fn predict(estimator: &Estimator, spec: &WorkloadSpec, per_vm_gb: f64) -> f64 {
    let total = DataSize::from_gb(per_vm_gb) * estimator.cluster.nvm as f64;
    spec.jobs
        .iter()
        .map(|j| {
            estimator
                .reg(j, Tier::PersSsd, total)
                .expect("profiled")
                .mins()
        })
        .sum()
}

/// Observed (simulated) total runtime (minutes) at a per-VM capacity.
pub fn observe(estimator: &Estimator, spec: &WorkloadSpec, per_vm_gb: f64) -> f64 {
    let nvm = estimator.cluster.nvm;
    let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
    *agg.get_mut(Tier::PersSsd) = DataSize::from_gb(per_vm_gb) * nvm as f64;
    let cfg = SimConfig::with_aggregate_capacity(estimator.catalog.clone(), nvm, &agg)
        .expect("valid capacity");
    let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
    Sim::builder(&cfg, spec, &placements)
        .build()
        .and_then(|s| s.run())
        .expect("simulation")
        .makespan
        .mins()
}

/// The full predicted-vs-observed sweep.
pub fn sweep() -> (Vec<(f64, f64, f64)>, PredictionError) {
    let estimator = paper_estimator();
    let spec = synth::prediction_workload();
    let rows: Vec<(f64, f64, f64)> = CAPACITIES
        .into_iter()
        .map(|gb| {
            (
                gb,
                predict(&estimator, &spec, gb),
                observe(&estimator, &spec, gb),
            )
        })
        .collect();
    let mut err = PredictionError::new();
    for &(_, pred, obs) in &rows {
        err.record(pred, obs);
    }
    (rows, err)
}

/// Reproduce Fig. 8.
pub fn run() -> TableWriter {
    let (rows, err) = sweep();
    let mut t = TableWriter::new(
        &format!(
            "Fig. 8: predicted vs observed runtime, 16-job / 2 TB workload (avg error {:.1}%, paper: 7.9%)",
            err.mape()
        ),
        &[
            "Per-VM persSSD (GB)",
            "Predicted (min)",
            "Observed (min)",
            "Error (%)",
        ],
    );
    for (gb, pred, obs) in rows {
        t.row(vec![
            Cell::Prec(gb, 0),
            Cell::Prec(pred, 1),
            Cell::Prec(obs, 1),
            Cell::Prec(100.0 * (pred - obs).abs() / obs, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "slow: profiling campaign + 5 workload simulations; run with --ignored"]
    fn prediction_error_is_single_digit_percent() {
        let (_, err) = sweep();
        assert!(
            err.mape() < 15.0,
            "average prediction error too high: {:.1}%",
            err.mape()
        );
        assert!(err.len() == CAPACITIES.len());
    }
}
