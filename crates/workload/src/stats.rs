//! Workload statistics: the aggregate views the paper reasons with
//! (§5.1.1's "more than 99% of the total data is touched by the large
//! jobs", per-application byte shares, job-size distribution summaries).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use cast_cloud::units::DataSize;

use crate::apps::AppKind;
use crate::spec::WorkloadSpec;

/// Aggregate statistics of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Total input bytes across jobs.
    pub total_input: DataSize,
    /// Total storage footprint (Eq. 3 capacities at exact fit).
    pub total_footprint: DataSize,
    /// Input bytes per application kind.
    pub input_by_app: BTreeMap<AppKind, DataSize>,
    /// Job count per application kind.
    pub jobs_by_app: BTreeMap<AppKind, usize>,
    /// Largest job's input.
    pub max_input: DataSize,
    /// Median job input.
    pub median_input: DataSize,
    /// Fraction of input bytes in the largest decile of jobs.
    pub top_decile_byte_share: f64,
}

impl WorkloadStats {
    /// Compute statistics for `spec`.
    pub fn of(spec: &WorkloadSpec) -> WorkloadStats {
        let mut input_by_app: BTreeMap<AppKind, DataSize> = BTreeMap::new();
        let mut jobs_by_app: BTreeMap<AppKind, usize> = BTreeMap::new();
        let mut inputs: Vec<f64> = Vec::with_capacity(spec.jobs.len());
        let mut total_footprint = DataSize::ZERO;
        for job in &spec.jobs {
            let profile = spec.profiles.get(job.app);
            *input_by_app.entry(job.app).or_insert(DataSize::ZERO) += job.input;
            *jobs_by_app.entry(job.app).or_insert(0) += 1;
            inputs.push(job.input.gb());
            total_footprint += job.footprint(profile);
        }
        inputs.sort_by(f64::total_cmp);
        let total: f64 = inputs.iter().sum();
        let decile_jobs = (inputs.len() as f64 * 0.1).ceil() as usize;
        let top: f64 = inputs.iter().rev().take(decile_jobs.max(1)).sum();
        WorkloadStats {
            jobs: spec.jobs.len(),
            total_input: spec.total_input(),
            total_footprint,
            input_by_app,
            jobs_by_app,
            max_input: DataSize::from_gb(inputs.last().copied().unwrap_or(0.0)),
            median_input: DataSize::from_gb(if inputs.is_empty() {
                0.0
            } else {
                inputs[inputs.len() / 2]
            }),
            top_decile_byte_share: if total > 0.0 { top / total } else { 0.0 },
        }
    }

    /// Render a short text summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} jobs, {} input ({} footprint); largest {}, median {}\n",
            self.jobs, self.total_input, self.total_footprint, self.max_input, self.median_input
        );
        for (app, bytes) in &self.input_by_app {
            out.push_str(&format!(
                "  {:<9} {:>3} jobs, {}\n",
                app.name(),
                self.jobs_by_app.get(app).copied().unwrap_or(0),
                bytes
            ));
        }
        out.push_str(&format!(
            "  top-decile jobs hold {:.1}% of bytes\n",
            self.top_decile_byte_share * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{facebook_workload, FacebookConfig};

    #[test]
    fn facebook_workload_stats_match_table4_narrative() {
        let spec = facebook_workload(FacebookConfig::default()).unwrap();
        let stats = WorkloadStats::of(&spec);
        assert_eq!(stats.jobs, 100);
        // ~4.98 TB total input, dominated by the big bins.
        assert!((stats.total_input.gb() - 4980.5).abs() < 1.0);
        assert!((stats.max_input.gb() - 768.0).abs() < 0.1);
        // §5.1.1: the large jobs dominate the bytes.
        assert!(stats.top_decile_byte_share > 0.80);
        // Round-robin gave each Table 2 app 25 jobs.
        for app in AppKind::TABLE2 {
            assert_eq!(stats.jobs_by_app[&app], 25);
        }
        // Footprint exceeds input (intermediate + output).
        assert!(stats.total_footprint.gb() > stats.total_input.gb());
    }

    #[test]
    fn empty_workload_stats_are_zero() {
        let stats = WorkloadStats::of(&crate::spec::WorkloadSpec::empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.top_decile_byte_share, 0.0);
        assert!(stats.render().contains("0 jobs"));
    }

    #[test]
    fn render_names_every_app_present() {
        let spec = facebook_workload(FacebookConfig::default()).unwrap();
        let text = WorkloadStats::of(&spec).render();
        for app in AppKind::TABLE2 {
            assert!(text.contains(app.name()), "{text}");
        }
    }
}
