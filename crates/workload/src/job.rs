//! Jobs — one MapReduce execution of an application over a dataset.

use serde::{Deserialize, Serialize};
use std::fmt;

use cast_cloud::units::DataSize;

use crate::apps::AppKind;
use crate::dataset::DatasetId;
use crate::error::WorkloadError;
use crate::profile::AppProfile;

/// Identifier of a job within a workload.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// One analytics job: an application applied to an input dataset with a
/// fixed task layout (the `L̂ᵢ` row of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Identifier, unique within a workload.
    pub id: JobId,
    /// Which application this job runs.
    pub app: AppKind,
    /// The input dataset (jobs sharing a dataset form a reuse group).
    pub dataset: DatasetId,
    /// Input bytes (`inputᵢ`).
    pub input: DataSize,
    /// Number of map tasks (`m`).
    pub maps: usize,
    /// Number of reduce tasks (`r`).
    pub reduces: usize,
}

/// Default HDFS-style block size used to derive map task counts (256 MB).
pub fn default_block() -> DataSize {
    DataSize::from_mb(256.0)
}

impl Job {
    /// Construct a job with the conventional task layout: one map task per
    /// 256 MB block, one reduce task per four map tasks (at least one each).
    pub fn with_default_layout(
        id: JobId,
        app: AppKind,
        dataset: DatasetId,
        input: DataSize,
    ) -> Job {
        let maps = (input.mb() / default_block().mb()).ceil().max(1.0) as usize;
        let reduces = (maps / 4).max(1);
        Job {
            id,
            app,
            dataset,
            input,
            maps,
            reduces,
        }
    }

    /// Intermediate bytes (`interᵢ`) under `profile`.
    pub fn inter(&self, profile: &AppProfile) -> DataSize {
        self.input.scale(profile.map_selectivity)
    }

    /// Output bytes (`outputᵢ`) under `profile`.
    pub fn output(&self, profile: &AppProfile) -> DataSize {
        self.input.scale(profile.output_selectivity)
    }

    /// Total storage footprint the job needs while running: input +
    /// intermediate + output (the Eq. 3 capacity constraint).
    pub fn footprint(&self, profile: &AppProfile) -> DataSize {
        self.input + self.inter(profile) + self.output(profile)
    }

    /// Validate the job's shape.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.input.bytes() <= 0.0 || self.maps == 0 || self.reduces == 0 {
            return Err(WorkloadError::DegenerateJob(self.id.0));
        }
        Ok(())
    }

    /// Coarse drift bucket: the application crossed with the input
    /// size's order of magnitude, two powers of two per class ([1, 4),
    /// [4, 16), [16, 64) GB, …). Unlike the solver's exact job class
    /// (`(app, input, maps, reduces)`) this is deliberately lossy — a
    /// tiering decision rarely flips inside one class, and epoch batches
    /// are small samples, so finer buckets would read sampling noise as
    /// drift — and a multiset distance over drift keys therefore
    /// measures how far a batch's *shape* moved between epochs, not
    /// whether any byte count changed. The online runtime's drift-gated
    /// replan skip is the consumer.
    pub fn drift_key(&self) -> u64 {
        let bucket = (self.input.gb().max(1.0).log2() / 2.0).floor() as i64;
        crate::tenant::splitmix64((self.app as u64) << 32 ^ bucket as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileSet;

    #[test]
    fn default_layout_block_math() {
        let j = Job::with_default_layout(
            JobId(0),
            AppKind::Grep,
            DatasetId(0),
            DataSize::from_gb(6.0),
        );
        // 6 GB / 256 MB = 23.4 → 24 maps (the paper's Fig. 5 setup uses a
        // 6 GB dataset with 24 map tasks).
        assert_eq!(j.maps, 24);
        assert_eq!(j.reduces, 6);
    }

    #[test]
    fn tiny_job_gets_at_least_one_task_each() {
        let j = Job::with_default_layout(
            JobId(1),
            AppKind::Sort,
            DatasetId(0),
            DataSize::from_mb(10.0),
        );
        assert_eq!(j.maps, 1);
        assert_eq!(j.reduces, 1);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn footprint_accounts_all_phases() {
        let profiles = ProfileSet::defaults();
        let j = Job::with_default_layout(
            JobId(2),
            AppKind::Sort,
            DatasetId(0),
            DataSize::from_gb(100.0),
        );
        // Sort has selectivity 1 in both phases: footprint = 3 × input.
        let f = j.footprint(profiles.get(AppKind::Sort));
        assert!((f.gb() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_jobs_rejected() {
        let mut j = Job::with_default_layout(
            JobId(3),
            AppKind::Join,
            DatasetId(0),
            DataSize::from_gb(1.0),
        );
        j.maps = 0;
        assert!(j.validate().is_err());
        let mut k = Job::with_default_layout(
            JobId(4),
            AppKind::Join,
            DatasetId(0),
            DataSize::from_gb(1.0),
        );
        k.input = DataSize::ZERO;
        assert!(k.validate().is_err());
    }

    #[test]
    fn block_helper_matches_runtime_constructor() {
        assert!((default_block().mb() - DataSize::from_mb(256.0).mb()).abs() < 1e-12);
    }

    #[test]
    fn drift_key_buckets_within_a_size_class() {
        let base = Job::with_default_layout(
            JobId(0),
            AppKind::Join,
            DatasetId(0),
            DataSize::from_gb(5.0),
        );
        // 5 GB and 9 GB share the [4, 16) GB class; 20 GB does not.
        let near = Job {
            input: DataSize::from_gb(9.0),
            ..base
        };
        let far = Job {
            input: DataSize::from_gb(20.0),
            ..base
        };
        assert_eq!(base.drift_key(), near.drift_key());
        assert_ne!(base.drift_key(), far.drift_key());
        // Same size, different app → different bucket.
        let other_app = Job {
            app: AppKind::Sort,
            ..base
        };
        assert_ne!(base.drift_key(), other_app.drift_key());
    }
}
