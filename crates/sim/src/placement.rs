//! Data placement descriptions consumed by the simulator.
//!
//! A [`JobPlacement`] says where a job's input lives (possibly split across
//! tiers for the Fig. 5 fine-grained-partitioning study), where intermediate
//! data spills, where output goes, and whether staging transfers wrap the
//! job (ephemeral-SSD persistence, workflow cross-tier hand-offs).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use cast_cloud::tier::Tier;
use cast_workload::job::JobId;

use crate::error::SimError;

/// Input placement: fractions of the input dataset per tier.
///
/// CAST itself always places a whole job on one tier (§3.2's
/// "all-or-nothing" argument); the fractional form exists to reproduce the
/// experiment demonstrating *why* (Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitPlacement {
    /// `(tier, fraction)` pairs; fractions must sum to 1.
    pub parts: Vec<(Tier, f64)>,
}

impl SplitPlacement {
    /// All input on a single tier.
    pub fn single(tier: Tier) -> SplitPlacement {
        SplitPlacement {
            parts: vec![(tier, 1.0)],
        }
    }

    /// A two-tier split: `frac` on `a`, the rest on `b`. Fails with
    /// [`SimError::SplitFraction`] when `frac` is NaN or outside
    /// `[0, 1]`.
    pub fn split(a: Tier, frac: f64, b: Tier) -> Result<SplitPlacement, SimError> {
        if !(0.0..=1.0).contains(&frac) {
            return Err(SimError::SplitFraction(frac));
        }
        Ok(if frac >= 1.0 {
            SplitPlacement::single(a)
        } else if frac <= 0.0 {
            SplitPlacement::single(b)
        } else {
            SplitPlacement {
                parts: vec![(a, frac), (b, 1.0 - frac)],
            }
        })
    }

    /// The tier holding the largest share (the "primary" tier), under
    /// `f64` total order so a NaN fraction cannot panic; `None` when
    /// `parts` is empty.
    pub fn primary(&self) -> Option<Tier> {
        self.parts
            .iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|&(t, _)| t)
    }

    /// Whether fractions sum to 1 (±1e-6) and are each in `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        !self.parts.is_empty()
            && self
                .parts
                .iter()
                .all(|&(_, f)| (0.0..=1.0 + 1e-9).contains(&f))
            && (self.parts.iter().map(|&(_, f)| f).sum::<f64>() - 1.0).abs() < 1e-6
    }
}

/// Complete placement for one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobPlacement {
    /// Where the input is read from.
    pub input: SplitPlacement,
    /// Where intermediate (shuffle) data spills.
    pub inter: Tier,
    /// Where the final output is written.
    pub output: Tier,
    /// Transfer the input from this tier onto `input.primary()` before the
    /// job starts (ephemeral-SSD staging, workflow cross-tier hand-off).
    pub stage_in_from: Option<Tier>,
    /// Bytes to move during stage-in when it differs from the job's input
    /// size (workflow hand-offs move the producing job's output).
    pub stage_in_bytes: Option<cast_cloud::units::DataSize>,
    /// Upload the output to this tier after the job completes (persistence
    /// for ephemeral output).
    pub stage_out_to: Option<Tier>,
}

impl JobPlacement {
    /// The conventional placement a tenant gets by pointing the whole job
    /// at one storage service, following the paper's Fig. 1 conventions:
    ///
    /// * `ephSSD` — input staged in from the object store, output staged
    ///   back out (no persistence on ephemeral disks).
    /// * `persSSD` / `persHDD` — everything on the volume.
    /// * `objStore` — input/output on the object store, intermediate data
    ///   on a persistent-SSD scratch volume (the paper's choice).
    pub fn all_on(tier: Tier) -> JobPlacement {
        match tier {
            Tier::EphSsd => JobPlacement {
                input: SplitPlacement::single(Tier::EphSsd),
                inter: Tier::EphSsd,
                output: Tier::EphSsd,
                stage_in_from: Some(Tier::ObjStore),
                stage_in_bytes: None,
                stage_out_to: Some(Tier::ObjStore),
            },
            Tier::PersSsd | Tier::PersHdd => JobPlacement {
                input: SplitPlacement::single(tier),
                inter: tier,
                output: tier,
                stage_in_from: None,
                stage_in_bytes: None,
                stage_out_to: None,
            },
            Tier::ObjStore => JobPlacement {
                input: SplitPlacement::single(Tier::ObjStore),
                inter: Tier::PersSsd,
                output: Tier::ObjStore,
                stage_in_from: None,
                stage_in_bytes: None,
                stage_out_to: None,
            },
        }
    }

    /// Primary tier of the job (where CAST accounts its capacity);
    /// `None` when the input split has no parts.
    pub fn primary(&self) -> Option<Tier> {
        self.input.primary()
    }
}

/// Placement for every job in a workload.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlacementMap {
    map: HashMap<JobId, JobPlacement>,
}

impl PlacementMap {
    /// Empty map.
    pub fn new() -> PlacementMap {
        PlacementMap::default()
    }

    /// Every job of `jobs` placed entirely on `tier`.
    pub fn uniform(jobs: impl IntoIterator<Item = JobId>, tier: Tier) -> PlacementMap {
        let mut m = PlacementMap::new();
        for j in jobs {
            m.set(j, JobPlacement::all_on(tier));
        }
        m
    }

    /// Set a job's placement.
    pub fn set(&mut self, job: JobId, placement: JobPlacement) {
        self.map.insert(job, placement);
    }

    /// Get a job's placement.
    pub fn get(&self, job: JobId) -> Option<&JobPlacement> {
        self.map.get(&job)
    }

    /// Number of placed jobs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no placements are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate placements (ordering unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobPlacement)> {
        self.map.iter().map(|(&j, p)| (j, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_placement_is_valid() {
        let p = SplitPlacement::single(Tier::PersSsd);
        assert!(p.is_valid());
        assert_eq!(p.primary(), Some(Tier::PersSsd));
    }

    #[test]
    fn split_placement_math() {
        let p = SplitPlacement::split(Tier::EphSsd, 0.9, Tier::PersHdd).unwrap();
        assert!(p.is_valid());
        assert_eq!(p.primary(), Some(Tier::EphSsd));
        let q = SplitPlacement::split(Tier::EphSsd, 0.3, Tier::PersHdd).unwrap();
        assert_eq!(q.primary(), Some(Tier::PersHdd));
    }

    #[test]
    fn degenerate_split_collapses() {
        let p = SplitPlacement::split(Tier::EphSsd, 1.0, Tier::PersHdd).unwrap();
        assert_eq!(p.parts.len(), 1);
        let q = SplitPlacement::split(Tier::EphSsd, 0.0, Tier::PersHdd).unwrap();
        assert_eq!(q.parts, vec![(Tier::PersHdd, 1.0)]);
    }

    #[test]
    fn out_of_range_split_fractions_are_errors() {
        for frac in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            assert!(
                matches!(
                    SplitPlacement::split(Tier::EphSsd, frac, Tier::PersHdd),
                    Err(SimError::SplitFraction(_))
                ),
                "fraction {frac}"
            );
        }
    }

    #[test]
    fn nan_fraction_does_not_panic_primary() {
        let p = SplitPlacement {
            parts: vec![(Tier::EphSsd, f64::NAN), (Tier::PersHdd, 0.5)],
        };
        assert!(!p.is_valid());
        assert!([Tier::EphSsd, Tier::PersHdd].contains(&p.primary().unwrap()));
    }

    #[test]
    fn invalid_fractions_detected() {
        let p = SplitPlacement {
            parts: vec![(Tier::EphSsd, 0.5), (Tier::PersSsd, 0.2)],
        };
        assert!(!p.is_valid());
        let empty = SplitPlacement { parts: Vec::new() };
        assert!(!empty.is_valid());
        assert_eq!(empty.primary(), None);
    }

    #[test]
    fn ephemeral_convention_stages_through_objstore() {
        let p = JobPlacement::all_on(Tier::EphSsd);
        assert_eq!(p.stage_in_from, Some(Tier::ObjStore));
        assert_eq!(p.stage_out_to, Some(Tier::ObjStore));
    }

    #[test]
    fn objstore_convention_uses_ssd_scratch() {
        let p = JobPlacement::all_on(Tier::ObjStore);
        assert_eq!(p.inter, Tier::PersSsd);
        assert_eq!(p.stage_in_from, None);
    }

    #[test]
    fn persistent_tiers_need_no_staging() {
        for t in [Tier::PersSsd, Tier::PersHdd] {
            let p = JobPlacement::all_on(t);
            assert_eq!(p.stage_in_from, None);
            assert_eq!(p.stage_out_to, None);
            assert_eq!(p.inter, t);
        }
    }

    #[test]
    fn placement_map_roundtrip() {
        let mut m = PlacementMap::uniform([JobId(0), JobId(1)], Tier::PersHdd);
        assert_eq!(m.len(), 2);
        m.set(JobId(1), JobPlacement::all_on(Tier::EphSsd));
        assert_eq!(m.get(JobId(1)).unwrap().primary(), Some(Tier::EphSsd));
        assert!(m.get(JobId(9)).is_none());
    }
}
