//! Tiering plans: the solver's decision variables.
//!
//! A [`TieringPlan`] maps every job to an [`Assignment`] — a storage
//! service `sᵢ` and an over-provisioning factor that determines `cᵢ`
//! (capacity is expressed relative to the Eq. 3 floor
//! `inputᵢ + interᵢ + outputᵢ`, so the constraint holds by construction).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use cast_cloud::tier::{PerTier, Tier};
use cast_cloud::units::DataSize;
use cast_sim::placement::{JobPlacement, PlacementMap};
use cast_workload::job::JobId;
use cast_workload::spec::WorkloadSpec;
use cast_workload::WorkloadError;

use crate::error::SolverError;

/// One job's placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Storage service `sᵢ`.
    pub tier: Tier,
    /// Capacity multiplier: `cᵢ = factor × (inputᵢ + interᵢ + outputᵢ)`.
    /// Must be ≥ 1 (Eq. 3). Values above 1 buy bandwidth on
    /// capacity-scaled tiers (§3.1.2, "Performance Scaling").
    pub overprov: f64,
}

impl Assignment {
    /// Exact-fit assignment on `tier`.
    pub fn exact(tier: Tier) -> Assignment {
        Assignment {
            tier,
            overprov: 1.0,
        }
    }

    /// Validate Eq. 3.
    pub fn validate(&self, job: JobId) -> Result<(), SolverError> {
        if self.overprov < 1.0 || !self.overprov.is_finite() {
            return Err(SolverError::CapacityViolation {
                job: job.0,
                factor: self.overprov,
            });
        }
        Ok(())
    }
}

/// A complete tiering plan (`P̂` of Algorithm 2).
///
/// ```
/// use cast_cloud::Tier;
/// use cast_cloud::units::DataSize;
/// use cast_solver::{Assignment, TieringPlan};
/// use cast_workload::{synth, AppKind, JobId};
///
/// let spec = synth::single_job(AppKind::Sort, DataSize::from_gb(100.0));
/// let mut plan = TieringPlan::uniform(&spec, Tier::PersSsd);
/// plan.assign(JobId(0), Assignment { tier: Tier::EphSsd, overprov: 2.0 });
/// let caps = plan.capacities(&spec, false).unwrap();
/// // Sort's footprint is 3×input; doubled by the factor; plus the
/// // backing object store holds input+output for persistence.
/// assert_eq!(caps.get(Tier::EphSsd).gb().round(), 600.0);
/// assert_eq!(caps.get(Tier::ObjStore).gb().round(), 200.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TieringPlan {
    assignments: BTreeMap<JobId, Assignment>,
}

impl TieringPlan {
    /// Empty plan.
    pub fn new() -> TieringPlan {
        TieringPlan::default()
    }

    /// Every job of `spec` exact-fit on `tier` (the non-tiered baselines
    /// of Fig. 7).
    pub fn uniform(spec: &WorkloadSpec, tier: Tier) -> TieringPlan {
        let mut plan = TieringPlan::new();
        for job in &spec.jobs {
            plan.assign(job.id, Assignment::exact(tier));
        }
        plan
    }

    /// Set a job's assignment.
    pub fn assign(&mut self, job: JobId, a: Assignment) {
        self.assignments.insert(job, a);
    }

    /// Get a job's assignment.
    pub fn get(&self, job: JobId) -> Option<Assignment> {
        self.assignments.get(&job).copied()
    }

    /// Get, or error if unassigned.
    pub fn require(&self, job: JobId) -> Result<Assignment, SolverError> {
        self.get(job).ok_or(SolverError::Unassigned(job.0))
    }

    /// Iterate assignments in job-id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, Assignment)> + '_ {
        self.assignments.iter().map(|(&j, &a)| (j, a))
    }

    /// Number of assigned jobs.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Aggregate provisioned capacity per tier (the `capacity[f]` of
    /// Eq. 6), applying the paper's conventions:
    ///
    /// * jobs on `objStore` keep intermediate data on a `persSSD` scratch
    ///   volume — that share is charged to `persSSD`;
    /// * jobs on `ephSSD` also hold input+output in the backing object
    ///   store for persistence — charged to `objStore`;
    /// * when `reuse_aware`, a shared input dataset is charged once per
    ///   tier, not once per job (CAST++, Eq. 7); a shared dataset the spec
    ///   does not define is [`SolverError::Workload`].
    pub fn capacities(
        &self,
        spec: &WorkloadSpec,
        reuse_aware: bool,
    ) -> Result<PerTier<DataSize>, SolverError> {
        let mut caps = PerTier::from_fn(|_| DataSize::ZERO);
        // Shared inputs counted once per (dataset, tier) in reuse mode.
        if reuse_aware {
            for (ds, jobs) in spec.reuse_groups() {
                let size = spec
                    .dataset(ds)
                    .ok_or(WorkloadError::UnknownDataset {
                        job: jobs[0].0,
                        dataset: ds.0,
                    })?
                    .size;
                // All group members share a tier under Eq. 7; even if the
                // plan violates that, we discount per distinct tier.
                let mut tiers: Vec<Tier> = Vec::new();
                for &j in &jobs {
                    let t = self.require(j)?.tier;
                    if !tiers.contains(&t) {
                        tiers.push(t);
                    }
                }
                for &t in &tiers {
                    let members_on_t = jobs
                        .iter()
                        .filter(|&&j| self.get(j).map(|a| a.tier) == Some(t))
                        .count();
                    if members_on_t > 1 {
                        *caps.get_mut(t) -= size * (members_on_t - 1) as f64;
                    }
                }
            }
        }
        for job in &spec.jobs {
            let a = self.require(job.id)?;
            a.validate(job.id)?;
            let profile = spec.profiles.get(job.app);
            let c = job.footprint(profile) * a.overprov;
            *caps.get_mut(a.tier) += c;
            match a.tier {
                Tier::ObjStore => {
                    // Intermediate data cannot live in the object store.
                    let inter = job.inter(profile);
                    *caps.get_mut(Tier::ObjStore) -= inter;
                    *caps.get_mut(Tier::PersSsd) += inter;
                }
                Tier::EphSsd => {
                    // Backing persistence for input and output.
                    *caps.get_mut(Tier::ObjStore) += job.input + job.output(profile);
                }
                _ => {}
            }
        }
        Ok(caps)
    }

    /// Convert to the simulator's placement map (all-or-nothing input on
    /// the assigned tier, the Fig. 1 conventions for staging/scratch).
    pub fn to_placements(&self) -> PlacementMap {
        let mut map = PlacementMap::new();
        for (job, a) in self.iter() {
            map.set(job, JobPlacement::all_on(a.tier));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::units::DataSize;
    use cast_workload::apps::AppKind;
    use cast_workload::synth;

    fn spec() -> WorkloadSpec {
        // Two Sort jobs sharing one 10 GB dataset.
        let mut spec = synth::single_job(AppKind::Sort, DataSize::from_gb(10.0));
        let mut j2 = spec.jobs[0];
        j2.id = JobId(1);
        spec.jobs.push(j2);
        spec
    }

    #[test]
    fn uniform_plan_assigns_everyone() {
        let s = spec();
        let p = TieringPlan::uniform(&s, Tier::PersHdd);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(JobId(1)).unwrap().tier, Tier::PersHdd);
    }

    #[test]
    fn objstore_jobs_charge_scratch_to_persssd() {
        let s = synth::single_job(AppKind::Sort, DataSize::from_gb(10.0));
        let p = TieringPlan::uniform(&s, Tier::ObjStore);
        let caps = p.capacities(&s, false).unwrap();
        // Sort: input 10 + inter 10 + output 10. Inter moves to persSSD.
        assert!((caps.get(Tier::ObjStore).gb() - 20.0).abs() < 1e-9);
        assert!((caps.get(Tier::PersSsd).gb() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ephemeral_jobs_charge_backing_objstore() {
        let s = synth::single_job(AppKind::Sort, DataSize::from_gb(10.0));
        let p = TieringPlan::uniform(&s, Tier::EphSsd);
        let caps = p.capacities(&s, false).unwrap();
        assert!((caps.get(Tier::EphSsd).gb() - 30.0).abs() < 1e-9);
        // input + output persisted in objStore.
        assert!((caps.get(Tier::ObjStore).gb() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_awareness_discounts_shared_inputs() {
        let s = spec();
        let p = TieringPlan::uniform(&s, Tier::PersSsd);
        let naive = p.capacities(&s, false).unwrap();
        let aware = p.capacities(&s, true).unwrap();
        // Two jobs × 30 GB footprint = 60; shared 10 GB input counted once
        // → 50.
        assert!((naive.get(Tier::PersSsd).gb() - 60.0).abs() < 1e-9);
        assert!((aware.get(Tier::PersSsd).gb() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_discount_only_within_same_tier() {
        let s = spec();
        let mut p = TieringPlan::uniform(&s, Tier::PersSsd);
        p.assign(JobId(1), Assignment::exact(Tier::PersHdd));
        let aware = p.capacities(&s, true).unwrap();
        // No two jobs share a tier: no discount anywhere.
        assert!((aware.get(Tier::PersSsd).gb() - 30.0).abs() < 1e-9);
        assert!((aware.get(Tier::PersHdd).gb() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_awareness_reports_an_undeclared_dataset() {
        let mut s = spec();
        for job in &mut s.jobs {
            job.dataset = cast_workload::DatasetId(99);
        }
        let p = TieringPlan::uniform(&s, Tier::PersSsd);
        assert_eq!(
            p.capacities(&s, true),
            Err(SolverError::Workload(WorkloadError::UnknownDataset {
                job: 0,
                dataset: 99
            }))
        );
    }

    #[test]
    fn invalid_factor_rejected() {
        let s = spec();
        let mut p = TieringPlan::uniform(&s, Tier::PersSsd);
        p.assign(
            JobId(0),
            Assignment {
                tier: Tier::PersSsd,
                overprov: 0.5,
            },
        );
        assert!(matches!(
            p.capacities(&s, false),
            Err(SolverError::CapacityViolation { job: 0, .. })
        ));
    }

    #[test]
    fn missing_assignment_detected() {
        let s = spec();
        let mut p = TieringPlan::new();
        p.assign(JobId(0), Assignment::exact(Tier::PersSsd));
        assert!(matches!(
            p.capacities(&s, false),
            Err(SolverError::Unassigned(1))
        ));
    }

    #[test]
    fn placements_follow_assignments() {
        let s = spec();
        let p = TieringPlan::uniform(&s, Tier::EphSsd);
        let map = p.to_placements();
        assert_eq!(map.get(JobId(0)).unwrap().primary(), Some(Tier::EphSsd));
        assert_eq!(
            map.get(JobId(0)).unwrap().stage_in_from,
            Some(Tier::ObjStore)
        );
    }
}
