//! Neighbour generation for the annealing search.
//!
//! A neighbour of a plan differs in one job's assignment: either the tier
//! flips to another service, or the over-provisioning factor is nudged
//! along a geometric grid. When reuse groups are active (CAST++), a tier
//! flip applies to the whole group so Eq. 7 stays satisfied by
//! construction.
//!
//! Proposals name jobs by *position*: the index of the job in the list
//! the generator was built over. [`NeighborGen::new`] resolves each
//! position's reuse group to positions once per solve, so a proposal
//! touches no `JobId` map; callers holding assignments in that same order
//! (the annealer's incremental state, in spec order) index them directly,
//! and [`NeighborGen::job_at`] maps a position back to its job.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use cast_cloud::tier::Tier;
use cast_workload::job::JobId;

use crate::plan::Assignment;

/// Over-provisioning grid explored by the solver. Factor 1 = exact fit
/// (Eq. 3 floor); larger factors buy bandwidth on capacity-scaled tiers.
pub const OVERPROV_GRID: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Generates neighbours of the current plan.
#[derive(Debug, Clone)]
pub struct NeighborGen {
    /// Jobs that may be mutated, in mutation order. A job's index here is
    /// its position in every proposal.
    jobs: Vec<JobId>,
    /// Reuse groups as positions, each in group order.
    cohorts: Vec<Vec<usize>>,
    /// Per position, the index into `cohorts` of its reuse group (the
    /// first group listing it), or `None` when it moves alone.
    cohort_of: Vec<Option<usize>>,
}

impl NeighborGen {
    /// Build a generator over `jobs`; `groups` lists reuse groups (may be
    /// empty when reuse awareness is off). Group members that are not in
    /// `jobs` are never mutated.
    pub fn new(jobs: Vec<JobId>, groups: Vec<Vec<JobId>>) -> NeighborGen {
        let mut cohort_of = vec![None; jobs.len()];
        let mut cohorts = Vec::with_capacity(groups.len());
        if !groups.is_empty() {
            let position: HashMap<JobId, usize> =
                jobs.iter().enumerate().map(|(i, &j)| (j, i)).collect();
            for group in &groups {
                let members: Vec<usize> = group
                    .iter()
                    .filter_map(|j| position.get(j).copied())
                    .collect();
                for &m in &members {
                    cohort_of[m].get_or_insert(cohorts.len());
                }
                cohorts.push(members);
            }
        }
        NeighborGen {
            jobs,
            cohorts,
            cohort_of,
        }
    }

    /// Propose a random move against the current assignments (queried by
    /// position via `lookup`), writing the changed `(position, new
    /// assignment)` pairs into `out`. The job mutated is the one at
    /// `cursor` (CAST++'s DFS traversal) or a random one when `cursor` is
    /// `None`.
    ///
    /// `out` is left empty when the move changes nothing: a capacity
    /// nudge past either end of [`OVERPROV_GRID`] proposes the current
    /// assignment. The draws are the same either way, so callers score
    /// such a move as the current plan without re-evaluating it.
    pub fn propose(
        &self,
        lookup: impl Fn(usize) -> Option<Assignment>,
        rng: &mut StdRng,
        cursor: Option<usize>,
        out: &mut Vec<(usize, Assignment)>,
    ) {
        out.clear();
        if self.jobs.is_empty() {
            return;
        }
        let idx = cursor.unwrap_or_else(|| rng.gen_range(0..self.jobs.len())) % self.jobs.len();
        let Some(current) = lookup(idx) else {
            return;
        };
        // Half the moves flip the tier (jointly drawing a fresh capacity
        // factor — tier and provisioning are coupled decisions: a job
        // moved to a capacity-scaled tier at exact-fit capacity may be
        // starved, and the two-step path through that valley is hard for
        // the annealer to cross), half nudge the capacity factor alone.
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(0..Tier::ALL.len() - 1);
            let tier = Tier::ALL
                .iter()
                .copied()
                .filter(|&t| t != current.tier)
                .nth(n)
                .expect("three non-current tiers");
            let overprov = OVERPROV_GRID[rng.gen_range(0..OVERPROV_GRID.len())];
            let cohort = match self.cohort_of[idx] {
                Some(c) => self.cohorts[c].as_slice(),
                None => std::slice::from_ref(&idx),
            };
            for &member in cohort {
                if lookup(member).is_some() {
                    out.push((member, Assignment { tier, overprov }));
                }
            }
        } else {
            let pos = OVERPROV_GRID
                .iter()
                .position(|&f| (f - current.overprov).abs() < 1e-9)
                .unwrap_or(0);
            let next_pos = if rng.gen_bool(0.5) {
                (pos + 1).min(OVERPROV_GRID.len() - 1)
            } else {
                pos.saturating_sub(1)
            };
            let next = Assignment {
                tier: current.tier,
                overprov: OVERPROV_GRID[next_pos],
            };
            if next != current {
                out.push((idx, next));
            }
        }
    }

    /// The job at `position`.
    ///
    /// # Panics
    ///
    /// If `position >= self.len()`.
    pub fn job_at(&self, position: usize) -> JobId {
        self.jobs[position]
    }

    /// Number of mutable jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether there is nothing to mutate.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TieringPlan;
    use rand::SeedableRng;

    fn plan(jobs: &[u32]) -> TieringPlan {
        let mut p = TieringPlan::new();
        for &j in jobs {
            p.assign(JobId(j), Assignment::exact(Tier::PersSsd));
        }
        p
    }

    /// `plan` with one proposal applied.
    fn step(
        gen: &NeighborGen,
        plan: &TieringPlan,
        rng: &mut StdRng,
        cursor: Option<usize>,
    ) -> TieringPlan {
        let mut changes = Vec::new();
        gen.propose(|i| plan.get(gen.job_at(i)), rng, cursor, &mut changes);
        let mut next = plan.clone();
        for (i, a) in changes {
            next.assign(gen.job_at(i), a);
        }
        next
    }

    #[test]
    fn neighbor_differs_in_exactly_one_cohort() {
        let gen = NeighborGen::new(vec![JobId(0), JobId(1), JobId(2)], vec![]);
        let p = plan(&[0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let n = step(&gen, &p, &mut rng, None);
            let changed: Vec<JobId> = p
                .iter()
                .filter(|&(j, a)| n.get(j) != Some(a))
                .map(|(j, _)| j)
                .collect();
            assert!(changed.len() <= 1, "one-job mutation, got {changed:?}");
        }
    }

    #[test]
    fn group_moves_together() {
        let gen = NeighborGen::new(
            vec![JobId(0), JobId(1), JobId(2)],
            vec![vec![JobId(0), JobId(1)]],
        );
        let p = plan(&[0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let n = step(&gen, &p, &mut rng, None);
            let t0 = n.get(JobId(0)).unwrap().tier;
            let t1 = n.get(JobId(1)).unwrap().tier;
            assert_eq!(t0, t1, "reuse group must stay on one tier");
        }
    }

    #[test]
    fn cohorts_are_positions_in_group_order() {
        // Jobs listed out of id order: a group names ids, a proposal
        // names positions, and a tier flip emits the whole group in group
        // order whichever member was drawn.
        let gen = NeighborGen::new(
            vec![JobId(5), JobId(3), JobId(9)],
            vec![vec![JobId(3), JobId(9)]],
        );
        let p = plan(&[3, 5, 9]);
        let mut rng = StdRng::seed_from_u64(17);
        let mut out = Vec::new();
        let mut flips = 0;
        for _ in 0..200 {
            gen.propose(|i| p.get(gen.job_at(i)), &mut rng, None, &mut out);
            let tier_flip = out
                .iter()
                .any(|&(i, a)| a.tier != p.get(gen.job_at(i)).unwrap().tier);
            if !tier_flip {
                continue;
            }
            flips += 1;
            let positions: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert!(
                positions == [0] || positions == [1, 2],
                "cohort {positions:?}"
            );
        }
        assert!(flips > 0);
    }

    #[test]
    fn factors_stay_on_grid_and_above_one() {
        let gen = NeighborGen::new(vec![JobId(0)], vec![]);
        let mut p = plan(&[0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            p = step(&gen, &p, &mut rng, None);
            let f = p.get(JobId(0)).unwrap().overprov;
            assert!(OVERPROV_GRID.contains(&f), "off-grid factor {f}");
        }
    }

    #[test]
    fn nudges_past_the_grid_ends_propose_nothing() {
        // Every proposal either changes the drawn job or is a nudge that
        // would leave it where it is, which only happens at a grid end.
        let gen = NeighborGen::new(vec![JobId(0)], vec![]);
        let mut rng = StdRng::seed_from_u64(23);
        let mut out = Vec::new();
        for (i, &f) in OVERPROV_GRID.iter().enumerate() {
            let current = Assignment {
                tier: Tier::PersHdd,
                overprov: f,
            };
            let (mut empty, mut nudged) = (0, 0);
            for _ in 0..200 {
                gen.propose(|_| Some(current), &mut rng, None, &mut out);
                match out.as_slice() {
                    [] => empty += 1,
                    [(0, a)] if a.tier == current.tier => {
                        nudged += 1;
                        let to = OVERPROV_GRID.iter().position(|&g| g == a.overprov).unwrap();
                        assert_eq!(to.abs_diff(i), 1, "nudge {f} -> {}", a.overprov);
                    }
                    [(0, a)] => assert_ne!(a.tier, current.tier),
                    other => panic!("one-job proposal expected, got {other:?}"),
                }
            }
            let at_end = i == 0 || i == OVERPROV_GRID.len() - 1;
            assert_eq!(empty > 0, at_end, "factor {f}: {empty} empty proposals");
            assert!(nudged > 0, "factor {f} never nudged");
        }
    }

    #[test]
    fn cursor_targets_specific_job() {
        let gen = NeighborGen::new(vec![JobId(0), JobId(1)], vec![]);
        let p = plan(&[0, 1]);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = step(&gen, &p, &mut rng, Some(1));
            // Only job 1 may change.
            assert_eq!(n.get(JobId(0)), p.get(JobId(0)));
        }
    }

    #[test]
    fn empty_generator_proposes_nothing() {
        let gen = NeighborGen::new(vec![], vec![]);
        let p = plan(&[0]);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(step(&gen, &p, &mut rng, None), p);
    }
}
