//! Fault injection: deterministic, serialisable failure scenarios.
//!
//! A [`FaultPlan`] attached to [`crate::config::SimConfig`] describes every
//! injectable event up front — per-task failure probability, scheduled VM
//! crashes and recoveries, and transient tier-degradation windows. The
//! engine turns the plan into recovery behaviour: failed tasks re-enqueue
//! with bounded retries and exponential backoff, crashed VMs kill their
//! resident tasks and return their slots on recovery, and (optionally)
//! Hadoop-style speculative execution launches backup copies of
//! stragglers.
//!
//! Determinism: every random fault decision is drawn from an RNG keyed by
//! `(plan seed, task uid, attempt)` rather than a shared stream, so a
//! simulation is bit-reproducible for a fixed plan *and* failure sets are
//! coupled across intensities — every task that fails at rate `p₁` also
//! fails at any `p₂ > p₁`, which makes fault sweeps monotone.
//! [`attempt_rng`] is that keyed RNG; the runtime's migration protocol
//! draws its copy faults from it too.
//!
//! Scheduling: the event-driven engine seeds every scheduled fault time
//! (crash, recovery, degradation edge) and retry-backoff expiry into its
//! completion heap as sentinel *wake* entries, so the clock lands exactly
//! on each fault edge without per-step scanning of the plan.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cast_cloud::tier::Tier;

/// A scheduled worker-VM crash (and optional recovery).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmCrash {
    /// Index of the VM that fails.
    pub vm: u32,
    /// Simulated time of the crash, seconds.
    pub at_secs: f64,
    /// How long the VM stays down; `None` = never recovers.
    pub down_secs: Option<f64>,
}

/// A transient bandwidth-degradation window on one tier's volumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationWindow {
    /// VM whose volume degrades; `None` = every VM (and, for
    /// [`Tier::ObjStore`], the cluster-global ceiling too).
    pub vm: Option<u32>,
    /// Affected tier.
    pub tier: Tier,
    /// Window start, seconds.
    pub start_secs: f64,
    /// Window end (exclusive), seconds.
    pub end_secs: f64,
    /// Bandwidth multiplier inside `[start, end)` — `0.25` = quartered.
    pub multiplier: f64,
}

/// The full fault scenario for one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all fault sampling (independent of the workload's own
    /// task-skew seeds).
    pub seed: u64,
    /// Probability that any given task attempt fails partway through its
    /// streaming work.
    pub task_failure_prob: f64,
    /// Attempts (first run + retries) before the owning job is declared
    /// failed ([`crate::error::SimError::JobFailed`]). Hadoop's
    /// `mapreduce.map.maxattempts` default is 4.
    pub max_task_attempts: u32,
    /// Backoff before the first retry, seconds; doubles on each further
    /// attempt.
    pub retry_backoff_secs: f64,
    /// Speculative-execution threshold: launch a backup copy when a task's
    /// progress rate falls below this fraction of its wave's median rate.
    /// `0` disables speculation.
    pub speculation_threshold: f64,
    /// Scheduled VM crashes.
    pub vm_crashes: Vec<VmCrash>,
    /// Tier degradation windows.
    pub degradations: Vec<DegradationWindow>,
}

impl Default for FaultPlan {
    /// The empty plan: no faults injected, recovery knobs at Hadoop-like
    /// defaults. Simulations under the default plan are bit-identical to
    /// fault-free runs.
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xfa17_cafe,
            task_failure_prob: 0.0,
            max_task_attempts: 4,
            retry_backoff_secs: 5.0,
            speculation_threshold: 0.0,
            vm_crashes: Vec::new(),
            degradations: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects nothing (recovery machinery stays cold).
    pub fn is_empty(&self) -> bool {
        self.task_failure_prob <= 0.0
            && self.speculation_threshold <= 0.0
            && self.vm_crashes.is_empty()
            && self.degradations.is_empty()
    }

    /// Convenience: an otherwise-default plan with a per-task failure rate.
    pub fn with_task_failures(prob: f64) -> FaultPlan {
        FaultPlan {
            task_failure_prob: prob,
            ..FaultPlan::default()
        }
    }

    /// Check the plan against a cluster of `nvm` workers. Returns a
    /// human-readable reason on the first violation.
    pub fn validate(&self, nvm: usize) -> Result<(), String> {
        let p = self.task_failure_prob;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("task_failure_prob must be in [0, 1], got {p}"));
        }
        if self.task_failure_prob > 0.0 && self.max_task_attempts == 0 {
            return Err("max_task_attempts must be >= 1".to_string());
        }
        if !self.retry_backoff_secs.is_finite() || self.retry_backoff_secs < 0.0 {
            return Err(format!(
                "retry_backoff_secs must be finite and >= 0, got {}",
                self.retry_backoff_secs
            ));
        }
        if self.speculation_threshold < 0.0 || self.speculation_threshold >= 1.0 {
            return Err(format!(
                "speculation_threshold must be in [0, 1), got {}",
                self.speculation_threshold
            ));
        }
        for c in &self.vm_crashes {
            if c.vm as usize >= nvm {
                return Err(format!("vm_crashes references VM {} (nvm = {nvm})", c.vm));
            }
            if !c.at_secs.is_finite() || c.at_secs < 0.0 {
                return Err(format!(
                    "crash time must be finite and >= 0, got {}",
                    c.at_secs
                ));
            }
            if let Some(d) = c.down_secs {
                if !d.is_finite() || d <= 0.0 {
                    return Err(format!("crash down_secs must be finite and > 0, got {d}"));
                }
            }
        }
        // A crash that lands while its VM is down is ignored, and the
        // earlier crash's recovery would then undo it. So the down
        // intervals `[at, at + down]` of one VM may not overlap, and may
        // not touch either: events are sorted stably by time, so a crash
        // listed first would land before the other's same-instant
        // recovery.
        let mut windows: Vec<(u32, f64, f64)> = self
            .vm_crashes
            .iter()
            .map(|c| {
                (
                    c.vm,
                    c.at_secs,
                    c.at_secs + c.down_secs.unwrap_or(f64::INFINITY),
                )
            })
            .collect();
        windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in windows.windows(2) {
            let ((vm, at, end), (next_vm, next_at, _)) = (w[0], w[1]);
            if vm == next_vm && next_at <= end {
                return Err(format!(
                    "vm_crashes overlap on VM {vm}: a crash at {next_at} s lands while the VM \
                     is down from {at} s to {end} s"
                ));
            }
        }
        for w in &self.degradations {
            if let Some(vm) = w.vm {
                if vm as usize >= nvm {
                    return Err(format!("degradation references VM {vm} (nvm = {nvm})"));
                }
            }
            // `end == start` is a zero-duration window: valid, never
            // active (the activity test is half-open), useful as a
            // degenerate sweep endpoint. Only backwards windows are
            // rejected.
            if !(w.start_secs.is_finite() && w.end_secs.is_finite())
                || w.start_secs < 0.0
                || w.end_secs < w.start_secs
            {
                return Err(format!(
                    "degradation window [{}, {}) is invalid",
                    w.start_secs, w.end_secs
                ));
            }
            if !w.multiplier.is_finite() || w.multiplier < 0.0 {
                return Err(format!(
                    "degradation multiplier must be finite and >= 0, got {}",
                    w.multiplier
                ));
            }
        }
        Ok(())
    }
}

/// The RNG for one attempt of one fault-exposed unit of work (a task in
/// the engine, a migration copy in the runtime): keyed by
/// `(seed, uid, attempt)`, not streamed, so runs are reproducible and
/// failure sets couple across fault intensities.
pub fn attempt_rng(seed: u64, uid: u64, attempt: u32) -> StdRng {
    let mut u = seed ^ 0x9e37_79b9_7f4a_7c15;
    u = u.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(uid);
    u = u
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt));
    StdRng::seed_from_u64(u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn any_knob_makes_the_plan_non_empty() {
        assert!(!FaultPlan::with_task_failures(0.1).is_empty());
        let crash = FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 0,
                at_secs: 1.0,
                down_secs: None,
            }],
            ..FaultPlan::default()
        };
        assert!(!crash.is_empty());
        let degrade = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersSsd,
                start_secs: 0.0,
                end_secs: 10.0,
                multiplier: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(!degrade.is_empty());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::with_task_failures(1.5).validate(4).is_err());
        let oob = FaultPlan {
            vm_crashes: vec![VmCrash {
                vm: 9,
                at_secs: 1.0,
                down_secs: None,
            }],
            ..FaultPlan::default()
        };
        assert!(oob.validate(4).is_err());
        let backwards = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersHdd,
                start_secs: 10.0,
                end_secs: 5.0,
                multiplier: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(backwards.validate(4).is_err());
        let no_attempts = FaultPlan {
            max_task_attempts: 0,
            ..FaultPlan::with_task_failures(0.1)
        };
        assert!(no_attempts.validate(4).is_err());
    }

    #[test]
    fn validation_rejects_overlapping_or_touching_crash_windows() {
        let crashes = |list: &[(u32, f64, Option<f64>)]| FaultPlan {
            vm_crashes: list
                .iter()
                .map(|&(vm, at_secs, down_secs)| VmCrash {
                    vm,
                    at_secs,
                    down_secs,
                })
                .collect(),
            ..FaultPlan::default()
        };
        // VM 0 is down 5–25 s; a permanent crash at 10 s would be undone
        // by the first window's recovery. Listing order does not matter.
        let nested = [(0, 5.0, Some(20.0)), (0, 10.0, None)];
        assert!(crashes(&nested).validate(2).is_err());
        assert!(crashes(&[nested[1], nested[0]]).validate(2).is_err());
        // Down 5–10 s, then a crash at exactly 10 s.
        let touching = [(0, 10.0, Some(5.0)), (0, 5.0, Some(5.0))];
        let err = crashes(&touching).validate(2).unwrap_err();
        assert!(err.contains("VM 0"), "{err}");
        // After a permanent crash nothing may follow on that VM.
        assert!(crashes(&[(1, 5.0, None), (1, 500.0, Some(1.0))])
            .validate(2)
            .is_err());
        // Disjoint windows on one VM, and overlapping ones on two VMs.
        assert!(crashes(&[(0, 5.0, Some(5.0)), (0, 10.5, None)])
            .validate(2)
            .is_ok());
        assert!(crashes(&[(0, 5.0, Some(20.0)), (1, 10.0, None)])
            .validate(2)
            .is_ok());
    }

    #[test]
    fn zero_duration_window_is_valid() {
        let degenerate = FaultPlan {
            degradations: vec![DegradationWindow {
                vm: None,
                tier: Tier::PersHdd,
                start_secs: 10.0,
                end_secs: 10.0,
                multiplier: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(degenerate.validate(4).is_ok());
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan {
            task_failure_prob: 0.05,
            vm_crashes: vec![VmCrash {
                vm: 1,
                at_secs: 30.0,
                down_secs: Some(60.0),
            }],
            degradations: vec![DegradationWindow {
                vm: Some(0),
                tier: Tier::ObjStore,
                start_secs: 5.0,
                end_secs: 25.0,
                multiplier: 0.1,
            }],
            ..FaultPlan::default()
        };
        let json = serde_json::to_string(&plan).unwrap();
        // Plans saved by older versions may still carry the retired
        // `objstore_request_failure` field; unknown fields are ignored.
        let old = json.replacen('{', "{\"objstore_request_failure\":0.0,", 1);
        for text in [json, old] {
            let back: FaultPlan = serde_json::from_str(&text).unwrap();
            assert_eq!(back, plan);
        }
    }
}
