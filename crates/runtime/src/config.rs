//! Online-runtime configuration: epoch cadence, replanning policy,
//! hysteresis and admission control.

use serde::{Deserialize, Serialize};

use cast_cloud::units::Duration;

/// When and whether the runtime re-runs the solver at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplanPolicy {
    /// Solve once on the first non-empty batch and never again; later
    /// arrivals are placed by the ingest rule derived from that plan.
    /// This is offline CAST serving an online stream.
    Static,
    /// Re-run the annealer (warm-started from the incumbent) at every
    /// epoch boundary and always adopt the result, migrating data for
    /// every assignment that changed.
    Periodic,
    /// Like [`ReplanPolicy::Periodic`], but the candidate plan is adopted
    /// only when its utility on the epoch's real jobs beats the
    /// incumbent-derived placement by at least `min_gain` (relative).
    /// Small score deltas therefore cause no migrations at all — the
    /// thrash guard.
    Hysteresis {
        /// Minimum relative utility gain required to adopt, e.g. `0.02`
        /// for 2 %.
        min_gain: f64,
    },
}

impl ReplanPolicy {
    /// Short label for tables and result files.
    pub fn label(&self) -> &'static str {
        match self {
            ReplanPolicy::Static => "static",
            ReplanPolicy::Periodic => "periodic",
            ReplanPolicy::Hysteresis { .. } => "hysteresis",
        }
    }
}

/// Deadline-aware admission control for workflow arrivals (CAST++).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit everything (deadline misses happen downstream).
    AcceptAll,
    /// Reject a workflow at its epoch boundary when the estimated
    /// completion — queueing delay already incurred plus the Eq. 4
    /// runtime estimate of each chain job on its ingest tier — exceeds
    /// `slack × deadline`. Rejected workflows never consume cluster time.
    Deadline {
        /// Deadline multiplier: 1.0 rejects exactly at the estimated
        /// deadline, larger values admit more optimistically.
        slack: f64,
    },
}

/// How scheduled data migrations physically move bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum MigrationProtocol {
    /// Destructive move: source blocks are retired while the destination
    /// streams in. Cheapest — one pass over the data — but a fault
    /// mid-move destroys the only copy.
    #[default]
    Unsafe,
    /// Copy→verify→retire: the source is retained until a verification
    /// read of the destination passes; failed copies are retried with
    /// exponential backoff, and on exhaustion the move rolls back to the
    /// intact source. No fault schedule can lose data under this
    /// protocol — it can only waste bandwidth and time.
    CopyVerifyRetire {
        /// Copy attempts (first try + retries) before rolling back.
        max_attempts: u32,
        /// Backoff before the first retry, seconds; doubles per retry.
        backoff_secs: f64,
    },
}

impl MigrationProtocol {
    /// The safe protocol at its default knobs (3 attempts, 5 s backoff).
    pub fn safe() -> MigrationProtocol {
        MigrationProtocol::CopyVerifyRetire {
            max_attempts: 3,
            backoff_secs: 5.0,
        }
    }

    /// Short label for tables and result files.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationProtocol::Unsafe => "unsafe",
            MigrationProtocol::CopyVerifyRetire { .. } => "copy-verify-retire",
        }
    }
}

/// When the runtime may skip the annealer entirely at an epoch boundary
/// and keep serving the incumbent plan.
///
/// Two gates, both of which must pass:
///
/// * **Exact reuse** always applies while `enabled`: if the epoch's
///   planning inputs (canonical spec content, init assignments, warm
///   flag) are bit-identical to the session's last solved epoch, the
///   cached solve *is* the fresh solve — the solver seed is derived from
///   the input content, so re-running it would reproduce the same
///   trajectory. Reusing it is byte-identical by construction.
/// * **Drift-gated reuse** applies when the thresholds are loosened: the
///   batch's drift distance (symmetric difference over per-job
///   [`drift buckets`](cast_workload::Job::drift_key), normalized by
///   batch size) must stay within `max_drift`, *and* the last fresh
///   solve's relative gain over its own incumbent — the same-spec
///   `score_delta` the hysteresis judgement already computed — must be
///   within `max_score_delta`. A marginal last solve on an un-drifted
///   stream predicts the next solve lands inside the hysteresis veto
///   band, so the runtime serves the incumbent without paying for the
///   anneal; a solve that genuinely improved things (or a batch whose
///   shape moved) always re-runs the annealer.
///
/// The defaults (`0.0` thresholds) admit only the exact path, which
/// never changes results; fleet benchmarks loosen them deliberately.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkipPolicy {
    /// Master switch; `false` restores solve-every-epoch behaviour.
    pub enabled: bool,
    /// Largest drift-bucket distance (0 = identical shape multiset)
    /// still eligible for skipping.
    pub max_drift: f64,
    /// Largest relative gain the *last fresh solve* achieved over its own
    /// incumbent (the hysteresis `score_delta`) still eligible for
    /// skipping: a marginal last solve predicts a vetoed next one.
    pub max_score_delta: f64,
}

impl Default for SkipPolicy {
    fn default() -> Self {
        SkipPolicy {
            enabled: true,
            max_drift: 0.0,
            max_score_delta: 0.0,
        }
    }
}

/// Parameters of one online-runtime run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Epoch length: arrivals are batched and the plan reconsidered at
    /// each boundary.
    pub epoch: Duration,
    /// Replanning policy.
    pub policy: ReplanPolicy,
    /// Admission control for deadline workflows.
    pub admission: AdmissionPolicy,
    /// Base seed for per-epoch solver reseeding (decorrelates successive
    /// replans; the run stays a pure function of seed + config).
    pub seed: u64,
    /// How scheduled migrations move bytes. The default,
    /// [`MigrationProtocol::Unsafe`], is the fire-and-forget behaviour
    /// the runtime always had; [`MigrationProtocol::safe`] buys
    /// loss-freedom for extra verify traffic.
    pub protocol: MigrationProtocol,
    /// Probability that one migration copy attempt fails mid-stream
    /// (sampled per attempt from a keyed RNG, so sweeps are monotone).
    /// `0.0` = faultless migrations.
    pub migration_fault_prob: f64,
    /// Replan-skip gate (see [`SkipPolicy`]). `serde(default)` keeps old
    /// serialized configs loadable.
    #[serde(default)]
    pub skip: SkipPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            epoch: Duration::from_mins(30.0),
            policy: ReplanPolicy::Hysteresis { min_gain: 0.02 },
            admission: AdmissionPolicy::AcceptAll,
            seed: 0xCA57_0711,
            protocol: MigrationProtocol::default(),
            migration_fault_prob: 0.0,
            skip: SkipPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinguish_policies() {
        assert_eq!(ReplanPolicy::Static.label(), "static");
        assert_eq!(ReplanPolicy::Periodic.label(), "periodic");
        assert_eq!(
            ReplanPolicy::Hysteresis { min_gain: 0.1 }.label(),
            "hysteresis"
        );
    }

    #[test]
    fn protocol_labels_and_default() {
        assert_eq!(MigrationProtocol::default(), MigrationProtocol::Unsafe);
        assert_eq!(MigrationProtocol::Unsafe.label(), "unsafe");
        assert_eq!(MigrationProtocol::safe().label(), "copy-verify-retire");
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = RuntimeConfig {
            policy: ReplanPolicy::Hysteresis { min_gain: 0.05 },
            admission: AdmissionPolicy::Deadline { slack: 1.2 },
            protocol: MigrationProtocol::safe(),
            migration_fault_prob: 0.25,
            ..RuntimeConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        // Configs saved by older versions may still carry the retired
        // `warm`, `forecast` and `scoring` fields; unknown fields are
        // ignored.
        let old = json.replacen(
            '{',
            "{\"warm\":{\"temp_frac\":0.25,\"iterations\":3000},\
             \"forecast\":false,\"scoring\":\"Analytic\",",
            1,
        );
        for text in [json, old] {
            let back: RuntimeConfig = serde_json::from_str(&text).unwrap();
            assert_eq!(cfg, back);
        }
    }
}
