//! The online tiering runtime: an event-driven epoch loop over an
//! arrival stream.
//!
//! Offline CAST solves once for a known workload; a production analytics
//! cluster sees jobs *arrive*. [`OnlineRuntime`] bridges the two: it
//! batches arrivals at epoch boundaries, keeps a live per-app ingest rule
//! derived from the incumbent plan, re-runs the annealer warm-started
//! from that incumbent over a rolling horizon of known + forecast jobs,
//! and — when the new plan is adopted — schedules the implied data
//! migrations as explicit transfers that contend for tier bandwidth in
//! the same epoch simulation as the jobs themselves.
//!
//! The machinery lives in [`TenantSession`]:
//! each boundary is planned ([`plan_epoch`](crate::session::TenantSession::plan_epoch))
//! and then executed under a capacity grant
//! ([`execute_epoch`](crate::session::TenantSession::execute_epoch)).
//! `OnlineRuntime::run` is the solo special case — one tenant, every
//! grant full — and is bit-identical to serving the same stream through
//! a fleet scheduler that never contends.
//!
//! The whole loop is a pure function of `(estimator, AnnealConfig,
//! RuntimeConfig, ArrivalStream)`: every random choice flows from seeds,
//! simulated time never reads the wall clock, and the multi-restart
//! annealer picks winners machine-independently, so a run's
//! [`OnlineReport`] is byte-identical across repetitions.

use cast_estimator::Estimator;
use cast_obs::Collector;
use cast_solver::AnnealConfig;
use cast_workload::ArrivalStream;

use crate::config::RuntimeConfig;
use crate::error::RuntimeError;
use crate::report::OnlineReport;
use crate::session::TenantSession;

/// The online tiering service.
pub struct OnlineRuntime<'a> {
    estimator: &'a Estimator,
    anneal: AnnealConfig,
    cfg: RuntimeConfig,
    obs: Collector,
}

/// Epoch-plan and migration events, runtime counters/gauges plus the
/// solver's and simulator's own instrumentation all land in the attached
/// collector. Results are bit-identical to an unobserved run (replan
/// latency is recorded under a `.wall` metric, which determinism checks
/// quarantine).
impl cast_obs::Observe for OnlineRuntime<'_> {
    fn collector_slot(&mut self) -> &mut Collector {
        &mut self.obs
    }
}

impl<'a> OnlineRuntime<'a> {
    /// Create a runtime. `anneal` is the *cold-start* solver schedule;
    /// replans after the first resume from the incumbent on
    /// [`cast_solver::Annealer::resume_from`]'s fixed warm schedule.
    pub fn new(estimator: &'a Estimator, anneal: AnnealConfig, cfg: RuntimeConfig) -> Self {
        OnlineRuntime {
            estimator,
            anneal,
            cfg,
            obs: Collector::noop(),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Open a steppable session over `stream` (the fleet entry point:
    /// plan and execute epochs under external capacity grants).
    pub fn session(&self, stream: ArrivalStream) -> TenantSession<'a> {
        let mut s = TenantSession::new(self.estimator, self.anneal, self.cfg, stream);
        use cast_obs::Observe;
        *s.collector_slot() = self.obs.clone();
        s
    }

    /// Serve the stream to completion and report what happened: every
    /// epoch planned, granted its full capacity demand, and executed.
    pub fn run(&self, stream: &ArrivalStream) -> Result<OnlineReport, RuntimeError> {
        let mut session = self.session(stream.clone());
        for k in 0..session.epoch_count() {
            if let Some(planned) = session.plan_epoch(k)? {
                session.execute_epoch(planned, 1.0)?;
            }
        }
        Ok(session.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::Tier;
    use cast_cloud::units::Duration;
    use cast_cloud::Catalog;
    use cast_estimator::model::{CapacityCurve, ModelMatrix, PhaseBw};
    use cast_estimator::mrcute::ClusterSpec;
    use cast_workload::profile::ProfileSet;
    use cast_workload::{AppKind, ArrivalConfig, ArrivalProcess, DriftConfig};

    use crate::config::{AdmissionPolicy, ReplanPolicy};

    fn estimator(nvm: usize) -> Estimator {
        let mut matrix = ModelMatrix::new();
        for app in AppKind::ALL {
            for tier in Tier::ALL {
                matrix.insert(
                    app,
                    tier,
                    CapacityCurve::fit(&[(
                        375.0,
                        PhaseBw {
                            map: 10.0,
                            shuffle_reduce: 10.0,
                        },
                    )])
                    .unwrap(),
                );
            }
        }
        Estimator {
            matrix,
            catalog: Catalog::google_cloud(),
            cluster: ClusterSpec {
                nvm,
                map_slots: 16,
                reduce_slots: 8,
                task_startup_secs: 1.5,
            },
            profiles: ProfileSet::defaults(),
        }
    }

    fn stream(seed: u64) -> ArrivalStream {
        cast_workload::arrival::generate(&ArrivalConfig {
            seed,
            horizon: Duration::from_mins(90.0),
            process: ArrivalProcess::Poisson {
                jobs_per_hour: 10.0,
            },
            drift: DriftConfig {
                app_shift: 0.5,
                size_growth: 0.5,
            },
            workflow_fraction: 0.2,
            max_bin: 4,
        })
        .unwrap()
    }

    fn quick_anneal(iterations: usize) -> AnnealConfig {
        AnnealConfig {
            iterations,
            restarts: 1,
            ..AnnealConfig::default()
        }
    }

    fn quick_cfg(policy: ReplanPolicy) -> RuntimeConfig {
        RuntimeConfig {
            epoch: Duration::from_mins(30.0),
            policy,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn serves_a_stream_end_to_end() {
        let est = estimator(4);
        let rt = OnlineRuntime::new(&est, quick_anneal(600), quick_cfg(ReplanPolicy::Periodic));
        let report = rt.run(&stream(7)).unwrap();
        assert!(!report.epochs.is_empty());
        assert_eq!(report.jobs_completed, stream(7).total_jobs());
        assert!(report.total_cost > 0.0);
        for e in &report.epochs {
            assert!(e.start_secs >= e.boundary_secs, "batches never run early");
            assert!(e.makespan_secs > 0.0);
        }
        // Periodic replans at every non-empty boundary and always adopts.
        assert!(report.epochs.iter().all(|e| e.replanned && e.adopted));
    }

    #[test]
    fn static_policy_solves_once_and_never_migrates_again() {
        let est = estimator(4);
        let rt = OnlineRuntime::new(&est, quick_anneal(600), quick_cfg(ReplanPolicy::Static));
        let report = rt.run(&stream(7)).unwrap();
        let replans: Vec<bool> = report.epochs.iter().map(|e| e.replanned).collect();
        assert_eq!(replans.iter().filter(|&&r| r).count(), 1);
        assert!(replans[0], "the first non-empty batch triggers the solve");
        // After the one solve, later epochs run pure ingest: no churn.
        for e in report.epochs.iter().skip(1) {
            assert_eq!((e.churn, e.migrations), (0, 0));
        }
    }

    #[test]
    fn hysteresis_never_migrates_more_than_periodic() {
        let est = estimator(4);
        let periodic =
            OnlineRuntime::new(&est, quick_anneal(600), quick_cfg(ReplanPolicy::Periodic))
                .run(&stream(7))
                .unwrap();
        let hysteresis = OnlineRuntime::new(
            &est,
            quick_anneal(600),
            quick_cfg(ReplanPolicy::Hysteresis { min_gain: 0.05 }),
        )
        .run(&stream(7))
        .unwrap();
        assert!(hysteresis.migrated_mb <= periodic.migrated_mb);
        // Vetoed boundaries must not move data at all.
        for e in &hysteresis.epochs {
            if !e.adopted {
                assert_eq!(e.migrations, 0);
                assert_eq!(e.migrated_mb, 0.0);
            }
        }
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let est = estimator(4);
        let run = || {
            let cfg = quick_cfg(ReplanPolicy::Hysteresis { min_gain: 0.02 });
            let rt = OnlineRuntime::new(&est, quick_anneal(600), cfg);
            serde_json::to_string(&rt.run(&stream(11)).unwrap()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn session_with_full_grants_matches_run() {
        // The steppable session under all-full grants IS the solo loop:
        // same stream, same config ⇒ byte-identical report.
        let est = estimator(4);
        let cfg = quick_cfg(ReplanPolicy::Hysteresis { min_gain: 0.02 });
        let rt = OnlineRuntime::new(&est, quick_anneal(600), cfg);
        let direct = serde_json::to_string(&rt.run(&stream(11)).unwrap()).unwrap();
        let mut session = rt.session(stream(11));
        for k in 0..session.epoch_count() {
            if let Some(p) = session.plan_epoch(k).unwrap() {
                session.execute_epoch(p, 1.0).unwrap();
            }
        }
        let stepped = serde_json::to_string(&session.finish()).unwrap();
        assert_eq!(direct, stepped);
    }

    #[test]
    fn deferred_epochs_carry_their_batch_forward() {
        let est = estimator(4);
        let cfg = quick_cfg(ReplanPolicy::Periodic);
        let rt = OnlineRuntime::new(&est, quick_anneal(600), cfg);
        // Defer the first planned boundary, grant everything after.
        let mut session = rt.session(stream(7));
        let mut deferred_once = false;
        let mut planned_jobs = Vec::new();
        for k in 0..session.epoch_count() {
            if let Some(p) = session.plan_epoch(k).unwrap() {
                if !deferred_once {
                    deferred_once = true;
                    planned_jobs.push(p.jobs());
                    session.defer_epoch(p);
                } else {
                    planned_jobs.push(p.jobs());
                    session.execute_epoch(p, 1.0).unwrap();
                }
            }
        }
        assert!(deferred_once);
        assert_eq!(session.deferrals(), 1);
        let report = session.finish();
        // Nothing is lost: the deferred batch's jobs execute later.
        assert_eq!(report.jobs_completed, stream(7).total_jobs());
        // The boundary after the deferral served both batches.
        assert!(planned_jobs[1] >= planned_jobs[0]);
    }

    #[test]
    fn partial_grants_slow_the_epoch_but_lose_nothing() {
        let est = estimator(4);
        let cfg = quick_cfg(ReplanPolicy::Periodic);
        let rt = OnlineRuntime::new(&est, quick_anneal(600), cfg);
        let serve = |frac: f64| {
            let mut session = rt.session(stream(7));
            for k in 0..session.epoch_count() {
                if let Some(p) = session.plan_epoch(k).unwrap() {
                    session.execute_epoch(p, frac).unwrap();
                }
            }
            session.finish()
        };
        let full = serve(1.0);
        let half = serve(0.5);
        assert_eq!(half.jobs_completed, full.jobs_completed);
        // Less provisioned capacity ⇒ slower volumes ⇒ longer epochs.
        let span = |r: &OnlineReport| -> f64 { r.epochs.iter().map(|e| e.makespan_secs).sum() };
        assert!(
            span(&half) > span(&full),
            "half grant {} vs full {}",
            span(&half),
            span(&full)
        );
    }

    #[test]
    fn default_protocol_matches_pre_protocol_behaviour() {
        // Faultless unsafe is the identity lowering: a run configured
        // explicitly is bit-identical to the default.
        let est = estimator(4);
        let run = |cfg: RuntimeConfig| {
            let rt = OnlineRuntime::new(&est, quick_anneal(600), cfg);
            serde_json::to_string(&rt.run(&stream(11)).unwrap()).unwrap()
        };
        let default = run(quick_cfg(ReplanPolicy::Periodic));
        let explicit = run(RuntimeConfig {
            protocol: crate::config::MigrationProtocol::Unsafe,
            migration_fault_prob: 0.0,
            ..quick_cfg(ReplanPolicy::Periodic)
        });
        assert_eq!(default, explicit);
    }

    #[test]
    fn safe_protocol_never_loses_data_where_unsafe_does() {
        let est = estimator(4);
        let run = |protocol: crate::config::MigrationProtocol, prob: f64| {
            let cfg = RuntimeConfig {
                protocol,
                migration_fault_prob: prob,
                ..quick_cfg(ReplanPolicy::Periodic)
            };
            OnlineRuntime::new(&est, quick_anneal(600), cfg)
                .run(&stream(7))
                .unwrap()
        };
        let unsafe_run = run(crate::config::MigrationProtocol::Unsafe, 0.9);
        let safe_run = run(crate::config::MigrationProtocol::safe(), 0.9);
        assert!(
            unsafe_run.datasets_lost > 0,
            "a 90% fault rate must destroy data under fire-and-forget"
        );
        assert_eq!(safe_run.datasets_lost, 0, "CVR must never lose data");
        assert!(
            safe_run.migration_retries > 0,
            "survival is paid for in retries"
        );
        // The protocol's costs are visible: verify traffic and backoff.
        let verify: f64 = safe_run.epochs.iter().map(|e| e.verify_mb).sum();
        assert!(verify > 0.0);
        let faultless = run(crate::config::MigrationProtocol::safe(), 0.0);
        assert_eq!(faultless.datasets_lost, 0);
        assert_eq!(faultless.migration_retries, 0);
    }

    #[test]
    fn deadline_admission_rejects_hopeless_workflows() {
        let est = estimator(2);
        let mut cfg = quick_cfg(ReplanPolicy::Periodic);
        cfg.admission = AdmissionPolicy::Deadline { slack: 1e-6 };
        let rt = OnlineRuntime::new(&est, quick_anneal(400), cfg);
        let strict = rt.run(&stream(7)).unwrap();
        // With essentially zero slack every workflow is turned away, and
        // rejected workflows never execute or miss deadlines.
        assert!(strict.rejected > 0);
        assert_eq!(strict.deadline_misses, 0);
        let mut cfg = quick_cfg(ReplanPolicy::Periodic);
        cfg.admission = AdmissionPolicy::AcceptAll;
        let rt = OnlineRuntime::new(&est, quick_anneal(400), cfg);
        let open = rt.run(&stream(7)).unwrap();
        assert_eq!(open.rejected, 0);
        assert!(open.jobs_completed > strict.jobs_completed);
    }

    /// One single-job arrival per 30-minute epoch; ids are unique but
    /// the shape at epoch `k` is whatever `gb`/`app` return.
    fn shaped_stream(
        epochs: u32,
        gb: impl Fn(u32) -> f64,
        app: impl Fn(u32) -> AppKind,
    ) -> ArrivalStream {
        use cast_cloud::units::DataSize;
        use cast_workload::dataset::{Dataset, DatasetId};
        use cast_workload::{Arrival, Job, JobId};
        let arrivals = (0..epochs)
            .map(|k| {
                let ds = DatasetId(k);
                let size = DataSize::from_gb(gb(k));
                Arrival {
                    at: Duration::from_mins(30.0 * k as f64 + 5.0),
                    jobs: vec![Job::with_default_layout(JobId(k), app(k), ds, size)],
                    datasets: vec![Dataset::single_use(ds, size)],
                    workflow: None,
                }
            })
            .collect();
        ArrivalStream {
            arrivals,
            horizon: Duration::from_mins(30.0 * epochs as f64),
        }
    }

    /// Serve `s` stepwise and return (report JSON, per-epoch provenance,
    /// per-epoch replanned flags).
    fn serve_stepped(
        est: &Estimator,
        skip: crate::SkipPolicy,
        s: &ArrivalStream,
    ) -> (String, Vec<crate::PlanProvenance>, Vec<bool>) {
        let mut cfg = quick_cfg(ReplanPolicy::Periodic);
        cfg.skip = skip;
        let rt = OnlineRuntime::new(est, quick_anneal(400), cfg);
        let mut session = rt.session(s.clone());
        let mut provs = Vec::new();
        for k in 0..session.epoch_count() {
            if let Some(p) = session.plan_epoch(k).unwrap() {
                provs.push(p.provenance());
                session.execute_epoch(p, 1.0).unwrap();
            }
        }
        let report = session.finish();
        let replanned = report.epochs.iter().map(|e| e.replanned).collect();
        (serde_json::to_string(&report).unwrap(), provs, replanned)
    }

    #[test]
    fn exact_skip_replays_the_cached_solve_bit_for_bit() {
        // A stream repeating the identical batch shape every epoch:
        // once the ingest map settles, canonical inputs stop changing
        // and the exact gate serves the cached product. Because the
        // solver seed is content-derived, the gated report must be
        // byte-identical to an always-fresh run — and the gate must
        // actually fire, or the identity is vacuous.
        let est = estimator(4);
        let s = shaped_stream(5, |_| 12.0, |_| AppKind::Grep);
        let off = crate::SkipPolicy {
            enabled: false,
            ..crate::SkipPolicy::default()
        };
        let (fresh, fresh_provs, _) = serve_stepped(&est, off, &s);
        assert!(fresh_provs
            .iter()
            .all(|p| *p == crate::PlanProvenance::Fresh));
        let (fast, provs, replanned) = serve_stepped(&est, crate::SkipPolicy::default(), &s);
        let skips = provs
            .iter()
            .filter(|p| **p == crate::PlanProvenance::Skipped)
            .count();
        assert!(skips > 0, "a repeating batch must hit the exact cache");
        // The exact path replays a real solve: epochs still count as
        // replanned, unlike the drift gate's seal-without-solve.
        assert!(replanned.iter().all(|&r| r));
        assert_eq!(fresh, fast);
    }

    #[test]
    fn drift_gate_skips_stable_shapes_but_never_drifted_ones() {
        let est = estimator(4);
        // A wide-open score tolerance leaves the drift distance as the
        // gate's only guard.
        let gate = crate::SkipPolicy {
            enabled: true,
            max_drift: 0.25,
            max_score_delta: 1e9,
        };
        // Sizes wobble inside one power-of-two bucket: drift distance 0,
        // but canonical inputs differ so the exact path can't hit — any
        // skip is the soft gate's (replanned == false).
        let stable = shaped_stream(5, |k| 12.0 + 0.1 * k as f64, |_| AppKind::Grep);
        let (_, provs, replanned) = serve_stepped(&est, gate, &stable);
        assert!(
            replanned.iter().any(|&r| !r),
            "a shape-stable stream must soft-skip ({provs:?})"
        );
        // The app mix flips every boundary: each batch's class multiset
        // is disjoint from the cache (distance 1.0 > 0.25), so every
        // epoch must solve fresh no matter how loose the score gate is.
        let drifted = shaped_stream(
            5,
            |_| 12.0,
            |k| {
                if k % 2 == 0 {
                    AppKind::Grep
                } else {
                    AppKind::Sort
                }
            },
        );
        let (_, provs, replanned) = serve_stepped(&est, gate, &drifted);
        assert!(
            replanned.iter().all(|&r| r),
            "a drifted batch must never be skipped ({provs:?})"
        );
        assert!(provs.iter().all(|p| *p == crate::PlanProvenance::Fresh));
    }

    #[test]
    fn non_positive_epochs_are_rejected() {
        // Unchecked, a zero epoch makes `ceil(horizon / epoch)` u32::MAX
        // idle boundaries and a negative one serves nothing: both must
        // be errors, not an empty `Ok` report.
        let est = estimator(4);
        for mins in [-30.0, 0.0, f64::NAN] {
            let cfg = RuntimeConfig {
                epoch: Duration::from_mins(mins),
                ..quick_cfg(ReplanPolicy::Periodic)
            };
            let err = OnlineRuntime::new(&est, quick_anneal(300), cfg)
                .run(&stream(7))
                .expect_err("a non-positive epoch must be rejected");
            assert!(
                matches!(err, RuntimeError::InvalidEpoch(_)),
                "epoch {mins} min: {err}"
            );
        }
    }

    #[test]
    fn overrunning_batches_push_the_next_epoch_start() {
        let est = estimator(2);
        // A tiny cluster with a dense stream: batches overrun their
        // epochs, so later starts must trail the running clock.
        let s = cast_workload::arrival::generate(&ArrivalConfig {
            seed: 3,
            horizon: Duration::from_mins(60.0),
            process: ArrivalProcess::Poisson {
                jobs_per_hour: 60.0,
            },
            drift: DriftConfig::none(),
            workflow_fraction: 0.0,
            max_bin: 5,
        })
        .unwrap();
        let cfg = RuntimeConfig {
            epoch: Duration::from_mins(10.0),
            policy: ReplanPolicy::Static,
            ..RuntimeConfig::default()
        };
        let rt = OnlineRuntime::new(&est, quick_anneal(300), cfg);
        let report = rt.run(&s).unwrap();
        assert!(
            report
                .epochs
                .iter()
                .any(|e| e.start_secs > e.boundary_secs + 1e-9),
            "expected at least one delayed batch on a saturated cluster"
        );
    }
}
