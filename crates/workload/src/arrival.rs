//! Timestamped job-arrival streams for the online runtime.
//!
//! The paper's evaluation replays a fixed 100-job batch (§5.1.1); a serving
//! system instead sees jobs *arrive* over time. This module synthesizes
//! deterministic arrival streams whose marginal job-size distribution still
//! follows the Facebook trace bins of Table 4, while the arrival process and
//! the workload mix are free to vary:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a fixed mean rate
//!   (exponential inter-arrival times);
//! * [`ArrivalProcess::Bursty`] — a periodic on/off modulation of the
//!   Poisson rate (diurnal load, batch windows);
//! * [`DriftConfig`] — *workload drift*: the application mix shifts from
//!   I/O-light toward shuffle-heavy apps and dataset sizes grow over the
//!   horizon, so a plan solved at `t = 0` ages badly by design.
//!
//! Every stream is a pure function of its [`ArrivalConfig`] (seeded
//! `StdRng`), so replays are bit-identical.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cast_cloud::units::{DataSize, Duration};

use crate::apps::AppKind;
use crate::dataset::{Dataset, DatasetId};
use crate::error::WorkloadError;
use crate::facebook::table4;
use crate::job::{Job, JobId};
use crate::spec::WorkloadSpec;
use crate::workflow::{Workflow, WorkflowId};

/// The stochastic process generating arrival instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times with the given
    /// mean rate.
    Poisson {
        /// Mean arrival rate (jobs per hour).
        jobs_per_hour: f64,
    },
    /// A periodic on/off burst pattern: during the first `duty` fraction of
    /// every `period` the rate is `jobs_per_hour × burst_factor`; the rest
    /// of the period is quiet, scaled so the long-run mean stays close to
    /// `jobs_per_hour`.
    Bursty {
        /// Long-run mean arrival rate (jobs per hour).
        jobs_per_hour: f64,
        /// Rate multiplier inside a burst window (must be ≥ 1).
        burst_factor: f64,
        /// Burst cycle length.
        period: Duration,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        duty: f64,
    },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate at time `t`, in jobs per second.
    fn rate_per_sec(&self, t: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { jobs_per_hour } => jobs_per_hour / 3600.0,
            ArrivalProcess::Bursty {
                jobs_per_hour,
                burst_factor,
                period,
                duty,
            } => {
                let base = jobs_per_hour / 3600.0;
                let phase = (t % period.secs().max(1e-9)) / period.secs().max(1e-9);
                if phase < duty {
                    base * burst_factor
                } else {
                    // Quiet-phase rate chosen so the period-average rate is
                    // the nominal one (floored: bursts above 1/duty would
                    // otherwise demand a negative quiet rate).
                    base * ((1.0 - duty * burst_factor) / (1.0 - duty)).max(0.05)
                }
            }
        }
    }
}

/// How the workload changes over the stream's horizon. Both knobs ramp
/// linearly from zero effect at `t = 0` to full effect at `t = horizon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Application-mix shift strength in `[0, 1]`: probability mass moves
    /// from the last half of [`AppKind::TABLE2`] (Grep, KMeans — I/O-light
    /// per byte) toward the first half (Sort, Join — shuffle-heavy). At 0
    /// the mix stays uniform.
    pub app_shift: f64,
    /// Fractional dataset-size growth by the end of the horizon (0.5 ⇒
    /// a job drawn at `t = horizon` is 1.5× its Table 4 bin size).
    pub size_growth: f64,
}

impl DriftConfig {
    /// No drift: stationary mix and sizes.
    pub fn none() -> DriftConfig {
        DriftConfig {
            app_shift: 0.0,
            size_growth: 0.0,
        }
    }
}

/// Parameters of one synthetic arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// RNG seed; the stream is a pure function of this config.
    pub seed: u64,
    /// Stream length; no arrival instant exceeds it.
    pub horizon: Duration,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Workload drift over the horizon.
    pub drift: DriftConfig,
    /// Fraction of arrivals that are small deadline-bearing workflows
    /// (3-job chains) instead of single jobs, in `[0, 1]`.
    pub workflow_fraction: f64,
    /// Highest Table 4 bin to draw from (1–7). Smoke tests and debug-build
    /// integration tests cap this at 4 (≤ 50 maps) to stay fast; 7 keeps
    /// the full trace distribution.
    pub max_bin: usize,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            seed: 0xCA57,
            horizon: Duration::from_hours(2.0),
            process: ArrivalProcess::Poisson {
                jobs_per_hour: 40.0,
            },
            drift: DriftConfig {
                app_shift: 0.6,
                size_growth: 0.5,
            },
            workflow_fraction: 0.15,
            max_bin: 7,
        }
    }
}

/// One arrival: a single job, or a small workflow with a deadline relative
/// to its submission instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Submission instant (stream-relative).
    pub at: Duration,
    /// The submitted jobs (one for a plain job, several for a workflow).
    pub jobs: Vec<Job>,
    /// Their input datasets (one per job; arrivals do not share data).
    pub datasets: Vec<Dataset>,
    /// Present when the arrival is a deadline-bearing workflow. The
    /// deadline is relative to `at`.
    pub workflow: Option<Workflow>,
}

impl Arrival {
    /// Total input bytes submitted by this arrival.
    pub fn input_bytes(&self) -> DataSize {
        self.jobs.iter().map(|j| j.input).sum()
    }
}

/// A complete timestamped stream, sorted by arrival instant, with globally
/// unique job / dataset / workflow ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalStream {
    /// Arrivals in non-decreasing `at` order.
    pub arrivals: Vec<Arrival>,
    /// The configured horizon.
    pub horizon: Duration,
}

impl ArrivalStream {
    /// Arrivals with `t0 <= at < t1`.
    pub fn window(&self, t0: Duration, t1: Duration) -> &[Arrival] {
        let lo = self.arrivals.partition_point(|a| a.at.secs() < t0.secs());
        let hi = self.arrivals.partition_point(|a| a.at.secs() < t1.secs());
        &self.arrivals[lo..hi]
    }

    /// Total jobs across all arrivals.
    pub fn total_jobs(&self) -> usize {
        self.arrivals.iter().map(|a| a.jobs.len()).sum()
    }

    /// Mean inter-arrival gap in seconds (`None` for fewer than two
    /// arrivals).
    pub fn mean_interarrival_secs(&self) -> Option<f64> {
        match self.arrivals.as_slice() {
            [first, .., last] => {
                let span = last.at.secs() - first.at.secs();
                Some(span / (self.arrivals.len() - 1) as f64)
            }
            _ => None,
        }
    }
}

/// Assemble a [`WorkloadSpec`] from a set of arrivals (the runtime's
/// per-epoch batch). Workflow deadlines stay arrival-relative; callers
/// account queueing delay separately.
pub fn assemble_spec<'a>(arrivals: impl IntoIterator<Item = &'a Arrival>) -> WorkloadSpec {
    let mut spec = WorkloadSpec::empty();
    for a in arrivals {
        spec.jobs.extend(a.jobs.iter().copied());
        spec.datasets.extend(a.datasets.iter().cloned());
        if let Some(wf) = &a.workflow {
            spec.workflows.push(wf.clone());
        }
    }
    spec
}

/// Synthesize a deterministic arrival stream.
pub fn generate(cfg: &ArrivalConfig) -> Result<ArrivalStream, WorkloadError> {
    if !(0.0..=1.0).contains(&cfg.workflow_fraction) {
        return Err(WorkloadError::BadSynthesisParameter("workflow_fraction"));
    }
    if !(0.0..=1.0).contains(&cfg.drift.app_shift) || cfg.drift.size_growth < 0.0 {
        return Err(WorkloadError::BadSynthesisParameter("drift"));
    }
    if cfg.max_bin == 0 || cfg.max_bin > 7 {
        return Err(WorkloadError::BadSynthesisParameter("max_bin"));
    }
    if let ArrivalProcess::Bursty {
        burst_factor, duty, ..
    } = cfg.process
    {
        if burst_factor < 1.0 || !(0.0..1.0).contains(&duty) || duty == 0.0 {
            return Err(WorkloadError::BadSynthesisParameter("burst"));
        }
    }

    let bins: Vec<_> = table4()
        .into_iter()
        .filter(|b| b.bin <= cfg.max_bin)
        .collect();
    let weight_total: f64 = bins.iter().map(|b| b.workload_jobs as f64).sum();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = Vec::new();
    let mut next_job = 0u32;
    let mut next_ds = 0u32;
    let mut t = 0.0_f64;
    let horizon = cfg.horizon.secs();

    loop {
        // Thinning-free variable-rate sampling: draw the exponential gap at
        // the *current* instantaneous rate. Exact for Poisson; for the
        // bursty process it is the standard piecewise approximation (gaps
        // are short relative to the burst period at the rates we model).
        let rate = cfg.process.rate_per_sec(t);
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate.max(1e-12);
        if t > horizon {
            break;
        }
        let frac = (t / horizon).clamp(0.0, 1.0);
        let is_workflow = rng.gen::<f64>() < cfg.workflow_fraction;
        let n_jobs = if is_workflow { 3 } else { 1 };

        let mut jobs = Vec::with_capacity(n_jobs);
        let mut datasets = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            // Table 4 bin, by synthesized-workload job share.
            let mut pick = rng.gen::<f64>() * weight_total;
            let mut bin = &bins[0];
            for b in &bins {
                pick -= b.workload_jobs as f64;
                if pick <= 0.0 {
                    bin = b;
                    break;
                }
            }
            // Dataset-size drift: bins grow linearly over the horizon.
            let input = bin.input_size() * (1.0 + cfg.drift.size_growth * frac);
            let maps = (input.mb() / 256.0).ceil().max(1.0) as usize;
            // App-mix drift: mass moves from the back half of TABLE2
            // (Grep, KMeans) to the front half (Sort, Join).
            let s = cfg.drift.app_shift * frac;
            let apps = AppKind::TABLE2;
            let w = [1.0 + s, 1.0 + s, 1.0 - s, 1.0 - s];
            let wsum: f64 = w.iter().sum();
            let mut pick = rng.gen::<f64>() * wsum;
            let mut app = apps[0];
            for (a, wi) in apps.iter().zip(w.iter()) {
                pick -= wi;
                if pick <= 0.0 {
                    app = *a;
                    break;
                }
            }
            let ds = DatasetId(next_ds);
            next_ds += 1;
            datasets.push(Dataset::single_use(ds, input));
            jobs.push(Job {
                id: JobId(next_job),
                app,
                dataset: ds,
                input,
                maps,
                reduces: (maps / 4).max(1),
            });
            next_job += 1;
        }

        let workflow = is_workflow.then(|| {
            // A 3-job chain with a deadline loose enough to be feasible on
            // a fast tier but tight enough that queueing can miss it.
            let deadline = Duration::from_mins(rng.gen_range(20.0..45.0));
            Workflow::chain(
                WorkflowId(jobs[0].id.0),
                jobs.iter().map(|j| j.id).collect(),
                deadline,
            )
        });

        arrivals.push(Arrival {
            at: Duration::from_secs(t),
            jobs,
            datasets,
            workflow,
        });
    }

    Ok(ArrivalStream {
        arrivals,
        horizon: cfg.horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_cfg() -> ArrivalConfig {
        ArrivalConfig {
            horizon: Duration::from_hours(50.0),
            process: ArrivalProcess::Poisson {
                jobs_per_hour: 60.0,
            },
            drift: DriftConfig::none(),
            workflow_fraction: 0.0,
            ..ArrivalConfig::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&ArrivalConfig::default()).unwrap();
        let b = generate(&ArrivalConfig::default()).unwrap();
        assert_eq!(a, b);
        let c = generate(&ArrivalConfig {
            seed: 99,
            ..ArrivalConfig::default()
        })
        .unwrap();
        assert_ne!(a, c, "different seed must give a different stream");
    }

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        let stream = generate(&long_cfg()).unwrap();
        let mean = stream.mean_interarrival_secs().unwrap();
        // 60 jobs/hour ⇒ 60 s mean gap; ~3000 samples ⇒ a few % of noise.
        assert!(
            (mean - 60.0).abs() / 60.0 < 0.10,
            "mean inter-arrival {mean} s, expected ~60 s"
        );
    }

    #[test]
    fn bin_proportions_follow_table4() {
        let stream = generate(&long_cfg()).unwrap();
        let n = stream.total_jobs() as f64;
        assert!(n > 2000.0, "need a long stream for stable proportions");
        for bin in table4() {
            let expect = bin.workload_jobs as f64 / 100.0;
            let got = stream
                .arrivals
                .iter()
                .flat_map(|a| &a.jobs)
                .filter(|j| j.maps == bin.workload_maps)
                .count() as f64
                / n;
            assert!(
                (got - expect).abs() < 0.03,
                "bin {}: got {got:.3}, want {expect:.3}",
                bin.bin
            );
        }
    }

    #[test]
    fn drift_grows_sizes_and_shifts_mix() {
        let cfg = ArrivalConfig {
            horizon: Duration::from_hours(50.0),
            process: ArrivalProcess::Poisson {
                jobs_per_hour: 60.0,
            },
            drift: DriftConfig {
                app_shift: 0.8,
                size_growth: 1.0,
            },
            workflow_fraction: 0.0,
            ..ArrivalConfig::default()
        };
        let stream = generate(&cfg).unwrap();
        let half = cfg.horizon.secs() / 2.0;
        let (mut early_b, mut late_b) = (0.0, 0.0);
        let (mut early_n, mut late_n) = (0.0, 0.0);
        let (mut early_heavy, mut late_heavy) = (0.0, 0.0);
        for a in &stream.arrivals {
            let heavy = a
                .jobs
                .iter()
                .filter(|j| matches!(j.app, AppKind::Sort | AppKind::Join))
                .count() as f64;
            if a.at.secs() < half {
                early_b += a.input_bytes().gb();
                early_n += a.jobs.len() as f64;
                early_heavy += heavy;
            } else {
                late_b += a.input_bytes().gb();
                late_n += a.jobs.len() as f64;
                late_heavy += heavy;
            }
        }
        assert!(
            late_b / late_n > 1.2 * (early_b / early_n),
            "size drift must grow mean job size"
        );
        assert!(
            late_heavy / late_n > early_heavy / early_n + 0.1,
            "app drift must shift mass toward shuffle-heavy apps"
        );
    }

    #[test]
    fn bursty_concentrates_arrivals_in_duty_windows() {
        let period = Duration::from_hours(1.0);
        let stream = generate(&ArrivalConfig {
            horizon: Duration::from_hours(40.0),
            process: ArrivalProcess::Bursty {
                jobs_per_hour: 60.0,
                burst_factor: 4.0,
                period,
                duty: 0.2,
            },
            drift: DriftConfig::none(),
            workflow_fraction: 0.0,
            ..ArrivalConfig::default()
        })
        .unwrap();
        let in_burst = stream
            .arrivals
            .iter()
            .filter(|a| (a.at.secs() % period.secs()) / period.secs() < 0.2)
            .count() as f64;
        let frac = in_burst / stream.arrivals.len() as f64;
        // 20 % of the time carries 4× the rate ⇒ ~50 % of arrivals.
        assert!(frac > 0.4, "burst windows carry {frac:.2} of arrivals");
    }

    #[test]
    fn workflows_appear_with_requested_frequency_and_validate() {
        let stream = generate(&ArrivalConfig {
            horizon: Duration::from_hours(20.0),
            workflow_fraction: 0.3,
            drift: DriftConfig::none(),
            ..ArrivalConfig::default()
        })
        .unwrap();
        let wfs = stream
            .arrivals
            .iter()
            .filter(|a| a.workflow.is_some())
            .count() as f64;
        let frac = wfs / stream.arrivals.len() as f64;
        assert!((frac - 0.3).abs() < 0.08, "workflow fraction {frac:.2}");
        for a in &stream.arrivals {
            if let Some(wf) = &a.workflow {
                assert!(wf.validate().is_ok());
                assert_eq!(wf.jobs.len(), 3);
            }
        }
    }

    #[test]
    fn assembled_windows_validate_and_partition_the_stream() {
        let stream = generate(&ArrivalConfig::default()).unwrap();
        let epoch = Duration::from_mins(30.0);
        let mut seen = 0usize;
        let mut t0 = Duration::ZERO;
        while t0.secs() < stream.horizon.secs() {
            let t1 = t0 + epoch;
            let spec = assemble_spec(stream.window(t0, t1));
            spec.validate().expect("window spec validates");
            seen += spec.jobs.len();
            t0 = t1;
        }
        assert_eq!(seen, stream.total_jobs());
    }

    #[test]
    fn bad_parameters_rejected() {
        for cfg in [
            ArrivalConfig {
                workflow_fraction: 1.5,
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                max_bin: 0,
                ..ArrivalConfig::default()
            },
            ArrivalConfig {
                process: ArrivalProcess::Bursty {
                    jobs_per_hour: 10.0,
                    burst_factor: 0.5,
                    period: Duration::from_hours(1.0),
                    duty: 0.2,
                },
                ..ArrivalConfig::default()
            },
        ] {
            assert!(generate(&cfg).is_err());
        }
    }
}
