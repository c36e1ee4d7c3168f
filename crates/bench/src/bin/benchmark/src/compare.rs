//! `--compare A.json B.json`: two sets of runs against the bounds
//! `BENCHMARK.json` declares, one row per (end-to-end metric, workload).

use serde_json::Value;

use crate::stats::{median, quartiles};
use crate::Res;

/// One end-to-end metric's regression bound, as `BENCHMARK.json`
/// declares it.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

impl Bound {
    /// How far B may worsen from a baseline median before it counts:
    /// the relative bound, or the metric's absolute floor where that is
    /// larger (a short set-up time or a small heap moves by whole
    /// milliseconds and mebibytes, whatever its size).
    pub fn allowed(&self, baseline: f64) -> f64 {
        let floor = match self.name.as_str() {
            "setup_s" => 0.05,
            "peak_rss_mb" => 8.0,
            _ => 0.0,
        };
        (self.bound * baseline.abs()).max(floor)
    }
}

pub fn load_bounds(benchmark_json: &str) -> Res<Vec<Bound>> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {benchmark_json}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{benchmark_json}: {e}"))?;
    let metrics = v["end_to_end"]
        .as_array()
        .ok_or_else(|| format!("{benchmark_json} has no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end metric without {k}"))
            };
            Ok(Bound {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m["bound"]
                    .as_f64()
                    .ok_or("end_to_end metric without bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's quartile spread is wider than the bound, so a change the
    /// size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's runs against A's. A wide spread leaves the row unresolved
/// unless every run of B reads better than every run of A.
pub fn verdict(b: &Bound, a_runs: &[f64], b_runs: &[f64]) -> Verdict {
    let (ma, mb) = (median(a_runs), median(b_runs));
    let allowed = b.allowed(ma);
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    // Positive when B reads worse than A.
    let worse_by = if b.lower_is_better { mb - ma } else { ma - mb };
    if spread(a_runs) > allowed || spread(b_runs) > allowed {
        let fold = |xs: &[f64], pick: fn(f64, f64) -> f64| xs.iter().copied().fold(xs[0], pick);
        let every_b_better = if b.lower_is_better {
            fold(b_runs, f64::max) < fold(a_runs, f64::min)
        } else {
            fold(b_runs, f64::min) > fold(a_runs, f64::max)
        };
        return if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The values of `metric` across a set's runs of `workload`.
pub fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set["runs"][workload]
        .as_array()
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r["metrics"][metric]["value"].as_f64())
                .collect()
        })
        .unwrap_or_default()
}

fn read_set(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `median [q1, q3]` of a sample.
pub fn describe(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!("{:.4} [{:.4}, {:.4}]", median(xs), q1, q3)
}

/// Print one row per (metric, workload); returns whether any row reads
/// worse.
pub fn compare(a_path: &str, b_path: &str, benchmark_json: &str) -> Res<bool> {
    let bounds = load_bounds(benchmark_json)?;
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    println!(
        "{:<22} {:<16} {:>30} {:>30} {:>8} {:>6}  verdict",
        "metric", "workload", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    for bound in &bounds {
        for w in crate::workloads::Workload::ALL {
            let (av, bv) = (
                values(&a, w.name(), &bound.name),
                values(&b, w.name(), &bound.name),
            );
            let metric = format!("{} ({})", bound.name, bound.unit);
            if av.is_empty() || bv.is_empty() {
                println!("{metric:<22} {:<16} missing from a set", w.name());
                continue;
            }
            let v = verdict(bound, &av, &bv);
            any_worse |= v == Verdict::Worse;
            let change = median(&bv) / median(&av) - 1.0;
            println!(
                "{metric:<22} {:<16} {:>30} {:>30} {:>+7.2}% {:>5.1}%  {}",
                w.name(),
                describe(&av),
                describe(&bv),
                change * 100.0,
                bound.bound * 100.0,
                v.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::Workload;

    const BENCHMARK_JSON: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");

    fn bound(name: &str, lower: bool, share: f64) -> Bound {
        Bound {
            name: name.into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: share,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let pass = bound("pass_s", true, 0.10);
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&pass, &a, &[1.05, 1.06, 1.04, 1.05, 1.05]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&pass, &a, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&pass, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        let rate = bound("rate", false, 0.10);
        assert_eq!(
            verdict(&rate, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rate, &a, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let pass = bound("pass_s", true, 0.05);
        let noisy = [0.8, 1.2, 0.9, 1.1, 1.0];
        assert_eq!(
            verdict(&pass, &noisy, &[1.3, 1.3, 1.3, 1.3, 1.3]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&pass, &noisy, &[1.0, 1.0, 1.0, 1.0, 1.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&pass, &noisy, &[0.5, 0.6, 0.55, 0.5, 0.6]),
            Verdict::Better
        );
    }

    #[test]
    fn absolute_floors_cover_small_baselines() {
        // 25% of a 0.02 s set-up is 5 ms; the 0.05 s floor allows more.
        let setup = bound("setup_s", true, 0.25);
        let a = [0.020, 0.021, 0.019, 0.020, 0.020];
        assert_eq!(
            verdict(&setup, &a, &[0.060, 0.061, 0.059, 0.060, 0.060]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&setup, &a, &[0.080, 0.081, 0.079, 0.080, 0.080]),
            Verdict::Worse
        );
        // 10% of 40 MiB is 4 MiB; the 8 MiB floor wins.
        let rss = bound("peak_rss_mb", true, 0.10);
        let a = [40.0, 40.1, 39.9, 40.0, 40.0];
        assert_eq!(
            verdict(&rss, &a, &[47.0, 47.1, 46.9, 47.0, 47.0]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&rss, &a, &[49.0, 49.1, 48.9, 49.0, 49.0]),
            Verdict::Worse
        );
        // Above the floor the share rules: 10% of 400 MiB is 40 MiB.
        let a = [400.0, 401.0, 399.0, 400.0, 400.0];
        assert_eq!(
            verdict(&rss, &a, &[430.0, 431.0, 429.0, 430.0, 430.0]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&rss, &a, &[450.0, 451.0, 449.0, 450.0, 450.0]),
            Verdict::Worse
        );
        // Metrics without a floor use the share alone.
        assert_eq!(bound("usd_per_job", true, 0.01).allowed(100.0), 1.0);
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_prints() {
        let text = std::fs::read_to_string(BENCHMARK_JSON).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let bounds = load_bounds(BENCHMARK_JSON).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
    }
}
