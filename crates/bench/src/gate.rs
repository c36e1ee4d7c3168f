//! The regression gate shared by the perf bins (`sim_scale`,
//! `runtime_epoch`, `tenant_scale`).
//!
//! ```text
//! <bin> [--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]
//! ```
//!
//! * `--smoke` runs the bin's CI-sized configuration.
//! * `--out` writes the JSON report to a file (it is always printed).
//! * `--check` loads a committed baseline and fails the run (exit 1) if
//!   any [`Check`] the bin builds against it fails.
//! * `--tolerance` is the fraction a rate may fall, or a latency rise,
//!   before its check fails (default 25%).
//!
//! Wall-time checks carry the tolerance; deterministic work counters
//! (engine steps, anneal moves, solves, …) must match exactly. The
//! baseline is parsed as a generic [`serde_json::Value`], not into the
//! bin's report type: the vendored serde shim hard-errors on missing
//! fields, and baselines outlive the report schema. A check whose
//! baseline field is absent or null is reported and skipped.

use serde_json::Value;

/// The flags every gated bin accepts.
const USAGE: &str = "[--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]";

/// Parsed command line of a gated bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Run the CI-sized configuration.
    pub smoke: bool,
    /// Where to write the JSON report, besides stdout.
    pub out: Option<String>,
    /// Baseline JSON to check the report against.
    pub check: Option<String>,
    /// Allowed relative slack on wall-time checks.
    pub tolerance: f64,
}

impl Args {
    /// Parse `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            smoke: false,
            out: None,
            check: None,
            tolerance: 0.25,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = Some(value()?),
                "--check" => parsed.check = Some(value()?),
                "--tolerance" => {
                    let raw = value()?;
                    parsed.tolerance = raw
                        .parse()
                        .ok()
                        .filter(|t: &f64| *t >= 0.0)
                        .ok_or(format!("--tolerance {raw}: not a non-negative fraction"))?;
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(parsed)
    }

    /// Parse the process arguments; on error print the usage line for
    /// `bin` and exit 2.
    pub fn from_env(bin: &str) -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("{err}");
            eprintln!("usage: {bin} {USAGE}");
            std::process::exit(2);
        })
    }

    /// The report's `mode` field.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// How a current value must relate to its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A rate: may fall below the baseline by at most the tolerance.
    AtLeast,
    /// A latency: may rise above the baseline by at most the tolerance.
    AtMost,
    /// A deterministic work counter: must equal the baseline.
    Exact,
}

/// One gated comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is compared, e.g. `nvm=25 jobs=100 steps`.
    pub label: String,
    /// The value this run measured.
    pub current: f64,
    /// The baseline's value; `None` when the baseline lacks the field.
    pub baseline: Option<f64>,
    /// The comparison.
    pub kind: Kind,
}

impl Check {
    /// Compare `current` against the numeric JSON `baseline` (absent or
    /// null fields read as `None`).
    pub fn new(label: impl Into<String>, current: f64, baseline: &Value, kind: Kind) -> Check {
        Check {
            label: label.into(),
            current,
            baseline: baseline.as_f64(),
            kind,
        }
    }

    /// Whether this check passes under `tolerance`; `None` when it has no
    /// baseline.
    pub fn passes(&self, tolerance: f64) -> Option<bool> {
        let (cur, base) = (self.current, self.baseline?);
        Some(match self.kind {
            Kind::AtLeast => cur >= base * (1.0 - tolerance),
            Kind::AtMost => cur <= base * (1.0 + tolerance),
            Kind::Exact => cur == base,
        })
    }

    /// `label: current vs baseline base (bound)`.
    fn summary(&self, base: f64, tolerance: f64) -> String {
        let bound = match self.kind {
            Kind::AtLeast => format!("floor {}", num(base * (1.0 - tolerance))),
            Kind::AtMost => format!("ceiling {}", num(base * (1.0 + tolerance))),
            Kind::Exact => "exact".to_string(),
        };
        format!(
            "{}: {} vs baseline {} ({bound})",
            self.label,
            num(self.current),
            num(base)
        )
    }
}

/// Short human-readable number: whole values print without decimals.
fn num(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Log every check to stderr and collect the failures.
pub fn evaluate(checks: &[Check], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for check in checks {
        let Some(base) = check.baseline else {
            eprintln!("check {}: no baseline value; skipped", check.label);
            continue;
        };
        let summary = check.summary(base, tolerance);
        if check.passes(tolerance) == Some(true) {
            eprintln!("check {summary} ok");
        } else {
            eprintln!("check {summary} FAILED");
            failures.push(summary);
        }
    }
    failures
}

/// The baseline section a `tenant_scale` report compares against: a
/// smoke run uses the full baseline's smoke-sized `smoke` reference when
/// it has one, and everything else uses `fleet`.
pub fn fleet_section(baseline: &Value, smoke: bool) -> (&'static str, &Value) {
    let section = if smoke && baseline["smoke"] != Value::Null {
        "smoke"
    } else {
        "fleet"
    };
    (section, &baseline[section])
}

fn load_baseline(path: &str) -> Result<Value, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("bad baseline JSON in {path}: {e}"))
}

/// Print `report`, write it to `--out`, and under `--check` evaluate the
/// checks `build` derives from the baseline, exiting 1 on any failure.
pub fn finish<R: serde::Serialize>(
    args: &Args,
    report: &R,
    build: impl FnOnce(&Value) -> Vec<Check>,
) {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write report");
        eprintln!("wrote {path}");
    }
    let Some(path) = &args.check else {
        return;
    };
    let failures = load_baseline(path)
        .map(|baseline| evaluate(&build(&baseline), args.tolerance))
        .unwrap_or_else(|err| vec![err]);
    if !failures.is_empty() {
        eprintln!("regression against {path}:\n{}", failures.join("\n"));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    fn args(flags: &[&str]) -> Result<Args, String> {
        Args::parse(flags.iter().map(|s| s.to_string()))
    }

    fn check(current: f64, baseline: Value, kind: Kind) -> Check {
        Check::new("x", current, &baseline, kind)
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = args(&[]).unwrap();
        assert_eq!(
            (a.smoke, a.out, a.check, a.tolerance),
            (false, None, None, 0.25)
        );
        let a = args(&[
            "--smoke",
            "--out",
            "o.json",
            "--check",
            "b.json",
            "--tolerance",
            "0.1",
        ])
        .unwrap();
        assert!(a.smoke);
        assert_eq!(a.out.as_deref(), Some("o.json"));
        assert_eq!(a.check.as_deref(), Some("b.json"));
        assert_eq!(a.tolerance, 0.1);
        assert_eq!(a.mode(), "smoke");
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        assert!(args(&["--tolerence", "0.1"])
            .unwrap_err()
            .contains("--tolerence"));
        assert!(args(&["--out"]).is_err());
        assert!(args(&["--tolerance", "fast"]).is_err());
        assert!(args(&["--tolerance", "-0.1"]).is_err());
    }

    fn passes(current: f64, baseline: f64, kind: Kind) -> Option<bool> {
        check(current, json!(baseline), kind).passes(0.25)
    }

    #[test]
    fn rate_below_its_floor_fails() {
        assert_eq!(passes(80.0, 100.0, Kind::AtLeast), Some(true));
        assert_eq!(passes(74.0, 100.0, Kind::AtLeast), Some(false));
    }

    #[test]
    fn latency_above_its_ceiling_fails() {
        assert_eq!(passes(0.12, 0.1, Kind::AtMost), Some(true));
        assert_eq!(passes(0.13, 0.1, Kind::AtMost), Some(false));
    }

    #[test]
    fn exact_counters_ignore_the_tolerance() {
        assert_eq!(passes(44645.0, 44645.0, Kind::Exact), Some(true));
        let failures = evaluate(&[check(44646.0, json!(44645), Kind::Exact)], 0.25);
        assert!(
            failures[0].contains("44646") && failures[0].contains("exact"),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_or_null_baselines_are_skipped() {
        let base = parse(r#"{ "present": 1.0, "null": null }"#);
        let checks = vec![
            Check::new("absent", 0.0, &base["absent"], Kind::Exact),
            Check::new("null", 0.0, &base["null"], Kind::AtLeast),
            Check::new("present", 1.0, &base["present"], Kind::Exact),
        ];
        assert_eq!(checks[0].baseline, None);
        assert_eq!(checks[1].baseline, None);
        assert!(evaluate(&checks, 0.25).is_empty());
    }

    #[test]
    fn evaluate_collects_every_failure() {
        let checks = vec![
            check(1.0, json!(2.0), Kind::Exact),
            check(1.0, json!(1.0), Kind::Exact),
            check(10.0, json!(100.0), Kind::AtLeast),
        ];
        assert_eq!(evaluate(&checks, 0.25).len(), 2);
    }

    #[test]
    fn smoke_runs_prefer_the_smoke_section() {
        let full = parse(r#"{ "fleet": { "solves": 1698 }, "smoke": { "solves": 322 } }"#);
        let (name, section) = fleet_section(&full, true);
        assert_eq!((name, &section["solves"]), ("smoke", &json!(322)));
        assert_eq!(fleet_section(&full, false).0, "fleet");
        let old = parse(r#"{ "fleet": { "solves": 1698 } }"#);
        assert_eq!(fleet_section(&old, true).0, "fleet");
    }
}
