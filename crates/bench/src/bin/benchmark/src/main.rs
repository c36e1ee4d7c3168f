//! `benchmark` — one command for CAST's end-to-end and per-layer
//! numbers.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--seconds S] [--runs R] [--out SET.json]
//! benchmark --compare A.json B.json
//! ```
//!
//! * `--workload` runs one workload in this process: set up several
//!   times (`setup_s` is the median), then timed passes for `--seconds`
//!   and the output checks. The last line of standard output is one
//!   JSON object: `correct`, `attempted`, `failed` and the metrics —
//!   the end-to-end ones with `--trace 0`, the per-layer ones with
//!   `--trace 1`, where every untraced pass is paired with a traced one
//!   and the spans land in `<target>/benchmark/<workload>.spans.ndjson`.
//!   A failed check exits 1.
//! * Without `--workload`, every workload runs `--runs` times (seeds
//!   `N`, `N+1`, …, the workloads taking turns) plus once traced, each
//!   run in a child process of its own, one at a time; the results go to
//!   `--out` as a set.
//! * `--compare` reads two sets and the bounds in `BENCHMARK.json` (in the
//!   working directory), and prints one row per (end-to-end metric,
//!   workload).
//!
//! The loop is closed: every epoch boundary is served as fast as it can
//! be. Arrivals are in simulated time; wall time is the service time.

mod compare;
mod fleet;
mod metrics;
mod sim;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::{Map, Number, Value};

use metrics::Outcome;
use trace::Recorder;
use workloads::{Scale, Workload, DEFAULT_SEED};

pub type Res<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a workload run hands back to be printed.
pub struct RunOutput {
    pub outcome: Outcome,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Fingerprint of the workload's deterministic outputs.
    pub digest: u64,
    pub spans: Option<Recorder>,
}

/// Measured seconds per run when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Run `f` [`SETUP_REPS`] times and return the median time with the last
/// result.
pub fn timed_setup<T>(mut f: impl FnMut() -> Res<T>) -> Res<(f64, T)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut out = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        out = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), out.expect("at least one set-up")))
}

/// Call `f` at least `min` times and until `seconds` have gone by.
pub fn repeat_for<T>(seconds: f64, min: usize, mut f: impl FnMut() -> Res<T>) -> Res<Vec<T>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(f()?);
    }
    Ok(out)
}

fn run(w: Workload, opts: &Opts) -> Res<RunOutput> {
    match w {
        Workload::SimEngine => sim::run(opts),
        _ => fleet::run(w, opts),
    }
}

fn run_workload(w: Workload, opts: &Opts) -> ExitCode {
    let out = match run(w, opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("{}: check failed: {f}", w.name());
    }
    if let Some(rec) = &out.spans {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let path = dir
            .join("benchmark")
            .join(format!("{}.spans.ndjson", w.name()));
        match rec.write_ndjson(&path) {
            Ok(()) => eprintln!(
                "{}: {} spans in {}",
                w.name(),
                rec.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("{}: cannot write {}: {e}", w.name(), path.display()),
        }
    }
    println!("report_digest {} {:016x}", w.name(), out.digest);
    println!("{}", out.outcome.to_json());
    if out.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process and parse its result line.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Res<Value> {
    let exe = std::env::current_exe().map_err(err)?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(err)?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} seed {seed} failed ({})", w.name(), out.status));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    serde_json::from_str(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))
}

/// Every workload `runs` times untraced and once traced; prints each
/// end-to-end metric's median and quartiles, and writes the set. The
/// workloads take turns, so a slow spell of the machine lands on a few
/// runs of each workload rather than on most runs of one.
fn run_set(seed: u64, seconds: f64, runs: usize, out: Option<&str>) -> Res<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results: Vec<Vec<Value>> = vec![Vec::new(); Workload::ALL.len()];
    for r in 0..runs as u64 {
        for (w, res) in Workload::ALL.into_iter().zip(&mut results) {
            eprintln!("{} seed {}", w.name(), seed + r);
            res.push(child(w, seed + r, seconds, false)?);
        }
    }
    let (mut all, mut traced) = (Map::new(), Map::new());
    for (w, res) in Workload::ALL.into_iter().zip(results) {
        all.insert(w.name(), Value::Array(res));
        traced.insert(w.name(), child(w, seed, seconds, true)?);
    }
    let mut set = Map::new();
    set.insert("nproc", Value::Number(Number::from_i64(nproc as i64)));
    set.insert("seed", Value::Number(Number::from_i64(seed as i64)));
    set.insert(
        "seconds",
        Number::from_f64(seconds).map_or(Value::Null, Value::Number),
    );
    set.insert("runs", Value::Object(all));
    set.insert("traced", Value::Object(traced));
    let set = Value::Object(set);

    println!("nproc {nproc}, {runs} runs per workload from seed {seed}, {seconds} s each");
    for w in Workload::ALL {
        for (metric, unit) in metrics::END_TO_END {
            let v = compare::values(&set, w.name(), metric);
            let (q1, q3) = stats::quartiles(&v);
            println!(
                "{:<16} {:<12} {} {unit}  spread {:.2}%",
                w.name(),
                metric,
                compare::describe(&v),
                (q3 - q1) / stats::median(&v) * 100.0
            );
        }
    }
    if let Some(path) = out {
        std::fs::write(
            path,
            serde_json::to_string_pretty(&set).map_err(err)? + "\n",
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn parse_seed(s: &str) -> Res<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad seed {s}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      benchmark [--seed N] [--seconds S] [--runs R] [--out SET.json]\n\
         \x20      benchmark --compare A.json B.json\n\
         workloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Bench,
    };
    let (mut runs, mut out, mut compare) = (10usize, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let parsed: Res<()> = (|| {
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => opts.seed = parse_seed(&value()?)?,
                "--seconds" => opts.seconds = value()?.parse().map_err(err)?,
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--runs" => runs = value()?.parse().map_err(err)?,
                "--out" => out = Some(value()?),
                "--compare" => compare = Some((value()?, value()?)),
                _ => return Err(format!("unknown flag {flag}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("{e}");
            return usage();
        }
    }

    if let Some((a, b)) = compare {
        return match compare::compare(&a, &b, "BENCHMARK.json") {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    match workload {
        Some(w) => run_workload(w, &opts),
        None => match run_set(opts.seed, opts.seconds, runs, out.as_deref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at the tiny scale, untraced and traced, through
    /// the same entry point and output checks the benchmark runs.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    scale: Scale::Tiny,
                };
                let out = run(w, &opts).unwrap();
                assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
                assert!(out.outcome.correct && out.outcome.attempted > 0);
                let expected = if trace {
                    metrics::PER_LAYER.len()
                } else {
                    metrics::END_TO_END.len()
                };
                assert_eq!(out.outcome.metrics.len(), expected);
                if !trace {
                    assert!(
                        out.outcome.metrics.iter().all(|&(_, _, v)| v > 0.0),
                        "{}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xCA57_F1EE").unwrap(), DEFAULT_SEED);
        assert!(parse_seed("x").is_err());
    }
}
