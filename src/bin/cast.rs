//! `cast` — command-line front end for the tiering planner.
//!
//! ```text
//! cast catalog                           # print the Table 1 service menu
//! cast synth [--jobs N] [--share F] [--seed S] > spec.json
//! cast plan --spec spec.json [--nvm 25] [--strategy cast++] [--deploy]
//! cast plan --demo [--strategy cast]     # built-in 4-job demo workload
//! ```
//!
//! Workload specifications are the JSON serialisation of
//! [`cast::workload::WorkloadSpec`]; `cast synth` emits one.

use std::fs;
use std::process::ExitCode;
use std::str::FromStr;

use cast::prelude::*;
use cast::workload::synth::{facebook_workload, FacebookConfig};
use cast_estimator::profiler::ProfilerConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalog") => {
            print!("{}", Catalog::google_cloud().table1());
            ExitCode::SUCCESS
        }
        Some("synth") => cmd_synth(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  cast catalog\n  cast synth [--jobs N] [--share F] [--seed S]\n  \
                     cast plan (--spec FILE | --demo) [--nvm N] [--strategy NAME] [--deploy]\n\n\
                     strategies: ephssd, persssd, pershdd, objstore, greedy, greedy-over,\n\
                     cast, cast++ (default)";

/// The value after flag `name` (`None` when the flag is absent). A flag
/// given last, with no value after it, is reported with the usage line.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, ExitCode> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => Ok(Some(v)),
        None => {
            eprintln!("{name} takes a value\n{USAGE}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The value of flag `name` parsed as `T` (`None` when the flag is
/// absent). A missing value, or one that does not parse, is reported
/// with the usage line.
fn parse_flag<T: FromStr>(args: &[String], name: &str, what: &str) -> Result<Option<T>, ExitCode> {
    flag_value(args, name)?
        .map(|v| {
            v.parse().map_err(|_| {
                eprintln!("{name} takes {what}, got {v:?}\n{USAGE}");
                ExitCode::FAILURE
            })
        })
        .transpose()
}

fn cmd_synth(args: &[String]) -> ExitCode {
    let Ok(share) = parse_flag(args, "--share", "a fraction") else {
        return ExitCode::FAILURE;
    };
    let Ok(seed) = parse_flag(args, "--seed", "an integer") else {
        return ExitCode::FAILURE;
    };
    let Ok(jobs) = parse_flag::<usize>(args, "--jobs", "an integer") else {
        return ExitCode::FAILURE;
    };
    let spec = match facebook_workload(FacebookConfig {
        share_fraction: share.unwrap_or(0.15),
        seed: seed.unwrap_or(42),
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = spec;
    if let Some(n) = jobs {
        spec.jobs.truncate(n);
        spec.workflows.clear();
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&spec).expect("serialise spec")
    );
    ExitCode::SUCCESS
}

fn parse_strategy(name: &str) -> Option<PlanStrategy> {
    Some(match name.to_ascii_lowercase().as_str() {
        "ephssd" => PlanStrategy::Uniform(Tier::EphSsd),
        "persssd" => PlanStrategy::Uniform(Tier::PersSsd),
        "pershdd" => PlanStrategy::Uniform(Tier::PersHdd),
        "objstore" => PlanStrategy::Uniform(Tier::ObjStore),
        "greedy" => PlanStrategy::GreedyExactFit,
        "greedy-over" => PlanStrategy::GreedyOverProvisioned,
        "cast" => PlanStrategy::Cast,
        "cast++" | "castpp" => PlanStrategy::CastPlusPlus,
        _ => return None,
    })
}

fn demo_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::empty();
    for (i, (app, gb)) in [
        (AppKind::Sort, 100.0),
        (AppKind::Join, 120.0),
        (AppKind::Grep, 300.0),
        (AppKind::KMeans, 50.0),
    ]
    .iter()
    .enumerate()
    {
        let ds = cast::workload::DatasetId(i as u32);
        spec.datasets.push(cast::workload::Dataset::single_use(
            ds,
            DataSize::from_gb(*gb),
        ));
        spec.jobs.push(Job::with_default_layout(
            JobId(i as u32),
            *app,
            ds,
            DataSize::from_gb(*gb),
        ));
    }
    spec
}

fn cmd_plan(args: &[String]) -> ExitCode {
    let Ok(spec_path) = flag_value(args, "--spec") else {
        return ExitCode::FAILURE;
    };
    let spec: WorkloadSpec = if args.iter().any(|a| a == "--demo") {
        demo_spec()
    } else if let Some(path) = spec_path {
        match fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("plan needs --spec FILE or --demo");
        return ExitCode::FAILURE;
    };
    if let Err(e) = spec.validate() {
        eprintln!("invalid workload: {e}");
        return ExitCode::FAILURE;
    }

    let Ok(nvm) = parse_flag(args, "--nvm", "an integer") else {
        return ExitCode::FAILURE;
    };
    let nvm: usize = nvm.unwrap_or(25);
    let strategy = match flag_value(args, "--strategy") {
        Err(code) => return code,
        Ok(None) => PlanStrategy::CastPlusPlus,
        Ok(Some(name)) => match parse_strategy(name) {
            Some(s) => s,
            None => {
                eprintln!("unknown strategy {name:?}");
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!("[profiling applications offline on a {nvm}-VM cluster...]");
    let profiler = ProfilerConfig {
        nvm: nvm.min(8),
        reference_input: DataSize::from_gb(100.0),
        ..ProfilerConfig::default()
    };
    let framework = match Cast::builder().nvm(nvm).profiler(profiler).build() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("profiling failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let planned = match framework.plan(&spec, strategy) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[{}] estimated completion {} at {} (utility {:.3e})",
        strategy.label(),
        planned.eval.time,
        planned.eval.cost.total(),
        planned.eval.utility
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&planned.plan).expect("serialise plan")
    );

    if args.iter().any(|a| a == "--deploy") {
        match framework.deploy(&spec, &planned.plan) {
            Ok(out) => eprintln!("[deployed] {}", out.render()),
            Err(e) => {
                eprintln!("deployment failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
