//! The `cast` binary end to end: a bad flag value is a usage error (exit
//! code 1), never a panic, and the demo plan deploys.

use std::process::{Command, Output};

fn cast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cast"))
        .args(args)
        .output()
        .expect("cast binary runs")
}

#[test]
fn bad_flag_values_fail_with_usage_not_panic() {
    for (args, flag) in [
        (&["plan", "--demo", "--nvm", "abc"][..], "--nvm"),
        (&["synth", "--share", "x"][..], "--share"),
        (&["synth", "--seed", "y"][..], "--seed"),
        (&["synth", "--jobs", "z"][..], "--jobs"),
    ] {
        let out = cast(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn demo_plan_deploys() {
    let out = cast(&[
        "plan",
        "--demo",
        "--nvm",
        "4",
        "--strategy",
        "cast",
        "--deploy",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("[deployed] ")),
        "{stderr}"
    );
}
