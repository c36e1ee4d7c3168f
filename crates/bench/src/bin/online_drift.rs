//! Online serving under drift: static CAST vs periodic replanning vs
//! replanning with hysteresis, on the same seeded arrival stream.
//!
//! ```text
//! cargo run --release -p cast-bench --bin online_drift [--smoke] [--trace-out [STEM]]
//! ```
//!
//! `--smoke` runs the CI-sized configuration (shorter stream, smaller
//! jobs, shorter solves) that still reproduces both headline claims. Only
//! a full run saves `results/online_drift.json`.

use cast_bench::experiments::online_drift;
use cast_bench::ExperimentIo;

fn main() {
    let io = ExperimentIo::from_args("online_drift");
    let smoke = io.flag("--smoke");
    let cfg = if smoke {
        online_drift::OnlineDriftConfig::smoke()
    } else {
        online_drift::OnlineDriftConfig::full()
    };
    let (table, json) = online_drift::run(&cfg);
    println!("{}", table.render());
    let (static_cost, periodic_cost, periodic_mb, hysteresis_mb, periodic_adopt, hyst_adopt) =
        online_drift::headline(&json);
    println!(
        "periodic vs static tenancy cost: {periodic_cost:.2} vs {static_cost:.2} $ \
         ({:+.1} %)",
        (periodic_cost / static_cost - 1.0) * 100.0
    );
    println!(
        "hysteresis vs periodic migration volume: {hysteresis_mb:.0} vs {periodic_mb:.0} MB \
         ({hyst_adopt} vs {periodic_adopt} adoptions)"
    );
    if !smoke {
        io.save_json("online_drift", &json);
    }

    io.finish();
    assert!(
        periodic_cost < static_cost,
        "expected periodic replanning to beat static serving on cost"
    );
    // With content-derived solve seeds an un-drifted epoch re-solves to
    // the identical plan, so periodic replanning no longer churns on
    // anneal noise; hysteresis must still never migrate more, and must
    // veto at least one marginal adoption.
    assert!(
        hysteresis_mb <= periodic_mb,
        "expected hysteresis to migrate no more bytes than naive replanning"
    );
    assert!(
        hyst_adopt < periodic_adopt,
        "expected hysteresis to veto at least one marginal adoption"
    );
}
