//! Durability sweep: copy→verify→retire vs fire-and-forget migration
//! under injected copy faults, plus the erasure-coding cost Pareto.
//!
//! ```text
//! cargo run --release -p cast-bench --bin durability_sweep [--smoke]
//! ```
//!
//! `--smoke` runs the CI-sized configuration (shorter stream, fewer
//! fault rates) that still reproduces both headline claims. Only a full
//! run saves `results/durability_sweep.json`.

use cast_bench::experiments::durability_sweep;
use cast_bench::ExperimentIo;

fn main() {
    let io = ExperimentIo::from_args("durability_sweep");
    let smoke = io.flag("--smoke");
    let cfg = if smoke {
        durability_sweep::DurabilitySweepConfig::smoke()
    } else {
        durability_sweep::DurabilitySweepConfig::full()
    };
    let (sweep, pareto, json) = durability_sweep::run(&cfg);
    println!("{}", sweep.render());
    println!("{}", pareto.render());
    let (lost, reduction) = durability_sweep::headline(&json);
    println!(
        "unsafe protocol at the highest fault rate: {lost} dataset(s) destroyed; \
         copy-verify-retire: 0 at every rate"
    );
    println!(
        "rs(4+2) vs rep(3) cold-tier storage bill: {:.1} % cheaper at equal fault tolerance",
        reduction * 100.0
    );
    if !smoke {
        io.save_json("durability_sweep", &json);
    }
    io.finish();
}
