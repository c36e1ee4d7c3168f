//! # cast-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`), the gated perf bins (`sim_scale`, `runtime_epoch`,
//! `tenant_scale`) and their shared baseline [`gate`], and the shared
//! machinery in this library — deterministic experiment setup, result
//! tables, and JSON output under `results/`.

pub mod expected;
pub mod format;
pub mod gate;
pub mod harness;

pub use format::{Cell, TableWriter};
pub use harness::{
    dump_observations, fig1_cluster, install_observer, observer, paper_estimator, paper_framework,
    results_dir, save_json, trace_out_arg, ExperimentIo,
};

pub mod experiments;
