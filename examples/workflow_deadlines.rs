//! Deadline-aware workflow planning with CAST++.
//!
//! Builds the paper's Fig. 4 search-log workflow
//! (`Grep → {PageRank, Sort} → Join`), lets CAST++ minimise cost under the
//! deadline, and shows what happens when the deadline tightens.
//!
//! ```text
//! cargo run --release --example workflow_deadlines
//! ```

use cast::prelude::*;
use cast::solver::castpp::{evaluate_workflow_global, CastPlusPlus};
use cast::solver::EvalContext;
use cast::workload::synth;
use cast_estimator::profiler::ProfilerConfig;

fn main() {
    let profiler = ProfilerConfig {
        nvm: 4,
        reference_input: DataSize::from_gb(50.0),
        block_grid: vec![50.0, 100.0, 250.0, 500.0, 1000.0],
        eph_grid: vec![375.0, 750.0],
        objstore_scratch_gb: 100.0,
    };
    let framework = Cast::builder()
        .nvm(4)
        .profiler(profiler)
        .build()
        .expect("profiling");

    let mut spec = synth::fig4_workflow();
    println!("workflow: Grep 250G -> {{PageRank 20G, Sort 120G}} -> Join 120G\n");

    for deadline_secs in [8000.0, 1300.0, 900.0] {
        spec.workflows[0].deadline = Duration::from_secs(deadline_secs);
        let ctx = EvalContext::new(framework.estimator(), &spec);
        let solver = CastPlusPlus::new();
        let out = solver.solve(&ctx).expect("solve");
        let wf = &spec.workflows[0];
        let eval = evaluate_workflow_global(&ctx.clone().with_reuse_awareness(), wf, &out.plan)
            .expect("evaluation");
        println!(
            "deadline {:>6.0}s -> est completion {:>6.0}s, cost {}, {}",
            deadline_secs,
            eval.time.secs(),
            eval.cost,
            if eval.feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            }
        );
        for &j in &wf.jobs {
            let a = out.plan.get(j).expect("assigned");
            let job = spec.job(j).expect("member");
            println!(
                "    {:<10} {:>4.0} GB -> {:<9} x{:.0}",
                job.app.to_string(),
                job.input.gb(),
                a.tier.name(),
                a.overprov
            );
        }
        println!();
    }
    println!(
        "Tighter deadlines pull jobs onto faster tiers and buy bandwidth with\n\
         over-provisioned capacity; loose deadlines let the solver shed cost."
    );
}
