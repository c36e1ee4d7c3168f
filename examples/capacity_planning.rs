//! Capacity planning with the REG(·) regression.
//!
//! Sweeps provisioned persSSD capacity for a Sort job, prints predicted
//! runtimes from the monotone-spline regression next to simulated ground
//! truth, and finds the knee of the cost/performance curve — the §3.1.2
//! "careful over-provisioning" insight as a tool.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use cast::prelude::*;
use cast::workload::synth;
use cast_cloud::cost::CostModel;
use cast_cloud::tier::PerTier;
use cast_estimator::profiler::ProfilerConfig;
use cast_sim::config::SimConfig;
use cast_sim::placement::PlacementMap;
use cast_sim::Sim;

const NVM: usize = 4;

fn main() {
    let profiler = ProfilerConfig {
        nvm: NVM,
        reference_input: DataSize::from_gb(50.0),
        block_grid: vec![50.0, 100.0, 200.0, 400.0, 700.0, 1000.0],
        eph_grid: vec![375.0],
        objstore_scratch_gb: 100.0,
    };
    let framework = Cast::builder()
        .nvm(NVM)
        .profiler(profiler)
        .build()
        .expect("profiling");
    let estimator = framework.estimator();

    let spec = synth::single_job(AppKind::Sort, DataSize::from_gb(80.0));
    let job = &spec.jobs[0];
    let cost_model = CostModel::new(&estimator.catalog, NVM);

    println!("per-VM persSSD   predicted   simulated   deploy cost   utility");
    let mut best: Option<(f64, f64)> = None;
    for per_vm_gb in [75.0, 150.0, 300.0, 450.0, 600.0, 900.0] {
        let total = DataSize::from_gb(per_vm_gb) * NVM as f64;
        let predicted = estimator.reg(job, Tier::PersSsd, total).expect("profiled");

        let mut agg = PerTier::from_fn(|_| DataSize::ZERO);
        *agg.get_mut(Tier::PersSsd) = total;
        let cfg = SimConfig::with_aggregate_capacity(estimator.catalog.clone(), NVM, &agg)
            .expect("provisionable");
        let placements = PlacementMap::uniform([job.id], Tier::PersSsd);
        let observed = Sim::builder(&cfg, &spec, &placements)
            .build()
            .and_then(|s| s.run())
            .expect("simulation");

        let caps = agg;
        let cost = cost_model.breakdown(&caps, observed.makespan).total();
        let utility = cost_model.tenant_utility(&caps, observed.makespan);
        println!(
            "{:>10.0} GB   {:>7.0} s   {:>7.0} s   {:>9}   {:.3e}",
            per_vm_gb,
            predicted.secs(),
            observed.makespan.secs(),
            format!("{cost}"),
            utility
        );
        if best.is_none_or(|(u, _)| utility > u) {
            best = Some((utility, per_vm_gb));
        }
    }
    let (_, knee) = best.expect("swept at least one point");
    println!(
        "\nutility-optimal provisioning: ~{knee:.0} GB per VM — beyond the knee,\n\
         extra capacity buys bandwidth the job can no longer use (Fig. 2)."
    );
}
