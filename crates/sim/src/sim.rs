//! The unified simulation entry point.
//!
//! [`Sim::builder`] replaced the old free-function zoo (`simulate`,
//! `simulate_observed`, `simulate_with_migrations`, `simulate_durable`,
//! since deleted) with one builder: configure jobs, migrations,
//! observability, durability and scratch reuse in any combination, then
//! [`SimBuilder::build`] to lower the workload and obtain a live
//! [`Sim`].
//!
//! A built [`Sim`] is a live engine: run it to completion ([`Sim::run`]),
//! or advance it to a time horizon ([`Sim::run_until`]), snapshot it
//! ([`Sim::snapshot`]), fork what-if candidates off the snapshot, and
//! only then [`Sim::finish`] — the substrate for online replanning.

use cast_obs::Collector;
use cast_workload::spec::WorkloadSpec;

use crate::config::SimConfig;
use crate::durability::{durability_prepass, DurabilityReport};
use crate::engine::{Engine, EngineScratch, EngineSnapshot, EngineStats, RunState};
use crate::error::SimError;
use crate::jobrun::JobRun;
use crate::metrics::SimReport;
use crate::placement::PlacementMap;
use crate::runner::{prepare_runs, MigrationSpec};

/// Configures one simulation. Created by [`Sim::builder`]; every input
/// except the cluster config is optional.
pub struct SimBuilder<'a> {
    cfg: &'a SimConfig,
    workload: Option<(&'a WorkloadSpec, &'a PlacementMap)>,
    runs: Option<Vec<JobRun>>,
    migrations: &'a [MigrationSpec],
    collector: Collector,
    scratch: Option<&'a mut EngineScratch>,
    durable: bool,
}

impl<'a> SimBuilder<'a> {
    /// Simulate `spec` under `placements`: validates the workload, wires
    /// workflow dependencies (including cross-tier transfer staging) and
    /// orders jobs topologically at [`SimBuilder::build`] time.
    pub fn jobs(mut self, spec: &'a WorkloadSpec, placements: &'a PlacementMap) -> Self {
        self.workload = Some((spec, placements));
        self
    }

    /// Run pre-lowered job runs directly (skipping workload lowering) —
    /// for callers that already hold [`prepare_runs`] output, e.g. to
    /// run several engines over byte-identical runs. Mutually exclusive
    /// with [`SimBuilder::jobs`]; the later call wins.
    pub fn runs(mut self, runs: Vec<JobRun>) -> Self {
        self.runs = Some(runs);
        self.workload = None;
        self
    }

    /// Mid-run data movements: each [`MigrationSpec`] becomes an explicit
    /// transfer-only run contending for tier bandwidth; jobs listed in a
    /// migration's `blocks` wait for the move. Ignored when runs are
    /// supplied pre-lowered.
    pub fn migrations(mut self, migrations: &'a [MigrationSpec]) -> Self {
        self.migrations = migrations;
        self
    }

    /// Attach an observability collector. The collector only records
    /// what the engine already computes; the report is bit-identical to
    /// an unobserved run.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Reuse caller-owned scratch state; repeated runs over the same (or
    /// a smaller) catalog do zero re-allocation
    /// ([`EngineStats::scratch_reallocs`]).
    pub fn scratch(mut self, scratch: &'a mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Enable the durability pre-pass: run the fault plan's shard-loss
    /// timeline first and, when datasets are damaged, charge degraded
    /// readers reconstruction bandwidth and inject background repair
    /// transfers. Retrieve the damage summary via [`Sim::run_durable`]
    /// or [`Sim::durability`]. With no shard losses the simulation is
    /// bit-identical to a non-durable run.
    pub fn durability(mut self, enabled: bool) -> Self {
        self.durable = enabled;
        self
    }

    /// Validate and lower the inputs into a live [`Sim`]. Fails with
    /// [`SimError::NoWorkload`] if neither [`SimBuilder::jobs`] nor
    /// [`SimBuilder::runs`] was called.
    pub fn build(self) -> Result<Sim<'a>, SimError> {
        let cfg = self.cfg;
        let mut durability = None;
        let runs = match (self.runs, self.workload) {
            (Some(runs), _) => runs,
            (None, Some((spec, placements))) => {
                if self.durable {
                    let pre = durability_prepass(
                        spec,
                        placements,
                        self.migrations,
                        cfg,
                        &self.collector,
                    )?;
                    let runs = match &pre.rewritten {
                        Some((p, m)) => prepare_runs(spec, p, m, cfg)?,
                        None => prepare_runs(spec, placements, self.migrations, cfg)?,
                    };
                    durability = Some(pre.report);
                    runs
                } else {
                    prepare_runs(spec, placements, self.migrations, cfg)?
                }
            }
            (None, None) => return Err(SimError::NoWorkload),
        };
        let engine = match self.scratch {
            Some(scratch) => Engine::observed_with_scratch(cfg, runs, self.collector, scratch),
            None => Engine::observed(cfg, runs, self.collector),
        };
        Ok(Sim { engine, durability })
    }
}

/// A built, live simulation. Thin wrapper over [`Engine`] carrying the
/// durability pre-pass result when one ran.
pub struct Sim<'a> {
    engine: Engine<'a>,
    durability: Option<DurabilityReport>,
}

impl<'a> Sim<'a> {
    /// Start configuring a simulation on the cluster `cfg`.
    pub fn builder(cfg: &'a SimConfig) -> SimBuilder<'a> {
        SimBuilder {
            cfg,
            workload: None,
            runs: None,
            migrations: &[],
            collector: Collector::noop(),
            scratch: None,
            durable: false,
        }
    }

    /// Run to completion, producing per-job metrics.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.engine.run()
    }

    /// [`Sim::run`], also returning execution statistics.
    pub fn run_with_stats(self) -> Result<(SimReport, EngineStats), SimError> {
        self.engine.run_with_stats()
    }

    /// Run to completion and return the report together with the
    /// durability pre-pass summary (default-empty when the builder's
    /// durability mode was off or the loss timeline did no damage).
    pub fn run_durable(self) -> Result<(SimReport, DurabilityReport), SimError> {
        let durability = self.durability.unwrap_or_default();
        Ok((self.engine.run()?, durability))
    }

    /// Advance the simulation until the clock reaches `horizon` or the
    /// workload finishes; see [`Engine::run_until`].
    pub fn run_until(&mut self, horizon: f64) -> Result<RunState, SimError> {
        self.engine.run_until(horizon)
    }

    /// Run whatever remains and produce the report plus statistics; see
    /// [`Engine::finish`].
    pub fn finish(self) -> Result<(SimReport, EngineStats), SimError> {
        self.engine.finish()
    }

    /// Capture the complete live state as an [`EngineSnapshot`]; see
    /// [`Engine::snapshot`].
    pub fn snapshot(&self) -> EngineSnapshot {
        self.engine.snapshot()
    }

    /// What the durability pre-pass found, when the builder enabled it.
    pub fn durability(&self) -> Option<&DurabilityReport> {
        self.durability.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_cloud::tier::{PerTier, Tier};
    use cast_cloud::units::DataSize;
    use cast_cloud::Catalog;
    use cast_workload::apps::AppKind;
    use cast_workload::synth;

    fn setup() -> (WorkloadSpec, PlacementMap, SimConfig) {
        let spec = synth::single_job(AppKind::Grep, DataSize::from_gb(10.0));
        let placements = PlacementMap::uniform(spec.jobs.iter().map(|j| j.id), Tier::PersSsd);
        let agg = PerTier::from_fn(|_| DataSize::from_gb(2000.0));
        let mut cfg = SimConfig::with_aggregate_capacity(Catalog::aws_like(), 4, &agg).unwrap();
        cfg.jitter = 0.0;
        (spec, placements, cfg)
    }

    #[test]
    fn prelowered_runs_match_workload_lowering() {
        let (spec, placements, cfg) = setup();
        let runs = prepare_runs(&spec, &placements, &[], &cfg).unwrap();
        let a = Sim::builder(&cfg)
            .runs(runs)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let b = Sim::builder(&cfg)
            .jobs(&spec, &placements)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn durable_mode_without_damage_reports_default() {
        let (spec, placements, cfg) = setup();
        let sim = Sim::builder(&cfg)
            .jobs(&spec, &placements)
            .durability(true)
            .build()
            .unwrap();
        assert_eq!(sim.durability(), Some(&DurabilityReport::default()));
        let (_, report) = sim.run_durable().unwrap();
        assert_eq!(report, DurabilityReport::default());
    }

    #[test]
    fn scratch_reuse_through_builder_does_zero_reallocation() {
        let (spec, placements, cfg) = setup();
        let mut scratch = EngineScratch::new();
        for rep in 0..3 {
            let (_, stats) = Sim::builder(&cfg)
                .jobs(&spec, &placements)
                .scratch(&mut scratch)
                .build()
                .unwrap()
                .run_with_stats()
                .unwrap();
            if rep > 0 {
                assert_eq!(stats.scratch_reallocs, 0, "rep {rep} reallocated");
            }
        }
    }

    #[test]
    fn run_until_then_finish_matches_uninterrupted_run() -> Result<(), SimError> {
        let (spec, placements, cfg) = setup();
        let full = Sim::builder(&cfg)
            .jobs(&spec, &placements)
            .build()
            .unwrap()
            .run_with_stats()
            .unwrap();
        let mut sim = Sim::builder(&cfg).jobs(&spec, &placements).build().unwrap();
        let mut horizon = 1.0;
        while sim.run_until(horizon)? == RunState::Running {
            horizon *= 2.0;
        }
        let segmented = sim.finish().unwrap();
        assert_eq!(
            serde_json::to_string(&full.0).unwrap(),
            serde_json::to_string(&segmented.0).unwrap()
        );
        assert_eq!(full.1, segmented.1);
        Ok(())
    }

    #[test]
    fn build_without_inputs_is_an_error() {
        let (_, _, cfg) = setup();
        assert!(matches!(
            Sim::builder(&cfg).build(),
            Err(SimError::NoWorkload)
        ));
    }
}
