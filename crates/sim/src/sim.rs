//! The unified simulation entry point.
//!
//! [`Sim::builder`] takes the cluster config, the workload and its
//! placements; [`SimBuilder::build`] validates and lowers the workload
//! ([`prepare_runs`]) and returns the live [`Engine`]. Run it to
//! completion ([`Engine::run`]), or advance it to a time horizon
//! ([`Engine::run_until`]), snapshot it ([`Engine::snapshot`]), fork
//! what-if candidates off the snapshot, and only then
//! [`Engine::finish`] — the substrate for online replanning.
//!
//! Callers that simulate migrations alongside the workload, or reuse an
//! [`crate::EngineScratch`] across runs, lower through [`prepare_runs`]
//! and pick the matching [`Engine`] constructor.

use cast_obs::Collector;
use cast_workload::spec::WorkloadSpec;

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::error::SimError;
use crate::placement::PlacementMap;
use crate::runner::prepare_runs;

/// Configures one simulation. Created by [`Sim::builder`].
pub struct SimBuilder<'a> {
    cfg: &'a SimConfig,
    spec: &'a WorkloadSpec,
    placements: &'a PlacementMap,
    collector: Collector,
}

impl<'a> SimBuilder<'a> {
    /// Attach an observability collector. The collector only records
    /// what the engine already computes; the report is bit-identical to
    /// an unobserved run.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Validate the workload, wire workflow dependencies (including
    /// cross-tier transfer staging), order jobs topologically and return
    /// the live engine.
    pub fn build(self) -> Result<Engine<'a>, SimError> {
        let runs = prepare_runs(self.spec, self.placements, &[], self.cfg)?;
        Ok(Engine::observed(self.cfg, runs, self.collector))
    }
}

/// Namespace of the entry point; see [`Sim::builder`].
pub struct Sim;

impl Sim {
    /// Start configuring a simulation of `spec` under `placements` on the
    /// cluster `cfg`.
    pub fn builder<'a>(
        cfg: &'a SimConfig,
        spec: &'a WorkloadSpec,
        placements: &'a PlacementMap,
    ) -> SimBuilder<'a> {
        SimBuilder {
            cfg,
            spec,
            placements,
            collector: Collector::noop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunState;
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
        let a = Engine::new(&cfg, runs).run().unwrap();
        let b = Sim::builder(&cfg, &spec, &placements)
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
    fn run_until_then_finish_matches_uninterrupted_run() -> Result<(), SimError> {
        let (spec, placements, cfg) = setup();
        let full = Sim::builder(&cfg, &spec, &placements)
            .build()
            .unwrap()
            .run_with_stats()
            .unwrap();
        let mut sim = Sim::builder(&cfg, &spec, &placements).build().unwrap();
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
}
