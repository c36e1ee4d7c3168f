//! The four workloads: their inputs, configuration, and why each one is
//! here. `--seed` sets every workload-generation seed; solver seeds stay
//! at the configuration defaults, as callers run them.

use cast_cloud::tier::PerTier;
use cast_cloud::units::{DataSize, Duration};
use cast_fleet::FleetConfig;
use cast_runtime::{MigrationProtocol, ReplanPolicy, SkipPolicy};

pub const DEFAULT_SEED: u64 = 0xCA57_F1EE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// What callers run: `FleetConfig::default()` on ample capacity. The
    /// annealer does most of the work, so planning and estimator changes
    /// show here and execute changes barely move it.
    FleetDefault,
    /// Offline CAST serving an online stream: one cold solve per tenant,
    /// then 48 epochs of execution. Provisioning, protocol lowering,
    /// `prepare_runs` and the engine dominate.
    FleetStatic,
    /// Scarce shard capacity, periodic replans and faulted
    /// copy→verify→retire migrations: the only workload where admission,
    /// the drift-skip gate and the failure paths do real work.
    FleetContended,
    /// The simulator alone at a scale the fleet never reaches: a
    /// 4000-job engine run on a warm scratch plus what-if fork slates.
    SimEngine,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetDefault,
        Workload::FleetStatic,
        Workload::FleetContended,
        Workload::SimEngine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDefault => "fleet_default",
            Workload::FleetStatic => "fleet_static",
            Workload::FleetContended => "fleet_contended",
            Workload::SimEngine => "sim_engine",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's, or the tiny one `cargo test` smoke-runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Tiny,
}

/// One fleet workload's inputs.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    pub tenants: usize,
    pub shards: u32,
    pub horizon: Duration,
    pub max_bin: usize,
    pub cfg: FleetConfig,
}

/// Migration copy fault rate of `fleet_contended`. Fault draws are keyed
/// by (runtime seed, epoch, move index, attempt), and every tenant runs
/// the same runtime seed, so the whole fleet draws one fault pattern. At
/// 0.2 no (epoch, move) the fleet uses fails three attempts in a row and
/// the rollback path never runs; at 0.4 some do.
const FAULT_PROB: f64 = 0.4;

/// Capacity no workload's tenants can exhaust.
const AMPLE_TB: f64 = 1000.0;

pub fn fleet_inputs(w: Workload, scale: Scale) -> FleetInputs {
    let defaults = FleetConfig {
        // One worker: a run's time then does not hang on how the host
        // schedules a second thread.
        workers: 1,
        shard_capacity: PerTier::from_fn(|_| DataSize::from_tb(AMPLE_TB)),
        ..FleetConfig::default()
    };
    let mut inputs = match w {
        Workload::FleetDefault => FleetInputs {
            tenants: 256,
            shards: 8,
            horizon: Duration::from_hours(4.0),
            max_bin: 3,
            cfg: defaults,
        },
        Workload::FleetStatic => {
            let mut cfg = defaults;
            cfg.runtime.policy = ReplanPolicy::Static;
            FleetInputs {
                tenants: 128,
                shards: 4,
                horizon: Duration::from_hours(24.0),
                max_bin: 5,
                cfg,
            }
        }
        Workload::FleetContended => {
            let mut cfg = defaults;
            cfg.shard_capacity = PerTier::from_fn(|_| DataSize::from_tb(1.0));
            cfg.runtime.policy = ReplanPolicy::Periodic;
            cfg.runtime.protocol = MigrationProtocol::safe();
            cfg.runtime.migration_fault_prob = FAULT_PROB;
            cfg.runtime.skip = SkipPolicy {
                enabled: true,
                max_drift: 0.4,
                max_score_delta: 0.10,
            };
            FleetInputs {
                tenants: 256,
                shards: 4,
                horizon: Duration::from_hours(4.0),
                max_bin: 3,
                cfg,
            }
        }
        Workload::SimEngine => panic!("sim_engine is not a fleet workload"),
    };
    if scale == Scale::Tiny {
        // Same configuration, 16 tenants for one hour; shard capacity
        // shrinks with the fleet so contention keeps its shape.
        let shrink = 16.0 / inputs.tenants as f64;
        let cap = inputs.cfg.shard_capacity;
        inputs.cfg.shard_capacity = PerTier::from_fn(|t| *cap.get(t) * shrink);
        inputs.tenants = 16;
        inputs.horizon = Duration::from_hours(1.0);
    }
    inputs
}

/// The simulator workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct SimInputs {
    /// Copies of the 100-job Facebook workload, each from its own seed.
    pub copies: usize,
    pub nvm: usize,
    /// Drifted what-if epochs, each live at its replan point.
    pub epochs: usize,
    /// What-if slates scored per epoch and pass, each a snapshot of the
    /// live engine plus one forked tail per candidate.
    pub slates: usize,
}

pub fn sim_inputs(scale: Scale) -> SimInputs {
    match scale {
        Scale::Bench => SimInputs {
            copies: 40,
            nvm: 400,
            epochs: 10,
            slates: 100,
        },
        Scale::Tiny => SimInputs {
            copies: 1,
            nvm: 25,
            epochs: 2,
            slates: 5,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
