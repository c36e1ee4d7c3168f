//! Metric names and units (the same table `BENCHMARK.json` declares),
//! the per-layer values, and the one-line JSON result.

use std::collections::BTreeMap;

use serde_json::{Map, Number, Value};

use crate::trace::LayerStat;

/// What a user of the system sees, measured with tracing off. Every
/// workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("usd_per_job", "usd/job"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer numbers from the traced run. Every workload reports all of
/// them; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.tenant_epochs", "count"),
    ("fleet.admit.busy_s", "s"),
    ("fleet.admit.calls", "count"),
    ("fleet.group.busy_s", "s"),
    ("fleet.solves", "count"),
    ("fleet.dedup_fanouts", "count"),
    ("fleet.replans_skipped", "count"),
    ("fleet.dedup_ratio", "ratio"),
    ("fleet.deferred", "count"),
    ("fleet.partial_grants", "count"),
    ("fleet.rejected_batches", "count"),
    ("fleet.refused_share", "ratio"),
    ("fleet.deadline_misses", "count"),
    ("runtime.open.busy_s", "s"),
    ("runtime.open.calls", "count"),
    ("runtime.begin.busy_s", "s"),
    ("runtime.begin.calls", "count"),
    ("runtime.begin.p50_us", "us"),
    ("runtime.begin.tail_us", "us"),
    ("runtime.begin.tail_pct", "%"),
    ("runtime.finish.busy_s", "s"),
    ("runtime.finish.calls", "count"),
    ("runtime.finish.p50_us", "us"),
    ("runtime.finish.tail_us", "us"),
    ("runtime.finish.tail_pct", "%"),
    ("runtime.execute.busy_s", "s"),
    ("runtime.execute.calls", "count"),
    ("runtime.execute.p50_us", "us"),
    ("runtime.execute.tail_us", "us"),
    ("runtime.execute.tail_pct", "%"),
    ("runtime.settle.busy_s", "s"),
    ("runtime.settle.calls", "count"),
    ("runtime.close.busy_s", "s"),
    ("runtime.close.calls", "count"),
    ("runtime.epoch.calls", "count"),
    ("runtime.epoch.p50_us", "us"),
    ("runtime.epoch.tail_us", "us"),
    ("runtime.epoch.tail_pct", "%"),
    ("runtime.adopt_ratio", "ratio"),
    ("runtime.skip_ratio", "ratio"),
    ("runtime.migrations", "count"),
    ("runtime.migration_retries", "count"),
    ("runtime.migration_rollbacks", "count"),
    ("runtime.verify_mb", "MB"),
    ("runtime.wasted_mb", "MB"),
    ("runtime.datasets_lost", "count"),
    ("solver.solve.busy_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.solve.p50_us", "us"),
    ("solver.solve.tail_us", "us"),
    ("solver.solve.tail_pct", "%"),
    ("solver.moves_to_best", "count"),
    ("sim.provision.busy_s", "s"),
    ("sim.prepare.busy_s", "s"),
    ("sim.engine.busy_s", "s"),
    ("sim.engine.runs", "count"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.scratch_reallocs", "count"),
    ("sim.engine.heap_stale_popped", "count"),
    ("sim.engine.dirty_drain_batches", "count"),
    ("sim.snapshot.busy_s", "s"),
    ("sim.snapshot.calls", "count"),
    ("sim.fork.busy_s", "s"),
    ("sim.fork.calls", "count"),
    ("sim.fork.p50_us", "us"),
    ("sim.fork.tail_us", "us"),
    ("sim.fork.tail_pct", "%"),
    ("trace.untimed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The end-to-end metrics of one untraced run, in [`END_TO_END`] order.
pub fn end_to_end(
    pass_s: f64,
    setup_s: f64,
    usd_per_job: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let values = [pass_s, setup_s, usd_per_job, peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// `busy_s` and `calls` of one layer call, averaged over `passes`.
    pub fn busy(&mut self, prefix: &'static str, l: &LayerStat, passes: usize) {
        self.set(
            declared(format!("{prefix}.busy_s")),
            l.busy_s / passes as f64,
        );
        self.set(
            declared(format!("{prefix}.calls")),
            l.calls as f64 / passes as f64,
        );
    }

    /// [`Layers::busy`] plus the call latency's median and tail.
    pub fn latency(&mut self, prefix: &'static str, l: &LayerStat, passes: usize) {
        self.busy(prefix, l, passes);
        self.percentiles(prefix, &l.durations_us);
    }

    /// Median and tail of a latency sample in microseconds.
    pub fn percentiles(&mut self, prefix: &'static str, samples_us: &[f64]) {
        let l = LayerStat {
            durations_us: samples_us.to_vec(),
            ..LayerStat::default()
        };
        let (pct, tail) = l.tail_us();
        self.set(declared(format!("{prefix}.p50_us")), l.p50_us());
        self.set(declared(format!("{prefix}.tail_us")), tail);
        self.set(declared(format!("{prefix}.tail_pct")), pct);
    }

    /// Every declared per-layer metric, in table order.
    pub fn into_metrics(self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Metric names are built from a layer prefix; look them up in the
/// declared table so they stay `&'static str`.
fn declared(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
}

/// One run's verdict and numbers: the last line the benchmark prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let mut metrics = Map::new();
        for &(name, unit, value) in &self.metrics {
            let mut m = Map::new();
            m.insert(
                "value",
                Number::from_f64(value).map_or(Value::Null, Value::Number),
            );
            m.insert("unit", Value::String(unit.to_string()));
            metrics.insert(name, Value::Object(m));
        }
        let mut top = Map::new();
        top.insert("correct", Value::Bool(self.correct));
        top.insert(
            "attempted",
            Value::Number(Number::from_i64(self.attempted as i64)),
        );
        top.insert(
            "failed",
            Value::Number(Number::from_i64(self.failed as i64)),
        );
        top.insert("metrics", Value::Object(metrics));
        serde_json::to_string(&Value::Object(top)).expect("result serializes")
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over a report's JSON text: a short fingerprint of the outputs
/// to compare across commits.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_fill_every_declared_metric() {
        let mut l = Layers::default();
        l.set("fleet.solves", 3.0);
        let m = l.into_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.iter().any(|&(n, _, v)| n == "fleet.solves" && v == 3.0));
        assert!(m.iter().all(|&(n, _, v)| n == "fleet.solves" || v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_names_are_caught() {
        Layers::default().set("fleet.typo", 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("pass_s", "s", 1.25)],
        };
        assert_eq!(
            o.to_json(),
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"pass_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
