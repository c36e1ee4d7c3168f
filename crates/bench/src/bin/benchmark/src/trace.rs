//! In-memory spans around the benchmark's calls into each layer, and
//! the per-layer numbers folded from them.
//!
//! A span is opened by the benchmark, never inside the program: the
//! traced replays wrap each public call (`begin_epoch`, `solve_pending`,
//! `admit_epoch`, `Engine::run_with_stats`, …) and the containers that
//! hold them (a pass, an epoch). Spans stay in memory until the run
//! ends and are then written out as NDJSON.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Spans that only group layer calls. Their self time is the part of
/// the traced wall no layer call covers.
pub const CONTAINERS: [&str; 3] = ["pass", "epoch", "setup"];

#[derive(Debug, Clone, serde::Serialize)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tenant: Option<u32>,
    pub epoch: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a span sits: its parent, and the tenant and epoch it serves.
#[derive(Debug, Clone, Copy, Default)]
pub struct At {
    pub parent: Option<usize>,
    pub tenant: Option<u32>,
    pub epoch: Option<u32>,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that keeps nothing: tracing off costs one branch per
    /// call.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it ends at the matching [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, at: At) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: at.parent,
            tenant: at.tenant,
            epoch: at.epoch,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, at);
        let out = f();
        self.close(id);
        out
    }

    /// Seconds the most recently closed span lasted.
    pub fn last_secs(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&serde_json::to_string(s).expect("spans serialize"));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Each span's duration minus the part of it its children cover.
/// Children of one parent run one after another, so their durations
/// add up without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// One layer call's totals over a traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerStat {
    /// Self time, seconds.
    pub busy_s: f64,
    pub calls: u64,
    /// Each call's duration, microseconds.
    pub durations_us: Vec<f64>,
}

impl LayerStat {
    pub fn p50_us(&self) -> f64 {
        stats::nearest_rank(&stats::sorted(&self.durations_us), 50.0)
    }

    /// The tail percentile the sample supports ([`stats::tail_pct`]) and
    /// its value.
    pub fn tail_us(&self) -> (f64, f64) {
        let pct = stats::tail_pct(self.durations_us.len());
        (
            pct,
            stats::nearest_rank(&stats::sorted(&self.durations_us), pct),
        )
    }
}

/// The traced run folded by span name.
pub struct Fold {
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Wall time of the root spans, seconds.
    pub wall_s: f64,
    /// Self time of the containers, seconds: traced wall no layer call
    /// covers.
    pub untimed_s: f64,
}

impl Fold {
    pub fn layer(&self, name: &str) -> LayerStat {
        self.layers.get(name).cloned().unwrap_or_default()
    }
}

pub fn fold(spans: &[Span]) -> Fold {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    let (mut wall_ns, mut untimed_ns) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            wall_ns += s.duration_ns();
        }
        if CONTAINERS.contains(&s.name) {
            untimed_ns += self_ns;
            continue;
        }
        let l = layers.entry(s.name).or_default();
        l.busy_s += self_ns as f64 * 1e-9;
        l.calls += 1;
        l.durations_us.push(s.duration_ns() as f64 * 1e-3);
    }
    Fold {
        layers,
        wall_s: wall_ns as f64 * 1e-9,
        untimed_s: untimed_ns as f64 * 1e-9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tenant: None,
            epoch: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // pass [0, 100) ⊃ epoch [10, 90) ⊃ begin [10, 30) + solve [40, 80)
        //                                   solve ⊃ inner [50, 60)
        let spans = vec![
            span(0, "pass", 0, 100, None),
            span(1, "epoch", 10, 90, Some(0)),
            span(2, "runtime.begin", 10, 30, Some(1)),
            span(3, "solver.solve", 40, 80, Some(1)),
            span(4, "inner", 50, 60, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 30, 10]);

        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        let f = fold(&spans);
        assert!(close(f.wall_s, 100e-9));
        // pass and epoch self time is the untimed part.
        assert!(close(f.untimed_s, 40e-9));
        let solve = f.layer("solver.solve");
        assert_eq!(solve.calls, 1);
        assert!(close(solve.busy_s, 30e-9));
        // Latency is the whole call, children included.
        assert_eq!(solve.durations_us.len(), 1);
        assert!(close(solve.durations_us[0], 0.04));
        // Every nanosecond of the root lands in exactly one self time.
        let layer_busy: f64 = f.layers.values().map(|l| l.busy_s).sum();
        assert!(close(layer_busy + f.untimed_s, f.wall_s));
    }

    #[test]
    fn recorder_nests_and_times_calls() {
        let mut rec = Recorder::new();
        let pass = rec.open("pass", At::default());
        let v = rec.time(
            "runtime.begin",
            At {
                parent: Some(pass),
                tenant: Some(3),
                epoch: Some(1),
            },
            || 7,
        );
        rec.close(pass);
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].tenant, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
