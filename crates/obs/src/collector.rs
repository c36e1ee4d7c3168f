//! The [`Collector`] — the single handle instrumented code holds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{EventBody, TraceEvent};
use crate::metrics::{lock, Counter, Gauge, Histogram, MetricsSnapshot, Registry};

struct Inner {
    registry: Registry,
    events: Mutex<Vec<TraceEvent>>,
    seq: AtomicU64,
}

/// The observability handle threaded through the simulator, the solvers and
/// the `Cast` framework.
///
/// A collector is either *no-op* ([`Collector::noop`], also [`Default`]) or
/// *recording* ([`Collector::recording`]). The no-op form is a `None` — every
/// metric operation and event emission is a single branch, no allocation, so
/// instrumented code pays nothing when observability is off. Clones share
/// the same underlying registry and event buffer.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("recording", &self.enabled())
            .finish()
    }
}

impl Collector {
    /// A disabled collector: all operations are branch-cheap no-ops.
    pub fn noop() -> Self {
        Collector { inner: None }
    }

    /// A live collector that records events and metrics in memory.
    pub fn recording() -> Self {
        Collector {
            inner: Some(Arc::new(Inner {
                registry: Registry::default(),
                events: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// `true` when this collector records anything.
    ///
    /// Use this to skip *building* event payloads; metric handles already
    /// no-op on their own.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or re-obtain) a counter. Look handles up once, outside
    /// hot loops.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::default, |i| i.registry.counter(name))
    }

    /// Register (or re-obtain) a gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::default, |i| i.registry.gauge(name))
    }

    /// Register (or re-obtain) a histogram with inclusive upper bucket
    /// `bounds` (an overflow bucket is added automatically). Bounds are
    /// fixed by the first registration of a name.
    pub fn histogram(&self, name: &'static str, bounds: &[f64]) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::default, |i| i.registry.histogram(name, bounds))
    }

    /// Record one event at timestamp `t`, assigning the next sequence
    /// number. No-op (and no payload should be built) when disabled.
    pub fn emit(&self, t: f64, body: EventBody) {
        if let Some(inner) = &self.inner {
            let mut events = lock(&inner.events);
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            events.push(TraceEvent { seq, t, body });
        }
    }

    /// Record a batch of `(t, body)` pairs under one lock, preserving their
    /// order. Used to flush per-chain solver buffers in restart order.
    pub fn emit_batch(&self, batch: impl IntoIterator<Item = (f64, EventBody)>) {
        if let Some(inner) = &self.inner {
            let mut events = lock(&inner.events);
            for (t, body) in batch {
                let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
                events.push(TraceEvent { seq, t, body });
            }
        }
    }

    /// Copy of every event recorded so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock(&i.events).clone())
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(&i.events).len())
    }

    /// Frozen, name-sorted dump of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(Default::default, |i| i.registry.snapshot())
    }
}
