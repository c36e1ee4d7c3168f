//! Deterministic metrics registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! Handles are looked up once (outside hot loops) and are free-standing:
//! a handle obtained from a no-op [`Collector`](crate::Collector) carries
//! `None` and every operation is a single branch with no allocation.
//!
//! Determinism rules:
//!
//! * counters and histogram buckets only ever *add* non-negative integers —
//!   atomic adds commute, so snapshots are identical no matter how parallel
//!   annealing chains interleave;
//! * gauges are last-write-wins and must only be set from deterministic,
//!   single-threaded points (end of a solve, end of a run);
//! * anything derived from wall-clock time is named with a `.wall` suffix
//!   and stripped by [`MetricsSnapshot::without_wall`] before comparing
//!   snapshots for determinism.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

/// Lock `m`, recovering the guard if a panicking holder poisoned it. Every
/// critical section in this crate only pushes, inserts or reads, so the
/// guarded value is valid wherever a holder could have panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing integer metric.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins floating-point metric.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrite the gauge with `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

struct HistCore {
    /// Inclusive upper bounds of the finite buckets; one extra overflow
    /// bucket catches everything above the last bound.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
}

/// A fixed-bucket histogram; buckets are declared at registration time.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistCore>>);

impl Histogram {
    /// Record one observation of `v`.
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(h) = &self.0 {
            let i = h
                .bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(h.bounds.len());
            h.counts[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of observations (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| {
            h.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        })
    }
}

/// The mutable registry behind a recording collector.
#[derive(Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistCore>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &'static str) -> Counter {
        let mut map = lock(&self.counters);
        Counter(Some(Arc::clone(map.entry(name).or_default())))
    }

    pub(crate) fn gauge(&self, name: &'static str) -> Gauge {
        let mut map = lock(&self.gauges);
        Gauge(Some(Arc::clone(map.entry(name).or_default())))
    }

    pub(crate) fn histogram(&self, name: &'static str, bounds: &[f64]) -> Histogram {
        let mut map = lock(&self.histograms);
        let core = map.entry(name).or_insert_with(|| {
            Arc::new(HistCore {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            })
        });
        Histogram(Some(Arc::clone(core)))
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(name, g)| (name.to_string(), f64::from_bits(g.load(Ordering::Relaxed))))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(name, h)| {
                    (
                        name.to_string(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen histogram contents inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; the last entry is the overflow bucket.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// An immutable, name-sorted dump of every registered metric.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Copy of the snapshot with every wall-clock-derived metric (name
    /// suffix `.wall`) removed — the form compared in determinism tests.
    pub fn without_wall(&self) -> MetricsSnapshot {
        let keep = |name: &str| !name.ends_with(".wall");
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
        }
    }
}
