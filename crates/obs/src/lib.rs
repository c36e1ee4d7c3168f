//! # cast-obs
//!
//! Structured observability for the CAST workspace: a lightweight span/event
//! tracer plus a deterministic metrics registry, behind one handle — the
//! [`Collector`].
//!
//! The design goals, in order:
//!
//! 1. **Free when off.** A no-op collector ([`Collector::noop`]) carries no
//!    allocation; every counter bump, histogram record and event emission is
//!    a single `Option` branch. Instrumentation must never change what the
//!    simulator or solver computes — results are bit-identical with and
//!    without a recording collector (proptest-guarded in the workspace root).
//! 2. **Deterministic when on.** Counters and histogram buckets only add
//!    integers (atomic adds commute across parallel annealing chains);
//!    per-chain trace events are buffered locally and flushed in restart
//!    order; wall-clock-derived metrics are quarantined behind a `.wall`
//!    name suffix ([`MetricsSnapshot::without_wall`]).
//! 3. **Plain-text durable.** Traces serialize as newline-delimited JSON —
//!    one [`TraceEvent`] per line ([`to_ndjson`]) — and parse back
//!    losslessly ([`parse_ndjson`]).
//!
//! The span taxonomy follows the two worlds being observed:
//!
//! * simulator: `job → phase → wave → task`, plus tier-bandwidth
//!   [`EventBody::Contention`] samples and [`EventBody::Fault`] edges;
//! * solver: `restart → epoch → move`, with acceptance / temperature /
//!   score payloads.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod collector;
pub mod event;
pub mod metrics;
pub mod observe;
pub mod sink;

pub use collector::Collector;
pub use event::{EventBody, TraceEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use observe::Observe;
pub use sink::{parse_ndjson, to_ndjson};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_collector_is_inert() {
        let col = Collector::noop();
        assert!(!col.enabled());
        let c = col.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        col.emit(
            1.0,
            EventBody::Task {
                job: 0,
                vm: 0,
                slot: "map".into(),
                kind: "started".into(),
            },
        );
        assert_eq!(col.event_count(), 0);
        assert_eq!(col.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn clones_share_state() {
        let col = Collector::recording();
        let other = col.clone();
        col.counter("hits").add(2);
        other.counter("hits").inc();
        assert_eq!(col.snapshot().counter("hits"), Some(3));
    }

    #[test]
    fn histogram_buckets_observations() {
        let col = Collector::recording();
        let h = col.histogram("lat", &[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        h.record(10.0); // bounds are inclusive
        let snap = col.snapshot();
        let hist = snap.histogram("lat").unwrap();
        assert_eq!(hist.bounds, vec![1.0, 10.0]);
        assert_eq!(hist.counts, vec![1, 2, 1]);
        assert_eq!(hist.count(), 4);
    }

    #[test]
    fn snapshot_is_name_sorted_and_round_trips() {
        let col = Collector::recording();
        col.counter("zeta").inc();
        col.counter("alpha").add(7);
        col.gauge("score").set(-1.25);
        col.histogram("h", &[2.0]).record(3.0);
        let snap = col.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        assert_eq!(snap.counters[1].0, "zeta");
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn without_wall_strips_wall_metrics() {
        let col = Collector::recording();
        col.counter("moves").inc();
        col.gauge("anneal.moves_per_sec.wall").set(123.0);
        let snap = col.snapshot().without_wall();
        assert_eq!(snap.counter("moves"), Some(1));
        assert_eq!(snap.gauge("anneal.moves_per_sec.wall"), None);
    }

    #[test]
    fn events_keep_emission_order_and_round_trip() {
        let col = Collector::recording();
        col.emit(
            0.0,
            EventBody::JobStart {
                job: 3,
                name: "grep".into(),
            },
        );
        col.emit_batch([
            (
                1.0,
                EventBody::Move {
                    restart: 0,
                    iter: 100,
                    score: 0.5,
                    best: 0.75,
                    temp: 0.9,
                    accepted: true,
                },
            ),
            (
                2.5,
                EventBody::Fault {
                    kind: "crash".into(),
                    vm: 4,
                },
            ),
        ]);
        let events = col.events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

        let text = to_ndjson(&events);
        let back = parse_ndjson(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn big_seed_survives_ndjson_via_i64_bits() {
        // The serde shim stores all JSON integers as i64, so u64 seeds
        // above i64::MAX are carried as their i64 bit pattern.
        let seed: u64 = 0xDEAD_BEEF_CAFE_F00D; // > i64::MAX
        let event = TraceEvent {
            seq: 0,
            t: 0.0,
            body: EventBody::RestartStart {
                restart: 1,
                seed: seed as i64,
            },
        };
        let back = parse_ndjson(&to_ndjson(&[event])).unwrap();
        match back[0].body {
            EventBody::RestartStart { seed: s, .. } => assert_eq!(s as u64, seed),
            _ => panic!("wrong variant"),
        }
    }
}
