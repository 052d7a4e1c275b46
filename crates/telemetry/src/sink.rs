//! [`TelemetrySink`] — the handle the whole system shares.
//!
//! A sink is either live (an `Arc` around a registry plus an event
//! buffer) or disabled (`None`). Disabled is the default everywhere and
//! costs one branch per record call; nothing is allocated, so runs with
//! telemetry off are bit-identical to runs before this crate existed.
//! Clones share the same store — the sim runner, the RCCE endpoints it
//! drives, and the supervisor all see one sink.

use crate::event::{Event, EventKind};
use crate::metrics::{Counter, Histogram, Registry};
use crate::snapshot::Snapshot;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct SinkInner {
    registry: Registry,
    events: Mutex<Vec<Event>>,
}

/// Cheap-clone recording handle; `Default` is disabled.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkInner>>,
}

impl TelemetrySink {
    /// A live sink with an empty registry and event stream.
    pub fn enabled() -> TelemetrySink {
        TelemetrySink {
            inner: Some(Arc::new(SinkInner::default())),
        }
    }

    /// The no-op sink: every record call early-returns.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink { inner: None }
    }

    pub fn from_enabled(on: bool) -> TelemetrySink {
        if on {
            TelemetrySink::enabled()
        } else {
            TelemetrySink::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Handle getters for hot loops (cache the returned handle).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        self.inner
            .as_ref()
            .map(|i| i.registry.counter(name, labels))
    }

    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Option<Histogram> {
        self.inner
            .as_ref()
            .map(|i| i.registry.histogram(name, labels, bounds))
    }

    /// One-shot conveniences for cold paths.
    pub fn count(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        if let Some(i) = &self.inner {
            i.registry.counter(name, labels).add(n);
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(i) = &self.inner {
            i.registry.gauge(name, labels).set(v);
        }
    }

    pub fn observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], v: f64) {
        if let Some(i) = &self.inner {
            i.registry.histogram(name, labels, bounds).observe(v);
        }
    }

    /// Append an event to the stream.
    pub fn event(&self, at_ns: u64, kind: EventKind) {
        if let Some(i) = &self.inner {
            i.events.lock().unwrap().push(Event { at_ns, kind });
        }
    }

    /// Export the current state as an immutable, deterministically
    /// ordered snapshot. `None` when the sink is disabled. Events are
    /// sorted by timestamp (stable, so same-time events keep emission
    /// order) to erase thread-interleaving noise on the native backend.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|i| {
            let mut events = i.events.lock().unwrap().clone();
            events.sort_by_key(|e| e.at_ns);
            Snapshot::from_parts(&i.registry, events)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::disabled();
        sink.count("scc_frames_total", &[], 3);
        sink.event(
            0,
            EventKind::ArqRetry {
                from: 0,
                to: 1,
                attempt: 1,
            },
        );
        assert!(!sink.is_enabled());
        assert!(sink.snapshot().is_none());
        assert!(sink.counter("scc_frames_total", &[]).is_none());
    }

    #[test]
    fn clones_share_one_store() {
        let sink = TelemetrySink::enabled();
        let other = sink.clone();
        other.count("scc_frames_total", &[], 2);
        sink.count("scc_frames_total", &[], 1);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 3);
    }

    #[test]
    fn snapshot_sorts_events_by_time() {
        let sink = TelemetrySink::enabled();
        sink.event(
            50,
            EventKind::ArqRetry {
                from: 0,
                to: 1,
                attempt: 2,
            },
        );
        sink.event(
            10,
            EventKind::ArqRetry {
                from: 0,
                to: 1,
                attempt: 1,
            },
        );
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events[0].at_ns, 10);
        assert_eq!(snap.events[1].at_ns, 50);
    }
}
