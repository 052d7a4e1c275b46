//! Stage-timeline tracing.
//!
//! When enabled ([`crate::spec::RunConfig::trace`]), the simulated runner
//! records one span per stage phase per frame — waiting for input,
//! fetching it from the DRAM partition, computing, streaming buffers, and
//! handing the frame on. The log exports to the Chrome trace-event JSON
//! format (`chrome://tracing`, Perfetto), with one row per SCC core, which
//! makes pipeline stalls and the bottleneck stage visible at a glance.

use crate::spec::StageKind;
use scc_sim::{CoreId, SimTime};
use scc_telemetry::{ChromeSpan, EventKind, TelemetrySink};

/// What a core was doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Blocked waiting for the previous stage's frame.
    Wait,
    /// Pulling the frame out of the core's DRAM partition.
    Fetch,
    /// Executing the stage's computation.
    Compute,
    /// Streaming auxiliary buffers through the cache/DRAM.
    Memory,
    /// Pushing the frame into the next stage's partition.
    Send,
    /// A failed pipeline's strip being adopted by a surviving neighbour
    /// (fault-injection runs only).
    Degrade,
    /// A killed stage being detected, provisioned on a spare core, and
    /// its checkpointed frames replayed (supervised runs only).
    Migrate,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Wait => "wait",
            Phase::Fetch => "fetch",
            Phase::Compute => "compute",
            Phase::Memory => "memory",
            Phase::Send => "send",
            Phase::Degrade => "degrade",
            Phase::Migrate => "migrate",
        }
    }
}

/// One traced span.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    pub core: u8,
    pub kind: StageKind,
    pub pipeline: Option<u32>,
    pub frame: u64,
    pub phase: Phase,
    pub t0: SimTime,
    pub t1: SimTime,
}

/// An in-memory trace log.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span; zero-length spans are dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        core: CoreId,
        kind: StageKind,
        pipeline: Option<u32>,
        frame: u64,
        phase: Phase,
        t0: SimTime,
        t1: SimTime,
    ) {
        if t1 > t0 {
            self.events.push(TraceEvent {
                core: core.raw(),
                kind,
                pipeline,
                frame,
                phase,
                t0,
                t1,
            });
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Append every span of `other` — used to merge the per-thread logs
    /// the native runner collects.
    pub fn merge(&mut self, other: TraceLog) {
        self.events.extend(other.events);
    }

    /// Sort spans by start time (merged multi-thread logs arrive in
    /// join order, not time order).
    pub fn sort_by_time(&mut self) {
        self.events.sort_by_key(|e| (e.t0, e.core, e.t1));
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total time spent in `phase` by `kind` stages.
    pub fn phase_total(&self, kind: StageKind, phase: Phase) -> SimTime {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.phase == phase)
            .map(|e| e.t1 - e.t0)
            .sum()
    }

    /// Export as Chrome trace-event JSON (load in `chrome://tracing` or
    /// Perfetto). Virtual microseconds; one row ("thread") per core.
    /// Rendering is delegated to `scc-telemetry`'s Chrome exporter, the
    /// single writer for this format.
    pub fn to_chrome_json(&self) -> String {
        let spans: Vec<ChromeSpan> = self
            .events
            .iter()
            .map(|e| ChromeSpan {
                name: scc_telemetry::chrome::span_name(
                    e.kind.name(),
                    e.pipeline,
                    e.frame,
                    e.phase.name(),
                ),
                cat: e.phase.name().to_string(),
                ts_us: e.t0.as_ps() as f64 / 1e6, // ps -> us
                dur_us: (e.t1 - e.t0).as_ps() as f64 / 1e6,
                pid: 1,
                tid: u32::from(e.core),
            })
            .collect();
        scc_telemetry::chrome::render(&spans)
    }

    /// Mirror every span into a telemetry sink's event stream as a
    /// `stage_start`/`stage_stop` pair (virtual nanoseconds). No-op on a
    /// disabled sink.
    pub fn record_into(&self, sink: &TelemetrySink) {
        if !sink.is_enabled() {
            return;
        }
        for e in &self.events {
            let mk = |stop: bool| {
                let (stage, phase, core, pipeline, frame) = (
                    e.kind.name(),
                    e.phase.name(),
                    u32::from(e.core),
                    e.pipeline,
                    e.frame,
                );
                if stop {
                    EventKind::StageStop {
                        stage,
                        phase,
                        core,
                        pipeline,
                        frame,
                    }
                } else {
                    EventKind::StageStart {
                        stage,
                        phase,
                        core,
                        pipeline,
                        frame,
                    }
                }
            };
            sink.event(e.t0.as_ps() / 1_000, mk(false));
            sink.event(e.t1.as_ps() / 1_000, mk(true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with_events() -> TraceLog {
        let mut log = TraceLog::new();
        log.span(
            CoreId::new(2),
            StageKind::Blur,
            Some(0),
            7,
            Phase::Compute,
            SimTime::from_ms(10),
            SimTime::from_ms(15),
        );
        log.span(
            CoreId::new(2),
            StageKind::Blur,
            Some(0),
            7,
            Phase::Send,
            SimTime::from_ms(15),
            SimTime::from_ms(16),
        );
        log.span(
            CoreId::new(4),
            StageKind::Transfer,
            None,
            7,
            Phase::Wait,
            SimTime::ZERO,
            SimTime::from_ms(16),
        );
        log
    }

    #[test]
    fn spans_recorded_and_zero_length_dropped() {
        let mut log = log_with_events();
        log.span(
            CoreId::new(0),
            StageKind::Sepia,
            Some(0),
            0,
            Phase::Fetch,
            SimTime::from_ms(1),
            SimTime::from_ms(1),
        );
        assert_eq!(log.events().len(), 3, "zero-length span must be dropped");
    }

    #[test]
    fn phase_totals() {
        let log = log_with_events();
        assert_eq!(
            log.phase_total(StageKind::Blur, Phase::Compute),
            SimTime::from_ms(5)
        );
        assert_eq!(
            log.phase_total(StageKind::Blur, Phase::Send),
            SimTime::from_ms(1)
        );
        assert_eq!(
            log.phase_total(StageKind::Sepia, Phase::Compute),
            SimTime::ZERO
        );
    }

    #[test]
    fn chrome_json_shape() {
        let log = log_with_events();
        let json = log.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains("blur p0 f7 compute"));
        assert!(json.contains(r#""tid":2"#));
        // Timestamps are virtual microseconds.
        assert!(json.contains(r#""ts":10000.000"#));
        assert!(json.contains(r#""dur":5000.000"#));
        // Must parse as a JSON array of 3 objects (cheap structural check).
        assert_eq!(json.matches(r#""name":"#).count(), 3);
    }

    #[test]
    fn empty_log() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        assert_eq!(log.to_chrome_json(), "[]");
    }

    #[test]
    fn record_into_mirrors_spans_as_event_pairs() {
        let log = log_with_events();
        let sink = TelemetrySink::enabled();
        log.record_into(&sink);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events.len(), 2 * log.events().len());
        // The event stream round-trips to the same Chrome JSON spans.
        let spans = scc_telemetry::chrome::events_to_spans(&snap.events);
        assert_eq!(spans.len(), log.events().len());
        let direct = log.to_chrome_json();
        for span in &spans {
            assert!(direct.contains(&span.name), "missing {}", span.name);
        }
        // Disabled sink: nothing recorded, nothing allocated.
        let off = TelemetrySink::disabled();
        log.record_into(&off);
        assert!(off.snapshot().is_none());
    }
}
