//! Benchmark-side spans: one per call into a layer, recorded from
//! outside the program, kept in memory and written out at the end.
//!
//! A span is `{name, start_ns, end_ns, parent, trace_id}`; the spans of
//! one frame share its number as `trace_id`. A layer's *self time* is its
//! span minus the part of it its child spans cover, so self times add up
//! to the root span exactly and nothing is counted twice.

use scc_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub trace_id: u64,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, trace_id: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its seconds.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now_ns();
        (self.spans[i].end_ns - self.spans[i].start_ns) as f64 * 1e-9
    }

    /// A leaf span around one call; also returns the span's seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.enter(name, trace_id);
        let out = f();
        (out, self.exit())
    }

    /// A leaf span around one call.
    pub fn call<T>(&mut self, name: &'static str, trace_id: u64, f: impl FnOnce() -> T) -> T {
        self.timed(name, trace_id, f).0
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ self time per span name, in seconds.
    pub fn busy_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut busy = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *busy.entry(span.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        busy
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("name", Json::str(s.name))
                        .field("start_ns", Json::U64(s.start_ns))
                        .field("end_ns", Json::U64(s.end_ns))
                        .field(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        )
                        .field("trace_id", Json::U64(s.trace_id))
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("frame", 10, 90, Some(0)),
            span("render", 10, 50, Some(1)),
            span("blur", 55, 85, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 10, 40, 30]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new();
        t.enter("walk", 0);
        for frame in 0..3 {
            t.enter("frame", frame);
            t.call("render", frame, || std::hint::black_box(1 + 1));
            t.exit();
        }
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 7);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].trace_id, 0);
        assert_eq!(s[6].trace_id, 2);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let busy = t.busy_by_name();
        let total: f64 = busy.values().sum();
        let root = (s[0].end_ns - s[0].start_ns) as f64 * 1e-9;
        assert!((total - root).abs() < 1e-12);
        assert_eq!(busy.len(), 3);
    }
}
