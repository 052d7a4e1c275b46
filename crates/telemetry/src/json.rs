//! Hand-rolled JSON document tree and the snapshot's JSON exporter.
//!
//! The workspace has no serialisation crate, so every JSON document is
//! rendered by hand. [`Json`] centralises that: an
//! insertion-ordered object/array tree with deterministic rendering,
//! used for the telemetry snapshot itself and as the substrate the
//! `BENCH_*.json` writers build on.

use crate::event::EventKind;
use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order — callers decide key
/// order, rendering never reorders, so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key; builder-style, keeps insertion order.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("field() on a non-object Json"),
        }
        self
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render with two-space indentation and a trailing newline, the
    /// house style of the `BENCH_*.json` documents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render with no whitespace (event streams, embedded documents).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    let _ = write!(out, "\"{}\": ", escape(key));
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", escape(key));
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shortest-round-trip float rendering; non-finite becomes `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn labels_json(labels: &[(String, String)]) -> Json {
    Json::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect(),
    )
}

fn event_json(at_ns: u64, kind: &EventKind) -> Json {
    let base = Json::obj()
        .field("at_ns", Json::U64(at_ns))
        .field("type", Json::str(kind.type_name()));
    match kind {
        EventKind::StageStart {
            stage,
            phase,
            core,
            pipeline,
            frame,
        }
        | EventKind::StageStop {
            stage,
            phase,
            core,
            pipeline,
            frame,
        } => base
            .field("stage", Json::str(*stage))
            .field("phase", Json::str(*phase))
            .field("core", Json::U64(u64::from(*core)))
            .field(
                "pipeline",
                pipeline.map_or(Json::Null, |p| Json::U64(u64::from(p))),
            )
            .field("frame", Json::U64(*frame)),
        EventKind::ArqRetry { from, to, attempt } => base
            .field("from", Json::U64(u64::from(*from)))
            .field("to", Json::U64(u64::from(*to)))
            .field("attempt", Json::U64(u64::from(*attempt))),
        EventKind::HeartbeatMiss { core, suspicion } => base
            .field("core", Json::U64(u64::from(*core)))
            .field("suspicion", Json::F64(*suspicion)),
        EventKind::Migration {
            stage,
            pipeline,
            from_core,
            to_core,
            frames_replayed,
        } => base
            .field("stage", Json::str(*stage))
            .field("pipeline", Json::U64(u64::from(*pipeline)))
            .field("from_core", Json::U64(u64::from(*from_core)))
            .field("to_core", Json::U64(u64::from(*to_core)))
            .field("frames_replayed", Json::U64(u64::from(*frames_replayed))),
        EventKind::Degradation {
            pipeline,
            frame,
            survivors,
        } => base
            .field("pipeline", Json::U64(u64::from(*pipeline)))
            .field("frame", Json::U64(*frame))
            .field("survivors", Json::U64(u64::from(*survivors))),
    }
}

/// Schema tag stamped into every exported snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "scc-telemetry/1";

/// Build the snapshot's JSON document tree (callers may embed it in a
/// larger document, as the bench reports do).
pub fn snapshot_to_tree(snap: &Snapshot) -> Json {
    Json::obj()
        .field("schema", Json::str(SNAPSHOT_SCHEMA))
        .field(
            "counters",
            Json::Arr(
                snap.counters
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .field("name", Json::str(s.name.clone()))
                            .field("labels", labels_json(&s.labels))
                            .field("value", Json::U64(s.value))
                    })
                    .collect(),
            ),
        )
        .field(
            "gauges",
            Json::Arr(
                snap.gauges
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .field("name", Json::str(s.name.clone()))
                            .field("labels", labels_json(&s.labels))
                            .field("value", Json::F64(s.value))
                    })
                    .collect(),
            ),
        )
        .field(
            "histograms",
            Json::Arr(
                snap.histograms
                    .iter()
                    .map(|s| {
                        let mut buckets = Vec::new();
                        for (i, &count) in s.bucket_counts.iter().enumerate() {
                            let le = s.bounds.get(i).map_or(Json::Null, |&b| Json::F64(b));
                            buckets
                                .push(Json::obj().field("le", le).field("count", Json::U64(count)));
                        }
                        Json::obj()
                            .field("name", Json::str(s.name.clone()))
                            .field("labels", labels_json(&s.labels))
                            .field("buckets", Json::Arr(buckets))
                            .field("count", Json::U64(s.count))
                            .field("sum", Json::F64(s.sum))
                    })
                    .collect(),
            ),
        )
        .field(
            "events",
            Json::Arr(
                snap.events
                    .iter()
                    .map(|e| event_json(e.at_ns, &e.kind))
                    .collect(),
            ),
        )
}

/// Render the snapshot as a standalone JSON document.
pub fn render(snap: &Snapshot) -> String {
    snapshot_to_tree(snap).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TelemetrySink;

    #[test]
    fn tree_renders_deterministically() {
        let doc = Json::obj()
            .field("bench", Json::str("demo"))
            .field("ok", Json::Bool(true))
            .field("nan", Json::F64(f64::NAN))
            .field("points", Json::Arr(vec![Json::U64(1), Json::U64(2)]))
            .field("empty", Json::obj());
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"bench\": \"demo\",\n  \"ok\": true,\n  \"nan\": null,\n  \"points\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}\n"
        );
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn strings_are_escaped() {
        let doc = Json::str("a\"b\\c\nd");
        assert_eq!(doc.render_compact(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn snapshot_document_has_schema_and_sections() {
        let sink = TelemetrySink::enabled();
        sink.count("scc_frames_total", &[], 2);
        sink.observe("scc_stage_idle_ms", &[("stage", "blur")], &[1.0, 5.0], 0.5);
        let text = render(&sink.snapshot().unwrap());
        for key in [
            "\"schema\": \"scc-telemetry/1\"",
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"events\"",
            "\"le\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }
}
