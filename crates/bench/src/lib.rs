//! # scc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI) from
//! the simulated platform. Each `figN` function returns plain data,
//! `paper_text` renders it as the `experiments` binary prints it (the
//! committed `docs/sample_experiments_output.txt`, which
//! `tests/bench_documents.rs` checks); the sweep modules build the committed
//! `BENCH_*.json` documents, which `tests/bench_documents.rs` regenerates
//! and checks.

#![forbid(unsafe_code)]

pub mod autoplace;
pub mod dvfs;
pub mod experiments;
pub mod recovery;
pub mod report;
pub mod serving;
pub mod tasks;

pub use experiments::*;

use scc_core::viz::frame_checksum;
use scc_core::RunConfig;
use scc_telemetry::Json;

/// FNV-style fold of a film's frame checksums: the `output_checksum` of
/// the autoplace and dvfs documents.
pub(crate) fn checksum_fold(frames: &[scc_filters::Image]) -> u64 {
    frames
        .iter()
        .map(frame_checksum)
        .fold(0xcbf2_9ce4_8422_2325, |acc, c| {
            (acc ^ c).wrapping_mul(0x1000_0000_01b3)
        })
}

/// The `config` object of the autoplace, recovery and dvfs documents:
/// the film configuration their sweep starts from.
pub(crate) fn config_json(cfg: &RunConfig) -> Json {
    Json::obj()
        .field("renderer", Json::str(cfg.renderer.name()))
        .field("pipelines", Json::U64(u64::from(cfg.pipelines)))
        .field("width", Json::U64(u64::from(cfg.width)))
        .field("height", Json::U64(u64::from(cfg.height)))
        .field("frames", Json::U64(cfg.frames))
        .field("seed", Json::U64(cfg.seed))
}

#[cfg(test)]
mod tests {
    /// Extract the sorted, deduplicated set of object keys from a JSON
    /// document (string-scan; the workspace has no JSON parser).
    fn json_keys(json: &str) -> Vec<String> {
        let mut keys = std::collections::BTreeSet::new();
        let bytes = json.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'"' {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let mut k = j + 1;
                while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b':' {
                    keys.insert(json[start..j].to_string());
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
        keys.into_iter().collect()
    }

    /// Assert that `json` exposes the key set of the committed
    /// `BENCH_{name}.json` at the repository root, whose values the
    /// release-only `bench_documents` test checks.
    pub(crate) fn assert_keys_match_committed(name: &str, json: &str) {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed bench document");
        assert_eq!(json_keys(json), json_keys(&committed), "key set of {path}");
    }

    #[test]
    fn json_keys_extracts_object_keys_only() {
        let json = r#"{"a":1,"nested":{"b":[{"c":"not:a:key"},2]},"a":3}"#;
        assert_eq!(json_keys(json), vec!["a", "b", "c", "nested"]);
    }
}
