//! The probe memo: exact answers to the timing-only workload probe, kept
//! with the [`Scene`](crate::Scene) they were computed on (DESIGN.md §20).
//!
//! A virtual-time run never rasterises; it asks, per frame and strip, what
//! the render *would* cost: the octree traversal's [`CullStats`] and the
//! rasteriser's fill-coverage estimate. Both are pure functions of the
//! scene, the strip's view-projection matrix and (coverage only) the
//! strip's pixel size — not of the pipeline count, arrangement, runtime or
//! executor — so a sweep of many configs over one scene asks the same
//! question many times. The memo answers the repeats.
//!
//! The key is the matrix's sixteen `f32` *bit patterns* plus `(width, h)`:
//! the frustum planes and every projected vertex are computed from those
//! bits and nothing else, so equal bits give equal results to the last
//! digit, while `f32` equality would be neither hashable nor exact
//! (`0.0 == -0.0`, yet they divide differently).

use crate::math::Mat4;
use crate::octree::CullStats;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Entries kept per scene. A slot is ~110 bytes with its key, so a full
/// memo stays under 8 MB; the paper's 400-frame walkthrough at every band
/// of `p = 1..=8` is 14 400 entries. Past the cap new questions are
/// answered without being remembered.
const CAP: usize = 1 << 15;

/// Which probe: the strip's view-projection matrix, bit for bit, and the
/// strip's size in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProbeKey {
    mvp: [u32; 16],
    width: u32,
    h: u32,
}

impl ProbeKey {
    pub(crate) fn new(mvp: &Mat4, width: u32, h: u32) -> ProbeKey {
        let mut bits = [0u32; 16];
        for (col, out) in mvp.cols.iter().zip(bits.chunks_exact_mut(4)) {
            out.copy_from_slice(&[col.x, col.y, col.z, col.w].map(f32::to_bits));
        }
        ProbeKey {
            mvp: bits,
            width,
            h,
        }
    }
}

/// What is known about one key. The coverage estimate runs over the
/// cull's visible set, so whoever computed it has the cull stats too.
#[derive(Debug, Clone, Copy)]
struct Probe {
    cull: CullStats,
    coverage: Option<u64>,
}

/// The memo itself. The lock guards single map operations only — never
/// the cull or the estimate — and every operation leaves the map valid,
/// so a run that panicked elsewhere while sharing the scene (the fuzzer
/// unwinds through such runs) poisons nothing worth refusing.
#[derive(Debug, Default)]
pub(crate) struct ProbeMemo {
    map: Mutex<HashMap<ProbeKey, Probe>>,
}

impl ProbeMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<ProbeKey, Probe>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn cull(&self, key: &ProbeKey) -> Option<CullStats> {
        self.lock().get(key).map(|p| p.cull)
    }

    pub(crate) fn coverage(&self, key: &ProbeKey) -> Option<u64> {
        self.lock().get(key).and_then(|p| p.coverage)
    }

    /// Remember `cull` (and `coverage`, when it was computed) for `key`.
    /// A known key only ever gains its coverage; a new key is dropped once
    /// the memo is full.
    pub(crate) fn record(&self, key: ProbeKey, cull: CullStats, coverage: Option<u64>) {
        let mut map = self.lock();
        if let Some(known) = map.get_mut(&key) {
            known.coverage = known.coverage.or(coverage);
        } else if map.len() < CAP {
            map.insert(key, Probe { cull, coverage });
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Walkthrough;
    use crate::renderer::Renderer;
    use crate::scene::{CityConfig, Scene};
    use proptest::prelude::*;
    use scc_filters::Image;
    use std::sync::{Arc, OnceLock};

    fn stats(n: u64) -> CullStats {
        CullStats {
            nodes_visited: n,
            triangles_out: n + 1,
            subtrees_accepted: n + 2,
        }
    }

    #[test]
    fn key_is_the_matrix_bits_and_the_strip_size() {
        let m = Walkthrough::standard(1.0).camera(3).view_projection();
        assert_eq!(ProbeKey::new(&m, 64, 32), ProbeKey::new(&m, 64, 32));
        assert_ne!(ProbeKey::new(&m, 64, 32), ProbeKey::new(&m, 65, 32));
        assert_ne!(ProbeKey::new(&m, 64, 32), ProbeKey::new(&m, 64, 31));
        // Equal as floats, different bits: a different question.
        let mut zero = Mat4::IDENTITY;
        zero.cols[1].x = 0.0;
        let mut neg_zero = zero;
        neg_zero.cols[1].x = -0.0;
        assert_eq!(zero, neg_zero);
        assert_ne!(ProbeKey::new(&zero, 8, 8), ProbeKey::new(&neg_zero, 8, 8));
    }

    #[test]
    fn a_known_key_gains_its_coverage_and_never_loses_it() {
        let memo = ProbeMemo::default();
        let key = ProbeKey::new(&Mat4::IDENTITY, 4, 4);
        assert_eq!((memo.cull(&key), memo.coverage(&key)), (None, None));
        memo.record(key, stats(7), None);
        assert_eq!(
            (memo.cull(&key), memo.coverage(&key)),
            (Some(stats(7)), None)
        );
        memo.record(key, stats(7), Some(99));
        assert_eq!(memo.coverage(&key), Some(99));
        memo.record(key, stats(7), None);
        assert_eq!(memo.coverage(&key), Some(99));
        assert_eq!(memo.len(), 1);
    }

    /// At the cap the map stops growing, known keys still gain their
    /// coverage, and every answer — remembered or not — stays exact.
    #[test]
    fn a_full_memo_stops_growing_and_answers_stay_exact() {
        // Four buildings a side all fall in the empty plaza: two ground
        // triangles, so a cull costs next to nothing.
        let city = CityConfig {
            side: 4,
            ..CityConfig::default()
        };
        let scene = Arc::new(Scene::city(city));
        let renderer = Renderer::new(scene.clone());
        let fresh = Renderer::new(Arc::new(Scene::city(city)));
        let cam = Walkthrough::standard(1.0).camera(11);
        // `width` is part of the key and free to vary.
        for width in 1..=CAP as u32 {
            renderer.cull_stats(&cam, width, 64, 0, 64);
        }
        assert_eq!(scene.probe_memo_len(), CAP);
        for width in [CAP as u32 + 1, CAP as u32 + 2, 3, 2] {
            for (y0, h) in [(0, 64), (16, 16)] {
                let (_, cull, coverage) = fresh.cull_strip(&cam, width, 64, y0, h);
                for _ in 0..2 {
                    assert_eq!(renderer.cull_stats(&cam, width, 64, y0, h), cull);
                    assert_eq!(renderer.coverage(&cam, width, 64, y0, h), coverage);
                }
            }
        }
        assert_eq!(scene.probe_memo_len(), CAP);
        assert_eq!(fresh.scene().probe_memo_len(), 0);
    }

    fn small_city() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 10,
            spacing: 8.0,
            seed: 7,
        }))
    }

    /// One scene for every case, so later cases run against whatever
    /// earlier ones left in the memo.
    fn warm() -> &'static Renderer {
        static WARM: OnceLock<Renderer> = OnceLock::new();
        WARM.get_or_init(|| Renderer::new(small_city()))
    }

    /// The oracle: `cull_strip` neither reads nor writes the memo.
    fn fresh() -> &'static Renderer {
        static FRESH: OnceLock<Renderer> = OnceLock::new();
        FRESH.get_or_init(|| Renderer::new(small_city()))
    }

    proptest! {
        // `PROPTEST_CASES` can only raise the count (CI does, in release).
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::default().cases.max(48),
            ..ProptestConfig::default()
        })]

        /// Frames x bands x sizes: the first answer, the remembered one
        /// and a fresh scene's `cull_strip` agree exactly on both
        /// questions, in either asking order, and the same band at another
        /// `width` (same matrix) is a different question.
        #[test]
        fn memo_answers_equal_a_fresh_cull_strip(
            frame in 0u64..400,
            p in 1u32..=8,
            width in 8u32..=96,
            height in 8u32..=96,
            coverage_first in any::<bool>(),
        ) {
            let cam = Walkthrough::standard(width as f32 / height as f32).camera(frame);
            let bounds = Image::strip_bounds(height, p);
            if p == 1 {
                prop_assert_eq!(&bounds, &vec![(0, height)], "p = 1 is the full frame");
            }
            for (y0, h) in bounds {
                for w in [width, width + 1] {
                    let (_, cull, coverage) = fresh().cull_strip(&cam, w, height, y0, h);
                    for ask_coverage in [coverage_first, !coverage_first] {
                        // First call (unless an earlier case asked), then the hit.
                        for _ in 0..2 {
                            if ask_coverage {
                                prop_assert_eq!(warm().coverage(&cam, w, height, y0, h), coverage);
                            } else {
                                prop_assert_eq!(warm().cull_stats(&cam, w, height, y0, h), cull);
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(fresh().scene().probe_memo_len(), 0);
            prop_assert!(warm().scene().probe_memo_len() > 0);
        }
    }
}
