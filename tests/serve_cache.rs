//! Cache-correctness suite: the serving layer's content-addressed strip
//! cache must be *semantically transparent*. Every session's film is
//! byte-identical with the cache enabled, disabled, collision-thrashed
//! (one hash bucket) or eviction-thrashed (capacity 2) — across all
//! three renderer modes — and every served frame equals the sequential
//! reference at its pose. A property sweep then holds the line over
//! randomized workload/cache geometry (seeds pinned in CI).

mod common;

use common::scene;
use proptest::prelude::*;
use scc_core::reference::reference_frames;
use scc_core::{Fidelity, RendererMode, RunConfig};
use scc_filters::{fnv1a, KernelBackend, FNV_OFFSET, FNV_PRIME};
use scc_serve::{serve, ServeConfig, ServeOutcome, TenantSpec};

const MODES: [RendererMode; 3] = [
    RendererMode::SingleRenderer,
    RendererMode::PerPipelineRenderer,
    RendererMode::McpcRenderer,
];

fn serve_cfg(mode: RendererMode) -> ServeConfig {
    ServeConfig {
        run: RunConfig::builder()
            .renderer(mode)
            .pipelines(2)
            .size(40, 32)
            .seed(23)
            .fidelity(Fidelity::Full)
            .verify(true)
            .build()
            .expect("valid run config"),
        tenants: vec![TenantSpec::new("a", 2, 4, 4), TenantSpec::new("b", 1, 2, 4)],
        shards: 2,
        pool: 2,
        cache_capacity: 64,
        cache_buckets: 32,
        queue_depth: 8,
        max_sessions: 16,
        batch_frames: 3,
        pose_span: 3,
        arrival_burst: 3,
        seed: 0xCAFE,
        keep_films: true,
    }
}

fn run(cfg: &ServeConfig) -> ServeOutcome {
    serve(cfg, &scene())
}

/// Films as raw bytes per session, for byte-exact comparison.
fn films_bytes(out: &ServeOutcome) -> Vec<(u32, Vec<Vec<u8>>)> {
    out.films
        .iter()
        .map(|f| {
            (
                f.id,
                f.film.iter().map(|img| img.as_bytes().to_vec()).collect(),
            )
        })
        .collect()
}

#[test]
fn cache_is_transparent_in_every_renderer_mode() {
    for mode in MODES {
        let on_cfg = serve_cfg(mode);
        let mut off_cfg = serve_cfg(mode);
        off_cfg.cache_capacity = 0;
        let on = run(&on_cfg);
        let off = run(&off_cfg);
        assert!(on.report.cache.hits > 0, "{mode:?}: overlap must hit");
        assert_eq!(off.report.cache.hits, 0, "{mode:?}: disabled cache hit");
        assert_eq!(
            films_bytes(&on),
            films_bytes(&off),
            "{mode:?}: cache changed film bytes"
        );
        assert_eq!(on.report.film_hash, off.report.film_hash);
    }
}

#[test]
fn kernel_choice_never_moves_a_served_pixel() {
    // `serve` runs the filter chain through the backend `tuning.kernel`
    // resolves to, as the three runners do. 36 columns leave the 8-pixel
    // block kernels a tail on every row of every 8-row strip.
    for mode in MODES {
        let films = [KernelBackend::Scalar, KernelBackend::Simd].map(|kernel| {
            let mut cfg = serve_cfg(mode);
            cfg.run.width = 36;
            cfg.run.height = 24;
            cfg.run.pipelines = 3;
            cfg.run.tuning.kernel = kernel;
            cfg.keep_films = false;
            cfg.validate().expect("valid serve config");
            let out = run(&cfg);
            let sums: Vec<(u32, Vec<u64>)> = out
                .films
                .iter()
                .map(|f| (f.id, f.checksums.clone()))
                .collect();
            (out.report.film_hash, sums)
        });
        assert!(!films[0].1.is_empty(), "{mode:?}: no session completed");
        assert_eq!(films[1], films[0], "{mode:?}: simd differs from scalar");
    }
}

#[test]
fn served_frames_equal_the_sequential_reference_at_their_pose() {
    // A session's f-th frame displays pose `start_pose + f`; it must be
    // byte-identical to the reference frame at that pose (MCPC renders
    // full frames and splits, exactly like the single-renderer path).
    for mode in MODES {
        let cfg = serve_cfg(mode);
        let out = run(&cfg);
        let max_pose = out
            .films
            .iter()
            .map(|f| f.start_pose + f.film.len() as u64)
            .max()
            .expect("sessions completed");
        let mut rc = cfg.run.clone();
        rc.frames = max_pose;
        if rc.renderer == RendererMode::McpcRenderer {
            rc.renderer = RendererMode::SingleRenderer;
        }
        let reference = reference_frames(&rc, scene());
        for f in &out.films {
            for (i, frame) in f.film.iter().enumerate() {
                let pose = f.start_pose + i as u64;
                assert_eq!(
                    frame.as_bytes(),
                    reference[pose as usize].as_bytes(),
                    "{mode:?}: session {} frame {i} (pose {pose}) diverged from reference",
                    f.id
                );
            }
        }
    }
}

#[test]
fn forced_hash_collisions_never_alias_pixels() {
    // One hash bucket: every strip key collides, so each lookup must be
    // resolved by full-key comparison. The films stay byte-identical to
    // the cache-off run even though every bucket probe collides.
    for mode in MODES {
        let mut coll_cfg = serve_cfg(mode);
        coll_cfg.cache_buckets = 1;
        let mut off_cfg = serve_cfg(mode);
        off_cfg.cache_capacity = 0;
        let coll = run(&coll_cfg);
        let off = run(&off_cfg);
        assert!(
            coll.report.cache.collisions > 0,
            "{mode:?}: a single bucket must collide"
        );
        assert!(coll.report.cache.hits > 0, "{mode:?}: overlap must hit");
        assert_eq!(
            films_bytes(&coll),
            films_bytes(&off),
            "{mode:?}: a hash collision aliased pixels"
        );
    }
}

#[test]
fn eviction_under_tiny_capacity_still_completes_every_session() {
    // Capacity 2 with 2-strip frames: the cache thrashes constantly, yet
    // every admitted session completes and the film stays byte-identical.
    for mode in MODES {
        let mut tiny_cfg = serve_cfg(mode);
        tiny_cfg.cache_capacity = 2;
        tiny_cfg.cache_buckets = 2;
        let mut off_cfg = serve_cfg(mode);
        off_cfg.cache_capacity = 0;
        let tiny = run(&tiny_cfg);
        let off = run(&off_cfg);
        assert!(
            tiny.report.cache.evictions > 0,
            "{mode:?}: capacity 2 must evict"
        );
        assert_eq!(
            tiny.report.completed, tiny.report.admitted,
            "{mode:?}: a session failed to complete under eviction pressure"
        );
        assert_eq!(tiny.report.shed, 0);
        assert_eq!(
            films_bytes(&tiny),
            films_bytes(&off),
            "{mode:?}: eviction pressure changed film bytes"
        );
    }
}

#[test]
fn delivered_checksums_are_the_fnv1a_of_the_delivered_frames() {
    // The property by meaning, not by digest: every checksum a session
    // receives is the FNV-1a of the frame it received, and `film_hash`
    // folds those checksums word by word in session id order. 31 rows
    // leave p = 2 and p = 3 strips of unequal height; 2 shards x 3 frames
    // make rounds of up to six frames, not a multiple of four.
    for mode in MODES {
        for p in [1u32, 2, 3] {
            let mut cfg = serve_cfg(mode);
            cfg.run.width = 40;
            cfg.run.height = 31;
            cfg.run.pipelines = p;
            cfg.validate().expect("valid serve config");
            let out = run(&cfg);
            assert!(
                !out.films.is_empty(),
                "{mode:?} p={p}: no session completed"
            );
            let mut film_hash = FNV_OFFSET;
            for f in &out.films {
                assert_eq!(
                    f.checksums.len(),
                    f.film.len(),
                    "{mode:?} p={p}: session {}",
                    f.id
                );
                for (i, (sum, frame)) in f.checksums.iter().zip(&f.film).enumerate() {
                    assert_eq!(
                        *sum,
                        fnv1a(frame.as_bytes()),
                        "{mode:?} p={p}: session {} frame {i}",
                        f.id
                    );
                    film_hash = (film_hash ^ sum).wrapping_mul(FNV_PRIME);
                }
            }
            assert_eq!(out.report.film_hash, film_hash, "{mode:?} p={p}: film_hash");
        }
    }
}

#[test]
fn serve_is_pinned_across_cache_windows() {
    // Capacity 0 turns the cache off, 2 evicts a strip and misses it again
    // rounds later, 6 keeps a strip long enough for a hit many rounds after
    // its render, 256 never evicts. Every mode at p = 1..=3 over 40x31;
    // each run's film_hash, virtual time bits and cache counters are
    // folded into one FNV-1a digest, in that order.
    let mut digest = FNV_OFFSET;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    for mode in MODES {
        for p in [1u32, 2, 3] {
            for capacity in [0u32, 2, 6, 256] {
                let mut cfg = serve_cfg(mode);
                cfg.run.width = 40;
                cfg.run.height = 31;
                cfg.run.pipelines = p;
                cfg.cache_capacity = capacity;
                cfg.keep_films = false;
                cfg.validate().expect("valid serve config");
                let r = run(&cfg).report;
                assert_eq!(r.completed, r.admitted, "{mode:?} p={p} cap={capacity}");
                let c = r.cache;
                if capacity > 0 {
                    assert!(c.hits > 0, "{mode:?} p={p} cap={capacity}: no hit");
                }
                if capacity == 2 {
                    assert!(
                        c.evictions > 0,
                        "{mode:?} p={p} cap={capacity}: no eviction"
                    );
                }
                for word in [
                    r.film_hash,
                    r.virtual_secs.to_bits(),
                    c.hits,
                    c.misses,
                    c.evictions,
                    c.collisions,
                    c.insertions,
                ] {
                    fold(word);
                }
            }
        }
    }
    assert_eq!(
        digest, 0xa524_4e9d_006c_48b1,
        "serve moved: digest {digest:#018x}"
    );

    // Films kept under a thrashing cache: each frame hashes to its checksum.
    let mut cfg = serve_cfg(RendererMode::McpcRenderer);
    cfg.run.width = 40;
    cfg.run.height = 31;
    cfg.run.pipelines = 3;
    cfg.cache_capacity = 2;
    let out = run(&cfg);
    assert!(!out.films.is_empty(), "no session completed");
    for f in &out.films {
        assert_eq!(f.checksums.len(), f.film.len(), "session {}", f.id);
        for (i, (sum, frame)) in f.checksums.iter().zip(&f.film).enumerate() {
            assert_eq!(*sum, fnv1a(frame.as_bytes()), "session {} frame {i}", f.id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case serves two full (small) workloads
        ..ProptestConfig::default()
    })]

    /// Transparency is not a property of friendly geometry: any session
    /// mix, pose span, capacity and bucket count must keep the film
    /// fingerprint identical cache on/off with a balanced ledger.
    #[test]
    fn cache_transparency_holds_over_random_geometry(
        sessions in 1u32..8,
        frames in 1u32..5,
        pose_span in 1u64..6,
        capacity in 1u32..16,
        buckets in 1u32..8,
        wseed in 0u64..1000,
        mode_ix in 0usize..3,
    ) {
        let mut on_cfg = serve_cfg(MODES[mode_ix]);
        on_cfg.tenants = vec![TenantSpec::new("t", 1, sessions, frames)];
        on_cfg.pose_span = pose_span;
        on_cfg.cache_capacity = capacity;
        on_cfg.cache_buckets = buckets;
        on_cfg.seed = wseed;
        on_cfg.keep_films = false;
        let mut off_cfg = on_cfg.clone();
        off_cfg.cache_capacity = 0;
        let on = run(&on_cfg);
        let off = run(&off_cfg);
        prop_assert_eq!(on.report.film_hash, off.report.film_hash);
        prop_assert_eq!(on.report.frames_served, off.report.frames_served);
        prop_assert_eq!(on.report.completed + on.report.shed, on.report.admitted);
        prop_assert_eq!(off.report.completed + off.report.shed, off.report.admitted);
    }
}
