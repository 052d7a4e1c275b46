//! Property-based tests for the fault-injection subsystem:
//!
//! * the fault schedule is a pure function of the seed — same seed, same
//!   schedule, same end-to-end report;
//! * the native frame codec's CRC catches every single-byte mutation;
//! * any single stalled stage, given a retry budget and a surviving
//!   pipeline, never costs a frame.

use proptest::prelude::*;
use scc_core::runner::native::{decode_frame_checked, encode_frame};
use scc_core::viz::frame_checksum;
use scc_core::Frame;
use scc_core::{
    reference::reference_frames, run_with_scene, Backend, FaultSpec, Fidelity, NativeTuning,
    RunConfig, StallSpec,
};
use scc_filters::{Image, StripInfo};
use scc_render::{CityConfig, Scene};
use scc_sim::fault::{CoreStall, FaultConfig, FaultPlan};
use scc_sim::SimTime;
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        side: 6,
        spacing: 8.0,
        seed: 29,
    }))
}

fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        0.0..0.3f64,
        0.0..0.3f64,
        0.0..0.3f64,
        1u64..500,
        0u32..6,
        0.1..1.0f64,
        proptest::collection::vec((0u8..48, 0u64..50, 1u64..50), 0..3),
    )
        .prop_map(
            |(seed, drop, corrupt, delay, max_delay_us, links, factor, stalls)| FaultConfig {
                seed,
                drop_rate: drop,
                corrupt_rate: corrupt,
                delay_rate: delay,
                max_delay: SimTime::from_us(max_delay_us),
                degraded_links: links,
                degrade_factor: factor,
                stalls: stalls
                    .into_iter()
                    .map(|(core, at_ms, dur_ms)| CoreStall {
                        core,
                        at: SimTime::from_ms(at_ms),
                        duration: SimTime::from_ms(dur_ms),
                    })
                    .collect(),
                kills: Vec::new(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn same_seed_means_same_schedule(
        cfg in arb_fault_config(),
        probes in proptest::collection::vec((0u64..48, 0u64..48, 0u64..1000, 0u32..4), 1..20),
    ) {
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        prop_assert_eq!(a.schedule_digest(512), b.schedule_digest(512));
        for (from, to, seq, attempt) in probes {
            prop_assert_eq!(
                a.message_outcome(from, to, seq, attempt),
                b.message_outcome(from, to, seq, attempt)
            );
        }
    }

    #[test]
    fn codec_catches_every_single_byte_mutation(
        // Tiny strips (a few 16-byte CRC blocks, mostly header) and wide
        // odd-area ones: w*h odd leaves 4 or 12 bytes past the last whole
        // block, after dozens of whole blocks.
        dims in prop_oneof![
            (1u32..8, 1u32..6),
            (33u32..72).prop_map(|w| (w | 1, 3u32)),
        ],
        fill in proptest::collection::vec(any::<u8>(), 1..64),
        victim in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let (w, h) = dims;
        let mut raw = vec![0u8; (w * h * 4) as usize];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = fill[i % fill.len()];
        }
        let frame = Frame {
            id: 3,
            strip: StripInfo { index: 0, count: 1, y0: 0, height: h, full_height: h },
            full_width: w,
            image: Some(Image::from_raw(w, h, raw)),
        };
        let wire = encode_frame(&frame);
        // Clean round-trip.
        let back = decode_frame_checked(wire.clone(), 0).expect("clean decode");
        prop_assert_eq!(back.image.unwrap(), frame.image.clone().unwrap());
        // Any single flipped byte — header, payload or the CRC field
        // itself — must be rejected.
        let mut mutated = wire.clone();
        let at = (victim % mutated.len() as u64) as usize;
        mutated[at] ^= xor;
        prop_assert!(
            decode_frame_checked(mutated, 0).is_err(),
            "mutation at byte {} (of {}) slipped through", at, wire.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs two full (small) pipelines
        ..ProptestConfig::default()
    })]

    #[test]
    fn single_stage_failure_never_loses_a_frame(
        pipelines in 2u32..5,
        victim_stage in 0u32..5,
        victim_pipeline_pick in 0u32..64,
        at_ms in 0u64..3,
        retry_budget in 1u32..4,
        frames in 1u64..4,
    ) {
        let victim_pipeline = victim_pipeline_pick % pipelines;
        let cfg = RunConfig::builder()
            .pipelines(pipelines)
            .size(40, 40)
            .frames(frames)
            .seed(31)
            .fidelity(Fidelity::Full)
            .fault(FaultSpec {
                retry_budget,
                stall: Some(StallSpec {
                    pipeline: victim_pipeline,
                    stage: victim_stage,
                    at_ms,
                    for_ms: u64::MAX,
                }),
                ..FaultSpec::default()
            })
            .build()
            .expect("valid config");
        let mut clean = cfg.clone();
        clean.fault = None;
        let want: Vec<u64> = reference_frames(&clean, scene())
            .iter()
            .map(frame_checksum)
            .collect();
        let report = run_with_scene(&cfg, Backend::Sim, scene()).report.sim().unwrap();
        let got: Vec<u64> = report
            .outputs
            .expect("full fidelity")
            .iter()
            .map(frame_checksum)
            .collect();
        prop_assert_eq!(got, want, "a frame was lost or damaged");
        // With a late-starting stall and a very short walkthrough the run
        // can finish before the core ever dies; a stall from t=0 is always
        // hit.
        if at_ms == 0 {
            prop_assert!(
                !report.degradations.is_empty(),
                "a permanently stalled stage must be failed over"
            );
            prop_assert_eq!(report.degradations[0].pipeline, victim_pipeline);
        }
    }

    /// The native runner under message faults, with arbitrary host tuning
    /// (buffer pool on/off): retransmission recovers every frame and the
    /// tuning stays invisible in the pixels. No
    /// wall-clock assumptions — only delivered bytes are asserted.
    #[test]
    fn native_faults_with_any_tuning_never_lose_a_frame(
        buffer_pool in any::<bool>(),
        drop_pct in 0u32..4,
        frames in 1u64..3,
        seed in 0u64..1000,
    ) {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(40, 40)
            .frames(frames)
            .seed(seed)
            .fidelity(Fidelity::Full)
            .fault(FaultSpec {
                drop_rate: drop_pct as f64 / 100.0,
                corrupt_rate: 0.01,
                timeout_us: 100_000,
                retry_budget: 5,
                ..FaultSpec::default()
            })
            .tuning(NativeTuning { buffer_pool, ..NativeTuning::default() })
            .build()
            .expect("valid config");
        let mut clean = cfg.clone();
        clean.fault = None;
        let want: Vec<u64> = reference_frames(&clean, scene())
            .iter()
            .map(frame_checksum)
            .collect();
        let report = run_with_scene(&cfg, Backend::Native, scene()).report.native().unwrap();
        let got: Vec<u64> = report.frames.iter().map(frame_checksum).collect();
        prop_assert_eq!(got, want, "native lost or damaged a frame");
    }
}
