//! Film-stage lowering: what running filter stages on a strip, and
//! collecting a frame's strips at the transfer stage, books on the
//! platform.
//!
//! The counterpart of [`super::source`] for the rest of the chain. Every
//! virtual-time executor — the frame-major simulator, the DES validator,
//! the task runtime — charges a filter stage the same way (fetch the
//! strip unless it is already on the core, the cost model's cycles,
//! the stage's cache-model traffic) and a delivered frame the same way
//! (one fetch per strip, assemble, write, host link). [`FilmStages`]
//! writes both down once, with the one filter chain and the one resolved
//! kernel backend they need. *When* a stage may start, who it hands the
//! strip to and what happens when that core is dead stay with the
//! executor.

use super::sim::StageState;
use crate::cost::CostModel;
use crate::frame::Frame;
use crate::spec::{RunConfig, StageKind};
use scc_filters::{standard_chain, vswap, Image, ImageFilter, KernelBackend, StripInfo};
use scc_sim::platform::MemOp;
use scc_sim::{CoreId, SccPlatform, SimTime};
use std::ops::Range;

/// How the film's filter and transfer stages run, decided once per run.
pub(crate) struct FilmStages {
    chain: Vec<Box<dyn ImageFilter>>,
    backend: KernelBackend,
    seed: u64,
    full_px: u64,
}

/// The instants of one [`FilmStages::filter`] booking.
pub(crate) struct FilterTimes {
    /// The strip is out of the core's partition (`start` when it never
    /// left the core).
    pub(crate) fetched: SimTime,
    /// The last stage's compute is done; its memory traffic follows.
    pub(crate) computed: SimTime,
    pub(crate) done: SimTime,
}

/// One frame through [`FilmStages::transfer`].
pub(crate) struct Delivered {
    /// How long the transfer stage waited for the frame's first strip.
    pub(crate) idle: SimTime,
    pub(crate) start: SimTime,
    pub(crate) done: SimTime,
    /// The assembled frame, when the strips carried pixels.
    pub(crate) image: Option<Image>,
}

/// The swap stage flipped each strip locally; placing the strips at
/// mirrored positions gives the client the globally flipped frame.
pub(crate) fn assemble_mirrored(strips: &mut [(StripInfo, Image)]) -> Image {
    for (info, _) in strips.iter_mut() {
        *info = vswap::mirrored_info(*info);
    }
    Image::assemble(strips)
}

impl FilmStages {
    pub(crate) fn new(cfg: &RunConfig) -> FilmStages {
        FilmStages {
            chain: standard_chain(),
            backend: cfg.tuning.kernel,
            seed: cfg.seed,
            full_px: cfg.width as u64 * cfg.height as u64,
        }
    }

    /// Run chain stages `stages` back to back over `strip` on `core`
    /// from `start`, as one busy span. `fetch` is false when the strip
    /// is already on the core (the previous stage of a merged group left
    /// it there). Pixels, when present, go through the kernel backend;
    /// the charge is the cost model's either way — it prices P54C
    /// cycles from the strip's geometry, not host instructions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn filter(
        &self,
        platform: &mut SccPlatform,
        cost: &CostModel,
        core: CoreId,
        stages: Range<usize>,
        strip: &mut Frame,
        start: SimTime,
        fetch: bool,
    ) -> FilterTimes {
        let bytes = strip.byte_len();
        let ctx = strip.ctx(self.seed);
        let fetched = if fetch {
            platform.fetch_from_partition(core, start, bytes)
        } else {
            start
        };
        let (mut computed, mut done) = (fetched, fetched);
        for j in stages {
            let filter = self.chain[j].as_ref();
            let cycles = cost.filter_cycles(filter, &ctx);
            if let Some(img) = strip.image.as_mut() {
                filter.apply_vectored(img, &ctx, self.backend, 1);
            }
            computed = platform.compute(core, done, cycles as u64);
            let traffic = cost.stage_traffic(StageKind::PIPELINE_FILTERS[j], bytes);
            let t = platform.mem_stream(core, computed, MemOp::Read, traffic.read_bytes);
            done = platform.mem_stream(core, t, MemOp::Write, traffic.write_bytes);
        }
        platform.record_busy(core, start, done);
        FilterTimes {
            fetched,
            computed,
            done,
        }
    }

    /// Collect one frame at the transfer stage: fetch each strip in the
    /// order given (no earlier than its arrival), assemble, write the
    /// frame out and ship it to the client, advancing `stage`'s ledger.
    /// A strip's size is its own, whatever order the strips come in.
    pub(crate) fn transfer(
        &self,
        platform: &mut SccPlatform,
        cost: &CostModel,
        stage: &mut StageState,
        strips: Vec<(SimTime, Frame)>,
    ) -> Delivered {
        let first = strips
            .iter()
            .map(|(at, _)| *at)
            .min()
            .expect("a frame has at least one strip");
        let idle = first.saturating_sub(stage.free);
        let start = stage.free.max(first);
        let core = stage.core;
        let mut t = stage.free;
        for (at, strip) in &strips {
            t = platform.fetch_from_partition(core, (*at).max(t), strip.byte_len());
        }
        let full_bytes = self.full_px * 4;
        t = platform.compute(core, t, cost.assemble_cycles(self.full_px) as u64);
        t = platform.mem_stream(core, t, MemOp::Write, full_bytes);
        let done = platform.chip_to_host(core, t, full_bytes);
        platform.record_busy(core, start, done);
        stage.idle_samples.push(idle);
        stage.advance(start, done);
        let pixels: Option<Vec<(StripInfo, Image)>> = strips
            .into_iter()
            .map(|(_, fr)| Some((fr.strip, fr.image?)))
            .collect();
        Delivered {
            idle,
            start,
            done,
            image: pixels.map(|mut p| assemble_mirrored(&mut p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Fidelity;
    use scc_sim::SccConfig;

    const WIDTH: u32 = 120;
    const HEIGHT: u32 = 120;
    const START: SimTime = SimTime::from_us(7);

    fn stages() -> FilmStages {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(WIDTH, HEIGHT)
            .frames(1)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid test config");
        FilmStages::new(&cfg)
    }

    /// Strip 1 of 2, with or without pixels.
    fn strip(pixels: bool) -> Frame {
        let (y0, height) = Image::strip_bounds(HEIGHT, 2)[1];
        Frame {
            id: 3,
            strip: StripInfo {
                index: 1,
                count: 2,
                y0,
                height,
                full_height: HEIGHT,
            },
            full_width: WIDTH,
            image: pixels.then(|| Image::new(WIDTH, height)),
        }
    }

    /// Book `stages_run` from [`START`] on a fresh platform.
    fn book(stages_run: Range<usize>, pixels: bool, fetch: bool) -> FilterTimes {
        stages().filter(
            &mut SccPlatform::new(SccConfig::default()),
            &CostModel::default(),
            CoreId::new(5),
            stages_run,
            &mut strip(pixels),
            START,
            fetch,
        )
    }

    #[test]
    fn a_strip_already_on_the_core_is_not_fetched() {
        let fetched = book(1..2, false, true);
        assert!(
            fetched.fetched > START,
            "a strip in the partition costs a fetch"
        );
        let resident = book(1..2, false, false);
        assert_eq!(resident.fetched, START);
        // Everything after the fetch is the same work, just earlier.
        assert_eq!(
            resident.done - resident.fetched,
            fetched.done - fetched.fetched
        );
    }

    #[test]
    fn timing_only_and_full_fidelity_book_the_same_instants() {
        let proxy = book(0..5, false, true);
        let real = book(0..5, true, true);
        assert_eq!(proxy.fetched, real.fetched);
        assert_eq!(proxy.computed, real.computed);
        assert_eq!(proxy.done, real.done);
    }
}
