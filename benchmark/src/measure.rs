//! What every workload shares: seed derivation, the set-up timer, the
//! repeat-until-time's-up sampler and the result of one measured run.

use crate::catalog::Better;
use scc_core::spec::StageKind;
use scc_serve::splitmix64;
use scc_sim::stats::Quartiles;
use std::collections::BTreeMap;
use std::time::Instant;

/// `--seed` default: reproduces the repository's standard inputs.
pub const DEFAULT_SEED: u64 = 0x51CC_F11F;

/// Set-up is sampled at least this many times per run.
pub const SETUP_BUILDS: usize = 21;

/// A run takes at least this many throughput samples, however long one
/// takes, so that the reported median is a median.
pub const MIN_SAMPLES: usize = 3;

/// `catalog::STAGES` as the program's stage kinds, in the same order.
pub const STAGE_KINDS: [StageKind; 7] = [
    StageKind::Render,
    StageKind::Sepia,
    StageKind::Blur,
    StageKind::Scratch,
    StageKind::Flicker,
    StageKind::Swap,
    StageKind::Transfer,
];

/// The three seeds the program's configs take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `RunConfig::seed` (scratch and flicker randomness).
    pub run: u64,
    /// `ServeConfig::seed` (session start poses).
    pub serve: u64,
    /// `CityConfig::seed` (building footprints, heights, colours).
    pub city: u64,
}

impl Seeds {
    /// The default seed maps to the repository's standard values exactly;
    /// any other seed derives the three with `splitmix64`.
    pub fn derive(seed: u64) -> Seeds {
        if seed == DEFAULT_SEED {
            return Seeds {
                run: 0x51CC_F11F,
                serve: 0x05EC_5E55,
                city: 0xC17B_0A5E,
            };
        }
        let run = splitmix64(seed);
        let serve = splitmix64(run);
        let city = splitmix64(serve);
        Seeds { run, serve, city }
    }
}

/// One measured run of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations whose output was checked (frames, configs, sessions).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    /// Untraced run: every sample of every end-to-end metric.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced run: the per-layer metrics this workload exercises; the
    /// layers it bypasses did no work and are reported as 0.
    pub layers: BTreeMap<String, f64>,
    /// Workload sizes, recorded with the results.
    pub sizes: Vec<(&'static str, u64)>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        let previous = self.layers.insert(name.to_string(), value);
        assert!(previous.is_none(), "per-layer metric {name} set twice");
    }

    /// The untraced run's two end-to-end metrics.
    pub fn end_to_end(&mut self, frames_per_s: Vec<f64>, setup_s: Vec<f64>) {
        self.samples.insert("host_frames_per_s", frames_per_s);
        self.samples.insert("setup_s", setup_s);
    }

    /// Record a broken invariant that is not one failed operation.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A set-up sample times at least this long, so that a microsecond
/// build (the ground-only scene) is not measured at the clock's grain.
const SETUP_SAMPLE_SECS: f64 = 0.002;

/// Times the workload's set-up. A sample is the mean seconds per build
/// over as many back-to-back builds as fill [`SETUP_SAMPLE_SECS`].
pub struct SetupTimer<F> {
    build: F,
    builds_per_sample: usize,
    pub samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// Build once (sizing the samples from how long that takes); returns
    /// the timer and the build.
    pub fn start(mut build: F) -> (SetupTimer<F>, T) {
        let (built, secs) = timed(&mut build);
        let timer = SetupTimer {
            build,
            builds_per_sample: (SETUP_SAMPLE_SECS / secs).clamp(1.0, 4096.0) as usize,
            samples: Vec::new(),
        };
        (timer, built)
    }

    pub fn sample(&mut self) {
        let ((), secs) = timed(|| {
            for _ in 0..self.builds_per_sample {
                std::hint::black_box((self.build)());
            }
        });
        self.samples.push(secs / self.builds_per_sample as f64);
    }
}

/// The measured part of an untraced run: call `once` (one complete run
/// of the program, returning its throughput) until `seconds` have passed
/// and [`MIN_SAMPLES`] samples exist, taking one set-up sample after
/// each — spread over the whole run, so that a neighbour's burst at the
/// start of the process cannot slow every one of them — and at least
/// [`SETUP_BUILDS`] in all. Returns the throughput samples.
pub fn sample_for<T, F: FnMut() -> T>(
    seconds: f64,
    setup: &mut SetupTimer<F>,
    mut once: impl FnMut() -> f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        samples.push(once());
        setup.sample();
    }
    while setup.samples.len() < SETUP_BUILDS {
        setup.sample();
    }
    samples
}

pub fn quartiles(samples: &[f64]) -> Quartiles {
    Quartiles::from_samples(samples).expect("at least one sample")
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).median
}

/// The value an end-to-end metric reports for its samples: the best one
/// (highest throughput, shortest time), as `timeit` reports a minimum.
/// The samples are repeats of identical work, and on a shared host a
/// neighbour's burst only ever slows a repeat down — by up to half, for
/// a second or more at a time — so the best repeat estimates the
/// undisturbed speed, while the median moves with how much of the run
/// happened to be disturbed. Measured on the 2-CPU container, the best
/// sample's run-to-run spread was half the median's.
pub fn reported(samples: &[f64], better: Better) -> f64 {
    let q = quartiles(samples);
    match better {
        Better::Higher => q.max,
        Better::Lower => q.min,
    }
}

/// `part` as a percentage of `whole`.
pub fn pct(part: f64, whole: f64) -> f64 {
    100.0 * part / whole
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_repository_standard() {
        let s = Seeds::derive(DEFAULT_SEED);
        assert_eq!(s.run, scc_core::RunConfig::default().seed);
        assert_eq!(s.serve, scc_serve::ServeConfig::default().seed);
        assert_eq!(s.city, scc_render::CityConfig::default().seed);
        let other = Seeds::derive(7);
        assert_eq!(other, Seeds::derive(7));
        assert_ne!(other, s);
        assert_ne!(other, Seeds::derive(8));
    }

    #[test]
    fn stage_kinds_match_the_catalog_names() {
        let names = STAGE_KINDS.map(StageKind::name);
        assert_eq!(names, crate::catalog::STAGES);
    }

    #[test]
    fn quartiles_and_median_interpolate() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (q.min, q.q1, q.median, q.q3, q.max),
            (1.0, 1.75, 2.5, 3.25, 4.0)
        );
        assert_eq!(median(&[9.0]), 9.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let samples = [5.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(reported(&samples, Better::Higher), 5.0);
        assert_eq!(reported(&samples, Better::Lower), 1.0);
    }

    #[test]
    fn sampler_takes_the_minimum_and_setup_is_sampled_throughout() {
        let (mut setup, built) = SetupTimer::start(|| 5);
        assert_eq!(built, 5);
        let mut calls = 0;
        let samples = sample_for(0.0, &mut setup, || {
            calls += 1;
            calls as f64
        });
        assert_eq!(samples, vec![1.0, 2.0, 3.0]);
        assert_eq!(setup.samples.len(), SETUP_BUILDS);
        assert!(setup.samples.iter().all(|s| *s > 0.0));
    }
}
