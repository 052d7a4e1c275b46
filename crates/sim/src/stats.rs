//! Small statistics helpers used by the measurement code: exact quantiles
//! over collected samples (for the Figure 15 idle-time box plot) and a
//! simple online mean.

use crate::time::SimTime;
use serde::Serialize;

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Quartiles {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolation quantile (type 7, the R/NumPy default).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl Quartiles {
    pub fn from_samples(samples: &[f64]) -> Option<Quartiles> {
        if samples.is_empty() {
            return None;
        }
        let mut s: Vec<f64> = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        Some(Quartiles {
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        })
    }

    pub fn from_times(samples: &[SimTime]) -> Option<Quartiles> {
        let ms: Vec<f64> = samples.iter().map(|t| t.as_millis_f64()).collect();
        Quartiles::from_samples(&ms)
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Incremental mean/extremes accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Running {
    pub n: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Running {
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        self.sum += x;
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Fixed-bin histogram over a closed value range; out-of-range samples
/// clamp to the edge bins.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo, "empty range");
        assert!(bins >= 1, "need at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            total: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.bins.len() as f64) as isize).clamp(0, self.bins.len() as isize - 1)
            as usize;
        self.bins[idx] += 1;
        self.total += 1;
    }

    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Centre value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// The fullest bin, if any samples were recorded.
    pub fn mode_bin(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        self.bins
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_set() {
        let q = Quartiles::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.iqr(), 2.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let q = Quartiles::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((q.median - 2.5).abs() < 1e-12);
        assert!((q.q1 - 1.75).abs() < 1e-12);
        assert!((q.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_unsorted_input() {
        let q = Quartiles::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(q.median, 3.0);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Quartiles::from_samples(&[]).is_none());
        let q = Quartiles::from_samples(&[7.0]).unwrap();
        assert_eq!(q.min, 7.0);
        assert_eq!(q.q1, 7.0);
        assert_eq!(q.max, 7.0);
    }

    #[test]
    fn from_times_converts_to_millis() {
        let q = Quartiles::from_times(&[SimTime::from_ms(10), SimTime::from_ms(20)]).unwrap();
        assert!((q.median - 15.0).abs() < 1e-9);
    }

    #[test]
    fn running_tracks_mean_and_extremes() {
        let mut r = Running::default();
        assert_eq!(r.mean(), 0.0);
        for x in [2.0, 4.0, 6.0] {
            r.push(x);
        }
        assert_eq!(r.mean(), 4.0);
        assert_eq!(r.min, 2.0);
        assert_eq!(r.max, 6.0);
        assert_eq!(r.n, 3);
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn samples_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.5);
        h.push(5.5);
        h.push(5.6);
        h.push(9.9);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[5], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.mode_bin(), Some(5));
        assert!((h.bin_center(5) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(99.0);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[3], 1);
    }

    #[test]
    fn empty_histogram_has_no_mode() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.mode_bin(), None);
        assert_eq!(h.total(), 0);
    }
}
