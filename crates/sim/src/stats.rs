//! Small statistics helpers used by the measurement code: exact quantiles
//! over collected samples (for the Figure 15 idle-time box plot).

use crate::time::SimTime;

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
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
}
