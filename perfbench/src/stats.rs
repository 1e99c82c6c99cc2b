//! Percentiles by nearest rank over raw samples.
//!
//! Every figure the benchmark prints is a value that was actually
//! observed: samples are kept whole, sorted, and the `p`-th percentile is
//! the sample at rank `ceil(p/100 · n)`. Nothing is bucketed or
//! interpolated, and each percentile carries the count it was taken from.

/// A percentile and the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The observed sample at the percentile's rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Raw samples of one measurement.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Self {
            values,
            sorted: false,
        }
    }
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `p`-th percentile (`0 < p ≤ 100`) by nearest rank, or `None`
    /// when there are no samples.
    pub fn percentile(&mut self, p: f64) -> Option<Quantile> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(Quantile {
            value: self.values[rank.clamp(1, n) - 1],
            samples: n,
        })
    }

    /// The median by nearest rank.
    pub fn median(&mut self) -> Option<Quantile> {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let mut s = of(&(1..=100).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(50.0).unwrap().value, 50.0);
        assert_eq!(s.percentile(90.0).unwrap().value, 90.0);
        assert_eq!(s.percentile(99.0).unwrap().value, 99.0);
        assert_eq!(s.percentile(100.0).unwrap().value, 100.0);
        assert_eq!(s.percentile(0.1).unwrap().value, 1.0);
        assert_eq!(s.percentile(99.0).unwrap().samples, 100);
    }

    #[test]
    fn percentiles_never_interpolate() {
        // A fixed-bucket histogram would report a p50 between the two
        // clusters; nearest rank returns a value that was observed.
        let mut s = of(&[1.0, 1.0, 9.27, 9.27]);
        assert_eq!(s.median().unwrap().value, 1.0);
        let mut one = of(&[9.27]);
        let q = one.percentile(99.0).unwrap();
        assert_eq!((q.value, q.samples), (9.27, 1));
        let mut odd = of(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median().unwrap().value, 2.0);
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        assert!(Samples::new().median().is_none());
    }
}
