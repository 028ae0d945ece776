//! Order statistics over samples: median, quartiles and the tail.

/// Samples sorted ascending (NaNs never occur: every sample is a
/// measured duration, size or ratio).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// The median (mean of the two middle samples for an even count).
/// Returns NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The first quartile, median and third quartile (nearest rank).
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    if v.is_empty() {
        return [f64::NAN; 3];
    }
    [25.0, 50.0, 75.0].map(|p| v[((p * v.len() as f64 / 100.0).ceil() as usize).max(1) - 1])
}

/// The tail of a latency distribution: the highest percentile that
/// still has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// The percentile, or 100 (the maximum) when fewer than
    /// `2 * TAIL_BEYOND` samples exist and no percentile at or above the
    /// median qualifies.
    pub percentile: f64,
}

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first: 99.9, then every whole
/// percentile from 99 down to the median.
fn ladder() -> impl Iterator<Item = f64> {
    std::iter::once(99.9).chain((50..=99).rev().map(f64::from))
}

/// The highest percentile of [`ladder`] with at least [`TAIL_BEYOND`]
/// samples beyond its nearest-rank position; the maximum when none
/// qualifies. NaN for no samples.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
        };
    }
    for p in ladder() {
        let rank = (p * n as f64 / 100.0).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Tail {
                value: v[rank - 1],
                percentile: p,
            };
        }
    }
    Tail {
        value: v[n - 1],
        percentile: 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);

        let samples: Vec<f64> = (1..=35).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 71.0);
        assert_eq!(t.value, 25.0);
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let samples: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.value, 12.0);
    }
}
