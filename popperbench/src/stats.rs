//! Percentiles and ratios, each reported with the base it was taken over.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `None` on no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median, by nearest rank.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A tail percentile, reported only when at least [`TAIL_BEYOND`]
/// samples lie beyond its rank; a tail over fewer is one unlucky sample.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), p)?;
    if samples.len() - rank < TAIL_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` over `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// A ratio together with the count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub value: f64,
    pub base: u64,
}

/// `part / whole`, with `whole` as the base; `None` when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> Option<Ratio> {
    (whole > 0).then(|| Ratio {
        value: part as f64 / whole as f64,
        base: whole,
    })
}

/// Memo hits over stage lookups (hits + misses).
pub fn hit_ratio(hits: u64, misses: u64) -> Option<Ratio> {
    ratio(hits, hits + misses)
}

/// `QueueFull` rejections over submit attempts (admitted + rejected).
pub fn queue_full_ratio(rejected: u64, admitted: u64) -> Option<Ratio> {
    ratio(rejected, rejected + admitted)
}

/// Coordination cost per epoch barrier: what the parallel run adds
/// over the serial one, spread over the epochs, in microseconds. The
/// base is the epoch count. Negative when the parallel run is faster.
pub fn us_per_epoch(serial_ms: f64, parallel_ms: f64, epochs: u64) -> Option<Ratio> {
    (epochs > 0).then(|| Ratio {
        value: (parallel_ms - serial_ms) * 1000.0 / epochs as f64,
        base: epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 101.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has rank 990: only 9 beyond.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), None);
        // p99 of 1000 samples has rank 990: exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
        // A p90 over 100 samples qualifies; over 99 it does not.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), Some(90.0));
        assert_eq!(tail(&xs[..99], 90.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        assert_eq!(
            hit_ratio(3, 1),
            Some(Ratio {
                value: 0.75,
                base: 4
            })
        );
        assert_eq!(hit_ratio(0, 0), None);
        assert_eq!(
            queue_full_ratio(1, 9),
            Some(Ratio {
                value: 0.1,
                base: 10
            })
        );
        assert_eq!(
            queue_full_ratio(0, 8),
            Some(Ratio {
                value: 0.0,
                base: 8
            })
        );
        assert_eq!(queue_full_ratio(0, 0), None);
    }

    #[test]
    fn us_per_epoch_spreads_the_parallel_excess() {
        assert_eq!(
            us_per_epoch(30.0, 130.0, 200),
            Some(Ratio {
                value: 500.0,
                base: 200
            })
        );
        assert_eq!(
            us_per_epoch(30.0, 20.0, 100),
            Some(Ratio {
                value: -100.0,
                base: 100
            })
        );
        assert_eq!(us_per_epoch(30.0, 130.0, 0), None);
    }
}
