//! Small numeric helpers: percentiles, the seeded Poisson schedule, a
//! deterministic RNG and a content hash.

use std::time::Duration;

/// The percentile ladder the tail helper climbs, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an already sorted slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` when even the
/// median is not supported.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    TAIL_LADDER
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9)
        .map(|&p| (p, percentile_sorted(&v, p)))
}

/// splitmix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `count` indices into `0..n`: each index once per round of `n`, in a
    /// fresh shuffled order every round, so every stretch of the sequence
    /// draws on the whole pool evenly.
    pub fn rounds(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let mut round: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                round.swap(i, self.below(i + 1));
            }
            out.extend(round.into_iter().take(count - out.len()));
        }
        out
    }
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `duration`, drawn from `seed`: exponential gaps, so the same seed always
/// gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = Rng::new(seed);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 − u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// FNV-1a, 64-bit: a stable content hash for the determinism check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_reproduces_exactly_and_hits_its_rate() {
        let a = poisson_schedule(7, 200.0, Duration::from_secs(50));
        let b = poisson_schedule(7, 200.0, Duration::from_secs(50));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, poisson_schedule(8, 200.0, Duration::from_secs(50)));
        // 10 000 expected arrivals: the count's standard deviation is 100.
        let n = a.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        // Exponential gaps: the coefficient of variation is 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn tail_reports_only_percentiles_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&sample(19)), None);
        assert_eq!(tail(&sample(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&sample(99)), Some((50.0, 50.0)));
        assert_eq!(tail(&sample(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&sample(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&sample(1000)), Some((99.0, 990.0)));
        // Order of the input does not matter.
        let mut shuffled = sample(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((99.0, 990.0)));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
