//! The benchmark's own arithmetic: percentiles under the tail rule,
//! zero-safe ratios, medians, event rates, and a seeded generator.

use std::time::Instant;

/// Percentiles the tail rule may pick from, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that still has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, capped at `cap`; `None`
/// when even the median lacks that support.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| q <= cap && beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// How many of `n` samples lie strictly above the `q`-th percentile when
/// it is taken by nearest rank.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// Nearest-rank position (1-based) of the `q`-th percentile of `n`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps binary fractions like 99.9 from rounding a whole
    // rank up (99.9 × 10 000 / 100 must be 9 990, not 9 991).
    (q * n as f64 / 100.0 - 1e-6).ceil().max(1.0) as usize
}

/// The `q`-th percentile of an ascending sample by nearest rank; 0 for an
/// empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q).min(sorted.len()) - 1]
}

/// A latency sample summarised the way every timing is reported: the
/// median plus the highest percentile (up to p99) the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// The percentile `tail` stands for (99 unless the sample is small).
    pub tail_q: f64,
    pub tail: f64,
}

impl Timing {
    /// Summarises `samples` (any order, any unit).
    pub fn of(mut samples: Vec<f64>) -> Timing {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail_q = tail_percentile(n, 99.0).unwrap_or(50.0);
        Timing {
            n,
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            tail_q,
            tail: percentile(&samples, tail_q),
        }
    }

    /// The highest percentile of the sample the rule supports at all
    /// (beyond p99 when the sample is large), for the run notes.
    pub fn describe(samples: &[f64], unit: &str) -> String {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = tail_percentile(s.len(), 100.0).unwrap_or(50.0);
        format!(
            "n={} p50={:.4}{unit} p{q}={:.4}{unit}",
            s.len(),
            percentile(&s, 50.0),
            percentile(&s, q)
        )
    }
}

/// `num / den`, or 0 when the base is 0 (never NaN or infinity).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a sample (mean of the middle pair when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Events seen over time: their rate is measured between the first and
/// the last event, not assumed from the window length.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub n: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Span {
    pub fn add(&mut self, t: Instant) {
        self.n += 1;
        self.first = Some(self.first.map_or(t, |f| f.min(t)));
        self.last = Some(self.last.map_or(t, |l| l.max(t)));
    }

    pub fn merge(&mut self, other: &Span) {
        if let (Some(f), Some(l)) = (other.first, other.last) {
            self.first = Some(self.first.map_or(f, |x| x.min(f)));
            self.last = Some(self.last.map_or(l, |x| x.max(l)));
            self.n += other.n;
        }
    }

    /// Events per second between the first and the last event; 0 with
    /// fewer than two events or no time between them.
    pub fn per_sec(&self) -> f64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) if self.n >= 2 => ratio((self.n - 1) as f64, (l - f).as_secs_f64()),
            _ => 0.0,
        }
    }
}

/// SplitMix64: the seeded generator every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` seeded bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, none beyond p99.9.
        assert_eq!(tail_percentile(1000, 100.0), Some(99.0));
        assert_eq!(tail_percentile(999, 100.0), Some(90.0));
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(100_000, 100.0), Some(99.99));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100, 100.0), Some(90.0));
        assert_eq!(tail_percentile(20, 100.0), Some(50.0));
        assert_eq!(tail_percentile(19, 100.0), None);
        assert_eq!(tail_percentile(0, 100.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn timing_falls_back_on_small_samples() {
        let t = Timing::of((1..=1000).rev().map(f64::from).collect());
        assert_eq!((t.n, t.p50, t.p90), (1000, 500.0, 900.0));
        assert_eq!((t.tail_q, t.tail), (99.0, 990.0));
        let small = Timing::of((1..=100).map(f64::from).collect());
        assert_eq!((small.tail_q, small.tail), (90.0, 90.0));
        let empty = Timing::of(Vec::new());
        assert_eq!((empty.n, empty.p50, empty.tail), (0, 0.0, 0.0));
    }

    #[test]
    fn zero_base_ratio_is_zero_not_nan() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn span_rate_counts_intervals_between_events() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let mut a = Span::default();
        assert_eq!(a.per_sec(), 0.0);
        a.add(at(0));
        assert_eq!(a.per_sec(), 0.0, "one event has no rate");
        a.add(at(500));
        a.add(at(1000));
        assert_eq!((a.n, a.per_sec()), (3, 2.0));
        let mut b = Span::default();
        b.add(at(2000));
        a.merge(&b);
        assert_eq!((a.n, a.per_sec()), (4, 1.5));
        a.merge(&Span::default());
        assert_eq!(a.n, 4);
        let mut same = Span::default();
        same.add(t0);
        same.add(t0);
        assert_eq!(same.per_sec(), 0.0, "no elapsed time: 0, not infinity");
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.bytes(16), b.bytes(16));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        assert!((0..100).all(|_| a.below(3) < 3));
    }
}
