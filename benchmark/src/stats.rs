//! Order statistics: the percentile rule, medians and quartiles.

/// The `p`-th percentile (nearest rank) of an ascending-sorted slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: the highest of
/// p50/p90/p95/p99 that still has at least ten samples beyond it,
/// capped at p99. Under a hundred samples only the median is reported.
pub fn supported_tail(n: usize) -> f64 {
    [99usize, 95, 90]
        .into_iter()
        .find(|p| n * (100 - p) / 100 >= 10)
        .unwrap_or(50) as f64
}

/// A timing summary: the median, the supported tail, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is (see [`supported_tail`]).
    pub tail_p: f64,
    pub tail: f64,
}

/// Sub-buckets per power of two: a bucket is at most 1/64 of its value
/// wide, so a percentile read from it is within 1.6 % of the sample's.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` have a bucket each; every power of two from
/// there to `u32::MAX` has `SUB`.
const BUCKETS: usize = (33 - SUB_BITS as usize) * SUB;

/// Nanosecond timings in log-linear buckets. Its size is fixed, so the
/// memory a run holds does not grow with the ops it completes.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u32) -> usize {
        if (ns as usize) < 2 * SUB {
            return ns as usize;
        }
        let shift = 31 - ns.leading_zeros() - SUB_BITS;
        shift as usize * SUB + (ns >> shift) as usize
    }

    /// The least value of `bucket` and how many values it spans.
    fn bounds(bucket: usize) -> (f64, f64) {
        if bucket < 2 * SUB {
            return (bucket as f64, 1.0);
        }
        let shift = bucket / SUB - 1;
        (
            ((bucket % SUB + SUB) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    /// Records one timing; anything past `u32::MAX` ns (4.3 s) counts as that.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(u32::try_from(ns).unwrap_or(u32::MAX))] += 1;
        self.n += 1;
    }

    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.n += other.n;
    }

    /// The `p`-th percentile (nearest rank), placed inside its bucket by
    /// the rank's position among the bucket's samples.
    fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0 * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if below + count >= rank {
                let (least, width) = Self::bounds(bucket);
                return least + width * ((rank - below) as f64 - 0.5) / count as f64;
            }
            below += count;
        }
        unreachable!("the rank is at most the sample count")
    }

    /// The 10th to the 90th percentile: the shape a median alone hides.
    /// Needs a sample.
    pub fn deciles(&self) -> [f64; 9] {
        std::array::from_fn(|i| self.percentile((i + 1) as f64 * 10.0))
    }

    /// `None` when nothing was recorded.
    pub fn summarize(&self) -> Option<Summary> {
        if self.n == 0 {
            return None;
        }
        let tail_p = supported_tail(self.n as usize);
        Some(Summary {
            n: self.n as usize,
            p50: self.percentile(50.0),
            tail_p,
            tail: self.percentile(tail_p),
        })
    }
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed here
/// is the one the acceptance rule computes. Needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of n leaves floor(n / 100) samples beyond it.
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(199), 90.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(5), 50.0);
        assert_eq!(supported_tail(1_000_000), 99.0, "capped at p99");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7u32], 99.0), 7);
    }

    #[test]
    fn histogram_reports_count_median_and_supported_tail() {
        let mut h = Histogram::default();
        (1..=1000u64).rev().for_each(|us| h.record(us * 1000));
        let s = h.summarize().unwrap();
        assert_eq!((s.n, s.tail_p), (1000, 99.0));
        // Exact answers are 500 us and 990 us; a bucket is 1/64 wide.
        assert!((s.p50 / 500_000.0 - 1.0).abs() < 0.016, "{}", s.p50);
        assert!((s.tail / 990_000.0 - 1.0).abs() < 0.016, "{}", s.tail);
        assert!(Histogram::default().summarize().is_none());
    }

    #[test]
    fn histogram_buckets_tile_the_u32_range() {
        // Small values have a bucket each.
        for ns in [0u32, 1, 127] {
            assert_eq!(Histogram::bounds(Histogram::bucket(ns)), (ns as f64, 1.0));
        }
        let mut last = 0;
        for ns in [128u32, 129, 130, 255, 256, 1000, 65_535, 1 << 20, u32::MAX] {
            let bucket = Histogram::bucket(ns);
            let (least, width) = Histogram::bounds(bucket);
            assert!(least <= ns as f64 && (ns as f64) < least + width, "{ns}");
            assert!(width <= least / 64.0, "{ns}: {width} wide at {least}");
            assert!(bucket >= last && bucket < BUCKETS);
            last = bucket;
        }
        assert_eq!(Histogram::bucket(u32::MAX), BUCKETS - 1);
        // Samples in one bucket still give different percentiles.
        let mut h = Histogram::default();
        (0..100).for_each(|_| h.record(1_000_000));
        assert!(h.percentile(50.0) < h.percentile(90.0));
        // A timing too long for a u32 is kept, as the longest there is.
        h.record(u64::MAX);
        assert_eq!(h.summarize().unwrap().n, 101);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
