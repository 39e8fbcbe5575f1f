//! The Misra–Gries frequent-items summary.

use crate::error::{Result, SketchError};

/// A frequency estimate for one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrequencyEstimate {
    /// Lower bound on the item's true count (the retained counter).
    pub lower_bound: u64,
    /// Upper bound: `lower_bound + max_error`.
    pub upper_bound: u64,
}

impl FrequencyEstimate {
    /// Whether the item is *guaranteed* to appear more than `threshold`
    /// times.
    pub fn surely_above(&self, threshold: u64) -> bool {
        self.lower_bound > threshold
    }

    /// Whether the item *may* appear more than `threshold` times.
    pub fn possibly_above(&self, threshold: u64) -> bool {
        self.upper_bound > threshold
    }
}

/// Misra–Gries heavy-hitters sketch with at most `k` counters.
///
/// Guarantees: for every item with true count `f`,
/// `estimate.lower_bound ≤ f ≤ estimate.lower_bound + max_error()`,
/// and `max_error() ≤ n/(k+1)`. Every item with `f > n/(k+1)` is
/// guaranteed to be present in the summary.
///
/// The counters are one run sorted by item, so a lookup is a binary
/// search and a batch ([`Self::merge_batch`]) merge-joins with them
/// without hashing anything.
///
/// # Examples
///
/// ```
/// use fcds_sketches::frequency::MisraGriesSketch;
///
/// let mut mg = MisraGriesSketch::<&str>::new(8).unwrap();
/// for _ in 0..1_000 { mg.update("heavy"); }
/// for i in 0..500u64 {
///     let light = format!("light{i}");
///     mg.update_owned(Box::leak(light.into_boxed_str()) as &str);
/// }
/// let est = mg.estimate(&"heavy");
/// assert!(est.lower_bound >= 800);
/// assert!(est.upper_bound >= 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct MisraGriesSketch<T: Ord + Clone> {
    k: usize,
    n: u64,
    /// The retained `(item, counter)` pairs in strictly ascending item
    /// order, every counter ≥ 1, at most `k` of them between calls.
    counters: Vec<(T, u64)>,
    /// Total weight removed by decrements — the uniform over-/under-count
    /// slack of every absent or retained item.
    error: u64,
}

impl<T: Ord + Clone> MisraGriesSketch<T> {
    /// Creates a sketch holding at most `k` counters.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(SketchError::invalid("k", "must be ≥ 1"));
        }
        Ok(MisraGriesSketch {
            k,
            n: 0,
            // Capacity is only a hint — cap it so a hostile `k` decoded
            // from the wire cannot drive a giant eager allocation. The
            // run still grows to the full k + 1 on demand.
            counters: Vec::with_capacity(k.saturating_add(1).min(1 << 16)),
            error: 0,
        })
    }

    /// Reassembles a summary from its parts — the constructor behind the
    /// wire decoder and the concurrent engine's export hook. Duplicate
    /// items accumulate by addition; if more than `k` counters survive,
    /// Misra–Gries reductions run until `≤ k` remain (growing `error`
    /// accordingly), so a table merged from many shards collapses to a
    /// valid summary.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `k == 0`, a counter
    /// is `0`, or the counters plus `error` exceed `n` (every retained
    /// counter is a lower bound on a true count, so their total plus the
    /// reduction slack can never exceed the stream length).
    pub fn from_parts(
        k: usize,
        n: u64,
        error: u64,
        counters: impl IntoIterator<Item = (T, u64)>,
    ) -> Result<Self> {
        let mut sketch = Self::new(k)?;
        sketch.n = n;
        sketch.error = error;
        let mut total = error;
        for (item, count) in counters {
            if count == 0 {
                return Err(SketchError::invalid("counters", "zero counter retained"));
            }
            total = total
                .checked_add(count)
                .filter(|&t| t <= n)
                .ok_or_else(|| {
                    SketchError::invalid("counters", "counters + error exceed stream length n")
                })?;
            sketch.counters.push((item, count));
        }
        sketch.counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // `total ≤ n` above bounds every sum.
        sketch.counters.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        while sketch.counters.len() > sketch.k {
            sketch.reduce();
        }
        debug_assert!(sketch.counters.len() <= sketch.k);
        Ok(sketch)
    }

    /// Iterates the retained `(item, counter)` pairs in ascending item
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&T, u64)> {
        self.counters.iter().map(|(item, c)| (item, *c))
    }

    /// Maximum number of counters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stream length processed so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The uniform error slack: any item's true count exceeds its
    /// retained counter by at most this much. Bounded by `n/(k+1)`.
    pub fn max_error(&self) -> u64 {
        self.error
    }

    /// Processes one stream item.
    pub fn update(&mut self, item: T) {
        self.update_weighted(item, 1);
    }

    /// Alias of [`Self::update`] for callers that hand over ownership
    /// explicitly (documentation nicety used in examples).
    pub fn update_owned(&mut self, item: T) {
        self.update(item);
    }

    /// Processes one stream item with a positive weight.
    pub fn update_weighted(&mut self, item: T, weight: u64) {
        if weight == 0 {
            return;
        }
        self.n += weight;
        match self.counters.binary_search_by(|(held, _)| held.cmp(&item)) {
            Ok(at) => self.counters[at].1 += weight,
            Err(at) => {
                self.counters.insert(at, (item, weight));
                if self.counters.len() > self.k {
                    self.reduce();
                }
            }
        }
    }

    /// Processes a batch of stream items as one mergeable-summaries merge
    /// (Agarwal et al., PODS 2012): the batch, sorted in place, is an
    /// exact summary of itself; its runs of equal items add to the
    /// counters in one merge-join, and one reduction by the `(k+1)`-th
    /// largest counter brings them back to `k`. The bounds of
    /// [`MisraGriesSketch`] hold after it. While the counters fit in `k`
    /// it lands in the same state as [`Self::update`] per item; past
    /// that its one reduction can keep other counters than the per-item
    /// reductions would. `items` is left sorted.
    pub fn merge_batch(&mut self, items: &mut [T]) {
        items.sort_unstable();
        self.n += items.len() as u64;
        self.add_runs(
            items
                .chunk_by(|a, b| a == b)
                .map(|run| (&run[0], run.len() as u64)),
        );
        if self.counters.len() > self.k {
            let mut counts: Vec<u64> = self.counters.iter().map(|(_, c)| *c).collect();
            let cut_at = counts.len() - (self.k + 1);
            let cut = *counts.select_nth_unstable(cut_at).1;
            self.subtract(cut);
        }
    }

    /// Adds `runs` — `(item, count)` pairs in strictly ascending item
    /// order — to the counters in one merge-join pass.
    fn add_runs<'a>(&mut self, runs: impl Iterator<Item = (&'a T, u64)>)
    where
        T: 'a,
    {
        let most = runs.size_hint().1.unwrap_or(0);
        let mut merged = Vec::with_capacity(self.counters.len() + most);
        let mut held = std::mem::take(&mut self.counters).into_iter().peekable();
        for (item, count) in runs {
            while let Some(entry) = held.next_if(|(x, _)| x < item) {
                merged.push(entry);
            }
            match held.next_if(|(x, _)| x == item) {
                Some((x, c)) => merged.push((x, c + count)),
                None => merged.push((item.clone(), count)),
            }
        }
        merged.extend(held);
        self.counters = merged;
    }

    /// The Misra–Gries reduction: subtract the median-ish decrement (the
    /// minimum counter) from every counter and drop the zeros. One pass
    /// removes at least one counter; callers that accumulate more than
    /// `k + 1` counters (the multiway fan-in) loop until `≤ k` hold.
    fn reduce(&mut self) {
        let min = self
            .counters
            .iter()
            .map(|(_, c)| *c)
            .min()
            .expect("reduce on a non-empty run");
        self.subtract(min);
    }

    /// Subtracts `cut` from every counter, drops those it empties, and
    /// accrues it to the error slack.
    fn subtract(&mut self, cut: u64) {
        self.error += cut;
        self.counters.retain_mut(|(_, c)| {
            *c = c.saturating_sub(cut);
            *c > 0
        });
    }

    /// Frequency estimate for an item.
    pub fn estimate(&self, item: &T) -> FrequencyEstimate {
        let lower = self
            .counters
            .binary_search_by(|(held, _)| held.cmp(item))
            .map_or(0, |at| self.counters[at].1);
        FrequencyEstimate {
            lower_bound: lower,
            upper_bound: lower + self.error,
        }
    }

    /// All retained items whose *upper* bound exceeds `threshold`
    /// (no false negatives), sorted by decreasing lower bound.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(T, FrequencyEstimate)> {
        let mut out: Vec<(T, FrequencyEstimate)> = self
            .counters
            .iter()
            .map(|(item, c)| {
                (
                    item.clone(),
                    FrequencyEstimate {
                        lower_bound: *c,
                        upper_bound: c + self.error,
                    },
                )
            })
            .filter(|(_, e)| e.upper_bound > threshold)
            .collect();
        out.sort_by_key(|(_, e)| std::cmp::Reverse(e.lower_bound));
        out
    }

    /// Merges another summary into this one (counter addition followed by
    /// a reduction back to `k` counters — the mergeable-summaries
    /// construction).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Incompatible`] if the `k` parameters differ.
    pub fn merge(&mut self, other: &MisraGriesSketch<T>) -> Result<()> {
        if other.k != self.k {
            return Err(SketchError::incompatible(format!(
                "k mismatch: {} vs {}",
                self.k, other.k
            )));
        }
        self.n += other.n;
        self.error += other.error;
        self.add_runs(other.counters.iter().map(|(item, c)| (item, *c)));
        while self.counters.len() > self.k {
            self.reduce();
        }
        Ok(())
    }

    /// Resets to the empty state.
    pub fn clear(&mut self) {
        self.n = 0;
        self.error = 0;
        self.counters.clear();
    }

    /// Number of retained counters.
    pub fn retained(&self) -> usize {
        self.counters.len()
    }

    /// Whether the summary is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_k() {
        assert!(MisraGriesSketch::<u64>::new(0).is_err());
    }

    #[test]
    fn exact_below_k_distinct() {
        let mut mg = MisraGriesSketch::new(16).unwrap();
        for i in 0..10u64 {
            for _ in 0..=i {
                mg.update(i);
            }
        }
        assert_eq!(mg.max_error(), 0);
        for i in 0..10u64 {
            assert_eq!(mg.estimate(&i).lower_bound, i + 1);
        }
        assert_eq!(mg.estimate(&99).lower_bound, 0);
    }

    #[test]
    fn error_bounded_by_n_over_k_plus_1() {
        let mut mg = MisraGriesSketch::new(9).unwrap();
        for i in 0..100_000u64 {
            mg.update(i % 1_000); // uniform: worst case for MG
        }
        assert!(mg.max_error() as f64 <= 100_000.0 / 10.0);
    }

    #[test]
    fn bounds_bracket_truth() {
        let mut mg = MisraGriesSketch::new(8).unwrap();
        // heavy: 10_000 occurrences, light items once each.
        for _ in 0..10_000 {
            mg.update(0u64);
        }
        for i in 1..5_000u64 {
            mg.update(i);
        }
        let est = mg.estimate(&0);
        assert!(est.lower_bound <= 10_000);
        assert!(est.upper_bound >= 10_000);
        assert!(est.surely_above(5_000));
    }

    #[test]
    fn heavy_hitters_no_false_negatives() {
        let mut mg = MisraGriesSketch::new(16).unwrap();
        let n = 50_000u64;
        // Three items above n/(k+1); the rest uniform noise.
        for _ in 0..10_000 {
            mg.update(1u64);
        }
        for _ in 0..8_000 {
            mg.update(2u64);
        }
        for _ in 0..5_000 {
            mg.update(3u64);
        }
        for i in 0..(n - 23_000) {
            mg.update(100 + i % 9_000);
        }
        let hh = mg.heavy_hitters(n / 17);
        let ids: Vec<u64> = hh.iter().map(|(i, _)| *i).collect();
        for heavy in [1u64, 2, 3] {
            assert!(ids.contains(&heavy), "missing heavy hitter {heavy}");
        }
        // Sorted by decreasing lower bound.
        assert!(hh
            .windows(2)
            .all(|w| w[0].1.lower_bound >= w[1].1.lower_bound));
    }

    #[test]
    fn weighted_updates() {
        let mut mg = MisraGriesSketch::new(4).unwrap();
        mg.update_weighted("a", 100);
        mg.update_weighted("b", 50);
        mg.update_weighted("c", 0); // no-op
        assert_eq!(mg.n(), 150);
        assert_eq!(mg.estimate(&"a").lower_bound, 100);
    }

    #[test]
    fn merge_equals_concatenation_bounds() {
        let mut a = MisraGriesSketch::new(8).unwrap();
        let mut b = MisraGriesSketch::new(8).unwrap();
        let mut whole = MisraGriesSketch::new(8).unwrap();
        for i in 0..30_000u64 {
            let item = if i % 3 == 0 { 7 } else { i % 500 };
            whole.update(item);
            if i % 2 == 0 {
                a.update(item);
            } else {
                b.update(item);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.n(), whole.n());
        // The merged bounds must still bracket the true count of the
        // heavy item (10k occurrences of 7).
        let est = a.estimate(&7);
        let truth = 30_000 / 3;
        assert!(est.lower_bound <= truth);
        assert!(est.upper_bound >= truth);
        // Error stays within the mergeable-summaries bound n/(k+1) plus
        // slack for the two-phase reduction.
        assert!(a.max_error() <= 2 * whole.n() / 9 + 1);
    }

    #[test]
    fn merge_k_mismatch_rejected() {
        let mut a = MisraGriesSketch::<u64>::new(4).unwrap();
        let b = MisraGriesSketch::<u64>::new(8).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut mg = MisraGriesSketch::new(4).unwrap();
        for i in 0..1_000u64 {
            mg.update(i);
        }
        mg.clear();
        assert!(mg.is_empty());
        assert_eq!(mg.max_error(), 0);
        assert_eq!(mg.estimate(&1).upper_bound, 0);
    }

    #[test]
    fn retained_never_exceeds_k() {
        let mut mg = MisraGriesSketch::new(5).unwrap();
        for i in 0..10_000u64 {
            mg.update(i);
            assert!(mg.retained() <= 5);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The batch merge keeps the Misra–Gries guarantees: after every
        /// batch, every key's counter `c` and true count `f` satisfy
        /// `c ≤ f ≤ c + error`, `error ≤ n/(k+1)` and at most `k`
        /// counters are held; while the distinct keys fit in `k` the
        /// state is the one per-item updates reach.
        #[test]
        fn batch_merge_keeps_the_bounds(
            k in 1usize..12,
            keyspace in 1u64..40,
            items in proptest::collection::vec(0u64..1_000, 0..400),
            sizes in proptest::collection::vec(0usize..70, 1..8),
        ) {
            let items: Vec<u64> = items.iter().map(|i| i % keyspace).collect();
            let mut batched = MisraGriesSketch::new(k).unwrap();
            let mut scalar = MisraGriesSketch::new(k).unwrap();
            let mut truth = vec![0u64; keyspace as usize];
            let mut rest = &items[..];
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.max(1).min(rest.len()));
                rest = tail;
                batched.merge_batch(&mut chunk.to_vec());
                for &item in chunk {
                    scalar.update(item);
                    truth[item as usize] += 1;
                }
                let error = batched.max_error();
                for (key, &f) in truth.iter().enumerate() {
                    let c = batched.estimate(&(key as u64)).lower_bound;
                    proptest::prop_assert!(c <= f && f <= c + error, "key {} c {} f {} error {}", key, c, f, error);
                }
                proptest::prop_assert!(error * (k as u64 + 1) <= batched.n());
                proptest::prop_assert!(batched.retained() <= k);
                proptest::prop_assert!(batched.counters().map(|(x, _)| x).is_sorted_by(|a, b| a < b));
            }
            proptest::prop_assert_eq!(batched.n(), items.len() as u64);
            if truth.iter().filter(|&&f| f > 0).count() <= k {
                let exact: Vec<(u64, u64)> = scalar.counters().map(|(&x, c)| (x, c)).collect();
                let merged: Vec<(u64, u64)> = batched.counters().map(|(&x, c)| (x, c)).collect();
                proptest::prop_assert_eq!(merged, exact);
                proptest::prop_assert_eq!(batched.max_error(), 0);
            }
        }
    }
}
