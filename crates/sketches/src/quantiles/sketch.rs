//! The classic mergeable Quantiles sketch implementation.

use super::ladder::{LevelRuns, QuantilesLadder, WeightedMerge};
use crate::error::{Result, SketchError};
use crate::oracle::{DeterministicOracle, Oracle};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Sequential mergeable Quantiles sketch (Agarwal et al., PODS 2012).
///
/// Generic over any totally ordered, cloneable item type; use
/// [`TotalF64`](super::TotalF64) for floating-point keys.
///
/// # Examples
///
/// ```
/// use fcds_sketches::quantiles::QuantilesSketch;
/// use fcds_sketches::oracle::DeterministicOracle;
///
/// let mut q = QuantilesSketch::<u64>::new(128, DeterministicOracle::new(1)).unwrap();
/// for i in 0..100_000u64 {
///     q.update(i);
/// }
/// let median = q.quantile(0.5).unwrap();
/// assert!((median as f64 - 50_000.0).abs() < 5_000.0);
/// ```
pub struct QuantilesSketch<T: Ord + Clone> {
    k: usize,
    n: u64,
    /// The weight-1 items not yet compacted, capacity `2k`.
    base_buffer: Vec<T>,
    /// Whether `base_buffer` is in ascending order. [`Self::merge_batch`]
    /// keeps it sorted; a scalar [`Self::update`] that arrives out of
    /// order clears the flag, and the next compaction, batch merge or
    /// snapshot sorts it once.
    base_sorted: bool,
    /// `levels[i]` is either empty or a sorted run of exactly `k` items
    /// of weight `2^(i+1)` (one full base buffer of `2k` weight-1 items
    /// compacts into `k` items of weight 2 at level 0). Each run is
    /// immutable behind an `Arc`: compaction *replaces* runs, never edits
    /// them, so a [`QuantilesLadder`] snapshot shares them copy-on-write.
    levels: Vec<Arc<Vec<T>>>,
    /// `levels` in ladder form, built by the first snapshot after a
    /// compaction and shared by every snapshot until the next one.
    level_runs: OnceLock<LevelRuns<T>>,
    /// Exact extrema (compaction can drop them from the buffers).
    min_item: Option<T>,
    max_item: Option<T>,
    oracle: Box<dyn Oracle>,
}

impl<T: Ord + Clone> fmt::Debug for QuantilesSketch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantilesSketch")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("base_buffer_len", &self.base_buffer.len())
            .field(
                "full_levels",
                &self
                    .levels
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.is_empty())
                    .map(|(i, _)| i)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<T: Ord + Clone> QuantilesSketch<T> {
    /// Creates an empty sketch with accuracy parameter `k` and the given
    /// randomness oracle (one coin flip is consumed per compaction; fixing
    /// the oracle de-randomises the sketch per §4).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `k < 2`.
    pub fn new(k: usize, oracle: impl Oracle + 'static) -> Result<Self> {
        if k < 2 {
            return Err(SketchError::invalid("k", format!("must be ≥ 2, got {k}")));
        }
        Ok(QuantilesSketch {
            k,
            n: 0,
            // Capacity is only a hint — cap it so a hostile `k` decoded
            // from the wire cannot drive a giant eager allocation. The
            // buffer still grows to the full 2k on demand.
            base_buffer: Vec::with_capacity(k.saturating_mul(2).min(1 << 16)),
            base_sorted: true,
            levels: Vec::new(),
            level_runs: OnceLock::new(),
            min_item: None,
            max_item: None,
            oracle: Box::new(oracle),
        })
    }

    /// Creates a sketch with a deterministic oracle seeded by `seed` —
    /// convenient for tests and for the relaxation checker.
    pub fn with_seed(k: usize, seed: u64) -> Result<Self> {
        Self::new(k, DeterministicOracle::new(seed))
    }

    /// The accuracy parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of items processed (stream length `n`).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Returns `true` if no items have been processed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The weight-1 items not yet compacted (fewer than `2k`): in
    /// ascending order after a [`Self::merge_batch`], in no particular
    /// order after scalar updates.
    pub fn base_buffer(&self) -> &[T] {
        &self.base_buffer
    }

    /// The exact minimum item seen, if any.
    pub fn min_item(&self) -> Option<&T> {
        self.min_item.as_ref()
    }

    /// The exact maximum item seen, if any.
    pub fn max_item(&self) -> Option<&T> {
        self.max_item.as_ref()
    }

    /// Processes one stream element.
    pub fn update(&mut self, item: T) {
        self.observe_extrema(&item, &item);
        self.base_sorted &= self.base_buffer.last().is_none_or(|last| *last <= item);
        self.base_buffer.push(item);
        self.n += 1;
        if self.base_buffer.len() == 2 * self.k {
            self.process_full_base_buffer();
        }
    }

    /// Processes a batch of stream elements, landing in the same state
    /// as [`Self::update`] once per element in slice order (equal items
    /// are taken to be indistinguishable, as for any total order).
    ///
    /// The batch is cut where the base buffer fills, in arrival order;
    /// each piece is sorted in place and merged into the sorted base
    /// buffer from the back, with no allocation, so a full base buffer
    /// compacts without a sort. `items` is left permuted.
    pub fn merge_batch(&mut self, items: &mut [T]) {
        self.sort_base();
        let mut rest = items;
        while !rest.is_empty() {
            let take = rest.len().min(2 * self.k - self.base_buffer.len());
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            piece.sort_unstable();
            self.observe_extrema(&piece[0], &piece[piece.len() - 1]);
            self.n += piece.len() as u64;
            merge_into_sorted(&mut self.base_buffer, piece);
            if self.base_buffer.len() == 2 * self.k {
                self.process_full_base_buffer();
            }
        }
    }

    /// Widens the exact extrema to cover `lo..=hi`.
    fn observe_extrema(&mut self, lo: &T, hi: &T) {
        match &mut self.min_item {
            Some(m) if *m <= *lo => {}
            m => *m = Some(lo.clone()),
        }
        match &mut self.max_item {
            Some(m) if *m >= *hi => {}
            m => *m = Some(hi.clone()),
        }
    }

    /// Puts the base buffer in ascending order if scalar updates left it
    /// unsorted.
    fn sort_base(&mut self) {
        if !self.base_sorted {
            // Unstable sort: duplicates are indistinguishable.
            self.base_buffer.sort_unstable();
            self.base_sorted = true;
        }
    }

    /// Compacts the full (sorted) base buffer into a weight-2 carry and
    /// propagates it up the level ladder (binary-addition style).
    fn process_full_base_buffer(&mut self) {
        debug_assert_eq!(self.base_buffer.len(), 2 * self.k);
        self.sort_base();
        let carry = Self::compact(&self.base_buffer, self.oracle.flip());
        self.base_buffer.clear();
        self.promote(carry, 0);
    }

    /// Keeps every other item of a sorted `2k` buffer: the odd-indexed
    /// ones when `odd` is true, even-indexed otherwise. This is the
    /// randomised compaction whose coin §4's oracle provides.
    fn compact(sorted: &[T], odd: bool) -> Vec<T> {
        let offset = usize::from(odd);
        sorted.iter().skip(offset).step_by(2).cloned().collect()
    }

    /// Merges a sorted `k`-item carry into the ladder starting at
    /// `level`. Touched levels get *fresh* `Arc`'d runs (outstanding
    /// ladder snapshots keep the old ones); untouched levels are not
    /// visited at all.
    fn promote(&mut self, mut carry: Vec<T>, mut level: usize) {
        debug_assert_eq!(carry.len(), self.k);
        self.level_runs.take();
        loop {
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, || Arc::new(Vec::new()));
            }
            if self.levels[level].is_empty() {
                self.levels[level] = Arc::new(carry);
                return;
            }
            let resident = std::mem::replace(&mut self.levels[level], Arc::new(Vec::new()));
            carry = Self::merge_compact(&resident, &carry, self.oracle.flip());
            level += 1;
        }
    }

    /// [`Self::compact`] of the merge of two sorted runs, without
    /// materialising the merge: walks both runs in item order (`a`'s
    /// item first on a tie) and keeps every other item. The walk picks
    /// its next item by a select rather than a branch, which random
    /// runs would mispredict half the time.
    fn merge_compact(a: &[T], b: &[T], odd: bool) -> Vec<T> {
        let mut out = Vec::with_capacity((a.len() + b.len()) / 2);
        let (mut i, mut j, mut keep) = (0, 0, !odd);
        while i < a.len() && j < b.len() {
            let from_a = a[i] <= b[j];
            let item = if from_a { &a[i] } else { &b[j] };
            if keep {
                out.push(item.clone());
            }
            i += usize::from(from_a);
            j += usize::from(!from_a);
            keep = !keep;
        }
        for item in a[i..].iter().chain(&b[j..]) {
            if keep {
                out.push(item.clone());
            }
            keep = !keep;
        }
        out
    }

    /// Merges another sketch into this one; afterwards `self` summarises
    /// the concatenation of both streams.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Incompatible`] if the `k` parameters differ
    /// (down-sampling merges are not implemented).
    pub fn merge(&mut self, other: &QuantilesSketch<T>) -> Result<()> {
        if other.k != self.k {
            return Err(SketchError::incompatible(format!(
                "k mismatch: {} vs {}",
                self.k, other.k
            )));
        }
        for item in &other.base_buffer {
            self.update(item.clone());
        }
        for (level, buf) in other.levels.iter().enumerate() {
            if !buf.is_empty() {
                self.promote(buf.as_ref().clone(), level);
                self.n += (self.k as u64) << (level + 1);
            }
        }
        if let Some(m) = &other.min_item {
            if self.min_item.as_ref().is_none_or(|s| m < s) {
                self.min_item = Some(m.clone());
            }
        }
        if let Some(m) = &other.max_item {
            if self.max_item.as_ref().is_none_or(|s| m > s) {
                self.max_item = Some(m.clone());
            }
        }
        Ok(())
    }

    /// Resets to the empty state, keeping `k` and the oracle.
    pub fn clear(&mut self) {
        self.n = 0;
        self.base_buffer.clear();
        self.base_sorted = true;
        self.levels.clear();
        self.level_runs.take();
        self.min_item = None;
        self.max_item = None;
    }

    /// Builds a sketch whose listed `levels` are pre-occupied: each entry
    /// `(level, items)` installs a sorted run of exactly `k` items with
    /// weight `2^(level+1)`; the base buffer starts empty and `n` is the
    /// summed weight. Bench/test support for reaching deep-ladder states
    /// (whose high levels stay frozen under further updates) without
    /// streaming `Σ k·2^(level+1)` items.
    ///
    /// # Panics
    ///
    /// Panics if a run is unsorted, has the wrong length, or repeats a
    /// level.
    #[doc(hidden)]
    pub fn with_prebuilt_levels(
        k: usize,
        seed: u64,
        prebuilt: impl IntoIterator<Item = (usize, Vec<T>)>,
    ) -> Result<Self> {
        let mut sketch = Self::with_seed(k, seed)?;
        for (level, items) in prebuilt {
            assert_eq!(
                items.len(),
                k,
                "level {level} run must hold exactly k items"
            );
            assert!(
                items.windows(2).all(|w| w[0] <= w[1]),
                "level {level} run must be sorted"
            );
            if sketch.levels.len() <= level {
                sketch
                    .levels
                    .resize_with(level + 1, || Arc::new(Vec::new()));
            }
            assert!(
                sketch.levels[level].is_empty(),
                "level {level} occupied twice"
            );
            for probe in [items.first(), items.last()].into_iter().flatten() {
                if sketch.min_item.as_ref().is_none_or(|m| probe < m) {
                    sketch.min_item = Some(probe.clone());
                }
                if sketch.max_item.as_ref().is_none_or(|m| probe > m) {
                    sketch.max_item = Some(probe.clone());
                }
            }
            sketch.n += (k as u64) << (level + 1);
            sketch.levels[level] = Arc::new(items);
        }
        debug_assert!(sketch.check_weight_invariant());
        Ok(sketch)
    }

    /// Internal invariant check used by tests: `n` must equal the summed
    /// weight of all buffers.
    #[doc(hidden)]
    pub fn check_weight_invariant(&self) -> bool {
        let mut total = self.base_buffer.len() as u64;
        for (level, buf) in self.levels.iter().enumerate() {
            if !buf.is_empty() {
                debug_assert_eq!(buf.len(), self.k);
                total += (buf.len() as u64) << (level + 1);
            }
        }
        total == self.n
    }

    /// Collects all retained `(item, weight)` pairs sorted by item — the
    /// O(retained · log retained) full rebuild. Kept as the
    /// [`Self::reader`] implementation (and as the baseline the
    /// `engine_gates` bench compares the ladder against); the
    /// propagation path uses [`Self::ladder`] instead.
    fn weighted_items(&self) -> Vec<(T, u64)> {
        let mut out: Vec<(T, u64)> = Vec::new();
        let mut bb = self.base_buffer.clone();
        bb.sort();
        out.extend(bb.into_iter().map(|v| (v, 1u64)));
        for (level, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << (level + 1);
            out.extend(buf.iter().cloned().map(|v| (v, w)));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Freezes the retained items into a cheap reusable reader for batch
    /// queries, re-sorting the whole retained set (O(retained · log
    /// retained)). On a hot publication path prefer [`Self::ladder`],
    /// which shares the level runs instead of copying them.
    pub fn reader(&self) -> QuantilesReader<T> {
        QuantilesReader {
            items: self.weighted_items(),
            n: self.n,
            min_item: self.min_item.clone(),
            max_item: self.max_item.clone(),
        }
    }

    /// Takes a persistent copy-on-write snapshot of the level ladder: a
    /// sorted copy of the (≤ 2k, parameter-bounded) base buffer plus one
    /// shared pointer to the level runs. Unlike [`Self::reader`] the cost
    /// is independent of how many levels the stream has accumulated.
    /// After a [`Self::merge_batch`] the base buffer is already sorted
    /// and the copy is all the work: the level-run list is rebuilt,
    /// O(levels), only by the first snapshot after a compaction.
    pub fn ladder(&self) -> QuantilesLadder<T> {
        let mut base = self.base_buffer.clone();
        if !self.base_sorted {
            // Unstable sort: duplicates are indistinguishable.
            base.sort_unstable();
        }
        QuantilesLadder::from_parts(
            base,
            self.level_runs.get_or_init(|| LevelRuns::new(&self.levels)),
            self.n,
            self.min_item.clone(),
            self.max_item.clone(),
        )
    }

    /// Returns an element whose rank approximates `phi·n` (φ ∈ [0, 1]).
    ///
    /// Returns `None` on an empty sketch. `phi = 0` returns the exact
    /// minimum and `phi = 1` the exact maximum.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        self.reader().quantile(phi)
    }

    /// The approximate normalised rank of `item`: the fraction of stream
    /// elements strictly smaller than it.
    pub fn rank(&self, item: &T) -> f64 {
        self.reader().rank(item)
    }
}

/// Merges the sorted `piece` into the sorted `base` in place: `base`
/// grows by `piece.len()` (within its reserved capacity), and the merge
/// fills it from the back, a resident item on a tie going first. Like
/// `QuantilesSketch::merge_compact` it picks each item by a select, not
/// a branch.
fn merge_into_sorted<T: Ord + Clone>(base: &mut Vec<T>, piece: &[T]) {
    let mut resident = base.len();
    base.extend_from_slice(piece);
    let mut rest = piece.len();
    while resident > 0 && rest > 0 {
        let from_base = base[resident - 1] > piece[rest - 1];
        let item = if from_base {
            &base[resident - 1]
        } else {
            &piece[rest - 1]
        }
        .clone();
        base[resident + rest - 1] = item;
        resident -= usize::from(from_base);
        rest -= usize::from(!from_base);
    }
    base[..rest].clone_from_slice(&piece[..rest]);
}

/// An immutable snapshot of a quantiles sketch's retained items, suitable
/// for answering many queries without re-collecting the buffers.
#[derive(Debug, Clone)]
pub struct QuantilesReader<T: Ord + Clone> {
    /// Sorted `(item, weight)` pairs.
    items: Vec<(T, u64)>,
    n: u64,
    min_item: Option<T>,
    max_item: Option<T>,
}

impl<T: Ord + Clone> QuantilesReader<T> {
    /// Builds one flat reader from the published ladders of one or more
    /// shards — the query-time merge of the sharded concurrent engine.
    /// Heap-merges the per-level runs in item order, O(retained · log
    /// runs), instead of collect-and-re-sort.
    ///
    /// The merge is lossless in the PAC sense: each input's retained
    /// samples carry rank error at most `ε·n_i` on its own sub-stream, so
    /// the union's error on any item is at most `Σ ε·n_i = ε·n` — the
    /// same `ε` a single sketch with the same `k` guarantees on the
    /// concatenated stream.
    pub fn from_ladders<'a>(parts: impl IntoIterator<Item = &'a QuantilesLadder<T>>) -> Self
    where
        T: 'a,
    {
        let mut n = 0u64;
        let mut min_item: Option<T> = None;
        let mut max_item: Option<T> = None;
        let mut retained = 0usize;
        let ladders: Vec<&QuantilesLadder<T>> = parts.into_iter().collect();
        for p in &ladders {
            n += p.n();
            retained += p.retained();
            min_item = match (min_item.take(), p.min_item().cloned()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            max_item = match (max_item.take(), p.max_item().cloned()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        let mut items: Vec<(T, u64)> = Vec::with_capacity(retained);
        items.extend(WeightedMerge::new(ladders).map(|(v, w)| (v.clone(), w)));
        QuantilesReader {
            items,
            n,
            min_item,
            max_item,
        }
    }

    /// Merges several flat readers into one summary of the concatenated
    /// streams (collect-and-sort; see [`Self::from_ladders`] for the
    /// run-aware merge and the losslessness argument).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self
    where
        T: 'a,
    {
        let mut items: Vec<(T, u64)> = Vec::new();
        let mut n = 0u64;
        let mut min_item: Option<T> = None;
        let mut max_item: Option<T> = None;
        for p in parts {
            items.extend(p.items.iter().cloned());
            n += p.n;
            min_item = match (min_item.take(), p.min_item.clone()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            max_item = match (max_item.take(), p.max_item.clone()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        items.sort_by(|a, b| a.0.cmp(&b.0));
        QuantilesReader {
            items,
            n,
            min_item,
            max_item,
        }
    }

    /// Total stream length this snapshot summarises.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Returns `true` if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// See [`QuantilesSketch::quantile`].
    pub fn quantile(&self, phi: f64) -> Option<T> {
        quantile_from_weighted(
            self.items.iter().map(|(v, w)| (v, *w)),
            self.n,
            self.min_item.as_ref(),
            self.max_item.as_ref(),
            phi,
        )
    }

    /// See [`QuantilesSketch::rank`].
    pub fn rank(&self, item: &T) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let below: u64 = self
            .items
            .iter()
            .take_while(|(v, _)| v < item)
            .map(|(_, w)| w)
            .sum();
        below as f64 / self.n as f64
    }

    /// Batch quantile query.
    pub fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        phis.iter().map(|&p| self.quantile(p)).collect()
    }

    /// Cumulative distribution at the given split points: element `i` of
    /// the result is the approximate fraction of the stream `< splits[i]`,
    /// with a trailing 1.0.
    pub fn cdf(&self, splits: &[T]) -> Vec<f64> {
        let mut out: Vec<f64> = splits.iter().map(|s| self.rank(s)).collect();
        out.push(1.0);
        out
    }

    /// Probability mass between consecutive split points (complement of
    /// [`Self::cdf`]).
    pub fn pmf(&self, splits: &[T]) -> Vec<f64> {
        let cdf = self.cdf(splits);
        let mut out = Vec::with_capacity(cdf.len());
        let mut prev = 0.0;
        for c in cdf {
            out.push(c - prev);
            prev = c;
        }
        out
    }
}

/// The quantile-selection rule shared by every weighted-sample view
/// ([`QuantilesReader`] over its flat vector,
/// [`QuantilesLadder`](super::QuantilesLadder) over its heap merge):
/// walk `(item, weight)` pairs in item order and return the first item
/// whose cumulative weight reaches `⌈phi·n⌉`, with exact extrema at
/// `phi ∈ {0, 1}`. One definition keeps the two representations
/// answer-identical by construction.
pub(crate) fn quantile_from_weighted<'a, T: Ord + Clone + 'a>(
    weighted: impl Iterator<Item = (&'a T, u64)>,
    n: u64,
    min_item: Option<&T>,
    max_item: Option<&T>,
    phi: f64,
) -> Option<T> {
    if n == 0 {
        return None;
    }
    let phi = phi.clamp(0.0, 1.0);
    if phi == 0.0 {
        return min_item.cloned();
    }
    if phi == 1.0 {
        return max_item.cloned();
    }
    let target = (phi * n as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (item, w) in weighted {
        cum += w;
        if cum >= target {
            return Some(item.clone());
        }
    }
    max_item.cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantiles::epsilon_for_k;

    fn filled(k: usize, seed: u64, n: u64) -> QuantilesSketch<u64> {
        let mut q = QuantilesSketch::with_seed(k, seed).unwrap();
        for i in 0..n {
            q.update(i);
        }
        q
    }

    #[test]
    fn merged_readers_summarise_concatenated_stream() {
        let k = 64;
        let mut parts = Vec::new();
        for shard in 0..4u64 {
            let mut q = QuantilesSketch::with_seed(k, shard).unwrap();
            for i in (shard..200_000).step_by(4) {
                q.update(i);
            }
            parts.push(q.reader());
        }
        let merged = QuantilesReader::merged(parts.iter());
        assert_eq!(merged.n(), 200_000);
        assert_eq!(merged.quantile(0.0), Some(0));
        assert_eq!(merged.quantile(1.0), Some(199_999));
        let eps = epsilon_for_k(k);
        for phi in [0.25, 0.5, 0.75] {
            let v = merged.quantile(phi).unwrap() as f64 / 200_000.0;
            assert!((v - phi).abs() <= 4.0 * eps, "phi={phi} got rank {v}");
        }
    }

    #[test]
    fn merged_reader_of_one_part_is_identity() {
        let q = filled(32, 3, 10_000);
        let r = q.reader();
        let m = QuantilesReader::merged([&r]);
        assert_eq!(m.n(), r.n());
        for phi in [0.0, 0.3, 0.9, 1.0] {
            assert_eq!(m.quantile(phi), r.quantile(phi));
        }
    }

    #[test]
    fn rejects_tiny_k() {
        assert!(QuantilesSketch::<u64>::with_seed(1, 0).is_err());
        assert!(QuantilesSketch::<u64>::with_seed(2, 0).is_ok());
    }

    #[test]
    fn empty_sketch_queries() {
        let q = QuantilesSketch::<u64>::with_seed(16, 0).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.rank(&5), 0.0);
    }

    #[test]
    fn small_stream_is_exact() {
        // Fewer than 2k items: everything lives in the base buffer.
        let q = filled(64, 1, 100);
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let v = q.quantile(phi).unwrap();
            let expected = (phi * 100.0).ceil() as u64 - 1;
            assert_eq!(v, expected, "phi={phi}");
        }
    }

    #[test]
    fn extremes_are_exact() {
        let q = filled(32, 1, 500_000);
        assert_eq!(q.quantile(0.0), Some(0));
        assert_eq!(q.quantile(1.0), Some(499_999));
        assert_eq!(q.min_item(), Some(&0));
        assert_eq!(q.max_item(), Some(&499_999));
    }

    #[test]
    fn weight_invariant_holds_throughout() {
        let mut q = QuantilesSketch::<u64>::with_seed(8, 3).unwrap();
        for i in 0..10_000 {
            q.update(i);
            if i % 97 == 0 {
                assert!(q.check_weight_invariant(), "broken at n={}", i + 1);
            }
        }
        assert!(q.check_weight_invariant());
    }

    #[test]
    fn rank_error_within_epsilon_sorted_stream() {
        let k = 128;
        let n = 200_000u64;
        let q = filled(k, 7, n);
        let eps = epsilon_for_k(k);
        for phi in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let v = q.quantile(phi).unwrap();
            let true_rank = v as f64 / n as f64; // stream is 0..n
            assert!(
                (true_rank - phi).abs() <= 3.0 * eps,
                "phi={phi} got rank {true_rank} (eps={eps})"
            );
        }
    }

    #[test]
    fn rank_error_within_epsilon_shuffled_stream() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let k = 128;
        let n = 100_000u64;
        let mut items: Vec<u64> = (0..n).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        items.shuffle(&mut rng);
        let mut q = QuantilesSketch::with_seed(k, 5).unwrap();
        for &i in &items {
            q.update(i);
        }
        let eps = epsilon_for_k(k);
        for phi in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let v = q.quantile(phi).unwrap();
            let true_rank = v as f64 / n as f64;
            assert!(
                (true_rank - phi).abs() <= 3.0 * eps,
                "phi={phi} got rank {true_rank}"
            );
        }
    }

    #[test]
    fn rank_is_monotone() {
        let q = filled(64, 11, 50_000);
        let r1 = q.rank(&10_000);
        let r2 = q.rank(&20_000);
        let r3 = q.rank(&40_000);
        assert!(r1 <= r2 && r2 <= r3);
        assert!((r2 - 0.4).abs() < 0.05);
    }

    #[test]
    fn quantile_of_rank_round_trip() {
        let q = filled(128, 13, 100_000);
        for phi in [0.2, 0.5, 0.8] {
            let v = q.quantile(phi).unwrap();
            let r = q.rank(&v);
            assert!((r - phi).abs() < 0.05, "phi={phi} rank={r}");
        }
    }

    #[test]
    fn merge_equals_concatenation_in_distribution() {
        let k = 128;
        let mut a = QuantilesSketch::<u64>::with_seed(k, 1).unwrap();
        let mut b = QuantilesSketch::<u64>::with_seed(k, 2).unwrap();
        // a gets the low half, b the high half.
        for i in 0..50_000 {
            a.update(i);
        }
        for i in 50_000..100_000 {
            b.update(i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.n(), 100_000);
        assert!(a.check_weight_invariant());
        let eps = epsilon_for_k(k);
        for phi in [0.1, 0.5, 0.9] {
            let v = a.quantile(phi).unwrap();
            let true_rank = v as f64 / 100_000.0;
            assert!(
                (true_rank - phi).abs() <= 3.0 * eps,
                "phi={phi} rank={true_rank}"
            );
        }
    }

    #[test]
    fn merge_with_partial_base_buffer() {
        let k = 16;
        let mut a = filled(k, 1, 1000);
        let b = filled(k, 2, 37); // only a partial base buffer
        a.merge(&b).unwrap();
        assert_eq!(a.n(), 1037);
        assert!(a.check_weight_invariant());
    }

    #[test]
    fn merge_k_mismatch_rejected() {
        let mut a = filled(16, 1, 10);
        let b = filled(32, 1, 10);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_updates_extrema() {
        let mut a = filled(16, 1, 100); // 0..100
        let mut b = QuantilesSketch::<u64>::with_seed(16, 2).unwrap();
        b.update(1_000_000);
        a.merge(&b).unwrap();
        assert_eq!(a.max_item(), Some(&1_000_000));
        assert_eq!(a.min_item(), Some(&0));
    }

    #[test]
    fn clear_resets() {
        let mut q = filled(16, 1, 10_000);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), None);
        q.update(7);
        assert_eq!(q.quantile(0.5), Some(7));
    }

    #[test]
    fn duplicate_heavy_stream() {
        // 90% of the stream is the value 42; its rank interval must
        // contain the median.
        let mut q = QuantilesSketch::<u64>::with_seed(64, 17).unwrap();
        for i in 0..10_000u64 {
            q.update(if i % 10 == 0 { i } else { 42 });
        }
        assert_eq!(q.quantile(0.5), Some(42));
    }

    #[test]
    fn reader_batch_queries() {
        let q = filled(64, 1, 10_000);
        let r = q.reader();
        let qs = r.quantiles(&[0.25, 0.5, 0.75]);
        assert_eq!(qs.len(), 3);
        assert!(qs.iter().all(|x| x.is_some()));
        let cdf = r.cdf(&[2_500, 5_000, 7_500]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf[1] - 0.5).abs() < 0.1);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        let pmf = r.pmf(&[2_500, 5_000, 7_500]);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_oracle_seed() {
        let a = filled(32, 123, 50_000);
        let b = filled(32, 123, 50_000);
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(phi), b.quantile(phi));
        }
    }

    #[test]
    fn different_oracle_seeds_may_differ_but_stay_accurate() {
        let a = filled(32, 1, 50_000);
        let b = filled(32, 2, 50_000);
        let (va, vb) = (a.quantile(0.5).unwrap(), b.quantile(0.5).unwrap());
        for v in [va, vb] {
            assert!((v as f64 / 50_000.0 - 0.5).abs() < 0.1);
        }
    }

    /// `items` through one sketch per item and through another in
    /// chunks of `sizes` (cycled), every `scalar_every`-th chunk per item
    /// and the rest by `merge_batch`: the two wire images must be
    /// byte-identical.
    fn assert_batches_equal_scalar<T>(k: usize, items: &[T], sizes: &[usize], scalar_every: usize)
    where
        T: Ord + Clone + crate::wire::WireItem,
    {
        use crate::wire::WireEncode;
        let mut scalar = QuantilesSketch::with_seed(k, 11).unwrap();
        items.iter().for_each(|item| scalar.update(item.clone()));
        let mut batched = QuantilesSketch::with_seed(k, 11).unwrap();
        let mut rest = items;
        for (i, &size) in sizes.iter().cycle().enumerate() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            if scalar_every > 0 && i % scalar_every == 0 {
                chunk.iter().for_each(|item| batched.update(item.clone()));
            } else {
                batched.merge_batch(&mut chunk.to_vec());
            }
        }
        assert!(batched.check_weight_invariant());
        assert_eq!(
            scalar.ladder().to_wire_bytes(),
            batched.ladder().to_wire_bytes(),
            "k {k}, chunks {sizes:?}, every {scalar_every}th per item"
        );
    }

    #[test]
    fn batches_equal_scalar_updates_byte_for_byte() {
        use crate::quantiles::TotalF64;
        for k in [2usize, 3, 128] {
            let n = 7 * 2 * k + 5;
            let distinct: Vec<u64> = (0..n as u64)
                .map(|i| (i * 2_654_435_761) % 1_000_003)
                .collect();
            let duplicates: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 5).collect();
            let zeros: Vec<TotalF64> = (0..n)
                .map(|i| TotalF64([0.0, -0.0, 1.5, -0.0, -2.0, 0.0, f64::NAN][(i * 5) % 7]))
                .collect();
            let two_k = 2 * k;
            let plans: [&[usize]; 7] = [
                &[1],
                &[two_k],
                &[two_k - 1],
                &[two_k + 1],
                &[k, two_k + 1, 1, 2 * two_k - 1],
                &[two_k - 1, 2, two_k, 0, 3 * two_k],
                &[n],
            ];
            for sizes in plans {
                for scalar_every in [0, 3] {
                    assert_batches_equal_scalar(k, &distinct, sizes, scalar_every);
                    assert_batches_equal_scalar(k, &duplicates, sizes, scalar_every);
                    assert_batches_equal_scalar(k, &zeros, sizes, scalar_every);
                }
            }
        }
    }

    #[test]
    fn works_with_total_f64() {
        use crate::quantiles::TotalF64;
        let mut q = QuantilesSketch::<TotalF64>::with_seed(64, 1).unwrap();
        for i in 0..10_000 {
            q.update(TotalF64(i as f64 / 100.0));
        }
        let med = q.quantile(0.5).unwrap().0;
        assert!((med - 50.0).abs() < 5.0);
    }
}
