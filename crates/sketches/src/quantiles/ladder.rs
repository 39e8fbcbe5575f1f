//! Persistent (copy-on-write) snapshots of the Quantiles level ladder.
//!
//! The concurrent engine publishes a point-in-time image of its Quantiles
//! sketch on the propagation path, once per merge. Rebuilding the flat
//! sorted reader there costs O(retained · log retained) per merge, which
//! breaks the paper's O(b)-amortised propagation bound exactly the way
//! the pre-block Θ image copy did. [`QuantilesLadder`] removes that cost:
//! the sketch keeps every compaction level as an immutable `Arc`'d sorted
//! run and the list of those runs behind one more `Arc`, rebuilt only
//! after a compaction, so a ladder snapshot is one pointer clone for all
//! the levels plus the sorted (≤ 2k, parameter-bounded) base run —
//! independent of how many levels the stream has accumulated. (The
//! engine hands the base in already sorted;
//! [`QuantilesSketch::ladder`](super::QuantilesSketch::ladder) sorts a
//! copy.) The expensive flattening into
//! a [`QuantilesReader`](super::QuantilesReader) moves to the query side,
//! where the engine memoises it per publication version: it runs once per
//! *republication observed by a query*, not once per merge.
//!
//! Queries can also run directly on a ladder: a k-way heap merge walks
//! the per-level runs in item order, weighting each run by its level
//! (`2^(level+1)`, base weight 1).

use super::sketch::{quantile_from_weighted, QuantilesReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One immutable sorted run of the ladder: `items` all carry `weight`.
#[derive(Debug, Clone)]
struct LadderRun<T> {
    items: Arc<Vec<T>>,
    weight: u64,
}

/// The non-empty compaction levels of a sketch in ladder form, shared by
/// every snapshot taken between two compactions.
#[derive(Debug, Clone)]
pub(super) struct LevelRuns<T>(Arc<Vec<LadderRun<T>>>);

impl<T> LevelRuns<T> {
    /// `levels[i]` is the sketch's level-`i` run (weight `2^(i+1)`);
    /// empty levels are skipped.
    pub(super) fn new(levels: &[Arc<Vec<T>>]) -> Self {
        let runs = levels
            .iter()
            .enumerate()
            .filter(|(_, items)| !items.is_empty());
        LevelRuns(Arc::new(
            runs.map(|(level, items)| LadderRun {
                items: Arc::clone(items),
                weight: 1u64 << (level + 1),
            })
            .collect(),
        ))
    }
}

/// An immutable point-in-time snapshot of a Quantiles sketch's level
/// ladder: one sorted weight-1 run for the base buffer plus one sorted
/// run per non-empty compaction level (weight `2^(level+1)`).
///
/// Cheap to take (the level runs and their list are shared with the
/// sketch, copy-on-write) and cheap to clone; later sketch mutations
/// replace whole runs and are never observed by an outstanding ladder.
///
/// # Examples
///
/// ```
/// use fcds_sketches::quantiles::QuantilesSketch;
///
/// let mut q = QuantilesSketch::<u64>::with_seed(64, 1).unwrap();
/// for i in 0..100_000u64 {
///     q.update(i);
/// }
/// let ladder = q.ladder(); // O(k log k), not O(retained·log retained)
/// let median = ladder.quantile(0.5).unwrap();
/// assert!((median as f64 - 50_000.0).abs() < 10_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct QuantilesLadder<T: Ord + Clone> {
    /// The sorted weight-1 run of a sketch's base buffer (may be empty).
    base: Arc<Vec<T>>,
    /// Non-empty sorted runs behind one shared pointer. Snapshots of one
    /// sketch hold its levels in ascending weight; ladders produced by
    /// [`Self::concat`] or decoded off the wire may interleave weights
    /// (weight 1 included) — no query depends on run order.
    levels: Arc<Vec<LadderRun<T>>>,
    n: u64,
    min_item: Option<T>,
    max_item: Option<T>,
}

impl<T: Ord + Clone> Default for QuantilesLadder<T> {
    fn default() -> Self {
        QuantilesLadder {
            base: Arc::default(),
            levels: Arc::default(),
            n: 0,
            min_item: None,
            max_item: None,
        }
    }
}

impl<T: Ord + Clone> QuantilesLadder<T> {
    /// The empty ladder (summarises the empty stream).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Assembles a ladder from its parts (the sketch is the only
    /// producer). `base` must be sorted.
    pub(super) fn from_parts(
        base: Vec<T>,
        levels: &LevelRuns<T>,
        n: u64,
        min_item: Option<T>,
        max_item: Option<T>,
    ) -> Self {
        debug_assert!(base.windows(2).all(|w| w[0] <= w[1]), "base must be sorted");
        QuantilesLadder {
            base: Arc::new(base),
            levels: Arc::clone(&levels.0),
            n,
            min_item,
            max_item,
        }
    }

    /// Rebuilds a ladder from decoded wire runs (crate-internal; the
    /// wire codec has already validated per-run sortedness and the
    /// weight invariant `Σ len·weight = n`).
    pub(crate) fn from_wire_runs(
        runs: Vec<(Vec<T>, u64)>,
        n: u64,
        min_item: Option<T>,
        max_item: Option<T>,
    ) -> Self {
        QuantilesLadder {
            base: Arc::default(),
            levels: Arc::new(
                runs.into_iter()
                    .map(|(items, weight)| LadderRun {
                        items: Arc::new(items),
                        weight,
                    })
                    .collect(),
            ),
            n,
            min_item,
            max_item,
        }
    }

    /// Iterates the non-empty sorted runs as `(items, weight)` pairs,
    /// base first, then in stored order (what the wire codec writes).
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&[T], u64)> {
        let base = (!self.base.is_empty()).then(|| (self.base.as_slice(), 1));
        let levels = self.levels.iter().map(|r| (r.items.as_slice(), r.weight));
        base.into_iter().chain(levels)
    }

    /// Merges another ladder into this one by run-list concatenation:
    /// `O(runs)` `Arc` clones, no item is touched. The combined ladder
    /// summarises the concatenation of both streams — the k-way merge
    /// over runs happens lazily at query time, exactly as it does for a
    /// single sketch's ladder. This is the Quantiles merge of the
    /// wire tier ([`crate::wire::WireMerge`]).
    pub fn concat(&mut self, other: &Self) {
        let runs = Arc::make_mut(&mut self.levels);
        if !other.base.is_empty() {
            runs.push(LadderRun {
                items: Arc::clone(&other.base),
                weight: 1,
            });
        }
        runs.extend(other.levels.iter().cloned());
        self.n += other.n;
        if let Some(om) = &other.min_item {
            if self.min_item.as_ref().is_none_or(|m| om < m) {
                self.min_item = Some(om.clone());
            }
        }
        if let Some(om) = &other.max_item {
            if self.max_item.as_ref().is_none_or(|m| om > m) {
                self.max_item = Some(om.clone());
            }
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

    /// Number of sorted runs (non-empty levels plus the base run).
    pub fn run_count(&self) -> usize {
        self.runs().count()
    }

    /// Number of retained samples across all runs.
    pub fn retained(&self) -> usize {
        self.runs().map(|(items, _)| items.len()).sum()
    }

    /// The exact minimum item of the summarised stream, if any.
    pub fn min_item(&self) -> Option<&T> {
        self.min_item.as_ref()
    }

    /// The exact maximum item of the summarised stream, if any.
    pub fn max_item(&self) -> Option<&T> {
        self.max_item.as_ref()
    }

    /// Iterates the retained `(item, weight)` pairs in item order by
    /// heap-merging the per-level runs — O(retained · log run_count)
    /// for a full walk, no allocation proportional to `retained`.
    pub fn iter_weighted(&self) -> WeightedMerge<'_, T> {
        WeightedMerge::new(std::iter::once(self))
    }

    /// Flattens into the classic sorted reader. O(retained · log
    /// run_count) — cheaper than re-sorting from scratch, but still the
    /// cost the engine memoises away from the per-merge path.
    pub fn flatten(&self) -> QuantilesReader<T> {
        QuantilesReader::from_ladders([self])
    }

    /// Returns an element whose rank approximates `phi·n` (φ ∈ [0, 1]);
    /// `None` on an empty snapshot. `phi = 0` returns the exact minimum
    /// and `phi = 1` the exact maximum. Same selection rule as
    /// [`QuantilesReader::quantile`], over the heap merge instead of the
    /// flat vector.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        quantile_from_weighted(
            self.iter_weighted(),
            self.n,
            self.min_item.as_ref(),
            self.max_item.as_ref(),
            phi,
        )
    }

    /// The approximate normalised rank of `item`: the fraction of stream
    /// elements strictly smaller than it. Sums per-run prefix weights via
    /// binary search — O(run_count · log k), no merge walk.
    pub fn rank(&self, item: &T) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let below: u64 = self
            .runs()
            .map(|(items, weight)| items.partition_point(|v| v < item) as u64 * weight)
            .sum();
        below as f64 / self.n as f64
    }
}

/// A heap-based k-way merge over the sorted runs of one or more ladders,
/// yielding `(item, weight)` in item order (ties broken arbitrarily but
/// deterministically).
#[derive(Debug)]
pub struct WeightedMerge<'a, T: Ord> {
    /// Min-heap keyed on `(item, run_id, position)`.
    heap: BinaryHeap<Reverse<MergeCursor<'a, T>>>,
}

#[derive(Debug)]
struct MergeCursor<'a, T> {
    item: &'a T,
    /// Run identity for deterministic tie-breaks.
    run: usize,
    pos: usize,
    items: &'a [T],
    weight: u64,
}

impl<T: Ord> PartialEq for MergeCursor<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<T: Ord> Eq for MergeCursor<'_, T> {}

impl<T: Ord> PartialOrd for MergeCursor<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for MergeCursor<'_, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.item
            .cmp(other.item)
            .then(self.run.cmp(&other.run))
            .then(self.pos.cmp(&other.pos))
    }
}

impl<'a, T: Ord + Clone> WeightedMerge<'a, T> {
    pub(crate) fn new(ladders: impl IntoIterator<Item = &'a QuantilesLadder<T>>) -> Self {
        let mut heap = BinaryHeap::new();
        let mut run_id = 0usize;
        for ladder in ladders {
            for (items, weight) in ladder.runs() {
                if let Some(first) = items.first() {
                    heap.push(Reverse(MergeCursor {
                        item: first,
                        run: run_id,
                        pos: 0,
                        items,
                        weight,
                    }));
                }
                run_id += 1;
            }
        }
        WeightedMerge { heap }
    }
}

impl<'a, T: Ord + Clone> Iterator for WeightedMerge<'a, T> {
    type Item = (&'a T, u64);

    fn next(&mut self) -> Option<(&'a T, u64)> {
        let Reverse(cursor) = self.heap.pop()?;
        let out = (cursor.item, cursor.weight);
        let next_pos = cursor.pos + 1;
        if let Some(next) = cursor.items.get(next_pos) {
            self.heap.push(Reverse(MergeCursor {
                item: next,
                run: cursor.run,
                pos: next_pos,
                items: cursor.items,
                weight: cursor.weight,
            }));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::quantiles::{epsilon_for_k, QuantilesLadder, QuantilesReader, QuantilesSketch};
    use std::sync::Arc;

    fn filled(k: usize, seed: u64, n: u64) -> QuantilesSketch<u64> {
        let mut q = QuantilesSketch::with_seed(k, seed).unwrap();
        for i in 0..n {
            q.update(i);
        }
        q
    }

    #[test]
    fn ladder_agrees_with_flat_reader() {
        // The ladder and the full-rebuild reader are two views of the
        // same retained multiset: identical n, identical answers.
        for n in [0u64, 1, 100, 255, 256, 10_000, 123_457] {
            let q = filled(64, 5, n);
            let ladder = q.ladder();
            let reader = q.reader();
            assert_eq!(ladder.n(), reader.n());
            assert_eq!(
                ladder.retained() as u64,
                ladder.iter_weighted().count() as u64
            );
            for phi in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                assert_eq!(
                    ladder.quantile(phi),
                    reader.quantile(phi),
                    "n={n} phi={phi}"
                );
            }
            if n > 0 {
                for probe in [0, n / 3, n / 2, n - 1, n + 7] {
                    assert_eq!(
                        ladder.rank(&probe),
                        reader.rank(&probe),
                        "n={n} probe={probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn flatten_equals_full_rebuild() {
        let q = filled(32, 9, 50_000);
        let flat = q.ladder().flatten();
        let rebuilt = q.reader();
        assert_eq!(flat.n(), rebuilt.n());
        for phi in [0.0, 0.2, 0.5, 0.8, 1.0] {
            assert_eq!(flat.quantile(phi), rebuilt.quantile(phi));
        }
        for probe in [0u64, 10_000, 49_999] {
            assert_eq!(flat.rank(&probe), rebuilt.rank(&probe));
        }
    }

    #[test]
    fn iter_weighted_is_sorted_and_carries_total_weight() {
        let q = filled(16, 3, 37_123);
        let ladder = q.ladder();
        let merged: Vec<(u64, u64)> = ladder.iter_weighted().map(|(v, w)| (*v, w)).collect();
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0), "not sorted");
        let total: u64 = merged.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 37_123);
    }

    #[test]
    fn ladder_is_immutable_under_later_updates() {
        let mut q = filled(32, 1, 10_000);
        let ladder = q.ladder();
        let before = ladder.quantile(0.5);
        for i in 10_000..200_000u64 {
            q.update(i);
        }
        // The snapshot still summarises the first 10k items only.
        assert_eq!(ladder.n(), 10_000);
        assert_eq!(ladder.quantile(0.5), before);
        assert_eq!(ladder.max_item(), Some(&9_999));
        assert_eq!(q.ladder().n(), 200_000);
    }

    #[test]
    fn snapshot_shares_level_runs() {
        // Taking a ladder clones one pointer for all the levels: a
        // second snapshot of an unchanged sketch shares the run list
        // (and so every level allocation); only the base run (weight 1)
        // is rebuilt per snapshot.
        let mut q = filled(32, 2, 100_000);
        let a = q.ladder();
        let b = q.ladder();
        assert!(a.run_count() >= 3, "stream should span several levels");
        assert!(Arc::ptr_eq(&a.levels, &b.levels), "level list was copied");
        // A compaction replaces the list but shares the untouched runs.
        let frozen = a.levels.last().unwrap();
        for i in 0..64u64 {
            q.update(i);
        }
        let c = q.ladder();
        assert!(!Arc::ptr_eq(&a.levels, &c.levels), "stale level list");
        let still = c.levels.iter().find(|r| r.weight == frozen.weight).unwrap();
        assert!(
            Arc::ptr_eq(&frozen.items, &still.items),
            "level run was copied"
        );
    }

    #[test]
    fn merged_ladders_summarise_concatenated_stream() {
        let k = 64;
        let mut ladders = Vec::new();
        for shard in 0..4u64 {
            let mut q = QuantilesSketch::<u64>::with_seed(k, shard).unwrap();
            for i in (shard..200_000).step_by(4) {
                q.update(i);
            }
            ladders.push(q.ladder());
        }
        let merged = QuantilesReader::from_ladders(ladders.iter());
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
    fn empty_ladder_queries() {
        let ladder = QuantilesLadder::<u64>::empty();
        assert!(ladder.is_empty());
        assert_eq!(ladder.quantile(0.5), None);
        assert_eq!(ladder.rank(&5), 0.0);
        assert_eq!(ladder.run_count(), 0);
        assert_eq!(ladder.iter_weighted().count(), 0);
        let flat = ladder.flatten();
        assert!(flat.is_empty());
    }

    #[test]
    fn rank_error_within_epsilon_through_the_ladder() {
        let k = 128;
        let n = 200_000u64;
        let ladder = filled(k, 7, n).ladder();
        let eps = epsilon_for_k(k);
        for phi in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let v = ladder.quantile(phi).unwrap();
            let true_rank = v as f64 / n as f64;
            assert!(
                (true_rank - phi).abs() <= 3.0 * eps,
                "phi={phi} got rank {true_rank}"
            );
        }
    }
}
