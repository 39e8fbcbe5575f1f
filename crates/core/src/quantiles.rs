//! The concurrent Quantiles sketch — the paper's second instantiation
//! (§6.2).
//!
//! The Quantiles sketch has no useful pre-filter, so it uses the trivial
//! hint (`shouldAdd ≡ true`, which §5.1 explicitly allows), and its local
//! sketch is a plain item buffer ([`ItemBuffer`], shared with the
//! Misra–Gries instantiation). Snapshots are published as an immutable
//! [`QuantilesLadder`] behind an epoch-managed pointer cell: the pointer
//! swap is a single atomic store (the merge's linearisation point) and
//! queries run entirely on their snapshot, concurrent with further
//! merges.
//!
//! Propagation sorts each merged item once and does no per-level work,
//! whatever the retained-sample count. A merge is the sequential
//! sketch's batch merge ([`QuantilesSketch::merge_batch`]): it cuts the
//! buffer where the sketch's base buffer fills, sorts each piece in
//! place and merges it into the base buffer, which it keeps in
//! ascending order, so a full base buffer compacts without a sort
//! (caesium's writer splits the same way: sort once, merge sorted runs).
//! The sketch keeps each compaction level as an immutable `Arc`'d sorted
//! run and the list of them behind one shared pointer that changes only
//! at a compaction (once per 2k items) — the level-ladder analogue of
//! the Θ sketch's chunked copy-on-write block images. A publication is
//! then a copy of the (parameter-bounded, ≤ 2k) sorted base buffer plus
//! one pointer clone. The O(retained · log retained) flattening into a
//! [`QuantilesReader`] moves to the query side, where each shard view
//! carries a publication version and a query memoises the flat merged
//! reader per version *vector* (any `K`, including 1) on shard 0's view:
//! it runs once per republication observed by a query, never on the
//! propagation path ([`QuantilesGlobal::merge_shard_views`]).
//!
//! By Theorem 1 plus the analysis of §6.2, a query misses at most
//! `r = 2Nb` updates and therefore returns an element whose rank error is
//! at most `ε_r = ε − rε/n + r/n` — the relaxation penalty vanishes as
//! the stream grows.

use crate::composable::{GlobalSketch, ItemBuffer};
use crate::config::ConcurrencyConfig;
use crate::engine::{EngineGlobal, Family, QuantilesFamily};
use crate::runtime::{ConcurrentSketch, SketchWriter};
use crate::sync::EpochCell;
use bytes::Bytes;
use fcds_sketches::error::Result;
use fcds_sketches::oracle::DeterministicOracle;
use fcds_sketches::quantiles::{QuantilesLadder, QuantilesReader, QuantilesSketch};
use fcds_sketches::wire::{SketchFamily, WireEncode};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The global side: the sequential mergeable Quantiles sketch, whose
/// batch merge keeps its base buffer sorted for publication to copy.
pub struct QuantilesGlobal<T: Ord + Clone + Send + Sync + 'static> {
    sketch: QuantilesSketch<T>,
    /// Seed for sibling shards' deterministic oracles (§4).
    oracle_seed: u64,
    /// Counts shards spawned off this global so each sibling gets a
    /// distinct oracle stream.
    shards_spawned: Cell<u64>,
}

impl<T: Ord + Clone + Send + Sync + 'static> std::fmt::Debug for QuantilesGlobal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantilesGlobal")
            .field("n", &self.sketch.n())
            .finish()
    }
}

impl<T: Ord + Clone + Send + Sync + 'static> QuantilesGlobal<T> {
    /// Wraps a sequential sketch (empty, or warmed by the caller);
    /// sibling shards draw their oracles from `oracle_seed`.
    pub fn new(sketch: QuantilesSketch<T>, oracle_seed: u64) -> Self {
        QuantilesGlobal {
            sketch,
            oracle_seed,
            shards_spawned: Cell::new(0),
        }
    }
}

/// The published view of one Quantiles shard: the epoch-managed ladder
/// snapshot plus a monotone *publication version*.
///
/// The ladder is what the propagator can afford to publish per merge
/// (a copy of the sketch's sorted base buffer and one pointer clone for
/// all the levels); the version is what makes the flat-reader memo
/// cheap and correct: a query compares the shards' versions against the
/// memo's key and re-flattens the ladders only when some shard actually
/// republished — instead of on every call. The publisher stores the
/// ladder *before* bumping the version (release), so a ladder loaded
/// after an observed version is at least as fresh as that version.
pub struct QuantilesView<T: Ord + Clone + Send + Sync + 'static> {
    ladder: EpochCell<QuantilesLadder<T>>,
    version: AtomicU64,
    /// The engine's memoised flat reader, keyed by the shards' versions
    /// at build time (a one-element key when `K = 1`). Only shard 0's is
    /// used; queries read and refresh it, the propagator never touches
    /// it. Any thread may refresh it (EpochCell stores are swap-based,
    /// so concurrent refreshes are safe — last writer wins and a stale
    /// key only causes one redundant rebuild).
    merged: EpochCell<MergedQuantiles<T>>,
}

impl<T: Ord + Clone + Send + Sync + 'static> std::fmt::Debug for QuantilesView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantilesView")
            .field("version", &self.version())
            .finish()
    }
}

/// A flat reader tagged with the per-shard publication versions it was
/// flattened from.
struct MergedQuantiles<T: Ord + Clone> {
    versions: Vec<u64>,
    reader: Arc<QuantilesReader<T>>,
}

impl<T: Ord + Clone + Send + Sync + 'static> QuantilesView<T> {
    /// The current publication version (bumped on every ladder store).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The currently published ladder snapshot.
    pub fn ladder(&self) -> Arc<QuantilesLadder<T>> {
        self.ladder.load()
    }
}

impl<T: Ord + Clone + Send + Sync + 'static> GlobalSketch for QuantilesGlobal<T> {
    type Local = ItemBuffer<T>;
    type View = QuantilesView<T>;
    type Snapshot = Arc<QuantilesReader<T>>;

    fn new_local(&self) -> ItemBuffer<T> {
        ItemBuffer::default()
    }

    fn new_view(&self) -> Self::View {
        QuantilesView {
            ladder: EpochCell::new(self.sketch.ladder()),
            version: AtomicU64::new(0),
            // The empty version key never matches a real K ≥ 1 version
            // vector, so the first query builds the memo.
            merged: EpochCell::new(MergedQuantiles {
                versions: Vec::new(),
                reader: Arc::new(QuantilesReader::merged(std::iter::empty())),
            }),
        }
    }

    fn merge(&mut self, local: &mut ItemBuffer<T>) {
        self.sketch.merge_batch(&mut local.items);
        local.items.clear();
    }

    /// A batch of one, so the base buffer stays sorted and the eager
    /// phase's per-item publication sorts nothing either.
    fn update_direct(&mut self, mut item: T) {
        self.sketch.merge_batch(std::slice::from_mut(&mut item));
    }

    fn publish(&self, view: &Self::View) {
        view.ladder.store(self.sketch.ladder());
        view.version.fetch_add(1, Ordering::Release);
    }

    fn snapshot(view: &Self::View) -> Arc<QuantilesReader<T>> {
        Self::merge_shard_views(&[view])
    }

    /// The flat merged reader, memoised per publication-version vector
    /// on shard 0's view: the O(retained · log runs) flatten runs only
    /// when some shard republished since the last query, not on every
    /// call — and never on the propagation path.
    fn merge_shard_views(views: &[&Self::View]) -> Arc<QuantilesReader<T>> {
        // Versions first (acquire), then ladders: the ladders are then at
        // least as fresh as the key, so a memo hit can never serve data
        // older than the key promises.
        let versions: Vec<u64> = views.iter().map(|v| v.version()).collect();
        let memo = &views[0].merged;
        let cached = memo.load();
        if cached.versions == versions {
            return Arc::clone(&cached.reader);
        }
        let ladders: Vec<_> = views.iter().map(|v| v.ladder()).collect();
        let reader = Arc::new(QuantilesReader::from_ladders(
            ladders.iter().map(|a| a.as_ref()),
        ));
        memo.store(MergedQuantiles {
            versions,
            reader: Arc::clone(&reader),
        });
        reader
    }

    fn new_shard(&self) -> Self {
        let idx = self.shards_spawned.get() + 1;
        self.shards_spawned.set(idx);
        // Distinct oracle stream per shard: mix the shard index into the
        // seed (splitmix64 constant) so sibling compaction coin flips are
        // not correlated.
        let shard_seed = self.oracle_seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sketch = QuantilesSketch::new(self.sketch.k(), DeterministicOracle::new(shard_seed))
            .expect("shard parameters were already validated");
        QuantilesGlobal::new(sketch, self.oracle_seed)
    }

    /// Nothing to set up for sharded publication: the persistent level
    /// ladder *is* the copy-on-write mirror (unlike Θ, whose
    /// [`prepare_sharded`](GlobalSketch::prepare_sharded) enables a
    /// separate block mirror), so single- and multi-shard deployments
    /// publish through the same path and `publish_sharded` keeps its
    /// `publish` default.
    fn prepare_sharded(&mut self) {}

    fn calc_hint(&self) {}

    fn stream_len(&self) -> u64 {
        self.sketch.n()
    }
}

impl<T: Ord + Clone + Send + Sync + 'static> Family for QuantilesFamily<T> {
    type Engine = ConcurrentQuantilesSketch<T>;
    const DEFAULT_ACCURACY: usize = 128;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let sketch = QuantilesSketch::new(accuracy, DeterministicOracle::new(seed))?;
        ConcurrentSketch::start(QuantilesGlobal::new(sketch, seed), config)
    }
}

impl EngineGlobal for QuantilesGlobal<u64> {
    const FAMILY: SketchFamily = SketchFamily::Quantiles;
    type Hashing = ();

    fn ingest(writer: &mut QuantilesWriter<u64>, items: &[u64]) {
        writer.update_batch(items);
    }

    fn estimate(_: &ConcurrentQuantilesSketch<u64>) -> Option<f64> {
        None
    }

    /// The published state in ladder form (see `fcds_sketches::wire`)
    /// *without flattening*: the shard ladders' copy-on-write runs are
    /// concatenated by `Arc` clone and streamed out run by run, so the
    /// export costs O(runs + retained) with no sort and no k-way merge —
    /// those stay on the query side of whichever node decodes the image.
    /// On the fan-in side, `fcds_sketches::wire::ladder_multiway_concat`
    /// splices the borrowed runs of many images into one ladder in a
    /// single pass.
    fn wire_image(engine: &ConcurrentQuantilesSketch<u64>) -> Bytes {
        let mut ladders = engine.shard_views().map(|v| v.ladder());
        let mut merged: QuantilesLadder<u64> = ladders
            .next()
            .map(|l| (*l).clone())
            .unwrap_or_else(QuantilesLadder::empty);
        for l in ladders {
            merged.concat(&l);
        }
        merged.to_wire_bytes()
    }
}

/// Concurrent Quantiles sketch with r-relaxed PAC rank guarantees (§6.2).
///
/// [`snapshot`](ConcurrentSketch::snapshot) takes a wait-free snapshot
/// of the current state: all queries on it are mutually consistent, and
/// two snapshots with no republication in between share one reader.
///
/// # Examples
///
/// ```
/// use fcds_core::engine::{EngineBuilder, QuantilesFamily};
///
/// let sketch = EngineBuilder::<QuantilesFamily>::new()
///     .accuracy(128) // k
///     .writers(2)
///     .build()
///     .unwrap();
/// let mut w = sketch.writer();
/// for i in 0..50_000u64 {
///     w.update(i);
/// }
/// w.flush().unwrap();
/// sketch.quiesce();
/// let median = sketch.quantile(0.5).unwrap();
/// assert!((median as f64 - 25_000.0).abs() < 2_500.0);
/// ```
pub type ConcurrentQuantilesSketch<T> = ConcurrentSketch<QuantilesGlobal<T>>;

/// Per-thread writer for [`ConcurrentQuantilesSketch`].
pub type QuantilesWriter<T> = SketchWriter<QuantilesGlobal<T>>;

impl<T: Ord + Clone + Send + Sync + 'static> ConcurrentQuantilesSketch<T> {
    /// Approximate φ-quantile of the stream so far (`None` if empty).
    pub fn quantile(&self, phi: f64) -> Option<T> {
        self.snapshot().quantile(phi)
    }

    /// Approximate normalised rank of `item`.
    pub fn rank(&self, item: &T) -> f64 {
        self.snapshot().rank(item)
    }

    /// Stream length reflected by the current snapshot.
    pub fn visible_n(&self) -> u64 {
        self.snapshot().n()
    }

    /// The accuracy parameter `k`.
    pub fn k(&self) -> usize {
        self.with_globals(|g| g.sketch.k())[0]
    }

    /// The relaxed rank-error bound `ε_r` of §6.2 at the current visible
    /// stream length.
    pub fn relaxed_epsilon(&self) -> f64 {
        let eps = fcds_sketches::quantiles::epsilon_for_k(self.k());
        fcds_sketches::quantiles::relaxed_epsilon(eps, self.relaxation(), self.visible_n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composable::LocalSketch;
    use crate::config::PropagationBackendKind;
    use crate::engine::EngineBuilder;
    use fcds_sketches::quantiles::epsilon_for_k;

    #[test]
    fn empty_sketch() {
        let s = EngineBuilder::<QuantilesFamily>::new().build().unwrap();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.visible_n(), 0);
    }

    #[test]
    fn small_stream_eager_is_exact() {
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(64)
            .writers(2)
            .max_concurrency_error(0.04)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..100u64 {
            w.update(i);
        }
        // Eager phase: everything is immediately visible.
        assert_eq!(s.visible_n(), 100);
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(99));
    }

    #[test]
    fn concurrent_rank_accuracy() {
        let k = 128;
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(k)
            .seed(0xFCD5)
            .writers(4)
            .build()
            .unwrap();
        let n_per = crate::test_support::scaled(50_000);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n_per {
                        w.update(t * n_per + i);
                    }
                    w.flush().unwrap();
                });
            }
        });
        s.quiesce();
        let n = 4 * n_per;
        assert_eq!(s.visible_n(), n);
        let eps = epsilon_for_k(k);
        for phi in [0.1, 0.5, 0.9] {
            let v = s.quantile(phi).unwrap();
            let true_rank = v as f64 / n as f64;
            assert!(
                (true_rank - phi).abs() <= 4.0 * eps,
                "phi={phi} rank={true_rank}"
            );
        }
    }

    #[test]
    fn snapshot_is_internally_consistent_under_ingestion() {
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(64)
            .writers(2)
            .max_concurrency_error(1.0)
            .build()
            .unwrap();
        let n = crate::test_support::scaled(100_000);
        std::thread::scope(|sc| {
            for _ in 0..2 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n {
                        w.update(i);
                    }
                });
            }
            for _ in 0..200 {
                let snap = s.snapshot();
                if snap.n() == 0 {
                    continue;
                }
                // Quantiles from one snapshot must be monotone in φ.
                let q25 = snap.quantile(0.25).unwrap();
                let q50 = snap.quantile(0.5).unwrap();
                let q75 = snap.quantile(0.75).unwrap();
                assert!(q25 <= q50 && q50 <= q75);
            }
        });
    }

    #[test]
    fn visible_n_lags_by_at_most_r_after_writer_flushes() {
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(32)
            .writers(1)
            .max_concurrency_error(1.0)
            .build()
            .unwrap();
        let mut w = s.writer();
        let n = 10_000u64;
        for i in 0..n {
            w.update(i);
        }
        // Without a flush, at most 2·b updates may be invisible
        // (one full buffer in flight + the current partial one).
        s.quiesce();
        let visible = s.visible_n();
        let r = s.relaxation();
        assert!(
            visible + r >= n,
            "visible {visible} lags more than r={r} behind {n}"
        );
        w.flush().unwrap();
        s.quiesce();
        assert_eq!(s.visible_n(), n);
    }

    #[test]
    fn relaxed_epsilon_shrinks_with_stream() {
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(128)
            .writers(2)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..2_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let eps_small = s.relaxed_epsilon();
        for i in 2_000..crate::test_support::scaled(200_000) {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let eps_large = s.relaxed_epsilon();
        assert!(eps_large < eps_small);
        assert!(eps_large < epsilon_for_k(128) + 1e-3);
    }

    #[test]
    fn sharded_rank_accuracy_and_exact_n() {
        let k = 128;
        for backend in [
            PropagationBackendKind::DedicatedThread,
            PropagationBackendKind::WriterAssisted,
        ] {
            let s = EngineBuilder::<QuantilesFamily>::new()
                .accuracy(k)
                .seed(0xFCD5)
                .writers(4)
                .shards(2)
                .max_concurrency_error(1.0)
                .backend(backend)
                .build()
                .unwrap();
            let n_per = crate::test_support::scaled(25_000);
            std::thread::scope(|sc| {
                for t in 0..4u64 {
                    let mut w = s.writer();
                    sc.spawn(move || {
                        for i in 0..n_per {
                            w.update(t * n_per + i);
                        }
                        w.flush().unwrap();
                    });
                }
            });
            s.quiesce();
            let n = 4 * n_per;
            // Sample-union merge is lossless in n, and the merged reader
            // keeps the per-shard epsilon.
            assert_eq!(s.visible_n(), n);
            let eps = epsilon_for_k(k);
            for phi in [0.1, 0.5, 0.9] {
                let v = s.quantile(phi).unwrap();
                let true_rank = v as f64 / n as f64;
                assert!(
                    (true_rank - phi).abs() <= 4.0 * eps,
                    "phi={phi} rank={true_rank}"
                );
            }
        }
    }

    #[test]
    fn sharded_snapshot_is_cached_until_a_shard_republishes() {
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(64)
            .writers(2)
            .shards(2)
            .max_concurrency_error(1.0)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..10_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        // No shard republishes between these queries: the merged reader
        // must be the same allocation, not a fresh O(n log n) rebuild.
        let a = s.snapshot();
        let b = s.snapshot();
        assert!(
            Arc::ptr_eq(&a, &b),
            "merged reader rebuilt without republication"
        );
        // After more updates are propagated, queries must see fresh data.
        for i in 10_000..20_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let c = s.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "cache failed to invalidate");
        assert_eq!(c.n(), 20_000);
    }

    #[test]
    fn single_shard_snapshot_is_cached_until_republication() {
        // The flatten moved off the propagation path for every K, so the
        // K = 1 fast path must memoise too: two snapshots with no merge
        // in between share one allocation.
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(64)
            .writers(1)
            .max_concurrency_error(1.0)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..10_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let a = s.snapshot();
        let b = s.snapshot();
        assert!(
            Arc::ptr_eq(&a, &b),
            "flat reader rebuilt without republication"
        );
        for i in 10_000..20_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let c = s.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "cache failed to invalidate");
        assert_eq!(c.n(), 20_000);
    }

    #[test]
    fn published_ladder_matches_flattened_snapshot() {
        // The view's raw ladder and the engine's memoised flat reader are
        // two views of the same published state.
        let s = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(64)
            .writers(1)
            .max_concurrency_error(1.0)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..50_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let view = s.shard_views().next().expect("one shard");
        let ladder = view.ladder();
        assert!(ladder.run_count() > 1, "stream should span several levels");
        let flat = s.snapshot();
        assert_eq!(ladder.n(), flat.n());
        for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(ladder.quantile(phi), flat.quantile(phi), "phi={phi}");
        }
    }

    #[test]
    fn works_with_total_f64() {
        use fcds_sketches::quantiles::TotalF64;
        let s = EngineBuilder::<QuantilesFamily<TotalF64>>::new()
            .accuracy(64)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..10_000 {
            w.update(TotalF64(i as f64));
        }
        w.flush().unwrap();
        s.quiesce();
        let med = s.quantile(0.5).unwrap().0;
        assert!((med - 5_000.0).abs() < 1_000.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A publication copies the base buffer the batch merge keeps
        /// sorted: after every merge (and every eager update) the
        /// published ladder's weight-1 run equals the sketch's sorted
        /// base buffer, and `n`,
        /// the extrema and the quantiles equal those of a sequential
        /// sketch fed the same items — across many compactions
        /// (`2k = 16`), with duplicates, for `b` ∈ {1, 16}.
        #[test]
        fn published_ladder_tracks_the_sequential_sketch(
            wide in proptest::prelude::any::<bool>(),
            eager in 0usize..20,
            items in proptest::collection::vec(0u64..40, 60..400),
        ) {
            let b = if wide { 16 } else { 1 };
            let mut g = QuantilesGlobal::new(QuantilesSketch::with_seed(8, 5).unwrap(), 5);
            let mut reference = QuantilesSketch::<u64>::with_seed(8, 5).unwrap();
            let view = g.new_view();
            let mut local = g.new_local();
            let (head, tail) = items.split_at(eager);
            let steps = head.chunks(1).map(|c| (c, true)).chain(tail.chunks(b).map(|c| (c, false)));
            for (chunk, direct) in steps {
                for &item in chunk {
                    reference.update(item);
                    if direct {
                        g.update_direct(item);
                    } else {
                        local.update(item);
                    }
                }
                g.merge(&mut local);
                g.publish(&view);
                let ladder = view.ladder();
                let base_run: Vec<u64> = ladder
                    .iter_weighted()
                    .filter(|&(_, weight)| weight == 1)
                    .map(|(item, _)| *item)
                    .collect();
                let mut sorted_base = g.sketch.base_buffer().to_vec();
                sorted_base.sort_unstable();
                proptest::prop_assert_eq!(&base_run, &sorted_base);
                proptest::prop_assert_eq!(ladder.n(), reference.n());
                proptest::prop_assert_eq!(ladder.min_item(), reference.min_item());
                proptest::prop_assert_eq!(ladder.max_item(), reference.max_item());
                for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
                    proptest::prop_assert_eq!(ladder.quantile(phi), reference.quantile(phi));
                }
            }
            proptest::prop_assert!(reference.n() >= 3 * 16, "fewer than three compactions");
        }
    }
}
