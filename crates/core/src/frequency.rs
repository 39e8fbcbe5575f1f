//! A concurrent frequent-items (Misra–Gries) sketch — a fourth
//! instantiation of the generic framework.
//!
//! Misra–Gries merges by counter addition + reduction, so local buffers
//! can even pre-aggregate: the local sketch here is a small counting map
//! that collapses duplicate items before the hand-off, which both
//! shrinks the merge and demonstrates that "local sketch" need not mean
//! "plain buffer". There is no sound static pre-filter (any item can
//! grow a counter), so the hint is trivial — exactly the degenerate case
//! §5.1 permits.
//!
//! Snapshots are published as an immutable heavy-hitters table behind an
//! epoch pointer, like the Quantiles instantiation. A publication is a
//! straight clone of the sketch's counter table (≤ k + 1 buckets copied,
//! nothing sorted or re-hashed); ordering the heavy hitters is the
//! query's business ([`FrequencySnapshot::heavy_hitters`]).

use crate::composable::{GlobalSketch, LocalSketch};
use crate::config::ConcurrencyConfig;
use crate::engine::{Family, FrequencyFamily};
use crate::runtime::{ConcurrentSketch, FlushError, SketchWriter};
use crate::sync::EpochCell;
use fcds_sketches::error::Result;
use fcds_sketches::frequency::{FrequencyEstimate, MisraGriesSketch};
use fcds_sketches::wire::SketchFamily;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Immutable snapshot of the frequency summary.
#[derive(Debug, Clone)]
pub struct FrequencySnapshot<T: Eq + Hash + Clone> {
    counters: HashMap<T, u64>,
    /// Uniform error slack (see [`MisraGriesSketch::max_error`]).
    pub max_error: u64,
    /// Stream length reflected by this snapshot.
    pub n: u64,
}

impl<T: Eq + Hash + Clone> FrequencySnapshot<T> {
    /// Frequency estimate for an item.
    pub fn estimate(&self, item: &T) -> FrequencyEstimate {
        let lower = self.counters.get(item).copied().unwrap_or(0);
        FrequencyEstimate {
            lower_bound: lower,
            upper_bound: lower + self.max_error,
        }
    }

    /// Merges per-shard snapshots into one summary of the concatenated
    /// streams: counters add (an item's occurrences split across shards),
    /// and so do the error slacks — an estimate's true frequency lies in
    /// `[Σ lowerᵢ, Σ (lowerᵢ + errᵢ)]`. No counter is ever reduced away
    /// during the merge, so the combined table retains up to `K·k` keys.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self
    where
        T: 'a,
    {
        let mut counters: HashMap<T, u64> = HashMap::new();
        let mut max_error = 0u64;
        let mut n = 0u64;
        for p in parts {
            for (item, &c) in &p.counters {
                *counters.entry(item.clone()).or_insert(0) += c;
            }
            max_error += p.max_error;
            n += p.n;
        }
        FrequencySnapshot {
            counters,
            max_error,
            n,
        }
    }

    /// Items possibly above `threshold`, sorted by decreasing lower
    /// bound (no false negatives among retained items).
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(T, FrequencyEstimate)> {
        let mut out: Vec<(T, FrequencyEstimate)> = self
            .counters
            .iter()
            .map(|(item, &c)| {
                (
                    item.clone(),
                    FrequencyEstimate {
                        lower_bound: c,
                        upper_bound: c + self.max_error,
                    },
                )
            })
            .filter(|(_, e)| e.upper_bound > threshold)
            .collect();
        out.sort_by_key(|(_, e)| std::cmp::Reverse(e.lower_bound));
        out
    }
}

/// Global side: the sequential Misra–Gries summary.
pub struct FrequencyGlobal<T: Eq + Hash + Clone + Send + Sync + 'static> {
    sketch: MisraGriesSketch<T>,
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> std::fmt::Debug for FrequencyGlobal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrequencyGlobal")
            .field("n", &self.sketch.n())
            .finish()
    }
}

/// Local side: a pre-aggregating counter map.
#[derive(Debug)]
pub struct FrequencyLocal<T: Eq + Hash> {
    counts: HashMap<T, u64>,
    items: usize,
}

impl<T: Eq + Hash> Default for FrequencyLocal<T> {
    fn default() -> Self {
        FrequencyLocal {
            counts: HashMap::new(),
            items: 0,
        }
    }
}

impl<T: Eq + Hash + Clone + Send + 'static> LocalSketch for FrequencyLocal<T> {
    type Item = T;
    type Hint = ();

    fn update(&mut self, item: T) {
        *self.counts.entry(item).or_insert(0) += 1;
        self.items += 1;
    }

    fn should_add(_: (), _: &T) -> bool {
        true
    }

    fn clear(&mut self) {
        self.counts.clear();
        self.items = 0;
    }

    /// Counts *stream items* buffered (not distinct keys): the engine's
    /// `b` bound is on updates, matching the `r = 2Nb` analysis.
    fn len(&self) -> usize {
        self.items
    }
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> GlobalSketch for FrequencyGlobal<T> {
    type Local = FrequencyLocal<T>;
    type View = EpochCell<FrequencySnapshot<T>>;
    type Snapshot = Arc<FrequencySnapshot<T>>;

    fn new_local(&self) -> FrequencyLocal<T> {
        FrequencyLocal::default()
    }

    fn new_view(&self) -> Self::View {
        EpochCell::new(self.snapshot_now())
    }

    fn merge(&mut self, local: &mut FrequencyLocal<T>) {
        for (item, count) in local.counts.drain() {
            self.sketch.update_weighted(item, count);
        }
        local.items = 0;
    }

    fn update_direct(&mut self, item: T) {
        self.sketch.update(item);
    }

    fn publish(&self, view: &Self::View) {
        view.store(self.snapshot_now());
    }

    fn snapshot(view: &Self::View) -> Arc<FrequencySnapshot<T>> {
        view.load()
    }

    fn merge_shard_views(views: &[&Self::View]) -> Arc<FrequencySnapshot<T>> {
        let parts: Vec<_> = views.iter().map(|v| v.load()).collect();
        Arc::new(FrequencySnapshot::merged(parts.iter().map(|a| a.as_ref())))
    }

    fn new_shard(&self) -> Self {
        FrequencyGlobal::new(self.sketch.k()).expect("shard parameters were already validated")
    }

    fn calc_hint(&self) {}

    fn stream_len(&self) -> u64 {
        self.sketch.n()
    }
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> FrequencyGlobal<T> {
    /// Creates an empty global summary with at most `k` counters.
    ///
    /// # Errors
    ///
    /// Propagates [`MisraGriesSketch::new`]'s parameter validation.
    pub fn new(k: usize) -> Result<Self> {
        Ok(FrequencyGlobal {
            sketch: MisraGriesSketch::new(k)?,
        })
    }

    fn snapshot_now(&self) -> FrequencySnapshot<T> {
        FrequencySnapshot {
            counters: self.sketch.counter_table().clone(),
            max_error: self.sketch.max_error(),
            n: self.sketch.n(),
        }
    }
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> Family for FrequencyFamily<T> {
    type Engine = ConcurrentFrequencySketch<T>;
    const FAMILY: SketchFamily = SketchFamily::Frequency;
    const DEFAULT_ACCURACY: usize = 64;

    fn build(accuracy: usize, _seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let inner = ConcurrentSketch::start(FrequencyGlobal::new(accuracy)?, config)?;
        Ok(ConcurrentFrequencySketch { inner, k: accuracy })
    }
}

/// Concurrent heavy-hitters sketch.
///
/// # Examples
///
/// ```
/// use fcds_core::engine::{EngineBuilder, FrequencyFamily};
///
/// let sketch = EngineBuilder::<FrequencyFamily>::new()
///     .accuracy(32) // k counters
///     .writers(2)
///     .build()
///     .unwrap();
/// let mut w = sketch.writer();
/// for i in 0..10_000u64 {
///     w.update(if i % 4 == 0 { 7 } else { i });
/// }
/// w.flush().unwrap();
/// sketch.quiesce();
/// let snap = sketch.snapshot();
/// assert!(snap.estimate(&7).upper_bound >= 2_500);
/// ```
pub struct ConcurrentFrequencySketch<T: Eq + Hash + Clone + Send + Sync + 'static> {
    inner: ConcurrentSketch<FrequencyGlobal<T>>,
    k: usize,
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> std::fmt::Debug
    for ConcurrentFrequencySketch<T>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentFrequencySketch").finish()
    }
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> ConcurrentFrequencySketch<T> {
    /// Registers an update thread.
    pub fn writer(&self) -> FrequencyWriter<T> {
        FrequencyWriter {
            inner: self.inner.writer(),
        }
    }

    /// Wait-free snapshot of the current heavy-hitters table.
    pub fn snapshot(&self) -> Arc<FrequencySnapshot<T>> {
        self.inner.snapshot()
    }

    /// The maximum number of counters per shard.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The relaxation bound `r = 2Nb`.
    pub fn relaxation(&self) -> u64 {
        self.inner.relaxation()
    }

    /// Waits until all handed-off buffers have been merged and published.
    pub fn quiesce(&self) {
        self.inner.quiesce();
    }

    /// Engine diagnostics: merges performed, eager updates, hand-offs.
    pub fn stats(&self) -> crate::runtime::EngineStats {
        self.inner.stats()
    }
}

/// Serialises the merged heavy-hitters state into a unified wire
/// image (Misra–Gries family — see `fcds_sketches::wire`). The
/// merged shard table can hold up to `K·k` counters; the export
/// reduces it back to `k` (accruing the reduction slack into the
/// image's error term), so every image is a valid `k`-counter
/// summary whose bounds still bracket the true counts. On the
/// fan-in side, `fcds_sketches::wire::mg_multiway_merge` accumulates
/// the counters of many images with one final reduction.
impl<T> crate::engine::WireImage for ConcurrentFrequencySketch<T>
where
    T: Eq + Hash + Ord + Clone + Send + Sync + 'static + fcds_sketches::wire::WireItem,
{
    fn wire_image(&self) -> bytes::Bytes {
        use fcds_sketches::wire::WireEncode;
        let snap = self.snapshot();
        let mg = MisraGriesSketch::from_parts(
            self.k,
            snap.n,
            snap.max_error,
            snap.counters.iter().map(|(item, &c)| (item.clone(), c)),
        )
        .expect("snapshot counters satisfy the Misra-Gries invariants");
        mg.to_wire_bytes()
    }
}

/// Per-thread writer for [`ConcurrentFrequencySketch`].
pub struct FrequencyWriter<T: Eq + Hash + Clone + Send + Sync + 'static> {
    inner: SketchWriter<FrequencyGlobal<T>>,
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> std::fmt::Debug for FrequencyWriter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrequencyWriter").finish()
    }
}

impl<T: Eq + Hash + Clone + Send + Sync + 'static> FrequencyWriter<T> {
    /// Processes one stream item.
    #[inline]
    pub fn update(&mut self, item: T) {
        self.inner.update(item);
    }

    /// Processes a batch of stream items through the amortised fast path
    /// (a writer that wins its shard lock at a `b`-boundary merges the
    /// rest of the batch itself — see [`SketchWriter::update_batch`]);
    /// the pre-aggregating local map still collapses duplicates before
    /// each merge. Counts the same items as calling [`Self::update`] once
    /// per item.
    pub fn update_batch(&mut self, items: &[T]) {
        self.inner.update_batch(items);
    }

    /// Hands the partial local buffer to the propagator.
    ///
    /// # Errors
    ///
    /// See [`SketchWriter::flush`]: [`FlushError::PropagatorDead`] when
    /// the shard's propagation service died (buffered updates were
    /// discarded; the writer is latched dead), [`FlushError::ShuttingDown`]
    /// when the engine was dropped mid-flush.
    pub fn flush(&mut self) -> std::result::Result<(), FlushError> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropagationBackendKind;
    use crate::engine::EngineBuilder;

    #[test]
    fn heavy_hitter_survives_concurrency() {
        let sketch = EngineBuilder::<FrequencyFamily>::new()
            .accuracy(32)
            .writers(4)
            .build()
            .unwrap();
        let per = crate::test_support::scaled(50_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut w = sketch.writer();
                s.spawn(move || {
                    for i in 0..per {
                        // 25% of traffic is item 42; the rest is noise
                        // spread over a wide key space.
                        let item = if i % 4 == 0 { 42 } else { t * per + i };
                        w.update(item);
                    }
                    w.flush().unwrap();
                });
            }
        });
        sketch.quiesce();
        let snap = sketch.snapshot();
        assert_eq!(snap.n, 4 * per);
        let truth = 4 * per / 4;
        let est = snap.estimate(&42);
        assert!(est.lower_bound <= truth);
        assert!(
            est.upper_bound >= truth,
            "upper {} < {truth}",
            est.upper_bound
        );
        // It must be the top heavy hitter.
        let hh = snap.heavy_hitters(snap.n / 10);
        assert_eq!(hh.first().map(|(i, _)| *i), Some(42));
    }

    #[test]
    fn local_preaggregation_counts_duplicates() {
        // All updates are the same key: local buffers collapse them, and
        // the merged weight must equal the stream length exactly.
        let sketch = EngineBuilder::<FrequencyFamily<&'static str>>::new()
            .accuracy(8)
            .writers(2)
            .max_concurrency_error(1.0)
            .build()
            .unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let mut w = sketch.writer();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        w.update("hot");
                    }
                    w.flush().unwrap();
                });
            }
        });
        sketch.quiesce();
        let snap = sketch.snapshot();
        assert_eq!(snap.estimate(&"hot").lower_bound, 20_000);
        assert_eq!(snap.n, 20_000);
    }

    #[test]
    fn eager_phase_small_stream_exact() {
        let sketch = EngineBuilder::<FrequencyFamily>::new()
            .accuracy(16)
            .writers(1)
            .build()
            .unwrap();
        let mut w = sketch.writer();
        for i in 0..100u64 {
            w.update(i % 10);
        }
        // Eager: visible immediately and exact (10 keys < k counters).
        let snap = sketch.snapshot();
        assert_eq!(snap.n, 100);
        assert_eq!(snap.estimate(&3).lower_bound, 10);
        assert_eq!(snap.max_error, 0);
    }

    #[test]
    fn sharded_exact_counts_for_distinct_keys() {
        // Fewer hot keys than counters per shard ⇒ no reductions anywhere
        // and the merged table must be exact, for both backends.
        for backend in [
            PropagationBackendKind::DedicatedThread,
            PropagationBackendKind::WriterAssisted,
        ] {
            let sketch = EngineBuilder::<FrequencyFamily>::new()
                .accuracy(16)
                .writers(4)
                .shards(2)
                .max_concurrency_error(1.0)
                .backend(backend)
                .build()
                .unwrap();
            // Multiple of 8 so every key gets exactly per/8 occurrences.
            let per = crate::test_support::scaled(10_000) / 8 * 8;
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let mut w = sketch.writer();
                    s.spawn(move || {
                        for i in 0..per {
                            w.update(i % 8);
                        }
                        w.flush().unwrap();
                    });
                }
            });
            sketch.quiesce();
            let snap = sketch.snapshot();
            assert_eq!(snap.n, 4 * per, "{backend:?}");
            assert_eq!(snap.max_error, 0, "{backend:?}");
            assert_eq!(snap.estimate(&3).lower_bound, 4 * per / 8, "{backend:?}");
        }
    }

    #[test]
    fn string_keys_work() {
        let sketch = EngineBuilder::<FrequencyFamily<String>>::new()
            .accuracy(16)
            .writers(1)
            .build()
            .unwrap();
        let mut w = sketch.writer();
        for i in 0..1_000u64 {
            w.update(format!("key{}", i % 5));
        }
        w.flush().unwrap();
        sketch.quiesce();
        let snap = sketch.snapshot();
        assert_eq!(snap.estimate(&"key0".to_string()).lower_bound, 200);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A publication is the sketch's table, not a rebuild of it:
        /// after every merge (and every eager update) the snapshot's
        /// counters, error slack and `n` equal the sketch's — with more
        /// keys than counters, so reductions run in between.
        #[test]
        fn published_snapshot_equals_the_sketch(
            eager in 0usize..10,
            items in proptest::collection::vec(0u64..12, 20..300),
        ) {
            let mut g = FrequencyGlobal::<u64>::new(4).unwrap();
            let view = g.new_view();
            let mut local = g.new_local();
            let (head, tail) = items.split_at(eager);
            let steps = head.chunks(1).map(|c| (c, true)).chain(tail.chunks(16).map(|c| (c, false)));
            for (chunk, direct) in steps {
                for &item in chunk {
                    if direct {
                        g.update_direct(item);
                    } else {
                        local.update(item);
                    }
                }
                g.merge(&mut local);
                g.publish(&view);
                let snap = FrequencyGlobal::snapshot(&view);
                let counters: HashMap<u64, u64> =
                    g.sketch.counters().map(|(item, c)| (*item, c)).collect();
                proptest::prop_assert_eq!(&snap.counters, &counters);
                proptest::prop_assert_eq!(snap.max_error, g.sketch.max_error());
                proptest::prop_assert_eq!(snap.n, g.sketch.n());
                for (item, estimate) in snap.heavy_hitters(0) {
                    proptest::prop_assert_eq!(estimate, g.sketch.estimate(&item));
                }
            }
            proptest::prop_assert_eq!(g.sketch.n(), items.len() as u64);
        }
    }
}
