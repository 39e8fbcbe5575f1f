//! A concurrent frequent-items (Misra–Gries) sketch — a fourth
//! instantiation of the generic framework.
//!
//! Algorithm 2 asks the global sketch to merge a local summary, and for
//! Misra–Gries that merge is the mergeable-summaries one (Agarwal et
//! al., PODS 2012): add the counters, then reduce once. So the local
//! sketch is a plain item buffer ([`ItemBuffer`], shared with the
//! Quantiles instantiation) and the global is the sequential
//! [`MisraGriesSketch`] itself: a merge sorts the buffer in place
//! (`u64` frames of 12 to 256 keys on an AVX-512 CPU by the
//! register-resident bitonic network of [`fcds_sketches::sort`], about
//! 3× `sort_unstable`), run-length counts it and merge-joins the runs with
//! the key-sorted counters in one pass into a buffer the sketch keeps,
//! and runs one reduction by the `(k+1)`-th largest counter
//! ([`MisraGriesSketch::merge_batch`]); nothing is allocated once those
//! buffers have grown. No item is hashed on the
//! propagation path, and the result depends only on the batches merged,
//! not on any hash order. There is no sound static pre-filter (any item
//! can grow a counter), so the hint is trivial — exactly the degenerate
//! case §5.1 permits.
//!
//! Snapshots are published as an immutable heavy-hitters table behind an
//! epoch pointer, like the Quantiles instantiation. A publication is a
//! copy of the sketch's sorted counter run (≤ k entries, nothing sorted
//! or hashed), and a snapshot's `estimate` is a binary search in it;
//! ordering the heavy hitters is the query's business
//! ([`FrequencySnapshot::heavy_hitters`]).

use crate::composable::{GlobalSketch, ItemBuffer};
use crate::config::ConcurrencyConfig;
use crate::engine::{EngineGlobal, Family, FrequencyFamily};
use crate::runtime::{ConcurrentSketch, SketchWriter};
use crate::sync::EpochCell;
use bytes::Bytes;
use fcds_sketches::error::Result;
use fcds_sketches::frequency::{FrequencyEstimate, MisraGriesSketch};
use fcds_sketches::wire::{SketchFamily, WireEncode};
use std::sync::Arc;

/// Immutable snapshot of the frequency summary.
#[derive(Debug, Clone)]
pub struct FrequencySnapshot<T> {
    /// `(item, counter)` pairs in strictly ascending item order.
    counters: Vec<(T, u64)>,
    /// Uniform error slack (see [`MisraGriesSketch::max_error`]).
    pub max_error: u64,
    /// Stream length reflected by this snapshot.
    pub n: u64,
    /// The counter budget per shard.
    k: usize,
}

impl<T: Ord + Clone> FrequencySnapshot<T> {
    /// A copy of `sketch`'s counters, slack and stream length.
    fn of(sketch: &MisraGriesSketch<T>) -> Self {
        FrequencySnapshot {
            counters: sketch
                .counters()
                .map(|(item, c)| (item.clone(), c))
                .collect(),
            max_error: sketch.max_error(),
            n: sketch.n(),
            k: sketch.k(),
        }
    }

    /// Frequency estimate for an item.
    pub fn estimate(&self, item: &T) -> FrequencyEstimate {
        let lower = self
            .counters
            .binary_search_by(|(held, _)| held.cmp(item))
            .map_or(0, |at| self.counters[at].1);
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
        let mut counters: Vec<(T, u64)> = Vec::new();
        let mut max_error = 0u64;
        let mut n = 0u64;
        let mut k = 0;
        for p in parts {
            counters.extend(p.counters.iter().cloned());
            max_error += p.max_error;
            n += p.n;
            k = p.k;
        }
        counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        counters.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        FrequencySnapshot {
            counters,
            max_error,
            n,
            k,
        }
    }

    /// Items possibly above `threshold`, sorted by decreasing lower
    /// bound (no false negatives among retained items).
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(T, FrequencyEstimate)> {
        let mut out: Vec<(T, FrequencyEstimate)> = self
            .counters
            .iter()
            .map(|(item, c)| {
                (
                    item.clone(),
                    FrequencyEstimate {
                        lower_bound: *c,
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

/// The global side is the sequential summary itself: a merge is its
/// batch merge, a publication a copy of its counter run.
impl<T: Ord + Clone + Send + Sync + 'static> GlobalSketch for MisraGriesSketch<T> {
    type Local = ItemBuffer<T>;
    type View = EpochCell<FrequencySnapshot<T>>;
    type Snapshot = Arc<FrequencySnapshot<T>>;

    fn new_local(&self) -> ItemBuffer<T> {
        ItemBuffer::default()
    }

    fn new_view(&self) -> Self::View {
        EpochCell::new(FrequencySnapshot::of(self))
    }

    fn merge(&mut self, local: &mut ItemBuffer<T>) {
        self.merge_batch(&mut local.items);
        local.items.clear();
    }

    fn update_direct(&mut self, item: T) {
        self.update(item);
    }

    fn publish(&self, view: &Self::View) {
        view.store(FrequencySnapshot::of(self));
    }

    fn snapshot(view: &Self::View) -> Arc<FrequencySnapshot<T>> {
        view.load()
    }

    fn merge_shard_views(views: &[&Self::View]) -> Arc<FrequencySnapshot<T>> {
        let parts: Vec<_> = views.iter().map(|v| v.load()).collect();
        Arc::new(FrequencySnapshot::merged(parts.iter().map(|a| a.as_ref())))
    }

    fn new_shard(&self) -> Self {
        MisraGriesSketch::new(self.k()).expect("shard parameters were already validated")
    }

    fn calc_hint(&self) {}

    fn stream_len(&self) -> u64 {
        self.n()
    }
}

impl<T: Ord + Clone + Send + Sync + 'static> Family for FrequencyFamily<T> {
    type Engine = ConcurrentFrequencySketch<T>;
    const DEFAULT_ACCURACY: usize = 64;

    fn build(accuracy: usize, _seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        ConcurrentSketch::start(MisraGriesSketch::new(accuracy)?, config)
    }
}

impl EngineGlobal for MisraGriesSketch<u64> {
    const FAMILY: SketchFamily = SketchFamily::Frequency;
    type Hashing = ();

    fn ingest(writer: &mut FrequencyWriter<u64>, items: &[u64]) {
        writer.update_batch(items);
    }

    fn estimate(_: &ConcurrentFrequencySketch<u64>) -> Option<f64> {
        None
    }

    /// The merged heavy-hitters state (see `fcds_sketches::wire`). The
    /// merged shard table can hold up to `K·k` counters; the export
    /// reduces it back to `k` (accruing the reduction slack into the
    /// image's error term), so every image is a valid `k`-counter
    /// summary whose bounds still bracket the true counts. On the
    /// fan-in side, `fcds_sketches::wire::mg_multiway_merge` accumulates
    /// the counters of many images with one final reduction.
    fn wire_image(engine: &ConcurrentFrequencySketch<u64>) -> Bytes {
        let snap = engine.snapshot();
        let mg = MisraGriesSketch::from_parts(
            snap.k,
            snap.n,
            snap.max_error,
            snap.counters.iter().cloned(),
        )
        .expect("snapshot counters satisfy the Misra-Gries invariants");
        mg.to_wire_bytes()
    }
}

/// Concurrent heavy-hitters sketch;
/// [`snapshot`](ConcurrentSketch::snapshot) is a wait-free snapshot of
/// the current heavy-hitters table.
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
pub type ConcurrentFrequencySketch<T> = ConcurrentSketch<MisraGriesSketch<T>>;

/// Per-thread writer for [`ConcurrentFrequencySketch`].
pub type FrequencyWriter<T> = SketchWriter<MisraGriesSketch<T>>;

impl<T: Ord + Clone + Send + Sync + 'static> ConcurrentFrequencySketch<T> {
    /// The maximum number of counters per shard.
    pub fn k(&self) -> usize {
        self.snapshot().k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composable::LocalSketch;
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
    fn one_hot_key_counts_exactly() {
        // All updates are the same key: each merged batch is one run, and
        // the key's counter must equal the stream length exactly.
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
    fn same_batches_give_the_same_image() {
        // Far more keys than counters, so every merge reduces: the image
        // must still be a function of the batches alone.
        use crate::engine::WireImage;
        let image = || {
            let sketch = EngineBuilder::<FrequencyFamily>::new()
                .accuracy(16)
                .writers(1)
                .max_concurrency_error(1.0)
                .backend(PropagationBackendKind::WriterAssisted)
                .build()
                .unwrap();
            let mut w = sketch.writer();
            let items: Vec<u64> = (0..20_000u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 5_000 / (1 + i % 7))
                .collect();
            for batch in items.chunks(256) {
                w.update_batch(batch);
            }
            w.flush().unwrap();
            sketch.quiesce();
            assert!(sketch.snapshot().max_error > 0, "no reduction ran");
            sketch.wire_image()
        };
        let first = image();
        for _ in 0..4 {
            assert_eq!(image(), first);
        }
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
            let mut g = MisraGriesSketch::<u64>::new(4).unwrap();
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
                GlobalSketch::merge(&mut g, &mut local);
                g.publish(&view);
                let snap = MisraGriesSketch::snapshot(&view);
                let counters: Vec<(u64, u64)> = g.counters().map(|(item, c)| (*item, c)).collect();
                proptest::prop_assert_eq!(&snap.counters, &counters);
                proptest::prop_assert_eq!(snap.max_error, g.max_error());
                proptest::prop_assert_eq!(snap.n, g.n());
                for (item, estimate) in snap.heavy_hitters(0) {
                    proptest::prop_assert_eq!(estimate, g.estimate(&item));
                }
                for absent in [12, 13] {
                    proptest::prop_assert_eq!(snap.estimate(&absent), g.estimate(&absent));
                }
            }
            proptest::prop_assert_eq!(g.n(), items.len() as u64);
        }
    }
}
