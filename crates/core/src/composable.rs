//! The composable-sketch interface of §5.1.
//!
//! The generic algorithm is built on top of an existing sequential sketch
//! extended with three APIs:
//!
//! * `snapshot()` — a queryable copy obtainable concurrently with merges;
//! * `calcHint()` — a non-zero value piggy-backed to update threads on the
//!   `prop_i` variable;
//! * `shouldAdd(hint, a)` — a *static* pre-filter discarding updates that
//!   cannot affect the sketch (e.g., Θ-filtering), evaluated on the update
//!   thread without touching shared state.
//!
//! In Rust we split the roles along the threads that own them:
//! [`LocalSketch`] is the thread-local buffer an update thread fills
//! (`localS_i`), and [`GlobalSketch`] is the shared composable sketch
//! (`globalS`) owned by the propagator, which publishes query snapshots
//! through an explicitly synchronised *view* so that `snapshot` and
//! `merge` may run concurrently with strong linearisability (the paper's
//! requirement on composable sketches).

use std::num::NonZeroU64;

/// Encodes a hint into the non-zero `u64` carried by the `prop_i` atomic
/// (Algorithm 2 reserves 0 for "propagation requested").
pub trait HintCodec: Copy + Send + 'static {
    /// Encodes the hint; must never produce 0.
    fn encode(self) -> NonZeroU64;
    /// Decodes a hint previously produced by [`HintCodec::encode`].
    fn decode(raw: NonZeroU64) -> Self;
}

/// The trivial hint for sketches without a useful pre-filter (`shouldAdd`
/// constantly true); the paper allows exactly this degenerate choice.
impl HintCodec for () {
    fn encode(self) -> NonZeroU64 {
        NonZeroU64::new(1).expect("1 is non-zero")
    }
    fn decode(_raw: NonZeroU64) -> Self {}
}

/// Θ-style hints: the hint is the global sketch's Θ, a non-zero value in
/// the 64-bit hash domain (`normalize_hash` guarantees hashes ≥ 1, so a
/// Θ of 0 can never arise).
impl HintCodec for u64 {
    fn encode(self) -> NonZeroU64 {
        NonZeroU64::new(self).expect("theta hint must be non-zero")
    }
    fn decode(raw: NonZeroU64) -> Self {
        raw.get()
    }
}

/// A thread-local sketch (`localS_i` of Algorithm 2): filled by exactly
/// one update thread, drained by the propagator.
pub trait LocalSketch: Send + 'static {
    /// The (pre-processed) stream item type. For Θ sketches this is the
    /// already-hashed `u64`, so hashing happens once, on the update
    /// thread.
    type Item: Send + 'static;

    /// The hint type shared with the global sketch.
    type Hint: HintCodec;

    /// Buffers one item (line 122).
    fn update(&mut self, item: Self::Item);

    /// Buffers a whole batch. Semantically identical to calling
    /// [`Self::update`] per item; sketches with dense buffer layouts
    /// override it with a bulk append (e.g. Θ's `extend_from_slice`) so
    /// the engine's batched ingestion path pays one reservation per
    /// chunk instead of one push per item.
    fn update_batch(&mut self, items: &[Self::Item])
    where
        Self::Item: Clone,
    {
        for item in items {
            self.update(item.clone());
        }
    }

    /// Buffers every item of `items` that passes `shouldAdd(hint, ·)`,
    /// returning how many were buffered. Semantically identical to the
    /// filter-then-[`Self::update`] loop the scalar path runs; a sketch
    /// whose `shouldAdd` is constantly true overrides it with its bulk
    /// append. (The hashing families' writers filter in their own fused
    /// hash-and-filter loop, `crate::hashed`, and never call this.)
    fn update_batch_filtered(&mut self, hint: Self::Hint, items: &[Self::Item]) -> usize
    where
        Self::Item: Clone,
    {
        let mut kept = 0;
        for item in items {
            if Self::should_add(hint, item) {
                self.update(item.clone());
                kept += 1;
            }
        }
        kept
    }

    /// The static pre-filter `shouldAdd(h, a)` (line 120): `false` means
    /// the item cannot affect the sketch given the hint and may be
    /// dropped before buffering. Must not depend on `self`'s state —
    /// the paper requires it to be a static function of `(hint, item)`.
    fn should_add(hint: Self::Hint, item: &Self::Item) -> bool;

    /// Empties the buffer (line 114; called by the propagator after a
    /// merge, and by the engine on abandoned shutdown).
    fn clear(&mut self);

    /// Number of buffered items.
    fn len(&self) -> usize;

    /// Whether the buffer is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The local sketch of the families with no pre-filter (Quantiles,
/// Misra–Gries): a plain buffer of items, `shouldAdd` constantly true
/// (the degenerate hint §5.1 allows). The global merges it as one batch,
/// sorting it in place, and clears it.
#[derive(Debug)]
pub struct ItemBuffer<T> {
    pub(crate) items: Vec<T>,
}

impl<T> Default for ItemBuffer<T> {
    fn default() -> Self {
        ItemBuffer { items: Vec::new() }
    }
}

impl<T: Clone + Send + 'static> LocalSketch for ItemBuffer<T> {
    type Item = T;
    type Hint = ();

    fn update(&mut self, item: T) {
        self.items.push(item);
    }

    fn update_batch(&mut self, items: &[T]) {
        self.items.extend_from_slice(items);
    }

    /// `shouldAdd` is constantly true, so the filtered batch path — the
    /// one the engine takes in the default (non-ablated) configuration —
    /// is the same bulk extend.
    fn update_batch_filtered(&mut self, _hint: (), items: &[T]) -> usize {
        self.items.extend_from_slice(items);
        items.len()
    }

    fn should_add(_: (), _: &T) -> bool {
        true
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// The shared composable sketch (`globalS` of Algorithm 2), owned by the
/// propagator thread in the lazy phase and briefly by update threads
/// (under the engine's mutex) during the eager phase of §5.3.
///
/// # Cost contract
///
/// [`merge`](Self::merge), [`publish`](Self::publish) (or
/// [`publish_sharded`](Self::publish_sharded)) and
/// [`calc_hint`](Self::calc_hint) run once per hand-off of `b` updates,
/// or once per inline slice of ≤ `INLINE_SLICE` (1 024) updates that a
/// writer-assisted writer merges itself, one after the other, on the
/// *serial* propagation path: every writer of the shard waits behind
/// them, and the paper's scalability argument (Algorithm 2, §7) is that
/// this step stays tiny. Together they must cost **O(items merged)
/// amortised, independent of the sketch's size** — no scan, sort, copy
/// or re-hash of the retained state. The eager phase calls
/// `update_direct` + `publish` per item under the same rule. Keep what a
/// publication needs current as the merge changes it (HLL's
/// register-value histogram, the Quantiles sorted base buffer, Θ's block
/// mirror), bound the rest by an accuracy parameter rather than by the
/// stream (the ≤ 2k-item base run, the ≤ k-counter table), and leave
/// anything O(sketch) to the query side, where it is paid per query and
/// can be memoised per publication — as `QuantilesReader::from_ladders`
/// and every `wire_image()` already are. `engine_gates` measures the step
/// for all four families at two sizes each and `bench_gate` fails CI
/// when a family's cost grows with its size.
pub trait GlobalSketch: Send + 'static {
    /// The matching local-sketch type.
    type Local: LocalSketch;

    /// Shared, concurrently readable state through which snapshots are
    /// published (e.g., an atomic `est`, a seqlock record, or an epoch
    /// pointer cell).
    type View: Send + Sync + 'static;

    /// The query result type produced from a view.
    type Snapshot: Send + 'static;

    /// Creates an empty local sketch for a newly registered update thread.
    fn new_local(&self) -> Self::Local;

    /// Creates the shared view, initialised to this sketch's current
    /// state.
    fn new_view(&self) -> Self::View;

    /// Merges (and clears) a local buffer into the global state
    /// (line 113–114). Once per hand-off or inline slice, on the serial
    /// path: O(items merged) amortised (see the trait's cost contract).
    fn merge(&mut self, local: &mut Self::Local);

    /// Directly ingests one item — the eager-propagation path of §5.3,
    /// where update threads bypass their local buffers while the stream
    /// is small.
    fn update_direct(&mut self, item: <Self::Local as LocalSketch>::Item);

    /// Publishes the current state into the view. The single atomic store
    /// inside is the linearisation point of the merge, mirroring the
    /// composable Θ sketch's write to `est`. Once per merge (and per
    /// eager update), on the serial path: it must not walk the sketch
    /// (see the trait's cost contract).
    fn publish(&self, view: &Self::View);

    /// Reads a consistent snapshot from the view; safe to call
    /// concurrently with `publish` (the composable-sketch requirement of
    /// §5.1).
    fn snapshot(view: &Self::View) -> Self::Snapshot;

    /// Computes the hint piggy-backed to update threads (line 115). Once
    /// per merge, on the serial path: read it off state the merge
    /// keeps current (see the trait's cost contract).
    fn calc_hint(&self) -> <Self::Local as LocalSketch>::Hint;

    /// Number of stream items this sketch has ingested (used by the
    /// adaptation logic of §5.3 to decide when to leave the eager phase).
    fn stream_len(&self) -> u64;

    // ------------------- sharding hooks -------------------
    //
    // The sharded engine splits the global sketch into K independent
    // instances and merges their published views at query time. The three
    // hooks below have K = 1 compatible defaults, so single-shard sketches
    // need not implement them; running with `shards > 1` requires all
    // three (the defaults panic with a description of what is missing).

    /// Creates an empty sketch configured like `self` to back one shard
    /// of a sharded engine (same accuracy parameters, same hash seed —
    /// shard merges require identical hashing).
    ///
    /// Required when `ConcurrencyConfig::shards > 1`; the default panics.
    fn new_shard(&self) -> Self
    where
        Self: Sized,
    {
        unimplemented!("GlobalSketch::new_shard is required for shards > 1")
    }

    /// Called once per shard (including shard 0) when the engine starts
    /// with `shards > 1`, before the first publication. Lets the sketch
    /// set up state it only needs for sharded publication — e.g. the Θ
    /// sketch's chunked copy-on-write hash mirror — so single-shard
    /// deployments pay nothing for it. Default: no-op.
    fn prepare_sharded(&mut self) {}

    /// Publishes the current state into the view *including* whatever
    /// mergeable image [`Self::merge_shard_views`] needs. Called instead
    /// of [`Self::publish`] whenever the engine runs more than one shard,
    /// so single-shard deployments never pay for the image.
    fn publish_sharded(&self, view: &Self::View) {
        self.publish(view);
    }

    /// Produces one engine-level query snapshot from the published views
    /// of all shards. Sketch mergeability (Θ unions, HLL register max,
    /// Quantiles sample union, counter addition) makes this lossless: the
    /// merged snapshot reflects the concatenation of the shard streams.
    ///
    /// Called with `views.len() >= 2` only when sharded; the default
    /// handles the single-view case by delegating to [`Self::snapshot`]
    /// and panics otherwise.
    fn merge_shard_views(views: &[&Self::View]) -> Self::Snapshot {
        assert_eq!(
            views.len(),
            1,
            "GlobalSketch::merge_shard_views is required for shards > 1"
        );
        Self::snapshot(views[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hint_round_trips() {
        let raw = ().encode();
        assert_eq!(raw.get(), 1);
        <() as HintCodec>::decode(raw);
    }

    #[test]
    fn u64_hint_round_trips() {
        for v in [1u64, 42, u64::MAX] {
            let raw = v.encode();
            assert_eq!(u64::decode(raw), v);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn u64_zero_hint_panics() {
        let _ = 0u64.encode();
    }
}
