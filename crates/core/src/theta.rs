//! The concurrent Θ sketch — the instantiation the paper contributed to
//! Apache DataSketches and evaluates in §7.
//!
//! * The **global sketch** is a sequential quick-select Θ sketch (the
//!   `HeapQuickSelectSketch` family, §7.1) owned by the propagator.
//! * Its published **view** is the snapshot triple (estimate, Θ,
//!   retained) behind a single-writer seqlock — the paper's composable Θ
//!   sketch publishes the atomic `est`; we additionally expose Θ and the
//!   retained count (consistently) because the relaxation checker needs
//!   them. Queries never touch the global sketch itself.
//! * **Local sketches** are plain hash buffers: items are hashed once on
//!   the update thread, pre-filtered by the piggy-backed hint
//!   (`shouldAdd(Θ_g, a) ⇔ h(a) < Θ_g`, §5.1), and handed to the
//!   propagator in batches of `b`.
//!
//! The hint filter is what makes Figure 1's near-perfect scalability
//! possible: once Θ shrinks, almost all updates die on the update thread
//! without any synchronisation.

use crate::composable::{GlobalSketch, LocalSketch};
use crate::config::ConcurrencyConfig;
use crate::engine::{EngineGlobal, Family, ThetaFamily};
use crate::hashed::{Hashed, HashedLocal};
use crate::runtime::{ConcurrentSketch, SketchWriter};
use crate::sync::{EpochCell, SeqSnapshot};
use bytes::Bytes;
use fcds_sketches::error::{Result, SketchError};
use fcds_sketches::theta::{
    normalize_hash, theta_to_fraction, untrimmed_union, untrimmed_union_unsorted, BlockSnapshot,
    CompactThetaSketch, HashBlocks, QuickSelectThetaSketch, ThetaRead,
};
use fcds_sketches::wire::{SketchFamily, WireEncode};

/// A consistent query snapshot of the concurrent Θ sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaSnapshot {
    /// The distinct-count estimate (`est`).
    pub estimate: f64,
    /// The threshold Θ at the time of the snapshot (integer hash domain).
    pub theta: u64,
    /// Number of retained samples.
    pub retained: u64,
}

impl ThetaSnapshot {
    /// Θ as a fraction of the hash domain (the paper's real-valued Θ).
    pub fn theta_fraction(&self) -> f64 {
        theta_to_fraction(self.theta)
    }
}

/// The global side of the concurrent Θ sketch (the composable sketch of
/// §5.1 with `snapshot`/`calcHint`/`shouldAdd`).
#[derive(Debug)]
pub struct ThetaGlobal {
    sketch: QuickSelectThetaSketch,
    /// Distinct hashes accepted so far; drives the §5.3 adaptation.
    ingested: u64,
    /// Chunked copy-on-write mirror of the retained set, maintained only
    /// once [`GlobalSketch::prepare_sharded`] enabled it (i.e. on sharded
    /// engines). `None` on single-shard deployments, which therefore pay
    /// nothing for image publication — neither maintenance nor memory.
    blocks: Option<HashBlocks>,
}

impl ThetaGlobal {
    /// Wraps an empty quick-select sketch.
    pub fn new(lg_k: u8, seed: u64) -> Result<Self> {
        Ok(ThetaGlobal {
            sketch: QuickSelectThetaSketch::new(lg_k, seed)?,
            ingested: 0,
            blocks: None,
        })
    }

    fn image_now(&self) -> ThetaShardImage {
        let blocks = match &self.blocks {
            // Steady state: O(1) — two `Arc` clones of blocks the merge
            // path already maintained incrementally.
            Some(b) => b.snapshot(),
            // Fallback for publish_sharded without prepare_sharded
            // (custom embeddings): the pre-block O(retained) collect.
            None => {
                let mut b = HashBlocks::new();
                b.rebuild(self.sketch.hashes());
                b.snapshot()
            }
        };
        ThetaShardImage {
            theta: self.sketch.theta(),
            seed: self.sketch.seed(),
            blocks,
        }
    }

    fn snapshot_now(&self) -> ThetaSnapshot {
        ThetaSnapshot {
            estimate: self.sketch.estimate(),
            theta: self.sketch.theta(),
            retained: self.sketch.retained() as u64,
        }
    }

    /// Folds a newly *retained* hash into the block mirror, rebuilding it
    /// wholesale when Θ moved (the sketch evicted samples). The rebuild is
    /// O(retained) but the quick-select sketch only drops Θ once per
    /// ~0.875k accepted hashes, so the mirror stays O(1) amortised per
    /// accepted update.
    #[inline]
    fn mirror_retained(&mut self, hash: u64, theta_before: u64) {
        if let Some(blocks) = self.blocks.as_mut() {
            if self.sketch.theta() < theta_before {
                blocks.rebuild(self.sketch.hashes());
            } else {
                blocks.push(hash);
            }
        }
    }
}

/// An unsorted point-in-time image of one Θ shard: the threshold plus the
/// retained hashes, in whatever order they were accepted, chunked into
/// copy-on-write blocks ([`fcds_sketches::theta::blocks`]).
///
/// Publishing happens on the propagation path once per merge, so the
/// image is built to be O(1) to take: the blocks are shared with the
/// propagator's mirror, no hash is copied and no sort runs — queries are
/// the rare side, and the shard merge sorts the union once.
#[derive(Debug, Clone)]
pub struct ThetaShardImage {
    theta: u64,
    seed: u64,
    blocks: BlockSnapshot,
}

impl ThetaRead for ThetaShardImage {
    fn theta(&self) -> u64 {
        self.theta
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn retained(&self) -> usize {
        self.blocks.len() as usize
    }

    fn hashes(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        Box::new(self.blocks.iter())
    }
}

/// The published view of one Θ shard.
///
/// The seqlock triple serves single-shard fast-path queries exactly as
/// before; the shard image is only written by
/// [`GlobalSketch::publish_sharded`] — i.e., when the engine actually
/// runs `K > 1` shards — and is what the query-time shard union
/// consumes. Single-shard deployments never touch the image (it starts
/// empty and lazy), and sharded publication shares the propagator's
/// copy-on-write block mirror, so no publication copies the retained
/// set.
#[derive(Debug)]
pub struct ThetaView {
    triple: SeqSnapshot<ThetaSnapshot>,
    image: EpochCell<ThetaShardImage>,
}

/// The local side: a buffer of pre-hashed, pre-filtered updates.
#[derive(Debug, Default)]
pub struct ThetaLocal {
    hashes: Vec<u64>,
}

impl LocalSketch for ThetaLocal {
    /// Items are already-normalised 64-bit hashes: hashing happens once,
    /// on the update thread.
    type Item = u64;
    /// The hint is the global sketch's Θ (Algorithm 1's `calcHint`).
    type Hint = u64;

    fn update(&mut self, hash: u64) {
        self.hashes.push(hash);
    }

    fn update_batch(&mut self, hashes: &[u64]) {
        self.hashes.extend_from_slice(hashes);
    }

    /// `shouldAdd(H, a) ⇔ h(a) < H` (Algorithm 1 line 26). Safe because Θ
    /// is monotonically decreasing: a hash at or above the current Θ can
    /// never enter the sample set.
    fn should_add(hint: u64, hash: &u64) -> bool {
        *hash < hint
    }

    fn clear(&mut self) {
        self.hashes.clear();
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }
}

/// Θ's writers buffer normalised hashes, and `shouldAdd` is a threshold
/// on the key itself.
impl HashedLocal for ThetaLocal {
    fn key(hash: u64) -> u64 {
        normalize_hash(hash)
    }

    fn score(_hint: u64, key: u64) -> u64 {
        key
    }

    fn passes(hint: u64, score: u64) -> bool {
        score < hint
    }
}

impl GlobalSketch for ThetaGlobal {
    type Local = ThetaLocal;
    type View = ThetaView;
    type Snapshot = ThetaSnapshot;

    fn new_local(&self) -> ThetaLocal {
        ThetaLocal::default()
    }

    fn new_view(&self) -> Self::View {
        // The image starts *empty* (not a materialised copy of the
        // retained set): single-shard deployments never publish or read
        // it, and the sharded engine publishes a real image before the
        // view becomes reachable, so eagerly collecting O(retained)
        // hashes here would be pure waste.
        ThetaView {
            triple: SeqSnapshot::new(self.snapshot_now()),
            image: EpochCell::new(ThetaShardImage {
                theta: self.sketch.theta(),
                seed: self.sketch.seed(),
                blocks: BlockSnapshot::empty(),
            }),
        }
    }

    fn merge(&mut self, local: &mut ThetaLocal) {
        if self.blocks.is_none() {
            // No mirror to maintain (single-shard deployments): fold the
            // whole buffer through the batched quick-select path, which
            // is state-identical to the scalar loop but hoists Θ and the
            // rebuild check out of it.
            self.ingested += self.sketch.update_hashes(&local.hashes);
            local.hashes.clear();
            return;
        }
        for h in local.hashes.drain(..) {
            let theta_before = self.sketch.theta();
            if self.sketch.update_hash(h) {
                self.ingested += 1;
                self.mirror_retained(h, theta_before);
            }
        }
    }

    fn update_direct(&mut self, hash: u64) {
        let theta_before = self.sketch.theta();
        if self.sketch.update_hash(hash) {
            self.ingested += 1;
            self.mirror_retained(hash, theta_before);
        }
    }

    fn publish(&self, view: &Self::View) {
        view.triple.write(self.snapshot_now());
    }

    fn publish_sharded(&self, view: &Self::View) {
        view.triple.write(self.snapshot_now());
        view.image.store(self.image_now());
    }

    fn snapshot(view: &Self::View) -> ThetaSnapshot {
        view.triple.read()
    }

    fn merge_shard_views(views: &[&Self::View]) -> ThetaSnapshot {
        // The block-aware untrimmed union of the shard images (the
        // reference implementation lives in `fcds_relaxation::sharded`):
        // joint Θ = min Θᵢ, retained = every distinct hash below it.
        // Sorting happens here, once per query, not on the propagation
        // path.
        let images: Vec<_> = views.iter().map(|v| v.image.load()).collect();
        let union = untrimmed_union_unsorted(images.iter().map(|i| i.as_ref()))
            .expect("shard images share one hash seed");
        ThetaSnapshot {
            estimate: union.estimate(),
            theta: union.theta(),
            retained: union.retained() as u64,
        }
    }

    fn new_shard(&self) -> Self {
        ThetaGlobal::new(self.sketch.lg_k(), self.sketch.seed())
            .expect("shard parameters were already validated")
    }

    fn prepare_sharded(&mut self) {
        let mut blocks = HashBlocks::new();
        blocks.rebuild(self.sketch.hashes());
        self.blocks = Some(blocks);
    }

    fn calc_hint(&self) -> u64 {
        self.sketch.theta()
    }

    fn stream_len(&self) -> u64 {
        self.ingested
    }
}

impl Family for ThetaFamily {
    type Engine = ConcurrentThetaSketch;
    const DEFAULT_ACCURACY: usize = 12;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let lg_k = u8::try_from(accuracy)
            .map_err(|_| SketchError::invalid("lg_k", format!("out of range: {accuracy}")))?;
        ConcurrentSketch::launch(ThetaGlobal::new(lg_k, seed)?, config, Hashed(seed))
    }
}

impl EngineGlobal for ThetaGlobal {
    const FAMILY: SketchFamily = SketchFamily::Theta;
    type Hashing = Hashed;

    fn ingest(writer: &mut ThetaWriter, items: &[u64]) {
        writer.update_batch(items);
    }

    fn estimate(engine: &ConcurrentThetaSketch) -> Option<f64> {
        Some(engine.estimate())
    }

    /// The merged global state in the canonical sorted form (see
    /// `fcds_sketches::wire`): the per-node export of the "sketch
    /// anywhere, merge anywhere" tier. A central node fans these in with
    /// `fcds_sketches::wire::merge_wire_images` (untrimmed union) without
    /// ever having seen the streams; a coordinator merging every query
    /// tick should hold a `fcds_sketches::wire::MergeScratch` and call
    /// `theta_multiway_union_into` for an allocation-free k-way union
    /// straight off the raw images.
    fn wire_image(engine: &ConcurrentThetaSketch) -> Bytes {
        engine.compact().to_wire_bytes()
    }
}

/// The concurrent Θ sketch (the paper's headline artefact).
///
/// Queries (`estimate`, [`snapshot`](ConcurrentSketch::snapshot)) may
/// be issued from any thread at any time and satisfy the r-relaxed
/// consistency of Theorem 1 with `r = 2Nb`. One [`ThetaWriter`] per
/// update thread ingests the stream.
pub type ConcurrentThetaSketch = ConcurrentSketch<ThetaGlobal, Hashed>;

/// Per-thread writer for [`ConcurrentThetaSketch`]: hashes each item
/// once and pre-filters it against Θ (`update`, `update_batch`; see
/// [`crate::hashed`]), or takes pre-hashed items (`update_hash`).
pub type ThetaWriter = SketchWriter<ThetaGlobal, Hashed>;

impl ConcurrentThetaSketch {
    /// The current distinct-count estimate (reads one atomic snapshot;
    /// never blocks ingestion).
    pub fn estimate(&self) -> f64 {
        self.snapshot().estimate
    }

    /// Nominal sample size `k`.
    pub fn k(&self) -> usize {
        self.with_globals(|g| g.sketch.k())[0]
    }

    /// Freezes the current global state into an immutable compact sketch
    /// (for set operations or serialisation). With `K > 1` shards this is
    /// the untrimmed union of the shard images. Takes the shard locks in
    /// turn, each only to copy Θ, the seed and the retained hashes; the
    /// sort runs after the lock is released.
    pub fn compact(&self) -> CompactThetaSketch {
        let copies = self.with_globals(|g| {
            let s = &g.sketch;
            (s.theta(), s.seed(), s.hashes().collect::<Vec<_>>())
        });
        let mut parts: Vec<CompactThetaSketch> = copies
            .into_iter()
            .map(|(theta, seed, hashes)| {
                CompactThetaSketch::from_parts(theta, seed, hashes)
                    .expect("retained hashes are non-zero and below Θ")
            })
            .collect();
        if parts.len() == 1 {
            return parts.pop().expect("at least one shard");
        }
        untrimmed_union(parts.iter()).expect("shards share one hash seed")
    }

    /// The configured error bound `max{e + 1/√k, 2/√k}` (§7.1).
    pub fn error_bound(&self) -> f64 {
        self.config().error_bound(self.k())
    }
}

impl ThetaWriter {
    /// Processes a pre-hashed item (must be normalised, i.e. non-zero).
    #[inline]
    pub fn update_hash(&mut self, hash: u64) {
        debug_assert_ne!(hash, 0);
        self.put(hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropagationBackendKind;
    use crate::engine::EngineBuilder;
    use crate::test_support::scaled;
    use fcds_sketches::hash::Hashable;
    use fcds_sketches::theta::{rse, THETA_MAX};

    fn build(lg_k: u8, writers: usize, e: f64) -> ConcurrentThetaSketch {
        EngineBuilder::<ThetaFamily>::new()
            .accuracy(usize::from(lg_k))
            .seed(42)
            .writers(writers)
            .max_concurrency_error(e)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = build(12, 1, 0.04);
        assert_eq!(s.estimate(), 0.0);
        let snap = s.snapshot();
        assert_eq!(snap.theta, THETA_MAX);
        assert_eq!(snap.retained, 0);
    }

    #[test]
    fn dispatched_filter_kernel_equals_the_baseline_copy() {
        // Raw hashes on each side of the hint, and the domain's ends.
        let mut rng = crate::hashed::tests::item_rng();
        for theta in [1, 2, u64::MAX / 2, u64::MAX] {
            let edges = [0, 1, 2, theta - 1, theta, theta.saturating_add(1), u64::MAX];
            crate::hashed::tests::every_length::<ThetaLocal>(&mut rng, theta, &edges, |h| {
                Some(normalize_hash(h)).filter(|&k| k < theta)
            });
        }
    }

    #[test]
    fn tiny_stream_with_eager_is_exact() {
        // Below the eager limit (1250) the sketch processes sequentially:
        // zero relaxation error, exact answers in exact mode (§5.3).
        let s = build(12, 2, 0.04);
        let mut w = s.writer();
        for i in 0..1_000u64 {
            w.update(i);
        }
        assert_eq!(s.estimate(), 1_000.0, "eager phase must be exact");
        assert!(s.is_eager());
    }

    #[test]
    fn single_writer_large_stream_accuracy() {
        let s = build(12, 1, 0.04);
        let n = scaled(500_000);
        let mut w = s.writer();
        for i in 0..n {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let rel = (s.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 5.0 * rse(4096), "relative error {rel}");
    }

    #[test]
    fn multi_writer_disjoint_streams_accuracy() {
        let s = build(12, 4, 0.04);
        let n_per = scaled(250_000);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n_per {
                        w.update(t * n_per + i);
                    }
                });
            }
        });
        s.quiesce();
        let n = 4.0 * n_per as f64;
        let rel = (s.estimate() - n).abs() / n;
        assert!(rel < 5.0 * rse(4096), "relative error {rel}");
    }

    #[test]
    fn multi_writer_overlapping_streams_count_once() {
        let s = build(11, 4, 0.04);
        let n = scaled(200_000);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n {
                        w.update(i); // all writers feed the same items
                    }
                });
            }
        });
        s.quiesce();
        let rel = (s.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 5.0 * rse(2048) + 0.01, "relative error {rel}");
    }

    #[test]
    fn queries_never_block_and_are_monotonicish() {
        // Distinct stream: the estimate should (weakly) grow; transient
        // non-monotonicity within the estimator noise is allowed, so we
        // only check it never collapses.
        let s = build(12, 2, 0.04);
        let n = scaled(300_000);
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n {
                        w.update(t * n + i);
                    }
                });
            }
            let mut peak: f64 = 0.0;
            for _ in 0..5_000 {
                let est = s.estimate();
                assert!(est >= 0.0);
                peak = peak.max(est);
                assert!(
                    est >= peak * 0.5,
                    "estimate collapsed: {est} vs peak {peak}"
                );
            }
        });
    }

    #[test]
    fn relaxation_staleness_bound_after_flush() {
        // After all writers flush and the engine quiesces, the snapshot
        // must reflect *every* update (staleness 0 at quiescence).
        let s = build(10, 3, 1.0); // no eager: pure relaxed mode
        let n_per = scaled(50_000);
        std::thread::scope(|sc| {
            for t in 0..3u64 {
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
        let n = 3.0 * n_per as f64;
        let rel = (s.estimate() - n).abs() / n;
        assert!(rel < 5.0 * rse(1024), "relative error {rel}");
    }

    #[test]
    fn compact_matches_snapshot() {
        let s = build(10, 1, 0.04);
        let mut w = s.writer();
        for i in 0..100_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        s.quiesce();
        let snap = s.snapshot();
        let compact = s.compact();
        assert_eq!(compact.theta(), snap.theta);
        assert_eq!(compact.retained() as u64, snap.retained);
    }

    #[test]
    fn compact_sketches_from_writers_union_correctly() {
        use fcds_sketches::theta::ThetaUnion;
        let s1 = build(10, 1, 0.04);
        let s2 = build(10, 1, 0.04);
        let n = scaled(80_000);
        {
            let mut w1 = s1.writer();
            let mut w2 = s2.writer();
            for i in 0..n {
                w1.update(i);
                w2.update(i + n / 2);
            }
        }
        s1.quiesce();
        s2.quiesce();
        let mut u = ThetaUnion::new(10, 42).unwrap();
        u.update(&s1.compact()).unwrap();
        u.update(&s2.compact()).unwrap();
        let est = u.result().estimate();
        let truth = 1.5 * n as f64;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.1, "union relative error {rel}");
    }

    #[test]
    fn unoptimised_parsketch_variant_works() {
        let s = EngineBuilder::<ThetaFamily>::new()
            .accuracy(10)
            .seed(7)
            .writers(2)
            .max_concurrency_error(1.0)
            .double_buffering(false)
            .build()
            .unwrap();
        assert_eq!(s.relaxation(), 2 * s.config().buffer_size());
        let n = scaled(100_000);
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n {
                        w.update(t * n + i);
                    }
                    w.flush().unwrap();
                });
            }
        });
        s.quiesce();
        let truth = 2.0 * n as f64;
        let rel = (s.estimate() - truth).abs() / truth;
        assert!(rel < 5.0 * rse(1024), "relative error {rel}");
    }

    #[test]
    fn hint_filter_reduces_buffered_traffic() {
        // Once Θ is small, almost every update dies at shouldAdd: the
        // writer's buffered count must stay far below the stream length.
        let s = build(8, 1, 1.0);
        let n = scaled(1_000_000);
        let mut w = s.writer();
        for i in 0..n {
            w.update(i);
        }
        // Θ after n distinct with k=256 is ≈ 256/n; the local buffer
        // can only ever hold b items, so just assert the writer made
        // progress without error and the estimate is sane.
        w.flush().unwrap();
        s.quiesce();
        let rel = (s.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 5.0 * rse(256), "relative error {rel}");
    }

    #[test]
    fn error_bound_accessor() {
        let s = build(12, 1, 0.04);
        let expected = (0.04 + 1.0 / 64.0f64).max(2.0 / 64.0);
        assert!((s.error_bound() - expected).abs() < 1e-12);
    }

    #[test]
    fn stats_expose_filter_and_merge_activity() {
        // Large distinct stream with small k: Θ collapses quickly, so the
        // overwhelming majority of updates must die at shouldAdd, and the
        // hand-off/merge counters must stay tiny relative to the stream.
        let s = build(6, 1, 1.0); // k = 64
        let n = scaled(500_000);
        let mut w = s.writer();
        for i in 0..n {
            w.update(i);
        }
        let filtered = w.filtered();
        w.flush().unwrap();
        s.quiesce();
        let stats = s.stats();
        assert!(
            filtered > n * 9 / 10,
            "expected >90% filtered, got {filtered}/{n}"
        );
        // The engine-level aggregate must expose the filter's work on a
        // live engine: nonzero once Θ saturates, never ahead of the
        // per-writer count it aggregates.
        assert!(
            stats.filtered_updates > n / 2,
            "filtered_updates = {} not tracking the saturated filter",
            stats.filtered_updates
        );
        assert!(stats.filtered_updates <= filtered);
        assert!(stats.merges >= 1);
        assert!(stats.handoffs >= 1);
        assert!(
            stats.handoffs < n / 100,
            "hand-offs {} not amortised",
            stats.handoffs
        );
        assert_eq!(stats.eager_updates, 0, "e = 1.0 must skip the eager phase");
        drop(w);
        assert_eq!(
            s.stats().filtered_updates,
            filtered,
            "retire must publish the final filtered count"
        );

        // And with the filter ablated, nothing is filtered.
        let s2 = EngineBuilder::<ThetaFamily>::new()
            .accuracy(6)
            .seed(1)
            .writers(1)
            .max_concurrency_error(1.0)
            .disable_prefilter(true)
            .build()
            .unwrap();
        let mut w2 = s2.writer();
        for i in 0..10_000u64 {
            w2.update(i);
        }
        assert_eq!(w2.filtered(), 0);
    }

    #[test]
    fn snapshot_estimate_matches_global_after_quiesce() {
        let s = build(10, 2, 0.04);
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..60_000u64 {
                        w.update(t * 60_000 + i);
                    }
                    w.flush().unwrap();
                });
            }
        });
        s.quiesce();
        let snap = s.snapshot();
        let global_est = s.with_globals(|g| g.sketch.estimate());
        assert_eq!(global_est.len(), 1);
        assert_eq!(snap.estimate, global_est[0]);
    }

    fn build_sharded(
        lg_k: u8,
        writers: usize,
        shards: usize,
        e: f64,
        backend: PropagationBackendKind,
    ) -> ConcurrentThetaSketch {
        EngineBuilder::<ThetaFamily>::new()
            .accuracy(usize::from(lg_k))
            .seed(42)
            .writers(writers)
            .shards(shards)
            .max_concurrency_error(e)
            .backend(backend)
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_disjoint_streams_accuracy() {
        for backend in [
            PropagationBackendKind::DedicatedThread,
            PropagationBackendKind::WriterAssisted,
        ] {
            let s = build_sharded(12, 4, 4, 1.0, backend);
            let n_per = scaled(100_000);
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
            let n = 4.0 * n_per as f64;
            let rel = (s.estimate() - n).abs() / n;
            // Each shard has k = 4096 samples of its sub-stream; the
            // merged union retains up to 4k samples, so the estimator is
            // at least as tight as a single k = 4096 sketch.
            assert!(rel < 5.0 * rse(4096), "{backend:?}: relative error {rel}");
        }
    }

    #[test]
    fn sharded_overlapping_streams_count_once() {
        // The same items through different writers land in different
        // shards; the query-time union must dedupe across shards.
        let s = build_sharded(11, 2, 2, 1.0, PropagationBackendKind::DedicatedThread);
        let n = scaled(100_000);
        std::thread::scope(|sc| {
            for _ in 0..2 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in 0..n {
                        w.update(i);
                    }
                    w.flush().unwrap();
                });
            }
        });
        s.quiesce();
        let rel = (s.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 5.0 * rse(2048), "relative error {rel}");
    }

    #[test]
    fn sharded_eager_tiny_stream_is_exact() {
        let s = build_sharded(12, 2, 2, 0.04, PropagationBackendKind::DedicatedThread);
        let mut w0 = s.writer();
        let mut w1 = s.writer();
        for i in 0..500u64 {
            w0.update(i);
            w1.update(i + 500);
        }
        assert!(s.is_eager());
        assert_eq!(s.estimate(), 1_000.0, "sharded eager phase must be exact");
    }

    #[test]
    fn new_view_starts_with_an_empty_lazy_image() {
        // Satellite: single-shard deployments must not materialise an
        // O(retained) image they never read.
        let mut g = ThetaGlobal::new(8, 42).unwrap();
        for i in 0..50_000u64 {
            g.update_direct(normalize_hash(i.hash_with_seed(42)));
        }
        let view = g.new_view();
        let image = view.image.load();
        assert_eq!(image.retained(), 0, "initial image must be empty");
        assert!(
            g.blocks.is_none(),
            "mirror must stay off until prepare_sharded"
        );
        // The triple is fully initialised regardless.
        assert_eq!(
            ThetaGlobal::snapshot(&view).retained,
            g.sketch.retained() as u64
        );
    }

    #[test]
    fn block_mirror_tracks_the_retained_set_across_rebuilds() {
        // Push enough distinct hashes through a small sketch that Θ drops
        // many times; the mirror must equal the sketch's retained set at
        // every publication point.
        let mut g = ThetaGlobal::new(6, 7).unwrap(); // k = 64
        g.prepare_sharded();
        let mut local = g.new_local();
        for chunk in 0..200u64 {
            for i in 0..100u64 {
                local.update(normalize_hash((chunk * 100 + i).hash_with_seed(7)));
            }
            g.merge(&mut local);
            let image = g.image_now();
            let mut mirror: Vec<u64> = image.hashes().collect();
            mirror.sort_unstable();
            let mut real: Vec<u64> = g.sketch.hashes().collect();
            real.sort_unstable();
            assert_eq!(mirror, real, "mirror diverged after chunk {chunk}");
            assert_eq!(image.theta(), g.sketch.theta());
        }
    }

    #[test]
    fn publish_sharded_without_prepare_falls_back_to_a_full_copy() {
        let mut g = ThetaGlobal::new(6, 7).unwrap();
        for i in 0..20_000u64 {
            g.update_direct(normalize_hash(i.hash_with_seed(7)));
        }
        let view = g.new_view();
        g.publish_sharded(&view);
        let image = view.image.load();
        assert_eq!(image.retained(), g.sketch.retained());
        assert_eq!(image.theta(), g.sketch.theta());
    }

    #[test]
    fn sharded_compact_agrees_with_merged_snapshot() {
        let s = build_sharded(10, 4, 2, 1.0, PropagationBackendKind::DedicatedThread);
        let n_per = scaled(50_000);
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
        let snap = s.snapshot();
        let compact = s.compact();
        assert_eq!(compact.theta(), snap.theta);
        assert_eq!(compact.retained() as u64, snap.retained);
        assert_eq!(compact.estimate(), snap.estimate);
    }
}
