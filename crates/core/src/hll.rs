//! A concurrent HLL sketch — a third instantiation demonstrating the
//! framework's genericity (§8 names "other sketches" as future work, and
//! the artifact appendix exercises HLL).
//!
//! HLL composes naturally: merging is register-wise max (commutative and
//! idempotent), and there is a genuinely useful pre-filtering hint in the
//! spirit of §5.1: if every register is at least `m₀`, then an update
//! whose rank `ρ(h)` is at most `m₀` cannot change any register and can
//! be dropped on the update thread. Registers only grow, so — like Θ —
//! the hint is conservative and never filters an update that could still
//! matter. The fraction of surviving updates is ~2^(−m₀), which shrinks
//! as the stream grows, exactly like the Θ filter.
//!
//! Propagation never rescans the registers: the sequential sketch keeps
//! their value histogram current as registers grow, and both things a
//! hand-off publishes are read off it — the view's atomic estimate
//! (Σ `counts[v]`·2^(−v) over ≤ 66 terms, the same function every other
//! HLL estimate in the workspace ends in) and the hint's floor `m₀` (the
//! first non-empty histogram slot). `merge` + `publish` + `calc_hint` is
//! therefore O(b) whatever `lg_m` is, in the eager phase too.

use crate::composable::{GlobalSketch, HintCodec, LocalSketch};
use crate::config::ConcurrencyConfig;
use crate::engine::{EngineGlobal, Family, HllFamily};
use crate::hashed::{Hashed, HashedLocal};
use crate::runtime::{ConcurrentSketch, SketchWriter};
use crate::sync::{AtomicF64, EpochCell};
use bytes::Bytes;
use fcds_sketches::error::{Result, SketchError};
use fcds_sketches::hll::HllSketch;
use fcds_sketches::wire::{SketchFamily, WireEncode};
use std::num::NonZeroU64;

/// The HLL hint: the number of registers' common floor `m₀` plus the
/// sketch's `lg_m` (needed to compute ρ on the update thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HllHint {
    /// `lg_m` of the global sketch.
    pub lg_m: u8,
    /// Minimum register value: updates with `ρ(h) ≤ floor` are dropped.
    pub floor: u8,
}

impl HintCodec for HllHint {
    fn encode(self) -> NonZeroU64 {
        // lg_m ≥ 4 keeps the encoding non-zero even when floor = 0.
        NonZeroU64::new(((self.lg_m as u64) << 8) | self.floor as u64)
            .expect("lg_m ≥ 4 makes the hint non-zero")
    }
    fn decode(raw: NonZeroU64) -> Self {
        HllHint {
            lg_m: (raw.get() >> 8) as u8,
            floor: (raw.get() & 0xFF) as u8,
        }
    }
}

/// The rank `ρ` of a hash for a sketch with `lg_m` index bits: one plus
/// the number of leading zeros after the index bits.
#[inline]
pub fn rho(hash: u64, lg_m: u8) -> u8 {
    tail_rank(hash << lg_m, lg_m)
}

/// [`rho`] of a hash whose index bits are already shifted out.
/// Non-increasing in `tail`: a zero tail ranks highest (`64 − lg_m + 1`,
/// above any non-zero tail's), and a larger non-zero tail has fewer
/// leading zeros.
#[inline]
fn tail_rank(tail: u64, lg_m: u8) -> u8 {
    if tail == 0 {
        64 - lg_m + 1
    } else {
        (tail.leading_zeros() + 1) as u8
    }
}

/// The global side of the concurrent HLL sketch.
#[derive(Debug)]
pub struct HllGlobal {
    sketch: HllSketch,
    ingested: u64,
}

/// The published view of one HLL shard: the atomic estimate for
/// single-shard fast-path queries (fed from the sketch's register-value
/// histogram, O(1) per publication), plus a register image written only by
/// [`GlobalSketch::publish_sharded`] (i.e., when `K > 1`). Register-wise
/// max across shard images is exactly the sketch a single HLL would hold
/// on the concatenated stream, so the sharded merge is lossless.
#[derive(Debug)]
pub struct HllView {
    est: AtomicF64,
    image: EpochCell<HllSketch>,
}

/// The local side: a buffer of pre-hashed, pre-filtered updates.
#[derive(Debug, Default)]
pub struct HllLocal {
    hashes: Vec<u64>,
}

impl LocalSketch for HllLocal {
    type Item = u64;
    type Hint = HllHint;

    fn update(&mut self, hash: u64) {
        self.hashes.push(hash);
    }

    fn update_batch(&mut self, hashes: &[u64]) {
        self.hashes.extend_from_slice(hashes);
    }

    /// Drops updates whose rank cannot exceed any register: safe because
    /// registers are monotonically non-decreasing.
    fn should_add(hint: HllHint, hash: &u64) -> bool {
        rho(*hash, hint.lg_m) > hint.floor
    }

    fn clear(&mut self) {
        self.hashes.clear();
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }
}

/// HLL's writers buffer raw hashes. A hash's score is its tail (the
/// index bits shifted out): its rank is non-increasing in the tail, so the
/// chunk's smallest tail has its largest rank. Ranks are compared, never
/// tails against a threshold, so floor 0 keeps every hash and the
/// largest floor, `64 − lg_m + 1`, keeps none, a zero tail included.
impl HashedLocal for HllLocal {
    fn key(hash: u64) -> u64 {
        hash
    }

    fn score(hint: HllHint, key: u64) -> u64 {
        key << hint.lg_m
    }

    fn passes(hint: HllHint, score: u64) -> bool {
        tail_rank(score, hint.lg_m) > hint.floor
    }
}

impl HllGlobal {
    /// Creates an empty global HLL sketch with `2^lg_m` registers.
    ///
    /// # Errors
    ///
    /// Propagates [`HllSketch::new`]'s parameter validation.
    pub fn new(lg_m: u8, seed: u64) -> Result<Self> {
        Ok(HllGlobal {
            sketch: HllSketch::new(lg_m, seed)?,
            ingested: 0,
        })
    }
}

impl GlobalSketch for HllGlobal {
    type Local = HllLocal;
    type View = HllView;
    type Snapshot = f64;

    fn new_local(&self) -> HllLocal {
        HllLocal::default()
    }

    fn new_view(&self) -> HllView {
        HllView {
            est: AtomicF64::new(self.sketch.estimate()),
            image: EpochCell::new(self.sketch.clone()),
        }
    }

    fn merge(&mut self, local: &mut HllLocal) {
        for h in local.hashes.drain(..) {
            self.sketch.update_hash(h);
            self.ingested += 1;
        }
    }

    fn update_direct(&mut self, hash: u64) {
        self.sketch.update_hash(hash);
        self.ingested += 1;
    }

    fn publish(&self, view: &HllView) {
        view.est.store(self.sketch.estimate());
    }

    fn publish_sharded(&self, view: &HllView) {
        view.est.store(self.sketch.estimate());
        view.image.store(self.sketch.clone());
    }

    fn snapshot(view: &HllView) -> f64 {
        view.est.load()
    }

    fn merge_shard_views(views: &[&HllView]) -> f64 {
        let images: Vec<_> = views.iter().map(|v| v.image.load()).collect();
        let (first, rest) = images.split_first().expect("at least one shard");
        let mut merged = (**first).clone();
        for img in rest {
            merged.merge(img).expect("shards share lg_m and seed");
        }
        merged.estimate()
    }

    fn new_shard(&self) -> Self {
        HllGlobal::new(self.sketch.lg_m(), self.sketch.seed())
            .expect("shard parameters were already validated")
    }

    fn calc_hint(&self) -> HllHint {
        HllHint {
            lg_m: self.sketch.lg_m(),
            floor: self.sketch.min_register(),
        }
    }

    fn stream_len(&self) -> u64 {
        self.ingested
    }
}

impl Family for HllFamily {
    type Engine = ConcurrentHllSketch;
    const DEFAULT_ACCURACY: usize = 12;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let lg_m = u8::try_from(accuracy)
            .map_err(|_| SketchError::invalid("lg_m", format!("out of range: {accuracy}")))?;
        ConcurrentSketch::launch(HllGlobal::new(lg_m, seed)?, config, Hashed(seed))
    }
}

impl EngineGlobal for HllGlobal {
    const FAMILY: SketchFamily = SketchFamily::Hll;
    type Hashing = Hashed;

    fn ingest(writer: &mut HllWriter, items: &[u64]) {
        writer.update_batch(items);
    }

    fn estimate(engine: &ConcurrentHllSketch) -> Option<f64> {
        Some(engine.estimate())
    }

    /// The merged register state (see `fcds_sketches::wire`).
    /// Register-wise max is a lattice join, so images merged on a remote
    /// node equal the sequential sketch of the concatenated streams
    /// exactly. A coordinator fanning images in every query tick should
    /// hold a `fcds_sketches::wire::MergeScratch` and call
    /// `hll_multiway_merge_into` to fold registers straight from the
    /// payload bytes with zero steady-state allocations.
    fn wire_image(engine: &ConcurrentHllSketch) -> Bytes {
        engine.registers().to_wire_bytes()
    }
}

/// Concurrent HLL distinct-count sketch.
///
/// # Examples
///
/// ```
/// use fcds_core::engine::{EngineBuilder, HllFamily};
///
/// let sketch = EngineBuilder::<HllFamily>::new()
///     .accuracy(12) // lg_m
///     .writers(2)
///     .build()
///     .unwrap();
/// let mut w = sketch.writer();
/// for i in 0..100_000u64 {
///     w.update(i);
/// }
/// w.flush().unwrap();
/// sketch.quiesce();
/// assert!((sketch.estimate() - 100_000.0).abs() / 100_000.0 < 0.1);
/// ```
pub type ConcurrentHllSketch = ConcurrentSketch<HllGlobal, Hashed>;

/// Per-thread writer for [`ConcurrentHllSketch`]: hashes each item once
/// and drops it on the update thread when its rank cannot raise a
/// register (`update`, `update_batch`; see [`crate::hashed`]).
pub type HllWriter = SketchWriter<HllGlobal, Hashed>;

impl ConcurrentHllSketch {
    /// The current distinct-count estimate.
    pub fn estimate(&self) -> f64 {
        self.snapshot()
    }

    /// A copy of the current global registers, merged across shards
    /// (takes the shard locks in turn; not a hot-path operation). Useful
    /// for off-line unions.
    pub fn registers(&self) -> HllSketch {
        let mut parts = self.with_globals(|g| g.sketch.clone());
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).expect("shards share lg_m and seed");
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;

    #[test]
    fn hint_round_trips() {
        for (lg_m, floor) in [(4u8, 0u8), (12, 3), (21, 61)] {
            let h = HllHint { lg_m, floor };
            assert_eq!(HllHint::decode(h.encode()), h);
        }
    }

    #[test]
    fn dispatched_filter_kernel_equals_the_baseline_copy() {
        // Index bits all clear or all set; a tail of each rank below the
        // top one, `64 − lg_m + 1`, and the zero tail, whose rank is the
        // top one; floors from keep-all to keep-none.
        let mut rng = crate::hashed::tests::item_rng();
        for lg_m in [4u8, 12, 16] {
            let max_floor = 64 - lg_m + 1;
            let index = u64::MAX << (64 - lg_m);
            let edges: Vec<u64> = (1..max_floor)
                .map(|rank| 1u64 << (64 - rank - lg_m))
                .chain([0])
                .flat_map(|tail| [tail, tail | index])
                .collect();
            for floor in [0, 1, max_floor] {
                let hint = HllHint { lg_m, floor };
                crate::hashed::tests::every_length::<HllLocal>(&mut rng, hint, &edges, |h| {
                    Some(h).filter(|&h| rho(h, lg_m) > floor)
                });
            }
        }
    }

    #[test]
    fn rho_matches_sketch_semantics() {
        assert_eq!(rho(0, 4), 61);
        assert_eq!(rho(u64::MAX, 4), 1);
        // Hash with index bits set and tail 0b01…: rho = 2.
        let h = (0b01u64) << (64 - 4 - 2);
        assert_eq!(rho(h, 4), 2);
    }

    #[test]
    fn filter_never_drops_a_state_changing_update() {
        // Brute-force: for random hashes, if should_add says drop, then
        // updating a sketch whose min register equals the floor must be a
        // no-op.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut sketch = HllSketch::new(4, 1).unwrap();
        for _ in 0..20_000 {
            let h: u64 = rng.random();
            let floor = sketch.registers().iter().copied().min().unwrap();
            let hint = HllHint { lg_m: 4, floor };
            let predicted_drop = !HllLocal::should_add(hint, &h);
            let changed = sketch.update_hash(h);
            assert!(
                !(predicted_drop && changed),
                "filter dropped a state-changing update (h={h:#x})"
            );
        }
    }

    #[test]
    fn concurrent_estimate_accuracy() {
        let s = EngineBuilder::<HllFamily>::new()
            .accuracy(12)
            .seed(7)
            .writers(4)
            .build()
            .unwrap();
        let n_per = crate::test_support::scaled(100_000);
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
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn registers_equal_sequential_union_after_quiesce() {
        let n = crate::test_support::scaled(50_000);
        let s = EngineBuilder::<HllFamily>::new()
            .accuracy(10)
            .seed(5)
            .writers(2)
            .max_concurrency_error(1.0)
            .build()
            .unwrap();
        let mut reference = HllSketch::new(10, 5).unwrap();
        for i in 0..n {
            reference.update(i);
        }
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let mut w = s.writer();
                sc.spawn(move || {
                    for i in (t..n).step_by(2) {
                        w.update(i);
                    }
                    w.flush().unwrap();
                });
            }
        });
        s.quiesce();
        // Register-wise max is order-independent, so after quiescence the
        // concurrent registers must exactly equal the sequential ones.
        assert_eq!(s.registers(), reference);
    }

    #[test]
    fn sharded_registers_equal_sequential_after_quiesce() {
        // Register max is partition-insensitive: a K-shard run must land
        // on exactly the registers of a single sequential sketch, and the
        // merged query estimate must match it — the "error-free merge"
        // property, exercised end-to-end for both backends.
        use crate::config::PropagationBackendKind;
        let n = crate::test_support::scaled(40_000);
        for backend in [
            PropagationBackendKind::DedicatedThread,
            PropagationBackendKind::WriterAssisted,
        ] {
            let s = EngineBuilder::<HllFamily>::new()
                .accuracy(10)
                .seed(5)
                .writers(4)
                .shards(4)
                .max_concurrency_error(1.0)
                .backend(backend)
                .build()
                .unwrap();
            let mut reference = HllSketch::new(10, 5).unwrap();
            for i in 0..n {
                reference.update(i);
            }
            std::thread::scope(|sc| {
                for t in 0..4u64 {
                    let mut w = s.writer();
                    sc.spawn(move || {
                        for i in (t..n).step_by(4) {
                            w.update(i);
                        }
                        w.flush().unwrap();
                    });
                }
            });
            s.quiesce();
            assert_eq!(s.registers(), reference, "{backend:?}");
            assert_eq!(s.estimate(), reference.estimate(), "{backend:?}");
        }
    }

    #[test]
    fn tiny_stream_eager_accuracy() {
        let s = EngineBuilder::<HllFamily>::new()
            .accuracy(12)
            .writers(2)
            .build()
            .unwrap();
        let mut w = s.writer();
        for i in 0..200u64 {
            w.update(i);
        }
        // Eager phase: immediately visible, linear-counting accurate.
        let est = s.estimate();
        assert!((est - 200.0).abs() < 10.0, "est = {est}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// What a hand-off publishes is read off the histogram; after
        /// every merge it must equal the full-scan definition: the
        /// hint's floor is the minimum register and the view's estimate
        /// is the bare-array estimator's, bit for bit. Eager updates
        /// first, then `b = 16` merges until the floor has risen.
        #[test]
        fn published_state_equals_a_register_rescan(
            seed in proptest::prelude::any::<u64>(),
            wide in proptest::prelude::any::<bool>(),
        ) {
            use fcds_sketches::hll::estimate_from_registers;
            use rand::{Rng, SeedableRng};
            let (lg_m, merges) = if wide { (12u8, 4_000) } else { (4u8, 40) };
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut g = HllGlobal::new(lg_m, 1).unwrap();
            let view = g.new_view();
            let mut local = g.new_local();
            for step in 0..merges {
                if step < 8 {
                    g.update_direct(rng.random());
                } else {
                    for _ in 0..16 {
                        local.update(rng.random());
                    }
                    g.merge(&mut local);
                }
                g.publish(&view);
                let registers = g.sketch.registers();
                proptest::prop_assert_eq!(
                    g.calc_hint().floor,
                    *registers.iter().min().unwrap()
                );
                proptest::prop_assert_eq!(
                    HllGlobal::snapshot(&view).to_bits(),
                    estimate_from_registers(registers).to_bits()
                );
            }
            proptest::prop_assert!(g.calc_hint().floor > 0, "the floor never rose");
        }
    }
}
