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

use crate::composable::{extend_compact_u64, GlobalSketch, HintCodec, LocalSketch};
use crate::config::ConcurrencyConfig;
use crate::engine::{Family, HllFamily};
use crate::runtime::{ConcurrentSketch, FlushError, SketchWriter};
use crate::sync::{AtomicF64, EpochCell};
use fcds_sketches::error::{Result, SketchError};
use fcds_sketches::hash::{hash_batch_with_seed, Avx512, Hashable};
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

    /// Branchless batch filter against the min-register hint (the HLL
    /// half of the batched ingestion fast path).
    fn update_batch_filtered(&mut self, hint: HllHint, hashes: &[u64]) -> usize {
        extend_compact_u64(&mut self.hashes, hashes, |h| rho(h, hint.lg_m) > hint.floor)
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
    const FAMILY: SketchFamily = SketchFamily::Hll;
    const DEFAULT_ACCURACY: usize = 12;

    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine> {
        let lg_m = u8::try_from(accuracy)
            .map_err(|_| SketchError::invalid("lg_m", format!("out of range: {accuracy}")))?;
        let inner = ConcurrentSketch::start(HllGlobal::new(lg_m, seed)?, config)?;
        Ok(ConcurrentHllSketch { inner, seed })
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
#[derive(Debug)]
pub struct ConcurrentHllSketch {
    inner: ConcurrentSketch<HllGlobal>,
    seed: u64,
}

impl ConcurrentHllSketch {
    /// Registers an update thread.
    pub fn writer(&self) -> HllWriter {
        HllWriter {
            inner: self.inner.writer(),
            seed: self.seed,
        }
    }

    /// The current distinct-count estimate.
    pub fn estimate(&self) -> f64 {
        self.inner.snapshot()
    }

    /// A copy of the current global registers, merged across shards
    /// (takes the shard locks in turn; not a hot-path operation). Useful
    /// for off-line unions.
    pub fn registers(&self) -> HllSketch {
        let mut parts = self.inner.with_globals(|g| g.sketch.clone());
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).expect("shards share lg_m and seed");
        }
        merged
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

/// Serialises the merged register state into a unified wire image
/// (HLL family — see `fcds_sketches::wire`). Register-wise max is a
/// lattice join, so images merged on a remote node equal the
/// sequential sketch of the concatenated streams exactly. A
/// coordinator fanning images in every query tick should hold a
/// `fcds_sketches::wire::MergeScratch` and call
/// `hll_multiway_merge_into` to fold registers straight from the
/// payload bytes with zero steady-state allocations.
impl crate::engine::WireImage for ConcurrentHllSketch {
    fn wire_image(&self) -> bytes::Bytes {
        self.registers().to_wire_bytes()
    }
}

/// Per-thread writer for [`ConcurrentHllSketch`].
#[derive(Debug)]
pub struct HllWriter {
    inner: SketchWriter<HllGlobal>,
    seed: u64,
}

impl HllWriter {
    /// Processes one stream item.
    #[inline]
    pub fn update<T: Hashable>(&mut self, item: T) {
        self.inner.update(item.hash_with_seed(self.seed));
    }

    /// Processes a batch of stream items through the fused fast path:
    /// per chunk of 32 items, one hoisted hint read, then
    /// `filter_chunk` hashes and keeps what ranks above the hint's
    /// floor (on CPUs with AVX-512F/DQ/VL, eight hashes per
    /// instruction), and the survivors are appended with one reserved
    /// extend, handing off at `b`-boundaries mid-batch or merging the
    /// chunk's rest inline (`SketchWriter::push_accepted`).
    /// Equivalent to calling [`Self::update`] once per item — a stale
    /// hint only filters less (registers never decrease), and the
    /// filtered-out extras would be register no-ops anyway.
    pub fn update_batch<T: Hashable>(&mut self, items: &[T]) {
        let mut rest = items;
        while !self.inner.is_lazy() {
            let Some((first, tail)) = rest.split_first() else {
                return;
            };
            self.update(first);
            rest = tail;
        }
        if !self.inner.prefilter_enabled() {
            let mut hashes = [0u64; CHUNK];
            for chunk in rest.chunks(CHUNK) {
                hash_batch_with_seed(chunk, self.seed, &mut hashes[..chunk.len()]);
                self.inner.push_accepted(&hashes[..chunk.len()]);
            }
            return;
        }
        let lane = Avx512::detect();
        let mut survivors = [0u64; CHUNK];
        for chunk in rest.chunks(CHUNK) {
            let hint = self.inner.hint();
            let kept = filter_chunk(lane, chunk, self.seed, hint, &mut survivors);
            self.inner.note_filtered((chunk.len() - kept) as u64);
            self.inner.push_accepted(&survivors[..kept]);
        }
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

/// Items per fused chunk of [`HllWriter::update_batch`].
const CHUNK: usize = 32;

/// The HLL writer's per-chunk step, written once: hashes `chunk`
/// (≤ [`CHUNK`] items) and compacts the hashes whose rank exceeds
/// `hint.floor` into `survivors` in stream order, returning how many it
/// kept.
///
/// Shaped to vectorise: the hash pass is a straight loop into a stack
/// array that also reduces the smallest tail (the hash with its index
/// bits shifted out). [`tail_rank`] is non-increasing, so that tail has
/// the chunk's largest rank, and the branchless compaction runs only
/// when it beats the floor. Ranks are compared, never tails against a
/// threshold, so floor 0 keeps every hash and the largest floor,
/// `64 − lg_m + 1`, keeps none, a zero tail included. `#[inline(always)]`
/// so that each caller compiles its own copy: the baseline one, and
/// [`filter_chunk_avx512`].
#[inline(always)]
fn filter_chunk_body<T: Hashable>(
    chunk: &[T],
    seed: u64,
    hint: HllHint,
    survivors: &mut [u64; CHUNK],
) -> usize {
    let mut hashes = [0u64; CHUNK];
    let mut min_tail = u64::MAX;
    for (h, item) in hashes.iter_mut().zip(chunk) {
        *h = item.hash_with_seed(seed);
        min_tail = min_tail.min(*h << hint.lg_m);
    }
    if tail_rank(min_tail, hint.lg_m) <= hint.floor {
        return 0;
    }
    let mut kept = 0;
    for &h in &hashes[..chunk.len()] {
        survivors[kept] = h;
        kept += (rho(h, hint.lg_m) > hint.floor) as usize;
    }
    kept
}

/// [`filter_chunk_body`] compiled for AVX-512F/DQ/VL, where LLVM turns
/// murmur3's 64-bit multiplies into `vpmullq` over eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn filter_chunk_avx512<T: Hashable>(
    chunk: &[T],
    seed: u64,
    hint: HllHint,
    survivors: &mut [u64; CHUNK],
) -> usize {
    filter_chunk_body(chunk, seed, hint, survivors)
}

/// Runs the copy of [`filter_chunk_body`] that `lane` allows.
#[inline]
fn filter_chunk<T: Hashable>(
    lane: Option<Avx512>,
    chunk: &[T],
    seed: u64,
    hint: HllHint,
    survivors: &mut [u64; CHUNK],
) -> usize {
    match lane {
        // SAFETY: `filter_chunk_avx512` needs AVX-512F/DQ/VL, and an
        // `Avx512` exists only once `Avx512::detect` confirmed them.
        #[cfg(target_arch = "x86_64")]
        Some(_) => unsafe { filter_chunk_avx512(chunk, seed, hint, survivors) },
        _ => filter_chunk_body(chunk, seed, hint, survivors),
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
        // The copy this CPU runs (AVX-512 where present) against the
        // baseline, over every chunk length: random keys through the
        // real hash, then chosen hashes of every rank, a zero tail
        // (the top rank) included.
        use crate::test_support::RawHash;
        use rand::{Rng, SeedableRng};
        /// Runs both copies on `chunk`, checks that each keeps the
        /// one-at-a-time filter's survivors in stream order, and returns
        /// what each filtered.
        fn both<T: Hashable>(lane: Option<Avx512>, chunk: &[T], hint: HllHint) -> [usize; 2] {
            let want: Vec<u64> = chunk
                .iter()
                .map(|item| item.hash_with_seed(9001))
                .filter(|&h| rho(h, hint.lg_m) > hint.floor)
                .collect();
            let mut out = [[0u64; CHUNK]; 2];
            let kept = [
                filter_chunk(lane, chunk, 9001, hint, &mut out[0]),
                filter_chunk_body(chunk, 9001, hint, &mut out[1]),
            ];
            for (copy, (out, kept)) in ["dispatched", "baseline"].iter().zip(out.iter().zip(kept)) {
                assert_eq!(
                    out[..kept],
                    want[..],
                    "{copy}: {hint:?}, {} items",
                    chunk.len()
                );
            }
            kept.map(|k| chunk.len() - k)
        }
        const ITEM_SEED: u64 = 0x0411_C0DE;
        println!(
            "HLL filter lane: {}; items seeded {ITEM_SEED:#x}",
            Avx512::lane()
        );
        let mut rng = rand::rngs::SmallRng::seed_from_u64(ITEM_SEED);
        let lane = Avx512::detect();
        for lg_m in [4u8, 12, 16] {
            let max_floor = 64 - lg_m + 1;
            // Index bits all clear or all set; a tail of each rank below
            // `max_floor`, and the zero tail, whose rank is `max_floor`.
            let index = u64::MAX << (64 - lg_m);
            let edges: Vec<u64> = (1..max_floor)
                .map(|rank| 1u64 << (64 - rank - lg_m))
                .chain([0])
                .flat_map(|tail| [tail, tail | index])
                .collect();
            for floor in [0, 1, max_floor] {
                let hint = HllHint { lg_m, floor };
                let mut filtered = [0usize; 2];
                for len in 0..=CHUNK {
                    let keys: Vec<u64> = (0..len).map(|_| rng.random()).collect();
                    let raw: Vec<RawHash> = (0..len)
                        .map(|_| RawHash(edges[rng.random_range(0..edges.len())]))
                        .collect();
                    for f in [both(lane, &keys, hint), both(lane, &raw, hint)] {
                        filtered[0] += f[0];
                        filtered[1] += f[1];
                    }
                }
                assert_eq!(filtered[0], filtered[1], "filtered total, {hint:?}");
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
