//! The family-generic engine seam: one trait surface over all four
//! concurrent sketches, plus the unified builder.
//!
//! The multi-stream service hosts many engines of mixed families behind
//! per-key routing, and the code doing that routing must not care which
//! family a stream is. There is one engine type,
//! [`ConcurrentSketch<G, H>`](ConcurrentSketch), and one writer type,
//! [`SketchWriter<G, H>`](SketchWriter); a family is its global sketch
//! `G`. This module defines:
//!
//! * [`WireImage`] — the one-method trait every engine implements to
//!   export its mergeable wire envelope (`fcds_sketches::wire`). Replica
//!   sync and registry code call it family-generically; the fan-in
//!   kernels on the receiving side do the family dispatch from the
//!   envelope's own header.
//! * [`EngineWriter`] / [`StreamEngine`] — the object-safe pair the
//!   server's connection threads are written against: a `StreamEngine`
//!   is a running engine ingesting `u64` stream items (the service's
//!   item type; Θ/HLL hash them, Quantiles/Misra–Gries take them as
//!   values), and each connection thread owns one `EngineWriter` per
//!   stream it ingests into, obtained from it. Each has one blanket
//!   impl, over every engine and writer whose global is an
//!   [`EngineGlobal`].
//! * [`EngineGlobal`] — what a family's global adds to
//!   [`GlobalSketch`] for the seam: its wire family code, how a writer
//!   ingests `u64` items, its scalar estimate (or `None`) and its wire
//!   image. Only the four built-in globals implement it, so a custom
//!   [`GlobalSketch`] needs none of it to run in the engine.
//! * [`Family`] + [`EngineBuilder`] — the unified construction entry:
//!   the shared [`ConcurrencyConfig`] knobs (writers, shards, backend,
//!   error budget…) are set once on `EngineBuilder<F>` for any family
//!   `F`, with one family-interpreted [`accuracy`](EngineBuilder::accuracy)
//!   knob. It is the only way to construct a built-in engine; each
//!   family's `impl Family` and `impl EngineGlobal` sit next to its
//!   sketch (`theta.rs`, `hll.rs`, `quantiles.rs`, `frequency.rs`), with
//!   the family's type aliases (`ConcurrentThetaSketch`, `ThetaWriter`,
//!   …) and their few inherent methods.

use crate::composable::GlobalSketch;
use crate::config::{ConcurrencyConfig, PropagationBackendKind};
use crate::runtime::{ConcurrentSketch, EngineStats, FlushError, SketchWriter};
use bytes::Bytes;
use fcds_sketches::error::Result;
use fcds_sketches::hash::DEFAULT_SEED;
use fcds_sketches::wire::SketchFamily;
use std::marker::PhantomData;

/// Export of a sketch's mergeable state as a versioned wire envelope.
///
/// Every engine implements this; the envelope's header carries the
/// family code, so a consumer can stay family-generic and let
/// `fcds_sketches::wire::peek` plus the multiway fan-in kernels do the
/// dispatch. Replica sync is exactly this: a timer calling
/// `wire_image()` on every registered stream and shipping the bytes to
/// a peer's merge store.
pub trait WireImage {
    /// Serialises the current published state into one wire envelope.
    fn wire_image(&self) -> Bytes;
}

/// A per-thread ingest handle for a [`StreamEngine`], object-safe so a
/// server connection thread can own "a writer" without knowing the family.
///
/// Items are `u64` stream elements: Θ and HLL hash them, Quantiles and
/// Misra–Gries treat them as values. Buffered updates become durable at
/// [`flush`](Self::flush); a failed flush is the engine-level fault
/// signal (dead propagator) and the writer should be retired.
pub trait EngineWriter: Send {
    /// Buffers (and opportunistically propagates) a batch of items.
    fn ingest_batch(&mut self, items: &[u64]);
    /// Makes all buffered updates durable.
    ///
    /// # Errors
    ///
    /// [`FlushError`] when the engine's propagation service died; the
    /// writer is permanently broken and must be discarded.
    fn flush(&mut self) -> std::result::Result<(), FlushError>;
}

/// An object-safe running concurrent sketch, the unit the server's
/// stream registry maps keys onto.
///
/// The five capabilities are exactly what the service needs per stream:
/// spawn writers (ingest-batch + flush via [`EngineWriter`]), export a
/// mergeable image ([`WireImage`], a supertrait), serve a scalar
/// estimate where the family has one, quiesce at drain, and report
/// engine-level drain statistics.
pub trait StreamEngine: WireImage + Send + Sync {
    /// The wire family this engine speaks.
    fn family(&self) -> SketchFamily;
    /// Registers a new update thread.
    fn writer(&self) -> Box<dyn EngineWriter>;
    /// The scalar estimate, for families that define one (Θ and HLL
    /// distinct counts); `None` for Quantiles/Misra–Gries, whose
    /// queries go through the wire image.
    fn estimate(&self) -> Option<f64>;
    /// Merges every handed-off buffer and republishes images.
    fn quiesce(&self);
    /// Engine-level diagnostic counters (merges, hand-offs, eager
    /// updates…), reported at drain.
    fn stats(&self) -> EngineStats;
}

/// What a built-in family's global sketch adds to [`GlobalSketch`] for
/// the engine seam: the hooks behind the blanket [`StreamEngine`],
/// [`EngineWriter`] and [`WireImage`] impls.
pub trait EngineGlobal: GlobalSketch + Sized {
    /// The wire-format family code of the engine's images.
    const FAMILY: SketchFamily;
    /// What the engine's writers turn stream items into local items
    /// with: `()`, or [`Hashed`](crate::hashed::Hashed) for the hashing
    /// families.
    type Hashing: Copy + Send + Sync + 'static;
    /// Buffers a batch of `u64` stream items through the writer's
    /// batched path.
    fn ingest(writer: &mut SketchWriter<Self, Self::Hashing>, items: &[u64]);
    /// The scalar estimate, where the family has one.
    fn estimate(engine: &ConcurrentSketch<Self, Self::Hashing>) -> Option<f64>;
    /// The engine's published state as one wire envelope.
    fn wire_image(engine: &ConcurrentSketch<Self, Self::Hashing>) -> Bytes;
}

impl<G: EngineGlobal> WireImage for ConcurrentSketch<G, G::Hashing> {
    fn wire_image(&self) -> Bytes {
        G::wire_image(self)
    }
}

impl<G: EngineGlobal> EngineWriter for SketchWriter<G, G::Hashing> {
    fn ingest_batch(&mut self, items: &[u64]) {
        G::ingest(self, items);
    }

    fn flush(&mut self) -> std::result::Result<(), FlushError> {
        SketchWriter::flush(self)
    }
}

impl<G: EngineGlobal> StreamEngine for ConcurrentSketch<G, G::Hashing> {
    fn family(&self) -> SketchFamily {
        G::FAMILY
    }

    fn writer(&self) -> Box<dyn EngineWriter> {
        Box::new(ConcurrentSketch::writer(self))
    }

    fn estimate(&self) -> Option<f64> {
        G::estimate(self)
    }

    fn quiesce(&self) {
        ConcurrentSketch::quiesce(self);
    }

    fn stats(&self) -> EngineStats {
        ConcurrentSketch::stats(self)
    }
}

/// A sketch family [`EngineBuilder`] can construct: the associated
/// engine type and how the one `accuracy` knob maps onto the family's
/// sizing parameter.
pub trait Family {
    /// The concurrent sketch this family builds.
    type Engine;
    /// Default for [`EngineBuilder::accuracy`].
    const DEFAULT_ACCURACY: usize;
    /// Builds and starts an engine.
    ///
    /// # Errors
    ///
    /// Invalid accuracy parameter or [`ConcurrencyConfig`] (surfaced
    /// from the underlying sketch constructor).
    fn build(accuracy: usize, seed: u64, config: ConcurrencyConfig) -> Result<Self::Engine>;
}

/// Θ family marker: `accuracy` is `lg_k`, `seed` the hash seed.
#[derive(Debug, Clone, Copy)]
pub struct ThetaFamily;

/// HLL family marker: `accuracy` is `lg_m`, `seed` the hash seed.
#[derive(Debug, Clone, Copy)]
pub struct HllFamily;

/// Quantiles family marker: `accuracy` is the sketch parameter `k`,
/// `seed` seeds the de-randomisation oracle. Generic over the item
/// type; the service instantiates `T = u64`.
#[derive(Debug, Clone, Copy)]
pub struct QuantilesFamily<T = u64>(PhantomData<T>);

/// Misra–Gries family marker: `accuracy` is the counter budget `k`;
/// `seed` is unused (the sketch is deterministic). Generic over the
/// item type; the service instantiates `T = u64`.
#[derive(Debug, Clone, Copy)]
pub struct FrequencyFamily<T = u64>(PhantomData<T>);

/// The unified builder: one entry point for all four families, sharing
/// the [`ConcurrencyConfig`] knobs instead of duplicating them per
/// family.
///
/// # Examples
///
/// ```
/// use fcds_core::engine::{EngineBuilder, HllFamily, ThetaFamily};
///
/// // Same concurrency shape, two families — set the shared knobs once
/// // per engine, vary only the family parameter.
/// let theta = EngineBuilder::<ThetaFamily>::new()
///     .accuracy(12) // lg_k
///     .writers(2)
///     .build()
///     .unwrap();
/// let hll = EngineBuilder::<HllFamily>::new()
///     .accuracy(12) // lg_m
///     .writers(2)
///     .build()
///     .unwrap();
/// let (mut tw, mut hw) = (theta.writer(), hll.writer());
/// for i in 0..50_000u64 {
///     tw.update(i);
///     hw.update(i);
/// }
/// tw.flush().unwrap();
/// hw.flush().unwrap();
/// theta.quiesce();
/// hll.quiesce();
/// assert!((theta.estimate() - 50_000.0).abs() / 50_000.0 < 0.05);
/// assert!((hll.estimate() - 50_000.0).abs() / 50_000.0 < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder<F: Family> {
    accuracy: usize,
    seed: u64,
    config: ConcurrencyConfig,
    _family: PhantomData<F>,
}

impl<F: Family> Default for EngineBuilder<F> {
    fn default() -> Self {
        EngineBuilder {
            accuracy: F::DEFAULT_ACCURACY,
            seed: DEFAULT_SEED,
            config: ConcurrencyConfig::default(),
            _family: PhantomData,
        }
    }
}

impl<F: Family> EngineBuilder<F> {
    /// Starts from the family's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the family's accuracy parameter: `lg_k` (Θ), `lg_m` (HLL),
    /// or `k` (Quantiles, Misra–Gries).
    pub fn accuracy(mut self, accuracy: usize) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Sets the seed: the hash seed (Θ, HLL), the oracle seed
    /// (Quantiles); ignored by the deterministic Misra–Gries.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the expected number of update threads `N`.
    pub fn writers(mut self, writers: usize) -> Self {
        self.config.writers = writers;
        self
    }

    /// Sets the maximum relative error attributable to concurrency
    /// (`e`, §7.1). `1.0` disables the eager phase.
    pub fn max_concurrency_error(mut self, e: f64) -> Self {
        self.config.max_concurrency_error = e;
        self
    }

    /// Caps the local buffer size `b`.
    pub fn max_buffer_size(mut self, b: u64) -> Self {
        self.config.max_buffer_size = b;
        self
    }

    /// Selects `OptParSketch` (true, default) or the unoptimised
    /// `ParSketch` (false).
    pub fn double_buffering(mut self, enabled: bool) -> Self {
        self.config.double_buffering = enabled;
        self
    }

    /// Splits the global sketch into `K` shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Selects the propagation backend.
    pub fn backend(mut self, backend: PropagationBackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Ablation: disables the pre-filter hint. Benchmarking only.
    pub fn disable_prefilter(mut self, disabled: bool) -> Self {
        self.config.disable_prefilter = disabled;
        self
    }

    /// Overrides the full concurrency configuration.
    pub fn config(mut self, config: ConcurrencyConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds and starts the engine.
    ///
    /// # Errors
    ///
    /// Invalid accuracy parameter or concurrency configuration.
    pub fn build(self) -> Result<F::Engine> {
        F::build(self.accuracy, self.seed, self.config)
    }

    /// Builds and starts the engine behind the object-safe
    /// [`StreamEngine`] interface — what the server's stream registry
    /// stores.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn build_boxed(self) -> Result<Box<dyn StreamEngine>>
    where
        F::Engine: StreamEngine + 'static,
    {
        Ok(Box::new(self.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &dyn StreamEngine, items: std::ops::Range<u64>) {
        let batch: Vec<u64> = items.collect();
        let mut w = engine.writer();
        w.ingest_batch(&batch);
        w.flush().unwrap();
        engine.quiesce();
    }

    #[test]
    fn all_four_families_build_behind_the_object_safe_trait() {
        let engines: Vec<Box<dyn StreamEngine>> = vec![
            EngineBuilder::<ThetaFamily>::new().build_boxed().unwrap(),
            EngineBuilder::<HllFamily>::new().build_boxed().unwrap(),
            EngineBuilder::<QuantilesFamily>::new()
                .build_boxed()
                .unwrap(),
            EngineBuilder::<FrequencyFamily>::new()
                .build_boxed()
                .unwrap(),
        ];
        let expected = [
            SketchFamily::Theta,
            SketchFamily::Hll,
            SketchFamily::Quantiles,
            SketchFamily::Frequency,
        ];
        for (engine, fam) in engines.iter().zip(expected) {
            assert_eq!(engine.family(), fam);
            drive(engine.as_ref(), 0..10_000);
            // Every family exports a decodable image of its own family.
            let img = engine.wire_image();
            let peeked = fcds_sketches::wire::peek(&img, u64::MAX).unwrap();
            assert_eq!(peeked.family, fam);
            // Scalar estimates exist exactly for the counting families.
            match fam {
                SketchFamily::Theta | SketchFamily::Hll => {
                    let est = engine.estimate().expect("counting family");
                    assert!((est - 10_000.0).abs() / 10_000.0 < 0.1);
                }
                _ => assert!(engine.estimate().is_none()),
            }
            // Drain stats flow through the trait.
            assert!(engine.stats().handoffs + engine.stats().eager_updates > 0);
        }
    }

    #[test]
    fn a_writer_assisted_batch_that_keeps_the_lock_leaves_nothing_unpublished() {
        // One writer, no eager phase, no rival for the shard lock: every
        // `ingest_batch` that fills its buffer with items to go merges
        // the rest inline — one merge per slice of ≤ 1 024 buffered
        // items, no hand-off, nothing left unpublished without a flush.
        fn check(engine: &dyn StreamEngine, visible_n: &dyn Fn() -> u64) {
            let mut w = engine.writer();
            // Warm-up in 8-item calls: each buffer fills exactly as a
            // call ends, so these hand off at `b` = 16 and leave 8 items
            // buffered.
            let mut fed = 0u64;
            for _ in 0..101 {
                w.ingest_batch(&(fed..fed + 8).collect::<Vec<u64>>());
                fed += 8;
            }
            assert_eq!(visible_n(), fed - 8);
            for (len, slices) in [(250, 1), (2 * 1024 + 5, 3)] {
                let before = engine.stats();
                w.ingest_batch(&(fed..fed + len).collect::<Vec<u64>>());
                fed += len;
                let after = engine.stats();
                assert_eq!(visible_n(), fed, "{len}-item call");
                assert_eq!(after.handoffs, before.handoffs, "{len}-item call");
                assert_eq!(after.merges, before.merges + slices, "{len}-item call");
            }
        }
        let q = EngineBuilder::<QuantilesFamily>::new()
            .max_concurrency_error(1.0)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        check(&q, &|| q.visible_n());
        let f = EngineBuilder::<FrequencyFamily>::new()
            .max_concurrency_error(1.0)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        check(&f, &|| f.snapshot().n);
    }

    #[test]
    fn shared_knobs_apply_to_every_family() {
        // A config error (shards > writers) must surface identically
        // through the unified builder for any family.
        assert!(EngineBuilder::<ThetaFamily>::new()
            .writers(1)
            .shards(4)
            .build()
            .is_err());
        assert!(EngineBuilder::<QuantilesFamily>::new()
            .writers(1)
            .shards(4)
            .build()
            .is_err());
    }

    #[test]
    fn out_of_range_accuracy_is_a_typed_error_not_a_truncation() {
        fn rejects<F: Family>(accuracy: usize, param: &str) {
            match EngineBuilder::<F>::new().accuracy(accuracy).build() {
                Err(fcds_sketches::error::SketchError::InvalidParameter { name, .. }) => {
                    assert_eq!(name, param, "accuracy({accuracy})");
                }
                Err(other) => panic!("accuracy({accuracy}): wrong error {other}"),
                Ok(_) => panic!("accuracy({accuracy}) for `{param}` must not build"),
            }
        }
        // 268 as u8 == 12 and usize::MAX as u8 == 255: neither may wrap
        // into a value the sketch constructor then judges on its own.
        for accuracy in [268, usize::MAX] {
            rejects::<ThetaFamily>(accuracy, "lg_k");
            rejects::<HllFamily>(accuracy, "lg_m");
        }
        rejects::<ThetaFamily>(0, "lg_k");
        rejects::<HllFamily>(0, "lg_m");
        rejects::<QuantilesFamily>(0, "k");
        rejects::<FrequencyFamily>(0, "k");
    }
}
