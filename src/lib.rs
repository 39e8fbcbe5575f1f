//! # fcds — Fast Concurrent Data Sketches
//!
//! A Rust reproduction of *Fast Concurrent Data Sketches* (Rinberg,
//! Spiegelman, Bortnikov, Hillel, Keidar, Rhodes, Serviansky; PODC 2019,
//! arXiv:1902.10995).
//!
//! This facade crate re-exports the three library crates of the workspace:
//!
//! * [`sketches`] — sequential sketch substrate: Θ sketches (KMV and
//!   quick-select), the Quantiles sketch, HLL, Misra–Gries, and the
//!   MurmurHash3 hash the sketches are built on.
//! * [`core`] — the paper's contribution: the generic strongly-linearisable
//!   concurrent sketch framework (`ParSketch`/`OptParSketch`), generalised
//!   to a K-way sharded engine with two propagation backends (dedicated
//!   thread per shard, or threadless writer-assisted); its Θ,
//!   Quantiles, HLL and frequency instantiations; and the lock-based
//!   baseline.
//! * [`relaxation`] — the relaxed-consistency framework: operation
//!   histories, the r-relaxation checker (Definition 2), and the
//!   strong/weak adversary error analysis of Section 6.
//!
//! ## Examples
//!
//! Seven runnable examples live in `examples/`:
//! `quickstart` (multi-writer distinct counting), `unique_users`
//! (web analytics with Θ set algebra), `latency_quantiles` (live
//! percentile dashboard), `network_monitor` (concurrent HLL),
//! `trending_topics` (concurrent Misra–Gries heavy hitters),
//! `custom_sketch` (parallelising your own sketch through the
//! composable interface), and `relaxation_demo` (Definition 2 and
//! Theorem 1, validated live).
//!
//! ## Quick start
//!
//! ```
//! use fcds::{EngineBuilder, ThetaFamily};
//!
//! let sketch = EngineBuilder::<ThetaFamily>::new()
//!     .accuracy(12)
//!     .writers(2)
//!     .max_concurrency_error(0.04)
//!     .build()
//!     .unwrap();
//!
//! let handles: Vec<_> = (0..2)
//!     .map(|t| {
//!         let mut w = sketch.writer();
//!         std::thread::spawn(move || {
//!             // One call per chunk (`update_batch`) runs the fused
//!             // batched fast path; `update` works item-at-a-time.
//!             let items: Vec<u64> = (0..100_000u64).map(|i| i * 2 + t).collect();
//!             for chunk in items.chunks(1024) {
//!                 w.update_batch(chunk);
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! let est = sketch.estimate();
//! assert!((est - 200_000.0).abs() / 200_000.0 < 0.1);
//! ```

pub use fcds_core as core;
pub use fcds_relaxation as relaxation;
pub use fcds_sketches as sketches;

// The engine-level configuration surface, re-exported flat: these are
// the types every embedder touches regardless of which sketch they
// instantiate (shard count, propagation backend, error budget).
pub use fcds_core::{ConcurrencyConfig, FlushError, PropagationBackendKind};

// The wire/merge tier, re-exported flat: sketch on any node, emit a
// versioned image, merge the images anywhere. These are the types every
// distributed embedder touches regardless of sketch family.
pub use fcds_sketches::wire::{
    merge_wire_images, SketchFamily, WireDecode, WireEncode, WireHeader, WireMerge,
};
pub use fcds_sketches::WireError;

// The zero-copy fan-in tier: borrowed views over raw images, multiway
// merge kernels, and the reusable scratch arena that makes a warm
// coordinator loop allocation-free. `peek` classifies an image from its
// first 16 bytes for server-side routing.
pub use fcds_sketches::wire::{
    hll_multiway_merge, hll_multiway_merge_into, ladder_multiway_concat, mg_multiway_merge, peek,
    theta_multiway_union, theta_multiway_union_into, HllFanin, HllWireView, LadderWireView,
    MergeScratch, MgWireView, PeekedHeader, ThetaFanin, ThetaWireView,
};

// The family-generic engine tier: one builder and one object-safe
// engine trait across all four concurrent sketches. This is what the
// multi-stream server's per-key registry is built on, and the only way
// to construct an engine.
pub use fcds_core::{
    EngineBuilder, EngineWriter, Family, FrequencyFamily, HllFamily, QuantilesFamily, StreamEngine,
    ThetaFamily, WireImage,
};
