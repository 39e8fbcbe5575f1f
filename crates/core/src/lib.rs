//! # fcds-core — the generic concurrent sketch framework
//!
//! This crate is the primary contribution of
//! [*Fast Concurrent Data Sketches*](https://arxiv.org/abs/1902.10995)
//! (PODC 2019), reimplemented in Rust: a generic algorithm that wraps a
//! sequential *composable* sketch and serves **real-time queries
//! concurrently with multi-threaded ingestion**, with a provable
//! consistency guarantee — strong linearisability with respect to an
//! *r-relaxation* of the sequential sketch, `r = 2Nb` for `N` update
//! threads with local buffers of size `b` (Theorem 1).
//!
//! ## Architecture (Algorithm 2, sharded)
//!
//! ```text
//!  update threads t1..tN            K shards                    queries
//!  ┌───────────────────┐  prop_i  ┌──────────────────────┐  ┌───────────┐
//!  │ shouldAdd(hint,a)?│──hand-off──▶ shard 0: global+view │  │ merge all │
//!  │ localS_i[cur_i]   │◀──hint───│ shard 1: global+view ─┼─▶│ shard     │
//!  └───────────────────┘          │   …                   │  │ views     │
//!     (round-robined onto shards) │ shard K−1             │  └───────────┘
//!                                 └──────────────────────┘
//!                  propagation backend: one dedicated thread per shard
//!                  (the paper's t0), or writer-assisted (threadless)
//! ```
//!
//! * Each update thread buffers into a local sketch and hands it off via
//!   a single atomic (`prop_i`) every `b` updates — one memory fence per
//!   batch ([`sync::PropSlot`]).
//! * Propagation merges local buffers into the writer's shard and
//!   *publishes* a snapshot through an atomic view (Θ: a seqlock triple;
//!   Quantiles: an epoch-managed pointer) — queries never touch the
//!   global sketches and never block. [`config::PropagationBackendKind`]
//!   picks who propagates: the paper's dedicated thread, one per shard
//!   (the default), or the writers themselves, with no background
//!   thread at all.
//! * Queries merge the `K` shard views losslessly
//!   ([`composable::GlobalSketch::merge_shard_views`]): Θ unions, HLL
//!   register max, Quantiles sample union, Misra–Gries counter addition.
//!   The relaxation bound stays `r = 2Nb` for any `K` — writers, not
//!   shards, carry the relaxation, and every merge republishes its
//!   shard's image. Θ's shard image is published as chunked
//!   copy-on-write blocks (O(1) per publication, not O(retained)).
//! * The hint piggy-backed on `prop_i` (Θ itself for the Θ sketch) lets
//!   update threads pre-filter doomed updates (`shouldAdd`), which is
//!   what makes the design scale (Figure 1).
//! * For small streams the framework runs in the **eager** phase of
//!   §5.3 — updates go straight to the global sketch, serialised — so
//!   short streams suffer no relaxation error; it adapts to the buffered
//!   mode once the stream passes `2/e²` ([`config::ConcurrencyConfig`]).
//!
//! ## Instantiations
//!
//! There is one engine type, [`ConcurrentSketch`], and one writer type,
//! [`SketchWriter`]; each built-in family is a global sketch plus type
//! aliases of the two with a few inherent methods:
//!
//! * [`theta::ConcurrentThetaSketch`] — the concurrent Θ sketch the paper
//!   contributed to Apache DataSketches (§7's evaluation subject).
//! * [`quantiles::ConcurrentQuantilesSketch`] — the §6.2 instantiation.
//! * [`hll::ConcurrentHllSketch`] — an extra instantiation (future work
//!   per §8) with a novel min-register pre-filter hint.
//! * [`frequency::ConcurrentFrequencySketch`] — Misra–Gries heavy
//!   hitters with pre-aggregating local buffers.
//! * [`lock_based`] — the lock-protected baseline all figures compare
//!   against.
//!
//! Θ and HLL writers hash each stream item once and filter it on the
//! update thread through one shared kernel ([`hashed`]); the service
//! reaches every family through [`engine::StreamEngine`], one blanket
//! impl over [`engine::EngineGlobal`]. Implement
//! [`composable::GlobalSketch`]/[`composable::LocalSketch`] to
//! parallelise your own sketch: `ConcurrentSketch::start` runs it as is.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod composable;
pub mod config;
pub mod engine;
pub mod frequency;
pub mod hashed;
pub mod hll;
pub mod lock_based;
pub mod quantiles;
pub mod runtime;
pub mod sync;
pub mod theta;

pub use config::{ConcurrencyConfig, PropagationBackendKind};
pub use engine::{
    EngineBuilder, EngineGlobal, EngineWriter, Family, FrequencyFamily, HllFamily, QuantilesFamily,
    StreamEngine, ThetaFamily, WireImage,
};
pub use runtime::{ConcurrentSketch, FlushError, SketchWriter};

/// Test-only helpers shared by this crate's heavy suites and the facade
/// integration tests. Not part of the public API.
#[doc(hidden)]
pub mod test_support {
    /// Scales a stream size to the host's parallelism: the heavy
    /// multi-threaded suites are latency-bound on propagation hand-off
    /// when writers and propagators time-slice on few cores, so running
    /// quarter-size streams on a 1-CPU CI container keeps the same
    /// coverage at a quarter of the wall clock. Full size from 4 cores
    /// up; never scales below `n / 4`.
    pub fn scaled(n: u64) -> u64 {
        let par = std::thread::available_parallelism()
            .map(|p| p.get() as u64)
            .unwrap_or(1);
        (n * par.min(4) / 4).max(1)
    }

    /// A stream item that hashes to itself under every seed, so a test
    /// can put chosen hashes — a filter's edge cases — through the
    /// writers' fused batch kernels.
    #[cfg(test)]
    pub(crate) struct RawHash(pub u64);

    #[cfg(test)]
    impl fcds_sketches::hash::Hashable for RawHash {
        fn hash_with_seed(&self, _seed: u64) -> u64 {
            self.0
        }
    }
}
