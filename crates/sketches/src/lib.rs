//! # fcds-sketches — sequential data-sketch substrate
//!
//! This crate implements, from scratch, every *sequential* sketch the paper
//! [*Fast Concurrent Data Sketches*](https://arxiv.org/abs/1902.10995)
//! (PODC 2019) builds upon:
//!
//! * [`theta`] — Θ sketches for distinct counting: the KMV sketch of
//!   Algorithm 1 ([`theta::KmvThetaSketch`]), the quick-select family the
//!   paper evaluates ([`theta::QuickSelectThetaSketch`]), compact immutable
//!   sketches, and the set operations (union / intersection / A-not-B) that
//!   make Θ sketches *mergeable summaries*.
//! * [`quantiles`] — the mergeable Quantiles sketch of Agarwal et al.
//!   (PODS 2012), the paper's second instantiation (§6.2).
//! * [`hll`] — a HyperLogLog sketch (the artifact appendix exercises HLL;
//!   §8 names "other sketches" as future work for the framework).
//! * [`frequency`] — Misra–Gries heavy hitters, a fourth mergeable
//!   summary for exercising the concurrent framework's genericity.
//! * [`hash`] — MurmurHash3 (x64-128), the hash function used by Apache
//!   DataSketches, plus the [`hash::Hashable`] abstraction mapping stream
//!   items into the 64-bit hash domain.
//! * [`wire`] — the unified, versioned wire format: one self-describing
//!   envelope covering all four sketch families, with decoded images
//!   mergeable on nodes that never saw the streams ("sketch anywhere,
//!   merge anywhere").
//! * [`oracle`] — the de-randomisation oracle of §4: all coin flips and the
//!   hash-seed choice are drawn through an explicit oracle so that a sketch
//!   becomes a *deterministic* object with a sequential specification,
//!   which is what the r-relaxation of Definition 2 is defined against.
//!
//! Everything here is single-threaded; the concurrent machinery lives in
//! `fcds-core` and uses these types as building blocks via the composable
//! sketch interface.
//!
//! ## Hash domain conventions
//!
//! Like DataSketches, we work in the unsigned 64-bit hash domain: a stream
//! item is hashed to a `u64`, Θ is a `u64` threshold with `u64::MAX`
//! playing the role of 1.0, and a hash is *retained* iff `hash < theta`.
//! [`theta::theta_to_fraction`] converts to the `[0, 1]` real domain used
//! in the paper's analysis.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod error;
pub mod frequency;
pub mod hash;
pub mod hll;
pub mod oracle;
pub mod quantiles;
pub mod theta;
pub mod wire;

pub use error::{Result, SketchError, WireError};
