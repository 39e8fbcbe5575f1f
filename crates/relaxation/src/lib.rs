//! # fcds-relaxation — relaxed consistency for concurrent data sketches
//!
//! The formal side of [*Fast Concurrent Data
//! Sketches*](https://arxiv.org/abs/1902.10995): the paper specifies its
//! concurrent sketches as **strongly linearisable with respect to an
//! r-relaxation** of the de-randomised sequential sketch (Definition 2,
//! Theorem 1) and then bounds the *error* the relaxation adds under weak
//! and strong adversaries (§6). This crate makes all three pieces
//! executable:
//!
//! * [`history`] — operation histories and a decision procedure for
//!   Definition 2 ("H is an r-relaxation of H′"), reproducing Figure 2.
//! * [`checker`] — a run-time checker for the concurrent Θ sketch: given
//!   the ingested stream and a query observation, decide whether the
//!   observation is admissible under the `r = 2Nb` relaxation. Used by
//!   integration tests to validate Lemma 1/Theorem 1 empirically on real
//!   multi-threaded executions.
//! * [`checker_hll`] — the exact checker for HyperLogLog answers, off
//!   the registers: every non-zero register is reached by an item of the
//!   prefix, and at most `r` items exceed theirs.
//! * [`checker_quantiles`] — the analogous checker for quantile queries,
//!   testing answers against the §6.2 envelope `(φ ± ε_r)·n`.
//! * [`adversary`] — Monte-Carlo simulation of the §6.1 adversaries
//!   (`A_s` knows the coin flips, `A_w` does not) over iid uniform
//!   hashes, regenerating Table 1 and Figures 3–4.
//! * [`orderstats`] — the closed-form order-statistics moments behind the
//!   analysis (`E[M₍ᵢ₎]`, `E[(k−1)/M₍ᵢ₎]`, RSE of the relaxed
//!   estimator).
//! * [`sharded`] — the relaxation under the K-way sharded engine: why
//!   `r = 2Nb` is shard-count independent, and the reference
//!   implementation of the query-time Θ shard merge the checker
//!   validates.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod adversary;
pub mod checker;
pub mod checker_hll;
pub mod checker_quantiles;
pub mod history;
pub mod orderstats;
pub mod sharded;
