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
//! * [`Checker`] — the run-time checker of Theorem 1 for any family:
//!   given the ingested stream and a query answer, decide whether some
//!   stream prefix in the query's window, with at most `r = 2Nb` of its
//!   items hidden, admits the answer. The window loop is written once;
//!   a family supplies an O(1) test per prefix. Every family rejects
//!   with one [`Violation`]. Used by integration tests to validate
//!   Lemma 1/Theorem 1 empirically on real multi-threaded executions.
//! * [`checker`] — the trait, [`Violation`], and the Θ checker.
//! * [`checker_hll`] — the exact checker for HyperLogLog answers, off
//!   the registers: every non-zero register is reached by an item of the
//!   prefix, and at most `r` items exceed theirs.
//! * [`checker_quantiles`] — the checker for quantile queries, testing
//!   answers against the §6.2 envelope `(φ ± ε_r)·n`.
//! * [`checker_mg`] — the checker for Misra–Gries answers, by bounds:
//!   the item count, every counter against its key's prefix count, and
//!   the items the counters and `error` leave uncounted.
//! * [`check_image`] — the one function that turns a served wire image
//!   into a verdict, for all four families.
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
pub mod checker_mg;
pub mod checker_quantiles;
pub mod history;
pub mod orderstats;
pub mod sharded;

pub use checker::{Checker, Verdict, Violation};

use checker::{length_in, ThetaChecker, ThetaObservation};
use checker_hll::HllChecker;
use checker_mg::{MgChecker, MgObservation};
use fcds_sketches::hash::Hashable;
use fcds_sketches::theta::{normalize_hash, theta_to_fraction};
use fcds_sketches::wire::{HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView};

/// Whether `image`, a `family` answer read while between `lo` and
/// `items.len()` of `items` were in, is what the sequential sketch
/// returns on some prefix `p ∈ [lo, items.len()]` with at most `r` of
/// its items hidden (Theorem 1). `lg_k` is the Θ sketch's.
///
/// Θ and HLL hash `items` as the engine does, with the image's seed, and
/// run their exact checkers; Misra–Gries runs [`MgChecker`] on the
/// image's counters. A Quantiles image is held to its item count `n`
/// alone: its rank envelope's ε is an empirical fit, not a bound.
///
/// # Errors
///
/// The [`Violation`] at `items.len()`; [`Violation::Malformed`] for an
/// image that does not parse or validate.
///
/// # Panics
///
/// Panics if `lo > items.len()`.
pub fn check_image(
    family: SketchFamily,
    image: &[u8],
    items: &[u64],
    lo: usize,
    r: u64,
    lg_k: u8,
) -> Verdict {
    let hi = items.len();
    assert!(lo <= hi, "bad window");
    let hashed = |seed: u64| items.iter().map(move |item| item.hash_with_seed(seed));
    match family {
        SketchFamily::Theta => {
            let view = ThetaWireView::parse(image)?;
            view.validate()?;
            let hashes: Vec<u64> = hashed(view.seed()).map(normalize_hash).collect();
            let retained = view.len() as u64;
            let obs = ThetaObservation {
                theta: view.theta(),
                retained,
                estimate: retained as f64 / theta_to_fraction(view.theta()),
            };
            ThetaChecker::new(1 << lg_k, r).check_window(&hashes, lo, hi, &obs)
        }
        SketchFamily::Hll => {
            let view = HllWireView::parse(image)?;
            view.validate()?;
            let hashes: Vec<u64> = hashed(view.seed()).collect();
            HllChecker::new(r).check_window(&hashes, lo, hi, view.registers())
        }
        SketchFamily::Quantiles => {
            let n = LadderWireView::<u64>::parse(image)?.n();
            length_in(n, lo.saturating_sub(r as usize) as u64, hi as u64)
        }
        SketchFamily::Frequency => {
            let view = MgWireView::<u64>::parse(image)?;
            let (n, error, counters) = (view.n(), view.error(), view.entries().collect());
            let obs = MgObservation { n, error, counters };
            MgChecker::new(r).check_window(items, lo, hi, &obs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_malformed_image_is_a_violation() {
        for family in [
            SketchFamily::Theta,
            SketchFamily::Hll,
            SketchFamily::Quantiles,
            SketchFamily::Frequency,
        ] {
            assert!(matches!(
                check_image(family, b"not an image", &[1, 2, 3], 3, 0, 12),
                Err(Violation::Malformed(_))
            ));
        }
    }
}
