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
//! * [`check_images`] — the one function that turns served wire images
//!   of one stream into verdicts, for all four families, with one walk
//!   of the stream per family ([`check_image`] for a single read).
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
/// its items hidden (Theorem 1): [`check_images`] of one read.
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
    check_images(family, items, &[(image, lo, items.len())], r, lg_k)
        .pop()
        .expect("one verdict per read")
}

/// The verdict on each of many `family` reads of one stream, in order.
/// A read `(image, lo, hi)` was taken while between `lo` and `hi` of
/// `items` were in, and is admissible iff it is what the sequential
/// sketch returns on some prefix `p ∈ [lo, hi]` with at most `r` of its
/// items hidden (Theorem 1). `lg_k` is the Θ sketch's.
///
/// Θ and HLL hash `items` as the engine does, once per seed the images
/// carry, and run their exact checkers; Misra–Gries runs [`MgChecker`]
/// on the images' counters. Each family's reads share one walk of the
/// stream ([`Checker::check_many`]). A Quantiles image is held to its
/// item count `n` alone: its rank envelope's ε is an empirical fit, not
/// a bound. An image that does not parse or validate gets
/// [`Violation::Malformed`].
///
/// # Panics
///
/// Panics if a window is not inside `items`.
pub fn check_images(
    family: SketchFamily,
    items: &[u64],
    reads: &[(&[u8], usize, usize)],
    r: u64,
    lg_k: u8,
) -> Vec<Verdict> {
    for &(_, lo, hi) in reads {
        assert!(lo <= hi && hi <= items.len(), "bad window");
    }
    let hashed = |seed: u64| items.iter().map(move |item| item.hash_with_seed(seed));
    match family {
        SketchFamily::Theta => {
            let parsed: Vec<_> = reads
                .iter()
                .map(|&(image, ..)| {
                    let view = ThetaWireView::parse(image)?;
                    view.validate()?;
                    let retained = view.len() as u64;
                    let obs = ThetaObservation {
                        theta: view.theta(),
                        retained,
                        estimate: retained as f64 / theta_to_fraction(view.theta()),
                    };
                    Ok((view.seed(), obs))
                })
                .collect();
            let checker = ThetaChecker::new(1 << lg_k, r);
            walk_per_seed(&checker, reads, &parsed, |seed| {
                hashed(seed).map(normalize_hash).collect()
            })
        }
        SketchFamily::Hll => {
            let parsed: Vec<_> = reads
                .iter()
                .map(|&(image, ..)| {
                    let view = HllWireView::parse(image)?;
                    view.validate()?;
                    Ok((view.seed(), view.registers()))
                })
                .collect();
            walk_per_seed(&HllChecker::new(r), reads, &parsed, |seed| {
                hashed(seed).collect()
            })
        }
        SketchFamily::Quantiles => reads
            .iter()
            .map(|&(image, lo, hi)| {
                let n = LadderWireView::<u64>::parse(image)?.n();
                length_in(n, lo.saturating_sub(r as usize) as u64, hi as u64)
            })
            .collect(),
        SketchFamily::Frequency => {
            let parsed: Vec<_> = reads
                .iter()
                .map(|&(image, ..)| {
                    let view = MgWireView::<u64>::parse(image)?;
                    let (n, error, counters) = (view.n(), view.error(), view.entries().collect());
                    Ok((0, MgObservation { n, error, counters }))
                })
                .collect();
            walk_per_seed(&MgChecker::new(r), reads, &parsed, |_| items.to_vec())
        }
    }
}

/// Runs `checker` over the reads whose images `parsed` into
/// `(seed, answer)`, one [`Checker::check_many`] walk per distinct seed
/// over the stream `stream_for(seed)`, and returns every read's verdict
/// in order — a parse failure as its own.
fn walk_per_seed<C, A>(
    checker: &C,
    reads: &[(&[u8], usize, usize)],
    parsed: &[Result<(u64, A), Violation>],
    stream_for: impl Fn(u64) -> Vec<u64>,
) -> Vec<Verdict>
where
    C: Checker<u64>,
    A: std::borrow::Borrow<C::Answer>,
{
    let mut verdicts: Vec<Verdict> = parsed
        .iter()
        .map(|p| p.as_ref().map(|_| ()).map_err(Clone::clone))
        .collect();
    let mut seeds: Vec<u64> = parsed.iter().flatten().map(|(seed, _)| *seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    for seed in seeds {
        let (at, windows): (Vec<usize>, Vec<_>) = parsed
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Ok((s, answer)) if *s == seed => {
                    Some((i, (reads[i].1, reads[i].2, answer.borrow())))
                }
                _ => None,
            })
            .unzip();
        let verdicts_for_seed = checker.check_many(&stream_for(seed), &windows);
        for (i, verdict) in at.into_iter().zip(verdicts_for_seed) {
            verdicts[i] = verdict;
        }
    }
    verdicts
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

    #[test]
    fn each_read_of_a_stream_gets_its_own_verdict() {
        use fcds_sketches::frequency::MisraGriesSketch;
        use fcds_sketches::wire::WireEncode;
        let items: Vec<u64> = (0..5_000u64).map(|i| i % 97 % (1 + i % 5)).collect();
        let image_at = |p: usize| {
            let mut mg = MisraGriesSketch::new(16).unwrap();
            items[..p].iter().for_each(|&item| mg.update(item));
            mg.to_wire_bytes()
        };
        let (early, late) = (image_at(1_000), image_at(4_000));
        let reads: [(&[u8], usize, usize); 4] = [
            (&late, 3_990, 4_010),
            (b"not an image", 0, 10),
            (&early, 2_000, 2_000),
            (&early, 990, 1_000),
        ];
        let verdicts = check_images(SketchFamily::Frequency, &items, &reads, 16, 12);
        assert!(verdicts[0].is_ok(), "{:?}", verdicts[0]);
        assert!(matches!(verdicts[1], Err(Violation::Malformed(_))));
        assert!(matches!(
            verdicts[2],
            Err(Violation::LengthOutOfRange { .. })
        ));
        assert!(verdicts[3].is_ok(), "{:?}", verdicts[3]);
    }
}
