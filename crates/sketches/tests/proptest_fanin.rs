//! Property tests: every multiway fan-in kernel is result-identical to
//! the reference pairwise decode-and-fold oracle.
//!
//! The oracle here is an *explicit* `from_wire_bytes` + `wire_merge_from`
//! fold — deliberately not `merge_wire_images`, which now routes through
//! the kernels under test. Coverage includes item duplicates across
//! images (overlapping node ranges), empty sketches, and empty and
//! singleton fan-ins. Misra–Gries
//! is byte-identical in exact mode (distinct items ≤ k); in overflow
//! mode both folds are valid summaries of the union stream, so the
//! kernel is held to the mergeable-summaries contract instead: same `n`,
//! error within `n/(k+1)`, and every replayed truth inside its bounds.

use bytes::Bytes;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::hll::HllSketch;
use fcds_sketches::quantiles::{QuantilesLadder, QuantilesSketch};
use fcds_sketches::theta::{CompactThetaSketch, QuickSelectThetaSketch};
use fcds_sketches::wire::{
    hll_multiway_merge, ladder_multiway_concat, mg_multiway_merge, theta_multiway_union,
    WireEncode, WireMerge,
};
use fcds_sketches::WireError;
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference oracle: decode every image, fold pairwise — exactly
/// what `merge_wire_images` did before the multiway kernels existed.
fn pairwise_fold<W: WireMerge>(images: &[Bytes]) -> Result<W, WireError> {
    let (first, rest) = images
        .split_first()
        .ok_or_else(|| WireError::invariant("merge", "no images to merge"))?;
    let mut acc = W::from_wire_bytes(first)?;
    for image in rest {
        let part = W::from_wire_bytes(image)?;
        acc.wire_merge_from(&part)?;
    }
    Ok(acc)
}

/// Every kernel must reject an empty fan-in with the same invariant the
/// pairwise path reports.
#[test]
fn empty_fanin_is_rejected_by_every_kernel() {
    let none: Vec<Bytes> = Vec::new();
    let err = theta_multiway_union(&none).unwrap_err();
    assert!(err.to_string().contains("no images"), "{err}");
    let err = hll_multiway_merge(&none).unwrap_err();
    assert!(err.to_string().contains("no images"), "{err}");
    let err = ladder_multiway_concat::<u64, _>(&none).unwrap_err();
    assert!(err.to_string().contains("no images"), "{err}");
    let err = mg_multiway_merge::<u64, _>(&none).unwrap_err();
    assert!(err.to_string().contains("no images"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Θ: k-way loser-tree union over sorted images — byte-identical to
    /// the pairwise untrimmed-union fold.
    /// Overlapping node ranges plant duplicate hashes across images;
    /// `n = 0` nodes plant empty sketches; a single node exercises the
    /// singleton fan-in.
    #[test]
    fn theta_multiway_matches_pairwise_oracle(
        nodes in prop::collection::vec((0u64..2_000, 0u64..4_000), 1..6),
        lg_k in 4u8..7,
        seed in 0u64..100,
    ) {
        let images: Vec<Bytes> = nodes
            .iter()
            .map(|&(start, n)| {
                let mut s = QuickSelectThetaSketch::new(lg_k, seed).unwrap();
                for i in 0..n {
                    s.update(start + i);
                }
                s.compact().to_wire_bytes()
            })
            .collect();
        let oracle: CompactThetaSketch = pairwise_fold(&images).unwrap();
        let kernel = theta_multiway_union(&images).unwrap();
        prop_assert_eq!(kernel.to_wire_bytes(), oracle.to_wire_bytes());
    }

    /// HLL: the payload-byte register-max fold equals the pairwise
    /// decode-and-join fold exactly (register-wise max is a lattice
    /// join; images share lg_m and seed).
    #[test]
    fn hll_multiway_matches_pairwise_oracle(
        nodes in prop::collection::vec((0u64..2_000, 0u64..3_000), 1..6),
        lg_m in 4u8..8,
        seed in 0u64..100,
    ) {
        let images: Vec<Bytes> = nodes
            .iter()
            .map(|&(start, n)| {
                let mut s = HllSketch::new(lg_m, seed).unwrap();
                for i in 0..n {
                    s.update(start + i);
                }
                s.to_wire_bytes()
            })
            .collect();
        let oracle: HllSketch = pairwise_fold(&images).unwrap();
        let kernel = hll_multiway_merge(&images).unwrap();
        prop_assert_eq!(kernel.to_wire_bytes(), oracle.to_wire_bytes());
    }

    /// Quantiles: splicing borrowed runs from the raw images yields a
    /// ladder byte-identical to the pairwise decode-and-concat fold
    /// (runs keep image order; min/max/n fold the same way).
    #[test]
    fn ladder_multiway_matches_pairwise_oracle(
        nodes in prop::collection::vec((0u64..2_000, 0u64..3_000), 1..6),
        k in 2usize..64,
        seed in 0u64..100,
    ) {
        let images: Vec<Bytes> = nodes
            .iter()
            .map(|&(start, n)| {
                let mut s = QuantilesSketch::<u64>::with_seed(k, seed).unwrap();
                for i in 0..n {
                    s.update(start + i);
                }
                s.ladder().to_wire_bytes()
            })
            .collect();
        let oracle: QuantilesLadder<u64> = pairwise_fold(&images).unwrap();
        let kernel: QuantilesLadder<u64> = ladder_multiway_concat(&images).unwrap();
        prop_assert_eq!(kernel.to_wire_bytes(), oracle.to_wire_bytes());
    }

    /// Misra–Gries, exact mode: with distinct items ≤ k no reduction
    /// ever fires, so accumulate-then-reduce and the pairwise fold
    /// retain identical counters — byte-identical images.
    #[test]
    fn mg_multiway_exact_mode_matches_pairwise_oracle(
        nodes in prop::collection::vec(0u64..3_000, 1..6),
        k in 8usize..64,
        domain_frac in 1usize..8,
    ) {
        let domain = (k / domain_frac).max(1) as u64;
        let images: Vec<Bytes> = nodes
            .iter()
            .map(|&n| {
                let mut s = MisraGriesSketch::<u64>::new(k).unwrap();
                for i in 0..n {
                    s.update(i % domain);
                }
                s.to_wire_bytes()
            })
            .collect();
        let oracle: MisraGriesSketch<u64> = pairwise_fold(&images).unwrap();
        let kernel: MisraGriesSketch<u64> = mg_multiway_merge(&images).unwrap();
        prop_assert_eq!(kernel.to_wire_bytes(), oracle.to_wire_bytes());
    }

    /// Misra–Gries, overflow mode: reductions fire, so retained counters
    /// may legitimately differ from the pairwise fold's — but the kernel
    /// must still be a valid summary of the union stream: same `n`,
    /// error within the mergeable-summaries bound `n/(k+1)`, and every
    /// replayed true count inside its `[lower, upper]` bracket.
    #[test]
    fn mg_multiway_overflow_mode_respects_bounds(
        nodes in prop::collection::vec((0u64..500, 100u64..2_000), 1..6),
        k in 4usize..16,
    ) {
        let domain = 4 * k as u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let images: Vec<Bytes> = nodes
            .iter()
            .map(|&(start, n)| {
                let mut s = MisraGriesSketch::<u64>::new(k).unwrap();
                for i in 0..n {
                    let item = (start + i) % domain;
                    s.update(item);
                    *truth.entry(item).or_insert(0) += 1;
                }
                s.to_wire_bytes()
            })
            .collect();
        let oracle: MisraGriesSketch<u64> = pairwise_fold(&images).unwrap();
        let kernel: MisraGriesSketch<u64> = mg_multiway_merge(&images).unwrap();
        prop_assert_eq!(kernel.n(), oracle.n());
        let bound = kernel.n() as f64 / (k as f64 + 1.0);
        prop_assert!(
            kernel.max_error() as f64 <= bound,
            "error {} above mergeable-summaries bound {bound}",
            kernel.max_error(),
        );
        for (item, &count) in &truth {
            let est = kernel.estimate(item);
            prop_assert!(
                est.lower_bound <= count && count <= est.upper_bound,
                "item {item}: truth {count} outside [{}, {}]",
                est.lower_bound,
                est.upper_bound,
            );
        }
    }
}
