//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary streams, parameters, and split points.

use fcds::relaxation::checker::{Checker, ThetaChecker, ThetaObservation};
use fcds::relaxation::history::{History, Op};
use fcds::sketches::hash::Hashable;
use fcds::sketches::quantiles::QuantilesSketch;
use fcds::sketches::theta::{
    normalize_hash, KmvThetaSketch, QuickSelectThetaSketch, ThetaRead, ThetaUnion,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KMV retains exactly the k smallest distinct hashes, for any stream.
    #[test]
    fn kmv_retains_k_smallest(values in prop::collection::vec(0u64..5_000, 1..2_000), k in 3usize..64) {
        let seed = 7;
        let mut sketch = KmvThetaSketch::new(k, seed).unwrap();
        for &v in &values {
            sketch.update(v);
        }
        let mut expected: Vec<u64> = values
            .iter()
            .map(|v| normalize_hash(v.hash_with_seed(seed)))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        expected.sort_unstable();
        expected.truncate(k);
        let mut got: Vec<u64> = sketch.hashes().collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Exact mode: both Θ families count distinct items exactly below k.
    #[test]
    fn exact_mode_counts_distinct(values in prop::collection::vec(0u64..200, 0..200)) {
        let distinct = values.iter().collect::<HashSet<_>>().len() as f64;
        let mut kmv = KmvThetaSketch::new(1024, 1).unwrap();
        let mut qs = QuickSelectThetaSketch::new(10, 1).unwrap();
        for &v in &values {
            kmv.update(v);
            qs.update(v);
        }
        prop_assert_eq!(kmv.estimate(), distinct);
        prop_assert_eq!(qs.estimate(), distinct);
    }

    /// Merging a split of a stream equals processing the whole stream
    /// (KMV state is a pure function of the distinct hash set).
    #[test]
    fn kmv_merge_split_invariance(
        values in prop::collection::vec(0u64..100_000, 1..3_000),
        split in 0usize..3_000,
    ) {
        let split = split.min(values.len());
        let seed = 3;
        let k = 64;
        let mut whole = KmvThetaSketch::new(k, seed).unwrap();
        for &v in &values {
            whole.update(v);
        }
        let mut left = KmvThetaSketch::new(k, seed).unwrap();
        let mut right = KmvThetaSketch::new(k, seed).unwrap();
        for &v in &values[..split] {
            left.update(v);
        }
        for &v in &values[split..] {
            right.update(v);
        }
        left.merge(&right).unwrap();
        let mut a: Vec<u64> = left.hashes().collect();
        let mut b: Vec<u64> = whole.hashes().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert_eq!(left.theta(), whole.theta());
    }

    /// Union estimate ≈ distinct count of the union, for arbitrary
    /// overlapping ranges.
    #[test]
    fn union_estimates_union(
        a_start in 0u64..50_000, a_len in 1u64..80_000,
        b_start in 0u64..50_000, b_len in 1u64..80_000,
    ) {
        let seed = 11;
        let mut sa = QuickSelectThetaSketch::new(10, seed).unwrap();
        let mut sb = QuickSelectThetaSketch::new(10, seed).unwrap();
        for v in a_start..a_start + a_len {
            sa.update(v);
        }
        for v in b_start..b_start + b_len {
            sb.update(v);
        }
        let mut u = ThetaUnion::new(10, seed).unwrap();
        u.update(&sa).unwrap();
        u.update(&sb).unwrap();
        let truth = {
            let (a0, a1) = (a_start, a_start + a_len);
            let (b0, b1) = (b_start, b_start + b_len);
            let overlap = a1.min(b1).saturating_sub(a0.max(b0));
            (a_len + b_len - overlap) as f64
        };
        let est = u.result().estimate();
        let rel = (est - truth).abs() / truth;
        prop_assert!(rel < 0.2, "union {est} vs truth {truth}");
    }

    /// The quantiles sketch's weight invariant holds for any stream, and
    /// every quantile it returns is an element of the stream.
    #[test]
    fn quantiles_weight_and_membership(
        values in prop::collection::vec(0u64..10_000, 1..4_000),
        k in 2usize..64,
        phi in 0.0f64..=1.0,
    ) {
        let mut q = QuantilesSketch::with_seed(k, 5).unwrap();
        for &v in &values {
            q.update(v);
        }
        prop_assert!(q.check_weight_invariant());
        let got = q.quantile(phi).unwrap();
        prop_assert!(values.contains(&got), "quantile {got} not in stream");
    }

    /// Rank and quantile are mutually consistent: rank(quantile(phi))
    /// is within the sketch's error of phi.
    #[test]
    fn quantiles_rank_round_trip(
        n in 100u64..20_000,
        phi in 0.05f64..=0.95,
    ) {
        let k = 128;
        let mut q = QuantilesSketch::<u64>::with_seed(k, 9).unwrap();
        for i in 0..n {
            q.update(i);
        }
        let v = q.quantile(phi).unwrap();
        let r = q.rank(&v);
        let eps = fcds::sketches::quantiles::epsilon_for_k(k);
        prop_assert!((r - phi).abs() < 4.0 * eps + 2.0 / n as f64,
            "phi={phi} rank={r}");
    }

    /// The relaxation checker accepts every prefix state of a sequential
    /// run with r = 0 (soundness on the happy path).
    #[test]
    fn checker_accepts_sequential_prefixes(
        n in 100u64..5_000,
        lg_k in 4u8..7,
        at in 1usize..5_000,
    ) {
        let seed = 13;
        let stream: Vec<u64> = (0..n).map(|i| normalize_hash(i.hash_with_seed(seed))).collect();
        let at = at.min(stream.len());
        let mut sketch = QuickSelectThetaSketch::new(lg_k, seed).unwrap();
        for &h in &stream[..at] {
            sketch.update_hash(h);
        }
        let obs = ThetaObservation {
            theta: sketch.theta(),
            retained: sketch.retained() as u64,
            estimate: sketch.estimate(),
        };
        let checker = ThetaChecker::new(1 << lg_k, 0);
        prop_assert!(checker.check_at(&stream, at, &obs).is_ok());
    }

    /// Any subsequence H of H′ obtained by deleting ≤ r elements is an
    /// r-relaxation of H′ (drop-only case of Definition 2).
    #[test]
    fn dropping_subsequence_is_relaxation(
        n in 1usize..40,
        keep_mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let mut h_prime = History::new();
        for i in 0..n as u64 {
            h_prime.push(i, Op::Update(i));
        }
        let mut h = History::new();
        let mut dropped = 0usize;
        for (i, keep) in keep_mask.iter().enumerate().take(n) {
            if *keep {
                h.push(i as u64, Op::Update(i as u64));
            } else {
                dropped += 1;
            }
        }
        prop_assert!(h.is_r_relaxation_of(&h_prime, dropped));
        if dropped > 0 {
            prop_assert!(!h.is_r_relaxation_of(&h_prime, dropped - 1));
        }
    }

    /// HLL merge is register-wise max: merge(A, B) estimates at least as
    /// much as each input and is symmetric.
    #[test]
    fn hll_merge_dominates_inputs(
        a_n in 1u64..20_000,
        b_n in 1u64..20_000,
    ) {
        use fcds::sketches::hll::HllSketch;
        let mut a = HllSketch::new(10, 3).unwrap();
        let mut b = HllSketch::new(10, 3).unwrap();
        for i in 0..a_n {
            a.update(i);
        }
        for i in 0..b_n {
            b.update(i + 1_000_000);
        }
        let (ea, eb) = (a.estimate(), b.estimate());
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.estimate() >= ea.max(eb) * 0.999);
    }
}
