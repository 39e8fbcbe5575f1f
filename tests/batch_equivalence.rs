//! Batch/scalar ingestion equivalence: feeding the same stream through
//! `update` and `update_batch` must land every sketch in *identical*
//! sequential state — across random batch sizes including 0, 1, and
//! sizes beyond `b` (forcing hand-offs mid-batch), for all four
//! concurrent sketch front-ends, with and without the eager phase.
//!
//! Θ is the interesting case: the batched path hoists the hint per
//! chunk, so it may buffer hashes a fresher hint would have dropped —
//! but Θ monotonicity means the global sketch rejects exactly those
//! hashes at merge time, leaving the retained set and Θ trajectory
//! byte-identical. These tests pin that argument down end-to-end.

use fcds::core::PropagationBackendKind;
use fcds::sketches::theta::ThetaRead;
use fcds::{EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, ThetaFamily};
use proptest::prelude::*;

const SEED: u64 = 9001;

/// Deterministic batch-size schedule covering the required shapes:
/// empty batches, singletons, sub-`b`, exactly `b`, and far beyond `b`
/// (the default lazy `b` is 16).
fn batch_sizes(salt: u64) -> Vec<usize> {
    let base = [0usize, 1, 3, 7, 16, 17, 40, 129, 5, 0, 64, 2];
    let rot = (salt as usize) % base.len();
    let mut sizes: Vec<usize> = base[rot..].to_vec();
    sizes.extend_from_slice(&base[..rot]);
    sizes
}

/// Splits `items` per the schedule, looping it until the stream is
/// consumed, and feeds each slice to `feed`.
fn feed_in_batches<T>(items: &[T], salt: u64, mut feed: impl FnMut(&[T])) {
    let sizes = batch_sizes(salt);
    let mut pos = 0usize;
    let mut idx = 0usize;
    while pos < items.len() {
        let take = sizes[idx % sizes.len()].min(items.len() - pos);
        idx += 1;
        feed(&items[pos..pos + take]);
        pos += take;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Θ: identical (Θ, retained set, estimate) after quiesce, with and
    /// without the eager phase in the middle of the stream.
    #[test]
    fn theta_batched_equals_scalar(
        n in 3_000u64..30_000,
        salt in 0u64..12,
        eager in any::<bool>(),
        lg_k in 5u8..=10,
    ) {
        let e = if eager { 0.04 } else { 1.0 };
        let build = || EngineBuilder::<ThetaFamily>::new()
            .accuracy(usize::from(lg_k))
            .seed(SEED)
            .writers(1)
            .max_concurrency_error(e)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        let items: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();

        let scalar = build();
        {
            let mut w = scalar.writer();
            for &v in &items {
                w.update(v);
            }
        }
        scalar.quiesce();

        let batched = build();
        {
            let mut w = batched.writer();
            feed_in_batches(&items, salt, |chunk| w.update_batch(chunk));
        }
        batched.quiesce();

        let (cs, cb) = (scalar.compact(), batched.compact());
        prop_assert_eq!(cs.theta(), cb.theta(), "Θ diverged");
        prop_assert_eq!(cs.retained(), cb.retained());
        let mut hs: Vec<u64> = cs.hashes().collect();
        let mut hb: Vec<u64> = cb.hashes().collect();
        hs.sort_unstable();
        hb.sort_unstable();
        prop_assert_eq!(hs, hb, "retained sets diverged");
        prop_assert_eq!(scalar.snapshot(), batched.snapshot());
    }

    /// HLL: register-identical after quiesce (register max is a set
    /// union, so the min-register hint's staleness cannot show).
    #[test]
    fn hll_batched_equals_scalar(
        n in 3_000u64..30_000,
        salt in 0u64..12,
        eager in any::<bool>(),
    ) {
        let e = if eager { 0.04 } else { 1.0 };
        let build = || EngineBuilder::<HllFamily>::new()
            .accuracy(8)
            .seed(SEED)
            .writers(1)
            .max_concurrency_error(e)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        let items: Vec<u64> = (0..n).collect();

        let scalar = build();
        {
            let mut w = scalar.writer();
            for &v in &items {
                w.update(v);
            }
        }
        scalar.quiesce();

        let batched = build();
        {
            let mut w = batched.writer();
            feed_in_batches(&items, salt, |chunk| w.update_batch(chunk));
        }
        batched.quiesce();

        prop_assert_eq!(scalar.registers(), batched.registers());
        prop_assert_eq!(scalar.estimate(), batched.estimate());
    }

    /// Quantiles: same oracle seed + same item order ⇒ identical
    /// compaction decisions ⇒ every rank/quantile answer agrees exactly.
    #[test]
    fn quantiles_batched_equals_scalar(
        n in 2_000u64..20_000,
        salt in 0u64..12,
        eager in any::<bool>(),
    ) {
        let e = if eager { 0.04 } else { 1.0 };
        let build = || EngineBuilder::<QuantilesFamily>::new()
            .accuracy(64)
            .seed(SEED)
            .writers(1)
            .max_concurrency_error(e)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        let items: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();

        let scalar = build();
        {
            let mut w = scalar.writer();
            for &v in &items {
                w.update(v);
            }
        }
        scalar.quiesce();

        let batched = build();
        {
            let mut w = batched.writer();
            feed_in_batches(&items, salt, |chunk| w.update_batch(chunk));
        }
        batched.quiesce();

        let (rs, rb) = (scalar.snapshot(), batched.snapshot());
        prop_assert_eq!(rs.n(), rb.n());
        for phi in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            prop_assert_eq!(rs.quantile(phi), rb.quantile(phi), "phi = {}", phi);
        }
        for probe in (0..n).step_by((n as usize / 64).max(1)) {
            prop_assert_eq!(rs.rank(&probe), rb.rank(&probe), "rank({})", probe);
        }
    }

    /// Misra–Gries: identical counter tables, error slack, and stream
    /// length. Kept in exact mode (keyspace < k): once reductions kick
    /// in, the outcome depends on the pre-aggregating local map's drain
    /// order, which the std HashMap randomises per instance — so *no*
    /// two runs are byte-comparable there, scalar or batched. Exact
    /// mode is where the equality is well-defined, and it still crosses
    /// every batch boundary shape.
    #[test]
    fn frequency_batched_equals_scalar(
        n in 2_000u64..20_000,
        keyspace in 2u64..16,
        salt in 0u64..12,
        eager in any::<bool>(),
    ) {
        let e = if eager { 0.04 } else { 1.0 };
        let build = || EngineBuilder::<FrequencyFamily>::new()
            .accuracy(16)
            .writers(1)
            .max_concurrency_error(e)
            .backend(PropagationBackendKind::WriterAssisted)
            .build()
            .unwrap();
        let items: Vec<u64> = (0..n).map(|i| i % keyspace).collect();

        let scalar = build();
        {
            let mut w = scalar.writer();
            for &v in &items {
                w.update(v);
            }
        }
        scalar.quiesce();

        let batched = build();
        {
            let mut w = batched.writer();
            feed_in_batches(&items, salt, |chunk| w.update_batch(chunk));
        }
        batched.quiesce();

        let (ss, sb) = (scalar.snapshot(), batched.snapshot());
        prop_assert_eq!(ss.n, sb.n);
        prop_assert_eq!(ss.max_error, sb.max_error);
        let mut hs = ss.heavy_hitters(0);
        let mut hb = sb.heavy_hitters(0);
        hs.sort_by_key(|(k, _)| *k);
        hb.sort_by_key(|(k, _)| *k);
        prop_assert_eq!(hs, hb);
    }
}
