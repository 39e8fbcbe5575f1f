//! The r-relaxation under **sharding** — why `r = 2Nb` is independent of
//! the shard count `K`.
//!
//! The sharded engine splits the global sketch into `K` independent
//! instances; each of the `N` writers is keyed onto exactly one shard and
//! queries merge all shard images. Theorem 1's accounting carries over
//! unchanged because the relaxation is carried by *writers*, not shards:
//! a query can miss at most the updates sitting in writers' in-flight
//! buffers, and each writer owns at most two buffers of size `b` (one
//! handed off, one being filled) no matter which shard it feeds. Summing
//! over writers gives `r = 2Nb` for any `K`; with double buffering
//! disabled each writer owns one in-flight buffer and `r = Nb`.
//!
//! For the Θ sketch the query-time merge is the *untrimmed union*
//! ([`fcds_sketches::theta::untrimmed_union`]): joint `Θ = min Θᵢ` and
//! every retained hash below it. Because each shard's retained set is
//! exactly `{h ∈ seenᵢ : h < Θᵢ}` and `Θ ≤ Θᵢ`, the union's retained set
//! is exactly `{h ∈ ∪ seenᵢ : h < Θ}` — the state of a single sequential
//! sketch with threshold `Θ` over the concatenated stream, minus at most
//! the `r` in-flight updates. A merged observation therefore satisfies
//! the *same* admissibility conditions
//! [`ThetaChecker`](crate::checker::ThetaChecker) tests for a
//! single-global execution, which is what lets one checker serve both
//! layouts. [`merged_observation`] is the executable specification of
//! that merge; `fcds-core`'s query path computes the identical triple.
//!
//! The engine republishes a shard's image on every merge, so nothing is
//! merged into a shard's global yet missing from its image: `r = 2Nb`
//! (`fcds-core`'s `ConcurrencyConfig::relaxation`) is the whole bound a
//! merged query satisfies, and a quiesced engine is admissible at
//! `r = 0`.

use crate::checker::ThetaObservation;
use fcds_sketches::error::Result;
use fcds_sketches::theta::{untrimmed_union, CompactThetaSketch, ThetaRead};

/// Merges per-shard compact Θ images into the query observation a
/// sharded engine publishes: joint `Θ = min Θᵢ`, retained = all distinct
/// hashes below it, estimate = `retained / Θ`.
///
/// This mirrors `fcds-core`'s sharded Θ query path exactly, so checker
/// tests can validate merged observations against the full interleaved
/// stream with the ordinary `r = 2Nb` bound.
///
/// # Errors
///
/// Propagates [`untrimmed_union`]'s errors (seed mismatch, empty input).
pub fn merged_observation<'a>(
    shards: impl IntoIterator<Item = &'a CompactThetaSketch>,
) -> Result<ThetaObservation> {
    let union = untrimmed_union(shards)?;
    Ok(ThetaObservation {
        theta: union.theta(),
        retained: union.retained() as u64,
        estimate: union.estimate(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Checker, ThetaChecker};
    use fcds_sketches::hash::Hashable;
    use fcds_sketches::theta::{normalize_hash, QuickSelectThetaSketch};

    const SEED: u64 = 77;

    fn hashed_stream(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| normalize_hash(i.hash_with_seed(SEED)))
            .collect()
    }

    /// Feeds `stream[..preceding]` round-robin into `k_shards` sequential
    /// sketches, optionally withholding the last `hide_per_shard` updates
    /// of each shard (the "in-flight buffer" of its writer).
    fn shard_images(
        stream: &[u64],
        preceding: usize,
        k_shards: usize,
        lg_k: u8,
        hide_per_shard: usize,
    ) -> Vec<CompactThetaSketch> {
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); k_shards];
        for (i, &h) in stream[..preceding].iter().enumerate() {
            per_shard[i % k_shards].push(h);
        }
        per_shard
            .into_iter()
            .map(|hashes| {
                let mut s = QuickSelectThetaSketch::new(lg_k, SEED).unwrap();
                let visible = hashes.len().saturating_sub(hide_per_shard);
                for &h in &hashes[..visible] {
                    s.update_hash(h);
                }
                s.compact()
            })
            .collect()
    }

    #[test]
    fn merged_shards_are_a_0_relaxation_at_quiescence() {
        // With nothing in flight, the merged observation must pass the
        // checker with r = 0 — the merge itself adds no relaxation.
        let stream = hashed_stream(60_000);
        for k_shards in [1usize, 2, 4] {
            let images = shard_images(&stream, stream.len(), k_shards, 6, 0);
            let obs = merged_observation(images.iter()).unwrap();
            ThetaChecker::new(64, 0)
                .check_at(&stream, stream.len(), &obs)
                .unwrap_or_else(|v| panic!("K = {k_shards}: {v}"));
        }
    }

    #[test]
    fn in_flight_buffers_stay_within_2nb_for_any_shard_count() {
        // N = 4 writers with b = 8: each writer may hide up to 2b = 16
        // updates, r = 2Nb = 64 in total — regardless of K. Model the
        // worst case by withholding 2b updates per writer (here one
        // writer per shard ⇒ hide 2b per shard, total ≤ r for K ≤ N).
        let stream = hashed_stream(80_000);
        let b = 8usize;
        let writers = 4usize;
        let r = (2 * writers * b) as u64;
        for k_shards in [1usize, 2, 4] {
            // Round-robin across writers; writers map onto shards evenly,
            // so hiding (writers / k_shards) · 2b per shard models all
            // writers' in-flight buffers.
            let hide_per_shard = (writers / k_shards) * 2 * b;
            let images = shard_images(&stream, stream.len(), k_shards, 6, hide_per_shard);
            let obs = merged_observation(images.iter()).unwrap();
            ThetaChecker::new(64, r)
                .check_at(&stream, stream.len(), &obs)
                .unwrap_or_else(|v| panic!("K = {k_shards}: {v}"));
        }
    }

    #[test]
    fn hiding_more_than_r_is_rejected() {
        // Withholding more than r *relevant* updates must be caught: in
        // exact mode (k larger than the stream) every hidden update is
        // below Θ = 1, so hiding 4·500 = 2000 > r = 64 of them leaves
        // the merged retained count short of C(Θ) − r.
        let stream = hashed_stream(8_000);
        let r = 64u64;
        let images = shard_images(&stream, stream.len(), 4, 12, 500);
        let obs = merged_observation(images.iter()).unwrap();
        assert!(
            ThetaChecker::new(4096, r)
                .check_at(&stream, stream.len(), &obs)
                .is_err(),
            "2000 hidden updates accepted under r = 64"
        );
    }

    #[test]
    fn merged_observation_of_single_shard_is_the_shard() {
        let stream = hashed_stream(30_000);
        let mut s = QuickSelectThetaSketch::new(6, SEED).unwrap();
        for &h in &stream {
            s.update_hash(h);
        }
        let c = s.compact();
        let obs = merged_observation([&c]).unwrap();
        assert_eq!(obs.theta, c.theta());
        assert_eq!(obs.retained, c.retained() as u64);
        assert_eq!(obs.estimate, c.estimate());
    }

    #[test]
    fn mid_stream_windowed_check_accepts_merged_observations() {
        // A merged observation taken at prefix p must be admissible in
        // any window containing p, mirroring how concurrent queries are
        // validated.
        let stream = hashed_stream(50_000);
        let p = 30_000usize;
        let images = shard_images(&stream, p, 2, 6, 0);
        let obs = merged_observation(images.iter()).unwrap();
        ThetaChecker::new(64, 0)
            .check_window(&stream, 29_000, 31_000, &obs)
            .unwrap();
    }
}
