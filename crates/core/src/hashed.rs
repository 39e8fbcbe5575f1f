//! The hashing families' writer (Θ, HLL): a stream item is hashed once,
//! on the update thread, and only what the piggy-backed hint keeps is
//! buffered.
//!
//! Both families are [`ConcurrentSketch<G, Hashed>`]: the engine hands
//! its hash seed to every writer, and a [`SketchWriter<G, Hashed>`] has
//! its own `update` and `update_batch`, generic over the stream item
//! type. What differs between Θ and HLL is the local sketch's
//! [`HashedLocal`] hooks: the key a hash is buffered as, and the hint's
//! keep-predicate (Θ: `normalize_hash(h) < Θ`; HLL: `ρ(h) > m₀`) split
//! into a score and a test on it, so that one comparison can reject a
//! whole chunk.
//!
//! The batched path runs one kernel, written once and compiled twice:
//! `filter_chunk_body` is `#[inline(always)]`, so the baseline copy and
//! the AVX-512F/DQ/VL copy (`filter_chunk_avx512`, where LLVM turns
//! murmur3's 64-bit multiplies into `vpmullq` over eight lanes) are the
//! same source, and [`Avx512::detect`] picks one per `update_batch` call.

use crate::composable::{GlobalSketch, LocalSketch};
use crate::runtime::{ConcurrentSketch, SketchWriter};
use fcds_sketches::hash::{hash_batch_with_seed, Avx512, Hashable};

/// The item hashing of an engine whose writers hash stream items: the
/// hash seed, which update threads and mergeable peers must share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hashed(pub u64);

/// The local sketch of a hashing family: it buffers keys derived from
/// item hashes, and its `should_add` factors into a score and a test on
/// the score.
///
/// `should_add(hint, &key)` must equal `passes(hint, score(hint, key))`,
/// and `passes` must be downward closed: if a score passes, every smaller
/// score passes. Then a chunk whose smallest score fails keeps nothing.
pub trait HashedLocal: LocalSketch<Item = u64> {
    /// The key a hash is filtered and buffered as.
    fn key(hash: u64) -> u64;
    /// The key's score under `hint`.
    fn score(hint: Self::Hint, key: u64) -> u64;
    /// Whether a key of this score is kept under `hint`.
    fn passes(hint: Self::Hint, score: u64) -> bool;
}

impl<G: GlobalSketch> ConcurrentSketch<G, Hashed> {
    /// The hash seed (update threads and mergeable peers must share it).
    pub fn seed(&self) -> u64 {
        self.hashing.0
    }
}

impl<G: GlobalSketch> SketchWriter<G, Hashed>
where
    G::Local: HashedLocal,
{
    /// Processes one stream item: hashes it (once) and runs the
    /// `shouldAdd` pre-filter on its key before buffering.
    #[inline]
    pub fn update<T: Hashable>(&mut self, item: T) {
        self.put(<G::Local as HashedLocal>::key(
            item.hash_with_seed(self.hashing.0),
        ));
    }

    /// Processes a batch of stream items through the fused fast path:
    /// per chunk of 32 items, one hoisted hint read, then the kernel
    /// hashes the chunk, keys it and keeps what passes the hint (on CPUs
    /// with AVX-512F/DQ/VL, eight hashes per instruction), and the
    /// survivors are appended to the local buffer in one reserved extend,
    /// handing off at `b`-boundaries mid-batch or merging the chunk's
    /// rest inline (`SketchWriter::push_accepted`).
    ///
    /// Equivalent to calling [`Self::update`] once per item: the hint
    /// may go stale within a chunk, which is safe because hints are
    /// monotone (Θ only decreases, registers only grow) — a stale hint
    /// filters *less*, and the global sketch rejects the extra keys at
    /// merge time (see the [`crate::runtime`] module docs).
    pub fn update_batch<T: Hashable>(&mut self, items: &[T]) {
        let mut rest = items;
        // Eager phase (§5.3): scalar until the writer latches lazy.
        while !self.is_lazy() {
            let Some((first, tail)) = rest.split_first() else {
                return;
            };
            self.update(first);
            rest = tail;
        }
        let seed = self.hashing.0;
        if !self.prefilter_enabled() {
            // Ablated filter: hash, key and ship everything.
            let mut keys = [0u64; CHUNK];
            for chunk in rest.chunks(CHUNK) {
                let keys = &mut keys[..chunk.len()];
                hash_batch_with_seed(chunk, seed, keys);
                for k in keys.iter_mut() {
                    *k = <G::Local as HashedLocal>::key(*k);
                }
                self.push_accepted(keys);
            }
            return;
        }
        let lane = Avx512::detect();
        let mut survivors = [0u64; CHUNK];
        for chunk in rest.chunks(CHUNK) {
            // One hint read per chunk; flushes inside push_accepted
            // refresh it for the next chunk.
            let hint = self.hint();
            let kept = filter_chunk::<G::Local, T>(lane, chunk, seed, hint, &mut survivors);
            self.note_filtered((chunk.len() - kept) as u64);
            self.push_accepted(&survivors[..kept]);
        }
    }
}

/// Items per fused chunk of a hashing writer's `update_batch`.
const CHUNK: usize = 32;

/// The per-chunk step, written once: hashes `chunk` (≤ [`CHUNK`] items)
/// with `seed`, keys each hash, and compacts the keys that pass `hint`
/// into `survivors` in stream order, returning how many it kept.
///
/// Shaped to vectorise: the hash pass is a straight loop into a stack
/// array that also reduces the chunk's smallest score, and the
/// branchless compaction runs only when that score passes — once the
/// hint has tightened, almost every chunk stops after the hash pass.
/// `#[inline(always)]` so that each caller compiles its own copy: the
/// baseline one, and [`filter_chunk_avx512`].
#[inline(always)]
fn filter_chunk_body<L: HashedLocal, T: Hashable>(
    chunk: &[T],
    seed: u64,
    hint: L::Hint,
    survivors: &mut [u64; CHUNK],
) -> usize {
    let mut keys = [0u64; CHUNK];
    let mut min = u64::MAX;
    for (k, item) in keys.iter_mut().zip(chunk) {
        *k = L::key(item.hash_with_seed(seed));
        min = min.min(L::score(hint, *k));
    }
    if !L::passes(hint, min) {
        return 0;
    }
    let mut kept = 0;
    for &k in &keys[..chunk.len()] {
        survivors[kept] = k;
        kept += L::passes(hint, L::score(hint, k)) as usize;
    }
    kept
}

/// [`filter_chunk_body`] compiled for AVX-512F/DQ/VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn filter_chunk_avx512<L: HashedLocal, T: Hashable>(
    chunk: &[T],
    seed: u64,
    hint: L::Hint,
    survivors: &mut [u64; CHUNK],
) -> usize {
    filter_chunk_body::<L, T>(chunk, seed, hint, survivors)
}

/// Runs the copy of [`filter_chunk_body`] that `lane` allows.
#[inline]
fn filter_chunk<L: HashedLocal, T: Hashable>(
    lane: Option<Avx512>,
    chunk: &[T],
    seed: u64,
    hint: L::Hint,
    survivors: &mut [u64; CHUNK],
) -> usize {
    match lane {
        // SAFETY: `filter_chunk_avx512` needs AVX-512F/DQ/VL, and an
        // `Avx512` exists only once `Avx512::detect` confirmed them.
        #[cfg(target_arch = "x86_64")]
        Some(_) => unsafe { filter_chunk_avx512::<L, T>(chunk, seed, hint, survivors) },
        _ => filter_chunk_body::<L, T>(chunk, seed, hint, survivors),
    }
}

/// The differential harness for the fused kernel, shared by the Θ and
/// HLL suites (each checks its own predicate's edges).
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_support::RawHash;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const SEED: u64 = 9001;

    /// Runs the dispatched copy, the baseline copy and the one-at-a-time
    /// filter (`L::should_add` on each key, what the scalar `update`
    /// runs) on `chunk`, checks that each keeps `want`'s survivors in
    /// stream order, and returns what the two copies filtered.
    fn all_three<L: HashedLocal, T: Hashable>(
        lane: Option<Avx512>,
        chunk: &[T],
        hint: L::Hint,
        want: impl Fn(u64) -> Option<u64>,
    ) -> [usize; 2]
    where
        L::Hint: std::fmt::Debug,
    {
        let hashes = chunk.iter().map(|item| item.hash_with_seed(SEED));
        let want: Vec<u64> = hashes.clone().filter_map(want).collect();
        let one_at_a_time: Vec<u64> = hashes
            .map(L::key)
            .filter(|k| L::should_add(hint, k))
            .collect();
        assert_eq!(one_at_a_time, want, "one at a time: {hint:?}");
        let mut out = [[0u64; CHUNK]; 2];
        let kept = [
            filter_chunk::<L, T>(lane, chunk, SEED, hint, &mut out[0]),
            filter_chunk_body::<L, T>(chunk, SEED, hint, &mut out[1]),
        ];
        for (copy, (out, kept)) in ["dispatched", "baseline"].iter().zip(out.iter().zip(kept)) {
            assert_eq!(
                out[..kept],
                want[..],
                "{copy}: {hint:?}, {} items",
                chunk.len()
            );
        }
        kept.map(|k| chunk.len() - k)
    }

    /// The item generator of a kernel test, seeded and named in the
    /// test's output.
    pub(crate) fn item_rng() -> SmallRng {
        const ITEM_SEED: u64 = 0x7E7A_C0DE;
        println!(
            "filter lane: {}; items seeded {ITEM_SEED:#x}",
            Avx512::lane()
        );
        SmallRng::seed_from_u64(ITEM_SEED)
    }

    /// The copy this CPU runs (AVX-512 where present) against the
    /// baseline and the scalar path, under `hint`: every chunk length,
    /// random keys through the real hash and chosen `edges` as raw
    /// hashes; both copies must filter the same total. `want` maps a
    /// hash to the key kept for it, if any.
    pub(crate) fn every_length<L: HashedLocal>(
        rng: &mut SmallRng,
        hint: L::Hint,
        edges: &[u64],
        want: impl Fn(u64) -> Option<u64> + Copy,
    ) where
        L::Hint: std::fmt::Debug,
    {
        let lane = Avx512::detect();
        let mut filtered = [0usize; 2];
        for len in 0..=CHUNK {
            let keys: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            let raw: Vec<RawHash> = (0..len)
                .map(|_| RawHash(edges[rng.random_range(0..edges.len())]))
                .collect();
            for f in [
                all_three::<L, _>(lane, &keys, hint, want),
                all_three::<L, _>(lane, &raw, hint, want),
            ] {
                filtered[0] += f[0];
                filtered[1] += f[1];
            }
        }
        assert_eq!(filtered[0], filtered[1], "filtered total, {hint:?}");
    }
}
