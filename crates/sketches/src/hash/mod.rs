//! Hashing layer: MurmurHash3 plus the [`Hashable`] abstraction that maps
//! stream items into the 64-bit hash domain shared by all sketches.
//!
//! The paper models the hash function as "a random hash function h whose
//! outputs are uniformly distributed in the range [0, 1]" (§3). We work in
//! the integer domain instead: outputs are uniform in `0..=u64::MAX` and
//! `u64::MAX` plays the role of 1.0. The *seed* of the hash function is the
//! random choice the de-randomisation oracle of §4 fixes.

pub mod murmur3;

pub use murmur3::{murmur3_64, murmur3_64_fixed, murmur3_64_u64, murmur3_x64_128};

use std::sync::atomic::{compiler_fence, Ordering};

/// The default hash seed, matching Apache DataSketches' update seed
/// (9001) so that behaviour is recognisable to users of the Java library.
pub const DEFAULT_SEED: u64 = 9001;

/// Types that can be fed into a sketch.
///
/// An implementation must be a *pure function of the value*: two equal
/// items must produce identical hashes for every seed, and unequal items
/// should collide only with probability ~2⁻⁶⁴. All implementations below
/// delegate to MurmurHash3 of a canonical byte encoding.
///
/// # Examples
///
/// ```
/// use fcds_sketches::hash::{Hashable, DEFAULT_SEED};
///
/// let a = 17u64.hash_with_seed(DEFAULT_SEED);
/// let b = 17u64.hash_with_seed(DEFAULT_SEED);
/// assert_eq!(a, b);
/// ```
pub trait Hashable {
    /// Hashes `self` into the 64-bit hash domain under the given seed.
    fn hash_with_seed(&self, seed: u64) -> u64;
}

/// Proof that this CPU runs the AVX-512 copies of the batch kernels:
/// AVX-512F and DQ (`vpmullq`, eight 64-bit multiplies per instruction,
/// the murmur3 mixers' bottleneck) plus VL for the narrower vectors.
/// [`Avx512::detect`] is the only way to get one, so code holding one
/// may call a `#[target_feature(enable = "avx512f,avx512dq,avx512vl")]`
/// function.
#[derive(Debug, Clone, Copy)]
pub struct Avx512(());

impl Avx512 {
    /// `Some` when the CPU has AVX-512F, DQ and VL. The standard
    /// library caches the CPUID read, so a call is a few loads.
    #[inline]
    pub fn detect() -> Option<Avx512> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Some(Avx512(()));
        }
        None
    }

    /// Which copy of the batch kernels this CPU runs: `"avx512"` or
    /// `"baseline"`.
    pub fn lane() -> &'static str {
        match Avx512::detect() {
            Some(_) => "avx512",
            None => "baseline",
        }
    }
}

impl Hashable for u64 {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        // Fixed-width lane: byte-identical to hashing the LE bytes, with
        // the generic block/tail dispatch resolved away.
        murmur3_64_u64(*self, seed)
    }
}

impl Hashable for i64 {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        murmur3_64_u64(*self as u64, seed)
    }
}

impl Hashable for u32 {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        (*self as u64).hash_with_seed(seed)
    }
}

impl Hashable for i32 {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        (*self as i64).hash_with_seed(seed)
    }
}

impl Hashable for f64 {
    /// Hashes the canonical bit pattern; `-0.0` is canonicalised to `0.0`
    /// so that numerically equal keys hash equally.
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        let canonical = if *self == 0.0 { 0.0f64 } else { *self };
        murmur3_64_u64(canonical.to_bits(), seed)
    }
}

impl Hashable for str {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        murmur3_64(self.as_bytes(), seed)
    }
}

impl Hashable for String {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        self.as_str().hash_with_seed(seed)
    }
}

impl Hashable for [u8] {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        murmur3_64(self, seed)
    }
}

/// Fixed-width byte keys (IP addresses, UUIDs, packed composites) hash
/// byte-identically to the equivalent `[u8]` slice, but sub-block widths
/// take the const-unrolled [`murmur3_64_fixed`] lane.
impl<const N: usize> Hashable for [u8; N] {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        murmur3_64_fixed(self, seed)
    }
}

impl Hashable for Vec<u8> {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        murmur3_64(self, seed)
    }
}

impl<T: Hashable + ?Sized> Hashable for &T {
    #[inline]
    fn hash_with_seed(&self, seed: u64) -> u64 {
        (**self).hash_with_seed(seed)
    }
}

/// Hashes a slice of items into `out[..items.len()]`.
///
/// This is the batched hash lane: the ship-all ingestion path hashes a
/// whole chunk here. For fixed-width items (`u64`, `i64`, `f64`) each
/// lane is the block-free [`murmur3_64_u64`], and on CPUs with
/// AVX-512F/DQ/VL (see [`Avx512`]) eight of them run per instruction.
/// Every other CPU runs the baseline copy; both give the same hashes.
///
/// # Panics
///
/// Panics if `out` is shorter than `items`.
#[allow(unsafe_code)]
pub fn hash_batch_with_seed<T: Hashable>(items: &[T], seed: u64, out: &mut [u64]) {
    assert!(
        out.len() >= items.len(),
        "output buffer shorter than input: {} < {}",
        out.len(),
        items.len()
    );
    let out = &mut out[..items.len()];
    #[cfg(target_arch = "x86_64")]
    if Avx512::detect().is_some() {
        // SAFETY: `hash_lanes_avx512` needs AVX-512F/DQ/VL, which
        // `Avx512::detect` just confirmed.
        unsafe { hash_lanes_avx512(items, seed, out) };
        return;
    }
    hash_lanes(items, seed, out);
}

/// The batch hash, written once: `items` into `out` (of the same
/// length) in groups of eight independent lanes. `#[inline(always)]` so
/// that each caller compiles its own copy for its own target features:
/// inside [`hash_lanes_avx512`] a group's murmur3 multiplies become one
/// `vpmullq` each; in the baseline copy a group is eight scalar chains
/// the core overlaps.
///
/// The shape is what keeps both copies fast. A plain per-item loop gets
/// vectorised in the baseline copy too, with SSE2's emulated 64-bit
/// multiply, at half the speed; groups of eight stay scalar there. And
/// the compiler fence between groups keeps LLVM's loop vectoriser off
/// the loop over groups — in the AVX-512 copy it would gather lanes
/// across groups — so each group is packed into one vector as it
/// stands. The fence emits no instruction.
#[inline(always)]
fn hash_lanes<T: Hashable>(items: &[T], seed: u64, out: &mut [u64]) {
    debug_assert_eq!(out.len(), items.len());
    let (in_groups, in_rest) = items.as_chunks::<8>();
    let (out_groups, out_rest) = out.as_chunks_mut::<8>();
    for (hashes, group) in out_groups.iter_mut().zip(in_groups) {
        for (h, item) in hashes.iter_mut().zip(group) {
            *h = item.hash_with_seed(seed);
        }
        compiler_fence(Ordering::SeqCst);
    }
    for (h, item) in out_rest.iter_mut().zip(in_rest) {
        *h = item.hash_with_seed(seed);
    }
}

/// [`hash_lanes`] compiled for AVX-512F/DQ/VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn hash_lanes_avx512<T: Hashable>(items: &[T], seed: u64, out: &mut [u64]) {
    hash_lanes(items, seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_and_i64_with_same_bits_hash_equal() {
        // Both encode as the same 8 LE bytes.
        assert_eq!(
            5u64.hash_with_seed(DEFAULT_SEED),
            5i64.hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn u32_widens_to_u64() {
        assert_eq!(
            7u32.hash_with_seed(DEFAULT_SEED),
            7u64.hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn negative_zero_canonicalised() {
        assert_eq!(
            (-0.0f64).hash_with_seed(DEFAULT_SEED),
            0.0f64.hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn str_and_string_agree() {
        let s = String::from("hello sketch");
        assert_eq!(
            s.hash_with_seed(DEFAULT_SEED),
            "hello sketch".hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn reference_delegates() {
        let v = 99u64;
        assert_eq!(
            v.hash_with_seed(DEFAULT_SEED),
            v.hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn bytes_and_str_with_same_content_agree() {
        let b: &[u8] = b"abc";
        assert_eq!(
            b.hash_with_seed(DEFAULT_SEED),
            "abc".hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn byte_arrays_agree_with_slices() {
        // The fixed-width array lane must be indistinguishable from
        // hashing the same bytes as a slice (sub-block and block widths).
        let ip4: [u8; 4] = [10, 0, 0, 7];
        let uuid: [u8; 16] = *b"0123456789abcdef";
        assert_eq!(
            ip4.hash_with_seed(DEFAULT_SEED),
            ip4[..].hash_with_seed(DEFAULT_SEED)
        );
        assert_eq!(
            uuid.hash_with_seed(DEFAULT_SEED),
            uuid[..].hash_with_seed(DEFAULT_SEED)
        );
    }

    #[test]
    fn hash_batch_matches_scalar_hashing() {
        // Every unroll shape: multiples of 4, the 1..3 remainders, empty.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 64, 65] {
            let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let mut out = vec![0u64; n + 2];
            hash_batch_with_seed(&items, DEFAULT_SEED, &mut out);
            for (i, item) in items.iter().enumerate() {
                assert_eq!(out[i], item.hash_with_seed(DEFAULT_SEED), "lane {i} of {n}");
            }
        }
        // Works for non-fixed-width items too.
        let words = ["a", "bb", "ccc", "dddd", "eeeee"];
        let mut out = [0u64; 5];
        hash_batch_with_seed(&words, 7, &mut out);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(out[i], w.hash_with_seed(7));
        }
    }

    #[test]
    fn dispatched_batch_hash_equals_the_baseline_copy() {
        // The copy this CPU runs (AVX-512 where present) against the
        // baseline loop, over every vector shape: full 8-lane blocks,
        // each remainder, and the empty batch.
        use rand::{RngCore, SeedableRng};
        const ITEM_SEED: u64 = 0x5EED_0BA7;
        println!(
            "batch hash lane: {}; items seeded {ITEM_SEED:#x}",
            Avx512::lane()
        );
        let mut rng = rand::rngs::SmallRng::seed_from_u64(ITEM_SEED);
        for seed in [0, DEFAULT_SEED, u64::MAX] {
            for n in 0..=67usize {
                let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                let mut dispatched = vec![0u64; n];
                let mut baseline = vec![0u64; n];
                hash_batch_with_seed(&items, seed, &mut dispatched);
                hash_lanes(&items, seed, &mut baseline);
                assert_eq!(dispatched, baseline, "u64, hash seed {seed}, {n} items");
                let floats: Vec<f64> = items.iter().map(|&v| f64::from_bits(v)).collect();
                hash_batch_with_seed(&floats, seed, &mut dispatched);
                hash_lanes(&floats, seed, &mut baseline);
                assert_eq!(dispatched, baseline, "f64, hash seed {seed}, {n} items");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer shorter")]
    fn hash_batch_rejects_short_output() {
        let mut out = [0u64; 1];
        hash_batch_with_seed(&[1u64, 2], 0, &mut out);
    }

    #[test]
    fn distinct_items_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            seen.insert(i.hash_with_seed(DEFAULT_SEED));
        }
        assert_eq!(seen.len(), 100_000, "64-bit collision in 100k items");
    }
}
