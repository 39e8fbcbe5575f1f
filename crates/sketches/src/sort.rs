//! Sorting a frame's worth of `u64` keys.
//!
//! The Quantiles and Misra–Gries batch merges sort every batch they
//! take, and on the served path a batch is one 256-item frame, so that
//! sort is most of a merge. [`sort_u64`] sorts runs of up to
//! [`KERNEL_MAX`] items with a bitonic network held in the 32 AVX-512
//! registers (eight `u64` each, the run padded with `u64::MAX`) on CPUs
//! that have AVX-512 (see [`Avx512`]): the inter-register stages are one
//! `vpminuq`/`vpmaxuq` pair each, the intra-register stages two
//! `vpermt2q` gathers and one `vpminuq`/`vpmaxuq` pair per pair of
//! registers, all of it unrolled. On 256 uniform keys it is about 3×
//! faster than `sort_unstable` on a 2-vCPU Sapphire Rapids VM. Every
//! other CPU, every run outside the kernel's sizes and every other item
//! type ([`sort_items`]) keeps `sort_unstable`. A sorted `u64` run is
//! unique, so which path ran never shows in the result.

use crate::hash::Avx512;
use std::any::TypeId;

/// Longest run the kernel sorts: 32 registers of eight `u64`.
pub const KERNEL_MAX: usize = 256;

/// Shortest run the kernel sorts. Below it `sort_unstable`'s insertion
/// sort is as fast or faster (on a 2-vCPU Sapphire Rapids VM the two
/// cross between 8 and 12 items; at 16 the kernel is 5–8× faster).
pub const KERNEL_MIN: usize = 12;

/// Sorts `items` ascending: through the register kernel when this CPU
/// runs AVX-512 and `items.len()` is in `KERNEL_MIN..=KERNEL_MAX`, by
/// `sort_unstable` otherwise.
pub fn sort_u64(items: &mut [u64]) {
    sort_u64_on(Avx512::detect(), items);
}

/// [`sort_u64`] on the copy `cpu` selects (`None`: the baseline copy).
fn sort_u64_on(cpu: Option<Avx512>, items: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(cpu) = cpu {
        if (KERNEL_MIN..=KERNEL_MAX).contains(&items.len()) {
            x86::sort(cpu, items);
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cpu;
    items.sort_unstable();
}

/// Sorts `items` ascending, `u64` through [`sort_u64`] and every other
/// type by `sort_unstable`. Unstable: equal items may trade places,
/// which no caller can tell apart.
#[allow(unsafe_code)]
pub fn sort_items<T: Ord + 'static>(items: &mut [T]) {
    if TypeId::of::<T>() == TypeId::of::<u64>() {
        // SAFETY: `T` is `u64`, so the slice is a `[u64]` of the same
        // length, borrowed for the same lifetime.
        sort_u64(unsafe { &mut *(items as *mut [T] as *mut [u64]) });
    } else {
        items.sort_unstable();
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    //! The bitonic network. A block of `N` registers is sorted by
    //! sorting its halves in opposite directions, which makes it one
    //! bitonic sequence, and then cleaning it: compare each register of
    //! the lower half with its twin in the upper half, then clean each
    //! half the same way, down to pairs of registers. Every array index
    //! is a constant once the network is inlined into its size's entry
    //! point, so the compiler keeps the block in registers.
    //!
    //! The stages inside registers run on a pair of registers at once.
    //! One register's stage would compare each lane with its partner in
    //! both directions, a `vpminuq` and a `vpmaxuq` for four pairs; a
    //! pair's stage first gathers the eight first and the eight second
    //! members of its pairs into two registers (`vpermt2q` each) and
    //! then needs one `vpminuq` and one `vpmaxuq` for all eight. The min
    //! and max unit is the kernel's bottleneck (one a cycle), the
    //! permutes run beside it, so this halves the bottleneck's share of
    //! those stages. The gathers are tables worked out at compile time
    //! ([`pair_tables`]) from where each lane stands after the previous
    //! stage.

    use super::{Avx512, KERNEL_MAX};
    use std::arch::x86_64::*;

    /// Sorts `items` (at most [`KERNEL_MAX`]) in the smallest block of
    /// registers that holds it.
    pub(super) fn sort(_: Avx512, items: &mut [u64]) {
        assert!(items.len() <= KERNEL_MAX, "run longer than the kernel");
        // SAFETY: holding an `Avx512` proves the CPU has AVX-512F, the
        // only feature the network's instructions need.
        unsafe { sort_avx512(items) }
    }

    #[target_feature(enable = "avx512f")]
    fn sort_avx512(items: &mut [u64]) {
        match items.len() {
            0..=16 => block::<2>(items, |v| sort_2(v, true)),
            17..=32 => block::<4>(items, |v| sort_4(v, true)),
            33..=64 => block::<8>(items, |v| sort_8(v, true)),
            65..=128 => block::<16>(items, |v| sort_16(v, true)),
            _ => block::<32>(items, |v| sort_32(v, true)),
        }
    }

    /// The lanes of register `r` that hold one of `len` items.
    #[inline(always)]
    fn lanes(len: usize, r: usize) -> __mmask8 {
        let live = len.saturating_sub(8 * r).min(8);
        ((1u16 << live) - 1) as __mmask8
    }

    /// Register `r` of `items`, padded with `u64::MAX`.
    #[inline(always)]
    fn load(items: &[u64], r: usize) -> __m512i {
        // SAFETY: the mask enables only lanes `8r + l < items.len()`, and
        // a masked-off lane is neither read nor faulted on.
        unsafe {
            let ptr = items.as_ptr().wrapping_add(8 * r);
            _mm512_mask_loadu_epi64(_mm512_set1_epi64(-1), lanes(items.len(), r), ptr.cast())
        }
    }

    /// Stores the lanes of `v` that register `r` of `items` holds.
    #[inline(always)]
    fn store(items: &mut [u64], r: usize, v: __m512i) {
        let mask = lanes(items.len(), r);
        // SAFETY: as for `load`, only lanes inside `items` are written.
        unsafe { _mm512_mask_storeu_epi64(items.as_mut_ptr().wrapping_add(8 * r).cast(), mask, v) };
    }

    /// Loads `items` (at most `8 · N`) into `N` registers padded with
    /// `u64::MAX`, runs `network` on them and stores the first
    /// `items.len()` lanes back. The padding sorts last, so it is
    /// exactly what the store leaves out.
    #[inline(always)]
    fn block<const N: usize>(items: &mut [u64], network: impl Fn(&mut [__m512i; N])) {
        debug_assert!(items.len() <= 8 * N);
        let mut v: [__m512i; N] = std::array::from_fn(|r| load(items, r));
        network(&mut v);
        for (r, reg) in v.into_iter().enumerate() {
            store(items, r, reg);
        }
    }

    /// Lane `l` takes the larger of a compared pair iff bit `l` is set:
    /// the ascending masks of the eight-lane bitonic network's stages,
    /// where lane `l` meets lane `l ^ j` in a merge of `k`-lane runs.
    /// `asc = false` gives the descending network's masks.
    const fn max_lanes(j: usize, k: usize, asc: bool) -> u8 {
        let mut mask = 0;
        let mut l = 0;
        while l < 8 {
            if (((l & j) != 0) != ((l & k) != 0)) == asc {
                mask |= 1 << l;
            }
            l += 1;
        }
        mask
    }

    /// A stage inside the registers of a pair: lane `l` meets lane
    /// `l ^ j`, and the lanes set in each register's mask keep the max.
    #[derive(Clone, Copy)]
    struct Stage {
        j: usize,
        max: [u8; 2],
    }

    /// A stage where lane `l` meets lane `l ^ j` in a merge of `k`-lane
    /// runs, ascending in the pair's first register when `asc` and in
    /// its second when `asc_second`.
    const fn stage(j: usize, k: usize, asc: bool, asc_second: bool) -> Stage {
        Stage {
            j,
            max: [max_lanes(j, k, asc), max_lanes(j, k, asc_second)],
        }
    }

    /// The six stages that sort each register of a pair, the first
    /// ascending when `asc`, the second the other way.
    const fn sort_stages(asc: bool) -> [Stage; 6] {
        let d = !asc;
        [
            stage(1, 2, asc, d),
            stage(2, 4, asc, d),
            stage(1, 4, asc, d),
            stage(4, 8, asc, d),
            stage(2, 8, asc, d),
            stage(1, 8, asc, d),
        ]
    }

    /// The three stages that sort each bitonic register of a pair, both
    /// ascending when `asc`.
    const fn clean_stages(asc: bool) -> [Stage; 3] {
        [
            stage(4, 8, asc, asc),
            stage(2, 8, asc, asc),
            stage(1, 8, asc, asc),
        ]
    }

    /// The `vpermt2q` indices that run `stages` on a pair of registers:
    /// for each stage the gathers of its pairs' first and second members
    /// (`2·S` tables), then the two that put every lane back in place.
    /// An index names a lane of the two sources, `0..8` the first and
    /// `8..16` the second: the pair at the start, then each stage's
    /// mins and maxes.
    const fn pair_tables<const S: usize, const T: usize>(stages: [Stage; S]) -> [[u64; 8]; T] {
        assert!(T == 2 * S + 2);
        let mut tables = [[0u64; 8]; T];
        // Where each of the pair's sixteen lanes (8 · register + lane)
        // currently stands among the two sources.
        let mut at = [0u64; 16];
        let mut pos = 0;
        while pos < 16 {
            at[pos] = pos as u64;
            pos += 1;
        }
        let mut s = 0;
        while s < S {
            let Stage { j, max } = stages[s];
            let mut p = 0;
            let mut reg = 0;
            while reg < 2 {
                let mut l = 0;
                while l < 8 {
                    if l & j == 0 {
                        let (first, second) = (8 * reg + l, 8 * reg + (l ^ j));
                        tables[2 * s][p] = at[first];
                        tables[2 * s + 1][p] = at[second];
                        // The stage's mins land in lane `p` of the first
                        // source, its maxes in lane `p` of the second.
                        let second_takes_max = max[reg] & (1 << (l ^ j)) != 0;
                        at[first] = p as u64 + if second_takes_max { 0 } else { 8 };
                        at[second] = p as u64 + if second_takes_max { 8 } else { 0 };
                        p += 1;
                    }
                    l += 1;
                }
                reg += 1;
            }
            s += 1;
        }
        let mut l = 0;
        while l < 8 {
            tables[2 * S][l] = at[l];
            tables[2 * S + 1][l] = at[8 + l];
            l += 1;
        }
        tables
    }

    static SORT_ASC: [[u64; 8]; 14] = pair_tables(sort_stages(true));
    static SORT_DESC: [[u64; 8]; 14] = pair_tables(sort_stages(false));
    static CLEAN_ASC: [[u64; 8]; 8] = pair_tables(clean_stages(true));
    static CLEAN_DESC: [[u64; 8]; 8] = pair_tables(clean_stages(false));

    /// Runs the stages `tables` encode on the pair `v`.
    #[inline(always)]
    fn pair_stages<const T: usize>(v: &mut [__m512i; 2], tables: &[[u64; 8]; T]) {
        // SAFETY (each intrinsic): AVX-512F is enabled in every caller,
        // all of which are inlined into `sort_avx512`; each load reads
        // one whole table.
        unsafe {
            let gather = |[lo, hi]: [__m512i; 2], table: &[u64; 8]| {
                _mm512_permutex2var_epi64(lo, _mm512_loadu_si512(table.as_ptr().cast()), hi)
            };
            let mut sources = *v;
            for s in 0..T / 2 - 1 {
                let first = gather(sources, &tables[2 * s]);
                let second = gather(sources, &tables[2 * s + 1]);
                sources = [
                    _mm512_min_epu64(first, second),
                    _mm512_max_epu64(first, second),
                ];
            }
            *v = [
                gather(sources, &tables[T - 2]),
                gather(sources, &tables[T - 1]),
            ];
        }
    }

    /// One inter-register stage: each register of `lo` against its twin
    /// in `hi`, the smaller lanes staying low when `asc`.
    #[inline(always)]
    fn twins<const H: usize>(lo: &mut [__m512i; H], hi: &mut [__m512i; H], asc: bool) {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            // SAFETY: as in `pair_stages`.
            let (min, max) = unsafe { (_mm512_min_epu64(*a, *b), _mm512_max_epu64(*a, *b)) };
            (*a, *b) = if asc { (min, max) } else { (max, min) };
        }
    }

    /// The halves of a block.
    #[inline(always)]
    fn halves<const H: usize>(v: &mut [__m512i]) -> (&mut [__m512i; H], &mut [__m512i; H]) {
        let (lo, hi) = v.split_at_mut(H);
        (
            lo.try_into().expect("a block is two halves"),
            hi.try_into().expect("a block is two halves"),
        )
    }

    /// Sorts a pair of registers ascending when `asc`, else descending.
    #[inline(always)]
    fn sort_2(v: &mut [__m512i; 2], asc: bool) {
        pair_stages(v, if asc { &SORT_ASC } else { &SORT_DESC });
        clean_2(v, asc);
    }

    /// Sorts a bitonic pair of registers ascending when `asc`, else
    /// descending.
    #[inline(always)]
    fn clean_2(v: &mut [__m512i; 2], asc: bool) {
        let (lo, hi) = halves::<1>(v);
        twins(lo, hi, asc);
        pair_stages(v, if asc { &CLEAN_ASC } else { &CLEAN_DESC });
    }

    /// `sort_N` and `clean_N` for a block of `N` registers, written in
    /// terms of the half-size pair.
    macro_rules! block_network {
        ($($n:literal: $sort:ident, $clean:ident => $half:literal: $sort_half:ident, $clean_half:ident;)*) => {$(
            /// Sorts the block ascending when `asc`, else descending.
            #[inline(always)]
            fn $sort(v: &mut [__m512i; $n], asc: bool) {
                let (lo, hi) = halves::<$half>(v);
                $sort_half(lo, asc);
                $sort_half(hi, !asc);
                $clean(v, asc);
            }

            /// Sorts a bitonic block ascending when `asc`, else
            /// descending.
            #[inline(always)]
            fn $clean(v: &mut [__m512i; $n], asc: bool) {
                let (lo, hi) = halves::<$half>(v);
                twins(lo, hi, asc);
                $clean_half(lo, asc);
                $clean_half(hi, asc);
            }
        )*};
    }

    block_network! {
        4: sort_4, clean_4 => 2: sort_2, clean_2;
        8: sort_8, clean_8 => 4: sort_4, clean_4;
        16: sort_16, clean_16 => 8: sort_8, clean_8;
        32: sort_32, clean_32 => 16: sort_16, clean_16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// The Zipf(1.1) keys of the served Misra–Gries streams, over 10⁵
    /// values by the continuous inverse CDF.
    fn zipf_key(word: u64) -> u64 {
        const KEYS: f64 = 100_000.0;
        let u = (word >> 11) as f64 / (1u64 << 53) as f64;
        ((KEYS.powf(-0.1) - 1.0) * u + 1.0).powf(-10.0) as u64
    }

    /// One seeded input of `n` items per shape the kernel must get
    /// right, by name.
    fn shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut draw = |f: &mut dyn FnMut(u64) -> u64| -> Vec<u64> {
            (0..n).map(|_| f(rng.next_u64())).collect()
        };
        let mut ascending: Vec<u64> = draw(&mut |w| w);
        ascending.sort_unstable();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        vec![
            ("random", draw(&mut |w| w)),
            ("all equal", vec![seed; n]),
            ("two values", draw(&mut |w| [7, 1 << 40][(w & 1) as usize])),
            // The padding value inside the run, and 0 beside it.
            (
                "0 and MAX",
                draw(&mut |w| [0, u64::MAX, w][(w % 3) as usize]),
            ),
            ("ascending", ascending),
            ("descending", descending),
            ("zipf(1.1)", draw(&mut |w| zipf_key(w))),
        ]
    }

    fn sorted(items: &[u64]) -> Vec<u64> {
        let mut want = items.to_vec();
        want.sort_unstable();
        want
    }

    #[test]
    fn every_copy_sorts_like_sort_unstable() {
        // The dispatched copy (the kernel inside its sizes on AVX-512),
        // the baseline copy, and the kernel itself at every size it can
        // take, each against `sort_unstable`.
        const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];
        println!("sort lane: {}; seeds {SEEDS:#x?}", Avx512::lane());
        for seed in SEEDS {
            for n in 0..=KERNEL_MAX {
                for (shape, items) in shapes(n, seed) {
                    let want = sorted(&items);
                    let mut got = items.clone();
                    sort_u64(&mut got);
                    assert_eq!(got, want, "dispatched, {shape}, {n} items, seed {seed:#x}");
                    let mut got = items.clone();
                    sort_u64_on(None, &mut got);
                    assert_eq!(got, want, "baseline, {shape}, {n} items, seed {seed:#x}");
                    #[cfg(target_arch = "x86_64")]
                    if let Some(cpu) = Avx512::detect() {
                        let mut got = items.clone();
                        x86::sort(cpu, &mut got);
                        assert_eq!(got, want, "kernel, {shape}, {n} items, seed {seed:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn runs_outside_the_kernel_and_other_types_sort_too() {
        const SEED: u64 = 0x5EED_0004;
        println!("seed {SEED:#x}");
        for n in [KERNEL_MAX + 1, 1000] {
            for (shape, items) in shapes(n, SEED) {
                let mut got = items.clone();
                sort_items(&mut got);
                assert_eq!(got, sorted(&items), "{shape}, {n} items");
            }
        }
        let mut words = vec![3u32, 1, 2];
        sort_items(&mut words);
        assert_eq!(words, [1, 2, 3]);
        let mut signed: Vec<i64> = (0..100).map(|i| 50 - i).collect();
        sort_items(&mut signed);
        assert!(signed.is_sorted());
    }
}
