//! HyperLogLog distinct-count sketch.
//!
//! The paper's artifact appendix lists HLL among the evaluated algorithms
//! and §8 points to "other sketches" as future work for the concurrent
//! framework; we implement a standard HLL (Flajolet et al. 2007 estimator
//! with the linear-counting small-range correction of HLL++) so that
//! `fcds-core` can demonstrate the framework's genericity on a third,
//! structurally different sketch (register maxima instead of sample sets).
//!
//! Registers are plain `u8` values; merging is register-wise max, which is
//! exactly the commutative, idempotent merge the composable-sketch
//! interface needs.
//!
//! Beside the registers the sketch keeps their *value histogram*
//! (`counts[v]` = number of registers equal to `v`), updated wherever a
//! register changes. The estimator needs nothing else — Σ 2^(−register)
//! is Σ `counts[v]`·2^(−v) and the linear-counting zeros are `counts[0]`
//! — so [`HllSketch::estimate`], [`HllSketch::is_empty`] and
//! [`HllSketch::min_register`] cost O(1) in `m`, which is what the
//! concurrent engine's per-merge publication relies on.

use crate::error::{Result, SketchError};
use crate::hash::Hashable;

/// Minimum `lg_m` (number of registers = 2^lg_m ≥ 16).
pub const MIN_LG_M: u8 = 4;
/// Maximum `lg_m` (2²¹ registers = 2 MiB of state).
pub const MAX_LG_M: u8 = 21;

/// Slots in a register-value histogram: ranks run `0..=64 − lg_m + 1`,
/// at most 61 at [`MIN_LG_M`].
const RANK_SLOTS: usize = 66;

/// `counts[v]` = number of registers holding rank `v` (`m ≤ 2²¹` fits a
/// `u32`).
type RankCounts = [u32; RANK_SLOTS];

/// HyperLogLog sketch with `m = 2^lg_m` one-byte registers.
///
/// # Examples
///
/// ```
/// use fcds_sketches::hll::HllSketch;
///
/// let mut h = HllSketch::new(12, 9001).unwrap(); // 4096 registers
/// for i in 0..500_000u64 {
///     h.update(i);
/// }
/// let est = h.estimate();
/// assert!((est - 500_000.0).abs() / 500_000.0 < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HllSketch {
    lg_m: u8,
    seed: u64,
    registers: Vec<u8>,
    /// Value histogram of `registers` — a function of them, so the
    /// derived equality stays register equality.
    counts: RankCounts,
}

impl HllSketch {
    /// Creates an empty HLL sketch with `2^lg_m` registers and the given
    /// hash seed.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if `lg_m` is outside
    /// `MIN_LG_M..=MAX_LG_M`.
    pub fn new(lg_m: u8, seed: u64) -> Result<Self> {
        if !(MIN_LG_M..=MAX_LG_M).contains(&lg_m) {
            return Err(SketchError::invalid(
                "lg_m",
                format!("must be in {MIN_LG_M}..={MAX_LG_M}, got {lg_m}"),
            ));
        }
        let mut counts = [0; RANK_SLOTS];
        counts[0] = 1 << lg_m;
        Ok(HllSketch {
            lg_m,
            seed,
            registers: vec![0; 1 << lg_m],
            counts,
        })
    }

    /// The number of registers `m`.
    pub fn m(&self) -> usize {
        1 << self.lg_m
    }

    /// The configured `lg_m`.
    pub fn lg_m(&self) -> u8 {
        self.lg_m
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read-only view of the registers (used by snapshots and merges).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Overwrites every register from `src` (already validated against
    /// the maximum rank) and recounts the histogram — crate-internal, for
    /// wire decode and the fan-in's `to_sketch`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != m`.
    pub(crate) fn load_registers(&mut self, src: &[u8]) {
        self.registers.copy_from_slice(src);
        self.counts = count_ranks(src);
    }

    /// The smallest register value — the common floor below which no
    /// update can change the sketch. O(1) in `m`.
    pub fn min_register(&self) -> u8 {
        self.counts.iter().position(|&c| c != 0).unwrap_or(0) as u8
    }

    /// Processes one stream item.
    #[inline]
    pub fn update<T: Hashable>(&mut self, item: T) {
        self.update_hash(item.hash_with_seed(self.seed));
    }

    /// Processes a pre-hashed item; returns `true` iff a register grew.
    #[inline]
    pub fn update_hash(&mut self, hash: u64) -> bool {
        let idx = (hash >> (64 - self.lg_m)) as usize;
        // Rank of the first 1-bit in the remaining (64 − lg_m) bits.
        let tail = hash << self.lg_m;
        let rho = if tail == 0 {
            (64 - self.lg_m as u32) + 1
        } else {
            tail.leading_zeros() + 1
        } as u8;
        let old = self.registers[idx];
        if rho > old {
            self.registers[idx] = rho;
            self.counts[old as usize] -= 1;
            self.counts[rho as usize] += 1;
            true
        } else {
            false
        }
    }

    /// Distinct-count estimate: the HLL harmonic-mean estimator with the
    /// linear-counting correction for small cardinalities.
    pub fn estimate(&self) -> f64 {
        estimate_from_counts(&self.counts)
    }

    /// Merges another HLL sketch into this one (register-wise max).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Incompatible`] if `lg_m` or the seed differ.
    pub fn merge(&mut self, other: &HllSketch) -> Result<()> {
        if other.lg_m != self.lg_m {
            return Err(SketchError::incompatible(format!(
                "lg_m mismatch: {} vs {}",
                self.lg_m, other.lg_m
            )));
        }
        if other.seed != self.seed {
            return Err(SketchError::incompatible(format!(
                "hash seed mismatch: {} vs {}",
                self.seed, other.seed
            )));
        }
        for (a, &b) in self.registers.iter_mut().zip(other.registers.iter()) {
            if b > *a {
                *a = b;
            }
        }
        self.counts = count_ranks(&self.registers);
        Ok(())
    }

    /// Resets all registers to zero.
    pub fn clear(&mut self) {
        self.registers.iter_mut().for_each(|r| *r = 0);
        self.counts = [0; RANK_SLOTS];
        self.counts[0] = self.m() as u32;
    }

    /// Returns `true` if no item has ever been retained.
    pub fn is_empty(&self) -> bool {
        self.counts[0] as usize == self.m()
    }

    /// The theoretical relative standard error of HLL: `1.04/√m`.
    pub fn rse(&self) -> f64 {
        1.04 / (self.m() as f64).sqrt()
    }
}

/// The HLL harmonic-mean estimator with the linear-counting correction,
/// computed over a bare register array (`m = registers.len()`, which must
/// be a power of two). This is `HllSketch::estimate` without the sketch:
/// the wire fan-in kernel estimates straight off its borrowed
/// accumulator, never materialising an owned sketch. One integer pass
/// builds the value histogram; the floating-point work is
/// `estimate_from_counts`, the same function the sketch calls, so the
/// two agree bit for bit.
pub fn estimate_from_registers(registers: &[u8]) -> f64 {
    estimate_from_counts(&count_ranks(registers))
}

/// The value histogram of a register array. A byte above every valid
/// rank lands in the last slot: decode rejects such arrays, this only
/// keeps the function total.
fn count_ranks(registers: &[u8]) -> RankCounts {
    let mut counts = [0; RANK_SLOTS];
    for &r in registers {
        counts[(r as usize).min(RANK_SLOTS - 1)] += 1;
    }
    counts
}

/// The one estimator: every HLL estimate in the workspace ends here, in
/// this summation order.
fn estimate_from_counts(counts: &RankCounts) -> f64 {
    let registers: u32 = counts.iter().sum();
    let m = registers as f64;
    let alpha = match registers {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    // Σ counts[v]·2^(−v); halving is exact, so `scale` is exactly 2^(−v).
    let mut sum = 0.0;
    let mut scale = 1.0;
    for &c in counts {
        sum += c as f64 * scale;
        scale *= 0.5;
    }
    let raw = alpha * m * m / sum;
    let zeros = counts[0];
    if raw <= 2.5 * m && zeros > 0 {
        // Linear counting is more accurate in the small range.
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireDecode, WireEncode};

    #[test]
    fn deserialised_sketch_keeps_ingesting() {
        let mut h = HllSketch::new(10, 5).unwrap();
        for i in 0..10_000u64 {
            h.update(i);
        }
        let mut back = HllSketch::from_wire_bytes(&h.to_wire_bytes()).unwrap();
        for i in 10_000..20_000u64 {
            back.update(i);
            h.update(i);
        }
        assert_eq!(back, h);
    }

    #[test]
    fn rejects_out_of_range_lg_m() {
        assert!(HllSketch::new(3, 0).is_err());
        assert!(HllSketch::new(22, 0).is_err());
        assert!(HllSketch::new(4, 0).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let h = HllSketch::new(10, 0).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn small_range_is_nearly_exact() {
        // Linear counting regime.
        let mut h = HllSketch::new(12, 1).unwrap();
        for i in 0..100u64 {
            h.update(i);
        }
        let est = h.estimate();
        assert!((est - 100.0).abs() < 5.0, "est = {est}");
    }

    #[test]
    fn duplicates_do_not_grow_estimate() {
        let mut h = HllSketch::new(10, 1).unwrap();
        for _ in 0..100 {
            for i in 0..50u64 {
                h.update(i);
            }
        }
        let est = h.estimate();
        assert!((est - 50.0).abs() < 5.0, "est = {est}");
    }

    #[test]
    fn large_range_within_rse() {
        let mut h = HllSketch::new(12, 42).unwrap();
        let n = 1_000_000u64;
        for i in 0..n {
            h.update(i);
        }
        let rel = (h.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 5.0 * h.rse(), "relative error {rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HllSketch::new(11, 7).unwrap();
        let mut b = HllSketch::new(11, 7).unwrap();
        let mut whole = HllSketch::new(11, 7).unwrap();
        for i in 0..200_000u64 {
            whole.update(i);
            if i < 120_000 {
                a.update(i);
            }
            if i >= 80_000 {
                b.update(i);
            }
        }
        a.merge(&b).unwrap();
        // Register-wise max of sub-streams == registers of the union.
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut a = HllSketch::new(10, 1).unwrap();
        let b = HllSketch::new(11, 1).unwrap();
        assert!(a.merge(&b).is_err());
        let c = HllSketch::new(10, 2).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = HllSketch::new(10, 1).unwrap();
        for i in 0..10_000u64 {
            a.update(i);
        }
        let before = a.clone();
        let copy = a.clone();
        a.merge(&copy).unwrap();
        assert_eq!(a, before);
    }

    #[test]
    fn clear_resets() {
        let mut h = HllSketch::new(10, 1).unwrap();
        for i in 0..1000u64 {
            h.update(i);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn rho_uses_post_index_bits() {
        // A hash of all-zeros after the index bits must yield the maximum
        // rho rather than panicking or wrapping.
        let mut h = HllSketch::new(4, 0).unwrap();
        assert!(h.update_hash(0));
        assert_eq!(h.registers()[0], 61); // 64-4+1
    }

    /// The histogram's definition, and the O(1) readers against theirs.
    fn assert_histogram_current(h: &HllSketch) {
        assert_eq!(h.counts, count_ranks(h.registers()));
        assert_eq!(
            h.estimate().to_bits(),
            estimate_from_registers(h.registers()).to_bits()
        );
        assert_eq!(h.min_register(), *h.registers().iter().min().unwrap());
        assert_eq!(h.is_empty(), h.registers().iter().all(|&r| r == 0));
    }

    fn burst(seed: u64, n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(move |i| (seed ^ i).hash_with_seed(seed))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Whatever interleaving of register-changing operations ran —
        /// updates, merges, clears, a wire round trip, the fan-in's
        /// `to_sketch` — the histogram equals a fresh count of the
        /// registers and the estimate equals the bare-array estimator
        /// bit for bit.
        #[test]
        fn histogram_tracks_registers(
            wide in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..16, proptest::prelude::any::<u64>()), 1..120),
        ) {
            let lg_m = if wide { 12 } else { 4 };
            let mut h = HllSketch::new(lg_m, 3).unwrap();
            for (op, word) in ops {
                let mut other = HllSketch::new(lg_m, 3).unwrap();
                burst(word, 1 + word % 300).for_each(|x| { other.update_hash(x); });
                match op {
                    0 => h.clear(),
                    1 | 2 => h.merge(&other).unwrap(),
                    3 => {
                        let back = HllSketch::from_wire_bytes(&h.to_wire_bytes()).unwrap();
                        proptest::prop_assert_eq!(&back, &h);
                        h = back;
                    }
                    4 => {
                        let images = [h.to_wire_bytes(), other.to_wire_bytes()];
                        let folded = crate::wire::hll_multiway_merge(&images).unwrap();
                        h.merge(&other).unwrap();
                        proptest::prop_assert_eq!(&folded, &h);
                        h = folded;
                    }
                    _ => burst(!word, 1 + word % 64).for_each(|x| { h.update_hash(x); }),
                }
                assert_histogram_current(&h);
            }
        }
    }
}
