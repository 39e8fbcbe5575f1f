//! The mergeable Quantiles sketch of Agarwal et al. (PODS 2012) — the
//! paper's second instantiation (§6.2).
//!
//! The sketch approximates rank queries: a query for quantile φ over a
//! stream of `n` elements returns an element whose rank is within
//! `(φ ± ε)·n` with probability at least `1 − δ` (a PAC guarantee, §3).
//! The paper proves that an r-relaxation of such a sketch returns an
//! element whose rank is within `(φ ± ε_r)·n`, where
//! `ε_r = ε − rε/n + r/n` (§6.2) — so the relaxation penalty vanishes as
//! the stream grows.
//!
//! ## Structure
//!
//! The classic mergeable design: a *base buffer* of `2k` incoming items
//! plus a ladder of *levels*, each either empty or holding `k` sorted
//! items with weight `2^level`. When the base buffer fills it is sorted
//! (if scalar updates left it unsorted) and *compacted* — every other item survives, the parity chosen by a
//! coin flip from the [oracle](crate::oracle) — and the `k` survivors
//! carry-propagate up the ladder exactly like binary addition. The coin
//! flips are the randomness that §4's de-randomisation oracle captures
//! ("In the Quantiles sketch, a coin flip is provided with every update").
//!
//! The levels are stored as immutable `Arc`'d runs and their list behind
//! one more `Arc`, so a persistent copy-on-write [`QuantilesLadder`]
//! snapshot costs a sorted copy of the base buffer and one pointer clone
//! ([`QuantilesSketch::ladder`]) — the publication primitive the
//! concurrent engine uses on its propagation path. The engine ingests
//! through [`QuantilesSketch::merge_batch`], which sorts each item once,
//! in the piece of the batch that fills the base buffer, and keeps the
//! base buffer sorted, so neither the compaction nor the snapshot sorts.

mod ladder;
mod sketch;

pub use crate::wire::WireItem;
pub use ladder::{QuantilesLadder, WeightedMerge};
pub use sketch::{QuantilesReader, QuantilesSketch};

/// Total-order wrapper for `f64` keys (quantile sketches need `Ord`).
///
/// Ordering follows `f64::total_cmp`, so NaNs are ordered after +∞ rather
/// than poisoning comparisons.
///
/// # Examples
///
/// ```
/// use fcds_sketches::quantiles::TotalF64;
///
/// let mut v = vec![TotalF64(2.0), TotalF64(1.0)];
/// v.sort();
/// assert_eq!(v[0].0, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for TotalF64 {
    fn from(v: f64) -> Self {
        TotalF64(v)
    }
}

impl From<TotalF64> for f64 {
    fn from(v: TotalF64) -> Self {
        v.0
    }
}

/// Empirical normalised-rank-error bound ε for a classic Quantiles sketch
/// with parameter `k` (single-rank queries).
///
/// This is the DataSketches empirical fit (`~1.76/k^0.93`); e.g. k = 128
/// gives ε ≈ 1.93%. It is an approximation adequate for sizing buffers
/// and for the adaptation-point computation of §5.3, not a proven bound.
pub fn epsilon_for_k(k: usize) -> f64 {
    assert!(k >= 2, "k must be ≥ 2");
    1.76 / (k as f64).powf(0.93)
}

/// Smallest `k` (rounded up to a power of two) whose [`epsilon_for_k`]
/// does not exceed `eps`.
pub fn k_for_epsilon(eps: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
    let raw = (1.76 / eps).powf(1.0 / 0.93);
    (raw.ceil() as usize).next_power_of_two().max(2)
}

/// The relaxed error bound of §6.2: an r-relaxed PAC quantiles sketch
/// answers with rank error at most `ε_r = ε − rε/n + r/n` (with the same
/// failure probability δ).
///
/// As `n → ∞` this tends to ε: the relaxation penalty is transient.
pub fn relaxed_epsilon(eps: f64, r: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let (r, n) = (r as f64, n as f64);
    eps - r * eps / n + r / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_f64_orders_nan_last() {
        let mut v = [TotalF64(f64::NAN), TotalF64(1.0), TotalF64(f64::INFINITY)];
        v.sort();
        assert_eq!(v[0].0, 1.0);
        assert!(v[1].0.is_infinite());
        assert!(v[2].0.is_nan());
    }

    #[test]
    fn total_f64_round_trips() {
        let x: TotalF64 = 3.5.into();
        let y: f64 = x.into();
        assert_eq!(y, 3.5);
    }

    #[test]
    fn epsilon_decreases_with_k() {
        assert!(epsilon_for_k(256) < epsilon_for_k(128));
        assert!(epsilon_for_k(128) < epsilon_for_k(64));
    }

    #[test]
    fn epsilon_k128_near_two_percent() {
        let e = epsilon_for_k(128);
        assert!(e > 0.01 && e < 0.03, "eps(128) = {e}");
    }

    #[test]
    fn k_for_epsilon_inverts() {
        for &eps in &[0.05, 0.02, 0.01, 0.005] {
            let k = k_for_epsilon(eps);
            assert!(epsilon_for_k(k) <= eps, "k={k} eps={}", epsilon_for_k(k));
            assert!(k.is_power_of_two());
        }
    }

    #[test]
    fn relaxed_epsilon_limits() {
        let eps = 0.01;
        // Tiny stream: dominated by r/n.
        assert!(relaxed_epsilon(eps, 64, 128) > 0.5 * (64.0 / 128.0));
        // Huge stream: tends to eps.
        let big = relaxed_epsilon(eps, 64, 100_000_000);
        assert!((big - eps).abs() < 1e-5);
        // Empty stream degenerates to 1.
        assert_eq!(relaxed_epsilon(eps, 8, 0), 1.0);
    }

    #[test]
    fn relaxed_epsilon_monotone_in_r() {
        let eps = 0.02;
        let n = 10_000;
        assert!(relaxed_epsilon(eps, 0, n) <= relaxed_epsilon(eps, 10, n));
        assert!(relaxed_epsilon(eps, 10, n) <= relaxed_epsilon(eps, 100, n));
    }
}
