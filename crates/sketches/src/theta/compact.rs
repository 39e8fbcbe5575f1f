//! Immutable, sorted Θ sketch images.
//!
//! A compact sketch is the frozen form of any updatable Θ sketch: a sorted
//! array of retained hashes plus Θ and the seed. It is the natural result
//! type of set operations, the snapshot type of the concurrent framework's
//! query path, and the unit of (de)serialisation.

use super::{ThetaRead, THETA_MAX};
use crate::error::{Result, SketchError};

/// An immutable Θ sketch: sorted retained hashes, Θ, and the hash seed.
///
/// # Examples
///
/// ```
/// use fcds_sketches::theta::{QuickSelectThetaSketch, ThetaRead};
///
/// let mut s = QuickSelectThetaSketch::new(8, 9001).unwrap();
/// for i in 0..10_000u64 { s.update(i); }
/// let c = s.compact();
/// assert_eq!(c.seed(), 9001);
/// assert!((c.estimate() - s.estimate()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactThetaSketch {
    theta: u64,
    seed: u64,
    /// Retained hashes, strictly ascending, all `< theta`.
    hashes: Vec<u64>,
}

impl CompactThetaSketch {
    /// Freezes any readable Θ sketch into compact form.
    pub fn from_read<S: ThetaRead + ?Sized>(src: &S) -> Self {
        let mut hashes: Vec<u64> = src.hashes().collect();
        hashes.sort_unstable();
        hashes.dedup();
        CompactThetaSketch {
            theta: src.theta(),
            seed: src.seed(),
            hashes,
        }
    }

    /// Builds a compact sketch from raw parts. Hashes are sorted and
    /// deduplicated; entries `>= theta` are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidParameter`] if any hash is `0` or
    /// `>= theta`.
    pub fn from_parts(theta: u64, seed: u64, mut hashes: Vec<u64>) -> Result<Self> {
        hashes.sort_unstable();
        hashes.dedup();
        if hashes.contains(&0) {
            return Err(SketchError::invalid("hashes", "hash 0 is reserved"));
        }
        if let Some(&max) = hashes.last() {
            if max >= theta {
                return Err(SketchError::invalid(
                    "hashes",
                    format!("hash {max} not below theta {theta}"),
                ));
            }
        }
        Ok(CompactThetaSketch {
            theta,
            seed,
            hashes,
        })
    }

    /// The empty compact sketch.
    pub fn empty(seed: u64) -> Self {
        CompactThetaSketch {
            theta: THETA_MAX,
            seed,
            hashes: Vec::new(),
        }
    }

    /// The sorted retained hashes.
    pub fn sorted_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Returns `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Membership test in the retained set (binary search).
    pub fn contains_hash(&self, hash: u64) -> bool {
        self.hashes.binary_search(&hash).is_ok()
    }
}

impl ThetaRead for CompactThetaSketch {
    fn theta(&self) -> u64 {
        self.theta
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn retained(&self) -> usize {
        self.hashes.len()
    }

    fn hashes(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        Box::new(self.hashes.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use crate::theta::{KmvThetaSketch, QuickSelectThetaSketch};
    use crate::wire::{WireDecode, WireEncode};

    fn sample_sketch() -> CompactThetaSketch {
        let mut s = QuickSelectThetaSketch::new(6, 9001).unwrap();
        for i in 0..25_000u64 {
            s.update(i);
        }
        s.compact()
    }

    #[test]
    fn compact_preserves_estimate_of_quickselect() {
        let mut s = QuickSelectThetaSketch::new(7, 1).unwrap();
        for i in 0..40_000u64 {
            s.update(i);
        }
        let c = s.compact();
        assert_eq!(c.retained(), s.retained());
        assert_eq!(c.theta(), s.theta());
        assert!((c.estimate() - s.estimate()).abs() < 1e-9);
    }

    #[test]
    fn compact_hashes_sorted_and_below_theta() {
        let c = sample_sketch();
        let h = c.sorted_hashes();
        assert!(h.windows(2).all(|w| w[0] < w[1]));
        assert!(h.iter().all(|&x| x < c.theta()));
    }

    #[test]
    fn kmv_compact_differs_only_in_estimator() {
        // KMV's (k−1)/Θ vs compact's retained/Θ: both within a whisker.
        let mut s = KmvThetaSketch::new(512, 1).unwrap();
        for i in 0..100_000u64 {
            s.update(i);
        }
        let c = s.compact();
        let rel = (c.estimate() - s.estimate()).abs() / s.estimate();
        assert!(rel < 0.01, "estimator families diverged by {rel}");
    }

    #[test]
    fn round_trip_serialisation() {
        let c = sample_sketch();
        let bytes = c.to_wire_bytes();
        let back = CompactThetaSketch::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn empty_round_trip() {
        let c = CompactThetaSketch::empty(9001);
        let back = CompactThetaSketch::from_wire_bytes(&c.to_wire_bytes()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.estimate(), 0.0);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = sample_sketch().to_wire_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            CompactThetaSketch::from_wire_bytes(&bytes),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample_sketch().to_wire_bytes();
        assert!(CompactThetaSketch::from_wire_bytes(&bytes[..bytes.len() - 4]).is_err());
        assert!(CompactThetaSketch::from_wire_bytes(&bytes[..16]).is_err());
    }

    #[test]
    fn unsorted_payload_rejected() {
        let c = sample_sketch();
        let mut bytes = c.to_wire_bytes().to_vec();
        // Swap the first two 8-byte hash entries: the payload starts at
        // 16 (header) with seed/theta/count, so hashes begin at 40.
        for i in 0..8 {
            bytes.swap(40 + i, 48 + i);
        }
        assert!(matches!(
            CompactThetaSketch::from_wire_bytes(&bytes),
            Err(WireError::Invariant { .. })
        ));
    }

    #[test]
    fn from_parts_validates() {
        assert!(CompactThetaSketch::from_parts(100, 0, vec![1, 2, 3]).is_ok());
        assert!(CompactThetaSketch::from_parts(100, 0, vec![0, 2]).is_err());
        assert!(CompactThetaSketch::from_parts(100, 0, vec![1, 100]).is_err());
        // Duplicates are silently removed.
        let c = CompactThetaSketch::from_parts(100, 0, vec![5, 5, 7]).unwrap();
        assert_eq!(c.retained(), 2);
    }

    #[test]
    fn contains_hash_works() {
        let c = CompactThetaSketch::from_parts(1000, 0, vec![10, 20, 30]).unwrap();
        assert!(c.contains_hash(20));
        assert!(!c.contains_hash(25));
    }
}
