//! Run-time r-relaxation checker for the concurrent HyperLogLog sketch.
//!
//! An HLL answer is its register array `A`. The sequential sketch over a
//! sub-stream `S` holds, in register `j`, the largest rank of `S`'s items
//! in bucket `j` (0 if there are none). So `A` is what the sequential
//! sketch returns on some `S` that misses at most `r` updates of the
//! prefix `P` iff both of these hold:
//!
//! * every non-zero `A[j]` is *reached*: some item of bucket `j` in `P`
//!   has rank exactly `A[j]`;
//! * the items of `P` whose rank exceeds `A` at their bucket — which
//!   every such `S` must hide — number at most `r`.
//!
//! Both are necessary, and together sufficient: hiding exactly those
//! items leaves a sub-stream whose registers are `A`. Registers only
//! become reached and the hidden count only grows, so the prefix keeps
//! the lowest unreached register and advances it lazily: every test is
//! O(1) and a window one pass.
//!
//! Bucket and rank are [`HllSketch::update_hash`]'s: the top `lg_m` bits
//! of the hash pick the register, and the rank is the position of the
//! first 1-bit in the rest.
//!
//! [`HllSketch::update_hash`]: fcds_sketches::hll::HllSketch::update_hash

use crate::checker::{Checker, Verdict, Violation};

/// The r-relaxation checker for concurrent HLL executions, over a
/// stream of hashes. The answer is a register array; its length `2^lg_m`
/// fixes the bucket width.
#[derive(Debug, Clone, Copy)]
pub struct HllChecker {
    r: u64,
}

impl HllChecker {
    /// Creates a checker with relaxation bound `r` (`2Nb`, Theorem 1).
    pub fn new(r: u64) -> Self {
        HllChecker { r }
    }
}

/// What a prefix of the stream holds for one register array: which
/// registers an item reached, the lowest non-zero one none has, and the
/// items that exceed their register.
#[derive(Debug)]
pub struct HllPrefix {
    lg_m: u32,
    reached: Vec<bool>,
    first_unreached: usize,
    hidden: u64,
}

impl HllPrefix {
    /// Moves `first_unreached` past reached and zero registers.
    fn advance(&mut self, registers: &[u8]) {
        while registers
            .get(self.first_unreached)
            .is_some_and(|&a| a == 0 || self.reached[self.first_unreached])
        {
            self.first_unreached += 1;
        }
    }
}

impl Checker<u64> for HllChecker {
    type Answer = [u8];
    type Log = ();
    type Prefix = HllPrefix;

    /// # Panics
    ///
    /// Panics if the register count is not a power of two.
    fn prefix(&self, registers: &[u8]) -> HllPrefix {
        assert!(registers.len().is_power_of_two(), "register count");
        let mut prefix = HllPrefix {
            lg_m: registers.len().trailing_zeros(),
            reached: vec![false; registers.len()],
            first_unreached: 0,
            hidden: 0,
        };
        prefix.advance(registers);
        prefix
    }

    fn push(&self, _: &(), prefix: &mut HllPrefix, &hash: &u64, registers: &[u8]) {
        let (j, rank) = bucket_rank(hash, prefix.lg_m);
        match rank.cmp(&registers[j]) {
            std::cmp::Ordering::Equal if !prefix.reached[j] => {
                prefix.reached[j] = true;
                prefix.advance(registers);
            }
            std::cmp::Ordering::Greater => prefix.hidden += 1,
            _ => {}
        }
    }

    fn admits(&self, prefix: &HllPrefix, len: usize, registers: &[u8]) -> Verdict {
        let (hidden, allowed, register) = (prefix.hidden, self.r, prefix.first_unreached);
        if hidden > allowed {
            return Err(Violation::TooManyHidden {
                prefix: len,
                hidden,
                allowed,
            });
        }
        match registers.get(register) {
            None => Ok(()),
            Some(&rank) => Err(Violation::Unreached { register, rank }),
        }
    }
}

/// The register a hash updates and the rank it offers there.
fn bucket_rank(hash: u64, lg_m: u32) -> (usize, u8) {
    let tail = hash << lg_m;
    let rank = if tail == 0 {
        64 - lg_m + 1
    } else {
        tail.leading_zeros() + 1
    };
    ((hash >> (64 - lg_m)) as usize, rank as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcds_sketches::hash::Hashable;
    use fcds_sketches::hll::HllSketch;

    const SEED: u64 = 9001;

    fn hashed_stream(n: u64) -> Vec<u64> {
        (0..n).map(|i| i.hash_with_seed(SEED)).collect()
    }

    /// The sequential lg_m 12 sketch after the first `p` items.
    fn registers_at(stream: &[u64], p: usize) -> HllSketch {
        let mut sketch = HllSketch::new(12, SEED).unwrap();
        for &h in &stream[..p] {
            sketch.update_hash(h);
        }
        sketch
    }

    #[test]
    fn sequential_run_is_a_0_relaxation() {
        // Pins bucket and rank to `HllSketch::update_hash`: a mismatch
        // leaves registers unreached or items hidden.
        let stream = hashed_stream(50_000);
        let checker = HllChecker::new(0);
        for p in [0, 1, 100, 4_096, 20_000, 50_000] {
            let sketch = registers_at(&stream, p);
            checker
                .check_at(&stream, p, sketch.registers())
                .unwrap_or_else(|v| panic!("prefix {p}: {v}"));
        }
    }

    #[test]
    fn a_register_no_item_reaches_is_rejected() {
        let stream = hashed_stream(20_000);
        let mut registers = registers_at(&stream, 20_000).registers().to_vec();
        // One past a register's maximum: no item of the bucket has it.
        registers[7] += 1;
        assert_eq!(
            HllChecker::new(0).check_at(&stream, 20_000, &registers),
            Err(Violation::Unreached {
                register: 7,
                rank: registers[7]
            })
        );
    }

    #[test]
    fn hiding_r_items_is_admitted_and_r_plus_1_is_rejected() {
        let stream = hashed_stream(50_000);
        let base = registers_at(&stream, 20_000);
        // Prefix lengths after which 1, 2, … later items would grow the
        // answer's registers, found by the sketch itself.
        let growing: Vec<usize> = (20_000..stream.len())
            .filter(|&i| base.clone().update_hash(stream[i]))
            .map(|i| i + 1)
            .take(9)
            .collect();
        let r = 8;
        let checker = HllChecker::new(r);
        checker
            .check_at(&stream, growing[7], base.registers())
            .unwrap();
        assert_eq!(
            checker.check_at(&stream, growing[8], base.registers()),
            Err(Violation::TooManyHidden {
                prefix: growing[8],
                hidden: r + 1,
                allowed: r
            })
        );
    }

    #[test]
    fn a_window_reaching_back_to_the_answers_prefix_admits_it() {
        let stream = hashed_stream(30_000);
        let answer = registers_at(&stream, 20_000);
        let checker = HllChecker::new(0);
        checker
            .check_window(&stream, 10_000, 30_000, answer.registers())
            .unwrap();
        assert!(checker
            .check_window(&stream, 25_000, 30_000, answer.registers())
            .is_err());
    }

    #[test]
    fn violation_display_messages() {
        let v = Violation::Unreached {
            register: 3,
            rank: 9,
        };
        assert!(v.to_string().contains("register 3"));
        let v = Violation::TooManyHidden {
            prefix: 10,
            hidden: 5,
            allowed: 4,
        };
        assert!(v.to_string().contains("4 may be"));
    }
}
