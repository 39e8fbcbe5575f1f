//! Run-time r-relaxation checker for the concurrent Quantiles sketch
//! (§6.2).
//!
//! The paper's result: an r-relaxed PAC quantiles sketch answers a query
//! for quantile φ with an element whose rank in the *full* stream lies in
//! `(φ ± ε_r)·n`, where `ε_r = ε − rε/n + r/n`. The derivation (Equations
//! 1–2) brackets the returned element's rank when the adversary hides
//! `i` elements below and `j` above the quantile with `i + j ≤ r`:
//!
//! `rank ∈ [(φ−ε)(n−(i+j)) + i, (φ+ε)(n−(i+j)) + i]`.
//!
//! The checker inverts that: an observed answer is admissible iff *some*
//! `(i, j)` with `i + j ≤ r` puts its true rank inside the bracket.
//! Minimising/maximising over `i, j` gives the envelope
//! `[(φ−ε)(n−r), (φ+ε)(n−r) + r]`, which is what we test (together with
//! the membership requirement that the answer is an actual stream
//! element).

use crate::checker::{Checker, Verdict, Violation};
use fcds_sketches::quantiles::relaxed_epsilon;

/// A quantile-query observation to validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileObservation<T> {
    /// The queried quantile φ ∈ [0, 1].
    pub phi: f64,
    /// The returned element.
    pub answer: T,
}

/// The r-relaxation checker for quantile queries.
#[derive(Debug, Clone, Copy)]
pub struct QuantilesChecker {
    /// The sketch's PAC rank-error parameter ε.
    pub epsilon: f64,
    /// The relaxation bound `r = 2Nb`.
    pub r: u64,
}

impl QuantilesChecker {
    /// Creates a checker from the sketch's ε and the engine's `r`.
    pub fn new(epsilon: f64, r: u64) -> Self {
        QuantilesChecker { epsilon, r }
    }

    /// The effective relaxed error bound ε_r at stream length `n` (§6.2).
    pub fn epsilon_r(&self, n: u64) -> f64 {
        relaxed_epsilon(self.epsilon, self.r, n)
    }
}

impl<T: Ord> Checker<T> for QuantilesChecker {
    type Answer = QuantileObservation<T>;
    type Log = ();
    type Prefix = AnswerRank;

    fn prefix(&self, _: &QuantileObservation<T>) -> AnswerRank {
        AnswerRank::default()
    }

    fn push(&self, _: &(), rank: &mut AnswerRank, item: &T, obs: &QuantileObservation<T>) {
        match item.cmp(&obs.answer) {
            std::cmp::Ordering::Less => rank.below += 1,
            std::cmp::Ordering::Equal => rank.equal += 1,
            std::cmp::Ordering::Greater => {}
        }
    }

    /// The envelope derives from Equation (1) of §6.2 with the hidden
    /// split `(i, j)` free: rank must lie in
    /// `[(φ−ε)(n−r), (φ+ε)(n−r)+r]` (normalised by n, and clipped to
    /// `[0, 1]`).
    fn admits(&self, rank: &AnswerRank, len: usize, obs: &QuantileObservation<T>) -> Verdict {
        if rank.equal == 0 {
            return Err(Violation::NotInStream);
        }
        let (n, r, below) = (len as f64, self.r as f64, rank.below as f64);
        let lo = ((obs.phi - self.epsilon) * (n - r)).max(0.0);
        let hi = ((obs.phi + self.epsilon) * (n - r) + r).min(n);
        // The answer occupies the rank interval [below, below+equal)
        // (duplicates make any of these ranks legitimate for the
        // returned element): admissible iff it intersects the envelope.
        if below + (rank.equal as f64) < lo || below > hi {
            return Err(Violation::RankOutOfRange {
                rank: below / n,
                lo: lo / n,
                hi: hi / n,
            });
        }
        Ok(())
    }
}

/// Where an answer sits in a stream prefix: the items below it and the
/// items equal to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnswerRank {
    below: usize,
    equal: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcds_sketches::oracle::DeterministicOracle;
    use fcds_sketches::quantiles::{epsilon_for_k, QuantilesSketch};

    fn sequential_answers(
        n: u64,
        k: usize,
        phis: &[f64],
    ) -> (Vec<u64>, Vec<QuantileObservation<u64>>) {
        let stream: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
        let mut q = QuantilesSketch::new(k, DeterministicOracle::new(1)).unwrap();
        for &v in &stream {
            q.update(v);
        }
        let obs = phis
            .iter()
            .map(|&phi| QuantileObservation {
                phi,
                answer: q.quantile(phi).unwrap(),
            })
            .collect();
        (stream, obs)
    }

    #[test]
    fn sequential_sketch_passes_with_r_zero() {
        let k = 128;
        let (stream, obs) = sequential_answers(50_000, k, &[0.1, 0.25, 0.5, 0.75, 0.9]);
        // Slack on ε: the empirical fit is not a hard bound.
        let checker = QuantilesChecker::new(3.0 * epsilon_for_k(k), 0);
        for o in &obs {
            checker
                .check_at(&stream, stream.len(), o)
                .unwrap_or_else(|v| panic!("phi={}: {v}", o.phi));
        }
    }

    #[test]
    fn stale_answers_pass_within_r() {
        // Answer computed at prefix p, checked at prefix p + d with
        // d ≤ r: admissible.
        let k = 128;
        let n = 40_000u64;
        let stream: Vec<u64> = (0..n).collect();
        let mut q = QuantilesSketch::<u64>::with_seed(k, 3).unwrap();
        let p = 30_000usize;
        for &v in &stream[..p] {
            q.update(v);
        }
        let r = 256u64;
        let checker = QuantilesChecker::new(3.0 * epsilon_for_k(k), r);
        let obs = QuantileObservation {
            phi: 0.5,
            answer: q.quantile(0.5).unwrap(),
        };
        for d in [0u64, r / 2, r] {
            checker
                .check_at(&stream, p + d as usize, &obs)
                .unwrap_or_else(|v| panic!("d={d}: {v}"));
        }
    }

    #[test]
    fn window_admits_an_answer_from_any_prefix_in_it() {
        // An ascending stream moves the median with every item: the
        // median of the first 10 000 items is far off at 20 000, and
        // admissible for any window reaching back to 10 000.
        let stream: Vec<u64> = (0..20_000).collect();
        let checker = QuantilesChecker::new(0.01, 16);
        let obs = QuantileObservation {
            phi: 0.5,
            answer: 5_000u64,
        };
        assert!(checker.check_at(&stream, 20_000, &obs).is_err());
        checker
            .check_window(&stream, 10_000, 20_000, &obs)
            .unwrap_or_else(|v| panic!("{v}"));
        checker
            .check_window(&stream, 9_000, 10_000, &obs)
            .unwrap_or_else(|v| panic!("{v}"));
        // Prefixes that do not reach the answer, or see it far off.
        assert_eq!(
            checker.check_window(&stream, 0, 5_000, &obs),
            Err(Violation::NotInStream)
        );
        assert!(matches!(
            checker.check_window(&stream, 15_000, 20_000, &obs),
            Err(Violation::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn far_off_answer_rejected() {
        let stream: Vec<u64> = (0..10_000).collect();
        let checker = QuantilesChecker::new(0.02, 16);
        // Claim the median is the 99th percentile element.
        let obs = QuantileObservation {
            phi: 0.5,
            answer: 9_900u64,
        };
        assert!(matches!(
            checker.check_at(&stream, stream.len(), &obs),
            Err(Violation::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn foreign_answer_rejected() {
        let stream: Vec<u64> = (0..1_000).collect();
        let checker = QuantilesChecker::new(0.1, 16);
        let obs = QuantileObservation {
            phi: 0.5,
            answer: 5_000u64,
        };
        assert_eq!(
            checker.check_at(&stream, stream.len(), &obs),
            Err(Violation::NotInStream)
        );
    }

    #[test]
    fn duplicates_widen_the_admissible_interval() {
        // Half the stream is the same value: it is an admissible answer
        // for a wide range of φ.
        let mut stream: Vec<u64> = vec![500; 5_000];
        stream.extend(0..5_000u64);
        let checker = QuantilesChecker::new(0.02, 8);
        // Value 500 occupies ranks [0.05, 0.55]: admissible across that
        // whole range…
        for phi in [0.1, 0.2, 0.4, 0.5] {
            let obs = QuantileObservation { phi, answer: 500 };
            checker
                .check_at(&stream, stream.len(), &obs)
                .unwrap_or_else(|v| panic!("phi={phi}: {v}"));
        }
        // …but not beyond it.
        let obs = QuantileObservation {
            phi: 0.62,
            answer: 500,
        };
        assert!(checker.check_at(&stream, stream.len(), &obs).is_err());
    }

    #[test]
    fn envelope_tightens_as_stream_grows() {
        let checker = QuantilesChecker::new(0.01, 100);
        assert!(checker.epsilon_r(1_000) > checker.epsilon_r(100_000));
        assert!((checker.epsilon_r(u64::MAX / 2) - 0.01).abs() < 1e-6);
    }
}
