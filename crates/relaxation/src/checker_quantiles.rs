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

use fcds_sketches::quantiles::relaxed_epsilon;

/// A quantile-query observation to validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileObservation<T> {
    /// The queried quantile φ ∈ [0, 1].
    pub phi: f64,
    /// The returned element.
    pub answer: T,
}

/// Why a quantiles observation was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantilesViolation {
    /// The answer is not an element of the preceding stream.
    NotInStream,
    /// The answer's rank lies outside the relaxed PAC envelope.
    RankOutOfRange {
        /// True normalised rank of the answer in the preceding stream.
        rank: f64,
        /// Lower envelope bound (normalised).
        lo: f64,
        /// Upper envelope bound (normalised).
        hi: f64,
    },
}

impl std::fmt::Display for QuantilesViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantilesViolation::NotInStream => write!(f, "answer not in preceding stream"),
            QuantilesViolation::RankOutOfRange { rank, lo, hi } => {
                write!(f, "answer rank {rank:.4} outside [{lo:.4}, {hi:.4}]")
            }
        }
    }
}

impl std::error::Error for QuantilesViolation {}

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

    /// Checks an observation against the first `preceding` elements of
    /// `stream`.
    ///
    /// The envelope derives from Equation (1) of §6.2 with the hidden
    /// split `(i, j)` free: rank must lie in
    /// `[(φ−ε)(n−r), (φ+ε)(n−r)+r]` (normalised by n, and clipped to
    /// `[0, 1]`).
    pub fn check_at<T: Ord>(
        &self,
        stream: &[T],
        preceding: usize,
        obs: &QuantileObservation<T>,
    ) -> Result<(), QuantilesViolation> {
        self.check_window(stream, preceding, preceding, obs)
    }

    /// Checks an observation for a query concurrent with ingestion: the
    /// query's linearisation point saw some prefix of length in
    /// `lo..=hi` — e.g. `lo` = items of batch calls that returned before
    /// the query was invoked, `hi` = items of calls invoked before it
    /// responded. Admissible iff any prefix in the window admits it;
    /// otherwise the violation at `hi` is returned. Incremental: the
    /// answer's rank is counted once over the first `lo` items and then
    /// advanced one item per prefix length.
    pub fn check_window<T: Ord>(
        &self,
        stream: &[T],
        lo: usize,
        hi: usize,
        obs: &QuantileObservation<T>,
    ) -> Result<(), QuantilesViolation> {
        assert!(lo <= hi && hi <= stream.len(), "bad window");
        let mut rank = AnswerRank::default();
        for item in &stream[..lo] {
            rank.add(item, &obs.answer);
        }
        let mut verdict = self.check_rank(lo, rank, obs.phi);
        for (len, item) in (lo + 1..=hi).zip(&stream[lo..hi]) {
            if verdict.is_ok() {
                break;
            }
            rank.add(item, &obs.answer);
            verdict = self.check_rank(len, rank, obs.phi);
        }
        verdict
    }

    /// The admissibility test for an answer of `rank` in a prefix of
    /// `len` items.
    fn check_rank(&self, len: usize, rank: AnswerRank, phi: f64) -> Result<(), QuantilesViolation> {
        if rank.equal == 0 {
            return Err(QuantilesViolation::NotInStream);
        }
        let n = len as f64;
        let below = rank.below as f64;
        let equal = rank.equal as f64;
        // The answer occupies the rank interval [below, below+equal); use
        // the closest point to the envelope (duplicates make any of these
        // ranks legitimate for the returned element).
        let r = self.r as f64;
        let eps = self.epsilon;
        let lo = ((phi - eps) * (n - r)).max(0.0);
        let hi = ((phi + eps) * (n - r) + r).min(n);
        let rank_lo = below;
        let rank_hi = below + equal;
        // Admissible iff the rank interval intersects the envelope.
        if rank_hi < lo || rank_lo > hi {
            return Err(QuantilesViolation::RankOutOfRange {
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
struct AnswerRank {
    below: usize,
    equal: usize,
}

impl AnswerRank {
    /// Counts one more prefix item into the rank of `answer`.
    fn add<T: Ord>(&mut self, item: &T, answer: &T) {
        match item.cmp(answer) {
            std::cmp::Ordering::Less => self.below += 1,
            std::cmp::Ordering::Equal => self.equal += 1,
            std::cmp::Ordering::Greater => {}
        }
    }
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
            Err(QuantilesViolation::NotInStream)
        );
        assert!(matches!(
            checker.check_window(&stream, 15_000, 20_000, &obs),
            Err(QuantilesViolation::RankOutOfRange { .. })
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
            Err(QuantilesViolation::RankOutOfRange { .. })
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
            Err(QuantilesViolation::NotInStream)
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
