//! Run-time r-relaxation checker for the concurrent Θ sketch.
//!
//! Theorem 1 promises: every query of `OptParSketch` returns the result
//! the *sequential* (de-randomised) sketch would return on some
//! sub-stream missing at most `r = 2Nb` of the preceding updates (in some
//! order). This module decides, for an observed query snapshot, whether
//! such a sub-stream exists — turning the paper's correctness theorem
//! into an executable test oracle.
//!
//! ## Admissibility conditions
//!
//! The quick-select Θ sketch maintains the invariant that its retained
//! set is exactly `{h ∈ seen : h < Θ}`, with Θ either 1 (`u64::MAX`, exact
//! mode) or the `(k+1)`-th smallest hash of the seen-set at the last
//! rebuild. Hence, for a query that saw sub-stream `S ⊆ P` (the distinct
//! preceding hashes) with `|P \ S| ≤ r`:
//!
//! * **exact mode** (Θ = 1): `retained = |S| ∈ [|P| − r, |P|]`, and the
//!   estimate equals `retained`;
//! * **estimation mode**: Θ is an element of `S` (so of `P`); writing
//!   `C(Θ) = |{h ∈ P : h < Θ}|`, the retained count satisfies
//!   `retained = |{h ∈ S : h < Θ}| ∈ [C(Θ) − r, C(Θ)]` and `retained ≥ k`;
//!   the estimate equals `retained/Θ`.
//!
//! These conditions are necessary; re-ordering freedom (a Θ sketch's
//! state is order-insensitive as a set, and the relaxation permits
//! reordering) makes them tight in practice, so violations reliably
//! expose lost updates, double merges, or torn snapshots.

use fcds_sketches::theta::{theta_to_fraction, THETA_MAX};
use std::collections::HashSet;

/// A query observation to validate: the published (Θ, retained, estimate)
/// triple of the concurrent Θ sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaObservation {
    /// Observed threshold (integer hash domain).
    pub theta: u64,
    /// Observed number of retained samples.
    pub retained: u64,
    /// Observed estimate.
    pub estimate: f64,
}

/// Reasons an observation is inadmissible under the r-relaxation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Θ is not a hash of any preceding update (and not 1).
    ThetaNotInStream {
        /// The offending Θ.
        theta: u64,
    },
    /// The retained count cannot be produced by hiding ≤ r updates.
    RetainedOutOfRange {
        /// Observed retained count.
        retained: u64,
        /// Smallest admissible value.
        lo: u64,
        /// Largest admissible value.
        hi: u64,
    },
    /// Estimation mode with fewer than k retained samples.
    BelowK {
        /// Observed retained count.
        retained: u64,
        /// The sketch's k.
        k: usize,
    },
    /// The estimate does not match `retained/Θ` (or `retained` in exact
    /// mode).
    EstimateMismatch {
        /// Observed estimate.
        observed: f64,
        /// Estimate implied by (Θ, retained).
        implied: f64,
    },
    /// No prefix length in the queried window admits the observation.
    NoValidPrefix {
        /// The most specific violation found at the window's upper end.
        last: Box<Violation>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ThetaNotInStream { theta } => {
                write!(f, "theta {theta} is not a preceding update's hash")
            }
            Violation::RetainedOutOfRange { retained, lo, hi } => {
                write!(f, "retained {retained} outside admissible [{lo}, {hi}]")
            }
            Violation::BelowK { retained, k } => {
                write!(f, "estimation mode with retained {retained} < k = {k}")
            }
            Violation::EstimateMismatch { observed, implied } => {
                write!(
                    f,
                    "estimate {observed} but (theta, retained) imply {implied}"
                )
            }
            Violation::NoValidPrefix { last } => {
                write!(
                    f,
                    "no prefix in window admits the observation; last: {last}"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

/// The r-relaxation checker for concurrent Θ sketch executions.
#[derive(Debug, Clone)]
pub struct ThetaChecker {
    k: usize,
    r: u64,
}

impl ThetaChecker {
    /// Creates a checker for a sketch with nominal size `k` and
    /// relaxation bound `r` (use `2Nb` for `OptParSketch`, Theorem 1).
    pub fn new(k: usize, r: u64) -> Self {
        ThetaChecker { k, r }
    }

    /// The relaxation bound.
    pub fn r(&self) -> u64 {
        self.r
    }

    /// Checks an observation against a query that saw exactly the first
    /// `preceding` updates of `stream` (normalised hashes, in ingestion
    /// order, duplicates allowed).
    pub fn check_at(
        &self,
        stream: &[u64],
        preceding: usize,
        obs: &ThetaObservation,
    ) -> Result<(), Violation> {
        self.scan(stream, preceding, preceding, obs)
    }

    /// Checks an observation for a query concurrent with ingestion: the
    /// query's linearisation point saw some prefix of length in
    /// `lo..=hi`. Admissible iff any prefix in the window admits it.
    pub fn check_window(
        &self,
        stream: &[u64],
        lo: usize,
        hi: usize,
        obs: &ThetaObservation,
    ) -> Result<(), Violation> {
        assert!(lo <= hi && hi <= stream.len(), "bad window");
        self.scan(stream, lo, hi, obs)
            .map_err(|last| Violation::NoValidPrefix {
                last: Box::new(last),
            })
    }

    /// One pass over `stream[..hi]` that tests every prefix length in
    /// `lo..=hi`; the violation at `hi` if none admits `obs`. Only the
    /// hashes below Θ, and Θ itself, bear on admissibility, so only those
    /// are kept — in estimation mode about `k` of them.
    fn scan(
        &self,
        stream: &[u64],
        lo: usize,
        hi: usize,
        obs: &ThetaObservation,
    ) -> Result<(), Violation> {
        let mut prefix = BelowTheta::default();
        for &h in &stream[..lo] {
            prefix.push(h, obs.theta);
        }
        let mut verdict = self.admits(&prefix, obs);
        for &h in &stream[lo..hi] {
            if verdict.is_ok() {
                break;
            }
            prefix.push(h, obs.theta);
            verdict = self.admits(&prefix, obs);
        }
        verdict
    }

    /// Core admissibility test against one prefix.
    fn admits(&self, prefix: &BelowTheta, obs: &ThetaObservation) -> Result<(), Violation> {
        let exact = obs.theta == THETA_MAX;
        if !exact {
            if (obs.retained as usize) < self.k {
                return Err(Violation::BelowK {
                    retained: obs.retained,
                    k: self.k,
                });
            }
            if !prefix.theta_seen {
                return Err(Violation::ThetaNotInStream { theta: obs.theta });
            }
        }
        // C(Θ) — in exact mode every distinct hash, |P|.
        let c_full = prefix.distinct.len() as u64;
        let lo = c_full.saturating_sub(self.r);
        if obs.retained < lo || obs.retained > c_full {
            return Err(Violation::RetainedOutOfRange {
                retained: obs.retained,
                lo,
                hi: c_full,
            });
        }
        let implied = if exact {
            obs.retained as f64
        } else {
            obs.retained as f64 / theta_to_fraction(obs.theta)
        };
        let rel = (obs.estimate - implied).abs() / implied.max(1.0);
        if rel > 1e-9 {
            return Err(Violation::EstimateMismatch {
                observed: obs.estimate,
                implied,
            });
        }
        Ok(())
    }
}

/// What a prefix of the stream holds for one observed Θ: its distinct
/// hashes below Θ, and whether Θ itself occurred.
#[derive(Default)]
struct BelowTheta {
    distinct: HashSet<u64>,
    theta_seen: bool,
}

impl BelowTheta {
    fn push(&mut self, h: u64, theta: u64) {
        if h < theta {
            self.distinct.insert(h);
        } else {
            self.theta_seen |= h == theta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcds_sketches::hash::Hashable;
    use fcds_sketches::theta::{normalize_hash, QuickSelectThetaSketch, ThetaRead};

    const SEED: u64 = 9001;

    fn hashed_stream(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| normalize_hash(i.hash_with_seed(SEED)))
            .collect()
    }

    fn observe(sketch: &QuickSelectThetaSketch) -> ThetaObservation {
        ThetaObservation {
            theta: sketch.theta(),
            retained: sketch.retained() as u64,
            estimate: sketch.estimate(),
        }
    }

    #[test]
    fn sequential_run_is_a_0_relaxation() {
        // Feed the sequential sketch and validate its own state at every
        // prefix: a correct sequential sketch is a 0-relaxation of itself.
        let stream = hashed_stream(20_000);
        let mut sketch = QuickSelectThetaSketch::new(6, SEED).unwrap();
        let checker = ThetaChecker::new(64, 0);
        for (i, &h) in stream.iter().enumerate() {
            sketch.update_hash(h);
            if i % 997 == 0 {
                checker
                    .check_at(&stream, i + 1, &observe(&sketch))
                    .unwrap_or_else(|v| panic!("violation at prefix {}: {v}", i + 1));
            }
        }
    }

    #[test]
    fn stale_snapshot_admissible_within_r() {
        // A snapshot taken `d ≤ r` updates ago must be admissible at the
        // current prefix with relaxation r.
        let stream = hashed_stream(50_000);
        let mut sketch = QuickSelectThetaSketch::new(6, SEED).unwrap();
        let r = 32u64;
        let checker = ThetaChecker::new(64, r);
        let mut history: Vec<ThetaObservation> = Vec::new();
        for &h in &stream {
            history.push(observe(&sketch));
            sketch.update_hash(h);
        }
        // Observation before update i reflects prefix i; check it against
        // prefixes up to i + r.
        for i in (0..stream.len()).step_by(1231) {
            for d in [0usize, 1, r as usize / 2, r as usize] {
                let p = (i + d).min(stream.len());
                checker
                    .check_at(&stream, p, &history[i])
                    .unwrap_or_else(|v| panic!("obs@{i} vs prefix {p}: {v}"));
            }
        }
    }

    #[test]
    fn snapshot_staler_than_r_rejected_eventually() {
        // Take a snapshot, then ingest far more than r fresh distinct
        // items; in estimation mode the old (Θ, retained) pair must
        // become inadmissible (retained falls below C(Θ) − r).
        let stream = hashed_stream(100_000);
        let mut sketch = QuickSelectThetaSketch::new(4, SEED).unwrap(); // k = 16
        let r = 8u64;
        let checker = ThetaChecker::new(16, r);
        for &h in &stream[..50_000] {
            sketch.update_hash(h);
        }
        let stale = observe(&sketch);
        assert!(
            checker.check_at(&stream, 50_000, &stale).is_ok(),
            "fresh snapshot must pass"
        );
        // 50k further distinct updates: ~half fall below the old Θ, far
        // more than r of them.
        assert!(
            checker.check_at(&stream, 100_000, &stale).is_err(),
            "snapshot 50k updates stale must violate r = 8"
        );
    }

    #[test]
    fn tampered_theta_rejected() {
        let stream = hashed_stream(30_000);
        let mut sketch = QuickSelectThetaSketch::new(6, SEED).unwrap();
        for &h in &stream {
            sketch.update_hash(h);
        }
        let mut obs = observe(&sketch);
        obs.theta ^= 0xDEADBEEF; // almost surely not a stream hash
        assert!(matches!(
            ThetaChecker::new(64, 16).check_at(&stream, stream.len(), &obs),
            Err(Violation::ThetaNotInStream { .. })
        ));
    }

    #[test]
    fn inflated_retained_rejected() {
        let stream = hashed_stream(30_000);
        let mut sketch = QuickSelectThetaSketch::new(6, SEED).unwrap();
        for &h in &stream {
            sketch.update_hash(h);
        }
        let mut obs = observe(&sketch);
        obs.retained += 50; // more samples below Θ than exist
        obs.estimate = obs.retained as f64 / theta_to_fraction(obs.theta);
        assert!(matches!(
            ThetaChecker::new(64, 16).check_at(&stream, stream.len(), &obs),
            Err(Violation::RetainedOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_estimate_rejected() {
        let stream = hashed_stream(30_000);
        let mut sketch = QuickSelectThetaSketch::new(6, SEED).unwrap();
        for &h in &stream {
            sketch.update_hash(h);
        }
        let mut obs = observe(&sketch);
        obs.estimate *= 1.5;
        assert!(matches!(
            ThetaChecker::new(64, 16).check_at(&stream, stream.len(), &obs),
            Err(Violation::EstimateMismatch { .. })
        ));
    }

    #[test]
    fn below_k_rejected() {
        let stream = hashed_stream(1000);
        let obs = ThetaObservation {
            theta: stream[0],
            retained: 3,
            estimate: 3.0 / theta_to_fraction(stream[0]),
        };
        assert!(matches!(
            ThetaChecker::new(64, 16).check_at(&stream, 1000, &obs),
            Err(Violation::BelowK { .. })
        ));
    }

    #[test]
    fn exact_mode_with_missing_updates_within_r() {
        let stream = hashed_stream(100);
        let checker = ThetaChecker::new(1024, 8);
        // Query missed 5 of 100 distinct updates.
        let obs = ThetaObservation {
            theta: THETA_MAX,
            retained: 95,
            estimate: 95.0,
        };
        assert!(checker.check_at(&stream, 100, &obs).is_ok());
        // Missing 9 > r = 8 is not admissible.
        let obs = ThetaObservation {
            theta: THETA_MAX,
            retained: 91,
            estimate: 91.0,
        };
        assert!(checker.check_at(&stream, 100, &obs).is_err());
    }

    #[test]
    fn window_check_accepts_any_admissible_prefix() {
        let stream = hashed_stream(5_000);
        let mut sketch = QuickSelectThetaSketch::new(4, SEED).unwrap();
        for &h in &stream[..3_000] {
            sketch.update_hash(h);
        }
        let obs = observe(&sketch);
        let checker = ThetaChecker::new(16, 0);
        // The observation corresponds to prefix 3000 exactly; a window
        // containing 3000 must accept even with r = 0.
        checker.check_window(&stream, 2_990, 3_010, &obs).unwrap();
        // A window strictly after it must reject with r = 0 (new distinct
        // items below Θ arrived).
        assert!(checker.check_window(&stream, 3_200, 3_300, &obs).is_err());
    }

    #[test]
    fn duplicates_do_not_inflate_the_preceding_set() {
        // Stream with every item repeated: the distinct prefix is half.
        let base = hashed_stream(200);
        let mut stream = Vec::new();
        for &h in &base {
            stream.push(h);
            stream.push(h);
        }
        let checker = ThetaChecker::new(1024, 0);
        let obs = ThetaObservation {
            theta: THETA_MAX,
            retained: 200,
            estimate: 200.0,
        };
        checker.check_at(&stream, 400, &obs).unwrap();
    }

    #[test]
    fn violation_display_messages() {
        let v = Violation::ThetaNotInStream { theta: 5 };
        assert!(v.to_string().contains("theta 5"));
        let v = Violation::RetainedOutOfRange {
            retained: 10,
            lo: 12,
            hi: 20,
        };
        assert!(v.to_string().contains("[12, 20]"));
        let v = Violation::NoValidPrefix {
            last: Box::new(Violation::BelowK { retained: 1, k: 16 }),
        };
        assert!(v.to_string().contains("no prefix"));
    }
}
