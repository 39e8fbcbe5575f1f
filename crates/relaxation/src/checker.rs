//! Run-time r-relaxation checkers: one window loop for every family.
//!
//! Theorem 1 promises: every query of `OptParSketch` returns the result
//! the *sequential* (de-randomised) sketch would return on some
//! sub-stream missing at most `r = 2Nb` of the preceding updates (in some
//! order). A [`Checker`] decides, for an observed answer, whether such a
//! sub-stream exists — turning the paper's correctness theorem into an
//! executable test oracle. The theorem holds for any family, so the
//! window loop is written once ([`Checker::check_window`]); a family
//! supplies only what a prefix of the stream holds for one answer and an
//! O(1) test of it, so a window is one pass at O(1) per item. Every
//! family reports rejections as one [`Violation`].
//!
//! The families: [`ThetaChecker`] (here), [`HllChecker`],
//! [`QuantilesChecker`] and [`MgChecker`].
//!
//! ## Θ admissibility conditions
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
//!
//! [`HllChecker`]: crate::checker_hll::HllChecker
//! [`QuantilesChecker`]: crate::checker_quantiles::QuantilesChecker
//! [`MgChecker`]: crate::checker_mg::MgChecker

use fcds_sketches::error::WireError;
use fcds_sketches::theta::{theta_to_fraction, THETA_MAX};
use std::collections::HashSet;

/// An r-relaxation checker for one sketch family over a stream of
/// `Item`s: what a stream prefix holds for one observed answer, and
/// whether that prefix admits it.
pub trait Checker<Item> {
    /// The observed answer.
    type Answer: ?Sized;
    /// What a stream prefix holds whatever the answer — e.g. each key's
    /// count — kept once per walk of the stream and shared by every
    /// answer checked in it. `()` for a family with nothing to share.
    type Log: Default;
    /// What a stream prefix holds that bears on one answer.
    type Prefix;

    /// The empty prefix's state for `obs`.
    fn prefix(&self, obs: &Self::Answer) -> Self::Prefix;

    /// Extends the shared `log` by one stream item, before any answer's
    /// [`Self::push`] of it. Nothing by default.
    fn log(&self, _log: &mut Self::Log, _item: &Item) {}

    /// Extends `prefix` by one stream item; `log` already holds it.
    fn push(&self, log: &Self::Log, prefix: &mut Self::Prefix, item: &Item, obs: &Self::Answer);

    /// Whether the prefix of `len` items `prefix` describes admits `obs`.
    /// O(1).
    ///
    /// # Errors
    ///
    /// The [`Violation`] that rules the prefix out.
    fn admits(&self, prefix: &Self::Prefix, len: usize, obs: &Self::Answer) -> Verdict;

    /// Checks `obs` against a query that saw exactly the first `at` items
    /// of `stream`.
    ///
    /// # Errors
    ///
    /// The [`Violation`] at `at`.
    fn check_at(&self, stream: &[Item], at: usize, obs: &Self::Answer) -> Verdict {
        self.check_window(stream, at, at, obs)
    }

    /// Checks `obs` for a query concurrent with ingestion: its
    /// linearisation point saw some prefix of length in `lo..=hi` — e.g.
    /// `lo` = items of calls that returned before the query was invoked,
    /// `hi` = items of calls invoked before it responded. Admissible iff
    /// any prefix in the window admits it. One pass over `stream[..hi]`.
    ///
    /// # Errors
    ///
    /// The [`Violation`] at `hi` when no prefix in the window admits
    /// `obs`.
    ///
    /// # Panics
    ///
    /// Panics if the window is not inside `stream`.
    fn check_window(&self, stream: &[Item], lo: usize, hi: usize, obs: &Self::Answer) -> Verdict {
        self.check_many(stream, &[(lo, hi, obs)])
            .pop()
            .expect("one verdict per read")
    }

    /// [`Self::check_window`] for many reads of one stream, each a
    /// `(lo, hi, answer)` window, in one pass over `stream`: the shared
    /// [`Self::Log`] is built once, and each read's prefix goes with it
    /// until the read is decided — at the first prefix in its window
    /// that admits it, or at its `hi`. Every read is tested against its
    /// own window at every prefix, so the reads need no order. Returns
    /// the verdicts in `reads`' order.
    ///
    /// # Panics
    ///
    /// Panics if a window is not inside `stream`.
    fn check_many(&self, stream: &[Item], reads: &[(usize, usize, &Self::Answer)]) -> Vec<Verdict> {
        let mut verdicts: Vec<Verdict> = vec![Ok(()); reads.len()];
        let mut live: Vec<(usize, Self::Prefix)> = Vec::with_capacity(reads.len());
        for (i, &(lo, hi, obs)) in reads.iter().enumerate() {
            assert!(lo <= hi && hi <= stream.len(), "bad window");
            live.push((i, self.prefix(obs)));
        }
        let mut log = Self::Log::default();
        for len in 0..=stream.len() {
            live.retain(|(i, prefix)| {
                let (lo, hi, obs) = reads[*i];
                if len < lo {
                    return true;
                }
                match self.admits(prefix, len, obs) {
                    Ok(()) => false,
                    Err(violation) if len == hi => {
                        verdicts[*i] = Err(violation);
                        false
                    }
                    Err(_) => true,
                }
            });
            let Some(item) = stream.get(len).filter(|_| !live.is_empty()) else {
                break;
            };
            self.log(&mut log, item);
            for (i, prefix) in &mut live {
                self.push(&log, prefix, item, reads[*i].2);
            }
        }
        verdicts
    }
}

/// An answer's verdict: admissible, or the [`Violation`] that rules it
/// out.
pub type Verdict = Result<(), Violation>;

/// Why an answer is inadmissible under the r-relaxation, for every
/// family.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Θ: Θ is not a hash of any preceding update (and not 1).
    ThetaNotInStream {
        /// The offending Θ.
        theta: u64,
    },
    /// Θ: the retained count cannot be produced by hiding ≤ r updates.
    RetainedOutOfRange {
        /// Observed retained count.
        retained: u64,
        /// Smallest admissible value.
        lo: u64,
        /// Largest admissible value.
        hi: u64,
    },
    /// Θ: estimation mode with fewer than k retained samples.
    BelowK {
        /// Observed retained count.
        retained: u64,
        /// The sketch's k.
        k: usize,
    },
    /// Θ: the estimate does not match `retained/Θ` (or `retained` in
    /// exact mode).
    EstimateMismatch {
        /// Observed estimate.
        observed: f64,
        /// Estimate implied by (Θ, retained).
        implied: f64,
    },
    /// HLL: no item of the register's bucket in the prefix has the
    /// register's rank.
    Unreached {
        /// The lowest such register.
        register: usize,
        /// Its rank in the answer.
        rank: u8,
    },
    /// HLL, Misra–Gries: admitting the answer would hide more updates
    /// than may be hidden.
    TooManyHidden {
        /// The prefix length.
        prefix: usize,
        /// Updates that would have to be hidden there.
        hidden: u64,
        /// Updates that may be hidden there.
        allowed: u64,
    },
    /// Quantiles: the answer is not an element of the prefix.
    NotInStream,
    /// Quantiles: the answer's rank lies outside the relaxed PAC
    /// envelope.
    RankOutOfRange {
        /// True normalised rank of the answer in the prefix.
        rank: f64,
        /// Lower envelope bound (normalised).
        lo: f64,
        /// Upper envelope bound (normalised).
        hi: f64,
    },
    /// Quantiles, Misra–Gries: the answer summarises `n` items, and the
    /// prefix admits only `[lo, hi]`.
    LengthOutOfRange {
        /// The answer's item count.
        n: u64,
        /// Smallest admissible count.
        lo: u64,
        /// Largest admissible count.
        hi: u64,
    },
    /// Misra–Gries: reported keys whose counter exceeds their count in
    /// the prefix.
    Overcounted {
        /// How many keys.
        keys: usize,
    },
    /// The image does not parse or validate.
    Malformed(WireError),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ThetaNotInStream { theta } => {
                write!(f, "theta {theta} is not a preceding update's hash")
            }
            Self::RetainedOutOfRange { retained, lo, hi } => {
                write!(f, "retained {retained} outside admissible [{lo}, {hi}]")
            }
            Self::BelowK { retained, k } => {
                write!(f, "estimation mode with retained {retained} < k = {k}")
            }
            Self::EstimateMismatch { observed, implied } => {
                write!(
                    f,
                    "estimate {observed} but (theta, retained) imply {implied}"
                )
            }
            Self::Unreached { register, rank } => {
                write!(f, "register {register} holds rank {rank} no item reaches")
            }
            Self::TooManyHidden {
                prefix,
                hidden,
                allowed,
            } => {
                write!(
                    f,
                    "{hidden} updates of prefix {prefix} must be hidden, {allowed} may be"
                )
            }
            Self::NotInStream => write!(f, "answer not in preceding stream"),
            Self::RankOutOfRange { rank, lo, hi } => {
                write!(f, "answer rank {rank:.4} outside [{lo:.4}, {hi:.4}]")
            }
            Self::LengthOutOfRange { n, lo, hi } => {
                write!(f, "answer of {n} items outside admissible [{lo}, {hi}]")
            }
            Self::Overcounted { keys } => write!(f, "{keys} counters exceed their key's count"),
            Self::Malformed(e) => write!(f, "malformed image: {e}"),
        }
    }
}

impl std::error::Error for Violation {}

impl From<WireError> for Violation {
    fn from(e: WireError) -> Self {
        Violation::Malformed(e)
    }
}

/// `Ok` iff an answer of `n` items lies in `[lo, hi]`.
pub(crate) fn length_in(n: u64, lo: u64, hi: u64) -> Verdict {
    if (lo..=hi).contains(&n) {
        return Ok(());
    }
    Err(Violation::LengthOutOfRange { n, lo, hi })
}

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

/// The r-relaxation checker for concurrent Θ sketch executions, over a
/// stream of normalised hashes (duplicates allowed).
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
}

impl Checker<u64> for ThetaChecker {
    type Answer = ThetaObservation;
    type Log = ();
    type Prefix = BelowTheta;

    fn prefix(&self, _: &ThetaObservation) -> BelowTheta {
        BelowTheta::default()
    }

    fn push(&self, _: &(), prefix: &mut BelowTheta, &h: &u64, obs: &ThetaObservation) {
        if h < obs.theta {
            prefix.distinct.insert(h);
        } else {
            prefix.theta_seen |= h == obs.theta;
        }
    }

    fn admits(&self, prefix: &BelowTheta, _: usize, obs: &ThetaObservation) -> Verdict {
        let (exact, retained, k) = (obs.theta == THETA_MAX, obs.retained, self.k);
        if !exact {
            if (retained as usize) < k {
                return Err(Violation::BelowK { retained, k });
            }
            if !prefix.theta_seen {
                return Err(Violation::ThetaNotInStream { theta: obs.theta });
            }
        }
        // C(Θ) — in exact mode every distinct hash, |P|.
        let hi = prefix.distinct.len() as u64;
        let lo = hi.saturating_sub(self.r);
        if retained < lo || retained > hi {
            return Err(Violation::RetainedOutOfRange { retained, lo, hi });
        }
        let implied = if exact {
            retained as f64
        } else {
            retained as f64 / theta_to_fraction(obs.theta)
        };
        let observed = obs.estimate;
        if (observed - implied).abs() / implied.max(1.0) > 1e-9 {
            return Err(Violation::EstimateMismatch { observed, implied });
        }
        Ok(())
    }
}

/// What a prefix of the stream holds for one observed Θ: its distinct
/// hashes below Θ, and whether Θ itself occurred. Only those bear on
/// admissibility — in estimation mode about `k` of them.
#[derive(Debug, Default)]
pub struct BelowTheta {
    distinct: HashSet<u64>,
    theta_seen: bool,
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
        let v = Violation::LengthOutOfRange {
            n: 7,
            lo: 8,
            hi: 40,
        };
        assert!(v.to_string().contains("[8, 40]"));
        let v = Violation::from(WireError::BadMagic { found: 0 });
        assert!(v.to_string().starts_with("malformed image"));
    }
}
