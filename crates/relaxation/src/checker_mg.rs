//! Run-time r-relaxation checker for the concurrent Misra–Gries sketch.
//!
//! Misra–Gries is not a function of the items alone — which counters a
//! reduction drops depends on how the stream was cut into merged
//! batches, and under concurrency that schedule is not replayable — so
//! the checker tests bounds rather than replaying the sequential sketch.
//! An image of a sub-stream `S` reports `n = |S|`, a uniform slack
//! `error` and counters `c_x` with `c_x ≤ f_S(x) ≤ c_x + error` for
//! every key (an unreported key has `c_x = 0`): the engine merges each
//! writer's buffered items as one exact batch summary and reduces with
//! `error` accumulated (the mergeable-summaries merge), so every
//! published image keeps this. If `S` is a prefix `P` of length `p` with
//! `p − n` items hidden, then:
//!
//! * `n ≤ p ≤ n + r`;
//! * every reported key has `f_p(x) ≥ c_x`, since `f_p(x) ≥ f_S(x)`;
//! * at least `f_p(x) − c_x − error` items of key `x` are hidden, so
//!   `Σ_x max(0, f_p(x) − c_x − error) ≤ p − n`.
//!
//! All three hold for every admissible image, so a failure is a real
//! violation. Prefix counts only grow, so the walk keeps each key's
//! count once, in the log every answer shares, and each answer's prefix
//! keeps the number of reported keys not yet reached and the summed
//! excess: every test is O(1).

use crate::checker::{length_in, Checker, Verdict, Violation};
use std::collections::HashMap;
use std::hash::Hash;

/// A Misra–Gries answer: the item count, the uniform error slack and the
/// reported counters.
#[derive(Debug, Clone)]
pub struct MgObservation<T> {
    /// Items the answer summarises.
    pub n: u64,
    /// The uniform error slack.
    pub error: u64,
    /// The reported counters.
    pub counters: HashMap<T, u64>,
}

/// The r-relaxation checker for concurrent Misra–Gries executions, over
/// the stream of items.
#[derive(Debug, Clone, Copy)]
pub struct MgChecker {
    r: u64,
}

impl MgChecker {
    /// Creates a checker with relaxation bound `r` (`2Nb`, Theorem 1).
    pub fn new(r: u64) -> Self {
        MgChecker { r }
    }
}

/// What a prefix of the stream holds for one answer: the reported keys
/// whose counter it has not reached, and
/// `Σ_x max(0, f_p(x) − c_x − error)`. Each key's prefix count is the
/// walk's shared log.
#[derive(Debug)]
pub struct MgPrefix {
    unmet: usize,
    excess: u64,
}

impl<T: Eq + Hash + Clone> Checker<T> for MgChecker {
    type Answer = MgObservation<T>;
    type Log = HashMap<T, u64>;
    type Prefix = MgPrefix;

    fn prefix(&self, obs: &MgObservation<T>) -> MgPrefix {
        MgPrefix {
            unmet: obs.counters.values().filter(|&&c| c > 0).count(),
            excess: 0,
        }
    }

    fn log(&self, counts: &mut HashMap<T, u64>, item: &T) {
        *counts.entry(item.clone()).or_insert(0) += 1;
    }

    fn push(
        &self,
        counts: &HashMap<T, u64>,
        prefix: &mut MgPrefix,
        item: &T,
        obs: &MgObservation<T>,
    ) {
        let count = counts[item];
        let counter = obs.counters.get(item).copied().unwrap_or(0);
        if count == counter {
            prefix.unmet -= 1;
        }
        if count > counter.saturating_add(obs.error) {
            prefix.excess += 1;
        }
    }

    fn admits(&self, prefix: &MgPrefix, len: usize, obs: &MgObservation<T>) -> Verdict {
        let p = len as u64;
        length_in(obs.n, p.saturating_sub(self.r), p)?;
        if prefix.unmet > 0 {
            return Err(Violation::Overcounted { keys: prefix.unmet });
        }
        let (hidden, allowed) = (prefix.excess, p - obs.n);
        if hidden > allowed {
            return Err(Violation::TooManyHidden {
                prefix: len,
                hidden,
                allowed,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcds_sketches::frequency::MisraGriesSketch;
    use fcds_sketches::hash::Hashable;

    /// `n` items over 600 keys, the small keys far more frequent.
    fn skewed_stream(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| {
                let u = (i.hash_with_seed(9001) >> 11) as f64 / (1u64 << 53) as f64;
                (600.0 * u * u * u) as u64
            })
            .collect()
    }

    /// The k 64 sequential sketch's answer after the first `p` items.
    fn answer_at(stream: &[u64], p: usize) -> MgObservation<u64> {
        let mut mg = MisraGriesSketch::new(64).unwrap();
        for &item in &stream[..p] {
            mg.update(item);
        }
        MgObservation {
            n: mg.n(),
            error: mg.max_error(),
            counters: mg.counters().map(|(&item, c)| (item, c)).collect(),
        }
    }

    fn count(stream: &[u64], key: u64) -> u64 {
        stream.iter().filter(|&&x| x == key).count() as u64
    }

    #[test]
    fn sequential_run_is_a_0_relaxation() {
        let stream = skewed_stream(20_000);
        let keys: std::collections::HashSet<_> = stream.iter().collect();
        assert!(keys.len() >= 500, "{} keys", keys.len());
        let checker = MgChecker::new(0);
        for p in [0, 1, 1_000, 7_777, 20_000] {
            checker
                .check_at(&stream, p, &answer_at(&stream, p))
                .unwrap_or_else(|v| panic!("prefix {p}: {v}"));
        }
        assert!(answer_at(&stream, 20_000).error > 0, "no reduction ran");
    }

    #[test]
    fn a_counter_above_its_keys_count_is_rejected() {
        let stream = skewed_stream(20_000);
        let mut obs = answer_at(&stream, 20_000);
        let key = *obs.counters.keys().max().unwrap();
        obs.counters.insert(key, count(&stream, key) + 1);
        assert_eq!(
            MgChecker::new(0).check_at(&stream, 20_000, &obs),
            Err(Violation::Overcounted { keys: 1 })
        );
    }

    #[test]
    fn an_answer_is_admitted_r_items_late_and_rejected_one_later() {
        let stream = skewed_stream(20_000);
        let (p0, r) = (10_000, 32);
        let obs = answer_at(&stream, p0);
        let checker = MgChecker::new(r);
        checker
            .check_at(&stream, p0 + r as usize, &obs)
            .unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(
            checker.check_at(&stream, p0 + r as usize + 1, &obs),
            Err(Violation::LengthOutOfRange {
                n: p0 as u64,
                lo: p0 as u64 + 1,
                hi: p0 as u64 + r + 1
            })
        );
    }

    #[test]
    fn an_unreported_key_past_error_plus_r_is_rejected() {
        let stream = skewed_stream(20_000);
        let r = 16;
        let mut obs = answer_at(&stream, 20_000);
        assert!(count(&stream, 0) > obs.error + r);
        assert!(obs.counters.remove(&0).is_some());
        assert!(matches!(
            MgChecker::new(r).check_at(&stream, 20_000, &obs),
            Err(Violation::TooManyHidden { .. })
        ));
    }

    #[test]
    fn one_walk_gives_every_read_its_own_verdict() {
        let stream = skewed_stream(20_000);
        let r = 32;
        let stale = answer_at(&stream, 5_000);
        let mut overcounted = answer_at(&stream, 12_000);
        let key = *overcounted.counters.keys().max().unwrap();
        overcounted.counters.insert(key, count(&stream, key) + 1);
        let (fresh, late) = (answer_at(&stream, 15_000), answer_at(&stream, 19_990));
        let reads = [
            (15_000, 15_040, &fresh),
            (9_000, 9_000, &stale),
            (0, 20_000, &overcounted),
            (19_000, 20_000, &late),
            (4_990, 5_010, &stale),
        ];
        let checker = MgChecker::new(r);
        let verdicts = checker.check_many(&stream, &reads);
        for (&(lo, hi, obs), verdict) in reads.iter().zip(&verdicts) {
            assert_eq!(*verdict, checker.check_window(&stream, lo, hi, obs));
        }
        let admitted: Vec<bool> = verdicts.iter().map(Result::is_ok).collect();
        assert_eq!(admitted, [true, false, false, true, true]);
    }
}
