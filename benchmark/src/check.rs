//! Correctness checks: each stream's final answer against the exact
//! oracle, recomputed from the seed and the count of acked batches.

use crate::plan::{Lane, Plan, LG_K};
use fcds_core::engine::{Family, HllFamily};
use fcds_sketches::quantiles::epsilon_for_k;
use fcds_sketches::wire::{ladder_multiway_concat, mg_multiway_merge, SketchFamily};

/// Θ/HLL answers may be off by this many a-priori standard errors, and
/// Quantiles ranks by this many ε.
const ALLOWANCE: f64 = 4.0;
/// `QuantilesFamily::DEFAULT_ACCURACY`, the server's `k`.
const QUANTILES_K: usize = 128;

/// What went wrong, and the worst error seen where nothing did.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    /// Largest final error over the streams, as a share of the stream:
    /// relative error (Θ, HLL), rank error (Quantiles), count error over
    /// `n` (Frequency).
    pub relerr_max: f64,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn error(&mut self, stream: &str, error: f64, limit: f64) {
        self.relerr_max = self.relerr_max.max(error);
        self.require(error <= limit, || {
            format!("{stream}: final error {error:.5} exceeds {limit:.5}")
        });
    }

    /// A distinct-count estimate against the exact count.
    pub fn count(&mut self, stream: &str, family: SketchFamily, estimate: f64, truth: u64) {
        let rse = match family {
            SketchFamily::Theta => fcds_sketches::theta::rse(1 << LG_K),
            _ => 1.04 / ((1u64 << HllFamily::DEFAULT_ACCURACY) as f64).sqrt(),
        };
        let relerr = (estimate - truth as f64).abs() / truth as f64;
        self.error(stream, relerr, ALLOWANCE * rse);
    }

    /// A Quantiles or Frequency image against a replay of the lane.
    pub fn image(
        &mut self,
        stream: &str,
        family: SketchFamily,
        image: &[u8],
        plan: &Plan,
        lane: &Lane,
    ) {
        let held = lane.items_held(plan);
        match family {
            SketchFamily::Quantiles => {
                let Ok(ladder) = ladder_multiway_concat::<u64, _>(&[image]) else {
                    return self.require(false, || format!("{stream}: undecodable image"));
                };
                self.require(ladder.n() == held, || {
                    format!(
                        "{stream}: image holds {} items, {held} were acked",
                        ladder.n()
                    )
                });
                let phis = [0.05, 0.25, 0.5, 0.75, 0.95];
                let answers: Vec<u64> = phis
                    .iter()
                    .map(|&phi| ladder.quantile(phi).unwrap_or(0))
                    .collect();
                let mut below = [0u64; 5];
                lane.replay(plan, |item| {
                    for (count, &answer) in below.iter_mut().zip(&answers) {
                        *count += (item < answer) as u64;
                    }
                });
                for (&phi, &count) in phis.iter().zip(&below) {
                    let rank_error = (count as f64 / held as f64 - phi).abs();
                    self.error(stream, rank_error, ALLOWANCE * epsilon_for_k(QUANTILES_K));
                }
            }
            SketchFamily::Frequency => {
                let Ok(sketch) = mg_multiway_merge::<u64, _>(&[image]) else {
                    return self.require(false, || format!("{stream}: undecodable image"));
                };
                self.require(sketch.n() == held, || {
                    format!(
                        "{stream}: image holds {} items, {held} were acked",
                        sketch.n()
                    )
                });
                let mut exact = std::collections::HashMap::<u64, u64>::new();
                lane.replay(plan, |item| *exact.entry(item).or_insert(0) += 1);
                // The heaviest true keys and every key the sketch kept.
                let mut keys: Vec<(u64, u64)> = exact.iter().map(|(&k, &c)| (c, k)).collect();
                keys.sort_unstable_by(|a, b| b.cmp(a));
                keys.truncate(32);
                keys.extend(
                    sketch
                        .counters()
                        .map(|(&k, _)| (exact.get(&k).copied().unwrap_or(0), k)),
                );
                for (truth, key) in keys {
                    let est = sketch.estimate(&key);
                    self.require(est.lower_bound <= truth && truth <= est.upper_bound, || {
                        format!(
                            "{stream}: key {key} occurs {truth} times, outside the reported [{}, {}]",
                            est.lower_bound, est.upper_bound
                        )
                    });
                    let error = (truth - est.lower_bound.min(truth)) as f64 / held as f64;
                    self.relerr_max = self.relerr_max.max(error);
                }
            }
            _ => unreachable!("Θ and HLL are checked by estimate"),
        }
    }
}
