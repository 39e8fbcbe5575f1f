//! Configuration of the concurrent framework: buffer sizing, the eager
//! adaptation point, and the induced relaxation/error bounds (§5.3, §7.1).

use fcds_sketches::error::{Result, SketchError};

/// Default cap on the local buffer size `b` (the paper's no-eager runs use
/// `b = 16`; see Figure 8's discussion).
pub const DEFAULT_MAX_BUFFER: u64 = 16;

/// How merged local buffers reach the shards' global sketches.
///
/// The paper dedicates a background thread (`t0` of Algorithm 2) to
/// propagation. That is the default, generalised to one thread per shard.
/// The writer-assisted backend removes the background thread entirely:
/// the writer that hands a buffer off (or any writer waiting on its own
/// hand-off) merges pending buffers into the shard under a try-lock.
/// Embedders that cannot spawn threads get the same `r = 2Nb` relaxation
/// guarantee ([`ConcurrencyConfig::relaxation`]), trading propagation
/// latency for writer cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationBackendKind {
    /// One dedicated propagator thread per shard (the paper's `t0`).
    #[default]
    DedicatedThread,
    /// Threadless: flushing writers propagate into their shard under a
    /// try-lock, so nobody blocks behind a peer already doing the work;
    /// `quiesce` drives any leftovers. A partial flush that lost the
    /// try-lock becomes visible once some writer flushes again or
    /// `quiesce` runs.
    WriterAssisted,
}

/// Configuration of the generic concurrent algorithm.
///
/// `max_concurrency_error` is the `e` parameter of §7.1: the maximum
/// *relative* error the relaxation may add. The implementation derives
/// from it the eager-propagation limit `2/e²` and the lazy buffer size
/// `b`, such that the total error stays within
/// `max{e + 1/√k, 2/√k}` (§7.1). Setting `e = 1.0` disables the eager
/// phase entirely (the "no-eager" baseline of Figures 5a/8).
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyConfig {
    /// Number of update (writer) threads `N`.
    pub writers: usize,
    /// Maximum relative error attributable to concurrency (`e`).
    pub max_concurrency_error: f64,
    /// Upper bound on the local buffer size `b`.
    pub max_buffer_size: u64,
    /// Use double buffering (`OptParSketch`, Theorem 1) instead of the
    /// unoptimised `ParSketch` (Lemma 1). On by default.
    pub double_buffering: bool,
    /// Ablation switch: disable the `shouldAdd` hint pre-filter (§5.1).
    /// Every update is then buffered and shipped to the propagator,
    /// which is exactly the design the paper's filter avoids — useful
    /// for measuring the filter's contribution, never for production.
    pub disable_prefilter: bool,
    /// Number of shards `K` the global sketch is split into (writers are
    /// round-robined onto shards; queries merge all shard views). `K = 1`
    /// is the paper's single-global layout. Sharding lifts the
    /// serial-propagation ceiling of §7 without changing the relaxation
    /// bound: `r = 2Nb` counts writers, not shards.
    pub shards: usize,
    /// How buffers are propagated into the shards' globals.
    pub backend: PropagationBackendKind,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 0.04,
            max_buffer_size: DEFAULT_MAX_BUFFER,
            double_buffering: true,
            disable_prefilter: false,
            shards: 1,
            backend: PropagationBackendKind::default(),
        }
    }
}

impl ConcurrencyConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.writers == 0 {
            return Err(SketchError::invalid("writers", "must be ≥ 1"));
        }
        if !(self.max_concurrency_error > 0.0 && self.max_concurrency_error <= 1.0) {
            return Err(SketchError::invalid(
                "max_concurrency_error",
                format!("must be in (0, 1], got {}", self.max_concurrency_error),
            ));
        }
        if self.max_buffer_size == 0 {
            return Err(SketchError::invalid("max_buffer_size", "must be ≥ 1"));
        }
        if self.shards == 0 {
            return Err(SketchError::invalid("shards", "must be ≥ 1"));
        }
        if self.shards > self.writers {
            return Err(SketchError::invalid(
                "shards",
                format!(
                    "{} shards but only {} writers: extra shards would sit idle \
                     while still paying the per-shard query-merge cost",
                    self.shards, self.writers
                ),
            ));
        }
        Ok(())
    }

    /// The eager-propagation limit of §5.3/§7.1: the stream length up to
    /// which updates are propagated eagerly, `⌈2/e²⌉`. An error parameter
    /// of 1.0 means "no eager phase" (limit 0).
    pub fn eager_limit(&self) -> u64 {
        if self.max_concurrency_error >= 1.0 {
            0
        } else {
            (2.0 / (self.max_concurrency_error * self.max_concurrency_error)).ceil() as u64
        }
    }

    /// The lazy-phase buffer size `b`.
    ///
    /// Once the stream is past the eager limit `2/e²`, a query may miss up
    /// to `r = 2Nb` updates, adding relative error at most
    /// `r/n ≤ 2Nb·e²/2 = Nb·e²`; keeping that within `e` requires
    /// `b ≤ 1/(N·e)`. The result is clamped to `1..=max_buffer_size`
    /// (the paper reports 1–5 for its configurations; `e = 1` yields the
    /// un-throttled `max_buffer_size`).
    pub fn buffer_size(&self) -> u64 {
        if self.max_concurrency_error >= 1.0 {
            return self.max_buffer_size;
        }
        let b = (1.0 / (self.writers as f64 * self.max_concurrency_error)).floor() as u64;
        b.clamp(1, self.max_buffer_size)
    }

    /// The relaxation bound `r` induced by this configuration: `2Nb` with
    /// double buffering (Theorem 1), `Nb` without (Lemma 1) — the one
    /// staleness bound every engine query satisfies.
    ///
    /// Deliberately independent of [`shards`](Self::shards): writers, not
    /// shards, carry the relaxation. Each writer has at most one full
    /// buffer in flight plus one partial buffer regardless of which shard
    /// it is keyed onto, and every merge republishes its shard's image,
    /// so splitting the global sketch `K` ways leaves the query staleness
    /// bound at `2Nb`.
    ///
    /// A batched `update_batch` call is one update operation of |batch|
    /// items: a query concurrent with it may see any prefix of it, cut at
    /// a slice or `b` boundary, and `r` bounds the items of *returned*
    /// calls a query may miss. A writer-assisted call that merged its
    /// batch inline leaves nothing of its writer unpublished; one that
    /// lost the shard lock leaves at most the usual two buffers of `b`.
    pub fn relaxation(&self) -> u64 {
        let factor = if self.double_buffering { 2 } else { 1 };
        factor * self.writers as u64 * self.buffer_size()
    }

    /// The overall error bound of §7.1 for a Θ sketch with nominal size
    /// `k`: `max{e + 1/√k, 2/√k}`.
    pub fn error_bound(&self, k: usize) -> f64 {
        let sqrt_k = (k as f64).sqrt();
        (self.max_concurrency_error + 1.0 / sqrt_k).max(2.0 / sqrt_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        // §7.1: k = 4096, e = 0.04 ⇒ eager limit 2/e² = 1250.
        let c = ConcurrencyConfig::default();
        assert_eq!(c.eager_limit(), 1250);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn no_eager_configuration() {
        let c = ConcurrencyConfig {
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        assert_eq!(c.eager_limit(), 0);
        assert_eq!(c.buffer_size(), DEFAULT_MAX_BUFFER);
    }

    #[test]
    fn buffer_size_shrinks_with_writers() {
        let mk = |n| ConcurrencyConfig {
            writers: n,
            ..Default::default()
        };
        // e = 0.04: b = ⌊1/(N·e)⌋ clamped to 16.
        assert_eq!(mk(1).buffer_size(), 16); // 25 → clamp 16
        assert_eq!(mk(4).buffer_size(), 6);
        assert_eq!(mk(12).buffer_size(), 2);
        assert_eq!(mk(64).buffer_size(), 1); // 0 → clamp 1
    }

    #[test]
    fn relaxation_is_2nb_with_double_buffering() {
        let c = ConcurrencyConfig {
            writers: 4,
            ..Default::default()
        };
        assert_eq!(c.relaxation(), 2 * 4 * c.buffer_size());
        let u = ConcurrencyConfig {
            double_buffering: false,
            ..c
        };
        assert_eq!(u.relaxation(), 4 * u.buffer_size());
    }

    #[test]
    fn error_bound_formula() {
        let c = ConcurrencyConfig::default();
        let k = 4096;
        let expected = (0.04 + 1.0 / 64.0f64).max(2.0 / 64.0);
        assert!((c.error_bound(k) - expected).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = ConcurrencyConfig {
            writers: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ConcurrencyConfig {
            max_concurrency_error: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ConcurrencyConfig {
            max_concurrency_error: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ConcurrencyConfig {
            max_buffer_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ConcurrencyConfig {
            shards: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ConcurrencyConfig {
            writers: 2,
            shards: 4,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "more shards than writers");
    }

    #[test]
    fn relaxation_is_independent_of_shard_count() {
        let base = ConcurrencyConfig {
            writers: 8,
            ..Default::default()
        };
        let r1 = base.relaxation();
        for shards in [2usize, 4, 8] {
            let c = ConcurrencyConfig {
                shards,
                ..base.clone()
            };
            assert!(c.validate().is_ok());
            assert_eq!(c.relaxation(), r1, "r must not depend on K");
        }
    }

    #[test]
    fn backend_default_is_dedicated_thread() {
        assert_eq!(
            ConcurrencyConfig::default().backend,
            PropagationBackendKind::DedicatedThread
        );
    }

    #[test]
    fn eager_limit_scales_inverse_square() {
        let mk = |e| ConcurrencyConfig {
            max_concurrency_error: e,
            ..Default::default()
        };
        assert_eq!(mk(0.1).eager_limit(), 200);
        assert_eq!(mk(0.01).eager_limit(), 20_000);
    }
}
