//! Workload generation: unique-value streams and the trial schedule of
//! §7.1.
//!
//! The paper feeds sketches with streams of unique values whose size
//! ranges from 1 to 8M on a log scale, averaging many trials per point —
//! 2¹⁸ trials at the low end, decreasing geometrically to 16 at 8M —
//! because short measurements are noisy.

/// A ladder of stream sizes: powers of two from `2^lg_min` to `2^lg_max`,
/// optionally with intermediate ×1.5 points for smoother curves.
pub fn size_ladder(lg_min: u32, lg_max: u32, dense: bool) -> Vec<u64> {
    let mut sizes = Vec::new();
    for lg in lg_min..=lg_max {
        sizes.push(1u64 << lg);
        if dense && lg < lg_max {
            let mid = (1u64 << lg) + (1u64 << lg.saturating_sub(1));
            sizes.push(mid);
        }
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// The §7.1 trial schedule: many trials for small streams, few for large
/// ones. `budget` is roughly the number of updates spent per point.
pub fn trials_for_size(size: u64, budget: u64, max_trials: u64) -> u64 {
    (budget / size.max(1)).clamp(1, max_trials)
}

/// Generates `n` unique `u64` values for a given thread `t` of `threads`:
/// disjoint strided ranges so that concurrent writers never collide.
///
/// The values are consecutive integers (hashed by the sketch itself, so
/// their distribution is irrelevant), offset by a per-trial nonce to
/// de-correlate successive trials.
#[derive(Debug, Clone, Copy)]
pub struct UniqueStream {
    /// First value of this thread's slice.
    pub start: u64,
    /// Number of values in this thread's slice.
    pub count: u64,
}

impl UniqueStream {
    /// Splits `total` unique values across `threads` threads for trial
    /// `nonce`; thread `t` receives a contiguous slice.
    pub fn for_thread(total: u64, threads: usize, t: usize, nonce: u64) -> UniqueStream {
        let threads = threads as u64;
        let t = t as u64;
        let base = total / threads;
        let extra = total % threads;
        let count = base + u64::from(t < extra);
        let start_off = t * base + t.min(extra);
        UniqueStream {
            start: nonce
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(start_off),
            count,
        }
    }

    /// Iterates the values of this slice.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.start.wrapping_add(i))
    }
}

/// Merges per timing batch of [`time_merges`]: the clock is read between
/// batches only, so `Instant::now` never pollutes a cheap step.
pub const MERGE_BATCH: u64 = 64;
/// The most merges one [`time_merges`] call measures.
pub const MAX_MERGES: u64 = 16_384;
const MERGE_BUDGET: std::time::Duration = std::time::Duration::from_millis(250);

/// Times one propagation step (`merge` + `publish` + `calc_hint`) in
/// steady state for the per-merge cost benches (`prop_cost`,
/// `quantiles_prop`): two warm-up batches — mirrors populated, first
/// post-publish copy-on-write behind us, allocator warm — then batches
/// until 250 ms or [`MAX_MERGES`] are spent. Returns (ns per merge,
/// merges measured).
pub fn time_merges(mut one_merge: impl FnMut()) -> (f64, u64) {
    for _ in 0..2 * MERGE_BATCH {
        one_merge();
    }
    let mut merges = 0u64;
    let start = std::time::Instant::now();
    while start.elapsed() < MERGE_BUDGET && merges < MAX_MERGES {
        for _ in 0..MERGE_BATCH {
            one_merge();
        }
        merges += MERGE_BATCH;
    }
    (start.elapsed().as_nanos() as f64 / merges as f64, merges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_sorted_powers() {
        let l = size_ladder(0, 5, false);
        assert_eq!(l, vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn dense_ladder_adds_midpoints() {
        let l = size_ladder(2, 4, true);
        assert_eq!(l, vec![4, 6, 8, 12, 16]);
    }

    #[test]
    fn trials_schedule_decreases() {
        let budget = 1 << 16;
        let t_small = trials_for_size(16, budget, 4096);
        let t_big = trials_for_size(1 << 20, budget, 4096);
        assert!(t_small > t_big);
        assert_eq!(t_big, 1);
        assert_eq!(trials_for_size(1, budget, 4096), 4096);
    }

    #[test]
    fn thread_slices_partition_the_stream() {
        let total = 1003u64;
        let threads = 4;
        let nonce = 7;
        let mut all: Vec<u64> = Vec::new();
        for t in 0..threads {
            let s = UniqueStream::for_thread(total, threads, t, nonce);
            all.extend(s.iter());
        }
        assert_eq!(all.len() as u64, total);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, total, "slices overlapped");
    }

    #[test]
    fn different_nonces_produce_different_values() {
        let a: Vec<u64> = UniqueStream::for_thread(10, 1, 0, 1).iter().collect();
        let b: Vec<u64> = UniqueStream::for_thread(10, 1, 0, 2).iter().collect();
        assert_ne!(a, b);
    }
}
