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

/// splitmix64 over a golden-gamma counter: a bijection on `u64`, so every
/// value it ever emits is distinct — exactly the §7.1 write-only stream.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next value of the sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Keys of the benchmark's Frequency streams — Zipf(1.1) over 10⁵ keys,
/// here by the continuous inverse CDF of one uniform `word` — so a
/// Misra–Gries table fills with unequal counters and a frame of 256 keys
/// holds about 150 distinct ones.
pub fn zipf_key(word: u64) -> u64 {
    const KEYS: f64 = 100_000.0;
    let u = (word >> 11) as f64 / (1u64 << 53) as f64;
    ((KEYS.powf(-0.1) - 1.0) * u + 1.0).powf(-10.0) as u64
}

/// Rounds [`time_interleaved`] times at least, however slow a side is.
const MIN_ROUNDS: usize = 9;
/// Rounds [`time_interleaved`] times at most, however fast the sides are.
pub const MAX_ROUNDS: usize = 256;
/// Timed work after which [`time_interleaved`] stops.
const BUDGET: std::time::Duration = std::time::Duration::from_millis(250);

/// The one timing loop of `engine_gates`: every gated figure is a
/// quotient of two costs, so the `sides` whose costs get divided are
/// timed *interleaved*, one call each per round — load drift on a shared
/// box then hits all sides alike and cancels in the ratio — and each
/// side reports the *median* of its calls, which shrugs off the outlier
/// rounds a grand total would absorb. `input` runs untimed once per
/// round and its value is handed to every side (fresh stream items, the
/// same for all). One untimed round absorbs cold caches and first
/// hand-offs; then rounds run until 250 ms of timed work or
/// [`MAX_ROUNDS`], and at least nine. Returns each side's median seconds
/// per call and the rounds timed; a side decides how much work one call
/// is (a batch large enough that the two clock reads vanish in it).
pub fn time_interleaved<I, const N: usize>(
    mut input: impl FnMut() -> I,
    mut sides: [&mut dyn FnMut(&I); N],
) -> ([f64; N], usize) {
    let warm = input();
    for side in &mut sides {
        side(&warm);
    }
    let mut secs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let mut spent = std::time::Duration::ZERO;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (spent < BUDGET && rounds < MAX_ROUNDS) {
        let item = input();
        for (side, secs) in sides.iter_mut().zip(&mut secs) {
            let start = std::time::Instant::now();
            side(&item);
            let elapsed = start.elapsed();
            spent += elapsed;
            secs.push(elapsed.as_secs_f64());
        }
        rounds += 1;
    }
    let medians = secs.map(|mut secs| {
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    });
    (medians, rounds)
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
    fn interleaved_timing_reports_a_median_per_side_in_order() {
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let (mut inputs, mut fast_calls, mut slow_calls) = (0, 0, 0);
        let (secs, rounds) = time_interleaved(
            || inputs += 1,
            [
                &mut |_| {
                    fast_calls += 1;
                    sleep(1);
                },
                &mut |_| {
                    slow_calls += 1;
                    sleep(4);
                },
            ],
        );
        assert!(secs[0] >= 0.001 && secs[1] >= 0.004, "{secs:?}");
        assert!(secs[0] < secs[1], "{secs:?}");
        assert!((MIN_ROUNDS..=MAX_ROUNDS).contains(&rounds));
        // One untimed round first; one input and one call per side per round.
        assert_eq!([inputs, fast_calls, slow_calls], [rounds + 1; 3]);
    }

    #[test]
    fn different_nonces_produce_different_values() {
        let a: Vec<u64> = UniqueStream::for_thread(10, 1, 0, 1).iter().collect();
        let b: Vec<u64> = UniqueStream::for_thread(10, 1, 0, 2).iter().collect();
        assert_ne!(a, b);
    }
}
