//! Input generation. Everything the system under test sees is a pure
//! function of `--seed`: the same seed gives byte-identical inputs.

/// The splitmix64 golden-gamma increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output mix: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 over a golden-gamma counter. The counter never repeats
/// within 2^64 steps and the mix is a bijection, so one generator never
/// emits the same value twice: the paper's §7.1 unique stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The generator of stream `lane` under `seed`. Lanes of one seed
    /// start at unrelated counter values.
    pub fn new(seed: u64, lane: u64) -> Self {
        SplitMix(mix64(seed ^ mix64(lane.wrapping_add(1))))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix64(self.0)
    }

    pub fn fill(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next();
        }
    }
}

/// Zipf(s) over `n` keys (`1..=n`, key 1 the heaviest), sampled in O(1)
/// per draw with Walker's alias method.
pub struct Zipf {
    /// Per column: the threshold below which the column's own key wins.
    threshold: Vec<u32>,
    alias: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        // Vose's construction: scale to mean 1, then pair each small
        // column with a large one that donates its excess.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut alias = vec![0u32; n];
        let mut threshold = vec![u32::MAX; n];
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            threshold[s_i] = (scaled[s_i] * u32::MAX as f64) as u32;
            alias[s_i] = l_i as u32;
            scaled[l_i] -= 1.0 - scaled[s_i];
            if scaled[l_i] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        Zipf { threshold, alias }
    }

    /// One draw from one 64-bit random word: the high half picks the
    /// column, the low half flips the column's biased coin.
    pub fn draw(&self, word: u64) -> u64 {
        let column = (((word >> 32) * self.threshold.len() as u64) >> 32) as usize;
        let key = if (word as u32) <= self.threshold[column] {
            column
        } else {
            self.alias[column] as usize
        };
        key as u64 + 1
    }

    pub fn fill(&self, rng: &mut SplitMix, out: &mut [u64]) {
        for slot in out {
            *slot = self.draw(rng.next());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_other_seed_differs() {
        let take = |seed, lane| {
            let mut g = SplitMix::new(seed, lane);
            let mut buf = vec![0u64; 4096];
            g.fill(&mut buf);
            buf
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
        let zipf = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut buf = vec![0u64; 4096];
            zipf.fill(&mut SplitMix::new(seed, 3), &mut buf);
            buf
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn one_generator_never_repeats() {
        let mut g = SplitMix::new(1, 0);
        let mut seen: Vec<u64> = (0..100_000).map(|_| g.next()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn zipf_has_heavy_hitters_in_the_right_order() {
        let zipf = Zipf::new(100_000, 1.1);
        let mut rng = SplitMix::new(5, 0);
        let mut counts = vec![0u64; 100_001];
        let n = 1_000_000;
        for _ in 0..n {
            counts[zipf.draw(rng.next()) as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        // P(key 1) = 1 / H(100000, 1.1) ≈ 0.13.
        let p1 = counts[1] as f64 / n as f64;
        assert!((0.11..0.15).contains(&p1), "p1 = {p1}");
        assert!(counts[1] > counts[2] && counts[2] > counts[4] && counts[4] > counts[16]);
    }
}
