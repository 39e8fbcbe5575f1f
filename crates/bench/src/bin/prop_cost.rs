//! Per-merge propagation-cost measurement emitting `BENCH_prop_cost.json`.
//!
//! The paper's scalability argument needs the propagation path to stay
//! O(b) per merge (`GlobalSketch`'s cost contract). This bench pins that
//! down by timing one propagation step — `calc_hint`, merge a
//! pre-filtered local buffer of `b` updates into a *full* global sketch,
//! publish — for Θ, HLL and Misra–Gries (Quantiles needs frozen deep
//! levels to hold two sizes apart and has its own binary,
//! `quantiles_prop`).
//!
//! HLL and Misra–Gries run at two sizes each (`lg_m` ∈ {12, 16},
//! `k` ∈ {64, 1024}) and record the large-over-small cost ratio
//! (`hll_large_vs_small_ratio`, `frequency_large_vs_small_ratio`): an
//! HLL hand-off touches `b` registers and reads the estimate and the
//! hint's floor off the register-value histogram, so its cost must not
//! know `m`; a Misra–Gries hand-off copies the ≤ k-counter table (and
//! its reductions walk it), so its cost may grow with `k` but no faster.
//!
//! Θ runs under the publication strategies the sharded engine can run:
//!
//! * `k = 1, image = none` — the single-shard path (seqlock triple only);
//! * `k = 4, image = delta` — chunked copy-on-write block images, the
//!   sharded path after this optimisation (`image_every` ∈ {1, 4});
//! * `k = 4, image = whole_copy` — the pre-block behaviour (re-collect
//!   all retained hashes per publication), kept reachable as the
//!   `publish_sharded`-without-`prepare_sharded` fallback.
//!
//! Publication cost is retained-independent when the delta rows stay
//! within a small factor of the no-image row while the whole-copy row
//! grows with `retained` — the two acceptance ratios are recorded in the
//! JSON (`delta_vs_no_image_ratio`, `whole_copy_vs_delta_ratio`),
//! together with the CI thresholds `bench_gate` enforces on them.
//!
//! Usage: `cargo run --release -p fcds-bench --bin prop_cost [--out=DIR]`
//! (writes `<out>/BENCH_prop_cost.json`, default the working directory,
//! like `bench_smoke`).

use fcds_bench::gate::{
    FREQUENCY_LARGE_VS_SMALL_MAX, HLL_LARGE_VS_SMALL_MAX, THETA_DELTA_VS_NO_IMAGE_MAX,
    THETA_WHOLE_COPY_VS_DELTA_MIN,
};
use fcds_bench::report::HarnessArgs;
use fcds_bench::workload::{time_merges, MAX_MERGES, MERGE_BATCH};
use fcds_core::composable::{GlobalSketch, LocalSketch};
use fcds_core::frequency::FrequencyGlobal;
use fcds_core::hll::HllGlobal;
use fcds_core::theta::ThetaGlobal;
use fcds_sketches::theta::THETA_BLOCK_CAPACITY;
use std::fmt::Write as _;

const SEED: u64 = 0xB10C;
/// Updates per merge: the engine's default lazy buffer cap `b`.
const B: u64 = 16;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Image {
    /// `publish` only — the K = 1 path.
    None,
    /// Block images via the propagator's mirror, published every `m`-th
    /// merge.
    Delta { m: u64 },
    /// The pre-block fallback: `publish_sharded` without the mirror
    /// re-collects all retained hashes on every publication.
    WholeCopy,
}

/// A Θ global saturated with distinct uniform hashes (estimation mode,
/// retained fluctuating in `[k, ~1.9k)`).
fn filled_global(lg_k: u8) -> ThetaGlobal {
    let mut g = ThetaGlobal::new(lg_k, SEED).expect("valid lg_k");
    let mut rng = SplitMix(SEED);
    for _ in 0..(32u64 << lg_k) {
        g.update_direct(rng.next() | 1);
    }
    g
}

/// Θ: `calc_hint` + `merge(b pre-filtered updates)` + `publish`; returns
/// (ns per merge, merges measured, retained at the end).
fn measure_theta(lg_k: u8, image: Image) -> (f64, u64, usize) {
    let mut g = filled_global(lg_k);
    if let Image::Delta { .. } = image {
        g.prepare_sharded();
    }
    let view = g.new_view();
    if image != Image::None {
        g.publish_sharded(&view);
    }
    let mut local = g.new_local();
    let mut rng = SplitMix(SEED ^ 0x5EED);
    let mut merge_idx = 0u64;
    let (per_merge_ns, merges) = time_merges(|| {
        // The writers' shouldAdd filter only ships hashes below the
        // hint, so feed uniform hashes below Θ — the stream the
        // propagator actually sees.
        let theta = g.calc_hint();
        for _ in 0..B {
            local.update(1 + rng.next() % (theta - 1));
        }
        g.merge(&mut local);
        merge_idx += 1;
        match image {
            Image::None => g.publish(&view),
            Image::Delta { m } if !merge_idx.is_multiple_of(m) => g.publish(&view),
            Image::Delta { .. } | Image::WholeCopy => g.publish_sharded(&view),
        }
    });
    g.publish(&view);
    let retained = ThetaGlobal::snapshot(&view).retained as usize;
    (per_merge_ns, merges, retained)
}

/// HLL: the same step on a global warmed with `32·m` distinct hashes
/// (every register set, floor ≈ 3). The writers' filter only ships
/// hashes whose rank beats the floor, so feed exactly those: uniform
/// index bits, a tail with at least `floor` leading zeros.
fn measure_hll(lg_m: u8) -> (f64, u64) {
    let mut g = HllGlobal::new(lg_m, SEED).expect("valid lg_m");
    let mut rng = SplitMix(SEED);
    for _ in 0..(32u64 << lg_m) {
        g.update_direct(rng.next());
    }
    let view = g.new_view();
    let mut local = g.new_local();
    time_merges(|| {
        let hint = g.calc_hint();
        for _ in 0..B {
            let index = rng.next() << (64 - lg_m);
            let tail = rng.next() >> hint.floor;
            local.update(index | (tail >> lg_m));
        }
        g.merge(&mut local);
        g.publish(&view);
    })
}

/// Keys of the benchmark's Frequency streams — Zipf(1.1) over 10⁵ keys,
/// here by the continuous inverse CDF — so the table is full of unequal
/// counters and a share of every merge's keys is new (reductions run).
fn zipf_key(word: u64) -> u64 {
    const KEYS: f64 = 100_000.0;
    let u = (word >> 11) as f64 / (1u64 << 53) as f64;
    ((KEYS.powf(-0.1) - 1.0) * u + 1.0).powf(-10.0) as u64
}

/// Misra–Gries: the same step (its hint is the unit) on a `k`-counter
/// global warmed with 2¹⁷ keys. The keys are drawn before the clock
/// starts — a `powf` per key would cost more than the merge.
fn measure_frequency(k: usize) -> (f64, u64) {
    let mut g = FrequencyGlobal::<u64>::new(k).expect("valid k");
    let mut rng = SplitMix(SEED);
    for _ in 0..1 << 17 {
        g.update_direct(zipf_key(rng.next()));
    }
    let keys: Vec<u64> = (0..(MAX_MERGES + 2 * MERGE_BATCH) * B)
        .map(|_| zipf_key(rng.next()))
        .collect();
    let mut keys = keys.chunks_exact(B as usize);
    let view = g.new_view();
    let mut local = g.new_local();
    time_merges(|| {
        g.calc_hint();
        for &key in keys.next().expect("a chunk per merge") {
            local.update(key);
        }
        g.merge(&mut local);
        g.publish(&view);
    })
}

fn main() {
    let args = HarnessArgs::parse_with_out_default(".");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let variants: [(usize, Image, &str, u64); 4] = [
        (1, Image::None, "none", 1),
        (4, Image::Delta { m: 1 }, "delta", 1),
        (4, Image::Delta { m: 4 }, "delta", 4),
        (4, Image::WholeCopy, "whole_copy", 1),
    ];

    let mut rows = String::new();
    let mut per_ns = std::collections::HashMap::new();
    for lg_k in [12u8, 16] {
        for &(k, image, label, m) in &variants {
            let (ns, merges, retained) = measure_theta(lg_k, image);
            per_ns.insert((lg_k, label, m), ns);
            let _ = writeln!(
                rows,
                "    {{\"family\": \"theta\", \"lg_k\": {lg_k}, \"retained\": {retained}, \
                 \"shards\": {k}, \"image\": \"{label}\", \"image_every\": {m}, \
                 \"per_merge_ns\": {ns:.1}, \"merges\": {merges}}},"
            );
            eprintln!(
                "theta lg_k={lg_k} image={label} M={m}: {ns:.0} ns/merge ({merges} merges, retained {retained})"
            );
        }
    }
    // One row per size; returns the large-over-small cost ratio.
    let mut sized =
        |family: &str, param: &str, sizes: [usize; 2], measure: fn(usize) -> (f64, u64)| {
            let ns = sizes.map(|size| {
                let (ns, merges) = measure(size);
                let _ = writeln!(
                    rows,
                    "    {{\"family\": \"{family}\", \"{param}\": {size}, \
                 \"per_merge_ns\": {ns:.1}, \"merges\": {merges}}},"
                );
                eprintln!("{family} {param}={size}: {ns:.0} ns/merge ({merges} merges)");
                ns
            });
            ns[1] / ns[0]
        };
    let hll_ratio = sized("hll", "lg_m", [12, 16], |lg_m| measure_hll(lg_m as u8));
    let frequency_ratio = sized("frequency", "k", [64, 1024], measure_frequency);
    let rows = rows.trim_end().trim_end_matches(',');

    let delta16 = per_ns[&(16u8, "delta", 1u64)];
    let delta_vs_none = delta16 / per_ns[&(16u8, "none", 1u64)];
    let whole_vs_delta = per_ns[&(16u8, "whole_copy", 1u64)] / delta16;

    let json = format!(
        "{{\n  \"schema\": \"fcds-bench-prop-cost-v2\",\n  \"cores\": {cores},\n  \
         \"buffer_updates_per_merge\": {B},\n  \"block_capacity\": {THETA_BLOCK_CAPACITY},\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"acceptance\": {{\n    \
         \"lg_k16_delta_vs_no_image_ratio\": {delta_vs_none:.2},\n    \
         \"lg_k16_whole_copy_vs_delta_ratio\": {whole_vs_delta:.1},\n    \
         \"hll_large_vs_small_ratio\": {hll_ratio:.2},\n    \
         \"frequency_large_vs_small_ratio\": {frequency_ratio:.2}\n  }},\n  \
         \"thresholds\": {{\n    \
         \"lg_k16_delta_vs_no_image_ratio_max\": {THETA_DELTA_VS_NO_IMAGE_MAX:.1},\n    \
         \"lg_k16_whole_copy_vs_delta_ratio_min\": {THETA_WHOLE_COPY_VS_DELTA_MIN:.1},\n    \
         \"hll_large_vs_small_ratio_max\": {HLL_LARGE_VS_SMALL_MAX:.1},\n    \
         \"frequency_large_vs_small_ratio_max\": {FREQUENCY_LARGE_VS_SMALL_MAX:.1}\n  }}\n}}\n"
    );

    let path = format!("{}/BENCH_prop_cost.json", args.out_dir);
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    std::fs::write(&path, &json).expect("write BENCH_prop_cost.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
