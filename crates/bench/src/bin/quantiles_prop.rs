//! Per-merge Quantiles propagation-cost measurement emitting
//! `BENCH_quantiles_prop.json`.
//!
//! The paper's scalability argument needs the propagation path to stay
//! O(b) amortised per merge. PR 3 pinned that down for the sharded Θ
//! image (`prop_cost`); this bench does the same for the Quantiles
//! publication by timing one propagation step — merge a local buffer of
//! `b` updates into a warm global sketch, then publish a snapshot into
//! an epoch cell — under the two publication strategies:
//!
//! * `ladder` — what the engine runs, [`QuantilesGlobal`]'s `merge` +
//!   `publish`: each merged item takes its place in the sorted mirror
//!   of the base buffer, the publication copies that mirror (≤ 2k
//!   items) and clones one pointer for all the levels — no sort, no
//!   per-level work, independent of the retained count;
//! * `rebuild` — the pre-ladder behaviour ([`QuantilesSketch::reader`]):
//!   re-collect and re-sort the whole retained set on every publication,
//!   O(retained · log retained).
//!
//! ## Warm states
//!
//! Level occupancy is the binary representation of the compaction count
//! `n / 2k`, so a freshly streamed warm-up collapses to a single
//! occupied level right after any power-of-two boundary — both sizes
//! would sustain the *same* retained count during the measurement
//! window. Instead the sketch is warmed into a deep-ladder state with
//! levels `CHURN_LEVELS..CHURN_LEVELS + depth` pre-occupied
//! (`QuantilesSketch::with_prebuilt_levels`): the measurement's
//! ~1k compactions only churn the counter bits *below*
//! `CHURN_LEVELS`, so the two sizes genuinely sustain different retained
//! counts while seeing identical low-level churn. The acceptance ratios
//! and their CI thresholds (enforced by `bench_gate`) are recorded in
//! the JSON: ladder cost must stay roughly flat from the small to the
//! large size while beating the rebuild at the large size.
//!
//! Usage: `cargo run --release -p fcds-bench --bin quantiles_prop
//! [--out=DIR]` (writes `<out>/BENCH_quantiles_prop.json`, default the
//! working directory, like `prop_cost`).

use fcds_bench::gate::{QUANTILES_FLATNESS_MAX, QUANTILES_SPEEDUP_MIN};
use fcds_bench::report::HarnessArgs;
use fcds_bench::workload::time_merges;
use fcds_core::composable::{GlobalSketch, LocalSketch};
use fcds_core::quantiles::QuantilesGlobal;
use fcds_core::sync::EpochCell;
use fcds_sketches::quantiles::QuantilesSketch;
use std::fmt::Write as _;

const SEED: u64 = 0x0A17;
const K: usize = 128;
/// Updates per merge: the engine's default lazy buffer cap `b`.
const B: u64 = 16;

/// Pre-occupied runs start at this level: the measurement performs at
/// most `(MAX_MERGES + warm-up)·B / 2k = 1032` compactions (see
/// `fcds_bench::workload::time_merges`), which churn
/// counter bits 0..10 only, so every pre-occupied level stays frozen for
/// (almost) the whole window — one carry cascade may reach them at the
/// very end, which is the amortised cost a real stream pays too.
const CHURN_LEVELS: usize = 11;
/// Number of pre-occupied levels per warm size: retained starts at
/// `K · depth` and the sizes differ ~5× while the churn below is
/// identical.
const SMALL_DEPTH: usize = 4;
const LARGE_DEPTH: usize = 20;

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
enum Strategy {
    /// Publish the persistent ladder snapshot (the post-PR path).
    Ladder,
    /// Publish a freshly rebuilt flat reader (the pre-PR path).
    Rebuild,
}

impl Strategy {
    fn label(self) -> &'static str {
        match self {
            Strategy::Ladder => "ladder",
            Strategy::Rebuild => "rebuild",
        }
    }
}

/// A sketch warmed to `depth` occupied levels above the churn band
/// (uniform sorted runs), equivalent to a stream of
/// `Σ K·2^(level+1)` items.
fn warm_sketch(depth: usize) -> QuantilesSketch<u64> {
    let mut rng = SplitMix(SEED);
    let prebuilt = (CHURN_LEVELS..CHURN_LEVELS + depth).map(|level| {
        let mut run: Vec<u64> = (0..K).map(|_| rng.next()).collect();
        run.sort_unstable();
        (level, run)
    });
    QuantilesSketch::with_prebuilt_levels(K, SEED, prebuilt).expect("valid k")
}

/// Times `merge(b updates) + publish` in steady state and returns
/// (ns per merge, merges measured, retained at the end of the run).
/// Both strategies pay the same epoch-cell store; only the merge
/// bookkeeping and the snapshot construction differ.
fn measure(depth: usize, strategy: Strategy) -> (f64, u64, usize) {
    let mut rng = SplitMix(SEED ^ 0x5EED);
    match strategy {
        Strategy::Ladder => {
            let mut g = QuantilesGlobal::new(warm_sketch(depth), SEED);
            let view = g.new_view();
            let mut local = g.new_local();
            let (ns, merges) = time_merges(|| {
                for _ in 0..B {
                    local.update(rng.next());
                }
                g.merge(&mut local);
                g.publish(&view);
            });
            (ns, merges, view.ladder().retained())
        }
        Strategy::Rebuild => {
            let mut q = warm_sketch(depth);
            let cell = EpochCell::new(q.reader());
            let (ns, merges) = time_merges(|| {
                for _ in 0..B {
                    q.update(rng.next());
                }
                cell.store(q.reader());
            });
            (ns, merges, q.ladder().retained())
        }
    }
}

fn main() {
    let args = HarnessArgs::parse_with_out_default(".");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut rows = String::new();
    let mut per_ns = std::collections::HashMap::new();
    for (i, depth) in [SMALL_DEPTH, LARGE_DEPTH].into_iter().enumerate() {
        for (j, strategy) in [Strategy::Ladder, Strategy::Rebuild]
            .into_iter()
            .enumerate()
        {
            let (ns, merges, retained_end) = measure(depth, strategy);
            let label = strategy.label();
            per_ns.insert((depth, label), ns);
            if i > 0 || j > 0 {
                rows.push_str(",\n");
            }
            let warm_n = warm_sketch(depth).n();
            let retained_warm = K * depth;
            let _ = write!(
                rows,
                "    {{\"k\": {K}, \"warm_levels\": {depth}, \"warm_n\": {warm_n}, \
                 \"retained_warm\": {retained_warm}, \"retained_end\": {retained_end}, \
                 \"strategy\": \"{label}\", \
                 \"per_merge_ns\": {ns:.1}, \"merges\": {merges}}}"
            );
            eprintln!(
                "depth={depth} strategy={label}: {ns:.0} ns/merge \
                 ({merges} merges, retained {retained_warm} warm → {retained_end} end)"
            );
        }
    }

    let ladder_small = per_ns[&(SMALL_DEPTH, "ladder")];
    let ladder_large = per_ns[&(LARGE_DEPTH, "ladder")];
    let rebuild_large = per_ns[&(LARGE_DEPTH, "rebuild")];
    // Retained-independence: ladder cost at the large size over the
    // small size (1.0 = perfectly flat).
    let flatness = ladder_large / ladder_small;
    // The headline win: rebuild over ladder at the large size.
    let speedup = rebuild_large / ladder_large;

    let json = format!(
        "{{\n  \"schema\": \"fcds-bench-quantiles-prop-v1\",\n  \"cores\": {cores},\n  \
         \"k\": {K},\n  \"buffer_updates_per_merge\": {B},\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"acceptance\": {{\n    \
         \"ladder_vs_rebuild_speedup_large\": {speedup:.1},\n    \
         \"ladder_flatness_ratio\": {flatness:.2}\n  }},\n  \
         \"thresholds\": {{\n    \
         \"ladder_vs_rebuild_speedup_large_min\": {QUANTILES_SPEEDUP_MIN:.1},\n    \
         \"ladder_flatness_ratio_max\": {QUANTILES_FLATNESS_MAX:.1}\n  }}\n}}\n"
    );

    let path = format!("{}/BENCH_quantiles_prop.json", args.out_dir);
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    std::fs::write(&path, &json).expect("write BENCH_quantiles_prop.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
