//! Section `quantiles_prop`: what one Quantiles propagation step costs,
//! and that the cost does not know the retained count.
//!
//! The step — merge a local buffer of `b` updates into a warm global
//! sketch, then publish a snapshot into an epoch cell — is timed under
//! the two publication strategies:
//!
//! * `ladder` — what the engine runs, [`QuantilesGlobal`]'s `merge` +
//!   `publish`: the merge sorts its items in place, in the pieces that
//!   fill the base buffer, and merges each piece into the base buffer,
//!   which it keeps sorted, so a compaction sorts nothing; the
//!   publication copies the base buffer (≤ 2k items) and clones one
//!   pointer for all the levels — no sort of retained items, no
//!   per-level work, independent of the retained count;
//! * `rebuild` — the pre-ladder behaviour ([`QuantilesSketch::reader`]):
//!   re-collect and re-sort the whole retained set on every publication,
//!   O(retained · log retained).
//!
//! The gated rows merge `b = 16` items, the engine's default lazy
//! buffer cap. Two more rows, not gated, merge 256: a connection thread
//! applies each 256-item frame as one inline merge, so that is the
//! regime the server runs. Most of such a merge is sorting the frame,
//! which `fcds_sketches::sort::sort_u64` does in AVX-512 registers where
//! the CPU has them, so these rows name their `lane`, and four more time
//! that sort against `sort_unstable` on 256 fresh uniform keys and on
//! 256 Zipf(1.1) keys (the Frequency streams' keys), interleaved; the
//! uniform pair is gated.
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
//! counts while seeing identical low-level churn. Each gated pair is
//! timed interleaved (`time_interleaved`) — the ladder at the two sizes,
//! then ladder and rebuild at the large one: ladder cost must stay
//! roughly flat from the small to the large size while beating the
//! rebuild at the large size.

use super::Section;
use fcds_bench::gate::Bound::{Max, Min};
use fcds_bench::gate::GateCheck;
use fcds_bench::workload::{time_interleaved, zipf_key, SplitMix, MAX_ROUNDS};
use fcds_core::composable::{GlobalSketch, LocalSketch};
use fcds_core::quantiles::QuantilesGlobal;
use fcds_core::sync::EpochCell;
use fcds_sketches::hash::Avx512;
use fcds_sketches::quantiles::{QuantilesReader, QuantilesSketch};
use fcds_sketches::sort::sort_u64;

const SEED: u64 = 0x0A17;
const K: usize = 128;
/// Updates per merge: the engine's default lazy buffer cap `b`.
const B: usize = 16;
/// Updates per merge on the served path: one frame, merged inline.
const SERVED_B: usize = 256;
/// Merges per timed call at `B`, so the clock never pollutes a cheap
/// step. Every call streams `BATCH · B` updates, whatever its `b`.
const BATCH: usize = 64;

/// Pre-occupied runs start at this level: one interleaving performs at
/// most `(MAX_ROUNDS + 1)·BATCH·B / 2k = 1028` compactions per side,
/// which churn counter bits 0..10 only, so every pre-occupied level
/// stays frozen for (almost) the whole window — one carry cascade may
/// reach them at the very end (the large ladder sits in two
/// interleavings), which is the amortised cost a real stream pays too.
const CHURN_LEVELS: usize = 11;
/// Number of pre-occupied levels per warm size: retained starts at
/// `K · depth` and the sizes differ ~5× while the churn below is
/// identical.
const SMALL_DEPTH: usize = 4;
const LARGE_DEPTH: usize = 20;
const _: () = assert!((MAX_ROUNDS + 1) * BATCH * B / (2 * K) < 1 << CHURN_LEVELS);
/// Frames sorted per timed call of the sort rows, so the clock never
/// pollutes a sort of a microsecond or so.
const SORTS: usize = 64;

/// The section's three gates, each bound beside the ratio it cuts.
pub fn gates(
    rebuild_vs_ladder_large: f64,
    ladder_large_vs_small: f64,
    sort_vs_std: f64,
) -> Vec<GateCheck> {
    vec![
        // The ladder publish must beat the full O(retained · log
        // retained) rebuild by this factor at the larger retained size.
        GateCheck::new(
            "ladder_vs_rebuild_speedup_large",
            rebuild_vs_ladder_large,
            Min,
            5.0,
        ),
        // Retained-independence: ladder cost at the larger size over its
        // cost at the smaller (1.0 = perfectly flat; headroom for timer
        // noise and cache effects).
        GateCheck::new("ladder_flatness_ratio", ladder_large_vs_small, Max, 2.0),
        // `sort_unstable` over `sort_u64` on 256 fresh uniform keys: a
        // parity guard, not a speedup claim. On the baseline lane both
        // sides are `sort_unstable` (≈ 1.0); the AVX-512 register kernel
        // reads 3.0–3.2× on a 2-vCPU Sapphire Rapids VM. Below parity
        // the dispatch would cost more than it saves.
        GateCheck::new("sort_u64_vs_std_speedup", sort_vs_std, Min, 0.95),
    ]
}

/// One sort row's side: sorts each 256-key frame of the round's keys in
/// a buffer of its own, by `sort_u64` or by `sort_unstable`.
fn sort_side(kernel: bool) -> impl FnMut(&Vec<u64>) {
    let mut frame = [0u64; SERVED_B];
    move |keys| {
        for chunk in keys.chunks_exact(SERVED_B) {
            frame.copy_from_slice(chunk);
            if kernel {
                sort_u64(&mut frame);
            } else {
                frame.sort_unstable();
            }
            std::hint::black_box(&mut frame);
        }
    }
}

/// The sort rows: the kernel against `sort_unstable` on uniform and on
/// Zipf(1.1) keys, fresh each round. Returns the rows and the uniform
/// pair's `sort_unstable`-over-kernel quotient.
fn sort_rows() -> (Vec<String>, f64) {
    let mut rng = SplitMix(SEED ^ 0x50_27);
    let mut rows = Vec::new();
    let mut uniform_speedup = 0.0;
    for (keys, zipf) in [("uniform", false), ("zipf_1.1", true)] {
        let mut input = || -> Vec<u64> {
            std::iter::repeat_with(|| rng.next_u64())
                .map(|w| if zipf { zipf_key(w) } else { w })
                .take(SORTS * SERVED_B)
                .collect()
        };
        let [mut kernel, mut std] = [true, false].map(sort_side);
        let ([kernel_secs, std_secs], rounds) =
            time_interleaved(&mut input, [&mut kernel, &mut std]);
        for (sort, secs) in [("sort_u64", kernel_secs), ("sort_unstable", std_secs)] {
            rows.push(format!(
                "{{\"sort\": \"{sort}\", \"keys\": \"{keys}\", \"items\": {SERVED_B}, \
                 \"per_sort_ns\": {:.1}, \"sorts\": {}, \"lane\": \"{}\"}}",
                secs * 1e9 / SORTS as f64,
                rounds * SORTS,
                Avx512::lane()
            ));
        }
        if !zipf {
            uniform_speedup = std_secs / kernel_secs;
        }
    }
    (rows, uniform_speedup)
}

/// A sketch warmed to `depth` occupied levels above the churn band
/// (uniform sorted runs), equivalent to a stream of
/// `Σ K·2^(level+1)` items.
fn warm_sketch(depth: usize) -> QuantilesSketch<u64> {
    let mut rng = SplitMix(SEED);
    let prebuilt = (CHURN_LEVELS..CHURN_LEVELS + depth).map(|level| {
        let mut run: Vec<u64> = (0..K).map(|_| rng.next_u64()).collect();
        run.sort_unstable();
        (level, run)
    });
    QuantilesSketch::with_prebuilt_levels(K, SEED, prebuilt).expect("valid k")
}

/// One publication strategy on its own warm sketch. Both pay the same
/// epoch-cell store; only the merge bookkeeping and the snapshot
/// construction differ.
enum Side {
    /// Publish the persistent ladder snapshot (what the engine runs),
    /// merging `b` updates at a time.
    Ladder {
        g: QuantilesGlobal<u64>,
        view: <QuantilesGlobal<u64> as GlobalSketch>::View,
        local: <QuantilesGlobal<u64> as GlobalSketch>::Local,
        rng: SplitMix,
        b: usize,
    },
    /// Publish a freshly rebuilt flat reader (the pre-ladder path).
    Rebuild {
        q: QuantilesSketch<u64>,
        cell: EpochCell<QuantilesReader<u64>>,
        rng: SplitMix,
    },
}

impl Side {
    fn new(depth: usize, ladder: bool, b: usize) -> Self {
        let q = warm_sketch(depth);
        let rng = SplitMix(SEED ^ 0x5EED);
        if ladder {
            let g = QuantilesGlobal::new(q, SEED);
            let (view, local) = (g.new_view(), g.new_local());
            Side::Ladder {
                g,
                view,
                local,
                rng,
                b,
            }
        } else {
            let cell = EpochCell::new(q.reader());
            Side::Rebuild { q, cell, rng }
        }
    }

    /// Updates per merge.
    fn b(&self) -> usize {
        match self {
            Side::Ladder { b, .. } => *b,
            Side::Rebuild { .. } => B,
        }
    }

    /// `BATCH · B / b` times `merge(b updates) + publish`.
    fn call(&mut self) {
        for _ in 0..BATCH * B / self.b() {
            match self {
                Side::Ladder {
                    g,
                    view,
                    local,
                    rng,
                    b,
                } => {
                    for _ in 0..*b {
                        local.update(rng.next_u64());
                    }
                    g.merge(local);
                    g.publish(view);
                }
                Side::Rebuild { q, cell, rng } => {
                    for _ in 0..B {
                        q.update(rng.next_u64());
                    }
                    cell.store(q.reader());
                }
            }
        }
    }

    fn retained(&self) -> usize {
        match self {
            Side::Ladder { view, .. } => view.ladder().retained(),
            Side::Rebuild { q, .. } => q.ladder().retained(),
        }
    }
}

/// Measures the section.
pub fn run() -> Section {
    let variants = [
        (SMALL_DEPTH, true, B),
        (LARGE_DEPTH, true, B),
        (LARGE_DEPTH, false, B),
        (SMALL_DEPTH, true, SERVED_B),
        (LARGE_DEPTH, true, SERVED_B),
    ];
    let mut sides = variants.map(|(depth, ladder, b)| Side::new(depth, ladder, b));
    let [mut ladder_small, mut ladder_large, mut rebuild_large, mut served_small, mut served_large] =
        sides.each_mut().map(|side| move |_: &()| side.call());
    // One interleaving per gated pair. Publications are freed by the
    // thread's epoch collector some 64 publications later, inside a
    // neighbour's call: harmless between the two ladders, whose retired
    // snapshots are alike, but a rebuild's O(retained) readers landing
    // on one ladder and not the other would bend the flatness ratio.
    let ([small_secs, large_secs], rounds) =
        time_interleaved(|| (), [&mut ladder_small, &mut ladder_large]);
    let ([large_beside_rebuild_secs, rebuild_secs], rebuild_rounds) =
        time_interleaved(|| (), [&mut ladder_large, &mut rebuild_large]);
    let ([served_small_secs, served_large_secs], served_rounds) =
        time_interleaved(|| (), [&mut served_small, &mut served_large]);
    let timings = [
        (small_secs, rounds),
        (large_secs, rounds),
        (rebuild_secs, rebuild_rounds),
        (served_small_secs, served_rounds),
        (served_large_secs, served_rounds),
    ];
    let mut rows: Vec<String> = (variants.iter().zip(&sides).zip(timings))
        .map(|((&(depth, ladder, b), side), (secs, rounds))| {
            let merges = BATCH * B / b;
            let lane = if b == SERVED_B {
                format!(", \"lane\": \"{}\"", Avx512::lane())
            } else {
                String::new()
            };
            format!(
                "{{\"k\": {K}, \"warm_levels\": {depth}, \"warm_n\": {}, \
                 \"retained_warm\": {}, \"retained_end\": {}, \"strategy\": \"{}\", \
                 \"items_per_merge\": {b}, \"per_merge_ns\": {:.1}, \"merges\": {}{lane}}}",
                warm_sketch(depth).n(),
                K * depth,
                side.retained(),
                if ladder { "ladder" } else { "rebuild" },
                secs * 1e9 / merges as f64,
                rounds * merges
            )
        })
        .collect();
    let (sorts, sort_vs_std) = sort_rows();
    rows.extend(sorts);
    Section {
        name: "quantiles_prop",
        rows,
        gates: gates(
            rebuild_secs / large_beside_rebuild_secs,
            large_secs / small_secs,
            sort_vs_std,
        ),
    }
}
