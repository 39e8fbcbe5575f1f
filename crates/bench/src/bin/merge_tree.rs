//! The merge-anywhere scenario: N simulated nodes ingest disjoint
//! streams through the *concurrent* engine, export versioned wire
//! images, and a coordinator fan-in merges them into one queryable
//! global — emitting `BENCH_merge_tree.json`.
//!
//! One row per sketch family records the image size, the fan-in merge
//! cost (µs per image, images per second), and the merged estimate's
//! error against the exact oracle the disjoint streams make computable:
//!
//! * **Θ / HLL** — true distinct count is `nodes × per_node`; the merge
//!   is lossless (untrimmed union / register max), so only estimator
//!   variance contributes.
//! * **Quantiles** — the union stream is exactly `0..total`, so the
//!   true rank of any merged quantile value is `value / total`; the row
//!   reports the worst rank error over a φ grid as a multiple of the
//!   single-sketch `epsilon_for_k`.
//! * **Misra–Gries** — true per-item counts are replayed alongside the
//!   engines; the row reports the merged `max_error` against the
//!   mergeable-summaries bound `n/(k+1)` and the bound-coverage of
//!   every probed item.
//!
//! On top of the accuracy rows, the **fan-in sweep** pits the multiway
//! kernels (`fcds_sketches::wire::fanin`) against the reference
//! pairwise decode-and-fold at widths f ∈ {2, 8, 32, 128}, per family.
//! The binary installs a counting global allocator so every sweep row
//! also records heap allocations and bytes per merge — for Θ and HLL
//! the multiway loop holds a persistent `MergeScratch`, and the gate
//! pins its warm-loop allocation count at exactly zero. A final stat
//! times re-encoding a decoded Θ image (the borrowed-slice encode fast
//! path).
//!
//! The acceptance ratios and the thresholds `bench_gate` enforces (see
//! [`fcds_bench::gate`]) are error-based — a merge-path bug shows up as
//! an estimate outside the statistical envelope — plus one loose
//! throughput floor catching accidentally quadratic fan-in, the
//! multiway-vs-pairwise speedup bounds at f = 32, and the zero-alloc
//! bound on the warm loops.
//!
//! Usage: `cargo run --release -p fcds-bench --bin merge_tree
//! [--out=DIR]` (writes `<out>/BENCH_merge_tree.json`, default the
//! working directory).

use fcds_bench::gate::{
    MERGE_TREE_FANIN_IPS_MIN, MERGE_TREE_HLL_MULTIWAY_SPEEDUP_F32_MIN, MERGE_TREE_HLL_RELERR_MAX,
    MERGE_TREE_MG_COVERAGE_MIN, MERGE_TREE_MG_ERROR_VS_BOUND_MAX,
    MERGE_TREE_QUANTILES_RANKERR_VS_EPS_MAX, MERGE_TREE_THETA_MULTIWAY_SPEEDUP_F32_MIN,
    MERGE_TREE_THETA_RELERR_MAX, MERGE_TREE_WARM_ALLOCS_PER_MERGE_MAX,
};
use fcds_bench::report::HarnessArgs;
use fcds_core::engine::{EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, ThetaFamily};
use fcds_core::WireImage;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::hll::HllSketch;
use fcds_sketches::quantiles::{epsilon_for_k, QuantilesLadder, QuantilesSketch};
use fcds_sketches::theta::{CompactThetaSketch, QuickSelectThetaSketch, ThetaRead};
use fcds_sketches::wire::{
    hll_multiway_merge_into, ladder_multiway_concat, merge_wire_images, mg_multiway_merge,
    theta_multiway_union_into, MergeScratch, WireDecode, WireEncode, WireMerge,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Instrumented global allocator: counts every heap allocation and its
/// size so each sweep row can report allocations and bytes per merge —
/// and so the gate can pin the warm multiway loops at exactly zero.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation straight to `System`; the relaxed
// counters are the only addition (per-thread precision does not matter —
// the timed loops run on the main thread with no engine threads alive).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Scenario parameters
// ---------------------------------------------------------------------------

const NODES: u64 = 8;
const PER_NODE: u64 = 50_000;
const THETA_LG_K: u8 = 12;
const HLL_LG_M: u8 = 10;
const QUANTILES_K: usize = 64;
const MG_K: usize = 64;
const MG_MODULUS: u64 = 400;
/// Fan-in repetitions for the accuracy-section timing loop (each
/// repetition merges all `NODES` images from scratch).
const MERGE_REPS: u32 = 64;

/// Fan-in widths the sweep probes. The gate bounds sit at f = 32.
const FANIN_WIDTHS: [usize; 4] = [2, 8, 32, 128];
/// Items per node for the sweep images (enough to saturate the Θ sketch
/// at `THETA_LG_K`, so every image carries a full 2^lg_k hash set).
const SWEEP_PER_NODE: u64 = 20_000;

/// Repetitions per sweep width, scaled so total image traffic stays
/// roughly constant across widths.
fn sweep_reps(fanin: usize) -> u32 {
    (2048 / fanin).max(4) as u32
}

/// Times `reps` full fan-ins of `images` through the shipping
/// `merge_wire_images` path and returns
/// (merged result, µs per image, images per second).
fn time_fanin<W: WireMerge>(images: &[bytes::Bytes], reps: u32) -> (W, f64, f64) {
    let start = Instant::now();
    let mut merged = merge_wire_images(images).expect("images merge");
    for _ in 1..reps {
        merged = merge_wire_images(images).expect("images merge");
    }
    let elapsed = start.elapsed();
    let total_images = images.len() as f64 * reps as f64;
    let us_per_image = elapsed.as_secs_f64() * 1e6 / total_images;
    let images_per_sec = total_images / elapsed.as_secs_f64();
    (merged, us_per_image, images_per_sec)
}

fn avg_bytes(images: &[bytes::Bytes]) -> u64 {
    images.iter().map(|b| b.len() as u64).sum::<u64>() / images.len() as u64
}

// ---------------------------------------------------------------------------
// Sweep machinery
// ---------------------------------------------------------------------------

/// One timed sweep leg: cost per image, rate, and per-merge allocator
/// traffic. `sink` folds each merge's observable result so the loop
/// cannot be optimised away.
struct SweepTiming {
    us_per_image: f64,
    images_per_sec: f64,
    allocs_per_merge: f64,
    bytes_per_merge: f64,
    sink: f64,
}

/// Runs `merge` once unmeasured (warming any reusable scratch to size),
/// then times `reps` runs and snapshots the allocation counters around
/// the loop.
fn time_sweep(n_images: usize, reps: u32, mut merge: impl FnMut() -> f64) -> SweepTiming {
    let mut sink = merge();
    let allocs0 = ALLOC_COUNT.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..reps {
        sink += merge();
    }
    let elapsed = start.elapsed();
    let allocs = ALLOC_COUNT.load(Ordering::Relaxed) - allocs0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    let total_images = n_images as f64 * reps as f64;
    SweepTiming {
        us_per_image: elapsed.as_secs_f64() * 1e6 / total_images,
        images_per_sec: total_images / elapsed.as_secs_f64(),
        allocs_per_merge: allocs as f64 / f64::from(reps),
        bytes_per_merge: bytes as f64 / f64::from(reps),
        sink,
    }
}

/// The reference baseline the kernels are judged against: decode every
/// image, fold with `wire_merge_from` — exactly what `merge_wire_images`
/// did before the multiway kernels existed.
fn pairwise_fold<W: WireMerge>(images: &[bytes::Bytes]) -> W {
    let mut iter = images.iter();
    let mut acc = W::from_wire_bytes(iter.next().expect("nonempty fan-in")).expect("decode");
    for image in iter {
        let part = W::from_wire_bytes(image).expect("decode");
        acc.wire_merge_from(&part).expect("merge");
    }
    acc
}

fn sweep_theta_images() -> Vec<bytes::Bytes> {
    (0..FANIN_WIDTHS[3] as u64)
        .map(|node| {
            let mut s = QuickSelectThetaSketch::new(THETA_LG_K, 2024).expect("theta sketch");
            for i in 0..SWEEP_PER_NODE {
                s.update(node * SWEEP_PER_NODE + i);
            }
            s.compact().to_wire_bytes()
        })
        .collect()
}

fn sweep_hll_images() -> Vec<bytes::Bytes> {
    (0..FANIN_WIDTHS[3] as u64)
        .map(|node| {
            let mut s = HllSketch::new(HLL_LG_M, 2024).expect("hll sketch");
            for i in 0..SWEEP_PER_NODE {
                s.update(node * SWEEP_PER_NODE + i);
            }
            s.to_wire_bytes()
        })
        .collect()
}

fn sweep_ladder_images() -> Vec<bytes::Bytes> {
    (0..FANIN_WIDTHS[3] as u64)
        .map(|node| {
            let mut s =
                QuantilesSketch::<u64>::with_seed(QUANTILES_K, 2024).expect("quantiles sketch");
            for i in 0..SWEEP_PER_NODE {
                s.update(node * SWEEP_PER_NODE + i);
            }
            s.ladder().to_wire_bytes()
        })
        .collect()
}

fn sweep_mg_images() -> Vec<bytes::Bytes> {
    (0..FANIN_WIDTHS[3] as u64)
        .map(|node| {
            let mut s = MisraGriesSketch::<u64>::new(MG_K).expect("mg sketch");
            for i in 0..SWEEP_PER_NODE {
                let item = if i % 4 == 0 {
                    0
                } else {
                    1 + (node * SWEEP_PER_NODE + i) % MG_MODULUS
                };
                s.update(item);
            }
            s.to_wire_bytes()
        })
        .collect()
}

/// One sweep row: `{family, fanin, reps, pairwise and multiway legs}`.
fn sweep_row(family: &str, fanin: usize, reps: u32, pw: &SweepTiming, mw: &SweepTiming) -> String {
    format!(
        "    {{\"family\": \"{family}\", \"fanin\": {fanin}, \"reps\": {reps}, \
         \"pairwise_us_per_image\": {:.2}, \"pairwise_allocs_per_merge\": {:.1}, \
         \"pairwise_bytes_per_merge\": {:.0}, \"multiway_us_per_image\": {:.2}, \
         \"multiway_images_per_sec\": {:.0}, \"multiway_allocs_per_merge\": {:.1}, \
         \"multiway_bytes_per_merge\": {:.0}, \"speedup\": {:.2}}}",
        pw.us_per_image,
        pw.allocs_per_merge,
        pw.bytes_per_merge,
        mw.us_per_image,
        mw.images_per_sec,
        mw.allocs_per_merge,
        mw.bytes_per_merge,
        pw.us_per_image / mw.us_per_image
    )
}

fn main() {
    let args = HarnessArgs::parse_with_out_default(".");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let total = NODES * PER_NODE;
    let mut rows = String::new();
    let mut fanin_floor = f64::INFINITY;

    // Θ: exact oracle is the disjoint union cardinality.
    let images = theta_images();
    let (merged, us, ips) = time_fanin::<CompactThetaSketch>(&images, MERGE_REPS);
    fanin_floor = fanin_floor.min(ips);
    let theta_rel_error = (merged.estimate() - total as f64).abs() / total as f64;
    let _ = writeln!(
        rows,
        "    {{\"family\": \"theta\", \"lg_k\": {THETA_LG_K}, \"nodes\": {NODES}, \
         \"per_node\": {PER_NODE}, \"image_bytes\": {}, \"merge_us_per_image\": {us:.2}, \
         \"fanin_images_per_sec\": {ips:.0}, \"rel_error\": {theta_rel_error:.4}}},",
        avg_bytes(&images)
    );
    eprintln!("theta: {us:.1} us/image, {ips:.0} images/s, rel_error {theta_rel_error:.4}");

    // HLL: same oracle; the merge is an exact register-max join.
    let images = hll_images();
    let (merged, us, ips) = time_fanin::<HllSketch>(&images, MERGE_REPS);
    fanin_floor = fanin_floor.min(ips);
    let hll_rel_error = (merged.estimate() - total as f64).abs() / total as f64;
    let _ = writeln!(
        rows,
        "    {{\"family\": \"hll\", \"lg_m\": {HLL_LG_M}, \"nodes\": {NODES}, \
         \"per_node\": {PER_NODE}, \"image_bytes\": {}, \"merge_us_per_image\": {us:.2}, \
         \"fanin_images_per_sec\": {ips:.0}, \"rel_error\": {hll_rel_error:.4}}},",
        avg_bytes(&images)
    );
    eprintln!("hll: {us:.1} us/image, {ips:.0} images/s, rel_error {hll_rel_error:.4}");

    // Quantiles: the union stream is exactly 0..total, so the true rank
    // of a merged quantile value is value/total.
    let images = quantiles_images();
    let (merged, us, ips) = time_fanin::<QuantilesLadder<u64>>(&images, MERGE_REPS);
    fanin_floor = fanin_floor.min(ips);
    let mut worst_rank_error = 0.0f64;
    for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let v = merged.quantile(phi).expect("nonempty merged ladder");
        worst_rank_error = worst_rank_error.max((v as f64 / total as f64 - phi).abs());
    }
    let quantiles_rankerr_vs_eps = worst_rank_error / epsilon_for_k(QUANTILES_K);
    let _ = writeln!(
        rows,
        "    {{\"family\": \"quantiles\", \"k\": {QUANTILES_K}, \"nodes\": {NODES}, \
         \"per_node\": {PER_NODE}, \"image_bytes\": {}, \"merge_us_per_image\": {us:.2}, \
         \"fanin_images_per_sec\": {ips:.0}, \"worst_rank_error\": {worst_rank_error:.4}}},",
        avg_bytes(&images)
    );
    eprintln!(
        "quantiles: {us:.1} us/image, {ips:.0} images/s, worst rank error \
         {worst_rank_error:.4} ({quantiles_rankerr_vs_eps:.2}x eps)"
    );

    // Misra–Gries: replayed truth gives exact per-item counts; the
    // merged summary must keep every truth inside its bounds and its
    // error within the mergeable-summaries bound.
    let (images, truth) = mg_images();
    let (merged, us, ips) = time_fanin::<MisraGriesSketch<u64>>(&images, MERGE_REPS);
    fanin_floor = fanin_floor.min(ips);
    let mg_error_vs_bound = merged.max_error() as f64 / (total as f64 / (MG_K as f64 + 1.0));
    let covered = truth
        .iter()
        .filter(|(item, &count)| {
            let est = merged.estimate(item);
            est.lower_bound <= count && count <= est.upper_bound
        })
        .count();
    let mg_coverage = covered as f64 / truth.len() as f64;
    let _ = write!(
        rows,
        "    {{\"family\": \"misra_gries\", \"k\": {MG_K}, \"nodes\": {NODES}, \
         \"per_node\": {PER_NODE}, \"image_bytes\": {}, \"merge_us_per_image\": {us:.2}, \
         \"fanin_images_per_sec\": {ips:.0}, \"error_vs_bound\": {mg_error_vs_bound:.4}, \
         \"truth_coverage\": {mg_coverage:.4}}}",
        avg_bytes(&images)
    );
    eprintln!(
        "misra-gries: {us:.1} us/image, {ips:.0} images/s, error/bound \
         {mg_error_vs_bound:.3}, coverage {mg_coverage:.3}"
    );

    // -----------------------------------------------------------------
    // Fan-in sweep: multiway kernels vs the pairwise decode-and-fold.
    // Images come from sequential sketches (the merge path cannot tell
    // who produced an image); every engine from the accuracy section is
    // already dropped, so the timed loops own the allocator counters.
    // -----------------------------------------------------------------
    let theta_sweep = sweep_theta_images();
    let hll_sweep = sweep_hll_images();
    let ladder_sweep = sweep_ladder_images();
    let mg_sweep = sweep_mg_images();

    let mut sweep_rows: Vec<String> = Vec::new();
    let mut theta_multiway_speedup_f32 = 0.0f64;
    let mut hll_multiway_speedup_f32 = 0.0f64;
    let mut warm_allocs_per_merge = 0.0f64;
    let mut sink = 0.0f64;
    let mut scratch = MergeScratch::new();

    for &fanin in &FANIN_WIDTHS {
        let reps = sweep_reps(fanin);
        let slice = &theta_sweep[..fanin];
        let pw = time_sweep(fanin, reps, || {
            pairwise_fold::<CompactThetaSketch>(slice).estimate()
        });
        let mw = time_sweep(fanin, reps, || {
            theta_multiway_union_into(&mut scratch, slice)
                .expect("theta multiway")
                .estimate()
        });
        if fanin == 32 {
            theta_multiway_speedup_f32 = pw.us_per_image / mw.us_per_image;
        }
        warm_allocs_per_merge = warm_allocs_per_merge.max(mw.allocs_per_merge);
        sink += pw.sink + mw.sink;
        eprintln!(
            "theta f={fanin}: pairwise {:.2} us/image, multiway {:.2} us/image \
             ({:.2}x, {:.1} allocs/merge warm)",
            pw.us_per_image,
            mw.us_per_image,
            pw.us_per_image / mw.us_per_image,
            mw.allocs_per_merge
        );
        sweep_rows.push(sweep_row("theta", fanin, reps, &pw, &mw));
    }

    for &fanin in &FANIN_WIDTHS {
        let reps = sweep_reps(fanin);
        let slice = &hll_sweep[..fanin];
        let pw = time_sweep(fanin, reps, || pairwise_fold::<HllSketch>(slice).estimate());
        let mw = time_sweep(fanin, reps, || {
            hll_multiway_merge_into(&mut scratch, slice)
                .expect("hll multiway")
                .estimate()
        });
        if fanin == 32 {
            hll_multiway_speedup_f32 = pw.us_per_image / mw.us_per_image;
        }
        warm_allocs_per_merge = warm_allocs_per_merge.max(mw.allocs_per_merge);
        sink += pw.sink + mw.sink;
        eprintln!(
            "hll f={fanin}: pairwise {:.2} us/image, multiway {:.2} us/image \
             ({:.2}x, {:.1} allocs/merge warm)",
            pw.us_per_image,
            mw.us_per_image,
            pw.us_per_image / mw.us_per_image,
            mw.allocs_per_merge
        );
        sweep_rows.push(sweep_row("hll", fanin, reps, &pw, &mw));
    }

    // Ladder and MG kernels materialise their (small) output, so they
    // are reported but not alloc-gated.
    for &fanin in &FANIN_WIDTHS {
        let reps = sweep_reps(fanin);
        let slice = &ladder_sweep[..fanin];
        let pw = time_sweep(fanin, reps, || {
            pairwise_fold::<QuantilesLadder<u64>>(slice).n() as f64
        });
        let mw = time_sweep(fanin, reps, || {
            let merged: QuantilesLadder<u64> =
                ladder_multiway_concat(slice).expect("ladder multiway");
            merged.n() as f64
        });
        sink += pw.sink + mw.sink;
        eprintln!(
            "quantiles f={fanin}: pairwise {:.2} us/image, multiway {:.2} us/image ({:.2}x)",
            pw.us_per_image,
            mw.us_per_image,
            pw.us_per_image / mw.us_per_image
        );
        sweep_rows.push(sweep_row("quantiles", fanin, reps, &pw, &mw));
    }

    for &fanin in &FANIN_WIDTHS {
        let reps = sweep_reps(fanin);
        let slice = &mg_sweep[..fanin];
        let pw = time_sweep(fanin, reps, || {
            pairwise_fold::<MisraGriesSketch<u64>>(slice).n() as f64
        });
        let mw = time_sweep(fanin, reps, || {
            let merged: MisraGriesSketch<u64> = mg_multiway_merge(slice).expect("mg multiway");
            merged.n() as f64
        });
        sink += pw.sink + mw.sink;
        eprintln!(
            "misra-gries f={fanin}: pairwise {:.2} us/image, multiway {:.2} us/image ({:.2}x)",
            pw.us_per_image,
            mw.us_per_image,
            pw.us_per_image / mw.us_per_image
        );
        sweep_rows.push(sweep_row("misra_gries", fanin, reps, &pw, &mw));
    }

    // Re-encode fast path: serialising a *decoded* Θ image encodes
    // straight off the borrowed hash slice (no sort, no gather).
    let decoded = CompactThetaSketch::from_wire_bytes(&theta_sweep[0]).expect("theta decode");
    let reencode_reps = 2048u32;
    let start = Instant::now();
    let mut reencoded_bytes = 0usize;
    for _ in 0..reencode_reps {
        reencoded_bytes += decoded.to_wire_bytes().len();
    }
    let theta_reencode_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reencode_reps);
    eprintln!(
        "theta re-encode: {theta_reencode_us:.2} us/image \
         ({} bytes; sweep sink {sink:.0}, {reencoded_bytes} bytes total)",
        decoded.to_wire_bytes().len()
    );

    let sweep = sweep_rows.join(",\n");
    let json = format!(
        "{{\n  \"schema\": \"fcds-bench-merge-tree-v2\",\n  \"cores\": {cores},\n  \
         \"nodes\": {NODES},\n  \"per_node\": {PER_NODE},\n  \"merge_reps\": {MERGE_REPS},\n  \
         \"sweep_per_node\": {SWEEP_PER_NODE},\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"fanin_sweep\": [\n{sweep}\n  ],\n  \
         \"acceptance\": {{\n    \
         \"theta_rel_error\": {theta_rel_error:.4},\n    \
         \"hll_rel_error\": {hll_rel_error:.4},\n    \
         \"quantiles_rankerr_vs_eps\": {quantiles_rankerr_vs_eps:.3},\n    \
         \"mg_error_vs_bound\": {mg_error_vs_bound:.4},\n    \
         \"mg_truth_coverage\": {mg_coverage:.4},\n    \
         \"fanin_images_per_sec_floor\": {fanin_floor:.0},\n    \
         \"theta_multiway_speedup_f32\": {theta_multiway_speedup_f32:.2},\n    \
         \"hll_multiway_speedup_f32\": {hll_multiway_speedup_f32:.2},\n    \
         \"warm_allocs_per_merge\": {warm_allocs_per_merge:.1},\n    \
         \"theta_reencode_us_per_image\": {theta_reencode_us:.2}\n  }},\n  \
         \"thresholds\": {{\n    \
         \"theta_rel_error_max\": {MERGE_TREE_THETA_RELERR_MAX:.2},\n    \
         \"hll_rel_error_max\": {MERGE_TREE_HLL_RELERR_MAX:.2},\n    \
         \"quantiles_rankerr_vs_eps_max\": {MERGE_TREE_QUANTILES_RANKERR_VS_EPS_MAX:.1},\n    \
         \"mg_error_vs_bound_max\": {MERGE_TREE_MG_ERROR_VS_BOUND_MAX:.1},\n    \
         \"mg_truth_coverage_min\": {MERGE_TREE_MG_COVERAGE_MIN:.1},\n    \
         \"fanin_images_per_sec_floor_min\": {MERGE_TREE_FANIN_IPS_MIN:.0},\n    \
         \"theta_multiway_speedup_f32_min\": {MERGE_TREE_THETA_MULTIWAY_SPEEDUP_F32_MIN:.1},\n    \
         \"hll_multiway_speedup_f32_min\": {MERGE_TREE_HLL_MULTIWAY_SPEEDUP_F32_MIN:.1},\n    \
         \"warm_allocs_per_merge_max\": {MERGE_TREE_WARM_ALLOCS_PER_MERGE_MAX:.1}\n  }}\n}}\n"
    );

    let path = format!("{}/BENCH_merge_tree.json", args.out_dir);
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    std::fs::write(&path, &json).expect("write BENCH_merge_tree.json");
    print!("{json}");
    eprintln!("wrote {path}");
}

fn theta_images() -> Vec<bytes::Bytes> {
    (0..NODES)
        .map(|node| {
            let sketch = EngineBuilder::<ThetaFamily>::new()
                .accuracy(usize::from(THETA_LG_K))
                .seed(2024)
                .writers(1)
                .max_concurrency_error(0.04)
                .build()
                .expect("theta engine");
            let mut w = sketch.writer();
            let items: Vec<u64> = (0..PER_NODE).map(|i| node * PER_NODE + i).collect();
            w.update_batch(&items);
            w.flush().unwrap();
            sketch.quiesce();
            sketch.wire_image()
        })
        .collect()
}

fn hll_images() -> Vec<bytes::Bytes> {
    (0..NODES)
        .map(|node| {
            let sketch = EngineBuilder::<HllFamily>::new()
                .accuracy(usize::from(HLL_LG_M))
                .seed(2024)
                .writers(1)
                .max_concurrency_error(0.04)
                .build()
                .expect("hll engine");
            let mut w = sketch.writer();
            let items: Vec<u64> = (0..PER_NODE).map(|i| node * PER_NODE + i).collect();
            w.update_batch(&items);
            w.flush().unwrap();
            sketch.quiesce();
            sketch.wire_image()
        })
        .collect()
}

fn quantiles_images() -> Vec<bytes::Bytes> {
    (0..NODES)
        .map(|node| {
            let sketch = EngineBuilder::<QuantilesFamily>::new()
                .accuracy(QUANTILES_K)
                .seed(2024)
                .writers(1)
                .max_concurrency_error(0.04)
                .build()
                .expect("quantiles engine");
            let mut w = sketch.writer();
            let items: Vec<u64> = (0..PER_NODE).map(|i| node * PER_NODE + i).collect();
            w.update_batch(&items);
            w.flush().unwrap();
            sketch.quiesce();
            sketch.wire_image()
        })
        .collect()
}

fn mg_images() -> (Vec<bytes::Bytes>, HashMap<u64, u64>) {
    let mut truth = HashMap::new();
    let images = (0..NODES)
        .map(|node| {
            let sketch = EngineBuilder::<FrequencyFamily>::new()
                .accuracy(MG_K)
                .writers(1)
                .max_concurrency_error(0.04)
                .build()
                .expect("frequency engine");
            let mut w = sketch.writer();
            for i in 0..PER_NODE {
                // Skewed: item 0 is globally heavy, the tail cycles
                // through a modulus wider than k.
                let item = if i % 4 == 0 {
                    0
                } else {
                    1 + (node * PER_NODE + i) % MG_MODULUS
                };
                w.update(item);
                *truth.entry(item).or_insert(0u64) += 1;
            }
            w.flush().unwrap();
            sketch.quiesce();
            sketch.wire_image()
        })
        .collect();
    (images, truth)
}
