//! Section `fanin`: the multiway fan-in kernels
//! (`fcds_sketches::wire::fanin`) against the reference pairwise
//! decode-and-fold, at widths f ∈ {2, 8, 32, 128}, per family.
//!
//! Images come from sequential sketches over disjoint ranges (the merge
//! path cannot tell who produced an image). Pairwise and multiway are
//! timed interleaved over the same images (`time_interleaved`, one whole
//! fan-in per call); the gated quotients sit at f = 32, Θ and HLL. The
//! section installs a counting global allocator so every row also
//! records heap allocations per merge — for Θ and HLL the multiway leg
//! holds a persistent [`MergeScratch`], and the gate pins its warm
//! allocation count at exactly zero. The Ladder and Misra–Gries kernels
//! materialise their (small) output, so they are reported, not gated.
//!
//! What a merged image *estimates* is not measured here:
//! `crates/core/tests/wire_merge.rs` pins that per family in tier-1, and
//! how long a fan-in takes in absolute terms is `benchmark/`'s
//! `sketches.wire.fanin9_us.*`.

use super::Section;
use bytes::Bytes;
use fcds_bench::gate::Bound::{Max, Min};
use fcds_bench::gate::GateCheck;
use fcds_bench::workload::time_interleaved;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::hll::HllSketch;
use fcds_sketches::quantiles::{QuantilesLadder, QuantilesSketch};
use fcds_sketches::theta::{CompactThetaSketch, QuickSelectThetaSketch, ThetaRead};
use fcds_sketches::wire::{
    hll_multiway_merge_into, ladder_multiway_concat, mg_multiway_merge, theta_multiway_union_into,
    MergeScratch, WireEncode, WireMerge,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Instrumented global allocator: counts every heap allocation so each
/// row can report allocations per merge — and so the gate can pin the
/// warm multiway loops at exactly zero.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation straight to `System`; the relaxed
// counter is the only addition (per-thread precision does not matter —
// the counted loops run on the main thread with no engine threads alive).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fan-in widths the sweep probes.
const FANIN_WIDTHS: [usize; 4] = [2, 8, 32, 128];
/// The width the speedup gates sit at.
const GATED_WIDTH: usize = 32;
/// Items per image (enough to saturate the Θ sketch at `THETA_LG_K`, so
/// every image carries a full 2^lg_k hash set).
const PER_NODE: u64 = 20_000;
const THETA_LG_K: u8 = 12;
const HLL_LG_M: u8 = 10;
const QUANTILES_K: usize = 64;
const MG_K: usize = 64;
const MG_MODULUS: u64 = 400;
const SEED: u64 = 2024;

/// The section's three gates, each bound beside the figure it cuts.
pub fn gates(
    theta_multiway_speedup_f32: f64,
    hll_multiway_speedup_f32: f64,
    warm_allocs_per_merge: f64,
) -> Vec<GateCheck> {
    vec![
        // The pairwise fold re-merges a growing accumulator f − 1 times
        // (O(f² · k) hash traffic plus f decode allocations); the Θ
        // loser-tree union is a single O(f · k · log f) pass over
        // borrowed views, so 2× is far below the measured gap and only a
        // kernel regression can breach it.
        GateCheck::new(
            "theta_multiway_speedup_f32",
            theta_multiway_speedup_f32,
            Min,
            2.0,
        ),
        // Pairwise pays per-image register validation and a
        // register-vector allocation per decode; the HLL register-max
        // kernel folds payload bytes into one accumulator and validates
        // once.
        GateCheck::new(
            "hll_multiway_speedup_f32",
            hll_multiway_speedup_f32,
            Min,
            2.0,
        ),
        // Heap allocations per merge in the warm Θ and HLL `*_into`
        // loops, worst width: the whole point of the scratch arena is
        // that this is exactly zero.
        GateCheck::new("warm_allocs_per_merge", warm_allocs_per_merge, Max, 0.0),
    ]
}

/// One image per node, the widest fan-in's worth, over disjoint ranges.
fn images(encode: impl Fn(Range<u64>) -> Bytes) -> Vec<Bytes> {
    (0..FANIN_WIDTHS[3] as u64)
        .map(|node| encode(node * PER_NODE..(node + 1) * PER_NODE))
        .collect()
}

/// The reference baseline the kernels are judged against: decode every
/// image, fold with `wire_merge_from` — exactly what `merge_wire_images`
/// did before the multiway kernels existed.
fn pairwise_fold<W: WireMerge>(images: &[Bytes]) -> W {
    let mut iter = images.iter();
    let mut acc = W::from_wire_bytes(iter.next().expect("nonempty fan-in")).expect("decode");
    for image in iter {
        let part = W::from_wire_bytes(image).expect("decode");
        acc.wire_merge_from(&part).expect("merge");
    }
    acc
}

/// Heap allocations one warm call of `merge` performs.
fn allocs_per_merge(merge: &mut dyn FnMut(&[Bytes]), images: &[Bytes]) -> f64 {
    const CALLS: u64 = 2;
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        merge(images);
    }
    (ALLOC_COUNT.load(Ordering::Relaxed) - before) as f64 / CALLS as f64
}

/// Sweeps one family over [`FANIN_WIDTHS`], one row per width; returns
/// the multiway speedup at [`GATED_WIDTH`] and the multiway leg's worst
/// warm allocation count.
fn sweep(
    rows: &mut Vec<String>,
    family: &str,
    images: &[Bytes],
    mut pairwise: impl FnMut(&[Bytes]),
    mut multiway: impl FnMut(&[Bytes]),
) -> (f64, f64) {
    let (mut gated_speedup, mut worst_warm_allocs) = (0.0, 0.0f64);
    for fanin in FANIN_WIDTHS {
        let images = &images[..fanin];
        let ([pw, mw], rounds) = time_interleaved(
            || (),
            [&mut |_| pairwise(images), &mut |_| multiway(images)],
        );
        let pw_allocs = allocs_per_merge(&mut pairwise, images);
        let mw_allocs = allocs_per_merge(&mut multiway, images);
        let us_per_image = 1e6 / fanin as f64;
        rows.push(format!(
            "{{\"family\": \"{family}\", \"fanin\": {fanin}, \"merges\": {rounds}, \
             \"pairwise_us_per_image\": {:.2}, \"pairwise_allocs_per_merge\": {pw_allocs:.1}, \
             \"multiway_us_per_image\": {:.2}, \"multiway_allocs_per_merge\": {mw_allocs:.1}, \
             \"speedup\": {:.2}}}",
            pw * us_per_image,
            mw * us_per_image,
            pw / mw
        ));
        if fanin == GATED_WIDTH {
            gated_speedup = pw / mw;
        }
        worst_warm_allocs = worst_warm_allocs.max(mw_allocs);
    }
    (gated_speedup, worst_warm_allocs)
}

/// Measures the section.
pub fn run() -> Section {
    let mut rows = Vec::new();

    let theta = images(|items| {
        let mut s = QuickSelectThetaSketch::new(THETA_LG_K, SEED).expect("theta sketch");
        items.for_each(|i| s.update(i));
        s.compact().to_wire_bytes()
    });
    let mut scratch = MergeScratch::new();
    let (theta_speedup, theta_allocs) = sweep(
        &mut rows,
        "theta",
        &theta,
        |images| {
            black_box(pairwise_fold::<CompactThetaSketch>(images).estimate());
        },
        |images| {
            let merged = theta_multiway_union_into(&mut scratch, images).expect("theta multiway");
            black_box(merged.estimate());
        },
    );

    let hll = images(|items| {
        let mut s = HllSketch::new(HLL_LG_M, SEED).expect("hll sketch");
        items.for_each(|i| s.update(i));
        s.to_wire_bytes()
    });
    let (hll_speedup, hll_allocs) = sweep(
        &mut rows,
        "hll",
        &hll,
        |images| {
            black_box(pairwise_fold::<HllSketch>(images).estimate());
        },
        |images| {
            let merged = hll_multiway_merge_into(&mut scratch, images).expect("hll multiway");
            black_box(merged.estimate());
        },
    );

    let ladders = images(|items| {
        let mut s = QuantilesSketch::<u64>::with_seed(QUANTILES_K, SEED).expect("quantiles sketch");
        items.for_each(|i| s.update(i));
        s.ladder().to_wire_bytes()
    });
    sweep(
        &mut rows,
        "quantiles",
        &ladders,
        |images| {
            black_box(pairwise_fold::<QuantilesLadder<u64>>(images).n());
        },
        |images| {
            let merged: QuantilesLadder<u64> =
                ladder_multiway_concat(images).expect("ladder multiway");
            black_box(merged.n());
        },
    );

    // Skewed: item 0 is globally heavy, the tail cycles through a
    // modulus wider than k.
    let summaries = images(|items| {
        let mut s = MisraGriesSketch::<u64>::new(MG_K).expect("mg sketch");
        items.for_each(|i| s.update(if i % 4 == 0 { 0 } else { 1 + i % MG_MODULUS }));
        s.to_wire_bytes()
    });
    sweep(
        &mut rows,
        "misra_gries",
        &summaries,
        |images| {
            black_box(pairwise_fold::<MisraGriesSketch<u64>>(images).n());
        },
        |images| {
            let merged: MisraGriesSketch<u64> = mg_multiway_merge(images).expect("mg multiway");
            black_box(merged.n());
        },
    );

    Section {
        name: "fanin",
        rows,
        gates: gates(theta_speedup, hll_speedup, theta_allocs.max(hll_allocs)),
    }
}
