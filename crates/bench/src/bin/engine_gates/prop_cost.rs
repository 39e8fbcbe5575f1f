//! Section `prop_cost`: what one propagation step costs for Θ, HLL and
//! Misra–Gries, and how that cost moves with the sketch's size.
//!
//! The paper's scalability argument needs the propagation path to stay
//! O(b) per merge (`GlobalSketch`'s cost contract). This section pins
//! that down by timing one hand-off — `calc_hint`, merge a pre-filtered
//! local buffer of `b` updates into a *full* global sketch, publish
//! (Quantiles needs frozen deep levels to hold two sizes apart and has
//! its own section, `quantiles_prop`).
//!
//! HLL and Misra–Gries run at two sizes each (`lg_m` ∈ {12, 16},
//! `k` ∈ {64, 1024}) and gate the large-over-small cost ratio: an HLL
//! hand-off touches `b` registers and reads the estimate and the hint's
//! floor off the register-value histogram, so its cost must not know
//! `m`; a Misra–Gries hand-off sorts its `b` keys, merge-joins their
//! runs with the ≤ k key-sorted counters, reduces once and copies the
//! counter run, so its cost may grow with `k` but no faster. Misra–Gries
//! also has rows, not gated, at 256 keys per merge: a connection thread
//! applies each 256-item frame as one inline merge, so that is the
//! regime the server runs.
//!
//! Θ runs under the publication strategies the sharded engine can run:
//!
//! * `k = 1, image = none` — the single-shard path (seqlock triple only);
//! * `k = 4, image = delta` — chunked copy-on-write block images, the
//!   sharded path;
//! * `k = 4, image = whole_copy` — the pre-block behaviour (re-collect
//!   all retained hashes per publication), kept reachable as the
//!   `publish_sharded`-without-`prepare_sharded` fallback.
//!
//! Publication cost is retained-independent when the delta rows stay
//! within a small factor of the no-image row while the whole-copy row
//! grows with `retained`. Every quotient is taken between sides timed
//! interleaved (`time_interleaved`): the no-image and delta Θ sides of
//! one `lg_k` together, each call spanning a whole rebuild cycle of the
//! sketch's table, the two sizes of HLL together, the two of
//! Misra–Gries together and on the same keys.

use super::Section;
use fcds_bench::gate::Bound::{Max, Min};
use fcds_bench::gate::GateCheck;
use fcds_bench::workload::{time_interleaved, SplitMix};
use fcds_core::composable::{GlobalSketch, LocalSketch};
use fcds_core::hll::HllGlobal;
use fcds_core::theta::ThetaGlobal;
use fcds_sketches::frequency::MisraGriesSketch;

const SEED: u64 = 0xB10C;
/// Updates per merge: the engine's default lazy buffer cap `b`.
const B: usize = 16;
/// Keys per Misra–Gries merge on the served path: one frame, merged
/// inline.
const SERVED_B: usize = 256;
/// Hand-offs per timed call, so the clock never pollutes a cheap step.
const BATCH: usize = 64;
/// Hand-offs per timed call of the gated Θ sides (no image, delta): more
/// than one quick-select rebuild cycle at lg_k = 16 (0.875·k = 57 344
/// accepted hashes between two Θ drops, 3 584 hand-offs of `b`), so
/// each call pays about one table rebuild and one block-mirror rebuild,
/// and what it costs no longer depends on where in the cycle it started.
/// At [`BATCH`] hand-offs a call early in a cycle (sparse table, cheap
/// inserts) read ≈ 3.3× against ≈ 2.2× late in one, so a run's median
/// quotient depended on which phases its calls hit: 2.6–2.9 on a 2-vCPU
/// VM, up to 3.2 on the CI runner, against a bound of 3.
const THETA_BATCH: usize = 4096;
/// Hand-offs per timed call of the two HLL sides. A call of [`BATCH`]
/// lasts some 20 µs and starts where the other size's call left the
/// cache, so its median weighs that hand-over as much as the hand-offs
/// themselves; Θ calls that short read a steady-state merge several
/// times too dear. A call this long (about a third of a millisecond) is
/// almost all steady-state hand-offs, the cost the engine's propagation
/// pays per merge. On a 2-vCPU VM the quotient read 0.99–1.01 at
/// [`BATCH`] and reads 1.06–1.07 here: the 64 KiB register array's own
/// cache misses, which the short calls hid.
const HLL_BATCH: usize = 1024;
/// The same for Misra–Gries. A publication retires the previous table to
/// the thread's epoch collector, which frees it some 64 publications
/// later — inside the *other* side's call when calls are that short, so
/// k = 64 would pay for freeing k = 1024's tables and the reverse. A call
/// this long keeps all but its first few frees its own.
const FREQUENCY_BATCH: usize = 1024;

/// The section's four gates, each bound beside the ratio it cuts.
pub fn gates(
    theta_delta_vs_no_image: f64,
    theta_whole_copy_vs_delta: f64,
    hll_large_vs_small: f64,
    frequency_large_vs_small: f64,
) -> Vec<GateCheck> {
    vec![
        // Θ delta-image publication against the no-image single-shard
        // path at lg_k = 16, per hand-off over whole rebuild cycles
        // (`THETA_BATCH`; 2.4–2.5× on a 2-vCPU VM, PR 3 measured ≈ 2.5×).
        GateCheck::new(
            "lg_k16_delta_vs_no_image_ratio",
            theta_delta_vs_no_image,
            Max,
            3.0,
        ),
        // The pre-block whole-copy fallback must stay this much slower
        // than delta publication at lg_k = 16 (measured ≈ 340×): the
        // block images must keep buying at least a 5× win.
        GateCheck::new(
            "lg_k16_whole_copy_vs_delta_ratio",
            theta_whole_copy_vs_delta,
            Min,
            5.0,
        ),
        // An HLL hand-off at lg_m = 16 over one at lg_m = 12, per
        // hand-off over `HLL_BATCH`-long calls. The honest value is ≈ 1
        // (cache misses on the 64 KiB register array aside; 1.06–1.07 on
        // a 2-vCPU VM); a publication that rescans the registers read 27.
        GateCheck::new("hll_large_vs_small_ratio", hll_large_vs_small, Max, 2.0),
        // A Misra–Gries hand-off at k = 1024 over one at k = 64. This
        // step may know its size parameter: the merge-join and the one
        // reduction walk the ≤ k key-sorted counters and the publication
        // copies them, all linear in `k` with a small constant, next to
        // sorting the `b` keys. The bound is half the 16× size ratio; a
        // publication that sorts and re-hashes the table read 9.0.
        GateCheck::new(
            "frequency_large_vs_small_ratio",
            frequency_large_vs_small,
            Max,
            8.0,
        ),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Image {
    /// `publish` only — the K = 1 path.
    None,
    /// Block images via the propagator's mirror.
    Delta,
    /// The pre-block fallback: `publish_sharded` without the mirror
    /// re-collects all retained hashes on every publication.
    WholeCopy,
}

/// One Θ publication strategy on its own saturated global.
struct ThetaSide {
    g: ThetaGlobal,
    view: <ThetaGlobal as GlobalSketch>::View,
    local: <ThetaGlobal as GlobalSketch>::Local,
    rng: SplitMix,
    image: Image,
    /// Hand-offs per timed call.
    batch: usize,
    merges: u64,
}

impl ThetaSide {
    /// A global saturated with distinct uniform hashes (estimation mode,
    /// retained fluctuating in `[k, ~1.9k)`), prepared for `image`.
    fn new(lg_k: u8, image: Image) -> Self {
        let mut g = ThetaGlobal::new(lg_k, SEED).expect("valid lg_k");
        let mut rng = SplitMix(SEED);
        for _ in 0..(32u64 << lg_k) {
            g.update_direct(rng.next_u64() | 1);
        }
        if image == Image::Delta {
            g.prepare_sharded();
        }
        let view = g.new_view();
        if image != Image::None {
            g.publish_sharded(&view);
        }
        let local = g.new_local();
        ThetaSide {
            g,
            view,
            local,
            rng: SplitMix(SEED ^ 0x5EED),
            image,
            // Alone, a whole-copy call's cost needs no rebuild cycle
            // averaged in (see `run`).
            batch: if image == Image::WholeCopy {
                BATCH
            } else {
                THETA_BATCH
            },
            merges: 0,
        }
    }

    /// One timed call: `batch` hand-offs.
    fn call(&mut self) {
        for _ in 0..self.batch {
            self.hand_off();
        }
    }

    /// `calc_hint` + `merge(b pre-filtered updates)` + `publish`.
    fn hand_off(&mut self) {
        // The writers' shouldAdd filter only ships hashes below the
        // hint, so feed uniform hashes below Θ — the stream the
        // propagator actually sees.
        let theta = self.g.calc_hint();
        for _ in 0..B {
            self.local.update(1 + self.rng.next_u64() % (theta - 1));
        }
        self.g.merge(&mut self.local);
        self.merges += 1;
        match self.image {
            Image::None => self.g.publish(&self.view),
            Image::Delta | Image::WholeCopy => self.g.publish_sharded(&self.view),
        }
    }

    fn retained(&self) -> u64 {
        self.g.publish(&self.view);
        ThetaGlobal::snapshot(&self.view).retained
    }
}

/// [`HLL_BATCH`] HLL hand-offs per call on a global warmed with `32·m`
/// distinct hashes (every register set, floor ≈ 3). The writers' filter
/// only ships hashes whose rank beats the floor, so feed exactly those:
/// uniform index bits, a tail with at least `floor` leading zeros.
fn hll_side(lg_m: u8) -> impl FnMut(&()) {
    let mut g = HllGlobal::new(lg_m, SEED).expect("valid lg_m");
    let mut rng = SplitMix(SEED);
    for _ in 0..(32u64 << lg_m) {
        g.update_direct(rng.next_u64());
    }
    let view = g.new_view();
    let mut local = g.new_local();
    move |_| {
        for _ in 0..HLL_BATCH {
            let hint = g.calc_hint();
            for _ in 0..B {
                let index = rng.next_u64() << (64 - lg_m);
                let tail = rng.next_u64() >> hint.floor;
                local.update(index | (tail >> lg_m));
            }
            g.merge(&mut local);
            g.publish(&view);
        }
    }
}

/// Keys of the benchmark's Frequency streams — Zipf(1.1) over 10⁵ keys,
/// here by the continuous inverse CDF — so the table is full of unequal
/// counters and a share of every merge's keys is new (reductions run).
fn zipf_key(word: u64) -> u64 {
    const KEYS: f64 = 100_000.0;
    let u = (word >> 11) as f64 / (1u64 << 53) as f64;
    ((KEYS.powf(-0.1) - 1.0) * u + 1.0).powf(-10.0) as u64
}

/// Misra–Gries hand-offs (the hint is the unit), one per `b` keys handed
/// in, on a `k`-counter global warmed with 2¹⁷ keys. The keys are drawn
/// outside the clock — a `powf` per key would cost more than the merge.
fn frequency_side(k: usize, b: usize) -> impl FnMut(&Vec<u64>) {
    let mut g = MisraGriesSketch::<u64>::new(k).expect("valid k");
    let mut rng = SplitMix(SEED);
    for _ in 0..1 << 17 {
        g.update_direct(zipf_key(rng.next_u64()));
    }
    let view = g.new_view();
    let mut local = g.new_local();
    move |keys| {
        for chunk in keys.chunks_exact(b) {
            g.calc_hint();
            for &key in chunk {
                local.update(key);
            }
            GlobalSketch::merge(&mut g, &mut local);
            g.publish(&view);
        }
    }
}

/// Measures the section.
pub fn run() -> Section {
    let variants = [
        (1, Image::None, "none"),
        (4, Image::Delta, "delta"),
        (4, Image::WholeCopy, "whole_copy"),
    ];
    let mut rows = Vec::new();
    // Only lg_k = 16 is gated; lg_k = 12 shows the whole-copy row growing.
    let [_, (delta_vs_no_image, whole_copy_vs_delta)] = [12u8, 16].map(|lg_k| {
        let mut sides = variants.map(|(_, image, ..)| ThetaSide::new(lg_k, image));
        let [mut none, mut delta, mut whole_copy] =
            sides.each_mut().map(|side| move |_: &()| side.call());
        let ([none_secs, delta_secs], _) = time_interleaved(|| (), [&mut none, &mut delta]);
        // Alone: a whole-copy publication retires an O(retained) image
        // to the thread's epoch collector, and a neighbour's next
        // publication would pay for freeing it. At ≈ 400× against a
        // bound of 5 this quotient needs no drift cancelled.
        let ([whole_copy_secs], _) = time_interleaved(|| (), [&mut whole_copy]);
        let mut per_merge = [none_secs, delta_secs, whole_copy_secs];
        for ((side, secs), (shards, _, label)) in sides.iter().zip(&mut per_merge).zip(variants) {
            *secs /= side.batch as f64;
            rows.push(format!(
                "{{\"family\": \"theta\", \"lg_k\": {lg_k}, \"retained\": {}, \
                 \"shards\": {shards}, \"image\": \"{label}\", \
                 \"per_merge_ns\": {:.1}, \"merges\": {}}}",
                side.retained(),
                *secs * 1e9,
                side.merges
            ));
        }
        let [none, delta, whole_copy] = per_merge;
        (delta / none, whole_copy / delta)
    });

    // One row per size; returns the large-over-small cost ratio.
    type Timing = ([f64; 2], usize);
    let mut sized =
        |family: &str, param: &str, sizes: [usize; 2], batch, (secs, rounds): Timing| {
            for (size, secs) in sizes.into_iter().zip(secs) {
                rows.push(format!(
                    "{{\"family\": \"{family}\", \"{param}\": {size}, \
                 \"items_per_merge\": {B}, \"per_merge_ns\": {:.1}, \"merges\": {}}}",
                    secs * 1e9 / batch as f64,
                    rounds * batch
                ));
            }
            secs[1] / secs[0]
        };
    let sizes = [12, 16];
    let [mut small, mut large] = sizes.map(|lg_m| hll_side(lg_m as u8));
    let timing = time_interleaved(|| (), [&mut small, &mut large]);
    let hll_ratio = sized("hll", "lg_m", sizes, HLL_BATCH, timing);

    let sizes = [64, 1024];
    let [mut small, mut large] = sizes.map(|k| frequency_side(k, B));
    let mut rng = SplitMix(SEED ^ 0x5EED);
    let mut keys = || -> Vec<u64> {
        std::iter::repeat_with(|| zipf_key(rng.next_u64()))
            .take(FREQUENCY_BATCH * B)
            .collect()
    };
    let timing = time_interleaved(&mut keys, [&mut small, &mut large]);
    let frequency_ratio = sized("frequency", "k", sizes, FREQUENCY_BATCH, timing);
    // The served merge size: the same keys per call, in 256-key merges.
    let [mut small, mut large] = sizes.map(|k| frequency_side(k, SERVED_B));
    let (secs, rounds) = time_interleaved(&mut keys, [&mut small, &mut large]);
    let merges = FREQUENCY_BATCH * B / SERVED_B;
    for (k, secs) in sizes.into_iter().zip(secs) {
        rows.push(format!(
            "{{\"family\": \"frequency\", \"k\": {k}, \"items_per_merge\": {SERVED_B}, \
             \"per_merge_ns\": {:.1}, \"merges\": {}}}",
            secs * 1e9 / merges as f64,
            rounds * merges
        ));
    }

    Section {
        name: "prop_cost",
        rows,
        gates: gates(
            delta_vs_no_image,
            whole_copy_vs_delta,
            hll_ratio,
            frequency_ratio,
        ),
    }
}
