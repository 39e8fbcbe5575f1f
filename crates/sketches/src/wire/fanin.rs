//! Multiway fan-in merge kernels over borrowed wire views.
//!
//! Decoding every raw image into an owned sketch and folding the list
//! **pairwise** costs `2f` allocations and O(n·f) copy/compare work for
//! a coordinator fanning in `f` Θ images of `n` retained hashes. The
//! kernels in this module fan the whole list in with **one pass** per
//! family, reading items straight out of the raw bytes through the
//! views in [`super::view`]:
//!
//! * **Θ** — a k-way union over sorted views driven by a loser tree,
//!   with a streaming Θ-threshold cut: as soon as a cursor reaches the
//!   joint Θ (the minimum across images) it leaves the tournament.
//!   Every image is sorted, so each cursor streams straight from its
//!   image's bytes.
//! * **HLL** — register-wise max folded directly from the payload bytes
//!   of every image into one accumulator; the rank bound is validated
//!   once on the accumulator (a max fold can only preserve or raise a
//!   violation, so the kernel rejects exactly what per-image decoding
//!   rejected).
//! * **Quantiles ladder** — one O(total runs) concatenation of borrowed
//!   runs into the result ladder; no intermediate ladder is built.
//! * **Misra–Gries** — counter accumulation from every view into a
//!   single map with one final reduction back to `k` counters (the
//!   mergeable-summaries construction; same `n/(k+1)` bound as the
//!   pairwise fold).
//!
//! The Θ and HLL kernels write *only* into a caller-owned
//! [`MergeScratch`] arena and return borrowed results
//! ([`ThetaFanin`] / [`HllFanin`]), so a warm coordinator loop performs
//! **zero steady-state allocations** — the claim `engine_gates` measures
//! with a counting allocator. Ladder and Misra–Gries results are owned
//! sketches (their state is inherently heap-backed), still built in one
//! pass.
//!
//! Validity is decided in [`super::view`] alone. The kernels parse
//! through the views and apply the views' item rules as they stream —
//! Θ's `check_theta_hash` on every hash read and on the unread tail past
//! the Θ cut; HLL's rank
//! bound on the folded accumulator — and the owned decoders are the
//! same views plus the materialisation below (`compact_from_parts`,
//! `hll_from_parts`, and for ladders and Misra–Gries a fan-in of one
//! image). So a kernel rejects exactly the inputs decode-then-fold
//! rejects, always with a typed [`WireError`], never a panic. The one
//! caveat is *which* of several defects in a multi-image batch is
//! reported: the kernels validate all headers before any items, so e.g.
//! a seed mismatch on image 2 can surface before a corrupt hash on
//! image 1 that the pairwise fold would have hit first.

use super::view::{
    check_theta_hash, validate_registers, HllWireView, LadderRunSink, LadderWireView, MgWireView,
    ThetaWireView, THETA_ITEMS_OFF,
};
use super::WireItem;
use crate::error::WireError;
use crate::frequency::MisraGriesSketch;
use crate::hll::{estimate_from_registers, HllSketch};
use crate::quantiles::QuantilesLadder;
use crate::theta::{CompactThetaSketch, ThetaRead};

/// Tree slot marker for "nothing here".
const SENTINEL: u32 = u32::MAX;

/// Cursor head marker for an exhausted cursor. Safe as a sentinel: every
/// live head is a hash strictly below its image's Θ ≤ `u64::MAX`.
const EXHAUSTED: u64 = u64::MAX;

/// One streaming position inside a Θ image. Plain `Copy` data — no
/// borrowed slice — so cursors can live in the reusable [`MergeScratch`]
/// across calls; byte access resolves through the image list at advance
/// time.
#[derive(Debug, Clone, Copy, Default)]
struct ThetaCursor {
    /// Image index.
    src: u32,
    /// Next item index into the image's hash region.
    pos: u64,
    /// One-past-last item index.
    end: u64,
    /// The source image's own Θ (item validation bound).
    theta: u64,
    /// Last hash read (strict-ascending validation state).
    last: u64,
    /// Current front item, or [`EXHAUSTED`].
    head: u64,
}

/// Reusable arena for the fan-in kernels.
///
/// All kernel working state — the cursors, the loser tree,
/// the output hash run, the HLL register accumulator — lives here, so a
/// coordinator that keeps one `MergeScratch` across query ticks merges
/// with zero steady-state allocations once the buffers have grown to the
/// working-set high-water mark.
///
/// # Examples
///
/// ```
/// use fcds_sketches::theta::{QuickSelectThetaSketch, ThetaRead};
/// use fcds_sketches::wire::{theta_multiway_union_into, MergeScratch, WireEncode};
///
/// let images: Vec<_> = (0..4u64)
///     .map(|node| {
///         let mut s = QuickSelectThetaSketch::new(6, 7).unwrap();
///         for i in (node..8_000).step_by(4) {
///             s.update(i);
///         }
///         s.compact().to_wire_bytes()
///     })
///     .collect();
/// let mut scratch = MergeScratch::new();
/// // Warm loop: after the first call, no further allocations.
/// for _ in 0..3 {
///     let union = theta_multiway_union_into(&mut scratch, &images).unwrap();
///     let est = union.estimate();
///     assert!((est - 8_000.0).abs() / 8_000.0 < 0.1, "estimate {est}");
/// }
/// ```
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// The merged, deduplicated output hash run.
    out: Vec<u64>,
    /// One cursor per input image.
    cursors: Vec<ThetaCursor>,
    /// Loser-tree slots (`2 × next_power_of_two(f)` of them).
    tree: Vec<u32>,
    /// HLL register accumulator.
    regs: Vec<u8>,
}

impl MergeScratch {
    /// Creates an empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The borrowed result of a Θ multiway union: joint Θ, seed, and the
/// merged hash run living inside the caller's [`MergeScratch`].
///
/// Implements [`ThetaRead`], so estimation and set operations work
/// directly on the borrowed state; [`Self::to_compact`] materialises an
/// owned [`CompactThetaSketch`] when one is needed.
#[derive(Debug, Clone, Copy)]
pub struct ThetaFanin<'s> {
    theta: u64,
    seed: u64,
    hashes: &'s [u64],
}

impl<'s> ThetaFanin<'s> {
    /// The merged hashes: strictly ascending, all below the joint Θ.
    pub fn sorted_hashes(&self) -> &'s [u64] {
        self.hashes
    }

    /// Materialises an owned compact sketch from the borrowed state.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the kernel emits a valid hash run); see
    /// `compact_from_parts`.
    pub fn to_compact(&self) -> Result<CompactThetaSketch, WireError> {
        compact_from_parts(self.theta, self.seed, self.hashes.to_vec())
    }
}

impl ThetaRead for ThetaFanin<'_> {
    fn theta(&self) -> u64 {
        self.theta
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn retained(&self) -> usize {
        self.hashes.len()
    }

    fn hashes(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        Box::new(self.hashes.iter().copied())
    }
}

/// The borrowed result of an HLL multiway merge: the folded register
/// array living inside the caller's [`MergeScratch`].
#[derive(Debug, Clone, Copy)]
pub struct HllFanin<'s> {
    lg_m: u8,
    seed: u64,
    registers: &'s [u8],
}

impl<'s> HllFanin<'s> {
    /// The configured `lg_m`.
    pub fn lg_m(&self) -> u8 {
        self.lg_m
    }

    /// The hash seed shared by all merged images.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The folded (register-wise max) register array.
    pub fn registers(&self) -> &'s [u8] {
        self.registers
    }

    /// Distinct-count estimate straight off the borrowed registers.
    pub fn estimate(&self) -> f64 {
        estimate_from_registers(self.registers)
    }

    /// Materialises an owned [`HllSketch`] from the borrowed state.
    ///
    /// # Errors
    ///
    /// Never fails in practice (`lg_m` was validated at parse); see
    /// `hll_from_parts`.
    pub fn to_sketch(&self) -> Result<HllSketch, WireError> {
        hll_from_parts(self.lg_m, self.seed, self.registers)
    }
}

/// The one Θ materialisation, shared by [`ThetaFanin::to_compact`] and
/// the decoder. A constructor rejection (never seen for validated parts)
/// is the `"theta parts"` invariant.
pub(super) fn compact_from_parts(
    theta: u64,
    seed: u64,
    hashes: Vec<u64>,
) -> Result<CompactThetaSketch, WireError> {
    CompactThetaSketch::from_parts(theta, seed, hashes)
        .map_err(|e| WireError::invariant("theta parts", e.to_string()))
}

/// The one HLL materialisation, shared by [`HllFanin::to_sketch`] and
/// the decoder. A constructor rejection (never seen for a parsed
/// `lg_m`) is the `"hll params"` invariant.
pub(super) fn hll_from_parts(
    lg_m: u8,
    seed: u64,
    registers: &[u8],
) -> Result<HllSketch, WireError> {
    let mut sketch = HllSketch::new(lg_m, seed)
        .map_err(|e| WireError::invariant("hll params", e.to_string()))?;
    sketch.load_registers(registers);
    Ok(sketch)
}

#[inline]
fn read_hash(image: &[u8], pos: u64) -> u64 {
    let off = THETA_ITEMS_OFF + 8 * pos as usize;
    // The cursor's `end` bound was established from the validated
    // count, so the slice is always in range.
    u64::from_le_bytes(image[off..off + 8].try_into().unwrap_or([0; 8]))
}

/// Advances `cur` to its next emittable hash, applying
/// `check_theta_hash` as it streams. On reaching the joint Θ cut, the
/// unread tail is checked too (the decoder validates every byte, so the
/// kernel must reject the same inputs) and the cursor exhausts.
fn theta_cursor_advance<B: AsRef<[u8]>>(
    cur: &mut ThetaCursor,
    images: &[B],
    joint: u64,
) -> Result<(), WireError> {
    if cur.pos == cur.end {
        cur.head = EXHAUSTED;
        return Ok(());
    }
    let bytes = images[cur.src as usize].as_ref();
    let h = read_hash(bytes, cur.pos);
    check_theta_hash(h, cur.theta, cur.last)?;
    if h >= joint {
        // Θ cut: nothing at or above the joint threshold can be
        // emitted, but the tail must still validate.
        let mut prev = h;
        for pos in cur.pos + 1..cur.end {
            let t = read_hash(bytes, pos);
            check_theta_hash(t, cur.theta, prev)?;
            prev = t;
        }
        cur.pos = cur.end;
        cur.head = EXHAUSTED;
        return Ok(());
    }
    cur.last = h;
    cur.head = h;
    cur.pos += 1;
    Ok(())
}

#[inline]
fn slot_key(slot: u32, cursors: &[ThetaCursor]) -> u64 {
    if slot == SENTINEL {
        u64::MAX
    } else {
        cursors[slot as usize].head
    }
}

/// K-way untrimmed Θ union over raw wire images, into the caller's
/// scratch arena. Result-identical to folding the images pairwise with
/// [`super::merge_wire_images`]: joint Θ = min over images, every
/// distinct hash below it kept, first image's seed wins.
///
/// # Errors
///
/// The decode-then-fold path's errors: any structural or item-level
/// decode failure, [`WireError::Incompatible`] on a seed mismatch, or
/// [`WireError::Invariant`] for an empty image list.
pub fn theta_multiway_union_into<'s, B: AsRef<[u8]>>(
    scratch: &'s mut MergeScratch,
    images: &[B],
) -> Result<ThetaFanin<'s>, WireError> {
    if images.is_empty() {
        return Err(WireError::invariant("merge", "no images to merge"));
    }
    let MergeScratch {
        out, cursors, tree, ..
    } = scratch;
    out.clear();
    cursors.clear();

    // Header pass: joint seed (first wins, as in the pairwise fold),
    // joint Θ (minimum across images) and one cursor per image, which
    // streams straight from the image's bytes.
    let mut seed = 0u64;
    let mut joint = u64::MAX;
    for (i, image) in images.iter().enumerate() {
        let view = ThetaWireView::parse(image.as_ref())?;
        if i == 0 {
            seed = view.seed();
        } else if view.seed() != seed {
            return Err(WireError::incompatible(format!(
                "hash seed mismatch: {} vs {}",
                view.seed(),
                seed
            )));
        }
        joint = joint.min(view.theta());
        cursors.push(ThetaCursor {
            src: i as u32,
            pos: 0,
            end: view.len() as u64,
            theta: view.theta(),
            last: 0,
            head: 0,
        });
    }
    for cur in cursors.iter_mut() {
        theta_cursor_advance(cur, images, joint)?;
    }

    // Loser tree over the cursor heads: leaves at `nk + i`, padded with
    // sentinels up to the next power of two. Build the winner bracket
    // bottom-up, then convert internal nodes to hold the *loser* of
    // their match (top-down, so children still hold winners when read).
    let f = cursors.len();
    let nk = f.next_power_of_two();
    tree.clear();
    tree.resize(2 * nk, SENTINEL);
    for (i, slot) in tree[nk..nk + f].iter_mut().enumerate() {
        *slot = i as u32;
    }
    for node in (1..nk).rev() {
        let (a, b) = (tree[2 * node], tree[2 * node + 1]);
        tree[node] = if slot_key(a, cursors) <= slot_key(b, cursors) {
            a
        } else {
            b
        };
    }
    let mut winner = tree[1];
    for node in 1..nk {
        let (a, b) = (tree[2 * node], tree[2 * node + 1]);
        tree[node] = if tree[node] == a { b } else { a };
    }

    // Tournament: emit the minimum head, advance its cursor, replay the
    // leaf-to-root path. Duplicates across images collapse on emit
    // (heads are ≥ 1, so 0 is a safe "nothing emitted yet" marker).
    let mut last_emitted = 0u64;
    loop {
        if slot_key(winner, cursors) == u64::MAX {
            break; // the minimum is exhausted ⇒ every cursor is
        }
        let j = winner as usize;
        let h = cursors[j].head;
        if h != last_emitted {
            out.push(h);
            last_emitted = h;
        }
        theta_cursor_advance(&mut cursors[j], images, joint)?;
        let mut node = (nk + j) >> 1;
        let mut cand = winner;
        while node > 0 {
            let loser = tree[node];
            if slot_key(loser, cursors) < slot_key(cand, cursors) {
                tree[node] = cand;
                cand = loser;
            }
            node >>= 1;
        }
        winner = cand;
    }

    Ok(ThetaFanin {
        theta: joint,
        seed,
        hashes: out,
    })
}

/// Owned-result convenience over [`theta_multiway_union_into`] (one
/// fresh scratch arena per call — keep your own arena in a loop).
///
/// # Errors
///
/// See [`theta_multiway_union_into`].
pub fn theta_multiway_union<B: AsRef<[u8]>>(images: &[B]) -> Result<CompactThetaSketch, WireError> {
    let mut scratch = MergeScratch::new();
    theta_multiway_union_into(&mut scratch, images)?.to_compact()
}

/// Register-max HLL merge over raw wire images, folded directly from
/// payload bytes into the caller's scratch accumulator.
///
/// The rank bound is validated once on the folded accumulator: a max
/// fold preserves or raises any out-of-range register, so the kernel
/// rejects exactly the images per-image decoding rejected (the reported
/// register *value* may be the folded maximum rather than one image's).
///
/// # Errors
///
/// The decode-then-fold path's errors: structural decode failures,
/// [`WireError::Incompatible`] on an `lg_m` or seed mismatch, or
/// [`WireError::Invariant`] for an empty image list or an out-of-range
/// register.
pub fn hll_multiway_merge_into<'s, B: AsRef<[u8]>>(
    scratch: &'s mut MergeScratch,
    images: &[B],
) -> Result<HllFanin<'s>, WireError> {
    let (first, rest) = images
        .split_first()
        .ok_or_else(|| WireError::invariant("merge", "no images to merge"))?;
    let regs = &mut scratch.regs;
    let v0 = HllWireView::parse(first.as_ref())?;
    let (lg_m, seed) = (v0.lg_m(), v0.seed());
    regs.clear();
    regs.extend_from_slice(v0.registers());
    for image in rest {
        let view = HllWireView::parse(image.as_ref())?;
        if view.lg_m() != lg_m {
            return Err(WireError::incompatible(format!(
                "lg_m mismatch: {lg_m} vs {}",
                view.lg_m()
            )));
        }
        if view.seed() != seed {
            return Err(WireError::incompatible(format!(
                "hash seed mismatch: {seed} vs {}",
                view.seed()
            )));
        }
        for (a, &b) in regs.iter_mut().zip(view.registers()) {
            if b > *a {
                *a = b;
            }
        }
    }
    validate_registers(lg_m, regs)?;
    Ok(HllFanin {
        lg_m,
        seed,
        registers: regs,
    })
}

/// Owned-result convenience over [`hll_multiway_merge_into`] (one fresh
/// scratch arena per call — keep your own arena in a loop).
///
/// # Errors
///
/// See [`hll_multiway_merge_into`].
pub fn hll_multiway_merge<B: AsRef<[u8]>>(images: &[B]) -> Result<HllSketch, WireError> {
    let mut scratch = MergeScratch::new();
    hll_multiway_merge_into(&mut scratch, images)?.to_sketch()
}

/// Materialises runs during the ladder validation pass: each run gets
/// one exactly-sized `Vec`, each item is decoded exactly once.
struct CollectRuns<T> {
    runs: Vec<(Vec<T>, u64)>,
}

impl<T: Clone> LadderRunSink<T> for CollectRuns<T> {
    fn run(&mut self, weight: u64, len: usize) {
        self.runs.push((Vec::with_capacity(len), weight));
    }

    fn item(&mut self, item: &T) {
        self.runs
            .last_mut()
            .expect("parse announces a run before its items")
            .0
            .push(item.clone());
    }
}

/// Quantiles ladder fan-in: one streaming pass per image splices every
/// run straight into the result ladder — each item is decoded exactly
/// once (validation and materialisation fused), and no intermediate
/// per-image ladder exists. Byte-identical to the pairwise concat fold.
///
/// # Errors
///
/// The decode-then-fold path's errors: any ladder decode failure, the
/// combined-`n` overflow invariant, or an empty image list.
pub fn ladder_multiway_concat<T, B>(images: &[B]) -> Result<QuantilesLadder<T>, WireError>
where
    T: Ord + Clone + WireItem,
    B: AsRef<[u8]>,
{
    if images.is_empty() {
        return Err(WireError::invariant("merge", "no images to merge"));
    }
    let mut sink = CollectRuns { runs: Vec::new() };
    let mut n = 0u64;
    let mut min_item: Option<T> = None;
    let mut max_item: Option<T> = None;
    for image in images {
        let view = LadderWireView::<T>::parse_sink(image.as_ref(), &mut sink)?;
        n = n
            .checked_add(view.n())
            .ok_or_else(|| WireError::invariant("ladder merge", "combined n overflows u64"))?;
        if let Some(m) = view.min_item() {
            if min_item.as_ref().is_none_or(|cur| m < cur) {
                min_item = Some(m.clone());
            }
        }
        if let Some(m) = view.max_item() {
            if max_item.as_ref().is_none_or(|cur| m > cur) {
                max_item = Some(m.clone());
            }
        }
    }
    Ok(QuantilesLadder::from_wire_runs(
        sink.runs, n, min_item, max_item,
    ))
}

/// Misra–Gries fan-in: counters from every image accumulate into a
/// single key-sorted run, followed by one final reduction back to `k`
/// counters —
/// the mergeable-summaries construction, preserving the `n/(k+1)` error
/// bound for any fan-in. (When reductions fire, retained counter values
/// may differ from the pairwise fold's — both are valid summaries of the
/// union stream; in exact mode, distinct items ≤ k, the results are
/// identical.)
///
/// # Errors
///
/// Any Misra–Gries decode failure, [`WireError::Incompatible`] on a `k`
/// mismatch, the combined-`n` overflow invariant, or an empty image
/// list.
pub fn mg_multiway_merge<T, B>(images: &[B]) -> Result<MisraGriesSketch<T>, WireError>
where
    T: Ord + Clone + WireItem,
    B: AsRef<[u8]>,
{
    if images.is_empty() {
        return Err(WireError::invariant("merge", "no images to merge"));
    }
    let mut views = Vec::with_capacity(images.len());
    for image in images {
        views.push(MgWireView::<T>::parse(image.as_ref())?);
    }
    let k = views[0].k();
    let mut n = 0u64;
    let mut error = 0u64;
    for view in &views {
        if view.k() != k {
            return Err(WireError::incompatible(format!(
                "k mismatch: {k} vs {}",
                view.k()
            )));
        }
        n = n
            .checked_add(view.n())
            .ok_or_else(|| WireError::invariant("misra-gries merge", "combined n overflows u64"))?;
        // Per-image `Σ counters + error ≤ n` makes the error sum
        // unconditionally representable once Σn is.
        error += view.error();
    }
    MisraGriesSketch::from_parts(
        k as usize,
        n,
        error,
        views.iter().flat_map(|view| view.entries()),
    )
    .map_err(|e| WireError::invariant("misra-gries parts", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::QuickSelectThetaSketch;
    use crate::wire::{merge_wire_images, WireDecode, WireEncode};
    use bytes::Bytes;

    fn theta_images(nodes: u64, per_node: u64, lg_k: u8, seed: u64) -> Vec<Bytes> {
        (0..nodes)
            .map(|node| {
                let mut s = QuickSelectThetaSketch::new(lg_k, seed).unwrap();
                for i in 0..per_node {
                    s.update(node * per_node + i);
                }
                s.compact().to_wire_bytes()
            })
            .collect()
    }

    #[test]
    fn theta_multiway_equals_pairwise() {
        let images = theta_images(8, 5_000, 6, 7);
        let mut pairwise: CompactThetaSketch =
            CompactThetaSketch::from_wire_bytes(&images[0]).unwrap();
        for image in &images[1..] {
            let part = CompactThetaSketch::from_wire_bytes(image).unwrap();
            crate::wire::WireMerge::wire_merge_from(&mut pairwise, &part).unwrap();
        }
        let mut scratch = MergeScratch::new();
        let multiway = theta_multiway_union_into(&mut scratch, &images).unwrap();
        assert_eq!(multiway.theta(), pairwise.theta());
        assert_eq!(multiway.seed(), pairwise.seed());
        assert_eq!(multiway.sorted_hashes(), pairwise.sorted_hashes());
        assert_eq!(multiway.to_compact().unwrap(), pairwise);
    }

    #[test]
    fn theta_multiway_singleton_and_empty() {
        let images = theta_images(1, 2_000, 6, 7);
        let direct = CompactThetaSketch::from_wire_bytes(&images[0]).unwrap();
        assert_eq!(theta_multiway_union(&images).unwrap(), direct);
        let none: [Bytes; 0] = [];
        assert!(matches!(
            theta_multiway_union(&none),
            Err(WireError::Invariant { .. })
        ));
        let empty = CompactThetaSketch::empty(7).to_wire_bytes();
        let merged = theta_multiway_union(&[empty]).unwrap();
        assert_eq!(merged.retained(), 0);
    }

    #[test]
    fn theta_multiway_rejects_seed_mismatch() {
        let a = theta_images(1, 100, 5, 1).remove(0);
        let b = theta_images(1, 100, 5, 2).remove(0);
        assert!(matches!(
            theta_multiway_union(&[a, b]),
            Err(WireError::Incompatible { .. })
        ));
    }

    #[test]
    fn theta_multiway_rejects_corrupt_tail_past_cut() {
        // Image B has a smaller Θ than image A; corrupt a hash in A's
        // tail *above* the joint Θ. The streaming cut must still reject
        // it, exactly as decode-then-fold did.
        let a = {
            let mut s = QuickSelectThetaSketch::new(10, 7).unwrap();
            for i in 0..2_000u64 {
                s.update(i);
            }
            s.compact().to_wire_bytes()
        };
        let b = {
            let mut s = QuickSelectThetaSketch::new(4, 7).unwrap();
            for i in 0..100_000u64 {
                s.update(i);
            }
            s.compact().to_wire_bytes()
        };
        let joint = ThetaWireView::parse(&b).unwrap().theta();
        let va = ThetaWireView::parse(&a).unwrap();
        assert!(va.theta() > joint);
        // Find a hash of A above the joint Θ and zero it out.
        let idx = va
            .hashes()
            .position(|h| h >= joint)
            .expect("A must retain hashes above the joint theta");
        let mut corrupt = a.to_vec();
        let off = THETA_ITEMS_OFF + 8 * idx;
        corrupt[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(CompactThetaSketch::from_wire_bytes(&corrupt).is_err());
        let images = [Bytes::from(corrupt), b];
        assert!(matches!(
            theta_multiway_union(&images),
            Err(WireError::Invariant { .. })
        ));
    }

    #[test]
    fn hll_multiway_equals_pairwise() {
        let images: Vec<Bytes> = (0..6u64)
            .map(|node| {
                let mut h = HllSketch::new(8, 42).unwrap();
                for i in (node..60_000).step_by(6) {
                    h.update(i);
                }
                h.to_wire_bytes()
            })
            .collect();
        let pairwise: HllSketch = merge_wire_images(&images).unwrap();
        let mut scratch = MergeScratch::new();
        let multiway = hll_multiway_merge_into(&mut scratch, &images).unwrap();
        assert_eq!(multiway.registers(), pairwise.registers());
        assert_eq!(multiway.estimate(), pairwise.estimate());
        assert_eq!(multiway.to_sketch().unwrap(), pairwise);
    }

    #[test]
    fn hll_multiway_rejects_mismatches() {
        let a = HllSketch::new(8, 1).unwrap().to_wire_bytes();
        let b = HllSketch::new(9, 1).unwrap().to_wire_bytes();
        let c = HllSketch::new(8, 2).unwrap().to_wire_bytes();
        assert!(matches!(
            hll_multiway_merge(&[a.clone(), b]),
            Err(WireError::Incompatible { .. })
        ));
        assert!(matches!(
            hll_multiway_merge(&[a, c]),
            Err(WireError::Incompatible { .. })
        ));
    }

    #[test]
    fn ladder_multiway_is_byte_identical_to_pairwise() {
        use crate::quantiles::QuantilesSketch;
        let images: Vec<Bytes> = (0..4u64)
            .map(|node| {
                let mut q = QuantilesSketch::<u64>::with_seed(32, node).unwrap();
                for i in (node..40_000).step_by(4) {
                    q.update(i);
                }
                q.ladder().to_wire_bytes()
            })
            .collect();
        let pairwise: QuantilesLadder<u64> = merge_wire_images(&images).unwrap();
        let multiway: QuantilesLadder<u64> = ladder_multiway_concat(&images).unwrap();
        assert_eq!(multiway.to_wire_bytes(), pairwise.to_wire_bytes());
    }

    #[test]
    fn mg_multiway_matches_pairwise_in_exact_mode() {
        let images: Vec<Bytes> = (0..4u64)
            .map(|node| {
                let mut mg = MisraGriesSketch::<u64>::new(64).unwrap();
                for i in 0..5_000u64 {
                    mg.update((node * 7 + i) % 20); // 20 distinct « k
                }
                mg.to_wire_bytes()
            })
            .collect();
        let mut pairwise: MisraGriesSketch<u64> =
            MisraGriesSketch::from_wire_bytes(&images[0]).unwrap();
        for image in &images[1..] {
            let part = MisraGriesSketch::<u64>::from_wire_bytes(image).unwrap();
            crate::wire::WireMerge::wire_merge_from(&mut pairwise, &part).unwrap();
        }
        let multiway: MisraGriesSketch<u64> = mg_multiway_merge(&images).unwrap();
        assert_eq!(multiway.n(), pairwise.n());
        assert_eq!(multiway.max_error(), pairwise.max_error());
        assert_eq!(multiway.to_wire_bytes(), pairwise.to_wire_bytes());
    }

    #[test]
    fn mg_multiway_rejects_k_mismatch() {
        let mut a = MisraGriesSketch::<u64>::new(4).unwrap();
        let mut b = MisraGriesSketch::<u64>::new(8).unwrap();
        a.update(1);
        b.update(1);
        assert!(matches!(
            mg_multiway_merge::<u64, _>(&[a.to_wire_bytes(), b.to_wire_bytes()]),
            Err(WireError::Incompatible { .. })
        ));
    }
}
