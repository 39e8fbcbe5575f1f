//! Borrowed, zero-copy views over raw wire images.
//!
//! A view validates the 16-byte envelope (magic, version, family,
//! reserved flags, item width, exact-length rule) plus the family's
//! *structural* frame once, and then serves items straight out of the
//! input `&[u8]` — no payload materialisation, no allocation.
//!
//! # Validation contract
//!
//! This module is the wire format's only parser: what is a valid image
//! is decided here and nowhere else. The owned decoders behind
//! [`super::WireDecode`] are a view's parse (plus `validate` for Θ and
//! HLL) followed by materialisation, and the fan-in kernels in
//! [`super::fanin`] call the same item rules as they stream. *Where* the
//! item-level checks run differs by family, so the hot path never walks
//! the bytes twice:
//!
//! * [`ThetaWireView::parse`] and [`HllWireView::parse`] are
//!   *structural only*: the header and the fixed fields (seed/Θ/count
//!   consistency, `lg_m` range, register count). The per-item rules
//!   (hash range and ordering, register rank bound) run in
//!   [`ThetaWireView::validate`] / [`HllWireView::validate`], or fused
//!   into the kernels' consumption. Anything that *stores* an image for
//!   a later read must call `validate`.
//! * [`LadderWireView::parse`] and [`MgWireView::parse`] validate
//!   everything (one streaming pass, still allocation-free): their
//!   consumers materialise owned runs/counters anyway, so there is no
//!   second pass to fuse into, and the infallible iterators keep the
//!   kernels simple.
//!
//! Every failure is a typed [`WireError`]; views never panic on any
//! input.

use super::{SketchFamily, WireHeader, WireItem, WIRE_HEADER_LEN};
use crate::error::WireError;
use crate::hll::{MAX_LG_M, MIN_LG_M};
use bytes::Buf;

/// Reads the little-endian `u64` at item index `i` of `items` (the caller
/// guarantees `8 * (i + 1) <= items.len()`).
#[inline]
fn u64_at(items: &[u8], i: usize) -> u64 {
    let off = 8 * i;
    // The slice bound is established at parse time; the conversion can
    // never fail for an 8-byte slice.
    u64::from_le_bytes(items[off..off + 8].try_into().unwrap_or([0; 8]))
}

fn family_check(header: &WireHeader, expected: SketchFamily) -> Result<(), WireError> {
    if header.family != expected {
        return Err(WireError::FamilyMismatch {
            expected: expected.name(),
            found: header.family.name(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Θ
// ---------------------------------------------------------------------------

/// Byte offset of the first hash inside a Θ wire image
/// (envelope + `seed | theta | count`).
pub(crate) const THETA_ITEMS_OFF: usize = WIRE_HEADER_LEN + 24;

/// A borrowed view over a Θ wire image: header and fixed fields parsed,
/// hashes served straight from the payload bytes.
///
/// # Examples
///
/// ```
/// use fcds_sketches::theta::{QuickSelectThetaSketch, ThetaRead};
/// use fcds_sketches::wire::{ThetaWireView, WireEncode};
///
/// let mut s = QuickSelectThetaSketch::new(6, 7).unwrap();
/// for i in 0..1000u64 { s.update(i); }
/// let image = s.compact().to_wire_bytes();
/// let view = ThetaWireView::parse(&image).unwrap();
/// assert_eq!(view.len(), s.compact().retained());
/// assert!(view.hashes().all(|h| h < view.theta()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThetaWireView<'a> {
    seed: u64,
    theta: u64,
    /// Exactly `count × 8` bytes of little-endian hashes.
    items: &'a [u8],
}

impl<'a> ThetaWireView<'a> {
    /// Parses the envelope and the fixed Θ fields of a raw image.
    ///
    /// Item-level invariants (hash ordering and range) are *not* checked
    /// here — see the module docs; [`Self::validate`] adds them.
    ///
    /// # Errors
    ///
    /// Header damage, family or item-width mismatch, truncated fixed
    /// fields, or a hash count inconsistent with the payload length.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        let (header, payload) = WireHeader::parse(data)?;
        family_check(&header, SketchFamily::Theta)?;
        if header.item_width != 8 {
            return Err(WireError::ItemWidth {
                expected: 8,
                found: header.item_width,
            });
        }
        if payload.len() < 24 {
            return Err(WireError::Truncated {
                context: "theta payload",
                needed: 24,
                have: payload.len(),
            });
        }
        let mut fixed = payload;
        let seed = fixed.get_u64_le();
        let theta = fixed.get_u64_le();
        let count = fixed.get_u64_le();
        let need = count
            .checked_mul(8)
            .and_then(|b| b.checked_add(24))
            .ok_or_else(|| WireError::invariant("hash count", "count overflows size"))?;
        if need != header.payload_len {
            return Err(WireError::invariant(
                "hash count",
                format!(
                    "count {count} needs {need} payload bytes, header carries {}",
                    header.payload_len
                ),
            ));
        }
        Ok(ThetaWireView {
            seed,
            theta,
            items: &payload[24..],
        })
    }

    /// The hash seed recorded in the image.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The Θ threshold recorded in the image.
    pub fn theta(&self) -> u64 {
        self.theta
    }

    /// Number of retained hashes.
    pub fn len(&self) -> usize {
        self.items.len() / 8
    }

    /// Whether the image retains no hashes.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates the hashes in payload order, straight from the bytes.
    pub fn hashes(&self) -> impl Iterator<Item = u64> + 'a {
        let items = self.items;
        (0..items.len() / 8).map(move |i| u64_at(items, i))
    }

    /// Runs the item-level validation [`Self::parse`] leaves out — every
    /// hash nonzero, below Θ and strictly ascending — without
    /// materialising anything.
    ///
    /// # Errors
    ///
    /// [`WireError::Invariant`] at the first hash that breaks
    /// `check_theta_hash`.
    pub fn validate(&self) -> Result<(), WireError> {
        let mut prev = 0u64;
        for h in self.hashes() {
            check_theta_hash(h, self.theta, prev)?;
            prev = h;
        }
        Ok(())
    }
}

/// Θ's per-hash rule, the one copy of it: `h` is nonzero, below the
/// image's `theta`, and above `prev` — the previous hash, or 0 before
/// the first.
#[inline]
pub(crate) fn check_theta_hash(h: u64, theta: u64, prev: u64) -> Result<(), WireError> {
    if h == 0 {
        return Err(WireError::invariant("theta hashes", "hash 0 is reserved"));
    }
    if h >= theta {
        return Err(WireError::invariant(
            "theta hashes",
            format!("hash {h} not below theta {theta}"),
        ));
    }
    if h <= prev {
        return Err(WireError::invariant(
            "theta hashes",
            "hashes not strictly ascending",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// HLL
// ---------------------------------------------------------------------------

/// A borrowed view over an HLL wire image: the register array is served
/// as a direct sub-slice of the input.
///
/// # Examples
///
/// ```
/// use fcds_sketches::hll::HllSketch;
/// use fcds_sketches::wire::{HllWireView, WireEncode};
///
/// let mut h = HllSketch::new(8, 42).unwrap();
/// for i in 0..5000u64 { h.update(i); }
/// let image = h.to_wire_bytes();
/// let view = HllWireView::parse(&image).unwrap();
/// assert_eq!(view.registers(), h.registers());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HllWireView<'a> {
    lg_m: u8,
    seed: u64,
    /// Exactly `2^lg_m` raw register bytes.
    registers: &'a [u8],
}

impl<'a> HllWireView<'a> {
    /// Parses the envelope and the fixed HLL fields of a raw image.
    ///
    /// Register *values* are not range-checked here (see the module
    /// docs); [`Self::validate`] applies the per-register bound, and the
    /// fan-in kernel applies it to its accumulator, which a register-max
    /// fold can only have preserved or raised.
    ///
    /// # Errors
    ///
    /// Header damage, family or item-width mismatch, `lg_m` out of
    /// range, or a payload length that does not carry exactly `2^lg_m`
    /// registers.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        let (header, payload) = WireHeader::parse(data)?;
        family_check(&header, SketchFamily::Hll)?;
        if header.item_width != 1 {
            return Err(WireError::ItemWidth {
                expected: 1,
                found: header.item_width,
            });
        }
        if payload.len() < 16 {
            return Err(WireError::Truncated {
                context: "hll payload",
                needed: 16,
                have: payload.len(),
            });
        }
        let mut fixed = payload;
        let lg_m = fixed.get_u8();
        if !(MIN_LG_M..=MAX_LG_M).contains(&lg_m) {
            return Err(WireError::invariant(
                "hll lg_m",
                format!("lg_m {lg_m} out of range {MIN_LG_M}..={MAX_LG_M}"),
            ));
        }
        fixed.advance(7);
        let seed = fixed.get_u64_le();
        let m = 1u64 << lg_m;
        if header.payload_len != 16 + m {
            return Err(WireError::invariant(
                "hll registers",
                format!(
                    "2^lg_m = {m} registers need {} payload bytes, header carries {}",
                    16 + m,
                    header.payload_len
                ),
            ));
        }
        Ok(HllWireView {
            lg_m,
            seed,
            registers: &payload[16..],
        })
    }

    /// The configured `lg_m`.
    pub fn lg_m(&self) -> u8 {
        self.lg_m
    }

    /// The number of registers `m = 2^lg_m`.
    pub fn m(&self) -> usize {
        self.registers.len()
    }

    /// The hash seed recorded in the image.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw register bytes, borrowed from the image.
    pub fn registers(&self) -> &'a [u8] {
        self.registers
    }

    /// Applies the per-register rank bound [`Self::parse`] leaves out
    /// (`register ≤ 64 − lg_m + 1`).
    ///
    /// # Errors
    ///
    /// [`WireError::Invariant`] naming the first register above it.
    pub fn validate(&self) -> Result<(), WireError> {
        validate_registers(self.lg_m, self.registers)
    }
}

/// Checks every register against the maximum representable rank for
/// `lg_m` — shared by [`HllWireView::validate`] and the fan-in kernel's
/// fused accumulator check.
pub(crate) fn validate_registers(lg_m: u8, registers: &[u8]) -> Result<(), WireError> {
    let max_rho = 64 - lg_m + 1;
    for &r in registers {
        if r > max_rho {
            return Err(WireError::invariant(
                "hll registers",
                format!("register value {r} exceeds max rank {max_rho}"),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Quantiles ladder
// ---------------------------------------------------------------------------

/// A borrowed view over a Quantiles *ladder* wire image: fully validated
/// at parse time, runs iterated straight out of the payload bytes.
///
/// # Examples
///
/// ```
/// use fcds_sketches::quantiles::QuantilesSketch;
/// use fcds_sketches::wire::{LadderWireView, WireEncode};
///
/// let mut q = QuantilesSketch::<u64>::with_seed(32, 5).unwrap();
/// for i in 0..10_000u64 { q.update(i); }
/// let image = q.ladder().to_wire_bytes();
/// let view = LadderWireView::<u64>::parse(&image).unwrap();
/// assert_eq!(view.n(), 10_000);
/// let total: u64 = view.runs().map(|r| r.len() as u64 * r.weight()).sum();
/// assert_eq!(total, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct LadderWireView<'a, T> {
    n: u64,
    run_count: u32,
    min_item: Option<T>,
    max_item: Option<T>,
    /// The validated run region: `run_count × (weight | len | items…)`.
    runs_bytes: &'a [u8],
}

impl<'a, T: Ord + Clone + WireItem> LadderWireView<'a, T> {
    /// Parses *and fully validates* a ladder image in one streaming,
    /// allocation-free pass: per-run sortedness, the `[min, max]` range
    /// envelope, and the weight accounting `Σ len·weight = n`.
    ///
    /// # Errors
    ///
    /// Header damage, family or item-width mismatch, truncation, or the
    /// first run or weight invariant broken.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        Self::parse_sink(data, &mut NoopLadderSink)
    }

    /// [`Self::parse`] with a streaming observer: `sink` sees every run
    /// header and every validated item *during* the validation pass, so
    /// a consumer that materialises the runs (the fan-in kernel) never
    /// decodes an item twice. On an error the sink may have observed a
    /// prefix of the image; callers discard it.
    pub(crate) fn parse_sink(
        data: &'a [u8],
        sink: &mut impl LadderRunSink<T>,
    ) -> Result<Self, WireError> {
        let (header, payload) = WireHeader::parse(data)?;
        family_check(&header, SketchFamily::Quantiles)?;
        if header.item_width as usize != T::WIDTH {
            return Err(WireError::ItemWidth {
                expected: T::WIDTH as u8,
                found: header.item_width,
            });
        }
        if payload.len() < 16 {
            return Err(WireError::Truncated {
                context: "ladder payload",
                needed: 16,
                have: payload.len(),
            });
        }
        let mut rest = payload;
        let n = rest.get_u64_le();
        let run_count = rest.get_u32_le();
        let _pad = rest.get_u32_le();
        let (min_item, max_item) = if n > 0 {
            if rest.remaining() < 2 * T::WIDTH {
                return Err(WireError::Truncated {
                    context: "ladder min/max",
                    needed: 2 * T::WIDTH,
                    have: rest.remaining(),
                });
            }
            let min = T::read_from(&mut rest);
            let max = T::read_from(&mut rest);
            if min > max {
                return Err(WireError::invariant("ladder min/max", "min above max"));
            }
            (Some(min), Some(max))
        } else {
            (None, None)
        };
        let runs_bytes = rest;
        let mut weighted_total = 0u64;
        for _ in 0..run_count {
            if rest.remaining() < 16 {
                return Err(WireError::Truncated {
                    context: "ladder run header",
                    needed: 16,
                    have: rest.remaining(),
                });
            }
            let weight = rest.get_u64_le();
            let len = rest.get_u64_le();
            if weight == 0 || len == 0 {
                return Err(WireError::invariant(
                    "ladder run",
                    "runs must be non-empty with weight >= 1",
                ));
            }
            let bytes_needed = len
                .checked_mul(T::WIDTH as u64)
                .ok_or_else(|| WireError::invariant("ladder run", "run length overflows size"))?;
            if (rest.remaining() as u64) < bytes_needed {
                return Err(WireError::Truncated {
                    context: "ladder run items",
                    needed: bytes_needed as usize,
                    have: rest.remaining(),
                });
            }
            sink.run(weight, len as usize);
            // One streaming pass over the run: sortedness via the
            // previous item, range envelope via first/last.
            let mut prev: Option<T> = None;
            for i in 0..len {
                let item = T::read_from(&mut rest);
                if prev.as_ref().is_some_and(|p| *p > item) {
                    return Err(WireError::invariant("ladder run", "run not sorted"));
                }
                match (&min_item, &max_item) {
                    (Some(min), Some(max)) => {
                        if (i == 0 && item < *min) || (i == len - 1 && item > *max) {
                            return Err(WireError::invariant(
                                "ladder run",
                                "retained item outside [min, max]",
                            ));
                        }
                    }
                    _ => {
                        return Err(WireError::invariant(
                            "ladder run",
                            "non-empty run in an empty (n = 0) ladder",
                        ));
                    }
                }
                sink.item(&item);
                prev = Some(item);
            }
            weighted_total = weighted_total
                .checked_add(
                    len.checked_mul(weight)
                        .ok_or_else(|| WireError::invariant("ladder run", "weight overflow"))?,
                )
                .ok_or_else(|| WireError::invariant("ladder run", "weight overflow"))?;
        }
        if rest.has_remaining() {
            return Err(WireError::invariant(
                "ladder payload",
                format!("{} trailing bytes after last run", rest.remaining()),
            ));
        }
        if weighted_total != n {
            return Err(WireError::invariant(
                "ladder weight",
                format!("runs carry weight {weighted_total}, header says n = {n}"),
            ));
        }
        Ok(LadderWireView {
            n,
            run_count,
            min_item,
            max_item,
            runs_bytes,
        })
    }

    /// Total stream length the image summarises.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of sorted runs in the image.
    pub fn run_count(&self) -> usize {
        self.run_count as usize
    }

    /// The exact minimum item of the summarised stream, if any.
    pub fn min_item(&self) -> Option<&T> {
        self.min_item.as_ref()
    }

    /// The exact maximum item of the summarised stream, if any.
    pub fn max_item(&self) -> Option<&T> {
        self.max_item.as_ref()
    }

    /// Iterates the borrowed runs in stored order. Infallible: the
    /// region was validated by [`Self::parse`].
    pub fn runs(&self) -> LadderWireRuns<'a, T> {
        LadderWireRuns {
            rest: self.runs_bytes,
            remaining: self.run_count,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Streaming observer for [`LadderWireView::parse_sink`]: sees each run
/// header and each item as the validation pass decodes it.
pub(crate) trait LadderRunSink<T> {
    /// A new run begins; `len` items of weight `weight` follow. The
    /// length has already been bounds-checked against the payload, so
    /// sizing a buffer from it cannot over-allocate.
    fn run(&mut self, weight: u64, len: usize);
    /// The next validated item of the current run, in stored order.
    fn item(&mut self, item: &T);
}

/// The observer behind the plain [`LadderWireView::parse`]: does
/// nothing, and inlines away entirely.
pub(crate) struct NoopLadderSink;

impl<T> LadderRunSink<T> for NoopLadderSink {
    fn run(&mut self, _weight: u64, _len: usize) {}
    fn item(&mut self, _item: &T) {}
}

/// Iterator over the borrowed runs of a [`LadderWireView`].
#[derive(Debug, Clone)]
pub struct LadderWireRuns<'a, T> {
    rest: &'a [u8],
    remaining: u32,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T: WireItem> Iterator for LadderWireRuns<'a, T> {
    type Item = LadderWireRun<'a, T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let weight = self.rest.get_u64_le();
        let len = self.rest.get_u64_le() as usize;
        let (items_bytes, rest) = self.rest.split_at(len * T::WIDTH);
        self.rest = rest;
        Some(LadderWireRun {
            weight,
            items_bytes,
            _marker: std::marker::PhantomData,
        })
    }
}

/// One borrowed sorted run of a ladder image: a weight and the raw item
/// bytes, decoded on the fly by [`Self::items`].
#[derive(Debug, Clone, Copy)]
pub struct LadderWireRun<'a, T> {
    weight: u64,
    items_bytes: &'a [u8],
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T: WireItem> LadderWireRun<'a, T> {
    /// The run's per-item weight.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Number of items in the run.
    pub fn len(&self) -> usize {
        self.items_bytes.len() / T::WIDTH
    }

    /// Whether the run is empty (never true for a validated image).
    pub fn is_empty(&self) -> bool {
        self.items_bytes.is_empty()
    }

    /// Decodes the run's items in stored (sorted) order.
    pub fn items(&self) -> impl Iterator<Item = T> + 'a {
        let mut rest = self.items_bytes;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                None
            } else {
                Some(T::read_from(&mut rest))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Misra–Gries
// ---------------------------------------------------------------------------

/// A borrowed view over a Misra–Gries wire image: fully validated at
/// parse time, `(item, counter)` entries decoded on the fly.
///
/// # Examples
///
/// ```
/// use fcds_sketches::frequency::MisraGriesSketch;
/// use fcds_sketches::wire::{MgWireView, WireEncode};
///
/// let mut mg = MisraGriesSketch::<u64>::new(8).unwrap();
/// for i in 0..100u64 { mg.update(i % 5); }
/// let image = mg.to_wire_bytes();
/// let view = MgWireView::<u64>::parse(&image).unwrap();
/// assert_eq!(view.n(), 100);
/// assert_eq!(view.entries().count(), 5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MgWireView<'a, T> {
    k: u64,
    n: u64,
    error: u64,
    count: u64,
    entries_bytes: &'a [u8],
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T: Ord + Clone + WireItem> MgWireView<'a, T> {
    /// Parses *and fully validates* a Misra–Gries image in one
    /// streaming, allocation-free pass: strictly ascending items,
    /// nonzero counters, and `Σ counters + error ≤ n`.
    ///
    /// # Errors
    ///
    /// Header damage, family or item-width mismatch, truncation, a count
    /// inconsistent with `k` or the payload length, or the first
    /// counter invariant broken.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        let (header, payload) = WireHeader::parse(data)?;
        family_check(&header, SketchFamily::Frequency)?;
        if header.item_width as usize != T::WIDTH {
            return Err(WireError::ItemWidth {
                expected: T::WIDTH as u8,
                found: header.item_width,
            });
        }
        if payload.len() < 32 {
            return Err(WireError::Truncated {
                context: "misra-gries payload",
                needed: 32,
                have: payload.len(),
            });
        }
        let mut rest = payload;
        let k = rest.get_u64_le();
        let n = rest.get_u64_le();
        let error = rest.get_u64_le();
        let count = rest.get_u64_le();
        if k == 0 {
            return Err(WireError::invariant("misra-gries k", "k must be >= 1"));
        }
        if count > k {
            return Err(WireError::invariant(
                "misra-gries counters",
                format!("{count} counters exceed k = {k}"),
            ));
        }
        let entry_width = (T::WIDTH as u64) + 8;
        let need = count
            .checked_mul(entry_width)
            .and_then(|b| b.checked_add(32))
            .ok_or_else(|| WireError::invariant("misra-gries counters", "count overflows size"))?;
        if need != header.payload_len {
            return Err(WireError::invariant(
                "misra-gries counters",
                format!(
                    "count {count} needs {need} payload bytes, header carries {}",
                    header.payload_len
                ),
            ));
        }
        let entries_bytes = rest;
        let mut prev: Option<T> = None;
        let mut counter_sum = 0u64;
        for _ in 0..count {
            let item = T::read_from(&mut rest);
            let counter = rest.get_u64_le();
            if counter == 0 {
                return Err(WireError::invariant(
                    "misra-gries counters",
                    "zero counter retained",
                ));
            }
            if prev.as_ref().is_some_and(|p| item <= *p) {
                return Err(WireError::invariant(
                    "misra-gries counters",
                    "items not strictly ascending",
                ));
            }
            counter_sum = counter_sum.checked_add(counter).ok_or_else(|| {
                WireError::invariant("misra-gries counters", "counter sum overflow")
            })?;
            prev = Some(item);
        }
        if counter_sum.checked_add(error).is_none_or(|total| total > n) {
            return Err(WireError::invariant(
                "misra-gries weight",
                format!("counters ({counter_sum}) + error ({error}) exceed n = {n}"),
            ));
        }
        Ok(MgWireView {
            k,
            n,
            error,
            count,
            entries_bytes,
            _marker: std::marker::PhantomData,
        })
    }

    /// Maximum number of counters.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Stream length the image summarises.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The image's uniform error slack.
    pub fn error(&self) -> u64 {
        self.error
    }

    /// Number of retained counters.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Decodes the `(item, counter)` entries in stored (item-ascending)
    /// order. Infallible: the region was validated by [`Self::parse`].
    pub fn entries(&self) -> impl Iterator<Item = (T, u64)> + 'a {
        let mut rest = self.entries_bytes;
        let mut remaining = self.count;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            let item = T::read_from(&mut rest);
            let counter = rest.get_u64_le();
            Some((item, counter))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::MisraGriesSketch;
    use crate::hll::HllSketch;
    use crate::quantiles::{QuantilesLadder, QuantilesSketch};
    use crate::theta::{CompactThetaSketch, QuickSelectThetaSketch, ThetaRead};
    use crate::wire::{WireDecode, WireEncode};

    fn theta_image(n: u64) -> bytes::Bytes {
        let mut s = QuickSelectThetaSketch::new(6, 7).unwrap();
        for i in 0..n {
            s.update(i);
        }
        s.compact().to_wire_bytes()
    }

    #[test]
    fn theta_view_matches_decoder() {
        let image = theta_image(20_000);
        let view = ThetaWireView::parse(&image).unwrap();
        let decoded = CompactThetaSketch::from_wire_bytes(&image).unwrap();
        assert_eq!(view.seed(), decoded.seed());
        assert_eq!(view.theta(), decoded.theta());
        assert_eq!(view.len(), decoded.retained());
        assert!(view.validate().is_ok());
        let from_view: Vec<u64> = view.hashes().collect();
        assert_eq!(from_view, decoded.sorted_hashes());
    }

    #[test]
    fn theta_view_rejects_structural_damage() {
        let image = theta_image(100);
        assert!(matches!(
            ThetaWireView::parse(&image[..image.len() - 1]),
            Err(WireError::PayloadLength { .. })
        ));
        let mut bad = image.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ThetaWireView::parse(&bad),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad = image.to_vec();
        bad[7] = 4; // forge item_width
        assert!(matches!(
            ThetaWireView::parse(&bad),
            Err(WireError::ItemWidth { .. })
        ));
    }

    #[test]
    fn theta_view_validate_catches_item_violations() {
        let image = theta_image(1_000);
        // Swap two hashes: structural parse still passes, validate fails.
        let mut bad = image.to_vec();
        let len = bad.len();
        for i in 0..8 {
            bad.swap(len - 16 + i, len - 8 + i);
        }
        let view = ThetaWireView::parse(&bad).unwrap();
        assert!(matches!(view.validate(), Err(WireError::Invariant { .. })));
        assert!(CompactThetaSketch::from_wire_bytes(&bad).is_err());
    }

    #[test]
    fn hll_view_matches_decoder() {
        let mut h = HllSketch::new(9, 11).unwrap();
        for i in 0..30_000u64 {
            h.update(i);
        }
        let image = h.to_wire_bytes();
        let view = HllWireView::parse(&image).unwrap();
        assert_eq!(view.lg_m(), 9);
        assert_eq!(view.m(), 512);
        assert_eq!(view.seed(), 11);
        assert_eq!(view.registers(), h.registers());
        assert!(view.validate().is_ok());
    }

    #[test]
    fn hll_view_validate_catches_bad_register() {
        let h = HllSketch::new(4, 0).unwrap();
        let mut bad = h.to_wire_bytes().to_vec();
        let len = bad.len();
        bad[len - 1] = 62; // max rank at lg_m = 4 is 61
        let view = HllWireView::parse(&bad).unwrap();
        assert!(view.validate().is_err());
        assert!(HllSketch::from_wire_bytes(&bad).is_err());
    }

    #[test]
    fn ladder_view_matches_decoder() {
        let mut q = QuantilesSketch::<u64>::with_seed(32, 5).unwrap();
        for i in 0..60_000u64 {
            q.update(i);
        }
        let image = q.ladder().to_wire_bytes();
        let view = LadderWireView::<u64>::parse(&image).unwrap();
        let decoded = QuantilesLadder::<u64>::from_wire_bytes(&image).unwrap();
        assert_eq!(view.n(), decoded.n());
        assert_eq!(view.run_count(), decoded.run_count());
        assert_eq!(view.min_item(), decoded.min_item());
        assert_eq!(view.max_item(), decoded.max_item());
        let view_runs: Vec<(Vec<u64>, u64)> = view
            .runs()
            .map(|r| (r.items().collect(), r.weight()))
            .collect();
        let decoded_runs: Vec<(Vec<u64>, u64)> = decoded
            .runs()
            .map(|(items, w)| (items.to_vec(), w))
            .collect();
        assert_eq!(view_runs, decoded_runs);
    }

    #[test]
    fn ladder_view_rejects_what_the_decoder_rejects() {
        let mut q = QuantilesSketch::<u64>::with_seed(16, 1).unwrap();
        for i in 0..5_000u64 {
            q.update(i);
        }
        let image = q.ladder().to_wire_bytes();
        // Corrupt n (offset 16): weight accounting must fail.
        let mut bad = image.to_vec();
        bad[16] ^= 0x01;
        assert!(LadderWireView::<u64>::parse(&bad).is_err());
        assert!(QuantilesLadder::<u64>::from_wire_bytes(&bad).is_err());
    }

    #[test]
    fn ladder_unsorted_run_rejected() {
        let mut q = QuantilesSketch::<u64>::with_seed(16, 1).unwrap();
        for i in 0..5_000u64 {
            q.update(i);
        }
        let image = q.ladder().to_wire_bytes();
        // Swap the first two items of the first run (after the 16-byte
        // envelope, n | run_count | pad, min | max, weight | len).
        let mut bad = image.to_vec();
        for i in 0..8 {
            bad.swap(64 + i, 72 + i);
        }
        assert!(matches!(
            LadderWireView::<u64>::parse(&bad),
            Err(WireError::Invariant { .. })
        ));
        assert!(QuantilesLadder::<u64>::from_wire_bytes(&bad).is_err());
    }

    #[test]
    fn empty_ladder_view() {
        let image = QuantilesLadder::<u64>::empty().to_wire_bytes();
        let view = LadderWireView::<u64>::parse(&image).unwrap();
        assert_eq!(view.n(), 0);
        assert_eq!(view.run_count(), 0);
        assert_eq!(view.min_item(), None);
        assert_eq!(view.runs().count(), 0);
    }

    #[test]
    fn mg_view_matches_decoder() {
        let mut mg = MisraGriesSketch::<u64>::new(16).unwrap();
        for i in 0..10_000u64 {
            mg.update(if i % 3 == 0 { 7 } else { i % 200 });
        }
        let image = mg.to_wire_bytes();
        let view = MgWireView::<u64>::parse(&image).unwrap();
        assert_eq!(view.n(), mg.n());
        assert_eq!(view.error(), mg.max_error());
        assert_eq!(view.k(), 16);
        let entries: Vec<(u64, u64)> = view.entries().collect();
        assert_eq!(entries.len(), mg.retained());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        for (item, counter) in entries {
            assert_eq!(mg.estimate(&item).lower_bound, counter);
        }
    }

    #[test]
    fn mg_view_rejects_what_the_decoder_rejects() {
        let mut mg = MisraGriesSketch::<u64>::new(4).unwrap();
        mg.update(9);
        let image = mg.to_wire_bytes();
        // Forge count past k.
        let mut bad = image.to_vec();
        bad[40] = 200;
        assert!(MgWireView::<u64>::parse(&bad).is_err());
        assert!(MisraGriesSketch::<u64>::from_wire_bytes(&bad).is_err());
    }

    #[test]
    fn views_reject_cross_family_images() {
        let theta = theta_image(100);
        assert!(matches!(
            HllWireView::parse(&theta),
            Err(WireError::FamilyMismatch { .. })
        ));
        assert!(matches!(
            LadderWireView::<u64>::parse(&theta),
            Err(WireError::FamilyMismatch { .. })
        ));
        assert!(matches!(
            MgWireView::<u64>::parse(&theta),
            Err(WireError::FamilyMismatch { .. })
        ));
        let hll = HllSketch::new(4, 0).unwrap().to_wire_bytes();
        assert!(matches!(
            ThetaWireView::parse(&hll),
            Err(WireError::FamilyMismatch { .. })
        ));
    }
}
