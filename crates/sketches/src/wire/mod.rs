//! The unified, versioned wire format: serialise any sketch on one node,
//! merge it on another.
//!
//! The paper's serving story at scale is "sketch anywhere, merge
//! anywhere": every node runs the concurrent engine over its local
//! stream, periodically emits a compact image, and a central node fans
//! the images in — losslessly for Θ (untrimmed union), exactly for HLL
//! (register max) and Misra–Gries (counter addition), and within the
//! deterministic ε envelope for Quantiles (k-way run merge). This module
//! is that interchange layer: one self-describing binary envelope
//! covering all four sketch families, with a common header and per-family
//! payloads.
//!
//! # Envelope
//!
//! Every image starts with a fixed 16-byte little-endian header:
//!
//! | offset | size | field         | contents                               |
//! |--------|------|---------------|----------------------------------------|
//! | 0      | 4    | `magic`       | `"FCDS"` (`0x46 0x43 0x44 0x53`)       |
//! | 4      | 1    | `version`     | format version, currently `1`          |
//! | 5      | 1    | `family`      | [`SketchFamily`] code                  |
//! | 6      | 1    | `flags`       | reserved, `0` in v1                    |
//! | 7      | 1    | `item_width`  | item encoding width in bytes, 0 if N/A |
//! | 8      | 8    | `payload_len` | exact payload byte count               |
//!
//! The header is followed by exactly `payload_len` payload bytes; inputs
//! with missing *or trailing* bytes are rejected, so an image's length is
//! always `16 + payload_len`. The flags byte is reserved: v1 defines no
//! flag, so a nonzero byte is [`WireError::Invariant`] at the header and
//! every family has exactly one payload layout. Per-family payload
//! layouts are documented on the [`WireEncode`] impls below and
//! tabulated in the repository README.
//!
//! # Traits
//!
//! * [`WireEncode`] / [`WireDecode`] — the codec pair. Encoding is
//!   infallible and deterministic (canonical images re-encode
//!   byte-identically, which the committed golden-vector corpus
//!   enforces); decoding is the family's [`view`] parse and validation
//!   followed by materialisation, so it returns a typed [`WireError`],
//!   never panicking on any input and never allocating proportionally
//!   to an unvalidated length field.
//! * [`WireMerge`] — the merge-anywhere tier: decoded images of the same
//!   family combine without access to the sketch that built them.
//!   [`merge_wire_images`] fans a whole list of raw images into one
//!   sketch.
//!
//! # Zero-copy views and multiway fan-in
//!
//! The [`view`] module parses images into borrowed views
//! ([`ThetaWireView`], [`HllWireView`], [`LadderWireView`],
//! [`MgWireView`]) that validate the envelope once and iterate items
//! straight out of `&[u8]` — the one definition of a valid image, which
//! the decoders, the kernels and any server-side gate share; the
//! [`fanin`] module builds single-pass
//! multiway merge kernels on top ([`theta_multiway_union_into`],
//! [`hll_multiway_merge_into`], [`ladder_multiway_concat`],
//! [`mg_multiway_merge`]) threaded through a reusable [`MergeScratch`]
//! arena, so a warm coordinator loop merges with zero steady-state
//! allocations. [`merge_wire_images`] routes through these kernels via
//! [`WireMerge::wire_fan_in`]; [`peek`] classifies an image from its
//! first 16 bytes for server-side routing.
//!
//! # Versioning and compatibility policy
//!
//! The version byte is bumped only for layout changes that old decoders
//! would misread; decoders reject versions they do not know
//! ([`WireError::UnsupportedVersion`]) rather than guessing. New sketch
//! families extend the family byte without a version bump (old decoders
//! report [`WireError::UnknownFamily`]). v1 decoders refuse every flag
//! bit, so a layout that needs a flag is a new layout and ships as
//! version 2. The golden vectors under `tests/vectors/` pin version 1:
//! any edit that changes a committed byte is a format break and must
//! ship as version 2.

pub mod fanin;
pub mod view;

pub use fanin::{
    hll_multiway_merge, hll_multiway_merge_into, ladder_multiway_concat, mg_multiway_merge,
    theta_multiway_union, theta_multiway_union_into, HllFanin, MergeScratch, ThetaFanin,
};
pub use view::{
    HllWireView, LadderWireRun, LadderWireRuns, LadderWireView, MgWireView, ThetaWireView,
};

use crate::error::WireError;
use crate::frequency::MisraGriesSketch;
use crate::hll::HllSketch;
use crate::quantiles::{QuantilesLadder, TotalF64};
use crate::theta::setops::untrimmed_union;
use crate::theta::{CompactThetaSketch, ThetaRead};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The four magic bytes `"FCDS"`, read as a little-endian `u32`.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"FCDS");

/// Current (and only) wire-format version.
pub const WIRE_VERSION: u8 = 1;

/// Size of the fixed envelope header in bytes.
pub const WIRE_HEADER_LEN: usize = 16;

/// Sketch family codes carried in the header's `family` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SketchFamily {
    /// Θ distinct-counting sketches (compact images).
    Theta = 1,
    /// HyperLogLog.
    Hll = 2,
    /// Quantiles (ladder images).
    Quantiles = 3,
    /// Misra–Gries frequent items.
    Frequency = 4,
}

impl SketchFamily {
    /// The header byte for this family.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a header byte; `None` if unassigned.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(SketchFamily::Theta),
            2 => Some(SketchFamily::Hll),
            3 => Some(SketchFamily::Quantiles),
            4 => Some(SketchFamily::Frequency),
            _ => None,
        }
    }

    /// Human-readable family name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            SketchFamily::Theta => "theta",
            SketchFamily::Hll => "hll",
            SketchFamily::Quantiles => "quantiles",
            SketchFamily::Frequency => "frequency",
        }
    }
}

/// The parsed fixed header of a wire image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Format version (see [`WIRE_VERSION`]).
    pub version: u8,
    /// Sketch family of the payload.
    pub family: SketchFamily,
    /// Item encoding width in bytes (0 where the family has none).
    pub item_width: u8,
    /// Exact payload length in bytes.
    pub payload_len: u64,
}

impl WireHeader {
    /// Parses and validates the header, returning it together with the
    /// payload slice. Requires the input length to be *exactly*
    /// `16 + payload_len` — trailing bytes are rejected, so the declared
    /// length can never drive an over-allocation.
    pub fn parse(data: &[u8]) -> Result<(WireHeader, &[u8]), WireError> {
        let header = Self::parse_prefix(data)?;
        let have = (data.len() - WIRE_HEADER_LEN) as u64;
        if header.payload_len != have {
            return Err(WireError::PayloadLength {
                declared: header.payload_len,
                have,
            });
        }
        Ok((header, &data[WIRE_HEADER_LEN..]))
    }

    /// Validates and decodes the 16 header bytes alone — no exact-length
    /// check, so `data` may be a bare prefix of an image. The one check
    /// of the reserved flags byte: `peek`, every view, every decoder and
    /// every fan-in kernel come through here.
    fn parse_prefix(data: &[u8]) -> Result<WireHeader, WireError> {
        if data.len() < WIRE_HEADER_LEN {
            return Err(WireError::Truncated {
                context: "header",
                needed: WIRE_HEADER_LEN,
                have: data.len(),
            });
        }
        let mut cursor = data;
        let magic = cursor.get_u32_le();
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = cursor.get_u8();
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let family_code = cursor.get_u8();
        let family = SketchFamily::from_code(family_code)
            .ok_or(WireError::UnknownFamily { found: family_code })?;
        let flags = cursor.get_u8();
        if flags != 0 {
            return Err(WireError::invariant(
                "header flags",
                format!("flags byte {flags:#04x} is reserved and must be 0 in v1"),
            ));
        }
        let item_width = cursor.get_u8();
        let payload_len = cursor.get_u64_le();
        Ok(WireHeader {
            version,
            family,
            item_width,
            payload_len,
        })
    }

    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(WIRE_MAGIC);
        buf.put_u8(self.version);
        buf.put_u8(self.family.code());
        buf.put_u8(0); // flags: reserved in v1
        buf.put_u8(self.item_width);
        buf.put_u64_le(self.payload_len);
    }
}

/// The routing-relevant header fields surfaced by [`peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeekedHeader {
    /// Sketch family of the payload.
    pub family: SketchFamily,
    /// Item encoding width in bytes (0 where the family has none).
    pub item_width: u8,
    /// Payload length the header *declares*. Unverified: `peek` never
    /// touches the payload, so the exact-length rule has not run yet.
    pub payload_len: u64,
}

/// Reads only the 16-byte header of a raw image — family, item width
/// and declared payload length — without touching (or requiring)
/// the payload. This is the server-side routing primitive: a frame
/// dispatcher can classify an image from its first 16 bytes while the
/// rest is still in flight.
///
/// Contrast [`WireHeader::parse`]: `peek` accepts any input carrying at
/// least the header, so the declared `payload_len` is *reported, not
/// verified* against the bytes present — full validation still happens
/// at decode time. What `peek` *does* verify is the caller's trust
/// budget: a frame reader sizing a receive buffer from the declared
/// length must never let an attacker-controlled header drive the
/// allocation, so declared lengths above `max_payload_len` are rejected
/// before any payload byte is read. Callers with no framing concern can
/// pass [`u64::MAX`].
///
/// # Errors
///
/// [`WireError::Truncated`] below 16 bytes, and the header taxonomy
/// ([`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] /
/// [`WireError::UnknownFamily`] / [`WireError::Invariant`] for a nonzero
/// flags byte) for damaged headers — identical to the full parser, byte
/// for byte. [`WireError::PayloadLength`] when the
/// declared length exceeds `max_payload_len` (the error's `have` field
/// carries the cap: the most payload the caller was willing to accept).
///
/// # Examples
///
/// ```
/// use fcds_sketches::hll::HllSketch;
/// use fcds_sketches::wire::{peek, SketchFamily, WireEncode, WIRE_HEADER_LEN};
///
/// let image = HllSketch::new(10, 3).unwrap().to_wire_bytes();
/// // Only the first 16 bytes are needed.
/// let peeked = peek(&image[..WIRE_HEADER_LEN], 1 << 20).unwrap();
/// assert_eq!(peeked.family, SketchFamily::Hll);
/// assert_eq!(peeked.payload_len as usize, image.len() - WIRE_HEADER_LEN);
/// // A header declaring more than the cap is rejected outright.
/// let mut absurd = image[..WIRE_HEADER_LEN].to_vec();
/// absurd[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
/// assert!(peek(&absurd, 1 << 20).is_err());
/// ```
pub fn peek(data: &[u8], max_payload_len: u64) -> Result<PeekedHeader, WireError> {
    let header = WireHeader::parse_prefix(data)?;
    if header.payload_len > max_payload_len {
        return Err(WireError::PayloadLength {
            declared: header.payload_len,
            have: max_payload_len,
        });
    }
    Ok(PeekedHeader {
        family: header.family,
        item_width: header.item_width,
        payload_len: header.payload_len,
    })
}

/// Items serialisable into a fixed-width little-endian encoding, used by
/// the Quantiles and Misra–Gries payloads. The width is carried in the
/// header's `item_width` byte so decoders can reject a type confusion
/// before touching the payload.
pub trait WireItem: Sized {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends the encoding of `self`.
    fn write_to(&self, buf: &mut BytesMut);
    /// Decodes one item (the caller guarantees `WIDTH` bytes remain).
    fn read_from(buf: &mut &[u8]) -> Self;
}

impl WireItem for u64 {
    const WIDTH: usize = 8;
    fn write_to(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn read_from(buf: &mut &[u8]) -> Self {
        buf.get_u64_le()
    }
}

impl WireItem for i64 {
    const WIDTH: usize = 8;
    fn write_to(&self, buf: &mut BytesMut) {
        buf.put_i64_le(*self);
    }
    fn read_from(buf: &mut &[u8]) -> Self {
        buf.get_i64_le()
    }
}

impl WireItem for TotalF64 {
    const WIDTH: usize = 8;
    fn write_to(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.0.to_bits());
    }
    fn read_from(buf: &mut &[u8]) -> Self {
        TotalF64(f64::from_bits(buf.get_u64_le()))
    }
}

/// Associates a type with its [`SketchFamily`] code.
pub trait WireSketch {
    /// The family this type serialises as.
    const FAMILY: SketchFamily;
}

/// Serialisation half of the unified codec.
///
/// Encoding is infallible (the in-memory invariants are the wire
/// invariants) and deterministic: a canonical image decoded by
/// [`WireDecode`] re-encodes byte-identically.
pub trait WireEncode: WireSketch {
    /// Item width advertised in the header (0 where the family has no
    /// variable item type).
    fn wire_item_width(&self) -> u8 {
        0
    }

    /// Appends the family payload (everything after the 16-byte header).
    fn encode_payload(&self, buf: &mut BytesMut);

    /// Exact payload byte length, when cheaply computable. Every
    /// in-tree impl returns `Some`, letting [`Self::to_wire_bytes`]
    /// produce the image in a single right-sized allocation with no
    /// growth reallocations; `None` falls back to a small default
    /// capacity plus growth.
    fn payload_size_hint(&self) -> Option<usize> {
        None
    }

    /// Serialises into a complete wire image (header + payload).
    fn to_wire_bytes(&self) -> Bytes {
        let cap = WIRE_HEADER_LEN + self.payload_size_hint().unwrap_or(64);
        let mut buf = BytesMut::with_capacity(cap);
        WireHeader {
            version: WIRE_VERSION,
            family: Self::FAMILY,
            item_width: self.wire_item_width(),
            payload_len: 0,
        }
        .write(&mut buf);
        self.encode_payload(&mut buf);
        let payload_len = (buf.len() - WIRE_HEADER_LEN) as u64;
        buf[8..16].copy_from_slice(&payload_len.to_le_bytes());
        buf.freeze()
    }
}

/// Deserialisation half of the unified codec.
pub trait WireDecode: WireSketch + Sized {
    /// Decodes a complete wire image (header + payload): the family's
    /// [`view`] parse and validation, then materialisation. Must not
    /// panic on any input.
    ///
    /// # Errors
    ///
    /// [`WireError::FamilyMismatch`] if the image belongs to a different
    /// family; otherwise the first corruption the view detects.
    fn from_wire_bytes(data: &[u8]) -> Result<Self, WireError>;
}

/// The merge-anywhere tier: combine decoded images of one family without
/// access to the sketches that produced them.
pub trait WireMerge: WireEncode + WireDecode {
    /// Folds `other` into `self`.
    ///
    /// # Errors
    ///
    /// [`WireError::Incompatible`] on a seed / parameter mismatch.
    fn wire_merge_from(&mut self, other: &Self) -> Result<(), WireError>;

    /// Fans a whole list of raw images into one sketch — in every
    /// in-tree family, the single-pass multiway kernel from [`fanin`],
    /// which reads items straight out of the raw bytes.
    ///
    /// # Errors
    ///
    /// Any decode failure, [`WireError::Incompatible`] on parameter
    /// mismatches, or [`WireError::Invariant`] for an empty list.
    fn wire_fan_in<B: AsRef<[u8]>>(images: &[B]) -> Result<Self, WireError>;
}

/// Fans a list of raw images into one sketch (fan-in order-independent
/// for Θ/HLL; Misra–Gries bounds hold for any order).
///
/// Dispatches to the family's [`WireMerge::wire_fan_in`] — for the
/// in-tree families that is a single-pass multiway kernel over borrowed
/// views (see [`fanin`]), not a pairwise decode-then-fold. A coordinator
/// merging in a loop should call the `*_into` kernel entry points with
/// its own [`MergeScratch`] to also skip this function's image-list
/// collection and result materialisation.
///
/// # Errors
///
/// Any decode failure, [`WireError::Incompatible`] on parameter
/// mismatches, or [`WireError::Invariant`] if `images` is empty (the
/// family's identity element is not always representable — an
/// intersection-style caller must supply at least one image).
pub fn merge_wire_images<W, I, B>(images: I) -> Result<W, WireError>
where
    W: WireMerge,
    I: IntoIterator<Item = B>,
    B: AsRef<[u8]>,
{
    let images: Vec<B> = images.into_iter().collect();
    W::wire_fan_in(&images)
}

fn setop_err(e: crate::error::SketchError) -> WireError {
    match e {
        crate::error::SketchError::Incompatible { reason } => {
            WireError::Incompatible { detail: reason }
        }
        other => WireError::invariant("set operation", other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Θ family
// ---------------------------------------------------------------------------

const THETA_FIXED: usize = 24;

/// Hashes bulk-encoded per chunk of this many (a 512-byte stack staging
/// buffer — the largest chunk that stays comfortably in L1 while making
/// the per-`put_slice` overhead negligible).
const THETA_ENC_CHUNK: usize = 64;

impl WireSketch for CompactThetaSketch {
    const FAMILY: SketchFamily = SketchFamily::Theta;
}

/// Θ payload: `seed(u64) | theta(u64) | count(u64) | count × hash(u64)`,
/// hashes strictly ascending, all nonzero and below Θ.
impl WireEncode for CompactThetaSketch {
    fn wire_item_width(&self) -> u8 {
        8
    }

    fn encode_payload(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.seed());
        buf.put_u64_le(self.theta());
        let hashes = self.sorted_hashes();
        buf.put_u64_le(hashes.len() as u64);
        // Encode straight off the borrowed slice in bulk chunks: one
        // length-checked append per 64 hashes instead of one per hash.
        // With the exact size hint below, re-encoding a decoded image is
        // a single allocation plus chunked copies.
        let mut chunk = [0u8; 8 * THETA_ENC_CHUNK];
        for run in hashes.chunks(THETA_ENC_CHUNK) {
            for (slot, &h) in chunk.chunks_exact_mut(8).zip(run) {
                slot.copy_from_slice(&h.to_le_bytes());
            }
            buf.put_slice(&chunk[..8 * run.len()]);
        }
    }

    fn payload_size_hint(&self) -> Option<usize> {
        Some(THETA_FIXED + 8 * self.sorted_hashes().len())
    }
}

impl WireDecode for CompactThetaSketch {
    /// [`ThetaWireView`] parse and validate, then the one Θ
    /// materialisation. The exact-length rule bounds the hash count by
    /// bytes present.
    fn from_wire_bytes(data: &[u8]) -> Result<Self, WireError> {
        let view = ThetaWireView::parse(data)?;
        view.validate()?;
        fanin::compact_from_parts(view.theta(), view.seed(), view.hashes().collect())
    }
}

impl WireMerge for CompactThetaSketch {
    /// Untrimmed union: joint Θ = min of the parts, every hash below it
    /// kept — lossless and associative, so fan-in order is irrelevant.
    fn wire_merge_from(&mut self, other: &Self) -> Result<(), WireError> {
        *self = untrimmed_union([&*self, other]).map_err(setop_err)?;
        Ok(())
    }

    /// K-way loser-tree union over borrowed views
    /// ([`fanin::theta_multiway_union`]) — result-identical to the
    /// pairwise fold, single pass, no per-image decoding.
    fn wire_fan_in<B: AsRef<[u8]>>(images: &[B]) -> Result<Self, WireError> {
        fanin::theta_multiway_union(images)
    }
}

// ---------------------------------------------------------------------------
// HLL family
// ---------------------------------------------------------------------------

const HLL_FIXED: usize = 16;

impl WireSketch for HllSketch {
    const FAMILY: SketchFamily = SketchFamily::Hll;
}

/// HLL payload: `lg_m(u8) | pad(7×u8) | seed(u64) | 2^lg_m × register(u8)`.
impl WireEncode for HllSketch {
    fn wire_item_width(&self) -> u8 {
        1
    }

    fn encode_payload(&self, buf: &mut BytesMut) {
        buf.put_u8(self.lg_m());
        buf.put_slice(&[0u8; 7]);
        buf.put_u64_le(self.seed());
        buf.put_slice(self.registers());
    }

    fn payload_size_hint(&self) -> Option<usize> {
        Some(HLL_FIXED + self.m())
    }
}

impl WireDecode for HllSketch {
    /// [`HllWireView`] parse and validate, then the one HLL
    /// materialisation.
    fn from_wire_bytes(data: &[u8]) -> Result<Self, WireError> {
        let view = HllWireView::parse(data)?;
        view.validate()?;
        fanin::hll_from_parts(view.lg_m(), view.seed(), view.registers())
    }
}

impl WireMerge for HllSketch {
    /// Register-wise max — a lattice join, so merged-on-wire equals the
    /// sequential sketch of the concatenated streams *exactly*.
    fn wire_merge_from(&mut self, other: &Self) -> Result<(), WireError> {
        self.merge(other).map_err(setop_err)
    }

    /// Register max folded straight from payload bytes
    /// ([`fanin::hll_multiway_merge`]) — one accumulator, one pass.
    fn wire_fan_in<B: AsRef<[u8]>>(images: &[B]) -> Result<Self, WireError> {
        fanin::hll_multiway_merge(images)
    }
}

// ---------------------------------------------------------------------------
// Quantiles family (ladder images)
// ---------------------------------------------------------------------------

const LADDER_FIXED: usize = 16;
const LADDER_RUN_FIXED: usize = 16;

impl<T: Ord + Clone + WireItem> WireSketch for QuantilesLadder<T> {
    const FAMILY: SketchFamily = SketchFamily::Quantiles;
}

/// Quantiles ladder payload:
/// `n(u64) | run_count(u32) | pad(u32) | min | max | run_count × run`,
/// each run `weight(u64) | len(u64) | len × item`, items sorted
/// ascending. `min`/`max` are present iff `n > 0`. The per-run weights
/// must account for `n` exactly: `Σ len·weight = n`.
///
/// This serialises the engine's copy-on-write ladder snapshot *without
/// flattening*: each `Arc`'d sorted run streams out as-is, preserving
/// the retained-independent snapshot cost on the export path.
impl<T: Ord + Clone + WireItem> WireEncode for QuantilesLadder<T> {
    fn wire_item_width(&self) -> u8 {
        T::WIDTH as u8
    }

    fn encode_payload(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.n());
        buf.put_u32_le(self.run_count() as u32);
        buf.put_u32_le(0);
        if let (Some(min), Some(max)) = (self.min_item(), self.max_item()) {
            min.write_to(buf);
            max.write_to(buf);
        }
        for (items, weight) in self.runs() {
            buf.put_u64_le(weight);
            buf.put_u64_le(items.len() as u64);
            for item in items {
                item.write_to(buf);
            }
        }
    }

    fn payload_size_hint(&self) -> Option<usize> {
        let min_max = if self.n() > 0 { 2 * T::WIDTH } else { 0 };
        Some(
            LADDER_FIXED
                + min_max
                + self.run_count() * LADDER_RUN_FIXED
                + self.retained() * T::WIDTH,
        )
    }
}

impl<T: Ord + Clone + WireItem> WireDecode for QuantilesLadder<T> {
    /// A fan-in of one image: [`LadderWireView`]'s full parse streaming
    /// every validated run into the kernel's collecting sink.
    fn from_wire_bytes(data: &[u8]) -> Result<Self, WireError> {
        fanin::ladder_multiway_concat(&[data])
    }
}

impl<T: Ord + Clone + WireItem> WireMerge for QuantilesLadder<T> {
    /// Run-list concatenation — the k-way merge is deferred to query
    /// time, so merging images is O(runs), not O(retained).
    fn wire_merge_from(&mut self, other: &Self) -> Result<(), WireError> {
        if self.n().checked_add(other.n()).is_none() {
            return Err(WireError::invariant(
                "ladder merge",
                "combined n overflows u64",
            ));
        }
        self.concat(other);
        Ok(())
    }

    /// One O(total runs) concatenation of borrowed runs
    /// ([`fanin::ladder_multiway_concat`]) — byte-identical to the
    /// pairwise fold, no intermediate ladders.
    fn wire_fan_in<B: AsRef<[u8]>>(images: &[B]) -> Result<Self, WireError> {
        fanin::ladder_multiway_concat(images)
    }
}

// ---------------------------------------------------------------------------
// Misra–Gries family
// ---------------------------------------------------------------------------

const MG_FIXED: usize = 32;

impl<T: Ord + Clone + WireItem> WireSketch for MisraGriesSketch<T> {
    const FAMILY: SketchFamily = SketchFamily::Frequency;
}

/// Misra–Gries payload:
/// `k(u64) | n(u64) | error(u64) | count(u64) | count × (item | counter(u64))`,
/// entries sorted by strictly ascending item (the sketch's own counter
/// order). Invariants: `count ≤ k`, every counter
/// `≥ 1`, and `Σ counters + error ≤ n`.
impl<T: Ord + Clone + WireItem> WireEncode for MisraGriesSketch<T> {
    fn wire_item_width(&self) -> u8 {
        T::WIDTH as u8
    }

    fn encode_payload(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.k() as u64);
        buf.put_u64_le(self.n());
        buf.put_u64_le(self.max_error());
        buf.put_u64_le(self.retained() as u64);
        for (item, counter) in self.counters() {
            item.write_to(buf);
            buf.put_u64_le(counter);
        }
    }

    fn payload_size_hint(&self) -> Option<usize> {
        Some(MG_FIXED + self.retained() * (T::WIDTH + 8))
    }
}

impl<T: Ord + Clone + WireItem> WireDecode for MisraGriesSketch<T> {
    /// A fan-in of one image: [`MgWireView`]'s full parse, then
    /// [`MgWireView::entries`] into one `from_parts`.
    fn from_wire_bytes(data: &[u8]) -> Result<Self, WireError> {
        fanin::mg_multiway_merge(&[data])
    }
}

impl<T: Ord + Clone + WireItem> WireMerge for MisraGriesSketch<T> {
    /// Counter addition followed by reduction back to `k` counters (the
    /// mergeable-summaries construction); the `n/(k+1)` error bound is
    /// preserved under any fan-in order.
    fn wire_merge_from(&mut self, other: &Self) -> Result<(), WireError> {
        if self.n().checked_add(other.n()).is_none() {
            return Err(WireError::invariant(
                "misra-gries merge",
                "combined n overflows u64",
            ));
        }
        self.merge(other).map_err(setop_err)
    }

    /// Counter accumulation into one key-sorted run with a single final
    /// reduction ([`fanin::mg_multiway_merge`]) — the same
    /// mergeable-summaries bound; in exact mode (distinct items ≤ k)
    /// identical to the pairwise fold.
    fn wire_fan_in<B: AsRef<[u8]>>(images: &[B]) -> Result<Self, WireError> {
        fanin::mg_multiway_merge(images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantiles::QuantilesSketch;
    use crate::theta::QuickSelectThetaSketch;

    fn theta_image(n: u64, lg_k: u8, seed: u64) -> (CompactThetaSketch, Bytes) {
        let mut s = QuickSelectThetaSketch::new(lg_k, seed).unwrap();
        for i in 0..n {
            s.update(i);
        }
        let c = s.compact();
        let bytes = c.to_wire_bytes();
        (c, bytes)
    }

    #[test]
    fn header_round_trips() {
        let (_, bytes) = theta_image(1000, 6, 7);
        let (h, payload) = WireHeader::parse(&bytes).unwrap();
        assert_eq!(h.version, WIRE_VERSION);
        assert_eq!(h.family, SketchFamily::Theta);
        assert_eq!(h.item_width, 8);
        assert_eq!(h.payload_len as usize, payload.len());
    }

    #[test]
    fn theta_round_trips_byte_identically() {
        let (c, bytes) = theta_image(25_000, 6, 9001);
        let back = CompactThetaSketch::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_wire_bytes(), bytes);
    }

    #[test]
    fn hll_round_trips_byte_identically() {
        let mut h = HllSketch::new(8, 42).unwrap();
        for i in 0..40_000u64 {
            h.update(i);
        }
        let bytes = h.to_wire_bytes();
        let back = HllSketch::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_wire_bytes(), bytes);
    }

    #[test]
    fn ladder_round_trips_byte_identically() {
        for n in [0u64, 1, 100, 256, 60_000] {
            let mut q = QuantilesSketch::<u64>::with_seed(32, 5).unwrap();
            for i in 0..n {
                q.update(i);
            }
            let ladder = q.ladder();
            let bytes = ladder.to_wire_bytes();
            let back = QuantilesLadder::<u64>::from_wire_bytes(&bytes).unwrap();
            assert_eq!(back.n(), ladder.n());
            assert_eq!(back.to_wire_bytes(), bytes);
            for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
                assert_eq!(back.quantile(phi), ladder.quantile(phi), "n={n} phi={phi}");
            }
        }
    }

    #[test]
    fn ladder_round_trips_total_f64() {
        let mut q = QuantilesSketch::<TotalF64>::with_seed(32, 2).unwrap();
        for i in 0..10_000u64 {
            q.update(TotalF64((i as f64).sin()));
        }
        let ladder = q.ladder();
        let bytes = ladder.to_wire_bytes();
        let back = QuantilesLadder::<TotalF64>::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.to_wire_bytes(), bytes);
        for phi in [0.0, 0.5, 1.0] {
            assert_eq!(back.quantile(phi), ladder.quantile(phi), "phi={phi}");
        }
    }

    #[test]
    fn misra_gries_round_trips_byte_identically() {
        let mut mg = MisraGriesSketch::<u64>::new(16).unwrap();
        for i in 0..30_000u64 {
            mg.update(if i % 3 == 0 { 7 } else { i % 500 });
        }
        let bytes = mg.to_wire_bytes();
        let back = MisraGriesSketch::<u64>::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.n(), mg.n());
        assert_eq!(back.max_error(), mg.max_error());
        assert_eq!(back.estimate(&7), mg.estimate(&7));
        assert_eq!(back.to_wire_bytes(), bytes);
    }

    #[test]
    fn family_dispatch_rejects_cross_decoding() {
        let (_, theta) = theta_image(100, 5, 1);
        assert!(matches!(
            HllSketch::from_wire_bytes(&theta),
            Err(WireError::FamilyMismatch { .. })
        ));
        assert!(matches!(
            QuantilesLadder::<u64>::from_wire_bytes(&theta),
            Err(WireError::FamilyMismatch { .. })
        ));
        assert!(matches!(
            MisraGriesSketch::<u64>::from_wire_bytes(&theta),
            Err(WireError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn merge_wire_images_unions_theta() {
        let images: Vec<Bytes> = (0..4u64)
            .map(|node| {
                let mut s = QuickSelectThetaSketch::new(10, 77).unwrap();
                for i in (node..40_000).step_by(4) {
                    s.update(i);
                }
                s.compact().to_wire_bytes()
            })
            .collect();
        let merged: CompactThetaSketch = merge_wire_images(&images).unwrap();
        let est = merged.estimate();
        assert!((est - 40_000.0).abs() / 40_000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn merge_rejects_seed_mismatch() {
        let (_, a) = theta_image(100, 5, 1);
        let (_, b) = theta_image(100, 5, 2);
        assert!(matches!(
            merge_wire_images::<CompactThetaSketch, _, _>([&a, &b]),
            Err(WireError::Incompatible { .. })
        ));
    }

    #[test]
    fn merge_rejects_empty_list() {
        let images: [&[u8]; 0] = [];
        assert!(matches!(
            merge_wire_images::<HllSketch, _, _>(images),
            Err(WireError::Invariant { .. })
        ));
    }

    #[test]
    fn hll_wire_merge_equals_sequential() {
        let mut oracle = HllSketch::new(9, 11).unwrap();
        let mut images = Vec::new();
        for node in 0..5u64 {
            let mut h = HllSketch::new(9, 11).unwrap();
            for i in (node..50_000).step_by(5) {
                h.update(i);
                oracle.update(i);
            }
            images.push(h.to_wire_bytes());
        }
        let merged: HllSketch = merge_wire_images(&images).unwrap();
        assert_eq!(merged, oracle);
    }

    #[test]
    fn ladder_wire_merge_sums_runs() {
        let mut images = Vec::new();
        for node in 0..3u64 {
            let mut q = QuantilesSketch::<u64>::with_seed(64, node).unwrap();
            for i in (node..90_000).step_by(3) {
                q.update(i);
            }
            images.push(q.ladder().to_wire_bytes());
        }
        let merged: QuantilesLadder<u64> = merge_wire_images(&images).unwrap();
        assert_eq!(merged.n(), 90_000);
        assert_eq!(merged.quantile(0.0), Some(0));
        assert_eq!(merged.quantile(1.0), Some(89_999));
        let med = merged.quantile(0.5).unwrap() as f64;
        assert!((med - 45_000.0).abs() < 5_000.0, "median {med}");
    }

    #[test]
    fn item_width_mismatch_rejected() {
        let mut mg = MisraGriesSketch::<u64>::new(4).unwrap();
        mg.update(9);
        let mut bytes = mg.to_wire_bytes().to_vec();
        bytes[7] = 4; // forge item_width
        assert!(matches!(
            MisraGriesSketch::<u64>::from_wire_bytes(&bytes),
            Err(WireError::ItemWidth {
                expected: 8,
                found: 4
            })
        ));
    }
}
