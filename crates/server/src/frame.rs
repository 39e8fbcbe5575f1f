//! The length-prefixed frame protocol spoken on every `fcds-server`
//! connection.
//!
//! A frame is a fixed 16-byte header followed by `payload_len` payload
//! bytes. All integers are little-endian, matching the sketch wire
//! envelope the payloads carry:
//!
//! | offset | size | field         | meaning                                   |
//! |-------:|-----:|---------------|-------------------------------------------|
//! | 0      | 4    | `magic`       | `"FCF1"` (fcds frame v1)                  |
//! | 4      | 1    | `type`        | frame type code (below)                   |
//! | 5      | 1    | `flags`       | must be 0 in v1                           |
//! | 6      | 2    | `seq`         | client sequence number, echoed in replies |
//! | 8      | 4    | `payload_len` | payload bytes following the header        |
//! | 12     | 4    | `checksum`    | CRC-32C over the payload                  |
//!
//! The checksum is CRC-32C (Castagnoli), which catches every single-bit
//! error and every burst of up to 32 bits in the payload. It is not
//! cryptographic — it exists so a bit-flipped payload (a real fault
//! class for long-lived TCP streams through middleboxes, and one the
//! fault-injection harness synthesises) turns into a typed NACK instead
//! of a garbage merge. Header corruption is
//! caught by the magic/type/flags checks; payload corruption by the
//! checksum; declared-length abuse by the server's configured cap
//! *before* any buffer is sized from it.
//!
//! # FCF1 v2: stream-addressed frames
//!
//! v2 keeps the 16-byte header byte-for-byte and assigns the first two
//! `flags` bits; a v1 peer (flags always 0) interoperates unchanged.
//!
//! * [`FLAG_STREAM`] (`0x01`) — legal only on `Ingest`, `Merge` and
//!   `Query`. The payload then starts with a **stream prefix**:
//!
//!   | offset | size   | field    | meaning                              |
//!   |-------:|-------:|----------|--------------------------------------|
//!   | 0      | 1      | `family` | [`SketchFamily`] code (1–4)          |
//!   | 1      | 1      | `klen`   | key length, 1..=[`MAX_STREAM_KEY`]   |
//!   | 2      | `klen` | `key`    | opaque stream key bytes              |
//!   | 2+klen | 0 or 8 | `source` | replica id (u64 LE), iff `REPLACE`   |
//!
//!   followed by the ordinary v1 body (ingest items, one wire
//!   envelope, or the 2-byte query selector with `family` ignored in
//!   favour of the prefix).
//! * [`FLAG_REPLACE`] (`0x02`) — legal only together with `STREAM` and
//!   only on `Merge`: the envelope *replaces* the stream's slot for
//!   `source` instead of accumulating, making replica pushes idempotent
//!   for the non-idempotent families (Quantiles concat, Misra–Gries
//!   counter addition).
//!
//! Any other flag bit, or a defined bit on the wrong frame type, is
//! rejected as [`HeaderError::BadFlags`] before the payload is read.

use crate::crc::crc32c;
use fcds_sketches::wire::SketchFamily;

/// `"FCF1"` little-endian: fcds frame protocol, version 1.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"FCF1");

/// Fixed frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// v2 flag: the payload starts with a stream prefix
/// (`[family][klen][key]`). Legal on `Ingest`, `Merge` and `Query`.
pub const FLAG_STREAM: u8 = 0x01;

/// v2 flag: replace-by-source merge. Legal only with [`FLAG_STREAM`] on
/// `Merge`; the prefix then carries a trailing `u64` replica source id.
pub const FLAG_REPLACE: u8 = 0x02;

/// Every flag bit any FCF1 version defines; the rest must be zero.
pub const FLAGS_MASK: u8 = FLAG_STREAM | FLAG_REPLACE;

/// Longest stream key the prefix codec accepts, in bytes. Small on
/// purpose: keys are routing labels, not payloads, and the bound keeps
/// hostile `klen` bytes from claiming more than the prefix can hold.
pub const MAX_STREAM_KEY: usize = 64;

/// Frame type codes. Client→server types have the high bit clear,
/// server→client types have it set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Liveness probe; answered with [`FrameType::Pong`].
    Ping = 0x01,
    /// Batch ingest: payload is `n × u64` items (LE), `n ≥ 0`,
    /// `payload_len % 8 == 0`. Answered with Ack or a shed Nack.
    Ingest = 0x02,
    /// Merge an fcds wire envelope into a stream's slot map (v1: the
    /// `default` Θ stream). Payload is exactly one envelope.
    Merge = 0x03,
    /// Query: payload is `[kind: u8, family: u8]`. `kind` 0 = estimate
    /// (answered with [`FrameType::Estimate`]), 1 = wire image (answered
    /// with [`FrameType::Image`]). On a v1 frame the query is of
    /// (`default`, `family`), with `family` 0 an alias for Θ.
    Query = 0x04,
    /// Ask the server to start draining (answered with Ack; ingest and
    /// merge frames are NACKed with `Draining` from then on).
    Shutdown = 0x06,

    /// Reply to [`FrameType::Ping`].
    Pong = 0x81,
    /// Positive acknowledgement (empty payload).
    Ack = 0x82,
    /// Typed negative acknowledgement: payload is
    /// `[code: u16 LE][detail: UTF-8]`. Never silent — every rejected
    /// request produces one (or the connection is closed, for framing
    /// that cannot be resynchronised).
    Nack = 0x83,
    /// Estimate reply: payload is one `f64` (LE bits).
    Estimate = 0x84,
    /// Wire-image reply: payload is one fcds wire envelope.
    Image = 0x85,
}

impl FrameType {
    /// Decodes a type code.
    pub fn from_code(code: u8) -> Option<FrameType> {
        Some(match code {
            0x01 => FrameType::Ping,
            0x02 => FrameType::Ingest,
            0x03 => FrameType::Merge,
            0x04 => FrameType::Query,
            0x06 => FrameType::Shutdown,
            0x81 => FrameType::Pong,
            0x82 => FrameType::Ack,
            0x83 => FrameType::Nack,
            0x84 => FrameType::Estimate,
            0x85 => FrameType::Image,
            _ => return None,
        })
    }
}

/// Machine-readable NACK reason codes (the error taxonomy the load
/// harness aggregates by). The u16 goes on the wire; the enum names the
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum NackCode {
    /// Unparseable or protocol-violating frame (bad magic, unknown type,
    /// non-zero flags, malformed payload). Bad magic closes the
    /// connection after the NACK — the stream cannot be resynchronised;
    /// the other cases keep it open.
    Malformed = 1,
    /// Declared payload length exceeds the server's cap. The connection
    /// is closed: the oversized payload cannot be safely skipped.
    PayloadTooLarge = 2,
    /// The payload failed sketch-wire validation (`WireError`); detail
    /// carries the display string. Connection stays open.
    Wire = 3,
    /// Capacity refusal: the stream registry or a slot map is full.
    /// The client should back off and retry (or retire a stream).
    Overload = 4,
    /// Reserved: no longer produced (ingest has no breaker since the
    /// connection threads apply it themselves). Kept so the code
    /// numbering, and clients that match on it, stay valid.
    BreakerOpen = 5,
    /// The server is draining; no new ingest or merge work is accepted.
    Draining = 6,
    /// The request is well-formed but the server cannot serve it (e.g.
    /// an estimate query against a family that has no estimator).
    Unsupported = 7,
    /// Internal failure (e.g. the ingest backend died); detail says why.
    Internal = 8,
    /// Payload checksum mismatch — the frame was corrupted in flight.
    /// Connection stays open (framing itself was intact).
    Checksum = 9,
    /// The peer blew the mid-frame read deadline. Sent on a best-effort
    /// basis before the connection is closed.
    Timeout = 10,
    /// A v2 query addressed a stream key the registry does not hold.
    /// Queries never create streams — only ingest and merge do.
    UnknownStream = 11,
    /// A v2 frame's declared family disagrees with the family the
    /// stream was created with. The frame is rejected; the stream is
    /// untouched.
    FamilyMismatch = 12,
}

impl NackCode {
    /// Decodes a wire code.
    pub fn from_code(code: u16) -> Option<NackCode> {
        Some(match code {
            1 => NackCode::Malformed,
            2 => NackCode::PayloadTooLarge,
            3 => NackCode::Wire,
            4 => NackCode::Overload,
            5 => NackCode::BreakerOpen,
            6 => NackCode::Draining,
            7 => NackCode::Unsupported,
            8 => NackCode::Internal,
            9 => NackCode::Checksum,
            10 => NackCode::Timeout,
            11 => NackCode::UnknownStream,
            12 => NackCode::FamilyMismatch,
            _ => return None,
        })
    }
}

/// Why a frame header or payload was rejected. Each variant maps to a
/// documented [`NackCode`] and connection disposition (see
/// [`HeaderError::nack_code`] / [`HeaderError::closes_connection`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The magic bytes are wrong — the stream is not speaking this
    /// protocol (or has desynchronised beyond repair).
    BadMagic {
        /// The four bytes found where the magic belongs.
        found: u32,
    },
    /// Unknown frame type code, or a server→client code sent by a
    /// client.
    UnknownType {
        /// The offending type code.
        found: u8,
    },
    /// Undefined flag bits, or a defined bit on a frame type that does
    /// not admit it (`STREAM` off `Ingest`/`Merge`/`Query`, `REPLACE`
    /// without `STREAM` or off `Merge`, any flag on a reply).
    BadFlags {
        /// The offending flags byte.
        found: u8,
    },
    /// Declared payload length exceeds the receiver's cap.
    PayloadTooLarge {
        /// The declared payload length.
        declared: u32,
        /// The receiver's cap.
        cap: u32,
    },
    /// The payload's CRC-32C does not match the header. A frame from a
    /// peer that still sends the old FNV-1a checksum lands here too.
    ChecksumMismatch {
        /// Checksum the header declared.
        declared: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
}

impl HeaderError {
    /// The NACK code this error is reported with.
    pub fn nack_code(&self) -> NackCode {
        match self {
            HeaderError::BadMagic { .. }
            | HeaderError::UnknownType { .. }
            | HeaderError::BadFlags { .. } => NackCode::Malformed,
            HeaderError::PayloadTooLarge { .. } => NackCode::PayloadTooLarge,
            HeaderError::ChecksumMismatch { .. } => NackCode::Checksum,
        }
    }

    /// Whether the connection must be closed after NACKing: true when
    /// the byte stream cannot be resynchronised (wrong magic — we are
    /// lost) or cannot be safely skipped (oversized payload). Unknown
    /// types, bad flags and checksum mismatches keep the connection: the
    /// framing itself was intact, so the next frame boundary is known.
    pub fn closes_connection(&self) -> bool {
        matches!(
            self,
            HeaderError::BadMagic { .. } | HeaderError::PayloadTooLarge { .. }
        )
    }
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (want \"FCF1\")")
            }
            HeaderError::UnknownType { found } => write!(f, "unknown frame type {found:#04x}"),
            HeaderError::BadFlags { found } => write!(f, "unsupported frame flags {found:#04x}"),
            HeaderError::PayloadTooLarge { declared, cap } => {
                write!(f, "declared payload {declared} exceeds cap {cap}")
            }
            HeaderError::ChecksumMismatch { declared, computed } => write!(
                f,
                "payload checksum mismatch: header says {declared:#010x}, payload is {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for HeaderError {}

/// The validated fields of a frame header, before the payload has been
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedHeader {
    /// The frame type.
    pub ftype: FrameType,
    /// Validated flag bits (0 on every v1 frame).
    pub flags: u8,
    /// The client sequence number.
    pub seq: u16,
    /// Declared payload length (≤ the cap passed to
    /// [`parse_header`]).
    pub payload_len: u32,
    /// Declared payload CRC-32C, verified by [`check_payload`].
    pub checksum: u32,
}

/// Parses and validates a 16-byte frame header against `max_payload`,
/// rejecting declared lengths above it before anything is buffered
/// (mirroring `fcds_sketches::wire::peek`'s cap, one protocol layer up).
///
/// `client_side`: when true, only client→server frame types are
/// accepted (a server rejecting server-codes from clients); when false,
/// only server→client types (a client library validating replies).
///
/// # Errors
///
/// See [`HeaderError`] for the taxonomy; every variant maps to a
/// documented NACK code and connection disposition.
pub fn parse_header(
    bytes: &[u8; FRAME_HEADER_LEN],
    max_payload: u32,
    client_side: bool,
) -> Result<ParsedHeader, HeaderError> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(HeaderError::BadMagic { found: magic });
    }
    let type_code = bytes[4];
    let ftype = FrameType::from_code(type_code)
        .filter(|t| ((*t as u8) & 0x80 == 0) == client_side)
        .ok_or(HeaderError::UnknownType { found: type_code })?;
    let flags = bytes[5];
    if flags & !FLAGS_MASK != 0 {
        return Err(HeaderError::BadFlags { found: flags });
    }
    let stream_ok = matches!(
        ftype,
        FrameType::Ingest | FrameType::Merge | FrameType::Query
    );
    if flags & FLAG_STREAM != 0 && !stream_ok {
        return Err(HeaderError::BadFlags { found: flags });
    }
    if flags & FLAG_REPLACE != 0 && (flags & FLAG_STREAM == 0 || ftype != FrameType::Merge) {
        return Err(HeaderError::BadFlags { found: flags });
    }
    let seq = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if payload_len > max_payload {
        return Err(HeaderError::PayloadTooLarge {
            declared: payload_len,
            cap: max_payload,
        });
    }
    let checksum = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    Ok(ParsedHeader {
        ftype,
        flags,
        seq,
        payload_len,
        checksum,
    })
}

/// Verifies a received payload against its header checksum.
///
/// # Errors
///
/// [`HeaderError::ChecksumMismatch`] when the payload was corrupted in
/// flight.
pub fn check_payload(header: &ParsedHeader, payload: &[u8]) -> Result<(), HeaderError> {
    debug_assert_eq!(payload.len() as u32, header.payload_len);
    let computed = crc32c(payload);
    if computed != header.checksum {
        return Err(HeaderError::ChecksumMismatch {
            declared: header.checksum,
            computed,
        });
    }
    Ok(())
}

/// Encodes a v1 frame (header + payload, flags 0) into one buffer
/// ready to write.
pub fn encode_frame(ftype: FrameType, seq: u16, payload: &[u8]) -> Vec<u8> {
    encode_frame_flags(ftype, 0, seq, payload)
}

/// Encodes a frame with explicit flag bits. The caller is responsible
/// for pairing [`FLAG_STREAM`]/[`FLAG_REPLACE`] with a payload that
/// actually starts with the matching stream prefix
/// ([`encode_stream_prefix`]).
pub fn encode_frame_flags(ftype: FrameType, flags: u8, seq: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(&mut out, ftype, flags, seq, payload);
    out
}

/// Encodes a frame into `out`, replacing its contents, so a reply can
/// reuse one buffer.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    ftype: FrameType,
    flags: u8,
    seq: u16,
    payload: &[u8],
) {
    out.clear();
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(ftype as u8);
    out.push(flags);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A stream address: a decoded v2 stream prefix (see the module docs
/// for the byte layout), or the one the server implies for a v1 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPrefix<'a> {
    /// The sketch family the sender declares for the stream.
    pub family: SketchFamily,
    /// The opaque stream key (1..=[`MAX_STREAM_KEY`] bytes).
    pub key: &'a [u8],
    /// Replica source id; present iff the frame carried
    /// [`FLAG_REPLACE`].
    pub source: Option<u64>,
}

/// Why a v2 stream prefix was rejected. All variants NACK as
/// [`NackCode::Malformed`] and keep the connection open (the frame
/// boundary is known — only the payload's leading bytes are bad).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPrefixError {
    /// The payload ends before the prefix it declares is complete.
    Truncated,
    /// `klen` is zero — streams must have a non-empty key.
    EmptyKey,
    /// `klen` exceeds [`MAX_STREAM_KEY`].
    KeyTooLong {
        /// The declared key length.
        len: usize,
    },
    /// The family byte is not an assigned [`SketchFamily`] code.
    BadFamily {
        /// The offending byte.
        found: u8,
    },
}

impl std::fmt::Display for StreamPrefixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamPrefixError::Truncated => write!(f, "payload truncates the stream prefix"),
            StreamPrefixError::EmptyKey => write!(f, "stream key must not be empty"),
            StreamPrefixError::KeyTooLong { len } => {
                write!(f, "stream key of {len} bytes exceeds max {MAX_STREAM_KEY}")
            }
            StreamPrefixError::BadFamily { found } => {
                write!(f, "unassigned sketch family code {found:#04x}")
            }
        }
    }
}

impl std::error::Error for StreamPrefixError {}

/// Prepends a stream prefix to `body`, producing a v2 payload. Pass the
/// result to [`encode_frame_flags`] with [`FLAG_STREAM`] (and
/// [`FLAG_REPLACE`] iff `source` is `Some`).
///
/// # Panics
///
/// If `key` is empty or longer than [`MAX_STREAM_KEY`] — sender-side
/// misuse, not a wire condition.
pub fn encode_stream_prefix(
    family: SketchFamily,
    key: &[u8],
    source: Option<u64>,
    body: &[u8],
) -> Vec<u8> {
    assert!(
        !key.is_empty() && key.len() <= MAX_STREAM_KEY,
        "stream key must be 1..={MAX_STREAM_KEY} bytes, got {}",
        key.len()
    );
    let mut out = Vec::with_capacity(2 + key.len() + 8 + body.len());
    out.push(family.code());
    out.push(key.len() as u8);
    out.extend_from_slice(key);
    if let Some(id) = source {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(body);
    out
}

/// Splits a v2 payload into its stream prefix and the v1-shaped body
/// that follows. `replace` mirrors the frame's [`FLAG_REPLACE`] bit and
/// decides whether the trailing `source` id is expected.
///
/// # Errors
///
/// See [`StreamPrefixError`]; every variant is a `Malformed` NACK with
/// the connection kept open.
pub fn split_stream_prefix(
    payload: &[u8],
    replace: bool,
) -> Result<(StreamPrefix<'_>, &[u8]), StreamPrefixError> {
    let [family_code, klen, rest @ ..] = payload else {
        return Err(StreamPrefixError::Truncated);
    };
    let family = SketchFamily::from_code(*family_code).ok_or(StreamPrefixError::BadFamily {
        found: *family_code,
    })?;
    let klen = *klen as usize;
    if klen == 0 {
        return Err(StreamPrefixError::EmptyKey);
    }
    if klen > MAX_STREAM_KEY {
        return Err(StreamPrefixError::KeyTooLong { len: klen });
    }
    if rest.len() < klen {
        return Err(StreamPrefixError::Truncated);
    }
    let (key, rest) = rest.split_at(klen);
    let (source, body) = if replace {
        if rest.len() < 8 {
            return Err(StreamPrefixError::Truncated);
        }
        let (id, body) = rest.split_at(8);
        (
            Some(u64::from_le_bytes(id.try_into().expect("8 bytes"))),
            body,
        )
    } else {
        (None, rest)
    };
    Ok((
        StreamPrefix {
            family,
            key,
            source,
        },
        body,
    ))
}

/// Encodes a NACK payload: `[code: u16 LE][detail: UTF-8]`.
pub fn encode_nack_payload(code: NackCode, detail: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(2 + detail.len());
    p.extend_from_slice(&(code as u16).to_le_bytes());
    p.extend_from_slice(detail.as_bytes());
    p
}

/// Decodes a NACK payload into `(code, detail)`.
pub fn decode_nack_payload(payload: &[u8]) -> Option<(NackCode, String)> {
    if payload.len() < 2 {
        return None;
    }
    let code = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes"));
    let detail = String::from_utf8_lossy(&payload[2..]).into_owned();
    Some((NackCode::from_code(code)?, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_header(ftype: FrameType, seq: u16, payload: &[u8]) -> ParsedHeader {
        let bytes = encode_frame(ftype, seq, payload);
        let header: [u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
        let client_side = (ftype as u8) & 0x80 == 0;
        let parsed = parse_header(&header, u32::MAX, client_side).unwrap();
        check_payload(&parsed, &bytes[FRAME_HEADER_LEN..]).unwrap();
        parsed
    }

    #[test]
    fn frame_roundtrip_preserves_fields() {
        for (ftype, seq, payload) in [
            (FrameType::Ping, 0u16, &b""[..]),
            (
                FrameType::Ingest,
                7,
                &b"\x01\x00\x00\x00\x00\x00\x00\x00"[..],
            ),
            (FrameType::Nack, u16::MAX, &b"\x04\x00shed"[..]),
        ] {
            let parsed = roundtrip_header(ftype, seq, payload);
            assert_eq!(parsed.ftype, ftype);
            assert_eq!(parsed.seq, seq);
            assert_eq!(parsed.payload_len as usize, payload.len());
        }
    }

    #[test]
    fn direction_check_rejects_wrong_side() {
        let bytes = encode_frame(FrameType::Ack, 1, b"");
        let header: [u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
        // A server must not accept a server→client code from a client.
        assert_eq!(
            parse_header(&header, u32::MAX, true),
            Err(HeaderError::UnknownType {
                found: FrameType::Ack as u8
            })
        );
        // A client accepts it fine.
        assert!(parse_header(&header, u32::MAX, false).is_ok());
    }

    #[test]
    fn cap_rejects_oversized_declarations() {
        let bytes = encode_frame(FrameType::Ingest, 0, &[0u8; 64]);
        let header: [u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
        assert!(parse_header(&header, 64, true).is_ok());
        let err = parse_header(&header, 63, true).unwrap_err();
        assert_eq!(
            err,
            HeaderError::PayloadTooLarge {
                declared: 64,
                cap: 63
            }
        );
        assert!(err.closes_connection());
        assert_eq!(err.nack_code(), NackCode::PayloadTooLarge);
    }

    /// Flips `pattern`'s bits into `payload` from bit `start` on and
    /// asserts the frame's checksum catches it as a kept-open NACK.
    fn assert_caught(parsed: &ParsedHeader, payload: &mut [u8], start: usize, pattern: u32) {
        let flip = |payload: &mut [u8]| {
            for i in (0..32).filter(|i| pattern >> i & 1 != 0) {
                payload[(start + i) / 8] ^= 1 << ((start + i) % 8);
            }
        };
        flip(payload);
        let err = check_payload(parsed, payload).unwrap_err();
        assert_eq!(err.nack_code(), NackCode::Checksum);
        assert!(!err.closes_connection());
        flip(payload);
    }

    #[test]
    fn checksum_catches_single_bit_flips() {
        // A short Merge payload, and a full-size Ingest frame of 512
        // items (4 KiB) for which the bursts are sampled too.
        let items: Vec<u8> = (0..512u64)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes())
            .collect();
        for (ftype, mut payload) in [
            (FrameType::Merge, b"the payload under test".to_vec()),
            (FrameType::Ingest, items),
        ] {
            let bytes = encode_frame(ftype, 3, &payload);
            let parsed = parse(&bytes).unwrap();
            let bits = payload.len() * 8;
            for bit in 0..bits {
                assert_caught(&parsed, &mut payload, bit, 1);
            }
            // CRC-32 catches every burst of up to 32 bits: first and last
            // bit flipped, anything between.
            for len in 2..=32usize {
                for start in (0..=bits - len).step_by(61) {
                    let inner = (start as u32).wrapping_mul(0x2545_F491) & ((1 << (len - 1)) - 1);
                    assert_caught(&parsed, &mut payload, start, 1 | inner | 1 << (len - 1));
                }
            }
            check_payload(&parsed, &payload).unwrap();
        }
    }

    #[test]
    fn fnv_checksummed_frames_nack_checksum_and_stay_open() {
        // A peer that predates CRC-32C sends the payload's FNV-1a 32 in
        // the checksum field; 0xCEC7_6F54 is that value for this payload.
        let payload = b"the payload under test";
        let mut bytes = encode_frame(FrameType::Merge, 3, payload);
        bytes[12..16].copy_from_slice(&0xCEC7_6F54u32.to_le_bytes());
        let parsed = parse(&bytes).unwrap();
        let err = check_payload(&parsed, payload).unwrap_err();
        assert!(matches!(
            err,
            HeaderError::ChecksumMismatch {
                declared: 0xCEC7_6F54,
                ..
            }
        ));
        assert_eq!(err.nack_code(), NackCode::Checksum);
        assert!(!err.closes_connection());
    }

    #[test]
    fn nack_payload_roundtrip() {
        for code in [
            NackCode::Malformed,
            NackCode::PayloadTooLarge,
            NackCode::Wire,
            NackCode::Overload,
            NackCode::BreakerOpen,
            NackCode::Draining,
            NackCode::Unsupported,
            NackCode::Internal,
            NackCode::Checksum,
            NackCode::Timeout,
        ] {
            let p = encode_nack_payload(code, "detail text");
            let (got, detail) = decode_nack_payload(&p).unwrap();
            assert_eq!(got, code);
            assert_eq!(detail, "detail text");
        }
        assert_eq!(decode_nack_payload(&[1]), None);
        assert_eq!(decode_nack_payload(&[0xFF, 0xFF]), None);
    }

    #[test]
    fn stream_nack_codes_roundtrip() {
        for code in [NackCode::UnknownStream, NackCode::FamilyMismatch] {
            let p = encode_nack_payload(code, "why");
            let (got, _) = decode_nack_payload(&p).unwrap();
            assert_eq!(got, code);
        }
        assert_eq!(NackCode::from_code(11), Some(NackCode::UnknownStream));
        assert_eq!(NackCode::from_code(12), Some(NackCode::FamilyMismatch));
        assert_eq!(NackCode::from_code(13), None);
    }

    fn parse(bytes: &[u8]) -> Result<ParsedHeader, HeaderError> {
        let header: [u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
        parse_header(&header, u32::MAX, true)
    }

    #[test]
    fn v2_flags_accepted_where_defined() {
        for ftype in [FrameType::Ingest, FrameType::Merge, FrameType::Query] {
            let parsed = parse(&encode_frame_flags(ftype, FLAG_STREAM, 9, b"x")).unwrap();
            assert_eq!(parsed.flags, FLAG_STREAM);
            assert_eq!(parsed.seq, 9);
        }
        let both = FLAG_STREAM | FLAG_REPLACE;
        let parsed = parse(&encode_frame_flags(FrameType::Merge, both, 0, b"")).unwrap();
        assert_eq!(parsed.flags, both);
    }

    #[test]
    fn v2_flags_rejected_where_undefined() {
        // Undefined bits.
        for flags in [0x04u8, 0x80, FLAG_STREAM | 0x10] {
            let err = parse(&encode_frame_flags(FrameType::Ingest, flags, 0, b"")).unwrap_err();
            assert_eq!(err, HeaderError::BadFlags { found: flags });
            assert!(!err.closes_connection());
        }
        // STREAM off the three frame types that admit it.
        for ftype in [FrameType::Ping, FrameType::Shutdown] {
            let err = parse(&encode_frame_flags(ftype, FLAG_STREAM, 0, b"")).unwrap_err();
            assert_eq!(err, HeaderError::BadFlags { found: FLAG_STREAM });
        }
        // REPLACE without STREAM, and REPLACE off Merge.
        let err = parse(&encode_frame_flags(FrameType::Merge, FLAG_REPLACE, 0, b"")).unwrap_err();
        assert_eq!(
            err,
            HeaderError::BadFlags {
                found: FLAG_REPLACE
            }
        );
        let both = FLAG_STREAM | FLAG_REPLACE;
        for ftype in [FrameType::Ingest, FrameType::Query] {
            let err = parse(&encode_frame_flags(ftype, both, 0, b"")).unwrap_err();
            assert_eq!(err, HeaderError::BadFlags { found: both });
        }
    }

    #[test]
    fn v1_frames_still_parse_with_zero_flags() {
        let parsed = parse(&encode_frame(FrameType::Ingest, 3, b"12345678")).unwrap();
        assert_eq!(parsed.flags, 0);
    }

    #[test]
    fn stream_prefix_roundtrip() {
        let body = [0xABu8; 24];
        let payload = encode_stream_prefix(SketchFamily::Quantiles, b"clicks/eu", None, &body);
        let (prefix, rest) = split_stream_prefix(&payload, false).unwrap();
        assert_eq!(prefix.family, SketchFamily::Quantiles);
        assert_eq!(prefix.key, b"clicks/eu");
        assert_eq!(prefix.source, None);
        assert_eq!(rest, &body);

        let payload = encode_stream_prefix(SketchFamily::Hll, b"k", Some(0xDEAD_BEEF), &body);
        let (prefix, rest) = split_stream_prefix(&payload, true).unwrap();
        assert_eq!(prefix.family, SketchFamily::Hll);
        assert_eq!(prefix.key, b"k");
        assert_eq!(prefix.source, Some(0xDEAD_BEEF));
        assert_eq!(rest, &body);
    }

    #[test]
    fn hostile_stream_prefixes_are_typed_errors() {
        // Truncated: empty payload, then a klen that overruns.
        assert_eq!(
            split_stream_prefix(b"", false),
            Err(StreamPrefixError::Truncated)
        );
        assert_eq!(
            split_stream_prefix(&[1, 10, b'a', b'b'], false),
            Err(StreamPrefixError::Truncated)
        );
        // Missing source id under REPLACE.
        assert_eq!(
            split_stream_prefix(&[1, 1, b'a', 0, 0, 0], true),
            Err(StreamPrefixError::Truncated)
        );
        // Empty key.
        assert_eq!(
            split_stream_prefix(&[1, 0], false),
            Err(StreamPrefixError::EmptyKey)
        );
        // Oversized key: klen claims more than MAX_STREAM_KEY.
        let mut oversized = vec![1u8, (MAX_STREAM_KEY + 1) as u8];
        oversized.extend_from_slice(&[b'x'; MAX_STREAM_KEY + 1]);
        assert_eq!(
            split_stream_prefix(&oversized, false),
            Err(StreamPrefixError::KeyTooLong {
                len: MAX_STREAM_KEY + 1
            })
        );
        // Unassigned family code.
        assert_eq!(
            split_stream_prefix(&[9, 1, b'a'], false),
            Err(StreamPrefixError::BadFamily { found: 9 })
        );
    }
}
