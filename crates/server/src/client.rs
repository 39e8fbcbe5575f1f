//! A small synchronous client for the frame protocol.
//!
//! Shared by the loopback tests, the hostile-frame suite (via
//! [`Client::send_raw`]) and the `fcds-load` harness — one
//! implementation of framing on the client side, so a protocol change
//! breaks loudly in one place.
//!
//! The client speaks over any `Read + Write` byte stream (a
//! [`TcpStream`] unless said otherwise): [`Client::new`] takes one, and
//! [`Client::connect`] is `new` over a configured TCP connection. A
//! wrapper stream is how a test splits, stalls or damages the bytes of
//! one connection without a second hop. Every request is one
//! `write_all` of its whole frame, so a wrapper's first `write` call of
//! a request holds the whole frame.

use crate::frame::{
    check_payload, decode_nack_payload, encode_frame, encode_frame_flags, encode_stream_prefix,
    parse_header, FrameType, NackCode, FLAG_REPLACE, FLAG_STREAM, FRAME_HEADER_LEN,
};
use fcds_sketches::wire::SketchFamily;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A decoded server reply, one level above raw frames: NACK payloads
/// are parsed into their typed code, estimates into `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// [`FrameType::Pong`].
    Pong {
        /// Echoed sequence number.
        seq: u16,
    },
    /// [`FrameType::Ack`].
    Ack {
        /// Echoed sequence number.
        seq: u16,
    },
    /// [`FrameType::Nack`], payload decoded.
    Nack {
        /// Echoed sequence number.
        seq: u16,
        /// Typed rejection reason.
        code: NackCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// [`FrameType::Estimate`].
    Estimate {
        /// Echoed sequence number.
        seq: u16,
        /// The estimate.
        value: f64,
    },
    /// [`FrameType::Image`]: one fcds wire envelope.
    Image {
        /// Echoed sequence number.
        seq: u16,
        /// The wire image bytes.
        bytes: Vec<u8>,
    },
}

impl Reply {
    /// The echoed sequence number.
    pub fn seq(&self) -> u16 {
        match self {
            Reply::Pong { seq }
            | Reply::Ack { seq }
            | Reply::Nack { seq, .. }
            | Reply::Estimate { seq, .. }
            | Reply::Image { seq, .. } => *seq,
        }
    }

    /// The NACK code, if this is a NACK.
    pub fn nack_code(&self) -> Option<NackCode> {
        match self {
            Reply::Nack { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A blocking frame-protocol client over one byte stream, by default
/// a TCP connection.
pub struct Client<S = TcpStream> {
    stream: S,
    next_seq: u16,
    /// Reply payloads above this are refused (mirror of the server cap).
    max_reply_payload: u32,
}

impl Client {
    /// Connects, applies `timeout` to reads and writes and turns Nagle
    /// off: [`Client::new`] over the connection [`connect_tcp`] opens.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure I/O errors.
    pub fn connect<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Client> {
        connect_tcp(addr, timeout).map(Client::new)
    }
}

/// Opens the TCP connection [`Client::connect`] speaks over: `timeout`
/// on reads and writes, Nagle off. For a client over a wrapper of it.
///
/// # Errors
///
/// Propagates connect/configure I/O errors.
pub fn connect_tcp<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl<S: Read + Write> Client<S> {
    /// A client over `stream`, which already reaches the server: every
    /// request is written to it and every reply read from it.
    pub fn new(stream: S) -> Client<S> {
        Client {
            stream,
            next_seq: 1,
            max_reply_payload: 64 << 20,
        }
    }

    fn seq(&mut self) -> u16 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Writes raw bytes to the stream, bypassing the frame encoder —
    /// the hostile-frame tests build deliberately broken frames with
    /// this.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Sends one well-formed frame.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors.
    pub fn send_frame(&mut self, ftype: FrameType, payload: &[u8]) -> io::Result<u16> {
        let seq = self.seq();
        self.stream.write_all(&encode_frame(ftype, seq, payload))?;
        Ok(seq)
    }

    /// Sends one well-formed frame with explicit v2 flag bits.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors.
    pub fn send_frame_flags(
        &mut self,
        ftype: FrameType,
        flags: u8,
        payload: &[u8],
    ) -> io::Result<u16> {
        let seq = self.seq();
        self.stream
            .write_all(&encode_frame_flags(ftype, flags, seq, payload))?;
        Ok(seq)
    }

    /// Reads and validates one reply frame.
    ///
    /// # Errors
    ///
    /// I/O errors (including timeouts, surfaced as `WouldBlock`/
    /// `TimedOut`), `UnexpectedEof` if the server closed, or
    /// `InvalidData` for protocol violations in the reply.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let parsed = parse_header(&header, self.max_reply_payload, false)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut payload = vec![0u8; parsed.payload_len as usize];
        self.stream.read_exact(&mut payload)?;
        check_payload(&parsed, &payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let seq = parsed.seq;
        Ok(match parsed.ftype {
            FrameType::Pong => Reply::Pong { seq },
            FrameType::Ack => Reply::Ack { seq },
            FrameType::Nack => {
                let (code, detail) = decode_nack_payload(&payload).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "undecodable NACK payload")
                })?;
                Reply::Nack { seq, code, detail }
            }
            FrameType::Estimate => {
                let bits: [u8; 8] = payload.as_slice().try_into().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "estimate payload must be 8 bytes",
                    )
                })?;
                Reply::Estimate {
                    seq,
                    value: f64::from_bits(u64::from_le_bytes(bits)),
                }
            }
            FrameType::Image => Reply::Image {
                seq,
                bytes: payload,
            },
            // parse_header(client_side=false) admits only reply types.
            _ => unreachable!("direction check admitted a client-side type"),
        })
    }

    fn roundtrip(&mut self, ftype: FrameType, payload: &[u8]) -> io::Result<Reply> {
        self.send_frame(ftype, payload)?;
        self.read_reply()
    }

    /// PING → PONG (or NACK).
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.roundtrip(FrameType::Ping, &[])
    }

    /// Sends a batch of items for ingestion into the live engine.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn ingest(&mut self, items: &[u64]) -> io::Result<Reply> {
        let mut payload = Vec::with_capacity(items.len() * 8);
        for item in items {
            payload.extend_from_slice(&item.to_le_bytes());
        }
        self.roundtrip(FrameType::Ingest, &payload)
    }

    /// v1: merges one Θ wire envelope into the `default` stream's
    /// accumulating store. The image must share the server's seed; any
    /// other family is `FamilyMismatch`.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn merge(&mut self, image: &[u8]) -> io::Result<Reply> {
        self.roundtrip(FrameType::Merge, image)
    }

    /// v1: queries the estimate of (`default`, `family`), with `family`
    /// 0 an alias for Θ. `default` is a Θ stream, so 0 and 1 get the
    /// same reply and 2–4 get `FamilyMismatch`.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn query_estimate(&mut self, family: u8) -> io::Result<Reply> {
        self.roundtrip(FrameType::Query, &[0, family])
    }

    /// v1: queries the wire image of (`default`, `family`) (same family
    /// coding as [`Client::query_estimate`]).
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn query_image(&mut self, family: u8) -> io::Result<Reply> {
        self.roundtrip(FrameType::Query, &[1, family])
    }

    /// Asks the server to start draining.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn request_shutdown(&mut self) -> io::Result<Reply> {
        self.roundtrip(FrameType::Shutdown, &[])
    }

    fn roundtrip_flags(
        &mut self,
        ftype: FrameType,
        flags: u8,
        payload: &[u8],
    ) -> io::Result<Reply> {
        self.send_frame_flags(ftype, flags, payload)?;
        self.read_reply()
    }

    /// v2: ingests a batch into the named stream, creating it with
    /// `family` on first use.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn ingest_stream(
        &mut self,
        family: SketchFamily,
        key: &[u8],
        items: &[u64],
    ) -> io::Result<Reply> {
        let mut body = Vec::with_capacity(items.len() * 8);
        for item in items {
            body.extend_from_slice(&item.to_le_bytes());
        }
        let payload = encode_stream_prefix(family, key, None, &body);
        self.roundtrip_flags(FrameType::Ingest, FLAG_STREAM, &payload)
    }

    /// v2: merges one wire envelope into the named stream's
    /// accumulating store, creating the stream with `family` on first
    /// use.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn merge_stream(
        &mut self,
        family: SketchFamily,
        key: &[u8],
        image: &[u8],
    ) -> io::Result<Reply> {
        let payload = encode_stream_prefix(family, key, None, image);
        self.roundtrip_flags(FrameType::Merge, FLAG_STREAM, &payload)
    }

    /// v2 REPLACE: installs `image` as the stream's slot for replica
    /// `source`, replacing any earlier push from the same source (the
    /// idempotent replica-sync merge).
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn merge_stream_from(
        &mut self,
        family: SketchFamily,
        key: &[u8],
        source: u64,
        image: &[u8],
    ) -> io::Result<Reply> {
        let payload = encode_stream_prefix(family, key, Some(source), image);
        self.roundtrip_flags(FrameType::Merge, FLAG_STREAM | FLAG_REPLACE, &payload)
    }

    /// v2: queries the named stream's scalar estimate (live engine ∪
    /// recovered ∪ replica ∪ pushed slots).
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn query_stream_estimate(&mut self, family: SketchFamily, key: &[u8]) -> io::Result<Reply> {
        let payload = encode_stream_prefix(family, key, None, &[0, family.code()]);
        self.roundtrip_flags(FrameType::Query, FLAG_STREAM, &payload)
    }

    /// v2: queries the named stream's fanned-in wire image.
    ///
    /// # Errors
    ///
    /// See [`Client::read_reply`].
    pub fn query_stream_image(&mut self, family: SketchFamily, key: &[u8]) -> io::Result<Reply> {
        let payload = encode_stream_prefix(family, key, None, &[1, family.code()]);
        self.roundtrip_flags(FrameType::Query, FLAG_STREAM, &payload)
    }
}
