//! Connections: the accept loop, the connection loop over any byte
//! stream, the deadline-enforcing frame reader, and the [`Response`]
//! every handler produces.

use crate::clock::Clock;
use crate::dispatch::{dispatch_frame, ConnState};
use crate::frame::{
    check_payload, encode_frame_into, encode_nack_payload, parse_header, FrameType, HeaderError,
    NackCode, ParsedHeader, FRAME_HEADER_LEN,
};
use crate::{ServerCtx, POLL_INTERVAL};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accepts connections until shutdown; each connection gets its own
/// thread wrapped in `catch_unwind`. A socket's read timeout is the
/// [`POLL_INTERVAL`] at which its connection loop checks the shutdown
/// flag and the frame deadline.
pub(crate) fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_id = 0u64;
    loop {
        if ctx.ctl.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                conn_id += 1;
                ctx.stats.conns_opened.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_write_timeout(Some(ctx.cfg.write_timeout));
                let _ = stream.set_nodelay(true);
                // Shared with the thread, so that the connection can
                // still be refused if the thread cannot be spawned.
                let stream = Arc::new(stream);
                let (ctx2, stream2) = (Arc::clone(&ctx), Arc::clone(&stream));
                let spawned = std::thread::Builder::new()
                    .name(format!("fcds-conn-{conn_id}"))
                    .spawn(move || {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&*stream2, &ctx2);
                        }));
                        if r.is_err() {
                            ctx2.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                        }
                        ctx2.stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(handle) => {
                        let mut joins = conn_joins.lock().unwrap_or_else(|e| e.into_inner());
                        // Reap finished threads so the vec stays bounded
                        // by the number of *live* connections.
                        joins.retain(|j| !j.is_finished());
                        joins.push(handle);
                    }
                    Err(_) => {
                        // Out of threads: refuse this connection, close
                        // it and keep accepting — resource exhaustion
                        // must not kill the server, and a write that
                        // would block must not stall the accept loop.
                        let _ = stream.set_nonblocking(true);
                        refuse(&*stream, &ctx);
                        ctx.stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => {
                // Transient accept errors (aborted handshakes) — retry.
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// What the frame reader produced.
#[derive(Debug)]
pub(crate) enum ReadEvent<'b> {
    /// A validated, checksum-verified frame. Its payload borrows the
    /// reader's buffer until the next [`FrameReader::next`].
    Frame(ParsedHeader, &'b [u8]),
    /// A protocol violation; NACK with `err`'s code and close if
    /// `err.closes_connection()`.
    Bad { seq: u16, err: HeaderError },
    /// The peer closed (or the server is shutting down) — exit quietly.
    Closed,
    /// Mid-frame deadline blown: best-effort Timeout NACK, then close.
    TimedOut { seq: u16 },
}

/// What a [`FrameReader`] buffer shrinks back to: a 4 KiB ingest frame
/// and the start of the next fit.
const BASE_BUF: usize = 8 * 1024;

/// A keep-open violation whose declared payload is still arriving.
struct Skip {
    /// Bytes of the frame not yet received.
    left: usize,
    seq: u16,
    err: HeaderError,
}

/// Reads frames off one connection into one receive buffer and hands
/// each out in place. A `read` takes whatever has arrived, so one call
/// usually brings in a whole frame, and often the next one too; a
/// frame's length is checked against the cap before the buffer grows
/// for it, and the buffer drops back to [`BASE_BUF`] after a larger one.
///
/// The mid-frame deadline runs, on the server's [`Clock`], from the
/// arrival of a frame's first byte, also when that byte came in with
/// the previous frame's `read`. It is checked only after a `read` that
/// leaves the frame unfinished, so bytes that have already arrived are
/// always taken in first.
pub(crate) struct FrameReader<R> {
    src: R,
    /// Received bytes `start..end` are not yet consumed; `buf.len()` is
    /// the room there is to read into.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Length of the frame the last [`FrameReader::next`] returned,
    /// consumed by the next call.
    lent: usize,
    skip: Option<Skip>,
    /// When the frame in hand started arriving (`None` between frames).
    started: Option<Instant>,
    /// When the last `read` that returned bytes did.
    last_read: Instant,
    max_payload: u32,
    deadline: Duration,
    clock: Clock,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(src: R, max_payload: u32, deadline: Duration, clock: Clock) -> Self {
        FrameReader {
            src,
            buf: vec![0; BASE_BUF],
            start: 0,
            end: 0,
            lent: 0,
            skip: None,
            started: None,
            last_read: clock.now(),
            max_payload,
            deadline,
            clock,
        }
    }

    /// The byte stream, for writing replies between frames.
    fn get_mut(&mut self) -> &mut R {
        &mut self.src
    }

    /// Reads until it has the next frame, violation, close or timeout.
    /// `shutdown` is polled whenever the peer is quiet.
    ///
    /// # Errors
    ///
    /// A hard I/O error of the source.
    pub(crate) fn next(&mut self, shutdown: &AtomicBool) -> io::Result<ReadEvent<'_>> {
        let lent = std::mem::take(&mut self.lent);
        if lent > 0 {
            self.consume(lent);
        }
        // Whether this call has read bytes that left the frame unfinished.
        let mut read = false;
        let (header, total) = loop {
            let have = self.end - self.start;
            if let Some(skip) = &mut self.skip {
                let n = skip.left.min(have);
                skip.left -= n;
                if skip.left > 0 {
                    // Drop what is buffered; the rest of the frame is
                    // read into the whole buffer.
                    self.start = 0;
                    self.end = 0;
                } else {
                    let Skip { seq, err, .. } = self.skip.take().expect("skipping");
                    self.consume(n);
                    return Ok(ReadEvent::Bad { seq, err });
                }
            } else if have >= FRAME_HEADER_LEN {
                let bytes = self.buf[self.start..self.start + FRAME_HEADER_LEN]
                    .try_into()
                    .expect("16 bytes");
                match parse_header(bytes, self.max_payload, true) {
                    Ok(header) => {
                        let total = FRAME_HEADER_LEN + header.payload_len as usize;
                        if have >= total {
                            break (header, total);
                        }
                        self.make_room(total);
                    }
                    Err(err) => {
                        if let Some(event) = self.violation(bytes_seq(bytes), err) {
                            return Ok(event);
                        }
                        continue;
                    }
                }
            } else {
                self.make_room(FRAME_HEADER_LEN);
            }
            if read && self.expired() {
                return Ok(self.timed_out());
            }
            if let Some(event) = self.fill(shutdown)? {
                return Ok(event);
            }
            read = true;
        };
        let payload = self.start + FRAME_HEADER_LEN..self.start + total;
        if let Err(err) = check_payload(&header, &self.buf[payload.clone()]) {
            self.consume(total);
            return Ok(ReadEvent::Bad {
                seq: header.seq,
                err,
            });
        }
        self.lent = total;
        Ok(ReadEvent::Frame(header, &self.buf[payload]))
    }

    /// Classifies a header that failed to parse. A violation that
    /// closes the connection is returned at once; a keep-open one
    /// (unknown type, bad flags) starts skipping its declared payload,
    /// capped before it is trusted, so the next frame starts at a
    /// boundary.
    fn violation(&mut self, raw_seq: u16, err: HeaderError) -> Option<ReadEvent<'static>> {
        // The sequence number is meaningful only if the magic matched.
        let seq = if matches!(err, HeaderError::BadMagic { .. }) {
            0
        } else {
            raw_seq
        };
        if err.closes_connection() {
            return Some(ReadEvent::Bad { seq, err });
        }
        let at = self.start + 8;
        let declared = u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes"));
        if declared > self.max_payload {
            let cap = self.max_payload;
            let err = HeaderError::PayloadTooLarge { declared, cap };
            return Some(ReadEvent::Bad { seq, err });
        }
        let left = FRAME_HEADER_LEN + declared as usize;
        self.skip = Some(Skip { left, seq, err });
        None
    }

    /// Consumes the first `n` buffered bytes, which end a frame. The
    /// next frame's deadline starts with the bytes already here, and a
    /// buffer grown for a larger frame drops back to its base size.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        self.started = (self.start < self.end).then_some(self.last_read);
        if self.buf.len() > BASE_BUF && self.end - self.start <= BASE_BUF {
            self.compact();
            self.buf.truncate(BASE_BUF);
            self.buf.shrink_to_fit();
        }
    }

    /// Makes room for `total` bytes from `start`: `total` is a header
    /// length or a validated frame's, never more than the cap allows.
    fn make_room(&mut self, total: usize) {
        if self.start + total > self.buf.len() {
            self.compact();
            if total > self.buf.len() {
                self.buf.resize(total, 0);
            }
        }
    }

    /// Moves the unconsumed bytes to the front of the buffer.
    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    /// Reads into the free end of the buffer until bytes come in
    /// (`None`) or the wait ends: the peer closed, the server is
    /// shutting down, or the peer went quiet after the frame in hand
    /// ran out of time.
    fn fill(&mut self, shutdown: &AtomicBool) -> io::Result<Option<ReadEvent<'static>>> {
        loop {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(Some(ReadEvent::Closed)),
                Ok(n) => {
                    self.end += n;
                    self.last_read = self.clock.now();
                    self.started.get_or_insert(self.last_read);
                    return Ok(None);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::Acquire) {
                        return Ok(Some(ReadEvent::Closed));
                    }
                    if self.expired() {
                        return Ok(Some(self.timed_out()));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether the frame in hand has run out of time.
    fn expired(&self) -> bool {
        self.started
            .is_some_and(|started| self.clock.now().duration_since(started) >= self.deadline)
    }

    /// The Timeout event of the frame in hand. Its sequence number is
    /// the skipped frame's, a buffered (valid) header's, or 0 before the
    /// header is complete.
    fn timed_out(&self) -> ReadEvent<'static> {
        let seq = match &self.skip {
            Some(skip) => skip.seq,
            None if self.end - self.start >= FRAME_HEADER_LEN => {
                bytes_seq(&self.buf[self.start..self.start + FRAME_HEADER_LEN])
            }
            None => 0,
        };
        ReadEvent::TimedOut { seq }
    }

    /// The buffer's allocated size.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// The sequence number field of a frame header.
fn bytes_seq(header: &[u8]) -> u16 {
    u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"))
}

/// One response frame to write back.
pub(crate) struct Response {
    ftype: FrameType,
    seq: u16,
    payload: Vec<u8>,
    /// Close the connection after writing.
    close: bool,
}

impl Response {
    /// A reply that keeps the connection open.
    pub(crate) fn new(ftype: FrameType, seq: u16, payload: Vec<u8>) -> Response {
        Response {
            ftype,
            seq,
            payload,
            close: false,
        }
    }

    pub(crate) fn ack(seq: u16) -> Response {
        Response::new(FrameType::Ack, seq, Vec::new())
    }

    pub(crate) fn nack(seq: u16, code: NackCode, detail: &str, close: bool) -> Response {
        Response {
            close,
            ..Response::new(FrameType::Nack, seq, encode_nack_payload(code, detail))
        }
    }
}

/// Serves one connection over `stream` until close/shutdown/fatal
/// error. A `read` that reports `WouldBlock` or `TimedOut` is a quiet
/// peer: the loop checks the shutdown flag and the frame deadline and
/// reads again. Returning drops `conn`, which flushes this connection's
/// engine writers.
fn handle_connection<S: Read + Write>(stream: S, ctx: &ServerCtx) {
    let mut reader = FrameReader::new(
        stream,
        ctx.cfg.max_frame_payload,
        ctx.cfg.frame_deadline,
        ctx.clock.clone(),
    );
    let mut conn = ConnState::default();
    let mut out = Vec::new();
    loop {
        let event = match reader.next(&ctx.ctl.shutdown) {
            Ok(e) => e,
            Err(_) => return, // hard I/O error: nothing sane to send
        };
        let response = match event {
            ReadEvent::Closed => return,
            ReadEvent::TimedOut { seq } => {
                ctx.stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                Response::nack(
                    seq,
                    NackCode::Timeout,
                    "mid-frame read deadline blown",
                    true,
                )
            }
            ReadEvent::Bad { seq, err } => Response::nack(
                seq,
                err.nack_code(),
                &err.to_string(),
                err.closes_connection(),
            ),
            ReadEvent::Frame(header, payload) => {
                ctx.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                dispatch_frame(&header, payload, ctx, &mut conn)
            }
        };
        if write_response(reader.get_mut(), ctx, &response, &mut out).is_err() || response.close {
            return;
        }
    }
}

/// Refuses a connection no thread could be spawned for: a best-effort
/// `Overload` NACK (seq 0), since a refusal is always typed.
fn refuse<S: Write>(stream: S, ctx: &ServerCtx) {
    let nack = Response::nack(
        0,
        NackCode::Overload,
        "no connection thread available; retry later",
        true,
    );
    let _ = write_response(stream, ctx, &nack, &mut Vec::new());
}

/// Encodes `r` into `out`, the connection's one reply buffer, and
/// writes it. A buffer grown for an image reply drops back to its base
/// size.
fn write_response<S: Write>(
    mut stream: S,
    ctx: &ServerCtx,
    r: &Response,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    if r.ftype == FrameType::Nack {
        ctx.stats.nacks.fetch_add(1, Ordering::Relaxed);
    }
    encode_frame_into(out, r.ftype, 0, r.seq, &r.payload);
    let written = stream.write_all(out);
    out.clear();
    out.shrink_to(BASE_BUF);
    written?;
    ctx.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Reply};
    use crate::clock::Manual;
    use crate::frame::{encode_frame, encode_frame_flags, FLAG_STREAM};
    use std::collections::VecDeque;
    use std::io::Cursor;

    /// A frame deadline no test run reaches.
    const NO_DEADLINE: Duration = Duration::from_secs(600);

    /// One step of xorshift64 (`state` must be non-zero).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// How a [`Script`] hands out its bytes.
    #[derive(Debug, Clone, Copy)]
    enum Delivery {
        /// As much as the reader has room for, per `read`.
        Whole,
        /// One byte per `read`.
        Bytewise,
        /// Seeded chunks of 1 byte up to 16 KiB, several frames each at
        /// the long end, with `WouldBlock` between some of them.
        Chunks(u64),
    }

    /// A byte stream delivered as [`Delivery`] says, then EOF.
    struct Script {
        bytes: Vec<u8>,
        at: usize,
        delivery: Delivery,
        /// Whether the next `read` reports `WouldBlock`.
        stall: bool,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.stall) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let left = self.bytes.len() - self.at;
            let n = match self.delivery {
                Delivery::Whole => left,
                Delivery::Bytewise => 1,
                Delivery::Chunks(ref mut rng) => {
                    let cap = 1usize << (xorshift(rng) % 15);
                    self.stall = xorshift(rng).is_multiple_of(3);
                    1 + (xorshift(rng) as usize) % cap
                }
            };
            let n = n.min(left).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// An owned copy of a [`ReadEvent`].
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Frame(FrameType, u8, u16, Vec<u8>),
        Bad(u16, NackCode),
        Closed,
        TimedOut(u16),
    }

    /// Every event `reader` yields, up to the first that ends the
    /// connection.
    fn drain<R: Read>(reader: &mut FrameReader<R>) -> Vec<Seen> {
        let shutdown = AtomicBool::new(false);
        let mut seen = Vec::new();
        loop {
            let event = match reader.next(&shutdown).expect("scripted reads do not fail") {
                ReadEvent::Frame(h, payload) => {
                    Seen::Frame(h.ftype, h.flags, h.seq, payload.to_vec())
                }
                ReadEvent::Bad { seq, err } if !err.closes_connection() => {
                    Seen::Bad(seq, err.nack_code())
                }
                ReadEvent::Bad { seq, err } => {
                    seen.push(Seen::Bad(seq, err.nack_code()));
                    return seen;
                }
                ReadEvent::Closed => {
                    seen.push(Seen::Closed);
                    return seen;
                }
                ReadEvent::TimedOut { seq } => {
                    seen.push(Seen::TimedOut(seq));
                    return seen;
                }
            };
            seen.push(event);
        }
    }

    /// A seeded byte stream of valid frames (some past the base buffer
    /// size), keep-open violations, checksum mismatches and a trailing
    /// partial frame, with the events it must yield.
    fn mixed_stream(seed: u64) -> (Vec<u8>, Vec<Seen>) {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || xorshift(&mut rng);
        let (mut bytes, mut want) = (Vec::new(), Vec::new());
        for i in 0..48u16 {
            let len = match next() % 8 {
                0 => 0,
                1 => (next() % 20_000) as usize,
                _ => (next() % 3_000) as usize,
            };
            let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let (ftype, flags) = match next() % 4 {
                0 => (FrameType::Ping, 0),
                1 => (FrameType::Ingest, FLAG_STREAM),
                2 => (FrameType::Merge, 0),
                _ => (FrameType::Query, FLAG_STREAM),
            };
            let mut frame = encode_frame_flags(ftype, flags, i, &payload);
            match next() % 6 {
                0 => {
                    frame[5] = 0x80;
                    want.push(Seen::Bad(i, NackCode::Malformed));
                }
                1 => {
                    frame[4] = 0x3F;
                    want.push(Seen::Bad(i, NackCode::Malformed));
                }
                2 if len > 0 => {
                    frame[FRAME_HEADER_LEN + (next() as usize) % len] ^= 0x10;
                    want.push(Seen::Bad(i, NackCode::Checksum));
                }
                _ => want.push(Seen::Frame(ftype, flags, i, payload)),
            }
            bytes.extend_from_slice(&frame);
        }
        let partial = encode_frame(FrameType::Ingest, 999, &[7u8; 64]);
        let cut = 1 + (next() as usize) % (partial.len() - 1);
        bytes.extend_from_slice(&partial[..cut]);
        want.push(Seen::Closed);
        (bytes, want)
    }

    #[test]
    fn frames_do_not_depend_on_how_reads_are_split() {
        // The proptest shim does not shrink: a failure names its seed
        // and delivery, which `mixed_stream` and `Script` replay.
        for seed in 1..=8u64 {
            println!("fragmented frame stream: seed {seed}");
            let (bytes, want) = mixed_stream(seed);
            for delivery in [
                Delivery::Whole,
                Delivery::Bytewise,
                Delivery::Chunks(seed | 1),
                Delivery::Chunks(!seed),
            ] {
                let script = Script {
                    bytes: bytes.clone(),
                    at: 0,
                    delivery,
                    stall: false,
                };
                let mut reader = FrameReader::new(script, 64 * 1024, NO_DEADLINE, Clock::System);
                assert_eq!(drain(&mut reader), want, "seed {seed}, {delivery:?}");
                assert_eq!(reader.capacity(), BASE_BUF, "seed {seed}, {delivery:?}");
            }
        }
    }

    #[test]
    fn a_large_frame_grows_the_buffer_and_small_ones_shrink_it_back() {
        let big: Vec<u8> = (0..1 << 20).map(|i: u32| (i % 251) as u8).collect();
        let mut bytes = encode_frame(FrameType::Merge, 1, &big);
        for seq in 2..5 {
            bytes.extend_from_slice(&encode_frame(FrameType::Ping, seq, b"small"));
        }
        let script = Script {
            bytes,
            at: 0,
            delivery: Delivery::Chunks(0x5EED),
            stall: false,
        };
        let mut reader = FrameReader::new(script, 1 << 20, NO_DEADLINE, Clock::System);
        let shutdown = AtomicBool::new(false);
        match reader.next(&shutdown).unwrap() {
            ReadEvent::Frame(h, payload) => {
                assert_eq!((h.ftype, h.seq), (FrameType::Merge, 1));
                assert!(payload == &big[..]);
            }
            other => panic!("expected the merge, got {other:?}"),
        }
        assert!(reader.capacity() >= FRAME_HEADER_LEN + big.len());
        for seq in 2..5 {
            assert!(matches!(reader.next(&shutdown).unwrap(),
                ReadEvent::Frame(h, b"small") if h.seq == seq));
            assert_eq!(reader.capacity(), BASE_BUF);
        }
        assert!(matches!(reader.next(&shutdown).unwrap(), ReadEvent::Closed));
    }

    #[test]
    fn oversized_declared_lengths_never_grow_the_buffer() {
        // A valid header over the cap, and a keep-open violation (bad
        // flags) whose declared payload is over it: both close.
        let mut valid = encode_frame(FrameType::Ingest, 5, &[]);
        valid[8..12].copy_from_slice(&(3u32 << 30).to_le_bytes());
        let mut flagged = valid.clone();
        flagged[5] = 0x80;
        for header in [valid, flagged] {
            let script = Script {
                bytes: header,
                at: 0,
                delivery: Delivery::Whole,
                stall: false,
            };
            let mut reader = FrameReader::new(script, 64 * 1024, NO_DEADLINE, Clock::System);
            assert_eq!(
                drain(&mut reader),
                [Seen::Bad(5, NackCode::PayloadTooLarge)]
            );
            assert_eq!(reader.capacity(), BASE_BUF);
        }
    }

    /// A peer on a [`Manual`] clock, seen through a socket whose read
    /// timeout is [`POLL_INTERVAL`]: a `read` waits on the clock for the
    /// next chunk to arrive and returns it, or, if none arrives within
    /// the timeout, moves the clock on by it and reports `WouldBlock`.
    /// After the last chunk the peer stays quiet. What the server writes
    /// back is kept.
    struct Timeline {
        clock: Arc<Manual>,
        t0: Instant,
        /// The chunks still to come, each with its arrival after `t0`.
        chunks: VecDeque<(Duration, Vec<u8>)>,
        written: Vec<u8>,
    }

    impl Timeline {
        fn new(clock: &Arc<Manual>, chunks: Vec<(Duration, Vec<u8>)>) -> Timeline {
            Timeline {
                clock: Arc::clone(clock),
                t0: clock.now(),
                chunks: chunks.into(),
                written: Vec::new(),
            }
        }

        /// Time on the clock since the timeline started.
        fn elapsed(&self) -> Duration {
            self.clock.now() - self.t0
        }
    }

    impl Read for Timeline {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            // A deadline that never fires fails the test, not hangs it.
            assert!(
                self.elapsed() < Duration::from_secs(3600),
                "read past an hour"
            );
            let wait_until = self.clock.now() + POLL_INTERVAL;
            match self.chunks.front_mut() {
                Some((due, bytes)) if self.t0 + *due <= wait_until => {
                    self.clock.advance_to(self.t0 + *due);
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    bytes.drain(..n);
                    if bytes.is_empty() {
                        self.chunks.pop_front();
                    }
                    Ok(n)
                }
                _ => {
                    self.clock.advance(POLL_INTERVAL);
                    Err(io::ErrorKind::WouldBlock.into())
                }
            }
        }
    }

    impl Write for Timeline {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A reader of `chunks` on a fresh manual clock.
    fn timed(
        chunks: Vec<(Duration, Vec<u8>)>,
        max_payload: u32,
        deadline: Duration,
    ) -> (Arc<Manual>, FrameReader<Timeline>) {
        let (clock, server_clock) = Manual::new();
        let script = Timeline::new(&clock, chunks);
        let reader = FrameReader::new(script, max_payload, deadline, server_clock);
        (clock, reader)
    }

    #[test]
    fn a_trickled_frame_times_out_even_if_no_read_ever_waits() {
        // One byte per read, 2 ms apart, and never a `WouldBlock`: the
        // deadline is checked after every read that leaves the frame
        // unfinished, not only when the peer goes quiet.
        let frame = encode_frame(FrameType::Ingest, 7, &[0; 4096]);
        let step = Duration::from_millis(2);
        let chunks = (0u32..).zip(frame).map(|(i, b)| (step * i, vec![b]));
        let deadline = Duration::from_millis(100);
        let (_clock, mut reader) = timed(chunks.collect(), 8192, deadline);
        assert_eq!(drain(&mut reader), [Seen::TimedOut(7)]);
    }

    #[test]
    fn a_stalled_frame_times_out_from_its_first_buffered_byte() {
        // The first frame's last byte comes half a deadline after its
        // first, with the first 20 bytes of the next frame; then nothing
        // more comes. The second frame's deadline runs from that read,
        // not from the first frame's start.
        let first = encode_frame(FrameType::Ping, 1, &[0; 32]);
        let mut rest = first[1..].to_vec();
        rest.extend_from_slice(&encode_frame(FrameType::Ingest, 2, &[0; 64])[..20]);
        let deadline = Duration::from_millis(200);
        let late = deadline / 2;
        let chunks = vec![(Duration::ZERO, first[..1].to_vec()), (late, rest)];
        let (_clock, mut reader) = timed(chunks, 1024, deadline);
        let seen = drain(&mut reader);
        assert_eq!(
            seen,
            [
                Seen::Frame(FrameType::Ping, 0, 1, vec![0; 32]),
                Seen::TimedOut(2)
            ]
        );
        let elapsed = reader.get_mut().elapsed();
        assert!(elapsed >= late + deadline, "cut after {elapsed:?}");
    }

    #[test]
    fn bytes_that_arrived_in_time_are_read_after_the_deadline() {
        // The next frame starts arriving with the first one and its rest
        // is waiting too, but the reader comes back for it only after
        // the deadline (a slow dispatch): it reads before it judges.
        let second = encode_frame(FrameType::Ingest, 2, &[9; 64]);
        let mut head = encode_frame(FrameType::Ping, 1, b"");
        head.extend_from_slice(&second[..20]);
        let chunks = vec![
            (Duration::ZERO, head),
            (Duration::ZERO, second[20..].to_vec()),
        ];
        let deadline = Duration::from_millis(20);
        let (clock, mut reader) = timed(chunks, 1024, deadline);
        let shutdown = AtomicBool::new(false);
        assert!(matches!(reader.next(&shutdown).unwrap(),
            ReadEvent::Frame(h, b"") if h.seq == 1));
        clock.advance(deadline * 2);
        assert!(matches!(reader.next(&shutdown).unwrap(),
            ReadEvent::Frame(h, p) if h.seq == 2 && p == [9; 64]));
    }

    /// Every reply in `written`, in order.
    fn replies(written: Vec<u8>) -> Vec<Reply> {
        let mut client = Client::new(Cursor::new(written));
        let mut out = Vec::new();
        loop {
            match client.read_reply() {
                Ok(reply) => out.push(reply),
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return out,
                Err(e) => panic!("a malformed reply: {e}"),
            }
        }
    }

    #[test]
    fn a_whole_connection_is_served_in_memory_on_the_manual_clock() {
        // An ingest + ping + query volley in one read, then the first 20
        // bytes of another ingest frame and nothing more.
        let (clock, server_clock) = Manual::new();
        let ctx = crate::test_ctx(server_clock);
        let items: Vec<u8> = (1..=100u64).flat_map(u64::to_le_bytes).collect();
        let mut volley = encode_frame(FrameType::Ingest, 1, &items);
        volley.extend_from_slice(&encode_frame(FrameType::Ping, 2, b""));
        volley.extend_from_slice(&encode_frame(FrameType::Query, 3, &[0, 0]));
        let partial = encode_frame(FrameType::Ingest, 4, &[5; 64])[..20].to_vec();
        let arrives = Duration::from_millis(1);
        let chunks = vec![(Duration::ZERO, volley), (arrives, partial)];
        let mut peer = Timeline::new(&clock, chunks);
        handle_connection(&mut peer, &ctx);

        let elapsed = peer.elapsed();
        let got = replies(peer.written);
        assert_eq!(got.len(), 4, "{got:?}");
        assert!(matches!(got[0], Reply::Ack { seq: 1 }), "{:?}", got[0]);
        assert!(matches!(got[1], Reply::Pong { seq: 2 }), "{:?}", got[1]);
        match got[2] {
            Reply::Estimate { seq: 3, value } => assert_eq!(value, 100.0),
            ref other => panic!("expected the estimate, got {other:?}"),
        }
        assert_eq!(got[3].seq(), 4);
        assert_eq!(got[3].nack_code(), Some(NackCode::Timeout));
        // Cut at the first poll past the deadline of the partial frame.
        let deadline = ctx.cfg.frame_deadline;
        assert!(elapsed >= arrives + deadline, "cut after {elapsed:?}");
        assert!(
            elapsed < arrives + deadline + POLL_INTERVAL,
            "cut after {elapsed:?}"
        );
        let stats = ctx.stats.snapshot();
        assert_eq!((stats.frames_in, stats.frames_out), (3, 4));
        assert_eq!((stats.read_timeouts, stats.nacks), (1, 1));
        assert_eq!(stats.ingest_items, 100);
    }

    #[test]
    fn a_connection_without_a_thread_is_refused_with_a_typed_nack() {
        let ctx = crate::test_ctx(Clock::System);
        let mut written = Vec::new();
        refuse(&mut written, &ctx);
        let got = replies(written);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].seq(), 0);
        assert_eq!(got[0].nack_code(), Some(NackCode::Overload));
        let stats = ctx.stats.snapshot();
        assert_eq!((stats.nacks, stats.frames_out), (1, 1));
    }
}
