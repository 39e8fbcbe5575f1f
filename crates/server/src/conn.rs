//! Connections: the accept loop, the deadline-enforcing frame reader,
//! and the [`Response`] every handler produces.

use crate::dispatch::{dispatch_frame, ConnState};
use crate::frame::{
    check_payload, encode_frame, encode_nack_payload, parse_header, Frame, FrameType, HeaderError,
    NackCode, FRAME_HEADER_LEN,
};
use crate::{ServerCtx, POLL_INTERVAL};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Accepts connections until shutdown; each connection gets its own
/// thread wrapped in `catch_unwind`.
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
                let ctx2 = Arc::clone(&ctx);
                let spawned = std::thread::Builder::new()
                    .name(format!("fcds-conn-{conn_id}"))
                    .spawn(move || {
                        let ctx3 = Arc::clone(&ctx2);
                        let r = catch_unwind(AssertUnwindSafe(move || {
                            handle_connection(stream, &ctx2);
                        }));
                        if r.is_err() {
                            ctx3.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                        }
                        ctx3.stats.conns_closed.fetch_add(1, Ordering::Relaxed);
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
                        // Out of threads: shed this connection (the
                        // socket closes on drop) and keep accepting —
                        // resource exhaustion must not kill the server.
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
enum ReadEvent {
    /// A validated frame.
    Frame(Frame),
    /// A protocol violation; NACK with `err`'s code and close if
    /// `err.closes_connection()`.
    Bad { seq: u16, err: HeaderError },
    /// The peer closed (or the server is shutting down) — exit quietly.
    Closed,
    /// Mid-frame deadline blown: best-effort Timeout NACK, then close.
    TimedOut { seq: u16 },
}

/// Reads exactly `buf.len()` bytes, polling the shutdown flag and
/// enforcing `deadline` (set by the caller once a frame has started).
fn read_exact_ctl(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: &mut Option<Instant>,
    ctx: &ServerCtx,
) -> io::Result<ReadProgress> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(ReadProgress::Closed),
            Ok(n) => {
                filled += n;
                if deadline.is_none() {
                    *deadline = Some(Instant::now() + ctx.cfg.frame_deadline);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if ctx.ctl.shutdown.load(Ordering::Acquire) {
                    return Ok(ReadProgress::Closed);
                }
                if let Some(d) = *deadline {
                    if Instant::now() >= d {
                        return Ok(ReadProgress::TimedOut);
                    }
                }
                if filled == 0 {
                    // Idle between frames: not an error, keep polling.
                    return Ok(ReadProgress::Idle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadProgress::Done)
}

enum ReadProgress {
    Done,
    Idle,
    Closed,
    TimedOut,
}

/// Reads one frame (or classifies why one could not be read).
fn read_frame(stream: &mut TcpStream, ctx: &ServerCtx) -> io::Result<ReadEvent> {
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    let mut deadline: Option<Instant> = None;
    // Header: loop on Idle (no frame started yet).
    loop {
        match read_exact_ctl(stream, &mut header_bytes, &mut deadline, ctx)? {
            ReadProgress::Done => break,
            ReadProgress::Idle => continue,
            ReadProgress::Closed => return Ok(ReadEvent::Closed),
            ReadProgress::TimedOut => return Ok(ReadEvent::TimedOut { seq: 0 }),
        }
    }
    // Sequence number for NACKs even when validation fails (only
    // meaningful if the magic matched; 0 otherwise).
    let raw_seq = u16::from_le_bytes(header_bytes[6..8].try_into().expect("2 bytes"));
    let header = match parse_header(&header_bytes, ctx.cfg.max_frame_payload, true) {
        Ok(h) => h,
        Err(err) => {
            let seq = if matches!(err, HeaderError::BadMagic { .. }) {
                0
            } else {
                raw_seq
            };
            // For keep-open violations (unknown type, bad flags) the
            // framing is intact: skim the declared payload so the next
            // frame starts at a boundary. The declared length is still
            // capped before we trust it.
            if !err.closes_connection() {
                let declared = u32::from_le_bytes(header_bytes[8..12].try_into().expect("4 bytes"));
                if declared > ctx.cfg.max_frame_payload {
                    return Ok(ReadEvent::Bad {
                        seq,
                        err: HeaderError::PayloadTooLarge {
                            declared,
                            cap: ctx.cfg.max_frame_payload,
                        },
                    });
                }
                let mut discard = vec![0u8; declared as usize];
                loop {
                    match read_exact_ctl(stream, &mut discard, &mut deadline, ctx)? {
                        ReadProgress::Done => break,
                        ReadProgress::Idle => continue,
                        ReadProgress::Closed => return Ok(ReadEvent::Closed),
                        ReadProgress::TimedOut => return Ok(ReadEvent::TimedOut { seq }),
                    }
                }
            }
            return Ok(ReadEvent::Bad { seq, err });
        }
    };
    let mut payload = vec![0u8; header.payload_len as usize];
    loop {
        match read_exact_ctl(stream, &mut payload, &mut deadline, ctx)? {
            ReadProgress::Done => break,
            ReadProgress::Idle => continue,
            ReadProgress::Closed => return Ok(ReadEvent::Closed),
            ReadProgress::TimedOut => return Ok(ReadEvent::TimedOut { seq: header.seq }),
        }
    }
    if let Err(err) = check_payload(&header, &payload) {
        return Ok(ReadEvent::Bad {
            seq: header.seq,
            err,
        });
    }
    Ok(ReadEvent::Frame(Frame {
        ftype: header.ftype,
        flags: header.flags,
        seq: header.seq,
        payload,
    }))
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

/// Serves one connection until close/shutdown/fatal error. Returning
/// drops `conn`, which flushes this connection's engine writers.
fn handle_connection(mut stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(ctx.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut conn = ConnState::default();
    loop {
        let event = match read_frame(&mut stream, ctx) {
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
            ReadEvent::Frame(frame) => {
                ctx.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                dispatch_frame(frame, ctx, &mut conn)
            }
        };
        let close = response.close;
        if write_response(&mut stream, ctx, response).is_err() || close {
            return;
        }
    }
}

fn write_response(stream: &mut TcpStream, ctx: &ServerCtx, r: Response) -> io::Result<()> {
    if r.ftype == FrameType::Nack {
        ctx.stats.nacks.fetch_add(1, Ordering::Relaxed);
    }
    let bytes = encode_frame(r.ftype, r.seq, &r.payload);
    stream.write_all(&bytes)?;
    ctx.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    Ok(())
}
