//! Dispatch: routing a validated frame to its handler. Every frame is
//! stream-addressed ([`addressed`]): a v1 frame is a v2 frame to
//! [`DEFAULT_STREAM`]. Ingest is applied in place, through the
//! connection's own engine writer for the stream ([`ConnState`]); a
//! merge goes into the stream's [`Slots`](crate::slots::Slots) map and a
//! query is [`StreamState::query`]: the engine's published estimate
//! for a stream with no slot, otherwise the one fan-in over its images.

use crate::conn::Response;
use crate::frame::{
    split_stream_prefix, Frame, FrameType, NackCode, StreamPrefix, FLAG_REPLACE, FLAG_STREAM,
};
use crate::registry::{new_stream, CreateError, StreamState};
use crate::slots::{validate_envelope, Fanned, Want};
use crate::{ServerCtx, DEFAULT_STREAM};
use bytes::Bytes;
use fcds_core::engine::EngineWriter;
use fcds_sketches::wire::SketchFamily;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// What a connection thread keeps between frames. The thread is one of
/// the paper's update threads on every stream it ingests into: it owns
/// one engine writer per stream, and dropping this (connection close)
/// flushes each writer and retires its slot.
#[derive(Default)]
pub(crate) struct ConnState {
    /// Stream key → the writer this connection holds on that stream.
    writers: HashMap<Vec<u8>, HeldWriter>,
    /// The decoded items of the frame in hand (reused, never shrunk).
    items: Vec<u64>,
}

struct HeldWriter {
    /// The stream the writer was taken from. A `Weak` is an identity
    /// token that pins the allocation, so pointer equality cannot be
    /// fooled by address reuse, but not the stream: an idle connection
    /// never keeps a retired stream's engine handle alive.
    of: Weak<StreamState>,
    writer: Box<dyn EngineWriter>,
}

/// The connection's writer on `stream`, registered on first use. A
/// writer held under the same key for another stream (the key was
/// retired and re-created) is dropped, which flushes and retires it,
/// as is every writer whose stream is gone: the map never outgrows the
/// registry by more than the streams retired since the last miss.
fn writer_for<'c>(
    writers: &'c mut HashMap<Vec<u8>, HeldWriter>,
    stream: &Arc<StreamState>,
) -> &'c mut dyn EngineWriter {
    let held = matches!(writers.get(&stream.key),
        Some(h) if Weak::as_ptr(&h.of) == Arc::as_ptr(stream));
    if !held {
        writers.retain(|_, h| h.of.strong_count() > 0);
        writers.insert(
            stream.key.clone(),
            HeldWriter {
                of: Arc::downgrade(stream),
                writer: stream.engine.writer(),
            },
        );
    }
    let held = writers.get_mut(&stream.key).expect("held or just inserted");
    held.writer.as_mut()
}

/// Routes one validated frame to its handler and produces the response.
pub(crate) fn dispatch_frame(frame: Frame, ctx: &ServerCtx, conn: &mut ConnState) -> Response {
    match frame.ftype {
        FrameType::Ping => Response::new(FrameType::Pong, frame.seq, Vec::new()),
        FrameType::Ingest | FrameType::Merge if ctx.ctl.draining.load(Ordering::Acquire) => {
            Response::nack(frame.seq, NackCode::Draining, "server is draining", false)
        }
        FrameType::Ingest => handle_ingest(frame, ctx, conn),
        FrameType::Merge => handle_merge(frame, ctx),
        FrameType::Query => handle_query(frame, ctx),
        FrameType::Shutdown => {
            ctx.ctl.drain_requested.store(true, Ordering::Release);
            ctx.ctl.draining.store(true, Ordering::Release);
            Response::ack(frame.seq)
        }
        // parse_header's direction check makes these unreachable, but
        // route them to a typed error rather than a panic if it ever
        // regresses.
        _ => Response::nack(
            frame.seq,
            NackCode::Malformed,
            "server-side frame type",
            false,
        ),
    }
}

/// Splits a frame's payload into its stream address and the v1-shaped
/// body. A v1 frame (flags 0) is addressed to [`DEFAULT_STREAM`]:
/// ingest and merge to Θ, a query `[kind, f]` to family `f`, with 0 an
/// alias for Θ. The header check admits `REPLACE` only on merges, so
/// only they can carry a source id.
fn addressed(frame: &Frame) -> Result<(StreamPrefix<'_>, &[u8]), Response> {
    let malformed = |detail: &str| Response::nack(frame.seq, NackCode::Malformed, detail, false);
    if frame.flags & FLAG_STREAM != 0 {
        return split_stream_prefix(&frame.payload, frame.flags & FLAG_REPLACE != 0)
            .map_err(|e| malformed(&e.to_string()));
    }
    let family = match (frame.ftype, &frame.payload[..]) {
        (FrameType::Query, &[_, code]) if code != 0 => {
            SketchFamily::from_code(code).ok_or_else(|| malformed("unknown query family"))?
        }
        _ => SketchFamily::Theta,
    };
    let prefix = StreamPrefix {
        family,
        key: DEFAULT_STREAM,
        source: None,
    };
    Ok((prefix, &frame.payload))
}

/// Resolves a stream address against the registry. `create` is true
/// for ingest/merge (create-on-first-use) and false for queries
/// ([`NackCode::UnknownStream`] instead).
fn resolve_stream(
    ctx: &ServerCtx,
    seq: u16,
    prefix: &StreamPrefix<'_>,
    create: bool,
) -> Result<Arc<StreamState>, Response> {
    let mismatch = |expected: SketchFamily| {
        Response::nack(
            seq,
            NackCode::FamilyMismatch,
            &format!(
                "stream was created as {}, frame declared {}",
                expected.name(),
                prefix.family.name()
            ),
            false,
        )
    };
    if create {
        match ctx.registry.get_or_create(prefix.key, prefix.family, || {
            new_stream(ctx, prefix.key, prefix.family)
        }) {
            Ok((stream, _created)) => Ok(stream),
            Err(CreateError::FamilyMismatch { expected }) => Err(mismatch(expected)),
            Err(CreateError::AtCapacity) => Err(Response::nack(
                seq,
                NackCode::Overload,
                "stream registry at capacity; retire a stream first",
                false,
            )),
            Err(CreateError::Build(e)) => Err(Response::nack(seq, NackCode::Internal, &e, false)),
        }
    } else {
        match ctx.registry.get(prefix.key) {
            Some(stream) if stream.family == prefix.family => Ok(stream),
            Some(stream) => Err(mismatch(stream.family)),
            None => Err(Response::nack(
                seq,
                NackCode::UnknownStream,
                "no such stream (queries never create streams)",
                false,
            )),
        }
    }
}

/// Applies one ingest frame on the calling (connection) thread: the
/// body goes through this connection's writer into the engine and is
/// flushed before the `Ack` is produced, so an `Ack` means the items
/// are inside the engine's `r = 2Nb` — the served path adds no
/// relaxation of its own.
fn handle_ingest(frame: Frame, ctx: &ServerCtx, conn: &mut ConnState) -> Response {
    let (prefix, body) = match addressed(&frame) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    // Reject before resolving: a NACKed frame must not create a stream.
    if !body.len().is_multiple_of(8) {
        return Response::nack(
            frame.seq,
            NackCode::Malformed,
            "ingest payload must be a whole number of u64 items",
            false,
        );
    }
    let stream = match resolve_stream(ctx, frame.seq, &prefix, true) {
        Ok(stream) => stream,
        Err(nack) => return nack,
    };
    if body.is_empty() {
        return Response::ack(frame.seq);
    }
    // Fail-stop per stream: once latched, refuse without touching the
    // engine. Other streams are never consulted.
    if stream.dead.load(Ordering::Acquire) {
        ctx.stats.sheds.fetch_add(1, Ordering::Relaxed);
        return Response::nack(
            frame.seq,
            NackCode::Internal,
            "stream ingest failed earlier; queries and merges still served",
            false,
        );
    }
    let ConnState { writers, items } = conn;
    items.clear();
    items.extend(
        body.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
    );
    let writer = writer_for(writers, &stream);
    // A panic (injected fault, engine bug) or a failed flush (dead
    // propagator) stops at this frame.
    let applied = catch_unwind(AssertUnwindSafe(|| {
        if let Some(poison) = ctx.cfg.fault_panic_on {
            if items.contains(&poison) {
                panic!("injected fault: poisoned ingest item {poison}");
            }
        }
        writer.ingest_batch(items);
        // Flush per frame: the hand-off is propagation this thread
        // performs anyway, and it is what lets the `Ack` mean "in the
        // engine" and surfaces a propagation fault on the frame that
        // hit it.
        writer.flush()
    }));
    let n = items.len() as u64;
    let fault = match applied {
        Ok(Ok(())) => {
            ctx.stats.ingest_items.fetch_add(n, Ordering::Relaxed);
            stream.items.fetch_add(n, Ordering::Relaxed);
            ctx.stats.ingest_batches.fetch_add(1, Ordering::Relaxed);
            return Response::ack(frame.seq);
        }
        Ok(Err(_)) => {
            ctx.stats.flush_errors.fetch_add(1, Ordering::Relaxed);
            "engine flush failed; batch not applied"
        }
        Err(_) => {
            ctx.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            "ingest panicked; batch not applied"
        }
    };
    // The writer may be mid-update: discard it, and latch the stream.
    writers.remove(&stream.key);
    stream.dead.store(true, Ordering::Release);
    Response::nack(frame.seq, NackCode::Internal, fault, false)
}

fn handle_merge(frame: Frame, ctx: &ServerCtx) -> Response {
    let (prefix, body) = match addressed(&frame) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    // Validate before resolving: a NACKed frame must not create a
    // stream.
    let key = match validate_envelope(body, ctx.cfg.max_frame_payload) {
        Ok(key) => key,
        Err(e) => return Response::nack(frame.seq, NackCode::Wire, &e, false),
    };
    let family = key.family();
    if prefix.family != family {
        return Response::nack(
            frame.seq,
            NackCode::FamilyMismatch,
            &format!(
                "envelope is {}, stream is {}",
                family.name(),
                prefix.family.name()
            ),
            false,
        );
    }
    // An image that cannot fan in with its stream's would make every
    // later read of the stream fail; a stream's images share its
    // engine's key.
    let target = ctx.engine_keys[(family.code() - 1) as usize];
    if key != target {
        let detail = format!("image cannot fan in with its target: {key:?} vs {target:?}");
        return Response::nack(frame.seq, NackCode::Wire, &detail, false);
    }
    // Create-on-first-merge: a replica push materialises the stream on
    // the receiving peer before any local ingest.
    let stream = match resolve_stream(ctx, frame.seq, &prefix, true) {
        Ok(stream) => stream,
        Err(nack) => return nack,
    };
    if stream
        .merge(prefix.source, Bytes::from(body.to_vec()))
        .is_err()
    {
        return Response::nack(frame.seq, NackCode::Overload, "slot map at capacity", false);
    }
    ctx.stats.merges_accepted.fetch_add(1, Ordering::Relaxed);
    Response::ack(frame.seq)
}

fn handle_query(frame: Frame, ctx: &ServerCtx) -> Response {
    let seq = frame.seq;
    let malformed = |detail: &str| Response::nack(seq, NackCode::Malformed, detail, false);
    let (prefix, body) = match addressed(&frame) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    // The family byte is the address of a v1 query and redundant with
    // the prefix of a v2 one. A malformed body is refused before the
    // stream is resolved, as ingest and merge do.
    let &[kind, _] = body else {
        return malformed("query payload must be [kind, family]");
    };
    let Some(want) = Want::from_kind(kind) else {
        return malformed("unknown query kind");
    };
    let stream = match resolve_stream(ctx, seq, &prefix, false) {
        Ok(stream) => stream,
        Err(nack) => return nack,
    };
    match stream.query(want) {
        Ok(Fanned::Estimate(value)) => estimate_reply(seq, value),
        Ok(Fanned::Image(bytes)) => Response::new(FrameType::Image, seq, bytes.as_ref().to_vec()),
        Ok(Fanned::NoEstimate) => Response::nack(
            seq,
            NackCode::Unsupported,
            "quantiles/frequency families have no scalar estimate; query the image",
            false,
        ),
        Err(e) => Response::nack(seq, NackCode::Wire, &e.to_string(), false),
    }
}

fn estimate_reply(seq: u16, value: f64) -> Response {
    Response::new(
        FrameType::Estimate,
        seq,
        value.to_bits().to_le_bytes().to_vec(),
    )
}
