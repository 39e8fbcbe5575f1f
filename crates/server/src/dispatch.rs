//! Dispatch: routing a validated frame to its handler. Ingest goes to
//! a stream's workers; merge and query go through one [`Slots`] map
//! each and, for queries, the one [`fan_in`] — v1 frames are the same
//! path addressed to the default stream (family 0) or to one of the
//! four engine-less per-family slot maps (families 1–4).

use crate::conn::Response;
use crate::frame::{
    split_stream_prefix, Frame, FrameType, NackCode, StreamPrefix, FLAG_REPLACE, FLAG_STREAM,
};
use crate::registry::{CreateError, StreamState};
use crate::slots::{fan_in, validate_envelope, Consumer, Fanned, Want};
use crate::worker::spawn_stream;
use crate::ServerCtx;
use bytes::Bytes;
use fcds_sketches::wire::SketchFamily;
use std::sync::atomic::Ordering;
use std::sync::mpsc::TrySendError;
use std::sync::Arc;

/// Routes one validated frame to its handler and produces the response.
pub(crate) fn dispatch_frame(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    match frame.ftype {
        FrameType::Ping => Response::new(FrameType::Pong, frame.seq, Vec::new()),
        FrameType::Ingest | FrameType::Merge if ctx.ctl.draining.load(Ordering::Acquire) => {
            Response::nack(frame.seq, NackCode::Draining, "server is draining", false)
        }
        FrameType::Ingest => handle_ingest(frame, ctx),
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

/// Splits a frame's payload into its v2 stream prefix (`None` on a v1
/// frame) and the v1-shaped body. The header check admits `REPLACE`
/// only on merges, so only they can carry a source id.
fn addressed(frame: &Frame) -> Result<(Option<StreamPrefix<'_>>, &[u8]), Response> {
    if frame.flags & FLAG_STREAM == 0 {
        return Ok((None, &frame.payload));
    }
    match split_stream_prefix(&frame.payload, frame.flags & FLAG_REPLACE != 0) {
        Ok((prefix, body)) => Ok((Some(prefix), body)),
        Err(e) => Err(Response::nack(
            frame.seq,
            NackCode::Malformed,
            &e.to_string(),
            false,
        )),
    }
}

/// Resolves a v2 stream prefix against the registry. `create` is true
/// for ingest/merge (create-on-first-use) and false for queries
/// ([`NackCode::UnknownStream`] instead).
fn resolve_stream(
    ctx: &Arc<ServerCtx>,
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
        let workers = ctx.cfg.stream_workers.max(1);
        match ctx.registry.get_or_create(prefix.key, prefix.family, || {
            spawn_stream(ctx, prefix.key, prefix.family, workers)
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

fn handle_ingest(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
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
    let stream = match prefix {
        Some(prefix) => match resolve_stream(ctx, frame.seq, &prefix, true) {
            Ok(stream) => stream,
            Err(nack) => return nack,
        },
        None => match ctx.default_stream() {
            Some(stream) => stream,
            None => {
                return Response::nack(
                    frame.seq,
                    NackCode::Internal,
                    "default stream missing",
                    false,
                )
            }
        },
    };
    let items: Vec<u64> = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    if items.is_empty() {
        return Response::ack(frame.seq);
    }
    ingest_into(&stream, items, ctx, frame.seq)
}

/// Routes one batch into `stream`'s workers: round-robin over live
/// workers with closed breakers; a full queue records a breaker failure
/// and tries the next. Failure NACKs are scoped to this stream — other
/// streams' workers and breakers are never consulted.
fn ingest_into(stream: &StreamState, items: Vec<u64>, ctx: &ServerCtx, seq: u16) -> Response {
    let n = stream.workers.len();
    let start = stream.next_worker.fetch_add(1, Ordering::Relaxed);
    let mut batch = items;
    let mut saw_full = false;
    let mut saw_open = false;
    for i in 0..n {
        let w = &stream.workers[(start + i) % n];
        if w.dead.load(Ordering::Acquire) {
            continue;
        }
        if !w.breaker.allow() {
            saw_open = true;
            continue;
        }
        match w.tx.try_send(batch) {
            Ok(()) => {
                ctx.stats.ingest_batches.fetch_add(1, Ordering::Relaxed);
                return Response::ack(seq);
            }
            Err(TrySendError::Full(b)) => {
                w.breaker.record_failure();
                saw_full = true;
                batch = b;
            }
            Err(TrySendError::Disconnected(b)) => {
                // Worker gone without marking dead (shouldn't happen,
                // but never wedge on it).
                w.dead.store(true, Ordering::Release);
                w.breaker.trip();
                batch = b;
            }
        }
    }
    ctx.stats.sheds.fetch_add(1, Ordering::Relaxed);
    if saw_full {
        Response::nack(
            seq,
            NackCode::Overload,
            "all ingest queues full; back off and retry",
            false,
        )
    } else if saw_open {
        Response::nack(
            seq,
            NackCode::BreakerOpen,
            "ingest breakers open; retry after cooldown",
            false,
        )
    } else {
        Response::nack(seq, NackCode::Internal, "no live ingest backend", false)
    }
}

fn handle_merge(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    let (prefix, body) = match addressed(&frame) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    // Validate before resolving: a NACKed frame must not create a
    // stream.
    let family = match validate_envelope(body, ctx.cfg.max_frame_payload) {
        Ok(f) => f,
        Err(e) => return Response::nack(frame.seq, NackCode::Wire, &e, false),
    };
    // Create-on-first-merge: a replica push materialises the stream on
    // the receiving peer before any local ingest.
    let stream = match &prefix {
        Some(prefix) if prefix.family != family => {
            return Response::nack(
                frame.seq,
                NackCode::FamilyMismatch,
                &format!(
                    "envelope is {}, stream is {}",
                    family.name(),
                    prefix.family.name()
                ),
                false,
            )
        }
        Some(prefix) => match resolve_stream(ctx, frame.seq, prefix, true) {
            Ok(stream) => Some(stream),
            Err(nack) => return nack,
        },
        None => None,
    };
    let slots = match &stream {
        Some(stream) => &stream.slots,
        None => ctx.v1_slots(family),
    };
    let source = prefix.and_then(|p| p.source);
    if slots.put(source, Bytes::from(body.to_vec())).is_err() {
        return Response::nack(frame.seq, NackCode::Overload, "slot map at capacity", false);
    }
    // Accumulated pushes are part of a stream's durable state; make the
    // checkpointer rewrite the snapshot even if `items` is unchanged.
    // (Replica slots are not: see `Consumer::Checkpoint`.)
    if let (Some(stream), None) = (&stream, source) {
        stream.snapshot_dirty.store(true, Ordering::Release);
    }
    ctx.stats.merges_accepted.fetch_add(1, Ordering::Relaxed);
    Response::ack(frame.seq)
}

fn handle_query(frame: Frame, ctx: &Arc<ServerCtx>) -> Response {
    let seq = frame.seq;
    let malformed = |detail: &str| Response::nack(seq, NackCode::Malformed, detail, false);
    let (prefix, body) = match addressed(&frame) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    let stream = match &prefix {
        Some(prefix) => match resolve_stream(ctx, seq, prefix, false) {
            Ok(stream) => Some(stream),
            Err(nack) => return nack,
        },
        None => None,
    };
    let &[kind, family] = body else {
        return malformed("query payload must be [kind, family]");
    };
    let Some(want) = Want::from_kind(kind) else {
        return malformed(if stream.is_some() {
            "unknown query kind"
        } else {
            "unknown query kind or family"
        });
    };
    let (family, images) = match (stream, family) {
        // v2: the family byte is redundant with the prefix and ignored.
        (Some(stream), _) => (stream.family, stream.images(Consumer::Query)),
        // v1 family 0 is the default stream, so boot-recovered and
        // pushed state is visible to v1 clients too.
        (None, 0) => match ctx.default_stream() {
            Some(stream) => (stream.family, stream.images(Consumer::Query)),
            // Only mid-drain, once the registry has been emptied.
            None => {
                return match want {
                    Want::Estimate => estimate_reply(seq, 0.0),
                    Want::Image => {
                        Response::nack(seq, NackCode::Internal, "default stream missing", false)
                    }
                }
            }
        },
        // v1 families 1–4: the engine-less per-family slot maps.
        (None, code) => match SketchFamily::from_code(code) {
            Some(family) => (family, ctx.v1_slots(family).collect(None, Consumer::Query)),
            None => return malformed("unknown query kind or family"),
        },
    };
    match fan_in(family, &images, want) {
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
