//! Dispatch: routing a validated frame to its handler. Every frame is
//! stream-addressed ([`addressed`]): a v1 frame is a v2 frame to
//! [`DEFAULT_STREAM`]. Ingest is applied in place, through the
//! connection's own engine writer for the stream ([`ConnState`]); a
//! merge goes into the stream's [`Slots`](crate::slots::Slots) map and a
//! query is [`StreamState::query`]: the engine's published estimate
//! for a stream with no slot, otherwise the one fan-in over its images.

use crate::conn::Response;
use crate::frame::{
    split_stream_prefix, FrameType, NackCode, ParsedHeader, StreamPrefix, FLAG_REPLACE, FLAG_STREAM,
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
    /// The writer on the stream this connection ingested into last.
    hot: Option<Hot>,
    /// Stream key → the writer this connection holds on every other
    /// stream.
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

/// The hot writer, with the registry generation its stream was last
/// resolved at: while the generation holds, no stream was created,
/// retired or drained since, so the stream is still the one registered
/// under `key` and a frame to it needs neither the registry nor the map.
struct Hot {
    generation: u64,
    key: Vec<u8>,
    held: HeldWriter,
}

impl ConnState {
    /// The stream `prefix` addresses, if it is the hot one and the
    /// registry is still at `generation`.
    fn hot_stream(&self, generation: u64, prefix: &StreamPrefix<'_>) -> Option<Arc<StreamState>> {
        let hot = self.hot.as_ref()?;
        if hot.generation != generation || hot.key != prefix.key {
            return None;
        }
        hot.held.of.upgrade().filter(|s| s.family == prefix.family)
    }
}

/// The connection's writer on `stream`, resolved at registry
/// `generation`, made the hot one. The writer it displaces goes into
/// the map (or is dropped, if its stream is gone). A writer held under
/// the same key for another stream (the key was retired and re-created)
/// is dropped, which flushes and retires it, as is every writer whose
/// stream is gone: the map never outgrows the registry by more than the
/// streams retired since the last miss.
fn writer_for<'c>(
    hot: &'c mut Option<Hot>,
    writers: &mut HashMap<Vec<u8>, HeldWriter>,
    generation: u64,
    stream: &Arc<StreamState>,
) -> &'c mut dyn EngineWriter {
    let of_stream = |h: &HeldWriter| Weak::as_ptr(&h.of) == Arc::as_ptr(stream);
    if !hot.as_ref().is_some_and(|h| of_stream(&h.held)) {
        if let Some(old) = hot.take().filter(|h| h.held.of.strong_count() > 0) {
            writers.insert(old.key, old.held);
        }
        let (key, held) = match writers.remove_entry(&stream.key) {
            Some((key, held)) if of_stream(&held) => (key, held),
            _ => {
                writers.retain(|_, h| h.of.strong_count() > 0);
                let held = HeldWriter {
                    of: Arc::downgrade(stream),
                    writer: stream.engine.writer(),
                };
                (stream.key.clone(), held)
            }
        };
        *hot = Some(Hot {
            generation,
            key,
            held,
        });
    }
    let hot = hot.as_mut().expect("hot or just made hot");
    hot.generation = generation;
    hot.held.writer.as_mut()
}

/// Routes one validated frame to its handler and produces the response.
pub(crate) fn dispatch_frame(
    header: &ParsedHeader,
    payload: &[u8],
    ctx: &ServerCtx,
    conn: &mut ConnState,
) -> Response {
    let seq = header.seq;
    match header.ftype {
        FrameType::Ping => Response::new(FrameType::Pong, seq, Vec::new()),
        FrameType::Ingest | FrameType::Merge if ctx.ctl.draining.load(Ordering::Acquire) => {
            Response::nack(seq, NackCode::Draining, "server is draining", false)
        }
        FrameType::Ingest => handle_ingest(header, payload, ctx, conn),
        FrameType::Merge => handle_merge(header, payload, ctx),
        FrameType::Query => handle_query(header, payload, ctx),
        FrameType::Shutdown => {
            ctx.ctl.drain_requested.store(true, Ordering::Release);
            ctx.ctl.draining.store(true, Ordering::Release);
            Response::ack(seq)
        }
        // parse_header's direction check makes these unreachable, but
        // route them to a typed error rather than a panic if it ever
        // regresses.
        _ => Response::nack(seq, NackCode::Malformed, "server-side frame type", false),
    }
}

/// Splits a frame's payload into its stream address and the v1-shaped
/// body. A v1 frame (flags 0) is addressed to [`DEFAULT_STREAM`]:
/// ingest and merge to Θ, a query `[kind, f]` to family `f`, with 0 an
/// alias for Θ. The header check admits `REPLACE` only on merges, so
/// only they can carry a source id.
fn addressed<'p>(
    header: &ParsedHeader,
    payload: &'p [u8],
) -> Result<(StreamPrefix<'p>, &'p [u8]), Response> {
    let malformed = |detail: &str| Response::nack(header.seq, NackCode::Malformed, detail, false);
    if header.flags & FLAG_STREAM != 0 {
        return split_stream_prefix(payload, header.flags & FLAG_REPLACE != 0)
            .map_err(|e| malformed(&e.to_string()));
    }
    let family = match (header.ftype, payload) {
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
    Ok((prefix, payload))
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
fn handle_ingest(
    header: &ParsedHeader,
    payload: &[u8],
    ctx: &ServerCtx,
    conn: &mut ConnState,
) -> Response {
    let seq = header.seq;
    let (prefix, body) = match addressed(header, payload) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    // Reject before resolving: a NACKed frame must not create a stream.
    if !body.len().is_multiple_of(8) {
        return Response::nack(
            seq,
            NackCode::Malformed,
            "ingest payload must be a whole number of u64 items",
            false,
        );
    }
    // Read before resolving: a stream resolved now is registered at
    // least until the generation moves.
    let generation = ctx.registry.generation();
    let stream = match conn.hot_stream(generation, &prefix) {
        Some(stream) => stream,
        None => match resolve_stream(ctx, seq, &prefix, true) {
            Ok(stream) => stream,
            Err(nack) => return nack,
        },
    };
    if body.is_empty() {
        return Response::ack(seq);
    }
    // Fail-stop per stream: once latched, refuse without touching the
    // engine. Other streams are never consulted.
    if stream.dead.load(Ordering::Acquire) {
        ctx.stats.sheds.fetch_add(1, Ordering::Relaxed);
        return Response::nack(
            seq,
            NackCode::Internal,
            "stream ingest failed earlier; queries and merges still served",
            false,
        );
    }
    let ConnState {
        hot,
        writers,
        items,
    } = conn;
    items.clear();
    items.extend(
        body.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
    );
    let writer = writer_for(hot, writers, generation, &stream);
    // A panic (engine bug) or a failed flush (dead propagator) stops at
    // this frame.
    let applied = catch_unwind(AssertUnwindSafe(|| {
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
            return Response::ack(seq);
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
    // The writer (the hot one) may be mid-update: discard it, and latch
    // the stream.
    *hot = None;
    stream.dead.store(true, Ordering::Release);
    Response::nack(seq, NackCode::Internal, fault, false)
}

fn handle_merge(header: &ParsedHeader, payload: &[u8], ctx: &ServerCtx) -> Response {
    let seq = header.seq;
    let (prefix, body) = match addressed(header, payload) {
        Ok(split) => split,
        Err(nack) => return nack,
    };
    // Validate before resolving: a NACKed frame must not create a
    // stream.
    let key = match validate_envelope(body, ctx.cfg.max_frame_payload) {
        Ok(key) => key,
        Err(e) => return Response::nack(seq, NackCode::Wire, &e, false),
    };
    let family = key.family();
    if prefix.family != family {
        return Response::nack(
            seq,
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
        return Response::nack(seq, NackCode::Wire, &detail, false);
    }
    // Create-on-first-merge: a replica push materialises the stream on
    // the receiving peer before any local ingest.
    let stream = match resolve_stream(ctx, seq, &prefix, true) {
        Ok(stream) => stream,
        Err(nack) => return nack,
    };
    if stream
        .merge(prefix.source, Bytes::from(body.to_vec()))
        .is_err()
    {
        return Response::nack(seq, NackCode::Overload, "slot map at capacity", false);
    }
    ctx.stats.merges_accepted.fetch_add(1, Ordering::Relaxed);
    Response::ack(seq)
}

fn handle_query(header: &ParsedHeader, payload: &[u8], ctx: &ServerCtx) -> Response {
    let seq = header.seq;
    let malformed = |detail: &str| Response::nack(seq, NackCode::Malformed, detail, false);
    let (prefix, body) = match addressed(header, payload) {
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
