//! `fcds-server`: a fault-tolerant network tier in front of the
//! concurrent sketch engine.
//!
//! Thread-per-connection over `std::net` (no async runtime — the build
//! environment is offline and the engine's hot path is synchronous
//! anyway), speaking the length-prefixed [`frame`] protocol whose
//! payloads are the sketch wire envelopes plus a raw batch-ingest
//! frame. Robustness is the design center:
//!
//! * **Deadlines** — every connection has a mid-frame read deadline and
//!   a write timeout, so a stalled or severed peer can hold a thread
//!   for at most one frame.
//! * **One relaxation** — connection threads are the paper's update
//!   threads (Algorithm 2): each holds its own engine writer per stream
//!   and applies an ingest frame in place — `ingest_batch`, `flush`,
//!   then the `Ack`. An `Ack` therefore means the items are inside the
//!   engine's `r = 2Nb`, with `N` the connections holding a writer on
//!   that stream ([`stream_relaxation`]); the served path adds nothing
//!   to it. Backpressure is
//!   the closed loop itself: nothing is acked before it is applied, so
//!   nothing queues.
//! * **Fault isolation** — each ingest runs under `catch_unwind`. A
//!   poisoned batch, or a `FlushError` from a dead *propagator* (the
//!   engine-level fault), gets [`frame::NackCode::Internal`] on the
//!   frame that hit it and latches that stream's ingest shut
//!   (fail-stop per stream); its queries and merges, and every other
//!   stream, carry on. Connection threads run under a second
//!   `catch_unwind`, so a panic anywhere else kills at most the
//!   connection it is on.
//! * **Graceful drain** — [`ServerHandle::shutdown`] stops admitting
//!   ingest, closes the listener and joins every connection thread
//!   (each flushes its writers as it goes), quiesces every engine
//!   (republishing images), writes the final checkpoint and returns a
//!   [`DrainReport`].
//!
//! # Multi-stream service (FCF1 v2)
//!
//! One server hosts many named streams, each a [`fcds_core::engine::
//! StreamEngine`] of any sketch family, looked up through the
//! [`registry`](StreamInfo) by the stream key carried on v2 frames
//! ([`frame::FLAG_STREAM`]). Streams are created on first ingest or
//! merge with the frame's declared family, are isolated from each other
//! (one fault latch per stream, no thread), and can be
//! retired at runtime ([`ServerHandle::retire_stream`]). A v1 frame
//! (flags 0) is a v2 frame with the address implied: ingest and merge
//! go to the built-in [`DEFAULT_STREAM`] Θ stream, and a query `[kind,
//! f]` to (`default`, `f`), with `f` = 0 an alias for Θ. There is one
//! kind of stream and one merge surface.
//!
//! # One slot map, one fan-in
//!
//! Whatever a stream holds besides its live engine — the image
//! recovered at boot, the newest image per replica source, every
//! accumulated merge — is a validated wire image in one ordered,
//! bounded slot map. An estimate of a stream with no slot (a query's or
//! the drain's final one) is the engine's published snapshot, as in
//! the paper's Algorithm 1 query. Anything with a slot, and every image
//! (image queries, the checkpointer, the replica pusher), is the
//! fan-in: the live image merged with the slot classes that consumer
//! sees, using the family's multiway merge kernel. The paper's composability
//! requirement is exactly this: `merge` over snapshots is the only way
//! state is combined. Checkpoints and replica pushes leave through one
//! shipper loop (`ship`), which skips the streams its sink holds.
//!
//! **Replica sync**: configure [`ServerConfig::replica_peer`] and the
//! server ships what it holds for each stream that changed (live ∪
//! recovered) to the peer as a v2 REPLACE merge
//! ([`frame::FLAG_REPLACE`]) keyed by
//! [`ServerConfig::replica_source_id`]. The peer keeps the newest image
//! per source, so two servers ingesting disjoint substreams converge on
//! the union within one sync period. Replacement — not accumulation —
//! is what keeps re-pushes idempotent for the families whose merges
//! are not (Quantiles concat, Misra–Gries counter addition).
//!
//! # Module map
//!
//! * `config`, `stats` — [`ServerConfig`]; the one counter table behind
//!   [`StatsSnapshot`].
//! * `clock` — the server's one clock, read by the frame deadline and
//!   the shipper's schedule: `Instant::now` in production, a manual
//!   clock in the crate's tests.
//! * `conn` → `dispatch` — accept loop, the connection loop over any
//!   `Read + Write` byte stream and its deadline-enforcing frame
//!   reader; per-frame-type handlers (ingest, merge, query) and the
//!   connection's engine writers.
//! * [`serve_with`] and [`Seams`] — the one substitution point: a
//!   snapshot store and an [`EngineHook`] applied to every stream
//!   engine the registry builds (identity in production; the
//!   fault-injection drills wrap engines that panic or fail to flush).
//! * `registry` — the key → stream map and stream construction.
//! * `slots` — the image-slot map, envelope validation, the fan-in.
//! * `ship`, [`persist`], [`recover`] — the shipper loop and the
//!   replica peer's sink; the checkpointer's sink and snapshot format;
//!   boot-time recovery.
//! * [`frame`], [`client`] — the wire protocol and a client for it.
//! * `crc` — the frame checksum (CRC-32C) and the snapshot one (IEEE).

pub mod client;
mod clock;
mod config;
mod conn;
mod crc;
mod dispatch;
pub mod frame;
pub mod persist;
pub mod recover;
mod registry;
mod ship;
mod slots;
mod stats;

pub use client::{Client, Reply};
pub use config::ServerConfig;
pub use frame::{FrameType, NackCode};
pub use persist::{DirStore, FsyncPolicy, SnapshotStore};
pub use recover::{RecoverError, RecoveryOutcome, SnapshotRecord};
pub use registry::{stream_relaxation, StreamInfo};
pub use stats::StatsSnapshot;

use crate::clock::Clock;
use crate::registry::Registry;
use crate::slots::{Consumer, FaninKey, Fanned, Want};
use crate::stats::Stats;
use fcds_core::engine::StreamEngine;
use fcds_sketches::wire::SketchFamily;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked socket reads and idle loops wake up to check the
/// shutdown/drain flags. A frame deadline is checked at each such
/// wake-up and after every read that leaves a frame unfinished, so a
/// quiet peer is cut within one interval of its deadline and a trickling
/// one at the first read past it.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The key of the built-in Θ stream every v1 frame is routed to. Always
/// present; cannot be retired.
pub const DEFAULT_STREAM: &[u8] = b"default";

/// Run-state flags shared by every thread of the server.
#[derive(Debug, Default)]
struct Control {
    /// Stop admitting ingest/merge work (queries still served).
    draining: AtomicBool,
    /// Tear everything down: listener, connections.
    shutdown: AtomicBool,
    /// A client sent a `Shutdown` frame; the embedder (e.g. the binary)
    /// polls this and calls [`ServerHandle::shutdown`].
    drain_requested: AtomicBool,
    /// Stops both shippers ahead of the drain path's final checkpoint
    /// pass, so exactly one writer touches the store during teardown.
    ship_stop: AtomicBool,
}

/// Everything a connection thread needs.
struct ServerCtx {
    cfg: ServerConfig,
    ctl: Control,
    stats: Stats,
    registry: Registry,
    /// Per family, the fan-in key every stream's images share, read once
    /// at start off an empty engine's image.
    engine_keys: [FaninKey; 4],
    /// The snapshot store of the durability tier (`None` when
    /// persistence is off).
    persist: Option<Arc<dyn SnapshotStore>>,
    /// Applied to every stream engine as it is built ([`Seams::engine`]).
    engine_hook: EngineHook,
    /// The one clock of the frame deadlines and the shippers.
    clock: Clock,
}

/// Replaces a stream engine the registry has just built: the engine
/// seam of [`serve_with`].
pub type EngineHook = fn(Box<dyn StreamEngine>) -> Box<dyn StreamEngine>;

/// What [`serve_with`] substitutes for the server's own parts.
/// `Default` is no store and the identity hook, so every stream runs
/// the engine the registry built.
pub struct Seams {
    /// The snapshot store of the durability tier. `Some` enables it
    /// regardless of [`ServerConfig::data_dir`]; fault-injection tests
    /// substitute stores that fail with ENOSPC, short writes or fsync
    /// errors.
    pub store: Option<Arc<dyn SnapshotStore>>,
    /// Applied to every stream engine as the registry builds it;
    /// fault-injection tests wrap the engine in one that panics or fails
    /// its flush on demand.
    pub engine: EngineHook,
}

impl Default for Seams {
    fn default() -> Self {
        Seams {
            store: None,
            engine: |engine| engine,
        }
    }
}

/// Why [`serve`] could not start. Startup is all-or-nothing: on any
/// variant every thread spawned so far has been joined — a spawn
/// failure can never leak a half-started server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Binding (or inspecting) the listener failed.
    Bind(io::Error),
    /// The built-in default stream could not be created.
    DefaultStream(String),
    /// Opening the snapshot directory failed.
    Store(io::Error),
    /// The boot-time snapshot scan failed outright (individual bad
    /// records never cause this — they are quarantined).
    Recover(String),
    /// A server thread could not be spawned.
    Spawn {
        /// Which thread (`"accept loop"`, `"replica pusher"`,
        /// `"checkpointer"`).
        what: &'static str,
        /// The OS error.
        source: io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind listener: {e}"),
            ServeError::DefaultStream(e) => write!(f, "create default stream: {e}"),
            ServeError::Store(e) => write!(f, "open snapshot directory: {e}"),
            ServeError::Recover(e) => write!(f, "recover snapshots: {e}"),
            ServeError::Spawn { what, source } => write!(f, "spawn {what}: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind(e) | ServeError::Store(e) | ServeError::Spawn { source: e, .. } => {
                Some(e)
            }
            ServeError::DefaultStream(_) | ServeError::Recover(_) => None,
        }
    }
}

impl From<ServeError> for io::Error {
    fn from(e: ServeError) -> io::Error {
        match e {
            ServeError::Bind(e) | ServeError::Store(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }
}

/// The running server: owns the accept loop and its connection
/// threads, the stream registry, the optional replica pusher and the
/// optional checkpointer. Obtain via [`serve`]; stop via
/// [`Self::shutdown`] (or drop, which performs an abrupt but still
/// joined teardown).
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    accept_join: Option<JoinHandle<()>>,
    shipper_joins: Vec<JoinHandle<()>>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
    recovery: Option<RecoveryOutcome>,
    drained: bool,
}

/// Outcome of a graceful drain: how cleanly the server went down.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DrainReport {
    /// Threads that could not be joined (must be 0 — anything else is a
    /// leak).
    pub leaked_threads: usize,
    /// Final counter snapshot.
    pub stats: StatsSnapshot,
    /// Final estimate of the live engine after quiesce.
    pub final_estimate: f64,
}

/// Starts the server: binds the listener, builds the default Θ stream,
/// recovers every valid snapshot from
/// [`ServerConfig::data_dir`] (when set) **before accepting traffic**,
/// then starts the checkpointer/replica-pusher background threads and
/// the accept loop.
///
/// # Errors
///
/// Every startup failure — bind, engine build, snapshot-scan I/O,
/// thread spawn — is a typed [`ServeError`]; nothing on this path
/// panics, and on error every thread spawned so far has been joined.
pub fn serve(cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
    let store: Option<Arc<dyn SnapshotStore>> = match &cfg.data_dir {
        Some(dir) => Some(Arc::new(DirStore::new(dir).map_err(ServeError::Store)?)),
        None => None,
    };
    serve_with(
        cfg,
        Seams {
            store,
            ..Seams::default()
        },
    )
}

/// [`serve`] with the parts [`Seams`] names substituted: the snapshot
/// store (`None` turns persistence off whatever
/// [`ServerConfig::data_dir`] says) and the engine hook.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with(cfg: ServerConfig, seams: Seams) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Bind)?;
    let addr = listener.local_addr().map_err(ServeError::Bind)?;
    listener.set_nonblocking(true).map_err(ServeError::Bind)?;
    // The default stream is built by the same factory: if this fails,
    // so would it.
    let engine_keys = registry::engine_keys(cfg.lg_k).map_err(ServeError::DefaultStream)?;

    let max_streams = cfg.max_streams.max(1);
    let ctx = Arc::new(ServerCtx {
        cfg,
        ctl: Control::default(),
        stats: Stats::default(),
        registry: Registry::new(max_streams),
        engine_keys,
        persist: seams.store,
        engine_hook: seams.engine,
        clock: Clock::System,
    });

    // Joins any already-running background threads so a failed startup
    // never leaks a thread.
    let abort_start = |ctx: &Arc<ServerCtx>, joins: Vec<JoinHandle<()>>| {
        ctx.ctl.draining.store(true, Ordering::Release);
        ctx.ctl.ship_stop.store(true, Ordering::Release);
        ctx.ctl.shutdown.store(true, Ordering::Release);
        for j in joins {
            let _ = j.join();
        }
    };

    if let Err(e) = ctx
        .registry
        .get_or_create(DEFAULT_STREAM, SketchFamily::Theta, || {
            registry::new_stream(&ctx, DEFAULT_STREAM, SketchFamily::Theta)
        })
    {
        abort_start(&ctx, Vec::new());
        return Err(ServeError::DefaultStream(format!("{e:?}")));
    }

    // Recover before anything can observe the registry: by the time the
    // accept loop exists, every valid snapshot is a live stream.
    let recovery = match ctx.persist.clone() {
        Some(snap_store) => match recover::recover_streams(&ctx, &*snap_store) {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                abort_start(&ctx, Vec::new());
                return Err(ServeError::Recover(e));
            }
        },
        None => None,
    };

    let spawn_named = |name: &str, f: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new().name(name.to_string()).spawn(f)
    };

    // One shipper thread per configured sink, so a peer that blocks
    // for `write_timeout` never holds a checkpoint back.
    type Shipped = Box<dyn ship::Sink + Send>;
    let checkpoints = ctx.persist.clone().map(|store| Box::new(store) as Shipped);
    let pusher =
        (ctx.cfg.replica_peer.clone()).map(|peer| Box::new(ship::Peer::new(peer)) as Shipped);
    let sinks = [
        (
            "fcds-checkpoint",
            "checkpointer",
            ctx.cfg.snapshot_interval,
            checkpoints,
        ),
        (
            "fcds-replica-push",
            "replica pusher",
            ctx.cfg.replica_interval,
            pusher,
        ),
    ];
    let mut shipper_joins = Vec::new();
    for (name, what, interval, sink) in sinks {
        let Some(mut sink) = sink else { continue };
        let ctx2 = Arc::clone(&ctx);
        match spawn_named(
            name,
            Box::new(move || ship::shipper(ctx2, &mut *sink, interval)),
        ) {
            Ok(j) => shipper_joins.push(j),
            Err(source) => {
                abort_start(&ctx, shipper_joins);
                return Err(ServeError::Spawn { what, source });
            }
        }
    }

    let conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_join = {
        let ctx2 = Arc::clone(&ctx);
        let conn_joins2 = Arc::clone(&conn_joins);
        match spawn_named(
            "fcds-accept",
            Box::new(move || conn::accept_loop(listener, ctx2, conn_joins2)),
        ) {
            Ok(j) => j,
            Err(source) => {
                abort_start(&ctx, shipper_joins);
                return Err(ServeError::Spawn {
                    what: "accept loop",
                    source,
                });
            }
        }
    };

    Ok(ServerHandle {
        ctx,
        addr,
        accept_join: Some(accept_join),
        shipper_joins,
        conn_joins,
        recovery,
        drained: false,
    })
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.ctx.stats.snapshot()
    }

    /// What boot-time recovery did (`None` when persistence is off).
    pub fn recovery_outcome(&self) -> Option<&RecoveryOutcome> {
        self.recovery.as_ref()
    }

    /// Whether any stream's ingest is latched shut (an ingest panicked
    /// or a flush hit a dead propagator) — degraded but still serving.
    pub fn is_degraded(&self) -> bool {
        self.ctx
            .registry
            .list()
            .iter()
            .any(|s| s.dead.load(Ordering::Acquire))
    }

    /// Whether some client requested a drain with a `Shutdown` frame.
    pub fn drain_requested(&self) -> bool {
        self.ctx.ctl.drain_requested.load(Ordering::Acquire)
    }

    /// Every live stream: key, family, items ingested, durability lag.
    pub fn list_streams(&self) -> Vec<StreamInfo> {
        self.ctx
            .registry
            .list()
            .iter()
            .map(|s| {
                let items = s.items.load(Ordering::Relaxed);
                let last_persisted_seq = s.mark(Consumer::Checkpoint).seq();
                StreamInfo {
                    key: s.key.clone(),
                    family: s.family,
                    items,
                    last_persisted_seq,
                    snapshot_lag: items.saturating_sub(last_persisted_seq),
                }
            })
            .collect()
    }

    /// Retires a stream: removes it from the registry, quiesces its
    /// engine and deletes its snapshot. Returns `false` for the default
    /// stream (not retirable) or an unknown key. A later v2
    /// ingest/merge under the same key creates a fresh stream.
    pub fn retire_stream(&self, key: &[u8]) -> bool {
        if key == DEFAULT_STREAM {
            return false;
        }
        let Some(state) = self.ctx.registry.retire(key) else {
            return false;
        };
        // An ingest that raced the removal lands in an engine that is
        // being discarded either way.
        state.engine.quiesce();
        // Retirement is permanent: drop the snapshot too, so a restart
        // cannot resurrect the retired stream.
        if let Some(store) = &self.ctx.persist {
            let _ = store.remove(&persist::snapshot_file_name(key));
        }
        self.ctx
            .stats
            .streams_retired
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Gracefully drains and stops the server:
    ///
    /// 1. stop admitting ingest/merge (`Draining` NACKs from here on)
    ///    and stop the checkpointer and the replica pusher;
    /// 2. close the listener and every connection, joining their
    ///    threads — each flushes its engine writers as it exits, so
    ///    everything acked is handed to an engine;
    /// 3. quiesce every engine (merges every hand-off, republishes
    ///    images), take the final estimate and write the final
    ///    checkpoint.
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> DrainReport {
        self.drained = true;
        self.ctx.ctl.draining.store(true, Ordering::Release);

        // Hand snapshot writing over to this thread: stop and join the
        // shippers *before* the final post-quiesce checkpoints, so a
        // stale concurrent round can never overwrite a final record.
        self.ctx.ctl.ship_stop.store(true, Ordering::Release);
        let mut leaked_threads = 0usize;
        for j in self.shipper_joins.drain(..) {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }

        // The connection threads hold the engine writers: join them
        // before quiescing, so every acked item has been handed off.
        self.ctx.ctl.shutdown.store(true, Ordering::Release);
        if let Some(j) = self.accept_join.take() {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }
        let joins = {
            let mut g = self.conn_joins.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for j in joins {
            if j.join().is_err() {
                leaked_threads += 1;
            }
        }

        let mut final_estimate = 0.0f64;
        let streams = self.ctx.registry.drain_all();
        for state in &streams {
            // Writers are flushed and gone; merge what is in flight
            // and republish every shard image.
            state.engine.quiesce();
            if state.key == DEFAULT_STREAM {
                // Answer like a query: the published snapshot, or the
                // fan-in when a slot (e.g. boot-recovered state) exists.
                final_estimate = match state.query(Want::Estimate) {
                    Ok(Fanned::Estimate(value)) => value,
                    _ => state.engine.estimate().unwrap_or(0.0),
                };
            }
        }
        // Final checkpoint after quiesce: a *graceful* shutdown is
        // zero-loss, the bounded-loss window applies to crashes only.
        if let Some(mut store) = self.ctx.persist.clone() {
            ship::ship_round(&self.ctx, &mut store, &streams);
        }

        DrainReport {
            leaked_threads,
            stats: self.ctx.stats.snapshot(),
            final_estimate,
        }
    }
}

/// A server context with no thread and no store, on `clock`.
#[cfg(test)]
fn test_ctx(clock: Clock) -> ServerCtx {
    let cfg = ServerConfig::default();
    ServerCtx {
        engine_keys: registry::engine_keys(cfg.lg_k).unwrap(),
        cfg,
        ctl: Control::default(),
        stats: Stats::default(),
        registry: Registry::new(8),
        persist: None,
        engine_hook: Seams::default().engine,
        clock,
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.drained {
            let _ = self.shutdown_inner();
        }
    }
}
