//! The generic concurrent sketch engine — Algorithm 2 of the paper,
//! generalised to a K-way sharded global.
//!
//! [`ConcurrentSketch`] wires together:
//!
//! * `N` update threads, each owning a [`SketchWriter`] with a
//!   double-buffered local sketch (`localS_i[2]`, `cur_i`), round-robined
//!   onto `K` **shards** (independent global sketches with their own
//!   views and worker registries);
//! * propagation, which merges handed-off local buffers into their shard
//!   and piggy-backs hints on the `prop_i` atomics (lines 110–115), run
//!   as [`ConcurrencyConfig::backend`] selects:
//!   [`PropagationBackendKind::DedicatedThread`] — the paper's background
//!   thread `t0`, one per shard — or
//!   [`PropagationBackendKind::WriterAssisted`], which has no threads at
//!   all: the flushing writer drains its shard under a try-lock;
//! * any number of query threads reading snapshots from the shards'
//!   published views (lines 116–118), merged losslessly across shards
//!   ([`GlobalSketch::merge_shard_views`]), never blocking on and never
//!   blocked by ingestion;
//! * the adaptive eager phase of §5.3: while the total stream is shorter
//!   than `2/e²`, update threads write straight into their shard's global
//!   (serialised by the shard lock) so small streams suffer no relaxation
//!   error.
//!
//! With double buffering enabled (the default) this is `OptParSketch` and
//! a query may miss at most `r = 2Nb` preceding updates (Theorem 1); with
//! it disabled it is the unoptimised `ParSketch` with `r = Nb` (Lemma 1).
//! Sharding does not change either bound: the relaxation is carried by
//! the writers' in-flight buffers, of which there are at most two per
//! writer regardless of which shard the writer is keyed onto.
//!
//! ## The ingestion hot path: scalar and batched
//!
//! Once the Θ-style hint filter engages, almost every update dies on the
//! writer thread, so the per-update constant factor on
//! [`SketchWriter::update`] *is* the system's throughput ceiling. Two
//! mechanisms keep it low:
//!
//! * **Scalar micro-state.** The `shouldAdd` ablation switch is cached in
//!   the writer at construction (it never changes), and the one-way
//!   `EAGER → LAZY` phase flip of §5.3 is latched in a writer-local bool
//!   the first time the writer observes `LAZY` — so the steady-state
//!   scalar path performs no `Acquire` phase load and no shared-config
//!   deref per item, just two predictable local branches.
//! * **[`SketchWriter::update_batch`].** The batched path additionally
//!   hoists the *hint* out of the loop: a chunk of up to `b` items is
//!   filtered against one hint read, survivors are compacted branchlessly
//!   and appended to the local buffer in one reserved extend
//!   ([`LocalSketch::update_batch_filtered`]).
//! * **Inline merges.** When the buffer fills with items of the same call
//!   still to go, a writer-assisted writer first tries its shard lock. If
//!   it wins, it drains the shard's pending hand-offs (its own included),
//!   fills its current buffer with up to `INLINE_SLICE` (1 024) items of
//!   the call, merges and publishes once, and goes on to the next slice
//!   the same way — even a remainder shorter than `b`. If it loses, the
//!   buffer is handed off at the `b`-boundary exactly like the scalar
//!   path, and so is the rest of the call until a later boundary wins
//!   the lock. The dedicated backend always hands off: its propagator is
//!   the paper's `t0`. The slice cap bounds how much a writer's buffer
//!   grows (and keeps, since a cleared `Vec` keeps its capacity) and how
//!   long the shard lock is held; it has no bearing on accuracy.
//!
//! What a batch means for the relaxation: an `update_batch` call is one
//! update operation of |batch| items. A query concurrent with the call
//! may see any prefix of it, cut at a slice or `b` boundary. When the
//! call returns without ever losing the shard lock, nothing of this
//! writer is unpublished; otherwise the `b`-bounded path ran and the
//! usual two buffers of at most `b` per writer are outstanding. Either
//! way `r = 2Nb` ([`ConcurrencyConfig::relaxation`]) bounds the items of
//! *returned* calls a query may miss.
//!
//! Hoisting the hint means it can go stale *within* a chunk: the
//! propagator may publish a fresher (smaller-Θ) hint while the chunk is
//! being filtered. This is safe because hints are conservative and
//! monotone — Θ only decreases (registers only grow, for HLL), so a stale
//! hint only filters *less*, never drops an update a fresh hint would
//! have kept. Every extra item the stale hint lets through is one the
//! global sketch itself rejects at merge time (`h ≥ Θ` is a no-op), so
//! the global state — and therefore every bound in this module — is
//! unchanged; the only cost is a few doomed hashes riding a hand-off.
//! Chunks are capped at a small constant (`b` items here, 32 in the
//! hashing writers' fused hash-and-filter loop, [`crate::hashed`]), so
//! staleness within a batch is bounded by one chunk regardless of the
//! caller's batch size; an inline slice is filtered under the shard
//! lock, where no other merge can move the shard's hint.

use crate::composable::{GlobalSketch, HintCodec, LocalSketch};
use crate::config::{ConcurrencyConfig, PropagationBackendKind};
use crate::sync::PropSlot;
use fcds_sketches::error::{Result, SketchError};
use parking_lot::Mutex;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const PHASE_EAGER: u8 = 0;
const PHASE_LAZY: u8 = 1;

/// The most items a writer's buffer holds for one inline merge (see the
/// module docs): 8 KiB of `u64`s, however large the caller's batch.
const INLINE_SLICE: usize = 1024;

/// Engine counters, readable at any time (monotone, `Relaxed` updates —
/// they are diagnostics, not synchronisation).
#[derive(Debug, Default)]
struct Counters {
    merges: AtomicU64,
    eager_updates: AtomicU64,
    handoffs: AtomicU64,
    image_publications: AtomicU64,
    filtered_updates: AtomicU64,
}

/// A point-in-time copy of the engine's diagnostic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Local buffers merged into some shard (lines 113–115 executions).
    /// A writer's inline slice (see the module docs) counts as one merge.
    pub merges: u64,
    /// Updates applied directly during the eager phase (§5.3).
    pub eager_updates: u64,
    /// Buffer hand-offs performed by writers (`prop_i ← 0` stores). An
    /// inline slice is merged by its own writer and counts as none.
    pub handoffs: u64,
    /// Shard-image publications (`publish_sharded` calls) since the
    /// engine started serving. Always 0 on a single-shard engine; on a
    /// sharded one, one per merge plus one per eager-phase update. The
    /// initial per-shard publication at engine start happens before the
    /// counters exist and is not included.
    pub image_publications: u64,
    /// Updates dropped by the writers' `shouldAdd` pre-filter (§5.1) —
    /// the hint's observable contribution to scalability, and the live
    /// counterpart of the `disable_prefilter` ablation knob. Aggregated
    /// from the per-writer counts at flush and retire boundaries only:
    /// filtered items never fill the buffer, so on a saturated sketch
    /// (where nearly everything is filtered and flushes are rare) a live
    /// writer's drops can lag here by many buffers' worth of stream —
    /// roughly `b / (1 − filter rate)` items. Exact once writers have
    /// flushed or dropped; for per-writer live counts use
    /// [`SketchWriter::filtered`].
    pub filtered_updates: u64,
}

/// Why a [`SketchWriter::flush`] could not make its buffered updates
/// durable. Surfaced instead of the pre-PR-8 behaviour of spinning
/// forever (dead propagator) or silently abandoning (shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlushError {
    /// The shard's dedicated propagator thread died (it panicked, e.g.
    /// because a merge hit a poisoned buffer). Hand-offs to this shard
    /// can never complete; the writer's buffered updates were discarded
    /// and every future flush on this writer fails fast with the same
    /// error. Queries keep working from the last published view.
    PropagatorDead {
        /// The shard whose propagator died.
        shard: usize,
    },
    /// The engine handle was dropped while the flush waited; buffered
    /// updates were discarded (the documented teardown semantics).
    ShuttingDown,
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlushError::PropagatorDead { shard } => {
                write!(
                    f,
                    "propagator thread for shard {shard} is dead; buffered updates dropped"
                )
            }
            FlushError::ShuttingDown => {
                write!(f, "engine is shutting down; buffered updates dropped")
            }
        }
    }
}

impl std::error::Error for FlushError {}

/// One shard: an independent global sketch with its own published view
/// and worker registry. Writers are assigned to exactly one shard;
/// queries merge all shard views.
struct ShardState<G: GlobalSketch> {
    /// The shard's composable sketch. Held by whichever thread is
    /// propagating into this shard (its dedicated propagator, an
    /// assisting writer, or an eager-phase updater) — *all* propagator-
    /// side buffer accesses happen under this lock.
    global: Mutex<G>,
    /// Concurrently readable snapshot state.
    view: G::View,
    /// Registered worker slots keyed onto this shard.
    slots: Mutex<Vec<Arc<PropSlot<G::Local>>>>,
    /// Bumped on registry changes so a dedicated propagator reloads its
    /// local copy.
    slots_version: AtomicU64,
    /// Set when the shard's dedicated propagator thread dies by panic.
    /// Writers waiting on a hand-off check it to fail fast
    /// ([`FlushError::PropagatorDead`]) instead of spinning forever, and
    /// quiesce/teardown skip the shard (its global may be mid-merge).
    propagator_dead: AtomicBool,
}

/// Engine state shared between the main handle, writers, dedicated
/// propagators, and query threads. All propagation goes through
/// [`EngineCore::drain_shard`] / [`EngineCore::try_drain_shard`] (or
/// [`EngineCore::try_propagate`] in the dedicated loop), which serialise
/// the propagator side on the shard lock.
struct EngineCore<G: GlobalSketch> {
    shards: Vec<ShardState<G>>,
    /// `shards.len() > 1`; selects `publish_sharded` over `publish`.
    sharded: bool,
    /// [`PHASE_EAGER`] or [`PHASE_LAZY`]; flips exactly once.
    phase: AtomicU8,
    /// Current local-buffer size `b` (1 during eager, raised at the
    /// transition per §5.3).
    buffer_size: AtomicU64,
    config: ConcurrencyConfig,
    eager_limit: u64,
    lazy_b: u64,
    /// Total items ingested across all shards while eager (drives the
    /// §5.3 transition; seeded with the initial globals' stream length).
    eager_ingested: AtomicU64,
    /// Round-robin cursor for writer→shard assignment.
    next_shard: AtomicUsize,
    shutdown: AtomicBool,
    counters: Counters,
}

impl<G: GlobalSketch> EngineCore<G> {
    /// Whether `shard`'s dedicated propagator has died (never set under
    /// the threadless writer-assisted backend).
    fn propagator_dead(&self, shard: usize) -> bool {
        self.shards[shard].propagator_dead.load(Ordering::Acquire)
    }

    /// Merges every pending hand-off of `shard` into its global sketch,
    /// blocking on the shard lock.
    fn drain_shard(&self, shard: usize) {
        let sh = &self.shards[shard];
        self.drain_shard_locked(&mut sh.global.lock(), sh);
    }

    /// Like [`Self::drain_shard`] but gives up if another thread
    /// currently holds the shard lock — that thread is propagating
    /// already.
    fn try_drain_shard(&self, shard: usize) {
        let sh = &self.shards[shard];
        if let Some(mut g) = sh.global.try_lock() {
            self.drain_shard_locked(&mut g, sh);
        }
    }

    /// A writer's share of propagation, called right after it hands a
    /// buffer off on `shard` and on every iteration of its wait for a
    /// merge (line 125). Under the writer-assisted backend this is the
    /// only progress the shard gets, so the writer drains it unless
    /// another thread already is; a dedicated propagator needs no help.
    fn assist(&self, shard: usize) {
        match self.config.backend {
            PropagationBackendKind::DedicatedThread => {}
            PropagationBackendKind::WriterAssisted => self.try_drain_shard(shard),
        }
    }

    /// Publishes `g`'s state into a shard's view — when the engine is
    /// sharded, the mergeable image that queries merge across shards.
    fn publish_view(&self, g: &G, view: &G::View) {
        if self.sharded {
            g.publish_sharded(view);
            self.counters
                .image_publications
                .fetch_add(1, Ordering::Relaxed);
        } else {
            g.publish(view);
        }
    }

    /// Merges one pending local buffer of `slot` (if any), publishes, and
    /// returns buffer ownership with the fresh hint. The caller must hold
    /// the shard's global lock (`g`): the lock plus the pending re-check
    /// below make the propagator side single-owner even when several
    /// threads race to drain the same shard (writer-assisted backend).
    fn propagate_slot_locked(
        &self,
        g: &mut G,
        shard: &ShardState<G>,
        slot: &PropSlot<G::Local>,
    ) -> bool {
        let Some(idx) = slot.pending_buffer() else {
            return false;
        };
        // SAFETY: `idx` comes from `pending_buffer` under the shard's
        // global lock, and every propagator-side access in the engine
        // goes through this function — we are the unique propagator for
        // this buffer until `complete_propagation`.
        unsafe {
            slot.with_propagator_buffer(idx, |buf| {
                g.merge(buf);
                debug_assert!(buf.is_empty(), "merge must clear the local buffer");
            });
        }
        self.publish_view(g, &shard.view);
        let hint = g.calc_hint();
        slot.complete_propagation(hint.encode().get());
        self.counters.merges.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Propagates every pending slot of a shard and prunes drained
    /// retired slots. Caller holds the shard's global lock.
    fn drain_shard_locked(&self, g: &mut G, shard: &ShardState<G>) {
        // Scan under the registry lock and collect only slots that need
        // work: the writer-assisted wait loop calls this on every spin
        // iteration, so the common nothing-pending case must not
        // allocate.
        let (pending, saw_retired) = {
            let reg = shard.slots.lock();
            let mut pending: Vec<Arc<PropSlot<G::Local>>> = Vec::new();
            let mut saw_retired = false;
            for slot in reg.iter() {
                if slot.pending_buffer().is_some() {
                    pending.push(Arc::clone(slot));
                }
                saw_retired |= slot.is_retired();
            }
            (pending, saw_retired)
        };
        for slot in &pending {
            self.propagate_slot_locked(g, shard, slot);
        }
        if saw_retired {
            self.prune_retired(shard);
        }
    }

    /// Drops fully drained retired slots from a shard's registry, bumping
    /// the version so dedicated propagators reload. Returns `true` if the
    /// registry changed.
    fn prune_retired(&self, shard: &ShardState<G>) -> bool {
        let mut reg = shard.slots.lock();
        let before = reg.len();
        reg.retain(|s| !(s.is_retired() && s.pending_buffer().is_none()));
        let changed = reg.len() != before;
        if changed {
            shard.slots_version.fetch_add(1, Ordering::Release);
        }
        changed
    }

    /// Fast-path single-slot propagation for the dedicated propagator:
    /// checks `pending` before taking the shard lock so an idle scan costs
    /// one atomic load per slot.
    fn try_propagate(&self, shard: &ShardState<G>, slot: &PropSlot<G::Local>) -> bool {
        if slot.pending_buffer().is_none() {
            return false;
        }
        let mut g = shard.global.lock();
        self.propagate_slot_locked(&mut g, shard, slot)
    }
}

/// Marks the shard dead if the propagator thread unwinds. A merge can
/// panic (a buggy or adversarial `GlobalSketch::merge`); without this,
/// every writer of the shard would spin forever in `wait_merged` on a
/// hand-off nobody will ever complete.
struct PropagatorDeadGuard<'a, G: GlobalSketch> {
    core: &'a EngineCore<G>,
    shard: usize,
}

impl<G: GlobalSketch> Drop for PropagatorDeadGuard<'_, G> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Once set it never clears (see `FlushError::PropagatorDead`).
            self.core.shards[self.shard]
                .propagator_dead
                .store(true, Ordering::Release);
        }
    }
}

/// A concurrent sketch: the paper's `OptParSketch` (or `ParSketch` when
/// double buffering is disabled) instantiated with a composable sketch
/// `G`, sharded `K` ways.
///
/// Create writers with [`ConcurrentSketch::writer`] (one per update
/// thread; writers are `Send` but not `Sync`), query from any thread with
/// [`ConcurrentSketch::snapshot`], and drop the handle to stop the
/// dedicated propagators, if any.
///
/// This is the one engine type: the four built-in families are this
/// struct under a type alias (`theta::ConcurrentThetaSketch` is
/// `ConcurrentSketch<ThetaGlobal, Hashed>`), with a few inherent methods
/// each. `H` is what the engine's writers turn stream items into local
/// items with: `()` buffers them as they come (any [`GlobalSketch`]),
/// [`Hashed`](crate::hashed::Hashed) hashes them with the engine's seed
/// first (Θ, HLL).
pub struct ConcurrentSketch<G: GlobalSketch, H = ()> {
    shared: Arc<EngineCore<G>>,
    /// The dedicated propagators, one per shard (none when
    /// writer-assisted); joined on drop.
    handles: Vec<JoinHandle<()>>,
    /// Handed to every writer (see the type docs).
    pub(crate) hashing: H,
}

impl<G: GlobalSketch, H> std::fmt::Debug for ConcurrentSketch<G, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSketch")
            .field("config", &self.shared.config)
            .field("shards", &self.shared.shards.len())
            .field("phase", &self.shared.phase.load(Ordering::Relaxed))
            .finish()
    }
}

impl<G: GlobalSketch> ConcurrentSketch<G> {
    /// Starts the engine around an (typically empty) global sketch, with
    /// the propagation backend selected by `config.backend`.
    ///
    /// With `config.shards > 1` the passed sketch seeds shard 0 and
    /// `G::new_shard` creates the remaining K−1 empty shards.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, or if the OS
    /// refuses a dedicated propagator thread — the propagators already
    /// started are then stopped and joined before this returns.
    pub fn start(global: G, config: ConcurrencyConfig) -> Result<Self> {
        Self::launch(global, config, ())
    }
}

impl<G: GlobalSketch, H: Copy> ConcurrentSketch<G, H> {
    /// [`ConcurrentSketch::start`] for an engine whose writers get
    /// `hashing` (the hashing families' constructors).
    pub(crate) fn launch(global: G, config: ConcurrencyConfig, hashing: H) -> Result<Self> {
        config.validate()?;
        let eager_limit = config.eager_limit();
        let lazy_b = config.buffer_size();
        let sharded = config.shards > 1;
        let mut globals = Vec::with_capacity(config.shards);
        for _ in 1..config.shards {
            globals.push(global.new_shard());
        }
        globals.insert(0, global);
        if sharded {
            for g in &mut globals {
                g.prepare_sharded();
            }
        }
        let initial_len: u64 = globals.iter().map(|g| g.stream_len()).sum();
        let start_eager = eager_limit > 0 && initial_len < eager_limit;
        let shards: Vec<ShardState<G>> = globals
            .into_iter()
            .map(|g| {
                let view = g.new_view();
                if sharded {
                    g.publish_sharded(&view);
                } else {
                    g.publish(&view);
                }
                ShardState {
                    global: Mutex::new(g),
                    view,
                    slots: Mutex::new(Vec::new()),
                    slots_version: AtomicU64::new(0),
                    propagator_dead: AtomicBool::new(false),
                }
            })
            .collect();
        let mut engine = ConcurrentSketch {
            shared: Arc::new(EngineCore {
                shards,
                sharded,
                phase: AtomicU8::new(if start_eager { PHASE_EAGER } else { PHASE_LAZY }),
                buffer_size: AtomicU64::new(if start_eager { 1 } else { lazy_b }),
                config,
                eager_limit,
                lazy_b,
                eager_ingested: AtomicU64::new(initial_len),
                next_shard: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
            }),
            handles: Vec::new(),
            hashing,
        };
        match engine.shared.config.backend {
            PropagationBackendKind::DedicatedThread => {
                for shard in 0..engine.shared.shards.len() {
                    let core = Arc::clone(&engine.shared);
                    let spawned = std::thread::Builder::new()
                        .name(format!("fcds-propagator-{shard}"))
                        .spawn(move || {
                            let _guard = PropagatorDeadGuard { core: &core, shard };
                            propagator_loop(&core, shard);
                        });
                    match spawned {
                        Ok(handle) => engine.handles.push(handle),
                        // Dropping `engine` sets `shutdown` and joins the
                        // propagators already spawned.
                        Err(err) => {
                            return Err(SketchError::invalid(
                                "backend",
                                format!(
                                    "the OS refused the propagator thread for shard {shard} \
                                     ({err}); the writer-assisted backend needs no threads"
                                ),
                            ))
                        }
                    }
                }
            }
            PropagationBackendKind::WriterAssisted => {}
        }
        Ok(engine)
    }

    /// Registers a new update thread, assigning it to the next shard
    /// round-robin, and returns its writer handle.
    ///
    /// The relaxation bound `r = 2Nb` assumes at most `config.writers`
    /// concurrently active writers; registering more still yields correct
    /// relaxed behaviour, but with `N` equal to the actual writer count.
    pub fn writer(&self) -> SketchWriter<G, H> {
        let shard_idx =
            self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        let shard = &self.shared.shards[shard_idx];
        let (local_a, local_b, hint) = {
            let g = shard.global.lock();
            (g.new_local(), g.new_local(), g.calc_hint())
        };
        let slot = Arc::new(PropSlot::new(local_a, local_b, hint.encode().get()));
        {
            let mut reg = shard.slots.lock();
            reg.push(Arc::clone(&slot));
        }
        shard.slots_version.fetch_add(1, Ordering::Release);
        let lazy = self.shared.phase.load(Ordering::Acquire) == PHASE_LAZY;
        SketchWriter {
            shared: Arc::clone(&self.shared),
            slot,
            shard: shard_idx,
            cur: 0,
            counter: 0,
            b: self.shared.buffer_size.load(Ordering::Relaxed),
            hint,
            filtered: 0,
            filtered_synced: 0,
            lazy,
            prefilter: !self.shared.config.disable_prefilter,
            dead: None,
            hashing: self.hashing,
        }
    }

    /// Takes a query snapshot. With one shard this reads the published
    /// view; with `K > 1` it merges all shard views losslessly
    /// ([`GlobalSketch::merge_shard_views`]). Runs concurrently with
    /// ingestion; freshness is governed by the `r = 2Nb` relaxation
    /// (Theorem 1), independent of `K`.
    pub fn snapshot(&self) -> G::Snapshot {
        if !self.shared.sharded {
            return G::snapshot(&self.shared.shards[0].view);
        }
        let views: Vec<&G::View> = self.shared.shards.iter().map(|s| &s.view).collect();
        G::merge_shard_views(&views)
    }

    /// The published views of every shard, in shard order.
    pub fn shard_views(&self) -> impl Iterator<Item = &G::View> {
        self.shared.shards.iter().map(|s| &s.view)
    }

    /// The active configuration.
    pub fn config(&self) -> &ConcurrencyConfig {
        &self.shared.config
    }

    /// Number of shards `K`.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The current relaxation bound `r` (see
    /// [`ConcurrencyConfig::relaxation`]); independent of the shard
    /// count.
    pub fn relaxation(&self) -> u64 {
        self.shared.config.relaxation()
    }

    /// Whether the sketch is still in the eager phase of §5.3.
    pub fn is_eager(&self) -> bool {
        self.shared.phase.load(Ordering::Acquire) == PHASE_EAGER
    }

    /// Blocks until every pending hand-off has been merged and published.
    ///
    /// Writers must have been flushed (or dropped) first for this to
    /// capture all their updates; afterwards a snapshot reflects every
    /// update that preceded the flushes. Under the writer-assisted
    /// backend this call performs the outstanding merges itself.
    pub fn quiesce(&self) {
        loop {
            // Shards whose propagator died are excluded: their pending
            // hand-offs can never complete (the data is lost — see
            // [`FlushError::PropagatorDead`]) and waiting on them would
            // never terminate.
            let pending = self.shared.shards.iter().any(|sh| {
                if sh.propagator_dead.load(Ordering::Acquire) {
                    return false;
                }
                let reg = sh.slots.lock();
                reg.iter().any(|s| s.pending_buffer().is_some())
            });
            if !pending {
                break;
            }
            match self.shared.config.backend {
                // The shards' own propagators merge; wait for them.
                PropagationBackendKind::DedicatedThread => {}
                PropagationBackendKind::WriterAssisted => {
                    for shard in 0..self.shared.shards.len() {
                        self.shared.drain_shard(shard);
                    }
                }
            }
            std::thread::yield_now();
        }
    }

    /// Whether any shard's propagation service has died (see
    /// [`FlushError::PropagatorDead`]). Such an engine keeps serving
    /// queries from published views, but writers keyed onto the dead
    /// shard(s) fail their flushes.
    pub fn is_degraded(&self) -> bool {
        (0..self.shared.shards.len()).any(|s| self.shared.propagator_dead(s))
    }

    /// A snapshot of the engine's diagnostic counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            merges: self.shared.counters.merges.load(Ordering::Relaxed),
            eager_updates: self.shared.counters.eager_updates.load(Ordering::Relaxed),
            handoffs: self.shared.counters.handoffs.load(Ordering::Relaxed),
            image_publications: self
                .shared
                .counters
                .image_publications
                .load(Ordering::Relaxed),
            filtered_updates: self
                .shared
                .counters
                .filtered_updates
                .load(Ordering::Relaxed),
        }
    }

    /// Runs a closure against each shard's global sketch under its lock
    /// (in shard order), collecting the results. Intended for result
    /// extraction after ingestion (e.g., merging per-shard compact
    /// images); taking shard locks on the hot path would serialise
    /// against propagation.
    pub fn with_globals<R>(&self, mut f: impl FnMut(&G) -> R) -> Vec<R> {
        self.shared
            .shards
            .iter()
            .map(|s| {
                let g = s.global.lock();
                f(&g)
            })
            .collect()
    }
}

impl<G: GlobalSketch, H> Drop for ConcurrentSketch<G, H> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Final drain so post-shutdown snapshots reflect every completed
        // hand-off; dedicated propagators (if any) are joined, so this handle
        // owns propagation now. Also what makes the writer-assisted
        // backend's teardown deterministic. Shards whose propagator died
        // are skipped: their global may be mid-merge and draining into it
        // could re-panic inside this Drop (an abort).
        for shard in 0..self.shared.shards.len() {
            if !self.shared.propagator_dead(shard) {
                self.shared.drain_shard(shard);
            }
        }
    }
}

/// The dedicated propagator servicing one shard (Algorithm 2,
/// lines 110–115) under [`PropagationBackendKind::DedicatedThread`].
fn propagator_loop<G: GlobalSketch>(core: &EngineCore<G>, shard_idx: usize) {
    let shard = &core.shards[shard_idx];
    let mut local_slots: Vec<Arc<PropSlot<G::Local>>> = Vec::new();
    let mut seen_version = u64::MAX;
    let backoff = crossbeam::utils::Backoff::new();
    loop {
        let version = shard.slots_version.load(Ordering::Acquire);
        if version != seen_version {
            local_slots = shard.slots.lock().clone();
            seen_version = version;
        }

        let mut did_work = false;
        let mut saw_retired = false;
        for slot in &local_slots {
            did_work |= core.try_propagate(shard, slot);
            saw_retired |= slot.is_retired();
        }

        if saw_retired {
            core.prune_retired(shard);
            local_slots = shard.slots.lock().clone();
            seen_version = shard.slots_version.load(Ordering::Acquire);
        }

        if core.shutdown.load(Ordering::Acquire) {
            // Final drain so that post-shutdown snapshots reflect every
            // completed hand-off.
            core.drain_shard(shard_idx);
            return;
        }

        if did_work {
            backoff.reset();
        } else {
            // Spin briefly, then yield; the propagator stays hot (the
            // paper dedicates a thread to it) without starving workers.
            backoff.snooze();
        }
    }
}

/// Per-thread writer handle (update thread `t_i`, lines 119–129), bound
/// to one shard.
///
/// `Send` but not `Sync`: exactly one thread drives a writer. Dropping a
/// writer flushes its partial buffer (blocking briefly on propagation)
/// and retires its slot.
///
/// `H` is the engine's (see [`ConcurrentSketch`]): with `()` the writer
/// takes local items as they are ([`SketchWriter::update`],
/// [`SketchWriter::update_batch`]); the hashing families' writers hash
/// stream items first and have their own `update` and `update_batch`
/// ([`crate::hashed`]).
pub struct SketchWriter<G: GlobalSketch, H = ()> {
    shared: Arc<EngineCore<G>>,
    slot: Arc<PropSlot<G::Local>>,
    shard: usize,
    cur: usize,
    counter: u64,
    b: u64,
    hint: <G::Local as LocalSketch>::Hint,
    filtered: u64,
    /// `filtered` as of the last aggregation into the engine counters
    /// (see [`EngineStats::filtered_updates`]).
    filtered_synced: u64,
    /// Writer-local latch of the one-way `EAGER → LAZY` flip: once the
    /// writer observes `LAZY` it can never see `EAGER` again (§5.3 flips
    /// exactly once), so the steady-state update paths skip the shared
    /// `Acquire` phase load entirely.
    lazy: bool,
    /// `!config.disable_prefilter`, cached at construction — the ablation
    /// switch never changes while the engine runs, so the hot paths need
    /// no per-item Arc-chased config deref.
    prefilter: bool,
    /// Sticky failure latch: once a flush fails, every later flush fails
    /// fast with the same error instead of re-probing the engine.
    dead: Option<FlushError>,
    /// The engine's item hashing, copied (see [`ConcurrentSketch`]).
    pub(crate) hashing: H,
}

impl<G: GlobalSketch, H> std::fmt::Debug for SketchWriter<G, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchWriter")
            .field("shard", &self.shard)
            .field("cur", &self.cur)
            .field("counter", &self.counter)
            .field("b", &self.b)
            .finish()
    }
}

impl<G: GlobalSketch> SketchWriter<G> {
    /// Processes one stream item (the `update_i(a)` procedure).
    ///
    /// Steady state (lazy phase, which every long stream spends its life
    /// in) costs no shared loads before the buffer push: the phase flip
    /// is latched writer-locally and the pre-filter switch is cached at
    /// construction.
    #[inline]
    pub fn update(&mut self, item: <G::Local as LocalSketch>::Item) {
        self.put(item);
    }

    /// Processes a batch of stream items through the amortised fast
    /// path: the phase check, the pre-filter switch, and the hint are
    /// hoisted out of the per-item loop; survivors are compacted against
    /// the hint and appended to the local buffer chunk-wise
    /// ([`LocalSketch::update_batch_filtered`]). When the buffer fills
    /// with items still to go, a writer-assisted writer that wins its
    /// shard lock merges the rest of the batch itself, one merge and one
    /// publication per slice of up to 1 024 items; otherwise, and always
    /// under the dedicated backend, the buffer is handed off at the
    /// `b`-boundary (see the module docs).
    ///
    /// The call is one update operation of |batch| items. A concurrent
    /// query may see any prefix of it, cut at a slice or `b` boundary. If
    /// the call never lost the shard lock, none of this writer's items is
    /// unpublished when it returns; if it did, at most two buffers of `b`
    /// are, as after [`Self::update`]. Either way `r = 2Nb` bounds the
    /// items of returned calls a query may miss.
    ///
    /// Lands the sketch in the same state as calling [`Self::update`]
    /// once per item, pinned by `tests/batch_equivalence.rs`: within a
    /// chunk (capped at `b` items) a concurrently-published fresher hint
    /// is missed harmlessly — hints are conservative and monotone, so a
    /// stale hint only filters *less*, and the global sketch rejects the
    /// extra items at merge time (see the module docs).
    pub fn update_batch(&mut self, items: &[<G::Local as LocalSketch>::Item])
    where
        <G::Local as LocalSketch>::Item: Clone,
    {
        let mut rest = items;
        // Eager phase (§5.3) and the one-time transition run the scalar
        // path item by item — bounded by the eager limit `2/e²` — until
        // the writer latches `lazy`.
        while !self.lazy {
            let Some((first, tail)) = rest.split_first() else {
                return;
            };
            self.put(first.clone());
            rest = tail;
        }
        if self.prefilter {
            self.feed(rest, |l, hint, chunk| l.update_batch_filtered(hint, chunk));
        } else {
            // Ablated filter: everything is accepted.
            self.push_accepted(rest);
        }
    }
}

impl<G: GlobalSketch, H> SketchWriter<G, H> {
    /// [`SketchWriter::update`] of a local item, whatever `H` is: the
    /// hashing writers' scalar path ends here with the item's key.
    #[inline]
    pub(crate) fn put(&mut self, item: <G::Local as LocalSketch>::Item) {
        let item = if self.lazy {
            item
        } else {
            match self.update_pre_lazy(item) {
                None => return,
                Some(item) => item,
            }
        };

        // Line 120: the shouldAdd pre-filter (ablatable for measuring
        // its contribution — see ConcurrencyConfig::disable_prefilter).
        if self.prefilter && !<G::Local as LocalSketch>::should_add(self.hint, &item) {
            self.filtered += 1;
            return;
        }
        // Lines 121–122: buffer locally.
        // SAFETY: we are the unique worker of this slot and `cur` is our
        // current buffer.
        unsafe {
            self.slot.with_worker_buffer(self.cur, |l| l.update(item));
        }
        self.counter += 1;
        // Line 123: flush when the buffer reaches b.
        if self.counter >= self.b {
            // A failed boundary flush discards the buffer and latches the
            // writer dead; the error is observable via `flush`. The hot
            // path itself stays infallible (no per-update error branch).
            let _ = self.flush_inner();
        }
    }

    /// Whether this writer has latched the lazy phase (the hashing
    /// writers' fused batch loop falls back to the scalar path until it
    /// has).
    pub(crate) fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Whether the `shouldAdd` pre-filter is enabled (cached; see
    /// [`ConcurrencyConfig::disable_prefilter`]).
    pub(crate) fn prefilter_enabled(&self) -> bool {
        self.prefilter
    }

    /// The writer's current hint (refreshed at every flush).
    pub(crate) fn hint(&self) -> <G::Local as LocalSketch>::Hint {
        self.hint
    }

    /// Records `n` updates dropped by the hashing writers' fused loop,
    /// keeping [`Self::filtered`] and the engine aggregate truthful.
    pub(crate) fn note_filtered(&mut self, n: u64) {
        self.filtered += n;
    }

    /// Appends already-accepted items to the local buffer like
    /// [`SketchWriter::update_batch`], without a filter. The hashing
    /// writers' fused batch loop (hash → filter in registers) lands its
    /// survivors here; callers must have counted rejected items via
    /// [`Self::note_filtered`] and must only be in the lazy phase.
    pub(crate) fn push_accepted(&mut self, items: &[<G::Local as LocalSketch>::Item])
    where
        <G::Local as LocalSketch>::Item: Clone,
    {
        self.feed(items, |l, _, chunk| {
            l.update_batch(chunk);
            chunk.len()
        });
    }

    /// The lazy-phase batch loop: `fill` buffers a chunk's survivors of
    /// the hint and returns how many it kept. Chunks are room-bounded,
    /// and filtering only shrinks a chunk, so a full buffer holds exactly
    /// `b` updates, as in the scalar path. A full buffer with items still
    /// to go tries [`Self::merge_inline`], and once one slice merged
    /// inline every later slice of the call goes straight to the lock;
    /// a full buffer that does not merge inline is handed off.
    fn feed<F>(&mut self, items: &[<G::Local as LocalSketch>::Item], fill: F)
    where
        F: Fn(
            &mut G::Local,
            <G::Local as LocalSketch>::Hint,
            &[<G::Local as LocalSketch>::Item],
        ) -> usize,
    {
        debug_assert!(self.lazy);
        let mut rest = items;
        let mut inline = false;
        while !rest.is_empty() {
            inline = inline && self.merge_inline(&mut rest, &fill);
            if inline {
                continue;
            }
            debug_assert!(self.counter < self.b);
            let room = (self.b - self.counter) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(room));
            rest = tail;
            let hint = self.hint;
            // SAFETY: we are the unique worker of this slot and `cur` is
            // our current buffer.
            let kept = unsafe {
                self.slot
                    .with_worker_buffer(self.cur, |l| fill(l, hint, chunk))
            };
            self.filtered += (chunk.len() - kept) as u64;
            self.counter += kept as u64;
            if self.counter >= self.b {
                inline = !rest.is_empty() && self.merge_inline(&mut rest, &fill);
                if !inline {
                    // A failed boundary flush discards the buffer and
                    // latches the writer dead (see `update`).
                    let _ = self.flush_inner();
                }
            }
        }
    }

    /// The writer-assisted inline step: if the writer wins its shard
    /// lock, it drains the shard's pending hand-offs (its own included),
    /// tops its current buffer up to [`INLINE_SLICE`] items from the
    /// front of `rest` through `fill`, merges and publishes once, and
    /// takes the fresh hint — one merge, no hand-off. Returns `false`,
    /// having changed nothing, under the dedicated backend, on a writer
    /// latched dead, during shutdown, or when the lock is taken; the
    /// caller then hands off as usual.
    fn merge_inline<F>(&mut self, rest: &mut &[<G::Local as LocalSketch>::Item], fill: &F) -> bool
    where
        F: Fn(
            &mut G::Local,
            <G::Local as LocalSketch>::Hint,
            &[<G::Local as LocalSketch>::Item],
        ) -> usize,
    {
        let core = &*self.shared;
        if core.config.backend != PropagationBackendKind::WriterAssisted
            || self.dead.is_some()
            || core.shutdown.load(Ordering::Acquire)
        {
            return false;
        }
        let shard = &core.shards[self.shard];
        let Some(mut g) = shard.global.try_lock() else {
            return false;
        };
        core.drain_shard_locked(&mut g, shard);
        let take = INLINE_SLICE.saturating_sub(self.counter as usize);
        let (slice, tail) = rest.split_at(rest.len().min(take));
        *rest = tail;
        let hint = self.hint;
        // SAFETY: we are the unique worker of this slot and `cur` is our
        // current buffer; the shard lock we hold serialises the merge
        // with every other propagation into this shard.
        let kept = unsafe {
            self.slot.with_worker_buffer(self.cur, |l| {
                let kept = fill(l, hint, slice);
                g.merge(l);
                debug_assert!(l.is_empty(), "merge must clear the local buffer");
                kept
            })
        };
        core.publish_view(&g, &shard.view);
        self.hint = g.calc_hint();
        drop(g);
        core.counters.merges.fetch_add(1, Ordering::Relaxed);
        self.filtered += (slice.len() - kept) as u64;
        self.counter = 0;
        self.sync_filtered();
        true
    }

    /// The pre-latch slow path: checks the shared phase, applies the
    /// item eagerly while the engine is still in the §5.3 eager phase,
    /// and latches the writer-local `lazy` flag the first time `LAZY` is
    /// observed (the flip is one-way, so the latch never needs
    /// re-checking). Returns the item back when it still needs the lazy
    /// buffering path.
    #[cold]
    fn update_pre_lazy(
        &mut self,
        item: <G::Local as LocalSketch>::Item,
    ) -> Option<<G::Local as LocalSketch>::Item> {
        if self.shared.phase.load(Ordering::Acquire) == PHASE_EAGER {
            // Eager phase: propagate directly into our shard, serialised
            // by its lock; try_eager re-checks the phase under the lock
            // because the transition may happen while we wait for it.
            match self.try_eager(item) {
                None => None,
                Some(item) => {
                    // Phase flipped while we waited for the shard lock.
                    self.lazy = true;
                    Some(item)
                }
            }
        } else {
            self.lazy = true;
            Some(item)
        }
    }

    /// The index of the shard this writer is keyed onto.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Eager-phase direct update into the writer's shard. Returns the
    /// item back if the phase turned lazy before we acquired the lock.
    ///
    /// When sharded, every eager update republishes the shard's full
    /// mergeable image (O(retained) for Θ, O(m) for HLL): the eager
    /// phase's contract is *zero* relaxation error, so sharded queries
    /// must see each direct update immediately. The cost is bounded by
    /// the eager limit `2/e²` (1250 updates at the default `e = 0.04`)
    /// and single-shard engines publish only the cheap view.
    fn try_eager(
        &mut self,
        item: <G::Local as LocalSketch>::Item,
    ) -> Option<<G::Local as LocalSketch>::Item> {
        let shard = &self.shared.shards[self.shard];
        let mut g = shard.global.lock();
        if self.shared.phase.load(Ordering::Relaxed) != PHASE_EAGER {
            return Some(item);
        }
        let before = g.stream_len();
        g.update_direct(item);
        let delta = g.stream_len() - before;
        self.shared.publish_view(&g, &shard.view);
        self.shared
            .counters
            .eager_updates
            .fetch_add(1, Ordering::Relaxed);
        self.hint = g.calc_hint();
        let total = self
            .shared
            .eager_ingested
            .fetch_add(delta, Ordering::Relaxed)
            + delta;
        if total >= self.shared.eager_limit {
            // §5.3: raise b to the lazy buffer size and leave the eager
            // phase. The store order (b first) means a worker that sees
            // LAZY also sees the raised b at its next flush.
            self.shared
                .buffer_size
                .store(self.shared.lazy_b, Ordering::Relaxed);
            self.shared.phase.store(PHASE_LAZY, Ordering::Release);
        }
        None
    }

    /// Aggregates this writer's pre-filter drops into the engine-wide
    /// counter ([`EngineStats::filtered_updates`]). Called at flush and
    /// retire boundaries so the hot paths never touch the shared atomic.
    fn sync_filtered(&mut self) {
        let delta = self.filtered - self.filtered_synced;
        if delta > 0 {
            self.shared
                .counters
                .filtered_updates
                .fetch_add(delta, Ordering::Relaxed);
            self.filtered_synced = self.filtered;
        }
    }

    /// Hands the filled buffer over for propagation (lines 125–129) and,
    /// in `ParSketch` mode (no double buffering), waits for the merge.
    /// On failure the buffered updates have been discarded (see
    /// [`FlushError`]) and the writer is latched dead.
    fn flush_inner(&mut self) -> std::result::Result<(), FlushError> {
        self.sync_filtered();
        if let Some(err) = self.dead {
            self.abandon_buffer();
            return Err(err);
        }
        // Line 125: wait until prop_i ≠ 0.
        self.wait_merged()?;
        // Lines 126–129: flip cur, refresh b, request propagation.
        self.cur = 1 - self.cur;
        self.counter = 0;
        self.b = self.shared.buffer_size.load(Ordering::Relaxed);
        // SAFETY: wait_merged ensured the propagator released the buffers.
        unsafe { self.slot.hand_off(self.cur) };
        self.shared
            .counters
            .handoffs
            .fetch_add(1, Ordering::Relaxed);
        self.shared.assist(self.shard);

        if !self.shared.config.double_buffering {
            // Unoptimised ParSketch: the update thread idles until its
            // (single) buffer has been merged (underlined line 124/125).
            self.wait_merged()?;
        }
        Ok(())
    }

    /// Spins until the pending propagation (if any) has returned buffer
    /// ownership, updating the hint from the piggy-backed value. Under
    /// the writer-assisted backend the wait loop itself drains the shard,
    /// so progress never depends on another thread. Fails — discarding
    /// the writer's buffered updates and latching the writer dead — when
    /// the engine shuts down or the shard's propagator has died, since
    /// either way the hand-off can never complete.
    fn wait_merged(&mut self) -> std::result::Result<(), FlushError> {
        let backoff = crossbeam::utils::Backoff::new();
        loop {
            // The dead check runs before the result check on purpose:
            // even if a last propagation completed before the propagator
            // died, handing the next buffer to a dead shard would lose it
            // silently — fail the flush instead.
            if self.shared.propagator_dead(self.shard) {
                return Err(self.latch_dead(FlushError::PropagatorDead { shard: self.shard }));
            }
            if let Some(raw) = self.slot.propagation_result() {
                let nz = NonZeroU64::new(raw).expect("hints are non-zero");
                self.hint = <G::Local as LocalSketch>::Hint::decode(nz);
                return Ok(());
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(self.latch_dead(FlushError::ShuttingDown));
            }
            self.shared.assist(self.shard);
            backoff.snooze();
        }
    }

    /// Latches the writer's sticky failure and discards its local buffer.
    fn latch_dead(&mut self, err: FlushError) -> FlushError {
        self.dead = Some(err);
        self.abandon_buffer();
        err
    }

    /// Discards the writer's current local buffer. Safe at any point:
    /// `cur` is always worker-owned (a hand-off transfers the *other*
    /// buffer), and the final teardown drain only touches handed-off
    /// buffers.
    fn abandon_buffer(&mut self) {
        self.counter = 0;
        // SAFETY: we are the unique worker of this slot and `cur` is our
        // current buffer.
        unsafe {
            self.slot.with_worker_buffer(self.cur, |l| l.clear());
        }
    }

    /// Flushes the partially filled buffer so that its updates become
    /// visible to queries once propagated. Blocks until the previous
    /// propagation (if any) completes. Under the writer-assisted backend
    /// the hand-off is usually merged inline; if the shard is busy it
    /// stays pending until the next flush or a
    /// [`ConcurrentSketch::quiesce`].
    ///
    /// # Errors
    ///
    /// [`FlushError::PropagatorDead`] when the shard's propagation
    /// service has died (the buffered updates are discarded and every
    /// later flush on this writer fails fast with the same error);
    /// [`FlushError::ShuttingDown`] when the engine handle was dropped
    /// mid-flush. The buffer-boundary flushes inside
    /// [`SketchWriter::update`] / [`SketchWriter::update_batch`] hit the same
    /// conditions and discard in the same way; a caller that needs the
    /// error signal must call `flush` (the per-update paths stay
    /// infallible by design — the paper's hot loop has no error branch).
    pub fn flush(&mut self) -> std::result::Result<(), FlushError> {
        if let Some(err) = self.dead {
            self.abandon_buffer();
            return Err(err);
        }
        if self.counter > 0 {
            self.flush_inner()
        } else {
            Ok(())
        }
    }

    /// Number of updates currently buffered locally (not yet handed off).
    pub fn buffered(&self) -> u64 {
        self.counter
    }

    /// The writer's current buffer size `b`.
    pub fn buffer_size(&self) -> u64 {
        self.b
    }

    /// Updates this writer dropped via the `shouldAdd` pre-filter — the
    /// quantity §5.1 credits for the algorithm's scalability.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }
}

impl<G: GlobalSketch, H> Drop for SketchWriter<G, H> {
    fn drop(&mut self) {
        // A failing final flush already discarded the buffer; there is
        // nobody left to hand the error to.
        let _ = self.flush();
        // flush() skips empty buffers, so sync any drops it left behind.
        self.sync_filtered();
        self.slot.retire();
        // Nudge the shard's registry scan.
        self.shared.shards[self.shard]
            .slots_version
            .fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::scaled;

    /// A toy "sum sketch": exact, so the engine must not lose or duplicate
    /// a single update. Uses the trivial hint. Implements the sharding
    /// hooks (sums are trivially mergeable) so the engine tests below can
    /// exercise K > 1.
    #[derive(Debug, Default)]
    struct SumGlobal {
        total: u64,
        n: u64,
    }

    #[derive(Debug, Default)]
    struct SumLocal {
        items: Vec<u64>,
    }

    impl LocalSketch for SumLocal {
        type Item = u64;
        type Hint = ();
        fn update(&mut self, item: u64) {
            self.items.push(item);
        }
        fn should_add(_: (), _: &u64) -> bool {
            true
        }
        fn clear(&mut self) {
            self.items.clear();
        }
        fn len(&self) -> usize {
            self.items.len()
        }
    }

    impl GlobalSketch for SumGlobal {
        type Local = SumLocal;
        type View = crate::sync::AtomicF64;
        type Snapshot = f64;

        fn new_local(&self) -> SumLocal {
            SumLocal::default()
        }
        fn new_view(&self) -> Self::View {
            crate::sync::AtomicF64::new(self.total as f64)
        }
        fn merge(&mut self, local: &mut SumLocal) {
            for v in local.items.drain(..) {
                self.total += v;
                self.n += 1;
            }
        }
        fn update_direct(&mut self, item: u64) {
            self.total += item;
            self.n += 1;
        }
        fn publish(&self, view: &Self::View) {
            view.store(self.total as f64);
        }
        fn snapshot(view: &Self::View) -> f64 {
            view.load()
        }
        fn calc_hint(&self) {}
        fn stream_len(&self) -> u64 {
            self.n
        }
        fn new_shard(&self) -> Self {
            SumGlobal::default()
        }
        fn merge_shard_views(views: &[&Self::View]) -> f64 {
            views.iter().map(|v| v.load()).sum()
        }
    }

    fn run_sum(writers: usize, per_writer: u64, config: ConcurrencyConfig) -> f64 {
        let sketch = ConcurrentSketch::start(SumGlobal::default(), config).unwrap();
        std::thread::scope(|s| {
            for w in 0..writers {
                let mut wr = sketch.writer();
                s.spawn(move || {
                    for i in 0..per_writer {
                        wr.update(w as u64 * per_writer + i);
                    }
                    // Writer drop flushes the partial buffer.
                });
            }
        });
        sketch.quiesce();
        sketch.snapshot()
    }

    fn expected_sum(writers: usize, per_writer: u64) -> f64 {
        let total_items = writers as u64 * per_writer;
        // Values are 0..writers*per_writer, each exactly once.
        (total_items * (total_items - 1) / 2) as f64
    }

    #[test]
    fn exact_sum_single_writer_lazy() {
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0, // no eager phase
            ..Default::default()
        };
        assert_eq!(run_sum(1, 10_000, cfg), expected_sum(1, 10_000));
    }

    #[test]
    fn exact_sum_many_writers_lazy() {
        let cfg = ConcurrencyConfig {
            writers: 4,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let n = scaled(25_000);
        assert_eq!(run_sum(4, n, cfg), expected_sum(4, n));
    }

    #[test]
    fn exact_sum_with_eager_phase() {
        let cfg = ConcurrencyConfig {
            writers: 4,
            max_concurrency_error: 0.04, // eager limit 1250
            ..Default::default()
        };
        assert_eq!(run_sum(4, 5_000, cfg), expected_sum(4, 5_000));
    }

    #[test]
    fn exact_sum_stream_shorter_than_eager_limit() {
        let cfg = ConcurrencyConfig {
            writers: 2,
            max_concurrency_error: 0.04,
            ..Default::default()
        };
        // 2 × 100 = 200 < 1250: never leaves the eager phase.
        assert_eq!(run_sum(2, 100, cfg), expected_sum(2, 100));
    }

    #[test]
    fn exact_sum_unoptimised_parsketch() {
        let cfg = ConcurrencyConfig {
            writers: 3,
            max_concurrency_error: 1.0,
            double_buffering: false,
            ..Default::default()
        };
        let n = scaled(10_000);
        assert_eq!(run_sum(3, n, cfg), expected_sum(3, n));
    }

    #[test]
    fn exact_sum_sharded_dedicated() {
        for shards in [1usize, 2, 4] {
            let cfg = ConcurrencyConfig {
                writers: 4,
                shards,
                max_concurrency_error: 1.0,
                ..Default::default()
            };
            let n = scaled(10_000);
            assert_eq!(
                run_sum(4, n, cfg),
                expected_sum(4, n),
                "lost updates with K = {shards}"
            );
        }
    }

    #[test]
    fn exact_sum_writer_assisted() {
        for shards in [1usize, 2, 4] {
            let cfg = ConcurrencyConfig {
                writers: 4,
                shards,
                backend: PropagationBackendKind::WriterAssisted,
                max_concurrency_error: 1.0,
                ..Default::default()
            };
            let n = scaled(10_000);
            assert_eq!(
                run_sum(4, n, cfg),
                expected_sum(4, n),
                "lost updates with K = {shards} (writer-assisted)"
            );
        }
    }

    #[test]
    fn writer_assisted_with_eager_phase() {
        let cfg = ConcurrencyConfig {
            writers: 4,
            shards: 2,
            backend: PropagationBackendKind::WriterAssisted,
            max_concurrency_error: 0.04,
            ..Default::default()
        };
        assert_eq!(run_sum(4, 5_000, cfg), expected_sum(4, 5_000));
    }

    #[test]
    fn writer_assisted_spawns_no_threads() {
        // The backend switch, cell by cell: the dedicated backend starts
        // one named propagator per shard, the writer-assisted one none,
        // and either way a flushed and quiesced engine holds the exact sum.
        use PropagationBackendKind::{DedicatedThread, WriterAssisted};
        for backend in [DedicatedThread, WriterAssisted] {
            for shards in [1usize, 2, 4] {
                let cfg = ConcurrencyConfig {
                    writers: shards,
                    shards,
                    backend,
                    max_concurrency_error: 1.0,
                    ..Default::default()
                };
                let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
                let threads: Vec<_> = sketch
                    .handles
                    .iter()
                    .map(|h| h.thread().name().map(str::to_owned))
                    .collect();
                let expected: Vec<_> = match backend {
                    DedicatedThread => (0..shards)
                        .map(|s| Some(format!("fcds-propagator-{s}")))
                        .collect(),
                    WriterAssisted => Vec::new(),
                };
                assert_eq!(threads, expected, "{backend:?}, K = {shards}");
                let mut writers: Vec<_> = (0..shards).map(|_| sketch.writer()).collect();
                for i in 0..10_000u64 {
                    writers[i as usize % shards].update(i);
                }
                for w in &mut writers {
                    w.flush().unwrap();
                }
                sketch.quiesce();
                assert_eq!(
                    sketch.snapshot(),
                    expected_sum(1, 10_000),
                    "{backend:?}, K = {shards}"
                );
            }
        }
    }

    #[test]
    fn writers_round_robin_over_shards() {
        let cfg = ConcurrencyConfig {
            writers: 4,
            shards: 2,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let writers: Vec<_> = (0..4).map(|_| sketch.writer()).collect();
        let assigned: Vec<usize> = writers.iter().map(|w| w.shard()).collect();
        assert_eq!(assigned, vec![0, 1, 0, 1]);
    }

    #[test]
    fn eager_phase_transitions_to_lazy() {
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 0.1, // eager limit 200
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        assert!(sketch.is_eager());
        let mut w = sketch.writer();
        for i in 0..500u64 {
            w.update(i);
        }
        assert!(!sketch.is_eager(), "should have left the eager phase");
        w.flush().unwrap();
        sketch.quiesce();
        assert_eq!(sketch.snapshot(), (499 * 500 / 2) as f64);
    }

    #[test]
    fn snapshot_is_monotone_under_concurrent_ingestion() {
        let cfg = ConcurrencyConfig {
            writers: 2,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let n = scaled(200_000);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let mut wr = sketch.writer();
                s.spawn(move || {
                    for i in 0..n {
                        wr.update(i % 7);
                    }
                });
            }
            let mut last = 0.0;
            for _ in 0..10_000 {
                let v = sketch.snapshot();
                assert!(v >= last, "sum went backwards: {v} < {last}");
                last = v;
            }
        });
    }

    #[test]
    fn sharded_snapshot_is_monotone_under_concurrent_ingestion() {
        let cfg = ConcurrencyConfig {
            writers: 2,
            shards: 2,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let n = scaled(100_000);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let mut wr = sketch.writer();
                s.spawn(move || {
                    for i in 0..n {
                        wr.update(i % 7);
                    }
                });
            }
            let mut last = 0.0;
            for _ in 0..5_000 {
                let v = sketch.snapshot();
                assert!(v >= last, "merged sum went backwards: {v} < {last}");
                last = v;
            }
        });
    }

    #[test]
    fn writers_can_join_mid_stream() {
        let cfg = ConcurrencyConfig {
            writers: 2,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        {
            let mut w1 = sketch.writer();
            for i in 0..1_000u64 {
                w1.update(i);
            }
        } // w1 dropped: flushed and retired
        {
            let mut w2 = sketch.writer();
            for i in 1_000..2_000u64 {
                w2.update(i);
            }
        }
        sketch.quiesce();
        assert_eq!(sketch.snapshot(), (1999 * 2000 / 2) as f64);
    }

    #[test]
    fn manual_flush_makes_updates_visible() {
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0,
            max_buffer_size: 16,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let mut w = sketch.writer();
        for _ in 0..5 {
            w.update(1); // stays in the local buffer (b = 16)
        }
        assert_eq!(w.buffered(), 5);
        w.flush().unwrap();
        assert_eq!(w.buffered(), 0);
        sketch.quiesce();
        assert_eq!(sketch.snapshot(), 5.0);
    }

    #[test]
    fn batched_updates_are_exact_with_mid_batch_flushes() {
        // The sum sketch is exact, so update_batch must deliver every
        // item exactly once across awkward batch sizes (empty, single,
        // larger than b — forcing several flushes inside one call).
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0,
            max_buffer_size: 8,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let items: Vec<u64> = (0..10_000u64).collect();
        let mut w = sketch.writer();
        let sizes = [0usize, 1, 3, 8, 27, 500];
        let mut pos = 0usize;
        let mut size_idx = 0usize;
        while pos < items.len() {
            let take = sizes[size_idx % sizes.len()].min(items.len() - pos);
            size_idx += 1;
            w.update_batch(&items[pos..pos + take]);
            pos += take;
        }
        w.flush().unwrap();
        sketch.quiesce();
        assert_eq!(sketch.snapshot(), expected_sum(1, 10_000));
    }

    #[test]
    fn batched_updates_cross_the_eager_transition_exactly() {
        // Batches issued while the engine is still eager must fall back
        // to the scalar path item-by-item and lose nothing across the
        // EAGER → LAZY latch, including on a sharded engine.
        let cfg = ConcurrencyConfig {
            writers: 2,
            shards: 2,
            max_concurrency_error: 0.1, // eager limit 200
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let mut w = sketch.writer();
                s.spawn(move || {
                    let items: Vec<u64> = (t * 5_000..(t + 1) * 5_000).collect();
                    for chunk in items.chunks(37) {
                        w.update_batch(chunk);
                    }
                });
            }
        });
        sketch.quiesce();
        assert_eq!(sketch.snapshot(), expected_sum(2, 5_000));
        assert!(sketch.stats().eager_updates > 0, "eager phase never ran");
    }

    #[test]
    fn filtered_updates_stat_is_zero_without_a_filter() {
        // SumLocal's shouldAdd is constantly true: nothing may ever be
        // counted as filtered (the Θ-side nonzero assertion lives in the
        // theta module's saturation test).
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        {
            let mut w = sketch.writer();
            for i in 0..1_000u64 {
                w.update(i);
            }
        }
        sketch.quiesce();
        assert_eq!(sketch.stats().filtered_updates, 0);
    }

    #[test]
    fn drop_without_writers_is_clean() {
        let sketch =
            ConcurrentSketch::start(SumGlobal::default(), ConcurrencyConfig::default()).unwrap();
        drop(sketch);
    }

    #[test]
    fn drop_drains_pending_handoffs_writer_assisted() {
        // A hand-off left pending (no quiesce) must still be merged by
        // the engine's final drain before the handle drop completes.
        let cfg = ConcurrencyConfig {
            writers: 1,
            backend: PropagationBackendKind::WriterAssisted,
            max_concurrency_error: 1.0,
            max_buffer_size: 8,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        {
            let mut w = sketch.writer();
            for _ in 0..100u64 {
                w.update(1);
            }
        }
        sketch.quiesce();
        assert_eq!(sketch.snapshot(), 100.0);
    }

    #[test]
    fn single_shard_publishes_no_images() {
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let mut w = sketch.writer();
        for i in 0..10_000u64 {
            w.update(i);
        }
        w.flush().unwrap();
        sketch.quiesce();
        assert_eq!(sketch.stats().image_publications, 0);
    }

    /// A sum sketch whose merge panics when the buffer contains the
    /// poison value — models a propagator killed by a corrupt hand-off.
    #[derive(Debug, Default)]
    struct PoisonableSumGlobal {
        inner: SumGlobal,
    }

    const POISON: u64 = u64::MAX;

    impl GlobalSketch for PoisonableSumGlobal {
        type Local = SumLocal;
        type View = crate::sync::AtomicF64;
        type Snapshot = f64;

        fn new_local(&self) -> SumLocal {
            SumLocal::default()
        }
        fn new_view(&self) -> Self::View {
            self.inner.new_view()
        }
        fn merge(&mut self, local: &mut SumLocal) {
            assert!(
                !local.items.contains(&POISON),
                "poisoned hand-off killed the propagator"
            );
            self.inner.merge(local);
        }
        fn update_direct(&mut self, item: u64) {
            self.inner.update_direct(item);
        }
        fn publish(&self, view: &Self::View) {
            self.inner.publish(view);
        }
        fn snapshot(view: &Self::View) -> f64 {
            SumGlobal::snapshot(view)
        }
        fn calc_hint(&self) {}
        fn stream_len(&self) -> u64 {
            self.inner.stream_len()
        }
        fn merge_shard_views(views: &[&Self::View]) -> f64 {
            SumGlobal::merge_shard_views(views)
        }
    }

    #[test]
    fn dead_propagator_surfaces_flush_error_without_deadlock() {
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0, // no eager phase
            max_buffer_size: 4,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(PoisonableSumGlobal::default(), cfg).unwrap();
        let mut w = sketch.writer();
        // Fill and hand off a clean buffer first so a completed
        // propagation sits behind the poisoned one.
        for i in 0..4u64 {
            w.update(i);
        }
        // Fill a poisoned buffer; the boundary flush hands it off and the
        // propagator dies merging it.
        w.update(POISON);
        for i in 0..3u64 {
            w.update(i);
        }
        // The next flush must fail fast instead of spinning on the
        // never-completing hand-off.
        let mut got = Ok(());
        for i in 0..64u64 {
            w.update(i);
            got = w.flush();
            if got.is_err() {
                break;
            }
        }
        assert_eq!(
            got,
            Err(FlushError::PropagatorDead { shard: 0 }),
            "flush must surface the dead propagator"
        );
        // The latch is sticky and the buffer was discarded.
        assert_eq!(w.buffered(), 0);
        w.update(7);
        assert_eq!(got, w.flush(), "repeat flush must fail fast");
        assert!(sketch.is_degraded());
        // Neither quiesce nor teardown may hang or re-panic.
        sketch.quiesce();
        drop(w);
        drop(sketch);
    }

    #[test]
    fn flush_after_clean_run_is_ok() {
        let cfg = ConcurrencyConfig {
            writers: 1,
            max_concurrency_error: 1.0,
            max_buffer_size: 8,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        let mut w = sketch.writer();
        for i in 0..100u64 {
            w.update(i);
        }
        assert_eq!(w.flush(), Ok(()));
        assert!(!sketch.is_degraded());
    }

    #[test]
    fn relaxation_accessor() {
        let cfg = ConcurrencyConfig {
            writers: 4,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let r = cfg.relaxation();
        let sketch = ConcurrentSketch::start(SumGlobal::default(), cfg).unwrap();
        assert_eq!(sketch.relaxation(), r);
        let sharded = ConcurrencyConfig {
            writers: 4,
            shards: 4,
            max_concurrency_error: 1.0,
            ..Default::default()
        };
        let sketch = ConcurrentSketch::start(SumGlobal::default(), sharded).unwrap();
        assert_eq!(sketch.relaxation(), r, "r must not depend on K");
        assert_eq!(sketch.shard_count(), 4);
    }
}
