//! The per-key stream registry: the map from opaque stream keys to
//! running [`StreamEngine`]s, plus each stream's fault latch and its
//! [`Slots`] map of merged-in images.
//!
//! Lifecycle contract (documented in the README and exercised by the
//! `registry_streams` suite):
//!
//! * **Create on first ingest or merge** — a v2 `Ingest` or `Merge`
//!   frame for an unknown key creates the stream with the frame's
//!   declared family. Queries never create ([`NackCode::UnknownStream`]
//!   instead), so a typo'd read cannot materialise an empty stream, and
//!   neither does a frame that is NACKed: dispatch validates the body
//!   before it resolves the key.
//! * **Family is fixed at creation** — later frames declaring a
//!   different family are rejected with
//!   [`NackCode::FamilyMismatch`] and leave the stream untouched.
//! * **Isolation** — a stream owns no thread: connection threads are
//!   its update threads, each holding its own engine writer. What a
//!   stream does own is one fault latch ([`StreamState::dead`]): a
//!   poisoned batch or a failed flush fail-stops that stream's ingest
//!   and can never shed or NACK another stream's traffic.
//! * **Retire** — removes the key, quiesces the engine, deletes the
//!   snapshot. A subsequent ingest/merge under the same key creates a
//!   *fresh* stream (any family); a connection still holding a writer
//!   for the old one drops it on its next frame for that key.
//!
//! [`NackCode::UnknownStream`]: crate::frame::NackCode::UnknownStream
//! [`NackCode::FamilyMismatch`]: crate::frame::NackCode::FamilyMismatch

use crate::ship::Mark;
use crate::slots::{fan_in, validate_envelope, Consumer, FaninKey, Fanned, Slots, SlotsFull, Want};
use crate::{ServerConfig, ServerCtx, DEFAULT_STREAM};
use bytes::Bytes;
use fcds_core::engine::{
    EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, StreamEngine, ThetaFamily,
};
use fcds_core::{ConcurrencyConfig, PropagationBackendKind};
use fcds_sketches::wire::SketchFamily;
use fcds_sketches::WireError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One registered stream: a running engine plus everything the server
/// scopes to it (fault latch, image slots).
pub(crate) struct StreamState {
    pub(crate) key: Vec<u8>,
    pub(crate) family: SketchFamily,
    pub(crate) engine: Box<dyn StreamEngine>,
    /// The stream's fault latch: set when an ingest panicked or a flush
    /// failed on any connection. Never cleared — from then on the
    /// stream refuses ingest (fail-stop) and serves queries and merges
    /// from what it holds.
    pub(crate) dead: AtomicBool,
    /// Items ingested into this stream's engine (diagnostics).
    pub(crate) items: AtomicU64,
    /// Every image merged into this stream from outside its engine:
    /// the boot-recovered snapshot, replica pushes, accumulating merges.
    pub(crate) slots: Slots,
    /// One [`Mark`] per [`Consumer::SHIPPERS`] entry: how far the
    /// snapshot store and the replica peer have caught up. `items` less
    /// the checkpoint mark's seq is the stream's snapshot lag, the
    /// ingest a crash right now would lose.
    marks: [Mark; 2],
}

impl StreamState {
    fn new(key: &[u8], family: SketchFamily, engine: Box<dyn StreamEngine>) -> StreamState {
        StreamState {
            key: key.to_vec(),
            family,
            engine,
            dead: AtomicBool::new(false),
            items: AtomicU64::new(0),
            slots: Slots::default(),
            marks: Default::default(),
        }
    }

    /// The mark of shipping consumer `who`.
    pub(crate) fn mark(&self, who: Consumer) -> &Mark {
        let at = Consumer::SHIPPERS.iter().position(|&s| s == who);
        &self.marks[at.expect("only a shipping consumer has a mark")]
    }

    /// Stores an accepted merge's image and dirties the mark of every
    /// shipping consumer that sees its slot, so their next rounds ship
    /// the stream even though `items` did not move.
    pub(crate) fn merge(&self, source: Option<u64>, image: Bytes) -> Result<(), SlotsFull> {
        let key = self.slots.put(source, image)?;
        for (who, mark) in Consumer::SHIPPERS.iter().zip(&self.marks) {
            if who.sees(key) {
                mark.dirty();
            }
        }
        Ok(())
    }

    /// The live engine's image followed by the slots `who` sees: what a
    /// checkpoint or a replica push ships. Never empty — the live image
    /// is always present.
    pub(crate) fn images(&self, who: Consumer) -> Vec<Bytes> {
        self.with_live(self.slots.collect(who))
    }

    /// Answers a query. An estimate of a stream with no slot is the
    /// engine's published snapshot — no image, no sort, no shard lock
    /// (every engine mutation republishes under the lock it takes, so
    /// the snapshot is what the fan-in of the lone live image would
    /// read). Anything with a slot, and every image, is the fan-in of
    /// the live image with the slots.
    pub(crate) fn query(&self, want: Want) -> Result<Fanned, WireError> {
        let slots = self.slots.collect(Consumer::Query);
        if slots.is_empty() && want == Want::Estimate {
            return Ok(self
                .engine
                .estimate()
                .map_or(Fanned::NoEstimate, Fanned::Estimate));
        }
        fan_in(self.family, &self.with_live(slots), want)
    }

    /// The live engine's image followed by `slots`.
    fn with_live(&self, slots: Vec<Bytes>) -> Vec<Bytes> {
        std::iter::once(self.engine.wire_image())
            .chain(slots)
            .collect()
    }
}

/// A public, copyable description of one live stream
/// ([`crate::ServerHandle::list_streams`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StreamInfo {
    /// The stream key.
    pub key: Vec<u8>,
    /// The family the stream was created with.
    pub family: SketchFamily,
    /// Items ingested into the stream so far.
    pub items: u64,
    /// [`Self::items`] as of the stream's last durable snapshot (0 when
    /// never persisted or persistence is off).
    pub last_persisted_seq: u64,
    /// `items - last_persisted_seq`: the acked ingest a crash right now
    /// would lose. While the checkpointer is healthy, bounded by one
    /// `snapshot_interval` of traffic plus the round in flight, whose
    /// disk time is not bounded.
    pub snapshot_lag: u64,
}

/// Why [`Registry::get_or_create`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CreateError {
    /// The key exists with a different family.
    FamilyMismatch {
        /// The family the stream was created with.
        expected: SketchFamily,
    },
    /// The registry holds `max_streams` streams already.
    AtCapacity,
    /// Engine construction failed (invalid config).
    Build(String),
}

/// The concurrent key → stream map. One mutex over the map: lookups
/// and creates are short (engine construction happens inside the lock
/// exactly once per key, which is also what makes concurrent
/// create-on-first-ingest of the same key race-free).
pub(crate) struct Registry {
    streams: Mutex<HashMap<Vec<u8>, Arc<StreamState>>>,
    /// Bumped, under the lock, by every create, retire and drain: while
    /// it reads the same, every stream resolved since is still the one
    /// registered under its key. A connection caches its ingest stream
    /// against it instead of locking the map per frame.
    generation: AtomicU64,
    max_streams: usize,
}

impl Registry {
    pub(crate) fn new(max_streams: usize) -> Self {
        Registry {
            streams: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            max_streams: max_streams.max(1),
        }
    }

    /// The current generation. Acquire pairs with the Release of each
    /// bump, which follows its change to the map.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<Arc<StreamState>> {
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Looks up `key`, creating it with `make` if absent. Returns the
    /// stream and whether this call created it.
    pub(crate) fn get_or_create(
        &self,
        key: &[u8],
        family: SketchFamily,
        make: impl FnOnce() -> Result<Arc<StreamState>, String>,
    ) -> Result<(Arc<StreamState>, bool), CreateError> {
        let mut map = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = map.get(key) {
            if existing.family != family {
                return Err(CreateError::FamilyMismatch {
                    expected: existing.family,
                });
            }
            return Ok((Arc::clone(existing), false));
        }
        if map.len() >= self.max_streams {
            return Err(CreateError::AtCapacity);
        }
        let state = make().map_err(CreateError::Build)?;
        map.insert(key.to_vec(), Arc::clone(&state));
        self.bump();
        Ok((state, true))
    }

    /// Removes `key` from the map and returns its state for the caller
    /// to quiesce. `None` if the key was not registered.
    pub(crate) fn retire(&self, key: &[u8]) -> Option<Arc<StreamState>> {
        let mut map = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        let removed = map.remove(key);
        if removed.is_some() {
            self.bump();
        }
        removed
    }

    /// Snapshot of every live stream.
    pub(crate) fn list(&self) -> Vec<Arc<StreamState>> {
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Removes and returns every stream (graceful drain).
    pub(crate) fn drain_all(&self) -> Vec<Arc<StreamState>> {
        let mut map = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        let drained = map.drain().map(|(_, s)| s).collect();
        self.bump();
        drained
    }
}

/// The declared writer count `N` of a named stream: it sizes the
/// engine's buffer `b`, nothing else — every connection that ingests
/// into the stream registers its own writer, so the `N` of `r = 2Nb`
/// is the number of connections holding one.
const STREAM_WRITERS: usize = 1;

/// The declared writer count `N` of stream `key`:
/// [`ServerConfig::ingest_workers`] for the default stream,
/// [`STREAM_WRITERS`] for a named one.
fn declared_writers(cfg: &ServerConfig, key: &[u8]) -> usize {
    let writers = if key == DEFAULT_STREAM {
        cfg.ingest_workers
    } else {
        STREAM_WRITERS
    };
    writers.max(1)
}

/// The relaxation `r = 2Nb` of stream `key` while `live_writers`
/// connections hold a writer on it: every query misses at most this
/// many acked items (Theorem 1). `b` is sized from the stream's
/// *declared* `N`, the `N` of `2Nb` is the live one — no writer cap, so
/// a client that opens more connections widens `r` instead of being
/// refused.
pub fn stream_relaxation(cfg: &ServerConfig, key: &[u8], live_writers: usize) -> u64 {
    let declared = ConcurrencyConfig {
        writers: declared_writers(cfg, key),
        ..ConcurrencyConfig::default()
    };
    declared.relaxation() / declared.writers as u64 * live_writers as u64
}

/// Builds a stream ready to insert into the registry: the engine for
/// `family` with the stream's declared `N`, no thread, passed through
/// the server's engine hook.
pub(crate) fn new_stream(
    ctx: &ServerCtx,
    key: &[u8],
    family: SketchFamily,
) -> Result<Arc<StreamState>, String> {
    let engine = build_engine(family, ctx.cfg.lg_k, declared_writers(&ctx.cfg, key))?;
    let engine = (ctx.engine_hook)(engine);
    let state = Arc::new(StreamState::new(key, family, engine));
    ctx.stats.streams_created.fetch_add(1, Ordering::Relaxed);
    Ok(state)
}

/// Each family's fan-in key (Θ, HLL, Quantiles, Frequency order), read
/// once off an empty engine's image: every stream of a family is built
/// by [`build_engine`] with the same `lg_k`, so its images share it.
pub(crate) fn engine_keys(lg_k: u8) -> Result<[FaninKey; 4], String> {
    let key = |family| validate_envelope(&build_engine(family, lg_k, 1)?.wire_image(), u32::MAX);
    Ok([
        key(SketchFamily::Theta)?,
        key(SketchFamily::Hll)?,
        key(SketchFamily::Quantiles)?,
        key(SketchFamily::Frequency)?,
    ])
}

/// The per-family engine factory: maps a wire family code onto the
/// unified [`EngineBuilder`]. Every engine is writer-assisted — the
/// connection threads propagate, so a stream costs no thread. Θ takes
/// the configured `lg_k`; the other families run at their documented
/// defaults.
fn build_engine(
    family: SketchFamily,
    lg_k: u8,
    writers: usize,
) -> Result<Box<dyn StreamEngine>, String> {
    let backend = PropagationBackendKind::WriterAssisted;
    let built = match family {
        SketchFamily::Theta => EngineBuilder::<ThetaFamily>::new()
            .accuracy(lg_k as usize)
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Hll => EngineBuilder::<HllFamily>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Quantiles => EngineBuilder::<QuantilesFamily<u64>>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Frequency => EngineBuilder::<FrequencyFamily<u64>>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
    };
    built.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcds_core::engine::EngineWriter;
    use fcds_core::runtime::EngineStats;
    use fcds_sketches::hash::DEFAULT_SEED;
    use fcds_sketches::theta::QuickSelectThetaSketch;
    use fcds_sketches::wire::WireEncode;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const NO_IMAGE: &str = "wire_image called";

    /// A Θ engine with a fixed published estimate that panics when asked
    /// for an image.
    struct NoImage;

    impl fcds_core::engine::WireImage for NoImage {
        fn wire_image(&self) -> Bytes {
            panic!("{NO_IMAGE}");
        }
    }

    impl StreamEngine for NoImage {
        fn family(&self) -> SketchFamily {
            SketchFamily::Theta
        }
        fn writer(&self) -> Box<dyn EngineWriter> {
            unreachable!("no ingest here")
        }
        fn estimate(&self) -> Option<f64> {
            Some(42.0)
        }
        fn quiesce(&self) {}
        fn stats(&self) -> EngineStats {
            unreachable!("no drain here")
        }
    }

    #[test]
    fn a_slot_less_estimate_never_builds_an_image() {
        let state = StreamState::new(b"stub", SketchFamily::Theta, Box::new(NoImage));
        match state.query(Want::Estimate) {
            Ok(Fanned::Estimate(value)) => assert_eq!(value.to_bits(), 42.0f64.to_bits()),
            _ => panic!("a slot-less estimate is the engine's"),
        }

        // One slot: the same query now fans in, which needs the image.
        let slot = QuickSelectThetaSketch::new(12, DEFAULT_SEED).unwrap();
        state
            .slots
            .put(None, slot.compact().to_wire_bytes())
            .unwrap();
        let fanned = catch_unwind(AssertUnwindSafe(|| state.query(Want::Estimate)));
        let payload = fanned.err().expect("an estimate with a slot fans in");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(NO_IMAGE)
        );
    }

    #[test]
    fn stream_relaxation_sizes_b_from_the_declared_n_and_counts_live_writers() {
        let cfg = ServerConfig {
            ingest_workers: 2,
            ..ServerConfig::default()
        };
        // b = 16 at N = 1, 12 at N = 2 (e = 0.04).
        assert_eq!(stream_relaxation(&cfg, b"named", 1), 32);
        assert_eq!(stream_relaxation(&cfg, DEFAULT_STREAM, 1), 24);
        for writers in 1..=8 {
            let cfg = ServerConfig {
                ingest_workers: writers,
                ..ServerConfig::default()
            };
            let declared = |writers| {
                ConcurrencyConfig {
                    writers,
                    ..ConcurrencyConfig::default()
                }
                .relaxation()
            };
            assert_eq!(
                stream_relaxation(&cfg, DEFAULT_STREAM, writers),
                declared(writers)
            );
            assert_eq!(
                stream_relaxation(&cfg, b"named", STREAM_WRITERS),
                declared(STREAM_WRITERS)
            );
        }
    }
}
