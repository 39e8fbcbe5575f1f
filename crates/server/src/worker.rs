//! Stream workers: spawning a stream's engine and ingest threads, and
//! the worker loop that drains a bounded queue into an engine writer.

use crate::breaker::CircuitBreaker;
use crate::registry::{build_engine, StreamState, WorkerExit, WorkerHandle};
use crate::slots::Slots;
use crate::{ServerCtx, POLL_INTERVAL};
use fcds_core::engine::EngineWriter;
use fcds_sketches::wire::SketchFamily;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};

/// Spawns a fully-wired stream: builds the engine for `family`, starts
/// `workers_n` worker threads each owning one engine writer, and
/// returns the state ready to insert into the registry.
pub(crate) fn spawn_stream(
    ctx: &Arc<ServerCtx>,
    key: &[u8],
    family: SketchFamily,
    workers_n: usize,
) -> Result<Arc<StreamState>, String> {
    let workers_n = workers_n.max(1);
    let engine = build_engine(family, ctx.cfg.lg_k, ctx.cfg.backend, workers_n)?;
    let mut handles = Vec::with_capacity(workers_n);
    let mut rxs: Vec<Receiver<Vec<u64>>> = Vec::with_capacity(workers_n);
    for _ in 0..workers_n {
        let (tx, rx) = sync_channel::<Vec<u64>>(ctx.cfg.queue_depth.max(1));
        handles.push(WorkerHandle {
            tx,
            breaker: Arc::new(CircuitBreaker::new(
                ctx.cfg.breaker_threshold.max(1),
                ctx.cfg.breaker_cooldown,
            )),
            dead: Arc::new(AtomicBool::new(false)),
        });
        rxs.push(rx);
    }
    let state = Arc::new(StreamState {
        key: key.to_vec(),
        family,
        engine,
        workers: handles,
        worker_joins: Mutex::new(Vec::with_capacity(workers_n)),
        next_worker: AtomicUsize::new(0),
        retired: AtomicBool::new(false),
        items: AtomicU64::new(0),
        slots: Slots::default(),
        persisted_seq: AtomicU64::new(0),
        snapshot_dirty: AtomicBool::new(false),
    });
    let mut joins = Vec::with_capacity(workers_n);
    for (i, rx) in rxs.into_iter().enumerate() {
        let ctx = Arc::clone(ctx);
        let state2 = Arc::clone(&state);
        let writer = state.engine.writer();
        joins.push(
            std::thread::Builder::new()
                .name(format!("fcds-stream-worker-{i}"))
                .spawn(move || stream_worker(ctx, state2, i, writer, rx))
                .map_err(|e| format!("spawn stream worker: {e}"))?,
        );
    }
    *state.worker_joins.lock().unwrap_or_else(|e| e.into_inner()) = joins;
    ctx.stats.streams_created.fetch_add(1, Ordering::Relaxed);
    Ok(state)
}

/// The per-stream ingest worker: drains its bounded queue into its
/// engine writer (family-generic through [`EngineWriter`]). Runs under
/// `catch_unwind`; a panic (injected faults, engine bugs) kills only
/// this worker, trips its breaker, and marks it dead so dispatch routes
/// around it — workers of *other* streams are untouched, which is the
/// per-stream isolation property the registry suite asserts.
fn stream_worker(
    ctx: Arc<ServerCtx>,
    state: Arc<StreamState>,
    index: usize,
    writer: Box<dyn EngineWriter>,
    rx: Receiver<Vec<u64>>,
) -> WorkerExit {
    let me = state.workers[index].clone();
    let exit = catch_unwind(AssertUnwindSafe(|| {
        stream_worker_impl(&ctx, &state, &me, writer, &rx)
    }));
    match exit {
        Ok(e) => e,
        Err(_) => {
            me.dead.store(true, Ordering::Release);
            me.breaker.trip();
            ctx.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            WorkerExit::Panicked
        }
    }
}

fn stream_worker_impl(
    ctx: &ServerCtx,
    state: &StreamState,
    me: &WorkerHandle,
    mut writer: Box<dyn EngineWriter>,
    rx: &Receiver<Vec<u64>>,
) -> WorkerExit {
    loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(batch) => {
                if let Some(poison) = ctx.cfg.fault_panic_on {
                    if batch.contains(&poison) {
                        panic!("injected fault: poisoned ingest item {poison}");
                    }
                }
                let n = batch.len() as u64;
                writer.ingest_batch(&batch);
                // Surface engine-side propagation faults (a dead
                // propagator thread) promptly instead of only at drain:
                // flush after each batch. With the writer-assisted
                // backend this is propagation the writer performs
                // anyway; with the dedicated-thread backend it bounds
                // the un-acked window to one batch.
                match writer.flush() {
                    Ok(()) => {
                        ctx.stats.ingest_items.fetch_add(n, Ordering::Relaxed);
                        state.items.fetch_add(n, Ordering::Relaxed);
                        me.breaker.record_success();
                    }
                    Err(_e) => {
                        ctx.stats.flush_errors.fetch_add(1, Ordering::Relaxed);
                        me.dead.store(true, Ordering::Release);
                        me.breaker.trip();
                        return WorkerExit::FlushFailed;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if ctx.ctl.draining.load(Ordering::Acquire)
                    || ctx.ctl.shutdown.load(Ordering::Acquire)
                    || state.retired.load(Ordering::Acquire)
                {
                    // Dispatch stopped admitting before the flag was
                    // set, so an empty poll during a drain/retire means
                    // the queue is finally dry: flush and exit.
                    return match writer.flush() {
                        Ok(()) => WorkerExit::Flushed,
                        Err(_) => {
                            ctx.stats.flush_errors.fetch_add(1, Ordering::Relaxed);
                            me.dead.store(true, Ordering::Release);
                            me.breaker.trip();
                            WorkerExit::FlushFailed
                        }
                    };
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // All senders gone (server handle dropped mid-teardown).
                return match writer.flush() {
                    Ok(()) => WorkerExit::Flushed,
                    Err(_) => WorkerExit::FlushFailed,
                };
            }
        }
    }
}
