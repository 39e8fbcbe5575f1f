//! Sketch drivers: uniform interfaces for timing the concurrent Θ sketch
//! against the lock-based baseline under the workloads of §7.

use crate::workload::UniqueStream;
use fcds_core::engine::{EngineBuilder, ThetaFamily};
use fcds_core::lock_based::LockBasedTheta;
use fcds_core::theta::ConcurrentThetaSketch;
use fcds_core::PropagationBackendKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which Θ implementation a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThetaImpl {
    /// The paper's concurrent sketch with `N` writers and error parameter
    /// `e` (`e = 1.0` disables eager propagation).
    Concurrent {
        /// Number of writer threads.
        writers: usize,
        /// Max concurrency error `e`.
        e: f64,
        /// Optional explicit cap on the buffer size `b`.
        max_b: Option<u64>,
    },
    /// The K-way sharded engine (no eager phase, default `b`): writers
    /// round-robined onto `shards` independent globals, propagation per
    /// the selected backend.
    Sharded {
        /// Number of writer threads.
        writers: usize,
        /// Number of shards `K`.
        shards: usize,
        /// Propagation backend.
        backend: PropagationBackendKind,
    },
    /// The lock-based baseline with `threads` updating threads.
    LockBased {
        /// Number of updating threads.
        threads: usize,
    },
}

impl ThetaImpl {
    /// The paper's Figure-1 concurrent configuration: `b = 1` per writer.
    pub fn concurrent_b1(writers: usize) -> Self {
        ThetaImpl::Concurrent {
            writers,
            e: 1.0,
            max_b: Some(1),
        }
    }

    /// The default concurrent configuration (`e = 0.04`).
    pub fn concurrent(writers: usize) -> Self {
        ThetaImpl::Concurrent {
            writers,
            e: 0.04,
            max_b: None,
        }
    }

    /// A K-way sharded configuration.
    pub fn sharded(writers: usize, shards: usize, backend: PropagationBackendKind) -> Self {
        ThetaImpl::Sharded {
            writers,
            shards,
            backend,
        }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            ThetaImpl::Concurrent { writers, e, max_b } => match max_b {
                Some(b) => format!("concurrent({writers}w,e={e},b={b})"),
                None => format!("concurrent({writers}w,e={e})"),
            },
            ThetaImpl::Sharded {
                writers,
                shards,
                backend,
            } => {
                let bk = match backend {
                    PropagationBackendKind::DedicatedThread => "dedicated",
                    PropagationBackendKind::WriterAssisted => "assisted",
                };
                format!("sharded({writers}w,{shards}K,{bk})")
            }
            ThetaImpl::LockBased { threads } => format!("lock-based({threads}t)"),
        }
    }

    /// Number of updating threads this implementation uses.
    pub fn threads(&self) -> usize {
        match self {
            ThetaImpl::Concurrent { writers, .. } => *writers,
            ThetaImpl::Sharded { writers, .. } => *writers,
            ThetaImpl::LockBased { threads } => *threads,
        }
    }

    /// Builds the concurrent sketch for the non-lock-based variants.
    fn build_concurrent(&self, lg_k: u8) -> Option<ConcurrentThetaSketch> {
        match *self {
            ThetaImpl::Concurrent { writers, e, max_b } => {
                let mut builder = EngineBuilder::<ThetaFamily>::new()
                    .accuracy(usize::from(lg_k))
                    .seed(9001)
                    .writers(writers)
                    .max_concurrency_error(e);
                if let Some(mb) = max_b {
                    builder = builder.max_buffer_size(mb);
                }
                Some(builder.build().expect("build concurrent sketch"))
            }
            ThetaImpl::Sharded {
                writers,
                shards,
                backend,
            } => Some(
                EngineBuilder::<ThetaFamily>::new()
                    .accuracy(usize::from(lg_k))
                    .seed(9001)
                    .writers(writers)
                    .shards(shards)
                    .max_concurrency_error(1.0)
                    .backend(backend)
                    .build()
                    .expect("build sharded sketch"),
            ),
            ThetaImpl::LockBased { .. } => None,
        }
    }
}

/// Feeds `stream` into `w`, one update per item.
fn feed_writer(w: &mut fcds_core::theta::ThetaWriter, stream: &UniqueStream) {
    for v in stream.iter() {
        w.update(v);
    }
}

/// Feeds `uniques` distinct values (split across the configured threads)
/// into a fresh sketch and returns the wall-clock duration of the feed
/// phase (§7.1's write-only workload). `nonce` de-correlates trials.
pub fn time_write_only(impl_: ThetaImpl, lg_k: u8, uniques: u64, nonce: u64) -> Duration {
    match impl_ {
        ThetaImpl::Concurrent { .. } | ThetaImpl::Sharded { .. } => {
            let writers = impl_.threads();
            let sketch = impl_.build_concurrent(lg_k).expect("concurrent variant");
            if writers == 1 {
                // Feed inline: thread-spawn latency would otherwise
                // dominate small-stream measurements (§7.1 measures feed
                // time, not setup).
                let mut w = sketch.writer();
                let stream = UniqueStream::for_thread(uniques, 1, 0, nonce);
                let start = Instant::now();
                feed_writer(&mut w, &stream);
                return start.elapsed();
            }
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..writers {
                    let mut w = sketch.writer();
                    let stream = UniqueStream::for_thread(uniques, writers, t, nonce);
                    s.spawn(move || feed_writer(&mut w, &stream));
                }
            });
            start.elapsed()
        }
        ThetaImpl::LockBased { threads } => {
            let sketch = LockBasedTheta::new(lg_k, 9001).expect("build lock-based sketch");
            if threads == 1 {
                let stream = UniqueStream::for_thread(uniques, 1, 0, nonce);
                let start = Instant::now();
                for v in stream.iter() {
                    sketch.update(v);
                }
                return start.elapsed();
            }
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let sketch = &sketch;
                    let stream = UniqueStream::for_thread(uniques, threads, t, nonce);
                    s.spawn(move || {
                        for v in stream.iter() {
                            sketch.update(v);
                        }
                    });
                }
            });
            start.elapsed()
        }
    }
}

/// Result of a mixed read/write measurement (Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct MixedResult {
    /// Wall-clock duration of the write phase.
    pub write_duration: Duration,
    /// Number of queries the background readers completed meanwhile.
    pub queries: u64,
}

/// The §7.1 mixed workload: `readers` background threads issue a query
/// then pause `read_pause` (the paper uses 1 ms), while the writers
/// ingest `uniques` values. Returns the write duration.
pub fn time_mixed(
    impl_: ThetaImpl,
    lg_k: u8,
    uniques: u64,
    readers: usize,
    read_pause: Duration,
    nonce: u64,
) -> MixedResult {
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let write_duration = match impl_ {
        ThetaImpl::Concurrent { .. } | ThetaImpl::Sharded { .. } => {
            let writers = impl_.threads();
            let sketch = impl_.build_concurrent(lg_k).expect("concurrent variant");
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..readers {
                    let sketch = &sketch;
                    let (stop, queries) = (&stop, &queries);
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::black_box(sketch.estimate());
                            queries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(read_pause);
                        }
                    });
                }
                let writer_handles: Vec<_> = (0..writers)
                    .map(|t| {
                        let mut w = sketch.writer();
                        let stream = UniqueStream::for_thread(uniques, writers, t, nonce);
                        s.spawn(move || feed_writer(&mut w, &stream))
                    })
                    .collect();
                for h in writer_handles {
                    let _ = h.join();
                }
                stop.store(true, Ordering::Relaxed);
            });
            start.elapsed()
        }
        ThetaImpl::LockBased { threads } => {
            let sketch = LockBasedTheta::new(lg_k, 9001).expect("build lock-based sketch");
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..readers {
                    let sketch = &sketch;
                    let (stop, queries) = (&stop, &queries);
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::black_box(sketch.estimate());
                            queries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(read_pause);
                        }
                    });
                }
                let writer_handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let sketch = &sketch;
                        let stream = UniqueStream::for_thread(uniques, threads, t, nonce);
                        s.spawn(move || {
                            for v in stream.iter() {
                                sketch.update(v);
                            }
                        })
                    })
                    .collect();
                for h in writer_handles {
                    let _ = h.join();
                }
                stop.store(true, Ordering::Relaxed);
            });
            start.elapsed()
        }
    };
    MixedResult {
        write_duration,
        queries: queries.load(Ordering::Relaxed),
    }
}

/// One accuracy trial of §7.1: feed `uniques` values through a single
/// writer and log the *relative error* `est/true − 1` of a query taken
/// immediately after the last update — without flushing, so propagation
/// delay is part of what is measured. A fresh hash seed per trial
/// (`nonce`) gives independent samples.
pub fn accuracy_trial(lg_k: u8, e: f64, uniques: u64, nonce: u64) -> f64 {
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(usize::from(lg_k))
        .seed(0x5EED_0000 + nonce)
        .writers(1)
        .max_concurrency_error(e)
        .build()
        .expect("build concurrent sketch");
    let mut w = sketch.writer();
    let stream = UniqueStream::for_thread(uniques, 1, 0, nonce);
    for v in stream.iter() {
        w.update(v);
    }
    let est = sketch.estimate();
    est / uniques as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_only_drivers_run() {
        for impl_ in [
            ThetaImpl::concurrent(2),
            ThetaImpl::concurrent_b1(2),
            ThetaImpl::sharded(2, 2, PropagationBackendKind::DedicatedThread),
            ThetaImpl::sharded(2, 2, PropagationBackendKind::WriterAssisted),
            ThetaImpl::LockBased { threads: 2 },
        ] {
            let d = time_write_only(impl_, 9, 10_000, 1);
            assert!(d.as_nanos() > 0, "{} produced zero duration", impl_.label());
        }
    }

    #[test]
    fn sharded_labels_are_informative() {
        let l = ThetaImpl::sharded(8, 4, PropagationBackendKind::WriterAssisted).label();
        assert!(
            l.contains("8w") && l.contains("4K") && l.contains("assisted"),
            "{l}"
        );
    }

    #[test]
    fn mixed_driver_counts_queries() {
        let r = time_mixed(
            ThetaImpl::concurrent(1),
            9,
            50_000,
            2,
            Duration::from_micros(100),
            1,
        );
        assert!(r.write_duration.as_nanos() > 0);
        // Readers should have managed at least one query each.
        assert!(r.queries >= 1, "queries = {}", r.queries);
    }

    #[test]
    fn accuracy_trial_is_small_for_large_streams() {
        let re = accuracy_trial(12, 0.04, 100_000, 3);
        assert!(re.abs() < 0.2, "relative error {re}");
    }

    #[test]
    fn labels_are_informative() {
        assert!(ThetaImpl::concurrent_b1(4).label().contains("b=1"));
        assert!(ThetaImpl::LockBased { threads: 3 }.label().contains("3t"));
    }
}
