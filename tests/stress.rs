//! Stress and lifecycle tests: writer churn, heavy query pressure,
//! shutdown semantics, and long mixed runs. These target the hand-off
//! protocol's edge cases rather than statistical accuracy.

use fcds::FlushError;
use fcds::{EngineBuilder, HllFamily, ThetaFamily};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn writer_churn_many_generations() {
    // Writers repeatedly join, write, and leave while others are active;
    // every generation's updates must be eventually visible.
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(10)
        .seed(1)
        .writers(4)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    let n_gens = 8u64;
    let per_gen = 20_000u64;
    for gen in 0..n_gens {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut w = sketch.writer();
                s.spawn(move || {
                    let base = gen * 4 * per_gen + t * per_gen;
                    for i in 0..per_gen {
                        w.update(base + i);
                    }
                    // Dropped here: flush + retire.
                });
            }
        });
    }
    sketch.quiesce();
    let truth = (n_gens * 4 * per_gen) as f64;
    let rel = (sketch.estimate() - truth).abs() / truth;
    assert!(rel < 0.1, "estimate {} vs {truth}", sketch.estimate());
}

#[test]
fn query_hammering_does_not_disturb_ingestion() {
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(11)
        .seed(2)
        .writers(2)
        .build()
        .unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for i in 0..300_000u64 {
                    w.update(t * 300_000 + i);
                }
                w.flush().unwrap();
            });
        }
        for _ in 0..6 {
            let (sk, stop) = (&sketch, &stop);
            s.spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(sk.estimate());
                    reads += 1;
                }
                assert!(reads > 0);
            });
        }
        // Writers joined by scope when their closures end; stop readers.
        // (Spawned writer threads finish first because readers loop on a
        // flag we only set after the writers' joins complete — emulate by
        // sleeping briefly then setting the flag.)
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    sketch.quiesce();
    let rel = (sketch.estimate() - 600_000.0).abs() / 600_000.0;
    assert!(rel < 0.1, "estimate {}", sketch.estimate());
}

#[test]
fn dropping_sketch_before_writers_is_safe() {
    // Writers must not deadlock or crash if the main handle (and its
    // propagator) goes away first; their remaining updates are dropped by
    // the documented teardown semantics.
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(8)
        .seed(3)
        .writers(2)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    let mut w1 = sketch.writer();
    let mut w2 = sketch.writer();
    for i in 0..10_000u64 {
        w1.update(i);
        w2.update(i + 10_000);
    }
    drop(sketch); // stops the propagator
                  // Writers keep updating and flushing into a dead engine: must return
                  // the typed shutdown error, not hang.
    for i in 0..1_000u64 {
        w1.update(i + 50_000);
        w2.update(i + 60_000);
    }
    assert_eq!(w1.flush(), Err(FlushError::ShuttingDown));
    assert_eq!(w2.flush(), Err(FlushError::ShuttingDown));
    drop(w1);
    drop(w2);
}

#[test]
fn rapid_create_destroy_cycles() {
    // Engine startup/shutdown leaks or races show up here.
    for i in 0..50 {
        let sketch = EngineBuilder::<ThetaFamily>::new()
            .accuracy(6)
            .seed(i)
            .writers(1)
            .build()
            .unwrap();
        let mut w = sketch.writer();
        for v in 0..500u64 {
            w.update(v);
        }
        w.flush().unwrap();
        sketch.quiesce();
        assert!(sketch.estimate() > 0.0);
    }
}

#[test]
fn hll_under_writer_churn() {
    let sketch = EngineBuilder::<HllFamily>::new()
        .accuracy(11)
        .seed(7)
        .writers(3)
        .build()
        .unwrap();
    for gen in 0..5u64 {
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let mut w = sketch.writer();
                s.spawn(move || {
                    for i in 0..30_000u64 {
                        w.update(gen * 90_000 + t * 30_000 + i);
                    }
                });
            }
        });
    }
    sketch.quiesce();
    let truth = (5 * 90_000) as f64;
    let rel = (sketch.estimate() - truth).abs() / truth;
    assert!(rel < 0.1, "estimate {}", sketch.estimate());
}

#[test]
fn zero_update_writers_are_harmless() {
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(8)
        .seed(5)
        .writers(4)
        .build()
        .unwrap();
    {
        let _w1 = sketch.writer();
        let _w2 = sketch.writer();
        let _w3 = sketch.writer();
    } // all retire without a single update
    sketch.quiesce();
    assert_eq!(sketch.estimate(), 0.0);
}

#[test]
fn duplicate_heavy_concurrent_stream() {
    // All writers hammer the same small key space: dedup must hold across
    // local buffers (duplicates merge at the global sketch).
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(10)
        .seed(6)
        .writers(4)
        .build()
        .unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for round in 0..20u64 {
                    for v in 0..1_000u64 {
                        w.update(v + (round % 2) * 500); // overlapping windows
                    }
                }
                w.flush().unwrap();
            });
        }
    });
    sketch.quiesce();
    // Key space is 0..1500.
    assert_eq!(sketch.estimate(), 1_500.0, "exact mode dedup failed");
}
