//! Criterion bench: concurrent Quantiles sketch ingestion vs the
//! lock-based baseline (the paper analyses Quantiles error only; this
//! bench documents the throughput profile of our instantiation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fcds_core::engine::{EngineBuilder, QuantilesFamily};
use fcds_core::lock_based::LockBasedQuantiles;
use fcds_sketches::oracle::DeterministicOracle;
use std::time::{Duration, Instant};

const K: usize = 128;
const ITEMS: u64 = 1 << 17;

fn feed_concurrent(writers: usize, nonce: u64) -> Duration {
    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(K)
        .writers(writers)
        .seed(nonce)
        .build()
        .unwrap();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..writers as u64 {
            let mut w = sketch.writer();
            let writers = writers as u64;
            s.spawn(move || {
                for i in 0..ITEMS / writers {
                    w.update(i * writers + t);
                }
            });
        }
    });
    start.elapsed()
}

fn feed_lock_based(threads: usize, nonce: u64) -> Duration {
    let sketch = LockBasedQuantiles::new(K, DeterministicOracle::new(nonce)).unwrap();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let sketch = &sketch;
            let threads = threads as u64;
            s.spawn(move || {
                for i in 0..ITEMS / threads {
                    sketch.update(i * threads + t);
                }
            });
        }
    });
    start.elapsed()
}

fn bench_quantiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantiles_ingest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(ITEMS));

    for w in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("concurrent", w), &w, |b, &w| {
            let mut nonce = 0u64;
            b.iter(|| {
                nonce += 1;
                feed_concurrent(w, nonce)
            });
        });
        group.bench_with_input(BenchmarkId::new("lock-based", w), &w, |b, &w| {
            let mut nonce = 0u64;
            b.iter(|| {
                nonce += 1;
                feed_lock_based(w, nonce)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quantiles);
criterion_main!(benches);
