//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **hint pre-filter** (`shouldAdd`, §5.1) — on vs off. The paper
//!   credits the filter for the near-perfect scalability of Figure 1;
//!   disabling it forces every update through the hand-off protocol.
//! * **double buffering** (`OptParSketch` vs `ParSketch`, §5.2) — the
//!   gray lines of Algorithm 2. Without it the update thread idles while
//!   the propagator merges.
//! * **eager phase** (§5.3) — covered by `eager_speedup.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fcds_core::engine::{EngineBuilder, ThetaFamily};
use std::time::{Duration, Instant};

const LG_K: u8 = 12;
const UNIQUES: u64 = 1 << 19;

fn run(writers: usize, prefilter: bool, double_buffering: bool, nonce: u64) -> Duration {
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(usize::from(LG_K))
        .seed(9001)
        .writers(writers)
        .max_concurrency_error(1.0)
        .double_buffering(double_buffering)
        .disable_prefilter(!prefilter)
        .build()
        .unwrap();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..writers as u64 {
            let mut w = sketch.writer();
            let base = nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let per = UNIQUES / writers as u64;
            s.spawn(move || {
                for i in 0..per {
                    w.update(base.wrapping_add(t * per + i));
                }
            });
        }
    });
    start.elapsed()
}

fn bench_prefilter(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_prefilter");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(UNIQUES));
    for writers in [1usize, 4] {
        for (label, prefilter) in [("with-shouldAdd", true), ("no-shouldAdd", false)] {
            group.bench_with_input(BenchmarkId::new(label, writers), &writers, |b, &writers| {
                let mut nonce = 0u64;
                b.iter(|| {
                    nonce += 1;
                    run(writers, prefilter, true, nonce)
                });
            });
        }
    }
    group.finish();
}

fn bench_double_buffering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_double_buffering");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(UNIQUES));
    for writers in [1usize, 4] {
        for (label, db) in [("optparsketch", true), ("parsketch", false)] {
            group.bench_with_input(BenchmarkId::new(label, writers), &writers, |b, &writers| {
                let mut nonce = 0u64;
                b.iter(|| {
                    nonce += 1;
                    run(writers, true, db, nonce)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_prefilter, bench_double_buffering);
criterion_main!(benches);
