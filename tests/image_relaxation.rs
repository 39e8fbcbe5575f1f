//! Theorem 1 on the served path, for all four families: every wire image
//! a `dyn StreamEngine` publishes while one writer feeds it batch calls
//! is admissible under the engine's relaxation `r`, judged by
//! `fcds_relaxation::check_image` — the same check the drills run on
//! images read over the network.
//!
//! Each engine is what the server's registry builds: the writer-assisted
//! backend, one declared writer. The writer feeds 250-item
//! `ingest_batch` calls; a querier reads `wire_image()` concurrently,
//! and each read is checked at the window `[items of calls returned
//! before the read, items of calls invoked before it ended]`.

use fcds::core::engine::{
    EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, StreamEngine, ThetaFamily,
};
use fcds::relaxation::check_image;
use fcds::{ConcurrencyConfig, PropagationBackendKind, SketchFamily};
use std::sync::atomic::{AtomicUsize, Ordering};

const LG_K: u8 = 9;
const BATCH: usize = 250;
/// Reads per family, the last one after the writer stopped.
const READS: usize = 64;
/// Batch calls between two concurrent reads.
const SPACING: usize = 3;
const CALLS: usize = SPACING * (READS - 1);

/// Half distinct items (Θ and HLL in estimation mode), half drawn from
/// 500 keys skewed toward the small ones (Misra–Gries reductions).
fn items() -> Vec<u64> {
    (0..(BATCH * CALLS) as u64)
        .map(|i| {
            let h = (i ^ 0x5bd1_e995).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if i % 2 == 0 {
                1 << 32 | i
            } else {
                (500.0 * u * u * u) as u64
            }
        })
        .collect()
}

fn engine(family: SketchFamily, config: ConcurrencyConfig) -> Box<dyn StreamEngine> {
    match family {
        SketchFamily::Theta => EngineBuilder::<ThetaFamily>::new()
            .accuracy(LG_K as usize)
            .config(config)
            .build_boxed(),
        SketchFamily::Hll => EngineBuilder::<HllFamily>::new()
            .config(config)
            .build_boxed(),
        SketchFamily::Quantiles => EngineBuilder::<QuantilesFamily<u64>>::new()
            .config(config)
            .build_boxed(),
        SketchFamily::Frequency => EngineBuilder::<FrequencyFamily<u64>>::new()
            .config(config)
            .build_boxed(),
    }
    .unwrap()
}

/// One image read and its window `[lo, hi]`.
struct Read {
    image: Vec<u8>,
    lo: usize,
    hi: usize,
}

fn wait_for(counter: &AtomicUsize, at_least: usize) {
    while counter.load(Ordering::SeqCst) < at_least {
        std::thread::yield_now();
    }
}

/// Runs the writer and the querier on `engine`: read `k` starts once
/// `SPACING * k` calls returned, and the writer's next call waits for it
/// to start, so the reads are spread over the run and overlap calls.
fn reads(engine: &dyn StreamEngine, items: &[u64]) -> Vec<Read> {
    let (invoked, returned, started) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let mut reads: Vec<Read> = std::thread::scope(|s| {
        s.spawn(|| {
            let mut writer = engine.writer();
            for (call, batch) in items.chunks(BATCH).enumerate() {
                wait_for(&started, call / SPACING + 1);
                invoked.fetch_add(batch.len(), Ordering::SeqCst);
                writer.ingest_batch(batch);
                returned.fetch_add(batch.len(), Ordering::SeqCst);
            }
        });
        (0..READS - 1)
            .map(|k| {
                wait_for(&returned, k * SPACING * BATCH);
                let lo = returned.load(Ordering::SeqCst);
                started.fetch_add(1, Ordering::SeqCst);
                let image = engine.wire_image().to_vec();
                let hi = invoked.load(Ordering::SeqCst);
                Read { image, lo, hi }
            })
            .collect()
    });
    reads.push(Read {
        image: engine.wire_image().to_vec(),
        lo: items.len(),
        hi: items.len(),
    });
    reads
}

#[test]
fn every_familys_concurrent_images_are_admissible() {
    let config = ConcurrencyConfig {
        backend: PropagationBackendKind::WriterAssisted,
        ..ConcurrencyConfig::default()
    };
    let r = config.relaxation();
    let items = items();
    let mut failures = Vec::new();
    for family in [
        SketchFamily::Theta,
        SketchFamily::Hll,
        SketchFamily::Quantiles,
        SketchFamily::Frequency,
    ] {
        let engine = engine(family, config.clone());
        let reads = reads(engine.as_ref(), &items);
        let rejected: Vec<String> = reads
            .iter()
            .filter_map(|read| {
                check_image(family, &read.image, &items[..read.hi], read.lo, r, LG_K)
                    .err()
                    .map(|v| format!("[{}, {}]: {v}", read.lo, read.hi))
            })
            .collect();
        if let Some(first) = rejected.first() {
            failures.push(format!(
                "{family:?}: {} of {} reads rejected, first {first}",
                rejected.len(),
                reads.len()
            ));
        }
    }
    assert!(failures.is_empty(), "r = {r}: {failures:#?}");
}
