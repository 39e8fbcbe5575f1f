//! Quickstart: count distinct items from multiple threads and query in
//! real time.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fcds::{EngineBuilder, ThetaFamily};
use std::time::Instant;

fn main() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 2_000_000;

    // k = 4096, e = 0.04: the paper's default configuration. The builder
    // derives the eager-propagation limit (2/e² = 1250) and the local
    // buffer size b from these.
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(12)
        .writers(WRITERS as usize)
        .max_concurrency_error(0.04)
        .build()
        .expect("valid configuration");

    println!(
        "concurrent Θ sketch: k = {}, relaxation r = 2Nb = {}",
        sketch.k(),
        sketch.relaxation()
    );

    let start = Instant::now();
    std::thread::scope(|s| {
        // One writer handle per ingestion thread, feeding through the
        // batched fast path: one `update_batch` call per chunk hoists
        // the phase/filter/hint checks out of the per-item loop (use
        // `w.update(item)` for item-at-a-time sources — same result).
        const BATCH: u64 = 1024;
        for t in 0..WRITERS {
            let mut w = sketch.writer();
            s.spawn(move || {
                let (base, end) = (t * PER_WRITER, (t + 1) * PER_WRITER);
                let mut batch = Vec::with_capacity(BATCH as usize);
                let mut next = base;
                while next < end {
                    batch.clear();
                    batch.extend(next..end.min(next + BATCH)); // disjoint ranges: all distinct
                    w.update_batch(&batch);
                    next += batch.len() as u64;
                }
            });
        }
        // Queries run concurrently with ingestion — no locks, no waiting.
        s.spawn(|| {
            for _ in 0..10 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                println!("  live estimate: {:>12.0}", sketch.estimate());
            }
        });
    });

    let elapsed = start.elapsed();
    sketch.quiesce();
    let total = (WRITERS * PER_WRITER) as f64;
    let est = sketch.estimate();
    println!("\ningested {total:.0} distinct items in {elapsed:.2?}");
    println!(
        "throughput: {:.1} M updates/s",
        total / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "final estimate: {est:.0} (true {total:.0}, error {:+.2}%)",
        (est / total - 1.0) * 100.0
    );
    println!(
        "configured error bound: ±{:.2}%",
        sketch.error_bound() * 100.0
    );
}
