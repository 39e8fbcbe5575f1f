//! Live service-latency percentiles: a concurrent Quantiles sketch fed by
//! several "request handler" threads while a dashboard thread reads p50 /
//! p95 / p99 in real time.
//!
//! ```sh
//! cargo run --release --example latency_quantiles
//! ```

use fcds::sketches::quantiles::TotalF64;
use fcds::{EngineBuilder, QuantilesFamily};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// Log-normal-ish latency in milliseconds: a 2 ms body with a heavy tail.
fn sample_latency(rng: &mut SmallRng) -> f64 {
    let base = 2.0 + rng.random::<f64>() * 3.0;
    if rng.random_bool(0.02) {
        base + rng.random::<f64>() * 200.0 // slow outliers
    } else {
        base
    }
}

fn main() {
    const HANDLERS: usize = 4;
    const REQUESTS_PER_HANDLER: u64 = 500_000;

    let sketch = EngineBuilder::<QuantilesFamily<TotalF64>>::new()
        .accuracy(128)
        .writers(HANDLERS)
        .max_concurrency_error(0.04)
        .build()
        .expect("valid configuration");
    println!(
        "concurrent Quantiles sketch: k = {}, relaxation r = {}, ε_r bound shrinks as n grows",
        sketch.k(),
        sketch.relaxation()
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handlers: Vec<_> = (0..HANDLERS)
            .map(|h| {
                let mut w = sketch.writer();
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(h as u64);
                    for _ in 0..REQUESTS_PER_HANDLER {
                        w.update(TotalF64(sample_latency(&mut rng)));
                    }
                })
            })
            .collect();
        // Dashboard: wait-free snapshot reads, mutually consistent within
        // one snapshot.
        let (sketch_ref, done_ref) = (&sketch, &done);
        s.spawn(move || {
            while !done_ref.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(50));
                let snap = sketch_ref.snapshot();
                if snap.n() == 0 {
                    continue;
                }
                let q = |phi: f64| snap.quantile(phi).map_or(f64::NAN, |v| v.0);
                println!(
                    "  n={:>8}  p50={:5.2}ms  p95={:5.2}ms  p99={:6.2}ms",
                    snap.n(),
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
        });
        // Writer threads finish (flushing their partial buffers on
        // drop), then stop the dashboard — the flag must flip *inside*
        // the scope or the scope's implicit join would wait on the
        // dashboard forever.
        for h in handlers {
            h.join().expect("handler thread panicked");
        }
        done.store(true, Ordering::Relaxed);
    });

    sketch.quiesce();
    let snap = sketch.snapshot();
    let q = |phi: f64| snap.quantile(phi).map_or(f64::NAN, |v| v.0);
    println!("\nfinal ({} requests):", snap.n());
    println!("  p50 = {:.2} ms (body is 2–5 ms)", q(0.50));
    println!("  p95 = {:.2} ms", q(0.95));
    println!("  p99 = {:.2} ms (tail outliers reach ~200 ms)", q(0.99));
    println!(
        "  SLA check: rank(10ms) = {:.3} of requests under 10 ms",
        snap.rank(&TotalF64(10.0))
    );
    println!("  rank error bound ε_r ≈ {:.4}", sketch.relaxed_epsilon());
}
