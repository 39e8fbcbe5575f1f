//! Trending topics: a concurrent Misra–Gries heavy-hitters sketch over a
//! skewed "social media" stream, queried live — the classic frequent-
//! items use case, running on the paper's framework.
//!
//! ```sh
//! cargo run --release --example trending_topics
//! ```

use fcds::{EngineBuilder, FrequencyFamily};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TOPICS: &[&str] = &[
    "concurrency",
    "sketches",
    "rust",
    "linearizability",
    "streaming",
];

fn main() {
    const FEEDS: usize = 4;
    const EVENTS_PER_FEED: u64 = 500_000;

    let sketch = EngineBuilder::<FrequencyFamily<String>>::new()
        .accuracy(64)
        .writers(FEEDS)
        .build()
        .expect("valid configuration");

    println!(
        "ingesting {} events on {FEEDS} feeds…",
        FEEDS as u64 * EVENTS_PER_FEED
    );
    std::thread::scope(|s| {
        for f in 0..FEEDS {
            let mut w = sketch.writer();
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(f as u64);
                for i in 0..EVENTS_PER_FEED {
                    // 30% of traffic hits the named topics (Zipf-ish),
                    // the rest is a long tail of one-off hashtags.
                    let topic = if rng.random_bool(0.3) {
                        let idx = (rng.random::<f64>().powi(2) * TOPICS.len() as f64) as usize;
                        TOPICS[idx.min(TOPICS.len() - 1)].to_string()
                    } else {
                        format!("tag-{f}-{i}")
                    };
                    w.update(topic);
                }
                w.flush().unwrap();
            });
        }
        // A live dashboard thread.
        s.spawn(|| {
            for _ in 0..5 {
                std::thread::sleep(std::time::Duration::from_millis(100));
                let snap = sketch.snapshot();
                if snap.n == 0 {
                    continue;
                }
                let top = snap.heavy_hitters(snap.n / 50);
                let names: Vec<String> = top
                    .iter()
                    .take(3)
                    .map(|(t, e)| format!("{t} (≥{})", e.lower_bound))
                    .collect();
                println!("  n={:>8}: trending {}", snap.n, names.join(", "));
            }
        });
    });
    sketch.quiesce();

    let snap = sketch.snapshot();
    let threshold = snap.n / 100;
    println!(
        "\nfinal heavy hitters (threshold = 1% of {} events):",
        snap.n
    );
    let candidates = snap.heavy_hitters(threshold);
    let mut guaranteed = 0;
    for (topic, est) in &candidates {
        if est.surely_above(threshold) {
            guaranteed += 1;
            println!(
                "  {topic:<16} count ∈ [{}, {}]  (guaranteed > threshold)",
                est.lower_bound, est.upper_bound
            );
        }
    }
    println!(
        "  … plus {} tail items that only *might* exceed the threshold",
        candidates.len() - guaranteed
    );
    println!(
        "\nerror slack: any unlisted topic occurred ≤ {} times (bound n/(k+1))",
        snap.max_error
    );
}
