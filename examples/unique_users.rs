//! Real-time web analytics: distinct-user counting over several event
//! feeds, with per-feed sketches combined by Θ set operations.
//!
//! This is the workload the paper's introduction motivates: streams
//! "arise from multiple real-world sources and are collected over a
//! network with variable delays", queries arrive while data is ingested,
//! and the system must answer them without stopping the feeds.
//!
//! ```sh
//! cargo run --release --example unique_users
//! ```

use fcds::sketches::theta::{
    CompactThetaSketch, ThetaANotB, ThetaIntersection, ThetaRead, ThetaUnion,
};
use fcds::sketches::wire::{WireDecode, WireEncode};
use fcds::{EngineBuilder, ThetaFamily};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 9001;

/// Simulates one region's event feed: `events` page views from a heavy-
/// tailed population of `population` users (some users visit repeatedly).
fn feed_region(
    sketch: &fcds::core::theta::ConcurrentThetaSketch,
    region: u64,
    population: u64,
    events: u64,
    threads: usize,
) {
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(region * 31 + t);
                for _ in 0..events / threads as u64 {
                    // Zipf-ish skew: 80% of traffic from 20% of users.
                    let user = if rng.random_bool(0.8) {
                        rng.random_range(0..population / 5)
                    } else {
                        rng.random_range(population / 5..population)
                    };
                    w.update(region * 1_000_000_000 + user);
                }
            });
        }
    });
    sketch.quiesce();
}

fn main() {
    let regions = ["us-east", "eu-west"];
    let populations = [400_000u64, 250_000];
    let events = 3_000_000u64;

    // One concurrent sketch per region, each fed by two threads.
    let sketches: Vec<_> = regions
        .iter()
        .map(|_| {
            EngineBuilder::<ThetaFamily>::new()
                .accuracy(12)
                .seed(SEED)
                .writers(2)
                .max_concurrency_error(0.04)
                .build()
                .expect("build sketch")
        })
        .collect();

    println!("ingesting {events} events per region…");
    std::thread::scope(|s| {
        for (i, sketch) in sketches.iter().enumerate() {
            s.spawn(move || feed_region(sketch, i as u64, populations[i], events, 2));
        }
    });

    for (name, sketch) in regions.iter().zip(&sketches) {
        println!(
            "  {name:<8} distinct users ≈ {:>10.0}  (true ≤ {})",
            sketch.estimate(),
            populations[regions.iter().position(|r| r == name).unwrap()]
        );
    }

    // Compact images are mergeable summaries: global questions become set
    // algebra. (Regions use disjoint user-id spaces here, so we also
    // demonstrate an overlapping cohort.)
    let us = sketches[0].compact();
    let eu = sketches[1].compact();

    let mut union = ThetaUnion::new(12, SEED).expect("union gadget");
    union.update(&us).expect("same seed");
    union.update(&eu).expect("same seed");
    println!("\nglobal distinct users ≈ {:.0}", union.result().estimate());

    let mut ix = ThetaIntersection::new(SEED);
    ix.update(&us).expect("same seed");
    ix.update(&eu).expect("same seed");
    println!(
        "users active in both regions ≈ {:.0} (disjoint id spaces ⇒ ~0)",
        ix.result().expect("non-identity").estimate()
    );

    let only_us = ThetaANotB::new().compute(&us, &eu).expect("same seed");
    println!("users only in us-east ≈ {:.0}", only_us.estimate());

    // Serialise a compact image as a downstream system would.
    let bytes = us.to_wire_bytes();
    let back = CompactThetaSketch::from_wire_bytes(&bytes).expect("round trip");
    println!(
        "\ncompact us-east image: {} bytes, estimate preserved: {}",
        bytes.len(),
        (back.estimate() - us.estimate()).abs() < 1e-9
    );
}
