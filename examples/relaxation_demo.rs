//! Demonstrates the paper's correctness story end to end:
//!
//! 1. Definition 2 — a concrete 1-relaxation of a history (Figure 2);
//! 2. Theorem 1 — live queries against a concurrent Θ sketch validated by
//!    the r-relaxation checker with `r = 2Nb`;
//! 3. what the checker catches: a deliberately out-of-bound observation.
//!
//! ```sh
//! cargo run --release --example relaxation_demo
//! ```

use fcds::relaxation::checker::{Checker, ThetaChecker, ThetaObservation};
use fcds::relaxation::history::{History, Op};
use fcds::sketches::hash::Hashable;
use fcds::sketches::theta::normalize_hash;
use fcds::{EngineBuilder, ThetaFamily};

const SEED: u64 = 9001;

fn figure2_demo() {
    println!("— Definition 2 (Figure 2): r-relaxation of a history —");
    // H′: update(1) · query() · update(2); in H the query was overtaken
    // by update(1).
    let h_prime = History::new()
        .with(1, Op::Update(1))
        .with(10, Op::Query(0))
        .with(2, Op::Update(2));
    let h = History::new()
        .with(10, Op::Query(0))
        .with(1, Op::Update(1))
        .with(2, Op::Update(2));
    println!(
        "  H  is a 1-relaxation of H′: {}",
        h.is_r_relaxation_of(&h_prime, 1)
    );
    println!(
        "  H  is a 0-relaxation of H′: {}",
        h.is_r_relaxation_of(&h_prime, 0)
    );
}

fn main() {
    figure2_demo();

    println!("\n— Theorem 1: validating a live concurrent Θ sketch —");
    let writers = 2usize;
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(8) // k = 256 keeps the demo's numbers readable
        .seed(SEED)
        .writers(writers)
        .max_concurrency_error(1.0) // no eager phase: pure relaxed mode
        .build()
        .expect("build sketch");
    let r = sketch.relaxation();
    let checker = ThetaChecker::new(sketch.k(), r);
    println!(
        "  k = {}, N = {writers}, b = {}, r = 2Nb = {r}",
        sketch.k(),
        r / (2 * writers as u64)
    );

    // Ingest a known stream in chunks; after each chunk, flush + quiesce
    // and validate the published snapshot against the exact prefix.
    let total: u64 = 100_000;
    let stream: Vec<u64> = (0..total)
        .map(|i| normalize_hash(i.hash_with_seed(SEED)))
        .collect();

    let mut w1 = sketch.writer();
    let mut w2 = sketch.writer();
    let mut fed = 0usize;
    for chunk in stream.chunks(20_000) {
        for (i, &h) in chunk.iter().enumerate() {
            if i % 2 == 0 {
                w1.update_hash(h);
            } else {
                w2.update_hash(h);
            }
        }
        fed += chunk.len();
        w1.flush().unwrap();
        w2.flush().unwrap();
        sketch.quiesce();
        let snap = sketch.snapshot();
        let obs = ThetaObservation {
            theta: snap.theta,
            retained: snap.retained,
            estimate: snap.estimate,
        };
        match checker.check_at(&stream, fed, &obs) {
            Ok(()) => println!(
                "  after {fed:>6} updates: estimate {:>9.0} — admissible under r = {r} ✓",
                snap.estimate
            ),
            Err(v) => println!("  after {fed:>6} updates: VIOLATION: {v}"),
        }
    }

    println!("\n— What a violation looks like —");
    let snap = sketch.snapshot();
    let tampered = ThetaObservation {
        theta: snap.theta,
        retained: snap.retained + r + 100, // more samples than can exist
        estimate: (snap.retained + r + 100) as f64 / snap.theta_fraction(),
    };
    match checker.check_at(&stream, stream.len(), &tampered) {
        Ok(()) => println!("  unexpectedly admissible?!"),
        Err(v) => println!("  checker rejects tampered snapshot: {v}"),
    }
}
