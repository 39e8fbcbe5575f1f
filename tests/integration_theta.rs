//! End-to-end integration: the concurrent Θ sketch validated across
//! crates — accuracy vs the sequential substrate, relaxed consistency via
//! the checker (Theorem 1, empirically), and mergeability of the outputs.

use fcds::core::theta::ConcurrentThetaSketch;
use fcds::relaxation::checker::{Checker, ThetaChecker, ThetaObservation};
use fcds::sketches::hash::Hashable;
use fcds::sketches::theta::{normalize_hash, rse, QuickSelectThetaSketch, ThetaRead, ThetaUnion};
use fcds::{EngineBuilder, ThetaFamily};

const SEED: u64 = 9001;

fn obs(sketch: &ConcurrentThetaSketch) -> ThetaObservation {
    let s = sketch.snapshot();
    ThetaObservation {
        theta: s.theta,
        retained: s.retained,
        estimate: s.estimate,
    }
}

#[test]
fn concurrent_matches_sequential_reference_after_quiesce() {
    // Same seed ⇒ same hash function: after quiescing, the concurrent
    // sketch's retained set must describe the same stream as a sequential
    // sketch within estimator noise.
    let n = 400_000u64;
    let mut reference = QuickSelectThetaSketch::new(12, SEED).unwrap();
    for i in 0..n {
        reference.update(i);
    }

    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(12)
        .seed(SEED)
        .writers(4)
        .max_concurrency_error(0.04)
        .build()
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for i in (t..n).step_by(4) {
                    w.update(i);
                }
                w.flush().unwrap();
            });
        }
    });
    sketch.quiesce();

    let (ce, se) = (sketch.estimate(), reference.estimate());
    let rel = (ce - se).abs() / se;
    assert!(rel < 0.05, "concurrent {ce} vs sequential {se}");
    let err = (ce - n as f64).abs() / n as f64;
    assert!(err < 5.0 * rse(4096), "error vs truth {err}");
}

#[test]
fn theorem1_holds_at_quiescent_points() {
    // Repeatedly: ingest a chunk from 3 writers, flush, quiesce, check
    // the snapshot is admissible for the exact prefix with r = 2Nb.
    let writers = 3usize;
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(8)
        .seed(SEED)
        .writers(writers)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    let checker = ThetaChecker::new(sketch.k(), sketch.relaxation());

    let total = 120_000u64;
    let stream: Vec<u64> = (0..total)
        .map(|i| normalize_hash(i.hash_with_seed(SEED)))
        .collect();

    let mut handles: Vec<_> = (0..writers).map(|_| sketch.writer()).collect();
    let mut fed = 0usize;
    for chunk in stream.chunks(15_000) {
        for (i, &h) in chunk.iter().enumerate() {
            handles[i % writers].update_hash(h);
        }
        fed += chunk.len();
        for w in &mut handles {
            w.flush().unwrap();
        }
        sketch.quiesce();
        checker
            .check_at(&stream, fed, &obs(&sketch))
            .unwrap_or_else(|v| panic!("violation after {fed} updates: {v}"));
    }
}

#[test]
fn theorem1_holds_for_concurrent_queries_with_window() {
    // Single writer ingests; we interleave queries. Each observation is
    // checked against the window [flushed_before, issued_so_far]: the
    // snapshot may lag the issued count by buffered-but-unflushed
    // updates, and the checker's r covers the in-flight hand-off.
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(8)
        .seed(SEED)
        .writers(1)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    let r = sketch.relaxation();
    let checker = ThetaChecker::new(sketch.k(), r);
    let total = 60_000u64;
    let stream: Vec<u64> = (0..total)
        .map(|i| normalize_hash(i.hash_with_seed(SEED)))
        .collect();

    let mut w = sketch.writer();
    for (i, &h) in stream.iter().enumerate() {
        w.update_hash(h);
        if i % 7_919 == 0 && i > 0 {
            let snapshot = obs(&sketch);
            // The writer has issued i+1 updates; up to 2b of them may
            // still be local. The window accounts for that explicitly,
            // beyond it the r-relaxation must hold.
            let issued = i + 1;
            let lo = issued.saturating_sub(2 * r as usize);
            checker
                .check_window(&stream, lo, issued, &snapshot)
                .unwrap_or_else(|v| panic!("violation at update {issued}: {v}"));
        }
    }
}

#[test]
fn compact_outputs_of_concurrent_sketches_are_mergeable() {
    // Build three concurrent sketches over overlapping ranges; the union
    // of their compacts must estimate the union cardinality.
    let ranges = [(0u64, 150_000u64), (100_000, 250_000), (200_000, 350_000)];
    let mut union = ThetaUnion::new(11, SEED).unwrap();
    for (lo, hi) in ranges {
        let sketch = EngineBuilder::<ThetaFamily>::new()
            .accuracy(11)
            .seed(SEED)
            .writers(2)
            .build()
            .unwrap();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let mut w = sketch.writer();
                s.spawn(move || {
                    for i in ((lo + t)..hi).step_by(2) {
                        w.update(i);
                    }
                    w.flush().unwrap();
                });
            }
        });
        sketch.quiesce();
        union.update(&sketch.compact()).unwrap();
    }
    let est = union.result().estimate();
    let rel = (est - 350_000.0).abs() / 350_000.0;
    assert!(rel < 0.1, "union estimate {est}");
}

#[test]
fn estimate_is_fresh_within_relaxation_after_quiesce() {
    // Quantitative staleness: at a quiescent point the visible retained
    // count must equal the reference exactly (staleness 0), which is the
    // strongest form of the r-bound.
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(10)
        .seed(SEED)
        .writers(2)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    let mut reference = QuickSelectThetaSketch::new(10, SEED).unwrap();
    let n = 100_000u64;
    {
        let mut w1 = sketch.writer();
        let mut w2 = sketch.writer();
        for i in 0..n {
            reference.update(i);
            if i % 2 == 0 {
                w1.update(i);
            } else {
                w2.update(i);
            }
        }
        w1.flush().unwrap();
        w2.flush().unwrap();
    }
    sketch.quiesce();
    let snap = sketch.snapshot();
    // Different merge interleavings can give a different theta trajectory
    // than the strictly sequential reference, so compare estimates not
    // exact state.
    let rel = (snap.estimate - reference.estimate()).abs() / reference.estimate();
    assert!(
        rel < 0.08,
        "estimates diverged: {} vs {}",
        snap.estimate,
        reference.estimate()
    );
}

#[test]
fn eager_phase_exactness_boundary() {
    // §5.3: within the eager limit the sketch is exact (sequential
    // semantics); this is the adaptation the paper adds for small streams.
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(12)
        .seed(SEED)
        .writers(2)
        .max_concurrency_error(0.04) // limit = 1250
        .build()
        .unwrap();
    let mut w = sketch.writer();
    for i in 0..1_249u64 {
        w.update(i);
    }
    assert_eq!(sketch.estimate(), 1_249.0, "eager phase must be exact");
    // Push past the limit: sketch leaves the eager phase and keeps
    // working (answers within the configured bound after quiesce).
    for i in 1_249..50_000u64 {
        w.update(i);
    }
    w.flush().unwrap();
    sketch.quiesce();
    let rel = (sketch.estimate() - 50_000.0).abs() / 50_000.0;
    assert!(rel < sketch.error_bound(), "post-transition error {rel}");
    assert!(!sketch.is_eager());
}
