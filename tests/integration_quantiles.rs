//! Integration: the concurrent Quantiles sketch against the §6.2 relaxed
//! PAC bound `ε_r = ε − rε/n + r/n`, across threads and stream shapes.

use fcds::sketches::quantiles::{epsilon_for_k, relaxed_epsilon, QuantilesSketch, TotalF64};
use fcds::{EngineBuilder, QuantilesFamily};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[test]
fn concurrent_ranks_within_relaxed_epsilon() {
    let k = 128;
    let writers = 4;
    let n = 200_000u64;
    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(k)
        .seed(0xFCD5)
        .writers(writers)
        .build()
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..writers as u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for i in (t..n).step_by(writers) {
                    w.update(i);
                }
                w.flush().unwrap();
            });
        }
    });
    sketch.quiesce();
    assert_eq!(sketch.visible_n(), n);

    let eps_r = relaxed_epsilon(epsilon_for_k(k), sketch.relaxation(), n);
    // 4σ-ish slack on the probabilistic bound to keep the test stable.
    let tolerance = 4.0 * eps_r;
    for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let v = sketch.quantile(phi).unwrap();
        let true_rank = v as f64 / n as f64;
        assert!(
            (true_rank - phi).abs() <= tolerance,
            "phi={phi}: rank {true_rank}, eps_r={eps_r}"
        );
    }
}

#[test]
fn concurrent_agrees_with_sequential_on_shuffled_stream() {
    let k = 128;
    let n = 100_000u64;
    let mut items: Vec<u64> = (0..n).collect();
    items.shuffle(&mut SmallRng::seed_from_u64(11));

    let mut sequential = QuantilesSketch::<u64>::with_seed(k, 1).unwrap();
    for &v in &items {
        sequential.update(v);
    }

    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(k)
        .writers(2)
        .seed(2)
        .build()
        .unwrap();
    std::thread::scope(|s| {
        for half in items.chunks(items.len() / 2) {
            let mut w = sketch.writer();
            s.spawn(move || {
                for &v in half {
                    w.update(v);
                }
                w.flush().unwrap();
            });
        }
    });
    sketch.quiesce();

    for phi in [0.1, 0.5, 0.9] {
        let a = sequential.quantile(phi).unwrap() as f64 / n as f64;
        let b = sketch.quantile(phi).unwrap() as f64 / n as f64;
        assert!(
            (a - b).abs() < 6.0 * epsilon_for_k(k),
            "phi={phi}: sequential {a} vs concurrent {b}"
        );
    }
}

#[test]
fn skewed_distribution_percentiles() {
    // 99% small latencies, 1% outliers: p50 must be small, p999 large.
    let sketch = EngineBuilder::<QuantilesFamily<TotalF64>>::new()
        .accuracy(128)
        .seed(0xFCD5)
        .writers(2)
        .build()
        .unwrap();
    let n = 100_000u64;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for i in (t..n).step_by(2) {
                    let v = if i % 100 == 0 {
                        1000.0
                    } else {
                        1.0 + (i % 10) as f64 * 0.1
                    };
                    w.update(TotalF64(v));
                }
                w.flush().unwrap();
            });
        }
    });
    sketch.quiesce();
    let p50 = sketch.quantile(0.5).unwrap().0;
    let p999 = sketch.quantile(0.999).unwrap().0;
    assert!(p50 < 3.0, "p50 = {p50}");
    assert!(p999 >= 1000.0, "p999 = {p999}");
}

#[test]
fn snapshot_consistency_under_load() {
    // A snapshot must be internally consistent: n equals the total weight
    // its own quantiles are computed from, and min/max bracket everything.
    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(64)
        .writers(3)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for i in 0..150_000u64 {
                    w.update(t * 1_000_000 + i);
                }
            });
        }
        for _ in 0..300 {
            let snap = sketch.snapshot();
            if snap.is_empty() {
                continue;
            }
            let lo = snap.quantile(0.0).unwrap();
            let hi = snap.quantile(1.0).unwrap();
            let mid = snap.quantile(0.5).unwrap();
            assert!(lo <= mid && mid <= hi);
            assert!(snap.rank(&lo) <= snap.rank(&hi));
        }
    });
}

#[test]
fn visible_n_catches_up_after_flush() {
    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(32)
        .writers(2)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    let mut w1 = sketch.writer();
    let mut w2 = sketch.writer();
    for i in 0..5_000u64 {
        w1.update(i);
        w2.update(i + 5_000);
    }
    w1.flush().unwrap();
    w2.flush().unwrap();
    sketch.quiesce();
    assert_eq!(sketch.visible_n(), 10_000);
}

#[test]
fn answers_concurrent_with_batch_calls_pass_the_window_checker() {
    // A batch call is one update operation: a query concurrent with it
    // may see any prefix of it. So each answer must be admissible for
    // some prefix between the items of calls that returned before the
    // query was invoked and the items of calls invoked before it
    // responded — with the writer-assisted writer merging its 250-item
    // calls inline, under the engine's own `r`.
    use fcds::core::PropagationBackendKind;
    use fcds::relaxation::checker_quantiles::{QuantileObservation, QuantilesChecker};
    use fcds::relaxation::Checker;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let k = 128;
    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(k)
        .seed(0xFCD5)
        .max_concurrency_error(1.0)
        .backend(PropagationBackendKind::WriterAssisted)
        .build()
        .unwrap();
    let n = 50_000u64;
    let stream: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
    let (invoked, returned, done) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicBool::new(false),
    );
    let mut observations = Vec::new();
    std::thread::scope(|s| {
        let mut w = sketch.writer();
        let (stream, invoked, returned, done) = (&stream, &invoked, &returned, &done);
        s.spawn(move || {
            let mut fed = 0;
            for call in stream.chunks(250) {
                invoked.store(fed + call.len(), Ordering::SeqCst);
                w.update_batch(call);
                fed += call.len();
                returned.store(fed, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        });
        loop {
            let last = done.load(Ordering::SeqCst);
            for phi in [0.1, 0.5, 0.9] {
                let lo = returned.load(Ordering::SeqCst);
                let answer = sketch.quantile(phi);
                let hi = invoked.load(Ordering::SeqCst);
                observations.push((lo, hi, phi, answer));
            }
            if last {
                break;
            }
        }
    });
    let r = sketch.relaxation();
    let checker = QuantilesChecker::new(3.0 * epsilon_for_k(k), r);
    // Check a bounded, evenly spread sample so a debug run stays fast.
    let step = observations.len().div_ceil(600);
    for &(lo, hi, phi, answer) in observations.iter().step_by(step) {
        // An empty answer may only hide at most `r` items of returned calls.
        let Some(answer) = answer else {
            assert!(lo as u64 <= r, "phi={phi}: no answer after {lo} items");
            continue;
        };
        checker
            .check_window(&stream, lo, hi, &QuantileObservation { phi, answer })
            .unwrap_or_else(|v| panic!("phi={phi} in [{lo}, {hi}]: {v}"));
    }
    assert_eq!(observations.last().map(|o| o.0), Some(stream.len()));
    // Every call merged inline, so nothing is left unpublished.
    assert_eq!(sketch.visible_n(), n);
}

#[test]
fn concurrent_answers_admissible_under_relaxation_checker() {
    // Cross-crate validation of §6.2: every quantile answer of the
    // concurrent sketch, taken at a quiescent point, must be admissible
    // under the r-relaxed PAC envelope.
    use fcds::relaxation::checker_quantiles::{QuantileObservation, QuantilesChecker};
    use fcds::relaxation::Checker;

    let k = 128;
    let sketch = EngineBuilder::<QuantilesFamily>::new()
        .accuracy(k)
        .seed(0xFCD5)
        .writers(3)
        .max_concurrency_error(1.0)
        .build()
        .unwrap();
    // Permuted stream so levels are exercised non-trivially.
    let n = 60_000u64;
    let stream: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();

    let mut writers: Vec<_> = (0..3).map(|_| sketch.writer()).collect();
    let checker = QuantilesChecker::new(3.0 * epsilon_for_k(k), sketch.relaxation());
    let mut fed = 0usize;
    for chunk in stream.chunks(20_000) {
        for (i, &v) in chunk.iter().enumerate() {
            writers[i % 3].update(v);
        }
        fed += chunk.len();
        for w in &mut writers {
            w.flush().unwrap();
        }
        sketch.quiesce();
        for phi in [0.1, 0.5, 0.9] {
            let answer = sketch.quantile(phi).unwrap();
            let obs = QuantileObservation { phi, answer };
            checker
                .check_at(&stream, fed, &obs)
                .unwrap_or_else(|v| panic!("phi={phi} after {fed}: {v}"));
        }
    }
}
