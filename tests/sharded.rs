//! Cross-crate properties of the K-way sharded engine: sharded histories
//! stay within the `r = 2Nb` relaxation (`relaxation()`, the one
//! staleness bound), shard-count independent, both propagation
//! backends; and merged queries are lossless against a sequential oracle
//! fed the same stream. Sharded Quantiles rank estimates under the
//! copy-on-write ladder stay within the checker's relaxation envelope of
//! the sequential sketch on the same stream. The Θ grid additionally
//! covers the batched ingestion fast path (`update_batch` with chunks
//! larger than `b`, forcing mid-batch hand-offs) against the same
//! envelopes as scalar ingestion.

use fcds::core::PropagationBackendKind;
use fcds::relaxation::checker::{Checker, ThetaChecker, ThetaObservation};
use fcds::relaxation::checker_quantiles::{QuantileObservation, QuantilesChecker};
use fcds::sketches::hash::Hashable;
use fcds::sketches::hll::HllSketch;
use fcds::sketches::quantiles::{epsilon_for_k, QuantilesSketch};
use fcds::sketches::theta::normalize_hash;
use fcds::{EngineBuilder, HllFamily, QuantilesFamily, ThetaFamily};
use proptest::prelude::*;

const SEED: u64 = 9001;

fn backends() -> [PropagationBackendKind; 2] {
    [
        PropagationBackendKind::DedicatedThread,
        PropagationBackendKind::WriterAssisted,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Theorem 1 on sharded executions: with 4 writers' partial buffers
    /// still in flight (writers alive, nothing flushed), the merged query
    /// must be admissible for the full issued prefix under r = 2Nb — for
    /// K ∈ {1, 2, 4} and both backends. After flush + quiesce the same
    /// query must be admissible with r = 0: the shard merge itself adds
    /// no relaxation.
    #[test]
    fn sharded_histories_pass_the_adjusted_checker(
        per_writer in 2_000u64..6_000,
        lg_k in 6u8..=12,
        shard_sel in 0usize..3,
        writer_assisted in any::<bool>(),
        batched in any::<bool>(),
    ) {
        let shards = [1usize, 2, 4][shard_sel];
        let writers = 4usize;
        let backend = backends()[writer_assisted as usize];
        let sketch = EngineBuilder::<ThetaFamily>::new()
            .accuracy(usize::from(lg_k))
            .seed(SEED)
            .writers(writers)
            .shards(shards)
            .max_concurrency_error(1.0) // no eager: buffers from the start
            .backend(backend)
            .build()
            .unwrap();
        let r = sketch.relaxation();
        let checker = ThetaChecker::new(sketch.k(), r);

        let mut handles: Vec<_> = (0..writers).map(|_| sketch.writer()).collect();
        let mut stream: Vec<u64> = Vec::new();
        let total = writers as u64 * per_writer;
        if batched {
            // Batched ingestion path: each writer takes its next chunk in
            // turn (37 is odd and > b, so hand-offs happen mid-batch);
            // the issued order is chunk-interleaved, a valid schedule for
            // the same checker envelope.
            const CHUNK: u64 = 37;
            let mut next = 0u64;
            'outer: loop {
                for h in handles.iter_mut() {
                    if next >= total {
                        break 'outer;
                    }
                    let hi = (next + CHUNK).min(total);
                    let vals: Vec<u64> = (next..hi).collect();
                    h.update_batch(&vals);
                    stream.extend(vals.iter().map(|v| normalize_hash(v.hash_with_seed(SEED))));
                    next = hi;
                }
            }
        } else {
            for i in 0..total {
                let w = (i % writers as u64) as usize;
                handles[w].update(i);
                stream.push(normalize_hash(i.hash_with_seed(SEED)));
            }
        }

        // Writers alive, partial buffers unflushed: the snapshot may miss
        // up to 2b updates per writer, no more.
        let snap = sketch.snapshot();
        let obs = ThetaObservation {
            theta: snap.theta,
            retained: snap.retained,
            estimate: snap.estimate,
        };
        checker
            .check_at(&stream, stream.len(), &obs)
            .unwrap_or_else(|v| panic!("K={shards} {backend:?} r={r}: {v}"));

        // Flushed and quiesced: zero staleness, even across the merge.
        for w in &mut handles {
            w.flush().unwrap();
        }
        sketch.quiesce();
        let snap = sketch.snapshot();
        let obs = ThetaObservation {
            theta: snap.theta,
            retained: snap.retained,
            estimate: snap.estimate,
        };
        ThetaChecker::new(sketch.k(), 0)
            .check_at(&stream, stream.len(), &obs)
            .unwrap_or_else(|v| panic!("K={shards} {backend:?} quiesced: {v}"));
    }

    /// Lossless merge: a K-shard HLL run must land on exactly the
    /// registers (and estimate) of one sequential sketch fed the same
    /// stream — register-wise max is partition- and order-insensitive.
    #[test]
    fn merged_query_equals_sequential_oracle(
        n in 5_000u64..30_000,
        modulus in 500u64..20_000, // duplicate ratio varies
        shard_sel in 0usize..3,
        writer_assisted in any::<bool>(),
    ) {
        let shards = [1usize, 2, 4][shard_sel];
        let backend = backends()[writer_assisted as usize];
        let sketch = EngineBuilder::<HllFamily>::new()
            .accuracy(10)
            .seed(SEED)
            .writers(4)
            .shards(shards)
            .max_concurrency_error(1.0)
            .backend(backend)
            .build()
            .unwrap();
        let mut oracle = HllSketch::new(10, SEED).unwrap();
        {
            let mut handles: Vec<_> = (0..4).map(|_| sketch.writer()).collect();
            for i in 0..n {
                let item = i % modulus;
                oracle.update(item);
                handles[(i % 4) as usize].update(item);
            }
        } // writers drop: partial buffers flushed
        sketch.quiesce();
        prop_assert_eq!(sketch.registers(), oracle.clone());
        prop_assert_eq!(sketch.estimate(), oracle.estimate());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// §6.2 on sharded executions under the copy-on-write ladder: the
    /// merged rank estimates must be admissible under the relaxed PAC
    /// envelope — for K ∈ {1, 2, 4} and both backends. Mid-stream
    /// (writers alive, partial buffers unflushed) the envelope uses the
    /// engine's bound `r = 2Nb`; after flush + quiesce the same
    /// queries must be admissible with `r = 0` (the ladder publication
    /// and the shard merge add no relaxation of their own), and the
    /// answers must agree with a sequential sketch fed the same stream
    /// to within the PAC rank error both sides carry.
    #[test]
    fn sharded_quantiles_stay_within_the_relaxation_envelope(
        per_writer in 2_000u64..6_000,
        shard_sel in 0usize..3,
        writer_assisted in any::<bool>(),
    ) {
        let k = 128usize;
        let shards = [1usize, 2, 4][shard_sel];
        let writers = 4usize;
        let backend = backends()[writer_assisted as usize];
        let sketch = EngineBuilder::<QuantilesFamily>::new()
            .accuracy(k)
            .seed(SEED)
            .writers(writers)
            .shards(shards)
            .max_concurrency_error(1.0) // no eager: buffers from the start
            .backend(backend)
            .build()
            .unwrap();
        let r = sketch.relaxation();

        // Permuted distinct stream so the level ladders are exercised
        // non-trivially on every shard.
        let n = writers as u64 * per_writer;
        let stream: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
        let mut handles: Vec<_> = (0..writers).map(|_| sketch.writer()).collect();
        for (i, &v) in stream.iter().enumerate() {
            handles[i % writers].update(v);
        }

        // Slack on ε: the empirical fit is not a hard bound (same
        // convention as the sequential checker tests).
        let phis = [0.1, 0.5, 0.9];
        let eps = 3.0 * epsilon_for_k(k);
        let mid_checker = QuantilesChecker::new(eps, r);
        let snap = sketch.snapshot();
        if !snap.is_empty() {
            for phi in phis {
                let obs = QuantileObservation { phi, answer: snap.quantile(phi).unwrap() };
                mid_checker
                    .check_at(&stream, stream.len(), &obs)
                    .unwrap_or_else(|v| panic!("K={shards} {backend:?} mid-stream phi={phi}: {v}"));
            }
        }

        // Flushed and quiesced: zero staleness, and agreement
        // with a sequential oracle on the same stream.
        for w in &mut handles {
            w.flush().unwrap();
        }
        sketch.quiesce();
        prop_assert_eq!(sketch.visible_n(), n, "sample-union merge must be lossless in n");
        let mut sequential = QuantilesSketch::<u64>::with_seed(k, SEED ^ 1).unwrap();
        for &v in &stream {
            sequential.update(v);
        }
        let quiesced_checker = QuantilesChecker::new(eps, 0);
        for phi in phis {
            let answer = sketch.quantile(phi).unwrap();
            let obs = QuantileObservation { phi, answer };
            quiesced_checker
                .check_at(&stream, stream.len(), &obs)
                .unwrap_or_else(|v| panic!("K={shards} {backend:?} quiesced phi={phi}: {v}"));
            // Both sides carry ≤ ε rank error on the same stream, so
            // their answers' ranks differ by at most 2ε (plus fit slack).
            let seq_rank = sequential.rank(&answer);
            prop_assert!(
                (seq_rank - phi).abs() <= 2.0 * eps,
                "K={shards} {backend:?}: sharded answer for phi={phi} has sequential rank {seq_rank}"
            );
        }
    }
}

#[test]
fn sharded_compact_union_matches_oracle_estimate() {
    // The compact() of a sharded Θ run is the untrimmed union of the
    // shard images; its estimate must track a sequential oracle on the
    // same stream within estimator noise.
    use fcds::sketches::theta::{QuickSelectThetaSketch, ThetaRead};
    let n = 200_000u64;
    let mut oracle = QuickSelectThetaSketch::new(11, SEED).unwrap();
    for i in 0..n {
        oracle.update(i);
    }
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(11)
        .seed(SEED)
        .writers(4)
        .shards(4)
        .max_concurrency_error(1.0)
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
    let merged = sketch.compact();
    let rel = (merged.estimate() - oracle.estimate()).abs() / oracle.estimate();
    assert!(
        rel < 0.05,
        "merged {} vs oracle {}",
        merged.estimate(),
        oracle.estimate()
    );
    assert_eq!(merged.estimate(), sketch.snapshot().estimate);
}
