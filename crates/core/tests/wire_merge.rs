//! Differential tests for the merge-anywhere tier: N simulated nodes
//! ingest disjoint streams through the *concurrent* engine, export wire
//! images, and the fan-in merge of those images must agree with a
//! single sequential oracle over the union stream.
//!
//! Agreement is exact where the merge is a lattice join (HLL register
//! max, Θ untrimmed union) and bounded elsewhere (Quantiles within the
//! k-driven rank envelope, Misra–Gries within the `n/(k+1)` error
//! bound). Mid-stream images taken under the `r = 2Nb` relaxation are
//! tested with the envelope widened by the advertised relaxation, per
//! the paper's Definition 2.

use fcds_core::engine::{EngineBuilder, FrequencyFamily, HllFamily, QuantilesFamily, ThetaFamily};
use fcds_core::WireImage;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::hll::HllSketch;
use fcds_sketches::quantiles::{epsilon_for_k, QuantilesLadder};
use fcds_sketches::theta::{rse, untrimmed_union, CompactThetaSketch, ThetaRead};
use fcds_sketches::wire::{merge_wire_images, WireDecode, WireEncode, WireMerge};
use proptest::prelude::*;

/// Drives `per_node` disjoint updates into each of `nodes` concurrent
/// engines through their writer handles, flushes, quiesces, and returns
/// the wire image of each node.
fn theta_node_images(
    nodes: usize,
    per_node: u64,
    lg_k: u8,
) -> (Vec<bytes::Bytes>, Vec<CompactThetaSketch>) {
    let mut images = Vec::new();
    let mut compacts = Vec::new();
    for node in 0..nodes as u64 {
        let sketch = EngineBuilder::<ThetaFamily>::new()
            .accuracy(usize::from(lg_k))
            .seed(77)
            .writers(2)
            .max_concurrency_error(0.05)
            .build()
            .unwrap();
        let mut w = sketch.writer();
        for i in 0..per_node {
            w.update(node * per_node + i);
        }
        w.flush().unwrap();
        sketch.quiesce();
        images.push(sketch.wire_image());
        compacts.push(sketch.compact());
    }
    (images, compacts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Θ: the wire-merged image is *identical* to the in-memory
    /// untrimmed union of the same node states — same Θ, same hashes.
    #[test]
    fn theta_wire_merge_equals_in_memory_union(
        nodes in 2usize..5,
        per_node in 500u64..3_000,
    ) {
        let (images, compacts) = theta_node_images(nodes, per_node, 6);
        let merged: CompactThetaSketch = merge_wire_images(&images).unwrap();
        let oracle = untrimmed_union(compacts.iter()).unwrap();
        prop_assert_eq!(merged.theta(), oracle.theta());
        prop_assert_eq!(merged.sorted_hashes(), oracle.sorted_hashes());
    }

    /// HLL: register max is a lattice join, so N concurrent nodes
    /// merged on the wire equal one sequential sketch over the union
    /// stream — exactly, register for register.
    #[test]
    fn hll_wire_merge_is_exactly_the_sequential_oracle(
        nodes in 2usize..5,
        per_node in 500u64..3_000,
    ) {
        let lg_m = 8u8;
        let mut oracle = HllSketch::new(lg_m, 123).unwrap();
        let mut images = Vec::new();
        for node in 0..nodes as u64 {
            let sketch = EngineBuilder::<HllFamily>::new()
                .accuracy(usize::from(lg_m))
                .seed(123)
                .writers(2)
                .max_concurrency_error(0.05)
                .build()
                .unwrap();
            let mut w = sketch.writer();
            for i in 0..per_node {
                let item = node * per_node + i;
                w.update(item);
                oracle.update(item);
            }
            w.flush().unwrap();
            sketch.quiesce();
            images.push(sketch.wire_image());
        }
        let merged: HllSketch = merge_wire_images(&images).unwrap();
        prop_assert_eq!(merged, oracle);
    }

    /// Quantiles: the fan-in of N node ladders answers every rank query
    /// within the k-driven epsilon envelope of the true rank over the
    /// union stream (disjoint integer ranges make true ranks exact).
    #[test]
    fn quantiles_wire_merge_within_rank_envelope(
        nodes in 2usize..5,
        per_node in 500u64..3_000,
    ) {
        let k = 64usize;
        let mut images = Vec::new();
        for node in 0..nodes as u64 {
            let sketch = EngineBuilder::<QuantilesFamily>::new()
                .accuracy(k)
                .seed(5)
                .writers(2)
                .max_concurrency_error(0.05)
                .build()
                .unwrap();
            let mut w = sketch.writer();
            for i in 0..per_node {
                w.update(node * per_node + i);
            }
            w.flush().unwrap();
            sketch.quiesce();
            images.push(sketch.wire_image());
        }
        let merged: QuantilesLadder<u64> = merge_wire_images(&images).unwrap();
        let total = nodes as u64 * per_node;
        prop_assert_eq!(merged.n(), total);
        // Merging K shard ladders per node × N nodes compounds the
        // per-sketch epsilon; 4× is a generous but non-vacuous envelope
        // (the proptest shim cannot shrink failures, so stay robust).
        let envelope = 4.0 * epsilon_for_k(k);
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = merged.quantile(phi).unwrap();
            // Items are exactly 0..total, so the true rank of value q
            // is q / total.
            let true_rank = q as f64 / total as f64;
            prop_assert!(
                (true_rank - phi).abs() <= envelope,
                "phi = {}, got value {} (true rank {}), envelope {}",
                phi, q, true_rank, envelope
            );
        }
    }

    /// Misra–Gries: the wire fan-in keeps every true count inside
    /// `[lower_bound, upper_bound]` and respects the mergeable-summaries
    /// error bound `n/(k+1)` over the union stream.
    #[test]
    fn mg_wire_merge_respects_bounds_over_union_stream(
        nodes in 2usize..5,
        per_node in 500u64..3_000,
        modulus in 10u64..200,
    ) {
        let k = 16usize;
        let mut true_counts = std::collections::HashMap::<u64, u64>::new();
        let mut images = Vec::new();
        for node in 0..nodes as u64 {
            let sketch = EngineBuilder::<FrequencyFamily>::new()
                .accuracy(k)
                .writers(2)
                .max_concurrency_error(0.05)
                .build()
                .unwrap();
            let mut w = sketch.writer();
            for i in 0..per_node {
                // Skewed: item 0 is heavy on every node, the rest cycle.
                let item = if i % 4 == 0 { 0 } else { (node * per_node + i) % modulus };
                w.update(item);
                *true_counts.entry(item).or_insert(0) += 1;
            }
            w.flush().unwrap();
            sketch.quiesce();
            images.push(sketch.wire_image());
        }
        let merged: MisraGriesSketch<u64> = merge_wire_images(&images).unwrap();
        let total = nodes as u64 * per_node;
        prop_assert_eq!(merged.n(), total);
        prop_assert!(
            merged.max_error() <= total / (k as u64 + 1),
            "merged error {} exceeds n/(k+1) = {}",
            merged.max_error(),
            total / (k as u64 + 1)
        );
        for (item, &truth) in &true_counts {
            let est = merged.estimate(item);
            prop_assert!(
                est.lower_bound <= truth && truth <= est.upper_bound,
                "item {}: true {} outside [{}, {}]",
                item, truth, est.lower_bound, est.upper_bound
            );
        }
    }

    /// Mid-stream images under the `r = 2Nb` relaxation: a wire image
    /// taken *without* quiescing may lag by at most `r` updates per
    /// node; the merged estimate must stay within the relaxed envelope
    /// of Definition 2 (widened by the sketch's RSE).
    #[test]
    fn mid_stream_theta_images_merge_within_relaxed_envelope(
        nodes in 2usize..4,
        per_node in 2_000u64..6_000,
    ) {
        let lg_k = 9u8;
        let mut images = Vec::new();
        let mut lag_budget = 0u64;
        for node in 0..nodes as u64 {
            let sketch = EngineBuilder::<ThetaFamily>::new()
                .accuracy(usize::from(lg_k))
                .seed(31)
                .writers(1)
                .max_concurrency_error(0.05)
                .build()
                .unwrap();
            let mut w = sketch.writer();
            for i in 0..per_node {
                w.update(node * per_node + i);
            }
            // No flush, no quiesce: the image may miss up to
            // `relaxation()` updates still sitting in buffers or in flight.
            images.push(sketch.wire_image());
            lag_budget += sketch.relaxation();
        }
        let merged: CompactThetaSketch = merge_wire_images(&images).unwrap();
        let total = nodes as u64 * per_node;
        let visible_floor = total.saturating_sub(lag_budget) as f64;
        let slack = 4.0 * rse(1usize << lg_k);
        let est = merged.estimate();
        prop_assert!(
            est >= visible_floor * (1.0 - slack) && est <= total as f64 * (1.0 + slack),
            "estimate {} outside [{}, {}] (total {}, lag budget {})",
            est, visible_floor * (1.0 - slack), total as f64 * (1.0 + slack), total, lag_budget
        );
    }
}

/// Fan-in shape must not matter: merging 8 node images as a binary tree
/// (pairs, then pairs of pairs, re-encoding to wire between levels)
/// lands on the same answers as one flat left-fold.
#[test]
fn tree_fan_in_equals_flat_fan_in() {
    let (images, _) = theta_node_images(8, 1_500, 6);

    let flat: CompactThetaSketch = merge_wire_images(&images).unwrap();

    // Binary tree: merge adjacent pairs on the wire form, re-encode,
    // repeat until one image remains.
    let mut level: Vec<bytes::Bytes> = images;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let mut acc = CompactThetaSketch::from_wire_bytes(&pair[0]).unwrap();
                if let Some(right) = pair.get(1) {
                    let rhs = CompactThetaSketch::from_wire_bytes(right).unwrap();
                    acc.wire_merge_from(&rhs).unwrap();
                }
                acc.to_wire_bytes()
            })
            .collect();
    }
    let tree = CompactThetaSketch::from_wire_bytes(&level[0]).unwrap();

    assert_eq!(tree.theta(), flat.theta());
    assert_eq!(tree.sorted_hashes(), flat.sorted_hashes());
}
