//! Section `ingest_hot`: the writer-side ingestion constant, batched
//! against scalar.
//!
//! Figure 1's scalability story rests on almost every update dying on the
//! writer thread once the Θ hint engages — which makes the *per-update
//! constant factor on the writer* the whole ballgame. This section times
//! exactly that constant, single-writer so the numbers mean something on
//! a 1-CPU CI container:
//!
//! * `scalar` — one [`ThetaWriter::update`] per item (phase latch +
//!   cached pre-filter switch);
//! * `batched` — [`ThetaWriter::update_batch`] in 256-item chunks: per
//!   32-item sub-chunk one hoisted hint read, a hash pass that also
//!   reduces the sub-chunk's minimum, and a branchless compaction only
//!   when that minimum is below the hint. On CPUs with AVX-512F/DQ/VL the
//!   pass runs eight murmur3 lanes per instruction; each row's `lane`
//!   (`"avx512"` or `"baseline"`) says which copy this runner measured;
//! * both of the above with `disable_prefilter` (the ablation: every
//!   update rides the hand-off protocol), so the hint's contribution
//!   stays visible next to the batching win.
//!
//! The engine runs the writer-assisted backend so propagation work is
//! paid inside the measured writer loop for both paths instead of racing
//! a background thread for the single CPU. All rows are lazy phase
//! (`e = 1.0`), Θ saturated by a warm-up stream before timing; scalar
//! and batched are timed interleaved on the same fresh items
//! (`time_interleaved`). How fast either path is in absolute terms is
//! `benchmark/`'s `embed_theta` `ingest_items_per_s`, not a gate here.

use super::Section;
use fcds_bench::gate::Bound::Min;
use fcds_bench::gate::GateCheck;
use fcds_bench::workload::{time_interleaved, SplitMix};
use fcds_core::engine::{EngineBuilder, ThetaFamily};
use fcds_core::theta::{ConcurrentThetaSketch, ThetaWriter};
use fcds_core::PropagationBackendKind;
use fcds_sketches::hash::Avx512;

const SEED: u64 = 9001;
const LG_K: u8 = 12;
/// Items per timed call (fresh distinct values every round).
const PASS: usize = 1 << 18;
/// Items per `update_batch` call on the batched rows.
const CHUNK: usize = 256;
/// Distinct items fed before timing so Θ is saturated.
const WARMUP: u64 = 1 << 21;

/// The section's two gates, each bound beside the ratio it cuts.
pub fn gates(batched_vs_scalar_hint: f64, batched_vs_scalar_shipall: f64) -> Vec<GateCheck> {
    vec![
        // Hint on, lazy phase: a parity guard, not a speedup claim. The
        // scalar path hashes one item at a time, bound by the scalar
        // 64-bit multiplies, and the out-of-order core overlaps the
        // independent hash chains, so the baseline batched copy wins
        // little (1.04–1.32× on a 2-vCPU Sapphire Rapids VM). The
        // AVX-512 copy does eight of those multiplies per `vpmullq`
        // (2.1–3.4× there); the bound is for the baseline copy, which
        // runners without AVX-512F/DQ/VL measure.
        GateCheck::new(
            "batched_vs_scalar_hint_speedup",
            batched_vs_scalar_hint,
            Min,
            0.95,
        ),
        // Where batching has a structural edge — every update buffered
        // and shipped through the hand-off — the bulk append must
        // actually win (measured ≈ 1.1× with a hand-off at every `b`;
        // 2.27–2.34× since a writer-assisted batch merges the rest of a
        // fused chunk inline when its buffer fills, 2.8–3.3× with the
        // AVX-512 batch hash).
        GateCheck::new(
            "batched_vs_scalar_shipall_speedup",
            batched_vs_scalar_shipall,
            Min,
            1.0,
        ),
    ]
}

/// A single-writer engine and its writer, Θ saturated.
fn warmed_writer(prefilter: bool, rng: &mut SplitMix) -> (ConcurrentThetaSketch, ThetaWriter) {
    let sketch = EngineBuilder::<ThetaFamily>::new()
        .accuracy(usize::from(LG_K))
        .seed(SEED)
        .writers(1)
        .max_concurrency_error(1.0) // lazy phase from the first update
        .backend(PropagationBackendKind::WriterAssisted)
        .disable_prefilter(!prefilter)
        .build()
        .expect("valid configuration");
    let mut w = sketch.writer();
    for _ in 0..WARMUP {
        w.update(rng.next_u64());
    }
    (sketch, w)
}

// The two timed loops, each compiled on its own: inlined into `run`,
// their code layout — and with it a few percent of a loop this tight —
// would move whenever anything else in the binary does.
#[inline(never)]
fn scalar_pass(w: &mut ThetaWriter, items: &[u64]) {
    for &v in items {
        w.update(v);
    }
}

#[inline(never)]
fn batched_pass(w: &mut ThetaWriter, items: &[u64]) {
    for chunk in items.chunks(CHUNK) {
        w.update_batch(chunk);
    }
}

/// Measures the section.
pub fn run() -> Section {
    let mut rng = SplitMix(SEED);
    let mut rows = Vec::new();
    let lane = Avx512::lane();
    let [hint, shipall] = [true, false].map(|prefilter| {
        let (_scalar_engine, mut scalar) = warmed_writer(prefilter, &mut rng);
        let (_batched_engine, mut batched) = warmed_writer(prefilter, &mut rng);
        let fresh_items = || -> Vec<u64> {
            std::iter::repeat_with(|| rng.next_u64())
                .take(PASS)
                .collect()
        };
        let mut scalar_side = |items: &Vec<u64>| scalar_pass(&mut scalar, items);
        let mut batched_side = |items: &Vec<u64>| batched_pass(&mut batched, items);
        let (secs, rounds) = time_interleaved(fresh_items, [&mut scalar_side, &mut batched_side]);
        for (path, secs) in ["scalar", "batched"].into_iter().zip(secs) {
            rows.push(format!(
                "{{\"path\": \"{path}\", \"lane\": \"{lane}\", \"prefilter\": {prefilter}, \
                 \"lg_k\": {LG_K}, \"chunk\": {CHUNK}, \"ns_per_item\": {:.3}, \"items\": {}}}",
                secs * 1e9 / PASS as f64,
                rounds * PASS
            ));
        }
        secs[0] / secs[1]
    });
    Section {
        name: "ingest_hot",
        rows,
        gates: gates(hint, shipall),
    }
}
