//! Single-thread probes: each replays the workload's own batches
//! through one public function of one layer and reports the median
//! pass. A layer that is not on the workload's path is not probed and
//! reads 0.

use crate::plan::{build_engine, Lane, Plan, LG_K, WARMUP_ITEMS};
use crate::served::ingest_frame;
use crate::stats::median;
use bytes::Bytes;
use fcds_core::engine::{EngineBuilder, EngineWriter, StreamEngine, ThetaFamily};
use fcds_core::PropagationBackendKind;
use fcds_server::frame::{
    check_payload, encode_stream_prefix, parse_header, split_stream_prefix, FRAME_HEADER_LEN,
};
use fcds_server::persist::{crc32, encode_record, DirStore, SnapshotStore};
use fcds_server::recover::decode_record;
use fcds_server::ServerConfig;
use fcds_sketches::hash::{hash_batch_with_seed, DEFAULT_SEED};
use fcds_sketches::theta::{normalize_hash, QuickSelectThetaSketch};
use fcds_sketches::wire::{
    hll_multiway_merge, ladder_multiway_concat, mg_multiway_merge, theta_multiway_union,
    HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BUDGET: Duration = Duration::from_millis(100);
const MIN_PASSES: usize = 9;
/// Items per timed pass, cut into the workload's batches.
const PASS_ITEMS: usize = 1 << 16;

/// Median nanoseconds per pass of `timed`, after one pass thrown away.
fn repeat_ns(mut timed: impl FnMut()) -> f64 {
    timed();
    let mut ns = Vec::new();
    let started = Instant::now();
    while started.elapsed() < BUDGET || ns.len() < MIN_PASSES {
        let t = Instant::now();
        timed();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

/// The workload's batches in the order the ingest thread sends them:
/// round-robin over the lanes.
struct Batches<'p> {
    plan: &'p Plan,
    lanes: Vec<Lane>,
    /// `(lane, items)` of the current pass.
    pass: Vec<(usize, Vec<u64>)>,
}

impl<'p> Batches<'p> {
    fn new(plan: &'p Plan) -> Self {
        let per_pass = PASS_ITEMS / plan.spec.items_per_op;
        Batches {
            plan,
            lanes: (0..plan.lanes.len()).map(|i| Lane::new(plan, i)).collect(),
            pass: (0..per_pass)
                .map(|i| (i % plan.lanes.len(), vec![0; plan.spec.items_per_op]))
                .collect(),
        }
    }

    /// Fresh items for the next pass.
    fn refill(&mut self) {
        for (lane, items) in &mut self.pass {
            self.lanes[*lane].next_batch(self.plan, items);
        }
    }

    fn items(&self) -> f64 {
        (self.pass.len() * self.plan.spec.items_per_op) as f64
    }

    /// Median nanoseconds `timed` takes over one pass, each pass over
    /// fresh items generated outside the timing.
    fn pass_ns(&mut self, mut timed: impl FnMut(&Batches)) -> f64 {
        self.refill();
        timed(self);
        let mut ns = Vec::new();
        let started = Instant::now();
        while started.elapsed() < BUDGET || ns.len() < MIN_PASSES {
            self.refill();
            let t = Instant::now();
            timed(self);
            ns.push(t.elapsed().as_nanos() as f64);
        }
        median(&ns)
    }
}

fn theta_engine() -> EngineBuilder<ThetaFamily> {
    EngineBuilder::<ThetaFamily>::new()
        .accuracy(LG_K)
        .writers(ServerConfig::default().ingest_workers)
        .backend(PropagationBackendKind::WriterAssisted)
}

/// One warmed engine and writer per family the workload ingests into.
struct Engines {
    by_family: Vec<Probed>,
}

type Probed = (SketchFamily, Box<dyn StreamEngine>, Box<dyn EngineWriter>);

impl Engines {
    fn warmed(plan: &Plan, batches: &mut Batches) -> Engines {
        let families: Vec<SketchFamily> = if plan.spec.mix {
            crate::plan::FAMILIES.to_vec()
        } else {
            vec![SketchFamily::Theta]
        };
        let mut engines = Engines {
            by_family: families
                .into_iter()
                .map(|family| {
                    let workers = if plan.spec.mix {
                        1
                    } else {
                        ServerConfig::default().ingest_workers
                    };
                    let engine = build_engine(family, workers);
                    let writer = engine.writer();
                    (family, engine, writer)
                })
                .collect(),
        };
        // As much warm-up per engine as a stream gets in the run.
        let passes =
            WARMUP_ITEMS as usize / PASS_ITEMS * engines.by_family.len() / plan.lanes.len();
        for _ in 0..passes.max(1) {
            batches.refill();
            engines.ingest(batches, true);
        }
        engines
    }

    /// What a stream worker does with each batch, with or without its
    /// per-batch flush.
    fn ingest(&mut self, batches: &Batches, flush: bool) {
        for (lane, items) in &batches.pass {
            let family = batches.plan.lanes[*lane].0;
            let (_, _, writer) = self
                .by_family
                .iter_mut()
                .find(|(f, _, _)| *f == family)
                .expect("an engine per family");
            writer.ingest_batch(items);
            if flush {
                writer.flush().expect("the probe engine flushes");
            }
        }
    }
}

type Values = BTreeMap<String, f64>;

/// Probes of the layers every workload crosses.
pub fn common(plan: &Plan, values: &mut Values) {
    let mut batches = Batches::new(plan);
    let items = batches.items();
    let batch_count = batches.pass.len() as f64;
    let mut set = |name: &str, value: f64| values.insert(name.to_string(), value);

    // sketches.hash: the batched murmur3 lane.
    let mut hashes = vec![0u64; plan.spec.items_per_op];
    let ns = batches.pass_ns(|batches| {
        for (_, batch) in &batches.pass {
            hash_batch_with_seed(batch, DEFAULT_SEED, &mut hashes);
            black_box(&hashes);
        }
    });
    set("sketches.hash.ns_per_item", ns / items);

    // sketches.theta: the sequential quick-select sketch, saturated.
    let mut seq = QuickSelectThetaSketch::new(LG_K as u8, DEFAULT_SEED).expect("valid lg_k");
    let mut feed_seq = |batches: &Batches| {
        for (_, batch) in &batches.pass {
            hash_batch_with_seed(batch, DEFAULT_SEED, &mut hashes);
            hashes.iter_mut().for_each(|h| *h = normalize_hash(*h));
            black_box(seq.update_hashes(&hashes));
        }
    };
    for _ in 0..WARMUP_ITEMS as usize / PASS_ITEMS {
        batches.refill();
        feed_seq(&batches);
    }
    let ns = batches.pass_ns(&mut feed_seq);
    set("sketches.theta.seq_ns_per_item", ns / items);

    // core.engine: the concrete Θ writer, no flush, no dyn.
    let theta = theta_engine()
        .build()
        .expect("the server's Θ configuration");
    let mut writer = theta.writer();
    for _ in 0..WARMUP_ITEMS as usize / PASS_ITEMS {
        batches.refill();
        batches
            .pass
            .iter()
            .for_each(|(_, b)| writer.update_batch(b));
    }
    let ns = batches.pass_ns(|batches| {
        batches
            .pass
            .iter()
            .for_each(|(_, b)| writer.update_batch(b));
    });
    set("core.engine.ingest_ns_per_item", ns / items);
    drop(writer);

    // core.engine through `Box<dyn EngineWriter>`, the workload's own
    // families, with and without the per-batch flush. The passes
    // alternate so drift hits both alike; the flush is the difference.
    let mut engines = Engines::warmed(plan, &mut batches);
    let before: Vec<_> = engines
        .by_family
        .iter()
        .map(|(_, e, _)| e.stats())
        .collect();
    let (mut plain_ns, mut flushed_ns, mut fed) = (Vec::new(), Vec::new(), 0.0);
    let started = Instant::now();
    while started.elapsed() < 2 * BUDGET || plain_ns.len() < MIN_PASSES {
        for (flush, ns) in [(false, &mut plain_ns), (true, &mut flushed_ns)] {
            batches.refill();
            let t = Instant::now();
            engines.ingest(&batches, flush);
            ns.push(t.elapsed().as_nanos() as f64);
            fed += items;
        }
    }
    let dyn_ns = median(&plain_ns);
    set("core.engine.dyn_ingest_ns_per_item", dyn_ns / items);
    set(
        "core.engine.flush_ns_per_batch",
        (median(&flushed_ns) - dyn_ns).max(0.0) / batch_count,
    );
    let (mut filtered, mut handoffs) = (0, 0);
    for ((_, engine, _), before) in engines.by_family.iter().zip(&before) {
        let after = engine.stats();
        filtered += after.filtered_updates - before.filtered_updates;
        handoffs += after.handoffs - before.handoffs;
    }
    set("core.engine.filtered_share", filtered as f64 / fed);
    set(
        "core.engine.handoffs_per_kitem",
        handoffs as f64 * 1e3 / fed,
    );

    let (_, theta, _) = &engines.by_family[0];
    let ns = repeat_ns(|| (0..1000).for_each(|_| _ = black_box(theta.estimate())));
    set("core.engine.estimate_ns", ns / 1e3);

    if plan.spec.embedded {
        return;
    }
    // server.frame: encoding a frame, then what the server does to it
    // before dispatch (header parse and payload checksum).
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let ns = batches.pass_ns(|batches| {
        frames.clear();
        for (seq, (lane, batch)) in batches.pass.iter().enumerate() {
            frames.push(ingest_frame(plan, *lane, seq as u16, batch));
        }
    });
    set("server.frame.encode_ns_per_frame", ns / batch_count);
    let cap = ServerConfig::default().max_frame_payload;
    let payload_bytes: usize = frames.iter().map(|f| f.len() - FRAME_HEADER_LEN).sum();
    let ns = repeat_ns(|| {
        for frame in &frames {
            let (header, payload) = frame.split_at(FRAME_HEADER_LEN);
            let header = parse_header(header.try_into().expect("16 bytes"), cap, true)
                .expect("own frame parses");
            check_payload(&header, payload).expect("own frame checks");
        }
    });
    set("server.frame.check_ns_per_byte", ns / payload_bytes as f64);

    if plan.spec.mix {
        mix_only(plan, &engines, &frames, values);
    }
}

/// Probes of the layers only `serve_mix` crosses: the stream prefix,
/// image export, view parse and fan-in, and the snapshot codec.
fn mix_only(plan: &Plan, engines: &Engines, frames: &[Vec<u8>], values: &mut Values) {
    let mut set = |name: String, value: f64| values.insert(name, value);

    let bodies: Vec<&[u8]> = frames.iter().map(|f| &f[FRAME_HEADER_LEN..]).collect();
    let ns = repeat_ns(|| {
        for (i, body) in bodies.iter().enumerate() {
            let (family, key) = &plan.lanes[i % plan.lanes.len()];
            let payload = encode_stream_prefix(*family, key, None, body);
            black_box(split_stream_prefix(&payload, false).expect("own prefix splits"));
        }
    });
    set(
        "server.frame.prefix_ns_per_frame".into(),
        ns / bodies.len() as f64,
    );

    let (mut records, mut record_ns, mut crc_ns, mut crc_bytes) = (Vec::new(), 0.0, 0.0, 0);
    for (lane, (family, engine, _)) in engines.by_family.iter().enumerate() {
        let name = family.name();
        let ns = repeat_ns(|| drop(black_box(engine.wire_image())));
        set(format!("core.engine.wire_image_us.{name}"), ns / 1e3);

        // What a query fans in: the live image and the eight slots.
        let live = engine.wire_image();
        let mut nine: Vec<Bytes> = plan.slots[lane].clone();
        nine.push(live.clone());
        let (parse_ns, fanin_ns) = match family {
            SketchFamily::Theta => (
                repeat_ns(|| drop(black_box(ThetaWireView::parse(&live)))),
                repeat_ns(|| drop(black_box(theta_multiway_union(&nine)))),
            ),
            SketchFamily::Hll => (
                repeat_ns(|| drop(black_box(HllWireView::parse(&live)))),
                repeat_ns(|| drop(black_box(hll_multiway_merge(&nine)))),
            ),
            SketchFamily::Quantiles => (
                repeat_ns(|| drop(black_box(LadderWireView::<u64>::parse(&live)))),
                repeat_ns(|| drop(black_box(ladder_multiway_concat::<u64, _>(&nine)))),
            ),
            SketchFamily::Frequency => (
                repeat_ns(|| drop(black_box(MgWireView::<u64>::parse(&live)))),
                repeat_ns(|| drop(black_box(mg_multiway_merge::<u64, _>(&nine)))),
            ),
        };
        set(
            format!("sketches.wire.view_parse_us.{name}"),
            parse_ns / 1e3,
        );
        set(format!("sketches.wire.fanin9_us.{name}"), fanin_ns / 1e3);

        let key = &plan.lanes[lane].1;
        record_ns += repeat_ns(|| drop(black_box(encode_record(*family, key, 1, &live))));
        crc_ns += repeat_ns(|| _ = black_box(crc32(&[&live])));
        crc_bytes += live.len();
        records.push(encode_record(*family, key, 1, &live));
    }
    set("server.persist.encode_record_us".into(), record_ns / 4e3);
    set(
        "server.persist.crc_ns_per_byte".into(),
        crc_ns / crc_bytes as f64,
    );
    let ns = repeat_ns(|| {
        records
            .iter()
            .for_each(|r| drop(black_box(decode_record(r))))
    });
    set("server.recover.decode_record_us".into(), ns / 4e3);
}

/// `DirStore::put` with the file fsynced, per record, into `dir`.
pub fn put(dir: &Path, values: &mut Values) -> Result<(), String> {
    let store = DirStore::new(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let record = vec![0xA5u8; 32 << 10];
    let mut us = Vec::new();
    for i in 0..16 {
        let t = Instant::now();
        store
            .put(&format!("probe-{}.snap", i % 4), &record, true)
            .map_err(|e| format!("put: {e}"))?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    values.insert("server.persist.put_us".into(), median(&us));
    Ok(())
}
