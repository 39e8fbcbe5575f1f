//! What a workload sends, and the exact oracle for what it sent.
//!
//! Every stream ("lane") draws its items from its own generator, so the
//! oracle needs to keep only how many batches each lane had acked: the
//! exact answer is recomputed from the seed after the run.

use crate::gen::{SplitMix, Zipf};
use bytes::Bytes;
use fcds_core::engine::{
    EngineBuilder, Family, FrequencyFamily, HllFamily, QuantilesFamily, StreamEngine, ThetaFamily,
};
use fcds_core::PropagationBackendKind;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::wire::{SketchFamily, WireEncode};

/// Items fed before measuring, so Θ is saturated and every engine is in
/// its lazy phase.
pub const WARMUP_ITEMS: u64 = 1 << 21;
/// Replica slots preloaded per `serve_mix` stream (sources `1..=SLOTS`).
pub const SLOTS: u64 = 8;
/// Items summarised by each replica slot image.
pub const SLOT_ITEMS: usize = 1 << 14;
/// On `serve_mix` every `MERGE_EVERY`-th op re-pushes one slot image.
pub const MERGE_EVERY: u64 = 64;
const ZIPF_KEYS: usize = 100_000;
const ZIPF_S: f64 = 1.1;

/// `lg_k` of Θ streams: `ServerConfig::default().lg_k`.
pub const LG_K: usize = 12;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// No sockets: the engine is called directly.
    pub embedded: bool,
    /// Sixteen v2 streams of all families with persistence and merges,
    /// not the one v1 default Θ stream.
    pub mix: bool,
    pub items_per_op: usize,
    pub queries_per_s: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "embed_theta",
        why: "the paper's mixed workload (fig. 7) with no sockets: only sketches.hash and core.engine work, so it is the control for server changes and the target for engine changes",
        embedded: true,
        mix: false,
        items_per_op: 512,
        queries_per_s: 500,
    },
    Spec {
        name: "serve_bulk",
        why: "the same stream over FCF1 in 4 KiB frames: per-item costs dominate (checksum, decode, hash); against embed_theta it prices the serving tier",
        embedded: false,
        mix: false,
        items_per_op: 512,
        queries_per_s: 500,
    },
    Spec {
        name: "serve_small",
        why: "the same stream in 128 B frames: per-frame costs dominate (syscalls, Ack round trip, queue hand-off, per-batch flush), so bulk speed bought with per-frame cost shows here",
        embedded: false,
        mix: false,
        items_per_op: 16,
        queries_per_s: 500,
    },
    Spec {
        name: "serve_mix",
        why: "16 v2 streams of all four families with replica slots, REPLACE merges, image queries and the checkpointer: registry, fan-in over 9 images and persistence are only on this path",
        embedded: false,
        mix: true,
        items_per_op: 256,
        queries_per_s: 200,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

pub const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

/// An engine built the way the server builds a stream's
/// (`registry::build_engine` with `ServerConfig::default()`).
pub fn build_engine(family: SketchFamily, writers: usize) -> Box<dyn StreamEngine> {
    let backend = PropagationBackendKind::WriterAssisted;
    match family {
        SketchFamily::Theta => EngineBuilder::<ThetaFamily>::new()
            .accuracy(LG_K)
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Hll => EngineBuilder::<HllFamily>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Quantiles => EngineBuilder::<QuantilesFamily<u64>>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
        SketchFamily::Frequency => EngineBuilder::<FrequencyFamily<u64>>::new()
            .writers(writers)
            .backend(backend)
            .build_boxed(),
    }
    .expect("the server's default engine configuration is valid")
}

/// The wire image of a replica that has seen `items`.
fn slot_image(family: SketchFamily, items: &[u64]) -> Bytes {
    if family == SketchFamily::Frequency {
        // The concurrent Misra–Gries engine merges its buffers in hash-map
        // order, which differs from process to process; inputs must not.
        let k = <FrequencyFamily<u64> as Family>::DEFAULT_ACCURACY;
        let mut sketch = MisraGriesSketch::<u64>::new(k).expect("the server's k");
        items.iter().for_each(|item| sketch.update(*item));
        return sketch.to_wire_bytes();
    }
    let engine = build_engine(family, 1);
    let mut writer = engine.writer();
    writer.ingest_batch(items);
    writer.flush().expect("a fresh engine flushes");
    drop(writer);
    engine.quiesce();
    engine.wire_image()
}

/// The inputs of one run, fixed by the workload and the seed.
pub struct Plan {
    pub spec: &'static Spec,
    pub seed: u64,
    /// `(family, key)` of each stream.
    pub lanes: Vec<(SketchFamily, Vec<u8>)>,
    /// Per lane, the wire image of each replica slot (`serve_mix` only).
    pub slots: Vec<Vec<Bytes>>,
    zipf: Option<Zipf>,
}

impl Plan {
    pub fn new(spec: &'static Spec, seed: u64) -> Plan {
        let mut plan = Plan {
            spec,
            seed,
            lanes: vec![(SketchFamily::Theta, b"default".to_vec())],
            slots: vec![Vec::new()],
            zipf: None,
        };
        if spec.mix {
            plan.zipf = Some(Zipf::new(ZIPF_KEYS, ZIPF_S));
            plan.lanes = (0..16)
                .map(|i| {
                    let family = FAMILIES[i % 4];
                    (
                        family,
                        format!("mix-{}-{}", family.name(), i / 4).into_bytes(),
                    )
                })
                .collect();
            // Slot images summarise the head of each lane's own item
            // sequence, so live items never repeat a preloaded one.
            plan.slots = (0..plan.lanes.len())
                .map(|lane| {
                    let mut source = self::Lane::at_start(&plan, lane);
                    let mut items = vec![0u64; SLOT_ITEMS];
                    (0..SLOTS)
                        .map(|_| {
                            source.generate(&plan, &mut items);
                            slot_image(plan.lanes[lane].0, &items)
                        })
                        .collect()
                })
                .collect();
        }
        plan
    }

    /// Items each lane holds before its first live batch.
    pub fn preloaded_items(&self) -> u64 {
        if self.spec.mix {
            SLOTS * SLOT_ITEMS as u64
        } else {
            0
        }
    }
}

/// One stream's generator and the record of what was acked.
pub struct Lane {
    index: usize,
    rng: SplitMix,
    /// Live batches generated so far.
    pub batches: u64,
    /// Which of them were not acked. Empty on a clean run.
    pub unacked: Vec<u64>,
}

impl Lane {
    fn at_start(plan: &Plan, index: usize) -> Lane {
        Lane {
            index,
            rng: SplitMix::new(plan.seed, index as u64),
            batches: 0,
            unacked: Vec::new(),
        }
    }

    /// The lane positioned after its preloaded items.
    pub fn new(plan: &Plan, index: usize) -> Lane {
        let mut lane = Lane::at_start(plan, index);
        for _ in 0..plan.preloaded_items() {
            lane.rng.next();
        }
        lane
    }

    fn generate(&mut self, plan: &Plan, out: &mut [u64]) {
        match (&plan.zipf, plan.lanes[self.index].0) {
            (Some(zipf), SketchFamily::Frequency) => zipf.fill(&mut self.rng, out),
            _ => self.rng.fill(out),
        }
    }

    /// Fills `out` with the lane's next live batch.
    pub fn next_batch(&mut self, plan: &Plan, out: &mut [u64]) {
        self.generate(plan, out);
        self.batches += 1;
    }

    /// Marks the batch just generated as not acked.
    pub fn last_batch_failed(&mut self) {
        self.unacked.push(self.batches - 1);
    }

    /// Items the stream must hold once everything acked is applied.
    pub fn items_held(&self, plan: &Plan) -> u64 {
        plan.preloaded_items()
            + (self.batches - self.unacked.len() as u64) * plan.spec.items_per_op as u64
    }

    /// Replays every item the stream must hold, preloaded and acked.
    pub fn replay(&self, plan: &Plan, mut visit: impl FnMut(u64)) {
        let mut source = Lane::at_start(plan, self.index);
        let mut items = vec![0u64; SLOT_ITEMS];
        for _ in 0..plan.preloaded_items() / SLOT_ITEMS as u64 {
            source.generate(plan, &mut items);
            items.iter().copied().for_each(&mut visit);
        }
        items.truncate(plan.spec.items_per_op);
        for batch in 0..self.batches {
            source.generate(plan, &mut items);
            if !self.unacked.contains(&batch) {
                items.iter().copied().for_each(&mut visit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_batches_and_slot_images() {
        let mix = spec("serve_mix").unwrap();
        let (a, b, c) = (Plan::new(mix, 11), Plan::new(mix, 11), Plan::new(mix, 12));
        for lane in 0..16 {
            for slot in 0..SLOTS as usize {
                assert!(
                    a.slots[lane][slot] == b.slots[lane][slot],
                    "lane {lane} slot {slot} differs"
                );
            }
        }
        assert!(a.slots != c.slots);
        assert_eq!(a.slots.len(), 16);
        assert!(a.slots.iter().all(|s| s.len() == SLOTS as usize));
        for lane in [0, 3, 15] {
            let batch = |plan: &Plan| {
                let mut items = vec![0u64; mix.items_per_op];
                Lane::new(plan, lane).next_batch(plan, &mut items);
                items
            };
            assert_eq!(batch(&a), batch(&b));
            assert_ne!(batch(&a), batch(&c));
        }
    }

    #[test]
    fn replay_visits_preloaded_and_acked_items_only() {
        let mix = spec("serve_mix").unwrap();
        let plan = Plan::new(mix, 3);
        let mut lane = Lane::new(&plan, 2);
        let mut sent = Vec::new();
        let mut items = vec![0u64; mix.items_per_op];
        for batch in 0..5 {
            lane.next_batch(&plan, &mut items);
            if batch == 1 {
                lane.last_batch_failed();
            } else {
                sent.extend_from_slice(&items);
            }
        }
        let mut replayed = Vec::new();
        lane.replay(&plan, |item| replayed.push(item));
        assert_eq!(replayed.len() as u64, lane.items_held(&plan));
        assert_eq!(replayed[plan.preloaded_items() as usize..], sent[..]);
    }
}
