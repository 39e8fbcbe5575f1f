//! The image-slot map and the one fan-in over it.
//!
//! Everything the server holds besides live engines is a validated wire
//! image in its stream's [`Slots`] map. An estimate of a stream with no
//! slot is the engine's published snapshot; anything with a slot, and
//! every image — a query's, a checkpoint's, a replica push's — is
//! [`fan_in`] over the live image plus the images [`Slots::collect`]
//! picked. Which slot classes a consumer sees is the [`Consumer`] table
//! below.

use bytes::Bytes;
use fcds_sketches::theta::ThetaRead;
use fcds_sketches::wire::{
    hll_multiway_merge, ladder_multiway_concat, mg_multiway_merge, peek, theta_multiway_union,
    HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView, WireEncode,
};
use fcds_sketches::WireError;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Images one slot map holds at most; a merge that would add one more
/// is shed with `Overload` (replacing an existing slot always fits).
pub(crate) const SLOT_CAP: usize = 1024;

/// What a slot holds. The derived order is the fan-in order: recovered
/// state, then replicas by source id, then pushes in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SlotKey {
    /// The image recovered from this stream's snapshot at boot. The
    /// live engine restarts empty, so this slot *is* the pre-crash
    /// state.
    Recovered,
    /// The newest image pushed under a replica source id. Replacement
    /// (not accumulation) is what makes periodic re-pushes idempotent
    /// for the families whose merges are not (Quantiles concat,
    /// Misra–Gries counter addition).
    Replica(u64),
    /// The n-th accumulating merge.
    Pushed(u64),
}

/// Who is reading a slot map, which decides the classes it sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Consumer {
    /// Queries see everything.
    Query,
    /// Checkpoints leave replica slots out: their source re-pushes every
    /// stream when it reconnects to a restarted server, and persisting
    /// them would double-count on the peer for the non-idempotent
    /// families.
    Checkpoint,
    /// A replica push ships only what this server itself holds — live
    /// plus recovered, so a post-crash push never shrinks the peer's
    /// slot to an empty just-restarted engine.
    ReplicaPush,
}

impl Consumer {
    /// The consumers that ship images out of the server, each with its
    /// own mark on every stream (`StreamState::mark`).
    pub(crate) const SHIPPERS: [Consumer; 2] = [Consumer::Checkpoint, Consumer::ReplicaPush];

    /// Whether this consumer's images carry a slot of class `key` —
    /// and so whether a merge into one dirties its mark.
    pub(crate) fn sees(self, key: SlotKey) -> bool {
        match key {
            SlotKey::Recovered => true,
            SlotKey::Replica(_) => self == Consumer::Query,
            SlotKey::Pushed(_) => self != Consumer::ReplicaPush,
        }
    }
}

/// A merge was shed because the map already holds [`SLOT_CAP`] images.
#[derive(Debug)]
pub(crate) struct SlotsFull;

/// One mutex over one ordered map of validated wire images. Each stream
/// owns one.
#[derive(Default)]
pub(crate) struct Slots {
    map: Mutex<BTreeMap<SlotKey, Bytes>>,
}

impl Slots {
    /// Stores an already-validated image: under `source` it replaces
    /// that replica's slot, without one it accumulates. Returns the
    /// slot it filled.
    pub(crate) fn put(&self, source: Option<u64>, image: Bytes) -> Result<SlotKey, SlotsFull> {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let key = match source {
            Some(source) => SlotKey::Replica(source),
            // `Pushed` sorts last and is never removed, so the last key
            // names the next free index.
            None => match map.last_key_value() {
                Some((SlotKey::Pushed(n), _)) => SlotKey::Pushed(n + 1),
                _ => SlotKey::Pushed(0),
            },
        };
        if map.len() >= SLOT_CAP && !map.contains_key(&key) {
            return Err(SlotsFull);
        }
        map.insert(key, image);
        Ok(key)
    }

    /// Installs the boot-recovered image (recovery runs before traffic,
    /// so the map is empty and the cap cannot bind).
    pub(crate) fn set_recovered(&self, image: Bytes) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(SlotKey::Recovered, image);
    }

    /// Every slot `who` sees, in key order.
    pub(crate) fn collect(&self, who: Consumer) -> Vec<Bytes> {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .filter(|(k, _)| who.sees(**k))
            .map(|(_, image)| image.clone())
            .collect()
    }
}

/// What an image must share with every image it fans in with, read off
/// its view: the kernels refuse a mix with [`WireError::Incompatible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaninKey {
    Theta {
        seed: u64,
    },
    Hll {
        lg_m: u8,
        seed: u64,
    },
    /// Ladders concatenate with any ladder.
    Quantiles,
    Frequency {
        k: u64,
    },
}

impl FaninKey {
    pub(crate) fn family(self) -> SketchFamily {
        match self {
            FaninKey::Theta { .. } => SketchFamily::Theta,
            FaninKey::Hll { .. } => SketchFamily::Hll,
            FaninKey::Quantiles => SketchFamily::Quantiles,
            FaninKey::Frequency { .. } => SketchFamily::Frequency,
        }
    }
}

/// Pre-screens an envelope with the capped peek (never size anything
/// from an unvalidated declared length), then runs the family's full
/// validation — the view's parse plus, for Θ and HLL, its item-level
/// `validate`: exactly what the owned decoders accept, so only images a
/// later fan-in can read enter a slot. The gate for network merges and
/// for snapshot-embedded images at recovery alike.
pub(crate) fn validate_envelope(payload: &[u8], cap: u32) -> Result<FaninKey, String> {
    let peeked = peek(payload, cap as u64).map_err(|e| e.to_string())?;
    match peeked.family {
        SketchFamily::Theta => ThetaWireView::parse(payload).and_then(|v| {
            v.validate()?;
            Ok(FaninKey::Theta { seed: v.seed() })
        }),
        SketchFamily::Hll => HllWireView::parse(payload).and_then(|v| {
            v.validate()?;
            Ok(FaninKey::Hll {
                lg_m: v.lg_m(),
                seed: v.seed(),
            })
        }),
        SketchFamily::Quantiles => {
            LadderWireView::<u64>::parse(payload).map(|_| FaninKey::Quantiles)
        }
        SketchFamily::Frequency => {
            MgWireView::<u64>::parse(payload).map(|v| FaninKey::Frequency { k: v.k() })
        }
    }
    .map_err(|e| e.to_string())
}

/// What a fan-in is asked for — the wire's query kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// Query kind 0: the scalar estimate.
    Estimate,
    /// Query kind 1: the merged wire image.
    Image,
}

impl Want {
    pub(crate) fn from_kind(kind: u8) -> Option<Want> {
        match kind {
            0 => Some(Want::Estimate),
            1 => Some(Want::Image),
            _ => None,
        }
    }
}

/// What a fan-in produced. [`Want::Image`] always yields
/// [`Fanned::Image`].
pub(crate) enum Fanned {
    Estimate(f64),
    Image(Bytes),
    /// An estimate was asked of a family that has none
    /// (Quantiles, Frequency).
    NoEstimate,
}

/// Merges `images` with `family`'s multiway kernel and answers `want`.
/// The only caller of the four kernels: an estimate never encodes an
/// image, and an empty `images` is the kernels' "no images" error.
pub(crate) fn fan_in(
    family: SketchFamily,
    images: &[Bytes],
    want: Want,
) -> Result<Fanned, WireError> {
    Ok(match (family, want) {
        (SketchFamily::Quantiles | SketchFamily::Frequency, Want::Estimate) => Fanned::NoEstimate,
        (SketchFamily::Theta, _) => {
            let merged = theta_multiway_union(images)?;
            match want {
                Want::Estimate => Fanned::Estimate(merged.estimate()),
                Want::Image => Fanned::Image(merged.to_wire_bytes()),
            }
        }
        (SketchFamily::Hll, _) => {
            let merged = hll_multiway_merge(images)?;
            match want {
                Want::Estimate => Fanned::Estimate(merged.estimate()),
                Want::Image => Fanned::Image(merged.to_wire_bytes()),
            }
        }
        (SketchFamily::Quantiles, Want::Image) => {
            Fanned::Image(ladder_multiway_concat::<u64, _>(images)?.to_wire_bytes())
        }
        (SketchFamily::Frequency, Want::Image) => {
            Fanned::Image(mg_multiway_merge::<u64, _>(images)?.to_wire_bytes())
        }
    })
}

/// The image a checkpoint or a replica push ships: a single image goes
/// out as is, several are merged first.
pub(crate) fn ship_image(family: SketchFamily, mut images: Vec<Bytes>) -> Result<Bytes, WireError> {
    if images.len() == 1 {
        return Ok(images.pop().expect("length checked"));
    }
    match fan_in(family, &images, Want::Image)? {
        Fanned::Image(image) => Ok(image),
        Fanned::Estimate(_) | Fanned::NoEstimate => unreachable!("an image was asked for"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcds_core::engine::{EngineBuilder, HllFamily, StreamEngine, ThetaFamily};
    use fcds_core::PropagationBackendKind;
    use fcds_sketches::frequency::MisraGriesSketch;
    use fcds_sketches::hll::HllSketch;
    use fcds_sketches::quantiles::{QuantilesLadder, QuantilesSketch};
    use fcds_sketches::theta::{CompactThetaSketch, QuickSelectThetaSketch};
    use fcds_sketches::wire::WireDecode;

    /// A quiesced engine fed `0..n` through `writers` writers (one per
    /// shard, so every shard holds items).
    fn quiesced(engine: Box<dyn StreamEngine>, writers: usize, n: u64) -> Box<dyn StreamEngine> {
        let mut ws: Vec<_> = (0..writers).map(|_| engine.writer()).collect();
        let items: Vec<u64> = (0..n).collect();
        for (i, chunk) in items.chunks(4_096).enumerate() {
            ws[i % writers].ingest_batch(chunk);
        }
        for w in &mut ws {
            w.flush().unwrap();
        }
        drop(ws);
        engine.quiesce();
        engine
    }

    /// What lets `StreamState::query` answer a slot-less estimate off
    /// the engine: after `quiesce` the published estimate is bit for bit
    /// the estimate of the fan-in of the engine's one image.
    #[test]
    fn a_quiesced_engine_estimates_what_its_lone_image_fans_in_to() {
        let theta = |shards| {
            EngineBuilder::<ThetaFamily>::new()
                .accuracy(12)
                .writers(shards)
                .shards(shards)
                .backend(PropagationBackendKind::WriterAssisted)
                .build_boxed()
                .unwrap()
        };
        let hll = EngineBuilder::<HllFamily>::new()
            .backend(PropagationBackendKind::WriterAssisted)
            .build_boxed()
            .unwrap();
        let cases = [
            ("Θ lg_k 12, exact mode", quiesced(theta(1), 1, 1_000)),
            ("Θ lg_k 12, 2^21 items", quiesced(theta(1), 1, 1 << 21)),
            (
                "Θ lg_k 12, 2^21 items, 2 shards",
                quiesced(theta(2), 2, 1 << 21),
            ),
            ("HLL default lg_m, 2^21 items", quiesced(hll, 1, 1 << 21)),
        ];
        for (case, engine) in cases {
            let published = engine.estimate().unwrap();
            let fanned = match fan_in(engine.family(), &[engine.wire_image()], Want::Estimate) {
                Ok(Fanned::Estimate(value)) => value,
                _ => panic!("{case}: the fan-in has an estimate"),
            };
            assert_eq!(
                published.to_bits(),
                fanned.to_bits(),
                "{case}: {published} vs {fanned}"
            );
        }
    }

    type Decodes = fn(&[u8]) -> bool;

    fn decodes<W: WireDecode>(image: &[u8]) -> bool {
        W::from_wire_bytes(image).is_ok()
    }

    /// The merge gate and the decoders share one definition of a valid
    /// image: under every single-byte mutation they agree.
    #[test]
    fn the_gate_accepts_exactly_what_the_decoders_accept() {
        let mut theta = QuickSelectThetaSketch::new(4, 9001).unwrap();
        let mut hll = HllSketch::new(4, 9001).unwrap();
        let mut quantiles = QuantilesSketch::<u64>::with_seed(16, 1).unwrap();
        let mut mg = MisraGriesSketch::<u64>::new(8).unwrap();
        for i in 0..200u64 {
            theta.update(i);
            hll.update(i);
            quantiles.update(i);
            mg.update(i % 12);
        }
        let families: [(Bytes, Decodes); 4] = [
            (
                theta.compact().to_wire_bytes(),
                decodes::<CompactThetaSketch>,
            ),
            (hll.to_wire_bytes(), decodes::<HllSketch>),
            (
                quantiles.ladder().to_wire_bytes(),
                decodes::<QuantilesLadder<u64>>,
            ),
            (mg.to_wire_bytes(), decodes::<MisraGriesSketch<u64>>),
        ];
        for (image, decodes) in families {
            let family = peek(&image, u64::MAX).unwrap().family;
            for offset in 0..image.len() {
                for flip in [0xFFu8, 0x01] {
                    let mut m = image.to_vec();
                    m[offset] ^= flip;
                    assert_eq!(
                        validate_envelope(&m, u32::MAX).is_ok(),
                        decodes(&m),
                        "{family:?}: byte {offset} ^ {flip:#04x}"
                    );
                }
            }
        }
    }
}
