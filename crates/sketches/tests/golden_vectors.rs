//! Golden test vectors: the committed byte-level contract of wire
//! format version 1.
//!
//! The corpus under `tests/vectors/` is generated once by the checked-in
//! tool below (`cargo test -p fcds-sketches --test golden_vectors
//! -- --ignored regenerate`) and committed. Two properties are enforced
//! on every run:
//!
//! 1. **Encoder stability** — re-generating each vector in memory
//!    produces exactly the committed bytes. An encoder change that
//!    alters any committed byte is a format break and must ship as wire
//!    version 2 with fresh vectors, never as a silent edit.
//! 2. **Decode/re-encode identity** — every committed vector decodes
//!    through the public decoders and re-encodes byte-identically,
//!    pinning the decoders to the canonical form.
//!
//! Vector files are hex text (a `#` comment line, then the image bytes
//! as 64-char hex lines) so diffs stay reviewable in git.

use bytes::Bytes;
use fcds_sketches::error::WireError;
use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::hll::HllSketch;
use fcds_sketches::quantiles::{QuantilesLadder, QuantilesSketch};
use fcds_sketches::theta::QuickSelectThetaSketch;
use fcds_sketches::wire::{SketchFamily, WireDecode, WireEncode, WireHeader};
use std::path::{Path, PathBuf};

fn vectors_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("vectors")
}

/// The deterministic generation grid: (file stem, description, image).
/// Everything is seeded, so the corpus is reproducible bit-for-bit.
fn corpus() -> Vec<(String, String, Bytes)> {
    let mut out = Vec::new();

    for lg_k in [4u8, 8] {
        for n in [0u64, 100, 50_000] {
            let mut s = QuickSelectThetaSketch::new(lg_k, 9001).unwrap();
            for i in 0..n {
                s.update(i);
            }
            out.push((
                format!("theta_lgk{lg_k}_n{n}"),
                format!("theta: QuickSelect lg_k={lg_k} seed=9001 over 0..{n}"),
                s.compact().to_wire_bytes(),
            ));
        }
    }

    for lg_m in [4u8, 10] {
        for n in [0u64, 1_000, 100_000] {
            let mut h = HllSketch::new(lg_m, 42).unwrap();
            for i in 0..n {
                h.update(i);
            }
            out.push((
                format!("hll_lgm{lg_m}_n{n}"),
                format!("hll: lg_m={lg_m} seed=42 over 0..{n}"),
                h.to_wire_bytes(),
            ));
        }
    }

    for k in [16usize, 64] {
        for n in [0u64, 1_000, 100_000] {
            let mut q = QuantilesSketch::<u64>::with_seed(k, 7).unwrap();
            for i in 0..n {
                q.update(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            out.push((
                format!("quantiles_ladder_k{k}_n{n}"),
                format!("quantiles ladder: k={k} oracle_seed=7 over {n} spread items"),
                q.ladder().to_wire_bytes(),
            ));
        }
    }

    for k in [8usize, 64] {
        for n in [0u64, 30_000] {
            let mut mg = MisraGriesSketch::<u64>::new(k).unwrap();
            for i in 0..n {
                mg.update(if i % 3 == 0 { 7 } else { i % 500 });
            }
            out.push((
                format!("mg_k{k}_n{n}"),
                format!("misra-gries: k={k} over {n} items (heavy item 7, noise mod 500)"),
                mg.to_wire_bytes(),
            ));
        }
    }

    out
}

fn to_hex_file(description: &str, bytes: &[u8]) -> String {
    let mut s = format!("# {description}\n");
    for chunk in bytes.chunks(32) {
        for b in chunk {
            s.push_str(&format!("{b:02x}"));
        }
        s.push('\n');
    }
    s
}

fn from_hex_file(text: &str) -> Vec<u8> {
    let hex: String = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect::<Vec<_>>()
        .concat();
    assert!(hex.len().is_multiple_of(2), "odd hex digit count");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn committed_vectors() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(vectors_dir()).expect("tests/vectors directory is committed") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("hex") {
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((stem, from_hex_file(&text)));
        }
    }
    out.sort();
    out
}

/// Regeneration tool (checked in, excluded from normal runs). Run with
/// `cargo test -p fcds-sketches --test golden_vectors -- --ignored` and
/// commit the result; review the diff as a format change.
#[test]
#[ignore = "regenerates the committed corpus; run explicitly"]
fn regenerate_golden_vectors() {
    let dir = vectors_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (stem, description, bytes) in corpus() {
        std::fs::write(
            dir.join(format!("{stem}.hex")),
            to_hex_file(&description, &bytes),
        )
        .unwrap();
    }
}

#[test]
fn golden_vectors_match_current_encoders() {
    let committed = committed_vectors();
    assert!(
        committed.len() >= 20,
        "corpus too small: {} vectors",
        committed.len()
    );
    let mut expected: Vec<(String, Vec<u8>)> = corpus()
        .into_iter()
        .map(|(stem, _, bytes)| (stem, bytes.to_vec()))
        .collect();
    expected.sort();
    let names = |v: &[(String, Vec<u8>)]| v.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&committed),
        names(&expected),
        "corpus file set drifted from the generation grid"
    );
    for ((stem, committed_bytes), (_, expected_bytes)) in committed.iter().zip(&expected) {
        assert_eq!(
            committed_bytes, expected_bytes,
            "encoder output for `{stem}` no longer matches the committed \
             golden vector — this is a wire format break"
        );
    }
}

#[test]
fn every_golden_vector_round_trips_byte_identically() {
    let committed = committed_vectors();
    let mut families_seen = std::collections::BTreeSet::new();
    for (stem, bytes) in &committed {
        assert_eq!(bytes[6], 0, "vector `{stem}` sets the reserved flags byte");
        let (header, _) = WireHeader::parse(bytes)
            .unwrap_or_else(|e| panic!("vector `{stem}` has an unparseable header: {e}"));
        families_seen.insert(header.family.code());
        let reencoded: Vec<u8> = match header.family {
            SketchFamily::Theta => QuickSelectThetaSketchImage::reencode(bytes),
            SketchFamily::Hll => HllSketch::from_wire_bytes(bytes)
                .unwrap()
                .to_wire_bytes()
                .to_vec(),
            SketchFamily::Quantiles => QuantilesLadder::<u64>::from_wire_bytes(bytes)
                .unwrap()
                .to_wire_bytes()
                .to_vec(),
            SketchFamily::Frequency => MisraGriesSketch::<u64>::from_wire_bytes(bytes)
                .unwrap()
                .to_wire_bytes()
                .to_vec(),
        };
        assert_eq!(
            &reencoded, bytes,
            "vector `{stem}` does not re-encode byte-identically"
        );
    }
    assert_eq!(
        families_seen.into_iter().collect::<Vec<_>>(),
        vec![1, 2, 3, 4],
        "corpus must cover all four sketch families"
    );
}

/// Helper namespace for the Θ re-encode arm (keeps the match readable).
struct QuickSelectThetaSketchImage;

impl QuickSelectThetaSketchImage {
    fn reencode(bytes: &[u8]) -> Vec<u8> {
        fcds_sketches::theta::CompactThetaSketch::from_wire_bytes(bytes)
            .unwrap()
            .to_wire_bytes()
            .to_vec()
    }
}

/// A vector with a forged family byte must fail decoding, not
/// mis-decode: the corpus also locks the dispatch path.
#[test]
fn golden_vectors_reject_family_forgery() {
    for (stem, bytes) in committed_vectors() {
        let mut forged = bytes.clone();
        forged[5] = match forged[5] {
            1 => 2,
            _ => 1,
        };
        let result: Result<HllSketch, WireError> = match forged[5] {
            2 => HllSketch::from_wire_bytes(&forged),
            _ => {
                // Forged into Θ: decode as Θ must fail structurally or
                // produce a valid sketch only by coincidence — assert it
                // at least never panics and HLL decode rejects it.
                assert!(HllSketch::from_wire_bytes(&forged).is_err());
                continue;
            }
        };
        assert!(
            result.is_err(),
            "vector `{stem}` with forged family byte decoded as HLL"
        );
    }
}
