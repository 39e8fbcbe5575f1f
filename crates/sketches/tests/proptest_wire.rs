//! Property tests: every wire format round-trips arbitrary sketch states
//! bit-exactly, and rejects random corruption without panicking.
//!
//! Beyond the randomised properties, this file carries the exhaustive
//! robustness suite for the unified envelope: truncation at *every* byte
//! boundary, single-byte mutation at *every* offset, and a hostile-header
//! matrix asserting each corruption class maps to its intended
//! [`WireError`] variant, including a reserved flags byte set on every
//! committed golden vector. No input may panic or trigger a large
//! allocation before validation.

use fcds_sketches::frequency::MisraGriesSketch;
use fcds_sketches::hll::HllSketch;
use fcds_sketches::quantiles::{QuantilesLadder, QuantilesSketch};
use fcds_sketches::theta::{CompactThetaSketch, QuickSelectThetaSketch, ThetaRead};
use fcds_sketches::wire::{
    hll_multiway_merge, ladder_multiway_concat, mg_multiway_merge, peek, theta_multiway_union,
    HllWireView, LadderWireView, MgWireView, SketchFamily, ThetaWireView, WireDecode, WireEncode,
    WireHeader, WIRE_HEADER_LEN,
};
use fcds_sketches::WireError;
use proptest::prelude::*;

/// One smallish valid image per family, reused by the exhaustive
/// suites below. Kept deliberately small so every-offset loops stay fast.
fn sample_images() -> Vec<(&'static str, Vec<u8>)> {
    let mut theta = QuickSelectThetaSketch::new(4, 1).unwrap();
    let mut hll = HllSketch::new(4, 1).unwrap();
    let mut quant = QuantilesSketch::<u64>::with_seed(16, 1).unwrap();
    let mut mg = MisraGriesSketch::<u64>::new(8).unwrap();
    for i in 0..500u64 {
        theta.update(i);
        hll.update(i);
        quant.update(i);
        mg.update(i % 20);
    }
    vec![
        ("theta", theta.compact().to_wire_bytes().to_vec()),
        ("hll", hll.to_wire_bytes().to_vec()),
        ("quantiles_ladder", quant.ladder().to_wire_bytes().to_vec()),
        ("mg", mg.to_wire_bytes().to_vec()),
    ]
}

/// Decode `bytes` through every public decoder. The point is that none
/// of them may panic; each either errors or yields a valid sketch.
fn decode_all(bytes: &[u8]) {
    let _ = CompactThetaSketch::from_wire_bytes(bytes);
    let _ = HllSketch::from_wire_bytes(bytes);
    let _ = QuantilesLadder::<u64>::from_wire_bytes(bytes);
    let _ = MisraGriesSketch::<u64>::from_wire_bytes(bytes);
}

/// Truncation at every byte boundary must be rejected by every decoder:
/// the envelope's exact-length rule means no strict prefix is valid.
#[test]
fn truncation_at_every_byte_boundary_is_rejected() {
    for (name, bytes) in sample_images() {
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            decode_all(prefix); // must not panic
            assert!(
                WireHeader::parse(prefix).is_err(),
                "{name}: truncation to {cut}/{} bytes parsed as a full image",
                bytes.len()
            );
        }
    }
}

/// Trailing garbage must be rejected too — the exact-length rule cuts
/// both ways, so decoders can never silently ignore appended bytes.
#[test]
fn trailing_bytes_are_rejected() {
    for (name, bytes) in sample_images() {
        for extra in [1usize, 8, 1024] {
            let mut padded = bytes.clone();
            padded.extend(std::iter::repeat_n(0xAB, extra));
            let err = WireHeader::parse(&padded).expect_err(name);
            assert!(
                matches!(err, WireError::PayloadLength { .. }),
                "{name}: +{extra} trailing bytes gave {err:?}, expected PayloadLength"
            );
        }
    }
}

/// Single-byte mutation at every offset, with both a bit-dense (0xFF)
/// and bit-sparse (0x01) XOR mask: decoders must never panic, and a
/// mutation that still decodes must yield a structurally valid sketch.
#[test]
fn single_byte_mutation_at_every_offset_never_panics() {
    for (name, bytes) in sample_images() {
        for offset in 0..bytes.len() {
            for mask in [0xFFu8, 0x01] {
                let mut mutated = bytes.clone();
                mutated[offset] ^= mask;
                decode_all(&mutated);
                if let Ok(c) = CompactThetaSketch::from_wire_bytes(&mutated) {
                    let hashes = c.sorted_hashes();
                    assert!(
                        hashes.windows(2).all(|w| w[0] < w[1])
                            && hashes.iter().all(|&h| h < c.theta()),
                        "{name}: mutation at {offset}^{mask:#x} decoded to an invalid theta image"
                    );
                }
            }
        }
    }
}

/// The hostile-header matrix: each corruption class must map to its
/// intended [`WireError`] variant, for every family. [`peek`] reads only
/// the 16-byte header, so it must reject the header-level classes with
/// the *same* variants — it never verifies the declared payload length
/// against the input, but it does enforce the caller-supplied cap so a
/// frame reader can refuse absurd lengths before buffering anything.
#[test]
fn corruption_classes_map_to_intended_error_variants() {
    for (name, bytes) in sample_images() {
        // Wrong magic (any of the four magic bytes flipped).
        for i in 0..4 {
            let mut b = bytes.clone();
            b[i] ^= 0x20;
            let err = WireHeader::parse(&b).expect_err(name);
            assert!(
                matches!(err, WireError::BadMagic { .. }),
                "{name}: magic byte {i} flip gave {err:?}"
            );
            let perr = peek(&b, u64::MAX).expect_err(name);
            assert_eq!(err, perr, "{name}: peek disagrees on magic byte {i} flip");
        }

        // Unsupported version.
        for version in [0u8, 2, 0xFF] {
            let mut b = bytes.clone();
            b[4] = version;
            let err = WireHeader::parse(&b).expect_err(name);
            assert_eq!(
                err,
                WireError::UnsupportedVersion { found: version },
                "{name}: version {version}"
            );
            assert_eq!(
                peek(&b, u64::MAX),
                Err(err),
                "{name}: peek disagrees on version"
            );
        }

        // Unknown family code.
        for family in [0u8, 5, 0x7F, 0xFF] {
            let mut b = bytes.clone();
            b[5] = family;
            let err = WireHeader::parse(&b).expect_err(name);
            assert_eq!(
                err,
                WireError::UnknownFamily { found: family },
                "{name}: family {family}"
            );
            assert_eq!(
                peek(&b, u64::MAX),
                Err(err),
                "{name}: peek disagrees on family"
            );
        }

        // Absurd declared payload length: must error on the length
        // field alone — long before any allocation could happen. With a
        // generous cap `peek` still reports the declared length without
        // vouching for the bytes; with a realistic cap it rejects the
        // header outright, carrying the cap in the error's `have` field.
        for declared in [u64::MAX, u64::MAX / 2, bytes.len() as u64 * 1_000_000] {
            let mut b = bytes.clone();
            b[8..16].copy_from_slice(&declared.to_le_bytes());
            let err = WireHeader::parse(&b).expect_err(name);
            assert!(
                matches!(err, WireError::PayloadLength { .. }),
                "{name}: declared len {declared} gave {err:?}"
            );
            let peeked = peek(&b, u64::MAX).expect(name);
            assert_eq!(
                peeked.payload_len, declared,
                "{name}: uncapped peek must report the declared length verbatim"
            );
            let cap = 1u64 << 20;
            assert_eq!(
                peek(&b, cap),
                Err(WireError::PayloadLength {
                    declared,
                    have: cap
                }),
                "{name}: capped peek must refuse declared len {declared}"
            );
        }

        // A declared length exactly at the cap passes the pre-screen:
        // the cap bounds what the reader will buffer, not what is valid.
        {
            let mut b = bytes.clone();
            let declared = 4096u64;
            b[8..16].copy_from_slice(&declared.to_le_bytes());
            let peeked = peek(&b, declared).expect(name);
            assert_eq!(
                peeked.payload_len, declared,
                "{name}: declared == cap must be accepted"
            );
            assert!(
                peek(&b, declared - 1).is_err(),
                "{name}: declared just above cap must be refused"
            );
        }

        // Header shorter than the envelope itself.
        for cut in 0..WIRE_HEADER_LEN {
            let err = WireHeader::parse(&bytes[..cut]).expect_err(name);
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "{name}: {cut}-byte input gave {err:?}"
            );
            let perr = peek(&bytes[..cut], u64::MAX).expect_err(name);
            assert!(
                matches!(perr, WireError::Truncated { .. }),
                "{name}: peek on {cut}-byte input gave {perr:?}"
            );
        }

        // A bare 16-byte header prefix: the full parser demands the
        // exact payload, but `peek` classifies it happily — that is its
        // whole purpose (routing from the first bytes off the socket).
        let (header, _) = WireHeader::parse(&bytes).expect(name);
        let peeked = peek(&bytes[..WIRE_HEADER_LEN], u64::MAX).expect(name);
        assert_eq!(peeked.family, header.family, "{name}: peek family");
        assert_eq!(
            peeked.payload_len,
            (bytes.len() - WIRE_HEADER_LEN) as u64,
            "{name}: peek payload_len"
        );
        if bytes.len() > WIRE_HEADER_LEN {
            assert!(
                WireHeader::parse(&bytes[..WIRE_HEADER_LEN]).is_err(),
                "{name}: full parse must still reject the bare prefix"
            );
        }
    }
}

/// Family dispatch: feeding a valid image of one family to another
/// family's decoder must fail with `FamilyMismatch`, never mis-decode.
#[test]
fn cross_family_decode_yields_family_mismatch() {
    let images = sample_images();
    let by_name = |n: &str| images.iter().find(|(m, _)| *m == n).unwrap().1.clone();
    let theta = by_name("theta");
    let hll = by_name("hll");

    let err = CompactThetaSketch::from_wire_bytes(&hll).unwrap_err();
    assert!(matches!(err, WireError::FamilyMismatch { .. }), "{err:?}");
    let err = HllSketch::from_wire_bytes(&theta).unwrap_err();
    assert!(matches!(err, WireError::FamilyMismatch { .. }), "{err:?}");
    let err = QuantilesLadder::<u64>::from_wire_bytes(&theta).unwrap_err();
    assert!(matches!(err, WireError::FamilyMismatch { .. }), "{err:?}");
    let err = MisraGriesSketch::<u64>::from_wire_bytes(&hll).unwrap_err();
    assert!(matches!(err, WireError::FamilyMismatch { .. }), "{err:?}");
}

/// An image whose *internal* count field is forged upward cannot pass
/// the exact-length rule, so no decoder pre-allocates from it. This
/// pins the pre-allocation guard: a 16-byte input claiming a huge
/// payload, and a valid-length payload claiming a huge element count,
/// both fail fast.
#[test]
fn forged_count_fields_cannot_drive_allocation() {
    // A bare header declaring a multi-exabyte payload.
    let mut hostile = Vec::with_capacity(WIRE_HEADER_LEN);
    hostile.extend_from_slice(b"FCDS");
    hostile.push(1); // version
    hostile.push(1); // theta family
    hostile.push(0); // flags
    hostile.push(8); // item width
    hostile.extend_from_slice(&u64::MAX.to_le_bytes());
    let err = WireHeader::parse(&hostile).unwrap_err();
    assert!(matches!(err, WireError::PayloadLength { .. }), "{err:?}");

    // A well-formed theta envelope whose in-payload count field is
    // forged to billions while the payload stays small: the per-family
    // size equation must reject it as an invariant violation.
    let mut s = QuickSelectThetaSketch::new(4, 1).unwrap();
    for i in 0..100u64 {
        s.update(i);
    }
    let mut bytes = s.compact().to_wire_bytes().to_vec();
    let count_off = WIRE_HEADER_LEN + 16; // after seed + theta
    bytes[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = CompactThetaSketch::from_wire_bytes(&bytes).unwrap_err();
    assert!(matches!(err, WireError::Invariant { .. }), "{err:?}");

    // Misra–Gries `k` is a capacity parameter, not a length, so a huge
    // forged value passes the size equation — the decoder must complete
    // without a giant eager allocation (the capacity hint is capped).
    let mut mg = MisraGriesSketch::<u64>::new(8).unwrap();
    for i in 0..1_000u64 {
        mg.update(i % 20);
    }
    let mut bytes = mg.to_wire_bytes().to_vec();
    bytes[WIRE_HEADER_LEN..WIRE_HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let decoded = MisraGriesSketch::<u64>::from_wire_bytes(&bytes).unwrap();
    assert_eq!(decoded.n(), mg.n());
}

/// The committed golden vectors (`tests/vectors/*.hex`: `#` comment
/// lines, then the image as hex), with their file stems.
fn golden_vectors() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/vectors");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("tests/vectors is committed") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "hex") {
            let text = std::fs::read_to_string(&path).unwrap();
            let hex: String = text.lines().filter(|l| !l.starts_with('#')).collect();
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
                .collect();
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            out.push((stem, bytes));
        }
    }
    out.sort();
    out
}

/// The flags byte is reserved in v1: every committed vector with any one
/// of its 8 bits set is refused by `peek`, by its family's view, by
/// `from_wire_bytes` and by its family's fan-in kernel — each with the
/// header's `Invariant`, before any payload byte is read.
#[test]
fn every_flag_bit_is_refused_on_every_golden_vector() {
    let vectors = golden_vectors();
    assert!(vectors.len() >= 20, "corpus too small: {}", vectors.len());
    for (stem, bytes) in vectors {
        let family = peek(&bytes, u64::MAX).expect(&stem).family;
        for bit in 0..8 {
            let mut forged = bytes.clone();
            forged[6] |= 1 << bit;
            let image = [forged.as_slice()];
            let mut results = vec![peek(&forged, u64::MAX).map(drop)];
            results.extend(match family {
                SketchFamily::Theta => [
                    ThetaWireView::parse(&forged).map(drop),
                    CompactThetaSketch::from_wire_bytes(&forged).map(drop),
                    theta_multiway_union(&image).map(drop),
                ],
                SketchFamily::Hll => [
                    HllWireView::parse(&forged).map(drop),
                    HllSketch::from_wire_bytes(&forged).map(drop),
                    hll_multiway_merge(&image).map(drop),
                ],
                SketchFamily::Quantiles => [
                    LadderWireView::<u64>::parse(&forged).map(drop),
                    QuantilesLadder::<u64>::from_wire_bytes(&forged).map(drop),
                    ladder_multiway_concat::<u64, _>(&image).map(drop),
                ],
                SketchFamily::Frequency => [
                    MgWireView::<u64>::parse(&forged).map(drop),
                    MisraGriesSketch::<u64>::from_wire_bytes(&forged).map(drop),
                    mg_multiway_merge::<u64, _>(&image).map(drop),
                ],
            });
            for (path, result) in ["peek", "view", "decoder", "kernel"].iter().zip(results) {
                assert!(
                    matches!(
                        result,
                        Err(WireError::Invariant {
                            context: "header flags",
                            ..
                        })
                    ),
                    "{stem}: flag bit {bit} through the {path} gave {result:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compact_theta_round_trips(
        n in 0u64..50_000,
        lg_k in 4u8..10,
        seed in 0u64..1_000,
    ) {
        let mut s = QuickSelectThetaSketch::new(lg_k, seed).unwrap();
        for i in 0..n {
            s.update(i);
        }
        let c = s.compact();
        let back = CompactThetaSketch::from_wire_bytes(&c.to_wire_bytes()).unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn hll_round_trips(
        n in 0u64..30_000,
        lg_m in 4u8..12,
        seed in 0u64..1_000,
    ) {
        let mut h = HllSketch::new(lg_m, seed).unwrap();
        for i in 0..n {
            h.update(i);
        }
        let back = HllSketch::from_wire_bytes(&h.to_wire_bytes()).unwrap();
        prop_assert_eq!(back, h);
    }

    /// Random single-byte corruption either fails decoding or decodes to
    /// a structurally valid sketch — never panics.
    #[test]
    fn corrupted_theta_never_panics(
        n in 100u64..5_000,
        flip_at in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let mut s = QuickSelectThetaSketch::new(5, 1).unwrap();
        for i in 0..n {
            s.update(i);
        }
        let mut bytes = s.compact().to_wire_bytes().to_vec();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        match CompactThetaSketch::from_wire_bytes(&bytes) {
            Err(_) => {}
            Ok(c) => {
                // If it decodes, its invariants must hold.
                let hashes = c.sorted_hashes();
                prop_assert!(hashes.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(hashes.iter().all(|&h| h < c.theta()));
            }
        }
    }

    #[test]
    fn corrupted_hll_never_panics(
        n in 100u64..5_000,
        flip_at in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let mut h = HllSketch::new(6, 1).unwrap();
        for i in 0..n {
            h.update(i);
        }
        let mut bytes = h.to_wire_bytes().to_vec();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = HllSketch::from_wire_bytes(&bytes); // must not panic
    }

    /// The ladder image (merge-tier form) round-trips bit-exactly and
    /// preserves every rank query.
    #[test]
    fn quantiles_ladder_round_trips(
        n in 0u64..20_000,
        k in 2usize..128,
        seed in 0u64..1_000,
    ) {
        let mut q = QuantilesSketch::<u64>::with_seed(k, seed).unwrap();
        for i in 0..n {
            q.update(i.wrapping_mul(0x9E37_79B9) % 10_000);
        }
        let ladder = q.ladder();
        let bytes = ladder.to_wire_bytes();
        let back = QuantilesLadder::<u64>::from_wire_bytes(&bytes).unwrap();
        prop_assert_eq!(back.n(), ladder.n());
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            prop_assert_eq!(back.quantile(phi), ladder.quantile(phi));
        }
        prop_assert_eq!(back.to_wire_bytes(), bytes);
    }

    /// Misra–Gries wire form round-trips bit-exactly and preserves
    /// every counter and the error bound.
    #[test]
    fn misra_gries_round_trips(
        n in 0u64..30_000,
        k in 1usize..128,
        modulus in 1u64..2_000,
    ) {
        let mut mg = MisraGriesSketch::<u64>::new(k).unwrap();
        for i in 0..n {
            mg.update(i % modulus);
        }
        let bytes = mg.to_wire_bytes();
        let back = MisraGriesSketch::<u64>::from_wire_bytes(&bytes).unwrap();
        prop_assert_eq!(back.n(), mg.n());
        prop_assert_eq!(back.max_error(), mg.max_error());
        for item in 0..modulus.min(64) {
            prop_assert_eq!(back.estimate(&item), mg.estimate(&item));
        }
        prop_assert_eq!(back.to_wire_bytes(), bytes);
    }

    /// Random corruption of the new wire forms never panics, and a
    /// mutated image that still decodes satisfies the family invariants.
    #[test]
    fn corrupted_ladder_and_mg_never_panic(
        n in 100u64..5_000,
        flip_at in 0usize..100_000,
        flip_bit in 0u8..8,
    ) {
        let mut q = QuantilesSketch::<u64>::with_seed(16, 1).unwrap();
        let mut mg = MisraGriesSketch::<u64>::new(8).unwrap();
        for i in 0..n {
            q.update(i);
            mg.update(i % 50);
        }
        let mut lb = q.ladder().to_wire_bytes().to_vec();
        let idx = flip_at % lb.len();
        lb[idx] ^= 1 << flip_bit;
        if let Ok(back) = QuantilesLadder::<u64>::from_wire_bytes(&lb) {
            // A surviving mutation must still be internally consistent:
            // re-encoding it round-trips through the decoder.
            let re = back.to_wire_bytes();
            prop_assert!(QuantilesLadder::<u64>::from_wire_bytes(&re).is_ok());
        }

        let mut mb = mg.to_wire_bytes().to_vec();
        let idx = flip_at % mb.len();
        mb[idx] ^= 1 << flip_bit;
        if let Ok(back) = MisraGriesSketch::<u64>::from_wire_bytes(&mb) {
            let re = back.to_wire_bytes();
            prop_assert!(MisraGriesSketch::<u64>::from_wire_bytes(&re).is_ok());
        }
    }
}
