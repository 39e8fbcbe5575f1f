//! The merge gate: an `Ack`ed merge never makes a later read of its
//! stream fail. An image the decoders reject (bad items behind a sound
//! frame, a nonzero reserved flags byte) or one that cannot fan in with
//! the stream's own (another seed) gets `Nack(Wire)` and never enters a
//! slot.

use fcds_server::client::{Client, Reply};
use fcds_server::frame::NackCode;
use fcds_server::{serve, ServerConfig};
use fcds_sketches::theta::QuickSelectThetaSketch;
use fcds_sketches::wire::{SketchFamily, WireEncode, WIRE_HEADER_LEN};
use std::time::Duration;

fn connect(handle: &fcds_server::ServerHandle) -> Client {
    Client::connect(handle.local_addr(), Duration::from_secs(5)).expect("connect")
}

/// Ingests `0..1000` into `key` and returns the stream's image.
fn stream_image(c: &mut Client, family: SketchFamily, key: &[u8]) -> Vec<u8> {
    let items: Vec<u64> = (0..1_000).collect();
    let reply = c.ingest_stream(family, key, &items).unwrap();
    assert!(matches!(reply, Reply::Ack { .. }), "{reply:?}");
    match c.query_stream_image(family, key).unwrap() {
        Reply::Image { bytes, .. } => bytes,
        other => panic!("{family:?} image reply: {other:?}"),
    }
}

/// `image` is refused and `key`'s estimate query still answers.
fn refused(c: &mut Client, family: SketchFamily, key: &[u8], image: &[u8]) {
    let reply = c.merge_stream(family, key, image).unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Wire), "{reply:?}");
    let reply = c.query_stream_estimate(family, key).unwrap();
    assert!(matches!(reply, Reply::Estimate { .. }), "{reply:?}");
}

#[test]
fn images_with_bad_items_are_nacked_and_the_stream_keeps_answering() {
    let handle = serve(ServerConfig::default()).unwrap();
    let mut c = connect(&handle);

    // Θ with its last two hashes swapped: sound frame, unsorted items.
    let mut theta = stream_image(&mut c, SketchFamily::Theta, b"theta");
    let len = theta.len();
    for i in 0..8 {
        theta.swap(len - 16 + i, len - 8 + i);
    }
    refused(&mut c, SketchFamily::Theta, b"theta", &theta);

    // HLL at lg_m 12 with one register at 60, above the max rank 53.
    let mut hll = stream_image(&mut c, SketchFamily::Hll, b"hll");
    assert_eq!(hll[WIRE_HEADER_LEN], 12, "the server's lg_m");
    *hll.last_mut().unwrap() = 60;
    refused(&mut c, SketchFamily::Hll, b"hll", &hll);
    assert_eq!(handle.stats().merges_accepted, 0);
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn images_with_forged_flags_are_nacked_and_create_no_stream() {
    let handle = serve(ServerConfig::default()).unwrap();
    let mut c = connect(&handle);
    // Per family, flag bits it never defined; v1 reserves the whole byte.
    let cases = [
        (SketchFamily::Theta, b"theta".as_slice(), 0x40u8),
        (SketchFamily::Hll, b"hll", 0xF0),
        (SketchFamily::Quantiles, b"quantiles", 0x02),
        (SketchFamily::Frequency, b"frequency", 0x80),
    ];
    let images: Vec<Vec<u8>> = cases
        .iter()
        .map(|&(family, key, _)| stream_image(&mut c, family, key))
        .collect();
    let created = handle.stats().streams_created;
    for (&(family, key, flags), mut image) in cases.iter().zip(images) {
        image[6] = flags;
        for target in [key, b"fresh"] {
            let reply = c.merge_stream(family, target, &image).unwrap();
            assert_eq!(
                reply.nack_code(),
                Some(NackCode::Wire),
                "{family:?}: {reply:?}"
            );
        }
        // The target still answers: Θ and HLL an estimate, all an image.
        if matches!(family, SketchFamily::Theta | SketchFamily::Hll) {
            let reply = c.query_stream_estimate(family, key).unwrap();
            assert!(matches!(reply, Reply::Estimate { .. }), "{reply:?}");
        }
        let reply = c.query_stream_image(family, key).unwrap();
        assert!(matches!(reply, Reply::Image { .. }), "{reply:?}");
    }
    assert_eq!(handle.stats().streams_created, created);
    assert_eq!(handle.stats().merges_accepted, 0);
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn images_that_cannot_fan_in_are_nacked_and_create_no_stream() {
    let handle = serve(ServerConfig::default()).unwrap();
    let mut c = connect(&handle);
    let mut s = QuickSelectThetaSketch::new(12, 0).unwrap();
    for i in 0..1_000u64 {
        s.update(i);
    }
    let seed0 = s.compact().to_wire_bytes();

    // A v2 stream's images must share its engine's seed.
    let own = stream_image(&mut c, SketchFamily::Theta, b"theta");
    refused(&mut c, SketchFamily::Theta, b"theta", &seed0);
    // Refused before the key is resolved: a fresh key stays free.
    let created = handle.stats().streams_created;
    let reply = c
        .merge_stream(SketchFamily::Theta, b"fresh", &seed0)
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Wire), "{reply:?}");
    assert_eq!(handle.stats().streams_created, created);

    // A v1 merge goes to the `default` stream, so it must share that
    // stream's seed: the server's.
    assert_eq!(c.merge(&seed0).unwrap().nack_code(), Some(NackCode::Wire));
    assert!(matches!(c.merge(&own).unwrap(), Reply::Ack { .. }));
    assert!(matches!(
        c.query_estimate(1).unwrap(),
        Reply::Estimate { .. }
    ));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}
