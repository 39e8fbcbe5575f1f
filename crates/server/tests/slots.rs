//! Image-slot suite: what the server does with merged-in wire images,
//! through the public API only.
//!
//! A stream's state besides its live engine is a map of image slots in
//! three classes — boot-recovered, replica (replace-by-source) and
//! pushed (accumulating) — and every read of a stream with a slot is
//! one fan-in over the classes its consumer sees. This suite pins that: accumulate vs.
//! replace, which consumer sees which class across a restart, v1 frames
//! (ingest, merge, query) as sugar for the `default` Θ stream, the full
//! v1 query table, and that a NACKed frame never creates a stream.

use fcds_server::client::{Client, Reply};
use fcds_server::frame::{encode_stream_prefix, FrameType, NackCode, FLAG_STREAM};
use fcds_server::{serve, ServerConfig, ServerHandle, DEFAULT_STREAM};
use fcds_sketches::hash::DEFAULT_SEED;
use fcds_sketches::theta::QuickSelectThetaSketch;
use fcds_sketches::wire::{LadderWireView, MgWireView, SketchFamily, WireEncode};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

fn test_config() -> ServerConfig {
    ServerConfig {
        frame_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr(), CLIENT_TIMEOUT).expect("connect")
}

fn expect_ack(reply: Reply) {
    assert!(
        matches!(reply, Reply::Ack { .. }),
        "want Ack, got {reply:?}"
    );
}

fn stream_image(c: &mut Client, family: SketchFamily, key: &[u8]) -> Vec<u8> {
    match c.query_stream_image(family, key).unwrap() {
        Reply::Image { bytes, .. } => bytes,
        other => panic!("{family:?}/{key:?} image reply: {other:?}"),
    }
}

/// Total item count `n` of a Quantiles or Frequency stream's image.
fn stream_n(c: &mut Client, family: SketchFamily, key: &[u8]) -> u64 {
    let bytes = stream_image(c, family, key);
    match family {
        SketchFamily::Quantiles => LadderWireView::<u64>::parse(&bytes).unwrap().n(),
        SketchFamily::Frequency => MgWireView::<u64>::parse(&bytes).unwrap().n(),
        other => panic!("{other:?} has no exact n"),
    }
}

fn items_applied(handle: &ServerHandle, key: &[u8]) -> u64 {
    handle
        .list_streams()
        .into_iter()
        .find(|s| s.key == key)
        .map_or(0, |s| s.items)
}

/// Blocks until `key`'s applied-items counter reaches `want` (workers
/// flush after each batch, so from then on the live image holds them).
fn wait_applied(handle: &ServerHandle, key: &[u8], want: u64) {
    for _ in 0..250 {
        if items_applied(handle, key) == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "{key:?}: {} of {want} items applied",
        items_applied(handle, key)
    );
}

/// Ingests `items` into a quiescent keyed stream and blocks until they
/// have all been applied.
fn ingest_applied(
    handle: &ServerHandle,
    c: &mut Client,
    family: SketchFamily,
    key: &[u8],
    items: &[u64],
) {
    let want = items_applied(handle, key) + items.len() as u64;
    for chunk in items.chunks(500) {
        expect_ack(c.ingest_stream(family, key, chunk).unwrap());
    }
    wait_applied(handle, key, want);
}

/// A valid wire image of `family` holding `items`, minted by the server
/// itself (a scratch stream), so it is merge-compatible with every
/// other stream of that family on any server with the same config.
fn mint_image(
    handle: &ServerHandle,
    c: &mut Client,
    family: SketchFamily,
    items: &[u64],
) -> Vec<u8> {
    let key = format!("mint-{}-{}", family.code(), items[0]).into_bytes();
    ingest_applied(handle, c, family, &key, items);
    let image = stream_image(c, family, &key);
    assert!(handle.retire_stream(&key));
    image
}

#[test]
fn plain_merges_accumulate_and_source_merges_replace() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    // 900 copies of one heavy item plus 100 singletons.
    let items: Vec<u64> = (0..1_000u64)
        .map(|i| if i < 900 { 42 } else { i })
        .collect();
    for family in [SketchFamily::Quantiles, SketchFamily::Frequency] {
        let image = mint_image(&handle, &mut c, family, &items);

        // The same image twice with no source id: two pushed slots.
        expect_ack(c.merge_stream(family, b"accumulate", &image).unwrap());
        expect_ack(c.merge_stream(family, b"accumulate", &image).unwrap());
        assert_eq!(stream_n(&mut c, family, b"accumulate"), 2_000, "{family:?}");

        // The same image twice under one source id: one replica slot.
        expect_ack(c.merge_stream_from(family, b"replace", 7, &image).unwrap());
        let once = stream_image(&mut c, family, b"replace");
        expect_ack(c.merge_stream_from(family, b"replace", 7, &image).unwrap());
        assert_eq!(stream_image(&mut c, family, b"replace"), once, "{family:?}");
        assert_eq!(stream_n(&mut c, family, b"replace"), 1_000, "{family:?}");
        // A second source is a second slot.
        expect_ack(c.merge_stream_from(family, b"replace", 8, &image).unwrap());
        assert_eq!(stream_n(&mut c, family, b"replace"), 2_000, "{family:?}");

        if family == SketchFamily::Frequency {
            let heavy = |bytes: &[u8]| {
                MgWireView::<u64>::parse(bytes)
                    .unwrap()
                    .entries()
                    .find(|(item, _)| *item == 42)
                    .map(|(_, count)| count)
                    .expect("heavy item tracked")
            };
            let doubled = stream_image(&mut c, family, b"accumulate");
            assert_eq!(heavy(&doubled), 2 * heavy(&image), "counts add");
        }
        assert!(handle.retire_stream(b"accumulate"));
        assert!(handle.retire_stream(b"replace"));
    }
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn queries_see_every_slot_class_checkpoints_leave_replicas_out() {
    let dir = std::env::temp_dir().join(format!("fcds-slots-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval: Duration::from_millis(50),
        ..test_config()
    };
    let family = SketchFamily::Quantiles;
    let key = b"classes";
    {
        let handle = serve(durable()).expect("first life");
        let mut c = connect(&handle);
        let pushed = mint_image(&handle, &mut c, family, &(5_000..5_300).collect::<Vec<_>>());
        let replica = mint_image(&handle, &mut c, family, &(9_000..9_050).collect::<Vec<_>>());
        ingest_applied(
            &handle,
            &mut c,
            family,
            key,
            &(0..1_000).collect::<Vec<_>>(),
        );
        expect_ack(c.merge_stream(family, key, &pushed).unwrap());
        expect_ack(c.merge_stream_from(family, key, 3, &replica).unwrap());
        // A query fans in live ∪ pushed ∪ replica.
        assert_eq!(stream_n(&mut c, family, key), 1_350);
        drop(c);
        assert_eq!(handle.shutdown().leaked_threads, 0);
    }
    {
        // The snapshot held live ∪ pushed and not the replica slot (its
        // source would re-push it), and it now sits in the recovered
        // slot, which queries see.
        let handle = serve(durable()).expect("second life");
        assert_eq!(handle.recovery_outcome().expect("durable").quarantined, 0);
        let mut c = connect(&handle);
        assert_eq!(stream_n(&mut c, family, key), 1_300);
        ingest_applied(
            &handle,
            &mut c,
            family,
            key,
            &(1_000..1_200).collect::<Vec<_>>(),
        );
        assert_eq!(stream_n(&mut c, family, key), 1_500);
        drop(c);
        assert_eq!(handle.shutdown().leaked_threads, 0);
    }
    // The next checkpoint folded the recovered slot back in with the
    // new ingest.
    let handle = serve(durable()).expect("third life");
    let mut c = connect(&handle);
    assert_eq!(stream_n(&mut c, family, key), 1_500);
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_frames_are_sugar_for_the_default_theta_stream() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let theta = SketchFamily::Theta;
    // Half the items as v1 frames, half as v2 frames addressed to
    // (`default`, Θ): both are acked into the same stream.
    expect_ack(c.ingest(&(0..500).collect::<Vec<u64>>()).unwrap());
    let v2_half: Vec<u64> = (500..1_000).collect();
    expect_ack(c.ingest_stream(theta, DEFAULT_STREAM, &v2_half).unwrap());
    wait_applied(&handle, DEFAULT_STREAM, 1_000);
    let streams = handle.list_streams();
    assert_eq!(streams.len(), 1, "no second stream: {streams:?}");
    assert_eq!(streams[0].items, 1_000);

    let (v1, v2) = (
        c.query_estimate(0).unwrap(),
        c.query_stream_estimate(theta, DEFAULT_STREAM).unwrap(),
    );
    match (v1, v2) {
        (Reply::Estimate { value: a, .. }, Reply::Estimate { value: b, .. }) => {
            assert_eq!(a.to_bits(), b.to_bits());
            assert!((a - 1_000.0).abs() < 1.0, "exact-mode estimate {a}");
        }
        other => panic!("estimate replies: {other:?}"),
    }
    let (v1, v2) = (
        c.query_image(0).unwrap(),
        c.query_stream_image(theta, DEFAULT_STREAM).unwrap(),
    );
    match (v1, v2) {
        (Reply::Image { bytes: a, .. }, Reply::Image { bytes: b, .. }) => assert_eq!(a, b),
        other => panic!("image replies: {other:?}"),
    }
    handle.shutdown();
}

/// `default`'s estimate asked three ways — v2, v1 family 0, v1 family
/// 1 — which must agree bit for bit.
fn default_estimate(c: &mut Client) -> f64 {
    let replies = [
        c.query_stream_estimate(SketchFamily::Theta, DEFAULT_STREAM)
            .unwrap(),
        c.query_estimate(0).unwrap(),
        c.query_estimate(1).unwrap(),
    ];
    let bits: Vec<u64> = replies
        .iter()
        .map(|reply| match reply {
            Reply::Estimate { value, .. } => value.to_bits(),
            other => panic!("estimate reply: {other:?}"),
        })
        .collect();
    assert!(bits.iter().all(|b| *b == bits[0]), "{replies:?}");
    f64::from_bits(bits[0])
}

#[test]
fn v1_merges_land_in_the_default_stream() {
    let dir = std::env::temp_dir().join(format!("fcds-v1-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    };
    let mut sketch = QuickSelectThetaSketch::new(12, DEFAULT_SEED).unwrap();
    for i in 500..1_000u64 {
        sketch.update(i);
    }
    let image = sketch.compact().to_wire_bytes();
    {
        let handle = serve(durable()).expect("first life");
        let mut c = connect(&handle);
        expect_ack(c.ingest(&(0..500).collect::<Vec<u64>>()).unwrap());
        wait_applied(&handle, DEFAULT_STREAM, 500);
        expect_ack(c.merge(&image).unwrap());
        let estimate = default_estimate(&mut c);
        assert!(
            (estimate - 1_000.0).abs() < 1.0,
            "live ∪ merged: {estimate}"
        );
        drop(c);
        assert_eq!(handle.shutdown().leaked_threads, 0);
    }
    // The merge is a pushed slot of `default`, so it was checkpointed.
    let handle = serve(durable()).expect("second life");
    let mut c = connect(&handle);
    let estimate = default_estimate(&mut c);
    assert!((estimate - 1_000.0).abs() < 1.0, "recovered: {estimate}");
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a v1 query must come back as.
#[derive(Debug, PartialEq)]
enum Expect {
    Estimate,
    Image,
    Nack(NackCode),
}

fn classify(reply: Reply) -> Expect {
    match reply {
        Reply::Estimate { .. } => Expect::Estimate,
        Reply::Image { .. } => Expect::Image,
        Reply::Nack { code, .. } => Expect::Nack(code),
        other => panic!("not a query reply: {other:?}"),
    }
}

#[test]
fn every_v1_kind_family_pair_answers_as_before() {
    use Expect::{Estimate, Image, Nack};
    use NackCode::{FamilyMismatch, Malformed};
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    // A v1 query `[kind, f]` is a query of (`default`, `f`), with 0 an
    // alias for Θ. `default` is a Θ stream with a live engine, so it is
    // never empty, and any other family is `FamilyMismatch`, as it is
    // for a v2 query.
    let table = [
        (0, 0, Estimate),
        (0, 1, Estimate),
        (0, 2, Nack(FamilyMismatch)),
        (0, 3, Nack(FamilyMismatch)),
        (0, 4, Nack(FamilyMismatch)),
        (0, 5, Nack(Malformed)),
        (1, 0, Image),
        (1, 1, Image),
        (1, 2, Nack(FamilyMismatch)),
        (1, 3, Nack(FamilyMismatch)),
        (1, 4, Nack(FamilyMismatch)),
        (1, 5, Nack(Malformed)),
        (2, 0, Nack(Malformed)),
        (2, 1, Nack(Malformed)),
        (2, 3, Nack(Malformed)),
        (2, 5, Nack(Malformed)),
    ];
    let mut run = |when: &str| {
        for (kind, family, want) in &table {
            c.send_frame(FrameType::Query, &[*kind, *family]).unwrap();
            let reply = c.read_reply().unwrap();
            assert_eq!(classify(reply), *want, "({kind}, {family}) {when}");
        }
    };
    run("at start");
    // A v1 merge is a merge into (`default`, Θ): a Θ image lands there,
    // any other family is refused and creates nothing.
    let mut c2 = connect(&handle);
    for family in FAMILIES {
        let image = mint_image(&handle, &mut c2, family, &(0..300).collect::<Vec<_>>());
        let reply = c2.merge(&image).unwrap();
        match family {
            SketchFamily::Theta => expect_ack(reply),
            _ => assert_eq!(reply.nack_code(), Some(FamilyMismatch), "{family:?}"),
        }
    }
    let keys: Vec<_> = handle.list_streams().into_iter().map(|s| s.key).collect();
    assert_eq!(keys, [DEFAULT_STREAM.to_vec()], "only the default stream");
    run("after one merge per family");
    handle.shutdown();
}

#[test]
fn a_rejected_frame_creates_no_stream() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let theta_image = mint_image(
        &handle,
        &mut c,
        SketchFamily::Theta,
        &(0..100).collect::<Vec<_>>(),
    );
    let created = handle.stats().streams_created;

    // Garbage where the envelope should be.
    let reply = c
        .merge_stream(SketchFamily::Theta, b"fresh-garbage", &[0xAB; 40])
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Wire));
    // A valid envelope of a family other than the one the frame declares.
    let reply = c
        .merge_stream(SketchFamily::Hll, b"fresh-mismatch", &theta_image)
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::FamilyMismatch));
    // An ingest body that is not a whole number of u64 items.
    let ragged = encode_stream_prefix(SketchFamily::Hll, b"fresh-ragged", None, &[1; 7]);
    c.send_frame_flags(FrameType::Ingest, FLAG_STREAM, &ragged)
        .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    let keys: Vec<_> = handle.list_streams().into_iter().map(|s| s.key).collect();
    assert_eq!(keys, [DEFAULT_STREAM.to_vec()], "only the default stream");
    assert_eq!(handle.stats().streams_created, created);
    // The keys are still free for a well-formed first use, any family.
    expect_ack(
        c.merge_stream(SketchFamily::Theta, b"fresh-mismatch", &theta_image)
            .unwrap(),
    );
    handle.shutdown();
}
