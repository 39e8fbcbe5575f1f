//! Multi-stream registry suite: v2 stream-addressed frames end to end.
//!
//! Covers the PR's acceptance surface over real TCP: eight named
//! streams across all four families on one server, registry lifecycle
//! races (concurrent create-on-first-ingest, ingest-during-retire,
//! query-during-drain), hostile v2 frames (oversized
//! key, bad family code, truncated prefixes, misplaced flags, v1/v2
//! mixing on one connection), and two-server replica-sync convergence,
//! including the refill of a peer that restarted empty.

use fcds_server::client::{Client, Reply};
use fcds_server::frame::{
    encode_frame_flags, FrameType, NackCode, FLAG_REPLACE, FLAG_STREAM, MAX_STREAM_KEY,
};
use fcds_server::{serve, ServerConfig, ServerHandle};
use fcds_sketches::wire::{peek, LadderWireView, MgWireView, SketchFamily};
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

fn stream_key(i: usize) -> Vec<u8> {
    format!("stream-{i}").into_bytes()
}

/// Drives `items` into a keyed stream and waits until the stream's
/// fanned-in state reflects them (workers flush after every batch, so
/// this converges within a few poll rounds).
fn ingest_all(c: &mut Client, family: SketchFamily, key: &[u8], items: &[u64]) {
    for chunk in items.chunks(500) {
        let reply = c.ingest_stream(family, key, chunk).unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "ingest: {reply:?}");
    }
}

/// The distinct-count (Θ/HLL) or total item count (Q/F) a server holds
/// for a keyed stream, via the family's natural query; `None` when it
/// answers otherwise (e.g. `UnknownStream` before a replica's first
/// push).
fn count_of(c: &mut Client, family: SketchFamily, key: &[u8]) -> Option<f64> {
    let reply = match family {
        SketchFamily::Theta | SketchFamily::Hll => c.query_stream_estimate(family, key),
        SketchFamily::Quantiles | SketchFamily::Frequency => c.query_stream_image(family, key),
    };
    match (family, reply.unwrap()) {
        (_, Reply::Estimate { value, .. }) => Some(value),
        (SketchFamily::Quantiles, Reply::Image { bytes, .. }) => {
            Some(LadderWireView::<u64>::parse(&bytes).unwrap().n() as f64)
        }
        (_, Reply::Image { bytes, .. }) => {
            Some(MgWireView::<u64>::parse(&bytes).unwrap().n() as f64)
        }
        _ => None,
    }
}

/// [`count_of`] a stream the server must hold.
fn observed_count(c: &mut Client, family: SketchFamily, key: &[u8]) -> f64 {
    count_of(c, family, key).unwrap_or_else(|| panic!("{family:?}/{key:?}: no count"))
}

/// Polls a replica peer until its count of each of the four
/// `stream_key(i)` streams is within 8 % of `expect`, allowing a few
/// sync periods of slack for scheduling (and a backed-off reconnect).
fn await_peer(peer: &ServerHandle, expect: f64) {
    let mut c = connect(peer);
    for (i, family) in FAMILIES.iter().enumerate() {
        let mut last = None;
        for _ in 0..250 {
            last = count_of(&mut c, *family, &stream_key(i));
            if last.is_some_and(|n| (n - expect).abs() / expect <= 0.08) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let converged = last.is_some_and(|n| (n - expect).abs() / expect <= 0.08);
        assert!(
            converged,
            "{family:?}/{i}: peer saw {last:?}, want ~{expect}"
        );
    }
}

/// Polls until `observed_count` is within `tol` of `expect` (the worker
/// queues are asynchronous) — panics after ~2 s.
fn wait_for_count(c: &mut Client, family: SketchFamily, key: &[u8], expect: f64, tol: f64) -> f64 {
    let mut got = 0.0;
    for _ in 0..100 {
        got = observed_count(c, family, key);
        if (got - expect).abs() / expect <= tol {
            return got;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{family:?}/{key:?}: observed {got}, want within {tol} of {expect}");
}

#[test]
fn eight_streams_across_four_families_on_one_server() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let per_stream = 10_000u64;
    for i in 0..8 {
        let family = FAMILIES[i % 4];
        let base = i as u64 * per_stream;
        let items: Vec<u64> = (base..base + per_stream).collect();
        ingest_all(&mut c, family, &stream_key(i), &items);
    }
    for i in 0..8 {
        let family = FAMILIES[i % 4];
        wait_for_count(&mut c, family, &stream_key(i), per_stream as f64, 0.1);
    }
    // The registry sees 8 named streams + the default stream.
    let streams = handle.list_streams();
    assert_eq!(streams.len(), 9);
    // v1 frames on the same connection still hit the default Θ stream.
    assert!(matches!(c.ingest(&[1, 2, 3]).unwrap(), Reply::Ack { .. }));
    let report = handle.shutdown();
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.streams_created, 9);
}

#[test]
fn concurrent_create_of_same_key_yields_one_stream() {
    let handle = serve(test_config()).unwrap();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let mut c = connect(&handle);
            std::thread::spawn(move || {
                let items: Vec<u64> = (t * 1000..(t + 1) * 1000).collect();
                let reply = c
                    .ingest_stream(SketchFamily::Hll, b"contended", &items)
                    .unwrap();
                assert!(matches!(reply, Reply::Ack { .. }), "{reply:?}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = connect(&handle);
    wait_for_count(&mut c, SketchFamily::Hll, b"contended", 8_000.0, 0.1);
    // Exactly one stream materialised for the key, and every ACKed batch
    // lands in its counter. The estimate converging above does not imply
    // the last queued batch was applied yet (estimator variance can
    // cover for it), so poll the counter, not just the estimate.
    let created = |handle: &ServerHandle| {
        handle
            .list_streams()
            .into_iter()
            .filter(|s| s.key == b"contended")
            .collect::<Vec<_>>()
    };
    let mut streams = created(&handle);
    for _ in 0..100 {
        if streams.len() == 1 && streams[0].items == 8_000 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        streams = created(&handle);
    }
    assert_eq!(streams.len(), 1);
    assert_eq!(streams[0].items, 8_000);
    let report = handle.shutdown();
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.streams_created, 2); // default + contended
}

#[test]
fn family_mismatch_and_unknown_stream_are_typed_nacks() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    assert!(matches!(
        c.ingest_stream(SketchFamily::Theta, b"fixed", &[1, 2, 3])
            .unwrap(),
        Reply::Ack { .. }
    ));
    // Same key, different family: rejected, stream untouched.
    let reply = c
        .ingest_stream(SketchFamily::Quantiles, b"fixed", &[4, 5])
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::FamilyMismatch));
    let reply = c
        .query_stream_estimate(SketchFamily::Hll, b"fixed")
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::FamilyMismatch));
    // Queries never create streams.
    let reply = c
        .query_stream_estimate(SketchFamily::Theta, b"never-made")
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::UnknownStream));
    assert!(handle.list_streams().iter().all(|s| s.key != b"never-made"));
    handle.shutdown();
}

#[test]
fn retire_then_reingest_creates_a_fresh_stream() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    ingest_all(
        &mut c,
        SketchFamily::Theta,
        b"cycled",
        &(0..5_000u64).collect::<Vec<_>>(),
    );
    wait_for_count(&mut c, SketchFamily::Theta, b"cycled", 5_000.0, 0.1);
    assert!(handle.retire_stream(b"cycled"));
    assert!(!handle.retire_stream(b"cycled"), "already gone");
    assert!(!handle.retire_stream(b"default"), "default not retirable");
    // The key is free again — and may even change family.
    let reply = c
        .ingest_stream(SketchFamily::Frequency, b"cycled", &[7, 7, 7])
        .unwrap();
    assert!(matches!(reply, Reply::Ack { .. }));
    wait_for_count(&mut c, SketchFamily::Frequency, b"cycled", 3.0, 0.01);
    let report = handle.shutdown();
    assert_eq!(report.stats.streams_retired, 1);
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.flush_errors, 0);
}

#[test]
fn ingest_racing_retire_never_hangs_or_panics() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    assert!(matches!(
        c.ingest_stream(SketchFamily::Hll, b"doomed", &[1]).unwrap(),
        Reply::Ack { .. }
    ));
    let writer = std::thread::spawn(move || {
        // Every reply must be a typed Ack/Nack — never a hang, never a
        // dropped connection.
        for i in 0..200u64 {
            let reply = c.ingest_stream(SketchFamily::Hll, b"doomed", &[i]).unwrap();
            assert!(
                matches!(reply, Reply::Ack { .. } | Reply::Nack { .. }),
                "{reply:?}"
            );
        }
    });
    std::thread::sleep(Duration::from_millis(5));
    handle.retire_stream(b"doomed");
    writer.join().unwrap();
    let report = handle.shutdown();
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.conn_panics, 0);
}

#[test]
fn queries_still_served_during_drain() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    ingest_all(
        &mut c,
        SketchFamily::Theta,
        b"readable",
        &(0..5_000u64).collect::<Vec<_>>(),
    );
    wait_for_count(&mut c, SketchFamily::Theta, b"readable", 5_000.0, 0.1);
    // Client-requested drain: ingest stops, queries keep working.
    assert!(matches!(c.request_shutdown().unwrap(), Reply::Ack { .. }));
    let reply = c
        .ingest_stream(SketchFamily::Theta, b"readable", &[9])
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Draining));
    match c
        .query_stream_estimate(SketchFamily::Theta, b"readable")
        .unwrap()
    {
        Reply::Estimate { value, .. } => {
            assert!((value - 5_000.0).abs() / 5_000.0 < 0.1, "estimate {value}")
        }
        other => panic!("query during drain: {other:?}"),
    }
    handle.shutdown();
}

/// The served path adds no relaxation of its own: an `Ack` is produced
/// after `ingest_batch` + `flush` on the connection's own writer, so on
/// one connection every acked item is already in the queried image.
#[test]
fn ack_means_applied() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let mut acked = 0u64;
    for chunk in (0..6_000u64).collect::<Vec<_>>().chunks(250) {
        let reply = c
            .ingest_stream(SketchFamily::Quantiles, b"exact", chunk)
            .unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "ingest: {reply:?}");
        acked += chunk.len() as u64;
        let n = observed_count(&mut c, SketchFamily::Quantiles, b"exact");
        assert_eq!(n, acked as f64, "an acked item is missing from the image");
    }
    let report = handle.shutdown();
    assert_eq!(report.stats.ingest_items, acked);
    assert_eq!(report.leaked_threads, 0);
}

/// Connection threads are the update threads: a named stream declares
/// one writer, eight connections ingest into it at once, and a drain
/// with all eight still connected loses nothing they were acked for.
#[test]
fn more_writers_than_declared_drain_loses_nothing() {
    let dir = std::env::temp_dir().join(format!("fcds-writers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    };
    let handle = serve(cfg.clone()).unwrap();
    let start = std::sync::Barrier::new(8);
    let per_conn = 4_000u64;
    // Each thread hands its connection back still open.
    let clients: Vec<(Client, u64)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let mut c = connect(&handle);
                let start = &start;
                s.spawn(move || {
                    let items: Vec<u64> = (t * per_conn..(t + 1) * per_conn).collect();
                    let mut acked = 0u64;
                    start.wait();
                    for chunk in items.chunks(100) {
                        let reply = c
                            .ingest_stream(SketchFamily::Quantiles, b"shared", chunk)
                            .unwrap();
                        assert!(matches!(reply, Reply::Ack { .. }), "ingest: {reply:?}");
                        acked += chunk.len() as u64;
                    }
                    (c, acked)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let acked: u64 = clients.iter().map(|(_, n)| n).sum();
    assert_eq!(acked, 8 * per_conn);

    let report = handle.shutdown();
    assert_eq!(report.stats.ingest_items, acked);
    assert_eq!(report.stats.flush_errors, 0);
    assert_eq!(report.leaked_threads, 0);
    drop(clients);

    // The final checkpoint holds every acked item.
    let handle = serve(cfg).unwrap();
    let mut c = connect(&handle);
    let n = observed_count(&mut c, SketchFamily::Quantiles, b"shared");
    assert_eq!(n, acked as f64);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_v2_frames_are_typed_and_survivable() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);

    // Oversized key: klen byte > MAX_STREAM_KEY (prefix codec bound).
    let mut payload = vec![SketchFamily::Theta.code(), (MAX_STREAM_KEY + 1) as u8];
    payload.extend_from_slice(&[b'k'; MAX_STREAM_KEY + 1]);
    c.send_raw(&encode_frame_flags(
        FrameType::Ingest,
        FLAG_STREAM,
        1,
        &payload,
    ))
    .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    // Bad family code in the prefix.
    c.send_raw(&encode_frame_flags(
        FrameType::Ingest,
        FLAG_STREAM,
        2,
        &[0x09, 1, b'a'],
    ))
    .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    // Truncated prefix (klen runs past the payload).
    c.send_raw(&encode_frame_flags(
        FrameType::Ingest,
        FLAG_STREAM,
        3,
        &[SketchFamily::Hll.code(), 10, b'a'],
    ))
    .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    // REPLACE without STREAM is a header-level violation (kept open).
    c.send_raw(&encode_frame_flags(FrameType::Merge, FLAG_REPLACE, 4, b""))
        .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    // STREAM flag on a Ping.
    c.send_raw(&encode_frame_flags(FrameType::Ping, FLAG_STREAM, 5, b""))
        .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    // Undefined flag bit.
    c.send_raw(&encode_frame_flags(FrameType::Ingest, 0x40, 6, b""))
        .unwrap();
    assert_eq!(
        c.read_reply().unwrap().nack_code(),
        Some(NackCode::Malformed)
    );

    // The connection survived all of it: v1 and v2 work interleaved.
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert!(matches!(c.ingest(&[1, 2]).unwrap(), Reply::Ack { .. }));
    assert!(matches!(
        c.ingest_stream(SketchFamily::Theta, b"mixed", &[3, 4])
            .unwrap(),
        Reply::Ack { .. }
    ));
    assert!(matches!(c.ingest(&[5]).unwrap(), Reply::Ack { .. }));
    let report = handle.shutdown();
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.conn_panics, 0);
}

/// Two real servers: A ingests, A's replica pusher ships every stream's
/// image to B, and B's per-stream fan-in converges on A's state within
/// one sync period.
#[test]
fn replica_sync_converges_across_two_servers() {
    let b = serve(test_config()).unwrap();
    let a = serve(ServerConfig {
        replica_peer: Some(b.local_addr().to_string()),
        replica_interval: Duration::from_millis(100),
        replica_source_id: 7,
        ..test_config()
    })
    .unwrap();

    let mut ca = connect(&a);
    let per_stream = 20_000u64;
    for (i, family) in FAMILIES.iter().enumerate() {
        let base = i as u64 * per_stream;
        let items: Vec<u64> = (base..base + per_stream).collect();
        ingest_all(&mut ca, *family, &stream_key(i), &items);
    }
    for (i, family) in FAMILIES.iter().enumerate() {
        wait_for_count(&mut ca, *family, &stream_key(i), per_stream as f64, 0.1);
    }

    // B must materialise all four streams (create-on-first-merge) and
    // converge within the family's error envelope.
    await_peer(&b, per_stream as f64);

    // Re-pushes replaced (not accumulated) the source slot: the image
    // query of a Frequency stream still decodes and its n stayed ~one
    // stream's worth, proving idempotence for a non-idempotent family.
    let mut cb = connect(&b);
    match cb
        .query_stream_image(SketchFamily::Frequency, &stream_key(3))
        .unwrap()
    {
        Reply::Image { bytes, .. } => {
            let peeked = peek(&bytes, u64::MAX).unwrap();
            assert_eq!(peeked.family, SketchFamily::Frequency);
        }
        other => panic!("image: {other:?}"),
    }

    let ra = a.shutdown();
    assert!(ra.stats.replica_pushes > 0, "pusher never delivered");
    let rb = b.shutdown();
    assert_eq!(rb.leaked_threads, 0);
    assert!(rb.stats.merges_accepted > 0);
}

/// A peer without a data dir comes back empty from a restart. The
/// source, idle since its ingest, refills it anyway: an idle round
/// pings, which is how the source notices the old connection died, and
/// it re-pushes every stream when it reconnects.
#[test]
fn a_restarted_peer_is_refilled_without_new_ingest() {
    let b = serve(test_config()).unwrap();
    let peer_addr = b.local_addr();
    let a = serve(ServerConfig {
        replica_peer: Some(peer_addr.to_string()),
        replica_interval: Duration::from_millis(50),
        replica_source_id: 7,
        ..test_config()
    })
    .unwrap();
    let per_stream = 5_000u64;
    let mut ca = connect(&a);
    for (i, family) in FAMILIES.iter().enumerate() {
        let base = i as u64 * per_stream;
        let items: Vec<u64> = (base..base + per_stream).collect();
        ingest_all(&mut ca, *family, &stream_key(i), &items);
    }
    drop(ca);
    await_peer(&b, per_stream as f64);
    assert_eq!(b.shutdown().leaked_threads, 0);

    let b = serve(ServerConfig {
        addr: peer_addr.to_string(),
        ..test_config()
    })
    .unwrap();
    await_peer(&b, per_stream as f64);
    let ra = a.shutdown();
    assert_eq!(
        ra.stats.ingest_items,
        4 * per_stream,
        "no ingest after the restart"
    );
    assert_eq!(ra.leaked_threads + b.shutdown().leaked_threads, 0);
}
