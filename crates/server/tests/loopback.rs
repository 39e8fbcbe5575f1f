//! End-to-end loopback tests: a real server on 127.0.0.1, real TCP
//! clients, the full frame protocol. This is the CI smoke test for the
//! network tier's happy paths and graceful drain; its headline fault
//! story (ingest panic → the stream's fault latch → the server serves
//! on) needs a faulty engine and is `fcds-load`'s `engine_faults`.

use fcds_server::client::{Client, Reply};
use fcds_server::frame::{FrameType, NackCode};
use fcds_server::{serve, stream_relaxation, ServerConfig, DEFAULT_STREAM};
use fcds_sketches::hash::DEFAULT_SEED;
use fcds_sketches::wire::{peek, SketchFamily, WireEncode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn test_config() -> ServerConfig {
    ServerConfig {
        frame_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn connect(handle: &fcds_server::ServerHandle) -> Client {
    Client::connect(handle.local_addr(), CLIENT_TIMEOUT).expect("connect")
}

#[test]
fn ping_pong_roundtrip() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let reply = c.ping().unwrap();
    assert!(matches!(reply, Reply::Pong { .. }));
    let report = handle.shutdown();
    assert_eq!(report.leaked_threads, 0);
}

#[test]
fn ingest_from_two_clients_reaches_the_live_engine() {
    let handle = serve(test_config()).unwrap();
    let n_per_client = 20_000u64;
    let mut c1 = connect(&handle);
    let mut c2 = connect(&handle);
    // Disjoint ranges from two connections, batched.
    for chunk in (0..n_per_client).collect::<Vec<_>>().chunks(500) {
        assert!(matches!(c1.ingest(chunk).unwrap(), Reply::Ack { .. }));
    }
    for chunk in (n_per_client..2 * n_per_client)
        .collect::<Vec<_>>()
        .chunks(500)
    {
        assert!(matches!(c2.ingest(chunk).unwrap(), Reply::Ack { .. }));
    }
    // Workers flush after every batch, so once the queues drain the
    // estimate must reflect every acked item. Poll briefly for the
    // queues to empty.
    let expect = (2 * n_per_client) as f64;
    let mut estimate = 0.0;
    for _ in 0..100 {
        match c1.query_estimate(0).unwrap() {
            Reply::Estimate { value, .. } => estimate = value,
            other => panic!("unexpected reply: {other:?}"),
        }
        if (estimate - expect).abs() / expect < 0.05 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        (estimate - expect).abs() / expect < 0.05,
        "estimate {estimate} should be within 5% of {expect}"
    );
    let report = handle.shutdown();
    assert_eq!(report.stats.ingest_items, 2 * n_per_client);
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.worker_panics, 0);
}

/// Theorem 1 through the socket. While one connection ingests into
/// `default`, every estimate a second connection reads lies between the
/// items acked before the query was sent, less the stream's relaxation
/// `r = 2Nb`, and the items sent before its reply came back. 3 000
/// distinct items keep Θ in exact mode, where the estimate is the
/// number of items the answer includes.
#[test]
fn served_estimates_stay_inside_the_relaxation_window() {
    let cfg = test_config();
    // One connection ingests.
    let r = stream_relaxation(&cfg, DEFAULT_STREAM, 1);
    let handle = serve(cfg).unwrap();
    let addr = handle.local_addr();
    let (sent, acked, done) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
    // Both connections are up before the first item is sent.
    let start = Barrier::new(2);
    let answers = std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Client::connect(addr, CLIENT_TIMEOUT).expect("connect");
            start.wait();
            for chunk in (0..3_000u64).collect::<Vec<_>>().chunks(16) {
                sent.fetch_add(chunk.len() as u64, Ordering::SeqCst);
                assert!(matches!(c.ingest(chunk).unwrap(), Reply::Ack { .. }));
                acked.fetch_add(chunk.len() as u64, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut q = Client::connect(addr, CLIENT_TIMEOUT).expect("connect");
        start.wait();
        let mut answers = 0;
        loop {
            // Read before the query, so the last one sees every ack.
            let finished = done.load(Ordering::SeqCst);
            let lo = acked.load(Ordering::SeqCst).saturating_sub(r);
            let value = match q.query_estimate(0).unwrap() {
                Reply::Estimate { value, .. } => value,
                other => panic!("unexpected reply: {other:?}"),
            };
            let hi = sent.load(Ordering::SeqCst);
            assert!(
                lo as f64 <= value && value <= hi as f64,
                "estimate {value} outside [{lo}, {hi}] (r = {r})"
            );
            answers += 1;
            if finished {
                return answers;
            }
        }
    });
    assert!(answers > 1, "{answers} answers");
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn empty_ingest_is_acked() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    assert!(matches!(c.ingest(&[]).unwrap(), Reply::Ack { .. }));
    handle.shutdown();
}

#[test]
fn merge_store_accepts_and_fans_in_wire_images() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);

    // Two Θ images over disjoint ranges, built locally with the
    // server's seed: a v1 merge goes into the `default` stream.
    let mut s1 = fcds_sketches::theta::QuickSelectThetaSketch::new(12, DEFAULT_SEED).unwrap();
    let mut s2 = fcds_sketches::theta::QuickSelectThetaSketch::new(12, DEFAULT_SEED).unwrap();
    for i in 0..30_000u64 {
        s1.update(i);
        s2.update(i + 30_000);
    }
    let img1 = s1.compact().to_wire_bytes();
    let img2 = s2.compact().to_wire_bytes();
    assert!(matches!(c.merge(&img1).unwrap(), Reply::Ack { .. }));
    assert!(matches!(c.merge(&img2).unwrap(), Reply::Ack { .. }));

    // The union estimate covers both.
    match c.query_estimate(SketchFamily::Theta.code()).unwrap() {
        Reply::Estimate { value, .. } => {
            assert!(
                (value - 60_000.0).abs() / 60_000.0 < 0.05,
                "union estimate {value} should be near 60000"
            );
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    // And the merged image is itself a valid Θ envelope.
    match c.query_image(SketchFamily::Theta.code()).unwrap() {
        Reply::Image { bytes, .. } => {
            let peeked = peek(&bytes, u64::MAX).unwrap();
            assert_eq!(peeked.family, SketchFamily::Theta);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn estimate_query_on_unsupported_family_gets_typed_nack() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let quantiles = SketchFamily::Quantiles;
    let reply = c.ingest_stream(quantiles, b"latency", &[1, 2, 3]).unwrap();
    assert!(matches!(reply, Reply::Ack { .. }));
    let reply = c.query_stream_estimate(quantiles, b"latency").unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Unsupported));
    // The connection stays usable.
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    handle.shutdown();
}

#[test]
fn slow_client_is_cut_off_at_the_frame_deadline() {
    let cfg = ServerConfig {
        frame_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = serve(cfg).unwrap();
    let mut c = connect(&handle);
    // Send a frame header declaring 64 payload bytes, then stall.
    let full = fcds_server::frame::encode_frame(FrameType::Ingest, 9, &[0u8; 64]);
    c.send_raw(&full[..20]).unwrap();
    // The server must NACK Timeout (best effort) and close.
    match c.read_reply() {
        Ok(reply) => assert_eq!(reply.nack_code(), Some(NackCode::Timeout)),
        // Closing without the courtesy NACK is also within contract.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
    }
    let report = handle.shutdown();
    assert_eq!(report.stats.read_timeouts, 1);
    assert_eq!(report.leaked_threads, 0);
}

#[test]
fn shutdown_frame_flips_drain_and_refuses_new_ingest() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    assert!(matches!(c.ingest(&[1, 2, 3]).unwrap(), Reply::Ack { .. }));
    assert!(matches!(c.request_shutdown().unwrap(), Reply::Ack { .. }));
    assert!(handle.drain_requested());
    // Ingest and merge are now refused with Draining; queries still work.
    assert_eq!(
        c.ingest(&[4]).unwrap().nack_code(),
        Some(NackCode::Draining)
    );
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    let report = handle.shutdown();
    assert_eq!(report.stats.ingest_items, 3);
    assert_eq!(report.stats.flush_errors, 0);
    assert_eq!(report.leaked_threads, 0);
}

#[test]
fn drain_flushes_all_acked_items_into_the_final_estimate() {
    let handle = serve(test_config()).unwrap();
    let mut c = connect(&handle);
    let mut acked = 0u64;
    for chunk in (0..10_000u64).collect::<Vec<_>>().chunks(250) {
        if matches!(c.ingest(chunk).unwrap(), Reply::Ack { .. }) {
            acked += chunk.len() as u64;
        }
    }
    let report = handle.shutdown();
    assert_eq!(report.stats.flush_errors, 0);
    assert_eq!(report.stats.ingest_items, acked);
    let expect = acked as f64;
    assert!(
        (report.final_estimate - expect).abs() / expect < 0.05,
        "final estimate {} should cover all {acked} acked items",
        report.final_estimate
    );
    assert_eq!(report.leaked_threads, 0);
}
