//! Engine faults over a real connection: the server runs every stream
//! engine through `fcds_load::faulty_engine`, so a planted item panics
//! the ingest it is in or fails its flush. Either must NACK that frame
//! with a typed error, latch that stream's ingest shut, leave every
//! other stream and the server itself serving, and count only what was
//! acked.

use fcds_load::{faulty_engine, FAMILIES, FLUSH_FAIL_ITEM, POISON_ITEM};
use fcds_server::client::{Client, Reply};
use fcds_server::frame::NackCode;
use fcds_server::{serve_with, Seams, ServerConfig, ServerHandle};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn test_config() -> ServerConfig {
    ServerConfig {
        frame_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

/// A server whose stream engines fail on the planted items.
fn serve_faulty(cfg: ServerConfig) -> ServerHandle {
    let seams = Seams {
        engine: faulty_engine,
        ..Seams::default()
    };
    serve_with(cfg, seams).unwrap()
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr(), CLIENT_TIMEOUT).expect("connect")
}

fn stream_key(i: usize) -> Vec<u8> {
    format!("stream-{i}").into_bytes()
}

#[test]
fn ingest_panic_latches_its_stream_and_the_server_survives() {
    // A poisoned item panics the ingest it is in. The server must
    // refuse that frame and every later ingest on the stream with a
    // typed error, keep serving queries, and never hang or crash.
    let cfg = ServerConfig {
        ingest_workers: 1,
        ..test_config()
    };
    let handle = serve_faulty(cfg);
    let mut c = connect(&handle);
    assert!(matches!(c.ingest(&[1, 2, 3]).unwrap(), Reply::Ack { .. }));

    // The poison batch is never applied, so it is never acked.
    assert_eq!(
        c.ingest(&[POISON_ITEM]).unwrap().nack_code(),
        Some(NackCode::Internal)
    );
    // The stream's ingest is latched shut from here on.
    assert_eq!(
        c.ingest(&[7]).unwrap().nack_code(),
        Some(NackCode::Internal)
    );

    // Queries still served; the connection and server survived.
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert!(handle.is_degraded());

    let report = handle.shutdown();
    assert_eq!(report.stats.worker_panics, 1);
    // Σ acked = applied: only the first batch was acked.
    assert_eq!(report.stats.ingest_items, 3);
    // A refusal is always a typed NACK, never a silent drop.
    assert!(report.stats.nacks >= report.stats.sheds);
    assert_eq!(report.leaked_threads, 0);
}

/// Plants `fault` in stream 0 of four after one acked item each, and
/// checks that stream 0 alone refuses ingest from then on. Returns the
/// drain report and the items acked.
fn latch_one_stream_of_four(fault: u64) -> (fcds_server::DrainReport, u64) {
    let handle = serve_faulty(test_config());
    let mut c = connect(&handle);
    let mut acked = 0u64;
    for i in 0..4 {
        let reply = c
            .ingest_stream(FAMILIES[i % 4], &stream_key(i), &[i as u64])
            .unwrap();
        assert!(matches!(reply, Reply::Ack { .. }));
        acked += 1;
    }
    // Fault stream 0: the batch is never applied, so it is never
    // acked, and the stream's ingest is latched shut from here on.
    let reply = c
        .ingest_stream(FAMILIES[0], &stream_key(0), &[fault])
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Internal));
    let reply = c
        .ingest_stream(FAMILIES[0], &stream_key(0), &[1, 2, 3])
        .unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Internal));
    assert!(handle.is_degraded());
    // Isolation: every *other* stream still ACKs everything.
    for i in 1..4 {
        for _ in 0..10 {
            let reply = c
                .ingest_stream(FAMILIES[i % 4], &stream_key(i), &[42])
                .unwrap();
            assert!(
                matches!(reply, Reply::Ack { .. }),
                "stream {i} was hit by stream 0's fault: {reply:?}"
            );
            acked += 1;
        }
    }
    (handle.shutdown(), acked)
}

#[test]
fn poisoned_stream_never_nacks_its_neighbours() {
    let (report, acked) = latch_one_stream_of_four(POISON_ITEM);
    assert_eq!(report.stats.worker_panics, 1);
    assert_eq!(report.stats.ingest_items, acked);
    // A refusal is always a typed NACK, never a silent drop.
    assert!(report.stats.nacks >= report.stats.sheds);
    assert_eq!(report.leaked_threads, 0);
}

#[test]
fn a_failed_flush_latches_its_stream_and_counts_once() {
    let (report, acked) = latch_one_stream_of_four(FLUSH_FAIL_ITEM);
    assert_eq!(report.stats.flush_errors, 1);
    assert_eq!(report.stats.worker_panics, 0);
    assert_eq!(report.stats.ingest_items, acked);
    assert!(report.stats.nacks >= report.stats.sheds);
    assert_eq!(report.leaked_threads, 0);
}
