//! Hostile-frame suite: every malformed input the frame layer claims to
//! reject, sent over a real connection, asserting the typed NACK and
//! the documented connection disposition — and, above all, that the
//! server survives every one of them.
//!
//! The contract under test (see `frame::HeaderError`):
//!
//! | attack                    | NACK code        | connection |
//! |---------------------------|------------------|------------|
//! | wrong magic               | `Malformed`      | closed     |
//! | unknown/server-side type  | `Malformed`      | open       |
//! | non-zero flags            | `Malformed`      | open       |
//! | oversized declared length | `PayloadTooLarge`| closed     |
//! | corrupted payload         | `Checksum`       | open       |
//! | ingest len % 8 != 0       | `Malformed`      | open       |
//! | invalid merge envelope    | `Wire`           | open       |
//! | truncated frame + stall   | `Timeout`        | closed     |
//!
//! Frames that arrive together in one read are answered one by one, in
//! order, whatever each of them turns out to be.

use fcds_server::client::{connect_tcp, Client, Reply};
use fcds_server::frame::{encode_frame, FrameType, NackCode, FRAME_HEADER_LEN};
use fcds_server::{serve, ServerConfig, ServerHandle, DEFAULT_STREAM};
use fcds_sketches::hash::DEFAULT_SEED;
use fcds_sketches::wire::{SketchFamily, WireEncode};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn hostile_config() -> ServerConfig {
    ServerConfig {
        max_frame_payload: 64 * 1024,
        frame_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr(), CLIENT_TIMEOUT).expect("connect")
}

/// Asserts the server is still alive and fully functional by running a
/// fresh request on a fresh connection.
fn assert_server_alive(handle: &ServerHandle) {
    let mut probe = connect(handle);
    assert!(
        matches!(probe.ping().unwrap(), Reply::Pong { .. }),
        "server must answer a fresh connection after hostile input"
    );
}

/// Reads until EOF, asserting the connection was actually closed.
fn assert_closed(c: &mut Client) {
    match c.read_reply() {
        Err(e) => assert!(
            e.kind() == ErrorKind::UnexpectedEof
                || e.kind() == ErrorKind::ConnectionReset
                || e.kind() == ErrorKind::ConnectionAborted,
            "expected closed connection, got {e:?}"
        ),
        Ok(r) => panic!("expected closed connection, got reply {r:?}"),
    }
}

#[test]
fn bad_magic_nacks_malformed_and_closes() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let mut frame = encode_frame(FrameType::Ping, 1, &[]);
    frame[0..4].copy_from_slice(b"EVIL");
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Malformed));
    assert_closed(&mut c);
    assert_server_alive(&handle);
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn unknown_type_nacks_malformed_and_stays_open() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let mut frame = encode_frame(FrameType::Ping, 2, b"xx");
    frame[4] = 0x3F; // no such type
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Malformed));
    // Framing stayed intact (payload was skipped): the connection works.
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn server_side_type_from_client_is_rejected() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    // An Ack is a server→client frame; a client sending one is a
    // protocol violation (caught by the direction check).
    let frame = encode_frame(FrameType::Ack, 3, &[]);
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Malformed));
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn nonzero_flags_nack_malformed_and_stay_open() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let mut frame = encode_frame(FrameType::Ping, 4, &[]);
    frame[5] = 0x80;
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Malformed));
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn oversized_length_prefix_nacks_and_closes_without_allocating() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    // Declare 3 GiB. The server must reject from the header alone —
    // if it tried to buffer the declared length first, this test would
    // OOM/stall rather than NACK promptly.
    let mut frame = encode_frame(FrameType::Ingest, 5, &[]);
    frame[8..12].copy_from_slice(&(3u32 << 30).to_le_bytes());
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::PayloadTooLarge));
    assert_closed(&mut c);
    assert_server_alive(&handle);
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn bit_flipped_payload_nacks_checksum_and_stays_open() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let payload: Vec<u8> = 1u64.to_le_bytes().to_vec();
    let mut frame = encode_frame(FrameType::Ingest, 6, &payload);
    frame[FRAME_HEADER_LEN] ^= 0x01; // flip one payload bit post-checksum
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Checksum));
    // The corrupted item must NOT have been ingested: estimates come
    // from acked items only (live engine is empty → estimate 0).
    match c.query_estimate(0).unwrap() {
        Reply::Estimate { value, .. } => assert_eq!(value, 0.0),
        other => panic!("unexpected reply: {other:?}"),
    }
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn ragged_ingest_payload_nacks_malformed() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let frame = encode_frame(FrameType::Ingest, 7, &[0u8; 13]); // 13 % 8 != 0
    c.send_raw(&frame).unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Malformed));
    assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn hostile_merge_envelopes_nack_wire_and_never_enter_the_store() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);

    // A valid Θ image to mutate, with the server's seed: v1 merges go
    // into the `default` stream.
    let mut s = fcds_sketches::theta::QuickSelectThetaSketch::new(10, DEFAULT_SEED).unwrap();
    for i in 0..5_000u64 {
        s.update(i);
    }
    let good = s.compact().to_wire_bytes().as_ref().to_vec();

    // (a) Truncated at every envelope boundary that fits in a frame:
    // header cut short, payload cut short, payload overlong.
    for cut in [0, 1, 8, 15, 16, good.len() - 1] {
        let reply = c.merge(&good[..cut]).unwrap();
        assert_eq!(
            reply.nack_code(),
            Some(NackCode::Wire),
            "truncation at {cut} must be a Wire NACK"
        );
    }
    let mut overlong = good.clone();
    overlong.push(0);
    assert_eq!(
        c.merge(&overlong).unwrap().nack_code(),
        Some(NackCode::Wire)
    );

    // (b) Corrupted envelope magic.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(
        c.merge(&bad_magic).unwrap().nack_code(),
        Some(NackCode::Wire)
    );

    // (c) Cross-family confusion: header claims HLL, payload is Θ.
    let mut cross = good.clone();
    cross[5] = 2; // SketchFamily::Hll code
    assert_eq!(c.merge(&cross).unwrap().nack_code(), Some(NackCode::Wire));

    // (d) Absurd declared envelope payload length.
    let mut absurd = good.clone();
    absurd[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(c.merge(&absurd).unwrap().nack_code(), Some(NackCode::Wire));

    // None of the rejects entered `default`: nothing was ingested, so
    // its estimate is still zero...
    match c.query_estimate(0).unwrap() {
        Reply::Estimate { value, .. } => assert_eq!(value, 0.0),
        other => panic!("unexpected reply: {other:?}"),
    }
    // ...and after one good merge the estimate reflects only it.
    assert!(matches!(c.merge(&good).unwrap(), Reply::Ack { .. }));
    match c.query_estimate(1).unwrap() {
        Reply::Estimate { value, .. } => {
            assert!(
                (value - 5_000.0).abs() / 5_000.0 < 0.1,
                "estimate {value} should reflect only the one good image"
            );
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn mid_frame_disconnect_leaves_server_healthy() {
    let handle = serve(hostile_config()).unwrap();
    for cut in [1, 4, 8, FRAME_HEADER_LEN - 1, FRAME_HEADER_LEN + 3] {
        let mut c = connect(&handle);
        let frame = encode_frame(FrameType::Ingest, 8, &[0u8; 64]);
        c.send_raw(&frame[..cut.min(frame.len())]).unwrap();
        drop(c); // sever mid-frame
    }
    assert_server_alive(&handle);
    let report = handle.shutdown();
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.stats.conns_opened, report.stats.conns_closed);
}

#[test]
fn interleaved_garbage_after_valid_frames_is_contained() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    // Valid ingest, then garbage. The garbage fails the magic check and
    // the connection closes — but the acked work must have landed.
    assert!(matches!(
        c.ingest(&[10, 20, 30]).unwrap(),
        Reply::Ack { .. }
    ));
    c.send_raw(b"\xDE\xAD\xBE\xEF garbage garbage garbage")
        .unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.nack_code(), Some(NackCode::Malformed));
    assert_closed(&mut c);
    // Fresh connection sees the acked items.
    let mut c2 = connect(&handle);
    let mut landed = 0.0;
    for _ in 0..100 {
        match c2.query_estimate(0).unwrap() {
            Reply::Estimate { value, .. } => landed = value,
            other => panic!("unexpected reply: {other:?}"),
        }
        if landed == 3.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(landed, 3.0, "acked items must survive a later bad frame");
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let mut volley = encode_frame(FrameType::Ingest, 1, &7u64.to_le_bytes());
    volley.extend_from_slice(&encode_frame(FrameType::Ping, 2, &[]));
    volley.extend_from_slice(&encode_frame(FrameType::Query, 3, &[0, 0]));
    c.send_raw(&volley).unwrap();
    assert!(matches!(c.read_reply().unwrap(), Reply::Ack { seq: 1 }));
    assert!(matches!(c.read_reply().unwrap(), Reply::Pong { seq: 2 }));
    match c.read_reply().unwrap() {
        Reply::Estimate { seq: 3, value } => assert_eq!(value, 1.0),
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn a_partial_frame_behind_a_valid_one_times_out_from_its_arrival() {
    // The valid frame and the start of the next arrive in one write, so
    // the server reads them together: the stalled frame's deadline must
    // start at that read, not wait for a read that never comes.
    let cfg = hostile_config();
    let deadline = cfg.frame_deadline;
    let handle = serve(cfg).unwrap();
    let mut c = connect(&handle);
    let mut bytes = encode_frame(FrameType::Ingest, 1, &7u64.to_le_bytes());
    bytes.extend_from_slice(&encode_frame(FrameType::Ingest, 2, &[0u8; 64])[..20]);
    let sent = std::time::Instant::now();
    c.send_raw(&bytes).unwrap();
    assert!(matches!(c.read_reply().unwrap(), Reply::Ack { seq: 1 }));
    let reply = c.read_reply().unwrap();
    let waited = sent.elapsed();
    assert!(
        matches!(
            reply,
            Reply::Nack {
                seq: 2,
                code: NackCode::Timeout,
                ..
            }
        ),
        "{reply:?}"
    );
    assert!(
        waited >= deadline,
        "cut off after {waited:?}, before the deadline"
    );
    assert!(
        waited < deadline + Duration::from_secs(2),
        "cut off after {waited:?}"
    );
    assert_closed(&mut c);
    let report = handle.shutdown();
    assert_eq!(report.stats.read_timeouts, 1);
    assert_eq!(report.leaked_threads, 0);
}

#[test]
fn a_bad_flags_frame_and_a_valid_one_in_one_write_get_nack_then_ack() {
    let handle = serve(hostile_config()).unwrap();
    let mut c = connect(&handle);
    let mut bytes = encode_frame(FrameType::Ingest, 1, &[0xAB; 40]);
    bytes[5] = 0x80;
    bytes.extend_from_slice(&encode_frame(FrameType::Ingest, 2, &9u64.to_le_bytes()));
    c.send_raw(&bytes).unwrap();
    let reply = c.read_reply().unwrap();
    assert!(
        matches!(
            reply,
            Reply::Nack {
                seq: 1,
                code: NackCode::Malformed,
                ..
            }
        ),
        "{reply:?}"
    );
    assert!(matches!(c.read_reply().unwrap(), Reply::Ack { seq: 2 }));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn a_volley_of_hostile_frames_never_kills_the_server() {
    // Throw every attack in sequence at one server instance; it must
    // answer a clean request afterwards with zero connection panics.
    let handle = serve(hostile_config()).unwrap();
    let attacks: Vec<Vec<u8>> = vec![
        b"EVIL".to_vec(),
        vec![0u8; FRAME_HEADER_LEN],
        {
            let mut f = encode_frame(FrameType::Ping, 1, &[]);
            f[4] = 0x7F;
            f
        },
        {
            let mut f = encode_frame(FrameType::Merge, 2, b"not an envelope");
            f[FRAME_HEADER_LEN + 2] ^= 0xFF;
            f
        },
        {
            let mut f = encode_frame(FrameType::Ingest, 3, &[]);
            f[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            f
        },
    ];
    for attack in attacks {
        let mut c = connect(&handle);
        let _ = c.send_raw(&attack);
        let _ = c.read_reply(); // NACK or close, both fine
    }
    assert_server_alive(&handle);
    let report = handle.shutdown();
    assert_eq!(
        report.stats.conn_panics, 0,
        "no connection thread may panic"
    );
    assert_eq!(report.stats.worker_panics, 0);
    assert_eq!(report.leaked_threads, 0);
}

/// A connection that splits every write into pieces at seeded offsets
/// and pauses about 1 ms between them, so the server's reads see a
/// frame in as many fragments as the pieces arrive in. Reads pass
/// through.
struct Splitting {
    stream: TcpStream,
    /// [`xorshift`] state.
    rng: u64,
}

/// One step of xorshift64 (`state` must be non-zero).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Read for Splitting {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for Splitting {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while !rest.is_empty() {
            // Pieces of 1 byte up to 128, so splits land inside the
            // header, at its end and deep in the payload.
            let cap = 1usize << (xorshift(&mut self.rng) % 8);
            let piece = 1 + (xorshift(&mut self.rng) as usize) % cap.min(rest.len());
            self.stream.write_all(&rest[..piece])?;
            rest = &rest[piece..];
            if !rest.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// The streams the split-write mix addresses: the default stream over
/// v1 frames, and one v2 stream per family.
const SPLIT_TARGETS: [(Option<SketchFamily>, &[u8]); 5] = [
    (None, DEFAULT_STREAM),
    (Some(SketchFamily::Theta), b"split-theta"),
    (Some(SketchFamily::Hll), b"split-hll"),
    (Some(SketchFamily::Quantiles), b"split-quantiles"),
    (Some(SketchFamily::Frequency), b"split-frequency"),
];

/// One request of the mix: ingest `items` into, or (with no items)
/// query the image of, target `t`.
fn split_request<S: Read + Write>(c: &mut Client<S>, t: usize, items: &[u64]) -> Reply {
    let reply = match (SPLIT_TARGETS[t], items.is_empty()) {
        ((None, _), false) => c.ingest(items),
        ((None, _), true) => c.query_image(0),
        ((Some(family), key), false) => c.ingest_stream(family, key, items),
        ((Some(family), key), true) => c.query_stream_image(family, key),
    };
    reply.expect("request over a healthy connection")
}

#[test]
fn replies_do_not_depend_on_how_writes_are_split() {
    // Replayable: the shim has no shrinking, so a failure names its
    // seed, and `FCDS_SPLIT_SEED` re-runs it alone.
    let seeds: Vec<u64> = match std::env::var("FCDS_SPLIT_SEED") {
        Ok(seed) => vec![seed.parse().expect("FCDS_SPLIT_SEED is a u64")],
        Err(_) => vec![0x5EED_0001, 0x5EED_0002],
    };
    let cfg = ServerConfig {
        ingest_workers: 1,
        ..ServerConfig::default()
    };
    for seed in seeds {
        println!("split-write mix: seed {seed}");
        let (split_server, twin) = (serve(cfg.clone()).unwrap(), serve(cfg.clone()).unwrap());
        let stream = connect_tcp(split_server.local_addr(), CLIENT_TIMEOUT).unwrap();
        let mut split = Client::new(Splitting {
            stream,
            rng: seed | 1,
        });
        let mut whole = connect(&twin);
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || xorshift(&mut rng);
        // One ingest creates each stream, then 40 seeded requests (a
        // third of them image queries), then every stream's final image.
        let mut request = |i: usize| {
            let t = if i < SPLIT_TARGETS.len() {
                i
            } else {
                (next() % 5) as usize
            };
            let len = if i >= SPLIT_TARGETS.len() && next() % 3 == 0 {
                0
            } else {
                1 + next() % 40
            };
            let first = next() % 10_000;
            (t, (first..first + len).collect::<Vec<u64>>())
        };
        for i in 0..SPLIT_TARGETS.len() + 40 {
            let (t, items) = request(i);
            let got = split_request(&mut split, t, &items);
            let want = split_request(&mut whole, t, &items);
            assert_eq!(
                got,
                want,
                "seed {seed}: request {i} (target {t}, {} items)",
                items.len()
            );
        }
        for t in 0..SPLIT_TARGETS.len() {
            let got = split_request(&mut split, t, &[]);
            assert!(
                matches!(got, Reply::Image { .. }),
                "seed {seed}: final read of {t}"
            );
            assert_eq!(
                got,
                split_request(&mut whole, t, &[]),
                "seed {seed}: final image of {t}"
            );
        }
        for server in [split_server, twin] {
            let report = server.shutdown();
            assert_eq!((report.stats.conn_panics, report.leaked_threads), (0, 0));
        }
    }
}
