//! Durability-tier suite: snapshot encode/decode totality, crash-shaped
//! filesystem states, boot-time recovery, quarantine semantics, and the
//! replica pusher's backoff from a dead peer.
//!
//! The adversarial core is exhaustive, not sampled: *every* byte-boundary
//! truncation and *every* single-byte mutation of a real snapshot record
//! must come back as a typed [`RecoverError`] — never a panic, never an
//! accepted record — and a torn staging write at *every* prefix length
//! must leave the previous committed snapshot readable (the
//! write-to-temp + atomic-rename contract: old or new, never a blend).

use fcds_server::client::{Client, Reply};
use fcds_server::frame::NackCode;
use fcds_server::persist::{
    encode_record, snapshot_file_name, DirStore, FsyncPolicy, SnapshotStore, QUARANTINE_SUFFIX,
    SNAP_SUFFIX, TMP_SUFFIX,
};
use fcds_server::recover::{decode_record, RecoverError};
use fcds_server::{serve, serve_with, Seams, ServeError, ServerConfig, ServerHandle};
use fcds_sketches::wire::{LadderWireView, MgWireView, SketchFamily};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty scratch directory unique to this test process.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fcds-persist-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval: Duration::from_millis(40),
        fsync_policy: FsyncPolicy::Never,
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr(), CLIENT_TIMEOUT).expect("connect")
}

fn ingest_all(c: &mut Client, family: SketchFamily, key: &[u8], items: &[u64]) {
    for chunk in items.chunks(500) {
        let reply = c.ingest_stream(family, key, chunk).unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "ingest: {reply:?}");
    }
}

/// The observed distinct-count (Θ/HLL) or total item count (Q/F) for a
/// keyed stream, via the family's natural query.
fn observed_count(c: &mut Client, family: SketchFamily, key: &[u8]) -> f64 {
    match family {
        SketchFamily::Theta | SketchFamily::Hll => {
            match c.query_stream_estimate(family, key).unwrap() {
                Reply::Estimate { value, .. } => value,
                other => panic!("estimate reply: {other:?}"),
            }
        }
        SketchFamily::Quantiles | SketchFamily::Frequency => {
            match c.query_stream_image(family, key).unwrap() {
                Reply::Image { bytes, .. } => match family {
                    SketchFamily::Quantiles => {
                        LadderWireView::<u64>::parse(&bytes).expect("ladder").n() as f64
                    }
                    _ => MgWireView::<u64>::parse(&bytes).expect("mg").n() as f64,
                },
                other => panic!("image reply: {other:?}"),
            }
        }
    }
}

/// One committed snapshot record produced by the real pipeline: boot a
/// durable server, ingest, drain (the graceful final checkpoint), read
/// the record back off disk.
fn committed_record(dir: &std::path::Path, key: &[u8], items: u64) -> Vec<u8> {
    let handle = serve(durable_config(dir)).expect("serve");
    let mut c = connect(&handle);
    let data: Vec<u64> = (0..items).collect();
    ingest_all(&mut c, SketchFamily::Theta, key, &data);
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    let path = dir.join(snapshot_file_name(key));
    std::fs::read(&path).expect("read committed snapshot")
}

#[test]
fn committed_record_roundtrips_exactly() {
    let dir = tmp_dir("roundtrip");
    let bytes = committed_record(&dir, b"alpha", 1_000);
    let rec = decode_record(&bytes).expect("valid record decodes");
    assert_eq!(rec.family, SketchFamily::Theta);
    assert_eq!(rec.key, b"alpha");
    assert_eq!(rec.seq, 1_000);
    // Re-encoding the decoded fields reproduces the on-disk bytes —
    // the encoder and decoder agree on every field and the CRC.
    let reencoded = encode_record(rec.family, &rec.key, rec.seq, &rec.image);
    assert_eq!(reencoded, bytes);
    assert_eq!(snapshot_file_name(&rec.key), snapshot_file_name(b"alpha"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_boundary_is_a_typed_error() {
    let dir = tmp_dir("truncate");
    let bytes = committed_record(&dir, b"trunc", 500);
    assert!(decode_record(&bytes).is_ok());
    for len in 0..bytes.len() {
        let res = decode_record(&bytes[..len]);
        assert!(
            res.is_err(),
            "a {len}-byte prefix of a {}-byte record must not decode",
            bytes.len()
        );
        // The error is typed and printable — no panics, no opaque slots.
        let _ = res.unwrap_err().to_string();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_mutation_is_a_typed_error() {
    let dir = tmp_dir("mutate");
    let bytes = committed_record(&dir, b"mutate", 500);
    assert!(decode_record(&bytes).is_ok());
    // The CRC covers bytes [0..24] ++ key ++ image and is itself stored
    // at [24..28], so no single-byte change anywhere can survive: it
    // either trips an earlier structural check or the CRC.
    for offset in 0..bytes.len() {
        for flip in [0xFFu8, 0x01] {
            let mut doctored = bytes.clone();
            doctored[offset] ^= flip;
            let res = decode_record(&doctored);
            assert!(
                res.is_err(),
                "byte {offset} ^ {flip:#04x} must not decode: {res:?}"
            );
            let _ = res.unwrap_err().to_string();
        }
    }
    // Appended garbage is a length mismatch, not a trailing-ignored pass.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(matches!(
        decode_record(&extended),
        Err(RecoverError::LengthMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_staging_write_never_touches_the_committed_snapshot() {
    let dir = tmp_dir("torn");
    let donor_dir = tmp_dir("torn-donor");
    let donor = committed_record(&donor_dir, b"torn", 300);
    let image = decode_record(&donor).unwrap().image;
    let _ = std::fs::remove_dir_all(&donor_dir);

    let store = DirStore::new(&dir).expect("open store");
    let name = snapshot_file_name(b"torn");
    let old = encode_record(SketchFamily::Theta, b"torn", 7, &image);
    store.put(&name, &old, false).expect("commit old snapshot");

    // A kill mid-checkpoint leaves a partial staging file at an
    // arbitrary length. Simulate every such length: the next boot must
    // discard the staging file and serve the committed record untouched.
    let new = encode_record(SketchFamily::Theta, b"torn", 9, &image);
    for len in 0..new.len() {
        let staging = dir.join(format!("{name}{TMP_SUFFIX}"));
        std::fs::write(&staging, &new[..len]).expect("plant torn staging file");
        let reopened = DirStore::new(&dir).expect("reopen store");
        assert!(!staging.exists(), "stale staging file must be removed");
        let got = reopened.get(&name).expect("committed snapshot readable");
        assert_eq!(got, old, "torn write at {len} bytes altered the snapshot");
        assert_eq!(reopened.list().unwrap(), vec![name.clone()]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`SnapshotStore`] whose writes fail on demand (disk-full shape).
struct FailingStore {
    inner: DirStore,
    fail: AtomicBool,
}

impl SnapshotStore for FailingStore {
    fn put(&self, name: &str, bytes: &[u8], fsync_file: bool) -> io::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        self.inner.put(name, bytes, fsync_file)
    }
    fn sync_dir(&self) -> io::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_dir()
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.get(name)
    }
    fn quarantine(&self, name: &str) -> io::Result<()> {
        self.inner.quarantine(name)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[test]
fn failing_store_is_counted_and_never_fatal() {
    let dir = tmp_dir("enospc");
    let store = Arc::new(FailingStore {
        inner: DirStore::new(&dir).expect("open store"),
        fail: AtomicBool::new(true),
    });
    let cfg = ServerConfig {
        snapshot_interval: Duration::from_millis(20),
        fsync_policy: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let seams = Seams {
        store: Some(store.clone() as Arc<dyn SnapshotStore>),
        ..Seams::default()
    };
    let handle = serve_with(cfg, seams).expect("serve with failing store");
    let mut c = connect(&handle);
    let data: Vec<u64> = (0..2_000).collect();
    ingest_all(&mut c, SketchFamily::Theta, b"doomed", &data);

    // The checkpointer keeps trying, keeps failing, and the server
    // keeps serving the whole time.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().snapshot_errors == 0 {
        assert!(Instant::now() < deadline, "no snapshot error counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let count = observed_count(&mut c, SketchFamily::Theta, b"doomed");
    assert!((count - 2_000.0).abs() / 2_000.0 < 0.05, "count {count}");

    // Once the disk heals, the checkpointer commits without a restart.
    store.fail.store(false, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().snapshots_written == 0 {
        assert!(Instant::now() < deadline, "no snapshot after heal");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    assert!(dir.join(snapshot_file_name(b"doomed")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_restart_recovers_every_family_exactly() {
    let dir = tmp_dir("restart");
    let per_stream = 3_000u64;
    {
        let handle = serve(durable_config(&dir)).expect("serve first life");
        let mut c = connect(&handle);
        for (i, family) in FAMILIES.iter().enumerate() {
            let key = format!("life-{i}").into_bytes();
            let data: Vec<u64> = (0..per_stream).map(|v| v + i as u64 * per_stream).collect();
            ingest_all(&mut c, *family, &key, &data);
        }
        // The v1 default stream is durable too.
        let reply = c.ingest(&(0..500u64).collect::<Vec<_>>()).unwrap();
        assert!(matches!(reply, Reply::Ack { .. }));
        drop(c);
        let drain = handle.shutdown();
        assert_eq!(drain.leaked_threads, 0);
    }

    let handle = serve(durable_config(&dir)).expect("serve second life");
    let outcome = handle.recovery_outcome().expect("durable tier recovers");
    assert_eq!(
        outcome.recovered, 5,
        "4 keyed streams + default: {outcome:?}"
    );
    assert_eq!(outcome.quarantined, 0);
    assert_eq!(handle.stats().streams_recovered, 5);

    let mut c = connect(&handle);
    for (i, family) in FAMILIES.iter().enumerate() {
        let key = format!("life-{i}").into_bytes();
        let got = observed_count(&mut c, *family, &key);
        let relerr = (got - per_stream as f64).abs() / per_stream as f64;
        // A graceful drain checkpoints after quiescing, so Q/F counts
        // are exact and Θ/HLL sit inside their estimator envelope.
        assert!(
            relerr < 0.05,
            "{family:?} recovered {got}, want {per_stream}"
        );
    }
    // v1 family byte 0 = the default stream, fanned in like a v2 query
    // — recovered state must be visible to legacy clients too.
    match c.query_estimate(0).unwrap() {
        Reply::Estimate { value, .. } => {
            assert!(
                (value - 500.0).abs() / 500.0 < 0.05,
                "default stream {value}"
            )
        }
        other => panic!("default estimate: {other:?}"),
    }

    // Recovered state must itself survive the next restart: the
    // checkpointer re-persists the recovered image, not just live items.
    for info in handle.list_streams() {
        assert_eq!(info.snapshot_lag, 0, "{:?}", info.key);
    }
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_quarantine_and_valid_streams_still_serve() {
    let dir = tmp_dir("quarantine");
    {
        let handle = serve(durable_config(&dir)).expect("serve");
        let mut c = connect(&handle);
        ingest_all(
            &mut c,
            SketchFamily::Theta,
            b"good",
            &(0..1_000).collect::<Vec<_>>(),
        );
        ingest_all(
            &mut c,
            SketchFamily::Hll,
            b"bad",
            &(0..1_000).collect::<Vec<_>>(),
        );
        drop(c);
        handle.shutdown();
    }
    // Corrupt one committed record and plant one garbage file.
    let bad_path = dir.join(snapshot_file_name(b"bad"));
    let mut bad = std::fs::read(&bad_path).unwrap();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    std::fs::write(&bad_path, &bad).unwrap();
    std::fs::write(dir.join(format!("s-00{SNAP_SUFFIX}")), b"not a snapshot").unwrap();

    let handle = serve(durable_config(&dir)).expect("boot past corruption");
    let outcome = handle.recovery_outcome().expect("outcome");
    assert_eq!(outcome.quarantined, 2, "{outcome:?}");
    assert_eq!(outcome.failures.len(), 2);
    assert_eq!(handle.stats().records_quarantined, 2);

    // Quarantined files are kept for forensics, never rescanned.
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(QUARANTINE_SUFFIX))
        .count();
    assert_eq!(quarantined, 2);

    let mut c = connect(&handle);
    let good = observed_count(&mut c, SketchFamily::Theta, b"good");
    assert!(
        (good - 1_000.0).abs() / 1_000.0 < 0.05,
        "good stream {good}"
    );
    // The corrupted stream was never registered: typed NACK, no panic,
    // no silently empty stream.
    match c.query_stream_estimate(SketchFamily::Hll, b"bad").unwrap() {
        Reply::Nack { code, .. } => assert_eq!(code, NackCode::UnknownStream),
        other => panic!("corrupt stream must be unknown: {other:?}"),
    }
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bind_conflict_is_a_typed_startup_error() {
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = blocker.local_addr().unwrap();
    let cfg = ServerConfig {
        addr: addr.to_string(),
        ..ServerConfig::default()
    };
    match serve(cfg) {
        Err(ServeError::Bind(e)) => assert_eq!(e.kind(), io::ErrorKind::AddrInUse),
        Err(other) => panic!("want typed Bind error, got {other:?}"),
        Ok(handle) => {
            handle.shutdown();
            panic!("bind conflict must fail startup");
        }
    }
}

#[test]
fn replica_pusher_backs_off_from_a_dead_peer() {
    // A port that was bound and released: connects fail fast.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let interval = Duration::from_millis(50);
    let handle = serve(ServerConfig {
        replica_peer: Some(dead.to_string()),
        replica_interval: interval,
        ..ServerConfig::default()
    })
    .expect("serve");
    // Ingest so the pusher has something to ship.
    let mut c = connect(&handle);
    ingest_all(
        &mut c,
        SketchFamily::Theta,
        b"pushme",
        &(0..100).collect::<Vec<_>>(),
    );

    // Every failed round is counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    let first = loop {
        let errors = handle.stats().replica_push_errors;
        if errors > 0 {
            break errors;
        }
        assert!(Instant::now() < deadline, "no push error counted");
        std::thread::sleep(Duration::from_millis(5));
    };
    // A pusher retrying every interval fails once per interval; the
    // backoff doubles its wait per failure. An upper bound only: a
    // slow box fails less often, never more.
    let window = Duration::from_secs(2);
    std::thread::sleep(window);
    let failed = handle.stats().replica_push_errors - first;
    let fixed_interval = window.as_millis() / interval.as_millis();
    assert!(
        u128::from(failed) * 2 <= fixed_interval,
        "{failed} failed rounds in {window:?}: no backoff ({fixed_interval} at a fixed interval)"
    );
    assert_eq!(handle.stats().replica_pushes, 0);

    // The broken peer link never affects the serving path.
    let count = observed_count(&mut c, SketchFamily::Theta, b"pushme");
    assert!(count > 90.0, "serving path degraded: {count}");
    drop(c);
    assert_eq!(handle.shutdown().leaked_threads, 0);
}

#[test]
fn retiring_a_stream_removes_its_snapshot() {
    let dir = tmp_dir("retire");
    {
        let handle = serve(durable_config(&dir)).expect("serve");
        let mut c = connect(&handle);
        ingest_all(
            &mut c,
            SketchFamily::Theta,
            b"gone",
            &(0..400).collect::<Vec<_>>(),
        );
        let path = dir.join(snapshot_file_name(b"gone"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !path.exists() {
            assert!(Instant::now() < deadline, "stream never checkpointed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(handle.retire_stream(b"gone"));
        assert!(!path.exists(), "retire must delete the snapshot");
        drop(c);
        handle.shutdown();
    }
    // The retired stream must not resurrect on the next boot.
    let handle = serve(durable_config(&dir)).expect("serve second life");
    let mut c = connect(&handle);
    match c
        .query_stream_estimate(SketchFamily::Theta, b"gone")
        .unwrap()
    {
        Reply::Nack { code, .. } => assert_eq!(code, NackCode::UnknownStream),
        other => panic!("retired stream resurrected: {other:?}"),
    }
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
