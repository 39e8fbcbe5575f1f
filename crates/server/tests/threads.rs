//! A stream costs no thread: connection threads are the engine's update
//! threads, so the server's thread count is a function of its
//! connections alone. Its own test binary, so no sibling test's threads
//! are in the count.
#![cfg(target_os = "linux")]

use fcds_server::client::{Client, Reply};
use fcds_server::{serve, ServerConfig};
use fcds_sketches::wire::SketchFamily;
use std::time::Duration;

const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn a_stream_costs_no_thread_and_a_connection_costs_one() {
    let handle = serve(ServerConfig::default()).unwrap();
    let connect = || {
        let mut c = Client::connect(handle.local_addr(), Duration::from_secs(5)).expect("connect");
        // The Pong comes from the connection's own thread, so it exists.
        assert!(matches!(c.ping().unwrap(), Reply::Pong { .. }));
        c
    };
    let mut first = connect();
    let before = threads();
    for i in 0..32 {
        let key = format!("stream-{i}").into_bytes();
        let reply = first
            .ingest_stream(FAMILIES[i % 4], &key, &[1, 2, 3])
            .unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "ingest: {reply:?}");
    }
    assert_eq!(handle.list_streams().len(), 33);
    assert_eq!(threads(), before, "creating streams started a thread");

    let mut more = Vec::new();
    for extra in 1..=3 {
        more.push(connect());
        assert_eq!(threads(), before + extra, "one thread per connection");
    }
    drop((first, more));
    assert_eq!(handle.shutdown().leaked_threads, 0);
}
