//! Short-window runs of the multi-stream and replica-sync drills — the
//! same code paths the CI bench leg drives at full length, kept in
//! tier-1 so a regression fails fast rather than at the bench gate.

use fcds_load::{run_multistream, run_sync_drill, MultiStreamConfig};
use fcds_server::frame::NackCode;
use std::time::Duration;

#[test]
fn multistream_drill_isolates_and_types_every_failure() {
    let report = run_multistream(&MultiStreamConfig {
        batch_size: 256,
        window: Duration::from_millis(600),
    })
    .expect("multistream drill");
    assert_eq!(report.streams, 8);
    assert!(report.items_acked > 0, "no traffic reached the streams");
    // No faults while the writers ran (the poison step comes after
    // they are joined): each made one connection and kept it.
    assert_eq!(
        report.taxonomy.reconnects(),
        0,
        "a first connect is not a reconnect"
    );
    assert_eq!(report.untyped_failures, 0, "silent failure detected");
    assert_eq!(
        report.isolation, 1.0,
        "poisoned stream bled into its neighbours"
    );
    assert_eq!(
        report.relaxation_violations, 0,
        "a read held other than a prefix of what was sent, within r"
    );
    assert!(report.taxonomy.nacks(NackCode::UnknownStream) >= 1);
    assert!(report.taxonomy.nacks(NackCode::FamilyMismatch) >= 1);
    assert_eq!(report.leaked_threads, 0);
}

#[test]
fn sync_drill_converges_every_stream_inside_the_relaxation() {
    let report = run_sync_drill(10_000).expect("sync drill");
    assert_eq!(report.converged, report.streams);
    assert_eq!(report.relaxation_violations, 0);
    assert!(report.convergence.is_some());
    assert!(report.pushes > 0, "replica pusher never delivered");
    assert_eq!(report.idle_pushes, 0, "an idle stream was pushed again");
    assert_eq!(report.leaked_threads, 0);
}
