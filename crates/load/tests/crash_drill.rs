//! End-to-end kill-drill: a real `fcds-server` process, SIGKILLed
//! mid-checkpoint, restarted against the same data dir. Sized down from
//! the bench-gate drill so it fits a test run; the contracts checked
//! are the same ones `bench_gate` enforces on `BENCH_serve.json`.

use fcds_load::{find_server_bin, run_crash_drill, CrashDrillConfig};
use std::time::Duration;

#[test]
fn kill_drill_recovers_every_stream_and_rejects_corruption() {
    if find_server_bin().is_none() {
        eprintln!("skipping: no fcds-server binary near this test executable");
        return;
    }
    let cfg = CrashDrillConfig {
        streams: 4,
        items_per_stream: 8_000,
        snapshot_interval: Duration::from_millis(100),
        churn: Duration::from_millis(250),
        recovery_timeout: Duration::from_secs(15),
    };
    let report = run_crash_drill(&cfg).expect("crash drill");

    assert_eq!(
        report.recovered_streams, cfg.streams,
        "every durable stream must answer after the kill"
    );
    assert!(
        report.recovery.is_some(),
        "recovery timed out ({:?})",
        cfg.recovery_timeout
    );
    // Each restarted stream holds at least what its record's `seq`
    // claimed before the kill, up to the writer's relaxation.
    assert_eq!(report.relaxation_violations, 0);
    assert_eq!(
        report.corrupt_accepted, 0,
        "a CRC-invalid record was served after restart"
    );
    assert!(
        report.quarantined >= 2,
        "both planted corruptions must be quarantined, saw {}",
        report.quarantined
    );
}
