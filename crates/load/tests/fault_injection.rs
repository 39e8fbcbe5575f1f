//! Short-run integration of the full scenario: an in-process
//! `fcds-server` behind the fault proxy, all five fault classes
//! injected, recovery measured. This is the CI-speed version of the
//! `fcds-load` binary — tiny windows, same code path end to end.

use fcds_load::{run_scenario, FaultMode, LoadConfig};
use fcds_server::{serve, ServerConfig};
use std::time::Duration;

fn short_config() -> LoadConfig {
    LoadConfig {
        batch_size: 256,
        baseline: Duration::from_millis(400),
        fault_hold: Duration::from_millis(120),
    }
}

#[test]
fn scenario_survives_every_fault_class_with_typed_errors_only() {
    let handle = serve(ServerConfig::default()).unwrap();
    let report = run_scenario(handle.local_addr(), &short_config()).unwrap();

    // Every fault class ran, and the server answered a clean request
    // after each one.
    assert_eq!(report.phases.len(), FaultMode::ALL.len());
    for phase in &report.phases {
        assert!(
            phase.survived,
            "server must survive fault class {:?}",
            phase.mode
        );
    }

    // The baseline window made real progress.
    assert!(report.items_acked > 0, "baseline must ack items");

    // The silent-drop detector: every failed request carried a typed
    // outcome (NACK code or transport error) — nothing vanished.
    assert_eq!(
        report.untyped_failures, 0,
        "all failures must be typed; untyped replies mean a contract hole"
    );

    // The live estimate stays consistent with the acked set: writers
    // re-send ranges whose outcome was unknown and Θ dedups, so the
    // estimate must cover the acked distinct items (within sketch
    // error) and never balloon past what was sent.
    assert!(
        report.estimate_ratio > 0.8 && report.estimate_ratio < 1.2,
        "estimate/acked ratio {} should be near 1",
        report.estimate_ratio
    );

    // Injected faults leave typed traces. The exact mix depends on
    // timing (a severed connection may surface as an I/O error before
    // or after a frame boundary), so assert on the aggregate.
    assert!(
        report.taxonomy.total_typed() > 0,
        "five fault classes must produce at least one typed failure"
    );

    // The server itself comes out clean: a graceful drain with no
    // leaked threads and no worker panics.
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    assert_eq!(drain.workers_panicked, 0);
    assert_eq!(drain.stats.conn_panics, 0);
}

#[test]
fn recovery_is_measured_after_faults_clear() {
    let handle = serve(ServerConfig::default()).unwrap();
    let report = run_scenario(handle.local_addr(), &short_config()).unwrap();

    // Recovery may legitimately take a few buckets (reconnect + breaker
    // cooldown), but within the generous timeout every class must get
    // back to ≥ 50% of baseline throughput.
    for phase in &report.phases {
        assert!(
            phase.recovery.is_some(),
            "fault class {:?} must recover within the timeout",
            phase.mode
        );
    }
    handle.shutdown();
}
