//! Short-run integration of the full scenario: an in-process
//! `fcds-server`, all five fault classes injected into the writers' own
//! connections, recovery measured. This is the CI-speed version of the
//! `fcds-load` binary — tiny windows, same code path end to end.
//!
//! The scenario runs once and both tests read its one report: run per
//! test, libtest would put two scenarios on the box's processors at
//! once, and "a bucket at ≥ 50 % of baseline" would compare a baseline
//! and a bucket that each depend on what the sibling is doing.
//!
//! It runs wherever the scheduler puts it: a request crosses two
//! threads, the writer and its server connection, so thread placement
//! on a two-processor VM no longer decides whether recovery reaches
//! 50 %. Measured unconfined on a 2-vCPU VM, release build: 0 of 12
//! runs failed on an idle box and 0 of 10 right after a minute with
//! both processors busy. In that busy state the TCP-proxy version of
//! the scenario (four threads per request) failed 5 of 10 runs, and 1
//! of 6 in a re-run, unless confined to one processor.

use fcds_load::{run_scenario, FaultMode, LoadConfig, ScenarioReport};
use fcds_server::{serve, DrainReport, ServerConfig};
use std::sync::OnceLock;
use std::time::Duration;

/// The one scenario run, then the server's graceful drain.
fn scenario() -> &'static (ScenarioReport, DrainReport) {
    static RUN: OnceLock<(ScenarioReport, DrainReport)> = OnceLock::new();
    RUN.get_or_init(|| {
        let config = LoadConfig {
            batch_size: 256,
            baseline: Duration::from_millis(400),
            fault_hold: Duration::from_millis(120),
        };
        let handle = serve(ServerConfig::default()).unwrap();
        let report = run_scenario(handle.local_addr(), &config);
        (report, handle.shutdown())
    })
}

#[test]
fn scenario_survives_every_fault_class_with_typed_errors_only() {
    let (report, drain) = scenario();

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
    assert_eq!(drain.leaked_threads, 0);
    assert_eq!(drain.stats.worker_panics, 0);
    assert_eq!(drain.stats.conn_panics, 0);
}

#[test]
fn recovery_is_measured_after_faults_clear() {
    let (report, _) = scenario();

    // Recovery may legitimately take a few buckets (a reconnect, or a
    // truncated frame's deadline), but within the generous timeout
    // every class must get back to ≥ 50% of baseline throughput.
    for phase in &report.phases {
        let writers: Vec<String> = phase.writers.iter().map(|w| format!("[{w}]")).collect();
        assert!(
            phase.recovery.is_some(),
            "fault class {:?} must recover within the timeout; its writers {}; phases {:?}, {:?}",
            phase.mode,
            writers.join(" "),
            report.phases,
            report.taxonomy
        );
    }
}
