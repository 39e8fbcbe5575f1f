//! Pins the set of gates `fcds-load` declares in `BENCH_serve.json`, so
//! a renamed, dropped or re-directed gate fails tier-1 rather than the
//! CI bench leg: exactly the thirteen count-and-time checks, no speed
//! gate, no relative-error tolerance, and each one trips alone when its
//! measurement is doctored.

use fcds_bench::gate::{check_doc, Bound};
use fcds_load::report::{gates, render_gates, render_json};
use fcds_load::{
    CrashDrillReport, ErrorTaxonomy, FaultMode, FaultPhase, LoadConfig, MultiStreamReport,
    ScenarioReport, SyncReport,
};
use fcds_server::frame::NackCode;
use std::time::Duration;

const GATES: [&str; 13] = [
    "typed_error_coverage",
    "fault_classes_survived",
    "worst_recovery_ms",
    "multistream_isolation",
    "multistream_typed_coverage",
    "served_relaxation_violations",
    "sync_convergence_streams",
    "peer_relaxation_violations",
    "sync_idle_pushes",
    "durability_recovery_s",
    "durability_streams_recovered",
    "crash_relaxation_violations",
    "durability_corrupt_accepted",
];

/// Reports of a run in which every drill went well.
fn healthy() -> (
    ScenarioReport,
    MultiStreamReport,
    SyncReport,
    CrashDrillReport,
) {
    let scenario = ScenarioReport {
        taxonomy: ErrorTaxonomy::default(),
        phases: FaultMode::ALL
            .iter()
            .map(|&mode| FaultPhase {
                mode,
                recovery: Some(Duration::from_millis(60)),
                writers: Vec::new(),
                survived: true,
            })
            .collect(),
        items_acked: 1_000_000,
        untyped_failures: 0,
        estimate_ratio: 1.0,
    };
    let v2_rows = ErrorTaxonomy::default();
    v2_rows.record_nack(NackCode::UnknownStream);
    v2_rows.record_nack(NackCode::FamilyMismatch);
    let multistream = MultiStreamReport {
        streams: 8,
        taxonomy: v2_rows,
        items_acked: 1_000_000,
        untyped_failures: 0,
        isolation: 1.0,
        relaxation_violations: 0,
        leaked_threads: 0,
    };
    let sync = SyncReport {
        streams: 4,
        converged: 4,
        relaxation_violations: 0,
        convergence: Some(Duration::from_millis(120)),
        pushes: 9,
        idle_pushes: 0,
        leaked_threads: 0,
    };
    let crash = CrashDrillReport {
        streams: 8,
        recovered_streams: 8,
        recovery: Some(Duration::from_millis(40)),
        relaxation_violations: 0,
        corrupt_accepted: 0,
        quarantined: 2,
        churn_items: 4_000,
        taxonomy: ErrorTaxonomy::default(),
    };
    (scenario, multistream, sync, crash)
}

#[test]
fn bench_serve_declares_exactly_the_thirteen_count_and_time_gates() {
    let (scenario, multistream, sync, crash) = healthy();
    let doc = render_json(
        &LoadConfig::default(),
        &scenario,
        &multistream,
        &sync,
        &crash,
    );
    let checks = check_doc(&doc).expect("BENCH_serve.json must satisfy bench_gate's contract");
    let names: Vec<&str> = checks.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, GATES);
    for check in &checks {
        assert!(check.passed(), "healthy run tripped {check}");
        assert!(
            !check.name.contains("items_per_s") && !check.name.contains("p99"),
            "{} is a speed gate; benchmark/ owns those",
            check.name
        );
        assert!(
            !check.name.contains("relerr"),
            "{} is a relative-error tolerance; the relaxation checkers replace those",
            check.name
        );
    }
}

#[test]
fn a_doctored_measurement_fails_its_own_gate_and_no_other() {
    let (scenario, multistream, sync, crash) = healthy();
    let table = gates(&scenario, &multistream, &sync, &crash);
    for doctored in 0..table.len() {
        let mut rows = table.clone();
        rows[doctored].value = match rows[doctored].bound {
            Bound::Min => rows[doctored].threshold - 1.0,
            Bound::Max => rows[doctored].threshold + 1.0,
        };
        let checks = check_doc(&format!("{{{}}}", render_gates(&rows))).unwrap();
        for (i, check) in checks.iter().enumerate() {
            assert_eq!(
                check.passed(),
                i != doctored,
                "doctored {doctored}: {check}"
            );
        }
    }
}

#[test]
fn a_drill_that_never_finished_trips_its_bound() {
    // An unrecovered fault phase, an unconverged peer and a restart that
    // timed out have no duration to report; they must fail their gates,
    // not drop out of them. The peer stream that never converged is a
    // relaxation violation too.
    let (mut scenario, multistream, mut sync, mut crash) = healthy();
    scenario.phases[0].recovery = None;
    sync.converged = 3;
    sync.relaxation_violations = 1;
    crash.recovery = None;
    let failed: Vec<String> = gates(&scenario, &multistream, &sync, &crash)
        .into_iter()
        .filter(|g| !g.passed())
        .map(|g| g.name)
        .collect();
    assert_eq!(
        failed,
        [
            "worst_recovery_ms",
            "sync_convergence_streams",
            "peer_relaxation_violations",
            "durability_recovery_s",
        ]
    );
}
