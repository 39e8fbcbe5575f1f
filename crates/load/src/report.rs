//! The one gate table and the `BENCH_serve.json` document built on it.
//!
//! [`gates`] is the only place a drill threshold is written: the
//! `"acceptance"` and `"thresholds"` objects `bench_gate` reads
//! ([`fcds_bench::gate::check_doc`]) and the console summary are both
//! rendered from its rows. Every row is a count or a time — none is a
//! speed, and none is a relative-error tolerance: whether a read holds
//! what it should is the relaxation checkers' call, counted as
//! violations.

use crate::{
    CrashDrillReport, FaultMode, LoadConfig, MultiStreamReport, ScenarioReport, SyncReport,
    RECOVERY_TIMEOUT, SYNC_STREAMS,
};
pub use fcds_bench::gate::render_gates;
use fcds_bench::gate::{object, Bound, GateCheck};
use fcds_server::frame::NackCode;
use std::fmt::Write as _;

/// The thirteen gated measurements of one `fcds-load` run.
pub fn gates(
    r: &ScenarioReport,
    msr: &MultiStreamReport,
    sync: &SyncReport,
    crash: &CrashDrillReport,
) -> Vec<GateCheck> {
    use Bound::{Max, Min};
    let gate = GateCheck::new;
    let all_typed = |untyped: u64| if untyped == 0 { 1.0 } else { 0.0 };
    // An unrecovered phase or restart counts as an hour, far past any
    // sane bound: it must trip the max, not vanish from it.
    let or_an_hour = |d: Option<std::time::Duration>| d.map_or(3_600.0, |d| d.as_secs_f64());
    let worst_recovery_s = r
        .phases
        .iter()
        .map(|p| or_an_hour(p.recovery))
        .fold(0.0, f64::max);
    // Multi-stream typed coverage additionally requires the drill to
    // have provoked (and typed) both v2 taxonomy rows.
    let v2_rows_typed = msr.taxonomy.nacks(NackCode::UnknownStream) > 0
        && msr.taxonomy.nacks(NackCode::FamilyMismatch) > 0;
    vec![
        // Every failure the fault scenario saw carried a type (a NACK
        // code or a transport error): the server never sheds silently.
        gate(
            "typed_error_coverage",
            all_typed(r.untyped_failures),
            Min,
            1.0,
        ),
        // The server answered a clean request after every fault class.
        gate(
            "fault_classes_survived",
            r.phases.iter().filter(|p| p.survived).count() as f64,
            Min,
            FaultMode::ALL.len() as f64,
        ),
        // See `RECOVERY_TIMEOUT` for why the protocol's own worst case
        // sits just under it.
        gate(
            "worst_recovery_ms",
            worst_recovery_s * 1e3,
            Max,
            RECOVERY_TIMEOUT.as_secs_f64() * 1e3,
        ),
        // One fault latch per stream: a stream whose ingest is latched
        // shut can never shed another stream's traffic.
        gate("multistream_isolation", msr.isolation, Min, 1.0),
        gate(
            "multistream_typed_coverage",
            if v2_rows_typed {
                all_typed(msr.untyped_failures)
            } else {
                0.0
            },
            Min,
            1.0,
        ),
        // Every read is what the sequential sketch returns on a prefix
        // of the stream inside its window, missing at most `r` items.
        gate(
            "served_relaxation_violations",
            msr.relaxation_violations as f64,
            Max,
            0.0,
        ),
        gate(
            "sync_convergence_streams",
            sync.converged as f64,
            Min,
            SYNC_STREAMS as f64,
        ),
        gate(
            "peer_relaxation_violations",
            sync.relaxation_violations as f64,
            Max,
            0.0,
        ),
        // A stream that did not change since its last push is not
        // pushed again: idle streams cost no replica traffic.
        gate("sync_idle_pushes", sync.idle_pushes as f64, Max, 0.0),
        // Recovery is a boot-time directory scan — O(streams) decode +
        // CRC + registry insert — so 5 s is process spawn plus connect
        // retries on a loaded 1-CPU runner. A recovery that scales with
        // ingested *items* (replaying a journal) would blow through it.
        gate(
            "durability_recovery_s",
            or_an_hour(crash.recovery),
            Max,
            5.0,
        ),
        // The drill waits for a durable snapshot of every stream before
        // the kill: bounded loss is about tail items, never streams.
        gate(
            "durability_streams_recovered",
            crash.recovered_streams as f64,
            Min,
            crash.streams as f64,
        ),
        // A restarted stream holds at least what its on-disk record's
        // `seq` claims: losing one acked batch more breaks it.
        gate(
            "crash_relaxation_violations",
            crash.relaxation_violations as f64,
            Max,
            0.0,
        ),
        // A torn or doctored snapshot record is never trusted.
        gate(
            "durability_corrupt_accepted",
            crash.corrupt_accepted as f64,
            Max,
            0.0,
        ),
    ]
}

/// The full `BENCH_serve.json` document.
pub fn render_json(
    cfg: &LoadConfig,
    r: &ScenarioReport,
    msr: &MultiStreamReport,
    sync: &SyncReport,
    crash: &CrashDrillReport,
) -> String {
    let ms_or = |d: Option<std::time::Duration>| d.map_or(-1.0, |d| d.as_secs_f64() * 1e3);
    let faults: Vec<String> = r
        .phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"fault\": \"{}\", \"recovery_ms\": {:.1}, \"survived\": {}}}",
                p.mode.name(),
                ms_or(p.recovery),
                p.survived
            )
        })
        .collect();
    let taxonomy = object(
        r.taxonomy
            .rows()
            .into_iter()
            .map(|(name, count)| (name, count.to_string())),
    );
    let mut out = String::from("{\n  \"schema\": \"fcds-bench-serve-v4\",\n");
    let _ = write!(
        out,
        "  \"config\": {{\"batch_size\": {}, \"baseline_ms\": {}, \"fault_hold_ms\": {}}},\n  \
         \"faults\": [\n{}\n  ],\n  \
         \"taxonomy\": {taxonomy},\n  \
         \"reconnects\": {},\n  \
         \"items_acked\": {},\n  \
         \"estimate_over_acked\": {:.4},\n",
        cfg.batch_size,
        cfg.baseline.as_millis(),
        cfg.fault_hold.as_millis(),
        faults.join(",\n"),
        r.taxonomy.reconnects(),
        r.items_acked,
        r.estimate_ratio,
    );
    let _ = write!(
        out,
        "  \"multistream\": {{\"streams\": {}, \"items_acked\": {}, \"isolation\": {:.4}, \
         \"relaxation_violations\": {}}},\n  \
         \"sync\": {{\"streams\": {}, \"converged\": {}, \"relaxation_violations\": {}, \
         \"convergence_ms\": {:.1}, \"pushes\": {}, \"idle_pushes\": {}}},\n  \
         \"crash\": {{\"streams\": {}, \"recovered_streams\": {}, \"recovery_ms\": {:.1}, \
         \"relaxation_violations\": {}, \"corrupt_accepted\": {}, \"quarantined\": {}, \
         \"churn_items\": {}}},\n  ",
        msr.streams,
        msr.items_acked,
        msr.isolation,
        msr.relaxation_violations,
        sync.streams,
        sync.converged,
        sync.relaxation_violations,
        ms_or(sync.convergence),
        sync.pushes,
        sync.idle_pushes,
        crash.streams,
        crash.recovered_streams,
        ms_or(crash.recovery),
        crash.relaxation_violations,
        crash.corrupt_accepted,
        crash.quarantined,
        crash.churn_items,
    );
    out.push_str(&render_gates(&gates(r, msr, sync, crash)));
    out.push_str("\n}\n");
    out
}
