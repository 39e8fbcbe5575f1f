//! `fcds-load` binary: run the four correctness drills against
//! `fcds-server` and emit `BENCH_serve.json` for the CI bench gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fcds-load [--out=DIR] [--addr=HOST:PORT]
//!     [--baseline-ms=N] [--fault-hold-ms=N]
//! ```
//!
//! Without `--addr` the fault scenario starts its own server in-process
//! (the CI mode: one command, no orchestration); with it, the scenario
//! targets an already-running server — the faults live in the
//! scenario's own client connections, so they need nothing from the
//! server. The multi-stream drill, the two-server replica-sync drill
//! and the crash drill (a real `fcds-server` process, SIGKILLed
//! mid-checkpoint and restarted against its data dir) always start
//! their own servers. Each drill prints what the gates do not show;
//! the run ends with the gate table `bench_gate` will enforce. None of
//! its rows is a speed — `benchmark/` measures those.

use fcds_bench::report::{HarnessArgs, Table};
use fcds_load::report::{gates, render_json};
use fcds_load::{
    run_crash_drill, run_multistream, run_scenario, run_sync_drill, CrashDrillConfig,
    CrashDrillReport, ErrorTaxonomy, LoadConfig, MultiStreamConfig, MultiStreamReport,
    ScenarioReport, SyncReport, MULTISTREAM_STREAMS,
};
use fcds_server::{serve, ServerConfig};
use std::time::Duration;

/// Items the sync drill ingests into each source stream.
const SYNC_ITEMS_PER_STREAM: u64 = 20_000;

fn main() {
    let args = HarnessArgs::parse(".");

    let mut cfg = LoadConfig::default();
    if let Some(b) = args.get("baseline-ms").and_then(|v| v.parse().ok()) {
        cfg.baseline = Duration::from_millis(b);
    }
    if let Some(h) = args.get("fault-hold-ms").and_then(|v| v.parse().ok()) {
        cfg.fault_hold = Duration::from_millis(h);
    }
    let ms_cfg = MultiStreamConfig::default();
    let crash_cfg = CrashDrillConfig::default();

    let (server, addr) = match args.get("addr") {
        Some(addr) => (None, addr.parse().expect("--addr must be HOST:PORT")),
        None => {
            let handle = serve(ServerConfig::default()).expect("start in-process server");
            let addr = handle.local_addr();
            (Some(handle), addr)
        }
    };
    println!(
        "fault scenario: {}-item batches, faults injected into the writers' own connections, target {addr}",
        cfg.batch_size
    );
    let report = run_scenario(addr, &cfg);
    print_report(&report);

    println!(
        "multi-stream drill: {MULTISTREAM_STREAMS} streams × 4 families, {:.1}s window",
        ms_cfg.window.as_secs_f64()
    );
    let ms_report = run_multistream(&ms_cfg).expect("run multi-stream drill");
    print_multistream(&ms_report);

    println!("replica-sync drill: {SYNC_ITEMS_PER_STREAM} items per stream");
    let sync_report = run_sync_drill(SYNC_ITEMS_PER_STREAM).expect("run sync drill");
    print_sync(&sync_report);

    println!(
        "crash drill: {} streams × {} items, {} ms snapshots, SIGKILL mid-checkpoint",
        crash_cfg.streams,
        crash_cfg.items_per_stream,
        crash_cfg.snapshot_interval.as_millis()
    );
    let crash_report = run_crash_drill(&crash_cfg).expect("run crash drill");
    print_crash(&crash_report);

    println!("gates:");
    for gate in gates(&report, &ms_report, &sync_report, &crash_report) {
        println!("  {gate}");
    }
    let json = render_json(&cfg, &report, &ms_report, &sync_report, &crash_report);
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    let path = format!("{}/BENCH_serve.json", args.out_dir);
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    if let Some(handle) = server {
        let drain = handle.shutdown();
        println!(
            "server drained: {} items, {} sheds, {} nacks, {} flush errors, {} ingest panics, {} leaked threads",
            drain.stats.ingest_items,
            drain.stats.sheds,
            drain.stats.nacks,
            drain.stats.flush_errors,
            drain.stats.worker_panics,
            drain.leaked_threads
        );
        assert_eq!(drain.leaked_threads, 0, "drain must join every thread");
    }
}

fn print_taxonomy(taxonomy: &ErrorTaxonomy) {
    for (name, count) in taxonomy.rows() {
        println!("    {name:<24} {count}");
    }
}

fn print_report(r: &ScenarioReport) {
    let mut t = Table::new(&["fault", "recovery_ms", "survived", "writers"]);
    for p in &r.phases {
        let writers: Vec<String> = p.writers.iter().map(|w| format!("[{w}]")).collect();
        t.row(&[
            p.mode.name().to_string(),
            p.recovery
                .map(|d| format!("{:.0}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "TIMEOUT".to_string()),
            p.survived.to_string(),
            writers.join(" "),
        ]);
    }
    println!("{}", t.render());

    println!("  error taxonomy:");
    print_taxonomy(&r.taxonomy);
    println!(
        "  {} items acked, {} reconnects, estimate/acked {:.4}",
        r.items_acked,
        r.taxonomy.reconnects(),
        r.estimate_ratio
    );
}

fn print_multistream(r: &MultiStreamReport) {
    println!(
        "  {} items acked over {} streams, {} relaxation violations",
        r.items_acked, r.streams, r.relaxation_violations
    );
    print_taxonomy(&r.taxonomy);
}

fn print_sync(r: &SyncReport) {
    let converged_in = r
        .convergence
        .map(|d| format!(" in {:.0} ms", d.as_secs_f64() * 1e3));
    println!(
        "  {} / {} streams converged{}, {} pushes ({} while idle)",
        r.converged,
        r.streams,
        converged_in.unwrap_or_default(),
        r.pushes,
        r.idle_pushes
    );
}

fn print_crash(r: &CrashDrillReport) {
    println!(
        "  {} churn items inside the loss window, {} files quarantined",
        r.churn_items, r.quarantined
    );
    print_taxonomy(&r.taxonomy);
}
