//! `fcds-server` binary: serve the concurrent sketch engine over TCP.
//!
//! ```text
//! fcds-server [--addr=HOST:PORT] [--workers=N] [--lg-k=N] [--secs=N]
//!             [--data-dir=PATH] [--snapshot-ms=N]
//!             [--fsync=always|interval|never]
//! ```
//!
//! `--workers` is the declared writer count `N` of the default stream
//! (it sizes the engine's buffer; connection threads are the writers).
//!
//! `--data-dir` turns on the durability tier: snapshots every
//! `--snapshot-ms` (bounded loss ≤ one interval of acked ingest per
//! stream) and boot-time recovery of every valid snapshot in the
//! directory *before* the listening line is printed.
//!
//! Runs until a client sends a `Shutdown` frame (or `--secs` elapses),
//! then drains gracefully and prints the drain report.

use fcds_server::{serve, FsyncPolicy, ServerConfig};
use std::time::{Duration, Instant};

/// Accepts both `--flag=value` and `--flag value`, so the same
/// invocation style works here and on `fcds-load` (whose harness
/// parser is `=`-only). A present-but-unparseable value aborts rather
/// than silently falling back to the default.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let raw = args.iter().enumerate().find_map(|(i, a)| {
        if a == flag {
            args.get(i + 1).cloned()
        } else {
            a.strip_prefix(flag)
                .and_then(|rest| rest.strip_prefix('='))
                .map(|v| v.to_string())
        }
    })?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("fcds-server: bad value {raw:?} for {flag}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = ServerConfig::default();
    if let Some(addr) = parse_flag::<String>(&args, "--addr") {
        cfg.addr = addr;
    }
    if let Some(w) = parse_flag::<usize>(&args, "--workers") {
        cfg.ingest_workers = w;
    }
    if let Some(k) = parse_flag::<u8>(&args, "--lg-k") {
        cfg.lg_k = k;
    }
    if let Some(dir) = parse_flag::<String>(&args, "--data-dir") {
        cfg.data_dir = Some(dir);
    }
    if let Some(ms) = parse_flag::<u64>(&args, "--snapshot-ms") {
        cfg.snapshot_interval = Duration::from_millis(ms.max(1));
    }
    if let Some(policy) = parse_flag::<FsyncPolicy>(&args, "--fsync") {
        cfg.fsync_policy = policy;
    }
    let secs = parse_flag::<u64>(&args, "--secs");

    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fcds-server: startup failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(outcome) = handle.recovery_outcome() {
        println!(
            "fcds-server: recovered {} stream(s), quarantined {} record(s), skipped {}",
            outcome.recovered, outcome.quarantined, outcome.skipped
        );
        for (name, err) in &outcome.failures {
            eprintln!("fcds-server: quarantined {name}: {err}");
        }
    }
    println!("fcds-server listening on {}", handle.local_addr());

    let deadline = secs.map(|s| Instant::now() + Duration::from_secs(s));
    loop {
        if handle.drain_requested() {
            println!("fcds-server: drain requested by client");
            break;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                println!("fcds-server: --secs elapsed");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let report = handle.shutdown();
    println!(
        "fcds-server: drained (flush errors {}, ingest panics {}, leaked {})",
        report.stats.flush_errors, report.stats.worker_panics, report.leaked_threads
    );
    println!(
        "fcds-server: {} items in {} batches, {} sheds, {} nacks, final estimate {:.1}",
        report.stats.ingest_items,
        report.stats.ingest_batches,
        report.stats.sheds,
        report.stats.nacks,
        report.final_estimate
    );
    if report.leaked_threads > 0 {
        std::process::exit(1);
    }
}
