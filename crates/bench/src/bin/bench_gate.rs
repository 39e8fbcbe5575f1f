//! CI bench-regression gate over the two JSON artefacts of the
//! measurement leg: `BENCH_engine.json` (`engine_gates`) and
//! `BENCH_serve.json` (`fcds-load`).
//!
//! Each artefact documents its own acceptance ratios and thresholds (see
//! [`fcds_bench::gate`]); this binary reads them back and exits nonzero
//! when any ratio regressed past its bound, when an artefact is missing,
//! or when one declares no enforceable thresholds — so a renamed ratio
//! or a silently skipped bench run fails CI instead of un-gating itself.
//!
//! Usage: `cargo run --release -p fcds-bench --bin bench_gate
//! [--dir=DIR]` (reads the artefacts from `DIR`, default the working
//! directory — where the bench runs put them in CI).

use fcds_bench::gate::check_doc;
use fcds_bench::report::HarnessArgs;
use std::process::ExitCode;

const ARTEFACTS: [&str; 2] = ["BENCH_engine.json", "BENCH_serve.json"];

fn main() -> ExitCode {
    let args = HarnessArgs::parse(".");
    let dir = args.get("dir").unwrap_or(".");
    let mut failures = 0usize;
    let mut enforced = 0usize;
    for name in ARTEFACTS {
        let path = format!("{dir}/{name}");
        println!("{path}:");
        let doc = match std::fs::read_to_string(&path) {
            Ok(doc) => doc,
            Err(e) => {
                println!("  MISSING: {e}");
                failures += 1;
                continue;
            }
        };
        match check_doc(&doc) {
            Ok(checks) => {
                for check in checks {
                    println!("  {check}");
                    enforced += 1;
                    if !check.passed() {
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                println!("  UNPARSEABLE: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("bench gate: {failures} failure(s) across {enforced} enforced ratio(s)");
        ExitCode::FAILURE
    } else {
        println!("bench gate: all {enforced} enforced ratio(s) within thresholds");
        ExitCode::SUCCESS
    }
}
