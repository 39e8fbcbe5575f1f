//! Figure 5: accuracy "pitchforks" of the concurrent Θ sketch, without
//! eager propagation (5a, `e = 1.0`) and with it (5b, `e = 0.04`);
//! `k = 4096`, single writer, query taken right after the last update
//! without flushing.
//!
//! Expected shapes (§7.2): without eager propagation small streams are
//! grossly under-estimated (the paper reports mean error up to −94%,
//! capped at −10% in its plot) because everything sits in unpropagated
//! buffers; with eager propagation the error stays within ±e, and in both
//! cases the pitchfork converges to the sequential sketch's ±1/√k
//! envelope for large streams, distorted toward under-estimation.
//!
//! Usage:
//! `cargo run --release -p fcds-bench --bin figure5 [--full] [--eager=true|false|both]`

use fcds_bench::profiles::AccuracyProfile;
use fcds_bench::report::{pct, HarnessArgs, Table};

fn run_profile(args: &HarnessArgs, e: f64, label: &str) {
    let lg_k = 12;
    let profile = if args.full {
        AccuracyProfile::full(lg_k, e)
    } else {
        AccuracyProfile::quick(lg_k, e)
    };
    println!(
        "\nFigure 5{label}: accuracy pitchfork, k = 4096, e = {e}, {} trials/point",
        profile.trials
    );
    let points = profile.run();
    let mut table = Table::new(&["uniques", "mean", "q01", "q25", "median", "q75", "q99"]);
    for p in &points {
        table.row(&[
            p.uniques.to_string(),
            pct(p.mean),
            pct(p.quantile(0.01)),
            pct(p.quantile(0.25)),
            pct(p.quantile(0.5)),
            pct(p.quantile(0.75)),
            pct(p.quantile(0.99)),
        ]);
    }
    println!("{}", table.render());
    let suffix = if e >= 1.0 { "a_noeager" } else { "b_eager" };
    let path = format!("{}/figure5{}.csv", args.out_dir, suffix);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
}

fn main() {
    let args = HarnessArgs::parse("results");
    match args.get("eager").unwrap_or("both") {
        "false" => run_profile(&args, 1.0, "a (no eager)"),
        "true" => run_profile(&args, 0.04, "b (eager)"),
        _ => {
            run_profile(&args, 1.0, "a (no eager)");
            run_profile(&args, 0.04, "b (eager)");
        }
    }
    println!("\nexpected: 5a shows strong under-estimation (negative mean) for small streams;");
    println!(
        "5b keeps the error within ±4%; both converge to the ±1/√k pitchfork for large streams."
    );
}
