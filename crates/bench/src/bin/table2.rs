//! Table 2: the accuracy/throughput trade-off as a function of `k` —
//! for `k ∈ {256, 1024, 4096}`: the stream size where the concurrent
//! implementation overtakes the lock-based one (both single-threaded),
//! and the maximum median / 99th-percentile relative error across sizes.
//!
//! Usage: `cargo run --release -p fcds-bench --bin table2 [--full]`

use fcds_bench::drivers::{self, ThetaImpl};
use fcds_bench::profiles::AccuracyProfile;
use fcds_bench::report::{pct, HarnessArgs, Table};
use fcds_bench::workload;

fn crossing_point(lg_k: u8, full: bool) -> Option<u64> {
    // Scan stream sizes; report the first where concurrent(1w) beats
    // lock-based(1t).
    let sizes = workload::size_ladder(10, if full { 23 } else { 21 }, true);
    let budget: u64 = if full { 1 << 23 } else { 1 << 21 };
    let ratios: Vec<(u64, f64)> = sizes
        .iter()
        .map(|&n| {
            let trials = workload::trials_for_size(n, budget, 64);
            let mean = |impl_: ThetaImpl| -> f64 {
                let total: u128 = (0..trials)
                    .map(|t| drivers::time_write_only(impl_, lg_k, n, t).as_nanos())
                    .sum();
                total as f64 / (trials * n) as f64
            };
            (
                n,
                mean(ThetaImpl::LockBased { threads: 1 }) / mean(ThetaImpl::concurrent(1)),
            )
        })
        .collect();
    // Sustained crossing: concurrent at least ties lock-based from this
    // size on (a single noisy win does not count).
    (0..ratios.len())
        .find(|&i| (i..ratios.len()).all(|j| ratios[j].1 > 1.0))
        .map(|i| ratios[i].0)
}

fn max_errors(lg_k: u8, full: bool) -> (f64, f64) {
    let profile = if full {
        AccuracyProfile::full(lg_k, 0.04)
    } else {
        AccuracyProfile::quick(lg_k, 0.04)
    };
    let points = profile.run();
    let max_med = points
        .iter()
        .map(|p| p.quantile(0.5).abs())
        .fold(0.0f64, f64::max);
    let max_q99 = points
        .iter()
        .map(|p| p.quantile(0.99).abs().max(p.quantile(0.01).abs()))
        .fold(0.0f64, f64::max);
    (max_med, max_q99)
}

fn main() {
    let args = HarnessArgs::parse("results");
    println!("Table 2: performance vs accuracy as a function of k (e = 0.04)\n");
    let mut table = Table::new(&[
        "k",
        "thpt crossing point",
        "max |median error|",
        "max |Q99 error|",
    ]);
    for lg_k in [8u8, 10, 12] {
        let k = 1usize << lg_k;
        let crossing = crossing_point(lg_k, args.full);
        let (med, q99) = max_errors(lg_k, args.full);
        table.row(&[
            k.to_string(),
            crossing.map_or("> max size".into(), |c| format!("~{c}")),
            pct(med),
            pct(q99),
        ]);
    }
    println!("{}", table.render());
    let path = format!("{}/table2.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
    println!("\npaper (Java, 12-core Xeon): k=256 → 15K crossing, 0.16/0.27 errors;");
    println!("k=1024 → 100K, 0.05/0.13; k=4096 → 700K, 0.03/0.05.");
    println!("expected shape: larger k ⇒ later crossing, smaller errors.");
}
