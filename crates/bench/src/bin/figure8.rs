//! Figure 8: throughput speed-up of eager (`e = 0.04`) over no-eager
//! (`e = 1.0`) propagation on small streams, `k = 4096`, single writer.
//!
//! Expected shape (§7.3): a large speed-up for tiny streams (the paper
//! reports up to 84×: eager updates go straight to the global sketch
//! instead of round-tripping through the propagator per b-item buffer),
//! decreasing as the sketch grows, and dipping below 1 just past the
//! eager limit where the eager configuration's smaller lazy buffer
//! (b = 5-ish vs b = 16) costs throughput.
//!
//! Usage: `cargo run --release -p fcds-bench --bin figure8 [--full]`

use fcds_bench::drivers::{self, ThetaImpl};
use fcds_bench::report::{HarnessArgs, Table};
use fcds_bench::workload;

fn main() {
    let args = HarnessArgs::parse("results");
    let lg_k = 12;
    let sizes = workload::size_ladder(4, if args.full { 18 } else { 15 }, true);
    let budget: u64 = if args.full { 1 << 22 } else { 1 << 19 };

    println!("Figure 8: eager (e=0.04) vs no-eager (e=1.0) speed-up, k = 4096, 1 writer\n");
    let mut table = Table::new(&["uniques", "eager (ns/u)", "no-eager (ns/u)", "speedup"]);
    for &n in &sizes {
        let trials = workload::trials_for_size(n, budget, 2048);
        let mean_ns = |impl_: ThetaImpl| -> f64 {
            let _ = drivers::time_write_only(impl_, lg_k, n, u64::MAX); // warm-up
            let total: u128 = (0..trials)
                .map(|t| drivers::time_write_only(impl_, lg_k, n, t).as_nanos())
                .sum();
            total as f64 / (trials * n) as f64
        };
        let eager = mean_ns(ThetaImpl::Concurrent {
            writers: 1,
            e: 0.04,
            max_b: None,
        });
        let no_eager = mean_ns(ThetaImpl::Concurrent {
            writers: 1,
            e: 1.0,
            max_b: None,
        });
        table.row(&[
            n.to_string(),
            format!("{eager:.1}"),
            format!("{no_eager:.1}"),
            format!("{:.2}x", no_eager / eager),
        ]);
    }
    println!("{}", table.render());
    let path = format!("{}/figure8.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
    println!("\nexpected: speed-up ≫ 1 for tiny streams, decaying toward (and possibly");
    println!("below) 1 once the stream exceeds the eager limit 2/e² = 1250 and 2k.");
}
