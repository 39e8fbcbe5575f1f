//! Figure 1: scalability of the concurrent Θ sketch vs the lock-based
//! baseline on an update-only workload (`k = 4096`, `b = 1`).
//!
//! The paper (32-core Xeon): the lock-based sketch degrades with thread
//! count while the concurrent sketch scales almost perfectly. Expect the
//! same shape, scaled to this host's core count.
//!
//! Usage: `cargo run --release -p fcds-bench --bin figure1 [--full] [--out=DIR]`

use fcds_bench::drivers::{self, ThetaImpl};
use fcds_bench::report::{mops, HarnessArgs, Table};

fn main() {
    let args = HarnessArgs::parse("results");
    let cores = std::thread::available_parallelism().map_or(4, |c| c.get());
    let uniques: u64 = if args.full { 1 << 23 } else { 1 << 21 };
    let trials: u64 = if args.full { 16 } else { 4 };
    let lg_k = 12;

    let mut threads: Vec<usize> = vec![1, 2, 4, 8, 12, 16, 24, 32];
    threads.retain(|&t| t <= cores);

    println!("Figure 1: update-only scalability, k = 4096, b = 1, stream = {uniques} uniques");
    println!("host parallelism: {cores} logical cores; trials per point: {trials}\n");

    let mut table = Table::new(&[
        "threads",
        "concurrent (Mops/s)",
        "lock-based (Mops/s)",
        "ratio",
    ]);
    for &t in &threads {
        let run = |impl_: ThetaImpl| -> f64 {
            let total_nanos: u128 = (0..trials)
                .map(|n| drivers::time_write_only(impl_, lg_k, uniques, n).as_nanos())
                .sum();
            let ns_per_update = total_nanos as f64 / (trials * uniques) as f64;
            1e3 / ns_per_update // million updates per second
        };
        let conc = run(ThetaImpl::concurrent_b1(t));
        let lock = run(ThetaImpl::LockBased { threads: t });
        table.row(&[
            t.to_string(),
            mops(conc),
            mops(lock),
            format!("{:.1}x", conc / lock),
        ]);
    }
    println!("{}", table.render());
    let path = format!("{}/figure1.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
    println!("expected shape: concurrent column grows ~linearly with threads;");
    println!("lock-based column flat or degrading (paper: 12x–45x gap at 12 threads).");
}
