//! Figure 7: mixed read/write workload (`k = 4096`, `e = 0.04`) — 1 or 2
//! writers with 10 background reader threads issuing a query every 1 ms.
//!
//! Expected shape (§7.2): background readers barely affect the concurrent
//! sketch (queries read an atomic snapshot) but cost the lock-based
//! baseline ~10% (readers compete for the lock).
//!
//! Usage: `cargo run --release -p fcds-bench --bin figure7 [--full]`

use fcds_bench::drivers::{self, ThetaImpl};
use fcds_bench::report::{mops, HarnessArgs, Table};
use std::time::Duration;

fn main() {
    let args = HarnessArgs::parse("results");
    let uniques: u64 = if args.full { 1 << 23 } else { 1 << 21 };
    let trials: u64 = if args.full { 9 } else { 5 };
    let readers = 10;
    let pause = Duration::from_millis(1);
    let lg_k = 12;

    println!(
        "Figure 7: mixed workload — writers + {readers} background readers (1 ms pauses), k = 4096, stream = {uniques}\n"
    );

    let configs: Vec<ThetaImpl> = vec![
        ThetaImpl::concurrent(1),
        ThetaImpl::concurrent(2),
        ThetaImpl::LockBased { threads: 1 },
        ThetaImpl::LockBased { threads: 2 },
    ];

    let mut table = Table::new(&[
        "implementation",
        "write-only (Mops/s)",
        "with readers (Mops/s)",
        "slowdown",
        "queries served",
    ]);
    // Median over trials: the write-only and mixed measurements alternate
    // so slow machine phases hit both alike.
    let median = |mut v: Vec<u128>| -> f64 {
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    for impl_ in configs {
        let mut wo_ns: Vec<u128> = Vec::new();
        let mut mix_ns: Vec<u128> = Vec::new();
        let mut total_q: u64 = 0;
        for n in 0..trials {
            wo_ns.push(drivers::time_write_only(impl_, lg_k, uniques, n).as_nanos());
            let r = drivers::time_mixed(impl_, lg_k, uniques, readers, pause, n);
            mix_ns.push(r.write_duration.as_nanos());
            total_q += r.queries;
        }
        let write_only = 1e3 / (median(wo_ns) / uniques as f64);
        let with_readers = 1e3 / (median(mix_ns) / uniques as f64);
        let queries = total_q / trials;
        table.row(&[
            impl_.label(),
            mops(write_only),
            mops(with_readers),
            format!("{:.1}%", (1.0 - with_readers / write_only) * 100.0),
            queries.to_string(),
        ]);
    }
    println!("{}", table.render());
    let path = format!("{}/figure7.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
    println!("\nexpected: near-zero slowdown for the concurrent sketch;");
    println!("~10% slowdown for lock-based (paper: 25 → 23 Mops/s single writer).");
}
