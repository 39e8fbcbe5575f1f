//! Shard scaling: update-only throughput of the sharded engine as the
//! shard count K grows, for both propagation backends, against the K = 1
//! single-propagator baseline the paper's §7 evaluates.
//!
//! §7 of Rinberg et al. shows propagation through one thread `t0`
//! eventually bottlenecks as writers multiply; sharding multiplies the
//! propagation lanes without changing the `r = 2Nb` relaxation. Expect
//! the dedicated-thread column to grow with K (until propagators run out
//! of cores) and the writer-assisted column to trade a little peak
//! throughput for zero background threads. On a 1-CPU host all shapes
//! flatten — re-measure on real hardware before drawing conclusions.
//!
//! Usage: `cargo run --release -p fcds-bench --bin shard_scaling [--full] [--out=DIR]`

use fcds_bench::drivers::{self, ThetaImpl};
use fcds_bench::report::{mops, HarnessArgs, Table};
use fcds_core::PropagationBackendKind;

fn main() {
    let args = HarnessArgs::parse("results");
    let cores = std::thread::available_parallelism().map_or(4, |c| c.get());
    let writers = cores.max(2);
    let uniques: u64 = if args.full { 1 << 23 } else { 1 << 21 };
    let trials: u64 = if args.full { 16 } else { 4 };
    let lg_k = 12;

    let mut shard_counts: Vec<usize> = vec![1, 2, 4, 8, 16];
    shard_counts.retain(|&k| k <= writers);

    println!(
        "Shard scaling: k = 4096, {writers} writers, stream = {uniques} uniques, \
         {trials} trials per point"
    );
    println!("host parallelism: {cores} logical cores\n");

    let mut table = Table::new(&[
        "shards",
        "dedicated (Mops/s)",
        "writer-assisted (Mops/s)",
        "dedicated vs K=1",
    ]);
    let mut baseline = 0.0f64;
    for &k in &shard_counts {
        let run = |backend: PropagationBackendKind| -> f64 {
            let impl_ = ThetaImpl::sharded(writers, k, backend);
            let total_nanos: u128 = (0..trials)
                .map(|n| drivers::time_write_only(impl_, lg_k, uniques, n).as_nanos())
                .sum();
            let ns_per_update = total_nanos as f64 / (trials * uniques) as f64;
            1e3 / ns_per_update // million updates per second
        };
        let dedicated = run(PropagationBackendKind::DedicatedThread);
        let assisted = run(PropagationBackendKind::WriterAssisted);
        if k == 1 {
            baseline = dedicated;
        }
        table.row(&[
            k.to_string(),
            mops(dedicated),
            mops(assisted),
            format!("{:.2}x", dedicated / baseline),
        ]);
    }
    println!("{}", table.render());
    let path = format!("{}/shard_scaling.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
    println!("expected shape (multi-core): dedicated column grows with K while");
    println!("propagation is the bottleneck, then flattens; writer-assisted tracks");
    println!("it within a constant factor with zero background threads.");
}
