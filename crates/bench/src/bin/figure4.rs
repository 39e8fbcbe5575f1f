//! Figure 4: the distributions of the sequential estimator `e` and the
//! weak-adversary estimator `e_Aw` (`n = 2¹⁵`, `k = 2¹⁰`, `r = 8`).
//!
//! The paper shows two nearby bell curves: `e` centred on `n`, `e_Aw`
//! shifted left (the adversary hides small elements, inflating Θ and
//! deflating the estimate). The binary prints histograms and emits the
//! binned densities as CSV.
//!
//! Usage: `cargo run --release -p fcds-bench --bin figure4 [--full]`

use fcds_bench::report::{HarnessArgs, Table};
use fcds_relaxation::adversary::{simulate, AdversaryParams};

fn main() {
    let args = HarnessArgs::parse("results");
    let trials = if args.full { 200_000 } else { 40_000 };
    let params = AdversaryParams::table1();
    let res = simulate(params, trials, 0xF16);

    let n = params.n as f64;
    let (lo, hi) = (0.85 * n, 1.15 * n);
    let bins = 41usize;
    let width = (hi - lo) / bins as f64;
    let mut h_seq = vec![0u64; bins];
    let mut h_weak = vec![0u64; bins];
    for t in &res.samples {
        for (v, h) in [(t.sequential, &mut h_seq), (t.weak, &mut h_weak)] {
            if v >= lo && v < hi {
                h[((v - lo) / width) as usize] += 1;
            }
        }
    }

    println!("Figure 4: distribution of e (sequential) and e_Aw (weak adversary)");
    println!(
        "n = {}, k = {}, r = {}, {trials} trials\n",
        params.n, params.k, params.r
    );
    let max_count = h_seq
        .iter()
        .chain(h_weak.iter())
        .copied()
        .max()
        .unwrap_or(1);
    let mut table = Table::new(&["bin_center/n", "density_e", "density_e_Aw"]);
    for i in 0..bins {
        let center = lo + (i as f64 + 0.5) * width;
        let bar = |c: u64| "█".repeat((c * 30 / max_count) as usize);
        println!(
            "{:>6.3}  e:{:<30}  eAw:{:<30}",
            center / n,
            bar(h_seq[i]),
            bar(h_weak[i])
        );
        table.row(&[
            format!("{:.4}", center / n),
            format!("{:.6}", h_seq[i] as f64 / trials as f64 / (width / n)),
            format!("{:.6}", h_weak[i] as f64 / trials as f64 / (width / n)),
        ]);
    }
    println!(
        "\nmeans: e = {:.0} ({}·n), e_Aw = {:.0} ({}·n)  — paper: e_Aw shifted left of e",
        res.sequential.mean,
        format_args!("{:.4}", res.sequential.mean / n),
        res.weak.mean,
        format_args!("{:.4}", res.weak.mean / n),
    );
    let path = format!("{}/figure4.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
}
