//! Table 1: error analysis of the relaxed Θ sketch — closed forms and
//! Monte-Carlo numerics for the sequential sketch, the strong adversary
//! `A_s`, and the weak adversary `A_w` (`r = 8`, `k = 2¹⁰`, `n = 2¹⁵`).
//!
//! Usage: `cargo run --release -p fcds-bench --bin table1 [--full]`

use fcds_bench::report::{pct, HarnessArgs, Table};
use fcds_relaxation::adversary::{simulate, AdversaryParams};
use fcds_relaxation::orderstats;

fn main() {
    let args = HarnessArgs::parse("results");
    let trials = if args.full { 100_000 } else { 20_000 };
    let params = AdversaryParams::table1();
    let (n, k, r) = (params.n, params.k as u64, params.r as u64);

    println!(
        "Table 1: Θ sketch error under relaxation (r = {r}, k = 2^10 = {k}, n = 2^15 = {n}); {trials} trials\n"
    );
    let res = simulate(params, trials, 0xFCD5);

    let mut t = Table::new(&["quantity", "sequential", "strong A_s", "weak A_w"]);
    t.row(&[
        "closed-form E".into(),
        format!("{n} (unbiased)"),
        "-".into(),
        format!(
            "{:.0}  (n(k-1)/(k+r-1))",
            orderstats::expected_estimate(n, k, r)
        ),
    ]);
    t.row(&[
        "measured E".into(),
        format!("{:.0}", res.sequential.mean),
        format!("{:.0}", res.strong.mean),
        format!("{:.0}", res.weak.mean),
    ]);
    t.row(&[
        "measured E / n".into(),
        format!("{:.4}", res.sequential.mean / n as f64),
        format!("{:.4}", res.strong.mean / n as f64),
        format!("{:.4}", res.weak.mean / n as f64),
    ]);
    t.row(&[
        "closed-form RSE bound".into(),
        pct(1.0 / ((k as f64) - 2.0).sqrt()),
        "-".into(),
        pct(orderstats::weak_adversary_rse_bound(k as usize, r as usize)),
    ]);
    t.row(&[
        "measured RSE".into(),
        pct(res.sequential.rse),
        pct(res.strong.rse),
        pct(res.weak.rse),
    ]);
    t.row(&[
        "exact RSE (order stats)".into(),
        pct(orderstats::rse_estimate(n, k, 0)),
        "-".into(),
        pct(orderstats::rse_estimate(n, k, r)),
    ]);
    println!("{}", t.render());
    let path = format!("{}/table1.csv", args.out_dir);
    t.write_csv(&path).expect("write csv");
    println!("wrote {path}");
    println!("\npaper's numerics: sequential RSE ≤ 3.1%, strong ≤ 3.8%,");
    println!("strong expectation ≈ 2^15 · 0.995; weak E = n(k−1)/(k+r−1), RSE ≤ 2/√(k−2) = 6.3%.");
}
