//! Figure 6: write-only throughput vs stream size (`k = 4096`,
//! `e = 0.04`), log-log (6a) with a zoom on large streams (6b).
//!
//! Curves: concurrent sketch with 1, 2, 4 (…, up to the host's cores)
//! writers vs the lock-based baseline with 1 and 12 threads. Expected
//! shape (§7.2): lock-based wins on small streams; the concurrent sketch
//! overtakes past a few hundred thousand uniques (the paper's crossing:
//! ~200K for ≥4 threads, ~700K for a single writer) and scales with
//! writers on large streams.
//!
//! Usage: `cargo run --release -p fcds-bench --bin figure6 [--full]`

use fcds_bench::drivers::ThetaImpl;
use fcds_bench::profiles::SpeedProfile;
use fcds_bench::report::{mops, HarnessArgs, Table};

fn main() {
    let args = HarnessArgs::parse("results");
    let cores = std::thread::available_parallelism().map_or(4, |c| c.get());
    let lg_k = 12;
    let profile = if args.full {
        SpeedProfile::full(lg_k)
    } else {
        SpeedProfile::quick(lg_k)
    };

    let mut impls: Vec<ThetaImpl> = vec![ThetaImpl::concurrent(1)];
    for w in [2usize, 4, 8, 12] {
        if w <= cores {
            impls.push(ThetaImpl::concurrent(w));
        }
    }
    impls.push(ThetaImpl::LockBased { threads: 1 });
    if 12 <= cores {
        impls.push(ThetaImpl::LockBased { threads: 12 });
    } else if cores >= 2 {
        impls.push(ThetaImpl::LockBased { threads: cores });
    }

    println!(
        "Figure 6: write-only throughput (Mops/s) vs stream size, k = 4096, e = 0.04 (host: {cores} cores)\n"
    );
    let mut header: Vec<String> = vec!["uniques".into()];
    header.extend(impls.iter().map(|i| i.label()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let runs: Vec<Vec<fcds_bench::profiles::SpeedPoint>> =
        impls.iter().map(|&i| profile.run(i)).collect();
    let n_points = runs[0].len();
    for idx in 0..n_points {
        let mut row = vec![runs[0][idx].uniques.to_string()];
        for r in &runs {
            row.push(mops(r[idx].mops()));
        }
        table.row(&row);
    }
    println!("{}", table.render());
    let path = format!("{}/figure6.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");

    // Figure 6b: the zoom — report the large-stream end and the crossing
    // point of concurrent(1w) over lock-based(1t).
    let conc1 = &runs[0];
    let lock1 = runs[impls
        .iter()
        .position(|i| matches!(i, ThetaImpl::LockBased { threads: 1 }))
        .unwrap()]
    .clone();
    // A sustained crossing: concurrent stays ahead for every larger size.
    let crossing = (0..conc1.len())
        .find(|&i| (i..conc1.len()).all(|j| conc1[j].mops() > lock1[j].mops()))
        .map(|i| conc1[i].uniques);
    println!(
        "\nFigure 6b (zoom): at {} uniques —",
        conc1.last().unwrap().uniques
    );
    for (i, r) in impls.iter().zip(&runs) {
        println!(
            "  {:<24} {} Mops/s",
            i.label(),
            mops(r.last().unwrap().mops())
        );
    }
    match crossing {
        Some(x) => println!(
            "\ncrossing point (concurrent 1w > lock-based 1t): ~{x} uniques (paper: ~700K)"
        ),
        None => println!("\nno crossing in measured range (increase --full range)"),
    }
}
