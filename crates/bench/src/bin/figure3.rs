//! Figure 3: the strong adversary's decision regions over the joint
//! values of `M₍ₖ₎` and `M₍ₖ₊ᵣ₎`.
//!
//! For each feasible pair (the white region `x > y` is infeasible since
//! `M₍ₖ₎ ≤ M₍ₖ₊ᵣ₎`), the adversary compares `|est(M₍ₖ₎) − n|` with
//! `|est(M₍ₖ₊ᵣ₎) − n|`: where the latter wins it hides `r` elements
//! (Θ = `M₍ₖ₊ᵣ₎`, dark gray in the paper), elsewhere it hides none
//! (Θ = `M₍ₖ₎`, light gray). The binary emits the region grid as CSV and
//! prints an ASCII rendering.
//!
//! Usage: `cargo run --release -p fcds-bench --bin figure3 [--full]`

use fcds_bench::report::{HarnessArgs, Table};
use fcds_relaxation::adversary::{strong_prefers_hiding, AdversaryParams};

fn main() {
    let args = HarnessArgs::parse("results");
    let params = AdversaryParams::table1();
    let grid = if args.full { 120 } else { 48 };
    // The interesting range of Θ is around k/n = 2^10/2^15 = 1/32 ≈ 0.031.
    let center = params.k as f64 / params.n as f64;
    let (lo, hi) = (0.5 * center, 1.6 * center);

    println!(
        "Figure 3: strong-adversary regions, k = {}, r = {}, n = {} (Θ* = k/n = {:.4})",
        params.k, params.r, params.n, center
    );
    println!("x-axis: M(k); y-axis: M(k+r); grid {grid}x{grid} over [{lo:.4}, {hi:.4}]\n");

    let mut table = Table::new(&["m_k", "m_k_r", "region"]);
    let step = (hi - lo) / grid as f64;
    let mut rows_ascii: Vec<String> = Vec::new();
    for iy in (0..grid).rev() {
        let y = lo + (iy as f64 + 0.5) * step;
        let mut line = String::new();
        for ix in 0..grid {
            let x = lo + (ix as f64 + 0.5) * step;
            let ch = if x > y {
                ' ' // infeasible: M(k) ≤ M(k+r)
            } else if strong_prefers_hiding(params, x, y) {
                '#' // Θ = M(k+r): adversary hides r elements (dark gray)
            } else {
                '.' // Θ = M(k) (light gray)
            };
            line.push(ch);
            if x <= y {
                table.row(&[
                    format!("{x:.5}"),
                    format!("{y:.5}"),
                    (if ch == '#' { "hide_r" } else { "hide_0" }).to_string(),
                ]);
            }
        }
        rows_ascii.push(line);
    }
    for l in &rows_ascii {
        println!("{l}");
    }
    println!(
        "\nlegend: '#' = g(0,r) = r (Θ = M(k+r)), '.' = g(0,r) = 0 (Θ = M(k)), blank = infeasible"
    );
    let path = format!("{}/figure3.csv", args.out_dir);
    table.write_csv(&path).expect("write csv");
    println!("wrote {path}");
}
