//! The engine's CI measurement leg: four sections, one `BENCH_engine.json`.
//!
//! The paper's O(b)-per-merge propagation argument (Algorithm 2, §5.2)
//! and the fan-in kernels are checked here as cost *ratios* and one
//! allocation count — never as a speed: how fast the engine is belongs to
//! `benchmark/`, what a sketch estimates to the tier-1 tests. Each
//! section module measures its rows and returns them with its rows of
//! the gate table, the threshold written beside the measurement it cuts
//! (`gates` in [`prop_cost`], [`quantiles_prop`], [`ingest_hot`],
//! [`fanin`]); every gated quotient is taken between sides timed
//! interleaved by the one loop `fcds_bench::workload::time_interleaved`.
//! [`render`] writes the sections and the `"acceptance"`/`"thresholds"`
//! members `bench_gate` enforces.
//!
//! Usage: `cargo run --release -p fcds-bench --bin engine_gates
//! [--out=DIR]` (writes `<out>/BENCH_engine.json`, default the working
//! directory — where `bench_gate` looks for it).

pub mod fanin;
pub mod ingest_hot;
pub mod prop_cost;
pub mod quantiles_prop;

use fcds_bench::gate::{render_gates, GateCheck};
use fcds_bench::report::HarnessArgs;

/// What one section measured: its rows (one JSON object each) and its
/// rows of the gate table.
pub struct Section {
    pub name: &'static str,
    pub rows: Vec<String>,
    pub gates: Vec<GateCheck>,
}

/// The full `BENCH_engine.json` document.
pub fn render(cores: usize, sections: &[Section]) -> String {
    let mut out = format!("{{\n  \"schema\": \"fcds-bench-engine-v1\",\n  \"cores\": {cores},\n");
    for section in sections {
        let rows: Vec<String> = section.rows.iter().map(|r| format!("    {r}")).collect();
        out += &format!("  \"{}\": [\n{}\n  ],\n", section.name, rows.join(",\n"));
    }
    let gates: Vec<GateCheck> = sections.iter().flat_map(|s| s.gates.clone()).collect();
    out + "  " + &render_gates(&gates) + "\n}\n"
}

fn main() {
    let args = HarnessArgs::parse(".");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let sections = [
        prop_cost::run(),
        quantiles_prop::run(),
        ingest_hot::run(),
        fanin::run(),
    ];
    let json = render(cores, &sections);
    let path = format!("{}/BENCH_engine.json", args.out_dir);
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    std::fs::write(&path, &json).expect("write BENCH_engine.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
