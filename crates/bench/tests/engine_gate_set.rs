//! Pins the set of gates `engine_gates` declares in `BENCH_engine.json`,
//! so a renamed, dropped or re-directed gate fails tier-1 rather than
//! the CI bench leg: exactly the twelve ratio-and-count checks, no speed
//! gate, and each one trips alone when its measurement is doctored.

// The binary's own source, as a module: its sections' gate tables and
// its `render` are what is pinned here (the measuring halves ride along
// unused).
#[allow(dead_code)]
#[path = "../src/bin/engine_gates/main.rs"]
mod engine_gates;

use engine_gates::{fanin, ingest_hot, prop_cost, quantiles_prop, render, Section};
use fcds_bench::gate::{check_doc, render_gates, Bound};

const GATES: [&str; 12] = [
    "lg_k16_delta_vs_no_image_ratio",
    "lg_k16_whole_copy_vs_delta_ratio",
    "hll_large_vs_small_ratio",
    "frequency_large_vs_small_ratio",
    "ladder_vs_rebuild_speedup_large",
    "ladder_flatness_ratio",
    "sort_u64_vs_std_speedup",
    "batched_vs_scalar_hint_speedup",
    "batched_vs_scalar_shipall_speedup",
    "theta_multiway_speedup_f32",
    "hll_multiway_speedup_f32",
    "warm_allocs_per_merge",
];

/// The sections of a run on a healthy build: every figure is what the
/// reference box reads.
fn healthy() -> [Section; 4] {
    let section = |name, gates| Section {
        name,
        rows: vec![format!(
            "{{\"section\": \"{name}\", \"per_merge_ns\": 1.0}}"
        )],
        gates,
    };
    [
        section("prop_cost", prop_cost::gates(2.5, 210.0, 0.98, 3.2)),
        section("quantiles_prop", quantiles_prop::gates(48.0, 0.9, 3.1)),
        section("ingest_hot", ingest_hot::gates(1.0, 1.1)),
        section("fanin", fanin::gates(6.7, 4.0, 0.0)),
    ]
}

#[test]
fn bench_engine_declares_exactly_the_twelve_ratio_and_count_gates() {
    let doc = render(2, &healthy());
    let checks = check_doc(&doc).expect("BENCH_engine.json must satisfy bench_gate's contract");
    let names: Vec<&str> = checks.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, GATES);
    for check in &checks {
        assert!(check.passed(), "healthy run tripped {check}");
        assert!(
            !["mops", "per_s", "per_sec"]
                .iter()
                .any(|unit| check.name.contains(unit)),
            "{} is a speed gate; benchmark/ owns those",
            check.name
        );
    }
}

#[test]
fn a_doctored_measurement_fails_its_own_gate_and_no_other() {
    let table: Vec<_> = healthy().into_iter().flat_map(|s| s.gates).collect();
    for doctored in 0..table.len() {
        let mut rows = table.clone();
        rows[doctored].value = match rows[doctored].bound {
            Bound::Min => rows[doctored].threshold - 1.0,
            Bound::Max => rows[doctored].threshold + 1.0,
        };
        let checks = check_doc(&format!("{{{}}}", render_gates(&rows))).unwrap();
        for (i, check) in checks.iter().enumerate() {
            assert_eq!(
                check.passed(),
                i != doctored,
                "doctored {doctored}: {check}"
            );
        }
    }
}
