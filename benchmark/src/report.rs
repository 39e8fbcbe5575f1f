//! The result line of one run, and the all-workloads report.
//!
//! The report runs every workload as a child process of its own, the
//! very command the driver runs, so that a memory high-water mark or a
//! warm cache of one workload never leaks into the next.

use crate::metrics::{Metric, END_TO_END};
use crate::plan::SPECS;
use crate::stats::{median, quartiles};
use crate::sys;
use std::collections::BTreeMap;
use std::process::Command;

/// The last line a run prints.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&Metric, f64)],
) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    )
}

/// What a child run reported.
#[derive(Debug, Default, PartialEq)]
pub struct Reported {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Reads back a line written by [`result_json`].
pub fn parse_result(line: &str) -> Option<Reported> {
    let field = |name: &str| {
        let rest = &line[line.find(&format!("\"{name}\": "))? + name.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut reported = Reported {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics: Vec::new(),
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        let name = &name[name.rfind('"')? + 1..];
        reported
            .metrics
            .push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(reported)
}

struct Child {
    reported: Reported,
    /// The `# ...` note lines the run printed.
    notes: Vec<String>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    eprint!("{stderr}");
    let reported = stdout
        .lines()
        .last()
        .and_then(parse_result)
        .ok_or(format!("{workload} printed no result ({})", output.status))?;
    Ok(Child {
        reported,
        notes: stdout
            .lines()
            .skip(2)
            .filter_map(|l| l.strip_prefix("# "))
            .map(str::to_string)
            .collect(),
    })
}

/// Runs all four workloads: `repeat` untraced rounds in alternating
/// order, then one traced round. Returns whether every check passed.
pub fn run_all(seed: u64, seconds: f64, repeat: usize, smoke: bool) -> Result<bool, String> {
    let (seconds, repeat) = if smoke { (2.0, 1) } else { (seconds, repeat) };
    println!("# fcds-benchmark seed={seed} seconds={seconds} repeat={repeat}");
    println!("# {{{}}}", sys::stamp_json());
    let mut all_correct = true;
    // workload → metric → one value per round.
    let mut rounds: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut ops: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for round in 0..repeat {
        let mut order: Vec<_> = SPECS.iter().collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for spec in order {
            let run = child(spec.name, seed, seconds, false)?;
            all_correct &= run.reported.correct;
            println!(
                "round {round} {:<12} trace=0 {}",
                spec.name,
                if run.reported.correct { "ok" } else { "FAILED" }
            );
            let (attempted, failed) = ops.entry(spec.name).or_default();
            *attempted += run.reported.attempted;
            *failed += run.reported.failed;
            for (name, value, _) in run.reported.metrics {
                rounds
                    .entry(spec.name)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }
    let mut traced = Vec::new();
    for spec in &SPECS {
        let run = child(spec.name, seed, seconds, true)?;
        all_correct &= run.reported.correct;
        println!(
            "traced  {:<12} trace=1 {}",
            spec.name,
            if run.reported.correct { "ok" } else { "FAILED" }
        );
        traced.push((spec, run));
    }
    if smoke || !all_correct {
        return Ok(all_correct);
    }

    println!("\n## End-to-end (untraced), median over {repeat} round(s) [q1 .. q3] spread");
    for spec in &SPECS {
        let (attempted, failed) = ops[spec.name];
        println!(
            "\n{}: {}\n  {}\n  failed_share {} ({failed} of {attempted} ops)",
            spec.name,
            spec.why,
            crate::loop_description(spec),
            failed as f64 / attempted as f64
        );
        for metric in &END_TO_END {
            let values = &rounds[spec.name][metric.name];
            let spread = if values.len() >= 2 {
                let (q1, q3) = quartiles(values);
                format!(
                    "[{q1:.4} .. {q3:.4}] spread {:.1}%",
                    (q3 - q1) / median(values) * 100.0
                )
            } else {
                String::new()
            };
            println!(
                "  {:<22} {:>16.4} {:<4} {spread}",
                metric.name,
                median(values),
                metric.unit
            );
        }
    }
    println!("\n## Per layer (traced run)");
    for (spec, run) in &traced {
        println!("\n{}", spec.name);
        for (name, value, unit) in &run.reported.metrics {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        for note in &run.notes {
            println!("  # {note}");
        }
    }
    println!("\n## How the workloads separate");
    let layer = |workload: &str, name: &str| {
        traced
            .iter()
            .find(|(spec, _)| spec.name == workload)
            .and_then(|(_, run)| run.reported.metrics.iter().find(|(n, _, _)| n == name))
            .map_or(0.0, |(_, v, _)| *v)
    };
    for workload in ["serve_bulk", "serve_small"] {
        let ack = layer(workload, "client.ingest_ack_p50_us");
        let rtt = layer(workload, "server.client.ping_rtt_us_p50");
        println!(
            "  {workload}: per-frame share of client.ingest_ack_p50_us = ping rtt {rtt:.2} / ack {ack:.2} = {:.2}",
            rtt / ack
        );
    }
    for prefix in ["server.", "sketches.wire.", "server.persist."] {
        let nonzero: Vec<String> = traced
            .iter()
            .map(|(spec, run)| {
                let n = run
                    .reported
                    .metrics
                    .iter()
                    .filter(|(name, value, _)| name.starts_with(prefix) && *value != 0.0)
                    .count();
                format!("{} {n}", spec.name)
            })
            .collect();
        println!("  non-zero {prefix}* metrics: {}", nonzero.join(", "));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn a_result_line_reads_back() {
        let metrics = [
            (&END_TO_END[0], 0.8127),
            (&PER_LAYER[6], 0.0),
            (&END_TO_END[1], 1.5e7),
        ];
        let line = result_json(true, 1000, 3, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 3, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, "));
        let back = parse_result(&line).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (true, 1000, 3));
        assert_eq!(
            back.metrics,
            vec![
                ("setup_s".to_string(), 0.8127, "s".to_string()),
                (
                    "core.engine.wire_image_us.theta".to_string(),
                    0.0,
                    "us".to_string()
                ),
                ("ingest_items_per_s".to_string(), 1.5e7, "1/s".to_string()),
            ]
        );
        let empty = parse_result(&result_json(false, 1, 0, &[])).unwrap();
        assert_eq!((empty.correct, empty.metrics.len()), (false, 0));
    }
}
