//! `fcds-benchmark`: four workloads over the embedded engine and the
//! served path. See `benchmark/README.md` for the metrics and `--help`
//! for the command line.

mod check;
mod gen;
mod measure;
mod metrics;
mod pace;
mod plan;
mod probes;
mod report;
mod run;
mod served;
mod stats;
mod sys;
mod trace;

use metrics::{Metric, END_TO_END, PER_LAYER};
use plan::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
fcds-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--repeat N] [--smoke]

  --workload NAME   run one of embed_theta, serve_bulk, serve_small, serve_mix once and
                    print its metrics, the last line as one JSON object; --trace 0 gives
                    the end-to-end metrics, --trace 1 the per-layer ones and writes
                    benchmark/out/trace-NAME.json
  (no --workload)   run all four: --repeat rounds untraced in alternating order, then one
                    traced round; print medians, quartiles and spreads between rounds
  --seed N          every generated input is a function of it (default 1)
  --seconds N       measured run per workload (default 20)
  --repeat N        untraced rounds when running all four (default 5)
  --smoke           all four, 2 s each, once untraced and once traced: checks only
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: 5,
        smoke: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let (flag, inline) = match word.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (word, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| words.next())
                .ok_or(format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: {v} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--repeat" => args.repeat = number(value()?)? as usize,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(HELP.to_string()),
            other => return Err(format!("unknown argument {other}\n{HELP}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".into());
    }
    Ok(args)
}

/// Spans and temporary snapshot directories go here: `benchmark/out/`,
/// relative to the repository root the command is run from.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// How the load is generated, stamped on every output.
fn loop_description(spec: &Spec) -> String {
    let ingest = if spec.embedded {
        format!(
            "1 writer thread, ingest_batch({}) + flush",
            spec.items_per_op
        )
    } else {
        format!(
            "1 connection, {} items/frame, waits for each Ack, sends a refused frame again",
            spec.items_per_op
        )
    };
    let query = if spec.embedded {
        " of 1000 estimate() calls"
    } else {
        ""
    };
    format!(
        "ingest: closed loop ({ingest}); query: open loop, {}/s{query}, timed from due time",
        spec.queries_per_s
    )
}

fn run_one(spec: &'static Spec, args: &Args) -> Result<bool, String> {
    if sys::nproc() < measure::CLIENT_THREADS as usize {
        eprintln!(
            "warning: {} client threads on {} processor(s): the generator competes with itself",
            measure::CLIENT_THREADS,
            sys::nproc()
        );
    }
    println!(
        "# {} seed={} seconds={} trace={} | {}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        loop_description(spec)
    );
    println!("# {{{}}}", sys::stamp_json());
    let outcome = run::run(spec, args.seed, args.seconds, args.trace, &out_dir()?)?;
    let listed: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut entries = Vec::new();
    for metric in listed {
        // A layer off the workload's path was not measured and reads 0;
        // an end-to-end metric is defined on every workload.
        let value = match outcome.values.get(metric.name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("{} was not measured", metric.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is {value}", metric.name));
        }
        entries.push((metric, value));
    }
    for failure in &outcome.checks.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = outcome.checks.failures.is_empty();
    if correct {
        for (metric, value) in &entries {
            println!(
                "{:<44} {value:>16.4} {:<8} ({} is better)",
                metric.name, metric.unit, metric.better
            );
        }
        for note in &outcome.notes {
            println!("# {note}");
        }
    } else {
        entries.clear();
    }
    println!(
        "{}",
        report::result_json(correct, outcome.attempted.max(1), outcome.failed, &entries)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let done = match &args.workload {
        Some(name) => match plan::spec(name) {
            Some(spec) => run_one(spec, &args),
            None => Err(format!(
                "no workload {name}; there are embed_theta, serve_bulk, serve_small, serve_mix"
            )),
        },
        None => report::run_all(args.seed, args.seconds, args.repeat, args.smoke),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
