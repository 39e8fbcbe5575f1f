//! One run of one workload: set-up, the measured run, the checks, and
//! the metrics computed from what was measured.

use crate::check::Checks;
use crate::measure::{measure, Measured, OpLog, Readings, Until, CLIENT_THREADS};
use crate::pace::{now_ns, Tick};
use crate::plan::{build_engine, Lane, Plan, Spec, WARMUP_ITEMS};
use crate::served::{self, Served};
use crate::stats::{median, percentile, quartiles};
use crate::trace::{
    Tracer, CLIENT_SEND, CLIENT_WAIT, ENGINE_ESTIMATE, ENGINE_FLUSH, ENGINE_INGEST, OP_INGEST,
    OP_QUERY,
};
use crate::{probes, sys};
use fcds_server::{serve, ServerConfig};
use fcds_sketches::wire::SketchFamily;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const PINGS: usize = 2000;
/// `estimate()` calls per query op of `embed_theta`. One call takes
/// 3.5 ns, a tenth of reading the clock: timed alone, the latency is the
/// harness's own (0.3 to 0.5 µs, drifting with the host's cache topology).
const ESTIMATES_PER_QUERY: usize = 1000;

pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Lines for a reader: sample counts, quartiles, the budget.
    pub notes: Vec<String>,
}

/// Runs `spec` once. `Err` is a failure to run at all (no port, no
/// disk); a run that ran but answered wrongly is an `Outcome` with
/// failed checks.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    sys::run_on_system_cpus();
    let plan = Plan::new(spec, seed);
    let mut outcome = Outcome {
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
        values: BTreeMap::new(),
        notes: Vec::new(),
    };
    let mut run = if spec.embedded {
        embedded(&plan, seconds, trace, &mut outcome)?
    } else {
        over_loopback(&plan, seconds, trace, out_dir, &mut outcome)?
    };
    let measured = &mut run.measured;
    outcome.attempted = measured.ingest.attempted + measured.query.attempted;
    outcome.failed = measured.ingest.failed + measured.query.failed;
    outcome.checks.require(
        measured.ingest.untyped + measured.query.untyped == 0,
        || "a reply was neither the expected type nor a NACK".into(),
    );
    if trace {
        per_layer(&plan, &mut run, &mut outcome);
        let head = format!(
            "{},\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"counts\":{{{}}}",
            sys::stamp_json(),
            spec.name,
            run.counts
                .iter()
                .map(|(name, count)| format!("\"{name}\":{count}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let path = out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, run.tracer.json(&head))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome
            .notes
            .push(format!("spans written to {}", path.display()));
    } else {
        end_to_end(&mut run, &mut outcome)?;
    }
    Ok(outcome)
}

/// What a run leaves behind for the metrics.
struct Ran {
    measured: Measured,
    setup_s: Vec<f64>,
    /// Ingest and query spans of the traced windows, merged.
    tracer: Tracer,
    /// Boundary counts, written beside the spans.
    counts: Vec<(&'static str, u64)>,
}

impl Ran {
    fn new(mut measured: Measured, setup_s: Vec<f64>) -> Ran {
        let mut tracer = std::mem::replace(&mut measured.ingest.tracer, Tracer::new(0));
        tracer.absorb(std::mem::replace(
            &mut measured.query.tracer,
            Tracer::new(0),
        ));
        Ran {
            measured,
            setup_s,
            tracer,
            counts: Vec::new(),
        }
    }
}

fn embedded(plan: &Plan, seconds: f64, trace: bool, outcome: &mut Outcome) -> Result<Ran, String> {
    let spec = plan.spec;
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        let started = Instant::now();
        // One writer thread, but sized for the server's two workers, so
        // this is the engine the default stream runs.
        let engine = build_engine(SketchFamily::Theta, ServerConfig::default().ingest_workers);
        let mut writer = engine.writer();
        let mut lane = Lane::new(plan, 0);
        let mut batch = vec![0u64; spec.items_per_op];
        while lane.batches * (spec.items_per_op as u64) < WARMUP_ITEMS {
            lane.next_batch(plan, &mut batch);
            writer.ingest_batch(&batch);
            writer
                .flush()
                .map_err(|e| format!("warm-up flush: {e:?}"))?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some((engine, writer, lane, batch));
    }
    let (engine, mut writer, mut lane, mut batch) = last.expect("at least one set-up");

    // Items whose flush returned / items handed to `ingest_batch`.
    let applied = AtomicU64::new(lane.batches * spec.items_per_op as u64);
    let handed = AtomicU64::new(applied.load(Ordering::Relaxed));
    let ingest_op = |log: &mut OpLog, tracing: bool| {
        let start_ns = if tracing { now_ns() } else { 0 };
        lane.next_batch(plan, &mut batch);
        log.attempted += 1;
        handed.fetch_add(batch.len() as u64, Ordering::Release);
        let call_ns = now_ns();
        writer.ingest_batch(&batch);
        let ingested_ns = if tracing { now_ns() } else { 0 };
        let flushed = writer.flush();
        let done_ns = now_ns();
        if flushed.is_err() {
            log.failed += 1;
            return false;
        }
        applied.fetch_add(batch.len() as u64, Ordering::Release);
        log.latency_ns.record(done_ns - call_ns);
        if tracing {
            log.tracer.record_op(
                OP_INGEST,
                (start_ns, done_ns),
                &[
                    (ENGINE_INGEST, call_ns, ingested_ns),
                    (ENGINE_FLUSH, ingested_ns, done_ns),
                ],
            );
        }
        true
    };
    let query_op = |log: &mut OpLog, tick: &Tick, tracing: bool| {
        log.attempted += 1;
        let mut estimate = None;
        for _ in 0..ESTIMATES_PER_QUERY {
            estimate = std::hint::black_box(engine.estimate());
        }
        let done_ns = now_ns();
        if estimate.is_none() {
            log.failed += 1;
            return;
        }
        log.latency_ns.record(done_ns - tick.due_ns);
        if tracing {
            log.tracer.record_op(
                OP_QUERY,
                (tick.start_ns, done_ns),
                &[(ENGINE_ESTIMATE, tick.start_ns, done_ns)],
            );
        }
    };
    let readings = Readings {
        acked: &handed,
        applied: || applied.load(Ordering::Acquire),
        snapshot_lag: || 0,
    };
    let measured = measure(
        Until::Seconds(seconds),
        trace,
        spec.queries_per_s,
        readings,
        ingest_op,
        query_op,
    );
    if measured.cut_short {
        return Err("a flush failed and the writer stopped before the run ended".into());
    }

    drop(writer);
    engine.quiesce();
    let stream = String::from_utf8_lossy(&plan.lanes[0].1).into_owned();
    outcome.checks.count(
        &stream,
        SketchFamily::Theta,
        engine.estimate().unwrap_or(0.0),
        lane.items_held(plan),
    );
    outcome.checks.require(
        applied.load(Ordering::Acquire) == lane.items_held(plan),
        || "items flushed and items generated differ".into(),
    );
    let ran = Ran::new(measured, setup_s);
    outcome
        .checks
        .require(ran.tracer.count_prefix("server.") == 0, || {
            "embed_theta recorded a server.* span".into()
        });
    Ok(ran)
}

fn over_loopback(
    plan: &Plan,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    outcome: &mut Outcome,
) -> Result<Ran, String> {
    let spec = plan.spec;
    let values = &mut outcome.values;
    let mut setup_s = Vec::new();
    let mut last: Option<Served> = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some(served) = last.take() {
            served.tear_down();
        }
        let started = Instant::now();
        last = Some(served::set_up(plan, out_dir)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut served = last.expect("at least one set-up");
    if trace {
        values.insert(
            "server.client.ping_rtt_us_p50".into(),
            served.ingest.ping_rtt_us_p50(PINGS)?,
        );
    }

    let before = served.handle.stats();
    let measured = served.drive(Until::Seconds(seconds), trace);
    if measured.cut_short {
        served.tear_down();
        return Err("the ingest connection was lost before the run ended".into());
    }
    let acked = served.ingest.acked.clone();
    let mut ran = Ran::new(measured, setup_s);
    served.wait_applied()?;
    let after = served.handle.stats();
    let image_bytes = served
        .query
        .check_final(&mut outcome.checks, &served.ingest.lanes)?;

    ran.counts = vec![
        ("frames_in", after.frames_in - before.frames_in),
        ("frames_out", after.frames_out - before.frames_out),
        (
            "ingest_batches",
            after.ingest_batches - before.ingest_batches,
        ),
        ("ingest_items", after.ingest_items - before.ingest_items),
        (
            "merges_accepted",
            after.merges_accepted - before.merges_accepted,
        ),
        ("sheds", after.sheds - before.sheds),
        ("nacks", after.nacks - before.nacks),
        (
            "snapshots_written",
            after.snapshots_written - before.snapshots_written,
        ),
        (
            "snapshot_errors",
            after.snapshot_errors - before.snapshot_errors,
        ),
    ];
    let count = |name: &str| {
        ran.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, c)| *c as f64)
    };
    let ingest_frames = ran.measured.ingest.attempted as f64 - count("merges_accepted");
    for name in [
        "frames_in",
        "ingest_batches",
        "merges_accepted",
        "sheds",
        "nacks",
    ] {
        values.insert(format!("server.serve.{name}"), count(name));
    }
    values.insert(
        "server.serve.shed_share".into(),
        count("sheds") / ingest_frames,
    );
    values.insert(
        "server.serve.threads".into(),
        ran.measured.peak_threads.saturating_sub(CLIENT_THREADS) as f64,
    );
    values.insert(
        "server.serve.snapshot_lag_items_max".into(),
        ran.measured.snapshot_lag_max as f64,
    );
    if spec.mix {
        values.insert(
            "server.persist.snapshots_written".into(),
            count("snapshots_written"),
        );
        values.insert(
            "server.persist.snapshot_errors".into(),
            count("snapshot_errors"),
        );
        for (family, bytes) in &image_bytes {
            values.insert(
                format!("sketches.wire.image_bytes.{}", family.name()),
                *bytes as f64,
            );
        }
    }

    // Nothing is lost after an Ack: once drained, the server has
    // applied exactly the items it acked.
    let acked_items = acked.load(Ordering::Acquire);
    // The restart below reads the snapshots, so they outlive the server.
    let data_dir = served.data_dir.take();
    let report = served.tear_down();
    outcome
        .checks
        .require(report.stats.ingest_items == acked_items, || {
            format!(
                "{} items acked, {} applied at shutdown",
                acked_items, report.stats.ingest_items
            )
        });
    outcome.checks.require(report.leaked_threads == 0, || {
        "the server leaked a thread".into()
    });

    if let Some(dir) = &data_dir {
        if trace {
            let snapshot_bytes: u64 = std::fs::read_dir(dir)
                .map_err(|e| format!("list {}: {e}", dir.display()))?
                .filter_map(|entry| entry.ok()?.metadata().ok())
                .map(|meta| meta.len())
                .sum();
            // Every stream is rewritten each round, so the bytes written
            // are the snapshots written times the mean record.
            let streams = plan.lanes.len() as f64 + 1.0;
            values.insert(
                "server.persist.bytes_per_s".into(),
                count("snapshots_written") * snapshot_bytes as f64 / streams / seconds,
            );
            values.insert(
                "server.recover.boot_ms".into(),
                boot_ms(plan, dir, &mut outcome.checks)?,
            );
            probes::put(dir, values)?;
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(ran)
}

/// Restarts a server on the snapshots the run left and times it to the
/// first good answer from every stream.
fn boot_ms(plan: &Plan, dir: &Path, checks: &mut Checks) -> Result<f64, String> {
    let started = Instant::now();
    let handle = serve(ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("serve again: {e}"))?;
    let mut client =
        fcds_server::Client::connect(handle.local_addr(), std::time::Duration::from_secs(20))
            .map_err(|e| format!("connect again: {e}"))?;
    for (family, key) in &plan.lanes {
        let reply = client
            .query_stream_image(*family, key)
            .map_err(|e| format!("query after restart: {e}"))?;
        checks.require(matches!(reply, fcds_server::Reply::Image { .. }), || {
            format!(
                "{} was not recovered: {reply:?}",
                String::from_utf8_lossy(key)
            )
        });
    }
    let ms = started.elapsed().as_secs_f64() * 1e3;
    checks.require(
        handle
            .recovery_outcome()
            .is_some_and(|r| r.quarantined == 0),
        || "recovery quarantined a snapshot".into(),
    );
    drop(client);
    handle.shutdown();
    Ok(ms)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn end_to_end(run: &mut Ran, outcome: &mut Outcome) -> Result<(), String> {
    let m = &mut run.measured;
    let values = &mut outcome.values;
    let rates = m.window_rates(false, false);
    let (q1, q3) = quartiles(&rates);
    values.insert("setup_s".into(), median(&run.setup_s));
    values.insert("ingest_items_per_s".into(), median(&rates));
    outcome.notes.push(format!(
        "ingest_items_per_s: median of {} windows, quartiles {q1:.0} .. {q3:.0}; setup_s: median of {:?}",
        rates.len(),
        run.setup_s
    ));
    outcome.notes.push(format!(
        "windows, M items/s: {}",
        rates
            .iter()
            .map(|r| format!("{:.2}", r / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Latencies are per-layer metrics (`client.*`); an untraced run
    // prints them as notes, with the shape a median alone hides.
    for (what, log) in [("ingest_ack", &m.ingest), ("query", &m.query)] {
        let s = log
            .latency_ns
            .summarize()
            .ok_or(format!("no {what} completed"))?;
        outcome.notes.push(format!(
            "{what}: {} samples, p50 {:.3} us, p{} {:.3} us; deciles, us: {}",
            s.n,
            us(s.p50),
            s.tail_p,
            us(s.tail),
            log.latency_ns
                .deciles()
                .iter()
                .map(|d| format!("{:.1}", us(*d)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    outcome.notes.push(format!(
        "ingest: {} of {} ops had a frame refused (Overload, BreakerOpen) and sent it again",
        m.ingest.resent, m.ingest.attempted
    ));
    let (first, last) = (m.boundaries[0], m.boundaries[m.boundaries.len() - 1]);
    values.insert(
        "cpu_us_per_kitem".into(),
        (last.cpu_us - first.cpu_us) as f64 * 1e3 / (last.applied - first.applied).max(1) as f64,
    );
    values.insert("peak_rss_mb".into(), sys::peak_rss_mb());
    Ok(())
}

fn per_layer(plan: &Plan, run: &mut Ran, outcome: &mut Outcome) {
    let spec = plan.spec;
    let values = &mut outcome.values;
    probes::common(plan, values);

    let m = &mut run.measured;
    let untraced = median(&m.window_rates(true, false));
    let traced = median(&m.window_rates(true, true));
    values.insert("bench.trace.overhead_share".into(), 1.0 - traced / untraced);
    m.late_ns.sort_unstable();
    values.insert(
        "bench.gen.late_us_p99".into(),
        us(percentile(&m.late_ns, 99.0) as f64),
    );
    for (what, log) in [("ingest_ack", &m.ingest), ("query", &m.query)] {
        if let Some(s) = log.latency_ns.summarize() {
            values.insert(format!("client.{what}_p50_us"), us(s.p50));
            values.insert(format!("client.{what}_p99_us"), us(s.tail));
            outcome.notes.push(format!(
                "client.{what}_p99_us: the p{} of {} samples",
                s.tail_p, s.n
            ));
        }
    }
    m.lag_items.sort_unstable();
    values.insert(
        "client.apply_lag_items_p99".into(),
        percentile(&m.lag_items, 99.0) as f64,
    );
    if let Some(s) = m.ingest.merge_ack_ns.summarize() {
        values.insert("client.merge_ack_p50_us".into(), us(s.p50));
    }
    let attempted = m.ingest.attempted + m.query.attempted;
    let failed = m.ingest.failed + m.query.failed;
    values.insert(
        "client.failed_share".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    values.insert("check.final_relerr_max".into(), outcome.checks.relerr_max);
    for (name, span) in [
        ("server.client.send_us_p50", CLIENT_SEND),
        ("server.client.wait_us_p50", CLIENT_WAIT),
    ] {
        values.insert(name.into(), us(run.tracer.p50_ns(span)));
    }

    // The budget: what the public calls account for, and what is left.
    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let items = spec.items_per_op as f64;
    let mut layers = vec![
        ("dyn ingest", get("core.engine.dyn_ingest_ns_per_item")),
        ("flush", get("core.engine.flush_ns_per_batch") / items),
    ];
    if !spec.embedded {
        let prefix = if spec.mix {
            plan.lanes[0].1.len() + 2
        } else {
            0
        };
        let payload = (spec.items_per_op * 8 + prefix) as f64;
        layers.extend([
            ("encode", get("server.frame.encode_ns_per_frame") / items),
            (
                "check",
                get("server.frame.check_ns_per_byte") * payload / items,
            ),
            (
                "ping rtt",
                get("server.client.ping_rtt_us_p50") * 1e3 / items,
            ),
        ]);
    }
    let budget = Budget::new(untraced, &layers);
    if !spec.embedded {
        values.insert("server.serve.residual_ns_per_item".into(), budget.residual);
    }
    outcome.notes.push(budget.line(&layers));
}

/// The ns/item the probed layers account for, and the rest.
pub struct Budget {
    pub end_to_end: f64,
    pub layers: f64,
    /// Time per item no public call reaches: on a served workload the
    /// read loop, payload decode, channel hand-off and scheduling.
    pub residual: f64,
}

impl Budget {
    pub fn new(items_per_s: f64, layers: &[(&str, f64)]) -> Budget {
        let end_to_end = 1e9 / items_per_s;
        let layers: f64 = layers.iter().map(|(_, ns)| ns).sum();
        Budget {
            end_to_end,
            layers,
            residual: end_to_end - layers,
        }
    }

    fn line(&self, layers: &[(&str, f64)]) -> String {
        let parts: Vec<String> = layers
            .iter()
            .map(|(name, ns)| format!("{name} {ns:.2}"))
            .collect();
        format!(
            "budget ns/item: {} = layers {:.2}; residual {:.2}; layers + residual = end-to-end {:.2}",
            parts.join(" + "),
            self.layers,
            self.residual,
            self.end_to_end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_plus_residual_is_the_end_to_end_cost() {
        let layers = [
            ("encode", 2.5),
            ("check", 8.25),
            ("dyn ingest", 3.0),
            ("flush", 0.5),
            ("ping rtt", 40.0),
        ];
        let budget = Budget::new(10_000_000.0, &layers);
        assert_eq!(budget.end_to_end, 100.0);
        assert_eq!(budget.layers, 54.25);
        assert_eq!(budget.layers + budget.residual, budget.end_to_end);
        // Layers measured alone can overlap in the pipeline and sum past
        // the end-to-end cost: the residual goes negative, it is not
        // clamped, and the identity still holds.
        let fast = Budget::new(50_000_000.0, &layers);
        assert!(fast.residual < 0.0);
        assert!((fast.layers + fast.residual - fast.end_to_end).abs() < 1e-9);
    }
}
