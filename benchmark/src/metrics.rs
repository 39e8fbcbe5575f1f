//! The names, units and directions of every metric, in the order they
//! are printed. `BENCHMARK.json` lists the same names (a test checks).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees; printed by an untraced run. Each is
/// defined and non-zero on all four workloads and repeats between
/// identical runs. The latencies, the apply lag and the failed share fail
/// one of those tests and are under `client.*` below.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", "lower"),
    m("ingest_items_per_s", "1/s", "higher"),
    m("cpu_us_per_kitem", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single layers, named after the module measured; printed by a traced
/// run. 0 where the layer is not on the workload's path.
pub const PER_LAYER: [Metric; 57] = [
    m("sketches.hash.ns_per_item", "ns", "lower"),
    m("sketches.theta.seq_ns_per_item", "ns", "lower"),
    m("core.engine.ingest_ns_per_item", "ns", "lower"),
    m("core.engine.dyn_ingest_ns_per_item", "ns", "lower"),
    m("core.engine.flush_ns_per_batch", "ns", "lower"),
    m("core.engine.estimate_ns", "ns", "lower"),
    m("core.engine.wire_image_us.theta", "us", "lower"),
    m("core.engine.wire_image_us.hll", "us", "lower"),
    m("core.engine.wire_image_us.quantiles", "us", "lower"),
    m("core.engine.wire_image_us.frequency", "us", "lower"),
    m("core.engine.filtered_share", "share", "higher"),
    m("core.engine.handoffs_per_kitem", "count", "lower"),
    m("server.frame.encode_ns_per_frame", "ns", "lower"),
    m("server.frame.prefix_ns_per_frame", "ns", "lower"),
    m("server.frame.check_ns_per_byte", "ns", "lower"),
    m("server.client.ping_rtt_us_p50", "us", "lower"),
    m("server.client.send_us_p50", "us", "lower"),
    m("server.client.wait_us_p50", "us", "lower"),
    m("server.serve.frames_in", "count", "higher"),
    m("server.serve.ingest_batches", "count", "higher"),
    m("server.serve.merges_accepted", "count", "higher"),
    m("server.serve.sheds", "count", "lower"),
    m("server.serve.nacks", "count", "lower"),
    m("server.serve.shed_share", "share", "lower"),
    m("server.serve.threads", "count", "lower"),
    m("server.serve.snapshot_lag_items_max", "count", "lower"),
    m("server.serve.residual_ns_per_item", "ns", "lower"),
    m("sketches.wire.view_parse_us.theta", "us", "lower"),
    m("sketches.wire.view_parse_us.hll", "us", "lower"),
    m("sketches.wire.view_parse_us.quantiles", "us", "lower"),
    m("sketches.wire.view_parse_us.frequency", "us", "lower"),
    m("sketches.wire.fanin9_us.theta", "us", "lower"),
    m("sketches.wire.fanin9_us.hll", "us", "lower"),
    m("sketches.wire.fanin9_us.quantiles", "us", "lower"),
    m("sketches.wire.fanin9_us.frequency", "us", "lower"),
    m("sketches.wire.image_bytes.theta", "bytes", "lower"),
    m("sketches.wire.image_bytes.hll", "bytes", "lower"),
    m("sketches.wire.image_bytes.quantiles", "bytes", "lower"),
    m("sketches.wire.image_bytes.frequency", "bytes", "lower"),
    m("server.persist.encode_record_us", "us", "lower"),
    m("server.persist.crc_ns_per_byte", "ns", "lower"),
    m("server.persist.put_us", "us", "lower"),
    m("server.persist.snapshots_written", "count", "higher"),
    m("server.persist.snapshot_errors", "count", "lower"),
    m("server.persist.bytes_per_s", "bytes/s", "lower"),
    m("server.recover.decode_record_us", "us", "lower"),
    m("server.recover.boot_ms", "ms", "lower"),
    m("bench.gen.late_us_p99", "us", "lower"),
    m("bench.trace.overhead_share", "share", "lower"),
    m("client.ingest_ack_p50_us", "us", "lower"),
    m("client.ingest_ack_p99_us", "us", "lower"),
    m("client.query_p50_us", "us", "lower"),
    m("client.query_p99_us", "us", "lower"),
    m("client.apply_lag_items_p99", "count", "lower"),
    m("client.merge_ack_p50_us", "us", "lower"),
    m("client.failed_share", "share", "lower"),
    m("check.final_relerr_max", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |from: &str, to: &str| {
            let start = json.find(from).expect(from);
            let end = json[start..].find(to).map_or(json.len(), |e| start + e);
            &json[start..end]
        };
        for (listed, metrics) in [
            (section("\"end_to_end\"", "\"per_layer\""), &END_TO_END[..]),
            (section("\"per_layer\"", "\"run_seconds\""), &PER_LAYER[..]),
        ] {
            assert_eq!(listed.matches("\"name\"").count(), metrics.len());
            for metric in metrics {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    metric.name, metric.unit, metric.better
                );
                assert!(listed.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        for spec in &crate::plan::SPECS {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", spec.name, spec.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
