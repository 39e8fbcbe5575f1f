//! Network-wide flow monitoring: distinct flows per port with concurrent
//! HLL sketches (the framework's third instantiation), cross-checked by a
//! concurrent Θ sketch.
//!
//! Anomaly (e.g., port-scan) detection via distinct counting is one of
//! the sketch applications the paper cites (Elastic Sketch, SIGCOMM'18).
//!
//! ```sh
//! cargo run --release --example network_monitor
//! ```

use fcds::{EngineBuilder, HllFamily, ThetaFamily};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A synthetic 5-tuple-ish flow key: 24 bits of src, 24 of dst, 16 of
/// port — no field overlap, so distinct (src, dst, port) triples map to
/// distinct keys.
fn flow_key(src: u32, dst: u32, port: u16) -> u64 {
    ((src as u64 & 0xFF_FFFF) << 40) | ((dst as u64 & 0xFF_FFFF) << 16) | port as u64
}

fn main() {
    const CAPTURE_THREADS: usize = 4;
    const PACKETS_PER_THREAD: u64 = 1_000_000;

    // Port 443: normal traffic — many packets, moderate flow count.
    // Port 23: a simulated scan — every packet is a new flow.
    let https = EngineBuilder::<HllFamily>::new()
        .accuracy(12)
        .writers(CAPTURE_THREADS)
        .build()
        .expect("build HLL");
    let telnet = EngineBuilder::<HllFamily>::new()
        .accuracy(12)
        .writers(CAPTURE_THREADS)
        .build()
        .expect("build HLL");
    // A Θ sketch over the same scan traffic for cross-validation.
    let telnet_theta = EngineBuilder::<ThetaFamily>::new()
        .accuracy(12)
        .writers(CAPTURE_THREADS)
        .build()
        .expect("build theta");

    println!(
        "capturing {} packets on {} threads…",
        CAPTURE_THREADS as u64 * PACKETS_PER_THREAD * 2,
        CAPTURE_THREADS
    );
    std::thread::scope(|s| {
        for t in 0..CAPTURE_THREADS {
            let mut w_https = https.writer();
            let mut w_telnet = telnet.writer();
            let mut w_theta = telnet_theta.writer();
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64);
                for i in 0..PACKETS_PER_THREAD {
                    // Normal: 50k hot flows, revisited constantly.
                    let f = flow_key(rng.random_range(0..50_000), 10, 443);
                    w_https.update(f);
                    // Scan: unique (src, dst) per packet.
                    let scan = flow_key(t as u32, i as u32, 23);
                    w_telnet.update(scan);
                    w_theta.update(scan);
                }
            });
        }
    });
    https.quiesce();
    telnet.quiesce();
    telnet_theta.quiesce();

    let https_flows = https.estimate();
    let telnet_flows = telnet.estimate();
    println!("\nport 443: ≈ {https_flows:>10.0} distinct flows (true 50,000)");
    println!(
        "port  23: ≈ {telnet_flows:>10.0} distinct flows (true {})",
        CAPTURE_THREADS as u64 * PACKETS_PER_THREAD
    );
    println!(
        "cross-check (Θ sketch on port 23): ≈ {:>10.0}",
        telnet_theta.estimate()
    );

    // Alert logic: flows-per-packet ratio near 1 ⇒ scan-like.
    let packets = (CAPTURE_THREADS as u64 * PACKETS_PER_THREAD) as f64;
    let ratio = telnet_flows / packets;
    println!(
        "\nport 23 flow/packet ratio = {ratio:.3} → {}",
        if ratio > 0.5 {
            "ALERT: scan-like traffic"
        } else {
            "normal"
        }
    );

    // Off-line union across ports via the sequential HLL merge.
    let mut all = https.registers();
    all.merge(&telnet.registers()).expect("same configuration");
    println!(
        "total distinct flows across monitored ports ≈ {:.0}",
        all.estimate()
    );
}
