//! The measured run, common to every workload: a closed-loop ingest
//! thread, an open-loop query schedule on the calling thread, and the
//! window boundaries at which throughput, CPU time and lag are read.
//!
//! The query thread spins to its due times and so holds one processor
//! for the whole run. On the two-processor reference box that leaves
//! one for everything else, which is what makes runs repeatable there:
//! with both free, the scheduler moves the server's threads between
//! processors every second or so and a served workload flips between
//! two speeds a factor of three apart.

use crate::pace::{Clock, OpenLoop, Tick, WallClock};
use crate::stats::Histogram;
use crate::sys;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Windows per measured run. A throughput is the median window.
pub const WINDOWS: u64 = 12;

/// The generator's own threads: the ingest thread and the query thread.
pub const CLIENT_THREADS: u64 = 2;

/// What one client thread saw.
#[derive(Debug)]
pub struct OpLog {
    pub attempted: u64,
    /// NACKs, I/O errors and untyped replies.
    pub failed: u64,
    /// Replies that were neither the expected type nor a NACK.
    pub untyped: u64,
    /// Frames the server refused (`Overload`, `BreakerOpen`) and the
    /// caller sent again.
    pub resent: u64,
    /// Ingest: first send → Ack. Query: due time → reply. Fixed-size, so
    /// `peak_rss_mb` does not grow with the ops a run completes.
    pub latency_ns: Histogram,
    pub merge_ack_ns: Histogram,
    pub tracer: Tracer,
}

impl OpLog {
    pub fn new(thread: u64) -> Self {
        OpLog {
            attempted: 0,
            failed: 0,
            untyped: 0,
            resent: 0,
            latency_ns: Histogram::default(),
            merge_ack_ns: Histogram::default(),
            tracer: Tracer::new(thread),
        }
    }
}

pub fn ns_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Readings taken where one window ends and the next begins.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    pub t_ns: u64,
    /// Items applied so far (not merely acked).
    pub applied: u64,
    /// CPU time of the process less the query thread's spinning.
    pub cpu_us: u64,
}

pub struct Measured {
    /// `WINDOWS + 1` boundaries; window `i` lies between `i` and `i + 1`.
    pub boundaries: Vec<Boundary>,
    pub ingest: OpLog,
    pub query: OpLog,
    /// How late the open loop got to each query.
    pub late_ns: Vec<u32>,
    /// Acked minus applied items, read on every query tick.
    pub lag_items: Vec<u64>,
    pub peak_threads: u64,
    pub snapshot_lag_max: u64,
    /// The ingest thread gave up (connection lost) before the run was
    /// over, and the run ended there.
    pub cut_short: bool,
}

impl Measured {
    /// In a traced run odd windows are traced and even ones are not, so
    /// load drift hits both alike; an untraced run has no traced window.
    pub fn window_is_traced(trace: bool, window: usize) -> bool {
        trace && window % 2 == 1
    }

    /// Items applied per second in each window that is (or is not)
    /// traced.
    pub fn window_rates(&self, trace: bool, traced: bool) -> Vec<f64> {
        self.boundaries
            .windows(2)
            .enumerate()
            .filter(|(i, w)| Self::window_is_traced(trace, *i) == traced && w[1].t_ns > w[0].t_ns)
            .map(|(_, w)| {
                (w[1].applied - w[0].applied) as f64 * 1e9 / (w[1].t_ns - w[0].t_ns) as f64
            })
            .collect()
    }
}

/// What `measure` reads from the system at a boundary or a tick.
pub struct Readings<'a, A, S> {
    /// Items acked to the ingest thread so far.
    pub acked: &'a AtomicU64,
    /// Items applied so far.
    pub applied: A,
    /// Largest per-stream snapshot lag right now (0 without persistence).
    pub snapshot_lag: S,
}

/// When a run ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many seconds: a measured run.
    Seconds(f64),
    /// Once this many items are acked: a warm-up.
    Acked(u64),
}

/// Runs `ingest_op` in a closed loop on a thread of its own and
/// `query_op` at `query_rate` per second on this thread, `until` done.
/// The schedule drops nothing: a query that falls due is sent, however
/// late, so a stall lengthens the run instead of thinning the sample.
/// Both get their log and whether the op is to be traced; `ingest_op`
/// returns false when it cannot go on (connection lost).
pub fn measure<A: Fn() -> u64, S: Fn() -> u64>(
    until: Until,
    trace: bool,
    query_rate: u64,
    readings: Readings<'_, A, S>,
    mut ingest_op: impl FnMut(&mut OpLog, bool) -> bool + Send,
    mut query_op: impl FnMut(&mut OpLog, &Tick, bool),
) -> Measured {
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let clock = WallClock;
    let boundary = || Boundary {
        t_ns: clock.now_ns(),
        applied: (readings.applied)(),
        cpu_us: sys::cpu_us() - sys::thread_cpu_us(),
    };
    let mut out = Measured {
        boundaries: Vec::with_capacity(WINDOWS as usize + 1),
        ingest: OpLog::new(1),
        query: OpLog::new(2),
        late_ns: Vec::new(),
        lag_items: Vec::new(),
        peak_threads: 0,
        snapshot_lag_max: 0,
        cut_short: false,
    };
    std::thread::scope(|scope| {
        let ingest = std::thread::Builder::new()
            .name("bench-ingest".into())
            .spawn_scoped(scope, || {
                let mut log = OpLog::new(1);
                while !stop.load(Ordering::Acquire) {
                    if !ingest_op(&mut log, tracing.load(Ordering::Relaxed)) {
                        break;
                    }
                }
                log
            })
            .expect("spawn the ingest thread");

        // The ingest thread was spawned above and stays with the system;
        // only this thread moves, and only while it paces.
        sys::run_on_pacer_cpu();
        let start_ns = clock.now_ns();
        let (window_ns, target) = match until {
            Until::Seconds(seconds) => ((seconds * 1e9) as u64 / WINDOWS, u64::MAX),
            Until::Acked(items) => (u64::MAX / 2 / WINDOWS, items),
        };
        let end_ns = start_ns + window_ns * WINDOWS;
        if let Until::Seconds(seconds) = until {
            // Room for every sample, so that no query waits for a vector
            // to grow.
            let ticks = (seconds * query_rate as f64) as usize + 1;
            out.late_ns.reserve(ticks);
            out.lag_items.reserve(ticks);
        }
        let mut schedule = OpenLoop::new(start_ns, query_rate);
        out.boundaries.push(boundary());
        while let Some(tick) = schedule.next(&clock, end_ns) {
            let window = out.boundaries.len() as u64;
            if tick.start_ns >= start_ns + window * window_ns && window < WINDOWS {
                out.boundaries.push(boundary());
                out.peak_threads = out.peak_threads.max(sys::threads());
                out.snapshot_lag_max = out.snapshot_lag_max.max((readings.snapshot_lag)());
                tracing.store(
                    Measured::window_is_traced(trace, window as usize),
                    Ordering::Relaxed,
                );
            }
            // The query first: the readings below touch cache lines the
            // other processor keeps writing, and must not be on its clock.
            query_op(&mut out.query, &tick, tracing.load(Ordering::Relaxed));
            out.late_ns.push(ns_u32(tick.late_ns()));
            // Nothing more will be acked or applied: a warm-up would
            // wait for its item count for ever.
            if ingest.is_finished() {
                out.cut_short = true;
                break;
            }
            // Acked first: reading applied first would count items acked
            // in between as lag.
            let acked = readings.acked.load(Ordering::Acquire);
            if acked >= target {
                break;
            }
            out.lag_items
                .push(acked.saturating_sub((readings.applied)()));
        }
        // A stalled query can leave boundaries unvisited: close them all
        // here so every run has the same number of windows.
        while out.boundaries.len() <= WINDOWS as usize {
            out.boundaries.push(boundary());
        }
        sys::run_on_system_cpus();
        stop.store(true, Ordering::Release);
        out.ingest = ingest.join().expect("the ingest thread panicked");
    });
    out
}
