//! The served workloads: an in-process `fcds-server` driven over direct
//! loopback by one ingest connection and one query connection.
//!
//! Ops are sent with `encode_frame*` + `Client::send_raw` +
//! `Client::read_reply`, which is what `Client::ingest` and friends do
//! inside, so that encoding, sending and waiting can be timed apart.

use crate::check::Checks;
use crate::measure::{measure, Measured, OpLog, Readings, Until};
use crate::pace::{now_ns, Tick};
use crate::plan::{Lane, Plan, MERGE_EVERY, SLOTS, WARMUP_ITEMS};
use crate::stats::Histogram;
use crate::trace::{CLIENT_SEND, CLIENT_WAIT, FRAME_ENCODE, OP_INGEST, OP_MERGE, OP_QUERY};
use fcds_server::client::{Client, Reply};
use fcds_server::frame::{
    encode_frame, encode_frame_flags, encode_stream_prefix, FrameType, NackCode, FLAG_REPLACE,
    FLAG_STREAM,
};
use fcds_server::{serve, ServerConfig, ServerHandle};
use fcds_sketches::wire::SketchFamily;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Long enough that only a hung server trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// What the ingest caller does with a frame the server refuses
/// (`Overload`: "back off and retry"): it waits this long and sends the
/// frame again, up to `RESENDS` times before the op counts as failed.
const BACKOFF: Duration = Duration::from_micros(200);
const RESENDS: u32 = 100;

/// The ingest frame for `items`: what `Client::ingest` (v1) and
/// `Client::ingest_stream` (v2) put on the wire.
pub fn ingest_frame(plan: &Plan, lane: usize, seq: u16, items: &[u64]) -> Vec<u8> {
    let mut body = Vec::with_capacity(items.len() * 8);
    for item in items {
        body.extend_from_slice(&item.to_le_bytes());
    }
    if plan.spec.mix {
        let (family, key) = &plan.lanes[lane];
        let payload = encode_stream_prefix(*family, key, None, &body);
        encode_frame_flags(FrameType::Ingest, FLAG_STREAM, seq, &payload)
    } else {
        encode_frame(FrameType::Ingest, seq, &body)
    }
}

/// The REPLACE merge frame that re-pushes `lane`'s slot `slot`.
pub fn merge_frame(plan: &Plan, lane: usize, slot: usize, seq: u16) -> Vec<u8> {
    let (family, key) = &plan.lanes[lane];
    let payload =
        encode_stream_prefix(*family, key, Some(slot as u64 + 1), &plan.slots[lane][slot]);
    encode_frame_flags(FrameType::Merge, FLAG_STREAM | FLAG_REPLACE, seq, &payload)
}

/// Whether queries of this family ask for the image (1) or the scalar
/// estimate (0).
fn query_kind(family: SketchFamily) -> u8 {
    matches!(family, SketchFamily::Quantiles | SketchFamily::Frequency) as u8
}

pub fn query_frame(plan: &Plan, lane: usize, seq: u16) -> Vec<u8> {
    if plan.spec.mix {
        let (family, key) = &plan.lanes[lane];
        let selector = [query_kind(*family), family.code()];
        let payload = encode_stream_prefix(*family, key, None, &selector);
        encode_frame_flags(FrameType::Query, FLAG_STREAM, seq, &payload)
    } else {
        encode_frame(FrameType::Query, seq, &[0, 0])
    }
}

/// When a frame's op, its encoding, its send and the wait for its reply
/// started. Only the send start is taken on an untraced op.
type Sent = [u64; 4];

/// One connection and its bookkeeping of replies.
struct Link {
    client: Client,
    seq: u16,
    /// Set on an I/O error: the stream position is unknown from then on.
    lost: bool,
}

impl Link {
    fn connect(handle: &ServerHandle) -> io::Result<Link> {
        Ok(Link {
            client: Client::connect(handle.local_addr(), CLIENT_TIMEOUT)?,
            seq: 0,
            lost: false,
        })
    }

    fn next_seq(&mut self) -> u16 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Puts `frame`, numbered with the last [`Self::next_seq`], on the
    /// wire. `t` holds the op, encode and send start times; the wait
    /// starts when the write returns.
    fn send(&mut self, frame: &[u8], t: [u64; 3], traced: bool) -> Sent {
        if !self.lost && self.client.send_raw(frame).is_err() {
            self.lost = true;
        }
        [t[0], t[1], t[2], if traced { now_ns() } else { 0 }]
    }

    /// Reads the reply to the frame just sent. Returns when it arrived
    /// and what it was; an untyped reply and an I/O error are booked.
    fn settle(&mut self, log: &mut OpLog, wanted: impl Fn(&Reply) -> bool) -> (u64, Settled) {
        let reply = if self.lost {
            Err(io::ErrorKind::BrokenPipe.into())
        } else {
            self.client.read_reply()
        };
        let done_ns = now_ns();
        let settled = match reply {
            Ok(r) if r.seq() == self.seq && wanted(&r) => Settled::Answered,
            Ok(Reply::Nack { seq, code, .. }) if seq == self.seq => match code {
                NackCode::Overload | NackCode::BreakerOpen => Settled::Refused,
                _ => Settled::Failed,
            },
            Ok(_) => {
                log.untyped += 1;
                Settled::Failed
            }
            Err(e) => {
                log.untyped += (e.kind() == io::ErrorKind::InvalidData) as u64;
                self.lost = true;
                Settled::Failed
            }
        };
        (done_ns, settled)
    }
}

/// What came back for a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// The reply the op wanted.
    Answered,
    /// A NACK that asks the caller to come back later.
    Refused,
    /// Any other NACK, an untyped reply or an I/O error.
    Failed,
}

fn record_span(log: &mut OpLog, op: u8, t: Sent, done_ns: u64) {
    log.tracer.record_op(
        op,
        (t[0], done_ns),
        &[
            (FRAME_ENCODE, t[1], t[2]),
            (CLIENT_SEND, t[2], t[3]),
            (CLIENT_WAIT, t[3], done_ns),
        ],
    );
}

/// The closed-loop ingest connection.
pub struct Ingest<'p> {
    plan: &'p Plan,
    link: Link,
    pub lanes: Vec<Lane>,
    ops: u64,
    ingests: u64,
    merges: u64,
    batch: Vec<u64>,
    /// Items acked so far, shared with the query thread's lag reading.
    pub acked: Arc<AtomicU64>,
}

impl Ingest<'_> {
    /// One op: sends the next frame of the plan (an ingest batch for the
    /// next lane in turn, or on `serve_mix` every 64th op a REPLACE
    /// merge) and waits for its reply, as any caller of the service
    /// would. Returns false once the connection is lost.
    ///
    /// The server acks on enqueue and sheds when a queue is full, so a
    /// caller that sends as fast as it is acked is refused now and then
    /// (whenever the scheduler starves the workers for a few
    /// milliseconds). A refused frame is sent again after [`BACKOFF`];
    /// the op's latency runs from the first send to the Ack, so a
    /// refusal is paid for there, and the server counts it in `sheds`.
    pub fn op(&mut self, log: &mut OpLog, tracing: bool) -> bool {
        let plan = self.plan;
        let start_ns = if tracing { now_ns() } else { 0 };
        self.ops += 1;
        log.attempted += 1;
        let seq = self.link.next_seq();
        let lanes = self.lanes.len() as u64;
        let (lane, encode_ns, frame) = if plan.spec.mix && self.ops.is_multiple_of(MERGE_EVERY) {
            let (lane, slot) = (
                (self.merges % lanes) as usize,
                (self.merges / lanes % SLOTS) as usize,
            );
            self.merges += 1;
            (None, start_ns, merge_frame(plan, lane, slot, seq))
        } else {
            let lane = (self.ingests % lanes) as usize;
            self.ingests += 1;
            self.lanes[lane].next_batch(plan, &mut self.batch);
            let generated_ns = if tracing { now_ns() } else { 0 };
            (
                Some(lane),
                generated_ns,
                ingest_frame(plan, lane, seq, &self.batch),
            )
        };
        let first_send_ns = now_ns();
        let mut sent = self
            .link
            .send(&frame, [start_ns, encode_ns, first_send_ns], tracing);
        let mut resends = 0;
        let (done_ns, acked) = loop {
            let (done_ns, settled) = self.link.settle(log, |r| matches!(r, Reply::Ack { .. }));
            if settled != Settled::Refused || resends == RESENDS {
                break (done_ns, settled == Settled::Answered);
            }
            resends += 1;
            log.resent += 1;
            std::thread::sleep(BACKOFF);
            // The spans are those of the send that was acked; the waits
            // before it are the op's self time.
            sent = self
                .link
                .send(&frame, [start_ns, encode_ns, now_ns()], tracing);
        };
        match (acked, lane) {
            (true, Some(_)) => {
                self.acked
                    .fetch_add(self.batch.len() as u64, Ordering::Release);
                log.latency_ns.record(done_ns - first_send_ns);
            }
            (true, None) => log.merge_ack_ns.record(done_ns - first_send_ns),
            (false, Some(lane)) => self.lanes[lane].last_batch_failed(),
            (false, None) => {}
        }
        log.failed += !acked as u64;
        if tracing && !self.link.lost {
            let op = if lane.is_some() { OP_INGEST } else { OP_MERGE };
            record_span(log, op, sent, done_ns);
        }
        !self.link.lost
    }

    /// Median round trip of `n` idle pings, in microseconds: what one
    /// frame costs on this loopback before the server does any work.
    pub fn ping_rtt_us_p50(&mut self, n: usize) -> Result<f64, String> {
        let mut rtt_ns = Histogram::default();
        for _ in 0..n {
            let start = Instant::now();
            match self.link.client.ping() {
                Ok(Reply::Pong { .. }) => rtt_ns.record(start.elapsed().as_nanos() as u64),
                other => return Err(format!("ping: {other:?}")),
            }
        }
        Ok(rtt_ns.summarize().map_or(0.0, |s| s.p50 / 1e3))
    }
}

/// The open-loop query connection.
pub struct Query<'p> {
    plan: &'p Plan,
    link: Link,
    turn: u64,
}

impl Query<'_> {
    pub fn op(&mut self, log: &mut OpLog, tick: &Tick, tracing: bool) {
        let lane = (self.turn % self.plan.lanes.len() as u64) as usize;
        self.turn += 1;
        let image = query_kind(self.plan.lanes[lane].0) == 1;
        let seq = self.link.next_seq();
        let frame = query_frame(self.plan, lane, seq);
        let encoded_ns = if tracing { now_ns() } else { 0 };
        log.attempted += 1;
        let sent = self
            .link
            .send(&frame, [tick.start_ns, tick.start_ns, encoded_ns], tracing);
        let (done_ns, settled) = self.link.settle(log, |r| match r {
            Reply::Image { .. } => image,
            Reply::Estimate { .. } => !image,
            _ => false,
        });
        // The schedule does not wait for a query to be asked again: a
        // refused one has failed.
        if settled != Settled::Answered {
            log.failed += 1;
            return;
        }
        log.latency_ns.record(done_ns - tick.due_ns);
        if tracing {
            record_span(log, OP_QUERY, sent, done_ns);
        }
    }

    /// Each stream's final answer against the oracle. Call after the
    /// server has applied everything it acked.
    pub fn check_final(
        &mut self,
        checks: &mut Checks,
        lanes: &[Lane],
    ) -> Result<Vec<(SketchFamily, usize)>, String> {
        let plan = self.plan;
        let mut image_bytes = Vec::new();
        for (index, lane) in lanes.iter().enumerate() {
            let (family, key) = &plan.lanes[index];
            let stream = String::from_utf8_lossy(key).into_owned();
            let client = &mut self.link.client;
            let estimate = match (plan.spec.mix, query_kind(*family)) {
                (false, _) => client.query_estimate(0),
                (true, 0) => client.query_stream_estimate(*family, key),
                (true, _) => client.query_stream_image(*family, key),
            };
            match estimate.map_err(|e| format!("final query of {stream}: {e}"))? {
                Reply::Estimate { value, .. } => {
                    checks.count(&stream, *family, value, lane.items_held(plan));
                }
                Reply::Image { bytes, .. } => {
                    checks.image(&stream, *family, &bytes, plan, lane);
                    image_bytes.push((*family, bytes.len()));
                }
                other => checks.require(false, || format!("{stream}: final query got {other:?}")),
            }
            if plan.spec.mix && query_kind(*family) == 0 {
                // The image of a counting stream is not checked, only sized.
                if let Ok(Reply::Image { bytes, .. }) = client.query_stream_image(*family, key) {
                    image_bytes.push((*family, bytes.len()));
                }
            }
        }
        Ok(image_bytes)
    }
}

/// A running server with its two client connections.
pub struct Served<'p> {
    pub handle: ServerHandle,
    pub ingest: Ingest<'p>,
    pub query: Query<'p>,
    /// Where the server keeps its snapshots (`serve_mix` only).
    pub data_dir: Option<PathBuf>,
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Starts the server (on `serve_mix` over a fresh snapshot directory
/// under `out_dir`), connects, preloads the replica slots and warms up:
/// everything between process start and the first measured op.
pub fn set_up<'p>(plan: &'p Plan, out_dir: &Path) -> Result<Served<'p>, String> {
    let data_dir = match plan.spec.mix {
        true => {
            let dir = out_dir.join(format!("data-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(io_err("create data dir"))?;
            Some(dir)
        }
        false => None,
    };
    let handle = serve(ServerConfig {
        data_dir: data_dir.as_ref().map(|d| d.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("serve: {e}"))?;
    let mut ingest = Ingest {
        plan,
        link: Link::connect(&handle).map_err(io_err("connect"))?,
        lanes: (0..plan.lanes.len()).map(|i| Lane::new(plan, i)).collect(),
        ops: 0,
        ingests: 0,
        merges: 0,
        batch: vec![0; plan.spec.items_per_op],
        acked: Arc::new(AtomicU64::new(0)),
    };
    let query = Query {
        plan,
        link: Link::connect(&handle).map_err(io_err("connect"))?,
        turn: 0,
    };
    for (lane, (family, key)) in plan.lanes.iter().enumerate() {
        for (slot, image) in plan.slots[lane].iter().enumerate() {
            let pushed = ingest
                .link
                .client
                .merge_stream_from(*family, key, slot as u64 + 1, image)
                .map_err(io_err("preload"))?;
            if !matches!(pushed, Reply::Ack { .. }) {
                return Err(format!("preload refused: {pushed:?}"));
            }
        }
    }
    let mut served = Served {
        handle,
        ingest,
        query,
        data_dir,
    };
    let warm_up = served.drive(Until::Acked(WARMUP_ITEMS), false);
    if warm_up.cut_short {
        return Err("the ingest connection was lost during warm-up".into());
    }
    if warm_up.ingest.failed + warm_up.query.failed > 0 {
        return Err("an op failed during warm-up".into());
    }
    served.wait_applied()?;
    Ok(served)
}

impl Served<'_> {
    /// Hangs up, drains the server and removes its snapshot directory.
    pub fn tear_down(self) -> fcds_server::DrainReport {
        drop((self.ingest, self.query));
        let report = self.handle.shutdown();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        report
    }

    /// Drives both connections `until` done: the ingest connection in a
    /// closed loop, the query connection on its schedule.
    pub fn drive(&mut self, until: Until, trace: bool) -> Measured {
        let Served {
            handle,
            ingest,
            query,
            ..
        } = self;
        let handle = &*handle;
        let acked = ingest.acked.clone();
        let readings = Readings {
            acked: &acked,
            applied: || handle.stats().ingest_items,
            // Without persistence nothing is ever snapshotted and the
            // lag is just the item count.
            snapshot_lag: || match ingest.plan.spec.mix {
                true => handle
                    .list_streams()
                    .iter()
                    .map(|s| s.snapshot_lag)
                    .max()
                    .unwrap_or(0),
                false => 0,
            },
        };
        measure(
            until,
            trace,
            ingest.plan.spec.queries_per_s,
            readings,
            |log, tracing| ingest.op(log, tracing),
            |log, tick, tracing| query.op(log, tick, tracing),
        )
    }

    /// Waits until the server has applied every item it acked.
    pub fn wait_applied(&self) -> Result<(), String> {
        let acked = self.ingest.acked.load(Ordering::Acquire);
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        while self.handle.stats().ingest_items < acked {
            if Instant::now() > deadline {
                return Err(format!(
                    "server applied {} of {acked} acked items",
                    self.handle.stats().ingest_items
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::spec;

    #[test]
    fn a_refused_frame_is_sent_again_and_nothing_acked_is_lost() {
        let plan = Plan::new(spec("serve_small").unwrap(), 7);
        // One worker behind a queue of one, so that frames are refused
        // whenever the worker is not running; the breaker stays out of it.
        let handle = serve(ServerConfig {
            ingest_workers: 1,
            queue_depth: 1,
            breaker_threshold: u32::MAX,
            ..ServerConfig::default()
        })
        .expect("serve");
        let mut ingest = Ingest {
            plan: &plan,
            link: Link::connect(&handle).expect("connect"),
            lanes: vec![Lane::new(&plan, 0)],
            ops: 0,
            ingests: 0,
            merges: 0,
            batch: vec![0; plan.spec.items_per_op],
            acked: Arc::new(AtomicU64::new(0)),
        };
        let mut log = OpLog::new(1);
        for _ in 0..20_000 {
            assert!(ingest.op(&mut log, false));
        }
        assert_eq!((log.attempted, log.failed, log.untyped), (20_000, 0, 0));
        assert_eq!(log.latency_ns.summarize().unwrap().n, 20_000);
        let acked = ingest.acked.load(Ordering::Acquire);
        assert_eq!(acked, ingest.lanes[0].items_held(&plan));
        drop(ingest);
        let stats = handle.shutdown().stats;
        assert_eq!(stats.ingest_items, acked);
        // Every refusal the server counted was answered by one resend.
        assert_eq!(stats.sheds, log.resent);
    }
}
