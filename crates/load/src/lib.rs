//! `fcds-load`: the correctness-drill harness for `fcds-server`.
//!
//! Four drills exercise what nothing else in the workspace does, and
//! each is gated on counts and relaxation checks only — how *fast* the
//! served path is belongs to `benchmark/` (see its README's baseline
//! table), not here:
//!
//! * [`run_scenario`] injects faults into its ingest writers' own
//!   connections — each frame delayed, truncated, bit-flipped or
//!   severed mid-frame, or the connection dropped outright, the fault
//!   classes a long-lived TCP ingest tier actually meets — and checks
//!   that every failure is typed, the server survives each class, and
//!   ingest recovers after it clears.
//! * [`run_multistream`] hosts eight named streams across all four
//!   families, poisons one, and checks the others never notice.
//! * [`run_sync_drill`] checks that a peer converges on a source's
//!   streams through replica pushes alone.
//! * [`run_crash_drill`] SIGKILLs a real server process mid-checkpoint
//!   and checks what the restart recovers and refuses.
//!
//! The last three judge every read by one rule, the paper's Theorem 1:
//! an answer is what the sequential sketch returns on some prefix of
//! the stream the drill sent, with at most `r` of its items hidden
//! ([`fcds_server::stream_relaxation`]). Each read is an image taken
//! while between `acked` and `sent` items of the stream were in, and
//! [`fcds_relaxation::check_images`] checks a stream's reads, in one
//! walk of what was sent, with the `lg_k` of the config the drill
//! served.
//!
//! Faults are injected on both sides of the wire, each by one type: a
//! writer's `FaultyStream` breaks the frames it sends, and
//! [`faulty_engine`], passed to [`fcds_server::serve_with`] as the
//! engine hook, makes an ingest panic on [`POISON_ITEM`] and a flush
//! fail on [`FLUSH_FAIL_ITEM`].
//!
//! The drills share one scaffold: a `DrillStream` names the default
//! stream or a `(family, key)` stream and logs what was sent to it; one
//! ingest loop and one query loop run against it, in the background
//! under `under_load` or in the foreground as `ingest_range`;
//! `await_admitted` is the one poll-until-admitted helper. [`report`]
//! holds the one gate table `BENCH_serve.json` and the console summary
//! are rendered from.

pub mod report;

use bytes::Bytes;
use fcds_core::engine::{EngineWriter, StreamEngine, WireImage};
use fcds_core::runtime::EngineStats;
use fcds_core::FlushError;
use fcds_relaxation::{check_image, check_images};
use fcds_server::client::{connect_tcp, Client, Reply};
use fcds_server::frame::NackCode;
use fcds_server::{serve, serve_with, stream_relaxation, Seams, ServerConfig, DEFAULT_STREAM};
use fcds_sketches::wire::SketchFamily;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counts of every failure outcome the workers observed, keyed by the
/// protocol's own taxonomy. `other_nacks` catches codes added later
/// (the counter vector is sized for today's twelve, through
/// `UnknownStream` and `FamilyMismatch`).
#[derive(Debug, Default)]
pub struct ErrorTaxonomy {
    nack_counts: [AtomicU64; 12],
    other_nacks: AtomicU64,
    /// Transport-level failures (resets, EOF, timeouts) — typed at the
    /// I/O layer rather than the protocol layer.
    io_errors: AtomicU64,
    /// Connections the workers re-established after losing one to a
    /// transport failure (a worker's first connect is not a reconnect).
    reconnects: AtomicU64,
}

impl ErrorTaxonomy {
    fn nack_slot(code: NackCode) -> usize {
        (code as u16 as usize) - 1
    }

    /// Records a NACK.
    pub fn record_nack(&self, code: NackCode) {
        let slot = Self::nack_slot(code);
        match self.nack_counts.get(slot) {
            Some(c) => c.fetch_add(1, Ordering::Relaxed),
            None => self.other_nacks.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records a transport-level failure.
    pub fn record_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a reconnect.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Count for one NACK code.
    pub fn nacks(&self, code: NackCode) -> u64 {
        self.nack_counts[Self::nack_slot(code)].load(Ordering::Relaxed)
    }

    /// Total typed failures (NACKs of any code + transport errors).
    pub fn total_typed(&self) -> u64 {
        let nacks: u64 = self
            .nack_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        nacks + self.other_nacks.load(Ordering::Relaxed) + self.io_errors.load(Ordering::Relaxed)
    }

    /// Transport-level failure count.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Reconnect count.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// `(name, count)` rows for every nonzero counter.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (i, c) in self.nack_counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                let code = NackCode::from_code((i + 1) as u16).expect("slot maps to code");
                out.push((format!("nack_{code:?}").to_lowercase(), n));
            }
        }
        let other = self.other_nacks.load(Ordering::Relaxed);
        if other > 0 {
            out.push(("nack_other".to_string(), other));
        }
        let io = self.io_errors();
        if io > 0 {
            out.push(("io_error".to_string(), io));
        }
        out
    }
}

/// The fault classes a writer's `FaultyStream` injects into each frame
/// it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultMode {
    /// Pass-through.
    Off = 0,
    /// Write the first half of each frame, hold 100 ms, then write the
    /// rest (a stall mid-frame, inside the server's read deadline).
    Delay = 1,
    /// Write the first half of each frame and report the whole written
    /// (desynchronises the frame stream).
    Truncate = 2,
    /// Flip bit `0x10` of byte 20 of each frame, or of its last byte if
    /// it is shorter (drives the payload checksum).
    Corrupt = 3,
    /// Write the first half of a frame, then shut the connection down
    /// and fail the write (a mid-frame disconnect).
    Sever = 4,
    /// Shut the connection down and fail the write before sending
    /// anything.
    Disconnect = 5,
}

impl FaultMode {
    /// All injectable (non-`Off`) modes, in the order the harness
    /// drills them.
    pub const ALL: [FaultMode; 5] = [
        FaultMode::Delay,
        FaultMode::Truncate,
        FaultMode::Corrupt,
        FaultMode::Sever,
        FaultMode::Disconnect,
    ];

    fn from_u8(v: u8) -> FaultMode {
        match v {
            1 => FaultMode::Delay,
            2 => FaultMode::Truncate,
            3 => FaultMode::Corrupt,
            4 => FaultMode::Sever,
            5 => FaultMode::Disconnect,
            _ => FaultMode::Off,
        }
    }

    /// Harness label for this mode.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::Off => "off",
            FaultMode::Delay => "delay",
            FaultMode::Truncate => "truncate",
            FaultMode::Corrupt => "corrupt",
            FaultMode::Sever => "sever",
            FaultMode::Disconnect => "disconnect",
        }
    }
}

/// How long [`FaultMode::Delay`] holds a frame mid-write.
const FAULT_DELAY: Duration = Duration::from_millis(100);

/// A writer's own connection with the drill's current [`FaultMode`]
/// applied to every write, and so to every frame: the client writes a
/// frame in one call. Reads pass through unchanged — the faults under
/// test are ingest-path faults.
struct FaultyStream<'a> {
    stream: TcpStream,
    mode: &'a AtomicU8,
}

impl Read for FaultyStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for FaultyStream<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mode = FaultMode::from_u8(self.mode.load(Ordering::Acquire));
        let (head, tail) = buf.split_at(buf.len().div_ceil(2));
        match mode {
            FaultMode::Off => return self.stream.write(buf),
            FaultMode::Delay => {
                self.stream.write_all(head)?;
                std::thread::sleep(FAULT_DELAY);
                self.stream.write_all(tail)?;
            }
            // The tail is reported written but never sent: the stream
            // is out of step until the server's frame deadline ends it.
            FaultMode::Truncate => self.stream.write_all(head)?,
            FaultMode::Corrupt => {
                // Past the 16-byte header, so the checksum (not the
                // magic) catches it.
                let mut corrupted = buf.to_vec();
                if let Some(byte) = corrupted.get_mut(20.min(buf.len().saturating_sub(1))) {
                    *byte ^= 0x10;
                }
                self.stream.write_all(&corrupted)?;
            }
            FaultMode::Sever | FaultMode::Disconnect => {
                if mode == FaultMode::Sever {
                    self.stream.write_all(head)?;
                }
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(std::io::Error::new(
                    ErrorKind::ConnectionAborted,
                    format!("fault injected: {}", mode.name()),
                ));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// How a drill opens a connection: a bare address dials clean, a
/// [`Faulted`] one through a [`FaultyStream`].
trait Dial {
    /// The stream the client speaks over.
    type Stream: Read + Write;
    /// Opens one connection.
    fn dial(&self) -> std::io::Result<Client<Self::Stream>>;
}

impl Dial for SocketAddr {
    type Stream = TcpStream;
    fn dial(&self) -> std::io::Result<Client> {
        Client::connect(self, Duration::from_secs(2))
    }
}

/// A writer's server address and the drill's shared fault selector.
#[derive(Clone, Copy)]
struct Faulted<'a> {
    addr: SocketAddr,
    mode: &'a AtomicU8,
}

impl<'a> Dial for Faulted<'a> {
    type Stream = FaultyStream<'a>;
    fn dial(&self) -> std::io::Result<Client<FaultyStream<'a>>> {
        let stream = connect_tcp(self.addr, Duration::from_secs(2))?;
        Ok(Client::new(FaultyStream {
            stream,
            mode: self.mode,
        }))
    }
}

/// An ingest batch holding this item panics in the [`faulty_engine`]
/// writer it is handed to.
pub const POISON_ITEM: u64 = u64::MAX;

/// An ingest batch holding this item is dropped by the
/// [`faulty_engine`] writer it is handed to, and that writer's flushes
/// fail from then on, as after its propagator died.
pub const FLUSH_FAIL_ITEM: u64 = u64::MAX - 1;

/// The server's engine hook for fault drills: wraps each stream engine
/// so that its writers fail on [`POISON_ITEM`] and [`FLUSH_FAIL_ITEM`]
/// and otherwise pass everything through.
pub fn faulty_engine(engine: Box<dyn StreamEngine>) -> Box<dyn StreamEngine> {
    Box::new(FaultyEngine(engine))
}

/// See [`faulty_engine`].
struct FaultyEngine(Box<dyn StreamEngine>);

impl WireImage for FaultyEngine {
    fn wire_image(&self) -> Bytes {
        self.0.wire_image()
    }
}

impl StreamEngine for FaultyEngine {
    fn family(&self) -> SketchFamily {
        self.0.family()
    }
    fn writer(&self) -> Box<dyn EngineWriter> {
        Box::new(FaultyWriter {
            inner: self.0.writer(),
            dead: false,
        })
    }
    fn estimate(&self) -> Option<f64> {
        self.0.estimate()
    }
    fn quiesce(&self) {
        self.0.quiesce()
    }
    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
}

/// A [`FaultyEngine`] writer.
struct FaultyWriter {
    inner: Box<dyn EngineWriter>,
    /// A [`FLUSH_FAIL_ITEM`] came in: every flush fails.
    dead: bool,
}

impl EngineWriter for FaultyWriter {
    fn ingest_batch(&mut self, items: &[u64]) {
        if items.contains(&POISON_ITEM) {
            panic!("injected fault: poisoned ingest item {POISON_ITEM}");
        }
        self.dead |= items.contains(&FLUSH_FAIL_ITEM);
        if !self.dead {
            self.inner.ingest_batch(items);
        }
    }

    fn flush(&mut self) -> Result<(), FlushError> {
        if self.dead {
            return Err(FlushError::PropagatorDead { shard: 0 });
        }
        self.inner.flush()
    }
}

/// Where a request goes: the server's default stream (FCF1 v1 frames)
/// or a named stream (v2 frames).
#[derive(Debug)]
enum Target {
    Default,
    Stream(SketchFamily, Vec<u8>),
}

impl Target {
    fn family(&self) -> SketchFamily {
        match self {
            Target::Default => SketchFamily::Theta,
            Target::Stream(family, _) => *family,
        }
    }

    fn key(&self) -> &[u8] {
        match self {
            Target::Default => DEFAULT_STREAM,
            Target::Stream(_, key) => key,
        }
    }
}

/// Θ/HLL/Misra–Gries reads the query loop keeps per stream for
/// checking, the latest ones: each check runs over the whole stream.
const SAMPLED_READS: usize = 16;

/// One image read of a stream, with its window: `acked` items were
/// acked before the query was sent, `sent` items sent before its reply
/// arrived.
struct ImageRead {
    image: Vec<u8>,
    acked: usize,
    sent: usize,
}

/// One stream as a drill drives it: where its frames go, every item
/// sent to it in order, and how many of those are acked. A drill stream
/// has one writer, so the acked items are a prefix of the sent ones.
struct DrillStream {
    target: Target,
    /// The items sent, as the ranges `ingest_loop` sent them in.
    sent: Mutex<Vec<Range<u64>>>,
    acked: AtomicUsize,
    /// The query loop's image reads: every Quantiles one, the last
    /// [`SAMPLED_READS`] for the other families.
    reads: Mutex<Vec<ImageRead>>,
}

impl DrillStream {
    fn new(target: Target) -> DrillStream {
        DrillStream {
            target,
            sent: Mutex::default(),
            acked: AtomicUsize::new(0),
            reads: Mutex::default(),
        }
    }

    /// Logs `items`, about to be sent. A re-sent batch is the logged
    /// tail and adds nothing.
    fn log(&self, items: Range<u64>) {
        let mut sent = self.sent.lock().expect("log lock");
        match sent.last_mut() {
            Some(last) if last.end == items.end => {}
            Some(last) if last.end == items.start => last.end = items.end,
            _ => sent.push(items),
        }
    }

    fn acked(&self) -> usize {
        self.acked.load(Ordering::SeqCst)
    }

    /// How many items were sent so far.
    fn sent(&self) -> usize {
        let sent = self.sent.lock().expect("log lock");
        sent.iter().map(|r| (r.end - r.start) as usize).sum()
    }

    /// Every item sent so far, in order.
    fn items(&self) -> Vec<u64> {
        let sent = self.sent.lock().expect("log lock");
        sent.iter().flat_map(Range::clone).collect()
    }

    /// Keeps the query loop's read, taken after `acked` items were
    /// acked, for checking.
    fn keep(&self, image: Vec<u8>, acked: usize) {
        let sent = self.sent();
        let mut reads = self.reads.lock().expect("reads lock");
        if self.target.family() != SketchFamily::Quantiles && reads.len() == SAMPLED_READS {
            reads.remove(0);
        }
        reads.push(ImageRead { image, acked, sent });
    }

    /// How many of the kept reads and `extra` are not admissible under
    /// the relaxation of the server `cfg` configures, judged in one walk
    /// of the sent items.
    fn violations(&self, cfg: &ServerConfig, extra: Option<ImageRead>) -> usize {
        let r = stream_relaxation(cfg, self.target.key(), 1);
        let items = self.items();
        let reads = self.reads.lock().expect("reads lock");
        let windows: Vec<(&[u8], usize, usize)> = reads
            .iter()
            .chain(&extra)
            .map(|read| (&read.image[..], read.acked, read.sent))
            .collect();
        check_images(self.target.family(), &items, &windows, r, cfg.lg_k)
            .iter()
            .filter(|verdict| verdict.is_err())
            .count()
    }
}

/// The four wire families, in the order multi-stream drills assign
/// them to streams (stream `i` gets `FAMILIES[i % 4]`).
pub const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

/// Stream `i`'s key within a drill.
fn drill_key(prefix: &str, i: usize) -> Vec<u8> {
    format!("{prefix}-{i}").into_bytes()
}

/// A drill's streams: `n` keys, families round-robin.
fn drill_streams(prefix: &str, n: usize) -> Vec<DrillStream> {
    (0..n)
        .map(|i| DrillStream::new(Target::Stream(FAMILIES[i % 4], drill_key(prefix, i))))
        .collect()
}

/// Sends one ingest batch to `to`.
fn send<S: Read + Write>(c: &mut Client<S>, to: &Target, items: &[u64]) -> std::io::Result<Reply> {
    match to {
        Target::Default => c.ingest(items),
        Target::Stream(family, key) => c.ingest_stream(*family, key, items),
    }
}

/// What one image query came back with.
enum Answer {
    Image(Vec<u8>),
    Nack(NackCode),
    /// A reply fitting no contract.
    Untyped,
}

/// The target's wire image.
fn read_image(c: &mut Client, target: &Target) -> std::io::Result<Answer> {
    let reply = match target {
        Target::Default => c.query_image(0)?,
        Target::Stream(family, key) => c.query_stream_image(*family, key)?,
    };
    Ok(match reply {
        Reply::Image { bytes, .. } => Answer::Image(bytes),
        Reply::Nack { code, .. } => Answer::Nack(code),
        _ => Answer::Untyped,
    })
}

/// Polls `target`'s image every 10 ms until `admits` accepts one and
/// returns it; `None` once `deadline` has passed. A NACK just means
/// another poll: a replica peer answers `UnknownStream` until the first
/// push creates the stream, a restarted server until recovery has
/// registered it.
fn await_admitted(
    c: &mut Client,
    target: &Target,
    deadline: Instant,
    mut admits: impl FnMut(&[u8]) -> bool,
) -> std::io::Result<Option<Vec<u8>>> {
    loop {
        if let Answer::Image(image) = read_image(c, target)? {
            if admits(&image) {
                return Ok(Some(image));
            }
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The counters every ingest and query loop of one drill shares, and
/// the flag that stops its background workers.
#[derive(Default)]
struct Tally {
    stop: AtomicBool,
    items_acked: AtomicU64,
    /// Replies fitting no contract — the silent-drop detector.
    untyped_failures: AtomicU64,
    taxonomy: ErrorTaxonomy,
}

/// A connection that is (re)established on demand: the
/// connect-or-back-off step both loops share.
struct Link<D: Dial = SocketAddr> {
    dial: D,
    client: Option<Client<D::Stream>>,
    /// A connection was lost and not yet replaced.
    lost: bool,
}

impl<D: Dial> Link<D> {
    fn new(dial: D) -> Link<D> {
        Link {
            dial,
            client: None,
            lost: false,
        }
    }

    /// The live client, connecting first if there is none. A failed
    /// connect is recorded, backed off for 20 ms and yields `None`.
    fn client(&mut self, tally: &Tally) -> Option<&mut Client<D::Stream>> {
        if self.client.is_none() {
            match self.dial.dial() {
                Ok(c) => {
                    if std::mem::take(&mut self.lost) {
                        tally.taxonomy.record_reconnect();
                    }
                    self.client = Some(c);
                }
                Err(_) => {
                    tally.taxonomy.record_io_error();
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        self.client.as_mut()
    }

    /// Drops a connection whose request failed at the transport layer.
    fn lose(&mut self, tally: &Tally) {
        tally.taxonomy.record_io_error();
        self.client = None;
        self.lost = true;
    }
}

/// Sends `items` to `stream` in `batch`-item requests, logging each
/// before it goes out, until the range is exhausted or `stop()` says
/// so, and returns how many were acked.
/// A NACKed batch is shed, not lost: it is recorded, backed off and
/// re-sent. A transport failure leaves the batch's outcome unknown, so
/// the same range is re-sent on a fresh connection — Θ dedups, which
/// is exactly why the protocol can retry without a dedup layer.
fn ingest_loop<D: Dial>(
    tally: &Tally,
    link: &mut Link<D>,
    stream: &DrillStream,
    items: Range<u64>,
    batch: usize,
    stop: impl Fn() -> bool,
) -> u64 {
    let mut next = items.start;
    while next < items.end && !stop() {
        let Some(c) = link.client(tally) else {
            continue;
        };
        let range = next..items.end.min(next + batch as u64);
        stream.log(range.clone());
        let chunk: Vec<u64> = range.collect();
        match send(c, &stream.target, &chunk) {
            Ok(Reply::Ack { .. }) => {
                next += chunk.len() as u64;
                stream.acked.fetch_add(chunk.len(), Ordering::SeqCst);
                tally
                    .items_acked
                    .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            Ok(Reply::Nack { code, .. }) => {
                tally.taxonomy.record_nack(code);
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(_) => {
                tally.untyped_failures.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => link.lose(tally),
        }
    }
    next - items.start
}

/// Ingests exactly `items` into `stream` in 512-item requests.
///
/// # Errors
///
/// The range was not fully acked within 10 s.
fn ingest_range(
    tally: &Tally,
    link: &mut Link,
    stream: &DrillStream,
    items: Range<u64>,
) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let want = items.end - items.start;
    let acked = ingest_loop(tally, link, stream, items, 512, || {
        Instant::now() >= deadline
    });
    if acked == want {
        Ok(())
    } else {
        Err(std::io::Error::other(format!(
            "drill ingest: {acked} of {want} items acked before the deadline"
        )))
    }
}

/// Reads the images of `streams` round-robin, one every 2 ms, until the
/// tally's stop flag is set, and offers each to its stream for checking.
fn query_loop(tally: &Tally, link: &mut Link, streams: &[DrillStream]) {
    for stream in streams.iter().cycle() {
        if tally.stop.load(Ordering::Acquire) {
            return;
        }
        let Some(c) = link.client(tally) else {
            continue;
        };
        let acked = stream.acked();
        match read_image(c, &stream.target) {
            Ok(Answer::Image(image)) => stream.keep(image, acked),
            Ok(Answer::Nack(code)) => tally.taxonomy.record_nack(code),
            Ok(Answer::Untyped) => {
                tally.untyped_failures.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => link.lose(tally),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs `body` while background workers load the server — one ingest
/// worker per `ingest` entry (`(dial, stream, first item)`, each on its
/// own connection) and one querier cycling over `queried` at
/// `query_addr` — then stops and joins them. Returns `body`'s result
/// and the tally the workers shared.
fn under_load<D: Dial + Copy + Send, R>(
    ingest: &[(D, &DrillStream, u64)],
    batch: usize,
    query_addr: SocketAddr,
    queried: &[DrillStream],
    body: impl FnOnce(&Tally) -> R,
) -> (R, Tally) {
    let tally = Tally::default();
    let result = std::thread::scope(|s| {
        let tally = &tally;
        let stop = move || tally.stop.load(Ordering::Acquire);
        let writers: Vec<_> = ingest
            .iter()
            .map(|&(dial, stream, first)| {
                let items = first..u64::MAX;
                s.spawn(move || {
                    ingest_loop(tally, &mut Link::new(dial), stream, items, batch, stop)
                })
            })
            .collect();
        s.spawn(move || query_loop(tally, &mut Link::new(query_addr), queried));
        let result = body(tally);
        tally.stop.store(true, Ordering::Release);
        for w in writers {
            w.join().expect("ingest worker panicked");
        }
        result
    });
    (result, tally)
}

/// Fault-scenario parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Items per ingest batch.
    pub batch_size: usize,
    /// Baseline measurement window.
    pub baseline: Duration,
    /// How long each fault stays injected.
    pub fault_hold: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            batch_size: 512,
            baseline: Duration::from_millis(1500),
            fault_hold: Duration::from_millis(300),
        }
    }
}

/// Ingest writers the fault scenario runs, each on its own
/// [`FaultyStream`] (the querier connects clean).
const SCENARIO_WRITERS: u64 = 2;

/// Width of one throughput sample bucket.
const SAMPLE_BUCKET: Duration = Duration::from_millis(50);

/// Longest the scenario waits for ingest to recover after a fault
/// clears. The slowest class is stream desync (truncate): the writer
/// sits in its 2 s reply timeout while the server burns its 2 s frame
/// deadline on the half-frame, then both sides reconnect — so the
/// protocol's own worst case is ~4 s. A wedge (a latched stream, a
/// connection leak) never recovers at all.
pub const RECOVERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Outcome of one fault-injection phase.
#[derive(Debug, Clone)]
pub struct FaultPhase {
    /// The injected fault class.
    pub mode: FaultMode,
    /// Time from clearing the fault to the first 50 ms bucket at ≥ 50%
    /// of the baseline ingest rate (`None` = not within
    /// [`RECOVERY_TIMEOUT`]).
    pub recovery: Option<Duration>,
    /// Whether the server answered a clean request after the phase.
    pub survived: bool,
}

/// Everything one scenario run observed.
pub struct ScenarioReport {
    /// The error taxonomy across the whole run.
    pub taxonomy: ErrorTaxonomy,
    /// One entry per injected fault class.
    pub phases: Vec<FaultPhase>,
    /// Total items ACKed across the run.
    pub items_acked: u64,
    /// Requests that failed without any typed signal (must be 0; this
    /// is the silent-drop detector).
    pub untyped_failures: u64,
    /// Final live-engine estimate over distinct items acked.
    pub estimate_ratio: f64,
}

/// Runs the full scenario — baseline, then every fault class with
/// recovery measurement — against the server at `server_addr`, with
/// each fault injected into the ingest writers' own connections. Every
/// failure the scenario meets is counted in its report.
pub fn run_scenario(server_addr: SocketAddr, cfg: &LoadConfig) -> ScenarioReport {
    let mode = AtomicU8::new(FaultMode::Off as u8);
    let faulted = Faulted {
        addr: server_addr,
        mode: &mode,
    };
    // One log per writer: both write the default stream, so its items
    // have no single order and the querier's reads go unchecked.
    let logs: Vec<_> = (0..SCENARIO_WRITERS)
        .map(|_| DrillStream::new(Target::Default))
        .collect();
    let writers: Vec<_> = (0..SCENARIO_WRITERS)
        .zip(&logs)
        .map(|(w, log)| (faulted, log, w << 40))
        .collect();
    let queried = &logs[..1];
    let drive = |tally: &Tally| {
        let items_acked = || tally.items_acked.load(Ordering::Relaxed);

        // Phase 1: the baseline ingest rate, which recovery is defined
        // against (it is not a result: `benchmark/` measures speed).
        let baseline_start_items = items_acked();
        let baseline_started = Instant::now();
        std::thread::sleep(cfg.baseline);
        let baseline_items_per_s = (items_acked() - baseline_start_items) as f64
            / baseline_started.elapsed().as_secs_f64();
        let baseline_bucket_items = baseline_items_per_s * SAMPLE_BUCKET.as_secs_f64();

        // Phase 2: fault classes, one at a time, with recovery
        // measurement.
        let mut phases = Vec::new();
        for fault in FaultMode::ALL {
            mode.store(fault as u8, Ordering::Release);
            std::thread::sleep(cfg.fault_hold);
            mode.store(FaultMode::Off as u8, Ordering::Release);
            let cleared = Instant::now();

            // Recovery: first 50 ms bucket back at ≥ 50% of baseline
            // rate.
            let mut recovery = None;
            let mut last = items_acked();
            while cleared.elapsed() < RECOVERY_TIMEOUT {
                std::thread::sleep(SAMPLE_BUCKET);
                let now = items_acked();
                if (now - last) as f64 >= baseline_bucket_items * 0.5 {
                    recovery = Some(cleared.elapsed());
                    break;
                }
                last = now;
            }

            // Survival probe: a clean request on a fresh direct
            // connection.
            let survived = Client::connect(server_addr, Duration::from_secs(2))
                .and_then(|mut c| c.ping())
                .map(|r| matches!(r, Reply::Pong { .. }))
                .unwrap_or(false);
            phases.push(FaultPhase {
                mode: fault,
                recovery,
                survived,
            });
        }
        phases
    };
    let (phases, tally) = under_load(&writers, cfg.batch_size, server_addr, queried, drive);

    // Final consistency probe: the live estimate should account for the
    // acked distinct items (writers re-send on unknown outcomes, and Θ
    // dedups, so the acked distinct set is a subset of what was sent).
    let items_acked = tally.items_acked.into_inner();
    let estimate = Client::connect(server_addr, Duration::from_secs(2))
        .and_then(|mut c| c.query_estimate(0))
        .ok()
        .and_then(|r| match r {
            Reply::Estimate { value, .. } => Some(value),
            _ => None,
        })
        .unwrap_or(0.0);
    let estimate_ratio = if items_acked == 0 {
        0.0
    } else {
        estimate / items_acked as f64
    };

    ScenarioReport {
        taxonomy: tally.taxonomy,
        phases,
        items_acked,
        untyped_failures: tally.untyped_failures.into_inner(),
        estimate_ratio,
    }
}

/// Named streams the multi-stream drill hosts: two per family.
pub const MULTISTREAM_STREAMS: usize = 8;

/// Multi-stream drill parameters.
#[derive(Debug, Clone)]
pub struct MultiStreamConfig {
    /// Items per v2 ingest batch.
    pub batch_size: usize,
    /// How long the per-stream writers and the querier run.
    pub window: Duration,
}

impl Default for MultiStreamConfig {
    fn default() -> Self {
        MultiStreamConfig {
            batch_size: 512,
            window: Duration::from_millis(1500),
        }
    }
}

/// Everything the multi-stream drill observed.
pub struct MultiStreamReport {
    /// Streams hosted (excluding the server's default stream).
    pub streams: usize,
    /// The typed error taxonomy across the drill, including the
    /// provoked `UnknownStream` and `FamilyMismatch` NACKs and the
    /// poisoned stream's failures.
    pub taxonomy: ErrorTaxonomy,
    /// Items ACKed across all streams.
    pub items_acked: u64,
    /// Replies fitting no contract (must be 0).
    pub untyped_failures: u64,
    /// Fraction of healthy-stream requests ACKed *after* one stream was
    /// poisoned — the isolation metric; the gate requires 1.0.
    pub isolation: f64,
    /// Reads not admissible under the stream's relaxation (must be 0):
    /// each stream's read once its writer stopped, at `[acked, sent]`,
    /// and the reads the querier kept while the writers ran.
    pub relaxation_violations: usize,
    /// Threads the in-process server leaked on drain (must be 0).
    pub leaked_threads: usize,
}

/// Runs the multi-stream drill: an in-process server hosts
/// [`MULTISTREAM_STREAMS`] named streams round-robined across all four
/// families, one writer connection per stream plus a round-robin
/// querier, for `cfg.window`. Afterwards the drill provokes the
/// stream-addressed NACKs (`UnknownStream`, `FamilyMismatch`), poisons
/// the last stream, and measures isolation: the fraction of
/// healthy-stream requests still ACKed while the poisoned stream's
/// ingest is latched shut.
///
/// # Errors
///
/// Propagates server-start and probe-connection I/O errors.
///
/// # Panics
///
/// Panics if a drill worker thread panics.
pub fn run_multistream(cfg: &MultiStreamConfig) -> std::io::Result<MultiStreamReport> {
    let server_cfg = ServerConfig::default();
    let seams = Seams {
        engine: faulty_engine,
        ..Seams::default()
    };
    let server = serve_with(server_cfg.clone(), seams)?;
    let addr = server.local_addr();
    let streams = drill_streams("load", MULTISTREAM_STREAMS);

    let writers: Vec<_> = streams.iter().map(|s| (addr, s, 0)).collect();
    let ((), tally) = under_load(&writers, cfg.batch_size, addr, &streams, |_| {
        std::thread::sleep(cfg.window)
    });

    let mut probe = Client::connect(addr, Duration::from_secs(2))?;

    // Provoke the stream-addressed NACKs so typed coverage includes the
    // v2 taxonomy rows. A query on an absent key must not create it;
    // re-declaring stream 0 (Θ) as HLL must be refused.
    match probe.query_stream_estimate(SketchFamily::Theta, b"load-missing")? {
        Reply::Nack { code, .. } if code == NackCode::UnknownStream => {
            tally.taxonomy.record_nack(code);
        }
        other => panic!("query of absent stream: {other:?}"),
    }
    match probe.ingest_stream(SketchFamily::Hll, &drill_key("load", 0), &[1])? {
        Reply::Nack { code, .. } if code == NackCode::FamilyMismatch => {
            tally.taxonomy.record_nack(code);
        }
        other => panic!("family re-declaration: {other:?}"),
    }

    // Every stream's read now that its writer stopped, and the reads the
    // querier kept, checked against what the writer sent. An answer
    // that is not an image admits nothing.
    let mut relaxation_violations = 0;
    for stream in &streams {
        let (acked, sent) = (stream.acked(), stream.sent());
        let image = match read_image(&mut probe, &stream.target)? {
            Answer::Image(image) => image,
            _ => Vec::new(),
        };
        let settled = ImageRead { image, acked, sent };
        relaxation_violations += stream.violations(&server_cfg, Some(settled));
    }

    // Poison the last stream (the planted item latches its ingest
    // shut), see its ingest path fail typed, then measure isolation:
    // every other stream must still ACK everything.
    let (victim, healthy) = streams.split_last().expect("at least one stream");
    let victim = &victim.target;
    let _ = send(&mut probe, victim, &[POISON_ITEM])?;
    let victim_dead = match send(&mut probe, victim, &[1, 2, 3])? {
        Reply::Nack { code, .. } => {
            tally.taxonomy.record_nack(code);
            true
        }
        _ => false,
    };
    let mut healthy_acks = 0usize;
    for stream in healthy {
        for _ in 0..10 {
            match send(&mut probe, &stream.target, &[7])? {
                Reply::Ack { .. } => healthy_acks += 1,
                Reply::Nack { code, .. } => tally.taxonomy.record_nack(code),
                _ => {
                    tally.untyped_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    // If the poison never landed, isolation was not exercised: report
    // it as failed rather than vacuous.
    let isolation = if victim_dead {
        healthy_acks as f64 / (healthy.len() * 10) as f64
    } else {
        0.0
    };

    drop(probe);
    let drain = server.shutdown();
    Ok(MultiStreamReport {
        streams: MULTISTREAM_STREAMS,
        taxonomy: tally.taxonomy,
        items_acked: tally.items_acked.into_inner(),
        untyped_failures: tally.untyped_failures.into_inner(),
        isolation,
        relaxation_violations,
        leaked_threads: drain.leaked_threads,
    })
}

/// Streams the sync drill replicates: one per family, so every
/// family's fan-in kernel is exercised through the sync path.
pub const SYNC_STREAMS: usize = 4;

/// The source server's replica push period in the sync drill.
const SYNC_PERIOD: Duration = Duration::from_millis(100);

/// How long the sync drill waits for the source to admit its ingest,
/// and then for the peer to converge.
const SYNC_TIMEOUT: Duration = Duration::from_secs(10);

/// Ingest rounds of the sync drill. The peer must converge after each,
/// so a pusher that stops shipping new images cannot pass on its first.
const SYNC_ROUNDS: u64 = 2;

/// Sync periods the drill waits after the last convergence before it
/// counts idle pushes, so a push already in flight is not counted.
const IDLE_SETTLE_PERIODS: u32 = 2;

/// Sync periods over which the drill counts pushes of idle streams.
const IDLE_PERIODS: u32 = 5;

/// Outcome of the two-server replica-sync drill.
pub struct SyncReport {
    /// Streams replicated.
    pub streams: usize,
    /// Streams whose peer read was admitted at `[sent, sent]` — every
    /// item in, up to the source's relaxation — before the last round's
    /// deadline.
    pub converged: usize,
    /// Peer reads not admitted at `[0, sent]` (any pushed image is some
    /// prefix of the stream), plus streams that did not converge in a
    /// round (must be 0).
    pub relaxation_violations: usize,
    /// Time from the source admitting the last round until every stream
    /// had converged on the peer (`None` if any stream timed out).
    pub convergence: Option<Duration>,
    /// Replica pushes the source's background pusher delivered.
    pub pushes: u64,
    /// Pushes the source delivered over five sync periods with every
    /// stream idle and converged (must be 0: an unchanged stream is not
    /// re-shipped).
    pub idle_pushes: u64,
    /// Leaked threads across both servers' drains (must be 0).
    pub leaked_threads: usize,
}

/// Runs the replica-sync drill: two in-process servers, A configured to
/// push every stream's wire image to B every 100 ms. The drill ingests
/// `items_per_stream` distinct items into each of A's
/// [`SYNC_STREAMS`] streams in two rounds. After each it
/// waits until A's own images admit every item, then polls B's
/// stream-addressed image queries until each stream's is admitted at
/// `[sent, sent]` under A's relaxation. Every earlier B read must
/// still be admitted at `[0, sent]`. After the last convergence it
/// counts the pushes of the now idle streams.
///
/// # Errors
///
/// Propagates server-start and probe I/O errors; fails when the source
/// does not ack or admit its ingest in time.
pub fn run_sync_drill(items_per_stream: u64) -> std::io::Result<SyncReport> {
    let peer = serve(ServerConfig::default())?;
    let source_cfg = ServerConfig {
        replica_peer: Some(peer.local_addr().to_string()),
        replica_interval: SYNC_PERIOD,
        replica_source_id: 1,
        ..ServerConfig::default()
    };
    let source = serve(source_cfg.clone())?;
    let streams = drill_streams("sync", SYNC_STREAMS);
    // One writer fed each stream; `at` is the window's low end.
    let admits = |stream: &DrillStream, items: &[u64], at: usize, image: &[u8]| {
        let r = stream_relaxation(&source_cfg, stream.target.key(), 1);
        check_image(stream.target.family(), image, items, at, r, source_cfg.lg_k).is_ok()
    };

    let tally = Tally::default();
    let mut link = Link::new(source.local_addr());
    let mut ca = Client::connect(source.local_addr(), Duration::from_secs(5))?;
    let mut cb = Client::connect(peer.local_addr(), Duration::from_secs(5))?;
    let (mut converged, mut relaxation_violations, mut convergence) = (0, 0, None);
    let per_round = items_per_stream / SYNC_ROUNDS;
    for round in 0..SYNC_ROUNDS {
        for (i, stream) in streams.iter().enumerate() {
            let base = i as u64 * items_per_stream + round * per_round;
            ingest_range(&tally, &mut link, stream, base..base + per_round)?;
        }
        // Check the source's images carry the full stream before we
        // start the convergence clock.
        let absorb_deadline = Instant::now() + SYNC_TIMEOUT;
        for (i, stream) in streams.iter().enumerate() {
            let items = stream.items();
            await_admitted(&mut ca, &stream.target, absorb_deadline, |image| {
                admits(stream, &items, items.len(), image)
            })?
            .ok_or_else(|| {
                std::io::Error::other(format!("source stream {i} never admitted its items"))
            })?;
        }

        let clock_start = Instant::now();
        converged = 0;
        for stream in &streams {
            let items = stream.items();
            let deadline = clock_start + SYNC_TIMEOUT;
            let last = await_admitted(&mut cb, &stream.target, deadline, |image| {
                let all_in = admits(stream, &items, items.len(), image);
                relaxation_violations += usize::from(!all_in && !admits(stream, &items, 0, image));
                all_in
            })?;
            if last.is_some() {
                converged += 1;
            } else {
                relaxation_violations += 1;
            }
        }
        convergence = (converged == SYNC_STREAMS).then(|| clock_start.elapsed());
    }
    std::thread::sleep(SYNC_PERIOD * IDLE_SETTLE_PERIODS);
    let pushed_before = source.stats().replica_pushes;
    std::thread::sleep(SYNC_PERIOD * IDLE_PERIODS);
    let idle_pushes = source.stats().replica_pushes - pushed_before;

    let drain_source = source.shutdown();
    let drain_peer = peer.shutdown();
    Ok(SyncReport {
        streams: SYNC_STREAMS,
        converged,
        relaxation_violations,
        convergence,
        pushes: drain_source.stats.replica_pushes,
        idle_pushes,
        leaked_threads: drain_source.leaked_threads + drain_peer.leaked_threads,
    })
}

/// Locates the `fcds-server` binary for the crash drill: the
/// `FCDS_SERVER_BIN` env var if set, else a sibling of the current
/// executable (covers `target/{profile}/` for the `fcds-load` binary
/// and `target/{profile}/deps/` for integration tests).
pub fn find_server_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("FCDS_SERVER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..2 {
        for name in ["fcds-server", "fcds-server.exe"] {
            let cand = dir.join(name);
            if cand.is_file() {
                return Some(cand);
            }
        }
        dir = dir.parent()?.to_path_buf();
    }
    None
}

/// Crash-drill parameters.
#[derive(Debug, Clone)]
pub struct CrashDrillConfig {
    /// Streams to host (round-robin families; the default 8 is two per
    /// family).
    pub streams: usize,
    /// Distinct items ingested (and verified durable) into each stream
    /// before the kill.
    pub items_per_stream: u64,
    /// The server's checkpoint period — the documented bounded-loss
    /// window.
    pub snapshot_interval: Duration,
    /// How long to keep ingesting small churn batches (the traffic
    /// inside the loss window) before the SIGKILL. Spanning several
    /// snapshot intervals makes the kill land mid-checkpoint.
    pub churn: Duration,
    /// How long the restarted server gets to answer for every stream.
    pub recovery_timeout: Duration,
}

impl Default for CrashDrillConfig {
    fn default() -> Self {
        CrashDrillConfig {
            streams: 8,
            items_per_stream: 20_000,
            snapshot_interval: Duration::from_millis(150),
            churn: Duration::from_millis(450),
            recovery_timeout: Duration::from_secs(10),
        }
    }
}

/// Items per churn batch: a trickle inside the loss window.
const CHURN_BATCH: u64 = 32;

/// Outcome of the kill-drill.
pub struct CrashDrillReport {
    /// Streams the drill ingested into before the kill.
    pub streams: usize,
    /// Streams answering their family's v2 query after the restart.
    pub recovered_streams: usize,
    /// Time from restarting the process until every stream answered
    /// (`None` if any stream timed out) — includes process startup and
    /// the boot-time snapshot scan.
    pub recovery: Option<Duration>,
    /// Streams whose first answer after the restart is not admitted at
    /// `[seq, sent]`, with `seq` the item count the stream's on-disk
    /// record claimed just before the kill (must be 0).
    pub relaxation_violations: usize,
    /// Whether the planted CRC-invalid record was served after restart
    /// (must be 0 — corrupt records are quarantined, never trusted).
    pub corrupt_accepted: usize,
    /// `.quarantine` files found in the data dir after restart (the
    /// drill plants two invalid records, so ≥ 2).
    pub quarantined: usize,
    /// Churn items ACKed inside the loss window.
    pub churn_items: u64,
    /// Typed errors met while driving the drill.
    pub taxonomy: ErrorTaxonomy,
}

/// Monotone suffix for drill data dirs, so drills in one process
/// (binary run + tests) never collide.
static CRASH_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Spawns a real `fcds-server` process on a free port with `cfg`'s
/// `lg_k` and snapshot interval and the durability tier pointed at
/// `dir`, and parses the listening address off its stdout (printed only
/// after recovery completes, so the returned address is immediately
/// queryable).
fn spawn_server_process(
    bin: &Path,
    dir: &Path,
    cfg: &ServerConfig,
) -> std::io::Result<(Child, SocketAddr)> {
    use std::io::BufRead as _;
    let mut child = Command::new(bin)
        .arg("--addr=127.0.0.1:0")
        .arg(format!("--lg-k={}", cfg.lg_k))
        .arg(format!("--data-dir={}", dir.display()))
        .arg(format!(
            "--snapshot-ms={}",
            cfg.snapshot_interval.as_millis()
        ))
        .arg("--fsync=interval")
        // Safety net: a drill that dies without killing its child must
        // not leave an orphan server running forever.
        .arg("--secs=120")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // EOF: the child died before listening
        }
        if let Some(rest) = line.trim().strip_prefix("fcds-server listening on ") {
            addr = rest.parse::<SocketAddr>().ok();
            break;
        }
    }
    // Keep draining stdout so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    match addr {
        Some(a) => Ok((child, a)),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other(
                "fcds-server process exited before reporting its listening address",
            ))
        }
    }
}

fn connect_retry(addr: SocketAddr, deadline: Instant) -> std::io::Result<Client> {
    loop {
        match Client::connect(addr, Duration::from_secs(5)) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Runs the kill-drill against a **real server process**:
///
/// 1. spawn `fcds-server` with a data dir and a short
///    `snapshot_interval`;
/// 2. ingest `items_per_stream` distinct items into each of `streams`
///    streams (round-robin across all four families) and wait until
///    every stream's on-disk snapshot provably covers that base (the
///    records are decoded with the server's own
///    [`fcds_server::recover::decode_record`] and their sequence
///    checked);
/// 3. keep ingesting small churn batches across several checkpoint
///    intervals, then SIGKILL the process mid-flight;
/// 4. plant two invalid snapshot records in the data dir (pure garbage
///    and a structurally valid record whose CRC is wrong);
/// 5. restart the server on the same dir and measure: time until every
///    stream answers, whether each first answer is admitted at `[seq,
///    sent]` with `seq` read off the stream's record just before the
///    kill, whether the corrupt record was served (it must NACK
///    `UnknownStream`), and how many files were quarantined.
///
/// # Errors
///
/// Propagates process-spawn and probe I/O errors; fails with a typed
/// error when the `fcds-server` binary cannot be found (build it with
/// `cargo build -p fcds-server` or set `FCDS_SERVER_BIN`).
pub fn run_crash_drill(cfg: &CrashDrillConfig) -> std::io::Result<CrashDrillReport> {
    use fcds_server::persist::{encode_record, snapshot_file_name};
    use fcds_server::recover::decode_record;

    let bin = find_server_bin().ok_or_else(|| {
        std::io::Error::other(
            "fcds-server binary not found; run `cargo build -p fcds-server` \
             or set FCDS_SERVER_BIN",
        )
    })?;
    // The configuration both server processes run.
    let served = ServerConfig {
        snapshot_interval: cfg.snapshot_interval,
        ..ServerConfig::default()
    };
    let streams = cfg.streams.max(1);
    let targets = drill_streams("crash", streams);
    let dir = std::env::temp_dir().join(format!(
        "fcds-crash-{}-{}",
        std::process::id(),
        CRASH_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let tally = Tally::default();

    // Phase 1: base ingest into a fresh server.
    let (mut child, addr) = spawn_server_process(&bin, &dir, &served)?;
    // The item count stream `i`'s on-disk record claims. Reads race
    // benignly with the checkpointer's atomic rename: they see the old
    // record or the new one.
    let durable_seq = |i: usize| {
        std::fs::read(dir.join(snapshot_file_name(&drill_key("crash", i))))
            .ok()
            .and_then(|bytes| decode_record(&bytes).ok())
            .map(|rec| rec.seq)
    };
    let drill = (|| -> std::io::Result<CrashDrillReport> {
        let mut link = Link::new(addr);
        for (i, stream) in targets.iter().enumerate() {
            let base = i as u64 * cfg.items_per_stream;
            ingest_range(&tally, &mut link, stream, base..base + cfg.items_per_stream)?;
        }
        // Wait until every on-disk snapshot covers the base ingest, so
        // no stream can be lost whole; a stale read is another poll.
        let durable_deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..streams {
            loop {
                if durable_seq(i).is_some_and(|seq| seq >= cfg.items_per_stream) {
                    break;
                }
                if Instant::now() >= durable_deadline {
                    return Err(std::io::Error::other(format!(
                        "stream {i}'s snapshot never covered its base ingest"
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        // Phase 2: churn inside the loss window, then SIGKILL. The
        // churn spans several checkpoint intervals, so the kill lands
        // while snapshots are actively being rewritten.
        let mut churn_items = 0u64;
        let mut churn_next = (streams as u64) * cfg.items_per_stream;
        let churn_until = Instant::now() + cfg.churn;
        'churn: while Instant::now() < churn_until {
            for stream in &targets {
                ingest_range(
                    &tally,
                    &mut link,
                    stream,
                    churn_next..churn_next + CHURN_BATCH,
                )?;
                churn_next += CHURN_BATCH;
                churn_items += CHURN_BATCH;
                if Instant::now() >= churn_until {
                    break 'churn;
                }
            }
            // Paced, not flat-out: the churn models a trickle inside
            // the loss window.
            std::thread::sleep(Duration::from_millis(10));
        }
        // What the restart must at least hold: each record's `seq`,
        // captured before its image was, just before the kill.
        let seqs = (0..streams)
            .map(|i| {
                durable_seq(i).ok_or_else(|| {
                    std::io::Error::other(format!("stream {i}'s snapshot unreadable"))
                })
            })
            .collect::<std::io::Result<Vec<u64>>>()?;
        child.kill()?; // SIGKILL: no drain, no final checkpoint
        child.wait()?;

        // Phase 3: plant invalid records. (a) pure garbage under a
        // plausible name; (b) a structurally valid record for a key the
        // drill never ingested, with its CRC corrupted — accepting it
        // would materialise stream "crash-corrupt".
        std::fs::write(dir.join("s-00.snap"), b"definitely not a snapshot")?;
        let corrupt_key = b"crash-corrupt".to_vec();
        let donor = std::fs::read(dir.join(snapshot_file_name(&drill_key("crash", 0))))?;
        let donor_rec = decode_record(&donor)
            .map_err(|e| std::io::Error::other(format!("donor snapshot invalid: {e}")))?;
        let mut forged = encode_record(
            donor_rec.family,
            &corrupt_key,
            donor_rec.seq,
            &donor_rec.image,
        );
        forged[24] ^= 0xFF; // flip a CRC byte
        std::fs::write(dir.join(snapshot_file_name(&corrupt_key)), &forged)?;

        // Phase 4: restart on the same dir and measure recovery.
        let restart_started = Instant::now();
        let (child2, addr2) = spawn_server_process(&bin, &dir, &served)?;
        let mut child2 = child2;
        let outcome = (|| -> std::io::Result<CrashDrillReport> {
            let recovery_deadline = restart_started + cfg.recovery_timeout;
            let mut probe = connect_retry(addr2, recovery_deadline)?;
            let mut recovered_streams = 0usize;
            let mut relaxation_violations = 0usize;
            for (stream, &seq) in targets.iter().zip(&seqs) {
                // Any answer counts as recovered; the first one must be
                // admitted at `[seq, sent]` under the writer's `r`.
                let Some(image) =
                    await_admitted(&mut probe, &stream.target, recovery_deadline, |_| true)?
                else {
                    continue;
                };
                recovered_streams += 1;
                let r = stream_relaxation(&served, stream.target.key(), 1);
                let (family, items) = (stream.target.family(), stream.items());
                relaxation_violations += usize::from(
                    check_image(family, &image, &items, seq as usize, r, served.lg_k).is_err(),
                );
            }
            let recovery = (recovered_streams == streams).then(|| restart_started.elapsed());

            // The forged record must have been quarantined, never
            // served: its stream may not exist.
            let corrupt_accepted =
                match probe.query_stream_estimate(SketchFamily::Theta, &corrupt_key)? {
                    Reply::Nack {
                        code: NackCode::UnknownStream,
                        ..
                    } => 0,
                    _ => 1,
                };
            let quarantined = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .ends_with(fcds_server::persist::QUARANTINE_SUFFIX)
                })
                .count();

            let _ = probe.request_shutdown();
            Ok(CrashDrillReport {
                streams,
                recovered_streams,
                recovery,
                relaxation_violations,
                corrupt_accepted,
                quarantined,
                churn_items,
                taxonomy: ErrorTaxonomy::default(), // replaced by caller below
            })
        })();
        // Always reap the restarted process, drill outcome or not.
        let drain_deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match child2.try_wait()? {
                Some(_) => break,
                None if Instant::now() >= drain_deadline => {
                    let _ = child2.kill();
                    let _ = child2.wait();
                    break;
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        outcome
    })();
    // Never leave the phase-1 process running on an early error.
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    drill.map(|mut report| {
        report.taxonomy = tally.taxonomy;
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_counts_by_code() {
        let t = ErrorTaxonomy::default();
        t.record_nack(NackCode::Overload);
        t.record_nack(NackCode::Overload);
        t.record_nack(NackCode::Checksum);
        t.record_io_error();
        assert_eq!(t.nacks(NackCode::Overload), 2);
        assert_eq!(t.nacks(NackCode::Checksum), 1);
        assert_eq!(t.total_typed(), 4);
        let rows = t.rows();
        assert!(rows.iter().any(|(n, c)| n == "nack_overload" && *c == 2));
        assert!(rows.iter().any(|(n, c)| n == "io_error" && *c == 1));
    }

    #[test]
    fn taxonomy_covers_stream_nack_codes() {
        let t = ErrorTaxonomy::default();
        t.record_nack(NackCode::UnknownStream);
        t.record_nack(NackCode::FamilyMismatch);
        assert_eq!(t.nacks(NackCode::UnknownStream), 1);
        assert_eq!(t.nacks(NackCode::FamilyMismatch), 1);
        assert_eq!(t.other_nacks.load(Ordering::Relaxed), 0);
        let rows = t.rows();
        assert!(rows
            .iter()
            .any(|(n, c)| n == "nack_unknownstream" && *c == 1));
        assert!(rows
            .iter()
            .any(|(n, c)| n == "nack_familymismatch" && *c == 1));
    }

    #[test]
    fn fault_mode_roundtrip() {
        for m in FaultMode::ALL {
            assert_eq!(FaultMode::from_u8(m as u8), m);
            assert_ne!(m.name(), "off");
        }
        assert_eq!(FaultMode::from_u8(0), FaultMode::Off);
        assert_eq!(FaultMode::from_u8(99), FaultMode::Off);
    }

    #[test]
    fn each_fault_class_has_one_exact_outcome_per_frame() {
        // A short frame deadline, so the truncated frame times out fast.
        let server = serve(ServerConfig {
            frame_deadline: Duration::from_millis(200),
            ..ServerConfig::default()
        })
        .unwrap();
        let mode = AtomicU8::new(FaultMode::Off as u8);
        let faulted = Faulted {
            addr: server.local_addr(),
            mode: &mode,
        };
        let items: Vec<u64> = (0..64).collect();
        let mut applied = 0;
        for fault in [FaultMode::Off].into_iter().chain(FaultMode::ALL) {
            let mut c = faulted.dial().unwrap();
            mode.store(fault as u8, Ordering::Release);
            let started = Instant::now();
            let outcome = c.ingest(&items);
            mode.store(FaultMode::Off as u8, Ordering::Release);
            match fault {
                FaultMode::Off => assert!(matches!(outcome.unwrap(), Reply::Ack { .. })),
                FaultMode::Delay => {
                    assert!(matches!(outcome.unwrap(), Reply::Ack { .. }));
                    assert!(started.elapsed() >= FAULT_DELAY);
                }
                // The half frame stalls until the server's deadline.
                FaultMode::Truncate => {
                    assert_eq!(outcome.unwrap().nack_code(), Some(NackCode::Timeout));
                }
                FaultMode::Corrupt => {
                    assert_eq!(outcome.unwrap().nack_code(), Some(NackCode::Checksum));
                    assert!(
                        matches!(c.ping().unwrap(), Reply::Pong { .. }),
                        "stays open"
                    );
                }
                FaultMode::Sever | FaultMode::Disconnect => {
                    assert!(outcome.is_err());
                    let closed = c.read_reply().unwrap_err().kind();
                    assert_eq!(closed, ErrorKind::UnexpectedEof, "shut down");
                }
            }
            if matches!(fault, FaultMode::Off | FaultMode::Delay) {
                applied += items.len() as u64;
            }
            assert_eq!(server.stats().ingest_items, applied, "after {fault:?}");
        }
        let drain = server.shutdown();
        assert_eq!(drain.stats.ingest_items, applied);
        assert_eq!(drain.leaked_threads, 0);
    }

    #[test]
    fn await_admitted_polls_through_nacks_and_gives_up_at_the_deadline() {
        let cfg = ServerConfig::default();
        let server = serve(cfg.clone()).unwrap();
        let addr = server.local_addr();
        let mut c = Client::connect(addr, Duration::from_secs(2)).unwrap();
        let stream = DrillStream::new(Target::Stream(SketchFamily::Theta, b"await".to_vec()));
        let r = stream_relaxation(&cfg, b"await", 1);
        let soon = || Instant::now() + Duration::from_millis(50);
        let later = || Instant::now() + Duration::from_secs(10);
        // Admitted at `[n, n]`: every one of the first `n` items is in.
        let all_in = |n: u64| {
            let items: Vec<u64> = (0..n).collect();
            move |image: &[u8]| {
                check_image(SketchFamily::Theta, image, &items, items.len(), r, cfg.lg_k).is_ok()
            }
        };

        // The stream does not exist yet: every poll is an UnknownStream
        // NACK, which is neither an error nor an answer.
        let absent = c.query_stream_image(SketchFamily::Theta, b"await");
        assert_eq!(absent.unwrap().nack_code(), Some(NackCode::UnknownStream));
        assert!(
            await_admitted(&mut c, &stream.target, soon(), all_in(5_000))
                .unwrap()
                .is_none()
        );

        let tally = Tally::default();
        ingest_range(&tally, &mut Link::new(addr), &stream, 0..5_000).unwrap();
        assert_eq!(stream.items(), (0..5_000).collect::<Vec<_>>());
        assert_eq!((stream.acked(), stream.sent()), (5_000, 5_000));
        assert!(
            await_admitted(&mut c, &stream.target, later(), all_in(5_000))
                .unwrap()
                .is_some(),
            "5 000 acked items must be admitted at [5 000, 5 000]"
        );

        // 45 000 items that were never sent cannot all be in.
        assert!(
            await_admitted(&mut c, &stream.target, soon(), all_in(50_000))
                .unwrap()
                .is_none()
        );
        assert_eq!(tally.taxonomy.total_typed(), 0);
        server.shutdown();
    }

    #[test]
    fn ingest_loop_treats_the_default_stream_and_its_v2_name_alike() {
        let run = |target: Target| {
            let stream = DrillStream::new(target);
            // One connection applies the batches in arrival order, so
            // the estimate is a function of the items alone.
            let server = serve(ServerConfig {
                ingest_workers: 1,
                ..ServerConfig::default()
            })
            .unwrap();
            let tally = Tally::default();
            let mut link = Link::new(server.local_addr());
            ingest_range(&tally, &mut link, &stream, 0..20_000).unwrap();
            assert_eq!(tally.items_acked.load(Ordering::Relaxed), 20_000);
            assert_eq!(
                tally.taxonomy.reconnects(),
                0,
                "a first connect is not a reconnect"
            );
            drop(link);
            let drain = server.shutdown();
            (drain.stats.ingest_items, drain.final_estimate)
        };
        let v1 = run(Target::Default);
        let v2 = run(Target::Stream(SketchFamily::Theta, b"default".to_vec()));
        assert_eq!(v1.0, 20_000);
        assert_eq!(v1, v2);
    }
}
