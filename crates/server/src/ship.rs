//! The one shipper: every image that leaves the server — a checkpoint
//! into the [`SnapshotStore`](crate::SnapshotStore) or a replica push
//! to the peer — goes out through [`ship_round`], which [`shipper`]
//! runs once per interval on one thread per sink.
//!
//! Each stream keeps one [`Mark`] per shipping [`Consumer`]: the items
//! count its last shipped image was captured at, and a dirty bit that
//! an accepted merge sets for exactly the consumers that see its slot
//! (`StreamState::merge`). A round ships the streams whose mark is
//! behind and skips the rest, so an idle stream costs no image, no
//! write and no push.

use crate::client::{Client, Reply};
use crate::clock::Clock;
use crate::registry::StreamState;
use crate::slots::{ship_image, Consumer};
use crate::{ServerConfig, ServerCtx, POLL_INTERVAL};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How far one shipping consumer's sink has caught up with a stream.
#[derive(Debug, Default)]
pub(crate) struct Mark {
    /// `StreamState::items` when the last shipped image was captured.
    seq: AtomicU64,
    /// Set when the stream changed without `items` moving (an accepted
    /// merge this consumer sees) or the sink lost what it held.
    dirty: AtomicBool,
}

impl Mark {
    /// The items count the last shipped image was captured at.
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Records that the sink holds an image captured at `seq`.
    pub(crate) fn shipped(&self, seq: u64) {
        self.seq.store(seq, Ordering::Release);
    }

    /// Makes the next round ship the stream whatever `items` says.
    pub(crate) fn dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Claims the stream for this round if it is behind `seq` or dirty;
    /// `Some(was_dirty)`, so a failed ship can put the bit back.
    fn take(&self, seq: u64) -> Option<bool> {
        let was_dirty = self.dirty.swap(false, Ordering::AcqRel);
        (was_dirty || seq != self.seq()).then_some(was_dirty)
    }
}

/// How a sink call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Failed {
    /// This call failed; the sink still takes the next one.
    Call,
    /// The sink is unreachable: the round ends and the loop backs off.
    Sink,
}

/// Where a [`ship_round`] sends images, under the server's `cfg`.
pub(crate) trait Sink {
    /// Whose slots the images carry and whose mark they advance.
    fn consumer(&self) -> Consumer;
    /// Readies the sink for a round. `Ok(true)` when it is fresh — it
    /// holds nothing shipped before, so every stream is shipped again.
    fn open(&mut self, _cfg: &ServerConfig) -> io::Result<bool> {
        Ok(false)
    }
    /// Ships `image`, captured when the stream's items count read `seq`.
    fn put(
        &mut self,
        cfg: &ServerConfig,
        state: &StreamState,
        seq: u64,
        image: &[u8],
    ) -> Result<(), Failed>;
    /// Ends a round; `wrote` says whether any image went out.
    fn close(&mut self, _cfg: &ServerConfig, _wrote: bool) -> Result<(), Failed> {
        Ok(())
    }
}

/// One round over `streams`: every registered stream for a background
/// shipper, the just-quiesced ones for the drain's final checkpoint.
/// Ships each stream whose mark is behind, advances the mark of each
/// image the sink took and counts the rest as errors, never fatal — a
/// full disk or a dead peer degrades durability or sync, it does not
/// take ingest down. Returns `false` when the sink went unreachable.
pub(crate) fn ship_round(
    ctx: &ServerCtx,
    sink: &mut dyn Sink,
    streams: &[Arc<StreamState>],
) -> bool {
    let who = sink.consumer();
    let (shipped, failed) = match who {
        Consumer::Checkpoint => (&ctx.stats.snapshots_written, &ctx.stats.snapshot_errors),
        _ => (&ctx.stats.replica_pushes, &ctx.stats.replica_push_errors),
    };
    match sink.open(&ctx.cfg) {
        Ok(true) => streams.iter().for_each(|state| state.mark(who).dirty()),
        Ok(false) => {}
        Err(_) => {
            failed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
    }
    let mut wrote = false;
    for state in streams {
        let mark = state.mark(who);
        // Capture the sequence *before* collecting images: concurrent
        // ingest can only make the image richer than `seq` claims, so
        // the mark errs towards shipping again, never towards skipping.
        let seq = state.items.load(Ordering::Relaxed);
        let Some(was_dirty) = mark.take(seq) else {
            continue;
        };
        let sent = ship_image(state.family, state.images(who))
            .map_err(|_| Failed::Call)
            .and_then(|image| sink.put(&ctx.cfg, state, seq, &image));
        match sent {
            Ok(()) => {
                mark.shipped(seq);
                wrote = true;
                shipped.fetch_add(1, Ordering::Relaxed);
            }
            Err(why) => {
                // Leave the mark as it was: the next round retries.
                if was_dirty {
                    mark.dirty();
                }
                failed.fetch_add(1, Ordering::Relaxed);
                if why == Failed::Sink {
                    return false;
                }
            }
        }
    }
    match sink.close(&ctx.cfg, wrote) {
        Ok(()) => true,
        Err(why) => {
            failed.fetch_add(1, Ordering::Relaxed);
            why == Failed::Call
        }
    }
}

/// Scales `base` by a ±25 % jitter drawn from a xorshift64 state.
/// Hand-rolled so the server crate stays dependency-free; the jitter
/// only de-synchronises many pushers retrying one recovering peer.
fn jittered(rng: &mut u64, base: Duration) -> Duration {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let frac = (*rng >> 40) as f64 / (1u64 << 24) as f64; // uniform [0, 1)
    base.mul_f64(0.75 + 0.5 * frac)
}

/// When a shipper's next round runs, on the server's [`Clock`]. A
/// round that reached its sink is followed one interval after it
/// started. After one whose sink went unreachable the next waits a
/// doubling delay from its end instead, capped at 16 intervals and
/// jittered ±25 %; a round that reached the sink resets it.
struct Schedule {
    interval: Duration,
    /// The unjittered wait after the last round.
    delay: Duration,
    rng: u64,
    /// When the next round is due.
    next: Instant,
}

impl Schedule {
    /// The first round is due one interval from now; `seed` seeds the
    /// jitter.
    fn new(interval: Duration, seed: u64, clock: &Clock) -> Schedule {
        Schedule {
            interval,
            delay: interval,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            next: clock.now() + interval,
        }
    }

    /// Runs `round` if it is due; returns whether it ran. `round` says
    /// whether it reached its sink.
    fn tick(&mut self, clock: &Clock, round: impl FnOnce() -> bool) -> bool {
        let start = clock.now();
        if start < self.next {
            return false;
        }
        if round() {
            self.delay = self.interval;
            self.next = start + self.interval;
        } else {
            self.delay = (self.delay * 2).min(self.interval.saturating_mul(16));
            self.next = clock.now() + jittered(&mut self.rng, self.delay);
        }
        true
    }
}

/// One sink's background thread: a [`ship_round`] over every
/// registered stream whenever its [`Schedule`] says, until the drain
/// stops it.
pub(crate) fn shipper(ctx: Arc<ServerCtx>, sink: &mut dyn Sink, interval: Duration) {
    let mut schedule = Schedule::new(interval, ctx.cfg.replica_source_id, &ctx.clock);
    while !ctx.ctl.ship_stop.load(Ordering::Acquire) {
        std::thread::sleep(POLL_INTERVAL);
        schedule.tick(&ctx.clock, || ship_round(&ctx, sink, &ctx.registry.list()));
    }
}

/// The replica pusher's sink: a v2 REPLACE merge per stream to the
/// peer, under this server's source id, over one kept connection.
pub(crate) struct Peer {
    addr: String,
    client: Option<Client>,
}

impl Peer {
    pub(crate) fn new(addr: String) -> Peer {
        Peer { addr, client: None }
    }

    /// Runs `request` on the kept connection, dropped on a transport
    /// error so that the next round reconnects.
    fn call<R>(&mut self, request: impl FnOnce(&mut Client) -> io::Result<R>) -> Result<R, Failed> {
        let client = self.client.as_mut().ok_or(Failed::Sink)?;
        request(client).map_err(|_| {
            self.client = None;
            Failed::Sink
        })
    }
}

impl Sink for Peer {
    fn consumer(&self) -> Consumer {
        Consumer::ReplicaPush
    }

    /// A new connection is fresh: a peer without a data dir that
    /// restarted holds none of this server's slots.
    fn open(&mut self, cfg: &ServerConfig) -> io::Result<bool> {
        if self.client.is_some() {
            return Ok(false);
        }
        self.client = Some(Client::connect(self.addr.as_str(), cfg.write_timeout)?);
        Ok(true)
    }

    /// A typed NACK (peer draining, at capacity…) fails this stream
    /// only: framing is intact and the peer is demonstrably alive.
    fn put(
        &mut self,
        cfg: &ServerConfig,
        state: &StreamState,
        _seq: u64,
        image: &[u8],
    ) -> Result<(), Failed> {
        let source = cfg.replica_source_id;
        match self.call(|c| c.merge_stream_from(state.family, &state.key, source, image))? {
            Reply::Ack { .. } => Ok(()),
            _ => Err(Failed::Call),
        }
    }

    /// A round that pushed nothing pings instead, so a dead connection
    /// is noticed (and the restarted peer re-pushed) without ingest.
    fn close(&mut self, _cfg: &ServerConfig, wrote: bool) -> Result<(), Failed> {
        if !wrote {
            self.call(Client::ping)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Manual;
    use crate::registry;
    use bytes::Bytes;
    use fcds_sketches::wire::SketchFamily;

    fn ctx() -> ServerCtx {
        crate::test_ctx(Clock::System)
    }

    /// Records the keys it was given; `fresh`, `down` and `fail` script
    /// the next `open`, every `open` and every `put`.
    struct FakeSink {
        who: Consumer,
        fresh: bool,
        down: bool,
        fail: bool,
        puts: Vec<Vec<u8>>,
    }

    impl FakeSink {
        fn new(who: Consumer) -> FakeSink {
            FakeSink {
                who,
                fresh: false,
                down: false,
                fail: false,
                puts: Vec::new(),
            }
        }

        /// Keys shipped by one round, in stream order.
        fn round(&mut self, ctx: &ServerCtx, streams: &[Arc<StreamState>]) -> Vec<Vec<u8>> {
            assert!(ship_round(ctx, self, streams), "the fake never goes down");
            std::mem::take(&mut self.puts)
        }
    }

    impl Sink for FakeSink {
        fn consumer(&self) -> Consumer {
            self.who
        }
        fn open(&mut self, _cfg: &ServerConfig) -> io::Result<bool> {
            if self.down {
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            Ok(std::mem::take(&mut self.fresh))
        }
        fn put(
            &mut self,
            _cfg: &ServerConfig,
            state: &StreamState,
            _seq: u64,
            _image: &[u8],
        ) -> Result<(), Failed> {
            if self.fail {
                return Err(Failed::Call);
            }
            self.puts.push(state.key.clone());
            Ok(())
        }
    }

    fn ingest(state: &StreamState, items: &[u64]) {
        let mut writer = state.engine.writer();
        writer.ingest_batch(items);
        writer.flush().unwrap();
        state.items.fetch_add(items.len() as u64, Ordering::Relaxed);
    }

    #[test]
    fn a_round_ships_exactly_the_streams_its_mark_is_behind_on() {
        let ctx = ctx();
        let streams: Vec<Arc<StreamState>> = [b"a", b"b"]
            .iter()
            .map(|key| registry::new_stream(&ctx, *key, SketchFamily::Theta).unwrap())
            .collect();
        let (a, b) = (&streams[0], &streams[1]);
        ingest(a, &[1, 2, 3]);
        ingest(b, &[4, 5]);
        let image: Bytes = a.engine.wire_image();
        let mut checkpoint = FakeSink::new(Consumer::Checkpoint);
        let mut push = FakeSink::new(Consumer::ReplicaPush);
        for sink in [&mut checkpoint, &mut push] {
            assert_eq!(sink.round(&ctx, &streams), [b"a".to_vec(), b"b".to_vec()]);
            // A clean stream is skipped.
            assert!(sink.round(&ctx, &streams).is_empty());
        }
        assert_eq!(a.mark(Consumer::Checkpoint).seq(), 3);

        // An accumulating merge dirties what a checkpoint sees, not
        // what a replica push ships.
        a.merge(None, image.clone()).unwrap();
        assert_eq!(checkpoint.round(&ctx, &streams), [b"a".to_vec()]);
        assert!(push.round(&ctx, &streams).is_empty());

        // A REPLACE merge dirties neither.
        b.merge(Some(7), image).unwrap();
        assert!(checkpoint.round(&ctx, &streams).is_empty());
        assert!(push.round(&ctx, &streams).is_empty());

        // A failed put leaves the mark: the next round ships again.
        ingest(b, &[6]);
        checkpoint.fail = true;
        assert!(checkpoint.round(&ctx, &streams).is_empty());
        assert_eq!(ctx.stats.snapshot_errors.load(Ordering::Relaxed), 1);
        assert_eq!(b.mark(Consumer::Checkpoint).seq(), 2);
        checkpoint.fail = false;
        assert_eq!(checkpoint.round(&ctx, &streams), [b"b".to_vec()]);
        assert_eq!(b.mark(Consumer::Checkpoint).seq(), 3);

        // A fresh sink (a peer that reconnected) gets every stream.
        assert_eq!(push.round(&ctx, &streams), [b"b".to_vec()]);
        push.fresh = true;
        assert_eq!(push.round(&ctx, &streams), [b"a".to_vec(), b"b".to_vec()]);
        assert!(push.round(&ctx, &streams).is_empty());
        assert_eq!(ctx.stats.replica_pushes.load(Ordering::Relaxed), 5);
        assert_eq!(ctx.stats.snapshots_written.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn the_backoff_doubles_to_sixteen_intervals_and_resets_on_a_reached_round() {
        let (clock, server_clock) = Manual::new();
        let ctx = crate::test_ctx(server_clock.clone());
        let interval = Duration::from_millis(100);
        let mut schedule = Schedule::new(interval, 7, &server_clock);
        let mut sink = FakeSink::new(Consumer::ReplicaPush);
        // The wait from the last round to the next one that runs, in
        // intervals, with the round's outcome. Each round is due at an
        // exact instant: a nanosecond before it, nothing runs.
        let mut last = clock.now();
        let mut next_round = |sink: &mut FakeSink| {
            let due = schedule.next;
            clock.advance_to(due - Duration::from_nanos(1));
            assert!(!schedule.tick(&server_clock, || unreachable!("not due")));
            clock.advance_to(due);
            let mut reached = None;
            let ran = schedule.tick(&server_clock, || {
                reached = Some(ship_round(&ctx, sink, &[]));
                reached.unwrap()
            });
            assert!(ran);
            let waited = (due - last).as_secs_f64() / interval.as_secs_f64();
            last = due;
            (waited, reached.unwrap())
        };

        // The first round is due one interval after the start.
        assert_eq!(next_round(&mut sink), (1.0, true));
        sink.down = true;
        assert_eq!(next_round(&mut sink), (1.0, false));
        // Doubling, ±25 %, capped at 16 intervals.
        for factor in [2.0, 4.0, 8.0, 16.0, 16.0, 16.0] {
            let (waited, reached) = next_round(&mut sink);
            assert!(!reached);
            assert!(
                (0.75 * factor..=1.25 * factor).contains(&waited),
                "{waited} intervals where {factor} ±25 % was due"
            );
        }
        // A round that reaches the sink resets the wait to one interval,
        // and the next failure starts doubling from there.
        sink.down = false;
        let (waited, reached) = next_round(&mut sink);
        assert!(reached && (12.0..=20.0).contains(&waited), "{waited}");
        assert_eq!(next_round(&mut sink), (1.0, true));
        sink.down = true;
        assert_eq!(next_round(&mut sink), (1.0, false));
        let (waited, _) = next_round(&mut sink);
        assert!((1.5..=2.5).contains(&waited), "{waited}");
        assert_eq!(ctx.stats.replica_push_errors.load(Ordering::Relaxed), 9);
    }
}
