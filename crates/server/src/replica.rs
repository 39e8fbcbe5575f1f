//! The background replica pusher: ships what this server holds for
//! each stream to the configured peer as v2 REPLACE merges.

use crate::breaker::CircuitBreaker;
use crate::client::{Client, Reply};
use crate::slots::{ship_image, Consumer};
use crate::{ServerCtx, POLL_INTERVAL};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Advances a xorshift64 state and scales `base` by a ±25% jitter
/// factor. Hand-rolled so the server crate stays dependency-free; the
/// point of the jitter is only to de-synchronise retry storms from
/// many pushers against one recovering peer.
fn jittered(rng: &mut u64, base: Duration) -> Duration {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let frac = (*rng >> 40) as f64 / (1u64 << 24) as f64; // uniform [0, 1)
    base.mul_f64(0.75 + 0.5 * frac)
}

/// The background replica pusher: every `replica_interval`, encode what
/// this server holds for each stream (live engine image fanned in with
/// the boot-recovered slot, so a post-crash push never shrinks the
/// peer's slot to an empty just-restarted engine) and ship it to the
/// peer as a v2 REPLACE merge under this server's source id.
///
/// The peer link is guarded by the server-wide circuit breaker:
/// transport failures (connect/write/read errors) count toward opening
/// it, and while it is open the pusher backs off exponentially — the
/// delay doubles per failed round up to 16× `replica_interval`, with
/// ±25% jitter — instead of hammering a dead peer at full interval.
/// A successful round closes the breaker and resets the delay. Typed
/// peer NACKs (draining, at capacity) are counted as push errors but
/// keep the connection and the breaker closed: the peer is alive and
/// framing is intact. The pusher never takes the server down.
pub(crate) fn replica_pusher(ctx: Arc<ServerCtx>, peer: String) {
    let breaker = ctx
        .replica_breaker
        .clone()
        .unwrap_or_else(|| Arc::new(CircuitBreaker::new(1, ctx.cfg.breaker_cooldown)));
    let mut rng = ctx
        .cfg
        .replica_source_id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        | 1;
    let base = ctx.cfg.replica_interval;
    let backoff_cap = base.saturating_mul(16);
    let mut delay = base;
    let mut client: Option<Client> = None;
    let mut next_push = Instant::now() + base;
    loop {
        if ctx.ctl.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(POLL_INTERVAL);
        if Instant::now() < next_push {
            continue;
        }
        if !breaker.allow() {
            // Open breaker (cooldown not yet elapsed): re-check after
            // the current backoff delay instead of busy-probing.
            next_push = Instant::now() + jittered(&mut rng, delay);
            continue;
        }
        let mut transport_failed = false;
        if client.is_none() {
            client = Client::connect(peer.as_str(), ctx.cfg.write_timeout).ok();
            if client.is_none() {
                ctx.stats
                    .replica_push_errors
                    .fetch_add(1, Ordering::Relaxed);
                transport_failed = true;
            }
        }
        if let Some(c) = client.as_mut() {
            for state in ctx.registry.list() {
                let image = match ship_image(state.family, state.images(Consumer::ReplicaPush)) {
                    Ok(image) => image,
                    Err(_) => {
                        ctx.stats
                            .replica_push_errors
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                };
                let pushed = c.merge_stream_from(
                    state.family,
                    &state.key,
                    ctx.cfg.replica_source_id,
                    &image,
                );
                match pushed {
                    Ok(Reply::Ack { .. }) => {
                        ctx.stats.replica_pushes.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {
                        // Typed NACK (peer draining, at capacity…):
                        // count and keep the connection — framing is
                        // intact and the peer is demonstrably alive.
                        ctx.stats
                            .replica_push_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        ctx.stats
                            .replica_push_errors
                            .fetch_add(1, Ordering::Relaxed);
                        client = None; // reconnect after backoff
                        transport_failed = true;
                        break;
                    }
                }
            }
        }
        if transport_failed {
            breaker.record_failure();
            delay = (delay * 2).min(backoff_cap);
            next_push = Instant::now() + jittered(&mut rng, delay);
        } else {
            breaker.record_success();
            delay = base;
            next_push = Instant::now() + base;
        }
    }
}
