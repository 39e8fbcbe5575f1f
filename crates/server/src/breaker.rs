//! Circuit breaker for the replica-peer link: closed → open → half-open.
//!
//! A server started with a replica peer owns one breaker, taken by the
//! pusher thread (`replica.rs`) once per push round. While *closed*,
//! rounds run and consecutive transport failures are counted; at the
//! threshold the breaker *opens* and the pusher skips its rounds instead
//! of dialling a peer that keeps failing. After the cooldown one
//! *half-open* probe round is admitted: success re-closes the breaker,
//! failure re-opens it for another cooldown. Ingest has no breaker — a
//! stream whose engine faulted is latched shut and answers a typed NACK
//! — and `StatsSnapshot::replica_breaker` reports this one's state.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Requests are rejected until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome decides the next
    /// state.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// A closed/open/half-open circuit breaker guarding one peer link.
#[derive(Debug)]
pub struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
}

impl CircuitBreaker {
    /// Creates a closed breaker that opens after `threshold` consecutive
    /// failures and admits a half-open probe after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold > 0, "a zero threshold would never admit anything");
        CircuitBreaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
            threshold,
            cooldown,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        // A panic while holding this mutex cannot leave partial state
        // (every update is a plain field store), so a poisoned lock is
        // safe to keep using.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a request may proceed. In the open state this is where
    /// the cooldown expiry transitions to half-open (admitting exactly
    /// one probe).
    pub fn allow(&self) -> bool {
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let expired = g
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if expired {
                    g.state = BreakerState::HalfOpen;
                    true // this caller is the probe
                } else {
                    false
                }
            }
            // A probe is already in flight; reject until it reports.
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a successful request: re-closes the breaker and clears
    /// the failure streak.
    pub fn record_success(&self) {
        let mut g = self.lock();
        g.state = BreakerState::Closed;
        g.consecutive_failures = 0;
        g.opened_at = None;
    }

    /// Records a failed request. A half-open probe failure re-opens
    /// immediately; in the closed state the breaker opens once the
    /// consecutive-failure streak reaches the threshold.
    pub fn record_failure(&self) {
        let mut g = self.lock();
        g.consecutive_failures = g.consecutive_failures.saturating_add(1);
        let open_now = match g.state {
            BreakerState::HalfOpen | BreakerState::Open => true,
            BreakerState::Closed => g.consecutive_failures >= self.threshold,
        };
        if open_now {
            g.state = BreakerState::Open;
            g.opened_at = Some(Instant::now());
        }
    }

    /// The current state (for stats/debugging; racy by nature).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_until_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_secs(60));
        assert!(b.allow());
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(2, Duration::from_secs(60));
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn half_open_probe_admits_exactly_one_and_its_outcome_decides() {
        let b = CircuitBreaker::new(1, Duration::from_millis(0));
        b.record_failure();
        // Cooldown of zero: the next allow() is the half-open probe.
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Concurrent requests are rejected while the probe is in flight.
        assert!(!b.allow());
        // Probe fails → re-open; a later probe succeeds → closed.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn open_waits_out_the_cooldown() {
        let b = CircuitBreaker::new(1, Duration::from_secs(600));
        b.record_failure();
        assert!(!b.allow(), "cooldown must gate the half-open probe");
        assert_eq!(b.state(), BreakerState::Open);
    }
}
