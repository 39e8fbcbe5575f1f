//! The open loop: ops fall due on a fixed schedule whatever the system
//! does, and each is timed from when it was due. A stall therefore
//! charges every op queued behind it, and how late the generator itself
//! ran is recorded beside the latencies.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns at or after `deadline_ns`; at once if it has passed.
    fn wait_until(&self, deadline_ns: u64);
}

/// The wall clock. It spins to the deadline: a sleep overshoots by the
/// kernel's timer slack (50 µs and more, as long as a loopback query
/// takes), and see `measure` for what a sleeping generator does to the
/// scheduler on a small box.
pub struct WallClock;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        now_ns()
    }

    fn wait_until(&self, deadline_ns: u64) {
        while now_ns() < deadline_ns {
            std::hint::spin_loop();
        }
    }
}

/// One op of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    pub index: u64,
    pub due_ns: u64,
    /// When the generator actually got to it.
    pub start_ns: u64,
}

impl Tick {
    /// How late the generator ran.
    pub fn late_ns(&self) -> u64 {
        self.start_ns - self.due_ns
    }
}

/// A fixed schedule: op `i` is due at `start + i * period`.
pub struct OpenLoop {
    start_ns: u64,
    period_ns: u64,
    next: u64,
}

impl OpenLoop {
    pub fn new(start_ns: u64, rate_per_s: u64) -> Self {
        OpenLoop {
            start_ns,
            period_ns: 1_000_000_000 / rate_per_s,
            next: 0,
        }
    }

    /// Waits for the next op to fall due. `None` once ops are due at or
    /// after `end_ns`. Behind schedule it does not wait and skips
    /// nothing: the backlog is worked off back to back.
    pub fn next(&mut self, clock: &impl Clock, end_ns: u64) -> Option<Tick> {
        let due_ns = self.start_ns + self.next * self.period_ns;
        if due_ns >= end_ns {
            return None;
        }
        clock.wait_until(due_ns);
        let tick = Tick {
            index: self.next,
            due_ns,
            start_ns: clock.now_ns(),
        };
        self.next += 1;
        Some(tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, deadline_ns: u64) {
            self.0.set(self.0.get().max(deadline_ns));
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_ops_queued_behind_it() {
        const PERIOD: u64 = 1_000_000; // 1000 ops/s
        const COST: u64 = 100_000;
        const STALL: u64 = 3_500_000;
        let clock = FakeClock(Cell::new(0));
        let mut schedule = OpenLoop::new(0, 1000);
        let mut latency = Vec::new();
        let mut late = Vec::new();
        while let Some(tick) = schedule.next(&clock, 10 * PERIOD) {
            // Op 2 stalls; every other op costs COST.
            let cost = if tick.index == 2 { STALL } else { COST };
            clock.0.set(clock.0.get() + cost);
            latency.push(clock.now_ns() - tick.due_ns);
            late.push(tick.late_ns());
        }
        // The schedule drops nothing: ten ops were due, ten ran.
        assert_eq!(latency.len(), 10);
        // On time before the stall.
        assert_eq!((latency[0], late[0]), (COST, 0));
        assert_eq!((latency[1], late[1]), (COST, 0));
        assert_eq!((latency[2], late[2]), (STALL, 0));
        // Op 3 was due at 3 ms but starts when the stall ends at 5.5 ms:
        // it is charged the 2.5 ms it waited plus its own cost.
        assert_eq!((latency[3], late[3]), (2_500_000 + COST, 2_500_000));
        // The backlog drains back to back, each op 0.9 ms less late.
        assert_eq!(late[4], 1_600_000);
        assert_eq!(late[5], 700_000);
        // Caught up: on schedule again.
        assert_eq!((latency[6], late[6]), (COST, 0));
        assert_eq!((latency[9], late[9]), (COST, 0));
    }
}
