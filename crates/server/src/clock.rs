//! [`Clock`]: the server's one reading of time. The frame deadline
//! (`conn::FrameReader`) and the shipper's interval and backoff
//! (`ship::Schedule`) read it; nothing else in the connection loop or
//! the shipper asks the OS for the time.
//!
//! In a production build the clock is `Instant::now` and nothing else:
//! one variant, no allocation, no lock. Tests get a [`Manual`] clock
//! that moves only when told, so a deadline or a backoff is checked to
//! the nanosecond without sleeping.

use std::time::Instant;
#[cfg(test)]
use std::{
    sync::{Arc, Mutex},
    time::Duration,
};

/// Where the server reads the time.
#[derive(Debug, Clone, Default)]
pub(crate) enum Clock {
    /// The OS monotonic clock.
    #[default]
    System,
    /// A clock a test moves by hand.
    #[cfg(test)]
    Manual(Arc<Manual>),
}

impl Clock {
    /// The current time.
    #[inline]
    pub(crate) fn now(&self) -> Instant {
        match self {
            Clock::System => Instant::now(),
            #[cfg(test)]
            Clock::Manual(manual) => manual.now(),
        }
    }
}

/// A clock that stands still until a test moves it.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Manual(Mutex<Instant>);

#[cfg(test)]
impl Manual {
    /// A manual clock reading now, and the server clock over it.
    pub(crate) fn new() -> (Arc<Manual>, Clock) {
        let manual = Arc::new(Manual(Mutex::new(Instant::now())));
        (Arc::clone(&manual), Clock::Manual(manual))
    }

    pub(crate) fn now(&self) -> Instant {
        *self.0.lock().unwrap()
    }

    /// Moves the clock forward by `by`.
    pub(crate) fn advance(&self, by: Duration) {
        *self.0.lock().unwrap() += by;
    }

    /// Moves the clock to `at`, if that is not in its past.
    pub(crate) fn advance_to(&self, at: Instant) {
        let mut now = self.0.lock().unwrap();
        *now = (*now).max(at);
    }
}
