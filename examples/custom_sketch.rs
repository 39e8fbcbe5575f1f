//! Bring your own sketch: parallelising a custom summary with the generic
//! framework (§5's composable-sketch interface).
//!
//! The sketch here is deliberately tiny — a stream-minimum tracker — so
//! that every piece of the interface is visible:
//!
//! * the **global** side implements [`GlobalSketch`]: merge, direct
//!   (eager) update, snapshot publication through an atomic view, and
//!   `calcHint`;
//! * the **local** side implements [`LocalSketch`]: buffering and the
//!   static `shouldAdd` pre-filter. Like Θ's, the min-tracker's hint is
//!   *monotone* (the minimum only decreases), so filtering against a
//!   stale hint is always safe — this is the property §5.1's Θ argument
//!   relies on, reproduced in miniature.
//!
//! `merge`, `publish` and `calc_hint` run once per hand-off on the serial
//! propagation path, so they follow [`GlobalSketch`]'s cost contract:
//! O(b) amortised, nothing proportional to the sketch. Here that is
//! trivially true — the whole state is one `Option<u64>` — but a sketch
//! with real state has to keep whatever it publishes current during the
//! merge instead of recomputing it at publication.
//!
//! ```sh
//! cargo run --release --example custom_sketch
//! ```

use fcds::core::composable::{GlobalSketch, LocalSketch};
use fcds::core::sync::AtomicF64;
use fcds::core::{ConcurrencyConfig, ConcurrentSketch};

/// Global state: the exact minimum of everything merged so far.
#[derive(Debug, Default)]
struct MinGlobal {
    min: Option<u64>,
    n: u64,
}

/// Local state: a buffer of candidate minima (pre-filtered by the hint).
#[derive(Debug, Default)]
struct MinLocal {
    items: Vec<u64>,
}

impl LocalSketch for MinLocal {
    type Item = u64;
    /// The hint is the global minimum (`u64::MAX` hint encoding is fine —
    /// the `HintCodec` for `u64` requires non-zero, and a minimum of 0
    /// would be encoded as... 0. Shift by one to stay non-zero.)
    type Hint = u64;

    fn update(&mut self, item: u64) {
        self.items.push(item);
    }

    /// Drop anything that cannot improve the minimum. The hint is the
    /// global min + 1 (shifted to keep the encoding non-zero), so the
    /// filter is `item < hint - 1 + 1 = hint`.
    fn should_add(hint: u64, item: &u64) -> bool {
        *item < hint
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

impl GlobalSketch for MinGlobal {
    type Local = MinLocal;
    /// Published view: the current minimum as an atomic f64 (NaN = empty).
    type View = AtomicF64;
    type Snapshot = Option<u64>;

    fn new_local(&self) -> MinLocal {
        MinLocal::default()
    }

    fn new_view(&self) -> AtomicF64 {
        AtomicF64::new(f64::NAN)
    }

    fn merge(&mut self, local: &mut MinLocal) {
        for v in local.items.drain(..) {
            self.n += 1;
            if self.min.is_none_or(|m| v < m) {
                self.min = Some(v);
            }
        }
    }

    fn update_direct(&mut self, item: u64) {
        self.n += 1;
        if self.min.is_none_or(|m| item < m) {
            self.min = Some(item);
        }
    }

    fn publish(&self, view: &AtomicF64) {
        view.store(self.min.map_or(f64::NAN, |m| m as f64));
    }

    fn snapshot(view: &AtomicF64) -> Option<u64> {
        let v = view.load();
        if v.is_nan() {
            None
        } else {
            Some(v as u64)
        }
    }

    /// Hint = current min, shifted by one so the encoding is non-zero
    /// even when the minimum is 0 (`u64::MAX` when empty: filter nothing).
    fn calc_hint(&self) -> u64 {
        self.min.map_or(u64::MAX, |m| m.saturating_add(1).max(1))
    }

    fn stream_len(&self) -> u64 {
        self.n
    }
}

fn main() {
    let config = ConcurrencyConfig {
        writers: 4,
        max_concurrency_error: 1.0, // no eager phase: show the relaxed path
        ..Default::default()
    };
    println!(
        "custom min-tracker through the generic engine: N = {}, b = {}, r = 2Nb = {}",
        config.writers,
        config.buffer_size(),
        config.relaxation()
    );
    let sketch = ConcurrentSketch::start(MinGlobal::default(), config).expect("valid config");

    // Four writers race downwards from different offsets; the true
    // minimum of the whole stream is exactly 3.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let mut w = sketch.writer();
            s.spawn(move || {
                for i in (0..500_000u64).rev() {
                    w.update(4 * i + t + 3);
                }
                w.flush().unwrap();
            });
        }
        s.spawn(|| {
            for _ in 0..6 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                println!("  live minimum: {:?}", sketch.snapshot());
            }
        });
    });
    sketch.quiesce();
    let min = sketch.snapshot();
    println!("\nfinal minimum: {min:?} (true: Some(3))");
    assert_eq!(min, Some(3));
    println!(
        "the shouldAdd filter dropped every update ≥ the running minimum on the writer threads."
    );
}
