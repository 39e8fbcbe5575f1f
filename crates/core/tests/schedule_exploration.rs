//! Exhaustive schedule exploration of the hand-off protocol *design*.
//!
//! The real `PropSlot` runs on hardware atomics, where we can only
//! stress-test interleavings probabilistically. Here we model the worker
//! and propagator of Algorithm 2 as explicit state machines over a
//! sequentially-consistent shared state and exhaustively enumerate every
//! interleaving (DFS over schedules) for small traces, checking that
//!
//! * no update is lost or duplicated,
//! * the propagator only touches a buffer the worker has handed off,
//! * the worker never mutates a buffer the propagator owns,
//! * every reachable terminal state has the worker done, not deadlocked,
//! * after a writer-assisted inline merge, every item the worker has
//!   taken so far is merged — none is left in a buffer.
//!
//! The model mirrors `runtime.rs` step by step (the functions are named
//! in comments), so a protocol-logic bug (as opposed to a memory-ordering
//! bug, which the fences in `PropSlot` handle) would show up here on
//! every run. The trace `0..n` is one `update_batch` call.

use std::collections::HashSet;

const PENDING: u64 = 0;
const MERGED_HINT: u64 = 1;

/// Shared protocol state (models `PropSlot` fields; sequentially
/// consistent — the model checks logic, not memory ordering).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Shared {
    prop: u64,
    cur: usize,
    buffers: [Vec<u32>; 2],
    merged: Vec<u32>,
    /// Ownership ghost state: which side may touch each buffer.
    propagator_owns: [bool; 2],
}

/// Worker program counter (update_i of Algorithm 2, lines 119–129).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum WorkerPc {
    /// Buffer the next item into `buffers[cur]` (line 122; the chunk
    /// fill in `SketchWriter::feed`).
    Update {
        next_item: u32,
    },
    /// Line 125: wait until `prop != 0`, then flip + hand off
    /// (`SketchWriter::flush_inner` / `wait_merged`).
    AwaitMerge {
        next_item: u32,
    },
    /// `SketchWriter::merge_inline`: the buffer is full with items still
    /// to go, or a slice of this call already merged inline — try the
    /// shard lock.
    TryInline {
        next_item: u32,
    },
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    shared: Shared,
    worker: WorkerPc,
}

/// The protocol parameters: `n` items, buffer size `b`, and the inline
/// slice cap (`None` models the dedicated backend, which never merges
/// inline; `Some(s)` the writer-assisted one with `INLINE_SLICE = s`).
#[derive(Clone, Copy)]
struct Params {
    n: u32,
    b: usize,
    slice: Option<usize>,
}

/// Every worker step enabled in `state` (none while it waits or is done).
fn worker_steps(state: &State, p: Params) -> Vec<State> {
    let mut s = state.clone();
    match s.worker {
        WorkerPc::Update { next_item } => {
            assert!(
                !s.shared.propagator_owns[s.shared.cur],
                "worker touched a propagator-owned buffer"
            );
            s.shared.buffers[s.shared.cur].push(next_item);
            let filled = s.shared.buffers[s.shared.cur].len() >= p.b;
            let next = next_item + 1;
            s.worker = if filled && p.slice.is_some() && next < p.n {
                WorkerPc::TryInline { next_item: next }
            } else if filled {
                WorkerPc::AwaitMerge { next_item: next }
            } else if next >= p.n {
                WorkerPc::Done
            } else {
                WorkerPc::Update { next_item: next }
            };
            vec![s]
        }
        WorkerPc::AwaitMerge { next_item } => {
            // Line 125: blocked until prop != PENDING.
            if s.shared.prop == PENDING {
                return Vec::new();
            }
            // Lines 126–129: flip cur, hand off the filled buffer.
            let filled = s.shared.cur;
            s.shared.cur = 1 - s.shared.cur;
            assert!(
                s.shared.buffers[s.shared.cur].is_empty(),
                "fresh buffer not cleared by the propagator"
            );
            s.shared.propagator_owns[filled] = true;
            s.shared.prop = PENDING;
            s.worker = if next_item >= p.n {
                WorkerPc::Done
            } else {
                WorkerPc::Update { next_item }
            };
            vec![s]
        }
        WorkerPc::TryInline { next_item } => {
            let slice = p.slice.expect("inline steps need a slice cap");
            // `try_lock` lost: some other thread holds the shard lock. A
            // full buffer is handed off as usual; after an inline slice
            // the buffer is empty and the worker goes back to filling.
            let mut lost = state.clone();
            lost.worker = if lost.shared.buffers[lost.shared.cur].len() >= p.b {
                WorkerPc::AwaitMerge { next_item }
            } else {
                WorkerPc::Update { next_item }
            };
            // `try_lock` won: one step, atomic with respect to the
            // propagator step, because the shard lock excludes it.
            // `drain_shard_locked` first merges the pending hand-off …
            if s.shared.prop == PENDING {
                let idx = 1 - s.shared.cur;
                assert!(
                    s.shared.propagator_owns[idx],
                    "inline drain touched a worker-owned buffer"
                );
                let drained: Vec<u32> = s.shared.buffers[idx].drain(..).collect();
                s.shared.merged.extend(drained);
                s.shared.propagator_owns[idx] = false;
                s.shared.prop = MERGED_HINT;
            }
            // … then the current buffer is topped up to `slice` items of
            // the call and merged.
            let cur = s.shared.cur;
            assert!(
                !s.shared.propagator_owns[cur],
                "inline merge took a propagator-owned buffer"
            );
            let take = slice.saturating_sub(s.shared.buffers[cur].len()) as u32;
            let next = (next_item + take).min(p.n);
            s.shared.buffers[cur].extend(next_item..next);
            let merged: Vec<u32> = s.shared.buffers[cur].drain(..).collect();
            s.shared.merged.extend(merged);
            let mut mine = s.shared.merged.clone();
            mine.sort_unstable();
            assert_eq!(
                mine,
                (0..next).collect::<Vec<u32>>(),
                "an item taken before an inline merge is not merged in {s:?}"
            );
            s.worker = if next >= p.n {
                WorkerPc::Done
            } else {
                WorkerPc::TryInline { next_item: next }
            };
            vec![s, lost]
        }
        WorkerPc::Done => Vec::new(),
    }
}

/// One propagator step (lines 112–115, `EngineCore::propagate_slot_locked`);
/// `None` if nothing to do.
fn propagator_step(state: &State) -> Option<State> {
    if state.shared.prop != PENDING {
        return None;
    }
    let mut s = state.clone();
    let idx = 1 - s.shared.cur;
    assert!(
        s.shared.propagator_owns[idx],
        "propagator touched a worker-owned buffer"
    );
    let drained: Vec<u32> = s.shared.buffers[idx].drain(..).collect();
    s.shared.merged.extend(drained);
    s.shared.propagator_owns[idx] = false;
    s.shared.prop = MERGED_HINT;
    Some(s)
}

/// What one exploration covered.
#[derive(Debug)]
struct Explored {
    states: usize,
    terminals: usize,
    /// States in which the worker tries the shard lock (each has a won
    /// and a lost successor).
    lock_tries: usize,
}

/// DFS over all interleavings; checks every terminal state.
fn explore(p: Params) -> Explored {
    let initial = State {
        shared: Shared {
            prop: MERGED_HINT,
            cur: 0,
            buffers: [Vec::new(), Vec::new()],
            merged: Vec::new(),
            propagator_owns: [false, false],
        },
        worker: if p.n == 0 {
            WorkerPc::Done
        } else {
            WorkerPc::Update { next_item: 0 }
        },
    };
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![initial];
    let mut explored = Explored {
        states: 0,
        terminals: 0,
        lock_tries: 0,
    };
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        explored.states += 1;
        let w = worker_steps(&state, p);
        let prop = propagator_step(&state);
        if w.is_empty() && prop.is_none() {
            // Terminal (worker done or blocked with no propagator work):
            // the worker must actually be done, not deadlocked.
            assert_eq!(
                state.worker,
                WorkerPc::Done,
                "deadlock: worker blocked with an idle propagator in {state:?}"
            );
            explored.terminals += 1;
            // Exactly-once delivery: merged ∪ in-flight buffers ∪ current
            // buffer = 0..n, each item exactly once.
            let mut all: Vec<u32> = state.shared.merged.clone();
            all.extend(state.shared.buffers[0].iter());
            all.extend(state.shared.buffers[1].iter());
            all.sort_unstable();
            let expected: Vec<u32> = (0..p.n).collect();
            assert_eq!(all, expected, "items lost or duplicated in {state:?}");
            continue;
        }
        if matches!(state.worker, WorkerPc::TryInline { .. }) {
            explored.lock_tries += 1;
        }
        stack.extend(w);
        stack.extend(prop);
    }
    explored
}

/// The dedicated backend's protocol: hand-offs only.
fn handoffs_only(n: u32, b: usize) -> Explored {
    explore(Params { n, b, slice: None })
}

#[test]
fn exhaustive_b1_small_trace() {
    let e = handoffs_only(6, 1);
    assert!(e.states > 6, "exploration trivially small: {}", e.states);
    assert!(e.terminals >= 1);
}

#[test]
fn exhaustive_b2() {
    let e = handoffs_only(8, 2);
    assert!(e.states > 8);
}

#[test]
fn exhaustive_b3_with_partial_tail() {
    // 7 items with b = 3: the final buffer is partial and stays local —
    // exactly the state a writer-drop flush would hand off.
    let e = handoffs_only(7, 3);
    assert!(e.states > 7);
}

#[test]
fn exhaustive_larger_buffer_than_stream() {
    // b > n: nothing is ever handed off; the items stay buffered, which
    // terminal checking still accounts for.
    let e = handoffs_only(3, 8);
    assert_eq!(e.terminals, 1, "fully deterministic schedule");
}

#[test]
fn empty_trace_is_terminal() {
    let e = handoffs_only(0, 4);
    assert_eq!(e.states, 1);
    assert_eq!(e.terminals, 1);
}

#[test]
fn exhaustive_inline_merges_interleaved_with_handoffs() {
    // Every mix of won and lost `try_lock`s against the propagator, for
    // slices that take more than the buffer, exactly the buffer, and
    // nothing beyond it (`b` = slice), with a remainder shorter than `b`.
    for (n, b, slice) in [(8, 2, 3), (9, 2, 2), (7, 3, 4), (6, 1, 2)] {
        let e = explore(Params {
            n,
            b,
            slice: Some(slice),
        });
        let plain = handoffs_only(n, b);
        assert!(e.lock_tries > 0, "n={n} b={b} S={slice}: no inline step");
        assert!(
            e.states > plain.states,
            "n={n} b={b} S={slice}: inline steps reached no new state"
        );
    }
}
