//! Spans around the benchmark's own calls into each layer.
//!
//! An op (one ingest, query or merge) is a root span whose children are
//! named after the layer called. Every span is aggregated per name
//! (count, total, self time, a histogram of durations); the first [`SPANS_KEPT`] of a
//! thread are also kept whole and written out at exit.

use crate::stats::Histogram;
use std::fmt::Write as _;

/// Whole spans kept per thread. Later spans still count in the
/// aggregates; a 10 s run of `embed_theta` makes ~3 M of them, which
/// nobody reads and which would cost ~300 MB as JSON.
pub const SPANS_KEPT: usize = 1 << 16;

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 9] = [
    "op.ingest",
    "op.query",
    "op.merge",
    "server.frame.encode",
    "server.client.send",
    "server.client.wait",
    "core.engine.ingest_batch",
    "core.engine.flush",
    "core.engine.estimate",
];
pub const OP_INGEST: u8 = 0;
pub const OP_QUERY: u8 = 1;
pub const OP_MERGE: u8 = 2;
pub const FRAME_ENCODE: u8 = 3;
pub const CLIENT_SEND: u8 = 4;
pub const CLIENT_WAIT: u8 = 5;
pub const ENGINE_INGEST: u8 = 6;
pub const ENGINE_FLUSH: u8 = 7;
pub const ENGINE_ESTIMATE: u8 = 8;

/// One timed interval. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The root span that caused this one; a root is its own parent.
    pub parent: u64,
    /// The op this span belongs to: shared by a root and its children.
    pub op: u64,
    pub name: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may overlap each other and may stick out of
/// the parent; only the covered part of the parent's interval counts.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

#[derive(Debug, Default, Clone)]
struct Aggregate {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Histogram,
}

/// One thread's trace. Not shared: each client thread owns one, and the
/// main thread merges them at exit.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Distinguishes the span ids of different threads.
    thread: u64,
    next_id: u64,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    pub fn new(thread: u64) -> Self {
        Tracer {
            thread,
            next_id: 0,
            spans: Vec::new(),
            aggregates: vec![Aggregate::default(); NAMES.len()],
        }
    }

    fn push(&mut self, name: u8, parent: Option<u64>, op: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = (self.thread << 48) | self.next_id;
        self.next_id += 1;
        let agg = &mut self.aggregates[name as usize];
        agg.count += 1;
        agg.total_ns += end_ns - start_ns;
        agg.durations.record(end_ns - start_ns);
        if self.spans.len() < SPANS_KEPT {
            self.spans.push(Span {
                id,
                parent: parent.unwrap_or(id),
                op,
                name,
                start_ns,
                end_ns,
            });
        }
        id
    }

    /// Records one op: a root span over `root` and one child per entry
    /// of `children`, each `(name, start, end)`.
    pub fn record_op(&mut self, name: u8, root: (u64, u64), children: &[(u8, u64, u64)]) {
        let op = (self.thread << 48) | self.next_id;
        let root_id = self.push(name, None, op, root.0, root.1);
        let mut intervals = [(0u64, 0u64); 4];
        for (slot, &(child, start, end)) in intervals.iter_mut().zip(children) {
            self.push(child, Some(root_id), op, start, end);
            self.aggregates[child as usize].self_ns += end - start;
            *slot = (start, end);
        }
        self.aggregates[name as usize].self_ns +=
            self_time_ns(root, &intervals[..children.len().min(intervals.len())]);
    }

    /// Median duration of the spans called `name`, in nanoseconds; 0
    /// when there are none.
    pub fn p50_ns(&self, name: u8) -> f64 {
        self.aggregates[name as usize]
            .durations
            .summarize()
            .map_or(0.0, |s| s.p50)
    }

    /// Takes over another thread's spans and aggregates.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (mine, theirs) in self.aggregates.iter_mut().zip(other.aggregates) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.durations.absorb(&theirs.durations);
        }
    }

    /// Span counts whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> u64 {
        NAMES
            .iter()
            .zip(&self.aggregates)
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, agg)| agg.count)
            .sum()
    }

    /// The trace as one JSON document: `head` (already-encoded members
    /// such as the stamp and the boundary counts), the per-name summary
    /// and the kept spans.
    pub fn json(&self, head: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 4096);
        let _ = write!(out, "{{{head},\n\"summary\":[");
        let total: u64 = self.aggregates.iter().map(|a| a.count).sum();
        for (i, name) in NAMES.iter().enumerate() {
            let p50 = self.p50_ns(i as u8);
            let a = &self.aggregates[i];
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{p50}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        let _ = write!(
            out,
            "],\n\"spans_total\":{total},\"spans_kept\":{},\n\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, NAMES[s.name as usize], s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // Two disjoint children: 100 - (20 + 30).
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 80)]), 50);
        // Overlapping children are covered once: union is [10, 60).
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        // A child sticking out of the parent counts only inside it.
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        // No children: all of it is self time.
        assert_eq!(self_time_ns((5, 25), &[]), 20);
        // Children covering everything leave none.
        assert_eq!(self_time_ns((0, 10), &[(0, 4), (4, 10)]), 0);
    }

    #[test]
    fn an_op_shares_its_id_and_parents_its_children() {
        let mut t = Tracer::new(3);
        t.record_op(
            OP_INGEST,
            (100, 200),
            &[
                (FRAME_ENCODE, 110, 120),
                (CLIENT_SEND, 120, 150),
                (CLIENT_WAIT, 150, 195),
            ],
        );
        t.record_op(OP_QUERY, (300, 340), &[(CLIENT_WAIT, 305, 335)]);
        assert_eq!(t.spans.len(), 6);
        let root = t.spans[0];
        assert_eq!((root.parent, root.op), (root.id, root.id));
        assert!(t.spans[1..4]
            .iter()
            .all(|s| s.parent == root.id && s.op == root.op));
        assert_ne!(t.spans[4].op, root.op);
        assert_eq!(t.aggregates[CLIENT_WAIT as usize].count, 2);
        assert_eq!(t.count_prefix("server."), 4);
        assert_eq!(t.count_prefix("core."), 0);
        // op.ingest: 100 long, children cover 85.
        assert_eq!(t.aggregates[OP_INGEST as usize].self_ns, 15);
        assert_eq!(t.aggregates[CLIENT_WAIT as usize].total_ns, 45 + 30);
        let json = t.json("\"workload\":\"x\"");
        assert!(json.contains("\"spans_total\":6,\"spans_kept\":6"));
        assert!(json.contains("\"name\":\"server.client.wait\",\"count\":2"));
    }
}
