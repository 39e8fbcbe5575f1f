//! The server's diagnostic counters, declared once: the table at the
//! bottom of this file generates the atomic `Stats`, the public
//! [`StatsSnapshot`] and the copy between them, so adding a counter is
//! one line there.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])+ $name:ident,)+) => {
        /// Monotone server counters (all `Relaxed` — diagnostics, not
        /// synchronisation).
        #[derive(Debug, Default)]
        pub(crate) struct Stats {
            $(pub(crate) $name: AtomicU64,)+
        }

        /// A point-in-time copy of the server's diagnostic counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct StatsSnapshot {
            $($(#[$doc])+ pub $name: u64,)+
        }

        impl Stats {
            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }
    };
}

counters! {
    /// Connections accepted.
    conns_opened,
    /// Connections that have finished (closed or errored).
    conns_closed,
    /// Frames successfully decoded from clients.
    frames_in,
    /// Frames written to clients.
    frames_out,
    /// NACK frames sent (every rejected request produces exactly one).
    nacks,
    /// Ingest batches refused because their stream's fault latch is set
    /// (each is NACKed `Internal`).
    sheds,
    /// Ingest batches applied to an engine and acked.
    ingest_batches,
    /// Stream items ingested into the live engine.
    ingest_items,
    /// Wire images accepted into a slot map: accumulating and REPLACE
    /// (replica) merges alike.
    merges_accepted,
    /// Ingest panics isolated on a connection thread (each NACKs its
    /// frame, latches its stream's ingest shut, and takes nothing else
    /// down).
    worker_panics,
    /// Connection-thread panics isolated.
    conn_panics,
    /// Writer flushes that failed with a typed `FlushError`.
    flush_errors,
    /// Connections closed for blowing the mid-frame read deadline.
    read_timeouts,
    /// Streams created (create-on-first-ingest/merge plus the default
    /// stream).
    streams_created,
    /// Streams retired at runtime.
    streams_retired,
    /// Replica images successfully pushed (acked by the peer).
    replica_pushes,
    /// Replica pushes that failed (connect/write error or peer NACK),
    /// plus failed idle-round pings.
    replica_push_errors,
    /// Snapshot records committed by the checkpointer.
    snapshots_written,
    /// Checkpointer write/merge/fsync failures (counted, never fatal).
    snapshot_errors,
    /// Streams re-registered from valid snapshots at boot.
    streams_recovered,
    /// Snapshot records that failed validation at boot and were
    /// quarantined.
    records_quarantined,
}
