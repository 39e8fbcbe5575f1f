//! [`ServerConfig`]: every knob of the network tier, with defaults
//! sized for a small host.

use crate::persist::FsyncPolicy;
use std::time::Duration;

/// Server configuration. `Default` is sized for a small host (the 1-CPU
/// CI container): a default stream sized for two writers, 1 MiB frames.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`](crate::ServerHandle::local_addr)).
    pub addr: String,
    /// The declared writer count `N` of the default stream: it sizes
    /// that engine's buffer `b = 1/(N·e)` and starts no thread. The
    /// connection threads are the writers, so the `N` of `r = 2Nb` is
    /// however many connections hold a writer on the stream. Named
    /// streams declare `N = 1`.
    pub ingest_workers: usize,
    /// Inert: there is no ingest queue (a frame is applied before it is
    /// acked). Kept because the frozen benchmark's unit test sets it.
    pub queue_depth: usize,
    /// Maximum accepted frame payload, bytes. Larger declarations are
    /// NACKed ([`NackCode::PayloadTooLarge`](crate::NackCode::PayloadTooLarge))
    /// and the connection closed.
    pub max_frame_payload: u32,
    /// Mid-frame read deadline: once a frame's first byte arrives, the
    /// rest must arrive within this window or the connection is closed
    /// (with a best-effort [`NackCode::Timeout`](crate::NackCode::Timeout)
    /// NACK).
    pub frame_deadline: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// `lg_k` of the live Θ engine.
    pub lg_k: u8,
    /// Inert: there is no circuit breaker (a dead replica peer is
    /// retried after a doubling, jittered backoff). Kept because the
    /// frozen benchmark's unit test sets it.
    pub breaker_threshold: u32,
    /// Maximum simultaneously registered streams (including the default
    /// stream); creation beyond it NACKs with
    /// [`NackCode::Overload`](crate::NackCode::Overload).
    pub max_streams: usize,
    /// Replica peer address (`host:port`). `Some` turns on the
    /// background pusher: every [`Self::replica_interval`] the server
    /// ships each changed stream's image to the peer as a v2 REPLACE
    /// merge under [`Self::replica_source_id`], and every stream on
    /// each (re)connect.
    pub replica_peer: Option<String>,
    /// Push period of the replica pusher.
    pub replica_interval: Duration,
    /// This server's replica source id — the slot its pushes replace on
    /// the peer. Two peers pushing to each other must use distinct ids.
    pub replica_source_id: u64,
    /// Snapshot directory for the durability tier. `Some` turns on the
    /// background checkpointer (bounded loss ≤ one
    /// [`Self::snapshot_interval`] of acked ingest per stream) and
    /// boot-time recovery of every valid snapshot found there. `None`
    /// (the default) keeps the pre-PR-10 in-memory-only behaviour.
    pub data_dir: Option<String>,
    /// Checkpoint period of the durability tier — the bounded-loss
    /// window.
    pub snapshot_interval: Duration,
    /// When snapshot bytes are fsynced (see [`FsyncPolicy`]).
    pub fsync_policy: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ingest_workers: 2,
            queue_depth: 64,
            max_frame_payload: 1 << 20,
            frame_deadline: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            lg_k: 12,
            breaker_threshold: 3,
            max_streams: 64,
            replica_peer: None,
            replica_interval: Duration::from_millis(250),
            replica_source_id: 1,
            data_dir: None,
            snapshot_interval: Duration::from_millis(250),
            fsync_policy: FsyncPolicy::Interval,
        }
    }
}
