//! # fcds-bench — the characterisation harness
//!
//! A Rust re-implementation of the methodology of §7.1 (the Apache
//! DataSketches "characterization framework"): speed profiles, accuracy
//! profiles ("pitchforks"), and workload drivers for every table and
//! figure of the paper. One binary per experiment:
//!
//! | binary     | regenerates |
//! |------------|-------------|
//! | `figure1`  | scalability: concurrent vs lock-based Θ, update-only |
//! | `figure3`  | strong-adversary decision regions |
//! | `figure4`  | distribution of `e` and `e_Aw` |
//! | `figure5`  | accuracy pitchforks (no-eager / eager) |
//! | `figure6`  | write-only throughput vs stream size |
//! | `figure7`  | mixed read/write workload |
//! | `figure8`  | eager vs no-eager speed-up |
//! | `table1`   | Θ error analysis (closed-form + Monte-Carlo) |
//! | `table2`   | k trade-off: crossing point and error quantiles |
//!
//! Beyond the paper: `shard_scaling`, and the CI measurement leg —
//! `engine_gates` (propagation-cost, ingestion and fan-in *ratios* in one
//! `BENCH_engine.json`) and `bench_gate` (the [`gate`] reader over it).
//!
//! Absolute numbers depend on the host; the *shapes* (scaling slopes,
//! crossing points, pitchfork envelopes) are the reproduction target.
//! Run with `--full` for paper-scale parameters; the default is sized for
//! minutes, not hours.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod drivers;
pub mod gate;
pub mod profiles;
pub mod report;
pub mod workload;
