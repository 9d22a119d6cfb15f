//! A wall-clock benchmark of the POCC cluster runtime.
//!
//! Each workload starts a real `pocc-runtime` cluster, preloads its dataset, drives load
//! from at most two generator threads, checks the results, and reports end-to-end
//! metrics (latency percentiles, cluster CPU per operation, cross-DC visibility, set-up
//! time) or, in a separate traced run, per-layer metrics. See `perfbench/README.md`.

pub mod bench;
pub mod drive;
pub mod procstat;
pub mod replay;
pub mod report;
pub mod session;
pub mod setup;
pub mod spec;
pub mod stats;
pub mod visibility;
