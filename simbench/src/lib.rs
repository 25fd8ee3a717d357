//! # janus-simbench — the simulator's benchmark
//!
//! Runs a named workload through `janus-bench`'s public entry points
//! (`run_timed`, and `run_all_jobs` for the sweep) for a fixed window,
//! checks every output, and prints end-to-end metrics (untraced) or
//! per-layer metrics (a separate traced run with spans around each call
//! into a layer, plus layer replays). See `README.md` for the metric
//! table and why each workload was chosen.

pub mod measure;
pub mod metrics;
pub mod pipeline;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod suite;
