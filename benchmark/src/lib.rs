//! Closed-loop, single-client query benchmark for gpudb on two clocks:
//! host wall time per query and modeled 2004-device cost, with a
//! wall-clock span trace that splits host time by layer.
//!
//! See `README.md` in this directory for the workloads and metrics.

pub mod engine;
pub mod measure;
pub mod mix;
pub mod spans;
pub mod stats;

/// The seed the gate tests and the documentation use.
pub const DEFAULT_SEED: u64 = 20040613;
