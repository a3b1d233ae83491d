//! Shared utilities for the Drift-Bottle reproduction.
//!
//! This crate intentionally has no external dependencies. It provides:
//!
//! * [`rng`] — a small, fully specified PCG-64 style pseudo-random number
//!   generator. Every experiment in the workspace must be a pure function of
//!   `(topology, seed, config)`, so we carry our own generator instead of
//!   depending on a crate whose stream may change between versions.
//! * [`dist`] — inverse-CDF samplers for the distributions the paper's traffic
//!   model needs (exponential, Pareto, bounded Pareto).
//! * [`hash`] — a deterministic multiply-mix hasher for the per-packet
//!   `(flow, seq)` carrier tables of `db-core` (no per-process seed, no
//!   SipHash).
//! * [`stats`] — descriptive statistics (mean, variance, skewness, percentiles)
//!   used both by the topology statistics of Table 3 and by the evaluation
//!   harness.
//! * [`table`] — plain-text table and CSV rendering for the figure/table
//!   binaries in `db-bench`.
//! * [`wire`] — a big-endian byte codec with bit-exact `f64` round trips,
//!   used by the sweep checkpoint format of `db-runner`.
//! * [`json`] — a minimal JSON reader for db-scope traces and the sweep
//!   checkpoint.
//! * [`sync`] — the shared poison-recovering mutex helper the
//!   concurrency-tier crates lock through (DESIGN.md §17).

pub mod dist;
pub mod hash;
pub mod json;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod table;
pub mod wire;

pub use rng::Pcg64;
