//! The Drift-Bottle system — the paper's primary contribution, assembled.
//!
//! * [`config`] — system parameters and the variant specifications
//!   (Drift-Bottle, the §6.2 baseline schemes, and the centralized
//!   mechanisms) an experiment compares side by side.
//! * [`system`] — [`system::DriftBottleSystem`], a `db_netsim::Observer`
//!   that runs the full per-switch pipeline live inside the simulation:
//!   flow monitoring → in-network classification → local inference
//!   generation (Algorithm 1) → in-packet distributed aggregation with the
//!   real 9-byte header → threshold warnings. Several variants share one
//!   simulated network, so scheme comparisons see identical traffic.
//! * [`engine`] — [`engine::Engine`], the incremental face of the same
//!   pipeline: ingest flow records one at a time, get warnings back live,
//!   snapshot/restore complete state. The batch runner is built on top of
//!   it; `drift-bottle serve` streams through it.
//! * [`eval`] — the §6.2 metrics: precision, recall, F1, accuracy, FPR over
//!   link sets.
//! * [`classifier`] — the offline training pipeline of §4.1/§6.1: simulate
//!   failure scenarios, extract labeled windows, split 3:1, train the CART
//!   tree, compile it to a match-action table (Fig. 6).
//! * [`experiment`] — scenario runners and sweeps for every evaluation
//!   experiment (Figs. 7–13).
//! * `prefix` — the healthy run up to the failure, simulated once per
//!   setup and forked by every later scenario of it.
//! * [`par`] — the one worker pool for independent simulation units, and
//!   the input-ordered parallel map on top of it.
//! * [`wire`] — bit-exact checkpoint serialization of scenario outcomes
//!   for the `db-runner` sweep orchestrator.

#[cfg(test)]
mod analysis_tests;
mod carrier;
pub mod classifier;
pub mod config;
pub mod engine;
pub mod eval;
pub mod experiment;
pub mod par;
mod prefix;
pub mod system;
mod tap;
pub mod wire;

pub use classifier::{prepare, PrepareConfig, Prepared};
pub use config::{Mechanism, SystemConfig, VariantSpec};
pub use engine::{Engine, FlowRecord, RestoreError};
pub use eval::{LocalizationMetrics, MetricsAccum};
pub use experiment::{run_scenario, ScenarioKind, ScenarioOutcome, ScenarioSetup, VariantResult};
pub use system::{DriftBottleSystem, RatioSample, Warning, WarningLog};
