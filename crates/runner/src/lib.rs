//! `db-runner`: checkpointed, shard-isolated sweep orchestration.
//!
//! The §6 evaluation is hundreds of independent scenario simulations per
//! figure. This crate turns any such experiment into a **sweep**:
//!
//! 1. **Decompose** — [`SweepBuilder`] fixes everything shared (prepared
//!    topology, density, variants, system config) and derives one
//!    deterministic [`SweepJob`] per scenario: its unit index, its
//!    [`ScenarioKind`], and the sweep's workload seed. Nothing in a job
//!    depends on worker count or scheduling, and every unit observes the
//!    same workload, so the units fork one shared healthy prefix
//!    (`db_core::experiment::run_scenario`).
//! 2. **Execute** — the workspace's one worker pool
//!    ([`db_core::par::run_units`]: one unit per claim, `workers` else
//!    `DB_THREADS` else every core) runs units under per-unit
//!    `catch_unwind`, and [`executor`] is its sink: a poisoned scenario
//!    becomes a [`UnitStatus::Failed`] record with its panic message, not
//!    an aborted sweep. Progress flows through the `db-telemetry` registry
//!    (`runner.units_done` / `runner.units_failed` /
//!    `runner.units_remaining`, plus a unit-latency histogram) when
//!    collection is enabled.
//! 3. **Checkpoint** — completed units append to a
//!    `results/<sweep>.ckpt.jsonl` file ([`checkpoint`]), outcomes encoded
//!    with the bit-exact [`db_core::wire`] codec. A killed run resumes
//!    with `.resume(true)`: finished units replay from disk, pending units
//!    execute, and the merged result is **bit-identical** to an
//!    uninterrupted run — the property the resume tests pin.
//!
//! The crate reads no environment (the pool's `DB_THREADS` rule lives in
//! `db_core::par`). Its callers choose what to turn on: the CLI's `sweep`
//! from flags, the figure binaries through `db_bench::run_sweep`
//! (checkpoint under `DB_FULL=1`, traces under `DB_TRACE=1`).
//!
//! ```no_run
//! use db_core::classifier::{prepare, PrepareConfig};
//! use db_core::experiment::ScenarioKind;
//! use db_runner::SweepBuilder;
//! use db_topology::{zoo, LinkId};
//!
//! let prep = prepare(zoo::geant2012(), &PrepareConfig::default());
//! let report = SweepBuilder::new("single-link", &prep)
//!     .scenarios((0..prep.topo.link_count() as u16).map(|i| ScenarioKind::SingleLink(LinkId(i))))
//!     .checkpoint("results/single-link.ckpt.jsonl")
//!     .resume(true)
//!     .run()
//!     .expect("sweep");
//! for (unit, err) in report.failed() {
//!     eprintln!("unit {unit} failed: {err}");
//! }
//! let outcomes = report.cloned_outcomes();
//! # let _ = outcomes;
//! ```
//!
//! [`ScenarioKind`]: db_core::experiment::ScenarioKind

pub mod builder;
pub mod checkpoint;
pub mod executor;
pub mod job;
pub mod metrics;

pub use builder::{SweepBuilder, SweepError, SweepReport};
pub use checkpoint::{CheckpointError, CheckpointHeader};
pub use job::{SweepJob, UnitOutcome, UnitStatus};
pub use metrics::RunnerMetrics;
