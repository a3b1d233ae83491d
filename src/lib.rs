//! # Drift-Bottle
//!
//! A lightweight and distributed approach to failure localization in
//! general networks — a full Rust reproduction of the CoNEXT '22 paper by
//! Zuo, Li, Xiao, Zhao and Yong (DOI 10.1145/3555050.3569137).
//!
//! Drift-Bottle localizes failed and corrupted links from inside the
//! network: every switch passively monitors the unidirectional flows
//! passing through it, classifies each flow's health with a decision tree
//! small enough for a programmable data plane, turns the per-flow verdicts
//! into a weighted *local inference* over its upstream links, and lets
//! normal packets carry a 9-byte aggregate of those inferences — the
//! "drift bottle" — hop by hop until the evidence against one link is
//! strong enough to raise a warning.
//!
//! ## Crate map
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topology`] | `db-topology` | graph model, routing, path-link algebra, evaluation topologies |
//! | [`netsim`] | `db-netsim` | deterministic discrete-event packet simulator (PPBP traffic, failures) |
//! | [`flowmon`] | `db-flowmon` | measure registers, sliding-window features, labeled datasets |
//! | [`dtree`] | `db-dtree` | CART training and match-action-table compilation |
//! | [`inference`] | `db-inference` | inference algebra, weight schemes, wire header, warnings, baselines |
//! | [`core`] | `db-core` | the assembled system, training pipeline, experiment runners |
//! | [`runner`] | `db-runner` | checkpointed, panic-isolated sweep orchestration ([`SweepBuilder`](runner::SweepBuilder)) |
//! | [`util`] | `db-util` | deterministic RNG, distributions, statistics, tables |
//! | [`telemetry`] | `db-telemetry` | metrics registry, phase spans, event log, exporters |
//!
//! ## Quickstart
//!
//! ```
//! use drift_bottle::prelude::*;
//!
//! // A small monitored network with a trained classifier.
//! let prep = prepare(
//!     zoo::grid(3, 3),
//!     &PrepareConfig {
//!         n_link_scenarios: 2,
//!         n_node_scenarios: 0,
//!         n_healthy: 1,
//!         ..Default::default()
//!     },
//! );
//! // Break one link and let the drifting inferences find it.
//! let link = prep.topo.link_ids().next().unwrap();
//! let mut setup = ScenarioSetup::flagship(&prep, 1.0, 7);
//! setup.sys.warning.hop_min = 3; // 9-switch network
//! setup.sys.warning.alpha = 1.0;
//! let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(link));
//! let result = outcome.variant("Drift-Bottle").unwrap();
//! assert!(result.metrics.recall > 0.0 || result.reported.is_empty());
//! ```
//!
//! See `examples/` for realistic end-to-end scenarios and `crates/bench`
//! for the binaries regenerating every table and figure of the paper.

pub use db_core as core;
pub use db_dtree as dtree;
pub use db_flowmon as flowmon;
pub use db_inference as inference;
pub use db_netsim as netsim;
pub use db_runner as runner;
pub use db_serve as serve;
pub use db_telemetry as telemetry;
pub use db_topology as topology;
pub use db_util as util;

/// The commonly used items, importable in one line.
pub mod prelude {
    pub use db_core::{
        prepare, run_scenario, LocalizationMetrics, Mechanism, PrepareConfig, Prepared,
        ScenarioKind, ScenarioOutcome, ScenarioSetup, SystemConfig, VariantSpec,
    };
    pub use db_inference::{Inference, WarningConfig, WeightScheme};
    pub use db_netsim::{
        FailureScenario, SimConfig, SimTime, Simulator, TrafficConfig, TrafficGen,
    };
    pub use db_runner::{SweepBuilder, SweepReport};
    pub use db_topology::{
        zoo, CsrTopology, LinkId, NodeId, OnDemandRoutes, Routes, Topology, TopologyBuilder,
        SCALE_NODE_THRESHOLD,
    };
}
