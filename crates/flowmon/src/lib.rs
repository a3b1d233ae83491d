//! The Flow Monitoring Module of Drift-Bottle (§4.1).
//!
//! Every switch passively tracks the unidirectional flows passing through it:
//!
//! * [`measures`] — the six per-sampling-interval measures of Table 1
//!   (`n_packet`, `len_all`, `len_max`, `len_last`, `n_burst`, `pos_burst`),
//!   with bursts counted over numbered sub-intervals.
//! * [`monitor`] — the per-switch flow table, stored by column: a register
//!   row per monitored flow that packets update, a ring of each flow's last
//!   closed intervals, and running window sums, so closing an interval is
//!   one sequential sweep; plus the network-wide set of monitors.
//! * [`window`] — the sliding-window configuration and Table-2 feature
//!   assembly: the 15-feature vector `(f_flow, f_avg, f_last)` produced at
//!   every sampling-interval tick; the window length is the 90th percentile
//!   of network RTTs.
//! * [`dataset`] — ground-truth labeling ("abnormal iff the packets of the
//!   flow cannot reach the monitor at the time due to failures"), the
//!   training observer that keeps each row as varint-coded register
//!   integers, and train/test dataset assembly at the paper's 3:1 split.

pub mod dataset;
pub mod measures;
pub mod metrics;
pub mod monitor;
pub mod window;

pub use dataset::{Dataset, FlowStatus, TrainingMonitor};
pub use measures::{IntervalMeasures, SUB_INTERVALS};
pub use metrics::FlowmonMetrics;
pub use monitor::{NetworkMonitor, SwitchMonitor, MAX_FLOWS};
pub use window::{
    feature_digest, FeatureVector, FlowMeta, WindowConfig, FEATURE_NAMES, NUM_FEATURES,
};
