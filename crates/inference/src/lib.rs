//! Failure inference: the heart of Drift-Bottle (§4.2–§4.3).
//!
//! * [`inference`] — the [`Inference`] type `I = {(l_i, w_i)}`, the
//!   aggregation operator `⊕` (per-link weight sum), and the Algorithm-1
//!   post-processing (drop zero weights, sort descending, truncate to the
//!   inference length k).
//! * [`scheme`] — the weight-assignment schemes compared in §6.4:
//!   Drift-Bottle (±1), Non-Negative (+1/0), 007-Drifted (+1/n / 0) and
//!   007-Modified (±1/n).
//! * [`header`] — the fixed-length wire encoding of §5/§6.10: 1 byte
//!   `hop_now` plus, per accused link, 1 byte of link identity and 1 byte of
//!   offset-encoded weight (representable range −15..240); 9 bytes total at
//!   k = 4. A wide variant with 2-byte link ids supports networks with more
//!   than 255 links.
//! * [`inline`] — [`InlineInference`], the fixed-capacity representation the
//!   per-packet hot path uses: same algebra, zero heap traffic, bit-for-bit
//!   identical results (see the equivalence proptests).
//! * [`keyed`] — [`KeyedInference`], a k-truncated integral inference on
//!   packed integer keys: the wire header's hop ([`drift::wire_hop`]) runs
//!   ⊕, top-k, eq. (1) and the codec on integers.
//! * [`warning`] — the threshold-based warning mechanism of equation (1).
//! * [`drift`] — the per-switch aggregation step (aggregate, re-truncate,
//!   keep the local inference unchanged to avoid over-aggregation).
//! * [`centralized`] — the DCA baselines (DB-Centralized, 007-Centralized)
//!   using the iterative top-portion reporting procedure of \[2\].
//! * [`metrics`] — `inference.*` telemetry counters and the opt-in stderr
//!   line per raised warning (hop / w0 / w1 context).
//! * [`eval`] — the §6.2 localization metrics and the report window, one
//!   scorer for the live run and the offline recording.
//! * [`provenance`] — offline analysis of flight recordings: reconstruct
//!   which flows voted on a link, where truncation lost its weight, which
//!   equation-(1) clause blocked a warning, and how the run scored.

pub mod centralized;
pub mod drift;
pub mod eval;
pub mod header;
pub mod inference;
pub mod inline;
pub mod keyed;
pub mod metrics;
pub mod provenance;
pub mod scheme;
pub mod warning;

pub use centralized::centralized_report;
pub use drift::{
    aggregate_step, aggregate_step_inline, aggregate_step_inline_metered, wire_hop, WireHop,
};
pub use header::{HeaderCodec, MAX_HEADER_BYTES};
pub use inference::{Inference, DEFAULT_K};
pub use inline::{InlineInference, INLINE_CAP, MAX_K};
pub use keyed::KeyedInference;
pub use metrics::InferenceMetrics;
pub use provenance::{
    explain_link, explain_switch, inference_digest, quality_report, LinkExplanation, QualityReport,
    RunInfo, SwitchExplanation,
};
pub use scheme::{local_inference, local_inference_scratched, VoteScratch, WeightScheme};
pub use warning::{check_warning, check_warning_inline, WarningConfig};
