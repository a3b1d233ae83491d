//! The one observation seam of a deployed system.
//!
//! The pipeline in [`crate::system`] reports each event — a window opening,
//! the monitors closing, a switch's flows judged, a ⊕ merge, a warning, a
//! DCA report — to its [`Tap`] exactly once; the tap fans the event out to
//! whatever is attached: registry counters, the provenance flight recorder,
//! the db-scope recorder, the live-warning buffer. A tap belongs to one
//! system. Nothing here feeds back into the pipeline, so any combination of
//! attachments leaves outcomes bit-identical, and each recorder sees the
//! same records in the same order whatever else is attached — that order is
//! the contract `explain` and `timeline` read by.

use crate::config::{Mechanism, VariantSpec};
use crate::system::{DriftBottleSystem, Warning, DCA_NODE};
use db_dtree::FlowClassifier;
use db_flowmon::{FeatureVector, FlowStatus, FlowmonMetrics, SwitchMonitor};
use db_inference::{
    inference_digest, provenance::NO_INFERENCE_DIGEST, HeaderCodec, InferenceMetrics,
    InlineInference, WarningConfig, WeightScheme, MAX_HEADER_BYTES,
};
use db_netsim::{FlowId, HopInfo, SimTime};
use db_telemetry::flight::{FlightRecord, FlightRecorder};
use db_telemetry::scope::ScopeRecorder;
use db_telemetry::{Counter, MetricsRegistry};
use db_topology::{LinkId, NodeId};
use std::sync::Arc;

/// The `inference.*`, `flowmon.*` and `dtree.*` registry handles.
struct Metrics {
    inference: InferenceMetrics,
    flowmon: FlowmonMetrics,
    classifications: Counter,
    class_normal: Counter,
    class_abnormal: Counter,
}

/// The flight recorder plus the run context its records are stamped with.
struct Flight {
    rec: Arc<FlightRecorder>,
    /// `truth[link.idx()]` — whether the link actually failed.
    truth: Vec<bool>,
    /// Sampling-window counter (ticks observed so far).
    window_seq: u32,
}

/// Every observation-only attachment of one deployed system. All of them
/// default to off, which keeps the hot path to a handful of `None` checks.
pub(crate) struct Tap {
    /// Index and scheme of the **one** variant flight and scope trace —
    /// the wire flagship when deployed, else the first distributed one
    /// (several variants interleaved in one ring or one series store would
    /// be unattributable); `None` when every variant is centralized.
    traced: Option<(usize, WeightScheme)>,
    /// Deploy-time constants warnings are stamped with.
    codec: HeaderCodec,
    thresholds: WarningConfig,
    metrics: Option<Metrics>,
    flight: Option<Flight>,
    scope: Option<Arc<ScopeRecorder>>,
    /// Every raise since the last [`Self::drain_warnings`] — push-only.
    live: Option<Vec<Warning>>,
}

/// An open db-scope span, closed on drop; inert without a recorder.
pub(crate) struct PhaseSpan(Option<(Arc<ScopeRecorder>, u32)>);

impl PhaseSpan {
    pub(crate) fn begin(scope: Option<&Arc<ScopeRecorder>>, name: &str) -> PhaseSpan {
        PhaseSpan(scope.map(|rec| (rec.clone(), rec.begin_span(name))))
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some((rec, id)) = &self.0 {
            rec.end_span(*id);
        }
    }
}

impl Tap {
    /// A tap with nothing attached, for a system deploying `variants`.
    pub(crate) fn new(
        variants: &[VariantSpec],
        codec: HeaderCodec,
        thresholds: WarningConfig,
    ) -> Tap {
        let distributed = |v: &VariantSpec| !matches!(v.mechanism, Mechanism::Centralized { .. });
        let traced = variants
            .iter()
            .position(|v| v.mechanism == Mechanism::DistributedWire)
            .or_else(|| variants.iter().position(distributed))
            .map(|i| (i, variants[i].scheme));
        Tap {
            traced,
            codec,
            thresholds,
            metrics: None,
            flight: None,
            scope: None,
            live: None,
        }
    }

    /// The tap of a fork of this tap's system: the same deploy-time
    /// constants, nothing attached. `Tap` is deliberately not `Clone` — two
    /// systems feeding one recorder would interleave their records.
    pub(crate) fn bare(&self) -> Tap {
        Tap {
            traced: self.traced,
            codec: self.codec,
            thresholds: self.thresholds,
            metrics: None,
            flight: None,
            scope: None,
            live: None,
        }
    }

    pub(crate) fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref().map(|f| &f.rec)
    }

    pub(crate) fn scope(&self) -> Option<&Arc<ScopeRecorder>> {
        self.scope.as_ref()
    }

    /// The `inference.*` handles, for the metered ⊕ step.
    #[inline]
    pub(crate) fn inference(&self) -> Option<&InferenceMetrics> {
        self.metrics.as_ref().map(|m| &m.inference)
    }

    /// A monitor wrote its measure registers for a packet.
    #[inline]
    pub(crate) fn register_update(&self) {
        if let Some(m) = &self.metrics {
            m.flowmon.register_updates.inc();
        }
    }

    /// A wire header was written back onto a packet.
    #[inline]
    pub(crate) fn header_piggybacked(&self) {
        if let Some(m) = &self.metrics {
            m.inference.headers_piggybacked.inc();
        }
    }

    /// A sampling tick at `now` begins.
    pub(crate) fn window_open(&mut self, now: SimTime) {
        if let Some(f) = &mut self.flight {
            f.window_seq += 1;
        }
        if let Some(sc) = &self.scope {
            sc.window_roll(now.as_ns());
        }
    }

    /// Open the db-scope span of one tick phase.
    pub(crate) fn phase(&self, name: &str) -> PhaseSpan {
        PhaseSpan::begin(self.scope.as_ref(), name)
    }

    /// Every monitor closed its window and staged its rows.
    pub(crate) fn monitors_closed(&self, now: SimTime, monitors: &[SwitchMonitor]) {
        if let Some(m) = &self.metrics {
            for mon in monitors {
                m.flowmon.intervals_closed.inc();
                m.flowmon
                    .feature_vectors
                    .add(mon.staged_rows().len() as u64);
            }
        }
        if let Some(sc) = &self.scope {
            let mut feed = sc.feeder();
            for (idx, mon) in monitors.iter().enumerate() {
                feed.active_flows(now.as_ns(), idx as u16, mon.active_flows());
            }
        }
    }

    /// The classifier judged `node`'s staged `rows`; `statuses` (verdict,
    /// upstream links) is positional with them. One pass emits a
    /// `FlowClassified` per flow plus the ±1 `LocalVote` fan-out Algorithm 1
    /// derives from it under the traced variant's scheme, and folds the same
    /// fan-out into the scope series.
    pub(crate) fn classified(
        &self,
        now: SimTime,
        node: NodeId,
        rows: &[(FlowId, FeatureVector)],
        statuses: &[(FlowStatus, &[LinkId])],
    ) {
        if let Some(m) = &self.metrics {
            let abnormal = statuses
                .iter()
                .filter(|(s, _)| *s == FlowStatus::Abnormal)
                .count() as u64;
            m.classifications.add(statuses.len() as u64);
            m.class_abnormal.add(abnormal);
            m.class_normal.add(statuses.len() as u64 - abnormal);
        }
        let Some((_, scheme)) = self.traced else {
            return;
        };
        let flight = self.flight.as_ref();
        let mut feed = self.scope.as_ref().map(|sc| sc.feeder());
        if flight.is_none() && feed.is_none() {
            return;
        }
        for ((flow, features), &(status, upstream)) in rows.iter().zip(statuses) {
            let abnormal = status == FlowStatus::Abnormal;
            if let Some(f) = flight {
                f.rec.record(FlightRecord::FlowClassified {
                    at_ns: now.as_ns(),
                    switch: node.0,
                    window: f.window_seq,
                    flow: flow.0,
                    abnormal,
                    feature_digest: db_flowmon::feature_digest(features),
                });
            }
            if let Some(feed) = &mut feed {
                feed.classified(now.as_ns(), node.0, abnormal);
            }
            let delta = scheme.contribution(status, upstream.len());
            if delta == 0.0 {
                continue;
            }
            for link in upstream {
                if let Some(f) = flight {
                    f.rec.record(FlightRecord::LocalVote {
                        at_ns: now.as_ns(),
                        switch: node.0,
                        window: f.window_seq,
                        flow: flow.0,
                        link: link.0,
                        delta,
                    });
                }
                if let Some(feed) = &mut feed {
                    feed.vote(now.as_ns(), link.0, delta);
                }
            }
        }
    }

    /// One switch regenerated the local inference of `n` variants.
    pub(crate) fn locals_generated(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.inference.locals_generated.add(n as u64);
        }
    }

    /// Variant `vi` merged `incoming` (`None` at ingress) with `local` into
    /// `out` at `info.node`. The flight record diffs `out` against the
    /// *untruncated* merge to name what the top-k cut dropped; that goes
    /// through the heap form, and runs only with a recorder attached.
    #[inline]
    // db-lint: allow(hot-alloc) — flight-recorder-gated; the unattached path is two `None` checks
    pub(crate) fn merged(
        &self,
        vi: usize,
        now: SimTime,
        info: &HopInfo,
        incoming: Option<&(InlineInference, u8)>,
        local: &InlineInference,
        out: &(InlineInference, u8),
    ) {
        if self.traced.is_none_or(|(t, _)| t != vi) {
            return;
        }
        let (agg, hops) = out;
        let top_link = agg.top_link().map(|l| l.0);
        if let Some(f) = &self.flight {
            let full = match incoming {
                None => local.to_inference(),
                Some((d, _)) => d.to_inference().aggregate(&local.to_inference()),
            };
            let dropped_links: Vec<u16> = full
                .entries()
                .iter()
                .filter(|(l, _)| agg.weight_of(*l) == 0.0)
                .map(|(l, _)| l.0)
                .collect();
            f.rec.record(FlightRecord::DriftMerged {
                at_ns: now.as_ns(),
                switch: info.node.0,
                flow: info.flow.0,
                pkt_seq: info.seq,
                hop_now: *hops,
                in_digest: incoming
                    .map_or(NO_INFERENCE_DIGEST, |(d, _)| inference_digest(d.entries())),
                local_digest: inference_digest(local.entries()),
                out_digest: inference_digest(agg.to_inference().entries()),
                w0: agg.w0(),
                w1: agg.w1(),
                top_link,
                dropped_links,
            });
        }
        if let Some(sc) = &self.scope {
            sc.merge(now.as_ns(), info.node.0, agg.w0(), top_link);
        }
    }

    /// Variant `vi`'s merge `out` at `node` satisfied equation (1) for
    /// `link`.
    #[inline]
    pub(crate) fn warning(
        &mut self,
        vi: usize,
        now: SimTime,
        node: NodeId,
        link: LinkId,
        out: &(InlineInference, u8),
    ) {
        let (agg, hops) = (&out.0, out.1);
        if let Some(buf) = &mut self.live {
            let mut header = [0u8; MAX_HEADER_BYTES];
            let n = self.codec.encode_into(agg, hops, &mut header);
            buf.push(Warning {
                at: now,
                switch: node,
                link,
                variant: vi as u8, // db-lint: allow(wire-cast) — variant count is tiny
                hop_now: hops,
                w0: agg.w0(),
                w1: agg.w1(),
                header,
                header_len: n as u8, // db-lint: allow(wire-cast) — header fits MAX_HEADER_BYTES < 256 by construction
            });
        }
        if self.traced.is_some_and(|(t, _)| t == vi) {
            if let Some(sc) = &self.scope {
                sc.warning(now.as_ns(), link.0);
            }
            if let Some(f) = &self.flight {
                f.rec.record(FlightRecord::WarningRaised {
                    at_ns: now.as_ns(),
                    switch: node.0,
                    link: link.0,
                    hop_now: hops,
                    w0: agg.w0(),
                    w1: agg.w1(),
                    alpha_lhs: self.thresholds.alpha * hops as f64,
                    beta_lhs: self.thresholds.beta * agg.w1().max(0.0),
                    ground_truth_hit: f.truth.get(link.idx()).copied().unwrap_or(false),
                });
            }
        }
        if let Some(m) = &self.metrics {
            m.inference
                .warning_raised(node.0, link, hops as u32, agg.w0(), agg.w1());
        }
    }

    /// Centralized variant `vi`'s DCA accused `link`. DCA reports carry no
    /// hop/weight context: buffer and count the raise only.
    pub(crate) fn dca_report(&mut self, vi: usize, now: SimTime, link: LinkId) {
        if let Some(buf) = &mut self.live {
            buf.push(Warning {
                at: now,
                switch: DCA_NODE,
                link,
                variant: vi as u8, // db-lint: allow(wire-cast) — variant count is tiny
                hop_now: 0,
                w0: 0.0,
                w1: 0.0,
                header: [0u8; MAX_HEADER_BYTES],
                header_len: 0,
            });
        }
        if let Some(m) = &self.metrics {
            m.inference.warnings.inc();
        }
    }
}

/// Attaching: observation only — logs, ratios and every outcome stay
/// bit-identical whatever is attached.
impl<C: FlowClassifier> DriftBottleSystem<C> {
    /// Switch the live warning buffer on: every subsequent raise (from any
    /// variant, including centralized DCA reports) is also pushed to an
    /// internal buffer drained by [`Self::drain_warnings`].
    pub fn set_live_warnings(&mut self) {
        self.tap.live.get_or_insert_with(Vec::new);
    }

    /// Take all live warnings buffered since the last drain. Empty unless
    /// [`Self::set_live_warnings`] was called.
    pub fn drain_warnings(&mut self) -> Vec<Warning> {
        let live = self.tap.live.as_mut();
        live.map(std::mem::take).unwrap_or_default()
    }

    /// Attach `inference.*`, `flowmon.*` and `dtree.*` telemetry counters
    /// registered in `reg`.
    pub fn set_metrics(&mut self, reg: &MetricsRegistry) {
        self.tap.metrics = Some(Metrics {
            inference: InferenceMetrics::register(reg),
            flowmon: FlowmonMetrics::register(reg),
            classifications: reg.counter("dtree.classifications"),
            class_normal: reg.counter("dtree.class_normal"),
            class_abnormal: reg.counter("dtree.class_abnormal"),
        });
    }

    /// Attach a provenance flight recorder: the traced variant's causal
    /// chain — classifications, votes, ⊕ merges with truncation losses,
    /// warnings, stamped against `ground_truth`. No-op (and returns `false`)
    /// when every variant is centralized.
    pub fn set_flight(
        &mut self,
        rec: Arc<FlightRecorder>,
        ground_truth: &[LinkId],
        total_links: usize,
    ) -> bool {
        let mut truth = vec![false; total_links];
        for l in ground_truth {
            if let Some(t) = truth.get_mut(l.idx()) {
                *t = true;
            }
        }
        self.tap.flight = self.tap.traced.map(|_| Flight {
            rec,
            truth,
            window_seq: 0,
        });
        self.tap.flight.is_some()
    }

    /// Attach a db-scope recorder: the traced variant's per-window health
    /// series — suspicion, votes, warnings, fan-in, abnormal classifications
    /// — and one span per pipeline phase per window. No-op (and returns
    /// `false`) when every variant is centralized.
    pub fn set_scope(&mut self, rec: Arc<ScopeRecorder>) -> bool {
        self.tap.scope = self.tap.traced.map(|_| rec);
        self.tap.scope.is_some()
    }
}
