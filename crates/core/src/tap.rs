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
//!
//! The per-hop events arrive from the lanes of a sharded run through a
//! shared `&Tap` ([`Tap::merged`], [`Tap::raise`]); their scope feeds go to
//! the lane's unlocked [`ScopeBuffer`], and a flight record or a raise waits
//! in the lane's log until the calling thread settles the run's logs in
//! record order ([`Tap::record`], [`Tap::warning`]).

use crate::config::{Mechanism, VariantSpec};
use crate::system::{DriftBottleSystem, HopEvent, HopOut, Warning, DCA_NODE};
use db_dtree::FlowClassifier;
use db_flowmon::{FeatureVector, FlowStatus, FlowmonMetrics, SwitchMonitor};
use db_inference::{
    inference_digest, provenance::NO_INFERENCE_DIGEST, InferenceMetrics, InlineInference,
    WarningConfig, WeightScheme, MAX_HEADER_BYTES,
};
use db_netsim::{FlowId, HopInfo, SimTime};
use db_telemetry::flight::{FlightRecord, FlightRecorder};
use db_telemetry::scope::{ScopeBuffer, ScopeRecorder};
use db_telemetry::{Counter, MetricsRegistry, Span};
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
    /// The deploy-time thresholds warnings are stamped with.
    thresholds: WarningConfig,
    metrics: Option<Metrics>,
    flight: Option<Flight>,
    scope: Option<Arc<ScopeRecorder>>,
    /// Where the tick phases' spans also time themselves.
    phases: Option<Arc<MetricsRegistry>>,
    /// Every raise since the last [`Self::drain_warnings`] — push-only.
    live: Option<Vec<Warning>>,
}

impl Tap {
    /// A tap with nothing attached, for a system deploying `variants`.
    pub(crate) fn new(variants: &[VariantSpec], thresholds: WarningConfig) -> Tap {
        let distributed = |v: &VariantSpec| !matches!(v.mechanism, Mechanism::Centralized { .. });
        let traced = variants
            .iter()
            .position(|v| v.mechanism == Mechanism::DistributedWire)
            .or_else(|| variants.iter().position(distributed))
            .map(|i| (i, variants[i].scheme));
        Tap {
            traced,
            thresholds,
            metrics: None,
            flight: None,
            scope: None,
            phases: None,
            live: None,
        }
    }

    /// The tap of a fork of this tap's system: the same deploy-time
    /// constants, nothing attached. `Tap` is deliberately not `Clone` — two
    /// systems feeding one recorder would interleave their records.
    pub(crate) fn bare(&self) -> Tap {
        Tap {
            traced: self.traced,
            thresholds: self.thresholds,
            metrics: None,
            flight: None,
            scope: None,
            phases: None,
            live: None,
        }
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

    /// Open the span of one tick phase: in the db-scope recorder, and
    /// timed into the phase registry.
    pub(crate) fn phase(&self, name: &str) -> Span {
        Span::begin(name, self.phases.as_deref(), self.scope.as_ref())
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

    /// The variant whose votes a window close tallies for
    /// [`Self::classified`]: the traced one, while a scope recorder is
    /// attached.
    pub(crate) fn tallied(&self) -> Option<usize> {
        self.scope.as_ref().and(self.traced).map(|(t, _)| t)
    }

    /// The classifier judged `node`'s staged `rows`; `judged` (verdicts)
    /// and `upstream` (each flow's upstream links) are positional with
    /// them, and `tally` holds the traced variant's vote sum on each link
    /// its flows voted on ([`Self::tallied`]). The flight ring gets a
    /// `FlowClassified` per flow plus the ±1 `LocalVote` fan-out Algorithm
    /// 1 derives from it under the traced variant's scheme; the scope
    /// series get the abnormal verdicts and the tally, one feed per voted
    /// link.
    pub(crate) fn classified<'a>(
        &self,
        now: SimTime,
        node: NodeId,
        rows: &[(FlowId, FeatureVector)],
        judged: &[FlowStatus],
        upstream: impl Iterator<Item = &'a [LinkId]>,
        tally: &[(LinkId, f64)],
    ) {
        if let Some(m) = &self.metrics {
            let abnormal = judged
                .iter()
                .filter(|&&s| s == FlowStatus::Abnormal)
                .count() as u64;
            m.classifications.add(judged.len() as u64);
            m.class_abnormal.add(abnormal);
            m.class_normal.add(judged.len() as u64 - abnormal);
        }
        let Some((_, scheme)) = self.traced else {
            return;
        };
        if let Some(sc) = &self.scope {
            let mut feed = sc.feeder();
            for &status in judged {
                feed.classified(now.as_ns(), node.0, status == FlowStatus::Abnormal);
            }
            for &(link, sum) in tally {
                feed.vote(now.as_ns(), link.0, sum);
            }
        }
        let Some(f) = &self.flight else {
            return;
        };
        for (((flow, features), &status), upstream) in rows.iter().zip(judged).zip(upstream) {
            f.rec.record(FlightRecord::FlowClassified {
                at_ns: now.as_ns(),
                switch: node.0,
                window: f.window_seq,
                flow: flow.0,
                abnormal: status == FlowStatus::Abnormal,
                feature_digest: db_flowmon::feature_digest(features),
            });
            let delta = scheme.contribution(status, upstream.len());
            if delta == 0.0 {
                continue;
            }
            for link in upstream {
                f.rec.record(FlightRecord::LocalVote {
                    at_ns: now.as_ns(),
                    switch: node.0,
                    window: f.window_seq,
                    flow: flow.0,
                    link: link.0,
                    delta,
                });
            }
        }
    }

    /// One switch regenerated the local inference of `n` variants.
    pub(crate) fn locals_generated(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.inference.locals_generated.add(n as u64);
        }
    }

    /// Whether variant `vi`'s merges are recorded in full — the flight ring
    /// is attached and traces it — so a hop must hand [`Self::merged`] its
    /// inferences; otherwise [`Self::merged_scope`] takes what the scope
    /// recorder reads.
    #[inline]
    pub(crate) fn records_merges(&self, vi: usize) -> bool {
        self.flight.is_some() && self.traced.is_some_and(|(t, _)| t == vi)
    }

    /// The scope half of [`Self::merged`]: variant `vi`'s merge at `node`
    /// left `w0` on `top_link`.
    #[inline]
    pub(crate) fn merged_scope(
        &self,
        vi: usize,
        node: NodeId,
        w0: f64,
        top_link: Option<LinkId>,
        scope: &mut ScopeBuffer,
    ) {
        if self.scope.is_some() && self.traced.is_some_and(|(t, _)| t == vi) {
            scope.merge(node.0, w0, top_link.map(|l| l.0));
        }
    }

    /// Variant `vi`'s hop of record `idx` merged `incoming` (`None` at
    /// ingress) with `local` into `merged` at `info.node`. The flight
    /// record diffs `merged` against the *untruncated* merge to name what
    /// the top-k cut dropped, which it builds with the side-table hop's ⊕
    /// ([`InlineInference::merge`]), only with a recorder attached; it
    /// waits in the hop's lane log `out` for [`Self::record`], and the
    /// scope feed in the lane's buffer.
    #[inline]
    // One hop's merge, as it happened, plus where to log it.
    #[allow(clippy::too_many_arguments)]
    // db-lint: allow(hot-alloc) — flight-recorder-gated; the unattached path is two `None` checks
    pub(crate) fn merged(
        &self,
        idx: u32,
        vi: usize,
        now: SimTime,
        info: &HopInfo,
        incoming: Option<&(InlineInference, u8)>,
        local: &InlineInference,
        merged: &(InlineInference, u8),
        out: &mut HopOut,
    ) {
        if self.traced.is_none_or(|(t, _)| t != vi) {
            return;
        }
        let (agg, hops) = merged;
        if self.flight.is_some() {
            let full = match incoming {
                None => *local,
                Some((d, _)) => d.merge(local),
            };
            let dropped_links: Vec<u16> = full
                .entries()
                .iter()
                .filter(|(l, _)| agg.weight_of(*l) == 0.0)
                .map(|(l, _)| l.0)
                .collect();
            let record = FlightRecord::DriftMerged {
                at_ns: now.as_ns(),
                switch: info.node.0,
                flow: info.flow.0,
                pkt_seq: info.seq,
                hop_now: *hops,
                in_digest: incoming
                    .map_or(NO_INFERENCE_DIGEST, |(d, _)| inference_digest(d.entries())),
                local_digest: inference_digest(local.entries()),
                out_digest: inference_digest(agg.entries()),
                w0: agg.w0(),
                w1: agg.w1(),
                top_link: agg.top_link().map(|l| l.0),
                dropped_links,
            };
            out.push(idx, vi, HopEvent::Merged(record));
        }
        self.merged_scope(vi, info.node, agg.w0(), agg.top_link(), &mut out.scope);
    }

    /// Settle a hop's flight record [`Self::merged`] logged.
    pub(crate) fn record(&self, record: FlightRecord) {
        if let Some(f) = &self.flight {
            f.rec.record(record);
        }
    }

    /// Variant `vi`'s merge `out` at `node` satisfied equation (1) for
    /// `link`: the warning as the live buffer carries it, quoting `header`,
    /// the bytes the hop wrote for the packet (empty for a side-table
    /// variant, which writes none). Nothing is recorded until
    /// [`Self::warning`] settles it.
    #[inline]
    pub(crate) fn raise(
        &self,
        vi: usize,
        now: SimTime,
        node: NodeId,
        link: LinkId,
        out: &(InlineInference, u8),
        header: &[u8],
    ) -> Warning {
        let (agg, hops) = (&out.0, out.1);
        let mut bytes = [0u8; MAX_HEADER_BYTES];
        bytes[..header.len()].copy_from_slice(header);
        Warning {
            at: now,
            switch: node,
            link,
            variant: vi as u8,
            hop_now: hops,
            w0: agg.w0(),
            w1: agg.w1(),
            header: bytes,
            header_len: header.len() as u8,
        }
    }

    /// Settle raise `w`: buffer it live, count it, record it; its scope
    /// feed goes to `scope`, a lane buffer the caller folds.
    #[inline]
    pub(crate) fn warning(&mut self, w: &Warning, scope: &mut ScopeBuffer) {
        if let Some(buf) = &mut self.live {
            buf.push(*w);
        }
        let (hops, link) = (w.hop_now, w.link);
        if self
            .traced
            .is_some_and(|(t, _)| t == usize::from(w.variant))
        {
            if self.scope.is_some() {
                scope.warning(link.0);
            }
            if let Some(f) = &self.flight {
                f.rec.record(FlightRecord::WarningRaised {
                    at_ns: w.at.as_ns(),
                    switch: w.switch.0,
                    link: link.0,
                    hop_now: hops,
                    w0: w.w0,
                    w1: w.w1,
                    alpha_lhs: self.thresholds.alpha * hops as f64,
                    beta_lhs: self.thresholds.beta * w.w1.max(0.0),
                    ground_truth_hit: f.truth.get(link.idx()).copied().unwrap_or(false),
                });
            }
        }
        if let Some(m) = &self.metrics {
            m.inference
                .warning_raised(w.switch.0, link, hops as u32, w.w0, w.w1);
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
                variant: vi as u8,
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

    /// Time each window close's three phases into `reg`, as the timings
    /// `phase.monitor`, `phase.classify` and `phase.infer` (three clock
    /// reads a tick). Nothing per hop is counted: that is
    /// [`Self::set_metrics`].
    pub fn set_phase_timing(&mut self, reg: Arc<MetricsRegistry>) {
        self.tap.phases = Some(reg);
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
