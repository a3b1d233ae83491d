//! The live Drift-Bottle deployment: one observer running every module of
//! §4 inside the packet simulation.
//!
//! Per packet (at every switch on its path):
//!
//! 1. the Flow Monitoring module updates the measure registers;
//! 2. for each distributed variant, the Inference Aggregation module reads
//!    the drifted inference (from the real wire header for the flagship
//!    variant, or the exact side table for baselines), aggregates it with
//!    the switch's local inference, checks equation (1), and writes the
//!    updated inference back (the last switch strips the header, §4.3).
//!
//! The two halves of a packet's hop differ in what they share. Monitoring
//! writes per-switch registers whose arrival order is state; aggregation
//! reads only the packet's carrier and the switch's local inference, which
//! changes only at a tick. So the per-flow half runs in `Lane`s, one per
//! shard of the flows, each the one owner of its flows' in-flight carriers
//! (the streaming engine's parked headers and the side tables), against a
//! `HopView` every lane shares, and what it raises is settled on the
//! calling thread in record order (`DriftBottleSystem::settle`). The
//! simulator's observer path is the same code with one record per settle.
//!
//! Per sampling tick (the control-plane timer of §4.1):
//!
//! 1. each switch drains its registers, assembles Table-2 features, and runs
//!    the classifier;
//! 2. the Inference Generation module rebuilds each variant's local
//!    inference (Algorithm 1);
//! 3. centralized variants periodically aggregate all locals at the DCA and
//!    report culprits via the 007 procedure.
//!
//! Steps 1 and 2 touch nothing but the switch's own state, so, as at the
//! paper's switches, they run for contiguous ranges of switches at once,
//! one range per thread group (`on_tick`); what they report is replayed
//! on the calling thread in switch order, before step 3.

use crate::carrier::{shard_of, CarrierTable};
use crate::config::{Mechanism, SystemConfig, VariantSpec};
use crate::tap::Tap;
use db_dtree::FlowClassifier;
use db_flowmon::{FlowStatus, SwitchMonitor, WindowConfig};
use db_inference::eval::in_report_window;
use db_inference::{
    aggregate_step_inline_metered, centralized_report, check_warning_inline,
    local_inference_scratched, wire_hop, HeaderCodec, Inference, InlineInference, KeyedInference,
    VoteScratch, WeightScheme, INLINE_CAP, MAX_HEADER_BYTES, MAX_K,
};
use db_netsim::packet::MAX_ANNOTATION_BYTES;
use db_netsim::{Annotation, FlowSpec, HopInfo, Observer, SimTime};
use db_telemetry::flight::FlightRecord;
use db_telemetry::scope::ScopeBuffer;
use db_topology::{LinkId, NodeId, Topology};
use db_util::wire::{ByteReader, ByteWriter, WireError};
use std::collections::{BTreeMap, BTreeSet};

/// One live warning, as surfaced by the streaming engine's ingest path.
///
/// The batch pipeline only needs the aggregated [`WarningLog`]; a long-lived
/// service needs each raise *as it happens*, carrying enough context for a
/// subscriber to act on it: the raising switch, the accused link, the
/// equation-(1) inputs, and, for the wire variant, the drifted header
/// exactly as the raising hop wrote it onto the packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Warning {
    /// When the warning was raised.
    pub at: SimTime,
    /// The raising switch ([`DCA_NODE`] for centralized reports).
    pub switch: NodeId,
    /// The accused link.
    pub link: LinkId,
    /// Index of the raising variant in deployment order.
    pub variant: u8,
    /// Aggregation count at raise time (0 for centralized reports).
    pub hop_now: u8,
    /// Strongest weight of the raising inference.
    pub w0: f64,
    /// Runner-up weight.
    pub w1: f64,
    /// The header the raising hop wrote, in the deployed [`HeaderCodec`]'s
    /// layout (`header[..header_len]`; empty for centralized and side-table
    /// variants, which write none).
    pub header: [u8; MAX_HEADER_BYTES],
    /// Valid prefix length of `header`.
    pub header_len: u8,
}

/// Per-(switch, link) warning statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// Number of raises.
    pub count: u64,
    /// First raise time.
    pub first_at: SimTime,
    /// Last raise time.
    pub last_at: SimTime,
}

/// All warnings one variant raised during a run.
#[derive(Debug, Clone, Default)]
pub struct WarningLog {
    /// Total raises (including duplicates and raises outside the collection
    /// window).
    pub raises: u64,
    /// Per-(switch, link) statistics. Centralized variants use the DCA
    /// pseudo-switch `NodeId(u16::MAX)`.
    /// BTreeMap: this map is iterated into `pair_counts` output, so its
    /// order must not depend on the process hash seed.
    pub by_pair: BTreeMap<(NodeId, LinkId), PairStats>,
    /// Links accused inside the collection window (§6.2: "we collect links
    /// reported within a sliding window after the occurrence of failures").
    pub reported_links: BTreeSet<LinkId>,
    /// (switch, link) pairs accused inside the window — Fig. 12 locality.
    pub reported_pairs: BTreeSet<(NodeId, LinkId)>,
}

/// The pseudo-switch id used for warnings raised by a centralized DCA.
pub const DCA_NODE: NodeId = NodeId(u16::MAX);

impl WarningLog {
    fn record(&mut self, now: SimTime, switch: NodeId, link: LinkId, window: (SimTime, SimTime)) {
        self.raises += 1;
        let e = self.by_pair.entry((switch, link)).or_insert(PairStats {
            count: 0,
            first_at: now,
            last_at: now,
        });
        e.count += 1;
        e.last_at = now;
        if in_report_window(now, window) {
            self.reported_links.insert(link);
            self.reported_pairs.insert((switch, link));
        }
    }
}

/// One sampled drifted inference, for the Fig.-11 CDFs.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioSample {
    /// Snapshot of the inference entries (canonical order).
    pub entries: Vec<(LinkId, f64)>,
    /// Aggregation count at sampling time.
    pub hop_now: u8,
    /// When the sample was taken.
    pub at: SimTime,
}

/// The drifted inference a side-table variant parks between two hops of a
/// packet, with its aggregation count: what the wire header would carry,
/// at exact `f64` weights. A hop's result is truncated to k ≤ [`MAX_K`],
/// so this holds k entries, not the 2k a merge needs — 88 bytes where the
/// [`InlineInference`] it is rebuilt into for the merge takes 264.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drifted {
    links: [LinkId; MAX_K],
    weights: [f64; MAX_K],
    len: u8,
    hops: u8,
}

impl Drifted {
    /// Panics past [`MAX_K`] entries; `deploy_empty` bounds k by it.
    // db-lint: allow(hot-panic) — a hop's result is truncated to k ≤ MAX_K, which `deploy_empty` asserts; the assert pins that here
    fn new(inf: &InlineInference, hops: u8) -> Self {
        let entries = inf.entries();
        assert!(
            entries.len() <= MAX_K,
            "a carried inference holds at most MAX_K = {MAX_K} entries, not {}",
            entries.len()
        );
        let mut d = Drifted {
            links: [LinkId(0); MAX_K],
            weights: [0.0; MAX_K],
            len: entries.len() as u8,
            hops,
        };
        let slots = d.links.iter_mut().zip(d.weights.iter_mut());
        for ((l, w), &(link, weight)) in slots.zip(entries) {
            (*l, *w) = (link, weight);
        }
        d
    }

    /// The merge input: the inference and its aggregation count.
    // db-lint: allow(hot-index) — `new` keeps len ≤ MAX_K, the arrays' length
    fn inline(&self) -> (InlineInference, u8) {
        let n = usize::from(self.len);
        let inf = InlineInference::from_canonical(&self.links[..n], &self.weights[..n]);
        (inf, self.hops)
    }
}

/// Who reads a variant's per-switch local inferences, and so which form
/// they are kept in — fixed by the variant's mechanism in `deploy_empty`.
#[derive(Debug, Clone)]
enum Locals {
    /// The wire variant: the packet path reads the k-truncated local on
    /// every hop, in the integer form the header hop runs on — its scheme
    /// is integral and k ≤ [`MAX_K`], both checked in `deploy_empty`.
    /// (Its in-flight state rides in the header.)
    Wire(Vec<KeyedInference>),
    /// Side-table distributed variants: the packet path reads the
    /// k-truncated local on every hop, so it is stored in the
    /// allocation-free form. (Their in-flight exact-weight carriers are per
    /// flow, so they live in the [`Lane`]s.)
    Distributed(Vec<InlineInference>),
    /// Centralized variants: only the DCA reads, once per period, and 007
    /// aggregates untruncated votes — which may exceed [`INLINE_CAP`].
    Centralized(Vec<Inference>),
}

impl Locals {
    /// Algorithm 1 on one switch's `votes` (verdict, upstream links): its
    /// new local, in the form this variant keeps. With a `tally`, every
    /// voted link's vote sum is pushed there too
    /// ([`local_inference_scratched`]).
    fn regenerate<'a>(
        &self,
        votes: impl IntoIterator<Item = (FlowStatus, &'a [LinkId])>,
        scheme: WeightScheme,
        k: usize,
        scratch: &mut VoteScratch,
        mut tally: Option<&mut Vec<(LinkId, f64)>>,
    ) -> Local {
        // Only the DCA reads a centralized local, and 007 aggregates
        // every vote, untruncated.
        let k = if matches!(self, Locals::Centralized(_)) {
            usize::MAX
        } else {
            k
        };
        let inf = local_inference_scratched(votes, scheme, k, scratch, |link, sum| {
            if let Some(t) = tally.as_mut() {
                t.push((link, sum));
            }
        });
        match self {
            // Deployment admits only an integral scheme and k ≤ MAX_K on
            // the wire, and a vote sum counts at most the u32 flow ids, far
            // inside the key's range.
            Locals::Wire(_) => Local::Wire(
                KeyedInference::from_entries(inf.entries())
                    .expect("an integral local of at most MAX_K entries"),
            ),
            Locals::Distributed(_) => Local::Distributed(InlineInference::from_inference(&inf)),
            Locals::Centralized(_) => Local::Centralized(inf),
        }
    }

    /// Write `local`, built by [`Self::regenerate`] on this variant, as
    /// `node`'s local.
    fn set(&mut self, node: NodeId, local: Local) {
        let i = node.idx();
        match (self, local) {
            (Locals::Wire(locals), Local::Wire(l)) => locals[i] = l,
            (Locals::Distributed(locals), Local::Distributed(l)) => locals[i] = l,
            (Locals::Centralized(locals), Local::Centralized(l)) => locals[i] = l,
            _ => unreachable!("a local is regenerated in its own variant's form"),
        }
    }
}

/// One switch's regenerated local inference, in its variant's form
/// ([`Locals`]): what a tick group builds and the calling thread writes
/// back.
#[derive(Debug)]
enum Local {
    Wire(KeyedInference),
    Distributed(InlineInference),
    Centralized(Inference),
}

/// Fewest rows a window close gives each thread group it splits across.
/// A switch weighs the rows its close walks — every flow registered there
/// — plus the rows classification and regeneration walk, its staged rows
/// of the window before; a tick whose switches weigh `w` in all runs on
/// `min(lanes, w / MIN_ROWS_PER_GROUP)` groups, at least one. Measured on
/// the daemon's engine at two shards, in-process (DESIGN.md §15 "What the
/// window close costs the daemon").
pub const MIN_ROWS_PER_GROUP: usize = 1024;

/// The deal of a window close: switches `0..weights.len()`, weighed by
/// `weights`, cut into contiguous ranges of near-equal weight — at most
/// `groups` of them and at most one per `floor` of the total weight, at
/// least one. Each range's end goes to `end`, in switch order. A cut falls
/// at the first switch whose prefix weight reaches the next of `groups`
/// equal shares, so no range outweighs the mean share by more than its
/// heaviest switch.
fn deal(
    weights: impl ExactSizeIterator<Item = usize> + Clone,
    groups: usize,
    floor: usize,
    mut end: impl FnMut(usize),
) {
    let (n, total) = (weights.len(), weights.clone().sum::<usize>());
    let groups = groups.min(total / floor.max(1)).max(1);
    let (mut prefix, mut share) = (0, 1);
    for (i, w) in weights.enumerate() {
        prefix += w;
        if share < groups && prefix * groups >= share * total && i + 1 < n {
            end(i + 1);
            while share < groups && prefix * groups >= share * total {
                share += 1;
            }
        }
    }
    end(n);
}

/// One thread group's share of a window close: a contiguous range of
/// switches and the scratch its phases reuse from tick to tick.
#[derive(Debug, Default)]
struct TickGroup {
    /// The range's end; it starts where the group before it ends.
    end: usize,
    /// Every verdict on the range's staged rows, switch after switch,
    /// positional with each monitor's [`SwitchMonitor::staged_rows`].
    judged: Vec<FlowStatus>,
    scratch: VoteScratch,
    /// The range's new locals, switch after switch, in variant order.
    locals: Vec<Local>,
    /// The scope-traced variant's vote sums per voted link, switch after
    /// switch, `tallied[i]` of them for the range's `i`-th switch; empty
    /// when no scope recorder is attached.
    tally: Vec<(LinkId, f64)>,
    tallied: Vec<usize>,
}

impl TickGroup {
    /// Judge the rows `share`'s switches staged.
    fn classify(&mut self, share: &[SwitchMonitor], classifier: &impl FlowClassifier) {
        self.judged.clear();
        for m in share {
            let rows = m.staged_rows().iter();
            self.judged
                .extend(rows.map(|(_, x)| classifier.classify(x)));
        }
    }

    /// Regenerate every variant's local at each of `share`'s switches from
    /// their judged rows, tallying variant `tallied`'s votes.
    fn regenerate(
        &mut self,
        share: &[SwitchMonitor],
        variants: &[VariantState],
        k: usize,
        tallied: Option<usize>,
    ) {
        self.locals.clear();
        self.tally.clear();
        self.tallied.clear();
        let mut judged = self.judged.as_slice();
        for m in share {
            let (mine, rest) = judged.split_at(m.staged_rows().len());
            judged = rest;
            let before = self.tally.len();
            for (vi, v) in variants.iter().enumerate() {
                let votes = mine.iter().copied().zip(m.staged_upstream());
                let tally = (tallied == Some(vi)).then_some(&mut self.tally);
                let local = v
                    .locals
                    .regenerate(votes, v.spec.scheme, k, &mut self.scratch, tally);
                self.locals.push(local);
            }
            self.tallied.push(self.tally.len() - before);
        }
    }
}

/// What window closes reuse from tick to tick: the groups of the last
/// deal and their scratch.
#[derive(Debug)]
struct TickScratch {
    groups: Vec<TickGroup>,
    /// The deal's floor, [`MIN_ROWS_PER_GROUP`] unless a test lowers it.
    rows_per_group: usize,
}

impl TickScratch {
    fn with_floor(rows_per_group: usize) -> TickScratch {
        TickScratch {
            groups: Vec::new(),
            rows_per_group,
        }
    }

    /// Deal switches weighing `weights` to at most `max` groups
    /// ([`deal`]); the groups, each with its range's end.
    fn deal(
        &mut self,
        weights: impl ExactSizeIterator<Item = usize> + Clone,
        max: usize,
    ) -> &mut [TickGroup] {
        let (groups, mut used) = (&mut self.groups, 0);
        deal(weights, max, self.rows_per_group, |end| {
            if used == groups.len() {
                groups.push(TickGroup::default());
            }
            groups[used].end = end;
            used += 1;
        });
        &mut self.groups[..used]
    }
}

/// Run `work` on each group's share of `items` — the items from the end
/// of the group before up to its own — group 0 on the calling thread and
/// the others on the process's helpers ([`crate::par::join`]). One group
/// runs on the calling thread alone.
fn on_groups<T: Send>(
    groups: &mut [TickGroup],
    items: &mut [T],
    work: impl Fn(&mut TickGroup, &mut [T]) + Sync,
) {
    let (mut rest, mut start) = (items, 0);
    let mut shares = groups.iter_mut().map(|g| {
        let (share, tail) = std::mem::take(&mut rest).split_at_mut(g.end - start);
        (rest, start) = (tail, g.end);
        (g, share)
    });
    let own = shares.next();
    let work = &work;
    crate::par::join(shares.map(|(g, share)| move || work(g, share)), || {
        if let Some((g, share)) = own {
            work(g, share);
        }
    });
}

/// Per-variant mutable state.
#[derive(Debug, Clone)]
struct VariantState {
    spec: VariantSpec,
    locals: Locals,
    /// Warnings raised.
    log: WarningLog,
    /// Sampled drifted inferences (Fig. 11).
    ratios: Vec<RatioSample>,
    /// Ticks closed; nothing reads it but the v1 snapshot, which carries it.
    ticks_seen: u32,
}

/// One shard of the per-flow half of the hop pipeline: every in-flight
/// carrier of the flows it holds ([`shard_of`]) — the wire header's and
/// each side-table variant's — and what their hops produced since the last
/// [`DriftBottleSystem::settle`]. Between two settles a lane is written by
/// one thread only, and it takes cache lines of its own (see
/// [`CarrierTable`]).
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(crate) struct Lane {
    /// Per in-flight packet `(flow, seq)` → the wire header it carries to
    /// its next switch and when it was written, for the streaming engine's
    /// records; empty in batch runs, whose packets carry their own.
    headers: CarrierTable<(Annotation, SimTime)>,
    /// Per variant, in deployment order: per in-flight packet `(flow, seq)`
    /// → the drifted inference a side-table variant parks between hops
    /// (values are `Copy`, no per-packet allocation beyond amortized table
    /// growth). Empty for a `DistributedWire` variant, whose state rides in
    /// the header, and for centralized ones.
    side: Vec<CarrierTable<Drifted>>,
    out: HopOut,
}

/// What one hop hands the calling thread to settle.
#[derive(Debug, Clone)]
pub(crate) enum HopEvent {
    /// The traced variant's merge, for the flight ring.
    Merged(FlightRecord),
    /// The §4.3 ablation's per-hop write-back: the switch's new local, in
    /// the k-entry form a carrier takes.
    Absorbed(NodeId, Drifted),
    Raise(Warning),
    Ratio(RatioSample),
}

/// What a lane's hops produced that the calling thread settles.
#[derive(Debug, Clone, Default)]
pub(crate) struct HopOut {
    /// `(record, variant, event)`, in the order the lane's hops produced
    /// them: by record index in the run, then variant, then within a hop.
    log: Vec<(u32, u8, HopEvent)>,
    /// The traced variant's merge and warning feeds, held off the scope
    /// recorder's lock.
    pub(crate) scope: ScopeBuffer,
}

impl HopOut {
    /// Log `event` of variant `vi`'s hop of record `idx`.
    #[inline]
    pub(crate) fn push(&mut self, idx: u32, vi: usize, event: HopEvent) {
        self.log.push((idx, vi as u8, event));
    }
}

impl Lane {
    fn empty(variants: usize) -> Lane {
        Lane {
            headers: CarrierTable::new(),
            side: (0..variants).map(|_| CarrierTable::new()).collect(),
            out: HopOut::default(),
        }
    }

    /// Whether nothing waits in the lane for a settle.
    #[inline]
    fn settled(&self) -> bool {
        self.out.log.is_empty() && self.out.scope.is_empty()
    }

    /// The per-flow half of the hop of record `idx` of a run, observed at
    /// `now`, for a record with no packet to carry its header: read the
    /// header its upstream switch parked here (healthy flows vote too,
    /// so there almost always is one), hop on it, park what the hop leaves.
    /// A fresh packet enters empty, and its write then only replaces a
    /// stale carrier under the same key (seq reuse across a very old flow
    /// restart).
    #[inline]
    pub(crate) fn carry(&mut self, view: &HopView, idx: u32, now: SimTime, info: &HopInfo) {
        let Lane { headers, side, out } = self;
        let slot = headers.slot(info.flow.0, info.seq);
        let mut ann = match slot.get() {
            Some(&(ann, _)) if !info.is_ingress => ann,
            _ => Annotation::empty(),
        };
        handle_distributed(view, side, out, idx, now, info, &mut ann);
        // An absent header and an empty one mean the same thing to the
        // pipeline, so empty headers are never parked; the last switch
        // frees the slot.
        let park = !info.is_last_switch && !ann.is_empty();
        slot.set(park.then_some((ann, now)));
    }
}

/// The Inference Aggregation module of every distributed variant, for one
/// hop of a lane's flow — the allocation-free per-packet hot path, on
/// stack-resident fixed-capacity state ([`DriftBottleSystem::deploy_empty`]
/// bounds k so a merge always fits). The wire variant's hop is
/// [`wire_hop`] on `ann`, on packed integer keys; a raise quotes the bytes
/// it wrote, and an [`InlineInference`] is built from its result only for
/// a raise, a ratio sample or a flight record. A side-table variant's hop
/// merges [`InlineInference`]s parked in the lane's `side` tables and
/// writes no header. Both match the reference forms bit for bit
/// (`aggregate_step`, `check_warning`, and `HeaderCodec::encode` for the
/// wire's bytes) — see the equivalence proptests in db-inference. What the
/// hop raises waits in `out`.
// db-lint: allow(hot-index, hot-alloc) — per-node vectors are sized at setup; the allocating branches are sampling-window-gated, raise-gated or the §4.3 ablation, off the steady-state path
fn handle_distributed(
    view: &HopView,
    side: &mut [CarrierTable<Drifted>],
    out: &mut HopOut,
    idx: u32,
    now: SimTime,
    info: &HopInfo,
    ann: &mut Annotation,
) {
    let (codec, cfg, tap) = (view.codec, view.cfg, view.tap);
    let node = info.node;
    for ((vi, variant), side) in view.variants.iter().enumerate().zip(side) {
        match &variant.locals {
            Locals::Wire(locals) => {
                let local = &locals[node.idx()];
                let header = (!info.is_ingress).then(|| ann.as_slice());
                let mut buf = [0u8; MAX_HEADER_BYTES];
                let hop = wire_hop(
                    &codec,
                    header,
                    local,
                    &cfg.warning,
                    tap.inference(),
                    &mut buf,
                );
                if tap.records_merges(vi) {
                    let incoming = header.and_then(|b| codec.decode_inline(b));
                    let merged = (hop.merged.to_inline(), hop.hops);
                    tap.merged(
                        idx,
                        vi,
                        now,
                        info,
                        incoming.as_ref(),
                        &local.to_inline(),
                        &merged,
                        out,
                    );
                } else {
                    let (w0, top) = (hop.merged.w0(), hop.merged.top_link());
                    tap.merged_scope(vi, node, w0, top, &mut out.scope);
                }
                if let Some(link) = hop.warning() {
                    let merged = (hop.merged.to_inline(), hop.hops);
                    let raised = tap.raise(vi, now, node, link, &merged, &buf[..hop.len]);
                    out.push(idx, vi, HopEvent::Raise(raised));
                }
                if view.samples(idx, hop.hops, now) {
                    let sample = RatioSample {
                        entries: hop.merged.to_inline().entries().to_vec(),
                        hop_now: hop.hops,
                        at: now,
                    };
                    out.push(idx, vi, HopEvent::Ratio(sample));
                }
                if info.is_last_switch {
                    // §4.3: the last switch deletes the inference header
                    // before delivering to the host.
                    ann.clear();
                } else {
                    ann.set(&buf[..hop.len]);
                    tap.header_piggybacked();
                }
            }
            Locals::Distributed(locals) => {
                let local = &locals[node.idx()];
                // The side table's one probe: the slot this hop reads from
                // is the slot it writes to.
                let slot = side.slot(info.flow.0, info.seq);
                let incoming = (!info.is_ingress)
                    .then(|| slot.get().map(Drifted::inline))
                    .flatten();
                let merged = match &incoming {
                    None => (local.top_k(cfg.k), 1u8),
                    Some((drifted, h)) => {
                        aggregate_step_inline_metered(local, drifted, *h, cfg.k, tap.inference())
                    }
                };
                tap.merged(idx, vi, now, info, incoming.as_ref(), local, &merged, out);
                let (agg, hops) = (&merged.0, merged.1);
                if variant.spec.mechanism == Mechanism::DistributedAbsorbing {
                    // The forbidden feedback loop (§4.3): the local
                    // inference is replaced by the aggregate, biasing later
                    // packets.
                    out.push(idx, vi, HopEvent::Absorbed(node, Drifted::new(agg, hops)));
                }
                if let Some(link) = check_warning_inline(agg, hops as u32, &cfg.warning) {
                    let raised = tap.raise(vi, now, node, link, &merged, &[]);
                    out.push(idx, vi, HopEvent::Raise(raised));
                }
                if view.samples(idx, hops, now) {
                    let sample = RatioSample {
                        entries: agg.entries().to_vec(),
                        hop_now: hops,
                        at: now,
                    };
                    out.push(idx, vi, HopEvent::Ratio(sample));
                }
                // The last switch frees the slot; any other leaves its
                // result there, over a stale entry at ingress.
                slot.set((!info.is_last_switch).then(|| Drifted::new(agg, hops)));
            }
            // Centralized variants have no packet path.
            Locals::Centralized(_) => {}
        }
    }
}

/// The Flow Monitoring module's half of a run: every switch's measure
/// registers, whose arrival order is monitor state, so records reach them
/// in record order on the calling thread.
pub(crate) struct Registers<'a> {
    monitors: &'a mut [SwitchMonitor],
    tap: &'a Tap,
}

impl Registers<'_> {
    /// One record at its switch's registers.
    // db-lint: allow(hot-index) — monitors are sized by node count at setup; HopInfo nodes come from the same topology
    #[inline]
    pub(crate) fn record(&mut self, now: SimTime, info: &HopInfo) {
        if self.monitors[info.node.idx()].on_packet(now, info.flow, info.size) {
            self.tap.register_update();
        }
    }
}

/// What every hop reads and none writes: the variants' locals (rebuilt
/// only at a tick), thresholds, codec and attachments. Lanes share one by
/// reference.
pub(crate) struct HopView<'a> {
    variants: &'a [VariantState],
    tap: &'a Tap,
    cfg: &'a SystemConfig,
    codec: HeaderCodec,
    window: (SimTime, SimTime),
    /// The aggregation counter before the run's first record: record `i`
    /// of the run is aggregation `agg_base + i + 1`.
    agg_base: u64,
}

impl HopView<'_> {
    /// Whether the hop of record `idx` of the run, at `now` with `hops`
    /// aggregations, is a Fig.-11 ratio sample: every `ratio_sampling`-th
    /// aggregation past `hop_min` inside the collection window.
    #[inline]
    fn samples(&self, idx: u32, hops: u8, now: SimTime) -> bool {
        let aggregation = self.agg_base + u64::from(idx) + 1;
        let every = u64::from(self.cfg.ratio_sampling);
        every > 0
            && u32::from(hops) >= self.cfg.warning.hop_min
            && aggregation.is_multiple_of(every)
            && now > self.window.0
            && now <= self.window.1
    }
}

/// The deployed system: implements [`Observer`] so it runs live inside the
/// event loop. Generic over the classifier so the data-plane model (tree,
/// rule table, or threshold baseline) is chosen at compile time.
pub struct DriftBottleSystem<C: FlowClassifier> {
    monitors: Vec<SwitchMonitor>,
    classifier: C,
    cfg: SystemConfig,
    wcfg: WindowConfig,
    codec: HeaderCodec,
    variants: Vec<VariantState>,
    /// The per-flow hop state, one lane per shard (at least one).
    lanes: Vec<Lane>,
    /// Warning collection window `(from, to]`.
    window: (SimTime, SimTime),
    agg_counter: u64,
    /// [`Observer::on_tick`]'s thread groups, kept so a tick does not
    /// allocate.
    tick: TickScratch,
    /// Everything that only observes, attached through the `set_*` methods
    /// in [`crate::tap`]; by default nothing is, and nothing is recorded.
    pub(crate) tap: Tap,
}

impl<C: FlowClassifier> DriftBottleSystem<C> {
    /// Deploy the system on a topology.
    ///
    /// `window` is the warning-collection interval `(from, to]` used for the
    /// §6.2 evaluation protocol. At most one variant may use
    /// [`Mechanism::DistributedWire`], and `cfg.k` may not exceed [`MAX_K`].
    pub fn deploy(
        topo: &Topology,
        flows: &[FlowSpec],
        wcfg: WindowConfig,
        classifier: C,
        variants: Vec<VariantSpec>,
        cfg: SystemConfig,
        window: (SimTime, SimTime),
    ) -> Self {
        let mut system = Self::deploy_empty(topo, wcfg, classifier, variants, cfg, window);
        for f in flows {
            system.register_flow(f);
        }
        system
    }

    /// Deploy the system with **no flows registered** — the streaming form:
    /// a daemon deploys once per topology and registers flows as their
    /// definitions arrive (see [`Self::register_flow`]). [`Self::deploy`]
    /// is this plus one `register_flow` per workload flow, in order.
    pub fn deploy_empty(
        topo: &Topology,
        wcfg: WindowConfig,
        classifier: C,
        variants: Vec<VariantSpec>,
        cfg: SystemConfig,
        window: (SimTime, SimTime),
    ) -> Self {
        let wire_count = variants
            .iter()
            .filter(|v| v.mechanism == Mechanism::DistributedWire)
            .count();
        assert!(
            wire_count <= 1,
            "packets carry one header: at most one DistributedWire variant"
        );
        assert!(
            variants
                .iter()
                .all(|v| v.mechanism != Mechanism::DistributedWire || v.scheme.is_integral()),
            "the wire header carries integer weights: a DistributedWire variant needs an \
             integral scheme"
        );
        assert!(
            cfg.k <= MAX_K,
            "inference length k = {} exceeds MAX_K = {MAX_K}: the per-hop merge holds \
             {INLINE_CAP} entries and the header buffer {MAX_HEADER_BYTES} bytes",
            cfg.k
        );
        let monitors: Vec<SwitchMonitor> =
            topo.nodes().map(|n| SwitchMonitor::new(n, wcfg)).collect();
        let n = topo.node_count();
        let codec = HeaderCodec::for_network(cfg.k, topo.link_count());
        let tap = Tap::new(&variants, cfg.warning);
        let lanes = vec![Lane::empty(variants.len())];
        let variants = variants
            .into_iter()
            .map(|spec| VariantState {
                locals: match spec.mechanism {
                    Mechanism::Centralized { .. } => {
                        Locals::Centralized(vec![Inference::empty(); n])
                    }
                    Mechanism::DistributedWire => Locals::Wire(vec![KeyedInference::default(); n]),
                    _ => Locals::Distributed(vec![InlineInference::empty(); n]),
                },
                spec,
                log: WarningLog::default(),
                ratios: Vec::new(),
                ticks_seen: 0,
            })
            .collect();
        DriftBottleSystem {
            monitors,
            classifier,
            cfg,
            wcfg,
            codec,
            variants,
            lanes,
            window,
            agg_counter: 0,
            tick: TickScratch::with_floor(MIN_ROWS_PER_GROUP),
            tap,
        }
    }

    /// A second system in exactly this one's state — monitors, locals,
    /// in-flight carriers, warning logs, counters — with nothing attached
    /// to observe it. The two share nothing mutable.
    pub fn fork(&self) -> Self
    where
        C: Clone,
    {
        DriftBottleSystem {
            monitors: self.monitors.clone(),
            classifier: self.classifier.clone(),
            cfg: self.cfg.clone(),
            wcfg: self.wcfg,
            codec: self.codec,
            variants: self.variants.clone(),
            lanes: self.lanes.clone(),
            window: self.window,
            agg_counter: self.agg_counter,
            tick: TickScratch::with_floor(self.tick.rows_per_group),
            tap: self.tap.bare(),
        }
    }

    /// Lower the window close's split floor from [`MIN_ROWS_PER_GROUP`] to
    /// `rows` (at least 1), so that a network too small to reach it still
    /// splits its ticks over the lanes: the mode-equivalence tests' small
    /// topologies. Outcomes are the same at every floor.
    #[doc(hidden)]
    pub fn set_tick_floor(&mut self, rows: usize) {
        self.tick.rows_per_group = rows.max(1);
    }

    /// Register one flow at every switch on its path, with the upstream-link
    /// metadata each monitor needs — exactly what [`Self::deploy`] does per
    /// workload flow. Idempotent per (flow, switch): re-registration
    /// replaces metadata and keeps accumulated history. Panics on an id at
    /// or past [`db_flowmon::MAX_FLOWS`]; a caller taking ids from outside
    /// the program checks first, as the daemon does for `FlowDef`.
    pub fn register_flow(&mut self, f: &FlowSpec) {
        for (pos, &node) in f.path.nodes.iter().enumerate() {
            let upstream: Vec<LinkId> = f.path.links[..pos].to_vec();
            let meta = db_flowmon::FlowMeta::new(f.rtt_ms, f.path.len(), upstream, &self.wcfg);
            self.monitors[node.idx()].register_flow(f.id, meta);
        }
    }

    /// The warning log of the variant named `name`.
    pub fn log(&self, name: &str) -> Option<&WarningLog> {
        self.variants
            .iter()
            .find(|v| v.spec.name == name)
            .map(|v| &v.log)
    }

    /// Iterate `(spec, log, ratio samples)` over all variants.
    pub fn results(&self) -> impl Iterator<Item = (&VariantSpec, &WarningLog, &[RatioSample])> {
        self.variants
            .iter()
            .map(|v| (&v.spec, &v.log, v.ratios.as_slice()))
    }

    /// The window configuration the system was deployed with.
    pub fn window_config(&self) -> WindowConfig {
        self.wcfg
    }

    /// FNV-1a digest of everything [`Self::restore_from`] assumes is equal
    /// between the snapshotting and the restoring deployment: window and
    /// system parameters, the collection window, topology extent, and the
    /// full variant roster. Two systems with equal fingerprints are
    /// structurally interchangeable for snapshot/restore (the classifier is
    /// derived from training configuration upstream and is not hashed).
    pub fn config_fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.u64(self.wcfg.interval.as_ns());
        w.usize(self.wcfg.window_intervals);
        w.usize(self.cfg.k);
        w.u32(self.cfg.warning.hop_min);
        w.f64(self.cfg.warning.alpha);
        w.f64(self.cfg.warning.beta);
        w.u64(self.cfg.interval.as_ns());
        w.u32(self.cfg.ratio_sampling);
        w.u64(self.window.0.as_ns());
        w.u64(self.window.1.as_ns());
        w.usize(self.monitors.len());
        w.seq(self.variants.len());
        for v in &self.variants {
            w.str(&v.spec.name);
            w.u8(match v.spec.scheme {
                db_inference::WeightScheme::DriftBottle => 0,
                db_inference::WeightScheme::NonNegative => 1,
                db_inference::WeightScheme::Drifted007 => 2,
                db_inference::WeightScheme::Modified007 => 3,
            });
            match v.spec.mechanism {
                Mechanism::DistributedWire => w.u8(0),
                Mechanism::DistributedVirtual => w.u8(1),
                Mechanism::Centralized { portion } => {
                    w.u8(2);
                    w.f64(portion);
                    // The DCA's reporting period, one tick: hashed as the
                    // field it was, so fingerprints and the snapshots they
                    // guard hold.
                    w.u32(1);
                }
                Mechanism::DistributedAbsorbing => w.u8(3),
            }
        }
        db_util::wire::fnv1a64(&w.into_bytes())
    }

    /// Serialize the complete mutable state of the deployment: the
    /// aggregation counter, every switch monitor (mid-window registers and
    /// per-flow history), and every variant's locals, in-flight carrier
    /// table, warning log, ratio samples and tick counter. A system
    /// restored from this continues **bit-identically** — the streaming
    /// equivalence proptest pins that across a mid-stream cycle.
    ///
    /// Configuration (topology, classifier, codec, thresholds, window) is
    /// deliberately *not* included: restore targets an identically deployed
    /// system, and the engine layer guards that with a config fingerprint.
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        w.u64(self.agg_counter);
        w.seq(self.monitors.len());
        for m in &self.monitors {
            m.snapshot_into(w);
        }
        w.seq(self.variants.len());
        for (vi, v) in self.variants.iter().enumerate() {
            // The v1 layout has two locals slots and two carrier slots per
            // variant, from when every variant held both forms. Slot 2
            // repeats a distributed variant's locals and is `n` empty lists
            // for a centralized one; the first carrier slot is retired and
            // always empty. `restore_from` checks all of that.
            match &v.locals {
                Locals::Wire(locals) => {
                    for _slot in 0..2 {
                        w.seq(locals.len());
                        for local in locals {
                            encode_entries(w, local.to_inline().entries());
                        }
                    }
                    // No side-table carriers: the header carriers are an
                    // engine snapshot's.
                    w.seq(0);
                    w.seq(0);
                }
                Locals::Distributed(locals) => {
                    for _slot in 0..2 {
                        w.seq(locals.len());
                        for local in locals {
                            encode_entries(w, local.entries());
                        }
                    }
                    w.seq(0);
                    // The carrier tables are hashed and split by flow; key
                    // order keeps the snapshot byte-stable across
                    // processes, fill histories and shard counts.
                    let lanes = self.lanes.iter().filter_map(|l| l.side.get(vi));
                    let carriers = CarrierTable::sorted(lanes);
                    w.seq(carriers.len());
                    for ((flow, seq), drifted) in carriers {
                        let (inf, hops) = drifted.inline();
                        w.u32(flow);
                        w.u64(seq);
                        w.u8(hops);
                        encode_entries(w, inf.entries());
                    }
                }
                Locals::Centralized(locals) => {
                    w.seq(locals.len());
                    for inf in locals {
                        encode_entries(w, inf.entries());
                    }
                    w.seq(locals.len());
                    for _ in locals {
                        encode_entries(w, &[]);
                    }
                    w.seq(0);
                    w.seq(0);
                }
            }
            w.u64(v.log.raises);
            w.seq(v.log.by_pair.len());
            for (&(switch, link), s) in &v.log.by_pair {
                w.u16w(switch.0);
                w.u16w(link.0);
                w.u64(s.count);
                w.u64(s.first_at.as_ns());
                w.u64(s.last_at.as_ns());
            }
            w.seq(v.log.reported_links.len());
            for l in &v.log.reported_links {
                w.u16w(l.0);
            }
            w.seq(v.log.reported_pairs.len());
            for (n, l) in &v.log.reported_pairs {
                w.u16w(n.0);
                w.u16w(l.0);
            }
            w.seq(v.ratios.len());
            for rs in &v.ratios {
                w.u64(rs.at.as_ns());
                w.u8(rs.hop_now);
                encode_entries(w, &rs.entries);
            }
            w.u32(v.ticks_seen);
        }
    }

    /// Inverse of [`Self::snapshot_into`], applied onto an identically
    /// deployed system. The system state is the tail of a snapshot, so this
    /// consumes the reader: everything is decoded into locals and committed
    /// only once the input has ended cleanly — on `Err` the system is
    /// untouched. Structural mismatches (monitor/variant counts, a
    /// side-table local past [`INLINE_CAP`] entries, a wire local past
    /// [`MAX_K`] or with a fractional weight, a carrier past [`MAX_K`]
    /// entries where the writer emits at most k, a second locals slot that
    /// is not what [`Self::snapshot_into`] writes beside the first, carriers
    /// on a wire or centralized variant, a non-empty retired slot) are
    /// reported as [`WireError::Overflow`] at the offending offset — callers
    /// fingerprint configuration before getting here, so a mismatch means
    /// corrupt input.
    /// The lanes come back with no header carriers: an engine snapshot
    /// holds those apart, and [`crate::Engine::restore`] restores both.
    pub fn restore_from(&mut self, mut reader: ByteReader) -> Result<(), WireError> {
        let r = &mut reader;
        let agg_counter = r.u64()?;
        expect_count(r, self.monitors.len())?;
        let monitors = (0..self.monitors.len())
            .map(|_| SwitchMonitor::restore_from(r, self.wcfg))
            .collect::<Result<Vec<_>, _>>()?;
        expect_count(r, self.variants.len())?;
        let mut variants = Vec::with_capacity(self.variants.len());
        let shards = self.lanes.len();
        let mut lanes: Vec<Lane> = (0..shards)
            .map(|_| Lane::empty(self.variants.len()))
            .collect();
        for (vi, v) in self.variants.iter().enumerate() {
            let n = self.monitors.len();
            let at = r.offset();
            let slot = |r: &mut ByteReader| -> Result<Vec<Vec<(LinkId, f64)>>, WireError> {
                expect_count(r, n)?;
                (0..n).map(|_| decode_entries(r)).collect()
            };
            let (slot1, slot2) = (slot(r)?, slot(r)?);
            expect_count(r, 0)?; // the retired heap-form carrier table
            let locals = match &v.locals {
                Locals::Wire(_) if slot2 == slot1 => {
                    expect_count(r, 0)?; // the header carriers are held apart
                    let locals = slot1.into_iter().map(|e| keyed_entries(at, e));
                    Locals::Wire(locals.collect::<Result<_, _>>()?)
                }
                Locals::Distributed(_) if slot2 == slot1 => {
                    for _ in 0..r.seq()? {
                        let flow = r.u32()?;
                        let seq = r.u64()?;
                        let hops = r.u8()?;
                        let inf = inline_entries(r.offset(), decode_entries(r)?, MAX_K)?;
                        let lane = lanes.get_mut(shard_of(flow, shards));
                        if let Some(carriers) = lane.and_then(|l| l.side.get_mut(vi)) {
                            carriers.slot(flow, seq).set(Some(Drifted::new(&inf, hops)));
                        }
                    }
                    let locals = slot1.into_iter().map(|e| inline_entries(at, e, INLINE_CAP));
                    Locals::Distributed(locals.collect::<Result<_, _>>()?)
                }
                Locals::Centralized(_) if slot2.iter().all(Vec::is_empty) => {
                    expect_count(r, 0)?; // no packet path, no carriers
                    Locals::Centralized(slot1.into_iter().map(Inference::from_pairs).collect())
                }
                // Slot 2 is not what `snapshot_into` writes beside slot 1.
                _ => return Err(WireError::Overflow { at, value: 2 }),
            };
            let mut log = WarningLog {
                raises: r.u64()?,
                ..Default::default()
            };
            for _ in 0..r.seq()? {
                let switch = NodeId(r.u16w()?);
                let link = LinkId(r.u16w()?);
                let count = r.u64()?;
                let first_at = SimTime::from_ns(r.u64()?);
                let last_at = SimTime::from_ns(r.u64()?);
                log.by_pair.insert(
                    (switch, link),
                    PairStats {
                        count,
                        first_at,
                        last_at,
                    },
                );
            }
            for _ in 0..r.seq()? {
                log.reported_links.insert(LinkId(r.u16w()?));
            }
            for _ in 0..r.seq()? {
                let n = NodeId(r.u16w()?);
                let l = LinkId(r.u16w()?);
                log.reported_pairs.insert((n, l));
            }
            let mut ratios = Vec::new();
            for _ in 0..r.seq()? {
                let at = SimTime::from_ns(r.u64()?);
                let hop_now = r.u8()?;
                let entries = decode_entries(r)?;
                ratios.push(RatioSample {
                    entries,
                    hop_now,
                    at,
                });
            }
            variants.push(VariantState {
                spec: v.spec.clone(),
                locals,
                log,
                ratios,
                ticks_seen: r.u32()?,
            });
        }
        reader.finish()?;
        self.agg_counter = agg_counter;
        self.monitors = monitors;
        self.variants = variants;
        self.lanes = lanes;
        Ok(())
    }

    /// Write the header carriers of every lane, in key order: the section
    /// of an engine snapshot between its clock and [`Self::snapshot_into`].
    pub(crate) fn headers_into(&self, w: &mut ByteWriter) {
        let headers = CarrierTable::sorted(self.lanes.iter().map(|l| &l.headers));
        w.seq(headers.len());
        for ((flow, seq), (ann, last)) in headers {
            w.u32(flow);
            w.u64(seq);
            w.u64(last.as_ns());
            let bytes = ann.as_slice();
            w.seq(bytes.len());
            for &b in bytes {
                w.u8(b);
            }
        }
    }

    /// Inverse of [`Self::headers_into`] then [`Self::snapshot_into`]:
    /// the header carriers are decoded first and dealt to their flows'
    /// lanes once [`Self::restore_from`] has committed the rest; on `Err`
    /// the system is untouched. A header longer than a packet's annotation
    /// is [`WireError::Overflow`] at its length.
    pub(crate) fn restore_with_headers(&mut self, mut reader: ByteReader) -> Result<(), WireError> {
        let r = &mut reader;
        let mut headers = CarrierTable::new();
        for _ in 0..r.seq()? {
            let flow = r.u32()?;
            let seq = r.u64()?;
            let last = SimTime::from_ns(r.u64()?);
            let at = r.offset();
            let n = r.seq()?;
            if n > MAX_ANNOTATION_BYTES {
                return Err(WireError::Overflow {
                    at,
                    value: n as u64,
                });
            }
            let ann = Annotation::from_bytes(r.bytes(n)?);
            headers.slot(flow, seq).set(Some((ann, last)));
        }
        self.restore_from(reader)?;
        headers.deal(&mut self.lanes, |l| &mut l.headers);
        Ok(())
    }

    /// Header carriers in flight: records' headers parked for their next
    /// switch. Side-table carriers are not counted.
    pub(crate) fn headers_in_flight(&self) -> usize {
        self.lanes.iter().map(|l| l.headers.len()).sum()
    }

    /// Drop every header carrier last written before `cutoff`.
    pub(crate) fn sweep_headers(&mut self, cutoff: SimTime) {
        for lane in &mut self.lanes {
            lane.headers.sweep(|&(_, last)| last >= cutoff);
        }
    }

    /// Split the per-flow hop state over `shards` lanes (at least one),
    /// each carrier, header or side-table, going to its flow's lane
    /// ([`shard_of`]). Called between runs, when no lane holds anything
    /// unsettled.
    pub(crate) fn reshard(&mut self, shards: usize) {
        let lanes = (0..shards.max(1)).map(|_| Lane::empty(self.variants.len()));
        for lane in std::mem::replace(&mut self.lanes, lanes.collect()) {
            lane.headers.deal(&mut self.lanes, |l| &mut l.headers);
            for (vi, side) in lane.side.into_iter().enumerate() {
                side.deal(&mut self.lanes, |l| &mut l.side[vi]);
            }
        }
    }

    /// Whether hops must run one record at a time on the calling thread:
    /// an absorbing variant writes a local per hop, which the next record
    /// reads.
    pub(crate) fn per_record(&self) -> bool {
        (self.variants.iter()).any(|v| v.spec.mechanism == Mechanism::DistributedAbsorbing)
    }

    /// The two halves of the next run's hops: the shared view and the
    /// lanes the per-flow half reads and runs in, and the switch registers
    /// the order-sensitive half writes. They are disjoint, so the two
    /// halves of one run may proceed at once.
    pub(crate) fn hop_parts(&mut self) -> (HopView<'_>, &mut [Lane], Registers<'_>) {
        let view = HopView {
            variants: &self.variants,
            tap: &self.tap,
            cfg: &self.cfg,
            codec: self.codec,
            window: self.window,
            agg_base: self.agg_counter,
        };
        let registers = Registers {
            monitors: &mut self.monitors,
            tap: &self.tap,
        };
        (view, &mut self.lanes, registers)
    }

    /// Settle a run of `records` hops: the lanes' logs, merged into
    /// (record, variant) order — the order one thread hopping the run would
    /// have produced them in — are dispatched to the flight ring, the
    /// warning logs, the tap, the ratio samples and the absorbing variants'
    /// locals; then the scope feeds fold into the window of `at`, the run's
    /// first record. A run never straddles a window the recorder has not
    /// reached (the engine cuts its runs there), so the fold lands every
    /// feed where a direct feed would.
    pub(crate) fn settle(&mut self, records: usize, at: SimTime) {
        self.agg_counter += records as u64;
        if self.lanes.iter().all(Lane::settled) {
            // Most hops raise nothing, sample nothing and feed no scope.
            return;
        }
        let Self {
            variants,
            lanes,
            tap,
            window,
            ..
        } = self;
        // A record's events all sit in its flow's lane, in order, so the
        // merge takes the lane whose next record comes first; each log is
        // reversed to pop from its head.
        for lane in lanes.iter_mut() {
            lane.out.log.reverse();
        }
        while let Some(out) = (lanes.iter_mut().map(|l| &mut l.out))
            .filter(|out| !out.log.is_empty())
            .min_by_key(|out| out.log.last().map(|&(i, ..)| i))
        {
            let Some((_, vi, event)) = out.log.pop() else {
                break;
            };
            let v = variants.get_mut(usize::from(vi));
            match event {
                HopEvent::Merged(record) => tap.record(record),
                HopEvent::Absorbed(node, local) => {
                    if let Some(Locals::Distributed(locals)) = v.map(|v| &mut v.locals) {
                        if let Some(slot) = locals.get_mut(node.idx()) {
                            *slot = local.inline().0;
                        }
                    }
                }
                HopEvent::Raise(w) => {
                    if let Some(v) = v {
                        v.log.record(w.at, w.switch, w.link, *window);
                    }
                    tap.warning(&w, &mut out.scope);
                }
                HopEvent::Ratio(sample) => {
                    if let Some(v) = v {
                        v.ratios.push(sample);
                    }
                }
            }
        }
        if let Some(sc) = tap.scope() {
            for lane in lanes.iter_mut() {
                sc.fold(at.as_ns(), &mut lane.out.scope);
            }
        }
    }
}

/// Encode one canonical inference entry list: length, then `(link, weight)`
/// pairs with IEEE-bit weights.
fn encode_entries(w: &mut ByteWriter, entries: &[(LinkId, f64)]) {
    w.seq(entries.len());
    for &(l, weight) in entries {
        w.u16w(l.0);
        w.f64(weight);
    }
}

/// Read a sequence length that the deployment fixes, refusing any other.
fn expect_count(r: &mut ByteReader, want: usize) -> Result<(), WireError> {
    let at = r.offset();
    match r.seq()? {
        n if n == want => Ok(()),
        n => Err(WireError::Overflow {
            at,
            value: n as u64,
        }),
    }
}

/// Decoded entries as an inline inference, refusing a list longer than
/// `cap`: [`INLINE_CAP`] for a local (`InlineInference::from_inference`
/// would panic past it), [`MAX_K`] for a carrier (`Drifted::new` would).
fn inline_entries(
    at: usize,
    entries: Vec<(LinkId, f64)>,
    cap: usize,
) -> Result<InlineInference, WireError> {
    if entries.len() > cap {
        return Err(WireError::Overflow {
            at,
            value: entries.len() as u64,
        });
    }
    // Entries round-trip canonically, so `from_inference` is an exact
    // rebuild.
    Ok(InlineInference::from_inference(&Inference::from_pairs(
        entries,
    )))
}

/// A wire variant's local from a snapshot's entry list: what
/// [`inline_entries`] accepts, of at most [`MAX_K`] entries, with integral
/// weights — the one form `snapshot_into` writes for it.
fn keyed_entries(at: usize, entries: Vec<(LinkId, f64)>) -> Result<KeyedInference, WireError> {
    let inf = inline_entries(at, entries, MAX_K)?;
    KeyedInference::from_entries(inf.entries()).ok_or(WireError::Overflow {
        at,
        value: inf.len() as u64,
    })
}

/// Inverse of [`encode_entries`].
fn decode_entries(r: &mut ByteReader) -> Result<Vec<(LinkId, f64)>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let l = LinkId(r.u16w()?);
        let weight = r.f64()?;
        out.push((l, weight));
    }
    Ok(out)
}

impl<C: FlowClassifier> Observer for DriftBottleSystem<C> {
    /// One packet, one hop: the Flow Monitoring module's registers, the
    /// Inference Aggregation module on the flow's lane, then the settle of
    /// that one-record run — the code a sharded run executes, one record
    /// at a time.
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, ann: &mut Annotation) {
        let (view, lanes, mut registers) = self.hop_parts();
        registers.record(now, info);
        if let Some(lane) = lanes.get_mut(shard_of(info.flow.0, lanes.len())) {
            handle_distributed(&view, &mut lane.side, &mut lane.out, 0, now, info, ann);
        }
        self.settle(1, now);
    }

    /// Three explicit phases — monitor (drain every switch's registers),
    /// classify (judge every drained row), infer (local regeneration, DCA
    /// reports) — one db-scope span each, and each split by switch: the
    /// switches are dealt in contiguous ranges to thread groups, at most
    /// one per lane (`deal`), and every phase is one `par::join` over
    /// them. A group touches only its own switches' monitors, its own
    /// scratch and the shared classifier. What the tap sees is replayed on
    /// the calling thread in switch order, and the new locals are written
    /// back there, so outcomes and flight-record order are those of one
    /// thread walking the switches (the golden snapshot pins this); the DCA
    /// reports follow, serial.
    fn on_tick(&mut self, now: SimTime) {
        self.tap.window_open(now);
        let Self {
            monitors,
            classifier,
            cfg,
            variants,
            lanes,
            tick,
            tap,
            window,
            ..
        } = self;
        let weights = monitors
            .iter()
            .map(|m| m.monitored_flows() + m.staged_rows().len());
        let groups = tick.deal(weights, lanes.len());
        {
            let _span = tap.phase("phase.monitor");
            // Zero-copy window close: each monitor stages its rows in an
            // internal buffer the later phases borrow (`staged_rows`).
            on_groups(groups, monitors, |_, share| {
                for m in share {
                    m.close_window(now);
                }
            });
            tap.monitors_closed(now, monitors);
        }
        {
            let _span = tap.phase("phase.classify");
            let classifier = &*classifier;
            on_groups(groups, monitors, |g, share| g.classify(share, classifier));
        }
        let _span = tap.phase("phase.infer");
        let (k, tallied) = (cfg.k, tap.tallied());
        on_groups(groups, monitors, |g, share| {
            g.regenerate(share, variants, k, tallied)
        });
        let mut start = 0;
        for g in groups.iter_mut() {
            let share = &monitors[start..g.end];
            start = g.end;
            let (mut judged, mut tally) = (g.judged.as_slice(), g.tally.as_slice());
            let mut locals = g.locals.drain(..);
            for (m, &n) in share.iter().zip(&g.tallied) {
                let (mine, rest) = judged.split_at(m.staged_rows().len());
                let (cast, more) = tally.split_at(n);
                (judged, tally) = (rest, more);
                let node = m.node();
                // Reported before the locals are written, so the flight
                // ring orders cause before effect.
                if !mine.is_empty() {
                    let (rows, upstream) = (m.staged_rows(), m.staged_upstream());
                    tap.classified(now, node, rows, mine, upstream, cast);
                }
                // Every switch's locals are rebuilt, an empty view's too:
                // no flows means no evidence.
                for (v, local) in variants.iter_mut().zip(&mut locals) {
                    v.locals.set(node, local);
                }
                if !mine.is_empty() {
                    tap.locals_generated(variants.len());
                }
            }
        }
        // Centralized variants: the DCA reports every tick.
        for (vi, v) in variants.iter_mut().enumerate() {
            v.ticks_seen += 1;
            if let (Mechanism::Centralized { portion }, Locals::Centralized(locals)) =
                (v.spec.mechanism, &v.locals)
            {
                for link in centralized_report(locals, portion) {
                    v.log.record(now, DCA_NODE, link, *window);
                    tap.dca_report(vi, now, link);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_dtree::ThresholdClassifier;
    use db_inference::WarningConfig;
    use db_netsim::{FailureScenario, SimConfig, Simulator, TrafficConfig, TrafficGen};
    use db_topology::{zoo, RouteTable};

    /// Run the full system on a line topology with a mid-path failure, using
    /// the threshold classifier (no training needed at unit-test level).
    fn run_line(
        variants: Vec<VariantSpec>,
        seed: u64,
    ) -> (DriftBottleSystem<ThresholdClassifier>, Vec<LinkId>) {
        run_line_k(variants, seed, db_inference::DEFAULT_K)
    }

    /// [`run_line`] at inference length `k`.
    fn run_line_k(
        variants: Vec<VariantSpec>,
        seed: u64,
        k: usize,
    ) -> (DriftBottleSystem<ThresholdClassifier>, Vec<LinkId>) {
        run_line_split(variants, seed, k, 1, MIN_ROWS_PER_GROUP)
    }

    /// [`run_line_k`] on `lanes` lanes, the window close's split floor at
    /// `floor`.
    fn run_line_split(
        variants: Vec<VariantSpec>,
        seed: u64,
        k: usize,
        lanes: usize,
        floor: usize,
    ) -> (DriftBottleSystem<ThresholdClassifier>, Vec<LinkId>) {
        // 3 ms links so flow RTTs span several sampling intervals, as in the
        // evaluation topologies.
        let topo = zoo::line_with_latency(5, 3.0);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let interval = SimTime::from_ms(4);
        let wcfg = WindowConfig::for_network(&routes, interval);
        let t_fail = SimTime::from_ms(80);
        let window_len = wcfg.window_len();
        let window = (t_fail, t_fail + window_len + SimTime::from_ms(20));
        // A line is the paper's hardest case (Fig. 1: end-to-end paths make
        // neighbor links nearly indistinguishable), so the dominance
        // threshold β is relaxed below the mesh default here.
        let cfg = SystemConfig {
            k,
            ratio_sampling: 8,
            warning: WarningConfig {
                hop_min: 2,
                alpha: 1.0,
                beta: 1.6,
            },
            ..Default::default()
        };
        let mut system = DriftBottleSystem::deploy(
            &topo,
            &flows,
            wcfg,
            ThresholdClassifier::default(),
            variants,
            cfg,
            window,
        );
        system.reshard(lanes);
        system.set_tick_floor(floor);
        let failed = LinkId(2); // middle link s2-s3
        let scenario = FailureScenario::single_link(failed, t_fail);
        let sim_cfg = SimConfig {
            end: window.1 + SimTime::from_ms(8),
            tick_interval: interval,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows, sim_cfg, &scenario, seed, system);
        sim.run();
        let (system, stats) = sim.finish();
        assert!(stats.delivered > 0);
        (system, vec![failed])
    }

    #[test]
    fn drift_bottle_localizes_a_line_failure() {
        let (system, failed) = run_line(vec![VariantSpec::drift_bottle()], 1);
        let log = system.log("Drift-Bottle").unwrap();
        assert!(
            log.reported_links.contains(&failed[0]),
            "failed link must be reported; reported = {:?}",
            log.reported_links
        );
        // A line is the paper's Fig.-1 worst case: once the failure
        // partitions the chain, innocence evidence cannot cross the cut, so
        // the immediate neighbor links may stay suspicious. Every accusation
        // must still be adjacent to the failure.
        let topo = zoo::line_with_latency(5, 3.0);
        let fa = topo.link(failed[0]).a;
        let fb = topo.link(failed[0]).b;
        for &l in &log.reported_links {
            assert!(
                topo.link(l).touches(fa) || topo.link(l).touches(fb),
                "accusation {l} is not adjacent to the failure: {:?}",
                log.reported_links
            );
        }
    }

    /// Every k the Fig.-13 ablation sweeps goes through the one hop pipeline
    /// — wire header and exact-weight side table alike — and localizes;
    /// k = 8 is [`MAX_K`], the last k whose 2k-entry merge fits.
    #[test]
    fn every_fig13_k_localizes_the_line_failure() {
        for k in [2, 3, 4, 6, 8] {
            let (system, failed) = run_line_k(
                vec![
                    VariantSpec::drift_bottle(),
                    VariantSpec {
                        name: "DB-Virtual".into(),
                        scheme: db_inference::WeightScheme::DriftBottle,
                        mechanism: Mechanism::DistributedVirtual,
                    },
                ],
                1,
                k,
            );
            for (spec, log, _) in system.results() {
                assert!(
                    log.reported_links.contains(&failed[0]),
                    "{} at k = {k} must report the failed link; reported = {:?}",
                    spec.name,
                    log.reported_links
                );
            }
        }
    }

    /// Window closes split by switch over two and three lanes, at a floor
    /// the line's ticks reach, end where the one-group close does: the same
    /// warning logs, ratio samples, locals and monitors (snapshot bytes),
    /// for a wire, a side-table and a centralized variant. And every lane
    /// took a group.
    #[test]
    fn a_split_window_close_is_the_serial_one() {
        let variants = || {
            vec![
                VariantSpec::drift_bottle(),
                VariantSpec::distributed(db_inference::WeightScheme::Drifted007),
                centralized(),
            ]
        };
        let k = db_inference::DEFAULT_K;
        let (serial, failed) = run_line_split(variants(), 3, k, 1, MIN_ROWS_PER_GROUP);
        assert_eq!(serial.tick.groups.len(), 1);
        let reported = |s: &DriftBottleSystem<_>| {
            s.results()
                .any(|(_, log, _)| log.reported_links.contains(&failed[0]))
        };
        assert!(reported(&serial), "the line failure is localized");
        for lanes in [2, 3] {
            let (split, _) = run_line_split(variants(), 3, k, lanes, 1);
            assert_eq!(split.tick.groups.len(), lanes, "every lane took a group");
            assert!(snapshot_of(&split) == snapshot_of(&serial), "{lanes} lanes");
        }
    }

    /// The deal cuts the switches into contiguous, non-empty ranges that
    /// cover each switch once, in order, no more of them than the lanes and
    /// the floor allow, as many as they allow when the weight is even, and
    /// none outweighing the mean range by more than the heaviest switch.
    #[test]
    fn the_deal_is_contiguous_complete_and_balanced() {
        let mut rng = db_util::rng::Pcg64::new(45);
        for case in 0..4000 {
            let n = rng.index(48);
            // Every fourth case puts most of the weight on one switch.
            let heavy = (case % 4 == 0 && n > 0).then(|| rng.index(n));
            let weights: Vec<usize> = (0..n)
                .map(|i| rng.index(300) + if Some(i) == heavy { 5000 } else { 0 })
                .collect();
            let (lanes, floor) = (1 + rng.index(8), 1 + rng.index(2000));
            let mut ends = Vec::new();
            deal(weights.iter().copied(), lanes, floor, |end| ends.push(end));
            let total: usize = weights.iter().sum();
            let allowed = lanes.min(total / floor).max(1);
            let what = format!("case {case}: {weights:?} on {lanes} lanes at {floor}");
            assert!(
                !ends.is_empty() && ends.len() <= allowed,
                "{what}: {ends:?}"
            );
            assert_eq!(ends.last(), Some(&n), "{what}: {ends:?}");
            let starts = std::iter::once(0).chain(ends.iter().copied());
            let ranges: Vec<_> = starts.zip(&ends).map(|(a, &b)| a..b).collect();
            let (heaviest, mean) = (weights.iter().copied().max(), total / ranges.len());
            for r in &ranges {
                assert!(r.start < r.end || n == 0, "{what}: {ends:?}");
                let w: usize = weights[r.clone()].iter().sum();
                assert!(w <= mean + heaviest.unwrap_or(0), "{what}: {ends:?}");
            }
        }
        // Even weight heavy enough for every lane gets every lane.
        let mut ends = Vec::new();
        deal([100usize; 40].into_iter(), 3, 1000, |end| ends.push(end));
        assert_eq!(ends, [14, 27, 40]);
    }

    #[test]
    #[should_panic(expected = "MAX_K")]
    fn k_past_the_inline_merge_is_rejected_at_deploy() {
        run_line_k(vec![VariantSpec::drift_bottle()], 1, MAX_K + 1);
    }

    #[test]
    fn warnings_rise_near_the_failure() {
        let (system, failed) = run_line(vec![VariantSpec::drift_bottle()], 2);
        let log = system.log("Drift-Bottle").unwrap();
        let topo = zoo::line_with_latency(5, 3.0);
        for &(switch, link) in log.reported_pairs.iter() {
            if link == failed[0] {
                let d = topo.distance_to_link(switch, link);
                assert!(d <= 2, "true warning raised {d} hops away at {switch}");
            }
        }
    }

    #[test]
    fn virtual_and_wire_drift_bottle_agree_on_the_culprit() {
        let (system, failed) = run_line(
            vec![
                VariantSpec::drift_bottle(),
                VariantSpec {
                    name: "DB-Virtual".into(),
                    scheme: db_inference::WeightScheme::DriftBottle,
                    mechanism: Mechanism::DistributedVirtual,
                },
            ],
            3,
        );
        let wire = system.log("Drift-Bottle").unwrap();
        let virt = system.log("DB-Virtual").unwrap();
        assert!(wire.reported_links.contains(&failed[0]));
        assert!(virt.reported_links.contains(&failed[0]));
    }

    #[test]
    fn centralized_variant_reports_via_dca() {
        let (system, failed) = run_line(
            vec![VariantSpec::centralized(
                db_inference::WeightScheme::DriftBottle,
                0.4,
            )],
            4,
        );
        let log = system.log("DB-Centralized").unwrap();
        assert!(
            log.reported_links.contains(&failed[0]),
            "DCA must localize the line failure; got {:?}",
            log.reported_links
        );
        // All centralized warnings come from the pseudo-switch.
        for &(switch, _) in log.by_pair.keys() {
            assert_eq!(switch, DCA_NODE);
        }
    }

    #[test]
    fn no_failure_no_sustained_warnings() {
        let topo = zoo::line_with_latency(5, 3.0);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 5);
        let interval = SimTime::from_ms(4);
        let wcfg = WindowConfig::for_network(&routes, interval);
        let window = (SimTime::from_ms(80), SimTime::from_ms(140));
        let system = DriftBottleSystem::deploy(
            &topo,
            &flows,
            wcfg,
            ThresholdClassifier::default(),
            vec![VariantSpec::drift_bottle()],
            SystemConfig::default(),
            window,
        );
        let sim_cfg = SimConfig {
            end: SimTime::from_ms(150),
            tick_interval: interval,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows, sim_cfg, &FailureScenario::none(), 5, system);
        sim.run();
        let (system, _) = sim.finish();
        let log = system.log("Drift-Bottle").unwrap();
        // The threshold classifier misfires on ending flows, but the warning
        // thresholds must keep accusations rare on a healthy network.
        assert!(
            log.reported_links.len() <= 1,
            "healthy network accused {:?}",
            log.reported_links
        );
    }

    #[test]
    fn ratio_samples_are_collected_in_window() {
        let (system, _) = run_line(vec![VariantSpec::drift_bottle()], 6);
        let (_, _, ratios) = system.results().next().unwrap();
        assert!(!ratios.is_empty(), "ratio sampling was enabled");
        for r in ratios {
            assert!(r.hop_now >= 2);
            assert!(!r.entries.is_empty());
        }
    }

    #[test]
    fn absorbing_variant_breaks_localization() {
        // The §4.3 ablation: absorbing aggregated inferences into locals
        // compounds weights with every packet — the bias either floods the
        // network with spurious raises (Geant, see the ablation binary) or,
        // as on this line, buries the failure under compounded innocence
        // weights. Either way the correct protocol localizes and the
        // absorbing one does not behave the same.
        let (system, failed) = run_line(
            vec![
                VariantSpec::drift_bottle(),
                VariantSpec {
                    name: "DB-Absorbing".into(),
                    scheme: db_inference::WeightScheme::DriftBottle,
                    mechanism: Mechanism::DistributedAbsorbing,
                },
            ],
            8,
        );
        let correct = system.log("Drift-Bottle").unwrap();
        let absorbing = system.log("DB-Absorbing").unwrap();
        assert!(
            correct.reported_links.contains(&failed[0]),
            "the correct protocol must localize: {:?}",
            correct.reported_links
        );
        let diverged = !absorbing.reported_links.contains(&failed[0])
            || absorbing.raises > 2 * correct.raises.max(1);
        assert!(
            diverged,
            "absorbing should misbehave: raises {} vs {}, reported {:?}",
            absorbing.raises, correct.raises, absorbing.reported_links
        );
    }

    #[test]
    #[should_panic(expected = "at most one DistributedWire")]
    fn two_wire_variants_rejected() {
        let topo = zoo::line(3);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 1);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let _ = DriftBottleSystem::deploy(
            &topo,
            &flows,
            wcfg,
            ThresholdClassifier::default(),
            vec![VariantSpec::drift_bottle(), VariantSpec::drift_bottle()],
            SystemConfig::default(),
            (SimTime::ZERO, SimTime::from_ms(100)),
        );
    }

    #[test]
    #[should_panic(expected = "integral scheme")]
    fn a_fractional_scheme_on_the_wire_is_rejected_at_deploy() {
        let fractional = VariantSpec {
            mechanism: Mechanism::DistributedWire,
            ..VariantSpec::distributed(db_inference::WeightScheme::Modified007)
        };
        run_line(vec![fractional], 1);
    }

    fn centralized() -> VariantSpec {
        VariantSpec::centralized(db_inference::WeightScheme::DriftBottle, 0.4)
    }

    fn snapshot_of(system: &DriftBottleSystem<ThresholdClassifier>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        system.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// Run the line failure under `variants`, hand the snapshot and the
    /// offsets of the first variant's two locals slots to `corrupt`, and
    /// require that the bytes it returns are refused with the system left
    /// as it was — while the intact snapshot restores and re-encodes.
    fn assert_restore_refuses(
        variants: Vec<VariantSpec>,
        corrupt: impl Fn(&[u8], usize, usize) -> Vec<u8>,
    ) {
        let (mut system, _) = run_line(variants, 7);
        let snap = snapshot_of(&system);
        let mut r = ByteReader::new(&snap);
        r.u64().expect("aggregation counter");
        for _ in 0..r.seq().expect("monitor count") {
            SwitchMonitor::restore_from(&mut r, system.wcfg).expect("monitor");
        }
        r.seq().expect("variant count");
        let slot1 = r.offset();
        for _ in 0..r.seq().expect("switch count") {
            decode_entries(&mut r).expect("local");
        }
        let bad = corrupt(&snap, slot1, r.offset());
        assert!(system.restore_from(ByteReader::new(&bad)).is_err());
        assert!(snapshot_of(&system) == snap, "a refused restore wrote");
        system
            .restore_from(ByteReader::new(&snap))
            .expect("the intact snapshot restores");
        assert!(snapshot_of(&system) == snap);
    }

    /// `snap` with the first switch's entry list of the locals slot at
    /// `slot` rewritten by `edit`.
    fn edit_first_list(
        snap: &[u8],
        slot: usize,
        edit: impl Fn(&mut Vec<(LinkId, f64)>),
    ) -> Vec<u8> {
        edit_list(snap, slot + 4, edit) // past the slot's switch count
    }

    /// `snap` with the entry list at offset `list` rewritten by `edit`.
    fn edit_list(snap: &[u8], list: usize, edit: impl Fn(&mut Vec<(LinkId, f64)>)) -> Vec<u8> {
        let mut r = ByteReader::new(&snap[list..]);
        let mut entries = decode_entries(&mut r).expect("first list");
        edit(&mut entries);
        let mut w = ByteWriter::new();
        encode_entries(&mut w, &entries);
        [&snap[..list], &w.into_bytes(), &snap[list + r.offset()..]].concat()
    }

    #[test]
    fn restore_refuses_a_distributed_variant_whose_slots_disagree() {
        assert_restore_refuses(
            vec![VariantSpec::drift_bottle(), centralized()],
            |snap, _, slot2| edit_first_list(snap, slot2, |e| e[0].1 += 1.0),
        );
    }

    #[test]
    fn restore_refuses_inline_locals_on_a_centralized_variant() {
        assert_restore_refuses(
            vec![centralized(), VariantSpec::drift_bottle()],
            |snap, _, slot2| edit_first_list(snap, slot2, |e| e.push((LinkId(0), 1.0))),
        );
    }

    /// Past [`INLINE_CAP`] in slot 1 alone, and in both slots — where only
    /// the capacity check can refuse.
    #[test]
    fn restore_refuses_a_distributed_local_past_the_inline_capacity() {
        let wide = |e: &mut Vec<(LinkId, f64)>| {
            *e = (0..=INLINE_CAP as u16)
                .map(|l| (LinkId(l), 40.0 - f64::from(l)))
                .collect();
        };
        let variants = || vec![VariantSpec::drift_bottle(), centralized()];
        assert_restore_refuses(variants(), |snap, slot1, _| {
            edit_first_list(snap, slot1, wide)
        });
        assert_restore_refuses(variants(), |snap, slot1, slot2| {
            // Slot 2 first: it sits after slot 1, so its offset survives.
            edit_first_list(&edit_first_list(snap, slot2, wide), slot1, wide)
        });
    }

    /// The wire variant's locals are integral and at most [`MAX_K`] long,
    /// so a fractional weight or one entry more, in both slots, is refused.
    #[test]
    fn restore_refuses_a_wire_local_that_is_fractional_or_past_max_k() {
        let fractional = |e: &mut Vec<(LinkId, f64)>| *e = vec![(LinkId(0), 0.5)];
        let long = |e: &mut Vec<(LinkId, f64)>| {
            *e = (0..=MAX_K as u16)
                .map(|l| (LinkId(l), 40.0 - f64::from(l)))
                .collect();
        };
        for edit in [&fractional as &dyn Fn(&mut Vec<(LinkId, f64)>), &long] {
            assert_restore_refuses(vec![VariantSpec::drift_bottle()], |snap, slot1, slot2| {
                edit_first_list(&edit_first_list(snap, slot2, edit), slot1, edit)
            });
        }
    }

    /// A carrier holds what a hop writes, at most [`MAX_K`] entries: a
    /// k = `MAX_K` deployment's carrier of exactly k restores and
    /// re-encodes as it came, and one entry more is an overflow at the
    /// list, with the system left as it was.
    #[test]
    fn restore_takes_a_carrier_of_k_entries_and_refuses_one_past_max_k() {
        let virt = VariantSpec {
            name: "DB-Virtual".into(),
            scheme: db_inference::WeightScheme::DriftBottle,
            mechanism: Mechanism::DistributedVirtual,
        };
        let (mut system, _) = run_line_k(vec![virt], 7, MAX_K);
        let snap = snapshot_of(&system);
        let mut r = ByteReader::new(&snap);
        r.u64().expect("aggregation counter");
        for _ in 0..r.seq().expect("monitor count") {
            SwitchMonitor::restore_from(&mut r, system.wcfg).expect("monitor");
        }
        r.seq().expect("variant count");
        for _slot in 0..2 {
            for _ in 0..r.seq().expect("switch count") {
                decode_entries(&mut r).expect("local");
            }
        }
        expect_count(&mut r, 0).expect("the retired slot");
        assert!(r.seq().expect("carrier count") > 0, "no carrier in flight");
        r.u32().expect("flow");
        r.u64().expect("seq");
        r.u8().expect("hops");
        let list = r.offset();
        let with = |n: usize| {
            edit_list(&snap, list, |e| {
                *e = (0..n as u16)
                    .map(|l| (LinkId(l), 40.0 - f64::from(l)))
                    .collect();
            })
        };
        let exact = with(MAX_K);
        system
            .restore_from(ByteReader::new(&exact))
            .expect("a carrier of k entries restores");
        assert!(snapshot_of(&system) == exact, "and re-encodes as it came");
        match system.restore_from(ByteReader::new(&with(MAX_K + 1))) {
            Err(WireError::Overflow { at, value }) => {
                assert_eq!((at, value), (list, MAX_K as u64 + 1));
            }
            other => panic!("expected an overflow at {list}, got {other:?}"),
        }
        assert!(snapshot_of(&system) == exact, "a refused restore wrote");
    }
}
