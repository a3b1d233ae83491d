//! Per-switch and network-wide monitors.
//!
//! A [`SwitchMonitor`] is one switch's flow table, stored by column: a
//! `FlowId → slot` index, and per slot (slots in ascending flow-id order)
//! the flow's static metadata, its current-interval register row, a ring of
//! its last `window_intervals` closed intervals, and running sums over the
//! last RTT of them. A packet touches one register row; closing a sampling
//! interval is one sequential sweep that produces a Table-2 feature vector
//! per monitored-and-active flow. A [`NetworkMonitor`] is the full
//! deployment: one monitor per switch, with every flow registered at every
//! switch on its path.

use crate::measures::IntervalMeasures;
use crate::window::{self, FeatureVector, FlowMeta, WindowConfig};
use db_netsim::{Annotation, FlowId, FlowSpec, HopInfo, Observer, SimTime};
use db_topology::{LinkId, NodeId, Topology};
use db_util::wire::{ByteReader, ByteWriter, WireError};

/// Flow ids a monitor accepts are `0..MAX_FLOWS`. The `FlowId → slot` index
/// is an array over the id space, so the bound caps it at 4 MiB per switch;
/// it admits every workload the traffic generator can produce (ids are
/// handed out sequentially and a full mesh on `SCALE_NODE_THRESHOLD` = 1024
/// nodes has 1024 · 1023 flows). Ids arriving from outside — a `FlowDef`
/// frame, a snapshot file — are checked against it where they enter.
pub const MAX_FLOWS: usize = 1 << 20;

/// Index entry of an unmonitored flow id.
const NO_SLOT: u32 = u32::MAX;

/// Monitoring state of one switch.
///
/// **Running sums.** `sums[slot]` holds, per Table-1 measure, the sum over
/// the flow's last `min(n_interval, buffered)` closed intervals, maintained
/// by add-new / subtract-expired at each close. All six measures are
/// integers, so the sums are exact; the feature `avg = sum as f64 · (1/n)`
/// is bit-identical to accumulating the same ≤ 32 intervals in `f64`, which
/// is exact as well while the sum stays below 2^53 (a flow would have to
/// deliver 2^48 bytes in one 4 ms interval to get there).
///
/// **Ring.** `ring[slot · W + p]` with `W = window_intervals`; all flows
/// share one write position `head`, so a flow's interval closed `b` closes
/// ago sits at `p = (head − b) mod W` whenever `b ≤ buffered[slot]`.
#[derive(Debug, Clone)]
pub struct SwitchMonitor {
    node: NodeId,
    cfg: WindowConfig,
    interval_start: SimTime,
    /// `FlowId.0 → slot`, [`NO_SLOT`] for unmonitored ids.
    index: Vec<u32>,
    /// Monitored flow ids, ascending; every column below is parallel to it.
    flows: Vec<FlowId>,
    meta: Vec<FlowMeta>,
    /// Packets recorded since the flow was last reclaimed (0 = never seen).
    total_packets: Vec<u64>,
    /// Slots with `total_packets > 0`, counted where it changes: at a
    /// close and at a restore.
    active: usize,
    /// Closed intervals held in the ring, at most `window_intervals`.
    buffered: Vec<usize>,
    /// The data-plane registers: measures of the interval in progress.
    current: Vec<IntervalMeasures>,
    sums: Vec<[u64; 6]>,
    ring: Vec<IntervalMeasures>,
    head: usize,
    /// Flows with a non-empty `current` row, in arrival order — the order
    /// is part of the snapshot bytes, nothing else depends on it.
    touched: Vec<FlowId>,
    /// Reusable window-close staging buffers: rows are assembled here and
    /// borrowed out by [`Self::close_window`], so a long-lived monitor stops
    /// allocating once they have grown to their working size.
    row_buf: Vec<(FlowId, FeatureVector)>,
    row_slots: Vec<usize>,
}

fn add(sums: &mut [u64; 6], m: &IntervalMeasures) {
    for (s, v) in sums.iter_mut().zip(m.widened()) {
        *s += v;
    }
}

impl SwitchMonitor {
    /// Create a monitor with no flows registered.
    pub fn new(node: NodeId, cfg: WindowConfig) -> Self {
        SwitchMonitor {
            node,
            cfg,
            interval_start: SimTime::ZERO,
            index: Vec::new(),
            flows: Vec::new(),
            meta: Vec::new(),
            total_packets: Vec::new(),
            active: 0,
            buffered: Vec::new(),
            current: Vec::new(),
            sums: Vec::new(),
            ring: Vec::new(),
            head: 0,
            touched: Vec::new(),
            row_buf: Vec::new(),
            row_slots: Vec::new(),
        }
    }

    /// The switch this monitor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn slot_of(&self, flow: FlowId) -> Option<usize> {
        let slot = *self.index.get(flow.0 as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The interval `slot` closed `back` closes ago (1 = the newest).
    fn closed(&self, slot: usize, back: usize) -> &IntervalMeasures {
        let w = self.cfg.window_intervals;
        &self.ring[slot * w + (self.head + w - back) % w]
    }

    /// Rebuild `sums[slot]` from the ring.
    fn resum(&mut self, slot: usize) {
        let mut sums = [0; 6];
        for back in 1..=self.meta[slot].n_interval.min(self.buffered[slot]) {
            add(&mut sums, self.closed(slot, back));
        }
        self.sums[slot] = sums;
    }

    /// Register a flow passing through this switch. Re-registering replaces
    /// the metadata but keeps any accumulated history. Panics on an id at or
    /// past [`MAX_FLOWS`] or an `n_interval` outside `1..=window_intervals`
    /// ([`FlowMeta::new`] clamps into it).
    pub fn register_flow(&mut self, flow: FlowId, meta: FlowMeta) {
        let (id, w) = (flow.0 as usize, self.cfg.window_intervals);
        assert!(id < MAX_FLOWS, "flow id {id} is past MAX_FLOWS");
        assert!((1..=w).contains(&meta.n_interval), "n_interval off-window");
        if let Some(slot) = self.slot_of(flow) {
            self.meta[slot] = meta;
            self.resum(slot);
            return;
        }
        // Ascending registration (every batch deployment) appends; a late
        // low id shifts the slots above it.
        let slot = self.flows.partition_point(|&f| f < flow);
        if id >= self.index.len() {
            self.index.resize(id + 1, NO_SLOT);
        }
        for later in &self.flows[slot..] {
            self.index[later.0 as usize] += 1;
        }
        self.index[id] = slot as u32;
        self.flows.insert(slot, flow);
        self.meta.insert(slot, meta);
        self.total_packets.insert(slot, 0);
        self.buffered.insert(slot, 0);
        self.current.insert(slot, IntervalMeasures::default());
        self.sums.insert(slot, [0; 6]);
        let fresh = std::iter::repeat_n(IntervalMeasures::default(), w);
        self.ring.splice(slot * w..slot * w, fresh);
    }

    /// Number of flows registered.
    pub fn monitored_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of flows currently occupying live register history: registered
    /// flows that have been seen here and not yet aged out. This is the
    /// hardware register-occupancy view — `monitored_flows()` counts the
    /// operator's intent, `active_flows()` counts what the switch is actually
    /// holding state for.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Static metadata of a monitored flow.
    pub fn flow_meta(&self, flow: FlowId) -> Option<&FlowMeta> {
        self.slot_of(flow).map(|slot| &self.meta[slot])
    }

    /// Record a packet of a monitored flow; unmonitored flows are ignored
    /// (transit traffic the operator chose not to track). Returns whether
    /// the packet hit a register (used for telemetry accounting).
    pub fn on_packet(&mut self, now: SimTime, flow: FlowId, size: u32) -> bool {
        // `NO_SLOT` is past any column, so both misses fall out of `get`.
        let slot = self.index.get(flow.0 as usize).copied();
        let Some(row) = slot.and_then(|s| self.current.get_mut(s as usize)) else {
            return false;
        };
        // `record` always bumps n_packet, so an empty row ⇔ untouched this
        // interval — exactly when the flow must join the touched list.
        if row.is_empty() {
            self.touched.push(flow);
        }
        let offset = now.saturating_sub(self.interval_start);
        row.record(offset, self.cfg.interval, size);
        true
    }

    /// Close the current sampling interval at `now`: the control plane drains
    /// the data-plane registers, extends every monitored flow's history
    /// (silent flows get an all-zero interval), and emits a feature vector
    /// per flow that has ever been active here and has one RTT of history.
    ///
    /// **Aging**: a flow whose entire RTT feature window is silent is
    /// deregistered from the active view (its history resets) — the hardware
    /// analogue is register reclamation. Without aging, every dead flow
    /// (ended *or* blackholed) would emit an all-zero row per interval
    /// forever, drowning both training and inference in uninformative and
    /// mutually contradictory samples.
    pub fn end_interval(&mut self, now: SimTime) -> Vec<(FlowId, FeatureVector)> {
        self.close_window(now).to_vec()
    }

    /// [`Self::end_interval`] without the copy: the rows, in ascending
    /// flow-id order (possibly empty), are borrowed from the monitor's
    /// staging buffer and stay readable through [`Self::staged_rows`] until
    /// the next close.
    // db-lint: allow(hot-index) — register_flow keeps one entry per slot in every column and window_intervals per slot in the ring; n_interval ≤ window_intervals is asserted there
    pub fn close_window(&mut self, now: SimTime) -> &[(FlowId, FeatureVector)] {
        let w = self.cfg.window_intervals;
        let head = self.head;
        self.row_buf.clear();
        self.row_slots.clear();
        self.active = 0;
        for (slot, ring) in self.ring.chunks_exact_mut(w).enumerate() {
            let m = std::mem::take(&mut self.current[slot]);
            let (meta, sums) = (&self.meta[slot], &mut self.sums[slot]);
            let n = meta.n_interval;
            if self.buffered[slot] >= n {
                // The interval leaving the RTT window; at n = W it is the
                // ring entry `m` is about to replace.
                for (s, v) in sums.iter_mut().zip(ring[(head + w - n) % w].widened()) {
                    *s -= v;
                }
            }
            add(sums, &m);
            ring[head] = m;
            self.buffered[slot] = (self.buffered[slot] + 1).min(w);
            self.total_packets[slot] += u64::from(m.n_packet);
            let seen = self.total_packets[slot] > 0;
            if !seen || self.buffered[slot] < n {
                // Never seen here, or less than one RTT of history.
                self.active += usize::from(seen);
                continue;
            }
            if sums[0] == 0 {
                // No packet in the last n intervals: reclaim the registers.
                self.buffered[slot] = 0;
                self.total_packets[slot] = 0;
                *sums = [0; 6];
                continue;
            }
            self.active += 1;
            self.row_buf
                .push((self.flows[slot], window::assemble(meta, sums, &m.widened())));
            self.row_slots.push(slot);
        }
        self.head = (head + 1) % w;
        self.touched.clear();
        self.interval_start = now;
        &self.row_buf
    }

    /// The rows assembled by the most recent [`Self::close_window`] /
    /// [`Self::end_interval`], valid until the next close.
    pub fn staged_rows(&self) -> &[(FlowId, FeatureVector)] {
        &self.row_buf
    }

    /// The upstream links of each staged row's flow, positional with
    /// [`Self::staged_rows`] (valid until the next close or registration).
    pub fn staged_upstream(&self) -> impl ExactSizeIterator<Item = &[LinkId]> {
        let upstream = |&slot: &usize| self.meta[slot].upstream.as_slice();
        self.row_slots.iter().map(upstream)
    }

    /// The integers each staged row was assembled from, positional with
    /// [`Self::staged_rows`]: the flow's slot (its rank among the flows
    /// registered here), its six running window sums and the six measures
    /// of the interval just closed (valid until the next close or
    /// registration).
    pub(crate) fn staged_registers(
        &self,
    ) -> impl ExactSizeIterator<Item = (usize, &[u64; 6], [u64; 6])> {
        let registers = |&slot: &usize| (slot, &self.sums[slot], self.closed(slot, 1).widened());
        self.row_slots.iter().map(registers)
    }

    /// The registered flows and their metadata, in slot order.
    pub(crate) fn into_registrations(self) -> impl Iterator<Item = (FlowId, FlowMeta)> {
        self.flows.into_iter().zip(self.meta)
    }

    /// Serialize the complete monitoring state — registrations, metadata,
    /// interval histories, and the **mid-interval** register contents — so a
    /// streaming engine can checkpoint between any two packets. Field order
    /// is fixed; [`Self::restore_from`] is the inverse and a restored
    /// monitor continues bit-identically (pinned by the engine equivalence
    /// proptest in db-core).
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        w.u16w(self.node.0);
        w.u64(self.interval_start.as_ns());
        w.seq(self.flows.len());
        for (slot, (flow, meta)) in self.flows.iter().zip(&self.meta).enumerate() {
            w.u32(flow.0);
            w.f64(meta.rtt_ms);
            w.usize(meta.path_len);
            w.usize(meta.n_interval);
            w.seq(meta.upstream.len());
            for l in &meta.upstream {
                w.u16w(l.0);
            }
            w.u64(self.total_packets[slot]);
            w.seq(self.buffered[slot]);
            for back in (1..=self.buffered[slot]).rev() {
                encode_measures(w, self.closed(slot, back)); // oldest first
            }
        }
        // Register rows are encoded sparsely: only the touched ones are
        // non-empty mid-interval.
        w.seq(self.touched.len());
        for &flow in &self.touched {
            w.u32(flow.0);
            let slot = self.slot_of(flow).expect("touched flows are registered");
            encode_measures(w, &self.current[slot]);
        }
    }

    /// Inverse of [`Self::snapshot_into`]. `cfg` is the network-wide window
    /// configuration the snapshot was taken under (it is part of the
    /// engine-level config fingerprint, not repeated per switch).
    ///
    /// The bytes come from a file: anything [`Self::snapshot_into`] cannot
    /// have written — flow ids not strictly ascending or past
    /// [`MAX_FLOWS`], an `n_interval` or a history longer than the window, a
    /// register row of an unregistered flow, an empty or repeated one — is
    /// [`WireError::Overflow`] at its offset, and no length field sizes an
    /// allocation before the bytes it counts were read.
    pub fn restore_from(r: &mut ByteReader, cfg: WindowConfig) -> Result<Self, WireError> {
        let refuse = |at: usize, value: usize| WireError::Overflow {
            at,
            value: value as u64,
        };
        let node = NodeId(r.u16w()?);
        let mut mon = SwitchMonitor::new(node, cfg);
        mon.interval_start = SimTime::from_ns(r.u64()?);
        let w = cfg.window_intervals;
        for slot in 0..r.seq()? {
            let at = r.offset();
            let flow = FlowId(r.u32()?);
            let ascending = mon.flows.last().is_none_or(|&last| last < flow);
            if !ascending || flow.0 as usize >= MAX_FLOWS {
                return Err(refuse(at, flow.0 as usize));
            }
            let rtt_ms = r.f64()?;
            let path_len = r.usize()?;
            let at = r.offset();
            let n_interval = r.usize()?;
            if !(1..=w).contains(&n_interval) {
                return Err(refuse(at, n_interval));
            }
            let mut upstream = Vec::new();
            for _ in 0..r.seq()? {
                upstream.push(LinkId(r.u16w()?));
            }
            let meta = FlowMeta {
                rtt_ms,
                path_len,
                n_interval,
                upstream,
            };
            mon.register_flow(flow, meta); // ascending: appends slot `slot`
            mon.total_packets[slot] = r.u64()?;
            mon.active += usize::from(mon.total_packets[slot] > 0);
            let at = r.offset();
            let n_hist = r.seq()?;
            if n_hist > w {
                return Err(refuse(at, n_hist));
            }
            mon.buffered[slot] = n_hist;
            // `head` is 0, so the newest interval belongs at ring offset W − 1.
            for m in &mut mon.ring[(slot + 1) * w - n_hist..] {
                *m = decode_measures(r)?;
            }
            mon.resum(slot);
        }
        for _ in 0..r.seq()? {
            let at = r.offset();
            let flow = FlowId(r.u32()?);
            let m = decode_measures(r)?;
            match mon.slot_of(flow).map(|slot| &mut mon.current[slot]) {
                Some(row) if row.is_empty() && !m.is_empty() => *row = m,
                _ => return Err(refuse(at, flow.0 as usize)),
            }
            mon.touched.push(flow);
        }
        Ok(mon)
    }
}

fn encode_measures(w: &mut ByteWriter, m: &IntervalMeasures) {
    w.u32(m.n_packet);
    w.u64(m.len_all);
    w.u32(m.len_max);
    w.u32(m.len_last);
    w.u32(m.n_burst);
    w.u32(m.pos_burst);
}

fn decode_measures(r: &mut ByteReader) -> Result<IntervalMeasures, WireError> {
    Ok(IntervalMeasures {
        n_packet: r.u32()?,
        len_all: r.u64()?,
        len_max: r.u32()?,
        len_last: r.u32()?,
        n_burst: r.u32()?,
        pos_burst: r.u32()?,
    })
}

/// One monitoring row produced at a sampling tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorRow {
    /// The monitoring switch.
    pub switch: NodeId,
    /// The monitored flow.
    pub flow: FlowId,
    /// Tick time (end of the sampled interval).
    pub at: SimTime,
    /// The assembled feature vector.
    pub features: FeatureVector,
}

/// One [`SwitchMonitor`] per switch, every flow registered at every switch
/// of its path, and the `flowmon.*` handles: what [`NetworkMonitor`] and
/// [`crate::dataset::TrainingMonitor`] share. They differ only in what they
/// keep of each closed window.
#[derive(Debug)]
pub(crate) struct Deployment {
    /// The monitors, in node order.
    pub(crate) monitors: Vec<SwitchMonitor>,
    /// Telemetry handles; `None` (the default) records nothing.
    metrics: Option<crate::metrics::FlowmonMetrics>,
}

impl Deployment {
    /// Deploy monitors on every switch, registering each flow at every
    /// switch of its path with the correct upstream-link metadata.
    pub(crate) fn new(topo: &Topology, flows: &[FlowSpec], cfg: WindowConfig) -> Self {
        let mut monitors: Vec<SwitchMonitor> =
            topo.nodes().map(|n| SwitchMonitor::new(n, cfg)).collect();
        for f in flows {
            for (pos, &node) in f.path.nodes.iter().enumerate() {
                let upstream: Vec<LinkId> = f.path.links[..pos].to_vec();
                let meta = FlowMeta::new(f.rtt_ms, f.path.len(), upstream, &cfg);
                monitors[node.idx()].register_flow(f.id, meta);
            }
        }
        Deployment {
            monitors,
            metrics: None,
        }
    }

    pub(crate) fn set_metrics(&mut self, reg: &db_telemetry::MetricsRegistry) {
        self.metrics = Some(crate::metrics::FlowmonMetrics::register(reg));
    }

    /// Record a packet observation.
    // db-lint: allow(hot-index) — monitors is sized by node count at setup; HopInfo nodes come from the same topology
    pub(crate) fn on_packet(&mut self, now: SimTime, info: &HopInfo, size: u32) {
        let recorded = self.monitors[info.node.idx()].on_packet(now, info.flow, size);
        if recorded {
            if let Some(m) = &self.metrics {
                m.register_updates.inc();
            }
        }
    }

    /// Close the interval on every switch, in node order, handing each
    /// monitor to `emit` while its rows are staged.
    pub(crate) fn close_all(&mut self, now: SimTime, mut emit: impl FnMut(&SwitchMonitor)) {
        let mut emitted = 0u64;
        for m in &mut self.monitors {
            emitted += m.close_window(now).len() as u64;
            emit(m);
        }
        if let Some(met) = &self.metrics {
            met.intervals_closed.add(self.monitors.len() as u64);
            met.feature_vectors.add(emitted);
        }
    }
}

/// The full network deployment: one [`SwitchMonitor`] per switch, keeping
/// every row it produces.
#[derive(Debug)]
pub struct NetworkMonitor {
    deployment: Deployment,
    cfg: WindowConfig,
    /// Rows collected at every tick (drained by callers or kept for
    /// inspection).
    pub rows: Vec<MonitorRow>,
}

impl NetworkMonitor {
    /// Deploy monitors on every switch, registering each flow at every
    /// switch of its path with the correct upstream-link metadata.
    pub fn deploy(topo: &Topology, flows: &[FlowSpec], cfg: WindowConfig) -> Self {
        NetworkMonitor {
            deployment: Deployment::new(topo, flows, cfg),
            cfg,
            rows: Vec::new(),
        }
    }

    /// Attach telemetry handles (register updates, intervals, feature
    /// vectors). Never affects what the monitors compute.
    pub fn set_metrics(&mut self, reg: &db_telemetry::MetricsRegistry) {
        self.deployment.set_metrics(reg);
    }

    /// The monitoring configuration.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// The monitor deployed on `node`.
    pub fn switch(&self, node: NodeId) -> &SwitchMonitor {
        &self.deployment.monitors[node.idx()]
    }

    /// Upstream links of `flow` w.r.t. `switch`, if monitored there.
    pub fn upstream(&self, switch: NodeId, flow: FlowId) -> Option<&[LinkId]> {
        self.switch(switch)
            .flow_meta(flow)
            .map(|m| m.upstream.as_slice())
    }

    /// Record a packet observation.
    pub fn on_packet(&mut self, now: SimTime, info: &HopInfo, size: u32) {
        self.deployment.on_packet(now, info, size);
    }

    /// Close the interval on every switch, appending the produced rows.
    pub fn end_interval(&mut self, now: SimTime) {
        let rows = &mut self.rows;
        self.deployment.close_all(now, |m| {
            let switch = m.node();
            let row = |&(flow, features): &(FlowId, FeatureVector)| MonitorRow {
                switch,
                flow,
                at: now,
                features,
            };
            rows.extend(m.staged_rows().iter().map(row));
        });
    }
}

impl Observer for NetworkMonitor {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, _ann: &mut Annotation) {
        NetworkMonitor::on_packet(self, now, info, info.size);
    }

    fn on_tick(&mut self, now: SimTime) {
        self.end_interval(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_netsim::{FailureScenario, SimConfig, Simulator, TrafficConfig, TrafficGen};
    use db_topology::{zoo, RouteTable};

    fn cfg4() -> WindowConfig {
        WindowConfig::explicit(SimTime::from_ms(4), 4)
    }

    #[test]
    fn unregistered_flow_is_ignored() {
        let mut m = SwitchMonitor::new(NodeId(0), cfg4());
        m.on_packet(SimTime::from_ms(1), FlowId(5), 100);
        let rows = m.end_interval(SimTime::from_ms(4));
        assert!(rows.is_empty());
        assert_eq!(m.monitored_flows(), 0);
    }

    #[test]
    fn features_emerge_after_one_rtt() {
        let mut m = SwitchMonitor::new(NodeId(0), cfg4());
        // RTT 8 ms → n_interval 2.
        m.register_flow(FlowId(1), FlowMeta::new(8.0, 3, vec![LinkId(0)], &cfg4()));
        m.on_packet(SimTime::from_ms(1), FlowId(1), 1500);
        assert!(
            m.end_interval(SimTime::from_ms(4)).is_empty(),
            "one interval only"
        );
        m.on_packet(SimTime::from_ms(5), FlowId(1), 1500);
        let rows = m.end_interval(SimTime::from_ms(8));
        assert_eq!(rows.len(), 1);
        let (flow, f) = rows[0];
        assert_eq!(flow, FlowId(1));
        assert_eq!(f[0], 8.0);
        assert_eq!(f[9], 1.0, "last n_packet");
    }

    #[test]
    fn active_flows_tracks_register_occupancy_through_aging() {
        let cfg = cfg4();
        let mut m = SwitchMonitor::new(NodeId(0), cfg);
        m.register_flow(FlowId(1), FlowMeta::new(8.0, 2, vec![], &cfg)); // n_interval 2
        m.register_flow(FlowId(2), FlowMeta::new(8.0, 2, vec![], &cfg));
        // Registered but never seen: intent without occupancy.
        assert_eq!(m.monitored_flows(), 2);
        assert_eq!(m.active_flows(), 0);
        m.on_packet(SimTime::from_ms(1), FlowId(1), 1000);
        let _ = m.end_interval(SimTime::from_ms(4));
        assert_eq!(m.active_flows(), 1, "only the seen flow holds history");
        // Two consecutive silent intervals fill flow 1's RTT window and age
        // it out — occupancy drops back to zero, registration stays.
        let _ = m.end_interval(SimTime::from_ms(8));
        let _ = m.end_interval(SimTime::from_ms(12));
        assert_eq!(m.active_flows(), 0);
        assert_eq!(m.monitored_flows(), 2);
    }

    #[test]
    fn silent_registered_flow_produces_zero_last_interval_then_ages_out() {
        let cfg = cfg4();
        let mut m = SwitchMonitor::new(NodeId(0), cfg);
        m.register_flow(FlowId(1), FlowMeta::new(8.0, 2, vec![], &cfg)); // n_interval 2
        m.on_packet(SimTime::from_ms(1), FlowId(1), 1000);
        let _ = m.end_interval(SimTime::from_ms(4));
        m.on_packet(SimTime::from_ms(5), FlowId(1), 1000);
        let _ = m.end_interval(SimTime::from_ms(8));
        // First silent interval: features still emitted, last_* = 0 — the
        // failure signature.
        let rows = m.end_interval(SimTime::from_ms(12));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[9], 0.0);
        assert!(rows[0].1[3] > 0.0, "avg still reflects activity");
        // Second consecutive silent interval fills the whole RTT window:
        // the monitor reclaims the flow (aging) and stays silent after.
        assert!(m.end_interval(SimTime::from_ms(16)).is_empty());
        assert!(m.end_interval(SimTime::from_ms(20)).is_empty());
        // A returning packet re-activates monitoring.
        m.on_packet(SimTime::from_ms(21), FlowId(1), 500);
        let _ = m.end_interval(SimTime::from_ms(24));
        let rows = m.end_interval(SimTime::from_ms(28));
        assert_eq!(rows.len(), 1, "flow re-registers after revival");
    }

    #[test]
    fn never_active_flow_is_not_reported() {
        let cfg = cfg4();
        let mut m = SwitchMonitor::new(NodeId(0), cfg);
        m.register_flow(FlowId(1), FlowMeta::new(4.0, 2, vec![], &cfg));
        for i in 1..=5 {
            assert!(m.end_interval(SimTime::from_ms(4 * i)).is_empty());
        }
    }

    #[test]
    fn offsets_are_relative_to_interval_start() {
        let cfg = cfg4();
        let mut m = SwitchMonitor::new(NodeId(0), cfg);
        m.register_flow(FlowId(1), FlowMeta::new(4.0, 2, vec![], &cfg));
        let _ = m.end_interval(SimTime::from_ms(4));
        // Packet at 4.1 ms is 0.1 ms into the second interval → sub 1.
        m.on_packet(SimTime::from_ms_f64(4.1), FlowId(1), 500);
        let rows = m.end_interval(SimTime::from_ms(8));
        assert_eq!(
            rows[0].1[14], 1.0,
            "pos_burst must use interval-relative offset"
        );
    }

    #[test]
    fn deploy_registers_flows_on_whole_path() {
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 1);
        let cfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let nm = NetworkMonitor::deploy(&topo, &flows, cfg);
        // The flow s0 -> s3 must be registered at all four switches.
        let f03 = flows
            .iter()
            .find(|f| f.src == NodeId(0) && f.dst == NodeId(3))
            .unwrap();
        for (pos, node) in f03.path.nodes.iter().enumerate() {
            let up = nm.upstream(*node, f03.id).expect("registered");
            assert_eq!(up.len(), pos, "upstream grows along the path");
        }
        assert!(nm.upstream(NodeId(0), FlowId(9999)).is_none());
    }

    #[test]
    fn trace_replay_drives_identical_downstream_metrics() {
        // Replay determinism, part 2: replaying one recorded trace through
        // two independent NetworkMonitors must produce identical feature
        // rows AND identical telemetry counters — the observability layer
        // may never perturb or diverge from the monitored computation.
        use db_netsim::trace::{replay, TraceRecorder};
        let topo = zoo::line(3);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 3);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let cfg = SimConfig {
            end: SimTime::from_ms(60),
            ..Default::default()
        };
        let mut sim = Simulator::new(
            &topo,
            flows.clone(),
            cfg,
            &FailureScenario::single_link(LinkId(0), SimTime::from_ms(30)),
            3,
            TraceRecorder::new(),
        );
        sim.run();
        let (trace, _) = sim.finish();
        assert!(!trace.is_empty());

        let run = || {
            let reg = db_telemetry::MetricsRegistry::new();
            let mut nm = NetworkMonitor::deploy(&topo, &flows, wcfg);
            nm.set_metrics(&reg);
            replay(&trace, &mut nm);
            (nm.rows, reg.snapshot())
        };
        let (rows_a, snap_a) = run();
        let (rows_b, snap_b) = run();
        assert_eq!(rows_a, rows_b, "replayed feature rows must be identical");
        for name in [
            "flowmon.register_updates",
            "flowmon.intervals_closed",
            "flowmon.feature_vectors",
        ] {
            let a = snap_a.counter(name).unwrap();
            assert_eq!(Some(a), snap_b.counter(name), "{name} diverged");
            assert!(a > 0, "{name} must be exercised by the replay");
        }
        // A metered replay also matches an unmetered one: telemetry is
        // observation only.
        let mut plain = NetworkMonitor::deploy(&topo, &flows, wcfg);
        replay(&trace, &mut plain);
        assert_eq!(plain.rows, rows_a);
    }

    #[test]
    fn live_monitoring_produces_rows() {
        let topo = zoo::line(3);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 2);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let nm = NetworkMonitor::deploy(&topo, &flows, wcfg);
        let cfg = SimConfig {
            end: SimTime::from_ms(60),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows, cfg, &FailureScenario::none(), 2, nm);
        sim.run();
        let (nm, stats) = sim.finish();
        assert!(stats.delivered > 0);
        assert!(!nm.rows.is_empty(), "monitoring must produce feature rows");
        // Rows are tick-aligned.
        for r in &nm.rows {
            assert_eq!(r.at.as_ns() % SimTime::from_ms(4).as_ns(), 0);
        }
        // Multiple switches report.
        let switches: std::collections::HashSet<_> = nm.rows.iter().map(|r| r.switch).collect();
        assert!(switches.len() >= 2);
    }

    #[test]
    fn avg_covers_only_the_last_rtt_of_intervals() {
        let cfg = WindowConfig::explicit(SimTime::from_ms(4), 10);
        let mut m = SwitchMonitor::new(NodeId(0), cfg);
        m.register_flow(FlowId(1), FlowMeta::new(8.0, 2, vec![], &cfg)); // n_interval 2
        let mut rows = Vec::new();
        for (i, packets) in [100u64, 4, 6].into_iter().enumerate() {
            let start = 4 * i as u64;
            for _ in 0..packets {
                m.on_packet(SimTime::from_ms(start + 1), FlowId(1), 100);
            }
            rows = m.end_interval(SimTime::from_ms(start + 4));
        }
        assert_eq!(rows[0].1[3], 5.0, "(4 + 6) / 2: the 100 is outside the RTT");
        assert_eq!(rows[0].1[9], 6.0);
    }

    #[test]
    fn history_is_bounded_by_the_window() {
        let mut m = SwitchMonitor::new(NodeId(0), cfg4());
        m.register_flow(FlowId(1), FlowMeta::new(4.0, 2, vec![], &cfg4()));
        for i in 1..=20u64 {
            m.on_packet(SimTime::from_ms(4 * i - 1), FlowId(1), 100);
            let _ = m.end_interval(SimTime::from_ms(4 * i));
        }
        assert_eq!(m.buffered, [4]);
        assert_eq!(m.ring.len(), 4);
        assert_eq!(m.total_packets, [20]);
    }

    #[test]
    #[should_panic(expected = "MAX_FLOWS")]
    fn oversize_flow_id_is_refused_before_any_allocation() {
        let mut m = SwitchMonitor::new(NodeId(0), cfg4());
        m.register_flow(FlowId(u32::MAX), FlowMeta::new(4.0, 2, vec![], &cfg4()));
    }

    /// The monitor as it was before the columnar layout, kept as the oracle:
    /// a register row per touched flow, a `VecDeque` of closed intervals per
    /// flow, and features re-summed from it in `f64` at every close.
    mod reference {
        use super::*;
        use std::collections::{BTreeMap, VecDeque};

        #[derive(Default)]
        struct FlowHistory {
            intervals: VecDeque<IntervalMeasures>,
            total_packets: u64,
        }

        impl FlowHistory {
            fn push(&mut self, m: IntervalMeasures, cap: usize) {
                self.total_packets += m.n_packet as u64;
                self.intervals.push_back(m);
                while self.intervals.len() > cap {
                    self.intervals.pop_front();
                }
            }

            fn recent_all_empty(&self, n: usize) -> bool {
                self.intervals.len() >= n
                    && self.intervals.iter().rev().take(n).all(|m| m.is_empty())
            }

            fn features(&self, meta: &FlowMeta) -> Option<FeatureVector> {
                if self.intervals.len() < meta.n_interval {
                    return None;
                }
                let last = *self.intervals.back().expect("non-empty history");
                let n = meta.n_interval;
                let mut sums = [0.0f64; 6];
                for m in self.intervals.iter().rev().take(n) {
                    sums[0] += m.n_packet as f64;
                    sums[1] += m.len_all as f64;
                    sums[2] += m.len_max as f64;
                    sums[3] += m.len_last as f64;
                    sums[4] += m.n_burst as f64;
                    sums[5] += m.pos_burst as f64;
                }
                let inv = 1.0 / n as f64;
                Some([
                    meta.rtt_ms,
                    meta.path_len as f64,
                    meta.n_interval as f64,
                    sums[0] * inv,
                    sums[1] * inv,
                    sums[2] * inv,
                    sums[3] * inv,
                    sums[4] * inv,
                    sums[5] * inv,
                    last.n_packet as f64,
                    last.len_all as f64,
                    last.len_max as f64,
                    last.len_last as f64,
                    last.n_burst as f64,
                    last.pos_burst as f64,
                ])
            }
        }

        pub struct RefMonitor {
            node: NodeId,
            cfg: WindowConfig,
            interval_start: SimTime,
            slots: BTreeMap<FlowId, (FlowMeta, FlowHistory)>,
            rows: BTreeMap<FlowId, IntervalMeasures>,
            touched: Vec<FlowId>,
        }

        impl RefMonitor {
            pub fn new(node: NodeId, cfg: WindowConfig) -> Self {
                RefMonitor {
                    node,
                    cfg,
                    interval_start: SimTime::ZERO,
                    slots: BTreeMap::new(),
                    rows: BTreeMap::new(),
                    touched: Vec::new(),
                }
            }

            pub fn register_flow(&mut self, flow: FlowId, meta: FlowMeta) {
                match self.slots.get_mut(&flow) {
                    Some(slot) => slot.0 = meta,
                    None => {
                        self.slots.insert(flow, (meta, FlowHistory::default()));
                    }
                }
            }

            pub fn active_flows(&self) -> usize {
                let seen = |(_, h): &&(FlowMeta, FlowHistory)| h.total_packets > 0;
                self.slots.values().filter(seen).count()
            }

            pub fn on_packet(&mut self, now: SimTime, flow: FlowId, size: u32) -> bool {
                if !self.slots.contains_key(&flow) {
                    return false;
                }
                let row = self.rows.entry(flow).or_default();
                if row.is_empty() {
                    self.touched.push(flow);
                }
                let offset = now.saturating_sub(self.interval_start);
                row.record(offset, self.cfg.interval, size);
                true
            }

            pub fn end_interval(&mut self, now: SimTime) -> Vec<(FlowId, FeatureVector)> {
                let mut drained = std::mem::take(&mut self.rows);
                self.touched.clear();
                let mut out = Vec::new();
                for (&flow, (meta, hist)) in &mut self.slots {
                    hist.push(
                        drained.remove(&flow).unwrap_or_default(),
                        self.cfg.window_intervals,
                    );
                    if hist.total_packets == 0 {
                        continue;
                    }
                    if hist.recent_all_empty(meta.n_interval) {
                        *hist = FlowHistory::default();
                        continue;
                    }
                    if let Some(f) = hist.features(meta) {
                        out.push((flow, f));
                    }
                }
                self.interval_start = now;
                out
            }

            /// The snapshot layout, written from the reference's own state.
            pub fn snapshot_into(&self, w: &mut ByteWriter) {
                w.u16w(self.node.0);
                w.u64(self.interval_start.as_ns());
                w.seq(self.slots.len());
                for (flow, (meta, hist)) in &self.slots {
                    w.u32(flow.0);
                    w.f64(meta.rtt_ms);
                    w.usize(meta.path_len);
                    w.usize(meta.n_interval);
                    w.seq(meta.upstream.len());
                    for l in &meta.upstream {
                        w.u16w(l.0);
                    }
                    w.u64(hist.total_packets);
                    w.seq(hist.intervals.len());
                    for m in &hist.intervals {
                        encode_measures(w, m);
                    }
                }
                w.seq(self.touched.len());
                for flow in &self.touched {
                    w.u32(flow.0);
                    encode_measures(w, &self.rows[flow]);
                }
            }
        }
    }

    fn bits(rows: &[(FlowId, FeatureVector)]) -> Vec<(FlowId, [u64; 15])> {
        rows.iter()
            .map(|(f, x)| (*f, x.map(f64::to_bits)))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// The columnar monitor against the reference over random
        /// interleavings of packets, closes, registrations in any id order
        /// (also after traffic started, also of a registered id with another
        /// RTT), silences long enough to age flows out, revivals, and a
        /// snapshot → restore hop: rows bit-equal, occupancy equal, snapshot
        /// bytes equal.
        #[test]
        fn columnar_monitor_matches_the_history_model(seed in 0u64..1 << 32) {
            use proptest::prop_assert_eq;
            let mut rng = db_util::Pcg64::new(seed);
            let window = 1 + rng.index(6);
            let cfg = WindowConfig::explicit(SimTime::from_ms(4), window);
            let mut new = SwitchMonitor::new(NodeId(3), cfg);
            let mut old = reference::RefMonitor::new(NodeId(3), cfg);
            let mut now = SimTime::ZERO;
            let mut next_tick = SimTime::from_ms(4);
            // Loud and quiet stretches, so flows age out and come back.
            let mut loud = true;
            for _ in 0..400 {
                match rng.index(if loud { 12 } else { 4 }) {
                    0 => {
                        let flow = FlowId(rng.below(14) as u32);
                        let upstream = (0..rng.index(4)).map(|l| LinkId(l as u16)).collect();
                        let meta = FlowMeta::new(rng.range_f64(0.5, 30.0), 1 + rng.index(5), upstream, &cfg);
                        new.register_flow(flow, meta.clone());
                        old.register_flow(flow, meta);
                    }
                    1 | 2 => {
                        now = next_tick;
                        next_tick = now + SimTime::from_ms(4);
                        let rows = new.close_window(now).to_vec();
                        prop_assert_eq!(bits(&rows), bits(&old.end_interval(now)));
                        prop_assert_eq!(new.active_flows(), old.active_flows());
                        let upstream: Vec<_> = new.staged_upstream().collect();
                        for ((flow, _), up) in rows.iter().zip(upstream) {
                            prop_assert_eq!(up, new.flow_meta(*flow).unwrap().upstream.as_slice());
                        }
                        // What the training rows keep reassembles each row.
                        let reassembled: Vec<_> = new
                            .staged_registers()
                            .map(|(slot, sums, last)| {
                                (new.flows[slot], window::assemble(&new.meta[slot], sums, &last))
                            })
                            .collect();
                        prop_assert_eq!(bits(&reassembled), bits(&rows));
                        if rng.index(8) == 0 {
                            loud = !loud;
                        }
                    }
                    3 => {
                        let (mut a, mut b) = (ByteWriter::new(), ByteWriter::new());
                        new.snapshot_into(&mut a);
                        old.snapshot_into(&mut b);
                        let bytes = a.into_bytes();
                        prop_assert_eq!(&bytes, &b.into_bytes());
                        let mut r = ByteReader::new(&bytes);
                        new = SwitchMonitor::restore_from(&mut r, cfg).expect("own snapshot");
                        prop_assert_eq!(r.remaining(), 0);
                    }
                    _ => {
                        let room = next_tick.saturating_sub(now).as_ns();
                        now += SimTime::from_ns(rng.below(room));
                        let (flow, size) = (FlowId(rng.below(16) as u32), 40 + rng.below(1460) as u32);
                        prop_assert_eq!(new.on_packet(now, flow, size), old.on_packet(now, flow, size));
                    }
                }
            }
        }
    }
}
