//! Per-switch and network-wide monitors.
//!
//! A [`SwitchMonitor`] owns the data-plane measure store for one switch plus
//! the per-flow interval history and static metadata; at every sampling tick
//! it produces one Table-2 feature vector per monitored-and-active flow. A
//! [`NetworkMonitor`] is the full deployment: one monitor per switch, with
//! every flow registered at every switch on its path.

use crate::measures::IntervalMeasures;
use crate::registers::{ExactStore, MeasureStore};
use crate::window::{FeatureVector, FlowHistory, FlowMeta, WindowConfig};
use db_netsim::{Annotation, FlowId, FlowSpec, HopInfo, Observer, SimTime};
use db_topology::{LinkId, NodeId, Topology};
use db_util::wire::{ByteReader, ByteWriter, WireError};

/// Per-flow monitoring state: static metadata plus the interval history.
#[derive(Debug)]
struct FlowSlot {
    meta: FlowMeta,
    history: FlowHistory,
}

/// Monitoring state of one switch.
///
/// Flow ids are dense small integers (the traffic generator hands them out
/// sequentially), so per-flow state lives in a `Vec` indexed by `FlowId` —
/// the per-packet membership check and register update are two array loads,
/// no hashing. `registered` keeps the monitored ids sorted for the
/// deterministic interval-end sweep.
#[derive(Debug)]
pub struct SwitchMonitor<S: MeasureStore = ExactStore> {
    node: NodeId,
    cfg: WindowConfig,
    store: S,
    /// Indexed by `FlowId.0`; `None` for unmonitored ids.
    slots: Vec<Option<FlowSlot>>,
    /// Monitored flow ids, ascending.
    registered: Vec<FlowId>,
    interval_start: SimTime,
    /// Reusable window-close staging buffer: rows are assembled here and
    /// borrowed out by [`Self::close_window`], so a long-lived monitor stops
    /// allocating once the buffer has grown to its working size.
    row_buf: Vec<(FlowId, FeatureVector)>,
}

impl SwitchMonitor<ExactStore> {
    /// Create a monitor with the default (collision-free) store.
    pub fn new(node: NodeId, cfg: WindowConfig) -> Self {
        Self::with_store(node, cfg, ExactStore::new())
    }
}

impl<S: MeasureStore> SwitchMonitor<S> {
    /// Create a monitor around an explicit store implementation.
    pub fn with_store(node: NodeId, cfg: WindowConfig, store: S) -> Self {
        SwitchMonitor {
            node,
            cfg,
            store,
            slots: Vec::new(),
            registered: Vec::new(),
            interval_start: SimTime::ZERO,
            row_buf: Vec::new(),
        }
    }

    /// The switch this monitor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Register a flow passing through this switch. Re-registering replaces
    /// the metadata but keeps any accumulated history.
    pub fn register_flow(&mut self, flow: FlowId, meta: FlowMeta) {
        let idx = flow.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        match &mut self.slots[idx] {
            Some(slot) => slot.meta = meta,
            empty @ None => {
                *empty = Some(FlowSlot {
                    meta,
                    history: FlowHistory::default(),
                });
                let at = self.registered.partition_point(|&f| f < flow);
                self.registered.insert(at, flow);
            }
        }
    }

    /// Number of flows registered.
    pub fn monitored_flows(&self) -> usize {
        self.registered.len()
    }

    /// Number of flows currently occupying live register history: registered
    /// flows that have been seen here and not yet aged out. This is the
    /// hardware register-occupancy view — `monitored_flows()` counts the
    /// operator's intent, `active_flows()` counts what the switch is actually
    /// holding state for.
    pub fn active_flows(&self) -> usize {
        self.registered
            .iter()
            .filter(|f| {
                self.slots[f.0 as usize]
                    .as_ref()
                    .is_some_and(|s| s.history.total_packets > 0)
            })
            .count()
    }

    /// Static metadata of a monitored flow.
    pub fn flow_meta(&self, flow: FlowId) -> Option<&FlowMeta> {
        self.slots
            .get(flow.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|s| &s.meta)
    }

    /// Record a packet of a monitored flow; unmonitored flows are ignored
    /// (transit traffic the operator chose not to track). Returns whether
    /// the packet hit a register (used for telemetry accounting).
    pub fn on_packet(&mut self, now: SimTime, flow: FlowId, size: u32) -> bool {
        match self.slots.get(flow.0 as usize) {
            Some(Some(_)) => {}
            _ => return false,
        }
        let offset = now.saturating_sub(self.interval_start);
        self.store.record(flow, offset, self.cfg.interval, size);
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
    pub fn close_window(&mut self, now: SimTime) -> &[(FlowId, FeatureVector)] {
        // `drain` yields ascending flow ids and `registered` is kept sorted,
        // so a two-pointer sweep aligns measures with flows directly — no
        // intermediate map, no re-sort.
        let drained = self.store.drain();
        let cap = self.cfg.window_intervals;
        self.row_buf.clear();
        let mut di = 0;
        for &flow in &self.registered {
            while di < drained.len() && drained[di].0 < flow {
                di += 1; // measures of a since-deregistered flow: impossible
                         // today (registration is permanent), skipped if ever
            }
            let m = if di < drained.len() && drained[di].0 == flow {
                let m = drained[di].1;
                di += 1;
                m
            } else {
                Default::default()
            };
            let slot = self.slots[flow.0 as usize]
                .as_mut()
                .expect("registered flow has a slot");
            let hist = &mut slot.history;
            hist.push(m, cap);
            if hist.total_packets == 0 {
                continue; // never seen here — nothing to judge
            }
            let meta = &slot.meta;
            if hist.len() >= meta.n_interval && hist.recent_all_empty(meta.n_interval) {
                hist.reset();
                continue;
            }
            if let Some(f) = hist.features(meta) {
                self.row_buf.push((flow, f));
            }
        }
        self.interval_start = now;
        &self.row_buf
    }

    /// The rows assembled by the most recent [`Self::close_window`] /
    /// [`Self::end_interval`], valid until the next close.
    pub fn staged_rows(&self) -> &[(FlowId, FeatureVector)] {
        &self.row_buf
    }
}

impl SwitchMonitor<ExactStore> {
    /// Serialize the complete monitoring state — registrations, metadata,
    /// interval histories, and the **mid-interval** register contents — so a
    /// streaming engine can checkpoint between any two packets. Field order
    /// is fixed; [`Self::restore_from`] is the inverse and a restored
    /// monitor continues bit-identically (pinned by the engine equivalence
    /// proptest in db-core).
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        w.u16w(self.node.0);
        w.u64(self.interval_start.as_ns());
        w.seq(self.registered.len());
        for &flow in &self.registered {
            let slot = self.slots[flow.0 as usize]
                .as_ref()
                .expect("registered flow has a slot");
            w.u32(flow.0);
            w.f64(slot.meta.rtt_ms);
            w.usize(slot.meta.path_len);
            w.usize(slot.meta.n_interval);
            w.seq(slot.meta.upstream.len());
            for l in &slot.meta.upstream {
                w.u16w(l.0);
            }
            w.u64(slot.history.total_packets);
            w.seq(slot.history.len());
            for m in slot.history.buffered() {
                encode_measures(w, m);
            }
        }
        let (rows, touched) = self.store.parts();
        // Register rows are encoded sparsely: only the touched ones are
        // non-empty mid-interval, in arrival order (drain sorts at close).
        w.seq(touched.len());
        for &flow in touched {
            w.u32(flow.0);
            encode_measures(w, &rows[flow.0 as usize]);
        }
    }

    /// Inverse of [`Self::snapshot_into`]. `cfg` is the network-wide window
    /// configuration the snapshot was taken under (it is part of the
    /// engine-level config fingerprint, not repeated per switch).
    pub fn restore_from(r: &mut ByteReader, cfg: WindowConfig) -> Result<Self, WireError> {
        let node = NodeId(r.u16w()?);
        let mut mon = SwitchMonitor::new(node, cfg);
        mon.interval_start = SimTime::from_ns(r.u64()?);
        let n_flows = r.seq()?;
        for _ in 0..n_flows {
            let flow = FlowId(r.u32()?);
            let rtt_ms = r.f64()?;
            let path_len = r.usize()?;
            let n_interval = r.usize()?;
            let n_up = r.seq()?;
            let mut upstream = Vec::with_capacity(n_up);
            for _ in 0..n_up {
                upstream.push(LinkId(r.u16w()?));
            }
            let total_packets = r.u64()?;
            let n_hist = r.seq()?;
            let mut intervals = Vec::with_capacity(n_hist);
            for _ in 0..n_hist {
                intervals.push(decode_measures(r)?);
            }
            let meta = FlowMeta {
                rtt_ms,
                path_len,
                n_interval,
                upstream,
            };
            mon.register_flow(flow, meta);
            let slot = mon.slots[flow.0 as usize]
                .as_mut()
                .expect("just registered");
            slot.history = FlowHistory::from_parts(intervals, total_packets);
        }
        let n_touched = r.seq()?;
        let mut rows: Vec<IntervalMeasures> = Vec::new();
        let mut touched = Vec::with_capacity(n_touched);
        for _ in 0..n_touched {
            let flow = FlowId(r.u32()?);
            let m = decode_measures(r)?;
            let idx = flow.0 as usize;
            if idx >= rows.len() {
                rows.resize_with(idx + 1, Default::default);
            }
            rows[idx] = m;
            touched.push(flow);
        }
        mon.store = ExactStore::from_parts(rows, touched);
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

/// The full network deployment: one [`SwitchMonitor`] per switch.
#[derive(Debug)]
pub struct NetworkMonitor {
    monitors: Vec<SwitchMonitor>,
    cfg: WindowConfig,
    /// Rows collected at every tick (drained by callers or kept for dataset
    /// building).
    pub rows: Vec<MonitorRow>,
    /// Telemetry handles; `None` (the default) records nothing.
    metrics: Option<crate::metrics::FlowmonMetrics>,
}

impl NetworkMonitor {
    /// Deploy monitors on every switch, registering each flow at every
    /// switch of its path with the correct upstream-link metadata.
    pub fn deploy(topo: &Topology, flows: &[FlowSpec], cfg: WindowConfig) -> Self {
        let mut monitors: Vec<SwitchMonitor> =
            topo.nodes().map(|n| SwitchMonitor::new(n, cfg)).collect();
        for f in flows {
            for (pos, &node) in f.path.nodes.iter().enumerate() {
                let upstream: Vec<LinkId> = f.path.links[..pos].to_vec();
                let meta = FlowMeta::new(f.rtt_ms, f.path.len(), upstream, &cfg);
                monitors[node.idx()].register_flow(f.id, meta);
            }
        }
        NetworkMonitor {
            monitors,
            cfg,
            rows: Vec::new(),
            metrics: None,
        }
    }

    /// Attach telemetry handles (register updates, intervals, feature
    /// vectors). Never affects what the monitors compute.
    pub fn set_metrics(&mut self, reg: &db_telemetry::MetricsRegistry) {
        self.metrics = Some(crate::metrics::FlowmonMetrics::register(reg));
    }

    /// The monitoring configuration.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// The monitor deployed on `node`.
    pub fn switch(&self, node: NodeId) -> &SwitchMonitor {
        &self.monitors[node.idx()]
    }

    /// Mutable access to the monitor on `node`.
    pub fn switch_mut(&mut self, node: NodeId) -> &mut SwitchMonitor {
        &mut self.monitors[node.idx()]
    }

    /// Upstream links of `flow` w.r.t. `switch`, if monitored there.
    pub fn upstream(&self, switch: NodeId, flow: FlowId) -> Option<&[LinkId]> {
        self.monitors[switch.idx()]
            .flow_meta(flow)
            .map(|m| m.upstream.as_slice())
    }

    /// Record a packet observation.
    // db-lint: allow(hot-index) — monitors is sized by node count at setup; HopInfo nodes come from the same topology
    pub fn on_packet(&mut self, now: SimTime, info: &HopInfo, size: u32) {
        let recorded = self.monitors[info.node.idx()].on_packet(now, info.flow, size);
        if recorded {
            if let Some(m) = &self.metrics {
                m.register_updates.inc();
            }
        }
    }

    /// Close the interval on every switch, appending the produced rows.
    pub fn end_interval(&mut self, now: SimTime) {
        let mut emitted = 0u64;
        for m in &mut self.monitors {
            let node = m.node();
            for &(flow, features) in m.close_window(now) {
                self.rows.push(MonitorRow {
                    switch: node,
                    flow,
                    at: now,
                    features,
                });
                emitted += 1;
            }
        }
        if let Some(met) = &self.metrics {
            met.intervals_closed.add(self.monitors.len() as u64);
            met.feature_vectors.add(emitted);
        }
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
}
