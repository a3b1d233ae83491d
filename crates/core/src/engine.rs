//! The incremental Drift-Bottle engine — the streaming face of
//! [`DriftBottleSystem`].
//!
//! The batch pipeline ([`crate::experiment::run_scenario`]) owns the whole
//! simulate → monitor → classify → infer loop: the simulator drives the
//! deployed system as an [`Observer`] and annotations ride inside simulated
//! packets. A long-lived service has neither a simulator nor packets — it
//! receives switch-level flow records over the wire, in time order, and must
//! produce the same warnings the batch pipeline would.
//!
//! [`Engine`] closes that gap:
//!
//! * [`Engine::ingest`] accepts one [`FlowRecord`] (≈ one pcap line: a
//!   packet observed at one switch) and returns every warning it caused.
//!   Sampling-interval ticks fire *inside* ingest, interleaved exactly as
//!   the event loop would: a tick at time `t` runs before any record with
//!   `at ≥ t` (the simulator reserves low sequence numbers for ticks, so at
//!   equal timestamps the tick pops first).
//! * In-packet inference headers have no packet to ride in, so the engine
//!   parks them between hops in a flat hashed table keyed by `(flow, seq)`
//!   (`CarrierTable`) — the streaming analogue of the wire annotation, with
//!   the same ingress-empty / last-switch-strip life cycle. Healthy flows
//!   vote too (−1 on every link of a normal path), so nearly every record
//!   reads one carrier and writes the next into the same slot, found by
//!   one probe: the table is on the per-record path in both phases of a
//!   trace, not only after a failure.
//!   [`Engine::set_retention`] bounds its memory for lossy feeds by one
//!   sweep per tick (a record whose carrier was evicted degrades to an
//!   ingress-like empty header, never an error).
//! * [`Engine::snapshot`] / [`Engine::restore`] serialize the complete
//!   mutable state (via the same `db-util` wire codec the db-runner
//!   checkpoints use), guarded by a configuration fingerprint, so a daemon
//!   restarts mid-window without losing localization context.
//!
//! The batch path is reimplemented *on top of* this engine (the engine is
//! the observer `run_scenario` hands to the simulator), so batch and
//! streaming share one pipeline and the equivalence proptest in
//! `crates/core/tests/streaming.rs` pins them bit-identical.

use crate::carrier::CarrierTable;
use crate::system::{DriftBottleSystem, Warning};
use db_dtree::FlowClassifier;
use db_netsim::packet::MAX_ANNOTATION_BYTES;
use db_netsim::{Annotation, FlowSpec, HopInfo, Observation, Observer, SimTime};
use db_telemetry::flight::FlightRecorder;
use db_telemetry::scope::ScopeRecorder;
use db_topology::LinkId;
use db_util::wire::{ByteReader, ByteWriter, WireError};
use std::fmt;
use std::sync::Arc;

/// One switch-level packet observation fed to [`Engine::ingest`] — the
/// streaming equivalent of a recorded [`Observation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// When the packet was observed.
    pub at: SimTime,
    /// Everything about the packet at that hop.
    pub info: HopInfo,
}

impl From<Observation> for FlowRecord {
    fn from(o: Observation) -> Self {
        FlowRecord {
            at: o.at,
            info: o.info,
        }
    }
}

/// Why [`Engine::restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The snapshot was taken under a different deployment configuration
    /// (topology extent, window/system parameters, or variant roster).
    ConfigMismatch {
        /// Fingerprint of this engine's configuration.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The snapshot bytes are malformed.
    Wire(WireError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match deployment {expected:#018x}"
            ),
            RestoreError::Wire(e) => write!(f, "malformed snapshot: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<WireError> for RestoreError {
    fn from(e: WireError) -> Self {
        RestoreError::Wire(e)
    }
}

/// Snapshot format version, bumped on any layout change.
const SNAPSHOT_VERSION: u8 = 1;

/// Where the tick clock saturates; a tick due "then" never fires.
const END_OF_TIME: SimTime = SimTime::from_ns(u64::MAX);

/// The incremental engine: a deployed system plus the clock, tick source,
/// and header carrier table the simulator provides in batch mode.
pub struct Engine<C: FlowClassifier> {
    system: DriftBottleSystem<C>,
    /// Sampling-interval length; ticks fire at `interval, 2·interval, …`.
    interval: SimTime,
    /// Latest time observed (record, tick, or advance target).
    now: SimTime,
    /// Time the next pending tick fires at.
    next_tick: SimTime,
    /// Ticks fired so far.
    ticks_fired: u32,
    /// In-flight inference carriers: `(flow, seq)` → (annotation, last
    /// touch). Snapshots encode it in key order.
    carriers: CarrierTable<(Annotation, SimTime)>,
    /// Carrier retention in sampling windows; `None` keeps carriers until
    /// their last switch strips them (batch semantics, unbounded on lossy
    /// feeds).
    retention: Option<u32>,
    fingerprint: u64,
}

impl<C: FlowClassifier> Engine<C> {
    /// Wrap a deployed system. The tick cadence comes from the system's
    /// window configuration; the first tick fires at one interval, exactly
    /// as the simulator arms it.
    pub fn new(system: DriftBottleSystem<C>) -> Self {
        let interval = system.window_config().interval;
        let fingerprint = system.config_fingerprint();
        Engine {
            system,
            interval,
            now: SimTime::ZERO,
            next_tick: interval,
            ticks_fired: 0,
            carriers: CarrierTable::new(),
            retention: None,
            fingerprint,
        }
    }

    /// A second engine in exactly this one's state, over a
    /// [`DriftBottleSystem::fork`] of its system.
    pub fn fork(&self) -> Self
    where
        C: Clone,
    {
        Engine {
            system: self.system.fork(),
            interval: self.interval,
            now: self.now,
            next_tick: self.next_tick,
            ticks_fired: self.ticks_fired,
            carriers: self.carriers.clone(),
            retention: self.retention,
            fingerprint: self.fingerprint,
        }
    }

    /// Bound carrier memory: a carrier untouched for `windows` sampling
    /// intervals is dropped at the next tick. Records whose carrier was
    /// evicted are treated as ingress (empty incoming header) — monitoring
    /// and local inference are unaffected, only drift continuity is cut.
    /// `0` is clamped to 1 so a carrier always survives the window it was
    /// written in.
    pub fn set_retention(&mut self, windows: u32) {
        self.retention = Some(windows.max(1));
    }

    /// Turn on live warning collection (see
    /// [`DriftBottleSystem::set_live_warnings`]); [`Self::ingest`] and
    /// [`Self::advance_to`] return raises only after this is called.
    pub fn set_live_warnings(&mut self) {
        self.system.set_live_warnings();
    }

    /// Register a flow definition at every switch on its path — the
    /// streaming analogue of deploy-time registration.
    pub fn register_flow(&mut self, f: &FlowSpec) {
        self.system.register_flow(f);
    }

    /// [`DriftBottleSystem::set_flight`]: streaming ingest then produces
    /// the same flight records batch replay would.
    pub fn set_flight(
        &mut self,
        rec: Arc<FlightRecorder>,
        ground_truth: &[LinkId],
        total_links: usize,
    ) -> bool {
        self.system.set_flight(rec, ground_truth, total_links)
    }

    /// [`DriftBottleSystem::set_scope`]: streaming ingest then feeds the
    /// same per-window health series batch replay would.
    pub fn set_scope(&mut self, rec: Arc<ScopeRecorder>) -> bool {
        self.system.set_scope(rec)
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.system.tap.flight()
    }

    /// The attached scope recorder, if any.
    pub fn scope(&self) -> Option<&Arc<ScopeRecorder>> {
        self.system.tap.scope()
    }

    /// The wrapped system (results, logs, telemetry attachment).
    pub fn system(&self) -> &DriftBottleSystem<C> {
        &self.system
    }

    /// Consume the engine, yielding the system for batch result extraction.
    pub fn into_system(self) -> DriftBottleSystem<C> {
        self.system
    }

    /// The configuration fingerprint guarding [`Self::restore`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Latest time the engine has seen.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ticks fired so far (= closed sampling windows).
    pub fn ticks_fired(&self) -> u32 {
        self.ticks_fired
    }

    /// In-flight carrier count (inference headers awaiting their next hop).
    pub fn carriers_in_flight(&self) -> usize {
        self.carriers.len()
    }

    fn fire_tick(&mut self) {
        let t = self.next_tick;
        self.system.on_tick(t);
        self.ticks_fired += 1;
        self.now = t;
        self.next_tick = t.saturating_add(self.interval);
        if let Some(windows) = self.retention {
            let horizon = self.interval.as_ns().saturating_mul(u64::from(windows));
            let cutoff = t.saturating_sub(SimTime::from_ns(horizon));
            self.carriers.sweep(|&(_, last)| last >= cutoff);
        }
    }

    /// Fire every sampling tick due at or before `t`. The tick clock
    /// saturates at the end of time and a saturated tick never fires, so
    /// the loop ends for every `t`; how *many* windows one call may close
    /// is the caller's policy (the daemon bounds it per frame).
    fn fire_due(&mut self, t: SimTime) {
        while self.next_tick <= t && self.next_tick < END_OF_TIME {
            self.fire_tick();
        }
    }

    /// Ingest one flow record, firing any sampling ticks due at or before
    /// it, and return the warnings raised (empty unless
    /// [`Self::set_live_warnings`] is on).
    ///
    /// Records must arrive in non-decreasing time order per the feeding
    /// switch stream; a record older than an already-fired tick is still
    /// processed (its measures land in the current window, exactly as a
    /// late packet would in a real switch).
    pub fn ingest(&mut self, rec: &FlowRecord) -> Vec<Warning> {
        self.fire_due(rec.at);
        // Every mid-path record reads the header its upstream switch parked
        // (healthy flows vote too, so there almost always is one). A fresh
        // packet enters empty, and its write then only replaces a stale
        // carrier under the same key (seq reuse across a very old flow
        // restart).
        let slot = self.carriers.slot(rec.info.flow.0, rec.info.seq);
        let mut ann = match slot.get() {
            Some(&(ann, _)) if !rec.info.is_ingress => ann,
            _ => Annotation::empty(),
        };
        self.system.on_packet(rec.at, &rec.info, &mut ann);
        if rec.at > self.now {
            self.now = rec.at;
        }
        // An absent carrier and an empty annotation mean the same thing to
        // the pipeline, so empty annotations are never parked; the last
        // switch frees the slot.
        let park = !rec.info.is_last_switch && !ann.is_empty();
        slot.set(park.then_some((ann, rec.at)));
        self.system.drain_warnings()
    }

    /// Advance the clock to `t`, firing every sampling tick due at or
    /// before it, and return the warnings raised (centralized DCA reports
    /// fire on ticks). Idle streams call this to keep windows closing.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<Warning> {
        self.fire_due(t);
        if t > self.now {
            self.now = t;
        }
        self.system.drain_warnings()
    }

    /// Serialize the complete engine state: clock, tick counter, carrier
    /// table, and the full system state, prefixed with a version byte and
    /// the configuration fingerprint.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(SNAPSHOT_VERSION);
        w.u64(self.fingerprint);
        w.u64(self.now.as_ns());
        w.u64(self.next_tick.as_ns());
        w.u32(self.ticks_fired);
        w.seq(self.carriers.len());
        for ((flow, seq), (ann, last)) in self.carriers.sorted() {
            w.u32(flow);
            w.u64(seq);
            w.u64(last.as_ns());
            let bytes = ann.as_slice();
            w.seq(bytes.len());
            for &b in bytes {
                w.u8(b);
            }
        }
        self.system.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// Restore state from [`Self::snapshot`] bytes, onto an identically
    /// deployed engine. The configuration fingerprint is checked first,
    /// everything is decoded before anything is committed, and no input
    /// panics: on `Err` the engine is exactly as it was (the daemon then
    /// serves it as the fresh engine it still is).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(RestoreError::Wire(WireError::Overflow {
                at: 0,
                value: version as u64,
            }));
        }
        let found = r.u64()?;
        if found != self.fingerprint {
            return Err(RestoreError::ConfigMismatch {
                expected: self.fingerprint,
                found,
            });
        }
        let now = SimTime::from_ns(r.u64()?);
        let next_tick = SimTime::from_ns(r.u64()?);
        let ticks_fired = r.u32()?;
        let mut carriers = CarrierTable::new();
        for _ in 0..r.seq()? {
            let flow = r.u32()?;
            let seq = r.u64()?;
            let last = SimTime::from_ns(r.u64()?);
            let at = r.offset();
            let n = r.seq()?;
            if n > MAX_ANNOTATION_BYTES {
                return Err(RestoreError::Wire(WireError::Overflow {
                    at,
                    value: n as u64,
                }));
            }
            let ann = Annotation::from_bytes(r.bytes(n)?);
            carriers.slot(flow, seq).set(Some((ann, last)));
        }
        // The system state is the tail of the snapshot: this consumes the
        // reader and commits only if the input ends cleanly.
        self.system.restore_from(r)?;
        self.now = now;
        self.next_tick = next_tick;
        self.ticks_fired = ticks_fired;
        self.carriers = carriers;
        Ok(())
    }
}

/// Batch mode: the engine is the observer `run_scenario` hands to the
/// simulator. Packets carry their own annotations there, so the carrier
/// table stays empty; ticks are driven by the event loop, and the engine
/// only keeps its clock bookkeeping in sync so a snapshot taken after a
/// batch run is well-formed.
impl<C: FlowClassifier> Observer for Engine<C> {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, ann: &mut Annotation) {
        self.system.on_packet(now, info, ann);
        if now > self.now {
            self.now = now;
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        self.system.on_tick(now);
        self.ticks_fired += 1;
        if now > self.now {
            self.now = now;
        }
        self.next_tick = now.saturating_add(self.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, VariantSpec};
    use db_dtree::ThresholdClassifier;
    use db_flowmon::WindowConfig;
    use db_netsim::{
        FailureScenario, SimConfig, Simulator, TraceRecorder, TrafficConfig, TrafficGen,
    };
    use db_topology::{zoo, RouteTable};

    fn line_setup() -> (
        db_topology::Topology,
        Vec<db_netsim::FlowSpec>,
        WindowConfig,
        (SimTime, SimTime),
        SystemConfig,
    ) {
        let topo = zoo::line_with_latency(5, 3.0);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 7);
        let interval = SimTime::from_ms(4);
        let wcfg = WindowConfig::for_network(&routes, interval);
        let t_fail = SimTime::from_ms(80);
        let window = (t_fail, t_fail + wcfg.window_len() + SimTime::from_ms(20));
        let cfg = SystemConfig {
            warning: db_inference::WarningConfig {
                hop_min: 2,
                alpha: 1.0,
                beta: 1.6,
            },
            ..Default::default()
        };
        (topo, flows, wcfg, window, cfg)
    }

    fn deploy(
        topo: &db_topology::Topology,
        flows: &[db_netsim::FlowSpec],
        wcfg: WindowConfig,
        window: (SimTime, SimTime),
        cfg: SystemConfig,
    ) -> DriftBottleSystem<ThresholdClassifier> {
        DriftBottleSystem::deploy(
            topo,
            flows,
            wcfg,
            ThresholdClassifier::default(),
            vec![VariantSpec::drift_bottle()],
            cfg,
            window,
        )
    }

    /// Record a trace and the batch-run system for the same seed.
    fn trace_and_batch() -> (TraceRecorder, DriftBottleSystem<ThresholdClassifier>) {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let scenario = FailureScenario::single_link(db_topology::LinkId(2), window.0);
        let sim_cfg = SimConfig {
            end: window.1 + SimTime::from_ms(8),
            tick_interval: wcfg.interval,
            ..Default::default()
        };
        let mut sim = Simulator::new(
            &topo,
            flows.clone(),
            sim_cfg.clone(),
            &scenario,
            7,
            TraceRecorder::new(),
        );
        sim.run();
        let (trace, _) = sim.finish();

        let system = deploy(&topo, &flows, wcfg, window, cfg);
        let mut sim = Simulator::new(&topo, flows, sim_cfg, &scenario, 7, system);
        sim.run();
        (trace, sim.finish().0)
    }

    #[test]
    fn streaming_ingest_matches_batch_log() {
        let (trace, batch) = trace_and_batch();
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut engine = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        engine.set_live_warnings();
        let mut live_raises = 0u64;
        for o in &trace.observations {
            live_raises += engine.ingest(&FlowRecord::from(*o)).len() as u64;
        }
        let end = window.1 + SimTime::from_ms(8);
        live_raises += engine.advance_to(end).len() as u64;
        let stream_log = engine.system().log("Drift-Bottle").unwrap();
        let batch_log = batch.log("Drift-Bottle").unwrap();
        assert_eq!(stream_log.raises, batch_log.raises);
        assert_eq!(stream_log.by_pair, batch_log.by_pair);
        assert_eq!(stream_log.reported_links, batch_log.reported_links);
        assert_eq!(live_raises, stream_log.raises, "every raise surfaced live");
        // Carriers of packets the failure dropped mid-path never meet their
        // last switch; without retention they linger — that's what
        // `set_retention` is for in a long-lived daemon.
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let (trace, _) = trace_and_batch();
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut a = Engine::new(deploy(&topo, &flows, wcfg, window, cfg.clone()));
        a.set_live_warnings();
        let split = trace.observations.len() / 2;
        for o in &trace.observations[..split] {
            a.ingest(&FlowRecord::from(*o));
        }
        let snap = a.snapshot();

        let mut b = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        b.set_live_warnings();
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot(), snap, "restore is lossless");

        for o in &trace.observations[split..] {
            let wa = a.ingest(&FlowRecord::from(*o));
            let wb = b.ingest(&FlowRecord::from(*o));
            assert_eq!(wa, wb);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn restore_rejects_other_configs() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let a = Engine::new(deploy(&topo, &flows, wcfg, window, cfg.clone()));
        let snap = a.snapshot();
        let mut other_cfg = cfg;
        other_cfg.warning.beta += 0.5;
        let mut b = Engine::new(deploy(&topo, &flows, wcfg, window, other_cfg));
        match b.restore(&snap) {
            Err(RestoreError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_truncated_bytes() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        let snap = e.snapshot();
        match e.restore(&snap[..snap.len() - 3]) {
            Err(RestoreError::Wire(_)) => {}
            other => panic!("expected Wire error, got {other:?}"),
        }
    }

    /// A record at `at` that parks a carrier for a hop that never comes.
    fn orphan_record(f: &db_netsim::FlowSpec, seq: u64, at: SimTime) -> FlowRecord {
        FlowRecord {
            at,
            info: HopInfo {
                flow: f.id,
                src: f.path.nodes[0],
                dst: *f.path.nodes.last().unwrap(),
                seq,
                size: 500,
                node: f.path.nodes[0],
                hop_index: 0,
                is_ingress: true,
                is_last_switch: false,
            },
        }
    }

    /// Out-of-order feed: a carrier stamped *older* than one parked before
    /// it goes at the first tick past its own horizon. (The age queue let it
    /// hide behind the newer head until that one expired too.)
    #[test]
    fn late_stamped_carrier_is_evicted_at_its_own_horizon() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        e.set_retention(2); // horizon 8 ms
        let f = &flows[0];
        e.ingest(&orphan_record(f, 1, SimTime::from_ms(9)));
        e.ingest(&orphan_record(f, 2, SimTime::from_ms(1))); // late stamp
        assert_eq!(e.carriers_in_flight(), 2);
        // Tick at 12 ms: cutoff 4 ms drops the one stamped 1 ms, only.
        e.advance_to(SimTime::from_ms(12));
        assert_eq!(e.carriers_in_flight(), 1);
        // Tick at 20 ms: cutoff 12 ms drops the one stamped 9 ms.
        e.advance_to(SimTime::from_ms(19));
        assert_eq!(e.carriers_in_flight(), 1);
        e.advance_to(SimTime::from_ms(20));
        assert_eq!(e.carriers_in_flight(), 0);
    }

    /// The tick clock saturates instead of wrapping: an engine whose clock
    /// sits one interval short of `u64::MAX` closes its last window and
    /// then has no tick left to fire, whatever it is asked to advance to.
    #[test]
    fn tick_clock_saturates_at_the_end_of_time() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        // Snapshot layout: version u8, fingerprint u64, now u64, next tick u64.
        let mut snap = e.snapshot();
        let last_tick = u64::MAX - wcfg.interval.as_ns() / 2;
        snap[9..17].copy_from_slice(&(last_tick - 1).to_be_bytes());
        snap[17..25].copy_from_slice(&last_tick.to_be_bytes());
        e.restore(&snap).unwrap();
        e.advance_to(SimTime::from_ns(u64::MAX));
        assert_eq!(e.ticks_fired(), 1);
        assert_eq!(e.now(), SimTime::from_ns(u64::MAX));
        e.ingest(&orphan_record(&flows[0], 1, SimTime::from_ns(u64::MAX)));
        assert_eq!(e.ticks_fired(), 1, "a saturated tick never fires");
    }

    #[test]
    fn retention_evicts_stale_carriers() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        e.set_retention(2);
        // A mid-path record with no prior carrier: treated as ingress-like,
        // stored for the (never-arriving) next hop.
        e.ingest(&orphan_record(&flows[0], 1, SimTime::from_ms(1)));
        assert_eq!(e.carriers_in_flight(), 1);
        // Two windows later the carrier is gone.
        e.advance_to(SimTime::from_ms(20));
        assert_eq!(e.carriers_in_flight(), 0);
    }
}
