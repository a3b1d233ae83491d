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
//! [`Engine`] closes that gap, around a system that holds every per-flow state:
//!
//! * [`Engine::ingest_batch`] accepts a frame of [`FlowRecord`]s (each ≈
//!   one pcap line: a packet observed at one switch) and returns every
//!   warning they caused, in record order; [`Engine::ingest`] is a frame
//!   of one. Sampling-interval ticks fire *inside* ingest, interleaved
//!   exactly as the event loop would: a tick at time `t` runs before any
//!   record with `at ≥ t` (the simulator reserves low sequence numbers for
//!   ticks, so at equal timestamps the tick pops first).
//! * A frame is cut into *runs* at those ticks. Within a run the locals
//!   are frozen, so a record's per-flow work — its carriers and the ⊕ of
//!   every distributed variant — depends on nothing but its flow's earlier
//!   records: the run's records are dealt to the system's lanes, the
//!   [`shards`](Engine::set_shards), by `flow % N`, each lane owning its
//!   flows' carriers, and a long run's lanes also run on the process's
//!   helper threads (one per [`MIN_RECORDS_PER_THREAD`] records, at most
//!   `N`). The order-sensitive half — the switch registers, the clock, the
//!   tick — stays on the calling thread, and what the lanes' hops logged
//!   (raises, ratio samples, flight records) is settled there in record
//!   order. Every `N` gives the same warnings, results, snapshot bytes and
//!   recorder bytes. An absorbing variant makes every record a run of its
//!   own.
//! * In-packet inference headers have no packet to ride in, so each lane
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
//! streaming share one pipeline and the `Stream` and `RestoreAt` modes of
//! the root `tests/modes.rs` pin them equal.

use crate::carrier::shard_of;
use crate::system::{DriftBottleSystem, HopView, Lane, Warning};
use db_dtree::FlowClassifier;
use db_netsim::{Annotation, FlowSpec, HopInfo, Observation, Observer, SimTime};
use db_telemetry::flight::FlightRecorder;
use db_telemetry::scope::ScopeRecorder;
use db_telemetry::MetricsRegistry;
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

/// Fewest records a run gives each thread it splits across. A run of
/// `len` records runs on `min(N, len / 512)` threads, each walking a
/// contiguous group of shards, so no thread is handed less work than
/// this. Fed the Geant2012 serve trace at two shards in frames of one
/// size, in-process: 1 024-record frames (512 a thread) ran ≈ 1.2× the
/// one-shard rate, 512 broke even within the host's spread, 256 and 128
/// ran at half of it. Hosts with more cores were not measured; the floor
/// a thread holds them to is the one measured here.
pub const MIN_RECORDS_PER_THREAD: usize = 512;

/// Most shards an engine splits its flows over, whatever the worker-count
/// rule says: a bound on the carrier tables and lanes a large `DB_THREADS`
/// allocates. The threads a run starts are bounded by its length
/// ([`MIN_RECORDS_PER_THREAD`]), not by this.
pub const MAX_SHARDS: usize = 64;

/// The incremental engine: a deployed system plus the clock, tick source
/// and carrier retention; every per-flow state, the headers a record's
/// packet would carry included, lives in the system's lanes.
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
    /// Carrier retention in sampling windows; `None` keeps carriers until
    /// their last switch strips them (batch semantics, unbounded on lossy
    /// feeds).
    retention: Option<u32>,
    fingerprint: u64,
}

impl<C: FlowClassifier> Engine<C> {
    /// Wrap a deployed system. The tick cadence comes from the system's
    /// window configuration; the first tick fires at one interval, exactly
    /// as the simulator arms it. The engine runs on the system's lanes, one
    /// for a freshly deployed system; [`Self::set_shards`] splits it.
    pub fn new(system: DriftBottleSystem<C>) -> Self {
        let interval = system.window_config().interval;
        let fingerprint = system.config_fingerprint();
        Engine {
            interval,
            now: SimTime::ZERO,
            next_tick: interval,
            ticks_fired: 0,
            system,
            retention: None,
            fingerprint,
        }
    }

    /// Split the per-flow work over `shards` shards, the system's lanes,
    /// redistributing every in-flight carrier to its flow's lane. `0` means
    /// "not chosen": `DB_THREADS`, else every core
    /// ([`crate::par::worker_count`]), at most [`MAX_SHARDS`]. One shard
    /// uses no thread; more borrow the process's helper threads, only for
    /// runs long enough ([`MIN_RECORDS_PER_THREAD`]). Results, warnings
    /// and snapshots are the same at every count.
    pub fn set_shards(&mut self, shards: usize) {
        let n = crate::par::worker_count(
            shards,
            std::env::var("DB_THREADS").ok().as_deref(),
            std::thread::available_parallelism().map_or(1, |p| p.get()),
            MAX_SHARDS,
        );
        self.system.reshard(n);
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
            retention: self.retention,
            fingerprint: self.fingerprint,
        }
    }

    /// Bound header carrier memory: a header carrier untouched for
    /// `windows` sampling intervals is dropped at the next tick. Records
    /// whose carrier was evicted are treated as ingress (empty incoming
    /// header) — monitoring and local inference are unaffected, only drift
    /// continuity is cut. `0` is clamped to 1 so a carrier always survives
    /// the window it was written in.
    ///
    /// Side-table carriers (a `DistributedVirtual` or absorbing variant's
    /// exact-weight inferences) carry no touch time: the sweep never
    /// evicts them, so on a lossy feed they still grow without bound, and
    /// [`Self::carriers_in_flight`] does not count them. The wire variant
    /// alone, as the daemon deploys it, is bounded.
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

    /// [`DriftBottleSystem::set_phase_timing`]: each window close's phases
    /// timed into `reg`.
    pub fn set_phase_timing(&mut self, reg: Arc<MetricsRegistry>) {
        self.system.set_phase_timing(reg);
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

    /// In-flight header carrier count (inference headers awaiting their
    /// next hop).
    pub fn carriers_in_flight(&self) -> usize {
        self.system.headers_in_flight()
    }

    fn fire_tick(&mut self) {
        let t = self.next_tick;
        self.system.on_tick(t);
        self.ticks_fired += 1;
        self.now = t;
        self.next_tick = t.saturating_add(self.interval);
        if let Some(windows) = self.retention {
            let horizon = self.interval.as_ns().saturating_mul(u64::from(windows));
            self.system
                .sweep_headers(t.saturating_sub(SimTime::from_ns(horizon)));
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

    /// Ingest one flow record: [`Self::ingest_batch`] of one, a run of one
    /// record.
    pub fn ingest(&mut self, rec: &FlowRecord) -> Vec<Warning> {
        self.ingest_runs(std::slice::from_ref(rec), MIN_RECORDS_PER_THREAD)
    }

    /// Ingest a frame of flow records in order, firing every sampling tick
    /// due at or before each, and return the warnings raised (empty unless
    /// [`Self::set_live_warnings`] is on), in the order record-by-record
    /// ingest raises them.
    ///
    /// Records must arrive in non-decreasing time order per the feeding
    /// switch stream; a record older than an already-fired tick is still
    /// processed (its measures land in the current window, exactly as a
    /// late packet would in a real switch).
    pub fn ingest_batch(&mut self, recs: &[FlowRecord]) -> Vec<Warning> {
        self.ingest_runs(recs, MIN_RECORDS_PER_THREAD)
    }

    /// [`Self::ingest_batch`], giving each thread a run splits across at
    /// least `per_thread` records.
    fn ingest_runs(&mut self, recs: &[FlowRecord], per_thread: usize) -> Vec<Warning> {
        // Hops that must follow record order make every record a run.
        let per_record = self.system.per_record();
        let mut rest = recs;
        while let Some((first, later)) = rest.split_first() {
            self.fire_due(first.at);
            // The run ends before the next tick, and before the end of the
            // first record's window, so a run of late records never folds
            // its scope feeds into a window the next record opens.
            let i = self.interval.as_ns();
            let window_end = match first.at.as_ns().checked_div(i) {
                Some(w) => w.saturating_add(1).saturating_mul(i),
                None => u64::MAX,
            };
            let end = self.next_tick.min(SimTime::from_ns(window_end));
            let len = 1
                + (later.iter())
                    .position(|r| per_record || r.at >= end)
                    .unwrap_or(later.len());
            let (run, next) = rest.split_at(len);
            self.ingest_run(first.at, run, per_thread);
            rest = next;
        }
        self.system.drain_warnings()
    }

    /// One run, from `at`: records that no tick separates. See the module
    /// docs.
    fn ingest_run(&mut self, at: SimTime, run: &[FlowRecord], per_thread: usize) {
        self.now = run.iter().map(|r| r.at).fold(self.now, SimTime::max);
        let (view, lanes, mut registers) = self.system.hop_parts();
        let view = &view;
        let n = lanes.len();
        // Group `k` holds shards `k·group .. (k+1)·group`; group 0 runs on
        // the calling thread, the others on the process's helpers.
        let group = n.div_ceil(threads_for(n, run.len(), per_thread));
        let mut groups = lanes.chunks_mut(group).enumerate();
        let own = groups.next();
        let others = groups.map(|(k, lanes)| move || hop_shards(view, lanes, run, k * group, n));
        crate::par::join(others, || {
            // No hop reads the registers, so their pass overlaps the
            // helpers' hops.
            for rec in run {
                registers.record(rec.at, &rec.info);
            }
            if let Some((_, lanes)) = own {
                hop_shards(view, lanes, run, 0, n);
            }
        });
        self.system.settle(run.len(), at);
    }

    /// Advance the clock to `t`, firing every sampling tick due at or
    /// before it, and return the warnings raised (centralized DCA reports
    /// fire on ticks). Idle streams call this to keep windows closing.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<Warning> {
        self.fire_due(t);
        self.now = self.now.max(t);
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
        self.system.headers_into(&mut w);
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
        // The header carriers and the system state are the tail of the
        // snapshot: this consumes the reader and commits only if the input
        // ends cleanly.
        self.system.restore_with_headers(r)?;
        self.now = now;
        self.next_tick = next_tick;
        self.ticks_fired = ticks_fired;
        Ok(())
    }
}

/// Threads a run of `len` records splits `shards` shards across: one per
/// `per_thread` records, at most one per shard, at least one.
fn threads_for(shards: usize, len: usize, per_thread: usize) -> usize {
    shards.min(len / per_thread.max(1)).max(1)
}

/// Shards `base .. base + lanes.len()` of `n`'s share of a run: the
/// per-flow half of every record of their flows, in record order, each in
/// its flow's lane.
fn hop_shards(view: &HopView, lanes: &mut [Lane], run: &[FlowRecord], base: usize, n: usize) {
    for (idx, rec) in (0u32..).zip(run) {
        let Some(s) = shard_of(rec.info.flow.0, n).checked_sub(base) else {
            continue;
        };
        if let Some(lane) = lanes.get_mut(s) {
            lane.carry(view, idx, rec.at, &rec.info);
        }
    }
}

/// Batch mode: the engine is the observer `run_scenario` hands to the
/// simulator. Packets carry their own headers there, so the lanes' header
/// carriers stay empty; ticks are driven by the event loop, and the engine
/// only keeps its clock bookkeeping in sync so a snapshot taken after a
/// batch run is well-formed.
impl<C: FlowClassifier> Observer for Engine<C> {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, ann: &mut Annotation) {
        self.system.on_packet(now, info, ann);
        self.now = self.now.max(now);
    }

    fn on_tick(&mut self, now: SimTime) {
        self.system.on_tick(now);
        self.ticks_fired += 1;
        self.now = self.now.max(now);
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

    /// The line case's recorded feed: link 2 fails at `window.0`.
    fn line_trace() -> TraceRecorder {
        let (topo, flows, wcfg, window, _) = line_setup();
        let scenario = FailureScenario::single_link(db_topology::LinkId(2), window.0);
        let sim_cfg = SimConfig {
            end: window.1 + SimTime::from_ms(8),
            tick_interval: wcfg.interval,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows, sim_cfg, &scenario, 7, TraceRecorder::new());
        sim.run();
        sim.finish().0
    }

    /// A fork of a streaming engine is the engine: the same snapshot (tick
    /// count and parked carriers included), then the same warnings and the
    /// same final state for the rest of the feed.
    #[test]
    fn a_fork_mid_stream_is_the_engine() {
        let trace = line_trace();
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut engine = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        engine.set_live_warnings();
        let split = trace.observations.len() / 2;
        for o in &trace.observations[..split] {
            engine.ingest(&FlowRecord::from(*o));
        }
        assert!(engine.ticks_fired() > 0 && engine.carriers_in_flight() > 0);
        let mut fork = engine.fork();
        assert_eq!(fork.snapshot(), engine.snapshot());
        // Live collection is an attachment, and a fork carries none.
        fork.set_live_warnings();
        for o in &trace.observations[split..] {
            let rec = FlowRecord::from(*o);
            assert_eq!(fork.ingest(&rec), engine.ingest(&rec));
        }
        let end = window.1 + SimTime::from_ms(8);
        assert_eq!(fork.advance_to(end), engine.advance_to(end));
        assert_eq!(fork.snapshot(), engine.snapshot());
    }

    /// A snapshot taken mid-stream at two shards restores onto three, and
    /// the stream finishes there as one shard fed record by record does:
    /// the same live warnings in the same order, and the same final
    /// snapshot (logs, ratio samples and both kinds of carrier included).
    /// At two shards every run is split across threads, however short; at
    /// three, a run takes a thread per 40 records, so runs of 80–119
    /// records put two shards on one thread and one on another.
    #[test]
    fn a_stream_moves_from_two_shards_to_three_through_a_snapshot() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let cfg = SystemConfig {
            ratio_sampling: 8,
            ..cfg
        };
        let virt = VariantSpec {
            name: "DB-Virtual".into(),
            scheme: db_inference::WeightScheme::DriftBottle,
            mechanism: crate::config::Mechanism::DistributedVirtual,
        };
        let engine = |shards| {
            let system = DriftBottleSystem::deploy(
                &topo,
                &flows,
                wcfg,
                ThresholdClassifier::default(),
                vec![VariantSpec::drift_bottle(), virt.clone()],
                cfg.clone(),
                window,
            );
            let mut e = Engine::new(system);
            e.set_live_warnings();
            e.set_shards(shards);
            e
        };
        let recs: Vec<FlowRecord> = line_trace()
            .observations
            .iter()
            .map(|&o| o.into())
            .collect();
        let end = window.1 + SimTime::from_ms(8);
        let mut one = engine(1);
        let mut want: Vec<Warning> = recs.iter().flat_map(|r| one.ingest(r)).collect();
        want.extend(one.advance_to(end));
        let split = recs.len() / 2;
        let mut two = engine(2);
        let mut got = Vec::new();
        for frame in recs[..split].chunks(300) {
            got.extend(two.ingest_runs(frame, 1));
        }
        assert!(two.carriers_in_flight() > 0);
        let mut three = engine(3);
        three
            .restore(&two.snapshot())
            .expect("restores at another shard count");
        for frame in recs[split..].chunks(300) {
            got.extend(three.ingest_runs(frame, 40));
        }
        got.extend(three.advance_to(end));
        assert!(!want.is_empty(), "the line failure raises warnings");
        assert!(got == want, "live warnings differ");
        assert!(three.snapshot() == one.snapshot(), "final snapshots differ");
    }

    /// Engines share the process's helpers: two-shard engines fed on two
    /// threads at once, and two more fed inside the jobs of a
    /// [`crate::par::par_map`] (their joins nested in the pool's), each end
    /// as the one-shard engine fed the same frames does, with the same live
    /// warnings and the same snapshot. Every run of theirs asks for a
    /// helper, and a join that finds none idle runs its group itself.
    #[test]
    fn engines_on_many_threads_share_the_helpers() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let recs: Vec<FlowRecord> = line_trace()
            .observations
            .iter()
            .map(|&o| o.into())
            .collect();
        let end = window.1 + SimTime::from_ms(8);
        let run = |shards: usize| {
            let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg.clone()));
            e.set_live_warnings();
            e.set_shards(shards);
            let mut live: Vec<Warning> = (recs.chunks(300))
                .flat_map(|frame| e.ingest_runs(frame, 1))
                .collect();
            live.extend(e.advance_to(end));
            (live, e.snapshot())
        };
        let want = run(1);
        assert!(!want.0.is_empty(), "the line failure raises warnings");
        std::thread::scope(|scope| {
            let threads = [scope.spawn(|| run(2)), scope.spawn(|| run(2))];
            for t in threads {
                assert!(t.join().expect("no engine panics") == want);
            }
        });
        for got in crate::par::par_map(vec![2, 2], |&n| run(n)) {
            assert!(got == want);
        }
    }

    /// No thread starts for fewer than [`MIN_RECORDS_PER_THREAD`] records:
    /// a 2 048-record frame takes four threads on an eight-shard engine,
    /// and a run too short for two stays on the calling thread.
    #[test]
    fn a_run_takes_a_thread_per_floor_of_records() {
        let floor = MIN_RECORDS_PER_THREAD;
        assert_eq!(threads_for(8, 2048, floor), 4);
        assert_eq!(threads_for(2, 2 * floor - 1, floor), 1);
        assert_eq!(threads_for(2, 2 * floor, floor), 2);
        assert_eq!(threads_for(3, 100 * floor, floor), 3);
        assert_eq!(threads_for(1, 100 * floor, floor), 1);
        assert_eq!(threads_for(4, 0, floor), 1);
    }

    /// A run ends where its first record's window does, not only at the
    /// next tick: after a restore onto a fresh scope recorder, a late
    /// record and the current ones after it feed the scope series alike
    /// one record at a time and in one frame.
    #[test]
    fn a_late_record_starts_a_run_of_its_own_window() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let recs: Vec<FlowRecord> = line_trace()
            .observations
            .iter()
            .map(|&o| o.into())
            .collect();
        let split = recs.len() / 2;
        let mut first = Engine::new(deploy(&topo, &flows, wcfg, window, cfg.clone()));
        for r in &recs[..split] {
            first.ingest(r);
        }
        let snapshot = first.snapshot();
        let two_back = recs[split].at.as_ns() - 2 * wcfg.interval.as_ns();
        let late = FlowRecord {
            at: SimTime::from_ns(two_back),
            ..recs[split]
        };
        let feed = [&[late], &recs[split..split + 200]].concat();
        let restored = || {
            let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg.clone()));
            let scope = Arc::new(ScopeRecorder::default());
            scope.set_meta(db_telemetry::scope::ScopeMeta {
                interval_ns: wcfg.interval.as_ns(),
                t_fail_ns: window.0.as_ns(),
                total_links: topo.link_count() as u32,
                total_switches: topo.node_count() as u32,
                alpha: cfg.warning.alpha,
                beta: cfg.warning.beta,
                hop_min: cfg.warning.hop_min,
            });
            assert!(e.set_scope(scope.clone()));
            e.restore(&snapshot).expect("restores");
            (e, scope)
        };
        let digest = |scope: &ScopeRecorder| {
            let json = scope.to_trace_json();
            let trace = db_telemetry::TraceData::from_json_str(&json).expect("parses");
            trace.deterministic_digest()
        };
        let (mut one, by_record) = restored();
        for r in &feed {
            one.ingest(r);
        }
        let (mut framed, by_frame) = restored();
        framed.ingest_batch(&feed);
        assert_eq!(digest(&by_frame), digest(&by_record));
    }

    /// With phase timing attached, every window close times its three
    /// phases into the registry once each, and nothing per hop is
    /// registered there.
    #[test]
    fn phase_timing_times_every_window_close() {
        let (topo, flows, wcfg, window, cfg) = line_setup();
        let mut e = Engine::new(deploy(&topo, &flows, wcfg, window, cfg));
        e.set_shards(2);
        let reg = Arc::new(MetricsRegistry::new());
        e.set_phase_timing(reg.clone());
        let recs: Vec<FlowRecord> = line_trace()
            .observations
            .iter()
            .map(|&o| o.into())
            .collect();
        e.ingest_batch(&recs);
        let ticks = u64::from(e.ticks_fired());
        assert!(ticks > 0);
        let snap = reg.snapshot();
        let timed: Vec<(&str, u64)> = (snap.timings.iter())
            .map(|(name, t)| (name.as_str(), t.count))
            .collect();
        let phases = ["phase.classify", "phase.infer", "phase.monitor"];
        assert_eq!(timed, phases.map(|p| (p, ticks)));
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
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
