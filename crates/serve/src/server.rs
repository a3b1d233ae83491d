//! The daemon: TCP (or stdio) sessions speaking the [`crate::frame`]
//! protocol against one shared [`Engine`] per topology.
//!
//! A session opens with `Hello { topo, density, seed, window_cap }`; the
//! first Hello for a topology trains the classifier (shrunk under
//! `DB_SMOKE=1`), generates the monitored traffic matrix exactly as the
//! batch runner would, deploys the system, and wraps it in an incremental
//! engine with live warnings on. Subsequent Hellos for the same spec attach
//! to the existing engine, so several clients can feed and observe one
//! network. When a snapshot path is configured, the engine restores from it
//! at build time (a mismatched fingerprint is logged and ignored) and
//! persists to it on `SnapshotReq` and `Shutdown`, so localization state
//! survives restarts.
//!
//! Everything here is std-only: `TcpListener` + a thread per connection,
//! engines behind mutexes, no async runtime.

use crate::frame::{
    read_frame, write_frame, Frame, PulseMsg, PulsePoint, Record, WarningMsg, MAX_FRAME_BYTES,
    PROTO_VERSION,
};
use db_core::{prepare, Engine, FlowRecord, PrepareConfig, SystemConfig, VariantSpec, Warning};
use db_core::{DriftBottleSystem, RestoreError};
use db_dtree::TableClassifier;
use db_flowmon::MAX_FLOWS;
use db_netsim::{FlowId, FlowSpec, HopInfo, PpbpParams, SimTime, TrafficConfig, TrafficGen};
use db_telemetry::export::to_prometheus;
use db_telemetry::scope::{ScopeMeta, ScopePoint, ScopeRecorder};
use db_telemetry::{Counter, Histogram, MetricsRegistry};
use db_topology::{zoo, LinkId, NodeId, Path, Topology};
use db_util::sync::lock_recover;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Default listen address when neither `--addr` nor `DB_SERVE_ADDR` is set.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// Daemon configuration, resolved from CLI flags and environment.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`DB_SERVE_ADDR` overrides the default).
    pub addr: String,
    /// Snapshot file: restored at engine build, written on
    /// `SnapshotReq`/`Shutdown`.
    pub snapshot: Option<PathBuf>,
    /// Default carrier-retention bound in monitoring windows for engines
    /// whose `Hello` leaves `window_cap` at 0 (`DB_SERVE_WINDOW_CAP`;
    /// 0 = unbounded).
    pub window_cap: u32,
    /// Bind a std-only HTTP scrape endpoint serving the daemon's metrics
    /// in Prometheus text format (`DB_SERVE_PROM_ADDR` / `--prom-addr`;
    /// `None` = no endpoint).
    pub prom_addr: Option<String>,
}

impl ServeOptions {
    /// Defaults with `DB_SERVE_ADDR` / `DB_SERVE_WINDOW_CAP` /
    /// `DB_SERVE_PROM_ADDR` applied.
    pub fn from_env() -> Self {
        let addr = std::env::var("DB_SERVE_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.to_string());
        let window_cap = std::env::var("DB_SERVE_WINDOW_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let prom_addr = std::env::var("DB_SERVE_PROM_ADDR")
            .ok()
            .filter(|v| !v.is_empty());
        ServeOptions {
            addr,
            snapshot: None,
            window_cap,
            prom_addr,
        }
    }
}

fn smoke() -> bool {
    std::env::var("DB_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Build the topology named by a `Hello` spec: a zoo name (`geant2012`,
/// `chinanet`, `tinet`, `as1221`, `figure1`, `figure5`) or a parameterized
/// family (`grid:WxH`, `line:N`, `star:N`).
pub fn parse_topo(spec: &str) -> Option<Topology> {
    match spec {
        "geant2012" => return Some(zoo::geant2012()),
        "chinanet" => return Some(zoo::chinanet()),
        "tinet" => return Some(zoo::tinet()),
        "as1221" => return Some(zoo::as1221()),
        "figure1" => return Some(zoo::figure1()),
        "figure5" => return Some(zoo::figure5()),
        _ => {}
    }
    let (family, arg) = spec.split_once(':')?;
    match family {
        "grid" => {
            let (w, h) = arg.split_once('x')?;
            Some(zoo::grid(w.parse().ok()?, h.parse().ok()?))
        }
        "line" => Some(zoo::line(arg.parse().ok()?)),
        "star" => Some(zoo::star(arg.parse().ok()?)),
        _ => None,
    }
}

/// Frames a subscriber's writer thread may buffer before the publisher
/// starts shedding: deep enough to ride out scheduling hiccups, shallow
/// enough that a stalled reader cannot pin unbounded memory.
const SUB_QUEUE_DEPTH: usize = 64;

/// Hand `stream` to a dedicated writer thread and return the bounded
/// sending half. Publishing under the engine lock is then a `try_send` —
/// never a socket write — so one slow reader cannot stall every session
/// sharing the engine. The thread exits when the sender is dropped or the
/// peer stops reading (write error), which closes the channel and lets the
/// publisher drop the subscriber on the next `try_send`.
fn spawn_sub_writer(stream: TcpStream) -> mpsc::SyncSender<Frame> {
    let (tx, rx) = mpsc::sync_channel::<Frame>(SUB_QUEUE_DEPTH);
    thread::spawn(move || {
        let mut out = BufWriter::new(stream);
        while let Ok(frame) = rx.recv() {
            if write_frame(&mut out, &frame).is_err() || out.flush().is_err() {
                break;
            }
        }
    });
    tx
}

/// One Pulse subscriber: its writer-thread queue and the next window it
/// expects. The cursor only advances when a pulse is accepted by the
/// queue, so a full queue means "retry from the same window next batch" —
/// pulses are never skipped, only deferred.
struct PulseSub {
    tx: mpsc::SyncSender<Frame>,
    cursor: u64,
}

/// One engine and its bookkeeping, shared by every session on its topology.
struct EngineState {
    engine: Engine<TableClassifier>,
    nodes: u32,
    links: u32,
    interval_ns: u64,
    restored: bool,
    ingested: u64,
    warned: u64,
    /// Slow-tick watchdog: batches whose wall-clock handling exceeded one
    /// monitoring interval.
    slow_ticks: u64,
    /// Live-warning subscribers (TCP sessions only), as writer-thread
    /// queues: warnings to a full queue are shed (counted in
    /// `serve.sub_dropped`), not waited on.
    subscribers: Vec<mpsc::SyncSender<Frame>>,
    /// Pulse subscribers, each with its own window cursor.
    pulse_subs: Vec<PulseSub>,
    /// The engine's health-series recorder (always attached by `build`).
    scope: Arc<ScopeRecorder>,
    /// Scratch buffer for pulse extraction, reused across batches.
    point_buf: Vec<ScopePoint>,
    /// Daemon metrics: registry plus pre-registered hot handles.
    reg: Arc<MetricsRegistry>,
    ingested_ctr: Counter,
    warned_ctr: Counter,
    slow_ctr: Counter,
    /// Warning frames shed because a subscriber's queue was full.
    sub_dropped_ctr: Counter,
    /// Frames refused for reaching past [`MAX_CATCHUP_WINDOWS`].
    catchup_refused_ctr: Counter,
    /// `FlowDef` frames refused for an id at or past [`MAX_FLOWS`].
    flowdef_refused_ctr: Counter,
    batch_hist: Histogram,
}

/// Most sampling windows one `Records` or `AdvanceTo` frame may close.
/// Closing a window costs the engine a classifier pass over every switch,
/// under the mutex every session on the topology shares, so one frame
/// stamped far in the future (`AdvanceTo { t_ns: u64::MAX }`) would hold it
/// for good. Past this many windows ahead of the engine clock the frame is
/// refused with an `Error`; a feed that really was idle that long steps
/// forward with several `AdvanceTo` frames, releasing the lock between them.
/// 1024 windows are 4 s of network time at the paper's 4 ms interval and
/// hold the lock for ≈ 0.3 s on Geant2012 (0.3 ms per idle window).
const MAX_CATCHUP_WINDOWS: u64 = 1024;

/// Ingest-batch latency bucket bounds, microseconds.
const BATCH_LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

impl EngineState {
    fn hello_ack(&self) -> Frame {
        Frame::HelloAck {
            proto: PROTO_VERSION,
            fingerprint: self.engine.fingerprint(),
            interval_ns: self.interval_ns,
            nodes: self.nodes,
            links: self.links,
            restored: self.restored,
        }
    }

    /// Monitoring windows flushed to the health series so far (the flush
    /// watermark is the highest *complete* window index).
    fn windows_flushed(&self) -> u64 {
        self.scope
            .flushed_watermark()
            .map_or(0, |w| w.saturating_add(1))
    }

    /// Latest timestamp a frame arriving now may carry (see
    /// [`MAX_CATCHUP_WINDOWS`]), taken once per frame.
    fn catchup_limit_ns(&self) -> u64 {
        let ahead = self.interval_ns.saturating_mul(MAX_CATCHUP_WINDOWS);
        self.engine.now().as_ns().saturating_add(ahead)
    }

    /// Count and word the refusal of a frame stamped past `limit_ns`.
    fn refuse_catchup(&self, t_ns: u64, limit_ns: u64) -> Frame {
        self.catchup_refused_ctr.inc();
        Frame::Error(format!(
            "timestamp {t_ns} ns is more than {MAX_CATCHUP_WINDOWS} windows past the engine \
             clock (limit {limit_ns} ns): advance in smaller steps"
        ))
    }

    fn stats(&self) -> Frame {
        let windows = self.windows_flushed();
        let pulse_lag = self
            .pulse_subs
            .iter()
            .map(|s| windows.saturating_sub(s.cursor))
            .max()
            .unwrap_or(0);
        Frame::Stats {
            now_ns: self.engine.now().as_ns(),
            ticks: u64::from(self.engine.ticks_fired()),
            ingested: self.ingested,
            warnings: self.warned,
            // usize → u64 never truncates on supported targets; this is
            // the exact count (the old code saturated to u64::MAX).
            carriers: u64::try_from(self.engine.carriers_in_flight()).expect("usize fits u64"),
            windows,
            pulse_lag,
            slow_ticks: self.slow_ticks,
        }
    }

    /// Build one pulse from window `from`: newly flushed series points plus
    /// ingest latency percentiles and the headline counters.
    fn pulse_msg(&mut self, from: u64) -> PulseMsg {
        self.point_buf.clear();
        let next_window = self.scope.points_from(from, &mut self.point_buf);
        let points = self
            .point_buf
            .iter()
            .map(|p| PulsePoint {
                kind: p.kind.code(),
                id: p.id,
                window: p.window,
                value: p.value,
            })
            .collect();
        let lat = self.batch_hist.snapshot();
        PulseMsg {
            now_ns: self.engine.now().as_ns(),
            next_window,
            p50_us: lat.percentile(0.50),
            p90_us: lat.percentile(0.90),
            p99_us: lat.percentile(0.99),
            ingested: self.ingested,
            warnings: self.warned,
            carriers: u64::try_from(self.engine.carriers_in_flight()).expect("usize fits u64"),
            points,
        }
    }

    /// Queue a pulse for every subscriber whose cursor is behind the flush
    /// watermark; subscribers whose writer thread died are dropped, and a
    /// full queue leaves the cursor in place so the same window is retried
    /// next batch. Called after each batch — no socket I/O happens here.
    fn pulse_publish(&mut self) {
        if self.pulse_subs.is_empty() {
            return;
        }
        let windows = self.windows_flushed();
        let mut subs = std::mem::take(&mut self.pulse_subs);
        subs.retain_mut(|sub| {
            if sub.cursor >= windows {
                return true; // nothing new for this subscriber
            }
            let msg = self.pulse_msg(sub.cursor);
            let next = msg.next_window;
            match sub.tx.try_send(Frame::Pulse(msg)) {
                Ok(()) => {
                    sub.cursor = next;
                    true
                }
                Err(mpsc::TrySendError::Full(_)) => true, // retry this window
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        });
        self.pulse_subs = subs;
    }

    /// Record one batch's wall-clock handling time: latency histogram plus
    /// the slow-tick watchdog (a batch slower than the monitoring interval
    /// means the daemon cannot keep up with real time).
    fn observe_batch(&mut self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.batch_hist.record(us);
        let ns = u128::from(self.interval_ns);
        if self.interval_ns > 0 && elapsed.as_nanos() > ns {
            self.slow_ticks += 1;
            self.slow_ctr.inc();
        }
    }

    /// Apply freshly raised warnings: count them, queue a `Warning` frame
    /// for every live subscriber, convert for the ack. Subscribers whose
    /// writer thread died are dropped; frames to a full queue are shed and
    /// counted (`serve.sub_dropped`) rather than waited on, so a stalled
    /// subscriber never blocks ingest.
    fn publish(&mut self, raised: &[Warning]) -> Vec<WarningMsg> {
        let msgs: Vec<WarningMsg> = raised.iter().map(warning_msg).collect();
        self.warned += msgs.len() as u64;
        if !msgs.is_empty() {
            self.warned_ctr.add(msgs.len() as u64);
            for m in &msgs {
                self.reg.counter(&format!("serve.warned.l{}", m.link)).inc();
            }
            let dropped = &self.sub_dropped_ctr;
            self.subscribers.retain_mut(|sub| {
                for m in &msgs {
                    match sub.try_send(Frame::Warning(m.clone())) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(_)) => dropped.inc(),
                        Err(mpsc::TrySendError::Disconnected(_)) => return false,
                    }
                }
                true
            });
        }
        msgs
    }
}

fn warning_msg(w: &Warning) -> WarningMsg {
    WarningMsg {
        at_ns: w.at.as_ns(),
        switch: w.switch.0,
        link: w.link.0,
        variant: w.variant,
        hop_now: w.hop_now,
        w0: w.w0,
        w1: w.w1,
        header: w.header[..usize::from(w.header_len)].to_vec(),
    }
}

/// Convert a wire [`Record`] into the engine's input type.
pub fn flow_record(r: &Record) -> FlowRecord {
    FlowRecord {
        at: SimTime::from_ns(r.at_ns),
        info: HopInfo {
            flow: FlowId(r.flow),
            src: NodeId(r.src),
            dst: NodeId(r.dst),
            seq: r.seq,
            size: r.size,
            node: NodeId(r.node),
            hop_index: r.hop_index,
            is_ingress: r.is_ingress,
            is_last_switch: r.is_last_switch,
        },
    }
}

/// Cross-session daemon state.
struct Shared {
    /// One engine per topology spec, created on first `Hello`.
    engines: Mutex<HashMap<String, Arc<Mutex<EngineState>>>>,
    snapshot: Option<PathBuf>,
    /// Held across one snapshot file write (see [`Shared::persist`]).
    persist_lock: Mutex<()>,
    default_window_cap: u32,
    stopping: AtomicBool,
    /// Daemon-wide metrics, served by the Prometheus endpoint.
    reg: Arc<MetricsRegistry>,
}

impl Shared {
    fn new(opts: &ServeOptions) -> Self {
        Shared {
            engines: Mutex::new(HashMap::new()),
            snapshot: opts.snapshot.clone(),
            persist_lock: Mutex::new(()),
            default_window_cap: opts.window_cap,
            stopping: AtomicBool::new(false),
            reg: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Get or build the engine for `topo`. Building trains the classifier,
    /// so the first `Hello` per topology is slow by design; the engines map
    /// stays locked meanwhile so concurrent Hellos share the one build.
    fn engine_for(
        &self,
        topo: &str,
        density: f64,
        seed: u64,
        window_cap: u32,
    ) -> Result<Arc<Mutex<EngineState>>, String> {
        let mut engines = lock_recover(&self.engines);
        if let Some(e) = engines.get(topo) {
            return Ok(e.clone());
        }
        let state = self.build(topo, density, seed, window_cap)?;
        let entry = Arc::new(Mutex::new(state));
        engines.insert(topo.to_string(), entry.clone());
        Ok(entry)
    }

    fn build(
        &self,
        spec: &str,
        density: f64,
        seed: u64,
        window_cap: u32,
    ) -> Result<EngineState, String> {
        if !(density.is_finite() && density > 0.0) {
            return Err(format!("bad density {density}"));
        }
        let topo = parse_topo(spec).ok_or_else(|| format!("unknown topology `{spec}`"))?;
        let prep_cfg = if smoke() {
            PrepareConfig {
                n_link_scenarios: 4,
                n_node_scenarios: 1,
                n_healthy: 1,
                train_density: 1.0,
                ..Default::default()
            }
        } else {
            PrepareConfig::default()
        };
        let prep = prepare(topo, &prep_cfg);
        let traffic = TrafficConfig::with_density(density);
        let flows = TrafficGen::generate_auto(&prep.topo, prep.routes.as_ref(), &traffic, seed);
        // A daemon has no failure-injection timeline: the collection window
        // is wide open so `reported_links` accumulates for the whole run.
        let window = (SimTime::ZERO, SimTime::from_ns(u64::MAX));
        let sys_cfg = SystemConfig {
            interval: prep.wcfg.interval,
            ..Default::default()
        };
        // The thresholds `timeline` / `top` print are the ones deployed.
        let warning = sys_cfg.warning;
        let system = DriftBottleSystem::deploy(
            &prep.topo,
            &flows,
            prep.wcfg,
            prep.table.clone(),
            vec![VariantSpec::drift_bottle()],
            sys_cfg,
            window,
        );
        let mut engine = Engine::new(system);
        engine.set_live_warnings();
        // Always-on health plane: the same scope recorder batch replay
        // attaches (`run_scenario`), threaded through the engine so
        // streaming sessions produce identical per-window series. Its
        // per-packet cost is one lock round-trip and two slot folds
        // (`ScopeRecorder::merge`); the flight ring costs more — a record
        // per merge — so it stays opt-in (`DB_SERVE_FLIGHT=1`) for when a
        // post-mortem `explain` is worth the ingest cost.
        let nodes = u32::try_from(prep.topo.node_count()).unwrap_or(u32::MAX);
        let links = u32::try_from(prep.topo.link_count()).unwrap_or(u32::MAX);
        let scope = Arc::new(ScopeRecorder::default());
        scope.set_meta(ScopeMeta {
            interval_ns: prep.wcfg.interval.as_ns(),
            t_fail_ns: 0,
            total_links: links,
            total_switches: nodes,
            alpha: warning.alpha,
            beta: warning.beta,
            hop_min: warning.hop_min,
        });
        engine.set_scope(scope.clone());
        if std::env::var("DB_SERVE_FLIGHT").is_ok_and(|v| v == "1") {
            engine.set_flight(
                Arc::new(db_telemetry::flight::FlightRecorder::with_default_capacity()),
                &[],
                prep.topo.link_count(),
            );
        }
        let cap = if window_cap > 0 {
            window_cap
        } else {
            self.default_window_cap
        };
        if cap > 0 {
            engine.set_retention(cap);
        }
        let mut restored = false;
        if let Some(path) = &self.snapshot {
            match std::fs::read(path) {
                Ok(bytes) => match engine.restore(&bytes) {
                    Ok(()) => restored = true,
                    Err(RestoreError::ConfigMismatch { expected, found }) => eprintln!(
                        "serve: snapshot {} is for another configuration \
                         (fingerprint {found:#x}, engine {expected:#x}); starting fresh",
                        path.display()
                    ),
                    Err(e) => eprintln!(
                        "serve: snapshot {} is unreadable ({e}); starting fresh",
                        path.display()
                    ),
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => eprintln!("serve: cannot read snapshot {}: {e}", path.display()),
            }
        }
        Ok(EngineState {
            engine,
            nodes,
            links,
            interval_ns: prep.wcfg.interval.as_ns(),
            restored,
            ingested: 0,
            warned: 0,
            slow_ticks: 0,
            subscribers: Vec::new(),
            pulse_subs: Vec::new(),
            scope,
            point_buf: Vec::new(),
            reg: self.reg.clone(),
            ingested_ctr: self.reg.counter("serve.ingested"),
            warned_ctr: self.reg.counter("serve.warnings"),
            slow_ctr: self.reg.counter("serve.slow_ticks"),
            sub_dropped_ctr: self.reg.counter("serve.sub_dropped"),
            catchup_refused_ctr: self.reg.counter("serve.catchup_refused"),
            flowdef_refused_ctr: self.reg.counter("serve.flowdef_refused"),
            batch_hist: self
                .reg
                .histogram("serve.ingest_batch_us", BATCH_LATENCY_BOUNDS_US),
        })
    }

    /// Persist already-extracted snapshot bytes to the configured path.
    /// Takes bytes, not the engine state, so callers snapshot under the
    /// engine lock and write to disk after dropping it.
    ///
    /// The bytes go to `<path>.tmp`, are synced, and only then renamed over
    /// `path`: a crash or a failed write at any point leaves the previous
    /// snapshot readable.
    // Two sessions may persist at once and share the temp name; the mutex
    // exists to keep their writes apart, and its only waiters are other
    // persist() calls — no engine guard is ever held here.
    // db-lint: allow(conc-guard-io) — serializing the temp file is the mutex's purpose
    fn persist(&self, bytes: &[u8]) -> io::Result<()> {
        let Some(path) = &self.snapshot else {
            return Ok(());
        };
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let _writer = lock_recover(&self.persist_lock);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // The rename is durable once the directory entry is synced too.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(".".as_ref()))?.sync_all()
    }
}

/// Why a session ended.
enum SessionEnd {
    /// Peer closed the stream or sent `Shutdown`=false…: normal end.
    Eof,
    /// Peer requested daemon shutdown.
    Shutdown,
}

/// Run one protocol session. `tcp` carries the raw stream for `Subscribe`
/// (stdio sessions get warnings in `IngestAck` frames only).
fn session<R: Read, W: Write>(
    input: &mut R,
    out: &mut W,
    shared: &Shared,
    tcp: Option<&TcpStream>,
) -> io::Result<SessionEnd> {
    let mut current: Option<Arc<Mutex<EngineState>>> = None;
    loop {
        let frame = match read_frame(input)? {
            Some(f) => f,
            None => return Ok(SessionEnd::Eof),
        };
        // Frames that don't need an engine.
        match frame {
            Frame::Hello {
                proto,
                topo,
                density,
                seed,
                window_cap,
            } => {
                if proto != PROTO_VERSION {
                    write_frame(out, &Frame::Error(format!("protocol {proto} unsupported")))?;
                    out.flush()?;
                    continue;
                }
                match shared.engine_for(&topo, density, seed, window_cap) {
                    Ok(entry) => {
                        let ack = lock_recover(&entry).hello_ack();
                        current = Some(entry);
                        write_frame(out, &ack)?;
                    }
                    Err(msg) => write_frame(out, &Frame::Error(msg))?,
                }
                out.flush()?;
                continue;
            }
            Frame::Shutdown => {
                if let Some(entry) = &current {
                    // Snapshot under the engine lock, write to disk after
                    // dropping it: the file write must not stall other
                    // sessions on this engine.
                    let bytes = if shared.snapshot.is_some() {
                        Some(lock_recover(entry).engine.snapshot())
                    } else {
                        None
                    };
                    if let Some(bytes) = bytes {
                        if let Err(e) = shared.persist(&bytes) {
                            eprintln!("serve: snapshot on shutdown failed: {e}");
                        }
                    }
                }
                shared.stopping.store(true, Ordering::SeqCst);
                write_frame(out, &Frame::Bye)?;
                out.flush()?;
                return Ok(SessionEnd::Shutdown);
            }
            _ => {}
        }
        let Some(entry) = &current else {
            write_frame(out, &Frame::Error("hello first".into()))?;
            out.flush()?;
            continue;
        };
        let mut state = lock_recover(entry);
        // Snapshot bytes to persist once the engine guard is released.
        let mut persist_after: Option<Vec<u8>> = None;
        let reply = match frame {
            Frame::Records(records) => {
                let t0 = Instant::now();
                let reply = ingest(&mut state, &records);
                state.observe_batch(t0.elapsed());
                state.pulse_publish();
                reply
            }
            Frame::AdvanceTo { t_ns } => {
                let limit_ns = state.catchup_limit_ns();
                if t_ns > limit_ns {
                    state.refuse_catchup(t_ns, limit_ns)
                } else {
                    let t0 = Instant::now();
                    let raised = state.engine.advance_to(SimTime::from_ns(t_ns));
                    let warnings = state.publish(&raised);
                    state.observe_batch(t0.elapsed());
                    state.pulse_publish();
                    Frame::IngestAck { count: 0, warnings }
                }
            }
            Frame::FlowDef {
                id,
                rtt_ms,
                nodes,
                links,
            } => register_flow(&mut state, id, rtt_ms, &nodes, &links),
            Frame::Subscribe => match tcp.and_then(|s| s.try_clone().ok()) {
                Some(clone) => {
                    state.subscribers.push(spawn_sub_writer(clone));
                    state.stats()
                }
                None => Frame::Error("subscribe needs a socket session".into()),
            },
            Frame::PulseReq { from_window } => Frame::Pulse(state.pulse_msg(from_window)),
            Frame::PulseSub { from_window } => match tcp.and_then(|s| s.try_clone().ok()) {
                Some(clone) => {
                    // The reply itself is the subscription's first pulse;
                    // the stored cursor continues where it left off.
                    let msg = state.pulse_msg(from_window);
                    state.pulse_subs.push(PulseSub {
                        tx: spawn_sub_writer(clone),
                        cursor: msg.next_window,
                    });
                    Frame::Pulse(msg)
                }
                None => Frame::Error("pulse subscription needs a socket session".into()),
            },
            Frame::StatsReq => state.stats(),
            Frame::SnapshotReq => {
                let bytes = state.engine.snapshot();
                if shared.snapshot.is_some() {
                    persist_after = Some(bytes.clone());
                }
                Frame::Snapshot(bytes)
            }
            // Server-to-client frames arriving here are protocol misuse.
            other => Frame::Error(format!("unexpected frame {other:?}")),
        };
        drop(state);
        if let Some(bytes) = persist_after {
            if let Err(e) = shared.persist(&bytes) {
                eprintln!("serve: snapshot write failed: {e}");
            }
        }
        write_frame(out, &reply)?;
        out.flush()?;
    }
}

/// Ingest a record batch: bounds-check switch ids (a bad id would index
/// outside the monitor table) and timestamps (a far-future one would close
/// windows without end), feed the engine, publish warnings. The whole batch
/// is checked before any of it is fed: a refused frame moves nothing — not
/// the engine, not a counter, and no warning is raised only to be dropped
/// with the refusal.
fn ingest(state: &mut EngineState, records: &[Record]) -> Frame {
    let nodes = state.nodes;
    let limit_ns = state.catchup_limit_ns();
    for (i, r) in records.iter().enumerate() {
        if u32::from(r.node) >= nodes || u32::from(r.src) >= nodes || u32::from(r.dst) >= nodes {
            return Frame::Error(format!("record {i}: switch id out of range"));
        }
        if r.at_ns > limit_ns {
            return state.refuse_catchup(r.at_ns, limit_ns);
        }
    }
    let mut raised = Vec::new();
    for r in records {
        raised.extend(state.engine.ingest(&flow_record(r)));
    }
    let count = u64::try_from(records.len()).unwrap_or(u64::MAX);
    state.ingested += count;
    state.ingested_ctr.add(count);
    let warnings = state.publish(&raised);
    Frame::IngestAck {
        count: u32::try_from(records.len()).unwrap_or(u32::MAX),
        warnings,
    }
}

/// Register one client-defined flow with every monitor on its path.
fn register_flow(
    state: &mut EngineState,
    id: u32,
    rtt_ms: f64,
    nodes: &[u16],
    links: &[u16],
) -> Frame {
    // Every monitor on the path indexes its flow table by id: an unbounded
    // one would size that index, and `id = u32::MAX` would abort the daemon
    // on the allocation.
    if id as usize >= MAX_FLOWS {
        state.flowdef_refused_ctr.inc();
        return Frame::Error(format!(
            "flow id {id} is past the limit of {MAX_FLOWS} flows"
        ));
    }
    if nodes.is_empty() || links.len() + 1 != nodes.len() {
        return Frame::Error("flow path needs n nodes and n-1 links".into());
    }
    if nodes.iter().any(|&n| u32::from(n) >= state.nodes)
        || links.iter().any(|&l| u32::from(l) >= state.links)
    {
        return Frame::Error("flow path id out of range".into());
    }
    if !(rtt_ms.is_finite() && rtt_ms > 0.0) {
        return Frame::Error(format!("bad rtt {rtt_ms}"));
    }
    let path = Path {
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        links: links.iter().map(|&l| LinkId(l)).collect(),
    };
    let spec = FlowSpec {
        id: FlowId(id),
        src: path.nodes[0],
        dst: *path.nodes.last().expect("non-empty path"),
        path,
        start: SimTime::ZERO,
        total_bytes: 0,
        ppbp: PpbpParams::default(),
        rtt_ms,
    };
    state.engine.register_flow(&spec);
    state.stats()
}

/// How long a scrape client has to deliver its request head, and each write
/// of the reply has to drain. Every scrape runs on a thread of its own; a
/// peer that connects and then says nothing, or never reads, would hold
/// that thread for the life of the process.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Answer one Prometheus scrape: drain the request head, reply `200` with
/// the registry in text exposition format. Std-only — no HTTP library.
/// `Err(TimedOut | WouldBlock)` when the peer outlasts [`SCRAPE_TIMEOUT`];
/// the caller drops the connection.
fn answer_scrape(stream: &mut TcpStream, reg: &MetricsRegistry) -> io::Result<()> {
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        // The deadline covers the whole head, not each read, so a peer
        // dripping one byte per read gains nothing.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        let blank =
            head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n");
        if blank || head.len() > 64 * 1024 {
            break;
        }
    }
    let body = to_prometheus(&reg.snapshot());
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Accept scrapes until the daemon stops (one short-lived thread each).
fn prom_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let shared = shared.clone();
        thread::spawn(move || {
            if let Err(e) = answer_scrape(&mut stream, &shared.reg) {
                eprintln!("serve: scrape failed: {e}");
            }
        });
    }
}

/// Set an accepted socket up for a session and split it into its buffered
/// halves. Replies are small writes to a peer that may be sending on a
/// schedule: under Nagle each would sit in the socket until the peer's
/// delayed ACK of the one before arrives, which it sends riding on its next
/// frame — a full send interval per reply. So `TCP_NODELAY`, as every
/// client of the daemon sets on its own end.
fn session_io(stream: &TcpStream) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    stream.set_nodelay(true)?;
    Ok((
        BufReader::new(stream.try_clone()?),
        BufWriter::new(stream.try_clone()?),
    ))
}

/// A bound daemon, ready to accept sessions.
pub struct Server {
    listener: TcpListener,
    prom: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `opts.addr` (use port 0 for an ephemeral port) and, when
    /// configured, the Prometheus scrape endpoint.
    pub fn bind(opts: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let prom = match &opts.prom_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        Ok(Server {
            listener,
            prom,
            shared: Arc::new(Shared::new(opts)),
        })
    }

    /// The bound address — the ephemeral port when bound to port 0.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The Prometheus endpoint's bound address, when configured.
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.prom.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Accept sessions (one thread each) until a client sends `Shutdown`.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        if let Some(prom) = self.prom {
            let shared = self.shared.clone();
            thread::spawn(move || prom_loop(prom, shared));
        }
        for conn in self.listener.incoming() {
            if self.shared.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    continue;
                }
            };
            let shared = self.shared.clone();
            thread::spawn(move || {
                let (mut input, mut out) = match session_io(&stream) {
                    Ok(halves) => halves,
                    Err(e) => {
                        eprintln!("serve: connection set-up failed: {e}");
                        return;
                    }
                };
                match session(&mut input, &mut out, &shared, Some(&stream)) {
                    Ok(SessionEnd::Shutdown) => {
                        // Nudge the accept loop so it observes `stopping`.
                        let _ = TcpStream::connect(addr);
                    }
                    Ok(SessionEnd::Eof) => {}
                    Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                    Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
                    Err(e) => eprintln!("serve: session error: {e}"),
                }
            });
        }
        Ok(())
    }
}

/// Serve one session over stdin/stdout (`drift-bottle serve --stdin`):
/// frames in on stdin, frames out on stdout, warnings ride `IngestAck`.
pub fn serve_stdio(opts: &ServeOptions) -> io::Result<()> {
    let shared = Shared::new(opts);
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut out = BufWriter::new(stdout.lock());
    session(&mut input, &mut out, &shared, None).map(|_| ())
}

// Frame-size sanity shared with load_gen: a full batch of records must fit
// one frame. 4096 records × ~40 bytes ≪ 16 MiB.
const _: () = assert!(MAX_FRAME_BYTES > 4096 * 64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_topo_handles_zoo_and_families() {
        assert!(parse_topo("geant2012").is_some());
        assert!(parse_topo("grid:3x3").is_some());
        assert!(parse_topo("line:5").is_some());
        assert!(parse_topo("star:4").is_some());
        assert!(parse_topo("nonsense").is_none());
        assert!(parse_topo("grid:3").is_none());
        assert!(parse_topo("line:x").is_none());
    }

    /// Record the grid:3x3 center-link-failure trace the session tests
    /// replay: wire records, the end-of-run time, and the injected link.
    fn record_grid_trace() -> (Vec<Record>, u64, LinkId) {
        use db_core::classifier::timeline;
        use db_flowmon::WindowConfig;
        use db_netsim::{FailureScenario, SimConfig, Simulator, TraceRecorder};
        use db_topology::RouteTable;

        let topo = zoo::grid(3, 3);
        let routes = RouteTable::build(&topo);
        let traffic = TrafficConfig::with_density(1.0);
        let flows = TrafficGen::generate_auto(&topo, &routes, &traffic, 42);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let (t_fail, _, end) = timeline(&wcfg, traffic.start_spread);
        let link = topo
            .link_between(NodeId(4), NodeId(5))
            .expect("center link");
        let scenario = FailureScenario::single_link(link, t_fail);
        let cfg = SimConfig {
            end,
            tick_interval: wcfg.interval,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows, cfg, &scenario, 42, TraceRecorder::new());
        sim.run();
        let (trace, _) = sim.finish();
        let records = trace
            .observations
            .iter()
            .map(|o| Record {
                at_ns: o.at.as_ns(),
                flow: o.info.flow.0,
                src: o.info.src.0,
                dst: o.info.dst.0,
                seq: o.info.seq,
                size: o.info.size,
                node: o.info.node.0,
                hop_index: o.info.hop_index,
                is_ingress: o.info.is_ingress,
                is_last_switch: o.info.is_last_switch,
            })
            .collect();
        (records, end.as_ns(), link)
    }

    /// The `Hello` every grid session test opens with.
    fn grid_hello() -> Frame {
        Frame::Hello {
            proto: PROTO_VERSION,
            topo: "grid:3x3".into(),
            density: 1.0,
            seed: 42,
            window_cap: 0,
        }
    }

    /// End-to-end over an in-memory stdio-style session: hello on a small
    /// grid, replay a recorded center-link-failure trace, expect the failed
    /// link warned, snapshot/stats frames to behave, and a one-shot
    /// `PulseReq` to carry the flushed health series.
    #[test]
    fn stdio_session_localizes_a_grid_failure() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let (records, end_ns, link) = record_grid_trace();
        let total = records.len();

        let mut request = Vec::new();
        write_frame(&mut request, &grid_hello()).unwrap();
        for chunk in records.chunks(512) {
            write_frame(&mut request, &Frame::Records(chunk.to_vec())).unwrap();
        }
        write_frame(&mut request, &Frame::AdvanceTo { t_ns: end_ns }).unwrap();
        write_frame(&mut request, &Frame::StatsReq).unwrap();
        write_frame(&mut request, &Frame::PulseReq { from_window: 0 }).unwrap();
        write_frame(&mut request, &Frame::SnapshotReq).unwrap();

        let mut warned = Vec::new();
        let mut stats = None;
        let mut pulse = None;
        let mut snapshot_len = 0;
        let mut acks = 0u32;
        for f in stdio_frames(None, request) {
            match f {
                Frame::HelloAck { proto, nodes, .. } => {
                    assert_eq!(proto, PROTO_VERSION);
                    assert_eq!(nodes, 9);
                }
                Frame::IngestAck { warnings, .. } => {
                    acks += 1;
                    warned.extend(warnings.iter().map(|w| w.link));
                }
                Frame::Stats {
                    ingested, windows, ..
                } => stats = Some((ingested, windows)),
                Frame::Pulse(p) => pulse = Some(p),
                Frame::Snapshot(bytes) => snapshot_len = bytes.len(),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(acks >= 2, "one ack per records batch plus advance");
        let (ingested, windows) = stats.expect("stats frame");
        assert_eq!(ingested, total as u64);
        assert!(windows > 0, "windows flushed to the health series");
        assert!(snapshot_len > 0, "snapshot is non-trivial");
        assert!(
            warned.contains(&link.0),
            "injected link {link:?} warned (got {warned:?})"
        );
        let pulse = pulse.expect("pulse frame");
        assert!(!pulse.points.is_empty(), "pulse carries flushed series");
        assert_eq!(
            pulse.next_window, windows,
            "pulse cursor = flush watermark + 1"
        );
        assert_eq!(pulse.ingested, total as u64);
        let link_warn = db_telemetry::scope::SeriesKind::LinkWarnings.code();
        assert!(
            pulse
                .points
                .iter()
                .any(|p| p.kind == link_warn && p.id == link.0 && p.value > 0.0),
            "pulse carries the injected link's warning series"
        );
    }

    /// Run one in-memory session against a daemon configured with the
    /// snapshot file `snapshot`, and return every frame it answered.
    fn stdio_frames(snapshot: Option<PathBuf>, request: Vec<u8>) -> Vec<Frame> {
        let opts = ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot,
            window_cap: 0,
            prom_addr: None,
        };
        let shared = Shared::new(&opts);
        let mut out = Vec::new();
        session(&mut io::Cursor::new(request), &mut out, &shared, None).unwrap();
        let mut cur = io::Cursor::new(out);
        let mut frames = Vec::new();
        while let Some(f) = read_frame(&mut cur).unwrap() {
            frames.push(f);
        }
        frames
    }

    /// A daemon whose `--snapshot` file is a truncated copy of a valid
    /// snapshot reports "unreadable … starting fresh" and then *is* fresh:
    /// fed the grid trace, it answers frame for frame what a daemon started
    /// with no snapshot answers (a failed restore leaves no residue).
    #[test]
    fn truncated_snapshot_file_starts_the_daemon_fresh() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let (records, end_ns, link) = record_grid_trace();
        let mut request = Vec::new();
        write_frame(&mut request, &grid_hello()).unwrap();
        for chunk in records[..records.len() / 2].chunks(512) {
            write_frame(&mut request, &Frame::Records(chunk.to_vec())).unwrap();
        }
        write_frame(&mut request, &Frame::SnapshotReq).unwrap();
        let snap = match stdio_frames(None, request).pop() {
            Some(Frame::Snapshot(bytes)) => bytes,
            other => panic!("expected a snapshot, got {other:?}"),
        };
        let path =
            std::env::temp_dir().join(format!("db-serve-truncated-{}.snap", std::process::id()));
        std::fs::write(&path, &snap[..snap.len() * 2 / 3]).unwrap();

        let mut request = Vec::new();
        write_frame(&mut request, &grid_hello()).unwrap();
        for chunk in records.chunks(512) {
            write_frame(&mut request, &Frame::Records(chunk.to_vec())).unwrap();
        }
        write_frame(&mut request, &Frame::AdvanceTo { t_ns: end_ns }).unwrap();
        let fresh = stdio_frames(None, request.clone());
        let after_failed_restore = stdio_frames(Some(path.clone()), request);
        let _ = std::fs::remove_file(&path);

        assert!(
            matches!(
                fresh[0],
                Frame::HelloAck {
                    restored: false,
                    ..
                }
            ),
            "{:?}",
            fresh[0]
        );
        assert!(
            fresh
                .iter()
                .any(|f| matches!(f, Frame::IngestAck { warnings, .. }
                if warnings.iter().any(|w| w.link == link.0))),
            "the fresh daemon warns about the injected link"
        );
        assert_eq!(after_failed_restore, fresh);
    }

    /// Connect over TCP, hello, subscribe to pulses from window `from`; a
    /// background thread drains `Pulse` frames into the shared vec until
    /// the socket shuts down.
    fn pulse_client(
        addr: &str,
        from: u64,
    ) -> (TcpStream, Arc<Mutex<Vec<PulseMsg>>>, thread::JoinHandle<()>) {
        let stream = TcpStream::connect(addr).unwrap();
        let sock = stream.try_clone().unwrap();
        let mut out = BufWriter::new(stream.try_clone().unwrap());
        let mut input = BufReader::new(stream);
        write_frame(&mut out, &grid_hello()).unwrap();
        out.flush().unwrap();
        assert!(matches!(
            read_frame(&mut input).unwrap(),
            Some(Frame::HelloAck { .. })
        ));
        write_frame(&mut out, &Frame::PulseSub { from_window: from }).unwrap();
        out.flush().unwrap();
        let pulses: Arc<Mutex<Vec<PulseMsg>>> = Arc::default();
        let sink = pulses.clone();
        let handle = thread::spawn(move || {
            while let Ok(Some(f)) = read_frame(&mut input) {
                if let Frame::Pulse(p) = f {
                    lock_recover(&sink).push(p);
                }
            }
        });
        (sock, pulses, handle)
    }

    /// Bounded wait until the subscriber observes `pred`: pulses ride a
    /// per-subscriber writer thread, so delivery lags the feeder's acks.
    fn wait_for_pulses(pulses: &Mutex<Vec<PulseMsg>>, pred: impl Fn(&[PulseMsg]) -> bool) {
        for _ in 0..500 {
            if pred(&lock_recover(pulses)) {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("subscriber did not observe the expected pulses in time");
    }

    /// Drive one feeder session over TCP: records in 512-record chunks (one
    /// ack each), an optional `AdvanceTo`, then `Shutdown` — which persists
    /// the snapshot and stops the daemon.
    fn feed_and_shutdown(addr: &str, records: &[Record], advance_to: Option<u64>) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut out = BufWriter::new(stream.try_clone().unwrap());
        let mut input = BufReader::new(stream);
        write_frame(&mut out, &grid_hello()).unwrap();
        out.flush().unwrap();
        assert!(matches!(
            read_frame(&mut input).unwrap(),
            Some(Frame::HelloAck { .. })
        ));
        for chunk in records.chunks(512) {
            write_frame(&mut out, &Frame::Records(chunk.to_vec())).unwrap();
            out.flush().unwrap();
            match read_frame(&mut input).unwrap() {
                Some(Frame::IngestAck { .. }) => {}
                other => panic!("expected IngestAck, got {other:?}"),
            }
        }
        if let Some(t_ns) = advance_to {
            write_frame(&mut out, &Frame::AdvanceTo { t_ns }).unwrap();
            out.flush().unwrap();
            assert!(matches!(
                read_frame(&mut input).unwrap(),
                Some(Frame::IngestAck { .. })
            ));
        }
        write_frame(&mut out, &Frame::Shutdown).unwrap();
        out.flush().unwrap();
        assert!(matches!(read_frame(&mut input).unwrap(), Some(Frame::Bye)));
    }

    /// Snapshot/restore across a daemon restart with a pulse subscriber
    /// attached: the subscriber carries its window cursor to the new
    /// daemon, per-series window indices keep increasing strictly across
    /// the restart (no duplicated or re-delivered window), and nothing the
    /// restored daemon flushes predates the carried-over cursor.
    #[test]
    fn pulse_subscriber_survives_daemon_restart_without_duplicate_windows() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let (records, end_ns, _link) = record_grid_trace();
        let split = records.len() / 2;
        let snap_path = std::env::temp_dir().join(format!(
            "db-serve-pulse-restore-{}.snap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&snap_path);
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            snapshot: Some(snap_path.clone()),
            window_cap: 0,
            prom_addr: None,
        };

        // First daemon: subscriber from window 0, first half of the trace,
        // shutdown persists the snapshot.
        let server = Server::bind(&opts).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        thread::spawn(move || server.run().unwrap());
        let (sub1, pulses1, drain1) = pulse_client(&addr, 0);
        feed_and_shutdown(&addr, &records[..split], None);
        wait_for_pulses(&pulses1, |ps| ps.last().is_some_and(|p| p.next_window > 0));
        let _ = sub1.shutdown(std::net::Shutdown::Both);
        drain1.join().unwrap();
        let pulses1 = std::mem::take(&mut *lock_recover(&pulses1));
        let cursor = pulses1.last().map_or(0, |p| p.next_window);
        assert!(cursor > 0, "first half flushed windows");

        // Second daemon: restores the engine, subscriber resumes from the
        // carried-over cursor, second half replays.
        let server = Server::bind(&opts).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        thread::spawn(move || server.run().unwrap());
        let (sub2, pulses2, drain2) = pulse_client(&addr, cursor);
        feed_and_shutdown(&addr, &records[split..], Some(end_ns));
        wait_for_pulses(&pulses2, |ps| ps.iter().any(|p| !p.points.is_empty()));
        let _ = sub2.shutdown(std::net::Shutdown::Both);
        drain2.join().unwrap();
        let pulses2 = std::mem::take(&mut *lock_recover(&pulses2));
        let _ = std::fs::remove_file(&snap_path);
        assert!(
            pulses2.iter().any(|p| !p.points.is_empty()),
            "series continue after restore"
        );

        // Cursors never move backwards, within either daemon's stream or
        // across the restart.
        let mut prev = 0u64;
        for p in pulses1.iter().chain(pulses2.iter()) {
            assert!(p.next_window >= prev, "cursor monotone across restart");
            prev = p.next_window;
        }
        // Per-series window indices strictly increase across the restart:
        // no window is delivered twice, none arrives out of order.
        let mut seen: HashMap<(u8, u16), u64> = HashMap::new();
        for p in pulses1.iter().chain(pulses2.iter()) {
            for pt in &p.points {
                if let Some(&w) = seen.get(&(pt.kind, pt.id)) {
                    assert!(
                        pt.window > w,
                        "series ({}, {}): window {} delivered after {}",
                        pt.kind,
                        pt.id,
                        pt.window,
                        w
                    );
                }
                seen.insert((pt.kind, pt.id), pt.window);
            }
        }
        // The restored daemon's series start at or after the cursor.
        for p in &pulses2 {
            for pt in &p.points {
                assert!(pt.window >= cursor, "no re-delivery below the cursor");
            }
        }
    }

    /// A pulse subscriber that never reads must not stall another
    /// session's ingest: pulse delivery rides a per-subscriber writer
    /// thread behind a bounded queue, so the publisher never blocks on a
    /// client socket while holding the engine entry. The read timeout on
    /// the feeder turns a stalled ack into a failure instead of a hang.
    #[test]
    fn slow_pulse_subscriber_does_not_stall_another_sessions_acks() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let (records, end_ns, _link) = record_grid_trace();
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: None,
        };
        let server = Server::bind(&opts).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        thread::spawn(move || server.run().unwrap());

        // Slow client: subscribes, then never reads another byte, so its
        // socket buffers fill and its writer thread blocks mid-frame.
        let slow = TcpStream::connect(&addr).unwrap();
        {
            let mut out = BufWriter::new(slow.try_clone().unwrap());
            let mut input = BufReader::new(slow.try_clone().unwrap());
            write_frame(&mut out, &grid_hello()).unwrap();
            out.flush().unwrap();
            assert!(matches!(
                read_frame(&mut input).unwrap(),
                Some(Frame::HelloAck { .. })
            ));
            write_frame(&mut out, &Frame::PulseSub { from_window: 0 }).unwrap();
            out.flush().unwrap();
        }

        // Feeder session on the same engine: every ack must still arrive.
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut out = BufWriter::new(stream.try_clone().unwrap());
        let mut input = BufReader::new(stream);
        write_frame(&mut out, &grid_hello()).unwrap();
        out.flush().unwrap();
        assert!(matches!(
            read_frame(&mut input).unwrap(),
            Some(Frame::HelloAck { .. })
        ));
        for chunk in records.chunks(512) {
            write_frame(&mut out, &Frame::Records(chunk.to_vec())).unwrap();
            out.flush().unwrap();
            assert!(matches!(
                read_frame(&mut input).unwrap(),
                Some(Frame::IngestAck { .. })
            ));
        }
        write_frame(&mut out, &Frame::AdvanceTo { t_ns: end_ns }).unwrap();
        out.flush().unwrap();
        assert!(matches!(
            read_frame(&mut input).unwrap(),
            Some(Frame::IngestAck { .. })
        ));
        write_frame(&mut out, &Frame::StatsReq).unwrap();
        out.flush().unwrap();
        match read_frame(&mut input).unwrap() {
            Some(Frame::Stats { ingested, .. }) => {
                assert_eq!(ingested, records.len() as u64);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        write_frame(&mut out, &Frame::Shutdown).unwrap();
        out.flush().unwrap();
        assert!(matches!(read_frame(&mut input).unwrap(), Some(Frame::Bye)));
        drop(slow);
    }

    /// The per-subscriber writer queue reports Full to the publisher once
    /// a stalled client's buffers and the queue both fill — it never makes
    /// the publisher block on the client's socket.
    #[test]
    fn sub_writer_queue_fills_instead_of_blocking_the_publisher() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap(); // never read from
        let (server_side, _) = listener.accept().unwrap();
        let tx = spawn_sub_writer(server_side);
        // 512 × 256 KiB far exceeds loopback socket buffering plus the
        // 64-frame queue, so try_send must eventually report Full.
        let frame = Frame::Snapshot(vec![0u8; 256 << 10]);
        let mut rejected = 0u32;
        for _ in 0..512 {
            if tx.try_send(frame.clone()).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "publisher saw Full instead of blocking");
        drop(client);
    }

    #[test]
    fn session_rejects_records_before_hello_and_bad_switch_ids() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let opts = ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: None,
        };
        let shared = Shared::new(&opts);
        let mut request = Vec::new();
        write_frame(&mut request, &Frame::StatsReq).unwrap();
        write_frame(
            &mut request,
            &Frame::Hello {
                proto: PROTO_VERSION,
                topo: "line:3".into(),
                density: 1.0,
                seed: 1,
                window_cap: 0,
            },
        )
        .unwrap();
        write_frame(
            &mut request,
            &Frame::Records(vec![Record {
                at_ns: 1,
                flow: 0,
                src: 0,
                dst: 2,
                seq: 0,
                size: 100,
                node: 99,
                hop_index: 0,
                is_ingress: true,
                is_last_switch: false,
            }]),
        )
        .unwrap();
        let mut input = io::Cursor::new(request);
        let mut out = Vec::new();
        session(&mut input, &mut out, &shared, None).unwrap();
        let mut cur = io::Cursor::new(out);
        let mut errors = 0;
        while let Some(f) = read_frame(&mut cur).unwrap() {
            if matches!(f, Frame::Error(_)) {
                errors += 1;
            }
        }
        assert_eq!(errors, 2, "stats-before-hello and out-of-range switch");
    }

    /// A `Records` frame is all-or-nothing: one bad record at the end
    /// refuses the frame with the good prefix not ingested, not counted —
    /// by `Stats` or by the registry — and the engine byte-for-byte where
    /// it was.
    #[test]
    fn refused_records_frame_ingests_no_prefix() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let (records, _end_ns, _link) = record_grid_trace();
        let opts = ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: None,
        };
        let shared = Shared::new(&opts);
        let entry = shared.engine_for("grid:3x3", 1.0, 42, 0).unwrap();
        let mut state = lock_recover(&entry);
        let before = state.engine.snapshot();

        let mut batch = records[..3].to_vec();
        batch[2].node = 99;
        let reply = ingest(&mut state, &batch);
        assert!(matches!(reply, Frame::Error(_)), "got {reply:?}");
        match state.stats() {
            Frame::Stats { ingested, .. } => assert_eq!(ingested, 0),
            other => panic!("expected Stats, got {other:?}"),
        }
        assert_eq!(state.reg.snapshot().counter("serve.ingested"), Some(0));
        assert!(state.engine.snapshot() == before, "engine state moved");

        // The same two good records on their own are served.
        match ingest(&mut state, &batch[..2]) {
            Frame::IngestAck { count, .. } => assert_eq!(count, 2),
            other => panic!("expected IngestAck, got {other:?}"),
        }
        assert_eq!(state.reg.snapshot().counter("serve.ingested"), Some(2));
    }

    /// Session set-up turns Nagle off on the accepted socket (the subscriber
    /// writer threads clone the same socket, so they inherit it).
    #[test]
    fn accepted_sockets_are_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "the platform default is Nagle on"
        );
        let (_input, out) = session_io(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert!(out.get_ref().nodelay().unwrap());
    }

    /// What that buys: a reply does not wait for the sender's next frame. A
    /// client sends `StatsReq` every 2 ms without reading while a second
    /// thread stamps each reply. The first two frames go out back to back —
    /// a sender one frame ahead of the daemon, as any stall leaves an
    /// open-loop one — and from then on, under Nagle, reply N sits in the
    /// daemon's socket until the client's TCP acknowledges reply N−1, which
    /// it does riding on frame N+1: the median send-to-reply time is the
    /// 2 ms gap itself. With `TCP_NODELAY` it is a loopback round trip.
    /// Timed from the actual send, so a late sender thread costs nothing.
    #[test]
    fn replies_do_not_wait_for_the_senders_next_frame() {
        const FRAMES: usize = 200;
        const GAP: Duration = Duration::from_millis(2);
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: None,
        };
        let server = Server::bind(&opts).unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = thread::spawn(move || server.run().unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut out = BufWriter::new(stream.try_clone().unwrap());
        let mut input = BufReader::new(stream);
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            topo: "line:3".into(),
            density: 1.0,
            seed: 1,
            window_cap: 0,
        };
        write_frame(&mut out, &hello).unwrap();
        out.flush().unwrap();
        assert!(matches!(
            read_frame(&mut input).unwrap(),
            Some(Frame::HelloAck { .. })
        ));

        let reader = thread::spawn(move || {
            let stamps: Vec<Instant> = (0..FRAMES)
                .map(|_| match read_frame(&mut input).unwrap() {
                    Some(Frame::Stats { .. }) => Instant::now(),
                    other => panic!("expected Stats, got {other:?}"),
                })
                .collect();
            (stamps, input)
        });
        let start = Instant::now();
        let sent: Vec<Instant> = (0..FRAMES as u32)
            .map(|i| {
                if i > 1 {
                    thread::sleep((start + GAP * i).saturating_duration_since(Instant::now()));
                }
                let at = Instant::now();
                write_frame(&mut out, &Frame::StatsReq).unwrap();
                out.flush().unwrap();
                at
            })
            .collect();
        let (stamps, mut input) = reader.join().unwrap();
        let mut waits: Vec<Duration> = stamps
            .iter()
            .zip(&sent)
            .map(|(got, at)| got.saturating_duration_since(*at))
            .collect();
        waits.sort_unstable();
        let median = waits[FRAMES / 2];
        assert!(
            median < GAP / 2,
            "median send-to-reply time {median:?}: replies are paced by the sender's frames"
        );

        write_frame(&mut out, &Frame::Shutdown).unwrap();
        out.flush().unwrap();
        assert!(matches!(read_frame(&mut input).unwrap(), Some(Frame::Bye)));
        daemon.join().unwrap();
    }

    /// A frame stamped past the catch-up bound is refused, counted, and
    /// leaves the engine where it was; the same distance covered in steps
    /// within the bound is served.
    #[test]
    fn far_future_frames_are_refused_and_the_engine_stays_responsive() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let opts = ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: None,
        };
        let shared = Shared::new(&opts);
        let far_record = Record {
            at_ns: u64::MAX - 1,
            flow: 0,
            src: 0,
            dst: 2,
            seq: 0,
            size: 100,
            node: 0,
            hop_index: 0,
            is_ingress: true,
            is_last_switch: false,
        };
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            topo: "line:3".into(),
            density: 1.0,
            seed: 1,
            window_cap: 0,
        };
        let mut request = Vec::new();
        write_frame(&mut request, &hello).unwrap();
        write_frame(&mut request, &Frame::AdvanceTo { t_ns: u64::MAX }).unwrap();
        write_frame(&mut request, &Frame::Records(vec![far_record])).unwrap();
        write_frame(&mut request, &Frame::StatsReq).unwrap();
        let mut input = io::Cursor::new(request);
        let mut out = Vec::new();
        session(&mut input, &mut out, &shared, None).unwrap();

        let mut cur = io::Cursor::new(out);
        let mut interval_ns = 0;
        let mut refused = 0;
        let mut stats = None;
        while let Some(f) = read_frame(&mut cur).unwrap() {
            match f {
                Frame::HelloAck { interval_ns: i, .. } => interval_ns = i,
                Frame::Error(msg) => {
                    assert!(msg.contains("windows past the engine clock"), "{msg}");
                    refused += 1;
                }
                Frame::Stats {
                    now_ns,
                    ticks,
                    ingested,
                    ..
                } => stats = Some((now_ns, ticks, ingested)),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(refused, 2, "the AdvanceTo and the Records frame");
        assert_eq!(stats, Some((0, 0, 0)), "a refused frame moves nothing");
        assert_eq!(shared.reg.counter("serve.catchup_refused").get(), 2);

        // Twice the bound: refused in one step, served in two.
        let step = MAX_CATCHUP_WINDOWS * interval_ns;
        let mut request = Vec::new();
        write_frame(&mut request, &hello).unwrap();
        write_frame(&mut request, &Frame::AdvanceTo { t_ns: 2 * step }).unwrap();
        write_frame(&mut request, &Frame::AdvanceTo { t_ns: step }).unwrap();
        write_frame(&mut request, &Frame::AdvanceTo { t_ns: 2 * step }).unwrap();
        write_frame(&mut request, &Frame::StatsReq).unwrap();
        let mut out = Vec::new();
        session(&mut io::Cursor::new(request), &mut out, &shared, None).unwrap();
        let mut cur = io::Cursor::new(out);
        let mut replies = Vec::new();
        while let Some(f) = read_frame(&mut cur).unwrap() {
            match f {
                Frame::HelloAck { .. } => {}
                Frame::Error(_) => replies.push("refused"),
                Frame::IngestAck { .. } => replies.push("served"),
                Frame::Stats { ticks, .. } => assert_eq!(ticks, 2 * MAX_CATCHUP_WINDOWS),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(replies, ["refused", "served", "served"]);
    }

    /// A `FlowDef` whose id no monitor could index is refused and counted,
    /// the frame behind it is answered, and the largest accepted id costs
    /// what [`MAX_FLOWS`] says it may.
    #[test]
    fn oversize_flowdef_is_refused_and_the_session_goes_on() {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let opts = ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: None,
        };
        let shared = Shared::new(&opts);
        let flowdef = |id| Frame::FlowDef {
            id,
            rtt_ms: 4.0,
            nodes: vec![0, 1, 2],
            links: vec![0, 1],
        };
        let mut request = Vec::new();
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            topo: "line:3".into(),
            density: 1.0,
            seed: 1,
            window_cap: 0,
        };
        write_frame(&mut request, &hello).unwrap();
        write_frame(&mut request, &flowdef(u32::MAX)).unwrap();
        write_frame(&mut request, &flowdef(MAX_FLOWS as u32)).unwrap();
        write_frame(&mut request, &flowdef(MAX_FLOWS as u32 - 1)).unwrap();
        write_frame(&mut request, &Frame::StatsReq).unwrap();
        let mut out = Vec::new();
        session(&mut io::Cursor::new(request), &mut out, &shared, None).unwrap();
        let mut cur = io::Cursor::new(out);
        let mut replies = Vec::new();
        while let Some(f) = read_frame(&mut cur).unwrap() {
            match f {
                Frame::HelloAck { .. } => {}
                Frame::Error(msg) => {
                    assert!(msg.contains("past the limit"), "{msg}");
                    replies.push("refused");
                }
                Frame::Stats { .. } => replies.push("stats"),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // An accepted FlowDef answers with Stats, as does the StatsReq.
        assert_eq!(replies, ["refused", "refused", "stats", "stats"]);
        assert_eq!(shared.reg.counter("serve.flowdef_refused").get(), 2);
    }

    /// `persist` replaces the snapshot only by renaming a complete, synced
    /// temp file over it: when the temp file cannot be written the previous
    /// snapshot stays byte-identical, and a good write leaves no temp file.
    #[test]
    fn failed_persist_leaves_the_previous_snapshot_intact() {
        let dir = std::env::temp_dir().join(format!("db-serve-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        let tmp = dir.join("engine.snap.tmp");
        let shared = Shared::new(&ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot: Some(path.clone()),
            window_cap: 0,
            prom_addr: None,
        });

        shared.persist(b"first snapshot").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first snapshot");
        assert!(!tmp.exists(), "temp file renamed away");

        // A directory squatting on the temp name fails the write for any
        // user, root included (permission bits would not stop root).
        std::fs::create_dir(&tmp).unwrap();
        assert!(shared.persist(b"second snapshot, never lands").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"first snapshot");

        std::fs::remove_dir(&tmp).unwrap();
        shared.persist(b"third").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"third");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A scrape client that connects and sends nothing is dropped by the
    /// daemon within [`SCRAPE_TIMEOUT`] instead of pinning its thread for
    /// good, and does not stand in the way of a well-behaved scrape.
    #[test]
    fn a_silent_scrape_client_is_dropped_and_blocks_nobody() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(Shared::new(&ServeOptions {
            addr: DEFAULT_ADDR.into(),
            snapshot: None,
            window_cap: 0,
            prom_addr: Some(addr.to_string()),
        }));
        let endpoint = {
            let shared = shared.clone();
            thread::spawn(move || prom_loop(listener, shared))
        };

        let opened = Instant::now();
        let mut silent = TcpStream::connect(addr).unwrap();
        let bound = SCRAPE_TIMEOUT + Duration::from_secs(3);
        silent.set_read_timeout(Some(bound)).unwrap();

        let mut scrape = TcpStream::connect(addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        scrape.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got {reply:?}");
        assert!(
            opened.elapsed() < SCRAPE_TIMEOUT,
            "the scrape waited out the silent peer"
        );

        // End of stream (or a reset), not this side's own read timeout.
        match silent.read(&mut [0u8; 16]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("daemon kept the silent connection open: {other:?}"),
        }
        assert!(opened.elapsed() < bound);

        shared.stopping.store(true, Ordering::SeqCst);
        TcpStream::connect(addr).unwrap(); // nudge the accept loop
        endpoint.join().unwrap();
    }
}
