//! The engine registry: one [`Engine`] per topology spec, built on the
//! first `Hello` that names it and shared by every session after, with the
//! per-engine bookkeeping — counters, the warning and pulse publishers —
//! and snapshot persistence.

use crate::frame::{write_frame, Frame, PulseMsg, PulsePoint, WarningMsg, PROTO_VERSION};
use crate::server::ServeOptions;
use db_core::{prepare, Engine, PrepareConfig, SystemConfig, VariantSpec, Warning};
use db_core::{DriftBottleSystem, RestoreError};
use db_dtree::TableClassifier;
use db_netsim::{SimTime, TrafficConfig, TrafficGen};
use db_telemetry::scope::{ScopeMeta, ScopePoint, ScopeRecorder};
use db_telemetry::{Counter, Histogram, MetricsRegistry};
use db_topology::{zoo, Topology};
use db_util::sync::lock_recover;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var("DB_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Build the topology named by a `Hello` spec: a zoo name (`geant2012`,
/// `chinanet`, `tinet`, `as1221`, `figure1`, `figure5`) or a parameterized
/// family (`grid:WxH`, `line:N`, `star:N`) of 2 to 65 535 switches.
///
/// The spec arrives in a `Hello` frame, so a family is sized with checked
/// arithmetic before anything is built: `zoo`'s constructors assert on a
/// zero dimension and format every node label before finding the `u16` id
/// space exceeded, and a single switch routes no flow to train on.
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
    // `w`×`h` for a grid; a line is a grid one switch high, a star `w` leaves.
    let (w, h): (usize, usize) = match arg.split_once('x') {
        Some((w, h)) if family == "grid" => (w.parse().ok()?, h.parse().ok()?),
        None if family == "line" || family == "star" => (arg.parse().ok()?, 1),
        _ => return None,
    };
    let (nodes, links) = if family == "star" {
        (w.checked_add(1)?, w)
    } else {
        let across = w.checked_sub(1)?.checked_mul(h)?;
        let down = h.checked_sub(1)?.checked_mul(w)?;
        (w.checked_mul(h)?, across.checked_add(down)?)
    };
    if nodes < 2 || nodes.max(links) > usize::from(u16::MAX) {
        return None;
    }
    Some(match family {
        "grid" => zoo::grid(w, h),
        "line" => zoo::line(w),
        _ => zoo::star(w),
    })
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
pub(crate) fn spawn_sub_writer(stream: TcpStream) -> mpsc::SyncSender<Frame> {
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
pub(crate) struct PulseSub {
    pub(crate) tx: mpsc::SyncSender<Frame>,
    pub(crate) cursor: u64,
}

/// One engine and its bookkeeping, shared by every session on its topology.
pub(crate) struct EngineState {
    pub(crate) engine: Engine<TableClassifier>,
    pub(crate) nodes: u32,
    pub(crate) links: u32,
    interval_ns: u64,
    restored: bool,
    pub(crate) ingested: u64,
    warned: u64,
    /// Slow-tick watchdog: batches whose wall-clock handling exceeded one
    /// monitoring interval.
    slow_ticks: u64,
    /// Live-warning subscribers (TCP sessions only), as writer-thread
    /// queues: warnings to a full queue are shed (counted in
    /// `serve.sub_dropped`), not waited on.
    pub(crate) subscribers: Vec<mpsc::SyncSender<Frame>>,
    /// Pulse subscribers, each with its own window cursor.
    pub(crate) pulse_subs: Vec<PulseSub>,
    /// The engine's health-series recorder (always attached by `build`).
    scope: Arc<ScopeRecorder>,
    /// Scratch buffer for pulse extraction, reused across batches.
    point_buf: Vec<ScopePoint>,
    /// Daemon metrics: registry plus pre-registered hot handles.
    pub(crate) reg: Arc<MetricsRegistry>,
    pub(crate) ingested_ctr: Counter,
    warned_ctr: Counter,
    slow_ctr: Counter,
    /// Warning frames shed because a subscriber's queue was full.
    sub_dropped_ctr: Counter,
    /// Frames refused for reaching past [`MAX_CATCHUP_WINDOWS`].
    catchup_refused_ctr: Counter,
    /// `FlowDef` frames refused for an id at or past [`MAX_FLOWS`].
    pub(crate) flowdef_refused_ctr: Counter,
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
pub(crate) const MAX_CATCHUP_WINDOWS: u64 = 1024;

/// Ingest-batch latency bucket bounds, microseconds.
const BATCH_LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

impl EngineState {
    pub(crate) fn hello_ack(&self) -> Frame {
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
    pub(crate) fn catchup_limit_ns(&self) -> u64 {
        let ahead = self.interval_ns.saturating_mul(MAX_CATCHUP_WINDOWS);
        self.engine.now().as_ns().saturating_add(ahead)
    }

    /// Count and word the refusal of a frame stamped past `limit_ns`.
    pub(crate) fn refuse_catchup(&self, t_ns: u64, limit_ns: u64) -> Frame {
        self.catchup_refused_ctr.inc();
        Frame::Error(format!(
            "timestamp {t_ns} ns is more than {MAX_CATCHUP_WINDOWS} windows past the engine \
             clock (limit {limit_ns} ns): advance in smaller steps"
        ))
    }

    pub(crate) fn stats(&self) -> Frame {
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
    pub(crate) fn pulse_msg(&mut self, from: u64) -> PulseMsg {
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
    pub(crate) fn pulse_publish(&mut self) {
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
    pub(crate) fn observe_batch(&mut self, elapsed: Duration) {
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
    pub(crate) fn publish(&mut self, raised: &[Warning]) -> Vec<WarningMsg> {
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

/// Cross-session daemon state.
pub(crate) struct Shared {
    /// One engine per topology spec, created on first `Hello`.
    engines: Mutex<HashMap<String, Arc<Mutex<EngineState>>>>,
    pub(crate) snapshot: Option<PathBuf>,
    /// Held across one snapshot file write (see [`Shared::persist`]).
    persist_lock: Mutex<()>,
    pub(crate) stopping: AtomicBool,
    /// Daemon-wide metrics, served by the Prometheus endpoint.
    pub(crate) reg: Arc<MetricsRegistry>,
}

impl Shared {
    pub(crate) fn new(opts: &ServeOptions) -> Self {
        Shared {
            engines: Mutex::new(HashMap::new()),
            snapshot: opts.snapshot.clone(),
            persist_lock: Mutex::new(()),
            stopping: AtomicBool::new(false),
            reg: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Get or build the engine for `topo`. Building trains the classifier,
    /// so the first `Hello` per topology is slow by design; the engines map
    /// stays locked meanwhile so concurrent Hellos share the one build.
    pub(crate) fn engine_for(
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
        if window_cap > 0 {
            engine.set_retention(window_cap);
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
    pub(crate) fn persist(&self, bytes: &[u8]) -> io::Result<()> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::opts;

    /// Zoo names and families parse; a family is sized before it is built,
    /// so under 2 switches or past the `u16` id space (nodes or links) is
    /// no topology, whatever the product overflows to.
    #[test]
    fn parse_topo_handles_zoo_and_families() {
        for spec in "geant2012 grid:3x3 line:5 star:4 star:1 line:2 grid:1x2 line:65535".split(' ')
        {
            assert!(parse_topo(spec).is_some(), "{spec}");
        }
        let huge = format!("grid:{}x2", usize::MAX / 2 + 1);
        let bad =
            "nonsense grid:3 line:x line:3x3 line:0 line:1 star:0 grid:0x3 grid:3x0 grid:1x1 \
                   line:65536 star:65535 line:4000000000 grid:256x256 grid:200x200";
        for spec in bad.split_whitespace().chain([&huge[..]]) {
            assert!(parse_topo(spec).is_none(), "{spec}");
        }
        assert_eq!(parse_topo("star:1").map(|t| t.node_count()), Some(2));
    }

    /// The per-subscriber writer queue reports Full to the publisher once
    /// a stalled client's buffers and the queue both fill — it never makes
    /// the publisher block on the client's socket.
    #[test]
    fn sub_writer_queue_fills_instead_of_blocking_the_publisher() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap(); // never read from
        let (server_side, _) = listener.accept().unwrap();
        let tx = spawn_sub_writer(server_side);
        // 512 × 256 KiB far exceeds loopback socket buffering plus the
        // 64-frame queue, so try_send must eventually report Full.
        let frame = Frame::Snapshot(vec![0u8; 256 << 10]);
        let rejected = (0..512).filter(|_| tx.try_send(frame.clone()).is_err());
        assert!(
            rejected.count() > 0,
            "publisher saw Full instead of blocking"
        );
        drop(client);
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
            snapshot: Some(path.clone()),
            ..opts()
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
}
