//! The daemon's listener and session loop: TCP (or stdio) sessions speaking
//! the [`crate::frame`] protocol against one shared engine per topology
//! (the `registry` module).
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

use crate::frame::{read_frame, write_frame, Frame, Record, MAX_FRAME_BYTES, PROTO_VERSION};
use crate::prom::prom_loop;
use crate::registry::{spawn_sub_writer, EngineState, PulseSub, Shared};
use db_core::FlowRecord;
use db_flowmon::MAX_FLOWS;
use db_netsim::{FlowId, FlowSpec, HopInfo, Observation, PpbpParams, SimTime};
use db_topology::{LinkId, NodeId, Path};
use db_util::sync::lock_recover;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Listen address when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// Daemon configuration, resolved from CLI flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Snapshot file: restored at engine build, written on
    /// `SnapshotReq`/`Shutdown`.
    pub snapshot: Option<PathBuf>,
    /// Bind a std-only HTTP scrape endpoint serving the daemon's metrics
    /// in Prometheus text format (`None` = no endpoint).
    pub prom_addr: Option<String>,
}

/// The wire form of a recorded [`Observation`]; [`flow_record`] inverts it.
impl From<&Observation> for Record {
    fn from(o: &Observation) -> Record {
        Record {
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
        }
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
/// windows without end), feed the engine, publish warnings. Each record is
/// checked as it is converted into the state's reused frame buffer, and
/// the whole batch before any of it is fed: a refused frame moves nothing —
/// not the engine, not a counter, and no warning is raised only to be
/// dropped with the refusal.
fn ingest(state: &mut EngineState, records: &[Record]) -> Frame {
    let nodes = state.nodes;
    let limit_ns = state.catchup_limit_ns();
    state.frame.clear();
    for (i, r) in records.iter().enumerate() {
        if u32::from(r.node) >= nodes || u32::from(r.src) >= nodes || u32::from(r.dst) >= nodes {
            return Frame::Error(format!("record {i}: switch id out of range"));
        }
        if r.at_ns > limit_ns {
            return state.refuse_catchup(r.at_ns, limit_ns);
        }
        state.frame.push(flow_record(r));
    }
    let raised = state.engine.ingest_batch(&state.frame);
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
pub(crate) mod tests {
    use super::*;
    use crate::client::Client;
    use crate::frame::PulseMsg;
    use crate::registry::MAX_CATCHUP_WINDOWS;
    use crate::replay::{pulses_in_order, record_failure};
    use db_topology::zoo;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A test daemon's options: an ephemeral loopback port and nothing else
    /// on. A test names the field it varies with struct-update syntax.
    pub(crate) fn opts() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            snapshot: None,
            prom_addr: None,
        }
    }

    /// Start a daemon (engine-build training kept small) and return its
    /// address and its thread.
    pub(crate) fn spawn_daemon(opts: &ServeOptions) -> (String, thread::JoinHandle<()>) {
        std::env::set_var("DB_SMOKE", "1");
        let server = Server::bind(opts).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        (addr, thread::spawn(move || server.run().unwrap()))
    }

    fn hello(topo: &str, seed: u64) -> Frame {
        Frame::Hello {
            proto: PROTO_VERSION,
            topo: topo.into(),
            density: 1.0,
            seed,
            window_cap: 0,
        }
    }

    /// The `Hello` every grid session opens with.
    fn grid_hello() -> Frame {
        hello("grid:3x3", 42)
    }

    /// A connection attached to the daemon's grid engine.
    fn grid_client(addr: &str) -> Client {
        let mut client = Client::connect(addr).unwrap();
        client.hello("grid:3x3", 1.0, 42, 0).unwrap();
        client
    }

    /// Run one in-memory stdio-style session on `shared` and return every
    /// frame `request` was answered with.
    fn answers(shared: &Shared, request: &[Frame]) -> Vec<Frame> {
        std::env::set_var("DB_SMOKE", "1"); // keep engine-build training small
        let mut bytes = Vec::new();
        for frame in request {
            write_frame(&mut bytes, frame).unwrap();
        }
        let mut out = Vec::new();
        session(&mut io::Cursor::new(bytes), &mut out, shared, None).unwrap();
        let mut cur = io::Cursor::new(out);
        std::iter::from_fn(|| read_frame(&mut cur).unwrap()).collect()
    }

    fn chunked(records: &[Record]) -> impl Iterator<Item = Frame> + '_ {
        records.chunks(512).map(|c| Frame::Records(c.to_vec()))
    }

    /// Record the grid:3x3 center-link-failure trace the session tests
    /// replay: wire records, the end-of-run time, and the injected link.
    fn record_grid_trace() -> (Vec<Record>, u64, LinkId) {
        let topo = zoo::grid(3, 3);
        let center = topo.link_between(NodeId(4), NodeId(5));
        let trace = record_failure(&topo, 42, |_| center.expect("center link"));
        (trace.records, trace.end_ns, trace.link)
    }

    /// Trace → wire → engine input is the direct trace → engine input, with
    /// every field distinct so a swapped pair shows.
    #[test]
    fn record_conversions_round_trip() {
        for (is_ingress, is_last_switch) in [(true, false), (false, true)] {
            let o = Observation {
                at: SimTime::from_ns(1),
                info: HopInfo {
                    flow: FlowId(2),
                    src: NodeId(3),
                    dst: NodeId(4),
                    seq: 5,
                    size: 6,
                    node: NodeId(7),
                    hop_index: 8,
                    is_ingress,
                    is_last_switch,
                },
            };
            assert_eq!(flow_record(&Record::from(&o)), FlowRecord::from(o));
        }
    }

    /// End-to-end over an in-memory stdio-style session: hello on a small
    /// grid, replay a recorded center-link-failure trace, expect the failed
    /// link warned, snapshot/stats frames to behave, and a one-shot
    /// `PulseReq` to carry the flushed health series.
    #[test]
    fn stdio_session_localizes_a_grid_failure() {
        let (records, end_ns, link) = record_grid_trace();
        let total = records.len();
        let mut request = vec![grid_hello()];
        request.extend(chunked(&records));
        request.extend([
            Frame::AdvanceTo { t_ns: end_ns },
            Frame::StatsReq,
            Frame::PulseReq { from_window: 0 },
            Frame::SnapshotReq,
        ]);

        let mut warned = Vec::new();
        let mut stats = None;
        let mut pulse = None;
        let mut snapshot_len = 0;
        let mut acks = 0u32;
        for f in answers(&Shared::new(&opts()), &request) {
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

    /// A daemon whose `--snapshot` file is a truncated copy of a valid
    /// snapshot reports "unreadable … starting fresh" and then *is* fresh:
    /// fed the grid trace, it answers frame for frame what a daemon started
    /// with no snapshot answers (a failed restore leaves no residue).
    #[test]
    fn truncated_snapshot_file_starts_the_daemon_fresh() {
        let (records, end_ns, link) = record_grid_trace();
        let mut request = vec![grid_hello()];
        request.extend(chunked(&records[..records.len() / 2]));
        request.push(Frame::SnapshotReq);
        let snap = match answers(&Shared::new(&opts()), &request).pop() {
            Some(Frame::Snapshot(bytes)) => bytes,
            other => panic!("expected a snapshot, got {other:?}"),
        };
        let path =
            std::env::temp_dir().join(format!("db-serve-truncated-{}.snap", std::process::id()));
        std::fs::write(&path, &snap[..snap.len() * 2 / 3]).unwrap();

        let mut request = vec![grid_hello()];
        request.extend(chunked(&records));
        request.push(Frame::AdvanceTo { t_ns: end_ns });
        let fresh = answers(&Shared::new(&opts()), &request);
        let with_snapshot = ServeOptions {
            snapshot: Some(path.clone()),
            ..opts()
        };
        let after_failed_restore = answers(&Shared::new(&with_snapshot), &request);
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

    /// Every `Hello` naming a family `zoo` cannot build — or the trainer
    /// cannot train on — is answered with an `Error`, not a panic, and the
    /// session goes on to serve a good one.
    #[test]
    fn degenerate_topology_specs_are_refused_and_the_session_goes_on() {
        let bad = [
            "line:0",
            "grid:0x3",
            "line:1",
            "line:70000",
            "line:4000000000",
        ];
        let mut request: Vec<Frame> = bad.iter().map(|spec| hello(spec, 1)).collect();
        request.push(hello("star:1", 1));
        let replies = answers(&Shared::new(&opts()), &request);
        assert_eq!(replies.len(), bad.len() + 1);
        for (spec, reply) in bad.iter().zip(&replies) {
            assert!(
                matches!(reply, Frame::Error(msg) if msg.contains("unknown topology")),
                "{spec}: {reply:?}"
            );
        }
        assert!(
            matches!(replies[bad.len()], Frame::HelloAck { nodes: 2, .. }),
            "{:?}",
            replies[bad.len()]
        );
    }

    /// Pulses off `rx` until `pred` holds of everything received so far:
    /// they ride a per-subscriber writer thread, so delivery lags the
    /// feeder's acks.
    fn pulses_until(
        rx: &mpsc::Receiver<PulseMsg>,
        pred: impl Fn(&[PulseMsg]) -> bool,
    ) -> Vec<PulseMsg> {
        let mut got = Vec::new();
        while !pred(&got) {
            let pulse = rx.recv_timeout(Duration::from_secs(5));
            got.push(pulse.expect("subscriber did not observe the expected pulses in time"));
        }
        got
    }

    /// Feed `records` in 512-record chunks (one ack each), then an optional
    /// `AdvanceTo`.
    fn feed(client: &mut Client, records: &[Record], advance_to: Option<u64>) {
        let advance = advance_to.map(|t_ns| Frame::AdvanceTo { t_ns });
        for frame in chunked(records).chain(advance) {
            match client.request(&frame).unwrap() {
                Frame::IngestAck { .. } => {}
                other => panic!("expected IngestAck, got {other:?}"),
            }
        }
    }

    /// `Shutdown` persists the snapshot and stops the daemon.
    fn shut_down(client: &mut Client) {
        assert_eq!(client.request(&Frame::Shutdown).unwrap(), Frame::Bye);
    }

    /// Snapshot/restore across a daemon restart with a pulse subscriber
    /// attached: the subscriber carries its window cursor to the new
    /// daemon, per-series window indices keep increasing strictly across
    /// the restart (no duplicated or re-delivered window), and nothing the
    /// restored daemon flushes predates the carried-over cursor.
    #[test]
    fn pulse_subscriber_survives_daemon_restart_without_duplicate_windows() {
        let (records, end_ns, _link) = record_grid_trace();
        let split = records.len() / 2;
        let snap_name = format!("db-serve-pulse-restore-{}.snap", std::process::id());
        let snap_path = std::env::temp_dir().join(snap_name);
        let _ = std::fs::remove_file(&snap_path);
        let opts = ServeOptions {
            snapshot: Some(snap_path.clone()),
            ..opts()
        };
        // One daemon's life: a subscriber from window `from`, a feeder
        // session ending in `Shutdown`, and every pulse the subscriber got
        // once `pred` held of them.
        let run = |from, records: &[Record], advance_to, pred: fn(&[PulseMsg]) -> bool| {
            let (addr, _daemon) = spawn_daemon(&opts);
            let (sub, rx) = grid_client(&addr).pulse_sub(from).unwrap();
            let mut feeder = grid_client(&addr);
            feed(&mut feeder, records, advance_to);
            shut_down(&mut feeder);
            let mut pulses = pulses_until(&rx, pred);
            let _ = sub.shutdown(std::net::Shutdown::Both);
            pulses.extend(rx.iter());
            pulses
        };

        // First daemon: subscriber from window 0, first half of the trace,
        // shutdown persists the snapshot.
        let pulses1 = run(0, &records[..split], None, |ps| {
            ps.last().is_some_and(|p| p.next_window > 0)
        });
        let cursor = pulses1.last().map_or(0, |p| p.next_window);
        assert!(cursor > 0, "first half flushed windows");

        // Second daemon: restores the engine, subscriber resumes from the
        // carried-over cursor, second half replays.
        let pulses2 = run(cursor, &records[split..], Some(end_ns), |ps| {
            ps.iter().any(|p| !p.points.is_empty())
        });
        let _ = std::fs::remove_file(&snap_path);

        // Cursors never move backwards, within either daemon's stream or
        // across the restart, and per-series window indices strictly
        // increase: no window is delivered twice, none out of order.
        let all = pulses1.iter().chain(&pulses2);
        assert!(pulses_in_order(all), "{pulses1:?} then {pulses2:?}");
        // The restored daemon's series start at or after the cursor.
        let mut points2 = pulses2.iter().flat_map(|p| &p.points);
        let resumed = points2.all(|pt| pt.window >= cursor);
        assert!(resumed, "no re-delivery below the cursor");
    }

    /// A pulse subscriber that never reads must not stall another
    /// session's ingest: pulse delivery rides a per-subscriber writer
    /// thread behind a bounded queue, so the publisher never blocks on a
    /// client socket while holding the engine entry. The read timeout on
    /// the feeder turns a stalled ack into a failure instead of a hang.
    #[test]
    fn slow_pulse_subscriber_does_not_stall_another_sessions_acks() {
        let (records, end_ns, _link) = record_grid_trace();
        let (addr, _daemon) = spawn_daemon(&opts());

        // Slow client: subscribes, then never reads another byte, so its
        // socket buffers fill and its writer thread blocks mid-frame.
        let mut slow = grid_client(&addr);
        slow.send(&Frame::PulseSub { from_window: 0 }).unwrap();
        slow.flush().unwrap();

        // Feeder session on the same engine: every ack must still arrive.
        let mut feeder = grid_client(&addr);
        let patience = Some(Duration::from_secs(30));
        feeder.socket().set_read_timeout(patience).unwrap();
        feed(&mut feeder, &records, Some(end_ns));
        match feeder.request(&Frame::StatsReq).unwrap() {
            Frame::Stats { ingested, .. } => assert_eq!(ingested, records.len() as u64),
            other => panic!("expected Stats, got {other:?}"),
        }
        shut_down(&mut feeder);
        drop(slow);
    }

    #[test]
    fn session_rejects_records_before_hello_and_bad_switch_ids() {
        let request = [
            Frame::StatsReq,
            hello("line:3", 1),
            Frame::Records(vec![Record {
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
        ];
        let mut errors = 0;
        for f in answers(&Shared::new(&opts()), &request) {
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
        let shared = Shared::new(&opts());
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
        let (addr, daemon) = spawn_daemon(&opts());
        let mut client = Client::connect(&addr).unwrap();
        client.hello("line:3", 1.0, 1, 0).unwrap();
        let (_sock, mut input, mut out) = client.into_parts();

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
        let shared = Shared::new(&opts());
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
        let request = [
            hello("line:3", 1),
            Frame::AdvanceTo { t_ns: u64::MAX },
            Frame::Records(vec![far_record]),
            Frame::StatsReq,
        ];
        let mut interval_ns = 0;
        let mut refused = 0;
        let mut stats = None;
        for f in answers(&shared, &request) {
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
        let request = [
            hello("line:3", 1),
            Frame::AdvanceTo { t_ns: 2 * step },
            Frame::AdvanceTo { t_ns: step },
            Frame::AdvanceTo { t_ns: 2 * step },
            Frame::StatsReq,
        ];
        let mut replies = Vec::new();
        for f in answers(&shared, &request) {
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
        let shared = Shared::new(&opts());
        let flowdef = |id| Frame::FlowDef {
            id,
            rtt_ms: 4.0,
            nodes: vec![0, 1, 2],
            links: vec![0, 1],
        };
        let request = [
            hello("line:3", 1),
            flowdef(u32::MAX),
            flowdef(MAX_FLOWS as u32),
            flowdef(MAX_FLOWS as u32 - 1),
            Frame::StatsReq,
        ];
        let mut replies = Vec::new();
        for f in answers(&shared, &request) {
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
}
