//! The two serve workloads: the recorded Geant2012 busiest-link-failure
//! trace replayed against a real `drift-bottle serve` child over one
//! loopback TCP connection, closed loop (capacity) or open loop at a fixed
//! rate (latency at a quarter of capacity).
//!
//! One process, two threads: the sender (this thread) and the ack reader.
//! They share nothing but a channel — the sender owns the send/due times,
//! the reader owns the ack times and the warnings, and the two are joined
//! after the run.

use crate::daemon::{Conn, Daemon, EngineFacts};
use crate::pacing::Schedule;
use crate::workload::{EndToEnd, Outcome, RunCfg, SETUP_REPEATS};
use crate::{stats, sys};
use db_core::classifier::timeline;
use db_core::{
    prepare, DriftBottleSystem, Engine, FlowRecord, PrepareConfig, Prepared, SystemConfig,
    VariantSpec,
};
use db_dtree::TableClassifier;
use db_netsim::{
    FailureScenario, FlowSpec, SimConfig, SimTime, Simulator, TraceRecorder, TrafficConfig,
    TrafficGen,
};
use db_serve::server::flow_record;
use db_serve::{encode_frame, read_frame, Frame, Record};
use db_telemetry::scope::{ScopeMeta, ScopeRecorder};
use db_topology::LinkId;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flow density of the replayed workload.
pub const DENSITY: f64 = 1.0;
/// Carrier retention the client asks for, in monitoring windows.
pub const WINDOW_CAP: u32 = 8;
/// Records per frame in the closed loop: large, so per-batch transport cost
/// is amortised and the engine thread is the bottleneck.
pub const CLOSED_BATCH: usize = 2048;
/// Batches in flight in the closed loop: one being ingested and seven
/// queued behind it, so the engine never waits for the generator. (Two
/// 8192-record frames, as first sized, do not fit the loopback socket
/// buffer: the daemon idled while a frame arrived.)
pub const CLOSED_IN_FLIGHT: usize = 8;
/// Records per frame in the open loop: small, so per-batch fixed costs are
/// the larger share.
pub const PACED_BATCH: usize = 256;
/// Offered load of the open loop, records per second (about a quarter of
/// the closed-loop capacity on the sandbox).
pub const PACED_RATE: f64 = 200_000.0;
/// A run is marked `generator_limited` when the generator's own lateness
/// (p99) exceeds this…
pub const GEN_LATE_P99_LIMIT_US: f64 = 1000.0;
/// …or when its sender thread was busy for more than this share of the
/// run, which also fails the run.
pub const GEN_BUSY_LIMIT: f64 = 0.5;
/// Slices a pass is cut into for the steady-rate estimate: the trace's
/// healthy and failed phases cost differently per record, so a slice is only
/// compared with the same slice of other passes.
pub const PASS_SLICES: usize = 16;

/// Which loop drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Closed loop, [`CLOSED_IN_FLIGHT`] batches of [`CLOSED_BATCH`].
    Closed,
    /// Open loop at [`PACED_RATE`] in [`PACED_BATCH`]-record frames.
    Paced,
}

impl Mode {
    /// Records per frame.
    pub fn batch(self) -> usize {
        match self {
            Mode::Closed => CLOSED_BATCH,
            Mode::Paced => PACED_BATCH,
        }
    }

    /// Share of `attempted` batches acknowledged within the mode's latency
    /// limit. Paced: one monitoring interval from the due time, the
    /// daemon's own "cannot keep up" criterion, by
    /// [`stats::steady_share_within`] — a host burst makes every batch due
    /// during it late, so the plain share counts bursts. Closed: the system
    /// defines no limit (a batch's latency there is the backlog of
    /// [`CLOSED_IN_FLIGHT`] batches by design), so it is the run's own
    /// [`stats::stall_limit`] and the share counts batches that hit a
    /// stall.
    pub fn within_limit_share(self, interval_ns: u64, latency_us: &[f64], attempted: usize) -> f64 {
        match self {
            Mode::Closed => {
                stats::share_within(latency_us, stats::stall_limit(latency_us), attempted)
            }
            Mode::Paced => {
                stats::steady_share_within(latency_us, interval_ns as f64 / 1e3, attempted)
            }
        }
    }
}

/// The topology the serve workloads replay (`--smoke` shrinks it).
pub fn topo_spec(smoke: bool) -> &'static str {
    if smoke {
        "grid:3x3"
    } else {
        "geant2012"
    }
}

/// The recorded trace one pass replays.
pub struct Trace {
    /// Switch-level observations in time order, as the wire carries them.
    pub records: Vec<Record>,
    /// The same observations as the engine takes them.
    pub flow_records: Vec<FlowRecord>,
    /// The monitored flow set (the daemon regenerates the same one from
    /// `Hello { density, seed }`).
    pub flows: Vec<FlowSpec>,
    /// The injected failed link.
    pub link: LinkId,
    /// Failure injection time within a pass, nanoseconds.
    pub t_fail_ns: u64,
    /// Timestamp rebase from one pass to the next, nanoseconds.
    pub period_ns: u64,
    /// Monitoring interval, nanoseconds.
    pub interval_ns: u64,
    /// Simulator events behind the trace (netsim layer).
    pub sim_events: u64,
    /// Data packets the simulated hosts sent.
    pub packets_sent: u64,
    /// Wall time of `Simulator::run`, seconds.
    pub sim_wall_s: f64,
    /// Wall time of `TrafficGen::generate_auto`, seconds.
    pub traffic_gen_s: f64,
}

/// Simulate a single-link failure once and record every packet-at-switch
/// event. The failed link is `link`, or by default the busiest link of the
/// seed's flow set; it goes down at the standard timeline point. Uses the
/// prepared topology's routes and windows, so the trace is what the
/// daemon's own engine was deployed for.
pub fn record_trace(prep: &Prepared, seed: u64, link: Option<LinkId>) -> Trace {
    let traffic = TrafficConfig::with_density(DENSITY);
    let t0 = Instant::now();
    let flows = TrafficGen::generate_auto(&prep.topo, prep.routes.as_ref(), &traffic, seed);
    let traffic_gen_s = t0.elapsed().as_secs_f64();
    let (t_fail, _, end) = timeline(&prep.wcfg, traffic.start_spread);

    let mut load = vec![0u32; prep.topo.link_count()];
    for f in &flows {
        for l in &f.path.links {
            load[l.idx()] += 1;
        }
    }
    let busiest = load
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map_or(0, |(i, _)| i);
    let link = link.unwrap_or(LinkId(u16::try_from(busiest).expect("link ids fit u16")));

    let scenario = FailureScenario::single_link(link, t_fail);
    let cfg = SimConfig {
        end,
        tick_interval: prep.wcfg.interval,
        ..Default::default()
    };
    let mut sim = Simulator::new(
        &prep.topo,
        flows.clone(),
        cfg,
        &scenario,
        seed,
        TraceRecorder::new(),
    );
    let t0 = Instant::now();
    sim.run();
    let sim_wall_s = t0.elapsed().as_secs_f64();
    let (trace, sim_stats) = sim.finish();
    let records: Vec<Record> = trace
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
    // The next pass starts two intervals past this one's end, aligned to
    // the tick so window boundaries stay regular.
    let interval_ns = prep.wcfg.interval.as_ns();
    let period_ns = (end.as_ns() / interval_ns + 2) * interval_ns;
    Trace {
        flow_records: records.iter().map(flow_record).collect(),
        records,
        flows,
        link,
        t_fail_ns: t_fail.as_ns(),
        period_ns,
        interval_ns,
        sim_events: sim_stats.events_processed,
        packets_sent: sim_stats.packets_sent,
        sim_wall_s,
        traffic_gen_s,
    }
}

impl Trace {
    /// The trace cut at the monitoring ticks: each item is a tick time and
    /// the records observed before it (and after the tick before).
    pub fn windows(&self) -> impl Iterator<Item = (SimTime, &[FlowRecord])> {
        let mut rest = &self.flow_records[..];
        let mut tick = 0;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            tick += self.interval_ns;
            let (window, after) = rest.split_at(rest.partition_point(|r| r.at.as_ns() < tick));
            rest = after;
            Some((SimTime::from_ns(tick), window))
        })
    }
}

/// Train the classifier exactly as the daemon does on its first `Hello`
/// (full size; the benchmark never asks for smoke-sized training).
pub fn prepare_like_daemon(smoke: bool) -> Prepared {
    let topo = db_serve::parse_topo(topo_spec(smoke)).expect("built-in topology spec");
    prepare(topo, &PrepareConfig::default())
}

/// Which recorders the in-process engine carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recorders {
    /// None: the bare pipeline.
    Bare,
    /// The scope recorder, as the daemon always attaches.
    Scope,
    /// Scope plus the provenance flight ring (`DB_SERVE_FLIGHT=1` in the
    /// daemon).
    ScopeFlight,
}

/// Deploy the system the way `db_serve`'s `Shared::build` does: the
/// flagship variant alone, the collection window wide open.
pub fn deploy_system(prep: &Prepared, flows: &[FlowSpec]) -> DriftBottleSystem<TableClassifier> {
    DriftBottleSystem::deploy(
        &prep.topo,
        flows,
        prep.wcfg,
        prep.table.clone(),
        vec![VariantSpec::drift_bottle()],
        SystemConfig {
            interval: prep.wcfg.interval,
            ..Default::default()
        },
        (SimTime::ZERO, SimTime::from_ns(u64::MAX)),
    )
}

/// A scope recorder that knows the network, as the daemon's does (one
/// without meta drops every feed).
pub fn scope_recorder(prep: &Prepared) -> ScopeRecorder {
    let warning = SystemConfig::default().warning;
    let rec = ScopeRecorder::default();
    rec.set_meta(ScopeMeta {
        interval_ns: prep.wcfg.interval.as_ns(),
        t_fail_ns: 0,
        total_links: u32::try_from(prep.topo.link_count()).unwrap_or(u32::MAX),
        total_switches: u32::try_from(prep.topo.node_count()).unwrap_or(u32::MAX),
        alpha: warning.alpha,
        beta: warning.beta,
        hop_min: warning.hop_min,
    });
    rec
}

/// Deploy an engine the way `Shared::build` does: same system, live
/// warnings, recorders and retention.
pub fn build_engine(
    prep: &Prepared,
    flows: &[FlowSpec],
    rec: Recorders,
) -> Engine<TableClassifier> {
    let mut engine = Engine::new(deploy_system(prep, flows));
    engine.set_live_warnings();
    if rec != Recorders::Bare {
        engine.set_scope(Arc::new(scope_recorder(prep)));
    }
    if rec == Recorders::ScopeFlight {
        engine.set_flight(
            Arc::new(db_telemetry::flight::FlightRecorder::with_default_capacity()),
            &[],
            prep.topo.link_count(),
        );
    }
    engine.set_retention(WINDOW_CAP);
    engine
}

/// The part of a warning the oracle compares.
pub type WarnKey = (u64, u16, u16);

/// One pass's frames, encoded once; later passes only patch timestamps.
pub struct PassFrames {
    /// Length-prefixed wire bytes of each frame.
    frames: Vec<Vec<u8>>,
    /// Pass-0 timestamp of every record, frame by frame.
    base_at: Vec<Vec<u64>>,
    /// Records in each frame.
    pub counts: Vec<u32>,
    /// Bytes per encoded record.
    stride: usize,
    /// Wall time of the one-off encode, nanoseconds per record.
    pub encode_ns_per_rec: f64,
}

/// Offset of the first record inside a length-prefixed `Records` frame:
/// 4-byte length, 1-byte opcode, 4-byte record count. `at_ns` is the first
/// field of a record.
const RECORDS_HEADER: usize = 4 + 1 + 4;

impl PassFrames {
    /// Encode `records` in `batch`-record frames.
    pub fn encode(records: &[Record], batch: usize) -> Self {
        let t0 = Instant::now();
        let mut frames = Vec::new();
        let mut base_at = Vec::new();
        let mut counts = Vec::new();
        let mut stride = 0;
        for chunk in records.chunks(batch) {
            let payload = encode_frame(&Frame::Records(chunk.to_vec()));
            stride = (payload.len() - (RECORDS_HEADER - 4)) / chunk.len();
            let len = u32::try_from(payload.len()).expect("frame fits u32");
            let mut wire = Vec::with_capacity(payload.len() + 4);
            wire.extend_from_slice(&len.to_be_bytes());
            wire.extend_from_slice(&payload);
            frames.push(wire);
            base_at.push(chunk.iter().map(|r| r.at_ns).collect());
            counts.push(u32::try_from(chunk.len()).expect("batch fits u32"));
        }
        let encode_ns_per_rec = t0.elapsed().as_nanos() as f64 / records.len().max(1) as f64;
        PassFrames {
            frames,
            base_at,
            counts,
            stride,
            encode_ns_per_rec,
        }
    }

    /// Frames per pass.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Rebase frame `i` to `offset_ns` in place and return its wire bytes.
    pub fn patched(&mut self, i: usize, offset_ns: u64) -> &[u8] {
        let frame = &mut self.frames[i];
        for (k, &at) in self.base_at[i].iter().enumerate() {
            let p = RECORDS_HEADER + k * self.stride;
            frame[p..p + 8].copy_from_slice(&(at + offset_ns).to_be_bytes());
        }
        frame
    }
}

/// What the ack reader collected.
struct ReaderOut {
    /// Arrival time of each `IngestAck`, in order.
    ack_at: Vec<Instant>,
    /// Records acknowledged.
    acked_records: u64,
    /// Warnings carried by the acks of the first `pass1_frames` batches.
    pass1: Vec<WarnKey>,
    /// Warnings over the whole run.
    warnings: u64,
    /// Whether any ack accused the injected link.
    link_warned: bool,
    /// `Error` frames received.
    errors: u64,
    /// The final `Stats` frame.
    stats: Option<Frame>,
    cpu_s: f64,
}

/// Drain acks until the `Stats` frame that ends the run. Reads through its
/// own buffered clone of the socket; the protocol is request/reply, so
/// nothing follows `Stats` until the sender asks again and no byte is
/// stranded in this buffer.
fn reader_loop(
    stream: TcpStream,
    pass1_frames: usize,
    link: u16,
    acks: mpsc::Sender<()>,
) -> ReaderOut {
    let mut input = BufReader::with_capacity(1 << 16, stream);
    let mut out = ReaderOut {
        ack_at: Vec::new(),
        acked_records: 0,
        pass1: Vec::new(),
        warnings: 0,
        link_warned: false,
        errors: 0,
        stats: None,
        cpu_s: 0.0,
    };
    loop {
        match read_frame(&mut input) {
            Ok(Some(Frame::IngestAck { count, warnings })) => {
                let now = Instant::now();
                // The AdvanceTo that closes the run is acked with count 0
                // and is not a batch.
                if count > 0 {
                    if out.ack_at.len() < pass1_frames {
                        out.pass1
                            .extend(warnings.iter().map(|w| (w.at_ns, w.switch, w.link)));
                    }
                    out.ack_at.push(now);
                    out.acked_records += u64::from(count);
                    let _ = acks.send(());
                }
                out.warnings += warnings.len() as u64;
                out.link_warned |= warnings.iter().any(|w| w.link == link);
            }
            Ok(Some(Frame::Error(msg))) => {
                eprintln!("bench: daemon error frame: {msg}");
                out.errors += 1;
                let _ = acks.send(());
            }
            Ok(Some(stats @ Frame::Stats { .. })) => {
                out.stats = Some(stats);
                break;
            }
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => break,
        }
    }
    out.cpu_s = sys::thread_cpu_s();
    out
}

/// Everything one timed replay measured.
pub struct LoadOut {
    /// Records sent.
    pub sent_records: u64,
    /// Records acknowledged.
    pub acked_records: u64,
    /// Batches sent.
    pub batches: usize,
    /// Passes over the trace started.
    pub passes: u64,
    /// First send to last ack, seconds.
    pub elapsed_s: f64,
    /// Wall time of every slice of every complete pass, in order;
    /// `slices` per pass, so slice `i` replays phase `i % slices` of the
    /// trace.
    pub slice_s: Vec<f64>,
    /// Slices per pass: [`PASS_SLICES`], or fewer when a pass has fewer
    /// frames than that.
    pub slices: usize,
    /// Records in one pass.
    pub pass_records: u64,
    /// Per-batch latency, µs, in batch order (closed: from send; paced:
    /// from due time). Unacked batches have no sample.
    pub latency_us: Vec<f64>,
    /// How late each send started against its due time, µs (paced only).
    pub gen_late_us: Vec<f64>,
    /// Sender thread CPU ÷ elapsed.
    pub gen_busy_share: f64,
    /// Reader thread CPU ÷ elapsed.
    pub reader_busy_share: f64,
    /// Daemon pass-1 warning stream.
    pub pass1: Vec<WarnKey>,
    /// Whether the injected link was warned.
    pub link_warned: bool,
    /// `Error` frames received.
    pub errors: u64,
    /// Warnings the acks carried over the whole run.
    pub ack_warnings: u64,
    /// `Stats.ingested` after the run.
    pub stats_ingested: u64,
    /// `Stats.warnings`.
    pub stats_warnings: u64,
    /// `Stats.carriers`.
    pub stats_carriers: u64,
    /// `Stats.slow_ticks`.
    pub stats_slow_ticks: u64,
}

impl LoadOut {
    /// Records per second, by [`stats::steady_rate`] over the pass slices;
    /// the plain ratio when the run is shorter than a pass.
    pub fn ops_per_s(&self) -> f64 {
        stats::steady_rate(&self.slice_s, self.slices, self.pass_records as f64)
            .unwrap_or(self.acked_records as f64 / self.elapsed_s.max(1e-9))
    }

    /// Whether the generator may have shaped the result: it ran late
    /// against its own schedule, or its sender thread was short of CPU.
    /// Reported with every run.
    pub fn generator_limited(&self) -> bool {
        let mut late = self.gen_late_us.clone();
        stats::sort(&mut late);
        stats::percentile(&late, 0.99) > GEN_LATE_P99_LIMIT_US || self.generator_cpu_bound()
    }

    /// Whether the sender thread was short of CPU. This fails the run: the
    /// figure would be the generator's, not the daemon's. Lateness alone
    /// does not — on the shared sandbox the hypervisor's CPU steal makes the
    /// sender late in most runs, and every batch is timed from its due time,
    /// so lateness is counted against the result, not hidden by it.
    pub fn generator_cpu_bound(&self) -> bool {
        self.gen_busy_share > GEN_BUSY_LIMIT
    }
}

/// Replay the trace against the daemon for `seconds`, then close the last
/// window and read the totals.
pub fn drive(
    conn: &mut Conn,
    trace: &Trace,
    frames: &mut PassFrames,
    mode: Mode,
    seconds: f64,
) -> Result<LoadOut, String> {
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let pass1_frames = frames.len();
    let link = trace.link.0;
    let stream = conn
        .input
        .get_ref()
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let reader = std::thread::spawn(move || reader_loop(stream, pass1_frames, link, ack_tx));

    let run = Duration::from_secs_f64(seconds);
    // Send time (closed) or due time (paced) of every batch sent.
    let mut stamp: Vec<Instant> = Vec::new();
    let mut gen_late_us: Vec<f64> = Vec::new();
    let mut sent_records = 0u64;
    let mut acked_seen = 0usize;
    let mut pass = 0u64;
    let mut send_err = None;
    let cpu0 = sys::thread_cpu_s();
    let t0 = Instant::now();
    let schedule = Schedule::new(t0, PACED_RATE);
    'run: loop {
        let offset = pass * trace.period_ns;
        for i in 0..frames.len() {
            match mode {
                Mode::Closed => {
                    // Block (no spinning: the daemon needs the core) until
                    // fewer than the window are unacknowledged.
                    while stamp.len() - acked_seen >= CLOSED_IN_FLIGHT {
                        if ack_rx.recv().is_err() {
                            break 'run;
                        }
                        acked_seen += 1;
                    }
                    if t0.elapsed() >= run {
                        break 'run;
                    }
                    stamp.push(Instant::now());
                }
                Mode::Paced => {
                    let due = schedule.due(sent_records);
                    if due - t0 >= run {
                        break 'run;
                    }
                    gen_late_us.push(Schedule::wait_until(due).as_secs_f64() * 1e6);
                    stamp.push(due);
                }
            }
            let bytes = frames.patched(i, offset);
            if let Err(e) = conn.out.write_all(bytes).and_then(|()| conn.out.flush()) {
                send_err = Some(format!("send records: {e}"));
                break 'run;
            }
            sent_records += u64::from(frames.counts[i]);
        }
        pass += 1;
    }
    let sender_cpu_s = sys::thread_cpu_s() - cpu0;
    // Close the last window, then ask for totals; the reader stops at Stats.
    let tail = conn
        .send(&Frame::AdvanceTo {
            t_ns: (pass + 1) * trace.period_ns,
        })
        .and_then(|()| conn.send(&Frame::StatsReq));
    if tail.is_err() || send_err.is_some() {
        // Unblock the reader: the daemon is gone or the socket is broken.
        let _ = conn.out.get_ref().shutdown(std::net::Shutdown::Both);
    }
    let r = reader
        .join()
        .map_err(|_| "ack reader panicked".to_string())?;
    if let Some(e) = send_err {
        return Err(e);
    }
    tail?;
    let Some(Frame::Stats {
        ingested,
        warnings,
        carriers,
        slow_ticks,
        ..
    }) = r.stats
    else {
        return Err("daemon closed the connection before Stats".into());
    };

    let last_ack = r.ack_at.last().copied().unwrap_or(t0);
    let elapsed_s = last_ack.saturating_duration_since(t0).as_secs_f64();
    // Cut every pass into PASS_SLICES groups of batches; a slice's time runs
    // from the last ack of the slice before it to its own last ack.
    let per_pass = frames.len();
    let slices = PASS_SLICES.min(per_pass);
    let mut slice_s = Vec::new();
    let mut prev = t0;
    for p in 0..r.ack_at.len() / per_pass {
        for k in 1..=slices {
            let end = r.ack_at[p * per_pass + k * per_pass / slices - 1];
            slice_s.push(end.saturating_duration_since(prev).as_secs_f64());
            prev = end;
        }
    }
    let pass_records: u64 = frames.counts.iter().map(|&c| u64::from(c)).sum();
    let latency_us = r
        .ack_at
        .iter()
        .zip(&stamp)
        .map(|(ack, from)| ack.saturating_duration_since(*from).as_secs_f64() * 1e6)
        .collect();
    Ok(LoadOut {
        sent_records,
        acked_records: r.acked_records,
        batches: stamp.len(),
        passes: pass + 1,
        elapsed_s,
        slice_s,
        slices,
        pass_records,
        latency_us,
        gen_late_us,
        gen_busy_share: sender_cpu_s / elapsed_s.max(1e-9),
        reader_busy_share: r.cpu_s / elapsed_s.max(1e-9),
        pass1: r.pass1,
        link_warned: r.link_warned,
        errors: r.errors,
        ack_warnings: r.warnings,
        stats_ingested: ingested,
        stats_warnings: warnings,
        stats_carriers: carriers,
        stats_slow_ticks: slow_ticks,
    })
}

/// Spawn a daemon and say `Hello`: the set-up a user of `serve` waits for.
/// Returns the wall time from spawn to `HelloAck`.
pub fn start_daemon(
    binary: &Path,
    smoke: bool,
    seed: u64,
) -> Result<(Daemon, Conn, EngineFacts, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(binary)?;
    let (conn, facts) = Conn::open(&daemon.addr, topo_spec(smoke), DENSITY, seed)?;
    Ok((daemon, conn, facts, t0.elapsed().as_secs_f64()))
}

/// Stop a daemon cleanly: `Shutdown`, `Bye`, process exit.
pub fn stop_daemon(daemon: Daemon, conn: Conn) -> Result<(), String> {
    conn.shutdown()?;
    daemon.wait_exit(Duration::from_secs(10))
}

/// Replay pass 1 through an in-process engine and keep, per record, how
/// many warnings had been raised once it was ingested — so a daemon run of
/// any length can be checked against the matching prefix.
pub struct Reference {
    /// The reference warning stream of pass 1.
    pub warnings: Vec<WarnKey>,
    /// `cum[i]`: warnings raised by the first `i` records.
    pub cum: Vec<u32>,
    /// Configuration fingerprint of the in-process engine.
    pub fingerprint: u64,
}

impl Reference {
    /// Build by replaying `trace` once.
    pub fn replay(prep: &Prepared, trace: &Trace) -> Reference {
        let mut engine = build_engine(prep, &trace.flows, Recorders::Scope);
        let mut warnings = Vec::new();
        let mut cum = Vec::with_capacity(trace.records.len() + 1);
        cum.push(0);
        for r in &trace.flow_records {
            for w in engine.ingest(r) {
                warnings.push((w.at.as_ns(), w.switch.0, w.link.0));
            }
            cum.push(u32::try_from(warnings.len()).expect("warning count fits u32"));
        }
        Reference {
            warnings,
            cum,
            fingerprint: engine.fingerprint(),
        }
    }

    /// Compare the daemon's pass-1 stream, which covers the first
    /// `pass1_records` records, against the matching reference prefix.
    pub fn check(
        &self,
        trace: &Trace,
        facts: &EngineFacts,
        load: &LoadOut,
        problems: &mut Vec<String>,
    ) {
        if facts.fingerprint != self.fingerprint {
            problems.push(format!(
                "daemon engine fingerprint {:#x} differs from the in-process reference {:#x}",
                facts.fingerprint, self.fingerprint
            ));
        }
        if facts.interval_ns != trace.interval_ns {
            problems.push(format!(
                "daemon interval {} ns differs from the trace's {} ns",
                facts.interval_ns, trace.interval_ns
            ));
        }
        let pass1_records = usize::try_from(load.acked_records)
            .unwrap_or(usize::MAX)
            .min(trace.records.len());
        let expect = &self.warnings[..self.cum[pass1_records] as usize];
        if load.pass1 != expect {
            let at = load
                .pass1
                .iter()
                .zip(expect)
                .position(|(a, b)| a != b)
                .unwrap_or(load.pass1.len().min(expect.len()));
            problems.push(format!(
                "pass-1 warning stream differs from the reference at warning {at} \
                 (daemon {} warnings, reference {})",
                load.pass1.len(),
                expect.len()
            ));
        }
        if !self.warnings.iter().any(|w| w.2 == trace.link.0) {
            problems.push(format!(
                "reference replay never warns the injected link {}",
                trace.link.0
            ));
        }
        if pass1_records == trace.records.len() && !load.link_warned {
            problems.push(format!(
                "daemon never warned the injected link {}",
                trace.link.0
            ));
        }
        if load.stats_ingested != load.sent_records {
            problems.push(format!(
                "Stats.ingested {} != records sent {}",
                load.stats_ingested, load.sent_records
            ));
        }
        if load.stats_warnings != load.ack_warnings {
            problems.push(format!(
                "Stats.warnings {} != warnings carried by acks {}",
                load.stats_warnings, load.ack_warnings
            ));
        }
        if load.errors > 0 {
            problems.push(format!("{} Error frames", load.errors));
        }
        if load.generator_cpu_bound() {
            problems.push(format!(
                "generator limited the run: sender thread busy {:.2} of the time",
                load.gen_busy_share
            ));
        }
    }
}

/// What a serve run is made from, before any daemon starts: the benchmark's
/// own work, not the system's set-up.
pub struct Inputs {
    /// The classifier and windows, trained as the daemon trains them.
    pub prep: Prepared,
    /// Wall time of that `prepare`, seconds.
    pub prepare_s: f64,
    /// The recorded trace.
    pub trace: Trace,
    /// The in-process reference replay of pass 1.
    pub reference: Reference,
    /// The pass's frames at the mode's batch size.
    pub frames: PassFrames,
}

impl Inputs {
    /// Train, record, replay, encode.
    pub fn build(cfg: &RunCfg, mode: Mode) -> Inputs {
        let t0 = Instant::now();
        let prep = prepare_like_daemon(cfg.smoke);
        let prepare_s = t0.elapsed().as_secs_f64();
        let trace = record_trace(&prep, cfg.seed, None);
        let reference = Reference::replay(&prep, &trace);
        let frames = PassFrames::encode(&trace.records, mode.batch());
        Inputs {
            prep,
            prepare_s,
            trace,
            reference,
            frames,
        }
    }
}

/// The daemon binary the serve workloads were given.
pub fn daemon_binary(cfg: &RunCfg) -> Result<&Path, String> {
    cfg.daemon
        .as_deref()
        .ok_or_else(|| "serve workloads need --daemon <path to the drift-bottle binary>".into())
}

/// The untraced end-to-end run of a serve workload.
pub fn run(cfg: &RunCfg, mode: Mode) -> Result<Outcome, String> {
    let binary = daemon_binary(cfg)?;
    let Inputs {
        trace,
        reference,
        mut frames,
        ..
    } = Inputs::build(cfg, mode);

    // Set-up, repeated: spawn → Hello → HelloAck (the daemon trains at full
    // size inside Hello). The last daemon is the one measured.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPEATS {
        let (daemon, conn, facts, s) = start_daemon(binary, cfg.smoke, cfg.seed)?;
        setups.push(s);
        if i + 1 < SETUP_REPEATS {
            stop_daemon(daemon, conn)?;
        } else {
            live = Some((daemon, conn, facts));
        }
    }
    let (daemon, mut conn, facts) = live.expect("SETUP_REPEATS >= 1");

    let load = drive(&mut conn, &trace, &mut frames, mode, cfg.seconds)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    stop_daemon(daemon, conn)?;

    let mut problems = Vec::new();
    reference.check(&trace, &facts, &load, &mut problems);
    let e2e = EndToEnd {
        ops_per_s: load.ops_per_s(),
        op_p25_us: stats::typical_latency(&load.latency_us),
        within_limit_share: mode.within_limit_share(
            trace.interval_ns,
            &load.latency_us,
            load.batches,
        ),
        peak_rss_mb,
        setup_s: stats::median(&setups),
    };
    Ok(Outcome {
        attempted: load.sent_records,
        failed: load.sent_records - load.acked_records,
        metrics: e2e.metrics(),
        problems,
        context: vec![
            ("generator_limited", load.generator_limited().to_string()),
            ("threads", "2".into()),
            ("batches", load.batches.to_string()),
            ("passes", load.passes.to_string()),
            (
                "overall_ops_per_s",
                format!(
                    "{:.1}",
                    load.acked_records as f64 / load.elapsed_s.max(1e-9)
                ),
            ),
            ("latency_samples", load.latency_us.len().to_string()),
            ("gen_busy_share", format!("{:.4}", load.gen_busy_share)),
            (
                "reader_busy_share",
                format!("{:.4}", load.reader_busy_share),
            ),
            ("injected_link", trace.link.0.to_string()),
            ("warnings", load.stats_warnings.to_string()),
        ],
    })
}
