//! Replay client and CI probe for `drift-bottle serve`.
//!
//! Records a Geant2012 single-link-failure trace, replays it once against
//! the daemon at `--addr=HOST:PORT` in [`BATCH`]-record frames (one ack
//! each), and prints one greppable verdict line per check; any failed check
//! exits 1.
//!
//! * always — the injected link is among the warnings the acks carried
//!   (`serve-smoke: OK warned injected link N`);
//! * `--pulse` — a `PulseSub` connection attached for the length of the
//!   replay saw frames and points, no window repeated or out of order
//!   (`pulse-smoke: OK …`);
//! * `--shutdown` — after the replay, `AdvanceTo { u64::MAX }` is refused
//!   and the daemon still answers (`serve-smoke: OK far-future AdvanceTo
//!   refused …`), so is a `FlowDef` with `id = u32::MAX` (`serve-smoke: OK
//!   oversize FlowDef refused`), then a `Shutdown` frame stops it
//!   (`load_gen: daemon shut down cleanly`).
//!
//! It measures nothing: throughput and latency of the daemon come from
//! `benchmark/` (`serve-failure-closed`, `serve-failure-paced`).

use db_core::classifier::timeline;
use db_flowmon::WindowConfig;
use db_netsim::{
    FailureScenario, SimConfig, SimTime, Simulator, TraceRecorder, TrafficConfig, TrafficGen,
};
use db_serve::{read_frame, write_frame, Frame, Record, PROTO_VERSION};
use db_topology::{zoo, CsrTopology, LinkId, OnDemandRoutes};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOPO: &str = "geant2012";
const DENSITY: f64 = 1.0;
const SEED: u64 = 42;
const BATCH: usize = 8192;
/// How long the daemon may take to answer one frame before the probe gives
/// up; a wedged daemon must fail the CI job, not hang it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

struct Args {
    addr: String,
    shutdown: bool,
    pulse: bool,
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut shutdown = false;
    let mut pulse = false;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--addr=") {
            addr = Some(v.to_string());
        } else if a == "--shutdown" {
            shutdown = true;
        } else if a == "--pulse" {
            pulse = true;
        } else {
            eprintln!(
                "load_gen: unknown flag `{a}` (valid: --addr=HOST:PORT, --shutdown, --pulse)"
            );
            std::process::exit(2);
        }
    }
    let Some(addr) = addr else {
        eprintln!("load_gen: --addr=HOST:PORT is required (start `drift-bottle serve` first)");
        std::process::exit(2);
    };
    Args {
        addr,
        shutdown,
        pulse,
    }
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The replay trace: Geant2012, flagship traffic, the busiest link failed
/// at the standard timeline point.
struct Trace {
    records: Vec<Record>,
    link: LinkId,
    /// The daemon's window length must match the one the trace was cut at.
    interval_ns: u64,
    /// Past the last record, aligned to the interval: advancing the engine
    /// here closes the final window.
    end_ns: u64,
}

fn record_trace() -> Trace {
    let topo = zoo::geant2012();
    let routes = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&topo)));
    let traffic = TrafficConfig::with_density(DENSITY);
    let flows = TrafficGen::generate_auto(&topo, &routes, &traffic, SEED);
    let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
    let (t_fail, _, end) = timeline(&wcfg, traffic.start_spread);

    // The busiest link (most flow paths crossing it): deterministic, and
    // failing it disturbs the most monitors.
    let mut load = vec![0u32; topo.link_count()];
    for f in &flows {
        for l in &f.path.links {
            load[l.idx()] += 1;
        }
    }
    let link = LinkId(
        u16::try_from(
            load.iter()
                .enumerate()
                .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .unwrap_or(0),
        )
        .expect("link count fits u16"),
    );

    let scenario = FailureScenario::single_link(link, t_fail);
    let cfg = SimConfig {
        end,
        tick_interval: wcfg.interval,
        ..Default::default()
    };
    let mut sim = Simulator::new(&topo, flows, cfg, &scenario, SEED, TraceRecorder::new());
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
    let interval_ns = wcfg.interval.as_ns();
    Trace {
        records,
        link,
        interval_ns,
        end_ns: (end.as_ns() / interval_ns + 2) * interval_ns,
    }
}

/// One greeted connection to the daemon: the raw socket (for timeouts and
/// `shutdown`), its buffered halves, and what the `HelloAck` said of the
/// engine.
struct Session {
    sock: TcpStream,
    input: BufReader<TcpStream>,
    out: BufWriter<TcpStream>,
    interval_ns: u64,
    nodes: u32,
    links: u32,
}

/// Connect and attach to the engine (`Hello` → `HelloAck`; the first one
/// trains it, which is why this read carries no timeout).
fn open_session(addr: &str) -> Session {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let sock = stream.try_clone().expect("clone stream");
    let mut out = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut input = BufReader::new(stream);
    write_frame(
        &mut out,
        &Frame::Hello {
            proto: PROTO_VERSION,
            topo: TOPO.into(),
            density: DENSITY,
            seed: SEED,
            window_cap: 8,
        },
    )
    .expect("send hello");
    out.flush().expect("flush hello");
    match read_frame(&mut input).expect("read hello ack") {
        Some(Frame::HelloAck {
            interval_ns,
            nodes,
            links,
            ..
        }) => Session {
            sock,
            input,
            out,
            interval_ns,
            nodes,
            links,
        },
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Send one frame and return the daemon's answer to it.
fn request(s: &mut Session, frame: &Frame) -> Frame {
    write_frame(&mut s.out, frame).expect("send frame");
    s.out.flush().expect("flush frame");
    match read_frame(&mut s.input) {
        Ok(Some(Frame::Error(msg))) => fail(format!("load_gen: server error: {msg}")),
        Ok(Some(reply)) => reply,
        other => fail(format!("load_gen: no reply from daemon ({other:?})")),
    }
}

/// Replay the trace on a fresh connection, one ack per frame, close the
/// last window, and return every link the acks warned about.
fn replay(addr: &str, trace: &Trace) -> Vec<u16> {
    let mut s = open_session(addr);
    assert_eq!(
        s.interval_ns, trace.interval_ns,
        "server interval matches trace"
    );
    eprintln!(
        "load_gen: engine ready ({} switches, {} links)",
        s.nodes, s.links
    );
    s.sock
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");

    let sent = trace.records.len() as u64;
    eprintln!("load_gen: streaming {sent} records in {BATCH}-record frames…");
    let mut warned = Vec::new();
    let frames = trace
        .records
        .chunks(BATCH)
        .map(|chunk| Frame::Records(chunk.to_vec()))
        .chain([Frame::AdvanceTo { t_ns: trace.end_ns }]);
    for frame in frames {
        match request(&mut s, &frame) {
            Frame::IngestAck { warnings, .. } => warned.extend(warnings.iter().map(|w| w.link)),
            other => fail(format!("load_gen: expected IngestAck, got {other:?}")),
        }
    }
    match request(&mut s, &Frame::StatsReq) {
        Frame::Stats {
            ingested, warnings, ..
        } => {
            // `>=` — a long-lived daemon may hold records from earlier clients.
            assert!(ingested >= sent, "daemon ingested every record sent");
            eprintln!("load_gen: daemon totals {ingested} records, {warnings} warnings");
        }
        other => fail(format!("load_gen: expected Stats, got {other:?}")),
    }
    warned
}

/// What a pulse subscriber saw while the replay ran.
struct PulseStats {
    frames: u64,
    points: u64,
    last_window: u64,
    monotone: bool,
}

/// Attach a `PulseSub` connection to the daemon and drain `Pulse` frames
/// until the socket is shut down (via the returned handle). The collected
/// stats double as a protocol check: `next_window` cursors must never move
/// backwards and no window index may repeat within a series.
fn spawn_pulse_sub(addr: &str) -> (std::thread::JoinHandle<PulseStats>, TcpStream) {
    let Session {
        sock,
        mut input,
        mut out,
        ..
    } = open_session(addr);
    write_frame(&mut out, &Frame::PulseSub { from_window: 0 }).expect("send pulse sub");
    out.flush().expect("flush pulse sub");
    let handle = std::thread::spawn(move || {
        let mut stats = PulseStats {
            frames: 0,
            points: 0,
            last_window: 0,
            monotone: true,
        };
        let mut cursor = 0u64;
        let mut seen: HashMap<(u8, u16), u64> = HashMap::new();
        while let Ok(Some(frame)) = read_frame(&mut input) {
            if let Frame::Pulse(p) = frame {
                stats.frames += 1;
                stats.points += p.points.len() as u64;
                if p.next_window < cursor {
                    stats.monotone = false;
                }
                cursor = p.next_window;
                stats.last_window = stats.last_window.max(cursor);
                for pt in &p.points {
                    // A repeated or reordered window within one series
                    // means the subscriber saw a duplicate.
                    if let Some(&prev) = seen.get(&(pt.kind, pt.id)) {
                        if pt.window <= prev {
                            stats.monotone = false;
                        }
                    }
                    seen.insert((pt.kind, pt.id), pt.window);
                }
            }
        }
        stats
    });
    (handle, sock)
}

/// The daemon must not be wedgeable by one frame: on a connection of its
/// own, `AdvanceTo { u64::MAX }` has to come back as an `Error` (not close
/// windows until the end of time under the engine lock), and a `StatsReq`
/// right behind it has to be answered within a second.
fn probe_far_future(addr: &str) {
    let Session {
        sock,
        mut input,
        mut out,
        ..
    } = open_session(addr);
    write_frame(&mut out, &Frame::AdvanceTo { t_ns: u64::MAX }).expect("send far advance");
    write_frame(&mut out, &Frame::StatsReq).expect("send stats req");
    let t0 = Instant::now();
    out.flush().expect("flush probe");
    sock.set_read_timeout(Some(Duration::from_secs(1)))
        .expect("set read timeout");
    match read_frame(&mut input) {
        Ok(Some(Frame::Error(_))) => {}
        other => fail(format!(
            "serve-smoke: FAIL AdvanceTo{{u64::MAX}} not refused ({other:?})"
        )),
    }
    match read_frame(&mut input) {
        Ok(Some(Frame::Stats { .. })) => println!(
            "serve-smoke: OK far-future AdvanceTo refused, stats answered in {} µs",
            t0.elapsed().as_micros()
        ),
        other => fail(format!(
            "serve-smoke: FAIL no stats within 1 s of the refusal ({other:?})"
        )),
    }
}

/// Nor may one frame make it allocate by a field's say-so: a `FlowDef`
/// with `id = u32::MAX` has to come back as an `Error` (every monitor on
/// the path indexes its flow table by id).
fn probe_oversize_flowdef(addr: &str) {
    let mut s = open_session(addr);
    s.sock
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    let flowdef = Frame::FlowDef {
        id: u32::MAX,
        rtt_ms: 4.0,
        nodes: vec![0],
        links: vec![],
    };
    write_frame(&mut s.out, &flowdef).expect("send flow def");
    s.out.flush().expect("flush probe");
    match read_frame(&mut s.input) {
        Ok(Some(Frame::Error(_))) => println!("serve-smoke: OK oversize FlowDef refused"),
        other => fail(format!(
            "serve-smoke: FAIL FlowDef{{id: u32::MAX}} not refused ({other:?})"
        )),
    }
}

/// Stop the daemon with a `Shutdown` frame and wait for its `Bye`.
fn shut_down(addr: &str) {
    let mut s = open_session(addr);
    s.sock
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    match request(&mut s, &Frame::Shutdown) {
        Frame::Bye => println!("load_gen: daemon shut down cleanly"),
        other => fail(format!("load_gen: no bye from daemon ({other:?})")),
    }
}

fn main() {
    let args = parse_args();
    eprintln!("load_gen: recording {TOPO} failure trace…");
    let trace = record_trace();
    eprintln!(
        "load_gen: connecting to {} (hello trains the engine on first use)…",
        args.addr
    );

    let pulse_sub = args.pulse.then(|| spawn_pulse_sub(&args.addr));
    let warned = replay(&args.addr, &trace);
    let pulse = pulse_sub.map(|(thread, sock)| {
        let _ = sock.shutdown(std::net::Shutdown::Both);
        thread.join().expect("pulse thread")
    });

    let link = trace.link.0;
    if warned.contains(&link) {
        println!("serve-smoke: OK warned injected link {link}");
    } else {
        fail(format!(
            "serve-smoke: FAIL injected link {link} not warned (warned: {warned:?})"
        ));
    }
    if let Some(p) = pulse {
        if p.monotone && p.frames > 0 && p.points > 0 {
            println!(
                "pulse-smoke: OK {} pulse frames, {} points, last window {}",
                p.frames, p.points, p.last_window
            );
        } else {
            fail(format!(
                "pulse-smoke: FAIL subscriber saw {} frames / {} points, monotone={}",
                p.frames, p.points, p.monotone
            ));
        }
    }
    if args.shutdown {
        probe_far_future(&args.addr);
        probe_oversize_flowdef(&args.addr);
        shut_down(&args.addr);
    }
}
