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
//!   oversize FlowDef refused`) and a `Hello` naming `line:0`, behind which
//!   a fresh connection's `StatsReq` is still answered (`serve-smoke: OK
//!   degenerate topology spec refused`), then a `Shutdown` frame stops it
//!   (`load_gen: daemon shut down cleanly`).
//!
//! It measures nothing: throughput and latency of the daemon come from
//! `benchmark/` (`serve-failure-closed`, `serve-failure-paced`).

use db_netsim::FlowSpec;
use db_serve::client::Attached;
use db_serve::replay::{pulses_in_order, record_failure, FailureTrace};
use db_serve::{Client, Frame, PulseMsg};
use db_topology::{zoo, LinkId};
use std::cmp::Reverse;
use std::collections::HashMap;
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

/// The link most flow paths cross (ties to the smaller id): deterministic,
/// and failing it disturbs the most monitors.
fn busiest_link(flows: &[FlowSpec]) -> LinkId {
    let mut load: HashMap<LinkId, u32> = HashMap::new();
    for &l in flows.iter().flat_map(|f| &f.path.links) {
        *load.entry(l).or_default() += 1;
    }
    let busiest = load.into_iter().max_by_key(|&(l, n)| (n, Reverse(l)));
    busiest.expect("flows cross links").0
}

/// Connect and attach to the engine (`Hello` → `HelloAck`; the first one
/// trains it, which is why the read timeout is set only afterwards).
fn open_session(addr: &str, reply_timeout: Option<Duration>) -> (Client, Attached) {
    let mut client = Client::connect(addr).expect("connect");
    let engine = client.hello(TOPO, DENSITY, SEED, 8).expect("hello");
    let sock = client.socket();
    sock.set_read_timeout(reply_timeout)
        .expect("set read timeout");
    (client, engine)
}

/// Send one frame and return the daemon's answer to it.
fn request(client: &mut Client, frame: &Frame) -> Frame {
    match client.request(frame) {
        Ok(reply) => reply,
        Err(e) => fail(format!("load_gen: {e}")),
    }
}

/// Replay the trace on a fresh connection, one ack per frame, close the
/// last window, and return every link the acks warned about.
fn replay(addr: &str, trace: &FailureTrace) -> Vec<u16> {
    let (mut s, engine) = open_session(addr, Some(REPLY_TIMEOUT));
    assert_eq!(
        engine.interval_ns, trace.interval_ns,
        "server interval matches trace"
    );
    eprintln!(
        "load_gen: engine ready ({} switches, {} links)",
        engine.nodes, engine.links
    );

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

/// The daemon must not be wedgeable by one frame: on a connection of its
/// own, `AdvanceTo { u64::MAX }` has to come back as an `Error` (not close
/// windows until the end of time under the engine lock), and a `StatsReq`
/// right behind it has to be answered within a second.
fn probe_far_future(addr: &str) {
    let (mut s, _) = open_session(addr, Some(Duration::from_secs(1)));
    s.send(&Frame::AdvanceTo { t_ns: u64::MAX })
        .expect("send far advance");
    s.send(&Frame::StatsReq).expect("send stats req");
    let t0 = Instant::now();
    s.flush().expect("flush probe");
    match s.recv() {
        Ok(Frame::Error(_)) => {}
        other => fail(format!(
            "serve-smoke: FAIL AdvanceTo{{u64::MAX}} not refused ({other:?})"
        )),
    }
    match s.recv() {
        Ok(Frame::Stats { .. }) => println!(
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
    let (mut s, _) = open_session(addr, Some(REPLY_TIMEOUT));
    let flowdef = Frame::FlowDef {
        id: u32::MAX,
        rtt_ms: 4.0,
        nodes: vec![0],
        links: vec![],
    };
    s.send(&flowdef).expect("send flow def");
    s.flush().expect("flush probe");
    match s.recv() {
        Ok(Frame::Error(_)) => println!("serve-smoke: OK oversize FlowDef refused"),
        other => fail(format!(
            "serve-smoke: FAIL FlowDef{{id: u32::MAX}} not refused ({other:?})"
        )),
    }
}

/// Nor may a `Hello` take it down: `line:0` is a topology `zoo` asserts on,
/// so the spec has to come back as an `Error`, and a `StatsReq` on a fresh
/// connection still has to be answered (the refused build ran with the
/// engines map locked).
fn probe_degenerate_topology(addr: &str) {
    let mut client = Client::connect(addr).expect("connect");
    match client.hello("line:0", DENSITY, SEED, 0) {
        Err(e) if e.to_string().contains("unknown topology") => {}
        other => fail(format!(
            "serve-smoke: FAIL Hello{{topo: line:0}} not refused ({other:?})"
        )),
    }
    let (mut s, _) = open_session(addr, Some(Duration::from_secs(1)));
    match s.request(&Frame::StatsReq) {
        Ok(Frame::Stats { .. }) => println!("serve-smoke: OK degenerate topology spec refused"),
        other => fail(format!(
            "serve-smoke: FAIL no stats within 1 s of the refused Hello ({other:?})"
        )),
    }
}

/// Stop the daemon with a `Shutdown` frame and wait for its `Bye`.
fn shut_down(addr: &str) {
    let (mut s, _) = open_session(addr, Some(REPLY_TIMEOUT));
    match request(&mut s, &Frame::Shutdown) {
        Frame::Bye => println!("load_gen: daemon shut down cleanly"),
        other => fail(format!("load_gen: no bye from daemon ({other:?})")),
    }
}

fn main() {
    let args = parse_args();
    eprintln!("load_gen: recording {TOPO} failure trace…");
    // Geant2012, the daemon's own workload, the busiest link failed.
    let trace = record_failure(&zoo::geant2012(), SEED, busiest_link);
    eprintln!(
        "load_gen: connecting to {} (hello trains the engine on first use)…",
        args.addr
    );

    // A `PulseSub` connection whose pulses queue until its socket is shut down.
    let pulse_sub = args.pulse.then(|| {
        let (client, _) = open_session(&args.addr, None);
        client.pulse_sub(0).expect("send pulse sub")
    });
    let warned = replay(&args.addr, &trace);
    let pulses = pulse_sub.map(|(sock, pulses)| {
        let _ = sock.shutdown(std::net::Shutdown::Both);
        pulses.into_iter().collect::<Vec<PulseMsg>>()
    });

    let link = trace.link.0;
    if warned.contains(&link) {
        println!("serve-smoke: OK warned injected link {link}");
    } else {
        fail(format!(
            "serve-smoke: FAIL injected link {link} not warned (warned: {warned:?})"
        ));
    }
    if let Some(pulses) = pulses {
        let points: usize = pulses.iter().map(|p| p.points.len()).sum();
        let (frames, ordered) = (pulses.len(), pulses_in_order(&pulses));
        if ordered && points > 0 {
            let last = pulses.last().map_or(0, |p| p.next_window);
            println!("pulse-smoke: OK {frames} pulse frames, {points} points, last window {last}");
        } else {
            fail(format!(
                "pulse-smoke: FAIL subscriber saw {frames} frames / {points} points, monotone={ordered}"
            ));
        }
    }
    if args.shutdown {
        probe_far_future(&args.addr);
        probe_oversize_flowdef(&args.addr);
        probe_degenerate_topology(&args.addr);
        shut_down(&args.addr);
    }
}
