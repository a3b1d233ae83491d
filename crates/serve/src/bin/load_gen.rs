//! Load generator / throughput bench for `drift-bottle serve`.
//!
//! Records a Geant2012 single-link-failure trace once, then replays it
//! against a daemon at wire speed — multiple passes with rebased
//! timestamps, [`BATCH`]-record frames, a bounded pipeline depth so the
//! sampled per-batch round-trip latency measures ingest cost rather than
//! socket backlog. Reports sustained throughput and p99 batch latency to
//! `results/BENCH_serve.json`.
//!
//! With no `--addr`, a daemon thread is spawned in-process on an ephemeral
//! loopback port (`DB_SMOKE=1` shrinks its training). With `--addr`, an
//! already-running daemon is driven — that is what the CI smoke job does.
//!
//! `--smoke` (or `DB_SMOKE=1`) replays a small record budget and asserts
//! the injected link is warned, printing a greppable verdict line.
//! `--shutdown` sends `Shutdown` at the end (always sent when the daemon
//! was spawned in-process) — after checking, on a connection of its own,
//! that `AdvanceTo { u64::MAX }` is refused and the daemon still answers.

use db_core::classifier::timeline;
use db_flowmon::WindowConfig;
use db_netsim::{
    FailureScenario, SimConfig, SimTime, Simulator, TraceRecorder, TrafficConfig, TrafficGen,
};
use db_serve::{read_frame, write_frame, Frame, Record, ServeOptions, Server, PROTO_VERSION};
use db_topology::{zoo, LinkId, RouteTable};
use db_util::sync::lock_recover;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TOPO: &str = "geant2012";
const DENSITY: f64 = 1.0;
const SEED: u64 = 42;
const BATCH: usize = 8192;
/// Batches allowed in flight before the sender waits for acks: deep enough
/// to hide the round trip, shallow enough that sampled latency measures
/// the server's ingest cost, not an unbounded socket backlog.
const PIPELINE_DEPTH: u64 = 8;
/// Sample one batch round-trip latency every this many batches.
const LATENCY_SAMPLE_EVERY: u64 = 16;

fn smoke() -> bool {
    std::env::var("DB_SMOKE").map(|v| v == "1").unwrap_or(false)
}

struct Args {
    addr: Option<String>,
    records: Option<u64>,
    smoke: bool,
    shutdown: bool,
    local: bool,
    pulse: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        records: None,
        smoke: smoke(),
        shutdown: false,
        local: false,
        pulse: false,
    };
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--addr=") {
            args.addr = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--records=") {
            args.records = v.parse().ok();
        } else if a == "--smoke" {
            args.smoke = true;
        } else if a == "--shutdown" {
            args.shutdown = true;
        } else if a == "--local" {
            args.local = true;
        } else if a == "--pulse" {
            args.pulse = true;
        } else {
            eprintln!("load_gen: unknown flag `{a}` (valid: --addr=HOST:PORT, --records=N, --smoke, --shutdown, --local, --pulse)");
            std::process::exit(2);
        }
    }
    args
}

/// `--local`: feed the engine in-process, no sockets or frames — isolates
/// pipeline cost from transport cost for diagnosis.
fn run_local(records: &[Record], target: u64, period: u64) {
    use db_core::{prepare, DriftBottleSystem, Engine, PrepareConfig, SystemConfig, VariantSpec};

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
    let prep = prepare(zoo::geant2012(), &prep_cfg);
    let traffic = TrafficConfig::with_density(DENSITY);
    let flows = TrafficGen::generate_auto(&prep.topo, prep.routes.as_ref(), &traffic, SEED);
    let system = DriftBottleSystem::deploy(
        &prep.topo,
        &flows,
        prep.wcfg,
        prep.table.clone(),
        vec![VariantSpec::drift_bottle()],
        SystemConfig {
            interval: prep.wcfg.interval,
            ..Default::default()
        },
        (SimTime::ZERO, SimTime::from_ns(u64::MAX)),
    );
    let mut engine = Engine::new(system);
    engine.set_live_warnings();
    engine.set_retention(8);
    let t0 = Instant::now();
    let mut sent = 0u64;
    let mut warnings = 0u64;
    let mut pass = 0u64;
    'outer: loop {
        let offset = pass * period;
        for r in records {
            let mut fr = db_serve::server::flow_record(r);
            fr.at = SimTime::from_ns(r.at_ns + offset);
            warnings += engine.ingest(&fr).len() as u64;
            sent += 1;
            if sent >= target {
                break 'outer;
            }
        }
        pass += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    println!(
        "load_gen --local: {sent} records in {elapsed:.3}s — {:.0} records/s, {warnings} warnings",
        sent as f64 / elapsed
    );
}

/// Record the replay trace: Geant2012, flagship traffic, the busiest link
/// failed at the standard timeline point.
fn record_trace() -> (Vec<Record>, LinkId, u64, u64) {
    let topo = zoo::geant2012();
    let routes = RouteTable::build(&topo);
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
    // Pass-to-pass timestamp rebase: the next pass starts one interval past
    // this one's end, aligned to the tick interval so window boundaries
    // stay regular.
    let interval = wcfg.interval.as_ns();
    let period = (end.as_ns() / interval + 2) * interval;
    (records, link, period, interval)
}

enum ReaderEvent {
    Stats { ingested: u64, warnings: u64 },
    Bye,
}

/// Latency-sampling state shared by the send loop (stamps a probe batch
/// into `pending`) and the reader thread (resolves it into `samples` on
/// ack). Both halves live under one mutex so either side takes exactly
/// one lock — there is no pending→samples acquisition chain to order.
#[derive(Default)]
struct LatencyTracker {
    pending: HashMap<u64, Instant>,
    samples: Vec<u64>,
}

/// One measured replay pass: client-side throughput and sampled batch
/// round-trip latency percentiles, plus the daemon's warning totals.
struct PassOut {
    sent: u64,
    elapsed: f64,
    throughput: f64,
    p50_us: u64,
    p99_us: u64,
    warnings: u64,
    warned: Vec<u16>,
}

/// What a pulse subscriber saw while a pass ran.
struct PulseStats {
    frames: u64,
    points: u64,
    last_window: u64,
    monotone: bool,
}

/// One greeted connection to the daemon: the raw socket (for `shutdown`),
/// its buffered halves, and what the `HelloAck` said of the engine.
struct Session {
    sock: TcpStream,
    input: BufReader<TcpStream>,
    out: BufWriter<TcpStream>,
    interval_ns: u64,
    nodes: u32,
    links: u32,
}

/// Connect and attach to the bench engine (`Hello` → `HelloAck`; the first
/// one trains it).
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
        other => {
            eprintln!("serve-smoke: FAIL AdvanceTo{{u64::MAX}} not refused ({other:?})");
            std::process::exit(1);
        }
    }
    match read_frame(&mut input) {
        Ok(Some(Frame::Stats { .. })) => println!(
            "serve-smoke: OK far-future AdvanceTo refused, stats answered in {} µs",
            t0.elapsed().as_micros()
        ),
        other => {
            eprintln!("serve-smoke: FAIL no stats within 1 s of the refusal ({other:?})");
            std::process::exit(1);
        }
    }
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

/// Replay `target` records against the daemon at `addr` on a fresh
/// connection, pipelined in [`BATCH`]-record frames. `pass0` continues the
/// timestamp-rebase pass numbering across calls so engine time keeps
/// moving forward; `shutdown` checks the daemon refuses a far-future frame
/// ([`probe_far_future`]) and then sends a final `Shutdown` frame. Returns
/// the measurements and the next pass index.
fn run_pass(
    addr: &str,
    records: &[Record],
    target: u64,
    period: u64,
    interval: u64,
    pass0: u64,
    shutdown: bool,
) -> (PassOut, u64) {
    let Session {
        sock,
        mut input,
        mut out,
        interval_ns,
        nodes,
        links,
    } = open_session(addr);
    assert_eq!(interval_ns, interval, "server interval matches trace");
    eprintln!("load_gen: engine ready ({nodes} switches, {links} links)");

    // Reader thread: drains acks (driving the pipeline window), collects
    // warned links, samples latency against the sender's pending map.
    // The pending map and resolved samples live in ONE mutex so there is a
    // single lock to take — no pending→samples acquisition chain to order
    // against the send loop.
    let acked = Arc::new(AtomicU64::new(0));
    let warned = Arc::new(Mutex::new(Vec::<u16>::new()));
    let latency: Arc<Mutex<LatencyTracker>> = Arc::default();
    let last_ack_at = Arc::new(Mutex::new(Instant::now()));
    let (tx, rx) = mpsc::channel::<ReaderEvent>();
    let reader = {
        let acked = acked.clone();
        let warned = warned.clone();
        let latency = latency.clone();
        let last_ack_at = last_ack_at.clone();
        std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut input) {
                match frame {
                    Frame::IngestAck { warnings, .. } => {
                        let n = acked.fetch_add(1, Ordering::SeqCst) + 1;
                        *lock_recover(&last_ack_at) = Instant::now();
                        if !warnings.is_empty() {
                            lock_recover(&warned).extend(warnings.iter().map(|w| w.link));
                        }
                        let mut lat = lock_recover(&latency);
                        if let Some(t0) = lat.pending.remove(&n) {
                            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                            lat.samples.push(us);
                        }
                    }
                    Frame::Stats {
                        ingested, warnings, ..
                    } => {
                        let _ = tx.send(ReaderEvent::Stats { ingested, warnings });
                    }
                    Frame::Bye => {
                        let _ = tx.send(ReaderEvent::Bye);
                        break;
                    }
                    Frame::Error(msg) => {
                        eprintln!("load_gen: server error: {msg}");
                        std::process::exit(1);
                    }
                    _ => {}
                }
            }
        })
    };

    // Send loop: passes over the trace, timestamps rebased per pass.
    eprintln!("load_gen: streaming {target} records in {BATCH}-record frames…");
    let t0 = Instant::now();
    let mut sent = 0u64;
    let mut batches = 0u64;
    let mut pass = pass0;
    'outer: loop {
        let offset = pass * period;
        for chunk in records.chunks(BATCH) {
            let batch: Vec<Record> = chunk
                .iter()
                .map(|r| Record {
                    at_ns: r.at_ns + offset,
                    ..*r
                })
                .collect();
            batches += 1;
            if batches.is_multiple_of(LATENCY_SAMPLE_EVERY) {
                lock_recover(&latency)
                    .pending
                    .insert(batches, Instant::now());
            }
            write_frame(&mut out, &Frame::Records(batch)).expect("send records");
            out.flush().expect("flush records");
            sent += chunk.len() as u64;
            while batches - acked.load(Ordering::SeqCst) >= PIPELINE_DEPTH {
                std::thread::yield_now();
            }
            if sent >= target {
                break 'outer;
            }
        }
        pass += 1;
    }
    // Close out the last window, then ask for totals.
    let final_t = (pass + 1) * period;
    write_frame(&mut out, &Frame::AdvanceTo { t_ns: final_t }).expect("send advance");
    write_frame(&mut out, &Frame::StatsReq).expect("send stats req");
    out.flush().expect("flush tail");

    let stats = match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(ReaderEvent::Stats { ingested, warnings }) => (ingested, warnings),
        Ok(ReaderEvent::Bye) => panic!("daemon said bye before stats"),
        Err(e) => panic!("no stats from daemon: {e}"),
    };
    let last_ack = *lock_recover(&last_ack_at);
    let elapsed = last_ack.saturating_duration_since(t0).as_secs_f64();
    // `>=` — a long-lived daemon may hold records from earlier clients and
    // passes.
    assert!(stats.0 >= sent, "daemon ingested every record sent");

    let mut lats = lock_recover(&latency).samples.clone();
    lats.sort_unstable();
    let pct = |q: usize| {
        if lats.is_empty() {
            0
        } else {
            lats[(lats.len() - 1) * q / 100]
        }
    };
    let (p50_us, p99_us) = (pct(50), pct(99));
    let throughput = if elapsed > 0.0 {
        sent as f64 / elapsed
    } else {
        0.0
    };

    if shutdown {
        probe_far_future(addr);
        write_frame(&mut out, &Frame::Shutdown).expect("send shutdown");
        out.flush().expect("flush shutdown");
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(ReaderEvent::Bye) => println!("load_gen: daemon shut down cleanly"),
            other => eprintln!("load_gen: no bye from daemon ({other:?})"),
        }
    }
    drop(out);
    // Unblock the reader if the daemon stays up (no shutdown requested).
    let _ = sock.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();

    let warned = lock_recover(&warned).clone();
    (
        PassOut {
            sent,
            elapsed,
            throughput,
            p50_us,
            p99_us,
            warnings: stats.1,
            warned,
        },
        pass + 1,
    )
}

fn main() {
    let args = parse_args();
    eprintln!("load_gen: recording {TOPO} failure trace…");
    let (records, link, period, interval) = record_trace();
    eprintln!(
        "load_gen: trace has {} records per pass (rebase period {period} ns)",
        records.len()
    );

    // Smoke must still cover a full pass: the failure sits ~55% into the
    // trace, and the warned-link assertion needs the post-failure tail.
    let one_pass = records.len() as u64;
    let target: u64 = args
        .records
        .unwrap_or(if args.smoke { one_pass } else { 4_000_000 })
        .max(if args.smoke { one_pass } else { 0 });

    if args.local {
        run_local(&records, target, period);
        return;
    }

    // Connect — or spawn a daemon thread on an ephemeral loopback port.
    let (addr, spawned) = match &args.addr {
        Some(a) => (a.clone(), false),
        None => {
            let opts = ServeOptions {
                addr: "127.0.0.1:0".into(),
                snapshot: None,
                window_cap: 8,
                prom_addr: None,
            };
            let server = Server::bind(&opts).expect("bind loopback");
            let addr = server.local_addr().expect("local addr").to_string();
            std::thread::spawn(move || {
                if let Err(e) = server.run() {
                    eprintln!("load_gen: daemon thread failed: {e}");
                }
            });
            (addr, true)
        }
    };
    eprintln!("load_gen: connecting to {addr} (hello trains the engine on first use)…");

    // Baseline pass: no pulse subscriber attached. Smoke runs with
    // `--pulse` skip straight to the subscribed pass so the single smoke
    // pass exercises the pulse path.
    let mut pass_ctr = 0u64;
    let smoke_pulse = args.smoke && args.pulse;
    let pulsed_will_run = args.pulse || !args.smoke;
    let baseline = if smoke_pulse {
        None
    } else {
        let shutdown = !pulsed_will_run && (spawned || args.shutdown);
        let (out, next) = run_pass(
            &addr, &records, target, period, interval, pass_ctr, shutdown,
        );
        pass_ctr = next;
        eprintln!(
            "load_gen: baseline {} records in {:.3}s — {:.0} records/s, \
             p50/p99 batch latency {}/{} µs, {} warnings",
            out.sent, out.elapsed, out.throughput, out.p50_us, out.p99_us, out.warnings
        );
        Some(out)
    };

    // Subscribed pass: one `PulseSub` connection drains `Pulse` frames
    // while the same workload replays, measuring subscriber overhead.
    let pulsed = if pulsed_will_run {
        let (pulse_thread, pulse_sock) = spawn_pulse_sub(&addr);
        let (out, next) = run_pass(
            &addr,
            &records,
            target,
            period,
            interval,
            pass_ctr,
            spawned || args.shutdown,
        );
        pass_ctr = next;
        let _ = pass_ctr;
        let _ = pulse_sock.shutdown(std::net::Shutdown::Both);
        let pstats = pulse_thread.join().expect("pulse thread");
        eprintln!(
            "load_gen: with pulse sub {} records in {:.3}s — {:.0} records/s, \
             p50/p99 batch latency {}/{} µs; {} pulse frames, {} points, \
             last window {}, monotone={}",
            out.sent,
            out.elapsed,
            out.throughput,
            out.p50_us,
            out.p99_us,
            pstats.frames,
            pstats.points,
            pstats.last_window,
            pstats.monotone
        );
        assert!(
            pstats.monotone,
            "pulse subscriber saw a duplicated or reordered window"
        );
        Some((out, pstats))
    } else {
        None
    };

    // The headline `ingest` row is the baseline when one ran, else the
    // subscribed pass (smoke --pulse).
    let head = baseline
        .as_ref()
        .or(pulsed.as_ref().map(|(o, _)| o))
        .expect("at least one pass ran");
    let mut json = format!(
        "{{\"bench\":\"serve\",\n \
         \"config\":{{\"smoke\":{},\"topology\":\"Geant2012\",\"batch\":{BATCH},\
         \"pipeline_depth\":{PIPELINE_DEPTH},\"density\":{DENSITY},\"seed\":{SEED}}},\n \
         \"ingest\":{{\"records\":{},\"elapsed_s\":{:.3},\
         \"records_per_sec\":{:.0},\"p50_batch_latency_us\":{},\
         \"p99_batch_latency_us\":{},\"warnings\":{}}}",
        args.smoke,
        head.sent,
        head.elapsed,
        head.throughput,
        head.p50_us,
        head.p99_us,
        head.warnings
    );
    if let Some((out, pstats)) = &pulsed {
        let overhead = match baseline.as_ref() {
            Some(b) if b.throughput > 0.0 => out.throughput / b.throughput,
            _ => 1.0,
        };
        json.push_str(&format!(
            ",\n \"ingest_with_pulse_sub\":{{\"records\":{},\"elapsed_s\":{:.3},\
             \"records_per_sec\":{:.0},\"p50_batch_latency_us\":{},\
             \"p99_batch_latency_us\":{},\"throughput_vs_baseline\":{:.3},\
             \"pulse_frames\":{},\"pulse_points\":{},\"pulse_last_window\":{}}}",
            out.sent,
            out.elapsed,
            out.throughput,
            out.p50_us,
            out.p99_us,
            overhead,
            pstats.frames,
            pstats.points,
            pstats.last_window
        ));
    }
    json.push_str("}\n");
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/BENCH_serve.json", &json).expect("write results/BENCH_serve.json");
    println!("{json}");

    if args.smoke {
        let warned: Vec<u16> = baseline
            .iter()
            .chain(pulsed.iter().map(|(o, _)| o))
            .flat_map(|o| o.warned.iter().copied())
            .collect();
        if warned.contains(&link.0) {
            println!("serve-smoke: OK warned injected link {}", link.0);
        } else {
            eprintln!(
                "serve-smoke: FAIL injected link {} not warned (warned: {:?})",
                link.0, warned
            );
            std::process::exit(1);
        }
        if let Some((_, pstats)) = &pulsed {
            if pstats.frames > 0 && pstats.points > 0 {
                println!(
                    "pulse-smoke: OK {} pulse frames, {} points, last window {}",
                    pstats.frames, pstats.points, pstats.last_window
                );
            } else {
                eprintln!(
                    "pulse-smoke: FAIL subscriber saw {} frames / {} points",
                    pstats.frames, pstats.points
                );
                std::process::exit(1);
            }
        }
    }
}

impl std::fmt::Debug for ReaderEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReaderEvent::Stats { ingested, warnings } => f
                .debug_struct("Stats")
                .field("ingested", ingested)
                .field("warnings", warnings)
                .finish(),
            ReaderEvent::Bye => f.write_str("Bye"),
        }
    }
}
