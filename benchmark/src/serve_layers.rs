//! The traced run of the serve workloads: where a served record's time
//! goes, layer by layer, measured from outside by timing calls into each
//! layer's public functions.
//!
//! Three parts. (1) The same daemon run as the end-to-end measurement, for
//! half the time, plus idle round trips on its connection. (2) An
//! in-process replay of the daemon's per-batch path — `decode_frame` →
//! `server::flow_record` → `Engine::ingest` → `encode_frame(IngestAck)` —
//! with a span around each call. (3) Short loops over the sub-layers
//! (monitor registers, classifier, hop pipeline, recorders) on inputs taken
//! from the same trace.

use crate::layers::{
    flowmon_and_dtree, hop_pipeline, median_ns_per_call, system_on_packet, telemetry_feeds,
};
use crate::metrics::{Values, PER_LAYER};
use crate::serve::{
    build_engine, daemon_binary, drive, start_daemon, stop_daemon, Inputs, Mode, PassFrames,
    Recorders, Trace,
};
use crate::trace::Tracer;
use crate::workload::{Outcome, RunCfg};
use crate::{daemon::Conn, stats};
use db_core::Prepared;
use db_serve::server::flow_record;
use db_serve::{decode_frame, encode_frame, Frame, WarningMsg};
use std::hint::black_box;
use std::time::Instant;

fn warning_msg(w: &db_core::Warning) -> WarningMsg {
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

/// What the in-process replay of the daemon's per-batch path measured.
struct Replay {
    /// Wall time of each batch of the bare passes, nanoseconds.
    bare_ns: Vec<f64>,
    /// The same for the traced passes.
    traced_ns: Vec<f64>,
    /// Peak carrier-table size sampled at batch boundaries.
    carriers_peak: usize,
}

/// The daemon's per-batch path in this process, on one engine: an untimed
/// warm-up pass over the trace, then `passes` pairs of a bare pass and a
/// traced one, in which every public call is a span under its batch. The
/// arms alternate so that neither is the one that ran on the colder or the
/// more disturbed machine (back to back, tracing read as a 5 % *gain*).
fn replay_batches(
    prep: &Prepared,
    trace: &Trace,
    frames: &mut PassFrames,
    passes: u64,
    tracer: &mut Tracer,
) -> Replay {
    let mut engine = build_engine(prep, &trace.flows, Recorders::Scope);
    let mut out = Replay {
        bare_ns: Vec::new(),
        traced_ns: Vec::new(),
        carriers_peak: 0,
    };
    let mut op = 0u64;
    for pass in 0..=2 * passes {
        let traced = pass > 0 && pass % 2 == 0;
        let mut tracer = traced.then_some(&mut *tracer);
        for i in 0..frames.len() {
            let wire = frames.patched(i, pass * trace.period_ns);
            let payload = &wire[4..];
            let t0 = Instant::now();
            let batch = tracer.as_deref_mut().map(|t| t.begin("serve.batch", op));
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("serve.frame.decode", op));
            let frame = decode_frame(payload).expect("own frame decodes");
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end(s);
            }
            let Frame::Records(records) = frame else {
                unreachable!("PassFrames holds Records frames only")
            };
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("core.engine.ingest", op));
            let mut raised = Vec::new();
            for r in &records {
                raised.extend(engine.ingest(&flow_record(r)));
            }
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end(s);
            }
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("serve.ack.encode", op));
            let ack = Frame::IngestAck {
                count: u32::try_from(records.len()).expect("batch fits u32"),
                warnings: raised.iter().map(warning_msg).collect(),
            };
            black_box(encode_frame(&ack));
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end(s);
            }
            out.carriers_peak = out.carriers_peak.max(engine.carriers_in_flight());
            if let (Some(t), Some(b)) = (tracer.as_deref_mut(), batch) {
                t.count("core.engine.carriers", engine.carriers_in_flight() as f64);
                t.end(b);
            }
            let ns = t0.elapsed().as_nanos() as f64;
            match pass {
                0 => {}
                _ if traced => out.traced_ns.push(ns),
                _ => out.bare_ns.push(ns),
            }
            op += 1;
        }
    }
    out
}

/// What one bare-engine pass measured.
struct EnginePass {
    ns_per_rec: f64,
    healthy_ns_per_rec: f64,
    failed_ns_per_rec: f64,
    /// Wall µs of each `ingest` call across which a window tick fired.
    tick_us: Vec<f64>,
}

/// One pass of `Engine::ingest` alone over the trace (no frames), split at
/// the failure time, timing separately the calls that close a window.
fn engine_pass(prep: &Prepared, trace: &Trace, rec: Recorders) -> EnginePass {
    let mut engine = build_engine(prep, &trace.flows, rec);
    let records = &trace.flow_records;
    let split = trace.records.partition_point(|r| r.at_ns < trace.t_fail_ns);
    let mut tick_us = Vec::new();
    let mut run = |range: std::ops::Range<usize>, engine: &mut db_core::Engine<_>| {
        let t0 = Instant::now();
        for r in &records[range] {
            // `ingest` fires every tick due at or before the record, so a
            // record at or past the next boundary is a window-closing call.
            let next_tick_ns = (u64::from(engine.ticks_fired()) + 1) * trace.interval_ns;
            if r.at.as_ns() >= next_tick_ns {
                let t = Instant::now();
                black_box(engine.ingest(r));
                tick_us.push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                black_box(engine.ingest(r));
            }
        }
        t0.elapsed().as_nanos() as f64
    };
    let healthy_ns = run(0..split, &mut engine);
    let failed_ns = run(split..records.len(), &mut engine);
    EnginePass {
        ns_per_rec: (healthy_ns + failed_ns) / records.len().max(1) as f64,
        healthy_ns_per_rec: healthy_ns / split.max(1) as f64,
        failed_ns_per_rec: failed_ns / (records.len() - split).max(1) as f64,
        tick_us,
    }
}

/// Snapshot the engine mid-failure and restore it onto a fresh one:
/// `(snapshot ms, restore ms)`.
fn snapshot_restore(prep: &Prepared, trace: &Trace) -> (f64, f64) {
    let mut engine = build_engine(prep, &trace.flows, Recorders::Scope);
    // Three quarters into the pass: past the failure, carriers drifting.
    for r in &trace.flow_records[..trace.flow_records.len() * 3 / 4] {
        engine.ingest(r);
    }
    let t0 = Instant::now();
    let bytes = engine.snapshot();
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut fresh = build_engine(prep, &trace.flows, Recorders::Scope);
    let t0 = Instant::now();
    fresh.restore(&bytes).expect("own snapshot restores");
    (snapshot_ms, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median round trip of `request` on an idle connection, µs.
fn round_trip_us(conn: &mut Conn, request: &Frame, n: usize) -> Result<(f64, Frame), String> {
    let mut us = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let reply = conn.request(request)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(reply);
    }
    Ok((stats::median(&us), last.expect("n >= 1")))
}

/// The traced run of a serve workload.
pub fn run(cfg: &RunCfg, mode: Mode, workload: &str) -> Result<Outcome, String> {
    let binary = daemon_binary(cfg)?;
    let mut v = Values::new(PER_LAYER);
    let Inputs {
        prep,
        prepare_s,
        trace,
        reference,
        mut frames,
    } = Inputs::build(cfg, mode);
    v.set("core.prepare_ms", prepare_s * 1e3);
    v.set("gen.encode_ns_per_rec", frames.encode_ns_per_rec);
    v.set(
        "netsim.events_per_s",
        trace.sim_events as f64 / trace.sim_wall_s.max(1e-9),
    );
    v.set("netsim.packets_per_scenario", trace.packets_sent as f64);
    v.set("netsim.traffic_gen_ms", trace.traffic_gen_s * 1e3);

    // Part 1: the daemon, half the time, then its idle connection.
    let (daemon, mut conn, facts, _) = start_daemon(binary, cfg.smoke, cfg.seed)?;
    let load = drive(&mut conn, &trace, &mut frames, mode, cfg.seconds / 2.0)?;
    let (rtt_us, _) = round_trip_us(&mut conn, &Frame::StatsReq, 1000)?;
    let (pulse_us, pulse) = round_trip_us(&mut conn, &Frame::PulseReq { from_window: 0 }, 20)?;
    let (snap_us, snap) = round_trip_us(&mut conn, &Frame::SnapshotReq, 5)?;
    stop_daemon(daemon, conn)?;
    let mut problems = Vec::new();
    reference.check(&trace, &facts, &load, &mut problems);
    let Frame::Pulse(pulse) = pulse else {
        return Err(format!("expected Pulse, got {pulse:?}"));
    };
    let Frame::Snapshot(snap) = snap else {
        return Err(format!("expected Snapshot, got {snap:?}"));
    };
    v.set("serve.rtt_idle_us", rtt_us);
    v.set("serve.pulse_req_us", pulse_us);
    v.set("serve.snapshot_req_ms", snap_us / 1e3);
    v.set("serve.snapshot_bytes", snap.len() as f64);
    v.set("serve.server_batch_p50_us", pulse.p50_us);
    v.set("serve.server_batch_p99_us", pulse.p99_us);
    let mut lat = load.latency_us.clone();
    stats::sort(&mut lat);
    v.set("serve.batch_p50_us", stats::percentile(&lat, 0.50));
    v.set("serve.batch_p90_us", stats::percentile(&lat, 0.90));
    v.set("serve.batch_p99_us", stats::percentile(&lat, 0.99));
    v.set("serve.batch_max_us", lat.last().copied().unwrap_or(0.0));
    v.set("serve.slow_ticks", load.stats_slow_ticks as f64);
    v.set("serve.carriers_end", load.stats_carriers as f64);
    v.set("serve.warnings", load.stats_warnings as f64);
    v.set("gen.busy_share", load.gen_busy_share);
    let mut late = load.gen_late_us.clone();
    stats::sort(&mut late);
    v.set("gen.late_p50_us", stats::percentile(&late, 0.50));
    v.set("gen.late_p99_us", stats::percentile(&late, 0.99));

    // Part 2: the per-batch path in this process, bare and traced, over as
    // many passes each as the daemon started (capped: the traced run has
    // the other half of the time).
    let passes = load.passes.clamp(1, 2);
    let mut tracer = Tracer::new();
    let Replay {
        bare_ns,
        traced_ns,
        carriers_peak,
    } = replay_batches(&prep, &trace, &mut frames, passes, &mut tracer);
    // Median batch against median batch: one disturbed stretch of either
    // arm must not read as a cost (or a gain) of tracing.
    v.set(
        "trace.overhead_share",
        stats::median(&traced_ns) / stats::median(&bare_ns).max(1e-9) - 1.0,
    );
    v.set("core.engine.carriers_peak", carriers_peak as f64);
    let replayed = (passes * trace.records.len() as u64) as f64;
    let self_times = tracer.self_times();
    let self_ns_per_rec = |name: &str| self_times.get(name).map_or(0.0, |t| t.2 as f64) / replayed;
    let decode_ns = self_ns_per_rec("serve.frame.decode");
    let ingest_scope_ns = self_ns_per_rec("core.engine.ingest");
    let ack_ns = self_ns_per_rec("serve.ack.encode");
    let batch_self_ns = self_ns_per_rec("serve.batch");
    v.set("serve.frame.decode_ns_per_rec", decode_ns);
    v.set("core.engine.ingest_scope_ns_per_rec", ingest_scope_ns);
    // What a served record's wall time holds beyond the three calls:
    // socket, engine lock, wake-ups and scheduler. The same statistic on
    // both sides of the subtraction. Closed loop: the daemon is saturated,
    // so the mean wall time per record (elapsed ÷ records acknowledged)
    // against the mean in-process time per record, which is the sum of the
    // span self times. Open loop: the daemon idles between batches, so the
    // median batch latency against the median in-process batch, both
    // spread over the batch.
    let mean_attributed = decode_ns + ingest_scope_ns + ack_ns + batch_self_ns;
    let (untraced_ns, attributed) = match mode {
        Mode::Closed => (
            load.elapsed_s * 1e9 / (load.acked_records as f64).max(1.0),
            mean_attributed,
        ),
        Mode::Paced => (
            stats::median(&load.latency_us) * 1e3 / mode.batch() as f64,
            stats::median(&traced_ns) / mode.batch() as f64,
        ),
    };
    v.set("serve.unattributed_ns_per_rec", untraced_ns - attributed);
    v.set("trace.attributed_share", attributed / untraced_ns.max(1e-9));

    // Ack codec with an empty and a 16-warning ack, encode + decode.
    let sample: Vec<WarningMsg> = (0..16u16)
        .map(|i| WarningMsg {
            at_ns: 1_000_000 + u64::from(i),
            switch: i,
            link: i + 1,
            variant: 0,
            hop_now: 4,
            w0: 12.0,
            w1: 3.0,
            header: vec![0u8; 9],
        })
        .collect();
    let mut acks = [
        Frame::IngestAck {
            count: 256,
            warnings: Vec::new(),
        },
        Frame::IngestAck {
            count: 256,
            warnings: sample,
        },
    ]
    .into_iter()
    .cycle();
    let ack_codec_ns = median_ns_per_call(5, 20_000, || {
        let bytes = encode_frame(&acks.next().expect("cycle"));
        black_box(decode_frame(&bytes).expect("own ack decodes"));
    });
    v.set("serve.frame.encode_ack_us", ack_codec_ns / 1e3);

    // Part 3: the engine alone, then the layers under it.
    let bare = engine_pass(&prep, &trace, Recorders::Bare);
    v.set("core.engine.ingest_ns_per_rec", bare.ns_per_rec);
    v.set(
        "core.engine.ingest_healthy_ns_per_rec",
        bare.healthy_ns_per_rec,
    );
    v.set(
        "core.engine.ingest_failed_ns_per_rec",
        bare.failed_ns_per_rec,
    );
    let mut ticks = bare.tick_us.clone();
    stats::sort(&mut ticks);
    v.set("core.engine.tick_us_p50", stats::percentile(&ticks, 0.5));
    v.set(
        "core.engine.tick_us_max",
        ticks.last().copied().unwrap_or(0.0),
    );
    let flight = engine_pass(&prep, &trace, Recorders::ScopeFlight);
    v.set("core.engine.ingest_flight_ns_per_rec", flight.ns_per_rec);
    let (snapshot_ms, restore_ms) = snapshot_restore(&prep, &trace);
    v.set("core.engine.snapshot_ms", snapshot_ms);
    v.set("core.engine.restore_ms", restore_ms);
    v.set("core.system.on_packet_ns", system_on_packet(&prep, &trace));
    let (inline_ns, vec_ns, codec_ns) = hop_pipeline();
    v.set("inference.hop_inline_ns", inline_ns);
    v.set("inference.hop_vec_ns", vec_ns);
    v.set("inference.header_codec_ns", codec_ns);
    let (packet_ns, close_us, classify_ns, train_ms) = flowmon_and_dtree(&prep, &trace);
    v.set("flowmon.on_packet_ns", packet_ns);
    v.set("flowmon.end_interval_us", close_us);
    v.set("dtree.classify_ns", classify_ns);
    v.set("dtree.train_ms", train_ms);
    let (scope_ns, flight_ns, points_us) = telemetry_feeds(&prep, &trace);
    v.set("telemetry.scope_feed_ns", scope_ns);
    v.set("telemetry.flight_record_ns", flight_ns);
    v.set("telemetry.points_from_us", points_us);

    let trace_path = crate::write_trace(cfg, workload, &tracer)?;
    Ok(Outcome {
        attempted: load.sent_records,
        failed: load.sent_records - load.acked_records,
        metrics: v.metrics(),
        problems,
        context: vec![
            ("generator_limited", load.generator_limited().to_string()),
            ("threads", "2".into()),
            ("batches", load.batches.to_string()),
            ("untraced_ns_per_rec", format!("{untraced_ns:.1}")),
            ("attributed_ns_per_rec", format!("{attributed:.1}")),
            ("ack_encode_ns_per_rec", format!("{ack_ns:.2}")),
            ("spans", tracer.span_count().to_string()),
            ("trace_file", crate::json::string(&trace_path)),
        ],
    })
}
