//! Short loops over single layers, shared by the traced runs: the per-hop
//! inference pipeline, monitor registers and window close, the classifier,
//! the per-packet system path, and the recorders' feed calls. Inputs come
//! from the workload's own recorded trace wherever the layer takes any.

use crate::serve::{deploy_system, scope_recorder, Trace};
use crate::stats;
use db_core::Prepared;
use db_dtree::{DecisionTree, TrainConfig};
use db_flowmon::NetworkMonitor;
use db_inference::{
    aggregate_step, aggregate_step_inline, check_warning, check_warning_inline, HeaderCodec,
    Inference, InlineInference, WarningConfig, MAX_HEADER_BYTES,
};
use db_netsim::{Annotation, Observer};
use db_telemetry::flight::{FlightRecord, FlightRecorder};
use db_topology::LinkId;
use db_util::Pcg64;
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds per call of `f` over `iters` calls.
pub fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Median over `rounds` of [`ns_per_call`]: the loops are short, so one
/// disturbed round must not set the figure.
pub fn median_ns_per_call(rounds: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds).map(|_| ns_per_call(iters, &mut f)).collect();
    stats::median(&samples)
}

fn sample_inference(rng: &mut Pcg64) -> Inference {
    Inference::from_pairs((0..4).map(|_| {
        (
            LinkId(rng.below(150) as u16),
            rng.range_f64(-10.0, 30.0).round(),
        )
    }))
}

/// The per-hop pipeline at k = 4, inline and Vec forms, and the header
/// codec alone: `(inline ns, vec ns, codec ns)`.
pub fn hop_pipeline() -> (f64, f64, f64) {
    let codec = HeaderCodec::paper();
    let warn = WarningConfig::default();
    let mut rng = Pcg64::new(7);
    let locals: Vec<Inference> = (0..16).map(|_| sample_inference(&mut rng)).collect();
    let locals_inline: Vec<InlineInference> =
        locals.iter().map(InlineInference::from_inference).collect();
    let seed_inf = sample_inference(&mut rng);

    let mut buf = [0u8; MAX_HEADER_BYTES];
    let len = codec.encode_into(&InlineInference::from_inference(&seed_inf), 1, &mut buf);
    let mut li = 0usize;
    let inline_ns = median_ns_per_call(5, 100_000, || {
        let (inf, h) = codec
            .decode_inline(black_box(&buf[..len]))
            .expect("valid header");
        let (agg, h) = aggregate_step_inline(&locals_inline[li & 15], &inf, h, 4);
        li = li.wrapping_add(1);
        black_box(check_warning_inline(&agg, u32::from(h), &warn));
        codec.encode_into(&agg, h, &mut buf);
    });

    let mut bytes = codec.encode(&seed_inf, 1);
    li = 0;
    let vec_ns = median_ns_per_call(5, 50_000, || {
        let (inf, h) = codec.decode(black_box(&bytes)).expect("valid header");
        let (agg, h) = aggregate_step(&locals[li & 15], &inf, h, 4);
        li = li.wrapping_add(1);
        black_box(check_warning(&agg, u32::from(h), &warn));
        bytes = codec.encode(&agg, h);
    });

    let inf = InlineInference::from_inference(&seed_inf);
    let codec_ns = median_ns_per_call(5, 200_000, || {
        let n = codec.encode_into(black_box(&inf), 3, &mut buf);
        black_box(codec.decode_inline(&buf[..n]));
    });
    (inline_ns, vec_ns, codec_ns)
}

/// Monitor registers and window close over the trace:
/// `(on_packet ns, end_interval µs, classify ns, train ms)`.
pub fn flowmon_and_dtree(prep: &Prepared, trace: &Trace) -> (f64, f64, f64, f64) {
    let mut monitor = NetworkMonitor::deploy(&prep.topo, &trace.flows, prep.wcfg);
    let mut packet_ns = 0.0;
    let mut close_us = Vec::new();
    for (tick, window) in trace.windows() {
        let t0 = Instant::now();
        for r in window {
            monitor.on_packet(r.at, &r.info, r.info.size);
        }
        packet_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        monitor.end_interval(tick);
        close_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let vectors: Vec<_> = monitor.rows.iter().map(|r| r.features).collect();
    let mut classify_ns = 0.0;
    let mut train_ms = 0.0;
    if !vectors.is_empty() {
        let mut i = 0usize;
        classify_ns = median_ns_per_call(5, 100_000, || {
            black_box(prep.table.classify(black_box(&vectors[i % vectors.len()])));
            i += 1;
        });
        // Train on the window's own vectors, labelled by the deployed
        // table: the real feature distribution at the real tree size.
        let examples: Vec<_> = vectors
            .iter()
            .take(20_000)
            .map(|x| (*x, prep.table.classify(x)))
            .collect();
        let t0 = Instant::now();
        black_box(DecisionTree::train(&examples, &TrainConfig::default()));
        train_ms = t0.elapsed().as_secs_f64() * 1e3;
    }
    (
        packet_ns / trace.flow_records.len().max(1) as f64,
        stats::median(&close_us),
        classify_ns,
        train_ms,
    )
}

/// `DriftBottleSystem::on_packet` through the `Observer` trait on the
/// recorded hops (ticks fired at their times), ns per hop.
pub fn system_on_packet(prep: &Prepared, trace: &Trace) -> f64 {
    let mut system = deploy_system(prep, &trace.flows);
    let mut packet_ns = 0.0;
    for (tick, window) in trace.windows() {
        let t0 = Instant::now();
        for r in window {
            // No live packet carries the header here, so every hop sees an
            // empty annotation: the monitoring half of the per-packet path.
            let mut ann = Annotation::empty();
            Observer::on_packet(&mut system, r.at, &r.info, &mut ann);
        }
        packet_ns += t0.elapsed().as_nanos() as f64;
        Observer::on_tick(&mut system, tick);
    }
    packet_ns / trace.flow_records.len().max(1) as f64
}

/// The recorders' own feed and extract calls:
/// `(scope feed ns, flight record ns, points_from µs)`.
pub fn telemetry_feeds(prep: &Prepared, trace: &Trace) -> (f64, f64, f64) {
    let scope = scope_recorder(prep);
    let mut at = 0u64;
    let scope_ns = median_ns_per_call(5, 100_000, || {
        at += 1000;
        scope.merge(at, (at % 32) as u16, 3.0, Some((at % 32) as u16));
    });
    let flight = FlightRecorder::with_default_capacity();
    let flight_ns = median_ns_per_call(5, 100_000, || {
        at += 1000;
        flight.record(FlightRecord::DriftMerged {
            at_ns: at,
            switch: 3,
            flow: 17,
            pkt_seq: at,
            hop_now: 2,
            in_digest: 1,
            local_digest: 2,
            out_digest: 3,
            w0: 3.0,
            w1: 1.0,
            top_link: Some(9),
            dropped_links: Vec::new(),
        });
    });
    // Extraction from a recorder that holds a whole pass of windows.
    let filled = scope_recorder(prep);
    for r in &trace.records {
        filled.merge(r.at_ns, r.node, 1.0, Some(r.node));
    }
    let mut buf = Vec::new();
    let points_ns = median_ns_per_call(5, 20, || {
        buf.clear();
        black_box(filled.points_from(0, &mut buf));
    });
    (scope_ns, flight_ns, points_ns / 1e3)
}
