//! §6.10 — resource usage.
//!
//! The paper reports: a 9 B header (< 1% of a 1500 B MTU); the P4 program's
//! stage/SRAM/TCAM budget; and packet latency rising from 732 ns to 845 ns
//! at 100 Gbps. We cannot measure Tofino, so this binary reports the
//! software analogues: exact header overhead per k, the data-plane model's
//! per-packet processing cost (measured inline), and the match-action table
//! footprint of the trained classifiers. The per-packet figure is one
//! sample of one loop over `wire_hop`, the kernel the daemon's wire variant
//! runs; `benchmark/` has no layer timing that kernel yet (its
//! `inference.hop_inline_ns` times the `f64` reference chain).

use db_bench::{emit, prepared};
use db_inference::{wire_hop, HeaderCodec, Inference, KeyedInference, MAX_HEADER_BYTES};
use db_topology::LinkId;
use db_util::table::TextTable;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    // Header overhead table.
    let mut t = TextTable::new(
        "§6.10 Bandwidth: inference header overhead",
        &["k", "id width", "header bytes", "% of 1500B MTU"],
    );
    for k in [2usize, 3, 4, 6, 8] {
        for wide in [false, true] {
            let codec = HeaderCodec { k, wide };
            t.row(&[
                k.to_string(),
                if wide { "2B".into() } else { "1B".to_string() },
                codec.byte_len().to_string(),
                format!("{:.2}%", 100.0 * codec.byte_len() as f64 / 1500.0),
            ]);
        }
    }
    emit("resource_header_overhead", &t);
    println!("Paper §6.10: 9 B at k = 4 — 'a negligible transmission amount of under 1%'.\n");

    // Per-packet processing cost of the hop in the form the data plane runs
    // it: `wire_hop` on a keyed local, header bytes rewritten in place, no
    // allocation.
    let codec = HeaderCodec::paper();
    let keyed = |pairs: [(u16, f64); 4]| {
        let inf = Inference::from_pairs(pairs.map(|(l, w)| (LinkId(l), w)));
        KeyedInference::from_entries(inf.entries()).expect("integral weights")
    };
    let local = keyed([(3, 5.0), (9, 2.0), (17, -3.0), (40, 1.0)]);
    let drifted = keyed([(3, 7.0), (22, 2.0), (9, 1.0), (51, -1.0)]);
    let warn = db_inference::WarningConfig::default();
    let mut buf = [0u8; MAX_HEADER_BYTES];
    let len = codec.encode_keyed_into(&drifted, 3, &mut buf);
    let mut out = [0u8; MAX_HEADER_BYTES];
    let iters = 2_000_000u64;
    let start = Instant::now();
    let mut guard = 0u64;
    for _ in 0..iters {
        let header = Some(black_box(&buf[..len]));
        let hop = wire_hop(&codec, header, &local, &warn, None, &mut out);
        if hop.warning().is_some() {
            guard += 1;
        }
        guard += u64::from(out[0]);
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let mut t2 = TextTable::new(
        "§6.10 Switch processing: software data-plane model, per packet",
        &["operation", "cost"],
    );
    t2.row(&[
        "wire_hop: decode + aggregate(⊕, top-k) + warn-check + encode, packed integer keys"
            .to_string(),
        format!("{ns:.0} ns/packet (guard {guard})"),
    ]);
    t2.row(&[
        "paper (Tofino hardware)".to_string(),
        "packet latency 732 ns → 845 ns at 100 Gbps".to_string(),
    ]);
    emit("resource_processing", &t2);

    // Classifier table footprint — the match-action entries the data plane
    // would hold (§5 anomaly detection tables).
    let mut t3 = TextTable::new(
        "§6.10 Match-action footprint of the trained classifiers",
        &[
            "Topology",
            "tree depth",
            "tree nodes",
            "table rules",
            "avg constrained features/rule",
        ],
    );
    for name in ["Geant2012", "Chinanet"] {
        let prep = prepared(name);
        let table = db_dtree::TableClassifier::compile(&prep.tree);
        let avg_constrained: f64 = table
            .rules()
            .iter()
            .map(|r| r.constrained_features() as f64)
            .sum::<f64>()
            / table.len().max(1) as f64;
        t3.row(&[
            name.to_string(),
            prep.tree.depth().to_string(),
            prep.tree.node_count().to_string(),
            table.len().to_string(),
            format!("{avg_constrained:.1}"),
        ]);
    }
    emit("resource_classifier_tables", &t3);
    println!(
        "Paper §6.10 (Tofino): 11 stages, 6.88% SRAM, 1.74% TCAM, 14.58% meter ALUs,\n\
         13.54% logical tables — not measurable in software; the table above gives\n\
         the rule-count analogue."
    );
}
