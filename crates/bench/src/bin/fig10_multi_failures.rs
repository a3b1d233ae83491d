//! Figure 10 — random multiple failure scenarios (Chinanet, density 1.0).
//!
//! §6.6: "We set failure units at each number randomly for 30 epochs and
//! calculate the metrics." Expected shape: precision roughly flat at a high
//! level while accuracy, recall and F1 decline as the number of concurrent
//! failures grows.

use db_bench::{emit, prepared, run_sweep, scale};
use db_core::experiment::{average_by_variant, ScenarioKind};
use db_util::table::{f3, pct, TextTable};

fn main() {
    let epochs = scale(8, 30) as u64;
    let max_failures = scale(6, 8);
    let prep = prepared("Chinanet");
    let mut t = TextTable::new(
        "Figure 10: Random multiple failures (Chinanet, density 1.0)",
        &["failures", "precision", "recall", "F1", "accuracy", "FPR"],
    );
    // Every failure count in one sweep: one workload, one healthy prefix.
    let outcomes = run_sweep("fig10-Chinanet", &prep, |s| {
        s.seed(0xA10)
            .scenarios((1..=max_failures).flat_map(|count| {
                (0..epochs).map(move |e| ScenarioKind::RandomLinks {
                    count,
                    seed: 0xE90C_u64 + e * 131 + count as u64,
                })
            }))
    });
    // Units are count-major, and a unit of `count` random failures fails
    // exactly `count` links: each count is one run of equal ground truths.
    for group in outcomes.chunk_by(|a, b| a.ground_truth.len() == b.ground_truth.len()) {
        let count = group[0].ground_truth.len();
        let (_, m) = average_by_variant(group).remove(0);
        t.row(&[
            count.to_string(),
            f3(m.precision),
            f3(m.recall),
            f3(m.f1),
            pct(m.accuracy),
            pct(m.fpr),
        ]);
        println!(
            "[{count} concurrent failures done ({} epochs)]",
            group.len()
        );
    }
    emit("fig10_multi_failures", &t);
    println!(
        "Paper Fig. 10 shape: accuracy/recall/F1 decline with the number of\n\
         concurrent failures while precision stays at a considerable level."
    );
}
