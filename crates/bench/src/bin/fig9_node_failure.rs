//! Figure 9 — multiple link failures caused by single node failures.
//!
//! Every node failure fails all of its incident links at once (§6.6).
//! Expected shape: precision stays high while recall drops relative to the
//! single-link case (more failed links to find, and a dead node silences
//! the monitors' best vantage point); Drift-Bottle still leads.

use db_bench::{emit, prepared_all, run_sweep, scale};
use db_core::experiment::{average_by_variant, sample_nodes, ScenarioKind};
use db_core::VariantSpec;
use db_util::table::{f3, pct, TextTable};

fn main() {
    let n_nodes = scale(6, usize::MAX);
    let names = db_bench::active_topologies();
    let preps = prepared_all(&names);
    let mut t = TextTable::new(
        "Figure 9: Multiple link failures caused by single node failures",
        &[
            "Topology",
            "Mechanism",
            "precision",
            "recall",
            "F1",
            "accuracy",
            "FPR",
        ],
    );
    for (name, prep) in names.iter().zip(&preps) {
        let nodes = sample_nodes(&prep.topo, n_nodes, 0xF199);
        let outcomes = run_sweep(&format!("fig9-{name}"), prep, |s| {
            s.seed(0x919)
                .variants(VariantSpec::fig8_set())
                .scenarios(nodes.into_iter().map(ScenarioKind::Node))
        });
        for (variant, m) in average_by_variant(&outcomes) {
            t.row(&[
                name.to_string(),
                variant,
                f3(m.precision),
                f3(m.recall),
                f3(m.f1),
                pct(m.accuracy),
                pct(m.fpr),
            ]);
        }
        println!("[{name} done]");
    }
    emit("fig9_node_failure", &t);
    println!(
        "Paper Fig. 9 shape: compared with Fig. 8, recall drops (many more failed\n\
         links per scenario) while precision stays high — operators localize the\n\
         failed node once several of its links are reported. §6.6 headline:\n\
         accuracy ≥ 97.76%, FPR ≈ 0.5%."
    );
}
