//! Figure 8 — single link failure scenarios.
//!
//! Drift-Bottle vs. 007-Drifted vs. their centralized versions, per
//! topology: precision / recall / F1, plus the §6.5 headline numbers
//! "accuracy beyond 98.59%" and "FPR never exceeds 0.5%".
//!
//! Expected shape: Drift-Bottle on top everywhere; strongest on the
//! star-like Chinanet and ring-like AS1221, weakest on Tinet (long links
//! carry most inter-subnet flows); distributed Drift-Bottle beats its
//! centralized version at high density.

use db_bench::{emit, prepared_all, run_sweep, scale};
use db_core::experiment::{average_by_variant, sample_covered_links, ScenarioKind};
use db_core::VariantSpec;
use db_util::table::{f3, pct, TextTable};

fn main() {
    let n_links = scale(8, usize::MAX);
    // Fig. 8 is the headline figure: all four topologies even in quick mode.
    let names = db_bench::TOPOLOGIES.to_vec();
    let preps = prepared_all(&names);
    let mut t = TextTable::new(
        "Figure 8: Single link failure scenarios",
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
        let links = sample_covered_links(prep, n_links, 0xF188);
        let outcomes = run_sweep(&format!("fig8-{name}"), prep, |s| {
            s.seed(0x818)
                .variants(VariantSpec::fig8_set())
                .scenarios(links.iter().map(|&l| ScenarioKind::SingleLink(l)))
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
    emit("fig8_single_failure", &t);
    println!(
        "Paper Fig. 8 shape: Drift-Bottle > centralized variants > 007-Drifted on all\n\
         topologies; best on Chinanet/AS1221, hardest on Tinet; §6.5 headline:\n\
         accuracy ≥ 98.59%, FPR ≤ 0.5%."
    );
}
