//! Figure 7 — F1-score of different weight assignment schemes vs. flow
//! density.
//!
//! The paper traverses every single-link-failure scenario per topology at
//! densities 0.1–1.0 and compares Drift-Bottle (±1), Non-Negative (+1/0),
//! 007-Drifted (+1/n / 0) and 007-Modified (±1/n) under the distributed
//! mechanism. Expected shape: Drift-Bottle ≈ 007-Modified ≫ Non-Negative >
//! 007-Drifted, all improving with density.
//!
//! All four schemes observe the *same* simulated packets (they run as
//! parallel variants inside one simulation), so differences are purely due
//! to the weight assignment.

use db_bench::{active_topologies, emit, prepared_all, run_sweep, scale};
use db_core::experiment::{average_by_variant, sample_covered_links, ScenarioKind};
use db_core::VariantSpec;
use db_util::table::{f3, TextTable};

fn main() {
    let densities: Vec<f64> = if db_bench::full_scale() {
        (1..=10).map(|i| i as f64 / 10.0).collect()
    } else {
        vec![0.2, 0.6, 1.0]
    };
    let n_links = scale(6, usize::MAX);
    let names = active_topologies();
    let preps = prepared_all(&names);
    let mut t = TextTable::new(
        "Figure 7: F1 of weight assignment schemes vs flow density (single link failures)",
        &[
            "Topology",
            "density",
            "Drift-Bottle",
            "Non-Negative",
            "007-Drifted",
            "007-Modified",
        ],
    );
    for (name, prep) in names.iter().zip(&preps) {
        let links = sample_covered_links(prep, n_links, 0x7167);
        for &density in &densities {
            let outcomes = run_sweep(&format!("fig7-{name}-d{density:.1}"), prep, |s| {
                s.density(density)
                    .seed(0x9_E0 + (density * 100.0) as u64)
                    .variants(VariantSpec::fig7_set())
                    .scenarios(links.iter().map(|&l| ScenarioKind::SingleLink(l)))
            });
            let avg = average_by_variant(&outcomes);
            let f1_of = |n: &str| {
                avg.iter()
                    .find(|(name, _)| name == n)
                    .map(|(_, m)| m.f1)
                    .unwrap_or(f64::NAN)
            };
            t.row(&[
                name.to_string(),
                format!("{density:.1}"),
                f3(f1_of("Drift-Bottle")),
                f3(f1_of("Non-Negative")),
                f3(f1_of("007-Drifted")),
                f3(f1_of("007-Modified")),
            ]);
            println!(
                "[{name} density {density:.1}: {} scenarios done]",
                outcomes.len()
            );
        }
    }
    emit("fig7_weight_schemes", &t);
    println!(
        "Paper Fig. 7 shape: Drift-Bottle ≈ 007-Modified outperform Non-Negative and\n\
         007-Drifted (no innocence credit); F1 grows with flow density."
    );
}
