//! Ablation — the over-aggregation hazard of §4.3.
//!
//! "It should be noted that the switch does not update its local inference
//! to the aggregated one ... If s2 updates its local inference after
//! aggregation, the drifted inference from the n-th packets received by s3
//! will be n × I1 ⊕ I2, which leads to a strong bias ... that may cause an
//! incorrect warning."
//!
//! This binary runs the correct protocol and the forbidden absorbing variant
//! side by side on identical traffic and quantifies the damage.

use db_bench::{emit, prepared, run_sweep, scale};
use db_core::experiment::{average_by_variant, sample_covered_links, ScenarioKind};
use db_core::{Mechanism, VariantSpec};
use db_inference::WeightScheme;
use db_util::table::{f3, pct, TextTable};

fn main() {
    let n_links = scale(8, 24);
    let prep = prepared("Geant2012");
    let links = sample_covered_links(&prep, n_links, 0xAB1);
    let mut kinds: Vec<ScenarioKind> = links.iter().map(|&l| ScenarioKind::SingleLink(l)).collect();
    // Also a healthy scenario: over-aggregation hurts most when there is
    // nothing to find.
    kinds.push(ScenarioKind::None);
    let outcomes = run_sweep("ablation_over_aggregation", &prep, |s| {
        s.seed(0xAB1E)
            .variants(vec![
                VariantSpec::drift_bottle(),
                VariantSpec {
                    name: "DB-Absorbing".into(),
                    scheme: WeightScheme::DriftBottle,
                    mechanism: Mechanism::DistributedAbsorbing,
                },
            ])
            .scenarios(kinds)
    });
    let failures: Vec<_> = outcomes
        .iter()
        .filter(|o| !o.ground_truth.is_empty())
        .cloned()
        .collect();
    let mut t = TextTable::new(
        "Ablation §4.3: immutable locals vs absorbing aggregates (Geant2012, single link failures)",
        &[
            "Protocol",
            "precision",
            "recall",
            "F1",
            "FPR",
            "raises/scenario",
        ],
    );
    for (name, m) in average_by_variant(&failures) {
        let raises: u64 = failures
            .iter()
            .map(|o| o.variant(&name).expect("variant present").raises)
            .sum();
        t.row(&[
            name.clone(),
            f3(m.precision),
            f3(m.recall),
            f3(m.f1),
            pct(m.fpr),
            format!("{:.0}", raises as f64 / failures.len() as f64),
        ]);
    }
    emit("ablation_over_aggregation", &t);
    let healthy = outcomes
        .iter()
        .find(|o| o.ground_truth.is_empty())
        .expect("healthy scenario present");
    for v in &healthy.variants {
        println!(
            "healthy network, {}: {} links falsely accused ({} raises)",
            v.name,
            v.reported.len(),
            v.raises
        );
    }
    println!(
        "\nExpected: the absorbing variant inflates weights with every packet, raising\n\
         spurious warnings — the §4.3 argument for keeping locals immutable."
    );
}
