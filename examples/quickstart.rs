//! Quickstart: deploy Drift-Bottle on a small mesh, break a link, and watch
//! the drifting inferences localize it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use drift_bottle::prelude::*;

fn main() {
    // 1. A 4x3 grid of switches (one host per switch). Training simulates a
    //    few failure scenarios and fits the in-network decision tree.
    println!("training the flow-status classifier on a 4x3 grid...");
    let prep = prepare(
        zoo::grid(4, 3),
        &PrepareConfig {
            n_link_scenarios: 4,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    println!(
        "  classifier: normal recall {:.1}%, abnormal recall {:.1}% on {} held-out windows",
        100.0 * prep.confusion.recall_normal(),
        100.0 * prep.confusion.recall_abnormal(),
        prep.test_samples
    );
    println!(
        "  monitoring: {} ms sampling interval, {}-interval sliding window",
        prep.wcfg.interval.as_ms_f64(),
        prep.wcfg.window_intervals
    );

    // 2. Break the link between the two central switches.
    let culprit = prep
        .topo
        .link_between(NodeId(5), NodeId(6))
        .expect("central grid link");
    println!(
        "\ninjecting failure on {culprit} ({} - {})...",
        prep.topo.label(prep.topo.link(culprit).a),
        prep.topo.label(prep.topo.link(culprit).b),
    );

    // 3. Run the live system. Warning thresholds are scaled to the small
    //    12-switch network (§4.3: thresholds relate to network scale).
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 42);
    setup.sys.warning = WarningConfig {
        hop_min: 3,
        alpha: 1.0,
        beta: 2.0,
    };
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(culprit));
    let result = outcome.variant("Drift-Bottle").expect("flagship variant");

    // 4. Report.
    println!(
        "simulated {} packets ({} dropped by the failure), failure at {}, warnings collected until {}",
        outcome.stats.packets_sent,
        outcome.stats.dropped_down,
        outcome.t_fail,
        outcome.window.1,
    );
    println!("\nwarnings within one sliding window of the failure:");
    if result.reported.is_empty() {
        println!("  (none — try a denser workload)");
    }
    for (switch, link) in &result.reported_pairs {
        println!("  switch {switch} accuses {link}");
    }
    println!(
        "\nlocalization: precision {:.2}, recall {:.2}, F1 {:.2} (accused {:?}, truth {:?})",
        result.metrics.precision,
        result.metrics.recall,
        result.metrics.f1,
        result.reported,
        outcome.ground_truth,
    );
}
