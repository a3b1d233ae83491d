//! Bring your own network: define a topology in the plain-text interchange
//! format, deploy Drift-Bottle on it, and localize a failure — the workflow
//! an operator would follow.
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```

use drift_bottle::prelude::*;
use drift_bottle::topology::parse;

/// A small regional ISP: two core routers, three metro rings.
const NETWORK: &str = "\
topology RegionalISP
node 0 core-east
node 1 core-west
node 2 metro-a1
node 3 metro-a2
node 4 metro-b1
node 5 metro-b2
node 6 metro-c1
node 7 metro-c2
node 8 datacenter
link 0 1 6.5 40000   # core trunk, 40 Gbps
link 0 2 2.0
link 2 3 1.5
link 3 0 2.2
link 1 4 2.5
link 4 5 1.2
link 5 1 2.8
link 0 6 3.0
link 6 7 1.4
link 7 1 3.2
link 1 8 0.9 40000
";

fn main() {
    let topo = parse::from_text(NETWORK).expect("valid topology text");
    println!(
        "loaded '{}': {} nodes, {} links",
        topo.name(),
        topo.node_count(),
        topo.link_count()
    );
    // Round-trip check: serialize back out (what a config tool would store).
    assert_eq!(
        parse::from_text(&parse::to_text(&topo))
            .unwrap()
            .link_count(),
        topo.link_count()
    );

    let prep = prepare(
        topo,
        &PrepareConfig {
            n_link_scenarios: 4,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    println!(
        "classifier trained: normal {:.1}%, abnormal {:.1}%",
        100.0 * prep.confusion.recall_normal(),
        100.0 * prep.confusion.recall_abnormal()
    );

    // Kill the metro-b ring's uplink to core-west.
    let culprit = prep
        .topo
        .link_between(NodeId(5), NodeId(1))
        .expect("metro-b uplink");
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 5);
    setup.sys.warning = WarningConfig {
        hop_min: 3,
        alpha: 1.0,
        beta: 1.5,
    };
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(culprit));
    let v = outcome.variant("Drift-Bottle").expect("flagship variant");
    println!(
        "\nfailure on {culprit} (metro-b2 → core-west): reported {:?}, truth {:?}",
        v.reported, outcome.ground_truth
    );
    println!(
        "precision {:.2}, recall {:.2} — warnings came from switches {:?}",
        v.metrics.precision,
        v.metrics.recall,
        v.reported_pairs
            .iter()
            .map(|(s, _)| prep.topo.label(*s).to_string())
            .collect::<Vec<_>>()
    );
}
