//! Table 3 — statistics of the chosen topologies.
//!
//! Paper values: Geant2012 40/61/14.12, Chinanet 42/66/8.09,
//! Tinet 53/89/247.64, AS1221 104/151/9.39; plus the §6.1 degree arguments
//! (Chinanet degree variance 17.30 and skewness 2.63 vs. Geant 3.79/1.42).
//! This binary also prints the derived monitoring parameters (p90 RTT →
//! window) and how many links carry no routed traffic.

use db_bench::emit;
use db_topology::stats::PathStats;
use db_topology::{ordered_pairs, zoo, CsrTopology, OnDemandRoutes, Routes, TopologyStats};
use db_util::table::TextTable;
use std::sync::Arc;

fn main() {
    let mut t = TextTable::new(
        "Table 3: Statistics of Chosen Topologies",
        &[
            "Topology",
            "Node",
            "Link",
            "VAR latency",
            "VAR degree",
            "SKEW degree",
            "RTT p90 (ms)",
            "RTT max (ms)",
            "dark links",
        ],
    );
    for topo in zoo::evaluation_suite() {
        let ts = TopologyStats::compute(&topo);
        let rt = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&topo)));
        let ps = PathStats::compute(&rt);
        let mut used = vec![false; topo.link_count()];
        for (s, d) in ordered_pairs(topo.node_count()) {
            for &l in &rt.path(s, d).links {
                used[l.idx()] = true;
            }
        }
        let dark = used.iter().filter(|&&u| !u).count();
        t.row(&[
            ts.name.clone(),
            ts.nodes.to_string(),
            ts.links.to_string(),
            format!("{:.2}", ts.latency_variance),
            format!("{:.2}", ts.degree_variance),
            format!("{:.2}", ts.degree_skewness),
            format!("{:.1}", ps.rtt_p90_ms),
            format!("{:.1}", ps.rtt_max_ms),
            dark.to_string(),
        ]);
    }
    emit("table3_topologies", &t);
    println!(
        "Paper Table 3: latency variance 14.12 / 8.09 / 247.64 / 9.39;\n\
         §6.1: Chinanet degree variance 17.30 (skew 2.63) vs Geant2012 3.79 (1.42).\n\
         'dark links' carry no shortest-path traffic (backup links): no passive\n\
         system can observe their failure, so link sweeps cover the lit ones."
    );
}
