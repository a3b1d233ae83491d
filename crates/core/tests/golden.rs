//! End-to-end golden snapshot: one fig8-style scenario, pinned bit-for-bit.
//!
//! The per-packet hot path (inline inference sets, dense flow state, lazy
//! ticks) is an *optimization* — it must never change what the system
//! computes. This test runs one full scenario (all four fig-8 variants over
//! identical traffic, ratio sampling on) and compares a textual fingerprint
//! of every output that matters — reported links, warning pairs, raise
//! counts, `LocalizationMetrics` (f64s printed with shortest-round-trip
//! `Debug`, i.e. bit-exact), and the engine's event/packet counters —
//! against a snapshot taken before the hot-path rewrite.
//!
//! If this test fails after a perf change, the change altered simulation
//! semantics; do not re-pin without understanding exactly why. Every other
//! way of running this scenario (forked, swept, streamed, restored,
//! recorded) is compared against the straight run in the root
//! `tests/modes.rs`.

use db_core::{
    prepare, run_scenario, PrepareConfig, Prepared, ScenarioKind, ScenarioOutcome, ScenarioSetup,
    VariantSpec,
};
use db_flowmon::FlowStatus;
use db_topology::{zoo, NodeId};
use db_util::wire::fnv1a64;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The 3×3 grid, prepared once for this binary.
fn grid_prepared() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        prepare(
            zoo::grid(3, 3),
            &PrepareConfig {
                n_link_scenarios: 4,
                n_node_scenarios: 1,
                n_healthy: 1,
                train_density: 1.0,
            },
        )
    })
}

/// The pinned scenario's output: the four fig-8 variants, ratio sampling
/// on, the grid's center link failing.
fn fingerprint() -> String {
    let prep = grid_prepared();
    let mut setup = ScenarioSetup::flagship(prep, 1.0, 42);
    setup.variants = VariantSpec::fig8_set();
    setup.sys.ratio_sampling = 8;
    let link = prep
        .topo
        .link_between(NodeId(4), NodeId(5))
        .expect("grid center link");
    render(&run_scenario(&setup, &ScenarioKind::SingleLink(link)))
}

fn render(outcome: &ScenarioOutcome) -> String {
    let mut s = String::new();
    writeln!(s, "ground_truth={:?}", outcome.ground_truth).unwrap();
    writeln!(
        s,
        "t_fail={} window=({},{})",
        outcome.t_fail, outcome.window.0, outcome.window.1
    )
    .unwrap();
    for v in &outcome.variants {
        writeln!(s, "[{}]", v.name).unwrap();
        writeln!(s, "  reported={:?} raises={}", v.reported, v.raises).unwrap();
        writeln!(s, "  pairs={:?}", v.reported_pairs).unwrap();
        writeln!(s, "  pair_counts={:?}", v.pair_counts).unwrap();
        writeln!(s, "  metrics={:?}", v.metrics).unwrap();
        writeln!(s, "  ratios={}", v.ratios.len()).unwrap();
        for r in v.ratios.iter().take(5) {
            writeln!(s, "  ratio hop={} at={} {:?}", r.hop_now, r.at, r.entries).unwrap();
        }
    }
    let st = &outcome.stats;
    writeln!(
        s,
        "events={} sent={} hops={} delivered={} bytes={}",
        st.events_processed, st.packets_sent, st.hop_events, st.delivered, st.delivered_bytes
    )
    .unwrap();
    writeln!(
        s,
        "drops down={} corrupt={} queue={} node={} background={}",
        st.dropped_down,
        st.dropped_corrupt,
        st.dropped_queue,
        st.dropped_node,
        st.dropped_background
    )
    .unwrap();
    writeln!(
        s,
        "acks={}/{} finished={} stalled={}",
        st.acks_delivered, st.acks_lost, st.flows_finished, st.flows_stalled
    )
    .unwrap();
    s
}

const GOLDEN: &str = "\
ground_truth=[LinkId(7)]
t_fail=36.000ms window=(36.000ms,48.000ms)
[Drift-Bottle]
  reported=[LinkId(7)] raises=27
  pairs=[(NodeId(0), LinkId(7)), (NodeId(1), LinkId(7)), (NodeId(3), LinkId(7)), (NodeId(5), LinkId(7)), (NodeId(6), LinkId(7)), (NodeId(8), LinkId(7))]
  pair_counts=[((NodeId(0), LinkId(7)), 6), ((NodeId(1), LinkId(7)), 6), ((NodeId(3), LinkId(7)), 3), ((NodeId(5), LinkId(7)), 2), ((NodeId(6), LinkId(7)), 2), ((NodeId(8), LinkId(7)), 8)]
  metrics=LocalizationMetrics { precision: 1.0, recall: 1.0, f1: 1.0, accuracy: 1.0, fpr: 0.0, reported: 1, actual: 1, correct: 1 }
  ratios=19
  ratio hop=4 at=36.739ms [(LinkId(0), -1.0), (LinkId(1), -1.0), (LinkId(6), -1.0), (LinkId(2), -2.0)]
  ratio hop=4 at=37.306ms [(LinkId(1), -1.0), (LinkId(6), -1.0), (LinkId(2), -2.0), (LinkId(4), -2.0)]
  ratio hop=4 at=37.756ms [(LinkId(0), -1.0), (LinkId(2), -2.0), (LinkId(6), -2.0), (LinkId(5), -3.0)]
  ratio hop=4 at=38.234ms [(LinkId(0), -1.0), (LinkId(1), -1.0), (LinkId(6), -1.0), (LinkId(2), -2.0)]
  ratio hop=4 at=38.908ms [(LinkId(4), -1.0), (LinkId(6), -2.0), (LinkId(5), -3.0), (LinkId(10), -5.0)]
[007-Drifted]
  reported=[] raises=0
  pairs=[]
  pair_counts=[]
  metrics=LocalizationMetrics { precision: 1.0, recall: 0.0, f1: 0.0, accuracy: 0.9166666666666666, fpr: 0.0, reported: 0, actual: 1, correct: 0 }
  ratios=19
  ratio hop=4 at=36.739ms []
  ratio hop=4 at=37.306ms [(LinkId(7), 1.0)]
  ratio hop=4 at=37.756ms [(LinkId(7), 1.0)]
  ratio hop=4 at=38.234ms []
  ratio hop=4 at=38.908ms [(LinkId(7), 1.0)]
[DB-Centralized]
  reported=[LinkId(7)] raises=1
  pairs=[(NodeId(65535), LinkId(7))]
  pair_counts=[((NodeId(65535), LinkId(7)), 1)]
  metrics=LocalizationMetrics { precision: 1.0, recall: 1.0, f1: 1.0, accuracy: 1.0, fpr: 0.0, reported: 1, actual: 1, correct: 1 }
  ratios=0
[007-Centralized]
  reported=[LinkId(4), LinkId(7), LinkId(8), LinkId(9), LinkId(10)] raises=27
  pairs=[(NodeId(65535), LinkId(4)), (NodeId(65535), LinkId(7)), (NodeId(65535), LinkId(8)), (NodeId(65535), LinkId(9)), (NodeId(65535), LinkId(10))]
  pair_counts=[((NodeId(65535), LinkId(0)), 1), ((NodeId(65535), LinkId(2)), 2), ((NodeId(65535), LinkId(3)), 1), ((NodeId(65535), LinkId(4)), 3), ((NodeId(65535), LinkId(5)), 1), ((NodeId(65535), LinkId(7)), 4), ((NodeId(65535), LinkId(8)), 6), ((NodeId(65535), LinkId(9)), 4), ((NodeId(65535), LinkId(10)), 2), ((NodeId(65535), LinkId(11)), 3)]
  metrics=LocalizationMetrics { precision: 0.2, recall: 1.0, f1: 0.33333333333333337, accuracy: 0.6666666666666666, fpr: 0.36363636363636365, reported: 5, actual: 1, correct: 1 }
  ratios=0
events=9068 sent=1972 hops=5472 delivered=1701 bytes=2389781
drops down=192 corrupt=0 queue=0 node=0 background=0
acks=1609/22 finished=0 stalled=0
";

#[test]
fn fig8_scenario_matches_golden_snapshot() {
    let got = fingerprint();
    assert!(
        got == GOLDEN,
        "scenario output diverged from the pinned pre-optimization snapshot\n\
         --- got ---\n{got}\n--- golden ---\n{GOLDEN}"
    );
}

/// What `prepare` itself answers: the compiled table (FNV-1a 64 over every
/// rule's range bounds as IEEE-754 bits, label and priority, in table
/// order), the held-out confusion matrix and the two sample counts.
fn prepare_pin(prep: &Prepared) -> String {
    let mut bytes = Vec::new();
    for rule in prep.table.rules() {
        for (lo, hi) in rule.ranges {
            bytes.extend(lo.to_bits().to_le_bytes());
            bytes.extend(hi.to_bits().to_le_bytes());
        }
        bytes.push(u8::from(rule.label == FlowStatus::Abnormal));
        bytes.extend(rule.priority.to_le_bytes());
    }
    let cm = &prep.confusion;
    format!(
        "rules={} digest={:#018x} tp={} fp={} fn={} tn={} train={} test={}",
        prep.table.rules().len(),
        fnv1a64(&bytes),
        cm.tp,
        cm.fp,
        cm.fn_,
        cm.tn,
        prep.train_samples,
        prep.test_samples
    )
}

/// The training pipeline is pinned directly, not only through the scenario
/// it feeds: values recorded before `prepare` went from copying samples to
/// selecting indices (same shuffle, same balance draws, same examples in
/// the same order).
#[test]
fn prepare_on_the_grid_is_pinned() {
    assert_eq!(
        prepare_pin(grid_prepared()),
        "rules=2 digest=0xf30d50cc63191827 tp=17 fp=120 fn=0 tn=3215 train=270 test=3352"
    );
}

/// The same pin at full size: the configuration every Geant2012 daemon,
/// sweep and figure trains with.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a full Geant2012 training run: seconds optimized, a minute unoptimized"
)]
fn prepare_on_geant2012_is_pinned() {
    let prep = prepare(zoo::geant2012(), &PrepareConfig::default());
    assert_eq!(
        prepare_pin(&prep),
        "rules=33 digest=0xdc6f80527f8bfbf7 tp=6299 fp=1096 fn=0 tn=303917 train=95775 test=311312"
    );
}
