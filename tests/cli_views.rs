//! The `explain` and `timeline` renderers, through the built binary: one
//! small grid scenario is recorded through the library with a flight ring
//! and a db-scope trace attached, and every view of the two files must exit
//! 0, parse with its documented keys (JSON) or carry its section labels
//! (tables), and refuse a bad target with the documented one-line error.

use drift_bottle::prelude::*;
use drift_bottle::telemetry::scope::{parse_json, Json};
use drift_bottle::telemetry::{FlightRecorder, ScopeRecorder};
use std::process::Command;
use std::sync::Arc;

/// Record a center-link failure on the 3x3 grid into `dir`; returns the
/// flight file, the trace file and the failed link's id.
fn record(dir: &std::path::Path) -> (String, String, u16) {
    let cfg = PrepareConfig {
        n_link_scenarios: 4,
        n_node_scenarios: 1,
        n_healthy: 1,
        train_density: 1.0,
        ..Default::default()
    };
    let prep = prepare(zoo::grid(3, 3), &cfg);
    let link = prep.topo.link_between(NodeId(4), NodeId(5)).unwrap();
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 21);
    // Thresholds scaled to a 9-switch network (§4.3).
    (setup.sys.warning.hop_min, setup.sys.warning.alpha) = (3, 1.0);
    let flight = Arc::new(FlightRecorder::new(1 << 20));
    let scope = Arc::new(ScopeRecorder::default());
    setup.instr.flight = Some(flight.clone());
    setup.instr.scope = Some(scope.clone());
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(link));
    let reported = &outcome.variant("Drift-Bottle").unwrap().reported;
    assert!(reported.contains(&link), "reported {reported:?}");
    assert_eq!(flight.dropped(), 0, "the ring holds the whole run");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (f, t) = (file("grid.flight"), file("grid.trace.json"));
    flight.save(&f).unwrap();
    scope.save(std::path::Path::new(&t)).unwrap();
    (f, t, link.0)
}

/// Run the CLI; `Ok(stdout)` on exit 0, `Err(stderr)` otherwise.
fn cli(args: &[&str]) -> Result<String, String> {
    let bin = env!("CARGO_BIN_EXE_drift-bottle");
    let out = Command::new(bin).args(args).output().unwrap();
    let text = |bytes| String::from_utf8(bytes).unwrap();
    if out.status.success() {
        Ok(text(out.stdout))
    } else {
        Err(text(out.stderr))
    }
}

/// The view's one JSON object, its keys exactly `keys` (space-separated).
fn json_view(args: &[&str], keys: &str) -> Json {
    let out = cli(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    let doc = parse_json(out.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}\n{out}"));
    let Json::Obj(fields) = &doc else {
        panic!("{args:?}: not an object: {out}")
    };
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got.join(" "), keys, "{args:?}");
    doc
}

/// The view's text, each of `labels` (`|`-separated) starting a line of it.
fn table_view(args: &[&str], labels: &str) -> String {
    let out = cli(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    for label in labels.split('|') {
        let found = out.lines().any(|line| line.starts_with(label));
        assert!(found, "{args:?}: no line starts with {label:?}\n{out}");
    }
    out
}

#[test]
fn every_explain_and_timeline_view_renders() {
    let dir = std::env::temp_dir().join(format!("db-cli-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (f, t, link) = record(&dir);
    let (f, t, l, s) = (f.as_str(), t.as_str(), &format!("l{link}")[..], "s4");
    let bad_target = |view| {
        format!("error: bad {view} target 'x9' (use l<ID> for a link or s<ID> for a switch)\n")
    };
    let array = |doc: &Json, key| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

    // explain: the whole run, one link, one switch.
    let agg = table_view(&["explain", f], "=== flight recording: |records      : |run          : |ground truth : |reported     : |quality      : |warnings     : |classified   : |truncation   : |time to first in-window warning:");
    assert!(agg.contains(&format!("ground truth : {l}\n")), "{agg}");
    let doc = json_view(&["explain", f, "--format=json"], "file records evicted ground_truth reported precision recall f1 accuracy fpr warnings_total warnings_in_window classified_abnormal classified_normal merges merges_with_drops dropped_entries truncation_loss_rate time_to_first_warning");
    assert_eq!(doc.get("file").and_then(Json::as_str), Some(f));
    assert_eq!(array(&doc, "ground_truth")[0].as_u64(), Some(link.into()));

    let link_labels = "ground truth : FAILED|reported     : yes|votes        : |truncated    : |top of merge : |warnings     : |packet drops : ";
    table_view(
        &["explain", f, l],
        &format!("=== link {l} ===|{link_labels}"),
    );
    let link_keys = "link ground_truth reported vote_total votes_for votes_against voting_flows voting_switches merges_as_top packet_drops votes truncation_drops warnings";
    let votes = array(
        &json_view(&["explain", f, l, "--format=json"], link_keys),
        "votes",
    );
    let window = votes[0].get("window").and_then(Json::as_u64).unwrap();
    let only = &format!("--window={window}")[..];
    let filtered = format!("filter       : sampling window {window} only|votes        : ");
    table_view(&["explain", f, l, only], &filtered);
    let kept = array(
        &json_view(&["explain", f, l, only, "--format=json"], link_keys),
        "votes",
    );
    assert!(!kept.is_empty() && kept.len() < votes.len());
    let in_window = |v: &Json| v.get("window").and_then(Json::as_u64) == Some(window);
    assert!(kept.iter().all(in_window));

    table_view(
        &["explain", f, s],
        "=== switch s4 ===|classified   : |votes        : |merges       : |warnings     : ",
    );
    let switch_keys = "switch classified_abnormal classified_normal merges merges_with_drops votes_by_link warnings";
    json_view(&["explain", f, s, "--format=json"], switch_keys);
    json_view(&["explain", f, s, only, "--format=json"], switch_keys);
    assert_eq!(
        cli(&["explain", f, "x9"]).unwrap_err(),
        bad_target("explain")
    );

    // timeline: the summary (no sparkline form of its own: it renders its
    // table), one link, one switch.
    let summary = format!("=== db-scope trace: |run          : |eq(1)        : |series       : |spans        : |links warned : {l}|top suspicion:|inspect a link with: ");
    let table = table_view(&["timeline", t], &summary);
    assert_eq!(
        table_view(&["timeline", t, "--format=sparkline"], &summary),
        table
    );
    let doc = json_view(&["timeline", t, "--format=json"], "file meta series spans windows links_with_warnings top_suspicion profiler_enabled profiler");
    assert_eq!(doc.get("file").and_then(Json::as_str), Some(t));
    let switches = doc.get("meta").and_then(|m| m.get("total_switches"));
    assert_eq!(switches.and_then(Json::as_u64), Some(9));

    for (target, head, first_kind) in [
        (l, &format!("=== link {l} ===")[..], "link.suspicion"),
        (s, "=== switch s4 ===", "switch.fanin"),
    ] {
        let head = format!("{head}|run          : |eq(1)        : ");
        let table = table_view(&["timeline", t, target], &format!("{head}|  window  "));
        assert!(
            table.lines().nth(3).unwrap().contains(first_kind),
            "{table}"
        );
        let warned = table.contains("first warning: window ");
        assert_eq!(warned, target == l, "{table}");
        let spark = table_view(
            &["timeline", t, target, "--format=sparkline"],
            &format!("{head}|{first_kind} "),
        );
        assert!(spark.contains("  windows "), "{spark}");
        let doc = json_view(&["timeline", t, target, "--format=json"], "target series");
        let first = &array(&doc, "series")[0];
        assert_eq!(first.get("kind").and_then(Json::as_str), Some(first_kind));
    }
    assert_eq!(
        cli(&["timeline", t, "x9"]).unwrap_err(),
        bad_target("timeline")
    );
    let missing = cli(&["timeline", t, "l999"]).unwrap_err();
    assert!(
        missing.starts_with("error: trace has no series for link l999 "),
        "{missing}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
