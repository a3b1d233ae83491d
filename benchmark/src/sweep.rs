//! `sweep-geant`: the researcher's path. Train on Geant2012, then run
//! db-runner sweeps of single-link failures × the four fig8 variants on two
//! workers, back to back, for the timed section. No frame is encoded and no
//! socket opened, so a serve-only change must leave this workload flat.

use crate::layers::{flowmon_and_dtree, hop_pipeline, system_on_packet};
use crate::metrics::{Values, PER_LAYER};
use crate::serve::record_trace;
use crate::trace::Tracer;
use crate::workload::{EndToEnd, Outcome, RunCfg, SETUP_REPEATS};
use crate::{stats, sys};
use db_core::experiment::{covered_links, sweep, ScenarioKind};
use db_core::{
    prepare, run_scenario, PrepareConfig, Prepared, ScenarioOutcome, ScenarioSetup, VariantSpec,
};
use db_runner::SweepBuilder;
use db_topology::{zoo, LinkId};
use db_util::Pcg64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload seed of every scenario: the sweep varies what fails, not the
/// traffic, so a unit's outcome depends on its link alone and can be
/// checked against the committed table whatever order the seed picks.
const SCENARIO_SEED: u64 = 0x818;
/// Flow density of every scenario.
const DENSITY: f64 = 1.0;
/// Sweep workers.
pub const WORKERS: usize = 2;
/// Units per db-runner sweep: one per worker, so the timed section holds
/// several sweeps.
const UNITS_PER_SWEEP: usize = 2;
/// Distinct sweeps a run cycles through. A sweep's cost depends on which
/// links fail in it, so only sweeps of the same links are repetitions of
/// equal work: sweep `i` is compared with sweeps `i ± SWEEP_CYCLE` only, as
/// one phase of the steady-rate estimate. Two, so that each phase repeats
/// three or four times in a 10 s run.
const SWEEP_CYCLE: usize = 2;
/// Units the traced run repeats one at a time on this thread.
const TRACED_UNITS: usize = 2;
/// Units in the traced run's db-runner versus core comparison.
const COMPARE_UNITS: usize = 8;

const EXPECTED_GEANT: &str = include_str!("../expected/sweep-geant2012.tsv");
const EXPECTED_GRID: &str = include_str!("../expected/sweep-grid3x3.tsv");

fn topology(smoke: bool) -> db_topology::Topology {
    if smoke {
        zoo::grid(3, 3)
    } else {
        zoo::geant2012()
    }
}

/// One variant's committed outcome for one failed link.
#[derive(Debug, Clone, PartialEq)]
struct ExpectedRow {
    reported: Vec<u16>,
    f1: String,
}

/// The committed table: link → variant name → outcome. Its links are the
/// workload's universe: the covered links whose failure the flagship
/// variant localizes, so no unit of the sweep fails.
fn expected(smoke: bool) -> BTreeMap<u16, BTreeMap<String, ExpectedRow>> {
    let text = if smoke { EXPECTED_GRID } else { EXPECTED_GEANT };
    let mut table: BTreeMap<u16, BTreeMap<String, ExpectedRow>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let cols: Vec<&str> = line.split('\t').collect();
        let [link, variant, reported, f1] = cols[..] else {
            panic!("malformed expected row: {line:?}");
        };
        let reported = reported
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("link id"))
            .collect();
        table
            .entry(link.parse().expect("link id"))
            .or_default()
            .insert(
                variant.to_string(),
                ExpectedRow {
                    reported,
                    f1: f1.to_string(),
                },
            );
    }
    table
}

fn outcome_rows(o: &ScenarioOutcome) -> Vec<(String, ExpectedRow)> {
    o.variants
        .iter()
        .map(|v| {
            (
                v.name.clone(),
                ExpectedRow {
                    reported: v.reported.iter().map(|l| l.0).collect(),
                    f1: format!("{}", v.metrics.f1),
                },
            )
        })
        .collect()
}

/// Render the table for every covered link the flagship variant localizes
/// (`bench expected`); what `expected/*.tsv` is regenerated from.
pub fn render_expected(smoke: bool) -> String {
    let prep = prepare(topology(smoke), &PrepareConfig::default());
    let links = covered_links(&prep);
    let setup = scenario_setup(&prep);
    let kinds = links.iter().map(|&l| ScenarioKind::SingleLink(l)).collect();
    let outcomes = sweep(&setup, kinds);
    let flagship = VariantSpec::drift_bottle().name;
    let mut out = String::from(
        "# link\tvariant\treported links\tF1 — single-link failure, density 1, scenario seed 0x818.\n\
         # Only links whose failure the flagship variant localizes are listed.\n",
    );
    for (&link, o) in links.iter().zip(&outcomes) {
        if !o
            .variant(&flagship)
            .is_some_and(|v| v.reported.contains(&link))
        {
            continue;
        }
        for (name, row) in outcome_rows(o) {
            let reported: Vec<String> = row.reported.iter().map(u16::to_string).collect();
            let _ = writeln!(
                out,
                "{}\t{name}\t{}\t{}",
                link.0,
                reported.join(","),
                row.f1
            );
        }
    }
    out
}

/// The db-runner sweep over `links`: no checkpoint, [`WORKERS`] workers.
fn sweep_builder<'a>(prep: &'a Prepared, links: &[LinkId]) -> SweepBuilder<'a> {
    SweepBuilder::new("bench-sweep", prep)
        .density(DENSITY)
        .seed(SCENARIO_SEED)
        .variants(VariantSpec::fig8_set())
        .workers(WORKERS)
        .scenarios(links.iter().map(|&l| ScenarioKind::SingleLink(l)))
}

fn scenario_setup(prep: &Prepared) -> ScenarioSetup<'_> {
    ScenarioSetup::builder(prep)
        .density(DENSITY)
        .seed(SCENARIO_SEED)
        .variants(VariantSpec::fig8_set())
        .build()
        .expect("fig8 variant set is a valid setup")
}

/// The seed's unit order: the table's links, shuffled. The timed section
/// cycles through the first [`SWEEP_CYCLE`] sweeps' worth of it.
fn unit_order(smoke: bool, seed: u64) -> Vec<LinkId> {
    let mut links: Vec<u16> = expected(smoke).into_keys().collect();
    Pcg64::new_stream(seed, 0x5EE9).shuffle(&mut links);
    links.into_iter().map(LinkId).collect()
}

/// Check one unit against the committed table.
fn check_unit(
    table: &BTreeMap<u16, BTreeMap<String, ExpectedRow>>,
    link: LinkId,
    o: &ScenarioOutcome,
    problems: &mut Vec<String>,
) {
    let flagship = VariantSpec::drift_bottle().name;
    if !o
        .variant(&flagship)
        .is_some_and(|v| v.reported.contains(&link))
    {
        problems.push(format!(
            "link {}: flagship variant did not report it",
            link.0
        ));
    }
    let Some(want) = table.get(&link.0) else {
        problems.push(format!("link {} is not in the expected table", link.0));
        return;
    };
    for (name, got) in outcome_rows(o) {
        if want.get(&name) != Some(&got) {
            problems.push(format!(
                "link {} variant {name}: got {got:?}, expected {:?}",
                link.0,
                want.get(&name)
            ));
        }
    }
}

/// What the timed section measured.
struct Timed {
    /// Wall seconds of each db-runner sweep of [`UNITS_PER_SWEEP`] units.
    sweep_s: Vec<f64>,
    /// Wall µs of each unit, measured inside the worker.
    unit_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Run db-runner sweeps back to back until `seconds` have passed, cycling
/// through the first [`SWEEP_CYCLE`] sweeps of `order`.
fn timed_sweeps(prep: &Prepared, order: &[LinkId], smoke: bool, seconds: f64) -> Timed {
    let table = expected(smoke);
    let setup = scenario_setup(prep);
    let unit_us = Mutex::new(Vec::new());
    let mut t = Timed {
        sweep_s: Vec::new(),
        unit_us: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let run = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let cycle = &order[..order.len().min(SWEEP_CYCLE * UNITS_PER_SWEEP)];
    let mut next = 0usize;
    while t0.elapsed() < run {
        let links: Vec<LinkId> = (0..UNITS_PER_SWEEP)
            .map(|i| cycle[(next + i) % cycle.len()])
            .collect();
        next += UNITS_PER_SWEEP;
        let builder = sweep_builder(prep, &links);
        let s0 = Instant::now();
        // The runner's own per-unit closure, with a clock around it: same
        // setup, same `run_scenario`, no recorders.
        let report = builder.run_with(|job| {
            let u0 = Instant::now();
            let mut unit_setup = setup.clone();
            unit_setup.seed = job.seed;
            let outcome = run_scenario(&unit_setup, &job.kind);
            unit_us
                .lock()
                .expect("unit clock lock")
                .push(u0.elapsed().as_secs_f64() * 1e6);
            outcome
        });
        t.sweep_s.push(s0.elapsed().as_secs_f64());
        t.attempted += links.len() as u64;
        match report {
            Ok(report) => {
                t.failed += report.failed().len() as u64;
                for (unit, err) in report.failed() {
                    t.problems.push(format!("unit {unit} failed: {err}"));
                }
                for u in &report.units {
                    if let Some(o) = u.outcome() {
                        check_unit(&table, links[u.unit], o, &mut t.problems);
                    }
                }
            }
            Err(e) => {
                t.failed += links.len() as u64;
                t.problems.push(format!("sweep failed: {e}"));
            }
        }
    }
    t.unit_us = unit_us.into_inner().expect("unit clock lock");
    t
}

/// The untraced end-to-end run.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        prep = Some(prepare(topology(cfg.smoke), &PrepareConfig::default()));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let prep = prep.expect("SETUP_REPEATS >= 1");
    let order = unit_order(cfg.smoke, cfg.seed);
    let t = timed_sweeps(&prep, &order, cfg.smoke, cfg.seconds);
    let total_s: f64 = t.sweep_s.iter().sum();
    let e2e = EndToEnd {
        ops_per_s: stats::steady_rate(
            &t.sweep_s,
            SWEEP_CYCLE,
            (SWEEP_CYCLE * UNITS_PER_SWEEP) as f64,
        )
        .unwrap_or(t.attempted as f64 / total_s.max(1e-9)),
        op_p25_us: stats::typical_latency(&t.unit_us),
        within_limit_share: stats::share_within(
            &t.unit_us,
            stats::stall_limit(&t.unit_us),
            usize::try_from(t.attempted).expect("unit count fits usize"),
        ),
        peak_rss_mb: sys::own_peak_rss_mb()?,
        setup_s: stats::median(&setups),
    };
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics: e2e.metrics(),
        problems: t.problems,
        context: vec![
            ("threads", WORKERS.to_string()),
            ("scenarios", t.attempted.to_string()),
            ("variants", VariantSpec::fig8_set().len().to_string()),
            ("sweeps", t.sweep_s.len().to_string()),
            ("universe_links", order.len().to_string()),
            (
                "cycle_links",
                (SWEEP_CYCLE * UNITS_PER_SWEEP).min(order.len()).to_string(),
            ),
            (
                "overall_ops_per_s",
                format!("{:.4}", t.attempted as f64 / total_s.max(1e-9)),
            ),
        ],
    })
}

/// The traced run: the same sweeps for half the time, then one unit at a
/// time on this thread with a span around each public call, then the
/// layers under a scenario on that unit's own trace.
pub fn run_traced(cfg: &RunCfg, workload: &str) -> Result<Outcome, String> {
    let mut v = Values::new(PER_LAYER);
    let mut tracer = Tracer::new();
    let prep = tracer.span("core.prepare", 0, || {
        prepare(topology(cfg.smoke), &PrepareConfig::default())
    });
    let order = unit_order(cfg.smoke, cfg.seed);
    let t = timed_sweeps(&prep, &order, cfg.smoke, cfg.seconds / 2.0);
    let mut problems = t.problems;

    // The same units through db-runner and through core's own sweep: what
    // the runner adds (unit isolation, ordering, report assembly). Eight
    // units, because core's parallel map hands out work four items at a
    // time and would run fewer on one thread.
    let links: Vec<LinkId> = order.iter().cycle().take(COMPARE_UNITS).copied().collect();
    let kinds: Vec<ScenarioKind> = links.iter().map(|&l| ScenarioKind::SingleLink(l)).collect();
    let setup = scenario_setup(&prep);
    let t0 = Instant::now();
    let report = sweep_builder(&prep, &links)
        .run()
        .map_err(|e| format!("runner sweep: {e}"))?;
    let runner_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let core_outcomes = sweep(&setup, kinds.clone());
    let core_s = t0.elapsed().as_secs_f64();
    v.set("runner.overhead_share", runner_s / core_s.max(1e-9) - 1.0);
    if report.cloned_outcomes() != core_outcomes {
        problems.push("db-runner and core::experiment::sweep disagree on the same units".into());
    }

    // One unit at a time, bare then traced.
    let (kinds, links) = (&kinds[..TRACED_UNITS], &links[..TRACED_UNITS]);
    let bare_s: Vec<f64> = kinds
        .iter()
        .map(|k| {
            let t0 = Instant::now();
            std::hint::black_box(run_scenario(&setup, k));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let mut traced_ms = Vec::new();
    let table = expected(cfg.smoke);
    for (op, (kind, &link)) in kinds.iter().zip(links).enumerate() {
        let op = op as u64;
        let t0 = Instant::now();
        let outcome = tracer.span("core.run_scenario", op, || run_scenario(&setup, kind));
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        check_unit(&table, link, &outcome, &mut problems);
        tracer.count("netsim.packets_sent", outcome.stats.packets_sent as f64);
    }
    v.set("core.run_scenario_ms_p50", stats::median(&traced_ms));
    v.set(
        "trace.overhead_share",
        traced_ms.iter().sum::<f64>() / 1e3 / bare_s.iter().sum::<f64>().max(1e-9) - 1.0,
    );

    // The simulator alone on the first unit (a recording observer instead
    // of the pipeline), and the layers the pipeline is made of on that
    // unit's own records.
    let trace = tracer.span("netsim.simulate", 0, || {
        record_trace(&prep, SCENARIO_SEED, Some(links[0]))
    });
    v.set(
        "netsim.events_per_s",
        trace.sim_events as f64 / trace.sim_wall_s.max(1e-9),
    );
    v.set("netsim.packets_per_scenario", trace.packets_sent as f64);
    v.set("netsim.traffic_gen_ms", trace.traffic_gen_s * 1e3);
    v.set("core.system.on_packet_ns", system_on_packet(&prep, &trace));
    let (inline_ns, vec_ns, codec_ns) = hop_pipeline();
    v.set("inference.hop_inline_ns", inline_ns);
    v.set("inference.hop_vec_ns", vec_ns);
    v.set("inference.header_codec_ns", codec_ns);
    let (packet_ns, close_us, classify_ns, train_ms) = flowmon_and_dtree(&prep, &trace);
    v.set("flowmon.on_packet_ns", packet_ns);
    v.set("flowmon.end_interval_us", close_us);
    v.set("dtree.classify_ns", classify_ns);
    v.set("dtree.train_ms", train_ms);

    let self_times = tracer.self_times();
    v.set(
        "core.prepare_ms",
        self_times.get("core.prepare").map_or(0.0, |t| t.1 as f64) / 1e6,
    );
    // Share of a scenario's wall time that the simulator alone accounts
    // for; the rest is the pipeline riding on it.
    let scenario_ms = stats::median(&traced_ms);
    v.set(
        "trace.attributed_share",
        (trace.sim_wall_s + trace.traffic_gen_s) * 1e3 / scenario_ms.max(1e-9),
    );
    let trace_path = crate::write_trace(cfg, workload, &tracer)?;
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics: v.metrics(),
        problems,
        context: vec![
            ("threads", WORKERS.to_string()),
            ("scenarios", t.attempted.to_string()),
            ("runner_sweep_s", format!("{runner_s:.4}")),
            ("core_sweep_s", format!("{core_s:.4}")),
            ("spans", tracer.span_count().to_string()),
            ("trace_file", crate::json::string(&trace_path)),
        ],
    })
}
