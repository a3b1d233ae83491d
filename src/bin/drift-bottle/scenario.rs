//! The scenario commands: `topo`, the four single-scenario commands
//! (`fail`, `node`, `health`, `report`) and `sweep`.

use crate::{flag, switch, Flag};
use drift_bottle::core::experiment::{
    average_by_variant, covered_links, most_observable_link, sample_covered_links,
};
use drift_bottle::prelude::*;
use drift_bottle::telemetry::{FlightRecorder, ScopeRecorder};
use drift_bottle::topology::load;
use drift_bottle::topology::stats::PathStats;
use drift_bottle::topology::TopologyStats;
use std::path::Path;
use std::sync::Arc;

/// Options shared by the scenario commands (fail/node/sweep/health/report).
#[derive(Debug)]
pub struct RunOpts {
    /// Weight scheme override (`None` = the flagship Drift-Bottle wire
    /// variant).
    pub scheme: Option<WeightScheme>,
    /// `Some(None)` = flight recording at the default path, `Some(Some(p))`
    /// = at `p`, `None` = no recording.
    pub flight: Option<Option<String>>,
    /// `Some(None)` = db-scope trace at the default path, `Some(Some(p))`
    /// = at `p`, `None` = no tracing.
    pub trace: Option<Option<String>>,
}

/// Resolve a `--scheme=NAME` value. A typo'd name is rejected with the
/// full list of schemes, instead of surfacing later as a missing-variant
/// panic.
fn parse_scheme(name: &str) -> Result<WeightScheme, String> {
    WeightScheme::ALL
        .iter()
        .copied()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = WeightScheme::ALL.iter().map(|s| s.name()).collect();
            format!("unknown scheme '{name}' (available: {})", names.join(", "))
        })
}

/// Collect the shared scenario flags (`--scheme`, `--flight`, `--trace`)
/// from the admitted flag list.
pub fn run_opts(flags: &[Flag]) -> Result<RunOpts, String> {
    Ok(RunOpts {
        scheme: flag(flags, "--scheme", |f| parse_scheme(f.require("NAME")?))?,
        flight: flag(flags, "--flight", Flag::opt_path)?,
        trace: flag(flags, "--trace", Flag::opt_path)?,
    })
}

/// What the four single-scenario commands parse to.
#[derive(Debug)]
pub struct Single {
    /// The command's own name: picks the failure, the printer and the
    /// default recording paths.
    cmd: &'static str,
    spec: String,
    /// The link (`fail`) or node (`node`) to take down.
    target: Option<String>,
    density: f64,
    opts: RunOpts,
}

/// Build a [`Single`] from `<name|file> [target] [density]`; only `fail`
/// and `node` name a target.
pub fn single(cmd: &'static str, args: &[&str], flags: &[Flag]) -> Result<Single, String> {
    let mut rest = args[1..].iter().copied();
    let target = matches!(cmd, "fail" | "node").then(|| rest.next());
    Ok(Single {
        cmd,
        spec: args[0].into(),
        target: target.flatten().map(str::to_string),
        density: parse_density(rest.next())?,
        opts: run_opts(flags)?,
    })
}

/// Ring capacity for `--flight`, overridable via `DB_FLIGHT_CAPACITY`.
fn flight_capacity() -> Result<usize, String> {
    match std::env::var("DB_FLIGHT_CAPACITY") {
        Ok(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad DB_FLIGHT_CAPACITY '{v}'")),
        Err(_) => Ok(FlightRecorder::DEFAULT_CAPACITY),
    }
}

/// Look up a variant in an outcome, or explain which variants the run
/// actually produced — the contextual replacement for the old
/// `.expect(\"flagship variant\")` panics.
fn variant_or_err<'o>(
    outcome: &'o ScenarioOutcome,
    name: &str,
) -> Result<&'o drift_bottle::core::experiment::VariantResult, String> {
    outcome.variant(name).ok_or_else(|| {
        let available: Vec<&str> = outcome.variants.iter().map(|v| v.name.as_str()).collect();
        format!(
            "variant '{name}' not in this run's results (available: {})",
            available.join(", ")
        )
    })
}

/// The variant `--scheme` selects: Drift-Bottle rides the real wire header;
/// the others need the exact side-table carrier.
fn variant_for(opts: &RunOpts) -> VariantSpec {
    match opts.scheme {
        None | Some(WeightScheme::DriftBottle) => VariantSpec::drift_bottle(),
        Some(s) => VariantSpec::distributed(s),
    }
}

/// Build the single-scenario setup for `opts`: the chosen variant alone,
/// plus the flight and scope recorders when requested ([`save_recordings`]
/// reads them back from `setup.instr`).
fn single_setup<'a>(
    prep: &'a Prepared,
    density: f64,
    opts: &RunOpts,
) -> Result<ScenarioSetup<'a>, String> {
    let mut setup = ScenarioSetup::builder(prep)
        .density(density)
        .seed(1)
        .variants(vec![variant_for(opts)])
        .build()
        .map_err(|e| e.to_string())?;
    setup.instr.flight = match &opts.flight {
        Some(_) => Some(Arc::new(FlightRecorder::new(flight_capacity()?))),
        None => None,
    };
    setup.instr.scope = opts.trace.as_ref().map(|_| {
        drift_bottle::telemetry::scope::profiler_enable();
        Arc::new(ScopeRecorder::default())
    });
    Ok(setup)
}

/// The tail of every single-run command: write the flight recording and the
/// db-scope trace `setup` collected (`None` when not requested) to the
/// explicit path or `results/<cmd>-<topo>.*`, and tell the operator where
/// they went.
fn save_recordings(opts: &RunOpts, cmd: &str, setup: &ScenarioSetup) -> Result<(), String> {
    let topo = setup.prep.topo.name();
    if let Some(rec) = &setup.instr.flight {
        let path = match &opts.flight {
            Some(Some(p)) => p.clone(),
            _ => format!("results/{cmd}-{topo}.flight"),
        };
        rec.save(&path)
            .map_err(|e| format!("writing flight recording {path}: {e}"))?;
        eprintln!(
            "[flight recording: {path} ({} records, {} evicted); inspect with: drift-bottle explain {path}]",
            rec.len(),
            rec.dropped()
        );
    }
    if let Some(sc) = &setup.instr.scope {
        let path = match &opts.trace {
            Some(Some(p)) => p.clone(),
            _ => format!("results/{cmd}-{topo}.trace.json"),
        };
        sc.save(Path::new(&path))
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        eprintln!(
            "[trace: {path} ({} spans); inspect with: drift-bottle timeline {path}, or open in Perfetto]",
            sc.span_count()
        );
    }
    Ok(())
}

/// Resolve a topology spec through [`load::load`], rendering the
/// structured [`load::LoadError`] (which knows the built-in names and the
/// parse position) for the operator.
fn load_topology(spec: &str) -> Result<Topology, String> {
    load::load(spec).map_err(|e| e.to_string())
}

/// The `[density]` positional: the range [`ScenarioSetup::builder`]
/// enforces, refused here so a bad one costs no training run.
pub fn parse_density(arg: Option<&str>) -> Result<f64, String> {
    match arg {
        None => Ok(1.0),
        Some(s) => {
            let d: f64 = s.parse().map_err(|_| format!("bad density '{s}'"))?;
            if d > 0.0 && d <= 1.0 {
                Ok(d)
            } else {
                Err(format!("density {d} out of (0,1]"))
            }
        }
    }
}

fn train(topo: Topology) -> Prepared {
    eprintln!(
        "[training classifier on {} ({} nodes, {} links)...]",
        topo.name(),
        topo.node_count(),
        topo.link_count()
    );
    // DB_SMOKE=1 (the CI smoke knob, same as the bench binaries) shrinks
    // the training pipeline so end-to-end CLI checks finish in seconds.
    let cfg = if std::env::var("DB_SMOKE").map(|v| v == "1").unwrap_or(false) {
        PrepareConfig {
            n_link_scenarios: 2,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 0.2,
        }
    } else {
        PrepareConfig::default()
    };
    let prep = prepare(topo, &cfg);
    eprintln!(
        "[classifier: normal recall {:.1}%, abnormal recall {:.1}%; window {} x {} ms]",
        100.0 * prep.confusion.recall_normal(),
        100.0 * prep.confusion.recall_abnormal(),
        prep.wcfg.window_intervals,
        prep.wcfg.interval.as_ms_f64()
    );
    prep
}

fn print_outcome(prep: &Prepared, outcome: &ScenarioOutcome, vname: &str) -> Result<(), String> {
    let v = variant_or_err(outcome, vname)?;
    println!(
        "failure injected at {}; warnings collected until {}",
        outcome.t_fail, outcome.window.1
    );
    println!("ground truth: {:?}", outcome.ground_truth);
    if v.reported.is_empty() {
        println!("no links reported within the window");
    } else {
        println!("reported:");
        for &(switch, link) in &v.reported_pairs {
            let l = prep.topo.link(link);
            println!(
                "  {link} ({} - {}) accused by switch {} ({})",
                prep.topo.label(l.a),
                prep.topo.label(l.b),
                switch,
                prep.topo.label(switch),
            );
        }
    }
    println!(
        "precision {:.2}  recall {:.2}  F1 {:.2}  accuracy {:.2}%  FPR {:.2}%",
        v.metrics.precision,
        v.metrics.recall,
        v.metrics.f1,
        100.0 * v.metrics.accuracy,
        100.0 * v.metrics.fpr
    );
    Ok(())
}

fn print_health(outcome: &ScenarioOutcome, vname: &str) -> Result<(), String> {
    let v = variant_or_err(outcome, vname)?;
    println!(
        "healthy network: {} links falsely accused ({} raises total, {} packets simulated)",
        v.reported.len(),
        v.raises,
        outcome.stats.packets_sent
    );
    if !v.reported.is_empty() {
        println!("accused: {:?}", v.reported);
    }
    Ok(())
}

pub fn cmd_topo(spec: &str) -> Result<(), String> {
    let topo = load_topology(spec)?;
    let s = TopologyStats::compute(&topo);
    let routes = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&topo)));
    if let Some(reg) = drift_bottle::telemetry::active() {
        routes.set_metrics(reg);
    }
    let (p, above) = PathStats::compute_auto(&routes);
    let exact = above.is_none();
    println!("topology   : {}", s.name);
    println!("nodes      : {}", s.nodes);
    println!("links      : {}", s.links);
    println!(
        "latency    : mean {:.2} ms, variance {:.2} ms²",
        s.latency_mean, s.latency_variance
    );
    println!(
        "degree     : variance {:.2}, skewness {:.2}, max {}",
        s.degree_variance, s.degree_skewness, s.max_degree
    );
    let approx = if exact { "" } else { " (sampled)" };
    println!(
        "paths      : mean {:.1} links, max {} links{approx}",
        p.mean_path_links, p.max_path_links
    );
    println!(
        "RTT        : p90 {:.1} ms, max {:.1} ms{approx}",
        p.rtt_p90_ms, p.rtt_max_ms
    );
    if let Some(threshold) = above {
        println!("dark links : skipped (graph above the {threshold}-node exact threshold)");
    } else {
        let mut used = vec![false; topo.link_count()];
        for (a, b) in drift_bottle::topology::ordered_pairs(topo.node_count()) {
            for &l in &routes.path(a, b).links {
                used[l.idx()] = true;
            }
        }
        let dark = used.iter().filter(|&&u| !u).count();
        println!("dark links : {dark} (carry no shortest-path traffic)");
    }
    let wcfg = drift_bottle::flowmon::WindowConfig::for_network_auto(&routes, SimTime::from_ms(4));
    println!(
        "monitoring : 4 ms interval, {}-interval sliding window ({} ms){approx}",
        wcfg.window_intervals,
        wcfg.window_len().as_ms_f64()
    );
    Ok(())
}

/// The id `arg` names among `count` links or nodes; `digits` is `arg` less
/// its `l` / `s` / `n` prefix.
fn parse_id(what: &str, arg: &str, digits: &str, count: usize) -> Result<u16, String> {
    let id: u16 = digits
        .parse()
        .map_err(|_| format!("bad {what} id '{arg}'"))?;
    if id as usize >= count {
        return Err(format!("{what} {id} out of range (topology has {count})"));
    }
    Ok(id)
}

/// `fail`, `node`, `health` and `report`: train, run one scenario, print
/// what was localized, save what was recorded. They differ in the failure
/// injected and in the printer.
pub fn cmd_single(a: &Single) -> Result<(), String> {
    if a.cmd == "report" {
        // Print warnings to stderr so the operator sees the raises with
        // their hop/w0/w1 context as they happen.
        drift_bottle::inference::metrics::log_warnings();
    }
    let topo = load_topology(&a.spec)?;
    // `fail` and `node` name their victim, checked against the topology
    // before training starts; `report` picks its own from the trained routes.
    let arg = a.target.as_deref().unwrap_or_default();
    let named = match a.cmd {
        "fail" => {
            let id = parse_id("link", arg, arg.trim_start_matches('l'), topo.link_count())?;
            Some(ScenarioKind::SingleLink(LinkId(id)))
        }
        "node" => {
            let digits = arg.trim_start_matches('s').trim_start_matches('n');
            let id = parse_id("node", arg, digits, topo.node_count())?;
            Some(ScenarioKind::Node(NodeId(id)))
        }
        "health" => Some(ScenarioKind::None),
        _ => None,
    };
    let prep = train(topo);
    let kind = match named {
        Some(kind) => kind,
        None => {
            let link = most_observable_link(&prep)?;
            eprintln!(
                "[failing {link} and running one scenario at density {}...]",
                a.density
            );
            ScenarioKind::SingleLink(link)
        }
    };
    let setup = single_setup(&prep, a.density, &a.opts)?;
    let outcome = run_scenario(&setup, &kind);
    let vname = &setup.variants[0].name;
    match kind {
        ScenarioKind::None => print_health(&outcome, vname)?,
        _ => print_outcome(&prep, &outcome, vname)?,
    }
    save_recordings(&a.opts, a.cmd, &setup)
}

/// Parsed `sweep` subcommand flags.
#[derive(Debug)]
pub struct SweepFlags {
    /// Worker threads; 0 = auto.
    pub workers: usize,
    /// `Some(None)` = checkpoint at the default path, `Some(Some(p))` = at
    /// `p`, `None` = no checkpointing.
    pub checkpoint: Option<Option<String>>,
    /// Resume from the checkpoint if it exists.
    pub resume: bool,
}

/// Collect the sweep-only flags (`--workers`, `--checkpoint`, `--resume`).
pub fn sweep_flags(flags: &[Flag]) -> Result<SweepFlags, String> {
    let workers = flag(flags, "--workers", |f| {
        f.number("N", "worker count", |&n| n >= 1)
    })?;
    Ok(SweepFlags {
        workers: workers.unwrap_or(0),
        checkpoint: flag(flags, "--checkpoint", Flag::opt_path)?,
        resume: switch(flags, "--resume")?,
    })
}

pub fn cmd_sweep(
    spec: &str,
    n: usize,
    density: f64,
    flags: &SweepFlags,
    opts: &RunOpts,
) -> Result<(), String> {
    let topo = load_topology(spec)?;
    let prep = train(topo);
    let variant = variant_for(opts);
    let vname = variant.name.clone();
    if let Some(Some(p)) = &opts.flight {
        return Err(format!(
            "sweep writes one recording per unit next to the checkpoint; \
             use a bare --flight instead of --flight={p}"
        ));
    }
    if let Some(Some(p)) = &opts.trace {
        return Err(format!(
            "sweep writes one trace per unit next to the checkpoint; \
             use a bare --trace instead of --trace={p}"
        ));
    }
    let covered = covered_links(&prep).len();
    let links = sample_covered_links(&prep, n, 0xC11);
    let name = format!("sweep-{}", prep.topo.name());
    eprintln!(
        "[sweeping {} of {} covered links at density {density}...]",
        links.len(),
        covered
    );
    // `--resume` implies checkpointing; a bare `--checkpoint` uses the
    // conventional results/ path.
    let ckpt_path = match (&flags.checkpoint, flags.resume) {
        (Some(Some(p)), _) => Some(p.clone()),
        (Some(None), _) | (None, true) => Some(format!("results/{name}.ckpt.jsonl")),
        (None, false) => None,
    };
    let stop_after = match std::env::var("DB_SWEEP_STOP_AFTER") {
        Ok(v) => Some(
            v.parse::<usize>()
                .map_err(|_| format!("bad DB_SWEEP_STOP_AFTER '{v}'"))?,
        ),
        Err(_) => None,
    };
    let mut builder = SweepBuilder::new(&name, &prep)
        .density(density)
        .seed(1)
        .variants(vec![variant])
        .scenarios(links.iter().map(|&l| ScenarioKind::SingleLink(l)))
        .workers(flags.workers)
        .resume(flags.resume)
        .stop_after(stop_after)
        .progress(true);
    if let Some(p) = &ckpt_path {
        builder = builder.checkpoint(p);
    }
    if opts.flight.is_some() {
        builder = builder.flight(flight_capacity()?);
        let pattern = builder
            .flight_path(0)
            .display()
            .to_string()
            .replace(".unit0.flight", ".unit<N>.flight");
        eprintln!("[per-unit flight recordings: {pattern}]");
    }
    if opts.trace.is_some() {
        builder = builder.trace(true);
        let pattern = builder
            .trace_path(0)
            .display()
            .to_string()
            .replace(".unit0.trace.json", ".unit<N>.trace.json");
        eprintln!("[per-unit traces: {pattern}]");
    }
    let report = builder.run().map_err(|e| e.to_string())?;
    if report.resumed > 0 {
        eprintln!(
            "[resumed {} completed units from {}]",
            report.resumed,
            ckpt_path.as_deref().unwrap_or("checkpoint")
        );
    }
    for u in &report.units {
        let l = links[u.unit];
        match u.outcome() {
            Some(o) => {
                let v = variant_or_err(o, &vname)?;
                println!(
                    "{l}: reported {:?}  P {:.2}  R {:.2}",
                    v.reported, v.metrics.precision, v.metrics.recall
                );
            }
            None => println!("{l}: FAILED ({})", u.error().unwrap_or("unknown")),
        }
    }
    if !report.is_complete() {
        let path = ckpt_path.as_deref().unwrap_or("<no checkpoint>");
        println!(
            "\nstopped after {} of {} units; resume with: drift-bottle sweep {spec} {n} {density} --resume --checkpoint={path}",
            report.units.len(),
            report.total_units,
        );
        return Ok(());
    }
    let outcomes = report.cloned_outcomes();
    if outcomes.is_empty() {
        return Err("every unit failed; nothing to average".into());
    }
    let (_, m) = average_by_variant(&outcomes).remove(0);
    println!(
        "\naverage over {} scenarios: precision {:.3}, recall {:.3}, F1 {:.3}, accuracy {:.2}%, FPR {:.2}%",
        outcomes.len(),
        m.precision,
        m.recall,
        m.f1,
        100.0 * m.accuracy,
        100.0 * m.fpr
    );
    Ok(())
}
