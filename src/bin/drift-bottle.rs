//! `drift-bottle` — command-line front end for the library.
//!
//! Operators point it at a topology (a built-in evaluation topology or a
//! text file in the interchange format), and it trains, simulates and
//! localizes without writing any Rust:
//!
//! Topology specs are resolved by [`load::load`]: a built-in name, an
//! `as:<n>[:<seed>]` generated AS graph (up to 50 000 nodes), a `path:<file>`
//! plain-text edge list, or an interchange-format file. Above
//! [`SCALE_NODE_THRESHOLD`] nodes the path/RTT statistics and workloads
//! switch to deterministic sampling over the on-demand routing engine.
//!
//! ```text
//! drift-bottle topo <name|file>                  # statistics + monitoring parameters
//! drift-bottle fail <name|file> <link> [density] # localize one link failure
//! drift-bottle node <name|file> <node> [density] # localize one node failure
//! drift-bottle sweep <name|file> [n] [density]   # sweep n covered links, averaged metrics
//! drift-bottle health <name|file> [density]      # false-positive check on a healthy network
//! drift-bottle report <name|file> [density]      # one scenario + full telemetry report
//! drift-bottle explain <file.flight> [l<ID>|s<ID>] # reconstruct a run from a flight recording
//! drift-bottle timeline <file.trace.json> [l<ID>|s<ID>] # per-window health series from a trace
//! drift-bottle serve [--addr=H:P] [--stdin] [--snapshot=path] # streaming daemon (DESIGN.md §15)
//! ```
//!
//! Every command accepts `--metrics[=table|json|prom]`: it enables the
//! global telemetry registry for the run and appends the metrics report
//! (counters, histograms, per-phase timings) to stdout in the chosen
//! format. `report` is the dedicated observability command — it implies
//! `--metrics=table` and additionally mirrors warning events to stderr.
//!
//! Scenario commands additionally accept `--scheme=NAME` (compare a §6.4
//! weight scheme instead of the flagship), `--flight[=path]` (capture a
//! provenance flight recording for `explain` to consume later), and
//! `--trace[=path]` (capture a db-scope trace — per-window health series,
//! the scenario→phase→window span tree as Chrome `trace_event` JSON, and
//! hot-path profiler shares — for `timeline` or Perfetto).
//!
//! Argument parsing is deliberately bare std — the library has no CLI
//! dependencies. One [`Cli`] parser owns the whole grammar: every
//! subcommand declares its positional shape and admitted flags in
//! [`COMMANDS`], and anything outside that table — an unknown command, a
//! misplaced flag, a typo — fails with an error naming the valid
//! alternatives instead of being silently reinterpreted.

use drift_bottle::core::experiment::{average_by_variant, covered_links, sample_covered_links};
use drift_bottle::inference::provenance;
use drift_bottle::prelude::*;
use drift_bottle::telemetry::scope::{sparkline, SeriesKind, TraceData, TraceSeries};
use drift_bottle::telemetry::{FlightRecorder, Recording, ScopeRecorder};
use drift_bottle::topology::load;
use drift_bottle::topology::stats::PathStats;
use drift_bottle::topology::TopologyStats;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  drift-bottle topo    <name|file>\n  drift-bottle fail    <name|file> <link-id> [density]\n  drift-bottle node    <name|file> <node-id> [density]\n  drift-bottle sweep   <name|file> [links] [density]\n  drift-bottle health  <name|file> [density]\n  drift-bottle report  <name|file> [density]\n  drift-bottle explain <file.flight> [l<ID>|s<ID>]\n  drift-bottle timeline <file.trace.json> [l<ID>|s<ID>]\n  drift-bottle serve\n  drift-bottle top     <addr> [topo]\n\noptions (every command):\n  --metrics[=table|json|prom]  collect telemetry and print a metrics report\n\nscenario options (fail/node/sweep/health/report):\n  --scheme=NAME        weight scheme to run (default Drift-Bottle; see below)\n  --flight[=path]      record provenance for `explain` (default results/<cmd>-<topo>.flight)\n  --trace[=path]       record a db-scope trace for `timeline` / Perfetto\n                       (default results/<cmd>-<topo>.trace.json)\n\nsweep options:\n  --workers=N          worker threads (default: DB_THREADS, else all cores)\n  --checkpoint[=path]  checkpoint units to path (default results/sweep-<topo>.ckpt.jsonl)\n  --resume             resume from the checkpoint if it exists (implies --checkpoint)\n  (--flight / --trace write one recording per unit next to the checkpoint)\n\nexplain options:\n  --window=N           restrict votes/warnings to sampling window N\n  --format=table|json  output format (default table)\n\ntimeline options:\n  --format=table|json|sparkline  output format (default table)\n\nserve options:\n  --addr=HOST:PORT     listen address (default DB_SERVE_ADDR, else 127.0.0.1:7117)\n  --stdin              serve one session over stdin/stdout instead of TCP\n  --snapshot=PATH      restore engine state at startup, persist it on\n                       SnapshotReq and Shutdown frames\n  --prom-addr=HOST:PORT  also serve a Prometheus text scrape endpoint\n                       (default DB_SERVE_PROM_ADDR, else off)\n\ntop options (live health view of a running daemon):\n  --once               render one frame and exit (for scripts / CI)\n  --interval=SECS      refresh interval (default 1.0)\n  --lines=N            suspicion rows to show (default 8)\n\nenvironment:\n  DB_FLIGHT_CAPACITY=N   --flight ring capacity in records (default 65536)\n  DB_THREADS=N           worker threads for sweeps and training unless --workers is\n                         given (default all cores); 1 forces sequential execution\n  DB_SWEEP_STOP_AFTER=N  stop a sweep after N units (leaves a resumable checkpoint)\n  DB_SMOKE=1             shrink classifier training for fast smoke runs\n  DB_FULL=1              run bench binaries at full sweep scale, not the quick budget\n  DB_TRACE=1             sweep-driven binaries emit per-unit db-scope traces\n  DB_SERVE_ADDR=H:P      default listen address for `serve`\n  DB_SERVE_WINDOW_CAP=N  default carrier-retention bound for `serve` engines\n  DB_SERVE_PROM_ADDR=H:P default Prometheus scrape address for `serve`\n  DB_SERVE_FLIGHT=1      `serve` engines also record a provenance flight ring\n\nweight schemes: Drift-Bottle, Non-Negative, 007-Drifted, 007-Modified\nbuilt-in topologies: geant2012, chinanet, tinet, as1221\ntopology specs:\n  <name>               a built-in evaluation topology (above)\n  as:<n>[:<seed>]      generated AS-graph-style topology, 4..=50000 nodes\n  path:<file>          plain-text edge list: 'nodes <N>' header, then\n                       '<a> <b> <latency_ms> [bandwidth_mbps]' per line\n  <file>               a file in the interchange format (topology/node/link)"
    );
    ExitCode::FAILURE
}

/// One `--name[=value]` token from the command line.
#[derive(Debug)]
struct Flag {
    /// The name part, including the leading dashes (`--scheme`).
    name: String,
    /// The part after `=`, when present.
    value: Option<String>,
}

impl Flag {
    fn split(tok: &str) -> Flag {
        match tok.split_once('=') {
            Some((n, v)) => Flag {
                name: n.to_string(),
                value: Some(v.to_string()),
            },
            None => Flag {
                name: tok.to_string(),
                value: None,
            },
        }
    }

    /// The flag's required value, or an error naming the expected shape.
    fn require(&self, shape: &str) -> Result<&str, String> {
        match self.value.as_deref() {
            Some(v) if !v.is_empty() => Ok(v),
            _ => Err(format!(
                "flag {} needs a value (use {}={shape})",
                self.name, self.name
            )),
        }
    }

    /// Reject a value on a boolean flag (`--resume=yes` is a typo, not a
    /// request).
    fn no_value(&self) -> Result<(), String> {
        match &self.value {
            None => Ok(()),
            Some(v) => Err(format!("flag {} takes no value (got '{v}')", self.name)),
        }
    }

    /// `--flight[=path]`-style: `None` for the bare flag, the path otherwise.
    fn opt_path(&self) -> Result<Option<String>, String> {
        match self.value.as_deref() {
            None => Ok(None),
            Some(p) if !p.is_empty() => Ok(Some(p.to_string())),
            Some(_) => Err(format!(
                "flag {}= has an empty path (use {} or {}=path)",
                self.name, self.name, self.name
            )),
        }
    }
}

/// The flags every scenario command shares.
const SCENARIO_FLAGS: &[&str] = &["--metrics", "--scheme", "--flight", "--trace"];

/// Per-command grammar: name, positional usage, admitted flags. The parser
/// rejects any flag outside the row's list — naming the list — so a typo'd
/// or misplaced flag fails loudly instead of leaking into another command's
/// semantics or being read as a positional.
const COMMANDS: &[(&str, &str, &[&str])] = &[
    ("topo", "<name|file>", &["--metrics"]),
    ("fail", "<name|file> <link-id> [density]", SCENARIO_FLAGS),
    ("node", "<name|file> <node-id> [density]", SCENARIO_FLAGS),
    (
        "sweep",
        "<name|file> [links] [density]",
        &[
            "--metrics",
            "--scheme",
            "--flight",
            "--trace",
            "--workers",
            "--checkpoint",
            "--resume",
        ],
    ),
    ("health", "<name|file> [density]", SCENARIO_FLAGS),
    ("report", "<name|file> [density]", SCENARIO_FLAGS),
    (
        "explain",
        "<file.flight> [l<ID>|s<ID>]",
        &["--metrics", "--window", "--format"],
    ),
    (
        "timeline",
        "<file.trace.json> [l<ID>|s<ID>]",
        &["--metrics", "--format"],
    ),
    (
        "serve",
        "",
        &[
            "--metrics",
            "--addr",
            "--stdin",
            "--snapshot",
            "--prom-addr",
        ],
    ),
    (
        "top",
        "<addr> [topo]",
        &["--metrics", "--once", "--interval", "--lines"],
    ),
];

/// `serve` subcommand arguments.
#[derive(Debug, Default)]
struct ServeArgs {
    /// `--addr=HOST:PORT` (default `DB_SERVE_ADDR`, else `127.0.0.1:7117`).
    addr: Option<String>,
    /// `--stdin`: one session over stdin/stdout instead of a TCP listener.
    stdin: bool,
    /// `--snapshot=PATH`: restore at startup, persist on
    /// `SnapshotReq`/`Shutdown`.
    snapshot: Option<String>,
    /// `--prom-addr=HOST:PORT`: serve a Prometheus text scrape endpoint
    /// next to the frame listener (default `DB_SERVE_PROM_ADDR`, else off).
    prom_addr: Option<String>,
}

/// `top` subcommand arguments.
#[derive(Debug)]
struct TopArgs {
    /// `--once`: render a single frame and exit (scripts / CI).
    once: bool,
    /// `--interval=SECS`: refresh interval.
    interval: Duration,
    /// `--lines=N`: suspicion rows to render.
    lines: usize,
}

impl Default for TopArgs {
    fn default() -> Self {
        TopArgs {
            once: false,
            interval: Duration::from_secs(1),
            lines: 8,
        }
    }
}

/// The parsed subcommand, arguments resolved and typed.
#[derive(Debug)]
enum Command {
    Topo {
        spec: String,
    },
    Fail {
        spec: String,
        link: String,
        density: f64,
        opts: RunOpts,
    },
    Node {
        spec: String,
        node: String,
        density: f64,
        opts: RunOpts,
    },
    Sweep {
        spec: String,
        links: usize,
        density: f64,
        flags: SweepFlags,
        opts: RunOpts,
    },
    Health {
        spec: String,
        density: f64,
        opts: RunOpts,
    },
    Report {
        spec: String,
        density: f64,
        opts: RunOpts,
    },
    Explain {
        path: String,
        target: Option<String>,
        flags: ExplainFlags,
    },
    Timeline {
        path: String,
        target: Option<String>,
        fmt: TimelineFormat,
    },
    Serve(ServeArgs),
    Top {
        addr: String,
        topo: String,
        flags: TopArgs,
    },
}

/// The whole command line: one subcommand plus the cross-cutting
/// `--metrics` report format.
#[derive(Debug)]
struct Cli {
    metrics: Option<MetricsFormat>,
    cmd: Command,
}

/// Why parsing stopped: show the whole usage page, or one line of error.
enum CliError {
    Usage,
    Msg(String),
}

impl Cli {
    /// Parse `argv` (program name already skipped). Tokens starting with
    /// `--` are flags wherever they appear; everything else is positional.
    fn parse(argv: &[String]) -> Result<Cli, CliError> {
        let mut pos: Vec<&str> = Vec::new();
        let mut flags: Vec<Flag> = Vec::new();
        for tok in argv {
            if tok.starts_with("--") {
                flags.push(Flag::split(tok));
            } else {
                pos.push(tok);
            }
        }
        let Some(&cmd_name) = pos.first() else {
            return Err(CliError::Usage);
        };
        let Some(&(name, pos_usage, allowed)) = COMMANDS.iter().find(|&&(n, _, _)| n == cmd_name)
        else {
            let names: Vec<&str> = COMMANDS.iter().map(|&(n, _, _)| n).collect();
            return Err(CliError::Msg(format!(
                "unknown command '{cmd_name}' (valid: {})",
                names.join(", ")
            )));
        };
        for f in &flags {
            if !allowed.contains(&f.name.as_str()) {
                return Err(CliError::Msg(format!(
                    "unknown flag '{}' for `{name}` (valid: {})",
                    f.name,
                    allowed.join(", ")
                )));
            }
        }
        let metrics = metrics_format(&flags).map_err(CliError::Msg)?;
        let cmd = Self::build(name, pos_usage, &pos[1..], &flags).map_err(CliError::Msg)?;
        Ok(Cli { metrics, cmd })
    }

    /// Assemble the typed [`Command`] from the admitted flags and the
    /// positional tail (`args` excludes the command name itself).
    fn build(
        name: &str,
        pos_usage: &str,
        args: &[&str],
        flags: &[Flag],
    ) -> Result<Command, String> {
        let usage_line = || {
            format!("usage: drift-bottle {name} {pos_usage}")
                .trim_end()
                .to_string()
        };
        Ok(match name {
            "topo" => match args {
                [spec] => Command::Topo {
                    spec: spec.to_string(),
                },
                _ => return Err(usage_line()),
            },
            "fail" => match args {
                [spec, link] | [spec, link, _] => Command::Fail {
                    spec: spec.to_string(),
                    link: link.to_string(),
                    density: parse_density(args.get(2).copied())?,
                    opts: run_opts(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "node" => match args {
                [spec, node] | [spec, node, _] => Command::Node {
                    spec: spec.to_string(),
                    node: node.to_string(),
                    density: parse_density(args.get(2).copied())?,
                    opts: run_opts(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "sweep" => match args {
                [spec] | [spec, _] | [spec, _, _] => Command::Sweep {
                    spec: spec.to_string(),
                    links: match args.get(1) {
                        Some(s) => s.parse().map_err(|_| format!("bad link count '{s}'"))?,
                        None => 8,
                    },
                    density: parse_density(args.get(2).copied())?,
                    flags: sweep_flags(flags)?,
                    opts: run_opts(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "health" => match args {
                [spec] | [spec, _] => Command::Health {
                    spec: spec.to_string(),
                    density: parse_density(args.get(1).copied())?,
                    opts: run_opts(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "report" => match args {
                [spec] | [spec, _] => Command::Report {
                    spec: spec.to_string(),
                    density: parse_density(args.get(1).copied())?,
                    opts: run_opts(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "explain" => match args {
                [path] | [path, _] => Command::Explain {
                    path: path.to_string(),
                    target: args.get(1).map(|s| s.to_string()),
                    flags: explain_flags(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "timeline" => match args {
                [path] | [path, _] => Command::Timeline {
                    path: path.to_string(),
                    target: args.get(1).map(|s| s.to_string()),
                    fmt: timeline_format(flags)?,
                },
                _ => return Err(usage_line()),
            },
            "serve" => match args {
                [] => Command::Serve(serve_args(flags)?),
                _ => return Err(usage_line()),
            },
            "top" => match args {
                [addr] | [addr, _] => Command::Top {
                    addr: addr.to_string(),
                    topo: args.get(1).unwrap_or(&"geant2012").to_string(),
                    flags: top_args(flags)?,
                },
                _ => return Err(usage_line()),
            },
            other => return Err(format!("unknown command '{other}'")),
        })
    }
}

/// Output format of the `--metrics` report.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MetricsFormat {
    Table,
    Json,
    Prom,
}

/// The chosen `--metrics[=fmt]` format, the last occurrence winning.
fn metrics_format(flags: &[Flag]) -> Result<Option<MetricsFormat>, String> {
    let mut fmt = None;
    for f in flags.iter().filter(|f| f.name == "--metrics") {
        fmt = Some(match f.value.as_deref() {
            None | Some("table") => MetricsFormat::Table,
            Some("json") => MetricsFormat::Json,
            Some("prom") => MetricsFormat::Prom,
            Some(other) => {
                return Err(format!(
                    "unknown metrics format '{other}' (expected table, json or prom)"
                ))
            }
        });
    }
    Ok(fmt)
}

/// Print the global registry's snapshot in the requested format.
fn print_metrics_report(fmt: MetricsFormat) {
    let snap = drift_bottle::telemetry::global().snapshot();
    match fmt {
        MetricsFormat::Table => {
            println!("\n=== telemetry report ===\n");
            print!("{}", drift_bottle::telemetry::to_table(&snap));
        }
        MetricsFormat::Json => println!("{}", drift_bottle::telemetry::to_json(&snap)),
        MetricsFormat::Prom => print!("{}", drift_bottle::telemetry::to_prometheus(&snap)),
    }
}

/// Options shared by the scenario commands (fail/node/sweep/health/report).
#[derive(Debug, Default)]
struct RunOpts {
    /// Weight scheme override (`None` = the flagship Drift-Bottle wire
    /// variant).
    scheme: Option<WeightScheme>,
    /// `Some(None)` = flight recording at the default path, `Some(Some(p))`
    /// = at `p`, `None` = no recording.
    flight: Option<Option<String>>,
    /// `Some(None)` = db-scope trace at the default path, `Some(Some(p))`
    /// = at `p`, `None` = no tracing.
    trace: Option<Option<String>>,
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
fn run_opts(flags: &[Flag]) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    for f in flags {
        match f.name.as_str() {
            "--scheme" => o.scheme = Some(parse_scheme(f.require("NAME")?)?),
            "--flight" => o.flight = Some(f.opt_path()?),
            "--trace" => o.trace = Some(f.opt_path()?),
            _ => {}
        }
    }
    Ok(o)
}

/// Collect the `serve` flags (`--addr`, `--stdin`, `--snapshot`).
fn serve_args(flags: &[Flag]) -> Result<ServeArgs, String> {
    let mut sa = ServeArgs::default();
    for f in flags {
        match f.name.as_str() {
            "--addr" => sa.addr = Some(f.require("HOST:PORT")?.to_string()),
            "--stdin" => {
                f.no_value()?;
                sa.stdin = true;
            }
            "--snapshot" => sa.snapshot = Some(f.require("PATH")?.to_string()),
            "--prom-addr" => sa.prom_addr = Some(f.require("HOST:PORT")?.to_string()),
            _ => {}
        }
    }
    Ok(sa)
}

/// Collect the `top` flags (`--once`, `--interval`, `--lines`).
fn top_args(flags: &[Flag]) -> Result<TopArgs, String> {
    let mut ta = TopArgs::default();
    for f in flags {
        match f.name.as_str() {
            "--once" => {
                f.no_value()?;
                ta.once = true;
            }
            "--interval" => {
                let v = f.require("SECS")?;
                let secs: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad interval '{v}' (use --interval=SECS)"))?;
                ta.interval = Duration::from_secs_f64(secs);
            }
            "--lines" => {
                let v = f.require("N")?;
                ta.lines = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| format!("bad line count '{v}' (use --lines=N)"))?;
            }
            _ => {}
        }
    }
    Ok(ta)
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

/// Build the single-scenario setup for `opts`: the chosen variant plus the
/// flight and scope recorders when requested. Returns the setup, the
/// variant name to report on, and the recorders for [`save_recordings`].
#[allow(clippy::type_complexity)]
fn single_setup<'a>(
    prep: &'a Prepared,
    density: f64,
    opts: &RunOpts,
) -> Result<
    (
        ScenarioSetup<'a>,
        String,
        Option<Arc<FlightRecorder>>,
        Option<Arc<ScopeRecorder>>,
    ),
    String,
> {
    let spec = variant_for(opts);
    let vname = spec.name.clone();
    let mut setup = ScenarioSetup::flagship(prep, density, 1);
    setup.variants = vec![spec];
    let rec = match &opts.flight {
        Some(_) => Some(Arc::new(FlightRecorder::new(flight_capacity()?))),
        None => None,
    };
    setup.instr.flight = rec.clone();
    let scope = opts.trace.as_ref().map(|_| {
        drift_bottle::telemetry::scope::profiler_enable();
        Arc::new(ScopeRecorder::default())
    });
    setup.instr.scope = scope.clone();
    Ok((setup, vname, rec, scope))
}

/// The tail of every single-run command: write the flight recording and the
/// db-scope trace it collected (`None` when not requested) to the explicit
/// path or `results/<cmd>-<topo>.*`, and tell the operator where they went.
fn save_recordings(
    opts: &RunOpts,
    cmd: &str,
    topo: &str,
    rec: Option<Arc<FlightRecorder>>,
    scope: Option<Arc<ScopeRecorder>>,
) -> Result<(), String> {
    if let Some(rec) = rec {
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
    if let Some(sc) = scope {
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

fn parse_density(arg: Option<&str>) -> Result<f64, String> {
    match arg {
        None => Ok(1.0),
        Some(s) => {
            let d: f64 = s.parse().map_err(|_| format!("bad density '{s}'"))?;
            if (0.0..=1.0).contains(&d) {
                Ok(d)
            } else {
                Err(format!("density {d} out of [0,1]"))
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
            ..Default::default()
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

fn cmd_topo(spec: &str) -> Result<(), String> {
    let topo = load_topology(spec)?;
    let s = TopologyStats::compute(&topo);
    let routes = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&topo)));
    if let Some(reg) = drift_bottle::telemetry::active() {
        routes.set_metrics(reg);
    }
    let exact = topo.node_count() <= SCALE_NODE_THRESHOLD;
    let p = if exact {
        PathStats::compute(&routes)
    } else {
        PathStats::compute_sampled(&routes)
    };
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
    if exact {
        let mut used = vec![false; topo.link_count()];
        for (a, b) in drift_bottle::topology::ordered_pairs(topo.node_count()) {
            for &l in &routes.path(a, b).links {
                used[l.idx()] = true;
            }
        }
        let dark = used.iter().filter(|&&u| !u).count();
        println!("dark links : {dark} (carry no shortest-path traffic)");
    } else {
        println!(
            "dark links : skipped (graph above the {SCALE_NODE_THRESHOLD}-node exact threshold)"
        );
    }
    let wcfg = drift_bottle::flowmon::WindowConfig::for_network_auto(&routes, SimTime::from_ms(4));
    println!(
        "monitoring : 4 ms interval, {}-interval sliding window ({} ms){approx}",
        wcfg.window_intervals,
        wcfg.window_len().as_ms_f64()
    );
    Ok(())
}

fn cmd_fail(spec: &str, link: &str, density: f64, opts: &RunOpts) -> Result<(), String> {
    let topo = load_topology(spec)?;
    let id: u16 = link
        .trim_start_matches('l')
        .parse()
        .map_err(|_| format!("bad link id '{link}'"))?;
    if id as usize >= topo.link_count() {
        return Err(format!(
            "link {id} out of range (topology has {})",
            topo.link_count()
        ));
    }
    let prep = train(topo);
    let (setup, vname, rec, scope) = single_setup(&prep, density, opts)?;
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(LinkId(id)));
    print_outcome(&prep, &outcome, &vname)?;
    save_recordings(opts, "fail", prep.topo.name(), rec, scope)
}

fn cmd_node(spec: &str, node: &str, density: f64, opts: &RunOpts) -> Result<(), String> {
    let topo = load_topology(spec)?;
    let id: u16 = node
        .trim_start_matches('s')
        .trim_start_matches('n')
        .parse()
        .map_err(|_| format!("bad node id '{node}'"))?;
    if id as usize >= topo.node_count() {
        return Err(format!(
            "node {id} out of range (topology has {})",
            topo.node_count()
        ));
    }
    let prep = train(topo);
    let (setup, vname, rec, scope) = single_setup(&prep, density, opts)?;
    let outcome = run_scenario(&setup, &ScenarioKind::Node(NodeId(id)));
    print_outcome(&prep, &outcome, &vname)?;
    save_recordings(opts, "node", prep.topo.name(), rec, scope)
}

/// Parsed `sweep` subcommand flags.
#[derive(Debug, Default)]
struct SweepFlags {
    /// Worker threads; 0 = auto.
    workers: usize,
    /// `Some(None)` = checkpoint at the default path, `Some(Some(p))` = at
    /// `p`, `None` = no checkpointing.
    checkpoint: Option<Option<String>>,
    /// Resume from the checkpoint if it exists.
    resume: bool,
}

/// Collect the sweep-only flags (`--workers`, `--checkpoint`, `--resume`).
fn sweep_flags(flags: &[Flag]) -> Result<SweepFlags, String> {
    let mut sf = SweepFlags::default();
    for f in flags {
        match f.name.as_str() {
            "--workers" => {
                let v = f.require("N")?;
                sf.workers = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad worker count '{v}' (use --workers=N)"))?;
            }
            "--checkpoint" => sf.checkpoint = Some(f.opt_path()?),
            "--resume" => {
                f.no_value()?;
                sf.resume = true;
            }
            _ => {}
        }
    }
    Ok(sf)
}

fn cmd_sweep(
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

fn cmd_health(spec: &str, density: f64, opts: &RunOpts) -> Result<(), String> {
    let topo = load_topology(spec)?;
    let prep = train(topo);
    let (setup, vname, rec, scope) = single_setup(&prep, density, opts)?;
    let outcome = run_scenario(&setup, &ScenarioKind::None);
    let v = variant_or_err(&outcome, &vname)?;
    println!(
        "healthy network: {} links falsely accused ({} raises total, {} packets simulated)",
        v.reported.len(),
        v.raises,
        outcome.stats.packets_sent
    );
    if !v.reported.is_empty() {
        println!("accused: {:?}", v.reported);
    }
    save_recordings(opts, "health", prep.topo.name(), rec, scope)
}

fn cmd_report(spec: &str, density: f64, opts: &RunOpts) -> Result<(), String> {
    // Mirror warning events to stderr so the operator sees the raises with
    // their hop/w0/w1 context as they happen.
    drift_bottle::telemetry::set_recorder(std::sync::Arc::new(
        drift_bottle::telemetry::StderrRecorder,
    ));
    drift_bottle::telemetry::set_max_level(Some(drift_bottle::telemetry::Level::Warn));
    let topo = load_topology(spec)?;
    let prep = train(topo);
    // Above the exact threshold the sampled workload is sparse, so fail the
    // busiest link (most flows) rather than an arbitrary covered one.
    let link = if prep.topo.node_count() <= SCALE_NODE_THRESHOLD {
        *covered_links(&prep)
            .first()
            .ok_or("topology has no covered links to fail")?
    } else {
        drift_bottle::core::experiment::busiest_sampled_link(&prep)
            .ok_or("sampled workload crosses no links")?
    };
    eprintln!("[failing {link} and running one scenario at density {density}...]");
    let (setup, vname, rec, scope) = single_setup(&prep, density, opts)?;
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(link));
    print_outcome(&prep, &outcome, &vname)?;
    save_recordings(opts, "report", prep.topo.name(), rec, scope)
}

/// Run the streaming daemon (DESIGN.md §15): one incremental engine per
/// topology behind TCP — or a single stdin/stdout session — speaking the
/// length-prefixed frame protocol of `db_serve::frame`.
fn cmd_serve(args: &ServeArgs) -> Result<(), String> {
    let mut opts = drift_bottle::serve::ServeOptions::from_env();
    if let Some(a) = &args.addr {
        opts.addr = a.clone();
    }
    if let Some(p) = &args.snapshot {
        opts.snapshot = Some(std::path::PathBuf::from(p));
    }
    if let Some(a) = &args.prom_addr {
        opts.prom_addr = Some(a.clone());
    }
    if args.stdin {
        return drift_bottle::serve::serve_stdio(&opts).map_err(|e| format!("serve (stdio): {e}"));
    }
    let server = drift_bottle::serve::Server::bind(&opts)
        .map_err(|e| format!("binding {}: {e}", opts.addr))?;
    match server.local_addr() {
        Ok(a) => eprintln!("[serve: listening on {a}; a Shutdown frame stops the daemon]"),
        Err(_) => eprintln!("[serve: listening on {}]", opts.addr),
    }
    if let Some(a) = server.prom_addr() {
        eprintln!("[serve: prometheus on {a}; scrape with curl http://{a}/metrics]");
    }
    server.run().map_err(|e| format!("serve: {e}"))
}

/// Windows of per-series history `top` retains client-side (and the widest
/// sparkline it renders).
const TOP_HISTORY: usize = 64;

/// Live terminal health view of a running daemon (DESIGN.md §16): polls
/// `PulseReq` with a monotone window cursor, folds the flushed per-window
/// health series into client-side history, and renders top-suspicion links
/// as sparklines alongside the daemon's ingest counters and batch-latency
/// percentiles. `--once` renders a single frame for scripts and CI.
fn cmd_top(addr: &str, topo: &str, args: &TopArgs) -> Result<(), String> {
    use drift_bottle::serve::{read_frame, write_frame, Frame, PROTO_VERSION};
    use std::collections::HashMap;
    use std::io::{BufReader, BufWriter, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut out = BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?,
    );
    let mut input = BufReader::new(stream);

    // Attach to the daemon's engine for `topo`; density/seed only matter
    // when this Hello is the one that builds it (they match load_gen and
    // the batch flagship defaults).
    write_frame(
        &mut out,
        &Frame::Hello {
            proto: PROTO_VERSION,
            topo: topo.into(),
            density: 1.0,
            seed: 42,
            window_cap: 0,
        },
    )
    .map_err(|e| format!("sending hello: {e}"))?;
    out.flush().map_err(|e| format!("sending hello: {e}"))?;
    let (interval_ns, nodes, links) = match read_frame(&mut input) {
        Ok(Some(Frame::HelloAck {
            interval_ns,
            nodes,
            links,
            ..
        })) => (interval_ns, nodes, links),
        Ok(Some(Frame::Error(msg))) => return Err(format!("daemon rejected hello: {msg}")),
        Ok(other) => return Err(format!("expected HelloAck, got {other:?}")),
        Err(e) => return Err(format!("reading hello ack: {e}")),
    };

    let suspicion = SeriesKind::LinkSuspicion.code();
    let link_warn = SeriesKind::LinkWarnings.code();
    let mut cursor = 0u64;
    let mut hist: HashMap<(u8, u16), Vec<(u64, f64)>> = HashMap::new();
    let mut warn_tail: Vec<String> = Vec::new();
    let mut prev: Option<(Instant, u64)> = None;
    loop {
        write_frame(
            &mut out,
            &Frame::PulseReq {
                from_window: cursor,
            },
        )
        .map_err(|e| format!("sending pulse poll: {e}"))?;
        out.flush()
            .map_err(|e| format!("sending pulse poll: {e}"))?;
        let pulse = loop {
            match read_frame(&mut input).map_err(|e| format!("reading pulse: {e}"))? {
                Some(Frame::Pulse(p)) => break p,
                Some(Frame::Error(msg)) => return Err(format!("daemon error: {msg}")),
                Some(_) => continue,
                None => return Err("daemon closed the connection".into()),
            }
        };
        cursor = pulse.next_window;
        for p in &pulse.points {
            let series = hist.entry((p.kind, p.id)).or_default();
            series.push((p.window, p.value));
            if series.len() > TOP_HISTORY {
                let cut = series.len() - TOP_HISTORY;
                series.drain(..cut);
            }
            if p.kind == link_warn && p.value > 0.0 {
                warn_tail.push(format!(
                    "window {:>6}  l{:<5} x{}",
                    p.window, p.id, p.value as u64
                ));
            }
        }
        if warn_tail.len() > 6 {
            let cut = warn_tail.len() - 6;
            warn_tail.drain(..cut);
        }
        let now = Instant::now();
        let rate = prev.and_then(|(t, n)| {
            let dt = now.duration_since(t).as_secs_f64();
            (dt > 0.0).then(|| pulse.ingested.saturating_sub(n) as f64 / dt)
        });
        prev = Some((now, pulse.ingested));

        // One frame of output, built off-screen then emitted in one write.
        let mut s = String::new();
        if !args.once {
            s.push_str("\x1b[2J\x1b[H");
        }
        let window = pulse.now_ns / interval_ns.max(1);
        s.push_str(&format!(
            "drift-bottle top — {addr} · {topo} ({nodes} switches, {links} links) · \
             t={:.3}s · window {window}\n",
            pulse.now_ns as f64 / 1e9
        ));
        s.push_str(&format!(
            "ingested {:>12}{}   warnings {:>6}   carriers {:>8}   \
             batch p50/p90/p99 {:.0}/{:.0}/{:.0} µs\n\n",
            pulse.ingested,
            rate.map(|r| format!(" ({r:.0}/s)")).unwrap_or_default(),
            pulse.warnings,
            pulse.carriers,
            pulse.p50_us,
            pulse.p90_us,
            pulse.p99_us
        ));
        s.push_str(&format!(
            "top links by suspicion (last {TOP_HISTORY} windows)\n"
        ));
        let mut links_by_peak: Vec<(u16, f64, f64, Vec<f64>)> = hist
            .iter()
            .filter(|((kind, _), _)| *kind == suspicion)
            .map(|(&(_, id), series)| {
                let vals: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
                let peak = vals.iter().copied().fold(0.0f64, f64::max);
                let last = vals.last().copied().unwrap_or(0.0);
                (id, peak, last, vals)
            })
            .collect();
        links_by_peak.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if links_by_peak.is_empty() {
            s.push_str("  (no suspicion series yet — waiting for completed windows)\n");
        }
        for (id, peak, last, vals) in links_by_peak.iter().take(args.lines) {
            s.push_str(&format!(
                "  l{id:<5} {:<32}  peak {peak:9.2}  last {last:9.2}\n",
                sparkline(vals)
            ));
        }
        s.push_str("\nrecent warnings\n");
        if warn_tail.is_empty() {
            s.push_str("  (none)\n");
        }
        for line in &warn_tail {
            s.push_str(&format!("  {line}\n"));
        }
        print!("{s}");
        std::io::stdout().flush().ok();

        if args.once {
            break;
        }
        std::thread::sleep(args.interval);
    }
    Ok(())
}

/// Output format of `explain`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ExplainFormat {
    Table,
    Json,
}

/// Parsed `explain` subcommand flags.
#[derive(Debug)]
struct ExplainFlags {
    /// Restrict votes/warnings to this sampling-window index.
    window: Option<u32>,
    /// Output format.
    format: ExplainFormat,
}

/// Collect the explain-only flags (`--window`, `--format`).
fn explain_flags(flags: &[Flag]) -> Result<ExplainFlags, String> {
    let mut ef = ExplainFlags {
        window: None,
        format: ExplainFormat::Table,
    };
    for f in flags {
        match f.name.as_str() {
            "--window" => {
                let v = f.require("N")?;
                ef.window = Some(
                    v.parse::<u32>()
                        .map_err(|_| format!("bad window '{v}' (use --window=N)"))?,
                );
            }
            "--format" => {
                ef.format = match f.require("table|json")? {
                    "table" => ExplainFormat::Table,
                    "json" => ExplainFormat::Json,
                    other => return Err(format!("bad format '{other}' (use --format=table|json)")),
                }
            }
            _ => {}
        }
    }
    Ok(ef)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

fn fmt_links(links: &[u16]) -> String {
    if links.is_empty() {
        "(none)".to_string()
    } else {
        links
            .iter()
            .map(|l| format!("l{l}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Render a [`provenance::BlockedTally`] as `clause xN` terms.
fn fmt_blocked(t: &provenance::BlockedTally) -> String {
    let mut parts = Vec::new();
    for (n, label) in [
        (t.non_positive_w0, "w0<=0"),
        (t.hop_min, "hop_min"),
        (t.alpha, "alpha"),
        (t.beta, "beta"),
    ] {
        if n > 0 {
            parts.push(format!("{label} x{n}"));
        }
    }
    if parts.is_empty() {
        "never blocked".to_string()
    } else {
        parts.join(", ")
    }
}

fn explain_aggregate(rec: &Recording, path: &str, fmt: ExplainFormat) -> Result<(), String> {
    let q = provenance::quality_report(rec).ok_or(
        "recording has no run header (evicted from the ring?); \
         re-record with a larger DB_FLIGHT_CAPACITY to score the run",
    )?;
    if fmt == ExplainFormat::Json {
        let ttfw: Vec<String> = q
            .time_to_first_warning_ns
            .iter()
            .map(|(l, t)| {
                format!(
                    "{{\"link\":{l},\"ns\":{}}}",
                    t.map_or("null".to_string(), |n| n.to_string())
                )
            })
            .collect();
        println!(
            "{{\"file\":\"{}\",\"records\":{},\"evicted\":{},\"ground_truth\":{:?},\"reported\":{:?},\"precision\":{},\"recall\":{},\"f1\":{},\"accuracy\":{},\"fpr\":{},\"warnings_total\":{},\"warnings_in_window\":{},\"classified_abnormal\":{},\"classified_normal\":{},\"merges\":{},\"merges_with_drops\":{},\"dropped_entries\":{},\"truncation_loss_rate\":{},\"time_to_first_warning\":[{}]}}",
            drift_bottle::telemetry::json_escape(path),
            rec.records.len(),
            q.ring_dropped,
            q.info.ground_truth,
            q.reported_links,
            q.precision,
            q.recall,
            q.f1,
            q.accuracy,
            q.fpr,
            q.warnings_total,
            q.warnings_in_window,
            q.classified.0,
            q.classified.1,
            q.truncation.merges,
            q.truncation.merges_with_drops,
            q.truncation.dropped_entries,
            q.truncation.loss_rate(),
            ttfw.join(",")
        );
        return Ok(());
    }
    println!("=== flight recording: {path} ===");
    println!(
        "records      : {} kept, {} evicted (capacity {})",
        rec.records.len(),
        q.ring_dropped,
        rec.capacity
    );
    println!(
        "run          : t_fail {}, window ({}, {}], k={}, hop_min={}, alpha={}, beta={}",
        fmt_ms(q.info.t_fail_ns),
        fmt_ms(q.info.window_ns.0),
        fmt_ms(q.info.window_ns.1),
        q.info.k,
        q.info.warning.hop_min,
        q.info.warning.alpha,
        q.info.warning.beta
    );
    println!("ground truth : {}", fmt_links(&q.info.ground_truth));
    println!("reported     : {}", fmt_links(&q.reported_links));
    println!(
        "quality      : precision {:.2}  recall {:.2}  F1 {:.2}  accuracy {:.2}%  FPR {:.2}%",
        q.precision,
        q.recall,
        q.f1,
        100.0 * q.accuracy,
        100.0 * q.fpr
    );
    println!(
        "warnings     : {} raised, {} inside the collection window",
        q.warnings_total, q.warnings_in_window
    );
    println!(
        "classified   : {} abnormal / {} normal flow-windows",
        q.classified.0, q.classified.1
    );
    println!(
        "truncation   : {} merges, {} lost >=1 link ({:.1}%), {} entries dropped",
        q.truncation.merges,
        q.truncation.merges_with_drops,
        100.0 * q.truncation.loss_rate(),
        q.truncation.dropped_entries
    );
    println!("time to first in-window warning:");
    for (l, t) in &q.time_to_first_warning_ns {
        match t {
            Some(ns) => println!("  l{l}: {} after injection", fmt_ms(*ns)),
            None => println!("  l{l}: never warned"),
        }
    }
    if q.ring_dropped > 0 {
        println!(
            "note: {} records were evicted from the ring — this report scores only the \
             surviving tail; re-record with DB_FLIGHT_CAPACITY={} or more for a full chain",
            q.ring_dropped,
            q.ring_dropped + rec.records.len() as u64
        );
    }
    Ok(())
}

fn explain_link_cmd(rec: &Recording, id: u16, flags: &ExplainFlags) -> Result<(), String> {
    let mut e = provenance::explain_link(rec, id);
    if let Some(w) = flags.window {
        e.votes.retain(|v| v.window == w);
        e.warnings.retain(|v| v.window_index == Some(w));
    }
    if flags.format == ExplainFormat::Json {
        let votes: Vec<String> = e
            .votes
            .iter()
            .map(|v| {
                format!(
                    "{{\"at_ns\":{},\"switch\":{},\"window\":{},\"flow\":{},\"delta\":{}}}",
                    v.at_ns, v.switch, v.window, v.flow, v.delta
                )
            })
            .collect();
        let warnings: Vec<String> = e
            .warnings
            .iter()
            .map(|w| {
                format!(
                    "{{\"at_ns\":{},\"switch\":{},\"hop_now\":{},\"w0\":{},\"w1\":{},\"in_window\":{}}}",
                    w.at_ns,
                    w.switch,
                    w.hop_now,
                    w.w0,
                    w.w1,
                    w.in_window
                        .map_or("null".to_string(), |b| b.to_string())
                )
            })
            .collect();
        let truncated: Vec<String> = e
            .truncation_drops
            .iter()
            .map(|t| {
                format!(
                    "{{\"at_ns\":{},\"switch\":{},\"flow\":{},\"hop_now\":{}}}",
                    t.at_ns, t.switch, t.flow, t.hop_now
                )
            })
            .collect();
        println!(
            "{{\"link\":{},\"ground_truth\":{},\"reported\":{},\"vote_total\":{},\"votes_for\":{},\"votes_against\":{},\"voting_flows\":{},\"voting_switches\":{},\"merges_as_top\":{},\"packet_drops\":{:?},\"votes\":[{}],\"truncation_drops\":[{}],\"warnings\":[{}]}}",
            e.link,
            e.ground_truth
                .map_or("null".to_string(), |b| b.to_string()),
            e.reported().map_or("null".to_string(), |b| b.to_string()),
            e.vote_total,
            e.votes_for,
            e.votes_against,
            e.voting_flows,
            e.voting_switches,
            e.merges_as_top,
            e.packet_drops,
            votes.join(","),
            truncated.join(","),
            warnings.join(",")
        );
        return Ok(());
    }
    println!("=== link l{id} ===");
    match e.ground_truth {
        Some(true) => println!("ground truth : FAILED"),
        Some(false) => println!("ground truth : healthy"),
        None => println!("ground truth : unknown (run header evicted)"),
    }
    match e.reported() {
        Some(true) => println!("reported     : yes (warning inside the collection window)"),
        Some(false) => println!("reported     : no"),
        None => println!("reported     : unknown (run header evicted)"),
    }
    if let Some(w) = flags.window {
        println!("filter       : sampling window {w} only");
    }
    println!(
        "votes        : {} ({} accusing, {} exonerating), total {:+}, from {} flows across {} switches",
        e.votes.len(),
        e.votes_for,
        e.votes_against,
        e.vote_total,
        e.voting_flows,
        e.voting_switches
    );
    for v in e.votes.iter().take(10) {
        println!(
            "  {} s{} window {} flow {} delta {:+}",
            fmt_ms(v.at_ns),
            v.switch,
            v.window,
            v.flow,
            v.delta
        );
    }
    if e.votes.len() > 10 {
        println!("  ... {} more", e.votes.len() - 10);
    }
    println!(
        "truncated    : {} merges dropped this link's weight in transit",
        e.truncation_drops.len()
    );
    for t in e.truncation_drops.iter().take(5) {
        println!(
            "  {} s{} flow {} at hop {}",
            fmt_ms(t.at_ns),
            t.switch,
            t.flow,
            t.hop_now
        );
    }
    if e.truncation_drops.len() > 5 {
        println!("  ... {} more", e.truncation_drops.len() - 5);
    }
    print!(
        "top of merge : {} merges had l{id} as top accusation",
        e.merges_as_top
    );
    match &e.blocked {
        Some(t) => println!("; eq(1): {}, fired x{}", fmt_blocked(t), t.fires),
        None => println!(),
    }
    println!("warnings     : {}", e.warnings.len());
    for w in e.warnings.iter().take(10) {
        println!(
            "  {} s{} hop {} w0 {:+} w1 {:+}{}",
            fmt_ms(w.at_ns),
            w.switch,
            w.hop_now,
            w.w0,
            w.w1,
            match w.in_window {
                Some(true) => " [in window]",
                Some(false) => " [outside window]",
                None => "",
            }
        );
    }
    if e.warnings.len() > 10 {
        println!("  ... {} more", e.warnings.len() - 10);
    }
    if let Some(first) = &e.first_warning_in_window {
        println!(
            "first report : {} at s{}, hop {}, sampling window {}",
            fmt_ms(first.at_ns),
            first.switch,
            first.hop_now,
            first
                .window_index
                .map_or("?".to_string(), |w| w.to_string())
        );
    }
    println!(
        "packet drops : {} down, {} corrupt, {} queue",
        e.packet_drops[0], e.packet_drops[1], e.packet_drops[2]
    );
    Ok(())
}

fn explain_switch_cmd(rec: &Recording, id: u16, flags: &ExplainFlags) -> Result<(), String> {
    let mut s = provenance::explain_switch(rec, id);
    if let Some(w) = flags.window {
        s.warnings.retain(|(_, v)| v.window_index == Some(w));
    }
    if flags.format == ExplainFormat::Json {
        let votes: Vec<String> = s
            .votes_by_link
            .iter()
            .map(|(l, total, n)| format!("{{\"link\":{l},\"total\":{total},\"count\":{n}}}"))
            .collect();
        let warnings: Vec<String> = s
            .warnings
            .iter()
            .map(|(l, w)| {
                format!(
                    "{{\"link\":{l},\"at_ns\":{},\"hop_now\":{},\"w0\":{},\"w1\":{}}}",
                    w.at_ns, w.hop_now, w.w0, w.w1
                )
            })
            .collect();
        println!(
            "{{\"switch\":{},\"classified_abnormal\":{},\"classified_normal\":{},\"merges\":{},\"merges_with_drops\":{},\"votes_by_link\":[{}],\"warnings\":[{}]}}",
            s.switch,
            s.classified.0,
            s.classified.1,
            s.merges,
            s.merges_with_drops,
            votes.join(","),
            warnings.join(",")
        );
        return Ok(());
    }
    println!("=== switch s{id} ===");
    println!(
        "classified   : {} abnormal / {} normal flow-windows",
        s.classified.0, s.classified.1
    );
    println!("votes        : {} links voted on", s.votes_by_link.len());
    for (l, total, n) in s.votes_by_link.iter().take(10) {
        println!("  l{l}: total {total:+} over {n} votes");
    }
    if s.votes_by_link.len() > 10 {
        println!("  ... {} more", s.votes_by_link.len() - 10);
    }
    println!(
        "merges       : {} ({} lost >=1 link to the top-k cut)",
        s.merges, s.merges_with_drops
    );
    println!("warnings     : {}", s.warnings.len());
    for (l, w) in s.warnings.iter().take(10) {
        println!(
            "  {} l{l} hop {} w0 {:+} w1 {:+}{}",
            fmt_ms(w.at_ns),
            w.hop_now,
            w.w0,
            w.w1,
            match w.in_window {
                Some(true) => " [in window]",
                Some(false) => " [outside window]",
                None => "",
            }
        );
    }
    Ok(())
}

fn cmd_explain(path: &str, target: Option<&String>, flags: &ExplainFlags) -> Result<(), String> {
    let rec = Recording::load(path).map_err(|e| format!("loading {path}: {e}"))?;
    match target {
        None => explain_aggregate(&rec, path, flags.format),
        Some(t) => {
            if let Some(id) = t.strip_prefix('l').and_then(|s| s.parse::<u16>().ok()) {
                explain_link_cmd(&rec, id, flags)
            } else if let Some(id) = t.strip_prefix('s').and_then(|s| s.parse::<u16>().ok()) {
                explain_switch_cmd(&rec, id, flags)
            } else {
                Err(format!(
                    "bad explain target '{t}' (use l<ID> for a link or s<ID> for a switch)"
                ))
            }
        }
    }
}

/// Output format of `timeline`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TimelineFormat {
    Table,
    Json,
    Spark,
}

/// The timeline `--format=table|json|sparkline` choice.
fn timeline_format(flags: &[Flag]) -> Result<TimelineFormat, String> {
    let mut fmt = TimelineFormat::Table;
    for f in flags.iter().filter(|f| f.name == "--format") {
        fmt = match f.require("table|json|sparkline")? {
            "table" => TimelineFormat::Table,
            "json" => TimelineFormat::Json,
            "sparkline" => TimelineFormat::Spark,
            other => {
                return Err(format!(
                    "bad format '{other}' (use --format=table|json|sparkline)"
                ))
            }
        };
    }
    Ok(fmt)
}

/// The per-window rows of a set of series columns: the sorted union of
/// their window indices, one `Option<f64>` cell per column.
fn window_rows(cols: &[Option<&TraceSeries>]) -> Vec<(u64, Vec<Option<f64>>)> {
    let mut rows: std::collections::BTreeMap<u64, Vec<Option<f64>>> =
        std::collections::BTreeMap::new();
    for (i, col) in cols.iter().enumerate() {
        let Some(s) = col else { continue };
        for &(w, v) in &s.points {
            rows.entry(w).or_insert_with(|| vec![None; cols.len()])[i] = Some(v);
        }
    }
    rows.into_iter().collect()
}

/// One link's or switch's per-window view of a trace.
fn timeline_target(
    data: &TraceData,
    label: &str,
    kinds: &[SeriesKind],
    id: u16,
    fmt: TimelineFormat,
) -> Result<(), String> {
    let cols: Vec<Option<&TraceSeries>> = kinds.iter().map(|&k| data.series_for(k, id)).collect();
    if cols.iter().all(|c| c.is_none()) {
        return Err(format!(
            "trace has no series for {label} (nothing was fed for that id; \
             check the summary view for the ids present)"
        ));
    }
    let rows = window_rows(&cols);
    if fmt == TimelineFormat::Json {
        let series: Vec<String> = kinds
            .iter()
            .zip(&cols)
            .filter_map(|(&k, c)| {
                c.map(|s| {
                    let pts: Vec<String> =
                        s.points.iter().map(|(w, v)| format!("[{w},{v}]")).collect();
                    format!(
                        "{{\"kind\":\"{}\",\"evicted\":{},\"points\":[{}]}}",
                        k.as_str(),
                        s.evicted,
                        pts.join(",")
                    )
                })
            })
            .collect();
        println!(
            "{{\"target\":\"{label}\",\"series\":[{}]}}",
            series.join(",")
        );
        return Ok(());
    }
    println!("=== {label} ===");
    if let Some(m) = &data.meta {
        println!(
            "run          : interval {}, failure injected at {}",
            fmt_ms(m.interval_ns),
            fmt_ms(m.t_fail_ns)
        );
        println!(
            "eq(1)        : alpha {}, beta {}, hop_min {}",
            m.alpha, m.beta, m.hop_min
        );
    }
    if fmt == TimelineFormat::Spark {
        for (i, (k, c)) in kinds.iter().zip(&cols).enumerate() {
            if c.is_none() {
                continue;
            }
            let vals: Vec<f64> = rows
                .iter()
                .map(|(_, cells)| cells[i].unwrap_or(0.0))
                .collect();
            let peak = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<16} {}  windows {}..{}, peak {peak}",
                k.as_str(),
                sparkline(&vals),
                rows.first().map_or(0, |r| r.0),
                rows.last().map_or(0, |r| r.0),
            );
        }
    } else {
        let mut header = format!("{:>8}", "window");
        for k in kinds {
            header.push_str(&format!("  {:>15}", k.as_str()));
        }
        println!("{header}");
        for (w, cells) in &rows {
            let mut line = format!("{w:>8}");
            for c in cells {
                line.push_str(&format!(
                    "  {:>15}",
                    c.map_or("-".to_string(), |v| format!("{v}"))
                ));
            }
            println!("{line}");
        }
    }
    // The warning cross-reference: the first window whose warning count is
    // non-zero is the sampling window in which `explain`'s WarningRaised
    // record for this link lands (both derive the index as at_ns/interval).
    if kinds.contains(&SeriesKind::LinkWarnings) {
        if let Some(ws) = data.series_for(SeriesKind::LinkWarnings, id) {
            if let Some(&(w, _)) = ws.points.iter().find(|&&(_, v)| v > 0.0) {
                let at = data
                    .meta
                    .as_ref()
                    .map(|m| format!(" (~{} into the run)", fmt_ms(w * m.interval_ns)))
                    .unwrap_or_default();
                println!("first warning: window {w}{at}");
            } else {
                println!("first warning: never (no eq(1) firing for this link)");
            }
        }
    }
    let evicted: u64 = cols.iter().filter_map(|c| c.map(|s| s.evicted)).sum();
    if evicted > 0 {
        println!(
            "note: {evicted} early points were evicted from the ring; the series above \
             is the surviving tail"
        );
    }
    Ok(())
}

/// The whole-trace summary view.
fn timeline_summary(data: &TraceData, path: &str, fmt: TimelineFormat) -> Result<(), String> {
    // Peak suspicion and warning totals per link, for the suspect list.
    let mut suspects: Vec<(u16, f64)> = data
        .series
        .iter()
        .filter(|s| s.kind == SeriesKind::LinkSuspicion.as_str())
        .map(|s| {
            let peak = s
                .points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            (s.id, peak)
        })
        .collect();
    suspects.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let warned: Vec<u16> = data
        .series
        .iter()
        .filter(|s| {
            s.kind == SeriesKind::LinkWarnings.as_str() && s.points.iter().any(|&(_, v)| v > 0.0)
        })
        .map(|s| s.id)
        .collect();
    let (wlo, whi) = data
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(w, _)| w))
        .fold((u64::MAX, 0u64), |(lo, hi), w| (lo.min(w), hi.max(w)));
    let total_calls: u64 = data.profiler.iter().map(|&(_, n)| n).sum();
    if fmt == TimelineFormat::Json {
        let meta = data
            .meta
            .as_ref()
            .map(|m| {
                format!(
                    "{{\"interval_ns\":{},\"t_fail_ns\":{},\"total_links\":{},\"total_switches\":{},\"alpha\":{},\"beta\":{},\"hop_min\":{}}}",
                    m.interval_ns, m.t_fail_ns, m.total_links, m.total_switches, m.alpha, m.beta, m.hop_min
                )
            })
            .unwrap_or_else(|| "null".to_string());
        let top: Vec<String> = suspects
            .iter()
            .take(5)
            .map(|(l, p)| format!("{{\"link\":{l},\"peak\":{p}}}"))
            .collect();
        let prof: Vec<String> = data
            .profiler
            .iter()
            .map(|(f, n)| format!("{{\"fn\":\"{f}\",\"calls\":{n}}}"))
            .collect();
        println!(
            "{{\"file\":\"{}\",\"meta\":{meta},\"series\":{},\"spans\":{},\"windows\":{},\"links_with_warnings\":{:?},\"top_suspicion\":[{}],\"profiler_enabled\":{},\"profiler\":[{}]}}",
            drift_bottle::telemetry::json_escape(path),
            data.series.len(),
            data.spans.len(),
            if wlo == u64::MAX {
                "null".to_string()
            } else {
                format!("[{wlo},{whi}]")
            },
            warned,
            top.join(","),
            data.profiler_enabled,
            prof.join(",")
        );
        return Ok(());
    }
    println!("=== db-scope trace: {path} ===");
    match &data.meta {
        Some(m) => {
            println!(
                "run          : interval {}, failure at {}, {} links, {} switches",
                fmt_ms(m.interval_ns),
                fmt_ms(m.t_fail_ns),
                m.total_links,
                m.total_switches
            );
            println!(
                "eq(1)        : alpha {}, beta {}, hop_min {}",
                m.alpha, m.beta, m.hop_min
            );
        }
        None => println!("run          : no meta header (trace written outside a scenario?)"),
    }
    if wlo == u64::MAX {
        println!("series       : none (no windows closed before export)");
    } else {
        println!(
            "series       : {} across windows {wlo}..{whi}",
            data.series.len()
        );
    }
    let mut window_spans = 0usize;
    let mut tally: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for s in &data.spans {
        if s.name.starts_with("window ") {
            window_spans += 1;
        } else {
            *tally.entry(s.name.as_str()).or_default() += 1;
        }
    }
    let named: Vec<String> = tally.iter().map(|(n, c)| format!("{n} x{c}")).collect();
    println!(
        "spans        : {} total ({}; {window_spans} windows)",
        data.spans.len(),
        named.join(", ")
    );
    println!("links warned : {}", {
        let labels: Vec<String> = warned.iter().map(|l| format!("l{l}")).collect();
        if labels.is_empty() {
            "(none)".to_string()
        } else {
            labels.join(" ")
        }
    });
    println!("top suspicion:");
    for (l, peak) in suspects.iter().take(5) {
        let spark = data
            .series_for(SeriesKind::LinkSuspicion, *l)
            .map(|s| {
                let vals: Vec<f64> = s.points.iter().map(|&(_, v)| v).collect();
                sparkline(&vals)
            })
            .unwrap_or_default();
        let first_warn = data
            .series_for(SeriesKind::LinkWarnings, *l)
            .and_then(|s| s.points.iter().find(|&&(_, v)| v > 0.0))
            .map(|&(w, _)| format!(", first warning in window {w}"))
            .unwrap_or_default();
        println!("  l{l:<4} peak {peak:<8} {spark}{first_warn}");
    }
    if suspects.is_empty() {
        println!("  (no merges reached any switch)");
    }
    if data.profiler_enabled && total_calls > 0 {
        println!("hot path     : {total_calls} calls");
        let mut prof = data.profiler.clone();
        prof.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (f, n) in prof.iter().filter(|&&(_, n)| n > 0) {
            println!(
                "  {f:<26} {n:>12}  {:.1}%",
                100.0 * *n as f64 / total_calls as f64
            );
        }
    }
    println!("inspect a link with: drift-bottle timeline {path} l<ID> (or s<ID> for a switch)");
    Ok(())
}

fn cmd_timeline(path: &str, target: Option<&String>, fmt: TimelineFormat) -> Result<(), String> {
    let data = TraceData::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    match target {
        None => timeline_summary(&data, path, fmt),
        Some(t) => {
            if let Some(id) = t.strip_prefix('l').and_then(|s| s.parse::<u16>().ok()) {
                timeline_target(
                    &data,
                    &format!("link l{id}"),
                    &[
                        SeriesKind::LinkSuspicion,
                        SeriesKind::LinkVotes,
                        SeriesKind::LinkWarnings,
                        SeriesKind::LinkDrops,
                    ],
                    id,
                    fmt,
                )
            } else if let Some(id) = t.strip_prefix('s').and_then(|s| s.parse::<u16>().ok()) {
                timeline_target(
                    &data,
                    &format!("switch s{id}"),
                    &[
                        SeriesKind::SwitchFanIn,
                        SeriesKind::SwitchAbnormal,
                        SeriesKind::SwitchActive,
                    ],
                    id,
                    fmt,
                )
            } else {
                Err(format!(
                    "bad timeline target '{t}' (use l<ID> for a link or s<ID> for a switch)"
                ))
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&argv) {
        Ok(c) => c,
        Err(CliError::Usage) => return usage(),
        Err(CliError::Msg(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut fmt = cli.metrics;
    if matches!(cli.cmd, Command::Report { .. }) {
        // The observability command always reports; default to the table.
        fmt = fmt.or(Some(MetricsFormat::Table));
    }
    if fmt.is_some() {
        drift_bottle::telemetry::enable();
    }
    let result = match &cli.cmd {
        Command::Topo { spec } => cmd_topo(spec),
        Command::Fail {
            spec,
            link,
            density,
            opts,
        } => cmd_fail(spec, link, *density, opts),
        Command::Node {
            spec,
            node,
            density,
            opts,
        } => cmd_node(spec, node, *density, opts),
        Command::Sweep {
            spec,
            links,
            density,
            flags,
            opts,
        } => cmd_sweep(spec, *links, *density, flags, opts),
        Command::Health {
            spec,
            density,
            opts,
        } => cmd_health(spec, *density, opts),
        Command::Report {
            spec,
            density,
            opts,
        } => cmd_report(spec, *density, opts),
        Command::Explain {
            path,
            target,
            flags,
        } => cmd_explain(path, target.as_ref(), flags),
        Command::Timeline { path, target, fmt } => cmd_timeline(path, target.as_ref(), *fmt),
        Command::Serve(sa) => cmd_serve(sa),
        Command::Top { addr, topo, flags } => cmd_top(addr, topo, flags),
    };
    match result {
        Ok(()) => {
            if let Some(fmt) = fmt {
                print_metrics_report(fmt);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::parse(&argv)
    }

    /// The one-line error `args` is refused with.
    fn refusal(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Msg(m)) => m,
            Err(CliError::Usage) => panic!("{args:?}: got the usage page, not an error line"),
            Ok(cli) => panic!("{args:?}: parsed as {cli:?}"),
        }
    }

    /// Every row of [`COMMANDS`]: the shortest and the longest positional
    /// form its usage string promises parse, one positional fewer or more
    /// gets the row's usage line, and a flag outside the row's list is
    /// refused with that list.
    #[test]
    fn every_command_row_is_the_grammar() {
        for &(name, pos_usage, allowed) in COMMANDS {
            // `<x>` is required, `[x]` optional; `1` is a valid spec, id,
            // count, density, address and target alike (nothing is opened
            // at parse time).
            let required = pos_usage.split_whitespace().filter(|t| t.starts_with('<'));
            let (min, max) = (required.count(), pos_usage.split_whitespace().count());
            let form = |n: usize| [vec![name], vec!["1"; n]].concat();
            let usage_line = format!("usage: drift-bottle {name} {pos_usage}");
            for n in [min, max] {
                let cli = parse(&form(n)).unwrap_or_else(|_| panic!("`{name}` with {n} args"));
                assert!(cli.metrics.is_none());
                let parsed = format!("{:?}", cli.cmd).to_lowercase();
                assert!(parsed.starts_with(name), "`{name}` parsed as {parsed}");
            }
            assert_eq!(refusal(&form(max + 1)), usage_line.trim_end());
            if min > 0 {
                assert_eq!(refusal(&form(min - 1)), usage_line.trim_end());
            }

            let mut stray = form(min);
            stray.push("--no-such-flag=1");
            assert_eq!(
                refusal(&stray),
                format!(
                    "unknown flag '--no-such-flag' for `{name}` (valid: {})",
                    allowed.join(", ")
                )
            );
            // A flag of another row is as foreign as a typo.
            if !allowed.contains(&"--once") {
                stray[min + 1] = "--once";
                assert!(refusal(&stray).starts_with("unknown flag '--once' for"));
            }
        }
    }

    #[test]
    fn malformed_flag_values_are_refused_with_the_documented_messages() {
        assert_eq!(
            refusal(&["sweep", "geant2012", "--resume=yes"]),
            "flag --resume takes no value (got 'yes')"
        );
        assert_eq!(
            refusal(&["fail", "geant2012", "3", "--flight="]),
            "flag --flight= has an empty path (use --flight or --flight=path)"
        );
        for empty in ["--interval=", "--interval"] {
            assert_eq!(
                refusal(&["top", "127.0.0.1:7117", empty]),
                "flag --interval needs a value (use --interval=SECS)"
            );
        }
        // The same flags, well-formed, wherever they stand on the line.
        match parse(&["--resume", "sweep", "--flight", "geant2012"]).map(|cli| cli.cmd) {
            Ok(Command::Sweep { flags, opts, .. }) => {
                assert!(flags.resume);
                assert_eq!(opts.flight, Some(None));
            }
            _ => panic!("flags before the command did not parse as a sweep"),
        }
    }

    #[test]
    fn an_unknown_command_lists_the_valid_ones() {
        let names: Vec<&str> = COMMANDS.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(
            refusal(&["frobnicate", "geant2012"]),
            format!("unknown command 'frobnicate' (valid: {})", names.join(", "))
        );
        // No command at all is the one case that earns the usage page.
        assert!(matches!(parse(&["--metrics"]), Err(CliError::Usage)));
    }
}
