//! `drift-bottle` — command-line front end for the library.
//!
//! Operators point it at a topology (a built-in evaluation topology or a
//! text file in the interchange format), and it trains, simulates and
//! localizes without writing any Rust:
//!
//! Topology specs are resolved by `topology::load::load`: a built-in name,
//! an `as:<n>[:<seed>]` generated AS graph (up to 50 000 nodes), a
//! `path:<file>` plain-text edge list, or an interchange-format file. Above
//! `topology::SCALE_NODE_THRESHOLD` nodes the path/RTT statistics and
//! workloads switch to deterministic sampling over the on-demand routing
//! engine; the library's `_auto` forms decide, not this binary.
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
//! `--trace[=path]` (capture a db-scope trace — per-window health series
//! and the scenario→phase→window span tree as Chrome `trace_event` JSON —
//! for `timeline` or Perfetto).
//!
//! Argument parsing is deliberately bare std — the library has no CLI
//! dependencies. One [`Cli`] parser owns the whole grammar: every
//! subcommand declares its positional shape, its admitted flags and how its
//! arguments become a [`Command`] in one row of [`COMMANDS`], and anything
//! outside that table — an unknown command, a misplaced flag, a typo —
//! fails with an error naming the valid alternatives instead of being
//! silently reinterpreted. This file is the grammar and the dispatch; the
//! commands live one module each: [`scenario`] (topo, fail, node, sweep,
//! health, report), [`explain`], [`timeline`], [`top`].

mod explain;
mod scenario;
mod timeline;
mod top;

use drift_bottle::serve::{ServeOptions, DEFAULT_ADDR};
use explain::ExplainFlags;
use scenario::{RunOpts, Single, SweepFlags};
use std::process::ExitCode;
use std::str::FromStr;
use timeline::TimelineFormat;
use top::TopArgs;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  drift-bottle topo    <name|file>\n  drift-bottle fail    <name|file> <link-id> [density]\n  drift-bottle node    <name|file> <node-id> [density]\n  drift-bottle sweep   <name|file> [links] [density]\n  drift-bottle health  <name|file> [density]\n  drift-bottle report  <name|file> [density]\n  drift-bottle explain <file.flight> [l<ID>|s<ID>]\n  drift-bottle timeline <file.trace.json> [l<ID>|s<ID>]\n  drift-bottle serve\n  drift-bottle top     <addr> [topo]\n\noptions (every command):\n  --metrics[=table|json|prom]  collect telemetry and print a metrics report\n\nscenario options (fail/node/sweep/health/report):\n  --scheme=NAME        weight scheme to run (default Drift-Bottle; see below)\n  --flight[=path]      record provenance for `explain` (default results/<cmd>-<topo>.flight)\n  --trace[=path]       record a db-scope trace for `timeline` / Perfetto\n                       (default results/<cmd>-<topo>.trace.json)\n\nsweep options:\n  --workers=N          worker threads (default: DB_THREADS, else all cores)\n  --checkpoint[=path]  checkpoint units to path (default results/sweep-<topo>.ckpt.jsonl)\n  --resume             resume from the checkpoint if it exists (implies --checkpoint)\n  (--flight / --trace write one recording per unit next to the checkpoint)\n\nexplain options:\n  --window=N           restrict votes/warnings to sampling window N\n  --format=table|json  output format (default table)\n\ntimeline options:\n  --format=table|json|sparkline  output format (default table)\n\nserve options:\n  --addr=HOST:PORT     listen address (default 127.0.0.1:7117)\n  --stdin              serve one session over stdin/stdout instead of TCP\n  --snapshot=PATH      restore engine state at startup, persist it on\n                       SnapshotReq and Shutdown frames\n  --prom-addr=HOST:PORT  also serve a Prometheus text scrape endpoint\n                       (default off)\n\ntop options (live health view of a running daemon):\n  --once               render one frame and exit (for scripts / CI)\n  --interval=SECS      refresh interval (default 1.0)\n  --lines=N            suspicion rows to show (default 8)\n\nenvironment:\n  DB_FLIGHT_CAPACITY=N   --flight ring capacity in records (default 65536)\n  DB_THREADS=N           worker threads for sweeps and training unless --workers is\n                         given, and `serve` engine shards, each splitting a Records\n                         frame's per-flow work (default all cores); 1 forces\n                         sequential execution\n  DB_SWEEP_STOP_AFTER=N  stop a sweep after N units (leaves a resumable checkpoint)\n  DB_SMOKE=1             shrink classifier training for fast smoke runs\n  DB_FULL=1              run bench binaries at full sweep scale, not the quick budget\n  DB_TRACE=1             sweep-driven binaries emit per-unit db-scope traces\n\nweight schemes: Drift-Bottle, Non-Negative, 007-Drifted, 007-Modified\nbuilt-in topologies: geant2012, chinanet, tinet, as1221\ntopology specs:\n  <name>               a built-in evaluation topology (above)\n  as:<n>[:<seed>]      generated AS-graph-style topology, 4..=50000 nodes\n  path:<file>          plain-text edge list: 'nodes <N>' header, then\n                       '<a> <b> <latency_ms> [bandwidth_mbps]' per line\n  <file>               a file in the interchange format (topology/node/link)"
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

    /// The flag's value as a `T` that `ok` admits, or an error naming
    /// `what` was expected and the shape to use.
    fn number<T: FromStr>(
        &self,
        shape: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let v = self.require(shape)?;
        v.parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| format!("bad {what} '{v}' (use {}={shape})", self.name))
    }

    /// The `--format=a|b|c` choice among `options`.
    fn choice<T: Copy>(&self, options: &[(&str, T)]) -> Result<T, String> {
        let names: Vec<&str> = options.iter().map(|o| o.0).collect();
        let shape = names.join("|");
        let v = self.require(&shape)?;
        let picked = options.iter().find(|o| o.0 == v);
        picked
            .map(|o| o.1)
            .ok_or_else(|| format!("bad format '{v}' (use {}={shape})", self.name))
    }
}

/// The `name` flags on the line, each run through `parse`: every occurrence
/// must be well-formed, and the last one wins (a repeated flag overrides
/// itself).
fn flag<T>(
    flags: &[Flag],
    name: &str,
    parse: impl Fn(&Flag) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let mut last = None;
    for f in flags.iter().filter(|f| f.name == name) {
        last = Some(parse(f)?);
    }
    Ok(last)
}

/// Whether the boolean flag `name` was given (a value on it is refused).
fn switch(flags: &[Flag], name: &str) -> Result<bool, String> {
    Ok(flag(flags, name, Flag::no_value)?.is_some())
}

/// The flags every scenario command shares.
const SCENARIO_FLAGS: &[&str] = &["--metrics", "--scheme", "--flight", "--trace"];

/// How a row turns its positional tail (arity already checked against the
/// row's usage string) and the admitted flags into a [`Command`].
type Build = fn(&[&str], &[Flag]) -> Result<Command, String>;

/// Per-command grammar: name, positional usage, admitted flags, builder.
/// The usage string is the arity — `<x>` required, `[x]` optional — and the
/// parser rejects any flag outside the row's list — naming the list — so a
/// typo'd or misplaced flag fails loudly instead of leaking into another
/// command's semantics or being read as a positional.
const COMMANDS: &[(&str, &str, &[&str], Build)] = &[
    ("topo", "<name|file>", &["--metrics"], |a, _| {
        Ok(Command::Topo { spec: a[0].into() })
    }),
    (
        "fail",
        "<name|file> <link-id> [density]",
        SCENARIO_FLAGS,
        |a, f| scenario::single("fail", a, f).map(Command::Fail),
    ),
    (
        "node",
        "<name|file> <node-id> [density]",
        SCENARIO_FLAGS,
        |a, f| scenario::single("node", a, f).map(Command::Node),
    ),
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
        |a, f| {
            Ok(Command::Sweep {
                spec: a[0].into(),
                links: match a.get(1) {
                    Some(s) => s.parse().map_err(|_| format!("bad link count '{s}'"))?,
                    None => 8,
                },
                density: scenario::parse_density(a.get(2).copied())?,
                flags: scenario::sweep_flags(f)?,
                opts: scenario::run_opts(f)?,
            })
        },
    ),
    ("health", "<name|file> [density]", SCENARIO_FLAGS, |a, f| {
        scenario::single("health", a, f).map(Command::Health)
    }),
    ("report", "<name|file> [density]", SCENARIO_FLAGS, |a, f| {
        scenario::single("report", a, f).map(Command::Report)
    }),
    (
        "explain",
        "<file.flight> [l<ID>|s<ID>]",
        &["--metrics", "--window", "--format"],
        |a, f| {
            Ok(Command::Explain {
                path: a[0].into(),
                target: a.get(1).map(|s| s.to_string()),
                flags: explain::explain_flags(f)?,
            })
        },
    ),
    (
        "timeline",
        "<file.trace.json> [l<ID>|s<ID>]",
        &["--metrics", "--format"],
        |a, f| {
            Ok(Command::Timeline {
                path: a[0].into(),
                target: a.get(1).map(|s| s.to_string()),
                fmt: timeline::timeline_format(f)?,
            })
        },
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
        |_, f| serve_args(f),
    ),
    (
        "top",
        "<addr> [topo]",
        &["--metrics", "--once", "--interval", "--lines"],
        |a, f| {
            Ok(Command::Top {
                addr: a[0].into(),
                topo: a.get(1).unwrap_or(&"geant2012").to_string(),
                flags: top::top_args(f)?,
            })
        },
    ),
];

/// The fewest and the most positionals a row's usage string admits.
fn arity(pos_usage: &str) -> std::ops::RangeInclusive<usize> {
    let required = pos_usage.split_whitespace().filter(|t| t.starts_with('<'));
    required.count()..=pos_usage.split_whitespace().count()
}

/// The daemon's options: `--addr`, `--snapshot` and `--prom-addr`, and
/// whether `--stdin` replaces the listener with one session over
/// stdin/stdout.
fn serve_args(flags: &[Flag]) -> Result<Command, String> {
    let value = |name, shape| flag(flags, name, |f| f.require(shape).map(str::to_string));
    let opts = ServeOptions {
        addr: value("--addr", "HOST:PORT")?.unwrap_or_else(|| DEFAULT_ADDR.to_string()),
        snapshot: value("--snapshot", "PATH")?.map(Into::into),
        prom_addr: value("--prom-addr", "HOST:PORT")?,
    };
    let stdin = switch(flags, "--stdin")?;
    Ok(Command::Serve { opts, stdin })
}

/// The parsed subcommand, arguments resolved and typed.
#[derive(Debug)]
enum Command {
    Topo {
        spec: String,
    },
    Fail(Single),
    Node(Single),
    Sweep {
        spec: String,
        links: usize,
        density: f64,
        flags: SweepFlags,
        opts: RunOpts,
    },
    Health(Single),
    Report(Single),
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
    Serve {
        opts: ServeOptions,
        stdin: bool,
    },
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
        let Some(&(name, pos_usage, allowed, build)) =
            COMMANDS.iter().find(|&&(n, ..)| n == cmd_name)
        else {
            let names: Vec<&str> = COMMANDS.iter().map(|&(n, ..)| n).collect();
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
        let args = &pos[1..];
        if !arity(pos_usage).contains(&args.len()) {
            let usage_line = format!("usage: drift-bottle {name} {pos_usage}");
            return Err(CliError::Msg(usage_line.trim_end().to_string()));
        }
        let cmd = build(args, &flags).map_err(CliError::Msg)?;
        Ok(Cli { metrics, cmd })
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
    flag(flags, "--metrics", |f| match f.value.as_deref() {
        None | Some("table") => Ok(MetricsFormat::Table),
        Some("json") => Ok(MetricsFormat::Json),
        Some("prom") => Ok(MetricsFormat::Prom),
        Some(other) => Err(format!(
            "unknown metrics format '{other}' (expected table, json or prom)"
        )),
    })
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

/// What an `explain` / `timeline` view is about: one link or one switch.
enum Target {
    Link(u16),
    Switch(u16),
}

/// Parse the `l<ID>` / `s<ID>` target of `view` (`explain` or `timeline`).
fn parse_target(view: &str, t: &str) -> Result<Target, String> {
    let id = |prefix| t.strip_prefix(prefix).and_then(|s: &str| s.parse().ok());
    id('l')
        .map(Target::Link)
        .or_else(|| id('s').map(Target::Switch))
        .ok_or_else(|| {
            format!("bad {view} target '{t}' (use l<ID> for a link or s<ID> for a switch)")
        })
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// Run the streaming daemon (DESIGN.md §15): one incremental engine per
/// topology behind TCP — or a single stdin/stdout session — speaking the
/// length-prefixed frame protocol of `db_serve::frame`.
fn cmd_serve(opts: &ServeOptions, stdin: bool) -> Result<(), String> {
    if stdin {
        return drift_bottle::serve::serve_stdio(opts).map_err(|e| format!("serve (stdio): {e}"));
    }
    let server = drift_bottle::serve::Server::bind(opts)
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

/// Parse the command line, run the command, append the metrics report.
fn run(argv: &[String]) -> Result<(), CliError> {
    let cli = Cli::parse(argv)?;
    let mut fmt = cli.metrics;
    if matches!(cli.cmd, Command::Report(_)) {
        // The observability command always reports; default to the table.
        fmt = fmt.or(Some(MetricsFormat::Table));
    }
    if fmt.is_some() {
        drift_bottle::telemetry::enable();
    }
    let result = match &cli.cmd {
        Command::Topo { spec } => scenario::cmd_topo(spec),
        Command::Fail(a) | Command::Node(a) | Command::Health(a) | Command::Report(a) => {
            scenario::cmd_single(a)
        }
        Command::Sweep {
            spec,
            links,
            density,
            flags,
            opts,
        } => scenario::cmd_sweep(spec, *links, *density, flags, opts),
        Command::Explain {
            path,
            target,
            flags,
        } => explain::cmd_explain(path, target.as_deref(), flags),
        Command::Timeline { path, target, fmt } => {
            timeline::cmd_timeline(path, target.as_deref(), *fmt)
        }
        Command::Serve { opts, stdin } => cmd_serve(opts, *stdin),
        Command::Top { addr, topo, flags } => top::cmd_top(addr, topo, flags),
    };
    result.map_err(CliError::Msg)?;
    if let Some(fmt) = fmt {
        print_metrics_report(fmt);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage) => usage(),
        Err(CliError::Msg(e)) => {
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
        for &(name, pos_usage, allowed, _) in COMMANDS {
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

    /// A repeated flag overrides itself, but every occurrence is checked:
    /// a malformed one is refused even when a well-formed one follows it.
    #[test]
    fn every_occurrence_of_a_repeated_flag_is_validated() {
        for (line, msg) in [
            (
                &["sweep", "geant2012", "--resume=yes", "--resume"][..],
                "flag --resume takes no value (got 'yes')",
            ),
            (
                &["fail", "geant2012", "3", "--flight=", "--flight=p"],
                "flag --flight= has an empty path (use --flight or --flight=path)",
            ),
            (
                &["sweep", "geant2012", "--workers=x", "--workers=2"],
                "bad worker count 'x' (use --workers=N)",
            ),
            (
                &["top", "127.0.0.1:7117", "--interval=0", "--interval=1"],
                "bad interval '0' (use --interval=SECS)",
            ),
            (
                &["topo", "geant2012", "--metrics=bogus", "--metrics=json"],
                "unknown metrics format 'bogus' (expected table, json or prom)",
            ),
        ] {
            assert_eq!(refusal(line), msg);
        }
        // Well-formed throughout, the last occurrence wins.
        match parse(&["sweep", "geant2012", "--workers=3", "--workers=2"]).map(|cli| cli.cmd) {
            Ok(Command::Sweep { flags, .. }) => assert_eq!(flags.workers, 2),
            _ => panic!("a repeated --workers did not parse as a sweep"),
        }
    }

    /// The density positional admits what the scenario builder does,
    /// `(0, 1]`; the rest is refused before any training starts.
    #[test]
    fn a_density_the_builder_would_reject_is_refused_at_parse_time() {
        for bad in ["0", "-0.1", "1.5", "nan"] {
            let health = ["health", "geant2012", bad];
            let (fail, sweep) = (
                ["fail", "geant2012", "l3", bad],
                ["sweep", "geant2012", "3", bad],
            );
            for line in [&health[..], &fail, &sweep] {
                let msg = refusal(line);
                let worded = msg.starts_with("density ") && msg.ends_with(" out of (0,1]");
                assert!(worded, "{line:?}: {msg}");
            }
        }
        let unparsed = refusal(&["report", "geant2012", "dense"]);
        assert_eq!(unparsed, "bad density 'dense'");
        for ok in ["1", "0.3"] {
            assert!(parse(&["node", "geant2012", "s3", ok]).is_ok(), "{ok}");
        }
    }

    #[test]
    fn an_unknown_command_lists_the_valid_ones() {
        let names: Vec<&str> = COMMANDS.iter().map(|&(n, ..)| n).collect();
        assert_eq!(
            refusal(&["frobnicate", "geant2012"]),
            format!("unknown command 'frobnicate' (valid: {})", names.join(", "))
        );
        // No command at all is the one case that earns the usage page.
        assert!(matches!(parse(&["--metrics"]), Err(CliError::Usage)));
    }
}
