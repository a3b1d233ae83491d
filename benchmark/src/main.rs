//! `bench`: one end-to-end and per-layer benchmark for `drift-bottle
//! serve`, db-runner sweeps and 10k-node routing. See `README.md` beside
//! this package for the workloads, the metrics and how to read the trace.
//!
//! Every run prints two lines on stdout: a context line (workload, seed,
//! machine, toolchain, per-workload facts) and, last, the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. A run whose
//! outputs do not match their reference prints `"correct":false` and exits
//! non-zero.

mod aa;
mod daemon;
mod json;
mod layers;
mod metrics;
mod pacing;
mod serve;
mod serve_layers;
mod stats;
mod sweep;
mod sys;
mod topo;
mod trace;
mod workload;

use std::path::PathBuf;
use workload::{Outcome, RunCfg};

const USAGE: &str = "usage:
  bench [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--daemon PATH]
  bench run --smoke [--daemon PATH]     every workload at tiny sizes
  bench aa [--runs N] [--workload <name>] [--seconds S] [--daemon PATH]
                                        two same-code sets of N runs per workload, compared
  bench manifest                        print BENCHMARK.json
  bench expected [--smoke]              print the sweep's expected-outcome table";

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    daemon: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        daemon: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            a.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--daemon" => a.daemon = Some(PathBuf::from(value("--daemon")?)),
            "--smoke" => a.smoke = true,
            other if !other.starts_with("--") && a.command == "run" && a.workload.is_none() => {
                a.workload = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "serve-failure-closed" | "serve-failure-paced" => {
            let mode = if name == "serve-failure-closed" {
                serve::Mode::Closed
            } else {
                serve::Mode::Paced
            };
            if cfg.trace {
                serve_layers::run(cfg, mode, name)
            } else {
                serve::run(cfg, mode)
            }
        }
        "sweep-geant" if cfg.trace => sweep::run_traced(cfg, name),
        "sweep-geant" => sweep::run(cfg),
        "topo-uniform-10k" => topo::run(cfg, topo::Kind::Uniform, name),
        "topo-local-10k" => topo::run(cfg, topo::Kind::Local, name),
        other => {
            let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!(
                "unknown workload `{other}` (valid: {})",
                names.join(", ")
            ))
        }
    }
}

/// Write the traced run's spans to `<out_dir>/<workload>.trace.json`.
fn write_trace(cfg: &RunCfg, workload: &str, tracer: &trace::Tracer) -> Result<String, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, tracer.to_trace_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Run one workload and print its two lines. `Ok(true)` when the run was
/// correct.
fn run_and_print(name: &str, cfg: &RunCfg) -> Result<bool, String> {
    let outcome = run_workload(name, cfg)?;
    for p in &outcome.problems {
        eprintln!("bench: {name}: INCORRECT: {p}");
    }
    let mut context = vec![
        ("bench", json::string("drift-bottle")),
        ("workload", json::string(name)),
        ("seed", cfg.seed.to_string()),
        ("seconds", json::number("seconds", cfg.seconds)?),
        ("trace", cfg.trace.to_string()),
        ("smoke", cfg.smoke.to_string()),
        ("nproc", sys::nproc().to_string()),
        ("commit", json::string(&sys::commit())),
        ("rustc", json::string(&sys::rustc_version())),
    ];
    context.extend(outcome.context.iter().map(|(k, v)| (*k, v.clone())));
    println!("{}", json::object(&context));
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        json::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)?
    );
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            0.5
        } else {
            f64::from(metrics::RUN_SECONDS)
        }),
        trace: args.trace,
        smoke: args.smoke,
        daemon: args.daemon.clone(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    match (args.command.as_str(), &args.workload) {
        ("run", Some(name)) => run_and_print(name, &cfg),
        ("run", None) if args.smoke => {
            let mut all = true;
            for w in metrics::WORKLOADS {
                all &= run_and_print(w.name, &cfg)?;
            }
            Ok(all)
        }
        ("run", None) => Err(format!("--workload is required\n{USAGE}")),
        ("aa", only) => aa::run(&cfg, args.runs, only.as_deref()),
        ("manifest", _) => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        ("expected", _) => {
            print!("{}", sweep::render_expected(args.smoke));
            Ok(true)
        }
        (other, _) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = args("--workload topo-local-10k --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("topo-local-10k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
    }

    #[test]
    fn the_workload_may_be_positional_after_run() {
        let a = args("run sweep-geant --seed 3 --daemon x/drift-bottle").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sweep-geant"));
        assert_eq!(a.daemon, Some(PathBuf::from("x/drift-bottle")));
        assert!(args("aa --runs 10").is_ok_and(|a| a.command == "aa" && a.runs == 10));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--runs 0").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
