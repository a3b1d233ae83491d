//! [`SweepBuilder`] — the unified front door for experiment sweeps.
//!
//! Replaces the ad-hoc `ScenarioSetup` + free-function combinations the
//! figure binaries used to hand-roll: one builder fixes the prepared
//! topology, workload density, seed, variants, and scenario list, then
//! [`SweepBuilder::run`] decomposes the sweep into deterministic
//! [`SweepJob`]s, executes them on the panic-isolated worker pool, and
//! (optionally) checkpoints every completed unit so an interrupted run
//! resumes where it stopped — with outcomes bit-identical to an
//! uninterrupted run at any worker count.

use crate::checkpoint::{parse, CheckpointError, CheckpointFile, CheckpointHeader};
use crate::executor::execute;
use crate::job::{SweepJob, UnitOutcome, UnitStatus};
use crate::metrics::RunnerMetrics;
use db_core::classifier::Prepared;
use db_core::config::{SystemConfig, VariantSpec};
use db_core::experiment::{run_scenario, ScenarioKind, ScenarioSetup};
use db_core::ScenarioOutcome;
use db_telemetry::{FlightRecorder, Instrumentation, ScopeRecorder};
use db_util::wire::fnv1a64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a sweep could not run (not why a *unit* failed — unit panics are
/// isolated into [`UnitStatus::Failed`] records, never into this error).
#[derive(Debug)]
pub enum SweepError {
    /// Checkpoint file I/O failed.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The checkpoint file exists but could not be understood.
    Checkpoint {
        /// The checkpoint path involved.
        path: PathBuf,
        /// What was wrong.
        source: CheckpointError,
    },
    /// The checkpoint was written by a sweep with a different
    /// configuration; resuming would silently mix incompatible results.
    ConfigMismatch {
        /// The checkpoint path involved.
        path: PathBuf,
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint found in the checkpoint header.
        found: u64,
    },
    /// The scenario setup failed validation (see
    /// `db_core::experiment::SetupError`).
    Config(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            SweepError::Checkpoint { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            SweepError::ConfigMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {} belongs to a different sweep configuration \
                 (fingerprint {found:016x}, current config is {expected:016x}); \
                 delete it or fix the configuration",
                path.display()
            ),
            SweepError::Config(msg) => write!(f, "invalid sweep setup: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What a finished (or interrupted) sweep produced.
#[derive(Debug)]
pub struct SweepReport {
    /// Sweep name.
    pub name: String,
    /// Total units in the sweep.
    pub total_units: usize,
    /// Units replayed from the checkpoint instead of executed.
    pub resumed: usize,
    /// Units executed by this invocation.
    pub executed: usize,
    /// All known unit outcomes, **sorted by unit index**. May be shorter
    /// than `total_units` when the run stopped early (`stop_after`).
    pub units: Vec<UnitOutcome>,
}

impl SweepReport {
    /// Whether every unit has an outcome (done or failed).
    pub fn is_complete(&self) -> bool {
        self.units.len() == self.total_units
    }

    /// The successful outcomes in unit order.
    pub fn outcomes(&self) -> Vec<&ScenarioOutcome> {
        self.units.iter().filter_map(|u| u.outcome()).collect()
    }

    /// The successful outcomes in unit order, cloned — drop-in for code
    /// that consumed the legacy `sweep()` return value.
    pub fn cloned_outcomes(&self) -> Vec<ScenarioOutcome> {
        self.units
            .iter()
            .filter_map(|u| u.outcome().cloned())
            .collect()
    }

    /// `(unit index, panic message)` of every failed unit.
    pub fn failed(&self) -> Vec<(usize, &str)> {
        self.units
            .iter()
            .filter_map(|u| u.error().map(|e| (u.unit, e)))
            .collect()
    }
}

/// Builder for a checkpointed, panic-isolated scenario sweep. See the
/// [crate docs](crate) for the full model; minimal use:
///
/// ```no_run
/// # use db_runner::SweepBuilder;
/// # use db_core::classifier::{prepare, PrepareConfig};
/// # use db_core::experiment::ScenarioKind;
/// # use db_topology::{zoo, LinkId};
/// let prep = prepare(zoo::grid(3, 3), &PrepareConfig::default());
/// let report = SweepBuilder::new("demo", &prep)
///     .scenarios((0..4).map(|i| ScenarioKind::SingleLink(LinkId(i))))
///     .checkpoint("results/demo.ckpt.jsonl")
///     .resume(true)
///     .run()
///     .expect("sweep");
/// assert!(report.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct SweepBuilder<'a> {
    name: String,
    prep: &'a Prepared,
    density: f64,
    seed: u64,
    sys: SystemConfig,
    variants: Vec<VariantSpec>,
    kinds: Vec<ScenarioKind>,
    background_loss: f64,
    workers: usize,
    checkpoint: Option<PathBuf>,
    resume: bool,
    stop_after: Option<usize>,
    progress: bool,
    flight: Option<usize>,
    trace: bool,
}

impl<'a> SweepBuilder<'a> {
    /// A sweep over `prep` with the defaults of the §6 protocol: density
    /// 1.0, seed 42, the default [`SystemConfig`] at the prepared sampling
    /// interval, and the flagship Drift-Bottle variant. No scenarios yet —
    /// add them with [`scenarios`].
    ///
    /// [`scenarios`]: SweepBuilder::scenarios
    pub fn new(name: impl Into<String>, prep: &'a Prepared) -> Self {
        SweepBuilder {
            name: name.into(),
            prep,
            density: 1.0,
            seed: 42,
            sys: SystemConfig {
                interval: prep.wcfg.interval,
                ..Default::default()
            },
            variants: vec![VariantSpec::drift_bottle()],
            kinds: Vec::new(),
            background_loss: 0.0,
            workers: 0,
            checkpoint: None,
            resume: false,
            stop_after: None,
            progress: false,
            flight: None,
            trace: false,
        }
    }

    /// Workload flow density (§6.1).
    pub fn density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }

    /// Workload seed, the same for every unit: all scenarios observe one
    /// workload and differ only in what fails.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// System parameters (k, warning thresholds, ratio sampling).
    pub fn sys(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// Replace the variant list.
    pub fn variants(mut self, variants: Vec<VariantSpec>) -> Self {
        self.variants = variants;
        self
    }

    /// Ambient i.i.d. per-hop packet loss (§4.3 noise tolerance).
    pub fn background_loss(mut self, loss: f64) -> Self {
        self.background_loss = loss;
        self
    }

    /// Append many scenarios.
    pub fn scenarios(mut self, kinds: impl IntoIterator<Item = ScenarioKind>) -> Self {
        self.kinds.extend(kinds);
        self
    }

    /// Worker thread count; `0` (the default) means `DB_THREADS` if set,
    /// else every core (the one rule: [`db_core::par::worker_count`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Checkpoint completed units to this JSONL file.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resume from the checkpoint if it exists (a missing file starts a
    /// fresh run, so `--resume` is safe on the first invocation too). A
    /// checkpoint written under a different configuration is refused with
    /// [`SweepError::ConfigMismatch`].
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Execute at most this many pending units, then stop (leaving a
    /// resumable checkpoint). This is the kill-after-N knob the resume CI
    /// smoke uses; `None` (default) runs everything.
    pub fn stop_after(mut self, n: Option<usize>) -> Self {
        self.stop_after = n;
        self
    }

    /// Print per-unit progress lines to stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Attach a provenance flight recorder (capacity in records; see
    /// [`FlightRecorder`]) to every unit and write each unit's recording to
    /// [`flight_path`] when the unit finishes. Recording is observational:
    /// unit outcomes stay bit-identical (the equivalence tests pin this), so
    /// the sweep fingerprint deliberately excludes it. A recording that
    /// fails to write is reported on stderr without failing the unit.
    ///
    /// [`flight_path`]: SweepBuilder::flight_path
    pub fn flight(mut self, capacity: usize) -> Self {
        self.flight = Some(capacity);
        self
    }

    /// Where unit `unit`'s flight recording goes: next to the checkpoint —
    /// `<base>.unit<N>.flight`, where `<base>` is the checkpoint path minus
    /// a trailing `.ckpt.jsonl` — or `results/<name>.unit<N>.flight` when no
    /// checkpoint is configured.
    pub fn flight_path(&self, unit: usize) -> PathBuf {
        PathBuf::from(format!("{}.unit{unit}.flight", self.artifact_base()))
    }

    /// Attach a db-scope recorder to every unit and write each unit's
    /// Chrome `trace_event` JSON to [`trace_path`] when the unit finishes.
    /// Like [`flight`], tracing is observational: unit outcomes stay
    /// bit-identical (the equivalence tests pin this) and the sweep
    /// fingerprint deliberately excludes it. A trace that fails to write is
    /// reported on stderr without failing the unit.
    ///
    /// [`trace_path`]: SweepBuilder::trace_path
    /// [`flight`]: SweepBuilder::flight
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Where unit `unit`'s db-scope trace goes: next to the checkpoint —
    /// `<base>.unit<N>.trace.json` — or `results/<name>.unit<N>.trace.json`
    /// when no checkpoint is configured (same base rule as
    /// [`flight_path`]).
    ///
    /// [`flight_path`]: SweepBuilder::flight_path
    pub fn trace_path(&self, unit: usize) -> PathBuf {
        PathBuf::from(format!("{}.unit{unit}.trace.json", self.artifact_base()))
    }

    /// The per-unit artifact stem shared by flight recordings and traces:
    /// the checkpoint path minus a trailing `.ckpt.jsonl`, or
    /// `results/<name>` when no checkpoint is configured.
    fn artifact_base(&self) -> String {
        match &self.checkpoint {
            Some(p) => {
                let s = p.to_string_lossy();
                match s.strip_suffix(".ckpt.jsonl") {
                    Some(stripped) => stripped.to_string(),
                    None => s.into_owned(),
                }
            }
            None => format!("results/{}", self.name),
        }
    }

    /// The sweep's deterministic job list: unit `i` is `kinds[i]` on the
    /// sweep's seed.
    pub fn jobs(&self) -> Vec<SweepJob> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(unit, kind)| SweepJob {
                unit,
                kind: kind.clone(),
                seed: self.seed,
            })
            .collect()
    }

    /// FNV-1a 64 hash of everything that determines unit results. Worker
    /// count, checkpoint path, flight recording, and progress/stop knobs
    /// are deliberately excluded — they change scheduling or observability,
    /// not outcomes. The prepared
    /// pipeline is covered through its observable discriminators (topology
    /// shape, window config, training sample counts) rather than the full
    /// trained tree: differently-trained preparations collide only if they
    /// also agree on all of those, which the deterministic training
    /// pipeline makes practically impossible.
    pub fn fingerprint(&self) -> u64 {
        let t = &self.prep.topo;
        let mut s = String::new();
        let _ = write!(
            s,
            "topo={}/{}n/{}l;win={:?};train={}/{};density={:016x};seed={};bg={:016x};sys={:?};variants={:?};kinds={:?}",
            t.name(),
            t.node_count(),
            t.link_count(),
            self.prep.wcfg,
            self.prep.train_samples,
            self.prep.test_samples,
            self.density.to_bits(),
            self.seed,
            self.background_loss.to_bits(),
            self.sys,
            self.variants,
            self.kinds,
        );
        fnv1a64(s.as_bytes())
    }

    /// Run the sweep with the real scenario runner
    /// ([`db_core::experiment::run_scenario`]).
    pub fn run(&self) -> Result<SweepReport, SweepError> {
        let setup = ScenarioSetup::builder(self.prep)
            .density(self.density)
            .seed(self.seed)
            .sys(self.sys.clone())
            .variants(self.variants.clone())
            .background_loss(self.background_loss)
            .build()
            .map_err(|e| SweepError::Config(e.to_string()))?;
        if self.trace {
            db_telemetry::scope::profiler_enable();
        }
        self.run_with(|job| {
            let rec = self.flight.map(|cap| Arc::new(FlightRecorder::new(cap)));
            let scope = self
                .trace
                .then(|| Arc::new(ScopeRecorder::new(ScopeRecorder::DEFAULT_SERIES_CAPACITY)));
            let unit_span = scope
                .as_ref()
                .map(|sc| sc.begin_span(&format!("unit {}", job.unit)));
            let mut setup = setup.clone();
            setup.instr = Instrumentation {
                flight: rec.clone(),
                scope: scope.clone(),
            };
            let outcome = run_scenario(&setup, &job.kind);
            if let Some(rec) = rec {
                let path = self.flight_path(job.unit);
                if let Err(e) = rec.save(&path) {
                    eprintln!(
                        "[{}] unit {}: flight recording {} not written: {e}",
                        self.name,
                        job.unit,
                        path.display()
                    );
                }
            }
            if let Some(sc) = scope {
                if let Some(id) = unit_span {
                    sc.end_span(id);
                }
                let path = self.trace_path(job.unit);
                if let Err(e) = sc.save(&path) {
                    eprintln!(
                        "[{}] unit {}: trace {} not written: {e}",
                        self.name,
                        job.unit,
                        path.display()
                    );
                }
            }
            outcome
        })
    }

    /// Run the sweep with a custom per-unit runner — the seam the resume
    /// and worker-count tests use to substitute cheap synthetic workloads
    /// (or injected panics) for full simulations. All checkpointing,
    /// resume, ordering, and isolation behavior is identical to [`run`].
    ///
    /// [`run`]: SweepBuilder::run
    pub fn run_with<F>(&self, runner: F) -> Result<SweepReport, SweepError>
    where
        F: Fn(&SweepJob) -> ScenarioOutcome + Sync,
    {
        let jobs = self.jobs();
        let header = CheckpointHeader {
            sweep: self.name.clone(),
            fingerprint: self.fingerprint(),
            units: jobs.len(),
        };

        // Register the runner.* bundle up front — even a fully-resumed or
        // stop_after(0) invocation reports its (zero) activity.
        let metrics = RunnerMetrics::active();

        // Replay the checkpoint, if resuming.
        let mut known: BTreeMap<usize, UnitOutcome> = BTreeMap::new();
        let mut resuming_file = false;
        if self.resume {
            if let Some(path) = &self.checkpoint {
                if path.exists() {
                    for u in self.load_checkpoint(path, &header)? {
                        known.insert(u.unit, u);
                    }
                    resuming_file = true;
                }
            }
        }
        let resumed = known.len();
        if let Some(m) = &metrics {
            m.units_resumed.add(resumed as u64);
        }

        let pending: Vec<SweepJob> = jobs
            .iter()
            .filter(|j| !known.contains_key(&j.unit))
            .cloned()
            .collect();

        let ckpt =
            match &self.checkpoint {
                Some(path) if resuming_file => Some(CheckpointFile::open_append(path).map_err(
                    |source| SweepError::Io {
                        path: path.clone(),
                        source,
                    },
                )?),
                Some(path) => Some(CheckpointFile::create(path, &header).map_err(|source| {
                    SweepError::Io {
                        path: path.clone(),
                        source,
                    }
                })?),
                None => None,
            };

        let total = jobs.len();
        let progress = self.progress;
        let name = self.name.clone();
        let mut done = resumed;
        let mut sink_error: Option<std::io::Error> = None;
        let mut on_unit = |u: &UnitOutcome| {
            if let Some(ckpt) = &ckpt {
                if let Err(e) = ckpt.append(u) {
                    // Remember the first failure; the sweep finishes in
                    // memory either way.
                    sink_error.get_or_insert(e);
                }
            }
            done += 1;
            if progress {
                match &u.status {
                    UnitStatus::Done(_) => {
                        eprintln!("[{name}] unit {} done ({done}/{total})", u.unit)
                    }
                    UnitStatus::Failed(e) => {
                        eprintln!("[{name}] unit {} FAILED ({done}/{total}): {e}", u.unit)
                    }
                }
            }
        };
        let executed = execute(
            &pending,
            self.workers,
            self.stop_after,
            metrics.as_ref(),
            runner,
            &mut on_unit,
        );
        if let Some(source) = sink_error {
            return Err(SweepError::Io {
                path: self.checkpoint.clone().expect("sink error implies path"),
                source,
            });
        }

        let executed_count = executed.len();
        for u in executed {
            known.insert(u.unit, u);
        }
        let units: Vec<UnitOutcome> = known.into_values().collect();

        // A finished sweep compacts its checkpoint into unit order:
        // byte-deterministic regardless of worker count or interrupt
        // history, which is what lets CI diff resumed vs. golden files.
        if units.len() == total {
            if let (Some(ckpt), Some(path)) = (ckpt, &self.checkpoint) {
                ckpt.compact(&header, &units)
                    .map_err(|source| SweepError::Io {
                        path: path.clone(),
                        source,
                    })?;
            }
        }

        Ok(SweepReport {
            name: self.name.clone(),
            total_units: total,
            resumed,
            executed: executed_count,
            units,
        })
    }

    fn load_checkpoint(
        &self,
        path: &Path,
        header: &CheckpointHeader,
    ) -> Result<Vec<UnitOutcome>, SweepError> {
        let contents = std::fs::read_to_string(path).map_err(|source| SweepError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let (found, units) = parse(&contents).map_err(|source| SweepError::Checkpoint {
            path: path.to_path_buf(),
            source,
        })?;
        if found.fingerprint != header.fingerprint || found.units != header.units {
            return Err(SweepError::ConfigMismatch {
                path: path.to_path_buf(),
                expected: header.fingerprint,
                found: found.fingerprint,
            });
        }
        Ok(units)
    }
}
