//! Mode equivalence: every way this repository runs a scenario gives the
//! answer a straight run gives.
//!
//! The paper's claim is that per-switch, in-band localization gives the
//! answer a whole-run analysis would. A scenario here can run in several
//! modes, and each must agree with `Straight`:
//!
//! | mode | the run | yields |
//! |---|---|---|
//! | `Straight` | [`run_scenario`] on a fresh setup, from time zero | results, outcome |
//! | `Fork` | the third run of one setup and on, through [`sweep`]: each forks the healthy prefix the second run kept | results, outcome |
//! | `Sweep { workers, kill_after, recorders }` | a checkpointed [`SweepBuilder`] stopped after `kill_after` units, then resumed | results, outcome, per-unit recorder files |
//! | `Stream` | the simulator's recorded trace fed record by record to [`Engine::ingest`], a flight ring and a scope recorder attached through the engine | results, live warnings, final snapshot, engine flight bytes, engine scope digest |
//! | `Shards(n)` | `Stream` on an engine of `n` shards, resharded to `n + 1` halfway, its window closes split over them, the trace cut into seeded frames of 1 to 4 096 records (some cut exactly at a tick) fed to [`Engine::ingest_batch`] | results, live warnings, final snapshot, engine flight bytes, engine scope digest |
//! | `RestoreAt(frac)` | `Stream`, moved onto a fresh engine through a snapshot after `frac` of the records | results, live warnings, final snapshot |
//! | `Recorders(mask)` | `Straight` with metrics, flight and scope attached as `mask` says | results, outcome, counters, flight bytes, scope digest |
//!
//! *Results* are what [`run_scenario`] copies out of
//! [`DriftBottleSystem::results`] per variant (reported links and pairs,
//! pair counts, raises, ratio samples) and its scores; every mode's must
//! equal the straight run's. Every other output is compared against the
//! first mode that yielded it: the outcome (value and wire bytes) against
//! `Straight`, the live warnings (in order), the snapshot and the engine
//! recorders' bytes against `Stream`, counters, flight bytes and the scope
//! digest against each recorder alone. Recorder outputs are
//! compared only between modes that feed the same recorders:
//! [`run_scenario`] also feeds the simulator's drop records and the run
//! headers, a stream feeds the system side only. So a grid stream's
//! recorders are compared only with other streams', and the line proptest
//! below compares a stream's recorders with a batch run that feeds the
//! system side only.
//!
//! A recorder bypasses the shared prefix: an observed run simulates from
//! time zero, so `Fork` with recorders attached is a straight run and not a
//! mode of its own here. Once recorders clone at `t_fail` so a fork carries
//! them, `Fork × Recorders(mask)` belongs in [`MODES`], and its bytes must
//! equal `Recorders(mask)`'s.
//!
//! Frame size is an axis: [`Engine::ingest_batch`] cuts a frame into runs
//! at its ticks and splits each run's per-flow work over the shards, so a
//! frame's size decides which records share a run and a thread. A tick is
//! split by switch over the same shards, in contiguous ranges weighed by
//! their rows, so a network whose rows sit on one switch is a case of its
//! own.
//!
//! What the modes agree *on* is pinned elsewhere: `GOLDEN` and the two
//! `prepare` pins in `crates/core/tests/golden.rs`, and the two recorder
//! digests below.

use db_core::classifier::timeline;
use db_core::engine::MIN_RECORDS_PER_THREAD;
use db_core::experiment::sweep;
use db_core::par::par_map;
use db_core::system::MIN_ROWS_PER_GROUP;
use db_core::wire::encode_outcome;
use db_core::{
    prepare, run_scenario, DriftBottleSystem, Engine, FlowRecord, LocalizationMetrics, Mechanism,
    PrepareConfig, Prepared, ScenarioKind, ScenarioOutcome, ScenarioSetup, SystemConfig,
    VariantResult, VariantSpec, Warning,
};
use db_dtree::{FlowClassifier, ThresholdClassifier};
use db_flowmon::WindowConfig;
use db_inference::{HeaderCodec, WarningConfig, WeightScheme};
use db_netsim::{
    FailureScenario, FlowSpec, Observer, SimConfig, SimTime, Simulator, TraceRecorder,
    TrafficConfig, TrafficGen,
};
use db_runner::SweepBuilder;
use db_telemetry::scope::{ScopeMeta, SeriesKind};
use db_telemetry::{FlightRecorder, Instrumentation, ScopeRecorder, TraceData};
use db_topology::{zoo, LinkId, NodeId, RouteTable, Topology, TopologyBuilder};
use db_util::rng::Pcg64;
use db_util::wire::fnv1a64;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// FNV-1a of the golden scenario's flight-alone recording. Both recorders
/// trace the wire flagship variant only, so the other three fig-8 variants
/// leave these as the flagship-only setup had them.
const PINNED_FLIGHT_DIGEST: u64 = 0x4798_6758_5238_1aaf;
/// FNV-1a of the golden scenario's scope-alone deterministic digest text.
const PINNED_SCOPE_DIGEST: u64 = 0x4179_d04d_7306_39e7;

/// The window-close split floor of a framed stream's engine
/// ([`DriftBottleSystem::set_tick_floor`]): every test topology here is too
/// small to reach [`MIN_ROWS_PER_GROUP`], and at this floor each of its
/// ticks splits over every lane.
const TICK_FLOOR: usize = 16;

/// `Recorders` mask bits.
const METRICS: u8 = 1;
const FLIGHT: u8 = 2;
const SCOPE: u8 = 4;

#[derive(Debug, Clone, Copy)]
enum Mode {
    Straight,
    Fork,
    Sweep {
        workers: usize,
        kill_after: usize,
        recorders: u8,
    },
    Stream,
    Shards(usize),
    RestoreAt(f64),
    Recorders(u8),
}

/// Every mode but `Straight`, in comparison order. Each recorder runs alone
/// first, so it is the reference for all three together (and for each
/// pair, run on the golden scenario only): the tap fans one pass out to
/// every attached sink, and a sink that records differently in company
/// shows against its alone run.
const MODES: [Mode; 13] = [
    Mode::Recorders(METRICS),
    Mode::Recorders(FLIGHT),
    Mode::Recorders(SCOPE),
    Mode::Recorders(METRICS | FLIGHT | SCOPE),
    Mode::Fork,
    Mode::Sweep {
        workers: 1,
        kill_after: 1,
        recorders: 0,
    },
    Mode::Sweep {
        workers: 1,
        kill_after: 2,
        recorders: SCOPE,
    },
    Mode::Sweep {
        workers: 4,
        kill_after: 1,
        recorders: FLIGHT | SCOPE,
    },
    Mode::Stream,
    Mode::Shards(1),
    Mode::Shards(2),
    Mode::Shards(3),
    Mode::RestoreAt(0.5),
];

/// What one mode left behind for one scenario (`None`: the mode yields no
/// such output).
#[derive(Default)]
struct Observed {
    /// What [`run_scenario`] copies out of [`DriftBottleSystem::results`]
    /// per variant, and scores.
    results: Vec<VariantResult>,
    /// The outcome and its wire bytes.
    outcome: Option<(ScenarioOutcome, Vec<u8>)>,
    /// Every live warning a stream surfaced, in order.
    live: Option<Vec<Warning>>,
    snapshot: Option<Vec<u8>>,
    /// The bytes of a flight ring attached through a stream's engine.
    engine_flight: Option<Vec<u8>>,
    /// The digest of a scope recorder attached through a stream's engine.
    engine_scope: Option<String>,
    counters: Option<Vec<(String, u64)>>,
    flight: Option<Vec<u8>>,
    scope: Option<String>,
}

impl Observed {
    fn of(outcome: &ScenarioOutcome) -> Observed {
        Observed {
            results: outcome.variants.clone(),
            outcome: Some((outcome.clone(), encode_outcome(outcome))),
            ..Observed::default()
        }
    }

    /// Compare `got` with what earlier modes of the same scenario yielded:
    /// results always, every other output against the first mode that
    /// yielded it, which it becomes when none did.
    fn absorb(&mut self, got: Observed, what: &str) {
        assert!(got.results == self.results, "{what}: results differ");
        fn field<T: PartialEq>(want: &mut Option<T>, got: Option<T>, what: &str, name: &str) {
            match (want.as_ref(), got) {
                (Some(w), Some(g)) => assert!(*w == g, "{what}: {name} differs"),
                (None, got) => *want = got,
                (Some(_), None) => {}
            }
        }
        field(&mut self.outcome, got.outcome, what, "outcome");
        field(&mut self.live, got.live, what, "live warning stream");
        field(&mut self.snapshot, got.snapshot, what, "final snapshot");
        field(
            &mut self.engine_flight,
            got.engine_flight,
            what,
            "engine flight bytes",
        );
        field(
            &mut self.engine_scope,
            got.engine_scope,
            what,
            "engine scope digest",
        );
        field(&mut self.counters, got.counters, what, "counters");
        field(&mut self.flight, got.flight, what, "flight bytes");
        field(&mut self.scope, got.scope, what, "scope digest");
    }
}

/// The 3×3 grid the golden pin trains, prepared once for this binary.
fn prep() -> &'static Prepared {
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

/// The grid of [`prep`] sampled every four of its intervals: four times
/// the records between two ticks, so a run holds more than two threads'
/// floor ([`MIN_RECORDS_PER_THREAD`] each), which no interval of the
/// golden grid does.
fn coarse() -> &'static Prepared {
    static COARSE: OnceLock<Prepared> = OnceLock::new();
    COARSE.get_or_init(|| {
        let prep = prep();
        let interval = SimTime::from_ns(4 * prep.wcfg.interval.as_ns());
        Prepared {
            wcfg: WindowConfig::for_network(prep.routes.as_ref(), interval),
            ..prep.clone()
        }
    })
}

/// What a group of scenarios shares.
#[derive(Clone, Copy)]
struct Group {
    prep: &'static Prepared,
    /// Ambient per-hop packet loss.
    loss: f64,
}

/// The golden scenario's group.
fn golden_group() -> Group {
    Group {
        prep: prep(),
        loss: 0.0,
    }
}

/// The golden scenario's setup in `group`: the four fig-8 variants, ratio
/// sampling on, seed 42.
fn setup(group: Group) -> ScenarioSetup<'static> {
    let mut setup = ScenarioSetup::flagship(group.prep, 1.0, 42);
    setup.variants = VariantSpec::fig8_set();
    setup.sys.ratio_sampling = 8;
    setup.background_loss = group.loss;
    setup
}

/// The metrics registry is process-global, and `run_scenario`, `prepare`
/// and a runner sweep attach it whenever it is on. So every grid mode holds
/// this shared, and a mode that counts metrics holds it alone. The line
/// proptest drives `Simulator` and `Engine` directly, which never read the
/// registry, and holds nothing.
static SIMULATING: RwLock<()> = RwLock::new(());

/// The registry counters `f` added (it only grows, so a run's counters are
/// the difference across it).
fn counted<T>(f: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
    let counters = || db_telemetry::global().snapshot().counters;
    let before = counters();
    db_telemetry::enable();
    let out = f();
    db_telemetry::disable();
    let delta = counters()
        .into_iter()
        .map(|(name, v)| {
            let was = before.iter().find(|(n, _)| *n == name).map_or(0, |b| b.1);
            (name, v - was)
        })
        .collect();
    (out, delta)
}

fn flight_bytes(rec: &FlightRecorder) -> Vec<u8> {
    assert_eq!(rec.dropped(), 0, "ring must not wrap for a byte compare");
    rec.snapshot().to_bytes()
}

/// Span durations are wall-clock; the digest is the deterministic rest.
fn scope_trace(rec: &ScopeRecorder) -> TraceData {
    TraceData::from_json_str(&rec.to_trace_json()).expect("trace parses")
}

/// A sweep unit's trace is a straight run's inside one `unit N` span: the
/// trace with that span taken out.
fn unwrap_unit(mut trace: TraceData, unit: usize) -> TraceData {
    let at = trace
        .spans
        .iter()
        .position(|s| s.name == format!("unit {unit}"));
    let root = trace.spans.remove(at.expect("unit span"));
    assert_eq!(root.parent, None, "the unit span is the root");
    let up = |id: u32| if id > root.id { id - 1 } else { id };
    for s in &mut trace.spans {
        s.id = up(s.id);
        s.parent = s.parent.filter(|&p| p != root.id).map(up);
    }
    trace
}

/// Run every scenario of one group in `mode`, in parallel unless the mode
/// counts metrics.
fn observe(mode: Mode, group: Group, kinds: &[ScenarioKind]) -> Vec<Observed> {
    let metrics = matches!(mode, Mode::Recorders(mask) if mask & METRICS != 0);
    let (_shared, _alone);
    if metrics {
        _alone = SIMULATING.write().unwrap_or_else(PoisonError::into_inner);
    } else {
        _shared = SIMULATING.read().unwrap_or_else(PoisonError::into_inner);
    }
    let each = |one: &(dyn Fn(&ScenarioKind) -> Observed + Sync)| -> Vec<Observed> {
        if metrics {
            kinds.iter().map(one).collect()
        } else {
            par_map(kinds.to_vec(), one)
        }
    };
    match mode {
        Mode::Straight => each(&|kind| Observed::of(&run_scenario(&setup(group), kind))),
        Mode::Fork => {
            let warm = setup(group);
            for _ in 0..2 {
                run_scenario(&warm, &kinds[0]);
            }
            sweep(&warm, kinds.to_vec())
                .iter()
                .map(Observed::of)
                .collect()
        }
        Mode::Sweep {
            workers,
            kill_after,
            recorders,
        } => swept(setup(group), kinds, workers, kill_after, recorders),
        Mode::Stream => each(&|kind| streamed(&setup(group), kind, Feed::Records, None)),
        Mode::Shards(shards) => {
            each(&|kind| streamed(&setup(group), kind, shard_feed(kind, shards), None))
        }
        Mode::RestoreAt(frac) => {
            each(&|kind| streamed(&setup(group), kind, Feed::Records, Some(frac)))
        }
        Mode::Recorders(mask) => each(&|kind| recorded(setup(group), kind, mask)),
    }
}

fn recorded(mut setup: ScenarioSetup, kind: &ScenarioKind, mask: u8) -> Observed {
    setup.instr = Instrumentation {
        flight: (mask & FLIGHT != 0).then(|| Arc::new(FlightRecorder::new(1 << 22))),
        scope: (mask & SCOPE != 0).then(|| Arc::new(ScopeRecorder::default())),
    };
    let (outcome, counters) = if mask & METRICS != 0 {
        let (outcome, counters) = counted(|| run_scenario(&setup, kind));
        (outcome, Some(counters))
    } else {
        (run_scenario(&setup, kind), None)
    };
    let scope = setup.instr.scope.as_deref().map(scope_trace);
    if let Some(trace) = &scope {
        assert_trace_shape(trace, &outcome);
    }
    Observed {
        counters,
        flight: setup.instr.flight.as_deref().map(flight_bytes),
        scope: scope.map(|t| t.deterministic_digest()),
        ..Observed::of(&outcome)
    }
}

fn swept(
    setup: ScenarioSetup,
    kinds: &[ScenarioKind],
    workers: usize,
    kill_after: usize,
    recorders: u8,
) -> Vec<Observed> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("db-modes-{}-{n}.ckpt.jsonl", std::process::id()));
    let mut sweep = SweepBuilder::new("modes", setup.prep)
        .seed(setup.seed)
        .sys(setup.sys)
        .variants(setup.variants)
        .background_loss(setup.background_loss)
        .scenarios(kinds.iter().cloned())
        .checkpoint(&path)
        .workers(workers)
        .trace(recorders & SCOPE != 0);
    if recorders & FLIGHT != 0 {
        sweep = sweep.flight(1 << 22);
    }
    let killed = kill_after.min(kinds.len());
    let stopped = sweep.clone().stop_after(Some(kill_after)).run();
    assert_eq!(stopped.expect("stopped sweep").executed, killed);
    let report = sweep.clone().resume(true).run().expect("resumed sweep");
    assert!(report.is_complete() && report.failed().is_empty());
    assert_eq!(report.resumed, killed);
    let _ = std::fs::remove_file(&path);
    let take = |path: PathBuf| {
        let bytes = std::fs::read(&path).expect("unit recorder file");
        let _ = std::fs::remove_file(path);
        bytes
    };
    let units = report.outcomes().into_iter().enumerate();
    units
        .map(|(unit, o)| Observed {
            flight: (recorders & FLIGHT != 0).then(|| take(sweep.flight_path(unit))),
            scope: (recorders & SCOPE != 0).then(|| {
                let text = String::from_utf8(take(sweep.trace_path(unit))).expect("utf-8");
                let trace = TraceData::from_json_str(&text).expect("trace parses");
                unwrap_unit(trace, unit).deterministic_digest()
            }),
            ..Observed::of(o)
        })
        .collect()
}

fn streamed(
    setup: &ScenarioSetup,
    kind: &ScenarioKind,
    feed: Feed,
    restore_at: Option<f64>,
) -> Observed {
    let net = Net::of(setup, kind);
    let trace = net.simulate(TraceRecorder::new());
    let split = restore_at.map(|frac| split_at(&trace, frac));
    // A restore moves the stream onto a fresh engine, and its recorders
    // with it, so only an uninterrupted stream yields recorder bytes.
    let recorders = split.is_none().then(|| {
        let scope = Arc::new(ScopeRecorder::default());
        scope.set_meta(net.scope_meta());
        (Arc::new(FlightRecorder::new(1 << 22)), scope)
    });
    let (engine, live) = net.stream(&trace, split, None, recorders.clone().unzip(), feed);
    let (engine_flight, engine_scope) = recorders
        .map(|(flight, scope)| {
            let digest = scope_trace(&scope).deterministic_digest();
            (flight_bytes(&flight), digest)
        })
        .unzip();
    Observed {
        results: net.results(&engine),
        live: Some(live),
        snapshot: Some(engine.snapshot()),
        engine_flight,
        engine_scope,
        ..Observed::default()
    }
}

/// What the scope trace of a run must hold: the meta header, a suspicion
/// series for a failed link, and the four phase spans.
fn assert_trace_shape(trace: &TraceData, outcome: &ScenarioOutcome) {
    let meta = trace.meta.as_ref().expect("meta header");
    assert_eq!(meta.total_links as usize, prep().topo.link_count());
    if let [failed, ..] = outcome.ground_truth[..] {
        assert!(
            (trace.series_for(SeriesKind::LinkSuspicion, failed.0)).is_some(),
            "no suspicion series for the failed link"
        );
    }
    for phase in ["scenario", "phase.simulate", "phase.monitor", "phase.infer"] {
        assert!(
            trace.spans.iter().any(|s| s.name == phase),
            "missing span {phase}"
        );
    }
}

/// `modes` on one group of scenarios (one setup, so one sweep), each
/// compared with the straight run; returns what each scenario yielded.
fn agree(group: Group, modes: &[Mode], kinds: &[ScenarioKind]) -> Vec<Observed> {
    let mut want = observe(Mode::Straight, group, kinds);
    for &mode in modes {
        let got = observe(mode, group, kinds);
        for ((kind, want), got) in kinds.iter().zip(&mut want).zip(got) {
            want.absorb(got, &format!("{kind:?} under {mode:?}"));
        }
    }
    want
}

/// The grid's center link, the golden scenario's failure.
fn center_link() -> LinkId {
    prep()
        .topo
        .link_between(NodeId(4), NodeId(5))
        .expect("grid center link")
}

/// The golden scenario first, then the other failure shapes on its setup.
#[test]
fn every_mode_answers_as_the_straight_run() {
    let center = center_link();
    let kinds = [
        ScenarioKind::SingleLink(center),
        ScenarioKind::Node(NodeId(4)),
        ScenarioKind::Corruption(center, 0.3),
        ScenarioKind::None,
    ];
    let golden = &mut agree(golden_group(), &MODES, &kinds)[0];
    // Every pair of recorders too, on the golden scenario only.
    for mask in [METRICS | FLIGHT, METRICS | SCOPE, FLIGHT | SCOPE] {
        let got = observe(Mode::Recorders(mask), golden_group(), &kinds[..1]).pop();
        golden.absorb(
            got.expect("one scenario"),
            &format!("golden, Recorders({mask})"),
        );
    }
    // The golden scenario's recorders alone, pinned: a dropped or reordered
    // record fails here even where every mode drops or reorders it alike.
    let flight = golden.flight.as_deref().expect("flight recorded");
    let scope = golden.scope.as_deref().expect("scope recorded");
    assert_eq!(
        (fnv1a64(flight), fnv1a64(scope.as_bytes())),
        (PINNED_FLIGHT_DIGEST, PINNED_SCOPE_DIGEST),
        "the flight-alone recording or the scope-alone trace changed"
    );
    let counters = golden.counters.as_ref().expect("metrics recorded");
    for name in ["dtree.classifications", "inference.aggregations"] {
        let tallied = counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1);
        assert!(tallied > 0, "{name} never counted");
    }
}

/// Concurrent random link failures under background loss.
#[test]
fn every_mode_answers_as_the_straight_run_under_background_loss() {
    let lossy = Group {
        loss: 2e-3,
        ..golden_group()
    };
    agree(
        lossy,
        &MODES,
        &[ScenarioKind::RandomLinks { count: 2, seed: 5 }],
    );
}

/// The golden scenario on the [`coarse`] grid: the 2- and 3-shard frames
/// split runs across threads, flight ring attached, and the mid-stream
/// reshard moves carriers of both kinds while they are in flight.
#[test]
fn split_runs_answer_as_the_straight_run() {
    let dense = Group {
        prep: coarse(),
        ..golden_group()
    };
    let kind = ScenarioKind::SingleLink(center_link());
    let modes = [1, 2, 3].map(Mode::Shards);
    agree(
        dense,
        &[[Mode::Stream].as_slice(), &modes].concat(),
        std::slice::from_ref(&kind),
    );
    // The frames those modes were fed do hold runs long enough to split.
    let net = Net::of(&setup(dense), &kind);
    let trace = net.simulate(TraceRecorder::new());
    for shards in [2, 3] {
        let Feed::Frames { max, seed, .. } = shard_feed(&kind, shards) else {
            unreachable!("a shard feed is framed")
        };
        let lens = frames(&trace, net.wcfg.interval, max, seed);
        let longest = longest_run(&trace, net.wcfg.interval, &lens);
        assert!(
            longest >= 2 * MIN_RECORDS_PER_THREAD,
            "{shards} shards: the longest run holds {longest} records, too few to split"
        );
    }
    // And every tick of theirs splits over all of the (at most four) lanes:
    // a switch weighs at least the flows registered there.
    let registered: usize = net.flows.iter().map(|f| f.path.nodes.len()).sum();
    assert!(
        (4 * TICK_FLOOR..2 * MIN_ROWS_PER_GROUP).contains(&registered),
        "{registered} registered rows: the ticks split only at the lowered floor"
    );
}

/// A star, where the hub holds a third of all registered rows and each leaf
/// a small share of the rest, so the tick's weighted deal gives the hub's
/// group fewer switches than the others: streamed in frames to two and three
/// shards with the flight ring and the scope recorder attached, it records
/// and ends as the batch run does, and restored mid-stream as an
/// uninterrupted stream does.
#[test]
fn a_skewed_tick_answers_as_the_straight_run() {
    let net = Net::star(8, 11);
    let registered = |node: NodeId| {
        let flows = net.flows.iter();
        flows.filter(|f| f.path.nodes.contains(&node)).count()
    };
    let hub = registered(NodeId(0));
    let leaf = (1..=8).map(|n| registered(NodeId(n))).max();
    assert!(
        leaf.is_some_and(|leaf| hub >= 4 * leaf),
        "the hub holds {hub} flows"
    );
    let trace = net.simulate(TraceRecorder::new());
    for shards in [2, 3] {
        let (batch_rec, stream_rec) = (recorders(), recorders());
        let mut system = net.system();
        assert!(system.set_flight(batch_rec.0.clone(), &net.truth, net.topo.link_count()));
        assert!(system.set_scope(batch_rec.1.clone()));
        let batch = net.simulate(Engine::new(system));
        let frames = Feed::Frames {
            shards,
            max: 512,
            seed: shards as u64,
        };
        let attached = (Some(stream_rec.0.clone()), Some(stream_rec.1.clone()));
        let (stream, _) = net.stream(&trace, None, None, attached, frames);
        assert!(
            net.results(&stream) == net.results(&batch),
            "{shards} shards: results"
        );
        let bytes = recorded_bytes(&stream_rec) == recorded_bytes(&batch_rec);
        assert!(bytes, "{shards} shards: recorder bytes");

        let (uninterrupted, want) = net.stream(&trace, None, None, (None, None), Feed::Records);
        let split = split_at(&trace, 0.5);
        let (restored, got) = net.stream(&trace, Some(split), None, (None, None), frames);
        assert!(!want.is_empty(), "the hub link's failure raises warnings");
        assert!(got == want, "{shards} shards: live warnings");
        assert!(
            restored.snapshot() == uninterrupted.snapshot(),
            "{shards} shards: final snapshot"
        );
    }
}

/// One deployment and its workload: everything a batch or streaming run of
/// one scenario needs.
struct Net<C> {
    topo: Topology,
    flows: Vec<FlowSpec>,
    wcfg: WindowConfig,
    classifier: C,
    variants: Vec<VariantSpec>,
    sys: SystemConfig,
    window: (SimTime, SimTime),
    sim: SimConfig,
    scenario: FailureScenario,
    truth: Vec<LinkId>,
    seed: u64,
}

impl Net<db_dtree::TableClassifier> {
    /// What [`run_scenario`] deploys and simulates for `kind`.
    fn of(setup: &ScenarioSetup, kind: &ScenarioKind) -> Self {
        let prep = setup.prep;
        let traffic = TrafficConfig::with_density(setup.density);
        let (t_fail, window, end) = timeline(&prep.wcfg, traffic.start_spread);
        let scenario = kind.build(prep, t_fail);
        Net {
            topo: prep.topo.clone(),
            flows: TrafficGen::generate_auto(
                &prep.topo,
                prep.routes.as_ref(),
                &traffic,
                setup.seed,
            ),
            wcfg: prep.wcfg,
            classifier: prep.table.clone(),
            variants: setup.variants.clone(),
            sys: setup.sys.clone(),
            window,
            sim: SimConfig {
                end,
                tick_interval: prep.wcfg.interval,
                background_loss: setup.background_loss,
            },
            truth: scenario.failed_links_at(&prep.topo, t_fail),
            scenario,
            seed: setup.seed,
        }
    }
}

impl Net<ThresholdClassifier> {
    /// A 5-switch line with link 2 failing: see [`Self::small`].
    fn line(seed: u64) -> Self {
        Self::small(zoo::line_with_latency(5, 3.0), LinkId(2), seed)
    }

    /// A star of `leaves` leaves on 3 ms links, the link to the first leaf
    /// failing: see [`Self::small`].
    fn star(leaves: usize, seed: u64) -> Self {
        let mut b = TopologyBuilder::new(format!("star{leaves}"));
        let hub = b.node("hub");
        for i in 0..leaves {
            let leaf = b.node(format!("leaf{i}"));
            b.link(hub, leaf, 3.0);
        }
        let topo = b.build().expect("a star is valid");
        Self::small(topo, LinkId(0), seed)
    }

    /// `topo` with `failed` failing, the untrained threshold classifier,
    /// and every carrier kind: the wire header, an exact-weight side table
    /// and a centralized baseline.
    fn small(topo: Topology, failed: LinkId, seed: u64) -> Self {
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let interval = SimTime::from_ms(4);
        let wcfg = WindowConfig::for_network(&routes, interval);
        let t_fail = SimTime::from_ms(80);
        let window = (t_fail, t_fail + wcfg.window_len() + SimTime::from_ms(20));
        Net {
            topo,
            flows,
            wcfg,
            classifier: ThresholdClassifier::default(),
            variants: vec![
                VariantSpec::drift_bottle(),
                VariantSpec::distributed(WeightScheme::Drifted007),
                VariantSpec::centralized(WeightScheme::DriftBottle, 0.4),
            ],
            sys: SystemConfig {
                ratio_sampling: 8,
                warning: WarningConfig {
                    hop_min: 2,
                    alpha: 1.0,
                    beta: 1.6,
                },
                ..Default::default()
            },
            window,
            sim: SimConfig {
                end: window.1 + SimTime::from_ms(8),
                tick_interval: interval,
                ..Default::default()
            },
            scenario: FailureScenario::single_link(failed, t_fail),
            truth: vec![failed],
            seed,
        }
    }
}

/// Flight and scope recorders on the system side of one engine.
type Recorders = (Arc<FlightRecorder>, Arc<ScopeRecorder>);

/// How a stream reaches its engine.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One [`Engine::ingest`] call per record, on an engine of the
    /// default shard count.
    Records,
    /// [`Engine::ingest_batch`] over frames of 1 to `max` records drawn
    /// from `seed`, on an engine of `shards` shards, resharded to
    /// `shards + 1` once half the records are in, whose ticks split at
    /// [`TICK_FLOOR`].
    Frames {
        shards: usize,
        max: usize,
        seed: u64,
    },
}

/// The feed of `Mode::Shards(shards)` for `kind`: frames of up to 4 096
/// records, drawn from a seed of its own.
fn shard_feed(kind: &ScenarioKind, shards: usize) -> Feed {
    Feed::Frames {
        shards,
        max: 4096,
        seed: fnv1a64(format!("{kind:?} {shards}").as_bytes()),
    }
}

/// The longest run the engine cuts `lens`' frames of `trace` into: a run
/// is a frame's records of one sampling interval.
fn longest_run(trace: &TraceRecorder, interval: SimTime, lens: &[usize]) -> usize {
    let window = |i: usize| trace.observations[i].at.as_ns() / interval.as_ns();
    let (mut start, mut longest) = (0, 0);
    for &len in lens {
        let mut run = start;
        for i in start..start + len {
            if window(i) != window(run) {
                run = i;
            }
            longest = longest.max(i + 1 - run);
        }
        start += len;
    }
    longest
}

/// Frame lengths cutting `trace` for [`Feed::Frames`]: each drawn from
/// 1..=`max`, log-uniformly so short and long frames both occur, and a
/// frame that would cross an even-numbered tick ends exactly there, so the
/// next frame starts with the tick's first record.
fn frames(trace: &TraceRecorder, interval: SimTime, max: usize, seed: u64) -> Vec<usize> {
    let mut rng = Pcg64::new(seed);
    let at = |i: usize| trace.observations[i].at.as_ns();
    let (n, step) = (trace.observations.len(), interval.as_ns());
    let mut lens = Vec::new();
    let mut start = 0;
    while start < n {
        let bits = rng.index(max.ilog2() as usize + 1);
        let mut end = (start + 1 + rng.index(max.min(1 << bits))).min(n);
        let tick = at(start) / step + 1;
        let boundary = (tick + tick % 2) * step;
        if let Some(cut) = (start + 1..end).find(|&i| at(i) >= boundary) {
            end = cut;
        }
        lens.push(end - start);
        start = end;
    }
    lens
}

fn recorders() -> Recorders {
    let flight = Arc::new(FlightRecorder::new(1 << 16));
    (flight, Arc::new(ScopeRecorder::default()))
}

fn recorded_bytes((flight, scope): &Recorders) -> (Vec<u8>, String) {
    (
        flight_bytes(flight),
        scope_trace(scope).deterministic_digest(),
    )
}

impl<C: FlowClassifier + Clone> Net<C> {
    fn system(&self) -> DriftBottleSystem<C> {
        DriftBottleSystem::deploy(
            &self.topo,
            &self.flows,
            self.wcfg,
            self.classifier.clone(),
            self.variants.clone(),
            self.sys.clone(),
            self.window,
        )
    }

    /// A fresh engine with live warnings on, carrier `retention`, and
    /// `shards` shards (`None`: the default count) whose window closes
    /// split at [`TICK_FLOOR`].
    fn engine(&self, retention: Option<u32>, shards: Option<usize>) -> Engine<C> {
        let mut system = self.system();
        if shards.is_some() {
            system.set_tick_floor(TICK_FLOOR);
        }
        let mut engine = Engine::new(system);
        engine.set_live_warnings();
        if let Some(windows) = retention {
            engine.set_retention(windows);
        }
        if let Some(n) = shards {
            engine.set_shards(n);
        }
        engine
    }

    /// What [`run_scenario`] copies out of the engine's system and scores.
    fn results(&self, engine: &Engine<C>) -> Vec<VariantResult> {
        let results = engine.system().results().map(|(spec, log, ratios)| {
            let reported: Vec<LinkId> = log.reported_links.iter().copied().collect();
            let (truth, links) = (self.truth.iter().copied(), self.topo.link_count());
            let metrics = LocalizationMetrics::compute(reported.iter().copied(), truth, links);
            let mut pair_counts: Vec<((NodeId, LinkId), u64)> =
                log.by_pair.iter().map(|(k, s)| (*k, s.count)).collect();
            pair_counts.sort_unstable_by_key(|&(k, _)| k);
            VariantResult {
                name: spec.name.clone(),
                metrics,
                reported,
                reported_pairs: log.reported_pairs.iter().copied().collect(),
                pair_counts,
                raises: log.raises,
                ratios: ratios.to_vec(),
            }
        });
        results.collect()
    }

    /// The simulation [`run_scenario`] runs: healthy from time zero, the
    /// failure injected before the first event.
    fn simulate<O: Observer>(&self, observer: O) -> O {
        let (flows, cfg, none) = (
            self.flows.clone(),
            self.sim.clone(),
            FailureScenario::none(),
        );
        let mut sim = Simulator::new(&self.topo, flows, cfg, &none, self.seed, observer);
        sim.inject(&self.scenario);
        sim.run();
        sim.finish().0
    }

    /// The scope meta a stream's engine-attached recorder is given.
    fn scope_meta(&self) -> ScopeMeta {
        ScopeMeta {
            interval_ns: self.wcfg.interval.as_ns(),
            t_fail_ns: self.window.0.as_ns(),
            total_links: self.topo.link_count() as u32,
            total_switches: self.topo.node_count() as u32,
            alpha: self.sys.warning.alpha,
            beta: self.sys.warning.beta,
            hop_min: self.sys.warning.hop_min,
        }
    }

    /// `trace` fed as `feed` says to a fresh engine with carrier
    /// `retention`, moved onto another fresh engine of the feed's first
    /// shard count through a snapshot after `split` records, with `recorders`
    /// (flight, scope) attached through the engine (the daemon's wiring).
    /// Returns the engine and every live warning in the order it surfaced;
    /// asserts every raise surfaced live, and that a raise quotes a header
    /// only where its variant's packets carry one.
    fn stream(
        &self,
        trace: &TraceRecorder,
        split: Option<usize>,
        retention: Option<u32>,
        recorders: (Option<Arc<FlightRecorder>>, Option<Arc<ScopeRecorder>>),
        feed: Feed,
    ) -> (Engine<C>, Vec<Warning>) {
        let shards = match feed {
            Feed::Records => None,
            Feed::Frames { shards, .. } => Some(shards),
        };
        let fresh = || self.engine(retention, shards);
        let mut engine = fresh();
        if let Some(flight) = recorders.0 {
            assert!(engine.set_flight(flight, &self.truth, self.topo.link_count()));
        }
        if let Some(scope) = recorders.1 {
            assert!(engine.set_scope(scope));
        }
        let records: Vec<FlowRecord> = trace.observations.iter().map(|&o| o.into()).collect();
        let lens = match feed {
            Feed::Records => vec![records.len()],
            Feed::Frames { max, seed, .. } => frames(trace, self.wcfg.interval, max, seed),
        };
        // Frame ends, and the restore point: a frame spanning it is cut.
        let reshard = shards.map(|n| (records.len() / 2, n + 1));
        let mut ends: Vec<usize> = (lens.iter())
            .scan(0, |fed, len| {
                *fed += len;
                Some(*fed)
            })
            .chain(split)
            .chain(reshard.map(|(at, _)| at))
            .collect();
        ends.sort_unstable();
        ends.dedup();
        let mut live = Vec::new();
        let mut fed = 0;
        for end in ends {
            if split == Some(fed) {
                let (snapshot, mut restored) = (engine.snapshot(), fresh());
                restored.restore(&snapshot).expect("snapshot restores");
                engine = restored;
            }
            if let Some((_, n)) = reshard.filter(|&(at, _)| at == fed) {
                engine.set_shards(n);
            }
            let frame = &records[fed..end];
            match feed {
                Feed::Records => frame.iter().for_each(|r| live.extend(engine.ingest(r))),
                Feed::Frames { .. } => live.extend(engine.ingest_batch(frame)),
            }
            fed = end;
        }
        live.extend(engine.advance_to(self.sim.end));
        let raises: u64 = engine.system().results().map(|(_, l, _)| l.raises).sum();
        assert_eq!(live.len() as u64, raises, "every raise surfaced live");
        self.assert_headers(&live);
        (engine, live)
    }

    /// A wire-variant warning quotes a whole header (the reference decode
    /// refuses any other length), whose `hop_now` is the warning's; a
    /// side-table or DCA warning quotes none.
    fn assert_headers(&self, live: &[Warning]) {
        let codec = HeaderCodec::for_network(self.sys.k, self.topo.link_count());
        for w in live {
            let header = &w.header[..usize::from(w.header_len)];
            let spec = &self.variants[usize::from(w.variant)];
            if spec.mechanism == Mechanism::DistributedWire {
                let decoded = codec.decode(header).map(|(_, hops)| hops);
                assert_eq!(decoded, Some(w.hop_now), "{}: header", spec.name);
            } else {
                assert!(header.is_empty(), "{} quotes a header", spec.name);
            }
        }
    }
}

fn split_at(trace: &TraceRecorder, frac: f64) -> usize {
    ((trace.observations.len() as f64 * frac) as usize).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The line case with the untrained classifier, where a case is cheap
    /// enough to randomize: `Stream` reproduces the batch run (the engine
    /// as the simulator's observer, recorders attached to its system) with
    /// the same recorders attached through the engine, bytes included;
    /// `RestoreAt`, fed in frames of up to `frame` records to engines of
    /// `shards` shards, finishes with the results, the live warnings and
    /// the final snapshot of an uninterrupted record-by-record stream, with
    /// carriers kept until stripped (`retention` 0) and with the per-tick
    /// sweep evicting them after 1–3 windows.
    #[test]
    fn line_streams_and_restores_as_it_runs(
        seed in 1u64..500,
        split_frac in 0.1f64..0.9,
        retention in 0u32..4,
        frame in 1usize..4097,
        shards in 1usize..4,
    ) {
        let net = Net::line(seed);
        let trace = net.simulate(TraceRecorder::new());
        let (batch_rec, stream_rec) = (recorders(), recorders());
        let mut system = net.system();
        assert!(system.set_flight(batch_rec.0.clone(), &net.truth, net.topo.link_count()));
        assert!(system.set_scope(batch_rec.1.clone()));
        let batch = net.simulate(Engine::new(system));
        let frames = Feed::Frames { shards, max: frame, seed };
        let attached = (Some(stream_rec.0.clone()), Some(stream_rec.1.clone()));
        let (stream, _) = net.stream(&trace, None, None, attached, frames);
        prop_assert!(net.results(&stream) == net.results(&batch), "Stream results");
        let bytes = recorded_bytes(&stream_rec) == recorded_bytes(&batch_rec);
        prop_assert!(bytes, "Stream recorder bytes");

        let retention = (retention > 0).then_some(retention);
        let split = split_at(&trace, split_frac);
        let (uninterrupted, want) =
            net.stream(&trace, None, retention, (None, None), Feed::Records);
        let (restored, got) = net.stream(&trace, Some(split), retention, (None, None), frames);
        prop_assert!(
            net.results(&restored) == net.results(&uninterrupted),
            "RestoreAt({}) results", split
        );
        prop_assert!(got == want, "RestoreAt({}) live warnings", split);
        prop_assert!(
            restored.snapshot() == uninterrupted.snapshot(),
            "RestoreAt({}) final snapshot", split
        );
    }
}
