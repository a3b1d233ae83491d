//! Scenario runners and sweeps — the §6 evaluation harness.
//!
//! A scenario fixes a topology (via [`Prepared`]), a workload density, a
//! seed, a failure [`ScenarioKind`], and the variant list to compare.
//! [`run_scenario`] simulates it once (all variants observe identical
//! traffic) and scores every variant against the ground truth per the §6.2
//! protocol: links reported within one sliding window after failure
//! injection. Scenarios of one setup differ only from `t_fail` on, and
//! repeated runs share the healthy simulation up to there (see
//! the crate-private `prefix` module).

use crate::classifier::{timeline, Prepared};
use crate::config::{Mechanism, SystemConfig, VariantSpec};
use crate::engine::Engine;
use crate::eval::{LocalizationMetrics, MetricsAccum};
use crate::par::par_map;
use crate::prefix::{BatchSim, PrefixKey, SharedPrefix};
use crate::system::{DriftBottleSystem, RatioSample};
use db_dtree::TableClassifier;
use db_netsim::{
    FailureScenario, SimConfig, SimStats, SimTime, Simulator, TrafficConfig, TrafficGen,
};
use db_telemetry::flight::FlightRecord;
use db_telemetry::scope::ScopeMeta;
use db_telemetry::{Instrumentation, Span};
use db_topology::{ordered_pairs, LinkId, NodeId, Path, Topology, SCALE_NODE_THRESHOLD};
use db_util::Pcg64;
use std::borrow::Borrow;
use std::fmt;

/// What fails in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Healthy network (false-positive measurement).
    None,
    /// One link goes down (§6.5).
    SingleLink(LinkId),
    /// One link corrupts at the given loss rate.
    Corruption(LinkId, f64),
    /// One node fails — all incident links down (§6.6).
    Node(NodeId),
    /// `count` random concurrent link failures (§6.6), drawn from `seed`.
    RandomLinks {
        /// Number of concurrently failed links.
        count: usize,
        /// Epoch seed for the random draw.
        seed: u64,
    },
}

impl ScenarioKind {
    /// Materialize the failure schedule at injection time `t_fail`.
    ///
    /// `RandomLinks` draws from the **covered** links (those carrying routed
    /// traffic): a failure on a dark backup link is unobservable by any
    /// passive system and the paper's emulated networks carried flows on
    /// every evaluated link.
    pub fn build(&self, prep: &Prepared, t_fail: SimTime) -> FailureScenario {
        match *self {
            ScenarioKind::None => FailureScenario::none(),
            ScenarioKind::SingleLink(l) => FailureScenario::single_link(l, t_fail),
            ScenarioKind::Corruption(l, rate) => FailureScenario::corruption(l, rate, t_fail),
            ScenarioKind::Node(n) => FailureScenario::node(n, t_fail),
            ScenarioKind::RandomLinks { count, seed } => {
                let covered = covered_links(prep);
                assert!(
                    count <= covered.len(),
                    "cannot fail {count} covered links of {}",
                    covered.len()
                );
                let mut rng = Pcg64::new_stream(seed, 0xFA11);
                let picks = rng.sample_indices(covered.len(), count);
                let mut scenario = FailureScenario::none();
                for i in picks {
                    scenario = scenario.merged(FailureScenario::single_link(covered[i], t_fail));
                }
                scenario
            }
        }
    }
}

/// Everything fixed across the scenarios of one sweep.
///
/// Construct via [`ScenarioSetup::builder`] (validated) or the
/// [`ScenarioSetup::flagship`] shorthand. Direct struct-literal construction
/// is sealed (`#[non_exhaustive]`) so invalid combinations — empty variant
/// lists, several wire variants, out-of-range densities — are caught at
/// build time instead of panicking mid-simulation; the fields stay public
/// for in-place adjustment after construction.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScenarioSetup<'a> {
    /// The prepared topology (routes, windows, trained classifier).
    pub prep: &'a Prepared,
    /// Flow density (§6.1).
    pub density: f64,
    /// Workload seed.
    pub seed: u64,
    /// System parameters (k, warning thresholds, ratio sampling).
    pub sys: SystemConfig,
    /// The variants to compare.
    pub variants: Vec<VariantSpec>,
    /// Ambient i.i.d. per-hop packet loss ("network jitter", §4.3) — noise
    /// the warning thresholds must tolerate. Usually 0.
    pub background_loss: f64,
    /// Telemetry attachment (provenance flight recorder + db-scope). The
    /// default is off, which records nothing and keeps scenario results
    /// bit-for-bit identical; see [`DriftBottleSystem::set_flight`] and
    /// [`DriftBottleSystem::set_scope`] for what each recorder captures.
    pub instr: Instrumentation,
    /// The healthy prefix this setup and its clones share between runs.
    pub(crate) prefix: SharedPrefix<'a>,
}

/// Why [`ScenarioSetupBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// Flow density must be finite and strictly positive.
    BadDensity,
    /// Background loss is a probability: `0.0 ≤ p < 1.0`.
    BadBackgroundLoss,
    /// At least one variant is required.
    NoVariants,
    /// Packets carry one header: at most one `DistributedWire` variant.
    MultipleWireVariants,
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::BadDensity => write!(f, "flow density must be finite and > 0"),
            SetupError::BadBackgroundLoss => {
                write!(f, "background loss must satisfy 0.0 <= p < 1.0")
            }
            SetupError::NoVariants => write!(f, "at least one variant is required"),
            SetupError::MultipleWireVariants => {
                write!(
                    f,
                    "at most one DistributedWire variant (packets carry one header)"
                )
            }
        }
    }
}

impl std::error::Error for SetupError {}

/// Validating builder for [`ScenarioSetup`]. Defaults: density 1.0, seed 0,
/// the prepared topology's sampling interval, the flagship variant only, no
/// background loss, instrumentation off.
#[derive(Debug, Clone)]
pub struct ScenarioSetupBuilder<'a> {
    prep: &'a Prepared,
    density: f64,
    seed: u64,
    sys: SystemConfig,
    variants: Vec<VariantSpec>,
    background_loss: f64,
}

impl<'a> ScenarioSetupBuilder<'a> {
    /// Flow density (§6.1).
    pub fn density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }

    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the system parameters wholesale.
    pub fn sys(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// The variants to compare (replaces the default flagship-only list).
    pub fn variants(mut self, variants: Vec<VariantSpec>) -> Self {
        self.variants = variants;
        self
    }

    /// Ambient i.i.d. per-hop packet loss.
    pub fn background_loss(mut self, p: f64) -> Self {
        self.background_loss = p;
        self
    }

    /// Validate and build the setup.
    pub fn build(self) -> Result<ScenarioSetup<'a>, SetupError> {
        if !(self.density.is_finite() && self.density > 0.0) {
            return Err(SetupError::BadDensity);
        }
        if !(self.background_loss.is_finite() && (0.0..1.0).contains(&self.background_loss)) {
            return Err(SetupError::BadBackgroundLoss);
        }
        if self.variants.is_empty() {
            return Err(SetupError::NoVariants);
        }
        let wire_count = self
            .variants
            .iter()
            .filter(|v| v.mechanism == Mechanism::DistributedWire)
            .count();
        if wire_count > 1 {
            return Err(SetupError::MultipleWireVariants);
        }
        Ok(ScenarioSetup {
            prep: self.prep,
            density: self.density,
            seed: self.seed,
            sys: self.sys,
            variants: self.variants,
            background_loss: self.background_loss,
            instr: Instrumentation::off(),
            prefix: SharedPrefix::default(),
        })
    }
}

impl<'a> ScenarioSetup<'a> {
    /// Start a validating builder over a prepared topology.
    pub fn builder(prep: &'a Prepared) -> ScenarioSetupBuilder<'a> {
        ScenarioSetupBuilder {
            prep,
            density: 1.0,
            seed: 0,
            sys: SystemConfig {
                interval: prep.wcfg.interval,
                ..Default::default()
            },
            variants: vec![VariantSpec::drift_bottle()],
            background_loss: 0.0,
        }
    }

    /// A setup with the default system config and only the flagship variant.
    pub fn flagship(prep: &'a Prepared, density: f64, seed: u64) -> Self {
        Self::builder(prep)
            .density(density)
            .seed(seed)
            .build()
            .expect("flagship defaults are valid for any positive density")
    }
}

/// Per-variant outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantResult {
    /// Variant display name.
    pub name: String,
    /// Links reported within the collection window.
    pub reported: Vec<LinkId>,
    /// Localization quality vs. ground truth.
    pub metrics: LocalizationMetrics,
    /// (switch, link) warning pairs within the window (Fig. 12).
    pub reported_pairs: Vec<(NodeId, LinkId)>,
    /// Raise counts per (switch, link) pair over the whole run — warning
    /// *frequency*, the Fig. 12 quantity.
    pub pair_counts: Vec<((NodeId, LinkId), u64)>,
    /// Total warning raises over the whole run.
    pub raises: u64,
    /// Sampled drifted inferences (Fig. 11; empty unless sampling enabled).
    pub ratios: Vec<RatioSample>,
}

/// Outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Ground-truth failed links.
    pub ground_truth: Vec<LinkId>,
    /// Failure injection time.
    pub t_fail: SimTime,
    /// Warning collection window `(from, to]`.
    pub window: (SimTime, SimTime),
    /// One result per requested variant, in request order.
    pub variants: Vec<VariantResult>,
    /// Raw simulation statistics.
    pub stats: SimStats,
}

impl ScenarioOutcome {
    /// The result of the variant named `name`.
    pub fn variant(&self, name: &str) -> Option<&VariantResult> {
        self.variants.iter().find(|v| v.name == name)
    }
}

/// The healthy network of `setup` at time zero: its workload generated, the
/// system deployed on it and handed to `attach`, nothing simulated yet.
fn healthy<'a>(
    setup: &ScenarioSetup<'a>,
    window: (SimTime, SimTime),
    end: SimTime,
    attach: impl FnOnce(&mut DriftBottleSystem<TableClassifier>),
) -> BatchSim<'a> {
    let prep = setup.prep;
    let traffic = TrafficConfig::with_density(setup.density);
    let flows = TrafficGen::generate_auto(&prep.topo, prep.routes.as_ref(), &traffic, setup.seed);
    let mut system = DriftBottleSystem::deploy(
        &prep.topo,
        &flows,
        prep.wcfg,
        prep.table.clone(),
        setup.variants.clone(),
        setup.sys.clone(),
        window,
    );
    attach(&mut system);
    let cfg = SimConfig {
        end,
        tick_interval: prep.wcfg.interval,
        background_loss: setup.background_loss,
    };
    // Batch runs on the incremental engine: the engine is the observer the
    // simulator drives, so the batch and streaming paths share one pipeline
    // (the golden snapshot pins this rebase bit-identical).
    let engine = Engine::new(system);
    let none = FailureScenario::none();
    Simulator::new(&prep.topo, flows, cfg, &none, setup.seed, engine)
}

/// Simulate one scenario and score every variant.
///
/// One body: take the healthy simulation, inject the failure, run to the
/// end, score. The only branch is where the healthy simulation comes from.
pub fn run_scenario(setup: &ScenarioSetup, kind: &ScenarioKind) -> ScenarioOutcome {
    let prep = setup.prep;
    let start_spread = TrafficConfig::with_density(setup.density).start_spread;
    let (t_fail, window, end) = timeline(&prep.wcfg, start_spread);
    let scenario = kind.build(prep, t_fail);
    let ground_truth = scenario.failed_links_at(&prep.topo, t_fail);
    let registry = db_telemetry::active();
    let flight = setup.instr.flight.as_ref();
    let scope = setup.instr.scope.as_ref();
    // Spans close in reverse order of opening when they go out of scope.
    let _scenario_span = Span::begin("scenario", None, scope);
    let mut sim = if registry.is_some() || flight.is_some() || scope.is_some() {
        // A recorder must see the run from its first event, with the
        // failure already scheduled (the queue-depth series counts it): an
        // observed run starts at time zero, on a simulation of its own.
        let mut sim = healthy(setup, window, end, |system| {
            if let Some(reg) = registry {
                system.set_metrics(reg);
            }
            if let Some(rec) = flight {
                // The run header goes in first: everything `explain` needs
                // to re-evaluate equation (1) and score against ground
                // truth offline.
                rec.record(FlightRecord::RunMeta {
                    t_fail_ns: t_fail.as_ns(),
                    window_from_ns: window.0.as_ns(),
                    window_to_ns: window.1.as_ns(),
                    interval_ns: prep.wcfg.interval.as_ns(),
                    total_links: prep.topo.link_count() as u32,
                    k: setup.sys.k as u32,
                    hop_min: setup.sys.warning.hop_min,
                    alpha: setup.sys.warning.alpha,
                    beta: setup.sys.warning.beta,
                    ground_truth: ground_truth.iter().map(|l| l.0).collect(),
                });
                system.set_flight(rec.clone(), &ground_truth, prep.topo.link_count());
            }
            if let Some(sc) = scope {
                // The meta header first: everything `timeline` needs to map
                // nanosecond feed times onto window indices and re-state
                // the equation (1) thresholds next to the series.
                sc.set_meta(ScopeMeta {
                    interval_ns: prep.wcfg.interval.as_ns(),
                    t_fail_ns: t_fail.as_ns(),
                    total_links: prep.topo.link_count() as u32,
                    total_switches: prep.topo.node_count() as u32,
                    alpha: setup.sys.warning.alpha,
                    beta: setup.sys.warning.beta,
                    hop_min: setup.sys.warning.hop_min,
                });
                system.set_scope(sc.clone());
            }
        });
        if let Some(reg) = registry {
            sim.set_metrics(reg);
        }
        if let Some(rec) = flight {
            sim.set_flight(rec.clone());
        }
        if let Some(sc) = scope {
            sim.set_scope(sc.clone());
        }
        sim
    } else {
        // Nobody is watching: any copy of the healthy run up to `t_fail`
        // will do, and the setup may hold one.
        setup.prefix.at_failure(&PrefixKey::of(setup), || {
            let mut sim = healthy(setup, window, end, |_| {});
            sim.run_until(t_fail);
            sim
        })
    };
    sim.inject(&scenario);
    {
        let _simulate = Span::begin("phase.simulate", registry, scope);
        sim.run();
    }
    let _score = Span::begin("phase.score", registry, scope);
    let (engine, stats) = sim.finish();
    let system = engine.into_system();
    let total_links = prep.topo.link_count();
    let variants = system
        .results()
        .map(|(spec, log, ratios)| {
            let reported: Vec<LinkId> = log.reported_links.iter().copied().collect();
            let metrics = LocalizationMetrics::compute(
                reported.iter().copied(),
                ground_truth.iter().copied(),
                total_links,
            );
            let mut pair_counts: Vec<((NodeId, LinkId), u64)> =
                log.by_pair.iter().map(|(k, v)| (*k, v.count)).collect();
            pair_counts.sort_unstable_by_key(|&(k, _)| k);
            VariantResult {
                name: spec.name.clone(),
                reported,
                metrics,
                reported_pairs: log.reported_pairs.iter().copied().collect(),
                pair_counts,
                raises: log.raises,
                ratios: ratios.to_vec(),
            }
        })
        .collect::<Vec<VariantResult>>();
    ScenarioOutcome {
        ground_truth,
        t_fail,
        window,
        variants,
        stats,
    }
}

/// Run many scenarios of one setup in parallel.
///
/// **Ordering contract:** `outcomes[i]` is the outcome of `kinds[i]`, for
/// every worker count — [`par_map`] fills one slot per index — because the
/// checkpoint replay of `db-runner` and a fresh run must agree
/// byte-for-byte.
pub fn sweep(setup: &ScenarioSetup, kinds: Vec<ScenarioKind>) -> Vec<ScenarioOutcome> {
    par_map(kinds, |kind| run_scenario(setup, kind))
}

/// Links traversed by at least one routed path — the links whose failure is
/// observable from traffic at all. Shortest-path routing on the synthetic
/// stand-in topologies leaves a few links dark (no flow ever crosses them);
/// no passive monitoring system can localize a failure there, so sweeps
/// report them separately.
pub fn covered_links(prep: &Prepared) -> Vec<LinkId> {
    let n = prep.topo.node_count();
    let load = if n <= SCALE_NODE_THRESHOLD {
        // Exact all-pairs pass, identical to the historical RouteTable scan.
        link_load(prep, ordered_pairs(n).map(|(s, d)| prep.routes.path(s, d)))
    } else {
        // Scale regime: "covered" means carried by the canonical sampled
        // workload, so failing a covered link is guaranteed observable
        // from traffic.
        sampled_link_load(prep)
    };
    let links = (0..prep.topo.link_count() as u16).map(LinkId);
    links.filter(|l| load[l.idx()] > 0).collect()
}

/// How many of `paths` cross each link.
fn link_load(prep: &Prepared, paths: impl Iterator<Item = impl Borrow<Path>>) -> Vec<u32> {
    let mut load = vec![0u32; prep.topo.link_count()];
    for path in paths {
        for &l in &path.borrow().links {
            load[l.idx()] += 1;
        }
    }
    load
}

/// Flows of the canonical sampled workload (full density, seed 1 — the
/// scenario commands' default) crossing each link.
fn sampled_link_load(prep: &Prepared) -> Vec<u32> {
    let traffic = TrafficConfig::with_density(1.0);
    let flows = TrafficGen::generate_sampled(&prep.topo, prep.routes.as_ref(), &traffic, 1);
    link_load(prep, flows.iter().map(|f| &f.path))
}

/// The covered link crossed by the most flows of the canonical sampled
/// workload, ties to the smaller id — the scale regime's best-observed
/// failure candidate. On a sparse sampled workload an arbitrary covered
/// link may carry a single flow, too weak a signal for the equation-(1)
/// thresholds; the busiest link is where a failure is most observable.
pub fn busiest_sampled_link(prep: &Prepared) -> Option<LinkId> {
    let load = sampled_link_load(prep);
    let busiest = (0..load.len()).max_by_key(|&i| (load[i], std::cmp::Reverse(i)));
    busiest.filter(|&i| load[i] > 0).map(|i| LinkId(i as u16))
}

/// The link whose failure one scenario shows best: the first covered link
/// at or below [`SCALE_NODE_THRESHOLD`] nodes, the
/// [`busiest_sampled_link`] above it, where the sampled workload is sparse
/// and an arbitrary covered link may carry a single flow. The error says
/// which of the two came up empty.
pub fn most_observable_link(prep: &Prepared) -> Result<LinkId, &'static str> {
    if prep.topo.node_count() <= SCALE_NODE_THRESHOLD {
        let covered = covered_links(prep);
        covered
            .first()
            .copied()
            .ok_or("topology has no covered links to fail")
    } else {
        busiest_sampled_link(prep).ok_or("sampled workload crosses no links")
    }
}

/// Sample `n` covered links, deterministically.
pub fn sample_covered_links(prep: &Prepared, n: usize, seed: u64) -> Vec<LinkId> {
    let covered = covered_links(prep);
    let n = n.min(covered.len());
    let mut rng = Pcg64::new_stream(seed, 0x5A12);
    let mut picks = rng.sample_indices(covered.len(), n);
    picks.sort_unstable();
    picks.into_iter().map(|i| covered[i]).collect()
}

/// Deterministically sample `n` distinct nodes.
pub fn sample_nodes(topo: &Topology, n: usize, seed: u64) -> Vec<NodeId> {
    let n = n.min(topo.node_count());
    let mut rng = Pcg64::new_stream(seed, 0x40DE);
    let mut picks = rng.sample_indices(topo.node_count(), n);
    picks.sort_unstable();
    picks.into_iter().map(|i| NodeId(i as u16)).collect()
}

/// Macro-average the metrics of each variant across scenario outcomes.
/// Returns `(variant name, averaged metrics)` in variant order.
pub fn average_by_variant(outcomes: &[ScenarioOutcome]) -> Vec<(String, LocalizationMetrics)> {
    assert!(!outcomes.is_empty(), "no outcomes to average");
    let names: Vec<String> = outcomes[0]
        .variants
        .iter()
        .map(|v| v.name.clone())
        .collect();
    names
        .into_iter()
        .map(|name| {
            let mut acc = MetricsAccum::new();
            for o in outcomes {
                let v = o.variant(&name).expect("same variants in every outcome");
                acc.add(&v.metrics);
            }
            (name, acc.mean())
        })
        .collect()
}

/// Ratio cap for the Fig.-11 CDFs: inferences whose runner-up weight is not
/// positive have effectively infinite dominance; they contribute the cap.
pub const RATIO_CAP: f64 = 64.0;

/// Partition sampled drifted-inference ratios into the two Fig.-11 CDF
/// groups across outcomes (the variant named `variant` must have ratio
/// sampling enabled).
///
/// For an inference containing a ground-truth failed link with positive
/// weight: ratio of the failed link's weight to the strongest positive
/// innocent weight. Otherwise: `w0 / w1`. Inferences whose runner-up weight
/// is not positive are skipped — the β condition of equation (1) is vacuous
/// for them (a sole accused link always dominates), so they carry no
/// information about choosing β.
pub fn beta_ratio_groups(outcomes: &[ScenarioOutcome], variant: &str) -> (Vec<f64>, Vec<f64>) {
    let mut with_failed = Vec::new();
    let mut clean = Vec::new();
    for o in outcomes {
        let truth: std::collections::BTreeSet<LinkId> = o.ground_truth.iter().copied().collect();
        let Some(v) = o.variant(variant) else {
            continue;
        };
        for s in &v.ratios {
            let failed_w = s
                .entries
                .iter()
                .filter(|(l, w)| truth.contains(l) && *w > 0.0)
                .map(|(_, w)| *w)
                .fold(f64::NEG_INFINITY, f64::max);
            if failed_w > 0.0 {
                let innocent_w = s
                    .entries
                    .iter()
                    .filter(|(l, _)| !truth.contains(l))
                    .map(|(_, w)| *w)
                    .fold(f64::NEG_INFINITY, f64::max);
                if innocent_w > 0.0 {
                    with_failed.push((failed_w / innocent_w).min(RATIO_CAP));
                }
            } else {
                let w0 = s.entries.first().map(|(_, w)| *w).unwrap_or(0.0);
                let w1 = s.entries.get(1).map(|(_, w)| *w).unwrap_or(0.0);
                if w0 > 0.0 && w1 > 0.0 {
                    clean.push((w0 / w1).min(RATIO_CAP));
                }
            }
        }
    }
    (with_failed, clean)
}

/// Warning-locality histogram (Fig. 12): warning **frequency** of true
/// warnings (accusing an actually failed link), bucketed by the hop distance
/// from the raising switch to that link. Returns total raise counts indexed
/// by distance.
pub fn locality_histogram(
    outcomes: &[ScenarioOutcome],
    topo: &Topology,
    variant: &str,
) -> Vec<u64> {
    let mut hist: Vec<u64> = Vec::new();
    for o in outcomes {
        let truth: std::collections::BTreeSet<LinkId> = o.ground_truth.iter().copied().collect();
        let Some(v) = o.variant(variant) else {
            continue;
        };
        for &((switch, link), count) in &v.pair_counts {
            if !truth.contains(&link) || switch == crate::system::DCA_NODE {
                continue;
            }
            let d = topo.distance_to_link(switch, link) as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += count;
        }
    }
    hist
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classifier::{prepare, PrepareConfig};
    use db_topology::zoo;
    use std::sync::OnceLock;

    /// One shared prepared grid topology — training is the slow part of
    /// these tests, do it once.
    pub(crate) fn grid_prep() -> &'static Prepared {
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

    #[test]
    fn single_link_failure_is_localized_on_grid() {
        let prep = grid_prep();
        let setup = ScenarioSetup::flagship(prep, 1.0, 42);
        // A central link of the 3x3 grid.
        let link = prep
            .topo
            .link_between(NodeId(4), NodeId(5))
            .expect("grid center link");
        let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(link));
        assert_eq!(outcome.ground_truth, vec![link]);
        let v = outcome.variant("Drift-Bottle").unwrap();
        assert!(
            v.reported.contains(&link),
            "culprit not reported: reported = {:?}, raises = {}",
            v.reported,
            v.raises
        );
        assert!(v.metrics.recall > 0.99);
        assert!(
            v.metrics.precision >= 0.5,
            "precision too low: {:?}",
            v.reported
        );
    }

    #[test]
    fn healthy_scenario_has_low_fpr() {
        let prep = grid_prep();
        let setup = ScenarioSetup::flagship(prep, 1.0, 7);
        let outcome = run_scenario(&setup, &ScenarioKind::None);
        let v = outcome.variant("Drift-Bottle").unwrap();
        assert!(outcome.ground_truth.is_empty());
        assert!(
            v.metrics.fpr < 0.2,
            "healthy FPR too high: {} ({:?})",
            v.metrics.fpr,
            v.reported
        );
    }

    #[test]
    fn node_failure_reports_incident_links() {
        let prep = grid_prep();
        let mut setup = ScenarioSetup::flagship(prep, 1.0, 9);
        // Thresholds are network-scale parameters (§4.3); a 9-switch grid
        // cannot satisfy the 40-node defaults after losing its center.
        setup.sys.warning = db_inference::WarningConfig {
            hop_min: 3,
            alpha: 1.0,
            beta: 2.0,
        };
        let outcome = run_scenario(&setup, &ScenarioKind::Node(NodeId(4)));
        assert_eq!(outcome.ground_truth.len(), 4, "grid center has degree 4");
        let v = outcome.variant("Drift-Bottle").unwrap();
        assert!(
            v.metrics.recall > 0.0,
            "at least some incident links must be found: {:?}",
            v.reported
        );
        assert!(v.metrics.precision > 0.4, "{:?}", v.reported);
    }

    #[test]
    fn sweep_runs_in_parallel_and_averages() {
        let prep = grid_prep();
        let setup = ScenarioSetup::flagship(prep, 1.0, 11);
        let links = sample_covered_links(prep, 3, 1);
        let kinds: Vec<ScenarioKind> = links.into_iter().map(ScenarioKind::SingleLink).collect();
        let outcomes = sweep(&setup, kinds);
        assert_eq!(outcomes.len(), 3);
        let avg = average_by_variant(&outcomes);
        assert_eq!(avg.len(), 1);
        assert_eq!(avg[0].0, "Drift-Bottle");
        assert!(avg[0].1.recall > 0.5, "avg recall {:?}", avg[0].1);
    }

    #[test]
    fn sweep_outcomes_follow_unit_index_order() {
        // The ordering contract: outcomes[i] belongs to kinds[i], exactly
        // as a sequential loop would produce them.
        let prep = grid_prep();
        let setup = ScenarioSetup::flagship(prep, 1.0, 11);
        let links = sample_covered_links(prep, 3, 1);
        let kinds: Vec<ScenarioKind> = links.into_iter().map(ScenarioKind::SingleLink).collect();
        let parallel = sweep(&setup, kinds.clone());
        let sequential: Vec<ScenarioOutcome> =
            kinds.iter().map(|k| run_scenario(&setup, k)).collect();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.ground_truth, s.ground_truth);
            assert_eq!(p.variants[0].reported, s.variants[0].reported);
            assert_eq!(p.variants[0].raises, s.variants[0].raises);
            assert_eq!(p.stats, s.stats);
        }
    }

    #[test]
    fn scenario_kinds_build_correct_ground_truth() {
        let prep = grid_prep();
        let t = SimTime::from_ms(50);
        let topo = &prep.topo;
        assert!(ScenarioKind::None.build(prep, t).events.is_empty());
        let s = ScenarioKind::RandomLinks { count: 3, seed: 5 }.build(prep, t);
        let failed = s.failed_links_at(topo, t);
        assert_eq!(failed.len(), 3);
        // Random failures only hit covered links.
        let covered = covered_links(prep);
        assert!(failed.iter().all(|l| covered.contains(l)));
        let c = ScenarioKind::Corruption(LinkId(0), 0.3).build(prep, t);
        assert_eq!(c.failed_links_at(topo, t), vec![LinkId(0)]);
    }

    #[test]
    fn sampling_helpers_are_deterministic_and_sorted() {
        let prep = grid_prep();
        let a = sample_covered_links(prep, 5, 3);
        let b = sample_covered_links(prep, 5, 3);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let n = sample_nodes(&prep.topo, 4, 3);
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn run_is_deterministic() {
        let prep = grid_prep();
        let setup = ScenarioSetup::flagship(prep, 1.0, 13);
        let link = LinkId(2);
        let a = run_scenario(&setup, &ScenarioKind::SingleLink(link));
        let b = run_scenario(&setup, &ScenarioKind::SingleLink(link));
        assert_eq!(a.variants[0].reported, b.variants[0].reported);
        assert_eq!(a.variants[0].raises, b.variants[0].raises);
        assert_eq!(a.stats, b.stats);
    }
}
