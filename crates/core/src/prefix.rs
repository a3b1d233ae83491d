//! The healthy prefix of a scenario, simulated once and shared.
//!
//! Every scenario of the §6.2 protocol warms the network up until `t_fail`
//! and only then differs from its neighbours, so the units of a fixed-seed
//! sweep all start by simulating the same thing. A [`ScenarioSetup`] and
//! its clones hold one [`SharedPrefix`] slot between them; `run_scenario`
//! asks it for the state at `t_fail` and gets a fork of the kept one when
//! there is one.
//!
//! **Admission is on second touch.** The first request for a key only
//! leaves the key behind; the second simulates as the first did, then
//! leaves a copy; the third and later fork that copy. The traffic decides
//! this: one-shot commands (`fail`, `node`, `health`, `report`, the
//! examples, a 10k-node localization) ask once and must neither pay a
//! clone nor keep megabytes alive, while a sweep asks hundreds of times
//! and loses one clone. A sweep whose units each bring their own seed
//! never repeats a key and never pays anything.
//!
//! The lock guards the slot only: it is never held while a prefix is
//! simulated or copied, so concurrent first and second requests each
//! simulate their own and the first copy to arrive is kept.
//!
//! [`ScenarioSetup`]: crate::experiment::ScenarioSetup

use crate::config::{SystemConfig, VariantSpec};
use crate::engine::Engine;
use crate::experiment::ScenarioSetup;
use db_dtree::TableClassifier;
use db_netsim::Simulator;
use db_util::sync::lock_recover;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The batch simulation: the streaming engine over the deployed rule table,
/// driven by the simulator as its observer.
pub(crate) type BatchSim<'a> = Simulator<'a, Engine<TableClassifier>>;

/// Everything that shapes a setup's run up to `t_fail`, read when the run
/// starts — a setup's fields are public and clones share a slot, so the
/// key is what says whether two requests want the same prefix. The
/// prepared topology is compared by address: both references live as long
/// as the slot does, so equal addresses are the same, unchanged value.
#[derive(Clone, PartialEq)]
pub(crate) struct PrefixKey {
    prep: usize,
    density: u64,
    seed: u64,
    sys: SystemConfig,
    variants: Vec<VariantSpec>,
    background_loss: u64,
}

impl PrefixKey {
    pub(crate) fn of(setup: &ScenarioSetup) -> PrefixKey {
        PrefixKey {
            prep: std::ptr::from_ref(setup.prep) as usize,
            density: setup.density.to_bits(),
            seed: setup.seed,
            sys: setup.sys.clone(),
            variants: setup.variants.clone(),
            background_loss: setup.background_loss.to_bits(),
        }
    }
}

/// The last key asked for, and its prefix once it was asked for twice.
struct Slot<'a> {
    key: PrefixKey,
    prefix: Option<Arc<BatchSim<'a>>>,
}

/// One slot, shared by a setup and every clone of it.
#[derive(Clone, Default)]
pub(crate) struct SharedPrefix<'a>(Arc<Mutex<Option<Slot<'a>>>>);

impl fmt::Debug for SharedPrefix<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedPrefix")
    }
}

fn fork<'a>(sim: &BatchSim<'a>) -> BatchSim<'a> {
    sim.fork(sim.observer().fork())
}

impl<'a> SharedPrefix<'a> {
    /// The simulation `simulate` produces — a healthy run of the setup
    /// `key` describes, stopped at `t_fail` — from the slot when it holds
    /// one, else from `simulate` itself (see the module docs).
    pub(crate) fn at_failure(
        &self,
        key: &PrefixKey,
        simulate: impl FnOnce() -> BatchSim<'a>,
    ) -> BatchSim<'a> {
        let seen = {
            let mut slot = lock_recover(&self.0);
            match &*slot {
                Some(s) if s.key == *key => Some(s.prefix.clone()),
                _ => {
                    *slot = Some(Slot {
                        key: key.clone(),
                        prefix: None,
                    });
                    None
                }
            }
        };
        match seen {
            None => simulate(),
            Some(Some(prefix)) => fork(&prefix),
            Some(None) => {
                let sim = simulate();
                let copy = Arc::new(fork(&sim));
                if let Some(s) = &mut *lock_recover(&self.0) {
                    if s.key == *key && s.prefix.is_none() {
                        s.prefix = Some(copy);
                    }
                }
                sim
            }
        }
    }

    /// Whether the slot holds a prefix (as opposed to nothing, or a key
    /// seen once).
    #[cfg(test)]
    pub(crate) fn holds_prefix(&self) -> bool {
        lock_recover(&self.0)
            .as_ref()
            .is_some_and(|s| s.prefix.is_some())
    }
}

#[cfg(test)]
mod tests {
    use crate::experiment::tests::grid_prep;
    use crate::experiment::{run_scenario, ScenarioKind, ScenarioOutcome, ScenarioSetup};
    use crate::VariantSpec;
    use db_telemetry::{FlightRecorder, ScopeRecorder, TraceData};
    use db_topology::LinkId;
    use std::sync::{Arc, Barrier};

    /// The four fig-8 variants (wire, side-table and both centralized
    /// forms) with ratio sampling on, so every kind of forked state shows
    /// in the outcome.
    fn setup() -> ScenarioSetup<'static> {
        let mut setup = ScenarioSetup::flagship(grid_prep(), 1.0, 42);
        setup.variants = VariantSpec::fig8_set();
        setup.sys.ratio_sampling = 8;
        setup
    }

    /// What a setup nobody ran before answers.
    fn fresh(adjust: impl Fn(&mut ScenarioSetup), kind: &ScenarioKind) -> ScenarioOutcome {
        let mut setup = setup();
        adjust(&mut setup);
        assert!(!setup.prefix.holds_prefix());
        run_scenario(&setup, kind)
    }

    fn warmed() -> ScenarioSetup<'static> {
        let setup = setup();
        for _ in 0..2 {
            run_scenario(&setup, &ScenarioKind::None);
        }
        assert!(setup.prefix.holds_prefix(), "second touch admits");
        setup
    }

    #[test]
    fn one_run_keeps_nothing() {
        let setup = setup();
        run_scenario(&setup, &ScenarioKind::SingleLink(LinkId(7)));
        assert!(!setup.prefix.holds_prefix());
    }

    /// Every field that shapes the prefix is in the key: a clone of a
    /// warmed setup with one of them changed must answer as a fresh setup
    /// with that value does — on its first run, which finds the other
    /// key's prefix in the slot, and on its third, which forks its own —
    /// and the original, run again, must get its own answer back.
    #[test]
    fn every_field_that_shapes_the_prefix_is_in_the_key() {
        let kind = ScenarioKind::SingleLink(LinkId(7));
        let base = warmed();
        let base_outcome = fresh(|_| {}, &kind);
        type Change = fn(&mut ScenarioSetup);
        let changes: [(&str, Change); 7] = [
            ("seed", |s| s.seed = 43),
            ("density", |s| s.density = 0.8),
            ("background_loss", |s| s.background_loss = 0.01),
            ("sys.k", |s| s.sys.k = 2),
            ("sys.warning", |s| s.sys.warning.hop_min = 2),
            ("sys.ratio_sampling", |s| s.sys.ratio_sampling = 3),
            ("variants", |s| s.variants = VariantSpec::fig7_set()),
        ];
        for (what, change) in changes {
            let want = fresh(change, &kind);
            assert_ne!(want, base_outcome, "{what} does not show in the outcome");
            let mut changed = base.clone();
            change(&mut changed);
            for run in 1..=3 {
                assert_eq!(run_scenario(&changed, &kind), want, "{what}, run {run}");
            }
            assert!(changed.prefix.holds_prefix());
            for run in 1..=3 {
                assert_eq!(
                    run_scenario(&base, &kind),
                    base_outcome,
                    "{what} changed back, run {run}"
                );
            }
            assert!(base.prefix.holds_prefix(), "{what} changed back hits again");
        }
    }

    #[test]
    fn concurrent_runs_on_clones_of_a_cold_setup_agree_with_sequential_ones() {
        let kinds: Vec<ScenarioKind> = (0..8)
            .map(|l| ScenarioKind::SingleLink(LinkId(l)))
            .collect();
        let want: Vec<ScenarioOutcome> = kinds.iter().map(|k| fresh(|_| {}, k)).collect();
        let cold = setup();
        let start = Barrier::new(kinds.len());
        let got: Vec<ScenarioOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = kinds
                .iter()
                .map(|kind| {
                    let (setup, start) = (cold.clone(), &start);
                    s.spawn(move || {
                        start.wait();
                        // Twice each: the second round meets whatever the
                        // first left in the slot.
                        let first = run_scenario(&setup, kind);
                        assert_eq!(run_scenario(&setup, kind), first);
                        first
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a unit panicked"))
                .collect()
        });
        assert_eq!(got, want);
        assert!(cold.prefix.holds_prefix());
    }

    /// Recorder contents of one observed run of `setup`.
    fn observed(setup: &ScenarioSetup, kind: &ScenarioKind) -> (ScenarioOutcome, Vec<u8>, String) {
        let flight = Arc::new(FlightRecorder::new(1 << 22));
        let scope = Arc::new(ScopeRecorder::default());
        let mut setup = setup.clone();
        setup.instr.flight = Some(flight.clone());
        setup.instr.scope = Some(scope.clone());
        let outcome = run_scenario(&setup, kind);
        assert_eq!(flight.dropped(), 0, "ring must not wrap for a byte compare");
        let digest = TraceData::from_json_str(&scope.to_trace_json())
            .expect("trace parses")
            .deterministic_digest();
        (outcome, flight.snapshot().to_bytes(), digest)
    }

    #[test]
    fn an_observed_run_neither_reads_nor_fills_the_slot() {
        let kind = ScenarioKind::SingleLink(LinkId(7));
        let want = observed(&setup(), &kind);
        assert_eq!(want.0, fresh(|_| {}, &kind), "recorders are observational");

        let warm = warmed();
        let got = observed(&warm, &kind);
        assert_eq!(got.0, want.0);
        assert!(got.1 == want.1, "flight bytes differ on a warmed setup");
        assert_eq!(got.2, want.2, "scope digest differs on a warmed setup");
        assert!(warm.prefix.holds_prefix());

        // On a cold setup an observed run is not a first touch either.
        let cold = setup();
        observed(&cold, &kind);
        run_scenario(&cold, &kind);
        assert!(!cold.prefix.holds_prefix());
        run_scenario(&cold, &kind);
        assert!(cold.prefix.holds_prefix());
    }
}
