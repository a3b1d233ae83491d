//! Sweep work units and their terminal states.

use db_core::experiment::ScenarioKind;
use db_core::ScenarioOutcome;

/// One deterministic work unit of a sweep: a scenario to simulate plus its
/// workload seed. The prepared topology and the variant list live on the
/// sweep, shared by every unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// Position in the sweep's scenario list — the unit's identity in the
    /// checkpoint and the sort key of the final outcome order.
    pub unit: usize,
    /// What fails in this unit.
    pub kind: ScenarioKind,
    /// Workload seed: the sweep's, the same for every unit (§6 protocol:
    /// all scenarios observe one workload and differ only in what fails).
    pub seed: u64,
}

/// Terminal state of one executed unit.
// `Done` carries the full outcome in place — unit statuses are created
// once per multi-second simulation and immediately moved into the report,
// so boxing would add indirection for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum UnitStatus {
    /// The scenario ran to completion.
    Done(ScenarioOutcome),
    /// The unit panicked; the sweep continued without it. Carries the
    /// panic message.
    Failed(String),
}

/// A unit's identity plus its terminal state — the checkpoint record.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutcome {
    /// Unit index within the sweep.
    pub unit: usize,
    /// How the unit ended.
    pub status: UnitStatus,
}

impl UnitOutcome {
    /// The scenario outcome, if the unit completed.
    pub fn outcome(&self) -> Option<&ScenarioOutcome> {
        match &self.status {
            UnitStatus::Done(o) => Some(o),
            UnitStatus::Failed(_) => None,
        }
    }

    /// The failure message, if the unit failed.
    pub fn error(&self) -> Option<&str> {
        match &self.status {
            UnitStatus::Done(_) => None,
            UnitStatus::Failed(e) => Some(e),
        }
    }
}
