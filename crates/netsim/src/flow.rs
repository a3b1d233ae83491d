//! Flow identity and specification.
//!
//! Monitoring targets are **unidirectional** flows identified by
//! `<IPsrc, IPdst>` (§2.2); with one host per switch this is the ordered
//! switch pair `(src, dst)`. A [`FlowSpec`] fixes everything about a flow
//! before the simulation starts: its routed path, start time, volume, and
//! PPBP emission parameters.

use crate::time::SimTime;
use db_topology::{NodeId, Path};

/// Dense index of a flow in the simulation's flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The index as `usize`, for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// PPBP emission parameters for one flow.
///
/// Bursts (Poisson arrivals, Pareto durations) modulate the rate between a
/// steady `base_pps` — the ACK-clocked floor a transport maintains in steady
/// state (§2.2: "an active flow will reach a steady state with stable
/// transmission rate") — and the in-burst `burst_pps`.
#[derive(Debug, Clone, PartialEq)]
pub struct PpbpParams {
    /// Packet rate inside a burst, packets per second.
    pub burst_pps: f64,
    /// Steady packet rate between bursts, packets per second.
    pub base_pps: f64,
    /// Burst arrival rate (Poisson), bursts per second.
    pub burst_rate: f64,
    /// Minimum burst duration (Pareto scale), seconds.
    pub burst_min_s: f64,
    /// Pareto shape of burst duration; `1 < alpha < 2` for self-similarity.
    pub burst_alpha: f64,
}

impl Default for PpbpParams {
    fn default() -> Self {
        PpbpParams {
            burst_pps: 900.0,
            base_pps: 400.0,
            burst_rate: 40.0,
            burst_min_s: 0.005,
            burst_alpha: 1.4,
        }
    }
}

/// Immutable description of one unidirectional flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Flow id (index into the flow table).
    pub id: FlowId,
    /// Source switch (the switch the sending host attaches to).
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
    /// The routed path from `src` to `dst`.
    pub path: Path,
    /// When the sender starts.
    pub start: SimTime,
    /// Total bytes the flow will send (long-tailed across flows).
    pub total_bytes: u64,
    /// PPBP emission parameters.
    pub ppbp: PpbpParams,
    /// Round-trip time of the flow's path in milliseconds (forward +
    /// reverse propagation), used for monitoring features and RTO grace.
    pub rtt_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_display_and_idx() {
        assert_eq!(FlowId(7).to_string(), "f7");
        assert_eq!(FlowId(7).idx(), 7);
    }

    #[test]
    fn default_ppbp_is_self_similar_regime() {
        let p = PpbpParams::default();
        assert!(p.burst_alpha > 1.0 && p.burst_alpha < 2.0);
        assert!(p.burst_pps > 0.0);
    }
}
