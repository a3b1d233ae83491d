//! Workload generation: flow selection and the PPBP packet-emission process.
//!
//! §6.1: "the flows between each pair of hosts are generated randomly based
//! on the preset flow density; the total bytes transmitted by the generated
//! flows obey long-tailed distribution; the packet-sending process on each
//! host obeys PPBP model \[32\] in order to maintain self-similarity in
//! statistics."
//!
//! PPBP (Poisson Pareto Burst Process): bursts arrive as a Poisson process;
//! each burst lasts a Pareto-distributed duration with shape `1 < α < 2`;
//! within a burst, packets are emitted at a (jittered) constant rate. The
//! heavy-tailed burst durations make the aggregate long-range dependent.

use crate::flow::{FlowId, FlowSpec, PpbpParams};
use crate::time::SimTime;
use db_topology::{ordered_pairs, NodeId, Routes, Topology, SCALE_NODE_THRESHOLD};
use db_util::dist::{BoundedPareto, Exp, Pareto};
use db_util::Pcg64;

/// Bounded-Pareto flow volume: minimum bytes. The floor keeps flows alive
/// well past a ~300 ms experiment horizon, matching §6.1 where simulations
/// span about one maximum RTT and monitored flows are in steady state
/// throughout. (Flow endings — the §2.2 confuser — are exercised by the
/// `Sender` unit tests' own small `FlowSpec`s.)
const FLOW_BYTES_MIN: f64 = 1e6;

/// Bounded-Pareto flow volume: maximum bytes.
const FLOW_BYTES_MAX: f64 = 100e6;

/// Bounded-Pareto flow volume: shape.
const FLOW_BYTES_ALPHA: f64 = 1.15;

/// Parameters of the workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Probability that an ordered host pair carries a flow (§6.1 flow
    /// density, swept 0.1–1.0 in Fig. 7).
    pub density: f64,
    /// Flow start times are spread uniformly over `[0, start_spread)` so the
    /// network is in steady state before failures are injected.
    pub start_spread: SimTime,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            density: 1.0,
            start_spread: SimTime::from_ms(20),
        }
    }
}

impl TrafficConfig {
    /// A config with the given flow density and defaults elsewhere.
    pub fn with_density(density: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        TrafficConfig {
            density,
            ..Default::default()
        }
    }
}

/// Deterministic workload generator.
pub struct TrafficGen;

impl TrafficGen {
    /// Generate the flow table for a topology.
    ///
    /// Each **ordered** pair of distinct switches carries a unidirectional
    /// flow with probability `cfg.density`; the result is a pure function of
    /// `(topology, cfg, seed)`. `O(n²)` pair visits — scale callers go
    /// through [`TrafficGen::generate_auto`].
    pub fn generate(
        _topo: &Topology,
        routes: &dyn Routes,
        cfg: &TrafficConfig,
        seed: u64,
    ) -> Vec<FlowSpec> {
        let mut rng = Pcg64::new_stream(seed, 0x7AFF1C);
        let volume = BoundedPareto::new(FLOW_BYTES_MIN, FLOW_BYTES_MAX, FLOW_BYTES_ALPHA);
        let mut flows = Vec::new();
        for (src, dst) in ordered_pairs(routes.node_count()) {
            if !rng.chance(cfg.density) {
                continue;
            }
            let rtt_ms = routes.rtt_ms(src, dst);
            Self::push_flow(&mut flows, routes, src, dst, rtt_ms, cfg, &volume, &mut rng);
        }
        flows
    }

    /// Scale-regime workload: instead of rolling a density die per ordered
    /// pair (`O(n²)` RNG draws), sample `⌈2048·density⌉` flows grouped as
    /// sources × up to 32 destinations each. Grouping by source bounds the
    /// number of distinct shortest-path trees the on-demand router computes
    /// to the source count, and the per-flow RTT is estimated as `2 ×
    /// one-way latency` so destination trees are never needed. Still a pure
    /// function of `(routes, cfg, seed)`.
    pub fn generate_sampled(
        _topo: &Topology,
        routes: &dyn Routes,
        cfg: &TrafficConfig,
        seed: u64,
    ) -> Vec<FlowSpec> {
        let n = routes.node_count();
        let mut rng = Pcg64::new_stream(seed, 0x7AFF1C);
        let volume = BoundedPareto::new(FLOW_BYTES_MIN, FLOW_BYTES_MAX, FLOW_BYTES_ALPHA);
        let target = (2048.0 * cfg.density).round() as usize;
        let mut flows = Vec::new();
        if target == 0 {
            return flows;
        }
        let per_source = 32usize.min(n - 1);
        let n_sources = target.div_ceil(per_source).min(n);
        let sources = rng.sample_indices(n, n_sources);
        'outer: for s in sources {
            let src = NodeId(s as u16);
            let mut dests = rng.sample_indices(n, (per_source + 1).min(n));
            dests.retain(|&d| d != s);
            dests.truncate(per_source);
            for d in dests {
                let dst = NodeId(d as u16);
                let rtt_ms = 2.0 * routes.latency_ms(src, dst);
                Self::push_flow(&mut flows, routes, src, dst, rtt_ms, cfg, &volume, &mut rng);
                if flows.len() >= target {
                    break 'outer;
                }
            }
        }
        flows
    }

    /// Dispatch on graph size: exact per-pair generation (bit-identical to
    /// the historical behavior) at or below [`SCALE_NODE_THRESHOLD`],
    /// sampled above it.
    pub fn generate_auto(
        topo: &Topology,
        routes: &dyn Routes,
        cfg: &TrafficConfig,
        seed: u64,
    ) -> Vec<FlowSpec> {
        if routes.node_count() <= SCALE_NODE_THRESHOLD {
            Self::generate(topo, routes, cfg, seed)
        } else {
            Self::generate_sampled(topo, routes, cfg, seed)
        }
    }

    /// Shared per-flow tail: id assignment, path lookup, and the start /
    /// volume / PPBP-jitter draws in the exact historical RNG order.
    #[allow(clippy::too_many_arguments)]
    fn push_flow(
        flows: &mut Vec<FlowSpec>,
        routes: &dyn Routes,
        src: NodeId,
        dst: NodeId,
        rtt_ms: f64,
        cfg: &TrafficConfig,
        volume: &BoundedPareto,
        rng: &mut Pcg64,
    ) {
        let id = FlowId(flows.len() as u32);
        let path = routes.path(src, dst);
        let start = SimTime::from_ns(rng.below(cfg.start_spread.as_ns().max(1)));
        let total_bytes = volume.sample(rng) as u64;
        // Per-flow PPBP parameter jitter so flows are heterogeneous.
        let ppbp = PpbpParams {
            burst_pps: rng.range_f64(600.0, 1_200.0),
            base_pps: rng.range_f64(350.0, 500.0),
            burst_rate: rng.range_f64(30.0, 60.0),
            burst_min_s: rng.range_f64(0.004, 0.008),
            burst_alpha: 1.4,
        };
        flows.push(FlowSpec {
            id,
            src,
            dst,
            path,
            start,
            total_bytes,
            ppbp,
            rtt_ms,
        });
    }
}

/// Live sender state implementing the PPBP emission process for one flow.
///
/// The engine drives it: [`Sender::next_gap`] yields the time until the next
/// packet; [`Sender::next_packet_size`] the size of the packet to send.
#[derive(Debug, Clone)]
pub struct Sender {
    /// Bytes not yet sent.
    pub bytes_left: u64,
    /// Next data sequence number.
    pub next_seq: u64,
    /// The current burst lasts until this time (exclusive).
    in_burst_until: SimTime,
    /// Arrival time of the next Poisson burst, once drawn.
    next_burst_at: Option<SimTime>,
    /// Whether the sender has stalled waiting for transport feedback (RTO).
    pub stalled: bool,
    /// Last time any acknowledgement was received (or the initial grace).
    pub last_feedback: SimTime,
    rng: Pcg64,
    ppbp: PpbpParams,
    small_pkt_prob: f64,
}

impl Sender {
    /// Initialize sender state for a flow.
    pub fn new(spec: &FlowSpec, small_pkt_prob: f64, seed: u64) -> Self {
        let rng = Pcg64::new_stream(seed, 0x5E4D_0000 | spec.id.0 as u64);
        // Feedback grace: the first ACK cannot arrive before one RTT.
        let grace = SimTime::from_ms_f64(spec.rtt_ms + 1.0);
        Sender {
            bytes_left: spec.total_bytes,
            next_seq: 0,
            in_burst_until: SimTime::ZERO,
            next_burst_at: None,
            stalled: false,
            last_feedback: spec.start + grace,
            rng,
            ppbp: spec.ppbp.clone(),
            small_pkt_prob,
        }
    }

    /// Whether the flow has sent all of its bytes.
    pub fn done(&self) -> bool {
        self.bytes_left == 0
    }

    /// Time from `now` until the next packet emission.
    ///
    /// Inside a burst: one (jittered) in-burst inter-packet gap. Outside a
    /// burst the sender keeps the steady base rate; when the next Poisson
    /// burst arrival falls before the next base-rate packet, the burst
    /// starts instead (its Pareto duration is drawn at that moment).
    pub fn next_gap(&mut self, now: SimTime) -> SimTime {
        if now < self.in_burst_until {
            let base = 1.0 / self.ppbp.burst_pps;
            let jittered = base * (0.8 + 0.4 * self.rng.f64());
            return SimTime::from_secs_f64(jittered);
        }
        let next_burst = *self.next_burst_at.get_or_insert_with(|| {
            let idle = Exp::new(self.ppbp.burst_rate).sample(&mut self.rng);
            now + SimTime::from_secs_f64(idle)
        });
        let base_gap = (1.0 / self.ppbp.base_pps) * (0.8 + 0.4 * self.rng.f64());
        let base_next = now + SimTime::from_secs_f64(base_gap);
        if next_burst <= base_next {
            // The burst wins: draw its duration and emit its first packet.
            let duration = Pareto::new(self.ppbp.burst_min_s, self.ppbp.burst_alpha)
                .sample(&mut self.rng)
                // Cap pathological burst lengths at 1 s; the Pareto tail is
                // unbounded and a single flow must not burst forever.
                .min(1.0);
            self.in_burst_until = next_burst + SimTime::from_secs_f64(duration);
            self.next_burst_at = None;
            next_burst.saturating_sub(now)
        } else {
            SimTime::from_secs_f64(base_gap)
        }
    }

    /// Size of the next packet and bookkeeping of remaining bytes.
    pub fn next_packet_size(&mut self, mtu: u32) -> u32 {
        debug_assert!(self.bytes_left > 0, "next_packet_size on a finished flow");
        let mut size = mtu.min(self.bytes_left.min(u32::MAX as u64) as u32);
        if size == mtu && self.rng.chance(self.small_pkt_prob) {
            size = 200 + self.rng.below(600) as u32;
        }
        self.bytes_left -= size as u64;
        self.next_seq += 1;
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_topology::{zoo, RouteTable};

    fn spec_for_tests() -> FlowSpec {
        let topo = zoo::line(3);
        let routes = RouteTable::build(&topo);
        let mut flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 42);
        flows.remove(0)
    }

    #[test]
    fn density_one_covers_all_pairs() {
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(1.0), 1);
        assert_eq!(flows.len(), 4 * 3);
        // Ids are dense.
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.id.0 as usize, i);
            assert!(f.total_bytes >= 100_000);
            assert!(f.start < SimTime::from_ms(20));
        }
    }

    #[test]
    fn density_scales_flow_count() {
        let topo = zoo::geant2012();
        let routes = RouteTable::build(&topo);
        let all = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(1.0), 1).len();
        let half = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.5), 1).len();
        let none = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.0), 1).len();
        assert_eq!(all, 40 * 39);
        assert_eq!(none, 0);
        let ratio = half as f64 / all as f64;
        assert!((0.42..0.58).contains(&ratio), "half density ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = zoo::chinanet();
        let routes = RouteTable::build(&topo);
        let a = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.3), 9);
        let b = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.3), 9);
        assert_eq!(a, b);
        let c = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.3), 10);
        assert_ne!(a, c, "different seed must change the workload");
    }

    #[test]
    fn flow_volumes_are_long_tailed() {
        let topo = zoo::as1221();
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(1.0), 5);
        let mut vols: Vec<f64> = flows.iter().map(|f| f.total_bytes as f64).collect();
        vols.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vols[vols.len() / 2];
        let mean = vols.iter().sum::<f64>() / vols.len() as f64;
        assert!(
            mean > 2.0 * median,
            "volumes not long-tailed: mean {mean}, median {median}"
        );
    }

    #[test]
    fn sender_alternates_base_and_burst_rates() {
        let spec = spec_for_tests();
        let mut s = Sender::new(&spec, 0.0, 7);
        let burst_gap = 1.0 / spec.ppbp.burst_pps;
        let base_gap = 1.0 / spec.ppbp.base_pps;
        let mut near_burst = 0u32;
        let mut near_base = 0u32;
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            let g = s.next_gap(now).as_secs_f64();
            now += SimTime::from_secs_f64(g);
            if (burst_gap * 0.8..=burst_gap * 1.2).contains(&g) {
                near_burst += 1;
            } else if (base_gap * 0.8..=base_gap * 1.2).contains(&g) {
                near_base += 1;
            }
        }
        assert!(
            near_burst > 1_000,
            "no in-burst spacing seen ({near_burst})"
        );
        assert!(near_base > 1_000, "no base-rate spacing seen ({near_base})");
    }

    #[test]
    fn sender_rate_sits_between_base_and_burst() {
        // The PPBP + base model must average strictly between the base rate
        // and the in-burst rate over a long horizon.
        let spec = spec_for_tests();
        let mut s = Sender::new(&spec, 0.0, 3);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs_f64(5.0);
        let mut packets = 0u64;
        while now < horizon {
            now += s.next_gap(now);
            packets += 1;
        }
        let rate = packets as f64 / 5.0;
        assert!(
            rate > spec.ppbp.base_pps * 0.9,
            "rate {rate} below the base floor {}",
            spec.ppbp.base_pps
        );
        assert!(
            rate < spec.ppbp.burst_pps * 1.05,
            "rate {rate} above the burst ceiling {}",
            spec.ppbp.burst_pps
        );
    }

    #[test]
    fn active_intervals_are_rarely_silent() {
        // The base stream keeps every 4 ms sampling interval populated while
        // the flow is healthy — the property the flow-status classifier
        // (§4.1) keys on.
        let spec = spec_for_tests();
        let mut s = Sender::new(&spec, 0.0, 11);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs_f64(2.0);
        let interval = SimTime::from_ms(4);
        let mut counts = vec![0u32; (horizon.as_ns() / interval.as_ns()) as usize + 1];
        while now < horizon {
            now += s.next_gap(now);
            let idx = (now.as_ns() / interval.as_ns()) as usize;
            if idx < counts.len() {
                counts[idx] += 1;
            }
        }
        let silent = counts.iter().filter(|&&c| c == 0).count();
        let frac = silent as f64 / counts.len() as f64;
        assert!(frac < 0.05, "{:.1}% of intervals silent", 100.0 * frac);
    }

    #[test]
    fn sender_consumes_bytes_and_finishes() {
        let mut spec = spec_for_tests();
        spec.total_bytes = 4_000;
        let mut s = Sender::new(&spec, 0.0, 1);
        let mut sent = 0u64;
        while !s.done() {
            sent += s.next_packet_size(1500) as u64;
        }
        assert_eq!(sent, 4_000);
        assert_eq!(s.next_seq, 3, "4000 B = 1500+1500+1000");
    }

    #[test]
    fn small_packets_appear_with_probability() {
        let mut spec = spec_for_tests();
        spec.total_bytes = 10_000_000;
        let mut s = Sender::new(&spec, 0.5, 2);
        let mut small = 0;
        for _ in 0..1_000 {
            if s.next_packet_size(1500) < 1500 {
                small += 1;
            }
        }
        assert!((350..650).contains(&small), "got {small} small packets");
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn bad_density_rejected() {
        TrafficConfig::with_density(1.5);
    }
}
