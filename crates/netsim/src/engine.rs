//! The discrete-event simulation engine.
//!
//! A single-threaded, deterministic event loop. Events are ordered by
//! `(time, insertion sequence)` so simultaneous events process in a stable
//! order. Most events never enter a heap: a packet arrival over one link
//! direction, an ingress arrival and an ACK over one reverse-path delay
//! are scheduled in time order, so each such stream is a FIFO *lane*
//! (`EventQueue`) and a push onto a non-empty lane is an append. A
//! `BinaryHeap` of 24-byte keys merges the lanes by their heads with the
//! sends, ticks and injected failures: on a Geant2012 run ≈ 2 500 keys
//! stand for ≈ 37 600 pending events. Per event the engine does one append
//! or heap push, one pop (≈ log₂ of the key count levels) and O(1) model
//! work. Packets are value types, so the hot path allocates only when a
//! lane outgrows its capacity.
//!
//! Packet life cycle: `HostSend` at the source host → `Arrive` at the source
//! switch (ingress) → per-hop `Arrive`s (each invoking the observer and then
//! offering the packet to the next link) → delivery at the destination
//! switch, which acknowledges back to the sender (subject to the reverse
//! path's health). A sender that has heard no acknowledgement for an RTO
//! stalls until feedback resumes — the transport behavior of Fig. 2.

use crate::failure::{FailureKind, FailureScenario};
use crate::flow::{FlowId, FlowSpec};
use crate::link::{LinkRuntime, LinkState, TxOutcome};
use crate::packet::Annotation;
use crate::time::SimTime;
use crate::traffic::Sender;
use db_telemetry::flight::{DropKind, FlightRecord, FlightRecorder};
use db_telemetry::scope::{hot, HotFn, ScopeRecorder};
use db_topology::{LinkId, NodeId, Topology};
use db_util::Pcg64;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// One-way host-to-switch delay (access links are not failure units).
const HOST_LINK_DELAY: SimTime = SimTime::from_us(50);

/// Retransmission timeout: a sender with no feedback for this long stalls.
const RTO: SimTime = SimTime::from_ms(200);

/// Drop-tail bound expressed as maximum queue wait, milliseconds.
const MAX_QUEUE_MS: f64 = 5.0;

/// Maximum transmission unit in bytes.
const MTU: u32 = 1500;

/// Probability that a data packet is a small (sub-MTU) application push.
const SMALL_PKT_PROB: f64 = 0.10;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulation horizon; events after this time are not processed.
    pub end: SimTime,
    /// Observer tick period — the paper's sampling interval (4 ms in §6.3).
    pub tick_interval: SimTime,
    /// Background i.i.d. loss applied at every hop (ambient noise; keeps
    /// classifiers honest). Usually 0 or ~1e-4.
    pub background_loss: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            end: SimTime::from_ms(200),
            tick_interval: SimTime::from_ms(4),
            background_loss: 0.0,
        }
    }
}

/// Everything an observer learns about a packet at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopInfo {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Source switch of the flow.
    pub src: NodeId,
    /// Destination switch of the flow.
    pub dst: NodeId,
    /// Data sequence number within the flow.
    pub seq: u64,
    /// Packet size in bytes (excluding any annotation).
    pub size: u32,
    /// The switch the packet is at.
    pub node: NodeId,
    /// Index of `node` on the flow's path (0 = ingress switch).
    pub hop_index: usize,
    /// Whether `node` is the first switch (packet just entered the network).
    pub is_ingress: bool,
    /// Whether `node` is the last switch before the destination host.
    pub is_last_switch: bool,
}

/// Per-switch, per-tick callback interface.
///
/// `on_packet` may mutate the packet's [`Annotation`]; the engine carries the
/// mutated annotation to the next hop — this is the physical substrate of the
/// paper's drifting inference header.
pub trait Observer {
    /// Called at every switch a packet traverses (in path order).
    fn on_packet(&mut self, _now: SimTime, _info: &HopInfo, _ann: &mut Annotation) {}
    /// Called once per sampling interval (the control-plane timer of §4.1).
    fn on_tick(&mut self, _now: SimTime) {}
}

/// An observer that does nothing (pure network simulation).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Aggregate counters of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Scheduler events dispatched (every kind, including ticks).
    pub events_processed: u64,
    /// Data packets emitted by hosts.
    pub packets_sent: u64,
    /// Observer invocations (packet-at-switch events).
    pub hop_events: u64,
    /// Data packets delivered to their destination host.
    pub delivered: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Packets dropped by a down link.
    pub dropped_down: u64,
    /// Packets dropped by a corrupted link.
    pub dropped_corrupt: u64,
    /// Packets dropped by queue overflow.
    pub dropped_queue: u64,
    /// Packets dropped at a failed node.
    pub dropped_node: u64,
    /// Packets dropped by background loss.
    pub dropped_background: u64,
    /// Acknowledgements that reached the sender.
    pub acks_delivered: u64,
    /// Acknowledgements lost on the reverse path.
    pub acks_lost: u64,
    /// Flows that sent all their bytes.
    pub flows_finished: u64,
    /// Senders that entered RTO stall at least once.
    pub flows_stalled: u64,
    /// Per-flow packets sent.
    pub sent_per_flow: Vec<u64>,
    /// Per-flow packets delivered.
    pub delivered_per_flow: Vec<u64>,
    /// Per-flow time the sender emitted its last byte (natural completion);
    /// `None` while the flow is still live at the horizon. Ground-truth
    /// labeling uses this to distinguish "flow ended" from "flow silenced by
    /// a failure" (§4.1).
    pub finished_at: Vec<Option<SimTime>>,
}

impl SimStats {
    /// Serialize into `w` for the sweep checkpoint format (`db-runner`).
    /// Field order is the struct order; [`SimStats::decode`] is the inverse.
    /// All counters are integers, so the round trip is trivially exact.
    pub fn encode_into(&self, w: &mut db_util::wire::ByteWriter) {
        for v in [
            self.events_processed,
            self.packets_sent,
            self.hop_events,
            self.delivered,
            self.delivered_bytes,
            self.dropped_down,
            self.dropped_corrupt,
            self.dropped_queue,
            self.dropped_node,
            self.dropped_background,
            self.acks_delivered,
            self.acks_lost,
            self.flows_finished,
            self.flows_stalled,
        ] {
            w.u64(v);
        }
        w.seq(self.sent_per_flow.len());
        for &v in &self.sent_per_flow {
            w.u64(v);
        }
        w.seq(self.delivered_per_flow.len());
        for &v in &self.delivered_per_flow {
            w.u64(v);
        }
        w.seq(self.finished_at.len());
        for t in &self.finished_at {
            if w.option(t.is_some()) {
                w.u64(t.unwrap().as_ns());
            }
        }
    }

    /// Inverse of [`SimStats::encode_into`].
    pub fn decode(r: &mut db_util::wire::ByteReader) -> Result<Self, db_util::wire::WireError> {
        let mut s = SimStats {
            events_processed: r.u64()?,
            packets_sent: r.u64()?,
            hop_events: r.u64()?,
            delivered: r.u64()?,
            delivered_bytes: r.u64()?,
            dropped_down: r.u64()?,
            dropped_corrupt: r.u64()?,
            dropped_queue: r.u64()?,
            dropped_node: r.u64()?,
            dropped_background: r.u64()?,
            acks_delivered: r.u64()?,
            acks_lost: r.u64()?,
            flows_finished: r.u64()?,
            flows_stalled: r.u64()?,
            ..Default::default()
        };
        let n = r.seq()?;
        s.sent_per_flow = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let n = r.seq()?;
        s.delivered_per_flow = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let n = r.seq()?;
        s.finished_at = Vec::with_capacity(n);
        for _ in 0..n {
            s.finished_at.push(if r.option()? {
                Some(SimTime::from_ns(r.u64()?))
            } else {
                None
            });
        }
        Ok(s)
    }
}

/// A data packet on its way to `path.nodes[hop]` of its flow.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Packet {
    flow: u32,
    seq: u64,
    size: u32,
    hop: u16,
    ann: Annotation,
}

/// Internal event kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// The host of `flow` emits its next packet.
    HostSend { flow: u32 },
    /// A data packet arrives at a switch.
    Arrive(Packet),
    /// An acknowledgement reaches the sender of `flow`.
    AckArrive { flow: u32 },
    /// Observer sampling-interval tick.
    Tick,
    /// Apply a link state change (failure injection/repair).
    SetLink { link: u16, state: LinkState },
    /// Apply a node up/down change.
    SetNode { node: u16, up: bool },
}

/// First seq of the events a run schedules for itself. Everything
/// scheduled from outside — flow starts, ticks, injected failures — counts
/// up from zero on its own counter, so at equal times a failure sorts after
/// the tick and before any packet event whenever it was injected.
const RUN_SEQ_BASE: u64 = 1 << 63;

/// The arrival lane of packets entering the network; link `l`'s direction
/// `d` is lane `1 + 2l + d`.
const INGRESS: u32 = 0;

/// What a heap key stands for: a send or a tick itself, an event in
/// [`EventQueue::control`] by index, or the head of a lane.
#[derive(Debug, Clone, Copy)]
enum Entry {
    HostSend(u32),
    Tick,
    Control(u32),
    Arrivals(u32),
    Acks(u32),
}

/// One heap key: the `(at, seq)` of the event it stands for.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    entry: Entry,
}

impl Key {
    /// Pop order: time, then seq. Seqs are unique, so this is total and
    /// any correct heap pops the same sequence. Compared as one 128-bit
    /// number: a null-observer Geant2012 run is ≈ 7 % faster than with the
    /// pair compared field by field.
    fn rank(&self) -> u128 {
        u128::from(self.at.as_ns()) << 64 | u128::from(self.seq)
    }
}

/// Reversed, so that `BinaryHeap`, a max-heap, has the earliest key on top.
impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Key {}

/// One event waiting in a lane.
#[derive(Debug, Clone, Copy)]
struct Queued<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

// A heap key and a waiting ACK are no more than their `(at, seq)` and a
// 4-byte payload.
const _: () = assert!(std::mem::size_of::<Key>() == 24);
const _: () = assert!(std::mem::size_of::<Queued<u32>>() == 24);

/// The pending events. A run schedules three kinds of event at times that
/// never go backwards in push order: a packet arrival over one link
/// direction (the transmitter is FIFO, so departures never decrease), an
/// ingress arrival (`now` plus a constant) and an ACK (`now` plus its
/// flow's constant reverse-path delay). Each such stream is a FIFO lane —
/// one per link direction, one for ingress, one per distinct ACK delay —
/// holding its events inline, and its seqs rise with its times. The heap
/// holds one key per non-empty lane, its head's, beside the sends, ticks
/// and control events, whose times are free: merging sorted lanes by
/// `(at, seq)` pops exactly the order one heap of every event would.
#[derive(Debug, Clone, Default)]
struct EventQueue {
    heap: BinaryHeap<Key>,
    /// Packet arrivals: lane 0 is ingress, the rest link directions.
    arrivals: Vec<VecDeque<Queued<Packet>>>,
    /// ACKs, one lane per distinct reverse-path delay.
    acks: Vec<VecDeque<Queued<u32>>>,
    /// Every heap event too large for a key, kept for good: in a run only
    /// the injected failures and repairs, a handful per scenario.
    control: Vec<Ev>,
    /// Pending events, of every kind.
    len: usize,
}

impl EventQueue {
    fn new(arrival_lanes: usize, ack_lanes: usize, heap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(heap),
            arrivals: vec![VecDeque::new(); arrival_lanes],
            acks: vec![VecDeque::new(); ack_lanes],
            ..Default::default()
        }
    }

    /// Pending events, of every kind.
    fn len(&self) -> usize {
        self.len
    }

    /// Schedule `ev` on the heap, at any time: a send or a tick rides in
    /// its key, anything else waits in `control`.
    // db-lint: allow(hot-panic) — `control` holds a scenario's failures and repairs; 2^32 of them would not fit in memory
    fn push(&mut self, at: SimTime, seq: u64, ev: Ev) {
        let entry = match ev {
            Ev::HostSend { flow } => Entry::HostSend(flow),
            Ev::Tick => Entry::Tick,
            _ => {
                self.control.push(ev);
                Entry::Control(
                    u32::try_from(self.control.len() - 1).expect("fewer than 2^32 control events"),
                )
            }
        };
        self.len += 1;
        self.heap.push(Key { at, seq, entry });
    }

    /// Schedule a packet arrival at the tail of arrival lane `lane`.
    // db-lint: allow(hot-index) — lane ids are below the lane counts the simulator sized the queue with
    fn push_arrival(&mut self, lane: u32, at: SimTime, seq: u64, pkt: Packet) {
        let q = Queued { at, seq, item: pkt };
        if lane_push(&mut self.arrivals[lane as usize], q) {
            self.heap.push(Key {
                at,
                seq,
                entry: Entry::Arrivals(lane),
            });
        }
        self.len += 1;
    }

    /// Schedule an ACK to `flow`'s sender at the tail of ACK lane `lane`.
    // db-lint: allow(hot-index) — lane ids are below the lane counts the simulator sized the queue with
    fn push_ack(&mut self, lane: u32, at: SimTime, seq: u64, flow: u32) {
        let q = Queued {
            at,
            seq,
            item: flow,
        };
        if lane_push(&mut self.acks[lane as usize], q) {
            self.heap.push(Key {
                at,
                seq,
                entry: Entry::Acks(lane),
            });
        }
        self.len += 1;
    }

    /// Remove and return the earliest event if `due` accepts its time.
    // db-lint: allow(hot-index) — a key names a live control slot or a non-empty lane
    fn pop_if(&mut self, due: impl Fn(SimTime) -> bool) -> Option<(SimTime, Ev)> {
        let mut head = self.heap.peek_mut()?;
        let key = *head;
        if !due(key.at) {
            return None;
        }
        let (ev, next) = match key.entry {
            Entry::HostSend(flow) => (Ev::HostSend { flow }, None),
            Entry::Tick => (Ev::Tick, None),
            Entry::Control(i) => (self.control[i as usize], None),
            Entry::Arrivals(lane) => {
                let (pkt, next) = lane_pop(&mut self.arrivals[lane as usize])?;
                (Ev::Arrive(pkt), next)
            }
            Entry::Acks(lane) => {
                let (flow, next) = lane_pop(&mut self.acks[lane as usize])?;
                (Ev::AckArrive { flow }, next)
            }
        };
        match next {
            // The lane's next event takes its head's place.
            Some((at, seq)) => *head = Key { at, seq, ..key },
            None => {
                PeekMut::pop(head);
            }
        }
        self.len -= 1;
        Some((key.at, ev))
    }
}

/// Append `q` to `lane`; true if the lane was empty, so that `q` is its
/// head and needs a heap key. A lane's `(at, seq)` only rise.
fn lane_push<T>(lane: &mut VecDeque<Queued<T>>, q: Queued<T>) -> bool {
    debug_assert!(
        lane.back().is_none_or(|b| (b.at, b.seq) < (q.at, q.seq)),
        "lane push out of order: ({}, {}) after the tail",
        q.at,
        q.seq
    );
    lane.push_back(q);
    lane.len() == 1
}

/// Take `lane`'s head, with the `(at, seq)` of the head after it.
fn lane_pop<T>(lane: &mut VecDeque<Queued<T>>) -> Option<(T, Option<(SimTime, u64)>)> {
    let q = lane.pop_front()?;
    Some((q.item, lane.front().map(|n| (n.at, n.seq))))
}

/// The simulator. Generic over the observer so the Drift-Bottle pipeline
/// compiles monomorphized into the event loop.
pub struct Simulator<'a, O: Observer> {
    topo: &'a Topology,
    cfg: SimConfig,
    /// Fixed at construction, so forks share it — the caller's vector as it
    /// came, not a copy.
    flows: Arc<Vec<FlowSpec>>,
    senders: Vec<Sender>,
    links: Vec<LinkRuntime>,
    nodes_up: Vec<bool>,
    /// Cached reverse-path propagation per flow (for ACK latency).
    reverse_prop: Arc<[SimTime]>,
    /// Per flow, the ACK lane of its `reverse_prop`.
    ack_lane: Arc<[u32]>,
    queue: EventQueue,
    /// Last seq given to an event the run scheduled (see [`RUN_SEQ_BASE`]).
    seq: u64,
    /// Last seq given to an event scheduled from outside the run.
    control_seq: u64,
    /// Lazy observer ticks: instead of materializing every tick event up
    /// front (tens of thousands of heap entries before the first packet
    /// moves), exactly one tick is armed at a time and re-armed when it
    /// fires. The full tick seq range is reserved at construction so event
    /// ordering is bit-identical to the eager schedule.
    tick_seq_base: u64,
    ticks_armed: u64,
    n_ticks: u64,
    now: SimTime,
    rng: Pcg64,
    /// Public counters, readable during and after the run.
    pub stats: SimStats,
    observer: O,
    /// Telemetry handles; `None` (the default) records nothing.
    metrics: Option<crate::metrics::EngineMetrics>,
    /// Provenance flight recorder for link-level packet drops; `None` (the
    /// default) records nothing.
    flight: Option<std::sync::Arc<FlightRecorder>>,
    /// db-scope recorder for per-window drop series and event-queue depth;
    /// `None` (the default) records nothing.
    scope: Option<std::sync::Arc<ScopeRecorder>>,
}

impl<'a, O: Observer> Simulator<'a, O> {
    /// Build a simulator.
    ///
    /// `flows` usually comes from [`crate::traffic::TrafficGen::generate`];
    /// `scenario` failures are scheduled before the run starts (this is
    /// [`Self::inject`] at time zero); `seed` drives all stochastic choices
    /// (senders, corruption coins, background loss).
    pub fn new(
        topo: &'a Topology,
        flows: Vec<FlowSpec>,
        cfg: SimConfig,
        scenario: &FailureScenario,
        seed: u64,
        observer: O,
    ) -> Self {
        let links: Vec<LinkRuntime> = topo
            .links()
            .iter()
            .map(|l| LinkRuntime::new(l.latency_ms, l.bandwidth_mbps, MAX_QUEUE_MS))
            .collect();
        let senders: Vec<Sender> = flows
            .iter()
            .map(|f| Sender::new(f, SMALL_PKT_PROB, seed))
            .collect();
        let reverse_prop: Arc<[SimTime]> = flows
            .iter()
            .map(|f| {
                let prop: u64 = f
                    .path
                    .links
                    .iter()
                    .map(|&l| links[l.idx()].propagation().as_ns())
                    .sum();
                SimTime::from_ns(prop) + HOST_LINK_DELAY + HOST_LINK_DELAY
            })
            .collect();
        let mut delays = reverse_prop.to_vec();
        delays.sort_unstable();
        delays.dedup();
        let ack_lane: Arc<[u32]> = reverse_prop
            .iter()
            .map(|d| delays.partition_point(|x| x < d) as u32)
            .collect();
        let n_flows = flows.len();
        let arrival_lanes = 1 + 2 * links.len();
        let lanes = arrival_lanes + delays.len();
        let mut sim = Simulator {
            topo,
            cfg,
            flows: Arc::new(flows),
            senders,
            links,
            nodes_up: vec![true; topo.node_count()],
            reverse_prop,
            ack_lane,
            // The heap holds at most one send per flow and one key per
            // lane, beside the tick and the injected failures, so it is
            // sized once. The lanes hold what a flow keeps in flight —
            // Geant2012 at `t_fail` has 18 026 arrivals and 18 014 ACKs
            // pending for 1 560 flows — and grow on their own.
            queue: EventQueue::new(arrival_lanes, delays.len(), n_flows + lanes + 64),
            seq: RUN_SEQ_BASE,
            control_seq: 0,
            tick_seq_base: 0,
            ticks_armed: 0,
            n_ticks: 0,
            now: SimTime::ZERO,
            rng: Pcg64::new_stream(seed, 0xE4614E),
            stats: SimStats {
                sent_per_flow: vec![0; n_flows],
                delivered_per_flow: vec![0; n_flows],
                finished_at: vec![None; n_flows],
                ..Default::default()
            },
            observer,
            metrics: None,
            flight: None,
            scope: None,
        };
        // Schedule flow starts.
        for i in 0..sim.flows.len() {
            let at = sim.flows[i].start;
            sim.push_control(at, Ev::HostSend { flow: i as u32 });
        }
        // Schedule observer ticks lazily: reserve the seq range the eager
        // schedule would have used (one seq per tick, in tick order), then
        // arm only the first tick; each firing re-arms the next with its
        // reserved seq, so the event order is identical to pushing them all.
        sim.tick_seq_base = sim.control_seq;
        sim.n_ticks = if sim.cfg.tick_interval > SimTime::ZERO {
            sim.cfg.end.as_ns() / sim.cfg.tick_interval.as_ns()
        } else {
            0
        };
        sim.control_seq += sim.n_ticks;
        if sim.n_ticks > 0 {
            sim.ticks_armed = 1;
            sim.push_raw(sim.cfg.tick_interval, sim.tick_seq_base + 1, Ev::Tick);
        }
        sim.inject(scenario);
        sim
    }

    /// Schedule the failures and repairs of `scenario`. An injected event
    /// sorts where [`Self::new`] would have put it — after the tick of its
    /// instant, before every packet event of that instant — so injecting at
    /// construction and injecting into a run stopped by
    /// [`Self::run_until`] at or before the first failure are the same
    /// simulation. Panics on an event earlier than [`Self::now`]: the past
    /// has been simulated without it.
    pub fn inject(&mut self, scenario: &FailureScenario) {
        for e in &scenario.events {
            for at in std::iter::once(e.at).chain(e.repair_at) {
                assert!(
                    at >= self.now,
                    "cannot inject a failure event at {at}: the simulation is already at {}",
                    self.now
                );
            }
            let (fail, repair) = match e.kind {
                FailureKind::LinkDown(l) | FailureKind::LinkCorrupt(l, _) => (
                    Ev::SetLink {
                        link: l.0,
                        state: FailureScenario::state_of(e.kind),
                    },
                    Ev::SetLink {
                        link: l.0,
                        state: LinkState::Up,
                    },
                ),
                FailureKind::NodeDown(n) => (
                    Ev::SetNode {
                        node: n.0,
                        up: false,
                    },
                    Ev::SetNode {
                        node: n.0,
                        up: true,
                    },
                ),
            };
            self.push_control(e.at, fail);
            if let Some(r) = e.repair_at {
                self.push_control(r, repair);
            }
        }
    }

    /// A second simulator in exactly this one's state — clock, event queue,
    /// senders, links, RNG, counters — driving `observer`, which the caller
    /// forks from [`Self::observer`]. The two share nothing mutable, and the
    /// fork starts with no telemetry attached.
    pub fn fork<P: Observer>(&self, observer: P) -> Simulator<'a, P> {
        Simulator {
            topo: self.topo,
            cfg: self.cfg.clone(),
            flows: self.flows.clone(),
            senders: self.senders.clone(),
            links: self.links.clone(),
            nodes_up: self.nodes_up.clone(),
            reverse_prop: self.reverse_prop.clone(),
            ack_lane: self.ack_lane.clone(),
            queue: self.queue.clone(),
            seq: self.seq,
            control_seq: self.control_seq,
            tick_seq_base: self.tick_seq_base,
            ticks_armed: self.ticks_armed,
            n_ticks: self.n_ticks,
            now: self.now,
            rng: self.rng.clone(),
            stats: self.stats.clone(),
            observer,
            metrics: None,
            flight: None,
            scope: None,
        }
    }

    /// The seq of the next event the run schedules for itself (see
    /// [`RUN_SEQ_BASE`]).
    fn next_seq(&mut self) -> u64 {
        hot(HotFn::Push);
        self.seq += 1;
        self.seq
    }

    /// Schedule a host's next send.
    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.next_seq();
        self.queue.push(at, seq, ev);
    }

    /// Schedule an event from outside the run (see [`RUN_SEQ_BASE`]).
    fn push_control(&mut self, at: SimTime, ev: Ev) {
        hot(HotFn::Push);
        self.control_seq += 1;
        self.queue.push(at, self.control_seq, ev);
    }

    /// Push with an explicit (already-reserved) seq — lazy ticks only.
    fn push_raw(&mut self, at: SimTime, seq: u64, ev: Ev) {
        hot(HotFn::PushRaw);
        self.queue.push(at, seq, ev);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The flow table.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// Borrow the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consume the simulator, returning the observer and the run statistics.
    pub fn finish(self) -> (O, SimStats) {
        (self.observer, self.stats)
    }

    /// Attach telemetry handles. Counters publish from [`SimStats`] when
    /// [`run`](Self::run) returns; the queue-wait histogram records live.
    /// Never affects simulation outcomes — only what gets measured.
    pub fn set_metrics(&mut self, reg: &db_telemetry::MetricsRegistry) {
        self.metrics = Some(crate::metrics::EngineMetrics::register(reg));
    }

    /// Attach a provenance flight recorder: every failure-relevant packet
    /// drop (down / corrupt / queue) appends a `PacketDropped` record.
    /// Never affects simulation outcomes — only what gets recorded.
    pub fn set_flight(&mut self, rec: std::sync::Arc<FlightRecorder>) {
        self.flight = Some(rec);
    }

    /// Attach a db-scope recorder: per-link drops feed the `link.drops`
    /// series and the event-queue depth is sampled at each tick. Never
    /// affects simulation outcomes — only what gets recorded.
    pub fn set_scope(&mut self, rec: std::sync::Arc<ScopeRecorder>) {
        self.scope = Some(rec);
    }

    /// Run to the configured horizon.
    pub fn run(&mut self) {
        let end = self.cfg.end;
        self.dispatch_while(|at| at <= end);
        self.now = end;
        if let Some(m) = &self.metrics {
            m.publish(&self.stats);
        }
    }

    /// Process every event earlier than `t` and stop there: an event *at*
    /// `t` is still pending, so a failure [`Self::inject`]ed at `t` takes
    /// effect exactly where a scheduled one would. `t` past the horizon
    /// stops at the horizon.
    pub fn run_until(&mut self, t: SimTime) {
        let t = t.min(self.cfg.end);
        self.dispatch_while(|at| at < t);
        self.now = self.now.max(t);
    }

    fn dispatch_while(&mut self, due: impl Fn(SimTime) -> bool) {
        while let Some((at, ev)) = self.queue.pop_if(&due) {
            debug_assert!(at >= self.now, "event time went backwards");
            self.now = at;
            self.stats.events_processed += 1;
            self.dispatch(ev);
        }
    }

    // db-lint: allow(hot-index) — flow/link/node vectors are sized at setup; event payloads index the same tables they were built from
    fn dispatch(&mut self, ev: Ev) {
        hot(HotFn::Dispatch);
        match ev {
            Ev::HostSend { flow } => self.host_send(flow),
            Ev::Arrive(pkt) => self.arrive(pkt),
            Ev::AckArrive { flow } => self.ack_arrive(flow),
            Ev::Tick => {
                if let Some(sc) = &self.scope {
                    sc.queue_depth(self.now.as_ns(), self.queue.len());
                }
                // Re-arm the next tick with its reserved seq before anything
                // the observer schedules can run.
                if self.ticks_armed < self.n_ticks {
                    self.ticks_armed += 1;
                    let at = self.now + self.cfg.tick_interval;
                    let seq = self.tick_seq_base + self.ticks_armed;
                    self.push_raw(at, seq, Ev::Tick);
                }
                let now = self.now;
                self.observer.on_tick(now);
            }
            Ev::SetLink { link, state } => {
                self.links[link as usize].set_state(state);
            }
            Ev::SetNode { node, up } => {
                self.nodes_up[node as usize] = up;
                // A node takes its links down with it and gives them back
                // only as far as their own state and other endpoint allow.
                for l in self.topo.incident_links(NodeId(node)) {
                    let link = self.topo.link(l);
                    let ends_up = self.nodes_up[link.a.idx()] && self.nodes_up[link.b.idx()];
                    self.links[l.idx()].set_ends_up(ends_up);
                }
            }
        }
    }

    // db-lint: allow(hot-index) — flow/link/node vectors are sized at setup; event payloads index the same tables they were built from
    fn host_send(&mut self, flow: u32) {
        hot(HotFn::HostSend);
        let f = flow as usize;
        if self.senders[f].done() {
            return;
        }
        // RTO stall: no transport feedback for too long.
        if self.now > self.senders[f].last_feedback + RTO {
            if !self.senders[f].stalled {
                self.senders[f].stalled = true;
                self.stats.flows_stalled += 1;
            }
            return;
        }
        let size = self.senders[f].next_packet_size(MTU);
        let seq = self.senders[f].next_seq - 1;
        self.stats.packets_sent += 1;
        self.stats.sent_per_flow[f] += 1;
        if self.senders[f].done() {
            self.stats.flows_finished += 1;
            self.stats.finished_at[f] = Some(self.now);
        }
        // Packet reaches the ingress switch after the host access delay.
        let at = self.now + HOST_LINK_DELAY;
        let event_seq = self.next_seq();
        self.queue.push_arrival(
            INGRESS,
            at,
            event_seq,
            Packet {
                flow,
                seq,
                size,
                hop: 0,
                ann: Annotation::empty(),
            },
        );
        // Schedule the next emission.
        if !self.senders[f].done() {
            let now = self.now;
            let gap = self.senders[f].next_gap(now);
            self.push(now + gap, Ev::HostSend { flow });
        }
    }

    // db-lint: allow(hot-index) — flow/link/node vectors are sized at setup; event payloads index the same tables they were built from
    fn arrive(&mut self, pkt: Packet) {
        hot(HotFn::Arrive);
        let Packet {
            flow,
            seq,
            size,
            hop,
            mut ann,
        } = pkt;
        let f = flow as usize;
        let spec = &self.flows[f];
        let node = spec.path.nodes[hop as usize];
        if !self.nodes_up[node.idx()] {
            self.stats.dropped_node += 1;
            return;
        }
        let hop_index = hop as usize;
        let last_index = spec.path.nodes.len() - 1;
        let info = HopInfo {
            flow: spec.id,
            src: spec.src,
            dst: spec.dst,
            seq,
            size,
            node,
            hop_index,
            is_ingress: hop_index == 0,
            is_last_switch: hop_index == last_index,
        };
        self.stats.hop_events += 1;
        self.observer.on_packet(self.now, &info, &mut ann);
        if hop_index == last_index {
            self.deliver(flow, size);
            return;
        }
        // Forward over the next link.
        let link_id = spec.path.links[hop_index];
        if self.cfg.background_loss > 0.0 && self.rng.chance(self.cfg.background_loss) {
            self.stats.dropped_background += 1;
            return;
        }
        let coin = self.rng.f64();
        let a_end = self.topo.link(link_id).a;
        let dir = if node == a_end { 0 } else { 1 };
        if let Some(m) = &self.metrics {
            m.queue_wait_ns
                .record(self.links[link_id.idx()].queue_wait(dir, self.now).as_ns());
        }
        match self.links[link_id.idx()].transmit(dir, self.now, size, coin) {
            TxOutcome::Arrive(at) => {
                let lane = (1 + 2 * link_id.idx() + dir) as u32;
                let event_seq = self.next_seq();
                self.queue.push_arrival(
                    lane,
                    at,
                    event_seq,
                    Packet {
                        hop: hop + 1,
                        ann,
                        ..pkt
                    },
                );
            }
            TxOutcome::DropDown => {
                self.stats.dropped_down += 1;
                self.record_drop(link_id, flow, seq, DropKind::Down);
            }
            TxOutcome::DropCorrupt => {
                self.stats.dropped_corrupt += 1;
                self.record_drop(link_id, flow, seq, DropKind::Corrupt);
            }
            TxOutcome::DropQueue => {
                self.stats.dropped_queue += 1;
                self.record_drop(link_id, flow, seq, DropKind::Queue);
            }
        }
    }

    /// Append a `PacketDropped` provenance record — the physical evidence
    /// the localization chain reacts to. No-op without a flight recorder.
    fn record_drop(&self, link: LinkId, flow: u32, seq: u64, kind: DropKind) {
        hot(HotFn::RecordDrop);
        if let Some(rec) = &self.flight {
            rec.record(FlightRecord::PacketDropped {
                at_ns: self.now.as_ns(),
                link: link.0,
                flow,
                pkt_seq: seq,
                kind,
            });
        }
        if let Some(sc) = &self.scope {
            sc.drop_event(self.now.as_ns(), link.0);
        }
    }

    // db-lint: allow(hot-index) — flow/link/node vectors are sized at setup; event payloads index the same tables they were built from
    fn deliver(&mut self, flow: u32, size: u32) {
        hot(HotFn::Deliver);
        let f = flow as usize;
        self.stats.delivered += 1;
        self.stats.delivered_bytes += size as u64;
        self.stats.delivered_per_flow[f] += 1;
        // Acknowledge along the reverse path (modeled end-to-end: the ACK is
        // lost if any reverse-path element would drop it).
        let mut lost = false;
        for &l in self.flows[f].path.links.iter().rev() {
            match self.links[l.idx()].state() {
                LinkState::Down => {
                    lost = true;
                    break;
                }
                LinkState::Corrupted(p) => {
                    if self.rng.chance(p) {
                        lost = true;
                        break;
                    }
                }
                LinkState::Up => {}
            }
            if self.cfg.background_loss > 0.0 && self.rng.chance(self.cfg.background_loss) {
                lost = true;
                break;
            }
        }
        // Interior nodes must also be up.
        if !lost {
            lost = self.flows[f]
                .path
                .nodes
                .iter()
                .any(|n| !self.nodes_up[n.idx()]);
        }
        if lost {
            self.stats.acks_lost += 1;
        } else {
            let at = self.now + self.reverse_prop[f];
            let event_seq = self.next_seq();
            self.queue.push_ack(self.ack_lane[f], at, event_seq, flow);
        }
    }

    // db-lint: allow(hot-index) — flow/link/node vectors are sized at setup; event payloads index the same tables they were built from
    fn ack_arrive(&mut self, flow: u32) {
        hot(HotFn::AckArrive);
        let f = flow as usize;
        self.stats.acks_delivered += 1;
        self.senders[f].last_feedback = self.now;
        if self.senders[f].stalled && !self.senders[f].done() {
            self.senders[f].stalled = false;
            let at = self.now + SimTime::from_us(100);
            self.push(at, Ev::HostSend { flow });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{TrafficConfig, TrafficGen};
    use db_topology::{zoo, LinkId, RouteTable};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    fn run_line(
        scenario: &FailureScenario,
        cfg: SimConfig,
        seed: u64,
    ) -> (Vec<FlowSpec>, SimStats) {
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, scenario, seed, NullObserver);
        sim.run();
        let (_, stats) = sim.finish();
        (flows, stats)
    }

    #[test]
    fn healthy_network_delivers_everything_sent_minus_in_flight() {
        let (_, stats) = run_line(&FailureScenario::none(), SimConfig::default(), 1);
        assert!(
            stats.packets_sent > 1_000,
            "workload too small: {}",
            stats.packets_sent
        );
        assert_eq!(
            stats.dropped_down + stats.dropped_node + stats.dropped_corrupt,
            0
        );
        // Everything sent is delivered except packets still in flight at the
        // horizon and queue drops (none expected at this load).
        let undelivered = stats.packets_sent - stats.delivered;
        assert!(
            undelivered < 100,
            "too many undelivered packets: {undelivered} (queue drops {})",
            stats.dropped_queue
        );
    }

    #[test]
    fn link_failure_blackholes_downstream() {
        let fail_at = SimTime::from_ms(100);
        let scenario = FailureScenario::single_link(LinkId(1), fail_at);
        let (_, stats) = run_line(&scenario, SimConfig::default(), 2);
        assert!(stats.dropped_down > 50, "failed link must drop packets");
        let (_, healthy) = run_line(&FailureScenario::none(), SimConfig::default(), 2);
        assert!(stats.delivered < healthy.delivered);
    }

    #[test]
    fn unidirectional_asymmetry_of_fig2() {
        // After l1 (s1-s2) fails, flows s0->s3 keep being *sent* (sender RTO
        // has not expired within the horizon) while deliveries stop.
        let fail_at = SimTime::from_ms(100);
        let scenario = FailureScenario::single_link(LinkId(1), fail_at);
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 3);
        // Track hop events at s1 (upstream of failure) and s2 (downstream)
        // for the flow s0 -> s3, before/after the failure.
        struct Counter {
            fail_at: SimTime,
            up_before: u64,
            up_after: u64,
            down_before: u64,
            down_after: u64,
        }
        impl Observer for Counter {
            fn on_packet(&mut self, now: SimTime, info: &HopInfo, _ann: &mut Annotation) {
                if info.src != NodeId(0) || info.dst != NodeId(3) {
                    return;
                }
                // Packets already past the failed link when it went down are
                // legitimately delivered; allow one propagation delay of grace.
                let after = now >= self.fail_at + SimTime::from_ms(2);
                match info.node {
                    NodeId(1) => {
                        if after {
                            self.up_after += 1
                        } else {
                            self.up_before += 1
                        }
                    }
                    NodeId(2) => {
                        if after {
                            self.down_after += 1
                        } else {
                            self.down_before += 1
                        }
                    }
                    _ => {}
                }
            }
        }
        let counter = Counter {
            fail_at,
            up_before: 0,
            up_after: 0,
            down_before: 0,
            down_after: 0,
        };
        let mut sim = Simulator::new(&topo, flows, SimConfig::default(), &scenario, 3, counter);
        sim.run();
        let (c, _) = sim.finish();
        assert!(
            c.up_before > 0 && c.down_before > 0,
            "flow must be active pre-failure"
        );
        assert!(
            c.up_after > 10,
            "upstream switch must keep seeing the flow after failure (got {})",
            c.up_after
        );
        assert_eq!(
            c.down_after, 0,
            "downstream switch must see nothing after a full link failure"
        );
    }

    #[test]
    fn rto_stalls_senders_eventually() {
        // Senders whose path broke must stall once the 200 ms RTO passes
        // without feedback, well before the horizon.
        let cfg = SimConfig {
            end: SimTime::from_ms(500),
            ..Default::default()
        };
        let scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(100));
        let (_, stats) = run_line(&scenario, cfg, 4);
        assert!(stats.flows_stalled > 0, "broken flows must hit RTO stall");
    }

    #[test]
    fn corruption_drops_proportionally() {
        let scenario = FailureScenario::corruption(LinkId(1), 0.5, SimTime::ZERO);
        let (_, stats) = run_line(&scenario, SimConfig::default(), 5);
        assert!(stats.dropped_corrupt > 100);
        // Roughly half the packets crossing l1 die; deliveries via l1 halve.
        let crossing = stats.dropped_corrupt + stats.delivered;
        let ratio = stats.dropped_corrupt as f64 / crossing as f64;
        assert!(
            (0.1..0.9).contains(&ratio),
            "corruption drop ratio implausible: {ratio}"
        );
    }

    #[test]
    fn node_failure_stops_forwarding() {
        let scenario = FailureScenario::node(NodeId(1), SimTime::from_ms(50));
        let (_, stats) = run_line(&scenario, SimConfig::default(), 6);
        assert!(
            stats.dropped_down + stats.dropped_node > 0,
            "node failure must drop traffic"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let scenario = FailureScenario::single_link(LinkId(0), SimTime::from_ms(80));
        let (_, a) = run_line(&scenario, SimConfig::default(), 7);
        let (_, b) = run_line(&scenario, SimConfig::default(), 7);
        assert_eq!(a, b, "same seed must reproduce the run exactly");
        let (_, c) = run_line(&scenario, SimConfig::default(), 8);
        assert_ne!(a.packets_sent, c.packets_sent, "different seed must differ");
    }

    #[test]
    fn ticks_fire_at_interval() {
        struct TickCount(Vec<SimTime>);
        impl Observer for TickCount {
            fn on_tick(&mut self, now: SimTime) {
                self.0.push(now);
            }
        }
        let topo = zoo::line(2);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 1);
        let cfg = SimConfig {
            end: SimTime::from_ms(20),
            tick_interval: SimTime::from_ms(4),
            ..Default::default()
        };
        let mut sim = Simulator::new(
            &topo,
            flows,
            cfg,
            &FailureScenario::none(),
            1,
            TickCount(Vec::new()),
        );
        sim.run();
        let (ticks, _) = sim.finish();
        assert_eq!(
            ticks.0,
            (1..=5).map(|i| SimTime::from_ms(4 * i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn annotations_drift_across_hops() {
        // An observer that appends its node id byte at each hop must see the
        // accumulated bytes downstream — the carrier mechanism for the
        // drifting inference header.
        struct Appender {
            seen_at_last: Vec<usize>,
        }
        impl Observer for Appender {
            fn on_packet(&mut self, _now: SimTime, info: &HopInfo, ann: &mut Annotation) {
                let mut bytes = ann.as_slice().to_vec();
                if info.is_last_switch {
                    self.seen_at_last.push(bytes.len());
                    return;
                }
                bytes.push(info.node.0 as u8);
                ann.set(&bytes);
            }
        }
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        // One flow: s0 -> s3.
        let flows: Vec<FlowSpec> =
            TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 9)
                .into_iter()
                .filter(|f| f.src == NodeId(0) && f.dst == NodeId(3))
                .enumerate()
                .map(|(i, mut f)| {
                    f.id = FlowId(i as u32);
                    f
                })
                .collect();
        assert_eq!(flows.len(), 1);
        let mut sim = Simulator::new(
            &topo,
            flows,
            SimConfig::default(),
            &FailureScenario::none(),
            9,
            Appender {
                seen_at_last: Vec::new(),
            },
        );
        sim.run();
        let (a, stats) = sim.finish();
        assert!(stats.delivered > 0);
        assert!(!a.seen_at_last.is_empty());
        // The path s0->s3 passes s0, s1, s2 before the last switch s3:
        // 3 appended bytes.
        assert!(a.seen_at_last.iter().all(|&n| n == 3));
    }

    #[test]
    fn repair_restores_delivery() {
        let mut scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(40));
        scenario.events[0].repair_at = Some(SimTime::from_ms(80));
        let cfg = SimConfig {
            end: SimTime::from_ms(200),
            ..Default::default()
        };
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 10);
        struct LastDelivery(SimTime);
        impl Observer for LastDelivery {
            fn on_packet(&mut self, now: SimTime, info: &HopInfo, _ann: &mut Annotation) {
                if info.is_last_switch && info.node == NodeId(3) {
                    self.0 = now;
                }
            }
        }
        let mut sim = Simulator::new(
            &topo,
            flows,
            cfg,
            &scenario,
            10,
            LastDelivery(SimTime::ZERO),
        );
        sim.run();
        let (last, _) = sim.finish();
        assert!(
            last.0 > SimTime::from_ms(80),
            "deliveries must resume after repair, last at {}",
            last.0
        );
    }

    /// Counts the packets `pick` selects.
    struct Count<F: Fn(SimTime, &HopInfo) -> bool>(F, u64);

    impl<F: Fn(SimTime, &HopInfo) -> bool> Observer for Count<F> {
        fn on_packet(&mut self, now: SimTime, info: &HopInfo, _ann: &mut Annotation) {
            if (self.0)(now, info) {
                self.1 += 1;
            }
        }
    }

    fn line_sim<O: Observer>(
        scenario: &FailureScenario,
        seed: u64,
        observer: O,
    ) -> Simulator<'static, O> {
        static LINE: std::sync::OnceLock<Topology> = std::sync::OnceLock::new();
        let topo = LINE.get_or_init(|| zoo::line(4));
        let routes = RouteTable::build(topo);
        let flows = TrafficGen::generate(topo, &routes, &TrafficConfig::default(), seed);
        Simulator::new(topo, flows, SimConfig::default(), scenario, seed, observer)
    }

    #[test]
    fn node_repair_leaves_a_link_that_failed_on_its_own_down() {
        // s1 and its link to s2 fail together; only the node is repaired.
        let at = SimTime::from_ms(40);
        let mut scenario = FailureScenario::node(NodeId(1), at)
            .merged(FailureScenario::single_link(LinkId(1), at));
        scenario.events[0].repair_at = Some(SimTime::from_ms(80));
        let after = |now: SimTime| now > SimTime::from_ms(85);
        let mut sim = line_sim(
            &scenario,
            12,
            Count(
                |now, info: &HopInfo| after(now) && info.node == NodeId(2) && info.src.0 < 2,
                0,
            ),
        );
        sim.run();
        let (crossed, _) = sim.finish();
        assert_eq!(crossed.1, 0, "the node's repair revived the failed link");
        assert_eq!(
            scenario.failed_links_at(&zoo::line(4), SimTime::from_ms(100)),
            vec![LinkId(1)],
            "the ground truth still lists it"
        );
        let mut sim = line_sim(
            &scenario,
            12,
            Count(
                |now, info: &HopInfo| after(now) && info.node == NodeId(1) && info.src == NodeId(0),
                0,
            ),
        );
        sim.run();
        assert!(sim.finish().0 .1 > 0, "the repaired node forwards again");
    }

    #[test]
    fn a_link_stays_down_until_both_of_its_nodes_are_back() {
        // s1 and s2 fail together; s1 comes back at 80 ms, s2 at 120 ms.
        let mut scenario = FailureScenario::node(NodeId(1), SimTime::from_ms(40))
            .merged(FailureScenario::node(NodeId(2), SimTime::from_ms(40)));
        scenario.events[0].repair_at = Some(SimTime::from_ms(80));
        scenario.events[1].repair_at = Some(SimTime::from_ms(120));
        let resumed = |now: SimTime, info: &HopInfo| {
            now > SimTime::from_ms(120) && info.node == NodeId(2) && info.src.0 < 2
        };
        let mut sim = line_sim(&scenario, 13, Count(resumed, 0));
        let flight = std::sync::Arc::new(FlightRecorder::new(1 << 16));
        sim.set_flight(flight.clone());
        sim.run();
        // Between the repairs s1 forwards again, and what it sends towards
        // the dead s2 must die on the link between them.
        let between = |at_ns: u64| {
            at_ns > SimTime::from_ms(85).as_ns() && at_ns <= SimTime::from_ms(120).as_ns()
        };
        let died_on_the_link = flight.snapshot().records.iter().any(|r| {
            matches!(r, FlightRecord::PacketDropped { at_ns, link: 1, kind: DropKind::Down, .. }
                if between(*at_ns))
        });
        assert!(
            died_on_the_link,
            "s1's repair revived the link to the dead s2"
        );
        assert!(sim.finish().0 .1 > 0, "traffic crosses once both are back");
    }

    #[test]
    fn per_flow_counters_sum_to_totals() {
        let (_, stats) = run_line(&FailureScenario::none(), SimConfig::default(), 11);
        assert_eq!(stats.sent_per_flow.iter().sum::<u64>(), stats.packets_sent);
        assert_eq!(
            stats.delivered_per_flow.iter().sum::<u64>(),
            stats.delivered
        );
    }

    #[test]
    fn stats_wire_round_trip_is_exact() {
        let (_, stats) = run_line(&FailureScenario::none(), SimConfig::default(), 11);
        assert!(!stats.finished_at.is_empty());
        let mut w = db_util::wire::ByteWriter::new();
        stats.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = db_util::wire::ByteReader::new(&bytes);
        let back = SimStats::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, stats);
    }

    fn packet(v: u32) -> Packet {
        Packet {
            flow: v,
            seq: u64::from(v) * 7,
            size: v % 1500,
            hop: v as u16,
            ann: Annotation::from_bytes(&v.to_be_bytes()),
        }
    }

    /// An event of every kind from one draw.
    fn event(kind: u8, v: u32) -> Ev {
        match kind {
            0 => Ev::HostSend { flow: v },
            1 => Ev::AckArrive { flow: v },
            2 => Ev::Tick,
            3 => Ev::Arrive(packet(v)),
            4 => Ev::SetLink {
                link: v as u16,
                state: LinkState::Corrupted(f64::from(v % 100) / 100.0),
            },
            _ => Ev::SetNode {
                node: v as u16,
                up: v.is_multiple_of(2),
            },
        }
    }

    /// The queue and the ordering it replaced, side by side: a
    /// `BinaryHeap` of `(at, seq)` and the events by seq.
    #[derive(Clone)]
    struct Pair {
        queue: EventQueue,
        oracle: BinaryHeap<Reverse<(SimTime, u64)>>,
        events: BTreeMap<u64, Ev>,
        now: SimTime,
        /// Latest time pushed to arrival lanes 0 and 1 and ACK lane 0.
        tails: [SimTime; 3],
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                queue: EventQueue::new(2, 1, 4),
                oracle: Default::default(),
                events: Default::default(),
                now: SimTime::ZERO,
                tails: [SimTime::ZERO; 3],
            }
        }

        /// Apply one drawn op: kinds 0–5 push to the heap at `now + dt`;
        /// 6–8 push to arrival lane 0 or 1 or ACK lane 0 at `now + dt` or,
        /// if later, the lane's tail; 9–10 pop what is due by `now + dt`.
        /// Heap pushes take seqs from `seqs`, the control counter or the
        /// run's, so both seq classes meet at equal times; lane pushes are
        /// the run's own.
        fn apply(
            &mut self,
            (op, dt, v, run): (u8, u64, u32, u8),
            seqs: &mut [u64; 2],
        ) -> TestCaseResult {
            let limit = self.now + SimTime::from_ns(dt);
            if op < 9 {
                let (at, seq) = if op < 6 {
                    (limit, &mut seqs[usize::from(run)])
                } else {
                    let tail = &mut self.tails[usize::from(op - 6)];
                    *tail = limit.max(*tail);
                    (*tail, &mut seqs[1])
                };
                *seq += 1;
                let ev = match op {
                    0..=5 => {
                        let ev = event(op, v);
                        self.queue.push(at, *seq, ev);
                        ev
                    }
                    6 | 7 => {
                        self.queue
                            .push_arrival(u32::from(op - 6), at, *seq, packet(v));
                        Ev::Arrive(packet(v))
                    }
                    _ => {
                        self.queue.push_ack(0, at, *seq, v);
                        Ev::AckArrive { flow: v }
                    }
                };
                self.oracle.push(Reverse((at, *seq)));
                self.events.insert(*seq, ev);
            } else {
                let want = match self.oracle.peek() {
                    Some(&Reverse((at, _))) if at <= limit => {
                        let Reverse((at, seq)) = self.oracle.pop().unwrap();
                        Some((at, self.events.remove(&seq).unwrap()))
                    }
                    _ => None,
                };
                let got = self.queue.pop_if(|at| at <= limit);
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got {
                    self.now = at;
                }
            }
            prop_assert_eq!(self.queue.len(), self.oracle.len());
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random heap and lane push/pop interleavings over a handful of
        /// distinct times pop exactly as the `BinaryHeap` oracle does, and
        /// a fork taken mid-stream pops what its original pops from there
        /// on, each unaffected by the other.
        #[test]
        fn the_queue_pops_in_oracle_order_across_a_fork(
            ops in proptest::collection::vec((0u8..11, 0u64..3, 0u32..=u32::MAX, 0u8..2), 0..600),
            cut in 0usize..600,
        ) {
            let mut seqs = [0, RUN_SEQ_BASE];
            let mut a = Pair::new();
            let cut = cut.min(ops.len());
            for &op in &ops[..cut] {
                a.apply(op, &mut seqs)?;
            }
            let mut b = a.clone();
            let mut b_seqs = seqs;
            for &op in &ops[cut..] {
                a.apply(op, &mut seqs)?;
            }
            // The fork runs the same tail after its original has finished,
            // then both drain.
            for &op in &ops[cut..] {
                b.apply(op, &mut b_seqs)?;
            }
            for pair in [&mut a, &mut b] {
                while !pair.oracle.is_empty() {
                    pair.apply((9, u64::MAX / 2, 0, 0), &mut [0, 0])?;
                }
                prop_assert_eq!(pair.queue.pop_if(|_| true), None);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lane push out of order")]
    fn a_lane_push_before_its_tail_is_refused() {
        let mut queue = EventQueue::new(1, 1, 4);
        queue.push_ack(0, SimTime::from_us(2), RUN_SEQ_BASE + 1, 7);
        queue.push_ack(0, SimTime::from_us(1), RUN_SEQ_BASE + 2, 8);
    }
}
