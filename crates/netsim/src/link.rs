//! Runtime link model: state machine, propagation, serialization, queueing.
//!
//! Each undirected topology link becomes a pair of independent directed
//! channels. A channel applies, in order:
//!
//! 1. **State check** — a down link drops everything; a corrupted link drops
//!    i.i.d. with its loss rate (the paper's link-corruption failure model).
//! 2. **Queueing** — a busy-interval model of a drop-tail FIFO: the channel
//!    remembers until when its transmitter is busy; a packet whose wait would
//!    exceed the configured queue bound is dropped (buffer overflow).
//! 3. **Serialization + propagation** — `size * 8 / bandwidth` plus the
//!    link's propagation delay.

use crate::time::SimTime;

/// Administrative/failure state of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkState {
    /// Healthy: forwards everything (modulo queue overflow).
    Up,
    /// Corrupted: drops each packet independently with this probability
    /// ("a corrupted link will drop packets at a considerable rate", §1).
    Corrupted(f64),
    /// Failed: drops all packets.
    Down,
}

impl LinkState {
    /// Whether this state is a failure unit for ground-truth purposes.
    ///
    /// A corruption counts as a failure when its loss rate is at least
    /// `min_corrupt`, mirroring the paper's treatment of corrupted links as
    /// culprits of packet loss.
    pub fn is_failure(&self, min_corrupt: f64) -> bool {
        match *self {
            LinkState::Up => false,
            LinkState::Corrupted(p) => p >= min_corrupt,
            LinkState::Down => true,
        }
    }
}

/// Outcome of offering a packet to a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet will arrive at the far end at the given time.
    Arrive(SimTime),
    /// Dropped: the link is down.
    DropDown,
    /// Dropped: the corruption coin came up tails.
    DropCorrupt,
    /// Dropped: the queue bound was exceeded.
    DropQueue,
}

/// Mutable per-link runtime state (both directions).
#[derive(Debug, Clone)]
pub struct LinkRuntime {
    /// The link's own failure state (shared by both directions, as in the
    /// paper: a failed link drops packets of both unidirectional flows,
    /// Fig. 2) — what its own failure and repair events set.
    own: LinkState,
    /// Whether both endpoint nodes are up. Kept apart from `own` so that a
    /// node coming back neither repairs a link that failed on its own nor
    /// revives one whose other end is still down.
    ends_up: bool,
    /// Propagation delay.
    prop: SimTime,
    /// Serialization time per byte, in nanoseconds (ns/B), as f64 for precision.
    ns_per_byte: f64,
    /// Per-direction transmitter-busy horizon.
    busy_until: [SimTime; 2],
    /// Maximum tolerated queue wait before tail drop.
    max_wait: SimTime,
}

impl LinkRuntime {
    /// Create a healthy link runtime.
    ///
    /// `latency_ms` is the propagation delay; `bandwidth_mbps` the capacity;
    /// `max_queue_ms` the drop-tail bound expressed as maximum queuing delay.
    pub fn new(latency_ms: f64, bandwidth_mbps: f64, max_queue_ms: f64) -> Self {
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        LinkRuntime {
            own: LinkState::Up,
            ends_up: true,
            prop: SimTime::from_ms_f64(latency_ms),
            ns_per_byte: 8_000.0 / bandwidth_mbps,
            busy_until: [SimTime::ZERO; 2],
            max_wait: SimTime::from_ms_f64(max_queue_ms),
        }
    }

    /// The state packets meet: `Down` while either endpoint is down, else
    /// the link's own.
    pub fn state(&self) -> LinkState {
        if self.ends_up {
            self.own
        } else {
            LinkState::Down
        }
    }

    /// Set the link's own state (its failure, corruption or repair).
    pub fn set_state(&mut self, own: LinkState) {
        self.own = own;
    }

    /// Record whether both endpoint nodes are up.
    pub fn set_ends_up(&mut self, ends_up: bool) {
        self.ends_up = ends_up;
    }

    /// Offer a packet of `size` bytes to direction `dir` (0 = a→b, 1 = b→a)
    /// at time `now`. `corrupt_coin` must be a fresh uniform draw in `[0,1)`
    /// (passed in so the engine controls RNG streams). The transmitter is
    /// FIFO: for a non-decreasing `now`, a direction's arrival times never
    /// decrease, which the engine's per-direction event lanes rely on.
    pub fn transmit(
        &mut self,
        dir: usize,
        now: SimTime,
        size: u32,
        corrupt_coin: f64,
    ) -> TxOutcome {
        match self.state() {
            LinkState::Down => return TxOutcome::DropDown,
            LinkState::Corrupted(p) => {
                if corrupt_coin < p {
                    return TxOutcome::DropCorrupt;
                }
            }
            LinkState::Up => {}
        }
        let busy = self.busy_until[dir];
        let wait = busy.saturating_sub(now);
        if wait > self.max_wait {
            return TxOutcome::DropQueue;
        }
        let ser = SimTime::from_ns((size as f64 * self.ns_per_byte).round() as u64);
        let start = if busy > now { busy } else { now };
        let depart = start + ser;
        self.busy_until[dir] = depart;
        TxOutcome::Arrive(depart + self.prop)
    }

    /// Propagation delay of the link.
    pub fn propagation(&self) -> SimTime {
        self.prop
    }

    /// Queue wait a packet offered to direction `dir` at `now` would incur
    /// (zero when the transmitter is idle). Purely observational — used by
    /// the engine's queue-wait histogram.
    pub fn queue_wait(&self, dir: usize, now: SimTime) -> SimTime {
        self.busy_until[dir].saturating_sub(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkRuntime {
        // 1 ms propagation, 1 Gbps, 5 ms queue bound.
        LinkRuntime::new(1.0, 1_000.0, 5.0)
    }

    #[test]
    fn idle_link_delivers_after_ser_plus_prop() {
        let mut l = link();
        // 1500 B at 1 Gbps = 12 µs serialization; + 1 ms propagation.
        match l.transmit(0, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => assert_eq!(t.as_ns(), 12_000 + 1_000_000),
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = link();
        let t1 = match l.transmit(0, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => t,
            o => panic!("{o:?}"),
        };
        let t2 = match l.transmit(0, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => t,
            o => panic!("{o:?}"),
        };
        assert_eq!(
            t2 - t1,
            SimTime::from_us(12),
            "second packet waits one serialization"
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        let fwd = match l.transmit(0, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => t,
            o => panic!("{o:?}"),
        };
        let rev = match l.transmit(1, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => t,
            o => panic!("{o:?}"),
        };
        assert_eq!(fwd, rev, "reverse direction must not see forward queue");
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = link();
        // Saturate: each 1500 B packet holds the transmitter 12 µs; the queue
        // bound is 5 ms ≈ 416 packets in flight.
        let mut drops = 0;
        for _ in 0..500 {
            if l.transmit(0, SimTime::ZERO, 1500, 0.9) == TxOutcome::DropQueue {
                drops += 1;
            }
        }
        assert!(drops > 0, "sustained overload must tail-drop");
    }

    #[test]
    fn down_drops_everything() {
        let mut l = link();
        l.set_state(LinkState::Down);
        assert_eq!(l.transmit(0, SimTime::ZERO, 100, 0.99), TxOutcome::DropDown);
        assert_eq!(l.transmit(1, SimTime::ZERO, 100, 0.0), TxOutcome::DropDown);
    }

    #[test]
    fn a_down_endpoint_masks_the_links_own_state_and_gives_it_back() {
        let mut l = link();
        l.set_state(LinkState::Corrupted(0.3));
        l.set_ends_up(false);
        assert_eq!(l.state(), LinkState::Down);
        assert_eq!(l.transmit(0, SimTime::ZERO, 100, 0.99), TxOutcome::DropDown);
        l.set_ends_up(true);
        assert_eq!(l.state(), LinkState::Corrupted(0.3));
    }

    #[test]
    fn corruption_drops_by_coin() {
        let mut l = link();
        l.set_state(LinkState::Corrupted(0.3));
        assert_eq!(
            l.transmit(0, SimTime::ZERO, 100, 0.29),
            TxOutcome::DropCorrupt
        );
        assert!(matches!(
            l.transmit(0, SimTime::ZERO, 100, 0.31),
            TxOutcome::Arrive(_)
        ));
    }

    #[test]
    fn corrupted_link_still_queues_survivors() {
        let mut l = link();
        l.set_state(LinkState::Corrupted(0.5));
        let t1 = match l.transmit(0, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => t,
            o => panic!("{o:?}"),
        };
        // A dropped packet must NOT occupy the transmitter.
        assert_eq!(
            l.transmit(0, SimTime::ZERO, 1500, 0.1),
            TxOutcome::DropCorrupt
        );
        let t2 = match l.transmit(0, SimTime::ZERO, 1500, 0.9) {
            TxOutcome::Arrive(t) => t,
            o => panic!("{o:?}"),
        };
        assert_eq!(t2 - t1, SimTime::from_us(12));
    }

    #[test]
    fn is_failure_threshold() {
        assert!(!LinkState::Up.is_failure(0.05));
        assert!(LinkState::Down.is_failure(0.05));
        assert!(LinkState::Corrupted(0.10).is_failure(0.05));
        assert!(!LinkState::Corrupted(0.01).is_failure(0.05));
    }
}
