//! Per-sampling-interval measures (Table 1).
//!
//! §4.1: "we divide each sampling interval into sub-intervals with serial
//! numbers. A sub-interval will be labeled as a burst if the switch receives
//! at least one packet from the monitored flow during it." The measures are
//! updated per packet in O(1) — they must be implementable as P4 register
//! writes.

use db_netsim::SimTime;

/// Number of burst sub-intervals a sampling interval is divided into.
pub const SUB_INTERVALS: u32 = 8;

/// The six measures of Table 1, accumulated over one sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalMeasures {
    /// Number of received packets.
    pub n_packet: u32,
    /// Total size of received packets, bytes.
    pub len_all: u64,
    /// Size of the largest packet, bytes.
    pub len_max: u32,
    /// Size of the last (most recent) packet, bytes.
    pub len_last: u32,
    /// Number of bursts (sub-intervals containing ≥ 1 packet).
    pub n_burst: u32,
    /// 1-based serial number of the last burst sub-interval; 0 if none.
    pub pos_burst: u32,
}

impl IntervalMeasures {
    /// Record one packet received `offset` into an interval of length
    /// `interval`. Offsets at or beyond the interval length clamp into the
    /// final sub-interval (can happen with boundary rounding).
    pub fn record(&mut self, offset: SimTime, interval: SimTime, size: u32) {
        debug_assert!(interval > SimTime::ZERO, "interval must be positive");
        self.n_packet += 1;
        self.len_all += size as u64;
        self.len_max = self.len_max.max(size);
        self.len_last = size;
        let sub_len = (interval.as_ns() / SUB_INTERVALS as u64).max(1);
        let sub = ((offset.as_ns() / sub_len) as u32).min(SUB_INTERVALS - 1) + 1;
        if sub != self.pos_burst {
            self.n_burst += 1;
            self.pos_burst = sub;
        }
    }

    /// Whether no packet was recorded.
    pub fn is_empty(&self) -> bool {
        self.n_packet == 0
    }

    /// The six measures widened to `u64`, in Table-1 order — the form the
    /// monitor's running window sums are kept in.
    pub fn widened(&self) -> [u64; 6] {
        [
            u64::from(self.n_packet),
            self.len_all,
            u64::from(self.len_max),
            u64::from(self.len_last),
            u64::from(self.n_burst),
            u64::from(self.pos_burst),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IV: SimTime = SimTime::from_ms(4);

    #[test]
    fn single_packet() {
        let mut m = IntervalMeasures::default();
        m.record(SimTime::from_us(100), IV, 1500);
        assert_eq!(m.n_packet, 1);
        assert_eq!(m.len_all, 1500);
        assert_eq!(m.len_max, 1500);
        assert_eq!(m.len_last, 1500);
        assert_eq!(m.n_burst, 1);
        assert_eq!(m.pos_burst, 1, "100µs of 4ms is the first sub-interval");
        assert!(!m.is_empty());
    }

    #[test]
    fn len_last_tracks_most_recent_not_largest() {
        let mut m = IntervalMeasures::default();
        m.record(SimTime::from_us(0), IV, 1500);
        m.record(SimTime::from_us(10), IV, 200);
        assert_eq!(m.len_max, 1500);
        assert_eq!(m.len_last, 200);
        assert_eq!(m.len_all, 1700);
    }

    #[test]
    fn bursts_count_distinct_subintervals() {
        // 4 ms / 8 sub-intervals = 500 µs each.
        let mut m = IntervalMeasures::default();
        m.record(SimTime::from_us(100), IV, 100); // sub 1
        m.record(SimTime::from_us(200), IV, 100); // sub 1 again, same burst
        m.record(SimTime::from_us(1_600), IV, 100); // sub 4
        m.record(SimTime::from_us(3_900), IV, 100); // sub 8
        assert_eq!(m.n_burst, 3);
        assert_eq!(m.pos_burst, 8);
    }

    #[test]
    fn alternating_subintervals_count_as_separate_bursts() {
        // A packet returning to an earlier sub-interval number would be a new
        // burst too (cannot happen in time order, but the register logic only
        // compares serial numbers, as the P4 version would).
        let mut m = IntervalMeasures::default();
        m.record(SimTime::from_us(100), IV, 100); // sub 1
        m.record(SimTime::from_us(1_600), IV, 100); // sub 4
        m.record(SimTime::from_us(1_700), IV, 100); // sub 4, same burst
        assert_eq!(m.n_burst, 2);
    }

    #[test]
    fn offset_at_boundary_clamps() {
        let mut m = IntervalMeasures::default();
        m.record(IV, IV, 100); // offset == interval, clamps to last sub
        assert_eq!(m.pos_burst, SUB_INTERVALS);
    }

    #[test]
    fn empty_default() {
        let m = IntervalMeasures::default();
        assert!(m.is_empty());
        assert_eq!(m.pos_burst, 0);
        assert_eq!(m.n_burst, 0);
    }
}
