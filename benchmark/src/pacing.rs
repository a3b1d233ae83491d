//! Open-loop pacing: every send is due at a point on a fixed schedule
//! `t0 + sent/rate`, never at "previous send + gap", so a stall in the
//! system under test (or in the generator) does not stretch the schedule —
//! the work that was due during the stall is sent late and timed from when
//! it was due.

use std::time::{Duration, Instant};

/// A fixed-rate schedule in records per second.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    t0: Instant,
    rate: f64,
}

/// How long before the due time the waiter stops sleeping and spins: the
/// sandbox's timer wake-ups land a few tens of µs late, a spin does not.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

impl Schedule {
    /// A schedule starting at `t0` that emits `rate` records per second.
    pub fn new(t0: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "pacing rate must be positive");
        Schedule { t0, rate }
    }

    /// Offset from `t0` at which the batch that follows `sent` records is
    /// due.
    pub fn due_offset(&self, sent: u64) -> Duration {
        Duration::from_secs_f64(sent as f64 / self.rate)
    }

    /// The instant at which the batch that follows `sent` records is due.
    pub fn due(&self, sent: u64) -> Instant {
        self.t0 + self.due_offset(sent)
    }

    /// Sleep, then spin, until `due`. Returns how late the wait ended
    /// (zero when the caller arrived early and was held to the schedule).
    pub fn wait_until(due: Instant) -> Duration {
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            let left = due - now;
            if left > SPIN_MARGIN {
                std::thread::sleep(left - SPIN_MARGIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_come_from_the_schedule_not_the_previous_send() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 200_000.0);
        // 256-record batches at 200 k records/s are 1.28 ms apart, wherever
        // the previous send actually happened.
        assert_eq!(s.due_offset(0), Duration::ZERO);
        assert_eq!(s.due_offset(256), Duration::from_micros(1280));
        assert_eq!(s.due_offset(256 * 1000), Duration::from_millis(1280));
        assert_eq!(s.due(512) - s.due(256), Duration::from_micros(1280));
    }

    #[test]
    fn a_late_caller_is_not_held_and_reports_its_lateness() {
        let due = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let late = Schedule::wait_until(due);
        assert!(late >= Duration::from_millis(2));
    }

    #[test]
    fn an_early_caller_is_held_until_due() {
        let due = Instant::now() + Duration::from_millis(3);
        let late = Schedule::wait_until(due);
        assert!(Instant::now() >= due);
        assert!(late < Duration::from_millis(3));
    }
}
