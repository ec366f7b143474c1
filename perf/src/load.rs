//! The load generator: a closed loop (the next request leaves when the
//! previous reply arrived — a caller that waits) and an open loop (writes
//! leave on a fixed schedule whatever the server does — a graph-update
//! stream has its own clock).
//!
//! The open loop times every write **from when it was due**, not from
//! when it was sent: a stalled server lengthens the latencies of the
//! writes queued behind the stall instead of silently shifting the
//! schedule (coordinated omission).

use std::time::{Duration, Instant};

use crate::stats::Sample;

/// What one closed-loop operation reports about itself. The operation
/// takes its own timestamps, so request building stays outside them.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// Just before the operation's first timed action.
    pub start: Instant,
    /// When its verified-successful reply was complete.
    pub end: Instant,
    /// Operation class (index into the workload's class table).
    pub class: u8,
    /// Whether it succeeded; a failed operation has no latency sample.
    pub ok: bool,
}

/// What a closed loop recorded over its measured window.
#[derive(Clone, Debug, Default)]
pub struct LoopLog {
    /// One sample per successful operation that completed in the window.
    pub samples: Vec<Sample>,
    /// Operations that completed (or failed) in the window.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Operations issued in total, warm-up included (the next free
    /// operation index — lets a following loop continue the sequence).
    pub issued: u64,
}

impl LoopLog {
    /// Fold a later window's log in; `issued` moves on to the later
    /// window's next free index.
    pub fn merge(&mut self, other: LoopLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.issued = self.issued.max(other.issued);
    }
}

/// Run `op(first_index + n)` back to back until `window_start + window`;
/// operations completing before `window_start` are warm-up and leave no
/// trace. Stops early after 32 consecutive failures (a dead server must
/// not spin the loop).
pub fn closed_loop(
    window_start: Instant,
    window: Duration,
    first_index: u64,
    mut op: impl FnMut(u64) -> Done,
) -> LoopLog {
    let window_end = window_start + window;
    let mut log = LoopLog { issued: first_index, ..LoopLog::default() };
    let mut consecutive_failures = 0u32;
    while Instant::now() < window_end && consecutive_failures < 32 {
        let done = op(log.issued);
        log.issued += 1;
        consecutive_failures = if done.ok { 0 } else { consecutive_failures + 1 };
        if done.end < window_start || done.end >= window_end {
            continue;
        }
        log.attempted += 1;
        if done.ok {
            log.samples.push(Sample {
                end_s: (done.end - window_start).as_secs_f64(),
                latency_ms: (done.end - done.start).as_secs_f64() * 1e3,
                class: done.class,
            });
        } else {
            log.failed += 1;
        }
    }
    log
}

/// Time source of the open loop; faked in tests so a stall costs nothing.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Block until `t` (returns at once if `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, measured from an origin instant.
pub struct RealClock(pub Instant);

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        // Sleep most of the way, spin the last stretch: a timer wake-up
        // is ~60 µs late on Linux, which would sit inside every write's
        // latency. The spin costs < 1 % of one core at a 50 ms period.
        const SPIN: Duration = Duration::from_micros(300);
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// One scheduled write as the open loop saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scheduled {
    /// Position in the schedule.
    pub index: u64,
    /// When it was due, since the clock's origin.
    pub due: Duration,
    /// How late the generator sent it (0 for an on-time generator).
    pub lateness: Duration,
    /// Due time → reply complete. This, not send → reply, is the latency.
    pub latency: Duration,
    /// Whether the write succeeded.
    pub ok: bool,
}

/// Send `op(i)` at `first_due + i·period` for every due time before
/// `until`. The schedule never shifts: after a stall the overdue writes
/// go out back to back and their latencies include the time they waited.
pub fn open_loop<C: Clock>(
    clock: &C,
    first_due: Duration,
    period: Duration,
    until: Duration,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<Scheduled> {
    let mut out = Vec::new();
    for index in 0u64.. {
        let due = first_due + period * index as u32;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = op(index);
        let done = clock.now();
        out.push(Scheduled { index, due, lateness: sent - due, latency: done - due, ok });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to; `sleep_until` jumps.
    #[derive(Default)]
    pub struct FakeClock(Cell<Duration>);

    impl FakeClock {
        /// Let `d` pass (the fake server's service time).
        pub fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_stall_lengthens_later_writes_and_keeps_the_schedule() {
        let clock = FakeClock::default();
        // 50 ms period, 10 writes due at 0, 50, …, 450; write 3 stalls
        // the server for 170 ms, every other write takes 1 ms.
        let writes = open_loop(&clock, Duration::ZERO, 50 * MS, 500 * MS, |i| {
            clock.advance(if i == 3 { 170 * MS } else { MS });
            true
        });
        assert_eq!(writes.len(), 10, "the stall must not drop or add writes");
        for (i, w) in writes.iter().enumerate() {
            assert_eq!(w.due, 50 * MS * i as u32, "due times never move");
        }
        let latency_ms: Vec<u128> = writes.iter().map(|w| w.latency.as_millis()).collect();
        let lateness_ms: Vec<u128> = writes.iter().map(|w| w.lateness.as_millis()).collect();
        // Write 3 (due 150) finishes at 320. Writes 4, 5 and 6 were due
        // at 200, 250 and 300 — all already past — and go out back to
        // back: their latencies count the wait behind the stall.
        assert_eq!(latency_ms, vec![1, 1, 1, 170, 121, 72, 23, 1, 1, 1]);
        assert_eq!(lateness_ms, vec![0, 0, 0, 0, 120, 71, 22, 0, 0, 0]);
    }

    #[test]
    fn open_loop_reports_failures_and_respects_first_due() {
        let clock = FakeClock::default();
        let writes = open_loop(&clock, 10 * MS, 20 * MS, 70 * MS, |i| {
            clock.advance(MS);
            i != 1
        });
        assert_eq!(writes.iter().map(|w| w.due.as_millis()).collect::<Vec<_>>(), vec![10, 30, 50]);
        assert_eq!(writes.iter().map(|w| w.ok).collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    fn closed_loop_skips_warmup_and_counts_failures() {
        let start = Instant::now();
        // The window opens 30 ms from now and lasts 60 ms; each fake
        // operation takes ~2 ms; every 5th fails.
        let window_start = start + 30 * MS;
        let log = closed_loop(window_start, 60 * MS, 100, |i| {
            let s = Instant::now();
            std::thread::sleep(2 * MS);
            Done { start: s, end: Instant::now(), class: (i % 2) as u8, ok: i % 5 != 0 }
        });
        assert!(log.issued > 100 + 10, "{log:?}");
        assert!(log.attempted >= 5 && log.attempted < log.issued - 100, "warm-up leaked in");
        assert!(log.failed >= 1);
        assert_eq!(log.samples.len() as u64, log.attempted - log.failed);
        assert!(log.samples.iter().all(|s| s.end_s >= 0.0 && s.end_s < 0.06));
        assert!(log.samples.iter().all(|s| s.latency_ms >= 2.0));
    }

    #[test]
    fn closed_loop_gives_up_on_a_dead_server() {
        let log = closed_loop(Instant::now(), Duration::from_secs(30), 0, |_| {
            let now = Instant::now();
            Done { start: now, end: now, class: 0, ok: false }
        });
        assert_eq!(log.issued, 32);
        assert_eq!(log.failed, log.attempted);
    }

    #[test]
    fn real_clock_sleep_until_is_not_early() {
        let clock = RealClock(Instant::now());
        clock.sleep_until(3 * MS);
        let now = clock.now();
        assert!(now >= 3 * MS && now < 50 * MS, "{now:?}");
    }
}
