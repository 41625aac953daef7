//! Open-loop load: requests fall due on a fixed schedule whether or not
//! earlier ones have answered, and each is timed from its due time, so a
//! stall is charged to every request queued behind it.

use std::time::{Duration, Instant};

/// Time source for the generator; tests substitute a manual clock.
pub trait Clock {
    /// Time since the generator started.
    fn now(&self) -> Duration;
    /// Blocks until `at` (returns at once if it has passed).
    fn sleep_until(&self, at: Duration);
}

/// The wall clock.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }

    /// The instant the clock reads zero.
    pub fn origin(&self) -> Instant {
        self.0
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at - now);
        }
    }
}

/// How long after the window the backlog of requests due inside it may
/// still be sent. A request due just before the close that waits behind
/// one slow answer is late, not lost; one still waiting after this is.
pub const DRAIN: Duration = Duration::from_millis(500);

/// What the generator saw over one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopReport {
    /// Per request sent: `(slot, latency from due time, succeeded)`.
    pub completed: Vec<(usize, Duration, bool)>,
    /// How late each request was sent relative to its due time.
    pub lateness: Vec<Duration>,
    /// Requests that fell due inside the window but were never sent.
    pub unsent: usize,
}

/// Sends slot `i` at `i × period` for every slot due before `window`.
/// `send(slot)` performs one request and returns whether it succeeded.
/// A request is timed from its due time to its completion. The backlog
/// of slots due inside the window may drain for [`DRAIN`] after it; slots
/// still unsent then are counted as [`unsent`](OpenLoopReport::unsent).
pub fn run_open_loop(
    clock: &impl Clock,
    period: Duration,
    window: Duration,
    mut send: impl FnMut(usize) -> bool,
) -> OpenLoopReport {
    let mut report = OpenLoopReport::default();
    let due = |i: usize| period * u32::try_from(i).expect("slot count fits u32");
    let slots = (0..).take_while(|&i| due(i) < window).count();
    for i in 0..slots {
        clock.sleep_until(due(i));
        let sent_at = clock.now();
        if sent_at >= window + DRAIN {
            report.unsent = slots - i;
            break;
        }
        report.lateness.push(sent_at - due(i));
        let ok = send(i);
        report.completed.push((i, clock.now() - due(i), ok));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct ManualClock(Cell<Duration>);

    impl Clock for ManualClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn requests_behind_a_stall_are_timed_from_their_due_time() {
        // 100 req/s; request 0 stalls for 35 ms, the rest take 1 ms.
        let clock = ManualClock(Cell::new(Duration::ZERO));
        let report = run_open_loop(&clock, ms(10), ms(100), |i| {
            let cost = if i == 0 { ms(35) } else { ms(1) };
            clock.0.set(clock.0.get() + cost);
            true
        });
        let lat: Vec<Duration> = report.completed.iter().map(|c| c.1).collect();
        assert_eq!(lat[0], ms(35));
        // Due at 10 ms, sent at 35 ms, done at 36 ms: 26 ms, not 1 ms.
        assert_eq!(lat[1], ms(26));
        // Due at 20, sent at 36: 17 ms; due at 30, sent at 37: 8 ms.
        assert_eq!(lat[2], ms(17));
        assert_eq!(lat[3], ms(8));
        // Caught up: due at 40, sent on time.
        assert_eq!(lat[4], ms(1));
        assert_eq!(report.lateness[1], ms(25));
        assert_eq!(report.completed.len(), 10);
        assert_eq!(report.unsent, 0);
    }

    #[test]
    fn requests_still_unsent_after_the_drain_are_counted() {
        // Slot 2 of 10 stalls until past the close plus the drain, so
        // slots 3..9, due inside the window, are never sent.
        let clock = ManualClock(Cell::new(Duration::ZERO));
        let report = run_open_loop(&clock, ms(10), ms(100), |i| {
            let cost = if i == 2 { DRAIN + ms(100) } else { ms(5) };
            clock.0.set(clock.0.get() + cost);
            true
        });
        assert_eq!(report.completed.len(), 3);
        assert_eq!(report.unsent, 7);

        // A short stall near the close only makes the backlog late.
        let clock = ManualClock(Cell::new(Duration::ZERO));
        let report = run_open_loop(&clock, ms(10), ms(100), |i| {
            let cost = if i == 8 { ms(30) } else { ms(1) };
            clock.0.set(clock.0.get() + cost);
            true
        });
        assert_eq!(report.unsent, 0);
        assert_eq!(report.completed[9].1, ms(21));
    }
}
