//! The sprint budget: one pool of sprint-seconds and the one rule that
//! drains and refills it.
//!
//! The budget is shared by all query executions (§1). It drains one
//! second per second for each currently sprinting execution and
//! refills toward capacity only while nothing is sprinting — the
//! paper's "after refill time elapses without sprinting, the budget ...
//! reaches full capacity" (§3). The ground-truth testbed, the queue
//! simulator's engines and the cloning race all hold a [`Budget`], so
//! the rule cannot differ between the system and its model. Each caller
//! validates its own configuration before building one.

use crate::time::SimTime;

/// Levels at or below this many sprint-seconds count as empty: one
/// microsecond, the simulation's clock resolution, so an exhaustion
/// horizon never rounds to a zero-length event.
pub const EMPTY_SECS: f64 = 1e-6;

/// Sprint budget state, brought up to date lazily at event times.
#[derive(Debug, Clone)]
pub struct Budget {
    capacity: f64,
    level: f64,
    refill_secs: f64,
    sprinting: usize,
    last: SimTime,
}

impl Budget {
    /// A full budget of `capacity` sprint-seconds that refills from
    /// empty in `refill_secs` seconds without sprinting, last updated at
    /// time zero. An infinite capacity is the unlimited budget, and an
    /// infinite refill time never refills. Callers validate both values.
    pub fn new(capacity: f64, refill_secs: f64) -> Budget {
        Budget {
            capacity,
            level: capacity,
            refill_secs,
            sprinting: 0,
            last: SimTime::ZERO,
        }
    }

    /// Brings the level up to date at `now`, under the sprint count
    /// registered since the last update.
    #[inline]
    pub fn update(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "budget time went backwards");
        let dt = now.since(self.last).as_secs_f64();
        self.last = now;
        self.advance(dt, self.sprinting);
    }

    /// Moves the level across `dt_secs` seconds during which `sprinting`
    /// executions sprint, each draining one sprint-second per second
    /// down to empty; with none sprinting the pool refills at `capacity
    /// / refill_secs` per second up to capacity. An unlimited budget
    /// never moves. Callers with their own clock and sprint count call
    /// this instead of [`Budget::update`].
    #[inline]
    pub fn advance(&mut self, dt_secs: f64, sprinting: usize) {
        if self.capacity.is_infinite() {
            return;
        }
        if sprinting == 0 {
            self.level =
                (self.level + self.capacity / self.refill_secs * dt_secs).min(self.capacity);
        } else {
            self.level = (self.level - sprinting as f64 * dt_secs).max(0.0);
        }
    }

    /// Empties the pool, as when its exhaustion instant arrives.
    pub fn exhaust(&mut self) {
        self.level = 0.0;
    }

    /// Current level in sprint-seconds (as of the last update).
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Budget capacity in sprint-seconds.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Whether a usable amount of sprint-seconds remains: more than
    /// [`EMPTY_SECS`], or an unlimited budget.
    #[inline]
    pub fn available(&self) -> bool {
        self.level > EMPTY_SECS || self.capacity.is_infinite()
    }

    /// Number of executions currently draining the budget.
    pub fn sprinting(&self) -> usize {
        self.sprinting
    }

    /// Registers a sprint start. Call `update` first.
    #[inline]
    pub fn start_sprint(&mut self) {
        self.sprinting += 1;
    }

    /// Registers a sprint end. Call `update` first.
    ///
    /// # Panics
    ///
    /// Panics if no sprint is active.
    #[inline]
    pub fn end_sprint(&mut self) {
        assert!(self.sprinting > 0, "no active sprint to end");
        self.sprinting -= 1;
    }

    /// Seconds until the pool empties at the current drain rate, or
    /// `None` if it is not draining (nothing sprinting, or unlimited).
    #[inline]
    pub fn seconds_to_exhaustion(&self) -> Option<f64> {
        if self.sprinting == 0 || self.capacity.is_infinite() {
            None
        } else {
            Some(self.level / self.sprinting as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn starts_full() {
        let b = Budget::new(100.0, 500.0);
        assert_eq!(b.level(), 100.0);
        assert!(b.available());
    }

    #[test]
    fn drains_while_sprinting() {
        let mut b = Budget::new(100.0, 500.0);
        b.update(t(0));
        b.start_sprint();
        b.update(t(30));
        assert!((b.level() - 70.0).abs() < 1e-9);
        assert_eq!(b.seconds_to_exhaustion(), Some(70.0));
    }

    #[test]
    fn two_sprints_drain_twice_as_fast() {
        let mut b = Budget::new(100.0, 500.0);
        b.start_sprint();
        b.start_sprint();
        b.update(t(20));
        assert!((b.level() - 60.0).abs() < 1e-9);
        assert_eq!(b.seconds_to_exhaustion(), Some(30.0));
    }

    #[test]
    fn refills_when_idle() {
        let mut b = Budget::new(100.0, 500.0);
        b.start_sprint();
        b.update(t(50)); // Level 50.
        b.end_sprint();
        b.update(t(50) + SimDuration::from_secs(125));
        // Refill rate = 100/500 = 0.2/s, so +25 over 125 s.
        assert!((b.level() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = Budget::new(100.0, 500.0);
        b.start_sprint();
        b.update(t(10));
        b.end_sprint();
        b.update(t(10_000));
        assert_eq!(b.level(), 100.0);
    }

    #[test]
    fn drain_floors_at_zero() {
        let mut b = Budget::new(10.0, 100.0);
        b.start_sprint();
        b.update(t(50));
        assert_eq!(b.level(), 0.0);
        assert!(!b.available());
    }

    #[test]
    fn no_refill_while_sprinting() {
        // Per the paper, refill requires time *without* sprinting.
        let mut b = Budget::new(100.0, 100.0);
        b.start_sprint();
        b.update(t(30));
        assert!((b.level() - 70.0).abs() < 1e-9);
        // Still sprinting: continues to drain, never accrues.
        b.update(t(60));
        assert!((b.level() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn advance_takes_the_callers_sprint_count() {
        let mut b = Budget::new(100.0, 500.0);
        b.advance(10.0, 3);
        assert!((b.level() - 70.0).abs() < 1e-9);
        assert_eq!(b.sprinting(), 0, "advance keeps no count of its own");
        b.advance(50.0, 0);
        assert!((b.level() - 80.0).abs() < 1e-9);
        b.exhaust();
        assert_eq!(b.level(), 0.0);
        assert!(!b.available());
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut b = Budget::new(f64::INFINITY, 100.0);
        b.start_sprint();
        b.update(t(1_000_000));
        assert!(b.available());
        assert_eq!(b.seconds_to_exhaustion(), None);
    }

    #[test]
    #[should_panic(expected = "no active sprint")]
    fn end_without_start_panics() {
        let mut b = Budget::new(10.0, 10.0);
        b.end_sprint();
    }
}
