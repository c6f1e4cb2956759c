//! The reactor proper: one event queue, one virtual clock, and the id
//! of every event.

use simcore::event::EventQueue;
use simcore::time::SimTime;

/// An event and the id the reactor assigned to it at scheduling time.
#[derive(Debug)]
struct Traced<E> {
    id: u64,
    ev: E,
}

/// A deterministic single-threaded event reactor.
///
/// All state transitions in a run happen at popped events; the clock is
/// the timestamp of the most recently popped event. The reactor keeps
/// no journal: a driver that journals pushes each event it pops (and
/// any routing verdict it decides) into its own typed
/// [`Journal`](crate::Journal), the way it attaches a recorder or a
/// tracer, so the run's entire decision sequence replays and diffs from
/// `(seed, plan)` alone.
///
/// [`Reactor::schedule`] assigns each event a sequential id, and
/// [`Reactor::current_event_id`] names the event just popped, so a
/// driver can key state it carries beside an event (the fleet tracer's
/// in-flight trace contexts) by that id. The ids are derived purely
/// from scheduling order, so they are bit-identical across replays of
/// the same `(seed, plan)`.
#[derive(Debug)]
pub struct Reactor<E> {
    queue: EventQueue<Traced<E>>,
    next_id: u64,
    /// Id of the most recently popped event.
    current: u64,
}

impl<E> Default for Reactor<E> {
    fn default() -> Self {
        Reactor::new()
    }
}

impl<E> Reactor<E> {
    /// An empty reactor at time zero.
    pub fn new() -> Reactor<E> {
        Reactor {
            queue: EventQueue::new(),
            next_id: 1,
            current: 0,
        }
    }

    /// The current virtual time (the last popped event's instant).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules `event` at `at`, returning its assigned event id.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current virtual time.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.schedule(at, Traced { id, ev: event });
        id
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, t) = self.queue.pop()?;
        self.current = t.id;
        Some((at, t.ev))
    }

    /// Id of the most recently popped event (`0` before the first pop).
    pub fn current_event_id(&self) -> u64 {
        self.current
    }

    /// The instant of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Tick(u32),
        Msg { from: u32, to: u32 },
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut r: Reactor<Ev> = Reactor::new();
        r.schedule(SimTime::from_secs(2), Ev::Tick(2));
        r.schedule(SimTime::from_secs(1), Ev::Tick(1));
        r.schedule(SimTime::from_secs(1), Ev::Msg { from: 0, to: 1 });
        let mut seen = Vec::new();
        while let Some((at, ev)) = r.pop() {
            assert_eq!(at, r.now());
            seen.push(ev);
        }
        assert_eq!(
            seen,
            vec![Ev::Tick(1), Ev::Msg { from: 0, to: 1 }, Ev::Tick(2)]
        );
    }

    #[test]
    fn event_ids_name_the_popped_event() {
        let mut r: Reactor<Ev> = Reactor::new();
        let root = r.schedule(SimTime::from_secs(1), Ev::Tick(0));
        assert_eq!(root, 1);
        assert_eq!(r.current_event_id(), 0);
        let (_, _) = r.pop().unwrap();
        assert_eq!(r.current_event_id(), root);
        let child = r.schedule(SimTime::from_secs(2), Ev::Tick(1));
        let (_, _) = r.pop().unwrap();
        assert_eq!(r.current_event_id(), child);
    }

    #[test]
    fn event_ids_are_identical_across_replays() {
        let drive = || {
            let mut r: Reactor<Ev> = Reactor::new();
            let mut seen = Vec::new();
            for i in 0..8 {
                r.schedule(SimTime::from_secs(i % 3), Ev::Tick(i as u32));
            }
            while let Some((_, ev)) = r.pop() {
                seen.push((r.current_event_id(), ev));
                if seen.len() < 12 {
                    r.schedule(r.now(), Ev::Msg { from: 0, to: 1 });
                }
            }
            seen
        };
        assert_eq!(drive(), drive());
    }
}
