//! The simulated network's routing verdict.
//!
//! Actors (sprint controller, budget sensor, watchdog, slots; fleet
//! nodes and coordinators) exchange typed messages, and a router
//! decides each message's fate. Without faults everything delivers
//! inline (synchronously, at the send site), which makes a fault-free
//! run bit-identical to direct method calls. A fault-injecting router
//! (see the `faults` crate) can delay, drop, duplicate, or partition
//! links instead — and because delays are drawn independently per
//! message, two delayed messages can overtake each other, so
//! *reordering* emerges without a dedicated knob.

use simcore::time::SimDuration;

/// The routing verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver synchronously at the send site (the fault-free path; no
    /// event is scheduled and no randomness is drawn for it).
    Inline,
    /// Deliver one copy after `delay` via a scheduled event.
    Delayed {
        /// In-flight latency added to the message.
        delay: SimDuration,
    },
    /// The message is lost.
    Dropped {
        /// Whether a link partition (rather than random loss) ate it.
        partitioned: bool,
    },
    /// Deliver inline *and* echo a duplicate copy after `extra_delay`.
    Duplicated {
        /// Latency of the duplicate copy (always positive, so the echo
        /// is a distinct event).
        extra_delay: SimDuration,
    },
}
