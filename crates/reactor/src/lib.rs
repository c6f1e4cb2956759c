//! Deterministic reactor runtime (DST) for the sprinting testbed.
//!
//! The simulators in this workspace are trustworthy only if every
//! failure interleaving they explore is *reproducible*: a chaos
//! violation that cannot be replayed from its seed is a bug report
//! nobody can act on. This crate is the madsim-style substrate that
//! makes reproducibility a structural property instead of a
//! per-subsystem discipline:
//!
//! - **One event queue, one clock.** [`Reactor`] wraps the workspace
//!   binary-heap calendar (`simcore::event::EventQueue`) so every state
//!   transition in a run happens at a popped event, in a total order
//!   that is stable for ties (FIFO by insertion).
//! - **One seed.** [`EntropyTower`] hands out namespaced child RNG
//!   streams (per-actor, per-fault, per-arrival) derived from a single
//!   root seed, so adding a consumer never perturbs existing streams.
//! - **One routing verdict.** Every control message a driver sends gets
//!   a [`Delivery`]: inline, delayed, dropped or duplicated.
//! - **Journaled decisions.** A driver with journaling on appends every
//!   event it pops and every routing decision it makes to a
//!   [`Journal`] of its own typed records, stored by value; text is
//!   rendered only when the journal is printed ([`Journal::to_jsonl`],
//!   [`Journal::rendered`], [`JournalDivergence::render`]). Two runs of
//!   the same `(seed, plan)` must produce identical journals, and
//!   [`Journal::diff`] pinpoints the first divergence when they do not.
//!   The reactor itself keeps no journal.

#![deny(unreachable_pub)]

pub mod entropy;
pub mod journal;
pub mod net;
mod runtime;

pub use entropy::EntropyTower;
pub use journal::{Journal, JournalDivergence, JournalEntry};
pub use net::Delivery;
pub use runtime::Reactor;
