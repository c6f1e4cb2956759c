//! Supervision and self-healing for the testbed server.
//!
//! PR 1 taught the server to *suffer* faults; this module teaches it to
//! *recover* from them. A [`Supervisor`] closes the loop at three
//! points of the event loop:
//!
//! 1. **Sprint watchdog.** Every sprint engage arms a watchdog carrying
//!    a unique sprint token. If the same sprint is still engaged when
//!    the watchdog fires, the sprint is forcibly disengaged — bounding
//!    how much budget a stuck mechanism latch can overdraw.
//! 2. **Slot supervision.** A crashed execution slot is taken offline
//!    and restarted after a capped exponential backoff; a slot that
//!    keeps crashing is quarantined outright (never the last healthy
//!    slot — the server must retain capacity to drain). The in-flight
//!    query is requeued at the queue head, preserving FIFO order.
//! 3. **Admission control.** Arrivals pass a queue-depth ladder that
//!    degrades gracefully: past the shed watermark every other arrival
//!    is shed; past the reject watermark the server rejects everything
//!    and drains down to the drain watermark before recovering.
//!
//! Every intervention is counted in [`RecoveryCounters`], reported in
//! run metrics next to the fault counters, so the chaos harness can
//! check recovery efficacy machine-checkably. All decisions are pure
//! functions of observed state — the supervisor draws no randomness,
//! so supervised runs stay bit-identical across replays.

use simcore::SprintError;

/// Tunables for the testbed supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// A sprint continuously engaged for longer than this is presumed
    /// stuck and forcibly disengaged.
    pub watchdog_secs: f64,
    /// Base restart delay after a slot crash; doubles per crash on the
    /// same slot (capped exponential backoff).
    pub restart_backoff_secs: f64,
    /// Upper bound on the restart backoff.
    pub restart_backoff_cap_secs: f64,
    /// Crashes on one slot before it is quarantined instead of
    /// restarted. The last non-quarantined slot is never quarantined.
    pub quarantine_after: u32,
    /// Queue depth at which the server starts shedding every other
    /// arrival.
    pub shed_watermark: usize,
    /// Queue depth at which the server rejects all arrivals and enters
    /// drain mode.
    pub reject_watermark: usize,
    /// Queue depth at which drain mode exits back to normal admission.
    pub drain_watermark: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            watchdog_secs: 240.0,
            restart_backoff_secs: 1.0,
            restart_backoff_cap_secs: 60.0,
            quarantine_after: 3,
            shed_watermark: 8,
            reject_watermark: 16,
            drain_watermark: 4,
        }
    }
}

impl SupervisorConfig {
    /// Validates every field, returning the first violation.
    pub fn validate(&self) -> Result<(), SprintError> {
        SprintError::require_positive("SupervisorConfig::watchdog_secs", self.watchdog_secs)?;
        SprintError::require_positive(
            "SupervisorConfig::restart_backoff_secs",
            self.restart_backoff_secs,
        )?;
        SprintError::require_positive(
            "SupervisorConfig::restart_backoff_cap_secs",
            self.restart_backoff_cap_secs,
        )?;
        if self.restart_backoff_cap_secs < self.restart_backoff_secs {
            return Err(SprintError::invalid(
                "SupervisorConfig::restart_backoff_cap_secs",
                format!(
                    "cap {} must be >= base backoff {}",
                    self.restart_backoff_cap_secs, self.restart_backoff_secs
                ),
            ));
        }
        SprintError::require_nonzero(
            "SupervisorConfig::quarantine_after",
            self.quarantine_after as usize,
        )?;
        SprintError::require_nonzero("SupervisorConfig::shed_watermark", self.shed_watermark)?;
        if self.reject_watermark < self.shed_watermark {
            return Err(SprintError::invalid(
                "SupervisorConfig::reject_watermark",
                format!(
                    "reject watermark {} must be >= shed watermark {}",
                    self.reject_watermark, self.shed_watermark
                ),
            ));
        }
        if self.drain_watermark >= self.reject_watermark {
            return Err(SprintError::invalid(
                "SupervisorConfig::drain_watermark",
                format!(
                    "drain watermark {} must be < reject watermark {} for hysteresis",
                    self.drain_watermark, self.reject_watermark
                ),
            ));
        }
        Ok(())
    }
}

/// Per-run counts of every supervisor intervention, reported in
/// [`RunResult`](crate::metrics::RunResult) next to the fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryCounters {
    /// Crashed slots brought back after a backoff delay.
    pub slot_restarts: u64,
    /// Slots permanently taken out of rotation for repeated crashes.
    pub quarantines: u64,
    /// Sprints forcibly disengaged by the watchdog.
    pub forced_unsprints: u64,
    /// Arrivals shed by the admission ladder (shedding mode).
    pub shed_queries: u64,
    /// Arrivals rejected by the admission ladder (drain mode).
    pub rejected_queries: u64,
    /// In-flight queries requeued at the queue head after a crash.
    pub requeued_queries: u64,
    /// Simulated seconds spent in a degraded admission mode.
    pub degraded_secs: f64,
}

impl RecoveryCounters {
    /// Arrivals turned away (shed + rejected).
    pub fn turned_away(&self) -> u64 {
        self.shed_queries + self.rejected_queries
    }

    /// Component-wise sum with another counter set, for aggregating
    /// counters across runs.
    pub fn merged(&self, other: &RecoveryCounters) -> RecoveryCounters {
        RecoveryCounters {
            slot_restarts: self.slot_restarts + other.slot_restarts,
            quarantines: self.quarantines + other.quarantines,
            forced_unsprints: self.forced_unsprints + other.forced_unsprints,
            shed_queries: self.shed_queries + other.shed_queries,
            rejected_queries: self.rejected_queries + other.rejected_queries,
            requeued_queries: self.requeued_queries + other.requeued_queries,
            degraded_secs: self.degraded_secs + other.degraded_secs,
        }
    }

    /// Total discrete interventions of any kind.
    pub fn total(&self) -> u64 {
        self.slot_restarts
            + self.quarantines
            + self.forced_unsprints
            + self.shed_queries
            + self.rejected_queries
            + self.requeued_queries
    }
}

/// Verdict of the admission ladder for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Enqueue normally.
    Admit,
    /// Turn the arrival away to relieve pressure (shedding mode).
    Shed,
    /// Turn the arrival away unconditionally (drain mode).
    Reject,
}

/// What to do with a slot that just crashed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotDirective {
    /// Bring the slot back after `delay_secs` of downtime.
    Restart {
        /// Backoff delay before the slot accepts work again.
        delay_secs: f64,
    },
    /// Take the slot out of rotation permanently.
    Quarantine,
}

/// Admission-ladder state, from least to most degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DegradedMode {
    Normal,
    Shedding,
    Draining,
}

#[derive(Debug, Clone, Copy, Default)]
struct SlotHealth {
    crashes: u32,
    down: bool,
    quarantined: bool,
}

/// Deterministic recovery engine consulted by the server event loop.
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<SlotHealth>,
    mode: DegradedMode,
    shed_parity: u64,
    degraded_since_secs: Option<f64>,
    next_token: u64,
    counters: RecoveryCounters,
}

impl Supervisor {
    /// Validates the configuration and builds a supervisor for a server
    /// with `num_slots` execution slots.
    pub fn new(cfg: SupervisorConfig, num_slots: usize) -> Result<Supervisor, SprintError> {
        cfg.validate()?;
        SprintError::require_nonzero("Supervisor::num_slots", num_slots)?;
        Ok(Supervisor {
            cfg,
            slots: vec![SlotHealth::default(); num_slots],
            mode: DegradedMode::Normal,
            shed_parity: 0,
            degraded_since_secs: None,
            next_token: 0,
            counters: RecoveryCounters::default(),
        })
    }

    /// The configuration this supervisor runs.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Counters accumulated so far (degraded time excludes any interval
    /// still open; see [`Supervisor::finalize`]).
    pub fn counters(&self) -> RecoveryCounters {
        self.counters
    }

    /// Seconds a sprint may stay continuously engaged before the
    /// watchdog forces it off.
    pub fn watchdog_secs(&self) -> f64 {
        self.cfg.watchdog_secs
    }

    /// Issues a fresh sprint token. Tokens start at 1 so a
    /// default-initialized slot can never match a live watchdog.
    pub fn next_sprint_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Records a watchdog-forced unsprint.
    pub fn record_forced_unsprint(&mut self) {
        self.counters.forced_unsprints += 1;
    }

    /// The current admission-ladder mode as a flight-recorder value.
    /// The server samples this around [`Supervisor::admit`] to emit
    /// `admission-mode-changed` events without the supervisor holding a
    /// recorder itself.
    pub fn admission_mode(&self) -> obs::AdmissionMode {
        match self.mode {
            DegradedMode::Normal => obs::AdmissionMode::Normal,
            DegradedMode::Shedding => obs::AdmissionMode::Shedding,
            DegradedMode::Draining => obs::AdmissionMode::Draining,
        }
    }

    /// Runs one arrival through the admission ladder at queue depth
    /// `queue_len`, transitioning modes with hysteresis.
    pub fn admit(&mut self, queue_len: usize, now_secs: f64) -> AdmitOutcome {
        let out = match self.mode {
            DegradedMode::Normal => {
                if queue_len >= self.cfg.reject_watermark {
                    self.enter(DegradedMode::Draining, now_secs);
                    AdmitOutcome::Reject
                } else if queue_len >= self.cfg.shed_watermark {
                    self.enter(DegradedMode::Shedding, now_secs);
                    // Parity 1 sheds the entering arrival, admits the
                    // next — a deterministic every-other cadence with
                    // no randomness.
                    self.shed_parity = 1;
                    AdmitOutcome::Shed
                } else {
                    AdmitOutcome::Admit
                }
            }
            DegradedMode::Shedding => {
                if queue_len >= self.cfg.reject_watermark {
                    self.enter(DegradedMode::Draining, now_secs);
                    AdmitOutcome::Reject
                } else if queue_len < self.cfg.shed_watermark {
                    self.enter(DegradedMode::Normal, now_secs);
                    AdmitOutcome::Admit
                } else {
                    self.shed_parity += 1;
                    if self.shed_parity.is_multiple_of(2) {
                        AdmitOutcome::Admit
                    } else {
                        AdmitOutcome::Shed
                    }
                }
            }
            DegradedMode::Draining => {
                if queue_len <= self.cfg.drain_watermark {
                    self.enter(DegradedMode::Normal, now_secs);
                    AdmitOutcome::Admit
                } else {
                    AdmitOutcome::Reject
                }
            }
        };
        match out {
            AdmitOutcome::Admit => {}
            AdmitOutcome::Shed => self.counters.shed_queries += 1,
            AdmitOutcome::Reject => self.counters.rejected_queries += 1,
        }
        out
    }

    fn enter(&mut self, mode: DegradedMode, now_secs: f64) {
        if self.mode == mode {
            return;
        }
        let was_degraded = self.mode != DegradedMode::Normal;
        let is_degraded = mode != DegradedMode::Normal;
        if !was_degraded && is_degraded {
            self.degraded_since_secs = Some(now_secs);
        } else if was_degraded && !is_degraded {
            if let Some(t0) = self.degraded_since_secs.take() {
                self.counters.degraded_secs += now_secs - t0;
            }
        }
        self.mode = mode;
    }

    /// Handles a crash on `slot` whose in-flight query was requeued:
    /// quarantine it after repeated crashes (never the last healthy
    /// slot), otherwise schedule a restart after capped exponential
    /// backoff.
    pub fn on_crash(&mut self, slot: usize) -> SlotDirective {
        self.counters.requeued_queries += 1;
        let others_left = self
            .slots
            .iter()
            .enumerate()
            .any(|(i, h)| i != slot && !h.quarantined);
        let h = &mut self.slots[slot];
        h.crashes += 1;
        if h.crashes >= self.cfg.quarantine_after && others_left {
            h.quarantined = true;
            h.down = true;
            self.counters.quarantines += 1;
            return SlotDirective::Quarantine;
        }
        h.down = true;
        self.counters.slot_restarts += 1;
        let doublings = (h.crashes.saturating_sub(1)).min(20);
        let delay = (self.cfg.restart_backoff_secs * f64::powi(2.0, doublings as i32))
            .min(self.cfg.restart_backoff_cap_secs);
        SlotDirective::Restart { delay_secs: delay }
    }

    /// Marks a restarted slot as back in rotation.
    pub fn on_slot_up(&mut self, slot: usize) {
        let h = &mut self.slots[slot];
        if !h.quarantined {
            h.down = false;
        }
    }

    /// Whether `slot` may accept a dispatch right now.
    pub fn slot_available(&self, slot: usize) -> bool {
        let h = &self.slots[slot];
        !h.down && !h.quarantined
    }

    /// Whether `slot` has been quarantined.
    pub fn is_quarantined(&self, slot: usize) -> bool {
        self.slots[slot].quarantined
    }

    /// Closes any open degraded interval at `end_secs` and returns the
    /// final counters.
    pub fn finalize(&mut self, end_secs: f64) -> RecoveryCounters {
        if let Some(t0) = self.degraded_since_secs.take() {
            self.counters.degraded_secs += end_secs - t0;
        }
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(cfg: SupervisorConfig, slots: usize) -> Supervisor {
        Supervisor::new(cfg, slots).unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_ladders() {
        let bad = |f: fn(&mut SupervisorConfig)| {
            let mut c = SupervisorConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(SupervisorConfig::default().validate().is_ok());
        assert!(bad(|c| c.watchdog_secs = 0.0).is_err());
        assert!(bad(|c| c.restart_backoff_secs = -1.0).is_err());
        assert!(bad(|c| c.restart_backoff_cap_secs = 0.1).is_err());
        assert!(bad(|c| c.quarantine_after = 0).is_err());
        assert!(bad(|c| c.shed_watermark = 0).is_err());
        assert!(bad(|c| c.reject_watermark = 2).is_err());
        assert!(bad(|c| c.drain_watermark = 100).is_err());
    }

    #[test]
    fn ladder_degrades_and_recovers_with_hysteresis() {
        let cfg = SupervisorConfig {
            shed_watermark: 4,
            reject_watermark: 8,
            drain_watermark: 2,
            ..SupervisorConfig::default()
        };
        let mut s = sup(cfg, 1);
        assert_eq!(s.admit(0, 0.0), AdmitOutcome::Admit);
        assert_eq!(s.admit(3, 1.0), AdmitOutcome::Admit);
        // Crossing the shed watermark sheds every other arrival.
        assert_eq!(s.admit(4, 2.0), AdmitOutcome::Shed);
        assert_eq!(s.admit(5, 3.0), AdmitOutcome::Admit);
        assert_eq!(s.admit(5, 4.0), AdmitOutcome::Shed);
        // Crossing the reject watermark rejects everything...
        assert_eq!(s.admit(8, 5.0), AdmitOutcome::Reject);
        assert_eq!(s.admit(7, 6.0), AdmitOutcome::Reject);
        assert_eq!(s.admit(3, 7.0), AdmitOutcome::Reject);
        // ...until the queue drains to the drain watermark.
        assert_eq!(s.admit(2, 8.0), AdmitOutcome::Admit);
        let c = s.finalize(8.0);
        assert_eq!(c.shed_queries, 2);
        assert_eq!(c.rejected_queries, 3);
        assert!((c.degraded_secs - 6.0).abs() < 1e-12);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SupervisorConfig {
            restart_backoff_secs: 2.0,
            restart_backoff_cap_secs: 7.0,
            quarantine_after: 10,
            ..SupervisorConfig::default()
        };
        let mut s = sup(cfg, 2);
        assert_eq!(s.on_crash(0), SlotDirective::Restart { delay_secs: 2.0 });
        assert!(!s.slot_available(0));
        s.on_slot_up(0);
        assert!(s.slot_available(0));
        assert_eq!(s.on_crash(0), SlotDirective::Restart { delay_secs: 4.0 });
        assert_eq!(s.on_crash(0), SlotDirective::Restart { delay_secs: 7.0 });
        assert_eq!(s.on_crash(0), SlotDirective::Restart { delay_secs: 7.0 });
        assert_eq!(s.counters().slot_restarts, 4);
    }

    #[test]
    fn quarantine_after_repeated_crashes_but_never_the_last_slot() {
        let cfg = SupervisorConfig {
            quarantine_after: 2,
            ..SupervisorConfig::default()
        };
        let mut s = sup(cfg, 2);
        assert!(matches!(s.on_crash(1), SlotDirective::Restart { .. }));
        assert_eq!(s.on_crash(1), SlotDirective::Quarantine);
        assert!(s.is_quarantined(1));
        assert!(!s.slot_available(1));
        // A quarantined slot stays down even if told to come up.
        s.on_slot_up(1);
        assert!(!s.slot_available(1));
        // Slot 0 is now the last healthy slot: it keeps restarting no
        // matter how often it crashes.
        for _ in 0..10 {
            assert!(matches!(s.on_crash(0), SlotDirective::Restart { .. }));
        }
        assert!(!s.is_quarantined(0));
        assert_eq!(s.counters().quarantines, 1);
    }

    #[test]
    fn finalize_closes_open_degraded_interval() {
        let cfg = SupervisorConfig {
            shed_watermark: 1,
            reject_watermark: 16,
            drain_watermark: 0,
            ..SupervisorConfig::default()
        };
        let mut s = sup(cfg, 1);
        assert_eq!(s.admit(5, 10.0), AdmitOutcome::Shed);
        let c = s.finalize(25.0);
        assert!((c.degraded_secs - 15.0).abs() < 1e-12);
        assert_eq!(c.turned_away(), 1);
        assert_eq!(c.total(), 1);
    }
}
