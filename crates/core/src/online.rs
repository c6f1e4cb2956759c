//! Online runtime-condition estimation (§5).
//!
//! The paper evaluates its models under *known* workload conditions
//! and names estimating them online — "sliding window approaches can
//! be used to estimate runtime conditions" — as the key open challenge
//! for deployment. This module implements that extension: a sliding
//! window over observed arrival timestamps estimates the current
//! arrival rate, and [`OnlineModel`] feeds the estimate into any
//! trained [`ResponseTimeModel`] so predictions track drifting load.
//!
//! It also implements the *model-health circuit breaker*: a rolling
//! divergence score between model-predicted and observed response
//! times ([`ModelHealthMonitor`]) walks a degradation ladder
//! ([`DegradationLevel`]) — full model → stale model → no-sprint
//! fallback — and re-closes only after an Eq. 2 recalibration
//! ([`ModelHealthMonitor::recalibrate`]) reproduces the observed
//! response times within tolerance. This turns the paper's offline
//! calibration loop into a runtime defense against silent model drift
//! (miscalibrated µe, faulty budget sensors, workload shift).

use crate::calibrate::{effective_sprint_rate, CalibrationOptions};
use crate::model::ResponseTimeModel;
use profiler::{Condition, ProfilingRun, WorkloadProfile};
use simcore::time::{Rate, SimTime};
use simcore::SprintError;
use std::collections::VecDeque;

/// Sliding-window arrival-rate estimator.
///
/// Keeps the most recent arrival instants within a time window and
/// estimates λ from their count and span. Robust to drift: old
/// arrivals age out of the window.
#[derive(Debug, Clone)]
pub struct ArrivalRateEstimator {
    window_secs: f64,
    min_samples: usize,
    arrivals: VecDeque<SimTime>,
}

impl ArrivalRateEstimator {
    /// Creates an estimator over a trailing window.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive or `min_samples < 2`.
    pub fn new(window_secs: f64, min_samples: usize) -> ArrivalRateEstimator {
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "invalid window"
        );
        assert!(min_samples >= 2, "need at least two samples for a rate");
        ArrivalRateEstimator {
            window_secs,
            min_samples,
            arrivals: VecDeque::new(),
        }
    }

    /// Records an arrival and evicts everything older than the window.
    ///
    /// # Panics
    ///
    /// Panics if arrivals go backwards in time.
    pub fn record(&mut self, at: SimTime) {
        if let Some(&last) = self.arrivals.back() {
            assert!(at >= last, "arrivals must be time-ordered");
        }
        self.arrivals.push_back(at);
        let cutoff = at.since(SimTime::ZERO).as_secs_f64() - self.window_secs;
        while let Some(&front) = self.arrivals.front() {
            if front.as_secs_f64() < cutoff {
                self.arrivals.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of arrivals currently inside the window.
    pub fn samples(&self) -> usize {
        self.arrivals.len()
    }

    /// Current arrival-rate estimate, or `None` until enough samples
    /// accumulated.
    ///
    /// Uses the span between the oldest and newest in-window arrival
    /// (an unbiased inter-arrival estimate, rather than count/window
    /// which is biased low right after a quiet period).
    pub fn rate(&self) -> Option<Rate> {
        if self.arrivals.len() < self.min_samples {
            return None;
        }
        let (Some(&first), Some(&last)) = (self.arrivals.front(), self.arrivals.back()) else {
            return None;
        };
        let span = last.since(first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        let intervals = (self.arrivals.len() - 1) as f64;
        Some(Rate::per_sec(intervals / span))
    }
}

/// Wraps a trained model with online arrival-rate tracking: the
/// wrapped prediction always reflects the *currently estimated* load
/// instead of a fixed utilization.
pub struct OnlineModel<'m> {
    model: &'m dyn ResponseTimeModel,
    estimator: ArrivalRateEstimator,
}

impl<'m> OnlineModel<'m> {
    /// Wraps `model` with a fresh estimator.
    pub fn new(model: &'m dyn ResponseTimeModel, estimator: ArrivalRateEstimator) -> Self {
        OnlineModel { model, estimator }
    }

    /// Feeds one observed arrival.
    pub fn observe_arrival(&mut self, at: SimTime) {
        self.estimator.record(at);
    }

    /// The current utilization estimate (λ̂ / µ), if available.
    pub fn estimated_utilization(&self) -> Option<f64> {
        let mu = self.model.profile().mu;
        self.estimator.rate().map(|l| l.qph() / mu.qph())
    }

    /// Predicts response time for `policy` under the *estimated*
    /// current load; `None` until the estimator warms up.
    pub fn predict_response_secs(&self, policy: &Condition) -> Option<f64> {
        let utilization = self.estimated_utilization()?;
        let mut c = *policy;
        c.utilization = utilization.clamp(0.01, 0.99);
        Some(self.model.predict_response_secs(&c))
    }
}

/// Where the runtime sits on the degradation ladder.
///
/// The ladder orders the deployment modes from most to least trusting
/// of the trained model:
///
/// 1. [`FullModel`](DegradationLevel::FullModel) — predictions are
///    healthy; sprint according to the model-driven policy.
/// 2. [`StaleModel`](DegradationLevel::StaleModel) — divergence is
///    elevated (or the model was just recalibrated and is on
///    probation); keep sprinting but treat predictions as suspect.
/// 3. [`NoSprint`](DegradationLevel::NoSprint) — the breaker is open;
///    fall back to never sprinting, the conservative policy whose
///    response time needs no model at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationLevel {
    /// Model predictions track observations; trust them fully.
    FullModel,
    /// Predictions drift or the model is on post-recalibration
    /// probation; sprint, but flag decisions as degraded.
    StaleModel,
    /// Breaker open: suppress all sprinting until recalibration
    /// succeeds.
    NoSprint,
}

impl DegradationLevel {
    /// Maps the ladder onto the flight recorder's breaker taxonomy so
    /// transitions can be logged as [`obs::EventKind::BreakerTransition`].
    pub fn breaker_level(self) -> obs::BreakerLevel {
        match self {
            DegradationLevel::FullModel => obs::BreakerLevel::FullModel,
            DegradationLevel::StaleModel => obs::BreakerLevel::StaleModel,
            DegradationLevel::NoSprint => obs::BreakerLevel::NoSprint,
        }
    }
}

/// Thresholds and window sizing for the model-health breaker.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Rolling window length, in observations.
    pub window: usize,
    /// Observations required before any health judgment.
    pub min_samples: usize,
    /// Relative divergence that demotes to [`DegradationLevel::StaleModel`].
    pub warn_divergence: f64,
    /// Relative divergence that trips the breaker open.
    pub trip_divergence: f64,
    /// Relative calibration error (Eq. 2) accepted as a successful
    /// recalibration when re-closing the breaker.
    pub recalibration_tolerance: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            min_samples: 16,
            warn_divergence: 0.25,
            trip_divergence: 0.5,
            recalibration_tolerance: 0.1,
        }
    }
}

impl BreakerConfig {
    fn validate(&self) -> Result<(), SprintError> {
        SprintError::require_nonzero("BreakerConfig::window", self.window)?;
        SprintError::require_nonzero("BreakerConfig::min_samples", self.min_samples)?;
        if self.min_samples > self.window {
            return Err(SprintError::invalid(
                "BreakerConfig::min_samples",
                format!(
                    "min_samples {} exceeds window {}",
                    self.min_samples, self.window
                ),
            ));
        }
        SprintError::require_positive("BreakerConfig::warn_divergence", self.warn_divergence)?;
        SprintError::require_positive("BreakerConfig::trip_divergence", self.trip_divergence)?;
        if self.trip_divergence < self.warn_divergence {
            return Err(SprintError::invalid(
                "BreakerConfig::trip_divergence",
                format!(
                    "trip divergence {} below warn divergence {}",
                    self.trip_divergence, self.warn_divergence
                ),
            ));
        }
        SprintError::require_positive(
            "BreakerConfig::recalibration_tolerance",
            self.recalibration_tolerance,
        )?;
        Ok(())
    }
}

/// Rolling comparison of model-predicted vs. observed response times,
/// driving the sprint circuit breaker.
///
/// Feed it one `(predicted, observed)` pair per completed query (or
/// per aggregation interval) via [`observe`](Self::observe). The
/// divergence score is the relative gap between the windowed means of
/// the two distributions; crossing `warn_divergence` demotes to a
/// stale model, crossing `trip_divergence` opens the breaker into the
/// no-sprint fallback. Once open, the breaker only re-closes through
/// [`recalibrate`](Self::recalibrate) /
/// [`record_recalibration`](Self::record_recalibration) — the Eq. 2
/// loop must demonstrably reproduce current observations first — after
/// which the model runs as [`DegradationLevel::StaleModel`] until a
/// full healthy window promotes it back.
#[derive(Debug, Clone)]
pub struct ModelHealthMonitor {
    cfg: BreakerConfig,
    predicted: VecDeque<f64>,
    observed: VecDeque<f64>,
    level: DegradationLevel,
    trips: usize,
    recoveries: usize,
}

impl ModelHealthMonitor {
    /// Creates a monitor with the given thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] for zero window sizes,
    /// non-positive thresholds, `min_samples > window`, or a trip
    /// threshold below the warn threshold.
    pub fn new(cfg: BreakerConfig) -> Result<ModelHealthMonitor, SprintError> {
        cfg.validate()?;
        Ok(ModelHealthMonitor {
            cfg,
            predicted: VecDeque::with_capacity(cfg.window),
            observed: VecDeque::with_capacity(cfg.window),
            level: DegradationLevel::FullModel,
            trips: 0,
            recoveries: 0,
        })
    }

    /// Records one predicted/observed response-time pair (seconds) and
    /// returns the level after re-evaluation. Non-finite or negative
    /// samples are ignored — a corrupt sensor reading must not poison
    /// the health signal itself.
    pub fn observe(&mut self, predicted_secs: f64, observed_secs: f64) -> DegradationLevel {
        if !(predicted_secs.is_finite()
            && predicted_secs > 0.0
            && observed_secs.is_finite()
            && observed_secs >= 0.0)
        {
            return self.level;
        }
        self.predicted.push_back(predicted_secs);
        self.observed.push_back(observed_secs);
        while self.predicted.len() > self.cfg.window {
            self.predicted.pop_front();
            self.observed.pop_front();
        }
        self.reevaluate();
        self.level
    }

    /// [`observe`](Self::observe) that additionally logs a
    /// [`obs::EventKind::BreakerTransition`] into `recorder` whenever
    /// the observation moves the monitor to a different ladder level.
    /// The recorder is a pure observer — the health judgment is
    /// bit-identical to [`observe`](Self::observe).
    pub fn observe_with_recorder(
        &mut self,
        predicted_secs: f64,
        observed_secs: f64,
        at: SimTime,
        recorder: &mut obs::FlightRecorder,
    ) -> DegradationLevel {
        let before = self.level;
        let after = self.observe(predicted_secs, observed_secs);
        if before != after {
            recorder.record(
                at,
                obs::EventKind::BreakerTransition {
                    from: before.breaker_level(),
                    to: after.breaker_level(),
                },
            );
        }
        after
    }

    /// Current divergence score: the relative gap between the windowed
    /// mean of the observed response-time distribution and the
    /// windowed mean of the predicted one. `None` until `min_samples`
    /// observations accumulated.
    pub fn divergence(&self) -> Option<f64> {
        if self.observed.len() < self.cfg.min_samples {
            return None;
        }
        let mean = |w: &VecDeque<f64>| w.iter().sum::<f64>() / w.len() as f64;
        let pred = mean(&self.predicted).max(1e-9);
        Some((mean(&self.observed) - pred).abs() / pred)
    }

    fn reevaluate(&mut self) {
        // An open breaker never auto-closes on quiet observations: the
        // fallback itself changes the observed distribution, so only an
        // explicit recalibration may re-arm sprinting.
        if self.level == DegradationLevel::NoSprint {
            return;
        }
        let Some(d) = self.divergence() else {
            return;
        };
        if d >= self.cfg.trip_divergence {
            self.level = DegradationLevel::NoSprint;
            self.trips += 1;
        } else if d >= self.cfg.warn_divergence {
            self.level = DegradationLevel::StaleModel;
        } else {
            self.level = DegradationLevel::FullModel;
        }
    }

    /// Runs the Eq. 2 calibration search against the windowed observed
    /// mean response time and records its outcome: on success (error
    /// within `recalibration_tolerance`) an open breaker re-closes to
    /// [`DegradationLevel::StaleModel`] and the window resets. Returns
    /// the recalibrated effective sprint rate and its error.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] if no observations have
    /// been recorded yet.
    pub fn recalibrate(
        &mut self,
        profile: &WorkloadProfile,
        cond: &Condition,
        opts: &CalibrationOptions,
    ) -> Result<(Rate, f64), SprintError> {
        if self.observed.is_empty() {
            return Err(SprintError::invalid(
                "ModelHealthMonitor::recalibrate",
                "no observations to recalibrate against",
            ));
        }
        let observed_mean = self.observed.iter().sum::<f64>() / self.observed.len() as f64;
        let run = ProfilingRun {
            condition: *cond,
            observed_response_secs: observed_mean.max(1e-9),
        };
        let (rate, err) = effective_sprint_rate(profile, &run, opts);
        self.record_recalibration(err);
        Ok((rate, err))
    }

    /// Records the outcome of an externally run recalibration.
    /// `achieved_error` is the relative response-time error of the
    /// recalibrated model (Eq. 2's alignment error). A success while
    /// the breaker is open re-closes it to
    /// [`DegradationLevel::StaleModel`] and clears the window (the old
    /// observations judged the old model); a failure leaves the level
    /// untouched.
    pub fn record_recalibration(&mut self, achieved_error: f64) -> DegradationLevel {
        if achieved_error.is_finite() && achieved_error <= self.cfg.recalibration_tolerance {
            if self.level == DegradationLevel::NoSprint {
                self.recoveries += 1;
            }
            self.level = DegradationLevel::StaleModel;
            self.predicted.clear();
            self.observed.clear();
        }
        self.level
    }

    /// Current position on the degradation ladder.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Whether the active policy may sprint (breaker not open).
    pub fn sprint_allowed(&self) -> bool {
        self.level != DegradationLevel::NoSprint
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Times a recalibration re-closed an open breaker.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Observations currently in the window.
    pub fn samples(&self) -> usize {
        self.observed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Dist, DistKind};
    use simcore::rng::SimRng;
    use simcore::time::SimDuration;

    fn feed_poisson(est: &mut ArrivalRateEstimator, rate_qph: f64, n: usize, seed: u64) -> SimTime {
        let mut rng = SimRng::new(seed);
        let d = Dist::exponential(Rate::per_hour(rate_qph).mean_interval());
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t += d.sample(&mut rng);
            est.record(t);
        }
        t
    }

    #[test]
    fn estimates_stationary_rate() {
        let mut est = ArrivalRateEstimator::new(36_000.0, 5);
        feed_poisson(&mut est, 40.0, 300, 1);
        let rate = est.rate().expect("warm");
        assert!(
            (rate.qph() - 40.0).abs() / 40.0 < 0.15,
            "estimate {rate} vs 40 qph"
        );
    }

    #[test]
    fn tracks_drift() {
        // 10 qph for a while, then 50 qph; a 1-hour window must follow.
        let mut est = ArrivalRateEstimator::new(3_600.0, 5);
        let t_end = feed_poisson(&mut est, 10.0, 50, 2);
        let mut rng = SimRng::new(3);
        let d = Dist::exponential(Rate::per_hour(50.0).mean_interval());
        let mut t = t_end;
        for _ in 0..200 {
            t += d.sample(&mut rng);
            est.record(t);
        }
        let rate = est.rate().expect("warm");
        assert!(
            (rate.qph() - 50.0).abs() / 50.0 < 0.2,
            "post-drift estimate {rate}"
        );
    }

    #[test]
    fn cold_start_returns_none() {
        let mut est = ArrivalRateEstimator::new(600.0, 5);
        assert!(est.rate().is_none());
        est.record(SimTime::from_secs(1));
        est.record(SimTime::from_secs(2));
        assert!(est.rate().is_none(), "below min_samples");
    }

    #[test]
    fn window_evicts_old_arrivals() {
        let mut est = ArrivalRateEstimator::new(100.0, 2);
        est.record(SimTime::from_secs(0));
        est.record(SimTime::from_secs(10));
        est.record(SimTime::from_secs(500));
        // The first two aged out.
        assert_eq!(est.samples(), 1);
    }

    #[test]
    fn online_model_tracks_load() {
        use profiler::WorkloadProfile;
        use workloads::{QueryMix, WorkloadKind};

        /// Response time directly proportional to utilization.
        struct Linear(WorkloadProfile);
        impl ResponseTimeModel for Linear {
            fn name(&self) -> &'static str {
                "linear"
            }
            fn predict_response_secs(&self, c: &Condition) -> f64 {
                100.0 * c.utilization
            }
            fn profile(&self) -> &WorkloadProfile {
                &self.0
            }
        }
        let model = Linear(WorkloadProfile {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mechanism: "x".into(),
            mu: Rate::per_hour(50.0),
            mu_m: Rate::per_hour(75.0),
            service_samples_secs: vec![70.0],
            profiling_hours: 0.0,
        });
        let mut online = OnlineModel::new(&model, ArrivalRateEstimator::new(36_000.0, 5));
        let policy = Condition {
            utilization: 0.0, // Overridden by the estimator.
            arrival_kind: DistKind::Exponential,
            timeout_secs: 60.0,
            budget_frac: 0.2,
            refill_secs: 200.0,
        };
        assert!(online.predict_response_secs(&policy).is_none());
        // Arrivals at 25 qph -> utilization 0.5 -> predicted ~50.
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            t += SimDuration::from_secs_f64(3_600.0 / 25.0);
            online.observe_arrival(t);
        }
        let rt = online.predict_response_secs(&policy).expect("warm");
        assert!((rt - 50.0).abs() < 5.0, "rt {rt}");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order_arrivals() {
        let mut est = ArrivalRateEstimator::new(100.0, 2);
        est.record(SimTime::from_secs(10));
        est.record(SimTime::from_secs(5));
    }

    fn monitor() -> ModelHealthMonitor {
        ModelHealthMonitor::new(BreakerConfig {
            window: 20,
            min_samples: 10,
            warn_divergence: 0.25,
            trip_divergence: 0.5,
            recalibration_tolerance: 0.1,
        })
        .unwrap()
    }

    #[test]
    fn healthy_predictions_stay_full_model() {
        let mut m = monitor();
        for i in 0..50 {
            // Observations scatter ±10% around the prediction.
            let obs = 100.0 * (0.9 + 0.01 * (i % 20) as f64);
            assert_eq!(m.observe(100.0, obs), DegradationLevel::FullModel);
        }
        assert!(m.sprint_allowed());
        assert_eq!(m.trips(), 0);
        assert!(m.divergence().expect("warm") < 0.25);
    }

    #[test]
    fn no_judgment_before_min_samples() {
        let mut m = monitor();
        for _ in 0..9 {
            // Wildly wrong, but below min_samples.
            assert_eq!(m.observe(100.0, 1_000.0), DegradationLevel::FullModel);
            assert!(m.divergence().is_none());
        }
        assert_eq!(m.observe(100.0, 1_000.0), DegradationLevel::NoSprint);
    }

    #[test]
    fn moderate_drift_goes_stale_and_recovers() {
        let mut m = monitor();
        for _ in 0..20 {
            m.observe(100.0, 135.0); // 35% off: stale, not tripped.
        }
        assert_eq!(m.level(), DegradationLevel::StaleModel);
        assert!(m.sprint_allowed(), "stale model still sprints");
        // Drift subsides: the stale window ages out and health returns.
        for _ in 0..40 {
            m.observe(100.0, 102.0);
        }
        assert_eq!(m.level(), DegradationLevel::FullModel);
        assert_eq!(m.trips(), 0);
    }

    #[test]
    fn severe_drift_trips_and_only_recalibration_recloses() {
        let mut m = monitor();
        for _ in 0..20 {
            m.observe(100.0, 250.0);
        }
        assert_eq!(m.level(), DegradationLevel::NoSprint);
        assert!(!m.sprint_allowed());
        assert_eq!(m.trips(), 1);
        // Quiet observations do NOT re-close an open breaker.
        for _ in 0..60 {
            m.observe(100.0, 100.0);
        }
        assert_eq!(m.level(), DegradationLevel::NoSprint);
        // A failed recalibration leaves it open...
        assert_eq!(m.record_recalibration(0.4), DegradationLevel::NoSprint);
        // ...a successful one re-closes to probation.
        assert_eq!(m.record_recalibration(0.05), DegradationLevel::StaleModel);
        assert!(m.sprint_allowed());
        assert_eq!(m.recoveries(), 1);
        assert_eq!(m.samples(), 0, "window resets with the new model");
        // A healthy window then promotes back to the full model.
        for _ in 0..20 {
            m.observe(100.0, 101.0);
        }
        assert_eq!(m.level(), DegradationLevel::FullModel);
    }

    #[test]
    fn recorder_logs_breaker_transitions() {
        let mut m = monitor();
        let mut rec = obs::FlightRecorder::default();
        for i in 0..20 {
            m.observe_with_recorder(100.0, 250.0, SimTime::from_secs(i), &mut rec);
        }
        let events: Vec<_> = rec.events().collect();
        assert_eq!(events.len(), 1, "one trip, one transition");
        match events[0].kind {
            obs::EventKind::BreakerTransition { from, to } => {
                assert_eq!(from, obs::BreakerLevel::FullModel);
                assert_eq!(to, obs::BreakerLevel::NoSprint);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // The judgment itself is unchanged by the recorder.
        let mut plain = monitor();
        for _ in 0..20 {
            plain.observe(100.0, 250.0);
        }
        assert_eq!(plain.level(), m.level());
        assert_eq!(plain.trips(), m.trips());
    }

    #[test]
    fn corrupt_samples_are_ignored() {
        let mut m = monitor();
        for _ in 0..20 {
            m.observe(100.0, 100.0);
        }
        let before = m.samples();
        m.observe(f64::NAN, 100.0);
        m.observe(100.0, f64::NAN);
        m.observe(-5.0, 100.0);
        m.observe(100.0, f64::INFINITY);
        assert_eq!(m.samples(), before);
        assert_eq!(m.level(), DegradationLevel::FullModel);
    }

    #[test]
    fn recalibrate_drives_the_eq2_loop() {
        use profiler::WorkloadProfile;
        use workloads::{QueryMix, WorkloadKind};

        let profile = WorkloadProfile {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mechanism: "DVFS".into(),
            mu: Rate::per_hour(50.0),
            mu_m: Rate::per_hour(75.0),
            service_samples_secs: (0..200).map(|i| 62.0 + (i % 17) as f64).collect(),
            profiling_hours: 0.5,
        };
        let cond = Condition {
            utilization: 0.75,
            arrival_kind: DistKind::Exponential,
            timeout_secs: 70.0,
            budget_frac: 0.4,
            refill_secs: 200.0,
        };
        let opts = CalibrationOptions::default();
        // Synthesize "observed" response times from a known effective
        // rate, then trip the breaker with predictions from a badly
        // miscalibrated model.
        let true_rt = opts
            .sim
            .simulate(&profile, &cond, 63.0 / 50.0, &qsim::TraceCache::new());
        let mut m = monitor();
        for _ in 0..20 {
            m.observe(true_rt * 3.0, true_rt); // Model 3x off: trips.
        }
        assert_eq!(m.level(), DegradationLevel::NoSprint);
        // Recalibration recovers a rate near the truth and re-closes.
        let (rate, err) = m.recalibrate(&profile, &cond, &opts).unwrap();
        assert!(err <= opts.tolerance, "recalibration error {err}");
        assert!(
            (rate.qph() - 63.0).abs() <= 5.0,
            "recalibrated {} vs true 63",
            rate.qph()
        );
        assert_eq!(m.level(), DegradationLevel::StaleModel);
        assert_eq!(m.recoveries(), 1);
    }

    #[test]
    fn empty_monitor_cannot_recalibrate() {
        use profiler::WorkloadProfile;
        use workloads::{QueryMix, WorkloadKind};
        let profile = WorkloadProfile {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mechanism: "DVFS".into(),
            mu: Rate::per_hour(50.0),
            mu_m: Rate::per_hour(75.0),
            service_samples_secs: vec![60.0],
            profiling_hours: 0.1,
        };
        let cond = Condition {
            utilization: 0.5,
            arrival_kind: DistKind::Exponential,
            timeout_secs: 60.0,
            budget_frac: 0.2,
            refill_secs: 200.0,
        };
        let mut m = monitor();
        assert!(m
            .recalibrate(&profile, &cond, &CalibrationOptions::default())
            .is_err());
    }

    #[test]
    fn breaker_config_is_validated() {
        let bad = |f: fn(&mut BreakerConfig)| {
            let mut c = BreakerConfig::default();
            f(&mut c);
            ModelHealthMonitor::new(c).is_err()
        };
        assert!(bad(|c| c.window = 0));
        assert!(bad(|c| c.min_samples = 0));
        assert!(bad(|c| c.min_samples = c.window + 1));
        assert!(bad(|c| c.warn_divergence = 0.0));
        assert!(bad(|c| c.trip_divergence = c.warn_divergence / 2.0));
        assert!(bad(|c| c.recalibration_tolerance = f64::NAN));
        assert!(ModelHealthMonitor::new(BreakerConfig::default()).is_ok());
    }
}
