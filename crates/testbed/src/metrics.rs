//! Steady-state summaries of a testbed run.
//!
//! Profiling (§2.1) captures response time, service time and queueing
//! delay for each query execution; `RunResult` wraps the per-query
//! records and exposes the aggregates the modeling pipeline and the
//! evaluation harness consume.

use crate::query::QueryRecord;
use crate::supervision::RecoveryCounters;
use faults::FaultCounters;
use obs::RunTelemetry;
use simcore::stats::Percentiles;
use simcore::time::Rate;
use simcore::SprintError;

/// All records from one run plus the warmup cutoff. [`Server::finish`]
/// builds it, the one construction path for every run flavour
/// (pristine, faulted, supervised, recorded).
///
/// [`Server::finish`]: crate::Server::finish
#[derive(Debug, Clone)]
pub struct RunResult {
    pub(crate) records: Vec<QueryRecord>,
    pub(crate) warmup: usize,
    pub(crate) faults: FaultCounters,
    pub(crate) recovery: RecoveryCounters,
    /// Served + shed + rejected arrivals.
    pub(crate) arrived: usize,
    pub(crate) telemetry: Option<RunTelemetry>,
}

impl RunResult {
    /// Flight-recorder snapshot, if the run was recorded (`None` for
    /// the default, unrecorded server).
    pub fn telemetry(&self) -> Option<&RunTelemetry> {
        self.telemetry.as_ref()
    }

    /// Per-fault-class event counts for the run (all zero when no fault
    /// plan was active).
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.faults
    }

    /// Per-intervention counts from the supervisor (all zero when the
    /// run was unsupervised).
    pub fn recovery_counters(&self) -> &RecoveryCounters {
        &self.recovery
    }

    /// Total arrivals, whether served, shed or rejected.
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// Queries served to completion (one per record).
    pub fn served(&self) -> usize {
        self.records.len()
    }

    /// Whether the query-conservation invariant holds: every arrival is
    /// accounted for as served, shed, or rejected.
    pub fn conserves_queries(&self) -> bool {
        self.served() as u64 + self.recovery.turned_away() == self.arrived as u64
    }

    /// Fraction of *arrived* queries served within `slo_secs`. Shed and
    /// rejected arrivals count as SLO misses, so turning work away is
    /// never free — it only pays off when the queries it protects would
    /// otherwise miss the SLO too.
    pub fn slo_attainment(&self, slo_secs: f64) -> f64 {
        if self.arrived == 0 {
            return 1.0;
        }
        let within = self
            .records
            .iter()
            .filter(|q| q.response_time().as_secs_f64() <= slo_secs)
            .count();
        within as f64 / self.arrived as f64
    }

    /// All records, including warmup.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Steady-state records (warmup excluded).
    pub fn steady(&self) -> &[QueryRecord] {
        &self.records[self.warmup.min(self.records.len())..]
    }

    /// Mean end-to-end response time in seconds.
    pub fn mean_response_secs(&self) -> f64 {
        mean(self.steady(), |q| q.response_time().as_secs_f64())
    }

    /// Mean processing time in seconds.
    pub fn mean_processing_secs(&self) -> f64 {
        mean(self.steady(), |q| q.processing_time().as_secs_f64())
    }

    /// Response-time quantile (`q` in `[0, 1]`) in seconds. An empty
    /// steady-state set (all warmup, or nothing served) reports `0.0`,
    /// matching the other summary statistics.
    pub fn response_quantile_secs(&self, q: f64) -> f64 {
        self.try_response_quantile_secs(q).unwrap_or(0.0)
    }

    /// Strict variant of [`RunResult::response_quantile_secs`] for
    /// callers that must distinguish "tail is 0 s" from "there was
    /// nothing to measure".
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] if `q` is outside
    /// `[0, 1]` or the steady-state record set is empty.
    pub fn try_response_quantile_secs(&self, q: f64) -> Result<f64, SprintError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(SprintError::invalid(
                "RunResult::response_quantile",
                format!("quantile {q} outside [0, 1]"),
            ));
        }
        let steady = self.steady();
        if steady.is_empty() {
            return Err(SprintError::invalid(
                "RunResult::response_quantile",
                "no steady-state records to take a quantile of",
            ));
        }
        Ok(Percentiles::from_samples(
            steady
                .iter()
                .map(|r| r.response_time().as_secs_f64())
                .collect(),
        )
        .quantile(q))
    }

    /// Fraction of steady-state queries whose response time exceeds
    /// `secs` (tail mass, §4.4).
    pub fn tail_fraction(&self, secs: f64) -> f64 {
        let s = self.steady();
        if s.is_empty() {
            return 0.0;
        }
        s.iter()
            .filter(|q| q.response_time().as_secs_f64() > secs)
            .count() as f64
            / s.len() as f64
    }

    /// Fraction of steady-state queries that sprinted.
    pub fn sprint_fraction(&self) -> f64 {
        let s = self.steady();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().filter(|q| q.sprinted).count() as f64 / s.len() as f64
    }

    /// Measured service rate µ from queries that never sprinted
    /// (inverse mean processing time) — the profiler's µ output.
    ///
    /// Returns `None` if no steady-state query ran without sprinting.
    pub fn measured_service_rate(&self) -> Option<Rate> {
        let times: Vec<f64> = self
            .steady()
            .iter()
            .filter(|q| !q.sprinted)
            .map(|q| q.processing_time().as_secs_f64())
            .collect();
        if times.is_empty() {
            return None;
        }
        let mean_secs = times.iter().sum::<f64>() / times.len() as f64;
        Some(Rate::per_hour(3_600.0 / mean_secs))
    }

    /// Measured processing rate of queries that sprinted from dispatch
    /// (timed out while queued) — the profiler's marginal-rate µm
    /// output when the run uses [`SprintPolicy::always`].
    ///
    /// [`SprintPolicy::always`]: crate::policy::SprintPolicy::always
    pub fn measured_sprinted_rate(&self) -> Option<Rate> {
        let times: Vec<f64> = self
            .steady()
            .iter()
            .filter(|q| q.sprinted)
            .map(|q| q.processing_time().as_secs_f64())
            .collect();
        if times.is_empty() {
            return None;
        }
        let mean_secs = times.iter().sum::<f64>() / times.len() as f64;
        Some(Rate::per_hour(3_600.0 / mean_secs))
    }

    /// Steady-state processing times in seconds.
    pub fn processing_times_secs(&self) -> Vec<f64> {
        self.steady()
            .iter()
            .map(|q| q.processing_time().as_secs_f64())
            .collect()
    }
}

fn mean(records: &[QueryRecord], f: impl Fn(&QueryRecord) -> f64) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(f).sum::<f64>() / records.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use workloads::WorkloadKind;

    /// An unfaulted, unsupervised result: every arrival served.
    fn result(records: Vec<QueryRecord>, warmup: usize) -> RunResult {
        RunResult {
            arrived: records.len(),
            records,
            warmup,
            faults: FaultCounters::default(),
            recovery: RecoveryCounters::default(),
            telemetry: None,
        }
    }

    fn rec(id: u64, arrival: u64, dispatch: u64, depart: u64, sprinted: bool) -> QueryRecord {
        QueryRecord {
            id,
            kind: WorkloadKind::Jacobi,
            arrival: SimTime::from_secs(arrival),
            dispatch: SimTime::from_secs(dispatch),
            depart: SimTime::from_secs(depart),
            timed_out: sprinted,
            sprinted,
            sprint_seconds: 0.0,
            retries: 0,
        }
    }

    #[test]
    fn quantiles_are_typed_on_empty_or_invalid_input() {
        // All records inside warmup: nothing steady to measure.
        let r = result(vec![rec(0, 0, 0, 10, false)], 1);
        assert_eq!(r.response_quantile_secs(0.99), 0.0);
        assert!(r.try_response_quantile_secs(0.99).is_err());
        let r = result(vec![rec(0, 0, 0, 10, false)], 0);
        assert!(r.try_response_quantile_secs(1.5).is_err());
        assert!(r.try_response_quantile_secs(-0.1).is_err());
        assert!((r.try_response_quantile_secs(0.5).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_default_to_zero() {
        let r = result(vec![rec(0, 0, 0, 10, false)], 0);
        assert_eq!(r.fault_counters().total(), 0);
        assert_eq!(r.recovery_counters().total(), 0);
        assert!(r.conserves_queries());
    }

    #[test]
    fn recovery_accounting_and_slo_attainment() {
        let recovery = RecoveryCounters {
            shed_queries: 1,
            rejected_queries: 1,
            ..RecoveryCounters::default()
        };
        let r = RunResult {
            recovery,
            arrived: 4,
            ..result(vec![rec(0, 0, 0, 100, false), rec(1, 0, 0, 400, false)], 0)
        };
        assert_eq!(r.arrived(), 4);
        assert_eq!(r.served(), 2);
        assert!(r.conserves_queries());
        // One of four arrivals made a 200 s SLO; shed/rejected miss.
        assert!((r.slo_attainment(200.0) - 0.25).abs() < 1e-12);
        assert!((r.slo_attainment(1000.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warmup_excluded_from_means() {
        let r = result(
            vec![
                rec(0, 0, 0, 1000, false), // Warmup outlier.
                rec(1, 0, 0, 100, false),
                rec(2, 0, 0, 200, false),
            ],
            1,
        );
        assert_eq!(r.steady().len(), 2);
        assert_eq!(r.mean_response_secs(), 150.0);
    }

    #[test]
    fn service_rate_uses_non_sprinted_only() {
        let r = result(
            vec![
                rec(0, 0, 10, 110, false), // 100 s processing.
                rec(1, 0, 10, 60, true),   // 50 s, sprinted.
            ],
            0,
        );
        let mu = r.measured_service_rate().unwrap();
        assert!((mu.qph() - 36.0).abs() < 1e-9);
        let mu_m = r.measured_sprinted_rate().unwrap();
        assert!((mu_m.qph() - 72.0).abs() < 1e-9);
    }

    #[test]
    fn tail_fraction_counts_exceedances() {
        let r = result(
            vec![
                rec(0, 0, 0, 100, false),
                rec(1, 0, 0, 300, false),
                rec(2, 0, 0, 400, false),
                rec(3, 0, 0, 50, false),
            ],
            0,
        );
        assert_eq!(r.tail_fraction(250.0), 0.5);
        assert_eq!(r.tail_fraction(1000.0), 0.0);
    }

    #[test]
    fn quantiles_and_sprint_fraction() {
        let r = result(
            vec![
                rec(0, 0, 0, 100, true),
                rec(1, 0, 0, 200, false),
                rec(2, 0, 0, 300, false),
            ],
            0,
        );
        assert_eq!(r.response_quantile_secs(0.5), 200.0);
        assert!((r.sprint_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sprinted_set_is_none() {
        let r = result(vec![rec(0, 0, 0, 10, false)], 0);
        assert!(r.measured_sprinted_rate().is_none());
        assert!(r.measured_service_rate().is_some());
    }
}
