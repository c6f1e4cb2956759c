//! Figure 1: query executions under a tight sprinting budget, and the
//! intro's timeout-sensitivity example.

use mechanisms::CpuThrottle;
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig, SprintPolicy};
use workloads::{QueryMix, WorkloadKind};

/// Sizing knobs for the Fig. 1 computation.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Config {
    /// Base seed.
    pub seed: u64,
    /// Replays averaged per timeout in the sensitivity sweep.
    pub reps: u64,
    /// Queries per replay.
    pub num_queries: usize,
    /// Trace rows surfaced from the illustrative run.
    pub trace_rows: usize,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            seed: 11,
            reps: 12,
            num_queries: 300,
            trace_rows: 10,
        }
    }
}

/// One row of the illustrative Fig. 1 trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceRow {
    /// Query index (0-based).
    pub id: u64,
    /// Arrival offset from the first traced query (seconds).
    pub arrive_secs: f64,
    /// Queueing delay (seconds).
    pub queue_secs: f64,
    /// Processing time (seconds).
    pub process_secs: f64,
    /// Seconds spent sprinting.
    pub sprint_secs: f64,
    /// Whether the timeout fired.
    pub timed_out: bool,
    /// Whether the query sprinted at all.
    pub sprinted: bool,
}

/// One timeout of the sensitivity sweep.
#[derive(Debug, Clone)]
pub struct TimeoutPoint {
    /// Display label.
    pub label: &'static str,
    /// The timeout (seconds).
    pub timeout_secs: f64,
    /// Mean response averaged over the replays (seconds).
    pub mean_rt_secs: f64,
}

/// Everything the Fig. 1 binary prints, as data.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// The illustrative 60 s-timeout trace.
    pub trace: Vec<TraceRow>,
    /// Sprint engage/end events captured by the flight recorder.
    pub sprint_events: Vec<obs::Event>,
    /// The timeout-sensitivity sweep (1 min / 2.5 min / 5 min).
    pub sweep: Vec<TimeoutPoint>,
}

impl Fig1Result {
    /// Mean response at a swept timeout.
    pub fn rt_at(&self, timeout_secs: f64) -> Option<f64> {
        self.sweep
            .iter()
            .find(|p| p.timeout_secs == timeout_secs)
            .map(|p| p.mean_rt_secs)
    }

    /// Whether the sweet spot beats both the aggressive and the
    /// conservative timeout — the paper's non-monotone shape.
    pub fn non_monotone(&self) -> bool {
        match (self.rt_at(60.0), self.rt_at(150.0), self.rt_at(300.0)) {
            (Some(aggressive), Some(sweet), Some(conservative)) => {
                sweet < aggressive && sweet < conservative
            }
            _ => false,
        }
    }
}

/// The tight-budget Jacobi scenario behind every Fig. 1 panel.
fn scenario(timeout_secs: f64, seed: u64, num_queries: usize) -> ServerConfig {
    // Jacobi under CPU throttling, heavily loaded, with a budget that
    // covers roughly two full sprints before it drains and refills
    // slowly — tight enough that aggressive early sprinting starves
    // later queueing-heavy periods.
    ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(14.8 * 0.85)),
        policy: SprintPolicy::new(
            SimDuration::from_secs_f64(timeout_secs),
            BudgetSpec::Seconds(120.0),
            SimDuration::from_secs(1_800),
        ),
        slots: 1,
        num_queries,
        warmup: num_queries / 10,
        seed,
    }
}

/// Mean response over several seeds (the paper's Fig. 1 is a single
/// illustrative trace; the sensitivity claim needs steady state).
fn mean_rt(cfg: &Fig1Config, timeout_secs: f64, base_seed: u64) -> Result<f64, SprintError> {
    let mech = CpuThrottle::new(0.2);
    let mut total = 0.0;
    for i in 0..cfg.reps {
        total += Server::new(
            scenario(timeout_secs, base_seed + i, cfg.num_queries),
            &mech,
        )?
        .run()?
        .mean_response_secs();
    }
    Ok(total / cfg.reps as f64)
}

/// Computes Figure 1: the recorded illustrative trace plus the
/// timeout-sensitivity sweep.
///
/// # Errors
///
/// Propagates any testbed configuration or runtime error.
pub fn compute(cfg: &Fig1Config) -> Result<Fig1Result, SprintError> {
    let mech = CpuThrottle::new(0.2);

    // Panel 1: the Fig. 1 timeline — early queries drain the budget,
    // later ones cannot sprint despite slow responses. Powered by the
    // flight recorder: sprint engages/ends come from the event log,
    // not from re-deriving them out of the per-query records.
    let mut server = testbed::Server::new(scenario(60.0, cfg.seed, cfg.num_queries), &mech)?;
    server.attach_recorder(4096);
    let r = server.run()?;
    let records = &r.records()[..cfg.trace_rows.min(r.records().len())];
    let t0 = records
        .first()
        .ok_or_else(|| SprintError::runtime("fig1", "run produced no query records"))?
        .arrival;
    let trace = records
        .iter()
        .map(|q| TraceRow {
            id: q.id,
            arrive_secs: q.arrival.since(t0).as_secs_f64(),
            queue_secs: q.queue_delay().as_secs_f64(),
            process_secs: q.processing_time().as_secs_f64(),
            sprint_secs: q.sprint_seconds,
            timed_out: q.timed_out,
            sprinted: q.sprinted,
        })
        .collect();
    let sprint_events = r
        .telemetry()
        .map(|t| {
            t.events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        obs::EventKind::SprintEngaged { .. } | obs::EventKind::SprintEnded { .. }
                    )
                })
                .take(16)
                .copied()
                .collect()
        })
        .unwrap_or_default();

    // Panel 2: timeout sensitivity (the intro's too-aggressive /
    // sweet-spot / too-conservative example).
    let mut sweep = Vec::new();
    for (label, t) in [
        ("1 min (aggressive)", 60.0),
        ("2.5 min (sweet spot)", 150.0),
        ("5 min (conservative)", 300.0),
    ] {
        sweep.push(TimeoutPoint {
            label,
            timeout_secs: t,
            mean_rt_secs: mean_rt(cfg, t, cfg.seed + 100)?,
        });
    }

    Ok(Fig1Result {
        trace,
        sprint_events,
        sweep,
    })
}
