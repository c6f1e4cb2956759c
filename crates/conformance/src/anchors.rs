//! The anchor catalogue: every paper relation the repo promises to
//! reproduce, expressed as a scalar extracted from one [`Measurements`]
//! pass plus a tolerance band around its committed golden value.
//!
//! Anchor kinds:
//!
//! - **Relation anchors** ([`Band::Exact`], value 1.0/0.0): orderings,
//!   crossovers and feasibility facts that hold at *every* seed — e.g.
//!   Fig 1's non-monotone timeout sweet spot, Table 1's sustained-rate
//!   ordering, Fig 13's strategy ordering. Checked bit-exactly.
//! - **Banded anchors** ([`Band::Relative`]/[`Band::Absolute`]):
//!   deterministic-per-seed scalars — medians, ratios, break-even
//!   hours. The band is sized to absorb cross-seed spread (the
//!   seed-matrix mode re-checks them at extra seeds), so it also
//!   bounds how far a code change may silently move a result. Model
//!   error medians get *absolute* magnitude bounds: over the small
//!   conformance test draw they swing several-fold across seeds, so a
//!   tight relative band would only ever be a single-seed artifact.
//! - **Golden-seed pins** (`cross_seed: false`): a handful of claims
//!   that are noise-dominated at conformance campaign sizes (e.g. the
//!   §3.3 CoreScale remedy's win). They stay deterministic regression
//!   checks at the golden seed and are skipped by the seed matrix.
//!
//! Wall-clock quantities (Fig 11 throughput) appear only as relation
//! anchors with generous margins; their magnitudes are
//! machine-dependent and never pinned.

use crate::measure::Measurements;
use bench::stats;

/// Tolerance band around a golden value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Measured must equal golden exactly (relations, counts).
    Exact,
    /// |measured − golden| ≤ tol.
    Absolute(f64),
    /// |measured − golden| ≤ tol · |golden|.
    Relative(f64),
}

impl Band {
    /// The `[lo, hi]` acceptance interval around `golden`.
    pub fn interval(&self, golden: f64) -> (f64, f64) {
        match *self {
            Band::Exact => (golden, golden),
            Band::Absolute(tol) => (golden - tol, golden + tol),
            Band::Relative(tol) => {
                let w = tol * golden.abs();
                (golden - w, golden + w)
            }
        }
    }

    /// Whether `measured` is acceptable against `golden`.
    pub fn accepts(&self, measured: f64, golden: f64) -> bool {
        if !measured.is_finite() {
            return false;
        }
        match *self {
            Band::Exact => measured == golden,
            _ => {
                let (lo, hi) = self.interval(golden);
                measured >= lo && measured <= hi
            }
        }
    }

    /// Short human label ("exact", "±0.05", "±25%").
    pub fn label(&self) -> String {
        match *self {
            Band::Exact => "exact".to_string(),
            Band::Absolute(tol) => format!("±{tol}"),
            Band::Relative(tol) => format!("±{:.0}%", tol * 100.0),
        }
    }
}

/// One machine-checked paper claim.
#[derive(Clone)]
pub struct Anchor {
    /// Stable identifier, `figN/...` — referenced from EXPERIMENTS.md.
    pub id: &'static str,
    /// The figure or table the claim belongs to.
    pub figure: &'static str,
    /// The paper relation being pinned.
    pub description: &'static str,
    /// Acceptance band around the committed golden value.
    pub band: Band,
    /// Whether the claim holds at *every* seed (checked in seed-matrix
    /// mode) or only deterministically at the golden seed. A handful of
    /// orderings are noise-dominated at conformance campaign sizes —
    /// they stay pinned as golden-seed regressions rather than being
    /// dropped or inverted into vacuous bands.
    pub cross_seed: bool,
    /// Extracts the measured scalar; `None` fails the anchor.
    pub value: fn(&Measurements) -> Option<f64>,
}

fn flag(b: bool) -> Option<f64> {
    Some(if b { 1.0 } else { 0.0 })
}

/// The full anchor catalogue, in figure order.
#[allow(clippy::too_many_lines)]
pub fn catalogue() -> Vec<Anchor> {
    vec![
        // ---- Figure 1: motivating timeline + timeout sweep ----
        Anchor {
            id: "fig1/non_monotone_sweet_spot",
            figure: "fig1",
            description: "response time vs timeout is non-monotone: the 2.5 min \
                          sweet spot beats both 1 min and 5 min",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fig1.non_monotone()),
        },
        Anchor {
            id: "fig1/sweet_vs_aggressive_ratio",
            figure: "fig1",
            description: "mean response at the sweet spot over the aggressive \
                          1 min timeout (< 1)",
            band: Band::Relative(0.20),
            cross_seed: true,
            value: |m| Some(m.fig1.rt_at(150.0)? / m.fig1.rt_at(60.0)?),
        },
        Anchor {
            id: "fig1/sweet_vs_conservative_ratio",
            figure: "fig1",
            description: "mean response at the sweet spot over the conservative \
                          5 min timeout (< 1)",
            band: Band::Relative(0.20),
            cross_seed: true,
            value: |m| Some(m.fig1.rt_at(150.0)? / m.fig1.rt_at(300.0)?),
        },
        Anchor {
            id: "fig1/sprint_activity",
            figure: "fig1",
            description: "the illustrative trace actually sprints (budget \
                          drain is visible in the flight recorder)",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(!m.fig1.sprint_events.is_empty()),
        },
        // ---- Table 1(C): workload throughput ----
        Anchor {
            id: "table1/rows",
            figure: "table1",
            description: "every cloud-server workload row is measured",
            band: Band::Exact,
            cross_seed: true,
            value: |m| Some(m.table1.len() as f64),
        },
        Anchor {
            id: "table1/sustained_ordering",
            figure: "table1",
            description: "measured sustained rates keep the paper's workload \
                          ordering",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(bench::figs::table1::sustained_ordering_holds(&m.table1)),
        },
        Anchor {
            id: "table1/sustained_median_rel_err",
            figure: "table1",
            description: "median relative error of measured vs published \
                          sustained rates",
            band: Band::Absolute(0.05),
            cross_seed: true,
            value: |m| {
                let errs: Vec<f64> = m.table1.iter().map(|r| r.sustained_rel_err()).collect();
                stats::median(&errs)
            },
        },
        Anchor {
            id: "table1/burst_median_rel_err",
            figure: "table1",
            description: "median relative error of measured vs published burst \
                          rates",
            band: Band::Absolute(0.08),
            cross_seed: true,
            value: |m| {
                let errs: Vec<f64> = m.table1.iter().map(|r| r.burst_rel_err()).collect();
                stats::median(&errs)
            },
        },
        Anchor {
            id: "table1/mean_marginal_speedup",
            figure: "table1",
            description: "mean marginal speedup (burst over sustained) across \
                          workloads",
            band: Band::Relative(0.25),
            cross_seed: true,
            value: |m| {
                if m.table1.is_empty() {
                    return None;
                }
                Some(
                    m.table1.iter().map(|r| r.marginal_speedup).sum::<f64>()
                        / m.table1.len() as f64,
                )
            },
        },
        // ---- Figure 7: modeling-approach comparison ----
        Anchor {
            id: "fig7/hybrid_overall_median",
            figure: "fig7",
            description: "Hybrid pooled median prediction error",
            // Error medians over the small conformance test draw swing
            // several-fold across seeds, so this band (like the other
            // model-error anchors below) is an absolute magnitude
            // bound, not a relative drift bound.
            band: Band::Absolute(0.15),
            cross_seed: true,
            value: |m| m.fig7.approach("Hybrid")?.overall(),
        },
        Anchor {
            id: "fig7/noml_overall_median",
            figure: "fig7",
            description: "No-ML pooled median prediction error",
            band: Band::Absolute(0.10),
            cross_seed: true,
            value: |m| m.fig7.approach("No-ML")?.overall(),
        },
        Anchor {
            id: "fig7/hybrid_competitive_with_noml",
            figure: "fig7",
            description: "the Hybrid model stays within 3X of the \
                          first-principles No-ML baseline's error",
            band: Band::Exact,
            // The conformance test draw can land entirely on
            // low-utilization centroids, where the queueing-formula
            // baseline is at its best and the paper's Hybrid < No-ML
            // ordering flips; the full-size Fig 7 run shows the
            // ordering, the conformance gate pins competitiveness.
            cross_seed: true,
            value: |m| {
                flag(
                    m.fig7.approach("Hybrid")?.overall()?
                        <= m.fig7.approach("No-ML")?.overall()? * 3.0,
                )
            },
        },
        Anchor {
            id: "fig7/more_data_helps_ann",
            figure: "fig7",
            description: "6X more training data does not make the ANN worse",
            band: Band::Exact,
            cross_seed: false,
            value: |m| {
                flag(
                    m.fig7.approach("ANN w/ more data")?.overall()?
                        <= m.fig7.approach("ANN")?.overall()? * 1.10,
                )
            },
        },
        Anchor {
            id: "fig7/hybrid_high_util_median",
            figure: "fig7",
            description: "Hybrid median error over the higher-utilization \
                          half of the test conditions",
            band: Band::Absolute(0.20),
            cross_seed: true,
            value: |m| {
                // The test split is one small draw from the centroid
                // grid, so a fixed utilization cutoff (e.g. the 0.95
                // centroid) can select an empty pool on some seeds.
                // Rank the test points by utilization and keep the top
                // half instead.
                let mut pts: Vec<_> = m.fig7.approach("Hybrid")?.points.clone();
                pts.sort_by(|a, b| {
                    a.run
                        .condition
                        .utilization
                        .total_cmp(&b.run.condition.utilization)
                });
                let upper = &pts[pts.len() / 2..];
                stats::median_error(upper).ok()
            },
        },
        // ---- Figure 8: error CDFs ----
        Anchor {
            id: "fig8/hybrid_median_first_workload",
            figure: "fig8",
            description: "Hybrid median error, first DVFS workload",
            band: Band::Absolute(0.15),
            cross_seed: true,
            value: |m| Some(m.fig8ab.hybrid.first()?.median()),
        },
        Anchor {
            id: "fig8/ann_median_first_workload",
            figure: "fig8",
            description: "ANN median error, first DVFS workload",
            band: Band::Absolute(0.30),
            cross_seed: true,
            value: |m| Some(m.fig8ab.ann.first()?.median()),
        },
        Anchor {
            id: "fig8/corescale_median",
            figure: "fig8",
            description: "Hybrid median error on the CoreScale mechanism \
                          (panel C, before the fix)",
            band: Band::Absolute(0.30),
            cross_seed: true,
            value: |m| m.fig8c.mechanism_median("CoreScale"),
        },
        Anchor {
            id: "fig8/corescale_fix_median",
            figure: "fig8",
            description: "CoreScale median error with the §3.3 remedy \
                          (extended grid, 90/10 split)",
            band: Band::Absolute(0.20),
            cross_seed: true,
            value: |m| Some(m.fig8c.corescale_fix.as_ref()?.median()),
        },
        Anchor {
            id: "fig8/corescale_fix_improves",
            figure: "fig8",
            description: "the §3.3 remedy reduces CoreScale median error",
            band: Band::Exact,
            // The remedy's win depends on which CoreScale conditions
            // land in the test draw; it holds at the golden seed but
            // flips on some others at conformance sizes.
            cross_seed: false,
            value: |m| {
                flag(
                    m.fig8c.corescale_fix.as_ref()?.median()
                        < m.fig8c.mechanism_median("CoreScale")?,
                )
            },
        },
        // ---- Figure 9: mixed workloads ----
        Anchor {
            id: "fig9/mix1_median",
            figure: "fig9",
            description: "Hybrid median error on Mix I (exponential arrivals)",
            band: Band::Absolute(0.25),
            cross_seed: true,
            value: |m| Some(m.fig9.mix("Mix I")?.median_err),
        },
        Anchor {
            id: "fig9/mix2_median",
            figure: "fig9",
            description: "Hybrid median error on Mix II (exponential arrivals)",
            band: Band::Absolute(0.35),
            cross_seed: true,
            value: |m| Some(m.fig9.mix("Mix II")?.median_err),
        },
        Anchor {
            id: "fig9/mix1_frac_below_30pct",
            figure: "fig9",
            description: "fraction of Mix I predictions within 30% error",
            band: Band::Absolute(0.25),
            cross_seed: true,
            value: |m| Some(m.fig9.mix("Mix I")?.frac_below[2]),
        },
        Anchor {
            id: "fig9/mix1_floor_ratio",
            figure: "fig9",
            description: "Mix I median error over the observation-noise floor",
            band: Band::Absolute(2.0),
            cross_seed: true,
            value: |m| {
                let r = m.fig9.mix("Mix I")?;
                Some(r.median_err / r.noise_floor)
            },
        },
        // ---- Figure 10: design factors + cluster sampling ----
        Anchor {
            id: "fig10/in_cluster_median",
            figure: "fig10",
            description: "median error on held-out centroid conditions",
            band: Band::Absolute(0.10),
            cross_seed: true,
            value: |m| Some(m.fig10.in_median),
        },
        Anchor {
            id: "fig10/cluster_ratio",
            figure: "fig10",
            description: "off-centroid over centroid median-error ratio (the \
                          cluster-sampling penalty)",
            band: Band::Absolute(1.0),
            cross_seed: true,
            value: |m| Some(m.fig10.cluster_ratio()),
        },
        Anchor {
            // Unlike the paper's ~2.5X penalty, this testbed's
            // off-centroid conditions interpolate *better* than the
            // centroid extremes (ratio < 1 at every size we run);
            // the banded pair pins that reproduced behaviour instead
            // of asserting the unreproduced ordering.
            id: "fig10/out_cluster_median",
            figure: "fig10",
            description: "median error on conditions between the training \
                          centroids",
            band: Band::Absolute(0.08),
            cross_seed: true,
            value: |m| Some(m.fig10.out_median),
        },
        // ---- Figure 11: prediction throughput (relations only) ----
        Anchor {
            id: "fig11/rows_cover_sizes",
            figure: "fig11",
            description: "both simulated-query sizes were measured",
            band: Band::Exact,
            cross_seed: true,
            value: |m| Some(m.fig11.rows.len() as f64),
        },
        Anchor {
            id: "fig11/throughput_positive",
            figure: "fig11",
            description: "every backend produced nonzero prediction \
                          throughput",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                flag(
                    m.fig11.rows.iter().all(|r| {
                        r.fast_single > 0.0 && r.reference_single > 0.0 && r.fast_multi > 0.0
                    }),
                )
            },
        },
        Anchor {
            id: "fig11/pool_not_slower",
            figure: "fig11",
            description: "the fast backend is not materially slower than \
                          the event-calendar reference backend at one \
                          thread, at the smallest prediction size \
                          (wall-clock; generous margin)",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fig11.rows.first()?.fast_gain() >= 0.5),
        },
        // ---- Figure 12: policy exploration ----
        Anchor {
            id: "fig12/model_tracks_testbed",
            figure: "fig12",
            description: "mean relative gap between predicted and observed \
                          response over the big-burst timeout sweep",
            band: Band::Absolute(0.10),
            cross_seed: true,
            value: |m| {
                if m.fig12a.sweep.is_empty() {
                    return None;
                }
                Some(
                    m.fig12a
                        .sweep
                        .iter()
                        .map(|p| (p.predicted_secs - p.observed_secs).abs() / p.observed_secs)
                        .sum::<f64>()
                        / m.fig12a.sweep.len() as f64,
                )
            },
        },
        Anchor {
            id: "fig12/model_beats_adrenaline",
            figure: "fig12",
            description: "the annealed model-driven timeout beats Adrenaline \
                          on the testbed",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fig12a.ratio_over_model("adrenaline")? >= 1.0),
        },
        Anchor {
            id: "fig12/model_not_worse_than_burst",
            figure: "fig12",
            description: "the annealed timeout is at least as good as \
                          burst-on-arrival",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fig12a.ratio_over_model("burst (timeout 0)")? >= 1.0),
        },
        Anchor {
            id: "fig12/ftm_ratio",
            figure: "fig12",
            description: "Few-to-Many observed response over the model-driven \
                          policy's (≈1 under big burst)",
            band: Band::Relative(0.25),
            cross_seed: true,
            value: |m| m.fig12a.ratio_over_model("few-to-many"),
        },
        Anchor {
            id: "fig12/tight_budget_prefers_loose_timeout",
            figure: "fig12",
            description: "panel C crossover: a tight 8% budget favours the \
                          130 s timeout, the loose 25% budget favours 50 s",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                flag(
                    m.fig12c.predicted_at(0.08, 130.0)? <= m.fig12c.predicted_at(0.08, 50.0)?
                        && m.fig12c.predicted_at(0.25, 50.0)?
                            <= m.fig12c.predicted_at(0.25, 130.0)?,
                )
            },
        },
        // ---- Figure 13: colocation revenue ----
        Anchor {
            id: "fig13/hosted_ordering",
            figure: "fig13",
            description: "combo 3 hosting ordering: AWS < model-driven \
                          budgeting < model-driven sprinting",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                use cloud::colocate::Strategy;
                let aws = m.fig13.row(3, Strategy::Aws)?.hosted;
                let bud = m.fig13.row(3, Strategy::ModelDrivenBudgeting)?.hosted;
                let spr = m.fig13.row(3, Strategy::ModelDrivenSprinting)?.hosted;
                flag(aws < bud && bud < spr)
            },
        },
        Anchor {
            id: "fig13/sprinting_hosted",
            figure: "fig13",
            description: "workloads model-driven sprinting hosts under SLO in \
                          combo 3 (paper: all 4; this testbed: 3)",
            band: Band::Absolute(1.0),
            cross_seed: true,
            value: |m| {
                Some(
                    m.fig13
                        .row(3, cloud::colocate::Strategy::ModelDrivenSprinting)?
                        .hosted as f64,
                )
            },
        },
        Anchor {
            id: "fig13/strategy_ordering",
            figure: "fig13",
            description: "combo 3 revenue ordering: AWS ≤ model-driven \
                          budgeting ≤ model-driven sprinting",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                use cloud::colocate::Strategy;
                let aws = m.fig13.row(3, Strategy::Aws)?.revenue_per_hour;
                let bud = m
                    .fig13
                    .row(3, Strategy::ModelDrivenBudgeting)?
                    .revenue_per_hour;
                let spr = m
                    .fig13
                    .row(3, Strategy::ModelDrivenSprinting)?
                    .revenue_per_hour;
                flag(aws <= bud && bud <= spr)
            },
        },
        Anchor {
            id: "fig13/sprinting_revenue_gain",
            figure: "fig13",
            description: "combo 3 model-driven sprinting revenue over the AWS \
                          fixed policy",
            band: Band::Relative(0.30),
            cross_seed: true,
            value: |m| {
                use cloud::colocate::Strategy;
                let aws = m.fig13.row(3, Strategy::Aws)?.revenue_per_hour;
                let spr = m
                    .fig13
                    .row(3, Strategy::ModelDrivenSprinting)?
                    .revenue_per_hour;
                Some(spr / aws)
            },
        },
        // ---- Figure 14: break-even ----
        Anchor {
            id: "fig14/break_even_exists",
            figure: "fig14",
            description: "the hybrid model's profiling cost is recouped within \
                          the server lifetime",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fig14.hybrid_break_even_hours.is_some()),
        },
        Anchor {
            id: "fig14/hybrid_break_even_hours",
            figure: "fig14",
            description: "hours until hybrid revenue overtakes the AWS default \
                          (paper: ~2.5 days)",
            band: Band::Relative(0.60),
            cross_seed: true,
            value: |m| m.fig14.hybrid_break_even_hours,
        },
        Anchor {
            id: "fig14/hybrid_lifetime_multiple",
            figure: "fig14",
            description: "hybrid revenue over AWS at the 552 h median server \
                          lifetime (paper: ~1.6X)",
            band: Band::Relative(0.30),
            cross_seed: true,
            value: |m| Some(m.fig14.lifetime_multiples()?.0),
        },
        Anchor {
            id: "fig14/hybrid_breaks_even_before_ann",
            figure: "fig14",
            description: "the hybrid model breaks even no later than the \
                          data-hungry ANN",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                let hybrid = m.fig14.hybrid_break_even_hours?;
                flag(
                    m.fig14
                        .ann_break_even_hours()
                        .is_none_or(|ann| hybrid <= ann),
                )
            },
        },
        // ---- Forest ablation (§2.4) ----
        Anchor {
            id: "ablation/direct_worse_than_hybrid",
            figure: "ablation",
            description: "a forest predicting response time directly (no \
                          simulator) is less accurate than the hybrid \
                          forest-plus-simulator default",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                let hybrid = m
                    .ablation
                    .variant("hybrid default (10 deep trees, linear leaves)")?;
                let direct = m.ablation.variant("forest -> RT directly (no simulator)")?;
                flag(direct > hybrid)
            },
        },
        Anchor {
            id: "ablation/direct_rt_penalty",
            figure: "ablation",
            description: "a forest predicting response time directly (no \
                          simulator) over the hybrid default's error",
            band: Band::Relative(0.70),
            // The penalty ratio's denominator (the hybrid's error) can
            // be nearly zero on some seeds, blowing the ratio up by an
            // order of magnitude; the ordering above is the cross-seed
            // claim, the magnitude stays a golden-seed pin.
            cross_seed: false,
            value: |m| {
                let hybrid = m
                    .ablation
                    .variant("hybrid default (10 deep trees, linear leaves)")?;
                let direct = m.ablation.variant("forest -> RT directly (no simulator)")?;
                Some(direct / hybrid)
            },
        },
        Anchor {
            id: "ablation/ensemble_helps",
            figure: "ablation",
            description: "a single tree is no better than the 10-tree default",
            band: Band::Exact,
            cross_seed: false,
            value: |m| {
                flag(
                    m.ablation.variant("1 tree(s)")?
                        >= m.ablation
                            .variant("hybrid default (10 deep trees, linear leaves)")?,
                )
            },
        },
        // ---- Fleet baseline (§4.4 at fleet scale) ----
        Anchor {
            id: "fleet/served_all",
            figure: "fleet",
            description: "the fault-free fleet baseline serves every query",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fleet.served == u64::from(4 * m.fleet.nodes)),
        },
        Anchor {
            id: "fleet/zero_lease_violations",
            figure: "fleet",
            description: "no lease invariant (bounded power, epoch fencing, \
                          fail-safe, conservation) fires without faults",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fleet.invariants_clean()),
        },
        Anchor {
            id: "fleet/no_spurious_failover",
            figure: "fleet",
            description: "a fault-free control plane never elects or fences",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fleet.stats.elections == 0 && m.fleet.stats.step_downs == 0),
        },
        Anchor {
            id: "fleet/throughput",
            figure: "fleet",
            description: "fleet queries served per virtual hour (10 T2.small \
                          nodes at 30 qph each)",
            band: Band::Relative(0.25),
            cross_seed: true,
            value: |m| {
                if m.fleet.horizon_secs <= 0.0 {
                    return None;
                }
                Some(m.fleet.served as f64 * 3_600.0 / m.fleet.horizon_secs)
            },
        },
        Anchor {
            id: "fleet/budget_utilization",
            figure: "fleet",
            description: "time-weighted held power over the shared budget \
                          (leases keep the certified pool busy without \
                          overrunning it)",
            band: Band::Absolute(0.25),
            cross_seed: true,
            value: |m| Some(m.fleet.budget_utilization),
        },
        Anchor {
            id: "fleet/budget_never_exceeded",
            figure: "fleet",
            description: "peak held power stays at or under the budget when \
                          no coordinator ever fails",
            band: Band::Exact,
            cross_seed: true,
            value: |m| flag(m.fleet.peak_held_power <= m.fleet.budget_power),
        },
        // ---- Request cloning (scenario catalog workload) ----
        Anchor {
            id: "cloning/p99_fault_free",
            figure: "cloning",
            description: "fault-free P99 of the two-clone low-load race, \
                          seconds",
            band: Band::Relative(0.25),
            cross_seed: true,
            value: |m| Some(m.cloning.cloned.response_quantile_secs(0.99)),
        },
        Anchor {
            id: "cloning/beats_solo_low_load",
            figure: "cloning",
            description: "racing two clones beats the solo twin's mean \
                          response at low load",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                flag(m.cloning.cloned.mean_response_secs() < m.cloning.solo.mean_response_secs())
            },
        },
        Anchor {
            id: "cloning/model_tracks_low_load",
            figure: "cloning",
            description: "the analytic winner-of-d model predicts the cloned \
                          mean within 15%",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                let predicted = m.cloning.predicted_mean_secs;
                if predicted <= 0.0 {
                    return None;
                }
                let rel = (m.cloning.cloned.mean_response_secs() - predicted).abs() / predicted;
                flag(rel < 0.15)
            },
        },
        Anchor {
            id: "cloning/conservation",
            figure: "cloning",
            description: "every spawned clone is accounted: winner, cancelled, \
                          or ghost, with one winner per query",
            band: Band::Exact,
            cross_seed: true,
            value: |m| {
                flag(
                    m.cloning.cloned.conserves_clones()
                        && m.cloning.cloned.winners == m.cloning.requests,
                )
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_ids_are_unique_and_large_enough() {
        let anchors = catalogue();
        assert!(
            anchors.len() >= 30,
            "acceptance floor: >= 30 anchors, have {}",
            anchors.len()
        );
        let ids: HashSet<&str> = anchors.iter().map(|a| a.id).collect();
        assert_eq!(ids.len(), anchors.len(), "anchor ids must be unique");
    }

    #[test]
    fn catalogue_spans_every_required_figure() {
        let anchors = catalogue();
        for figure in [
            "fig1", "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fleet", "cloning",
        ] {
            assert!(
                anchors.iter().any(|a| a.figure == figure),
                "no anchor covers {figure}"
            );
        }
    }

    #[test]
    fn bands_accept_and_reject() {
        assert!(Band::Exact.accepts(1.0, 1.0));
        assert!(!Band::Exact.accepts(1.0 + 1e-15, 1.0));
        assert!(Band::Absolute(0.1).accepts(0.55, 0.5));
        assert!(!Band::Absolute(0.1).accepts(0.65, 0.5));
        assert!(Band::Relative(0.2).accepts(1.15, 1.0));
        assert!(!Band::Relative(0.2).accepts(1.25, 1.0));
        assert!(!Band::Relative(0.2).accepts(f64::NAN, 1.0));
    }

    #[test]
    fn relative_band_handles_negative_goldens() {
        let (lo, hi) = Band::Relative(0.5).interval(-2.0);
        assert!(lo < -2.0 && hi > -2.0);
        assert!(Band::Relative(0.5).accepts(-2.5, -2.0));
        assert!(!Band::Relative(0.5).accepts(-3.5, -2.0));
    }
}
