//! Automatic solver-tier selection by instance size.
//!
//! Historically the scenario runner had a silent edge: anything past
//! [`EXACT_LAYER_LIMIT`] made [`solve_exact`] return `None` with no
//! diagnostic, and callers quietly fell back to the heuristic without ever
//! saying so.  This module makes the choice explicit and reportable:
//! [`select_tier`] maps a total layer count to one of three solver tiers,
//! [`solve_tiered`] runs the selected tier and **never** returns `None`,
//! and every decision carries a human-readable [`TierDecision::reason`]
//! that the `RunReport` surfaces in text/JSON/CSV.
//!
//! The ladder rule (measured on the `nasaic-bench scale` rungs, see
//! `docs/performance.md`):
//!
//! | total layers            | tier        |
//! |-------------------------|-------------|
//! | ≤ [`EXACT_LAYER_LIMIT`] | exact       |
//! | ≤ [`BEAM_LAYER_LIMIT`]  | beam (width [`DEFAULT_BEAM_WIDTH`]) |
//! | larger                  | heuristic   |
//!
//! [`SchedulerPolicy`] is the user-facing knob (the scenario schema's
//! `search.scheduler` key): the default `heuristic` pins the paper's
//! solver bit-identically, `auto` enables the ladder, and `beam`/`exact`
//! pin a tier (with a reported fallback when `exact` is asked for an
//! instance past its limit).

use crate::beam::{solve_beam, DEFAULT_BEAM_WIDTH};
use crate::exact::{solve_exact, EXACT_LAYER_LIMIT};
use crate::heuristic::solve_heuristic;
use crate::problem::{HapProblem, MappingSolution};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Largest instance routed to the beam tier by [`select_tier`]; larger
/// instances fall through to the heuristic.  Set where the width-32 beam's
/// rung wall time leaves the millisecond regime on the scale ladder.
pub const BEAM_LAYER_LIMIT: usize = 300;

/// The three solver tiers, ordered from strongest to cheapest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerTier {
    /// Branch and bound ([`solve_exact`]) — optimal, layer-limited.
    Exact,
    /// Width-budgeted beam search ([`solve_beam`]).
    Beam,
    /// Ratio heuristic ([`solve_heuristic`]) — the paper's solver.
    Heuristic,
}

impl SchedulerTier {
    /// Stable lowercase name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerTier::Exact => "exact",
            SchedulerTier::Beam => "beam",
            SchedulerTier::Heuristic => "heuristic",
        }
    }
}

impl fmt::Display for SchedulerTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which tier ran (or would run) on an instance, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierDecision {
    /// The selected tier.
    pub tier: SchedulerTier,
    /// Beam width when the beam tier was selected.
    pub width: Option<usize>,
    /// Total layer count the decision was made on.
    pub total_layers: usize,
    /// Human-readable rationale (kept comma-free so it embeds in CSV rows
    /// without quoting).
    pub reason: String,
}

impl fmt::Display for TierDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.tier, self.reason)
    }
}

/// Map a total layer count to a solver tier (the ladder rule above).
pub fn select_tier(total_layers: usize) -> TierDecision {
    if total_layers <= EXACT_LAYER_LIMIT {
        TierDecision {
            tier: SchedulerTier::Exact,
            width: None,
            total_layers,
            reason: format!(
                "{total_layers} layers within EXACT_LAYER_LIMIT {EXACT_LAYER_LIMIT}: \
                 branch-and-bound is tractable"
            ),
        }
    } else if total_layers <= BEAM_LAYER_LIMIT {
        TierDecision {
            tier: SchedulerTier::Beam,
            width: Some(DEFAULT_BEAM_WIDTH),
            total_layers,
            reason: format!(
                "{total_layers} layers exceed EXACT_LAYER_LIMIT {EXACT_LAYER_LIMIT}; \
                 within BEAM_LAYER_LIMIT {BEAM_LAYER_LIMIT} so beam width \
                 {DEFAULT_BEAM_WIDTH} runs"
            ),
        }
    } else {
        TierDecision {
            tier: SchedulerTier::Heuristic,
            width: None,
            total_layers,
            reason: format!(
                "{total_layers} layers exceed BEAM_LAYER_LIMIT {BEAM_LAYER_LIMIT}: \
                 ratio heuristic only"
            ),
        }
    }
}

/// Solve with the automatically selected tier.  Unlike [`solve_exact`]
/// this never returns `None`: every instance gets a solution (possibly the
/// infeasible sentinel) plus the decision that produced it.
pub fn solve_tiered(problem: &HapProblem) -> (MappingSolution, TierDecision) {
    let decision = select_tier(problem.costs.total_layers());
    let solution = match decision.tier {
        SchedulerTier::Exact => {
            solve_exact(problem).expect("select_tier guarantees the exact layer limit")
        }
        SchedulerTier::Beam => solve_beam(problem, DEFAULT_BEAM_WIDTH),
        SchedulerTier::Heuristic => solve_heuristic(problem),
    };
    (solution, decision)
}

/// The user-facing scheduler knob carried by a scenario's `search` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Always the ratio heuristic — the paper's solver, bit-identical to
    /// the pre-tier behaviour.  The default.
    #[default]
    Heuristic,
    /// Tier by instance size via [`select_tier`].
    Auto,
    /// Always the beam tier at [`DEFAULT_BEAM_WIDTH`].
    Beam,
    /// The exact solver where its layer limit allows; reported fallback to
    /// the size-selected tier past it.
    Exact,
}

impl SchedulerPolicy {
    /// All policies, in documentation order.
    pub fn all() -> [SchedulerPolicy; 4] {
        [
            SchedulerPolicy::Heuristic,
            SchedulerPolicy::Auto,
            SchedulerPolicy::Beam,
            SchedulerPolicy::Exact,
        ]
    }

    /// Stable lowercase name used in scenario configs and reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Heuristic => "heuristic",
            SchedulerPolicy::Auto => "auto",
            SchedulerPolicy::Beam => "beam",
            SchedulerPolicy::Exact => "exact",
        }
    }
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedulerPolicy {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        SchedulerPolicy::all()
            .into_iter()
            .find(|policy| policy.name() == text)
            .ok_or_else(|| {
                format!("unknown scheduler '{text}' (expected heuristic, auto, beam or exact)")
            })
    }
}

/// Solve under a [`SchedulerPolicy`].  Like [`solve_tiered`] this never
/// returns `None`; the returned decision records which tier actually ran
/// (including the fallback when `exact` is requested past its limit).
pub fn solve_with_policy(
    problem: &HapProblem,
    policy: SchedulerPolicy,
) -> (MappingSolution, TierDecision) {
    let (solution, decision) = solve_with_policy_inner(problem, policy);
    if nasaic_telemetry::enabled() {
        // One labelled series per tier that actually ran (not merely was
        // requested), so fallbacks show up in the counts.
        nasaic_telemetry::global()
            .counter(
                "nasaic_sched_tier_selections_total",
                &[("tier", decision.tier.name())],
            )
            .inc();
    }
    (solution, decision)
}

fn solve_with_policy_inner(
    problem: &HapProblem,
    policy: SchedulerPolicy,
) -> (MappingSolution, TierDecision) {
    let total_layers = problem.costs.total_layers();
    match policy {
        SchedulerPolicy::Auto => solve_tiered(problem),
        SchedulerPolicy::Heuristic => (
            solve_heuristic(problem),
            TierDecision {
                tier: SchedulerTier::Heuristic,
                width: None,
                total_layers,
                reason: "policy heuristic pins the paper's ratio heuristic".to_string(),
            },
        ),
        SchedulerPolicy::Beam => (
            solve_beam(problem, DEFAULT_BEAM_WIDTH),
            TierDecision {
                tier: SchedulerTier::Beam,
                width: Some(DEFAULT_BEAM_WIDTH),
                total_layers,
                reason: format!("policy beam pins beam search at width {DEFAULT_BEAM_WIDTH}"),
            },
        ),
        SchedulerPolicy::Exact => match solve_exact(problem) {
            Some(solution) => (
                solution,
                TierDecision {
                    tier: SchedulerTier::Exact,
                    width: None,
                    total_layers,
                    reason: format!(
                        "policy exact: {total_layers} layers within EXACT_LAYER_LIMIT \
                         {EXACT_LAYER_LIMIT}"
                    ),
                },
            ),
            None => {
                let (solution, mut decision) = solve_tiered(problem);
                decision.reason = format!(
                    "policy exact overruled: {total_layers} layers exceed EXACT_LAYER_LIMIT \
                     {EXACT_LAYER_LIMIT}; fell back to {}",
                    decision.tier
                );
                (solution, decision)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
    use nasaic_cost::{CostModel, WorkloadCosts};
    use nasaic_nn::backbone::Backbone;

    fn problem_with_layers(copies: usize, latency_constraint: f64) -> HapProblem {
        let model = CostModel::paper_calibrated();
        // Each copy is the smallest 9-layer ResNet.
        let archs: Vec<_> = (0..copies)
            .map(|_| Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0]))
            .collect();
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
        ]);
        let costs = WorkloadCosts::build(&model, &archs, &acc);
        HapProblem::new(costs, latency_constraint)
    }

    #[test]
    fn tier_rule_matches_the_documented_ladder() {
        assert_eq!(select_tier(1).tier, SchedulerTier::Exact);
        assert_eq!(select_tier(EXACT_LAYER_LIMIT).tier, SchedulerTier::Exact);
        assert_eq!(select_tier(EXACT_LAYER_LIMIT + 1).tier, SchedulerTier::Beam);
        assert_eq!(select_tier(BEAM_LAYER_LIMIT).tier, SchedulerTier::Beam);
        assert_eq!(
            select_tier(BEAM_LAYER_LIMIT + 1).tier,
            SchedulerTier::Heuristic
        );
    }

    #[test]
    fn decision_reason_names_the_crossed_limit() {
        let beam = select_tier(100);
        assert!(beam.reason.contains("EXACT_LAYER_LIMIT"));
        assert_eq!(beam.width, Some(DEFAULT_BEAM_WIDTH));
        let heuristic = select_tier(1000);
        assert!(heuristic.reason.contains("BEAM_LAYER_LIMIT"));
        // Reasons must embed into CSV rows without quoting.
        for decision in [&beam, &heuristic, &select_tier(9)] {
            assert!(!decision.reason.contains(','), "{}", decision.reason);
        }
    }

    #[test]
    fn solve_tiered_never_returns_none_past_the_exact_limit() {
        // 45 layers: over EXACT_LAYER_LIMIT, where solve_exact is None.
        let problem = problem_with_layers(5, 1e9);
        assert!(problem.costs.total_layers() > EXACT_LAYER_LIMIT);
        assert!(solve_exact(&problem).is_none());
        let (solution, decision) = solve_tiered(&problem);
        assert!(solution.feasible);
        assert_eq!(decision.tier, SchedulerTier::Beam);
    }

    #[test]
    fn exact_policy_reports_its_fallback() {
        let problem = problem_with_layers(5, 1e9);
        let (solution, decision) = solve_with_policy(&problem, SchedulerPolicy::Exact);
        assert!(solution.feasible);
        assert_eq!(decision.tier, SchedulerTier::Beam);
        assert!(decision.reason.contains("overruled"), "{}", decision.reason);
    }

    #[test]
    fn heuristic_policy_is_bit_identical_to_solve_heuristic() {
        for copies in [1usize, 3] {
            let problem = problem_with_layers(copies, 1e9);
            let (solution, decision) = solve_with_policy(&problem, SchedulerPolicy::Heuristic);
            assert_eq!(solution, solve_heuristic(&problem));
            assert_eq!(decision.tier, SchedulerTier::Heuristic);
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in SchedulerPolicy::all() {
            assert_eq!(policy.name().parse::<SchedulerPolicy>(), Ok(policy));
        }
        assert!("ilp".parse::<SchedulerPolicy>().is_err());
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Heuristic);
    }

    #[test]
    fn tiered_solution_on_small_instances_is_exact() {
        let problem = problem_with_layers(1, 1e9);
        let (solution, decision) = solve_tiered(&problem);
        assert_eq!(decision.tier, SchedulerTier::Exact);
        assert_eq!(
            solution,
            solve_exact(&problem).expect("within the layer limit")
        );
    }
}
