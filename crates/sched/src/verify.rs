//! The feasibility theorem of the paper.
//!
//! *Theorem (Section IV ③).*  Given a layer set `D`, a sub-accelerator set
//! `AIC`, and design specs on latency `LS` and energy `ES`, the design
//! specs can be met if and only if `re = HAP(D, AIC, LS) <= ES`.
//!
//! In other words: solve the heterogeneous assignment problem for minimum
//! energy under the latency bound; the workload fits the specs exactly when
//! that minimum energy is itself within the energy bound.

use crate::problem::MappingSolution;

/// Check the latency/energy design specs for a solved HAP instance.
///
/// Returns `true` when the mapping is feasible with respect to the
/// problem's latency constraint **and** its energy does not exceed
/// `energy_spec` — i.e. the theorem's condition `HAP(D, AIC, LS) <= ES`.
pub fn meets_design_specs(solution: &MappingSolution, energy_spec: f64) -> bool {
    solution.feasible && solution.energy_nj <= energy_spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::solve_heuristic;
    use crate::problem::HapProblem;
    use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
    use nasaic_cost::{CostModel, WorkloadCosts};
    use nasaic_nn::backbone::Backbone;

    fn problem(latency: f64) -> HapProblem {
        let model = CostModel::paper_calibrated();
        let archs = vec![Backbone::ResNet9Cifar10.materialize_values(&[8, 64, 1, 64, 1, 128, 1])];
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
        ]);
        let costs = WorkloadCosts::build(&model, &archs, &acc);
        HapProblem::new(costs, latency)
    }

    #[test]
    fn generous_specs_are_met() {
        let p = problem(1e9);
        let s = solve_heuristic(&p);
        assert!(meets_design_specs(&s, 1e12));
    }

    #[test]
    fn tight_energy_spec_fails_even_with_feasible_latency() {
        let p = problem(1e9);
        let s = solve_heuristic(&p);
        assert!(s.feasible);
        assert!(!meets_design_specs(&s, s.energy_nj * 0.5));
    }

    #[test]
    fn infeasible_latency_always_fails() {
        let p = problem(1.0);
        let s = solve_heuristic(&p);
        assert!(!meets_design_specs(&s, f64::INFINITY));
    }

    #[test]
    fn theorem_boundary_is_inclusive() {
        let p = problem(1e9);
        let s = solve_heuristic(&p);
        assert!(meets_design_specs(&s, s.energy_nj));
    }
}
