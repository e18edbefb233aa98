//! The heterogeneous assignment problem (HAP) instance and its solution
//! types.

use nasaic_cost::WorkloadCosts;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default latency penalty (cycles) paid when consecutive layers of the same
/// network execute on different sub-accelerators (intermediate activations
/// cross the NoC through the global buffer).
pub const DEFAULT_SWITCH_PENALTY_CYCLES: f64 = 256.0;

/// A layer-to-sub-accelerator assignment: `assignment[n][l]` is the index of
/// the sub-accelerator that executes layer `l` of network `n`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    per_network: Vec<Vec<usize>>,
}

impl Assignment {
    /// Create an assignment from per-network layer assignments.
    pub fn new(per_network: Vec<Vec<usize>>) -> Self {
        Self { per_network }
    }

    /// Assignment of every layer of every network to a single
    /// sub-accelerator.
    pub fn uniform(costs: &WorkloadCosts, sub: usize) -> Self {
        Self::new(
            costs
                .networks
                .iter()
                .map(|n| vec![sub; n.layers.len()])
                .collect(),
        )
    }

    /// The sub-accelerator assigned to layer `layer` of network `network`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn sub_for(&self, network: usize, layer: usize) -> usize {
        self.per_network[network][layer]
    }

    /// Mutable access used by solvers.
    pub fn set(&mut self, network: usize, layer: usize, sub: usize) {
        self.per_network[network][layer] = sub;
    }

    /// Per-network assignment slices.
    pub fn per_network(&self) -> &[Vec<usize>] {
        &self.per_network
    }

    /// Total number of assigned layers.
    pub fn total_layers(&self) -> usize {
        self.per_network.iter().map(Vec::len).sum()
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, layers) in self.per_network.iter().enumerate() {
            write!(f, "net{n}: {layers:?} ")?;
        }
        Ok(())
    }
}

/// A HAP instance: a cost table plus the latency (timing) constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HapProblem {
    /// Per-layer, per-sub-accelerator costs of the workload.
    pub costs: WorkloadCosts,
    /// Latency constraint `LS` (cycles).
    pub latency_constraint: f64,
    /// Latency penalty per sub-accelerator switch along a network chain.
    pub switch_penalty_cycles: f64,
}

impl HapProblem {
    /// Create a HAP instance with the default switch penalty.
    ///
    /// # Panics
    ///
    /// Panics if `latency_constraint` is not strictly positive.
    pub fn new(costs: WorkloadCosts, latency_constraint: f64) -> Self {
        assert!(
            latency_constraint > 0.0,
            "latency constraint must be positive"
        );
        Self {
            costs,
            latency_constraint,
            switch_penalty_cycles: DEFAULT_SWITCH_PENALTY_CYCLES,
        }
    }

    /// Override the switch penalty.
    pub fn with_switch_penalty(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0, "switch penalty must be non-negative");
        self.switch_penalty_cycles = cycles;
        self
    }

    /// Number of sub-accelerators (columns) in the instance.
    pub fn num_subs(&self) -> usize {
        self.costs.num_subs
    }

    /// Number of networks in the instance.
    pub fn num_networks(&self) -> usize {
        self.costs.networks.len()
    }

    /// Energy of an assignment (sum of the selected per-layer energies).
    /// Returns infinity if any selected mapping is infeasible.
    pub fn energy_of(&self, assignment: &Assignment) -> f64 {
        let mut total = 0.0;
        for (n, network) in self.costs.networks.iter().enumerate() {
            for (l, row) in network.layers.iter().enumerate() {
                let cost = &row.per_sub[assignment.sub_for(n, l)];
                if !cost.is_feasible() {
                    return f64::INFINITY;
                }
                total += cost.energy_nj;
            }
        }
        total
    }
}

/// A solved mapping: the assignment plus its evaluated latency and energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingSolution {
    /// The layer-to-sub-accelerator assignment.
    pub assignment: Assignment,
    /// Makespan of the workload under this assignment (cycles).
    pub latency_cycles: f64,
    /// Total energy of the workload under this assignment (nJ).
    pub energy_nj: f64,
    /// `true` when the latency constraint of the problem is satisfied.
    pub feasible: bool,
}

impl MappingSolution {
    /// An infeasible sentinel solution.
    pub fn infeasible(assignment: Assignment) -> Self {
        Self {
            assignment,
            latency_cycles: f64::INFINITY,
            energy_nj: f64::INFINITY,
            feasible: false,
        }
    }
}

impl fmt::Display for MappingSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping: L={:.3e} cycles, E={:.3e} nJ, {}",
            self.latency_cycles,
            self.energy_nj,
            if self.feasible {
                "feasible"
            } else {
                "infeasible"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
    use nasaic_cost::CostModel;
    use nasaic_nn::backbone::Backbone;

    fn small_costs() -> WorkloadCosts {
        let model = CostModel::paper_calibrated();
        let archs = vec![Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0])];
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
        ]);
        WorkloadCosts::build(&model, &archs, &acc)
    }

    #[test]
    fn uniform_assignment_covers_every_layer() {
        let costs = small_costs();
        let a = Assignment::uniform(&costs, 0);
        assert_eq!(a.total_layers(), costs.total_layers());
        assert!(a.per_network.iter().flatten().all(|&sub| sub == 0));
        assert_eq!(a.sub_for(0, 3), 0);
    }

    #[test]
    fn display_names_each_network() {
        let a = Assignment::new(vec![vec![0, 1, 1, 0], vec![1, 1]]);
        assert!(a.to_string().contains("net0") && a.to_string().contains("net1"));
    }

    #[test]
    fn energy_of_sums_selected_costs() {
        let costs = small_costs();
        let problem = HapProblem::new(costs.clone(), 1e9);
        let on_zero = problem.energy_of(&Assignment::uniform(&costs, 0));
        let on_one = problem.energy_of(&Assignment::uniform(&costs, 1));
        assert!(on_zero.is_finite() && on_one.is_finite());
        assert!(on_zero > 0.0);
        // Mapping everything to a different sub-accelerator changes energy.
        assert_ne!(on_zero, on_one);
    }

    #[test]
    fn energy_of_infeasible_mapping_is_infinite() {
        let model = CostModel::paper_calibrated();
        let archs = vec![Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0])];
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::inactive(Dataflow::Shidiannao),
        ]);
        let costs = WorkloadCosts::build(&model, &archs, &acc);
        let problem = HapProblem::new(costs.clone(), 1e9);
        assert!(problem
            .energy_of(&Assignment::uniform(&costs, 1))
            .is_infinite());
    }

    #[test]
    #[should_panic]
    fn non_positive_latency_constraint_rejected() {
        HapProblem::new(small_costs(), 0.0);
    }

    #[test]
    fn solution_display_mentions_feasibility() {
        let costs = small_costs();
        let s = MappingSolution::infeasible(Assignment::uniform(&costs, 0));
        assert!(s.to_string().contains("infeasible"));
    }
}
