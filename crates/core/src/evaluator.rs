//! The NASAIC evaluator (paper Fig. 4, component ③).
//!
//! The evaluator has two paths:
//!
//! * **training / validating** — obtain every sampled architecture's
//!   accuracy (here: the calibrated surrogate or the proxy trainer) and
//!   combine them into the weighted accuracy of Eq. 2;
//! * **mapping / scheduling** — build the (layer × sub-accelerator) cost
//!   table with the cost model, solve the heterogeneous assignment problem
//!   under the latency spec, and read latency, energy and area.

use crate::candidate::Candidate;
use crate::spec::{DesignSpecs, SpecCheck};
use crate::workload::Workload;
use nasaic_accel::Accelerator;
use nasaic_accuracy::proxy::ProxyAccuracyModel;
use nasaic_accuracy::{AccuracyCombiner, AccuracyModel, SurrogateModel};
use nasaic_cost::{CostModel, HardwareMetrics, WorkloadCosts};
use nasaic_nn::layer::Architecture;
use nasaic_sched::{solve_heuristic, solve_with_policy, HapProblem, SchedulerPolicy};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The accuracy oracle used by the evaluator.
///
/// The calibrated surrogate is the default; the proxy trainer exercises a
/// real train/validate loop on synthetic data (slower, used in examples
/// and tests of the full pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccuracyOracle {
    /// Calibrated analytical surrogate (fast, default).
    Surrogate(SurrogateModel),
    /// Proxy MLP training on synthetic data.
    Proxy(ProxyAccuracyModel),
}

impl AccuracyOracle {
    /// Evaluate one architecture's accuracy.
    pub fn evaluate(&self, backbone: nasaic_nn::backbone::Backbone, arch: &Architecture) -> f64 {
        match self {
            AccuracyOracle::Surrogate(m) => m.evaluate(backbone, arch),
            AccuracyOracle::Proxy(m) => m.evaluate(backbone, arch),
        }
    }

    /// Name of the oracle.
    pub fn name(&self) -> &'static str {
        match self {
            AccuracyOracle::Surrogate(_) => "calibrated-surrogate",
            AccuracyOracle::Proxy(_) => "proxy-trainer",
        }
    }
}

impl Default for AccuracyOracle {
    fn default() -> Self {
        AccuracyOracle::Surrogate(SurrogateModel::paper_calibrated())
    }
}

/// The result of evaluating one candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Per-task accuracy (or IOU), in workload order.
    pub accuracies: Vec<f64>,
    /// Weighted accuracy of Eq. 2.
    pub weighted_accuracy: f64,
    /// Hardware metrics (latency of the best mapping found under the
    /// latency spec, its energy, and the accelerator area).
    pub metrics: HardwareMetrics,
    /// Per-spec satisfaction.
    pub spec_check: SpecCheck,
}

impl Evaluation {
    /// `true` when all three design specs are met.
    pub fn meets_specs(&self) -> bool {
        self.spec_check.all()
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {:?} (weighted {:.4}), {}, specs {}",
            self.accuracies
                .iter()
                .map(|a| (a * 1e4).round() / 1e4)
                .collect::<Vec<_>>(),
            self.weighted_accuracy,
            self.metrics,
            self.spec_check.symbol()
        )
    }
}

/// The evaluator: accuracy path + hardware path for a fixed workload and
/// spec set.
///
/// The evaluator holds no per-design state: every hardware evaluation
/// builds its cost table afresh with [`WorkloadCosts::build`] (a table
/// cell is a few dozen nanoseconds of arithmetic, cheaper than a memo
/// lookup), so a long-lived evaluator does not grow with the designs it
/// sees.  Repeated candidates are memoised one level up, in the bounded
/// caches of [`crate::engine::EvalEngine`].
#[derive(Debug, Clone)]
pub struct Evaluator {
    workload: Workload,
    specs: DesignSpecs,
    cost_model: CostModel,
    oracle: AccuracyOracle,
    combiner: AccuracyCombiner,
    scheduler: SchedulerPolicy,
}

impl Evaluator {
    /// Create an evaluator with the paper-calibrated cost model and the
    /// workload's own task weights.
    pub fn new(workload: &Workload, specs: DesignSpecs, oracle: AccuracyOracle) -> Self {
        Self {
            workload: workload.clone(),
            specs,
            cost_model: CostModel::paper_calibrated(),
            oracle,
            combiner: workload.combiner(),
            scheduler: SchedulerPolicy::Heuristic,
        }
    }

    /// Replace the HAP scheduler policy (default:
    /// [`SchedulerPolicy::Heuristic`], the paper's solver — every other
    /// policy is opt-in because it changes which mapping the hardware
    /// path reports).
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The HAP scheduler policy in use.
    pub fn scheduler(&self) -> SchedulerPolicy {
        self.scheduler
    }

    /// The design specs the evaluator checks against.
    pub fn specs(&self) -> &DesignSpecs {
        &self.specs
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Accuracy of every architecture (training/validation path).
    pub fn accuracies(&self, architectures: &[Architecture]) -> Vec<f64> {
        self.workload
            .tasks
            .iter()
            .zip(architectures)
            .map(|(task, arch)| {
                let _span = crate::metrics::maybe_time(crate::metrics::eval_accuracy_wall);
                self.oracle.evaluate(task.backbone, arch)
            })
            .collect()
    }

    /// Accuracy of one architecture evaluated as the workload's
    /// `task_index`-th task (a single oracle query — the per-task unit the
    /// engine memoises).
    ///
    /// # Panics
    ///
    /// Panics if `task_index` is out of range for the workload.
    pub fn accuracy_for_task(&self, task_index: usize, arch: &Architecture) -> f64 {
        let _span = crate::metrics::maybe_time(crate::metrics::eval_accuracy_wall);
        self.oracle
            .evaluate(self.workload.tasks[task_index].backbone, arch)
    }

    /// The weighted accuracy of Eq. 2.
    pub fn weighted_accuracy(&self, accuracies: &[f64]) -> f64 {
        self.combiner.combine(accuracies)
    }

    /// Hardware metrics of a set of architectures on an accelerator
    /// (mapping/scheduling path): build the cost table, solve the HAP under
    /// the latency spec and combine with the accelerator area.
    pub fn hardware_metrics(
        &self,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> HardwareMetrics {
        if !accelerator.has_capacity() {
            return HardwareMetrics::infeasible();
        }
        let costs = {
            let _span = crate::metrics::maybe_time(crate::metrics::eval_cost_model_wall);
            WorkloadCosts::build(&self.cost_model, architectures, accelerator)
        };
        if !costs.is_schedulable() {
            return HardwareMetrics::infeasible();
        }
        let problem = HapProblem::new(costs, self.specs.latency_cycles);
        // The heuristic default stays a direct `solve_heuristic` call so
        // the paper path is trivially bit-identical to the pre-tier code;
        // every other policy dispatches through the tier layer.
        let solution = {
            let _span = crate::metrics::maybe_time(crate::metrics::eval_sched_solve_wall);
            match self.scheduler {
                SchedulerPolicy::Heuristic => solve_heuristic(&problem),
                policy => solve_with_policy(&problem, policy).0,
            }
        };
        HardwareMetrics::new(
            solution.latency_cycles,
            solution.energy_nj,
            self.cost_model.area_um2(accelerator),
        )
    }

    /// Full evaluation of a candidate: both paths plus the spec check.
    pub fn evaluate(&self, candidate: &Candidate) -> Evaluation {
        let accuracies = self.accuracies(&candidate.architectures);
        let metrics = self.hardware_metrics(&candidate.architectures, &candidate.accelerator);
        self.assemble_evaluation(accuracies, metrics)
    }

    /// Assemble an [`Evaluation`] from precomputed accuracy and hardware
    /// results.  This is the single construction point shared with
    /// [`crate::engine::EvalEngine`] and the NASAIC driver's records, so
    /// the cached paths cannot drift from the direct one.
    pub fn assemble_evaluation(
        &self,
        accuracies: Vec<f64>,
        metrics: HardwareMetrics,
    ) -> Evaluation {
        let weighted_accuracy = self.weighted_accuracy(&accuracies);
        let spec_check = self.specs.check(&metrics);
        Evaluation {
            accuracies,
            weighted_accuracy,
            metrics,
            spec_check,
        }
    }

    /// Hardware-only evaluation (the steps of a NASAIC episode whose
    /// architecture switch `S_A` is open): metrics plus spec check, no
    /// accuracy.
    pub fn evaluate_hardware(
        &self,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> (HardwareMetrics, SpecCheck) {
        let metrics = self.hardware_metrics(architectures, accelerator);
        (metrics, self.specs.check(&metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadId;
    use nasaic_accel::{Dataflow, SubAccelerator};
    use nasaic_nn::backbone::Backbone;

    fn small_architectures(workload: &Workload) -> Vec<Architecture> {
        workload
            .tasks
            .iter()
            .map(|t| t.backbone.smallest_architecture())
            .collect()
    }

    fn two_sub_accelerator() -> Accelerator {
        // A moderate design comparable to the paper's NASAIC W1/W3 results
        // (<dla, 1760, 56> + <shi, 1152, 8> in Table II).
        Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 1760, 40),
            SubAccelerator::new(Dataflow::Shidiannao, 1152, 24),
        ])
    }

    #[test]
    fn accuracy_path_matches_surrogate_directly() {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let archs = small_architectures(&workload);
        let accs = evaluator.accuracies(&archs);
        assert_eq!(accs.len(), 2);
        let direct =
            SurrogateModel::paper_calibrated().evaluate(Backbone::ResNet9Cifar10, &archs[0]);
        assert_eq!(accs[0], direct);
        let weighted = evaluator.weighted_accuracy(&accs);
        assert!((weighted - (accs[0] + accs[1]) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn hardware_metrics_are_finite_for_active_designs() {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let metrics =
            evaluator.hardware_metrics(&small_architectures(&workload), &two_sub_accelerator());
        assert!(metrics.is_feasible());
        assert!(metrics.latency_cycles > 0.0);
        assert!(metrics.area_um2 > 1e8);
    }

    #[test]
    fn empty_accelerator_is_infeasible() {
        let workload = Workload::w3();
        let specs = DesignSpecs::for_workload(WorkloadId::W3);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let acc = Accelerator::new(vec![SubAccelerator::inactive(Dataflow::Nvdla)]);
        let metrics = evaluator.hardware_metrics(&small_architectures(&workload), &acc);
        assert!(!metrics.is_feasible());
    }

    #[test]
    fn small_architectures_meet_w1_specs_on_a_balanced_design() {
        // The paper's lower-bound solutions (blue crosses in Fig. 6) always
        // sit inside the spec region; verify the smallest architectures fit
        // W1's specs on a reasonable design.
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let candidate =
            Candidate::from_parts(small_architectures(&workload), two_sub_accelerator());
        let evaluation = evaluator.evaluate(&candidate);
        assert!(
            evaluation.meets_specs(),
            "smallest architectures should satisfy W1 specs, got {}",
            evaluation
        );
    }

    #[test]
    fn largest_architectures_violate_w1_specs_even_with_full_resources() {
        // The paper's key observation (Fig. 1, Table I): the architectures
        // NAS picks for accuracy alone cannot meet the specs no matter how
        // the hardware budget is spent.
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let architectures: Vec<Architecture> = workload
            .tasks
            .iter()
            .map(|t| t.backbone.largest_architecture())
            .collect();
        let full = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
        ]);
        let candidate = Candidate::from_parts(architectures, full);
        let evaluation = evaluator.evaluate(&candidate);
        assert!(
            !evaluation.meets_specs(),
            "largest architectures unexpectedly met the specs: {}",
            evaluation
        );
    }

    #[test]
    fn evaluation_display_is_informative() {
        let workload = Workload::w3();
        let specs = DesignSpecs::for_workload(WorkloadId::W3);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let candidate =
            Candidate::from_parts(small_architectures(&workload), two_sub_accelerator());
        let text = evaluator.evaluate(&candidate).to_string();
        assert!(text.contains("weighted") && text.contains("specs"));
    }

    #[test]
    fn oracle_names() {
        assert_eq!(AccuracyOracle::default().name(), "calibrated-surrogate");
        assert_eq!(
            AccuracyOracle::Proxy(ProxyAccuracyModel::default()).name(),
            "proxy-trainer"
        );
    }
}
