//! Event-driven list scheduler.
//!
//! Turns a layer-to-sub-accelerator assignment into a concrete schedule.
//! Layers of one network form a dependency chain (layer `l` cannot start
//! before layer `l - 1` finished); different networks are independent and
//! compete for sub-accelerators, which execute one layer at a time.  The
//! scheduler greedily dispatches, at every step, the ready layer that can
//! start earliest — a standard list-scheduling policy that matches the
//! paper's `sch(aic_k)` function.
//!
//! Two entry points share one dispatch implementation:
//!
//! * [`simulate`] — one-shot convenience producing a full [`Schedule`];
//! * [`Simulator`] — reusable scratch state for hot loops.  A solver keeps
//!   one `Simulator` alive, calls [`Simulator::prepare`] once per accepted
//!   assignment (which records a dispatch checkpoint at every layer
//!   position), and then evaluates single-layer re-assignments with
//!   [`Simulator::trial_makespan`], which resumes dispatch from the moved
//!   layer's checkpoint instead of replaying the whole workload — no
//!   allocation, and only the suffix of the schedule is re-dispatched.

use crate::problem::{Assignment, HapProblem};
use serde::{Deserialize, Serialize};

/// Scratch sentinel for "no previous sub-accelerator" on a network chain.
const NO_SUB: usize = usize::MAX;

/// One scheduled layer execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledSlot {
    /// Network index within the workload.
    pub network: usize,
    /// Layer index within the network.
    pub layer: usize,
    /// Sub-accelerator executing the layer.
    pub sub: usize,
    /// Start time (cycles).
    pub start: f64,
    /// End time (cycles).
    pub end: f64,
}

/// A complete schedule of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Executed slots in dispatch order.
    pub slots: Vec<ScheduledSlot>,
    /// Completion time of each network.
    pub network_finish: Vec<f64>,
    /// Busy time accumulated on each sub-accelerator.
    pub sub_busy: Vec<f64>,
    /// Makespan of the whole workload (cycles).
    pub makespan: f64,
}

impl Schedule {
    /// `true` when the schedule was fully constructed (no infeasible
    /// mapping was encountered).
    pub fn is_complete(&self) -> bool {
        self.makespan.is_finite()
    }
}

/// Simulate the execution of `assignment` for `problem` and return the
/// resulting schedule.
///
/// If any layer is assigned to a sub-accelerator that cannot execute it
/// (infeasible cost), the returned schedule has an infinite makespan.
///
/// This is the one-shot convenience over [`Simulator`]; callers that
/// simulate the same problem repeatedly should keep a `Simulator` alive
/// instead.
pub fn simulate(problem: &HapProblem, assignment: &Assignment) -> Schedule {
    Simulator::new(problem).schedule(assignment)
}

/// Reusable list-scheduling simulator.
///
/// Holds every dispatch buffer the scheduler needs, sized once for a
/// problem, so repeated simulations — the inner loop of
/// [`solve_heuristic`](crate::solve_heuristic) — allocate nothing.  On top
/// of plain re-simulation it supports **delta evaluation**: after
/// [`prepare`](Self::prepare) records per-layer dispatch checkpoints for a
/// baseline assignment, [`trial_makespan`](Self::trial_makespan) evaluates
/// a single-layer re-assignment by restoring the moved layer's checkpoint
/// and re-dispatching only the suffix of the schedule.  Both paths run the
/// exact same dispatch step, so every result is bit-identical to
/// [`simulate`].
#[derive(Debug, Clone)]
pub struct Simulator {
    num_networks: usize,
    num_subs: usize,
    total_layers: usize,
    layer_counts: Vec<usize>,
    /// Flat checkpoint index of each network's layer 0.
    offsets: Vec<usize>,
    /// Effective latency of every (layer position, sub) pair, flattened to
    /// `position * num_subs + sub`; infeasible mappings hold infinity.
    /// Baked at construction so the dispatch loop is a single load away
    /// from each cost.
    lat: Vec<f64>,
    switch_penalty: f64,
    // Live dispatch scratch.
    next_layer: Vec<usize>,
    network_ready: Vec<f64>,
    network_prev_sub: Vec<usize>,
    sub_free: Vec<f64>,
    sub_busy: Vec<f64>,
    network_finish: Vec<f64>,
    dispatched: usize,
    // Per-layer-position checkpoints (allocated on the first `prepare`).
    // Checkpoint `offsets[n] + l` is the dispatch state at the moment layer
    // `l` became the head of network `n` — the last point of the baseline
    // dispatch that is provably independent of `assignment[n][l]`.
    ck_ready: bool,
    ck_dispatched: Vec<usize>,
    ck_next_layer: Vec<usize>,
    ck_network_ready: Vec<f64>,
    ck_prev_sub: Vec<usize>,
    ck_sub_free: Vec<f64>,
    ck_network_finish: Vec<f64>,
}

impl Simulator {
    /// A simulator bound to `problem`: shape (layer counts,
    /// sub-accelerator count), per-mapping latencies and the switch
    /// penalty are snapshotted at construction, so every later call
    /// dispatches from flat arrays without touching the cost table.
    pub fn new(problem: &HapProblem) -> Self {
        let num_networks = problem.num_networks();
        let num_subs = problem.num_subs();
        let layer_counts: Vec<usize> = problem
            .costs
            .networks
            .iter()
            .map(|n| n.layers.len())
            .collect();
        let mut offsets = Vec::with_capacity(num_networks);
        let mut total_layers = 0;
        for &count in &layer_counts {
            offsets.push(total_layers);
            total_layers += count;
        }
        let mut lat = Vec::with_capacity(total_layers * num_subs);
        for network in &problem.costs.networks {
            for row in &network.layers {
                for cost in &row.per_sub {
                    lat.push(if cost.is_feasible() {
                        cost.latency_cycles
                    } else {
                        f64::INFINITY
                    });
                }
            }
        }
        Self {
            num_networks,
            num_subs,
            total_layers,
            layer_counts,
            offsets,
            lat,
            switch_penalty: problem.switch_penalty_cycles,
            next_layer: vec![0; num_networks],
            network_ready: vec![0.0; num_networks],
            network_prev_sub: vec![NO_SUB; num_networks],
            sub_free: vec![0.0; num_subs],
            sub_busy: vec![0.0; num_subs],
            network_finish: vec![0.0; num_networks],
            dispatched: 0,
            ck_ready: false,
            ck_dispatched: Vec::new(),
            ck_next_layer: Vec::new(),
            ck_network_ready: Vec::new(),
            ck_prev_sub: Vec::new(),
            ck_sub_free: Vec::new(),
            ck_network_finish: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.next_layer.fill(0);
        self.network_ready.fill(0.0);
        self.network_prev_sub.fill(NO_SUB);
        self.sub_free.fill(0.0);
        self.sub_busy.fill(0.0);
        self.network_finish.fill(0.0);
        self.dispatched = 0;
    }

    fn makespan_now(&self) -> f64 {
        self.network_finish.iter().cloned().fold(0.0f64, f64::max)
    }

    /// Dispatch the ready layer with the earliest possible start time.
    /// Returns `None` when that layer's mapping is infeasible.
    #[inline]
    fn dispatch_step(&mut self, assignment: &Assignment) -> Option<ScheduledSlot> {
        let mut best: Option<(usize, f64)> = None;
        for n in 0..self.num_networks {
            let l = self.next_layer[n];
            if l >= self.layer_counts[n] {
                continue;
            }
            let sub = assignment.sub_for(n, l);
            let mut ready = self.network_ready[n];
            let prev = self.network_prev_sub[n];
            if prev != NO_SUB && prev != sub {
                ready += self.switch_penalty;
            }
            let start = ready.max(self.sub_free[sub]);
            match best {
                Some((_, best_start)) if best_start <= start => {}
                _ => best = Some((n, start)),
            }
        }
        let (n, start) = best.expect("at least one network has a pending layer");
        let l = self.next_layer[n];
        let sub = assignment.sub_for(n, l);
        let latency = self.lat[(self.offsets[n] + l) * self.num_subs + sub];
        if !latency.is_finite() {
            return None;
        }
        let end = start + latency;
        self.sub_busy[sub] += latency;
        self.sub_free[sub] = end;
        self.network_ready[n] = end;
        self.network_prev_sub[n] = sub;
        self.network_finish[n] = end;
        self.next_layer[n] += 1;
        self.dispatched += 1;
        Some(ScheduledSlot {
            network: n,
            layer: l,
            sub,
            start,
            end,
        })
    }

    /// Makespan of `assignment` (no slot recording, no allocation).
    /// Returns infinity when some layer's mapping is infeasible.
    pub fn makespan(&mut self, assignment: &Assignment) -> f64 {
        self.reset();
        for _ in 0..self.total_layers {
            if self.dispatch_step(assignment).is_none() {
                return f64::INFINITY;
            }
        }
        self.makespan_now()
    }

    /// Full schedule of `assignment`, identical to [`simulate`].
    pub fn schedule(&mut self, assignment: &Assignment) -> Schedule {
        self.reset();
        let mut slots = Vec::with_capacity(self.total_layers);
        for _ in 0..self.total_layers {
            match self.dispatch_step(assignment) {
                Some(slot) => slots.push(slot),
                None => {
                    return Schedule {
                        slots,
                        network_finish: self.network_finish.clone(),
                        sub_busy: self.sub_busy.clone(),
                        makespan: f64::INFINITY,
                    }
                }
            }
        }
        Schedule {
            slots,
            network_finish: self.network_finish.clone(),
            sub_busy: self.sub_busy.clone(),
            makespan: self.makespan_now(),
        }
    }

    fn ensure_checkpoint_storage(&mut self) {
        let nets = self.total_layers * self.num_networks;
        let subs = self.total_layers * self.num_subs;
        if self.ck_next_layer.len() != nets {
            self.ck_dispatched = vec![0; self.total_layers];
            self.ck_next_layer = vec![0; nets];
            self.ck_network_ready = vec![0.0; nets];
            self.ck_prev_sub = vec![NO_SUB; nets];
            self.ck_network_finish = vec![0.0; nets];
            self.ck_sub_free = vec![0.0; subs];
        }
    }

    fn store_checkpoint(&mut self, position: usize) {
        let (n0, n1) = (
            position * self.num_networks,
            (position + 1) * self.num_networks,
        );
        let (s0, s1) = (position * self.num_subs, (position + 1) * self.num_subs);
        self.ck_dispatched[position] = self.dispatched;
        self.ck_next_layer[n0..n1].copy_from_slice(&self.next_layer);
        self.ck_network_ready[n0..n1].copy_from_slice(&self.network_ready);
        self.ck_prev_sub[n0..n1].copy_from_slice(&self.network_prev_sub);
        self.ck_network_finish[n0..n1].copy_from_slice(&self.network_finish);
        self.ck_sub_free[s0..s1].copy_from_slice(&self.sub_free);
    }

    fn restore_checkpoint(&mut self, position: usize) {
        let (n0, n1) = (
            position * self.num_networks,
            (position + 1) * self.num_networks,
        );
        let (s0, s1) = (position * self.num_subs, (position + 1) * self.num_subs);
        self.dispatched = self.ck_dispatched[position];
        self.next_layer.copy_from_slice(&self.ck_next_layer[n0..n1]);
        self.network_ready
            .copy_from_slice(&self.ck_network_ready[n0..n1]);
        self.network_prev_sub
            .copy_from_slice(&self.ck_prev_sub[n0..n1]);
        self.network_finish
            .copy_from_slice(&self.ck_network_finish[n0..n1]);
        self.sub_free.copy_from_slice(&self.ck_sub_free[s0..s1]);
    }

    /// Dispatch `assignment` fully while recording a checkpoint at every
    /// layer position, enabling [`trial_makespan`](Self::trial_makespan)
    /// for single-layer deviations from this baseline.  Returns the
    /// baseline makespan (infinity — and no usable checkpoints — when some
    /// mapping is infeasible).
    pub fn prepare(&mut self, assignment: &Assignment) -> f64 {
        self.ensure_checkpoint_storage();
        self.reset();
        self.ck_ready = false;
        // Every network's first layer is head from the very start.
        for n in 0..self.num_networks {
            if self.layer_counts[n] > 0 {
                let position = self.offsets[n];
                self.store_checkpoint(position);
            }
        }
        for _ in 0..self.total_layers {
            match self.dispatch_step(assignment) {
                Some(slot) => {
                    // Layer `slot.layer + 1` just became network head: the
                    // dispatch state up to here cannot depend on its
                    // assignment, so it is a valid resume point.
                    if slot.layer + 1 < self.layer_counts[slot.network] {
                        let position = self.offsets[slot.network] + slot.layer + 1;
                        self.store_checkpoint(position);
                    }
                }
                None => return f64::INFINITY,
            }
        }
        self.ck_ready = true;
        self.makespan_now()
    }

    /// Makespan of the prepared baseline with layer `(network, layer)`
    /// re-assigned (the caller mutates the [`Assignment`] before the call
    /// and undoes it after — set-and-undo, no clone).  Dispatch resumes
    /// from the moved layer's checkpoint; `cap` short-circuits the replay
    /// to infinity as soon as any layer finishes after `cap` cycles (sound
    /// because the makespan is the maximum finish time).
    ///
    /// # Panics
    ///
    /// Panics if [`prepare`](Self::prepare) has not completed on this
    /// problem, or if the position is out of range.
    pub fn trial_makespan(
        &mut self,
        assignment: &Assignment,
        network: usize,
        layer: usize,
        cap: f64,
    ) -> f64 {
        assert!(
            self.ck_ready,
            "Simulator::prepare must succeed before trial_makespan"
        );
        let position = self.offsets[network] + layer;
        self.restore_checkpoint(position);
        if nasaic_telemetry::enabled() {
            // How much of the workload the checkpoint actually saved: the
            // replayed suffix length, in layers (see docs/observability.md).
            use std::sync::{Arc, OnceLock};
            static REPLAY: OnceLock<Arc<nasaic_telemetry::Histogram>> = OnceLock::new();
            REPLAY
                .get_or_init(|| {
                    nasaic_telemetry::global().histogram("nasaic_sched_trial_replay_layers", &[])
                })
                .record((self.total_layers - self.dispatched) as u64);
        }
        for _ in self.dispatched..self.total_layers {
            match self.dispatch_step(assignment) {
                Some(slot) => {
                    if slot.end > cap {
                        return f64::INFINITY;
                    }
                }
                None => return f64::INFINITY,
            }
        }
        self.makespan_now()
    }

    /// Accept a trial: `assignment` (already mutated at `(network,
    /// layer)`) becomes the new baseline.  Replays from the moved layer's
    /// checkpoint like [`trial_makespan`](Self::trial_makespan), but
    /// re-records the checkpoints of every layer that becomes a network
    /// head during the replayed suffix — all earlier checkpoints belong to
    /// the unchanged dispatch prefix and stay valid — so accepting a move
    /// costs one suffix re-dispatch instead of a full
    /// [`prepare`](Self::prepare).  Returns the new baseline makespan.
    ///
    /// # Panics
    ///
    /// Panics if [`prepare`](Self::prepare) has not completed on this
    /// problem, or if the position is out of range.
    pub fn commit_trial(&mut self, assignment: &Assignment, network: usize, layer: usize) -> f64 {
        assert!(
            self.ck_ready,
            "Simulator::prepare must succeed before commit_trial"
        );
        let position = self.offsets[network] + layer;
        self.restore_checkpoint(position);
        for _ in self.dispatched..self.total_layers {
            match self.dispatch_step(assignment) {
                Some(slot) => {
                    if slot.layer + 1 < self.layer_counts[slot.network] {
                        let successor = self.offsets[slot.network] + slot.layer + 1;
                        self.store_checkpoint(successor);
                    }
                }
                None => {
                    self.ck_ready = false;
                    return f64::INFINITY;
                }
            }
        }
        self.makespan_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
    use nasaic_cost::{CostModel, WorkloadCosts};
    use nasaic_nn::backbone::Backbone;

    fn problem_two_networks() -> HapProblem {
        let model = CostModel::paper_calibrated();
        let archs = vec![
            Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0]),
            Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 1, 64, 1, 64, 1]),
        ];
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
        ]);
        let costs = WorkloadCosts::build(&model, &archs, &acc);
        HapProblem::new(costs, 1e9)
    }

    #[test]
    fn schedule_executes_every_layer_exactly_once() {
        let problem = problem_two_networks();
        let assignment = Assignment::uniform(&problem.costs, 0);
        let schedule = simulate(&problem, &assignment);
        assert_eq!(schedule.slots.len(), problem.costs.total_layers());
        assert!(schedule.is_complete());
    }

    #[test]
    fn chain_dependencies_are_respected() {
        let problem = problem_two_networks();
        let assignment = Assignment::uniform(&problem.costs, 0);
        let schedule = simulate(&problem, &assignment);
        for n in 0..problem.num_networks() {
            let mut last_end = 0.0;
            for slot in schedule.slots.iter().filter(|s| s.network == n) {
                assert!(
                    slot.start + 1e-9 >= last_end,
                    "layer started before its predecessor finished"
                );
                last_end = slot.end;
            }
        }
    }

    #[test]
    fn sub_accelerator_never_runs_two_layers_at_once() {
        let problem = problem_two_networks();
        // Alternate layers between subs to force contention.
        let assignment = Assignment::new(
            problem
                .costs
                .networks
                .iter()
                .map(|n| (0..n.layers.len()).map(|l| l % 2).collect())
                .collect(),
        );
        let schedule = simulate(&problem, &assignment);
        for sub in 0..problem.num_subs() {
            let mut intervals: Vec<(f64, f64)> = schedule
                .slots
                .iter()
                .filter(|s| s.sub == sub)
                .map(|s| (s.start, s.end))
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                assert!(
                    w[1].0 + 1e-9 >= w[0].1,
                    "overlapping execution on sub {sub}"
                );
            }
        }
    }

    #[test]
    fn parallel_networks_on_separate_subs_overlap() {
        // Two identical sub-accelerators so the comparison isolates
        // task-level parallelism from dataflow affinity.
        let model = CostModel::paper_calibrated();
        let archs = vec![
            Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0]),
            Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 1, 64, 1, 64, 1]),
        ];
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
        ]);
        let costs = WorkloadCosts::build(&model, &archs, &acc);
        let problem = HapProblem::new(costs, 1e9);
        // Network 0 on sub 0, network 1 on sub 1: task-level parallelism.
        let parallel = Assignment::new(vec![
            vec![0; problem.costs.networks[0].layers.len()],
            vec![1; problem.costs.networks[1].layers.len()],
        ]);
        let serial = Assignment::uniform(&problem.costs, 0);
        let par_schedule = simulate(&problem, &parallel);
        let ser_schedule = simulate(&problem, &serial);
        assert!(par_schedule.makespan < ser_schedule.makespan);
        // Makespan with parallel execution equals the slower network.
        let expected = par_schedule
            .network_finish
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!((par_schedule.makespan - expected).abs() < 1e-6);
    }

    #[test]
    fn switch_penalty_increases_makespan() {
        let problem = problem_two_networks();
        let alternating = Assignment::new(
            problem
                .costs
                .networks
                .iter()
                .map(|n| (0..n.layers.len()).map(|l| l % 2).collect())
                .collect(),
        );
        let base = simulate(&problem, &alternating).makespan;
        let penalised =
            simulate(&problem.clone().with_switch_penalty(10_000.0), &alternating).makespan;
        assert!(penalised > base);
    }

    #[test]
    fn infeasible_assignment_yields_infinite_makespan() {
        let model = CostModel::paper_calibrated();
        let archs = vec![Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0])];
        let acc = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::inactive(Dataflow::Shidiannao),
        ]);
        let costs = WorkloadCosts::build(&model, &archs, &acc);
        let problem = HapProblem::new(costs, 1e9);
        let assignment = Assignment::uniform(&problem.costs, 1);
        let schedule = simulate(&problem, &assignment);
        assert!(!schedule.is_complete());
    }

    #[test]
    fn utilization_is_bounded_by_one() {
        let problem = problem_two_networks();
        let assignment = Assignment::uniform(&problem.costs, 0);
        let schedule = simulate(&problem, &assignment);
        // Utilisation is busy time over makespan.
        assert!(schedule.sub_busy[0] > 0.0);
        assert!(schedule.sub_busy[0] <= schedule.makespan * (1.0 + 1e-9));
        assert_eq!(schedule.sub_busy[1], 0.0);
    }
}
