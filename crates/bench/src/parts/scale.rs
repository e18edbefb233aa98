//! `scale`: generated HAP instances from 10 to 1000 layers, solved through
//! the tiered scheduler.
//!
//! The ladder rungs are generated by `GeneratorSpec::sized` with a fixed
//! seed, so every run solves the same instances (`--quick` runs the first
//! two):
//!
//! | rung (layers) | sub-accelerators | expected tier |
//! |---------------|------------------|---------------|
//! | 10            | 2                | exact         |
//! | 39            | 2                | beam          |
//! | 100           | 4                | beam          |
//! | 300           | 8                | beam          |
//! | 1000          | 16               | heuristic     |
//!
//! The consistency gates:
//!
//! 1. every rung generates without error and is probe-**feasible** at
//!    tightness 1.0 (an over-tight control spec must come back
//!    **diagnosed**, never a panic);
//! 2. the selected tier matches the documented ladder;
//! 3. on the exact-tier rung, unbounded beam search reproduces the exact
//!    optimum energy bit for bit;
//! 4. the tiered solve of every rung is feasible and meets the generated
//!    latency spec.
//!
//! Timing: each rung's generation and solve wall, appended as one `rungs`
//! array to `BENCH_scale.json` (`"bench": "scale_ladder"`).

use nasaic_bench::{fail, gate, round, table, Options};
use nasaic_core::scenario::generate::{Feasibility, GeneratorSpec};
use nasaic_core::scenario::value::ConfigValue::{self, Array, Float, Integer, Str};
use nasaic_sched::{
    solve_beam_unbounded, solve_exact_unseeded, solve_tiered, SchedulerTier, TierDecision,
};
use std::time::Instant;

/// Seed shared by every rung so the ladder is reproducible run to run.
const LADDER_SEED: u64 = 2020;

/// The ladder: requested layer count, sub-accelerator count, expected tier.
const RUNGS: &[(usize, usize, SchedulerTier)] = &[
    (10, 2, SchedulerTier::Exact),
    (39, 2, SchedulerTier::Beam),
    (100, 4, SchedulerTier::Beam),
    (300, 8, SchedulerTier::Beam),
    (1000, 16, SchedulerTier::Heuristic),
];

struct RungResult {
    requested_layers: usize,
    total_layers: usize,
    subs: usize,
    decision: TierDecision,
    feasible_probe: bool,
    gen_wall_ms: f64,
    solve_wall_ms: f64,
    energy_nj: f64,
    latency_cycles: f64,
    latency_spec: f64,
}

fn run_rung(
    requested_layers: usize,
    subs: usize,
    expected_tier: SchedulerTier,
    failures: &mut Vec<String>,
) -> RungResult {
    let spec = GeneratorSpec::sized(requested_layers, subs, LADDER_SEED);
    let gen_start = Instant::now();
    let generated = spec.generate().unwrap_or_else(|e| {
        // Unreachable by construction: a sized spec always generates.
        fail(&format!("rung {requested_layers}: generation failed: {e}"))
    });
    let gen_wall = gen_start.elapsed();
    match &generated.feasibility {
        Feasibility::Feasible { .. } => {}
        Feasibility::Diagnosed(reason) => failures.push(format!(
            "rung {requested_layers}: tightness 1.0 must be feasible, got: {reason}"
        )),
    }

    let problem = generated.hap_problem();
    let solve_start = Instant::now();
    let (solution, decision) = solve_tiered(&problem);
    let solve_wall = solve_start.elapsed();
    if decision.tier != expected_tier {
        failures.push(format!(
            "rung {requested_layers}: expected tier {expected_tier}, got {} ({})",
            decision.tier, decision.reason
        ));
    }
    if !solution.feasible {
        failures.push(format!(
            "rung {requested_layers}: tiered solve infeasible under the generated spec"
        ));
    } else if solution.latency_cycles > problem.latency_constraint {
        failures.push(format!(
            "rung {requested_layers}: makespan {} exceeds the latency spec {}",
            solution.latency_cycles, problem.latency_constraint
        ));
    }

    // Gate 3: the beam middle tier agrees with the exact optimum where
    // the exact solver can still run.
    if expected_tier == SchedulerTier::Exact {
        let exact = solve_exact_unseeded(&problem)
            .expect("exact rung is within EXACT_LAYER_LIMIT by construction");
        let beam = solve_beam_unbounded(&problem);
        if exact.energy_nj.to_bits() != beam.energy_nj.to_bits() {
            failures.push(format!(
                "rung {requested_layers}: unbounded beam energy {} != exact optimum {}",
                beam.energy_nj, exact.energy_nj
            ));
        }
    }

    RungResult {
        requested_layers,
        total_layers: generated.total_layers,
        subs,
        decision,
        feasible_probe: generated.feasibility.is_feasible(),
        gen_wall_ms: gen_wall.as_secs_f64() * 1e3,
        solve_wall_ms: solve_wall.as_secs_f64() * 1e3,
        energy_nj: solution.energy_nj,
        latency_cycles: solution.latency_cycles,
        latency_spec: problem.latency_constraint,
    }
}

/// Over-tight control: the generator must diagnose, never panic.
fn diagnosis_gate(failures: &mut Vec<String>) {
    let mut spec = GeneratorSpec::sized(10, 2, LADDER_SEED);
    spec.constraint_tightness = 8.0;
    match spec.generate() {
        Ok(generated) => {
            if generated.feasibility.is_feasible() {
                failures.push("tightness 8.0 control should be diagnosed, was feasible".into());
            }
        }
        Err(e) => failures.push(format!("tightness 8.0 control failed to generate: {e}")),
    }
}

impl RungResult {
    fn to_value(&self) -> ConfigValue {
        let feasible = if self.feasible_probe {
            "feasible"
        } else {
            "diagnosed"
        };
        table([
            ("requested_layers", Integer(self.requested_layers as i64)),
            ("total_layers", Integer(self.total_layers as i64)),
            ("sub_accelerators", Integer(self.subs as i64)),
            ("tier", Str(self.decision.tier.name().to_string())),
            (
                "beam_width",
                Integer(self.decision.width.unwrap_or(0) as i64),
            ),
            ("feasible", Str(feasible.to_string())),
            ("gen_wall_ms", Float(round(self.gen_wall_ms, 1))),
            ("solve_wall_ms", Float(round(self.solve_wall_ms, 1))),
            ("energy_nj", Float(self.energy_nj)),
            ("latency_cycles", Float(self.latency_cycles)),
            ("latency_spec", Float(self.latency_spec)),
        ])
    }
}

pub fn run(options: &Options) {
    let rungs = if options.quick { &RUNGS[..2] } else { RUNGS };

    println!("== scale ladder (seed {LADDER_SEED}) ==");
    let mut failures = Vec::new();
    let mut results = Vec::with_capacity(rungs.len());
    for &(layers, subs, expected_tier) in rungs {
        let result = run_rung(layers, subs, expected_tier, &mut failures);
        println!(
            "rung {:>5} layers ({} nominal, {:>2} subs): tier {:<9} gen {:>8.1} ms, \
             solve {:>8.1} ms, energy {:.3e} nJ, makespan {:.3e} / spec {:.3e}",
            result.requested_layers,
            result.total_layers,
            result.subs,
            result.decision.tier.name(),
            result.gen_wall_ms,
            result.solve_wall_ms,
            result.energy_nj,
            result.latency_cycles,
            result.latency_spec,
        );
        results.push(result);
    }
    diagnosis_gate(&mut failures);
    gate(
        "every rung feasible-or-diagnosed, tiers match the ladder, \
         unbounded beam reproduces the exact optimum",
        failures,
    );
    if options.check {
        return;
    }

    options.record(vec![
        ("seed", Integer(LADDER_SEED as i64)),
        (
            "rungs",
            Array(results.iter().map(RungResult::to_value).collect()),
        ),
    ]);
}
