//! `eval`: the evaluator hot path against its retained naive references.
//!
//! The identity gates compare, bit for bit:
//!
//! 1. the blocked/unrolled matmul kernel against the naive i-k-j
//!    reference (`Matrix::matmul_reference`);
//! 2. the memoised calibration-curve table against a fresh fit;
//! 3. the engine's cached hardware path (`EvalEngine::hardware_metrics`)
//!    against the evaluator's direct `Evaluator::hardware_metrics`;
//! 4. the engine's de-duplicated batch path against slot-by-slot direct
//!    evaluation.
//!
//! Cost tables have no optimised path to gate: every hardware evaluation
//! builds its table with `WorkloadCosts::build`.
//!
//! Timing: a duplicate-bearing W1 episode stream (the shape the NASAIC
//! controller actually produces) replayed through the naive path and
//! through the optimised engine, appended to `BENCH_eval.json`
//! (`"bench": "eval_hotpath"`).  The two sides alternate over 7 reps, and
//! `naive_wall_ms` and `wall_ms` record each side's fastest rep.  Every
//! optimised rep runs on a fresh single-threaded engine (`threads: 1`, as
//! perfbench's `rl-w1` runs), so it starts with cold caches and spawns no
//! threads per batch.  The part **fails (exit 1) when the optimised path is
//! not at least 2x faster per candidate**, so the perf floor is gated as
//! well as correctness.  `--quick` shrinks the stream; the gates always run
//! in full.

use nasaic_accel::HardwareSpace;
use nasaic_accuracy::calibration;
use nasaic_bench::{fail, gate, round, Options};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::ConfigValue::{Float, Integer, Str};
use nasaic_nn::backbone::Backbone;
use nasaic_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Alternating reps per side of the timed replay.
const TIMED_REPS: usize = 7;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            // Exact zeros (of both signs) exercise the signed-zero corners
            // the kernels were audited for.
            if rng.gen_bool(0.15) {
                0.0
            } else if rng.gen_bool(0.05) {
                -0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Gate 1: the blocked matmul kernel vs the naive i-k-j reference, across
/// shapes that straddle the k-block size and the unroll width.
fn kernel_failures() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0xeba1);
    let mut failures = Vec::new();
    for &(m, p, n) in &[
        (1, 1, 1),
        (3, 31, 5),
        (4, 32, 4),
        (5, 33, 3),
        (2, 70, 7),
        (8, 64, 1),
        (0, 5, 4),
        (4, 0, 4),
    ] {
        let lhs = random_matrix(&mut rng, m, p);
        let rhs = random_matrix(&mut rng, p, n);
        if !bits_equal(&lhs.matmul(&rhs), &lhs.matmul_reference(&rhs)) {
            failures.push(format!("matmul diverged from reference at {m}x{p}x{n}"));
        }
    }
    failures
}

/// Gate 2: the memoised calibration-curve table vs a fresh fit.
fn curve_failures() -> Vec<String> {
    let mut failures = Vec::new();
    for backbone in Backbone::all() {
        let memoised = calibration::curve_for(backbone);
        let fresh = calibration::curve_for_reference(backbone);
        let same = memoised.q_base.to_bits() == fresh.q_base.to_bits()
            && memoised.q_max.to_bits() == fresh.q_max.to_bits()
            && memoised.f_min.to_bits() == fresh.f_min.to_bits()
            && memoised.alpha.to_bits() == fresh.alpha.to_bits()
            && memoised.noise_amplitude.to_bits() == fresh.noise_amplitude.to_bits();
        if !same {
            failures.push(format!("memoised curve diverged for {backbone:?}"));
        }
    }
    failures
}

/// Gates 3 and 4: the engine's cached hardware path and its de-duplicated
/// batch path vs the evaluator's direct equivalents.
fn evaluator_failures(evaluator: &Evaluator, stream: &[Vec<Candidate>]) -> Vec<String> {
    let mut failures = Vec::new();
    // Separate engines, so the batch gate starts cold and exercises its
    // miss path.
    let (hardware_engine, engine) = (
        EvalEngine::new(evaluator.clone()),
        EvalEngine::new(evaluator.clone()),
    );
    for episode in stream.iter().take(6) {
        for candidate in episode {
            let (architectures, accelerator) = (&candidate.architectures, &candidate.accelerator);
            let direct = evaluator.hardware_metrics(architectures, accelerator);
            // Cold (a miss the first time a design is seen) and warm (a hit).
            for pass in ["cold", "warm"] {
                let cached = hardware_engine.hardware_metrics(architectures, accelerator);
                let same = cached.latency_cycles.to_bits() == direct.latency_cycles.to_bits()
                    && cached.energy_nj.to_bits() == direct.energy_nj.to_bits()
                    && cached.area_um2.to_bits() == direct.area_um2.to_bits();
                if !same {
                    failures.push(format!(
                        "{pass} cached hardware metrics diverged from direct"
                    ));
                }
            }
        }
        let batched = engine.evaluate_batch(episode);
        let direct: Vec<_> = episode.iter().map(|c| evaluator.evaluate(c)).collect();
        if batched != direct {
            failures.push("de-duplicated batch diverged from direct evaluation".to_string());
        }
    }
    failures
}

/// A duplicate-bearing episode stream: `1 + phi` candidates per episode
/// drawn from small pools, so designs repeat within and across episodes
/// the way a converging controller's samples do.
fn episode_stream(
    workload: &Workload,
    episodes: usize,
    phi: usize,
    arch_pool_size: usize,
    accel_pool_size: usize,
) -> Vec<Vec<Candidate>> {
    let hardware = HardwareSpace::paper_default(2);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let arch_pool: Vec<Vec<_>> = (0..arch_pool_size)
        .map(|_| {
            workload
                .tasks
                .iter()
                .map(|t| {
                    let space = t.backbone.search_space();
                    t.backbone
                        .materialize(&space.sample(&mut rng))
                        .expect("valid sample")
                })
                .collect()
        })
        .collect();
    let accel_pool: Vec<_> = (0..accel_pool_size)
        .map(|_| hardware.sample(&mut rng))
        .collect();
    (0..episodes)
        .map(|_| {
            let archs = &arch_pool[rng.gen_range(0..arch_pool.len())];
            (0..=phi)
                .map(|_| {
                    let accel = accel_pool[rng.gen_range(0..accel_pool.len())].clone();
                    Candidate::from_parts(archs.clone(), accel)
                })
                .collect()
        })
        .collect()
}

/// The naive path: per candidate, the evaluator's direct accuracy and
/// hardware paths, no caching, no batching.
fn run_naive(evaluator: &Evaluator, stream: &[Vec<Candidate>]) -> f64 {
    let mut acc = 0.0;
    for episode in stream {
        for candidate in episode {
            let accuracies = evaluator.accuracies(&candidate.architectures);
            let metrics =
                evaluator.hardware_metrics(&candidate.architectures, &candidate.accelerator);
            acc += evaluator
                .assemble_evaluation(accuracies, metrics)
                .weighted_accuracy;
        }
    }
    acc
}

fn run_engine(engine: &EvalEngine, stream: &[Vec<Candidate>]) -> f64 {
    let mut acc = 0.0;
    for episode in stream {
        for evaluation in engine.evaluate_batch(episode) {
            acc += evaluation.weighted_accuracy;
        }
    }
    acc
}

pub fn run(options: &Options) {
    let workload = Workload::w1();
    let specs = DesignSpecs::for_workload(WorkloadId::W1);
    let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
    let (episodes, phi, arch_pool, accel_pool) = if options.quick {
        (12, 5, 2, 6)
    } else {
        (40, 5, 4, 8)
    };
    let stream = episode_stream(&workload, episodes, phi, arch_pool, accel_pool);

    println!("== identity gates ==");
    let mut failures = kernel_failures();
    failures.extend(curve_failures());
    failures.extend(evaluator_failures(&evaluator, &stream));
    gate(
        "optimised kernels, curves, caches and batch dedup\n    \
         are bit-identical to their retained naive references",
        failures,
    );
    if options.check {
        return;
    }

    let evaluations: usize = stream.iter().map(Vec::len).sum();
    println!(
        "== per-candidate measurement (w1, {episodes} episodes x (1 + {phi}) designs, \
         {evaluations} evaluations, fastest of {TIMED_REPS} reps per side) =="
    );
    // One pass per side lasts a few milliseconds, so a single pass reads
    // whatever else the host was doing; the fastest of several does not.
    let (mut naive_wall, mut engine_wall) = (Duration::MAX, Duration::MAX);
    let mut stats = CacheStats::default();
    for _ in 0..TIMED_REPS {
        let start = Instant::now();
        let naive_sum = run_naive(&evaluator, &stream);
        naive_wall = naive_wall.min(start.elapsed());
        let engine = EvalEngine::with_config(
            evaluator.clone(),
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        );
        let start = Instant::now();
        let engine_sum = run_engine(&engine, &stream);
        engine_wall = engine_wall.min(start.elapsed());
        assert_eq!(naive_sum, engine_sum, "optimised path diverged from naive");
        stats = engine.stats();
    }
    let naive_ns = naive_wall.as_nanos() as f64 / evaluations as f64;
    let engine_ns = engine_wall.as_nanos() as f64 / evaluations as f64;
    let speedup = naive_ns / engine_ns.max(1e-9);
    println!(
        "naive:     {:.1} ms total, {:.0} ns/eval",
        naive_wall.as_secs_f64() * 1e3,
        naive_ns
    );
    println!(
        "optimised: {:.1} ms total, {:.0} ns/eval  (speedup {speedup:.1}x, \
         hit rate {:.1}%: accuracy {:.1}%, hardware {:.1}%)",
        engine_wall.as_secs_f64() * 1e3,
        engine_ns,
        stats.hit_rate() * 100.0,
        stats.accuracy_hit_rate() * 100.0,
        stats.hardware_hit_rate() * 100.0,
    );
    if speedup < 2.0 {
        fail(&format!(
            "optimised path is only {speedup:.2}x faster (floor: 2x)"
        ));
    }

    options.record(vec![
        ("scenario", Str("w1".to_string())),
        ("episodes", Integer(episodes as i64)),
        ("evaluations", Integer(evaluations as i64)),
        (
            "naive_wall_ms",
            Float(round(naive_wall.as_secs_f64() * 1e3, 1)),
        ),
        ("wall_ms", Float(round(engine_wall.as_secs_f64() * 1e3, 1))),
        ("naive_ns_per_eval", Float(naive_ns.round())),
        ("ns_per_eval", Float(engine_ns.round())),
        ("speedup", Float(round(speedup, 2))),
        ("cache_hit_rate", Float(round(stats.hit_rate(), 4))),
        (
            "accuracy_hit_rate",
            Float(round(stats.accuracy_hit_rate(), 4)),
        ),
        (
            "hardware_hit_rate",
            Float(round(stats.hardware_hit_rate(), 4)),
        ),
    ]);
}
