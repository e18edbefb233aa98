//! Regenerates Fig. 6 (NASAIC exploration results on W1/W2/W3) and
//! benchmarks one NASAIC search episode.

use criterion::{criterion_group, criterion_main, Criterion};
use nasaic_bench::{scale_from_env, seed_from_env};
use nasaic_core::experiments::fig6;
use nasaic_core::prelude::*;
use std::hint::black_box;

fn regenerate_and_bench(c: &mut Criterion) {
    let scale = scale_from_env();
    let seed = seed_from_env();
    println!("\n=== Fig. 6 regeneration (scale: {scale}) ===");
    let result = fig6::run(scale, seed);
    println!("{result}");

    // Benchmark: a short W1 co-exploration (4 episodes), the unit of work
    // that the figure repeats hundreds of times.
    let mut scenario = registry::get("w1").expect("w1 is built in");
    scenario.seed = seed;
    scenario.search.episodes = 4;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 4;
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("nasaic_w1_four_episodes", |b| {
        b.iter(|| black_box(scenario.run_outcome().explored.len()))
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
