//! Micro-benchmark of the evaluator hot-path pieces introduced by the
//! zero-alloc rework: blocked matmul vs the naive reference, the proxy
//! MLP's scratch-reusing train step vs the allocating wrapper, and the
//! memoised layer-cost table vs the from-scratch build.
//!
//! Each pair is bit-identical by construction (see the kernel identity
//! suite and the `nasaic-bench eval` gate); this bench tracks the *speed* gap
//! so regressions in either path are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use nasaic_accel::{Accelerator, Dataflow, HardwareSpace, SubAccelerator};
use nasaic_accuracy::proxy::{Mlp, MlpScratch};
use nasaic_cost::{CostModel, LayerCostCache, WorkloadCosts};
use nasaic_nn::backbone::Backbone;
use nasaic_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    // The controller's largest recurring product shape (hidden x hidden).
    let lhs = random_matrix(&mut rng, 64, 64);
    let rhs = random_matrix(&mut rng, 64, 64);
    let mut out = Matrix::zeros(64, 64);
    let mut group = c.benchmark_group("matmul_64x64");
    group.bench_function("naive_reference", |b| {
        b.iter(|| black_box(lhs.matmul_reference(black_box(&rhs))))
    });
    group.bench_function("blocked", |b| {
        b.iter(|| black_box(lhs.matmul(black_box(&rhs))))
    });
    group.bench_function("blocked_into_scratch", |b| {
        b.iter(|| {
            lhs.matmul_into(black_box(&rhs), &mut out);
            black_box(out.as_slice()[0])
        })
    });
    group.finish();
}

fn bench_proxy_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let features: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
    // Both variants start from identical weights so the numeric trajectory
    // (and hence any denormal-induced timing drift) is the same.
    let seed_mlp = Mlp::new(&mut rng, 6, 32, 6, 0.01);
    let mut group = c.benchmark_group("proxy_train_step");
    group.bench_function("allocating", |b| {
        let mut mlp = seed_mlp.clone();
        b.iter(|| black_box(mlp.train_step(black_box(&features), 3)))
    });
    group.bench_function("scratch_reuse", |b| {
        let mut mlp = seed_mlp.clone();
        let mut scratch = MlpScratch::new();
        b.iter(|| black_box(mlp.train_step_with(black_box(&features), 3, &mut scratch)))
    });
    group.finish();
}

fn bench_cost_table(c: &mut Criterion) {
    let model = CostModel::paper_calibrated();
    let architectures = vec![
        Backbone::ResNet9Cifar10.largest_architecture(),
        Backbone::UNetNuclei.largest_architecture(),
    ];
    let accelerator = Accelerator::new(vec![
        SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
        SubAccelerator::new(Dataflow::Shidiannao, 1024, 16),
    ]);
    let mut group = c.benchmark_group("workload_cost_table");
    group.bench_function("build_from_scratch", |b| {
        b.iter(|| black_box(WorkloadCosts::build(&model, &architectures, &accelerator)))
    });
    group.bench_function("memoised_warm", |b| {
        let cache = LayerCostCache::new();
        cache.workload_costs(&model, &architectures, &accelerator);
        b.iter(|| black_box(cache.workload_costs(&model, &architectures, &accelerator)))
    });
    // Revisit pattern: accelerators resampled from a pool, as in a search.
    group.bench_function("memoised_accelerator_pool", |b| {
        let hardware = HardwareSpace::paper_default(2);
        let mut rng = StdRng::seed_from_u64(13);
        let pool: Vec<_> = (0..8).map(|_| hardware.sample(&mut rng)).collect();
        let cache = LayerCostCache::new();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pool.len();
            black_box(cache.workload_costs(&model, &architectures, &pool[i]))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_proxy_train_step,
    bench_cost_table
);
criterion_main!(benches);
