//! Swapping the accuracy oracle: calibrated surrogate vs proxy training.
//!
//! The paper trains every sampled DNN from scratch on a GPU.  This
//! reproduction uses a calibrated analytical surrogate by default, but the
//! full train/validate code path exists as well: a small MLP trained on a
//! synthetic classification task whose width scales with the sampled
//! architecture.  This example compares the two oracles on a few
//! architectures and runs a short co-exploration with the proxy trainer in
//! the loop.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example proxy_training
//! ```

use nasaic::accuracy::proxy::{ProxyAccuracyModel, ProxyTrainer};
use nasaic::accuracy::{AccuracyModel, SurrogateModel};
use nasaic::core::prelude::*;

fn main() {
    let surrogate = SurrogateModel::paper_calibrated();
    let proxy = ProxyTrainer::fast();

    println!("architecture                         surrogate    proxy (hidden units)");
    for values in [
        vec![8, 32, 0, 32, 0, 32, 0],
        vec![16, 64, 1, 128, 1, 128, 1],
        vec![32, 128, 2, 256, 2, 256, 2],
    ] {
        let arch = Backbone::ResNet9Cifar10.materialize_values(&values);
        let s = surrogate.evaluate(Backbone::ResNet9Cifar10, &arch);
        let report = proxy.train(&arch);
        println!(
            "{:<36} {:>6.2}%      {:>6.2}%  ({})",
            arch.hyperparameter_string(),
            s * 100.0,
            report.validation_accuracy * 100.0,
            report.hidden_size
        );
    }

    // Run a very small co-exploration with the proxy trainer as the
    // evaluator's accuracy oracle.  This exercises the identical search
    // code path the surrogate uses — only the "training and validating"
    // box of Fig. 4 changes.
    println!("\nrunning a short W3 co-exploration with the proxy trainer in the loop...");
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    let hardware = HardwareSpace::paper_default(2);
    let oracle = AccuracyOracle::Proxy(ProxyAccuracyModel::default());
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, oracle));
    let search = Nasaic {
        episodes: 8,
        hardware_trials: 2,
        bound_samples: 5,
        ..Nasaic::fast_demo(5)
    };
    let budget = Budget::new(search.episodes, search.hardware_trials);
    let ctx = SearchContext::new(&workload, specs, &hardware, &engine, search.seed, budget);
    let outcome = search.run(&ctx);
    println!("{outcome}");
    println!(
        "\nNote: the proxy task is synthetic, so its absolute accuracy is not comparable \
         to CIFAR-10 — the point is that the train/validate/reward plumbing is identical."
    );
}
