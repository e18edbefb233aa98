//! Regenerate every figure and table of the paper's evaluation in one go.
//!
//! ```text
//! cargo run --release --example reproduce_all [quick|benchmark|paper]
//! ```
//!
//! `quick` is smoke-sized, `benchmark` spends more search effort, and
//! `paper` reproduces the paper's full search effort; in a release build on
//! a 2-core Intel Xeon host they take about 0.2, 0.5 and 2 s.  The
//! optimizer ablation is its own example, `ablation_optimizers`.

use nasaic::core::experiments::headline::HeadlineClaims;
use nasaic::core::experiments::{fig1, fig6, table1, table2, ExperimentScale};
use nasaic::core::prelude::*;

fn main() {
    let scale = match std::env::args().nth(1).unwrap_or_default().as_str() {
        "paper" => ExperimentScale::Paper,
        "benchmark" | "bench" => ExperimentScale::Benchmark,
        _ => ExperimentScale::Quick,
    };
    let seed = 2020;
    println!("NASAIC reproduction — regenerating all experiments at {scale} scale\n");

    println!("==================== Fig. 1 ====================");
    let fig1_result = fig1::run(scale, seed);
    print!("{fig1_result}");

    println!("\n==================== Table I ====================");
    let table1_result = table1::run(scale, seed);
    print!("{table1_result}");
    for workload in [WorkloadId::W1, WorkloadId::W2] {
        if let Some(claims) = HeadlineClaims::derive(&table1_result, workload) {
            print!("{claims}");
        }
    }

    println!("\n==================== Table II ====================");
    let table2_result = table2::run(scale, seed);
    print!("{table2_result}");

    println!("\n==================== Fig. 6 ====================");
    let fig6_result = fig6::run(scale, seed);
    print!("{fig6_result}");

    println!("\nDone. Compare against Section V of the paper.");
}
