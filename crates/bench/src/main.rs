//! `nasaic-bench`: the identity gates and perf snapshots of the search
//! loop, the evaluator, the HAP scheduler, checkpointing, the daemon and
//! telemetry.
//!
//! ```text
//! nasaic-bench <part> [--quick] [--check] [--label L] [--output P]
//! nasaic-bench lint [dir]
//! nasaic-bench validate-trace <file>
//! ```
//!
//! A part first runs its identity or consistency gates, which exit 1 on
//! any divergence.  Then, unless `--check` is given, it times its workload
//! and appends one entry to its trajectory (default `BENCH_<part>.json` at
//! the workspace root).  `--quick` shrinks the timed workload for CI.
//!
//! One part runs per invocation: `telemetry` toggles the process-wide
//! metrics registry and `serve` switches it on for good (a daemon enables
//! collection for its whole process), so parts run back to back in one
//! process would leak state into each other.

use nasaic_bench::{Command, Part, USAGE};

mod parts {
    pub mod eval;
    pub mod lint;
    pub mod resume;
    pub mod scale;
    pub mod sched;
    pub mod search;
    pub mod serve;
    pub mod telemetry;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = Command::parse(&args).unwrap_or_else(|e| {
        eprintln!("nasaic-bench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match command {
        Command::Lint(dir) => parts::lint::trajectories(&dir),
        Command::ValidateTrace(path) => parts::lint::trace(&path),
        Command::Run(options) => match options.part {
            Part::Search => parts::search::run(&options),
            Part::Eval => parts::eval::run(&options),
            Part::Sched => parts::sched::run(&options),
            Part::Scale => parts::scale::run(&options),
            Part::Resume => parts::resume::run(&options),
            Part::Serve => parts::serve::run(&options),
            Part::Telemetry => parts::telemetry::run(&options),
        },
    }
}
