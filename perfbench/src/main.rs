//! The NASAIC benchmark harness.
//!
//! ```text
//! perfbench --workload <rl-w1|serve-durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload for `--seconds` seconds and
//! prints the end-to-end metrics; with `--trace 1` it makes the traced run
//! instead and prints the per-layer metrics (see `perfbench/README.md`).
//! Every run checks each seeded outcome it produced against a direct
//! untimed run of the same scenario and seed.  The last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; the
//! process exits non-zero when any outcome mismatched or an operation
//! failed.
//!
//! Three internal modes re-execute this binary: `perfbench nasaic <args>`
//! is the `nasaic` CLI itself (the serve workload runs `nasaic serve` that
//! way); `perfbench setup-probe <seed>` measures one set-up of `rl-w1` and
//! `perfbench reference <seed>` makes its direct reference run, each in a
//! fresh process.

mod search;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's named workloads (the `workloads` of `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NASAIC (RL) on builtin `w1` at the paper budget, in process.
    RlW1,
    /// An open-loop mixed job stream against `nasaic serve --state-dir`.
    ServeDurable,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::RlW1, Workload::ServeDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RlW1 => "rl-w1",
            Workload::ServeDurable => "serve-durable",
        }
    }

    fn parse(text: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == text)
    }
}

/// End-to-end metrics (`--trace 0`), in output order: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_wall_s", "s"),
    ("best_weighted_accuracy", "ratio"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in output order: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul_ns", "ns"),
    ("rl.sample_us", "us"),
    ("rl.feedback_us", "us"),
    ("rl.calls", "count"),
    ("rl.share", "ratio"),
    ("accuracy.query_us", "us"),
    ("accuracy.calls", "count"),
    ("cost.build_us", "us"),
    ("cost.calls", "count"),
    ("cost.share", "ratio"),
    ("sched.solve_us", "us"),
    ("sched.calls", "count"),
    ("sched.share", "ratio"),
    ("engine.eval_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("engine.dedup_saved", "count"),
    ("engine.evictions", "count"),
    ("driver.other_share", "ratio"),
    ("checkpoint.build_us", "us"),
    ("checkpoint.write_us", "us"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes_mean", "bytes"),
    ("checkpoint.bytes_total", "bytes"),
    ("value.parse_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.ping_rtt_us", "us"),
    ("serve.rejects", "count"),
    ("serve.engine_hit_ratio", "ratio"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One benchmark run's parameters.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (state dirs, checkpoints), removed at
    /// the end; span files go to its parent.
    pub run_dir: PathBuf,
}

/// Operations attempted and failed; each failure's reason goes to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `Err(reason)` counts (and reports) a failure.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            eprintln!("FAIL: {reason}");
        }
    }
}

/// Metric values keyed by name, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <rl-w1|serve-durable> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> RunArgs {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    RunArgs {
        workload,
        seed,
        seconds,
        trace,
        run_dir,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("nasaic") => return run_nasaic_cli(&args[1..]),
        Some(mode @ ("setup-probe" | "reference")) => {
            let Some(seed) = args.get(1).and_then(|s| s.parse::<u64>().ok()) else {
                usage()
            };
            if mode == "setup-probe" {
                println!("{}", search::setup_once(seed));
            } else if let Err(e) = search::print_reference(seed) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let run = parse_args(&args);
    if let Err(e) = std::fs::create_dir_all(&run.run_dir) {
        eprintln!("error: cannot create {}: {e}", run.run_dir.display());
        std::process::exit(1);
    }
    println!("fingerprint: {}", fingerprint());
    let mut tally = Tally::default();
    let result = match (run.workload, run.trace) {
        (Workload::ServeDurable, false) => serve::measure(&run, &mut tally),
        (Workload::ServeDurable, true) => trace::traced_serve(&run, &mut tally),
        (Workload::RlW1, false) => search::measure(&run, &mut tally),
        (Workload::RlW1, true) => trace::traced_search(&run, &mut tally),
    };
    let _ = std::fs::remove_dir_all(&run.run_dir);
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let declared = if run.trace { PER_LAYER } else { END_TO_END };
    match result_line(&tally, &metrics, declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

/// The final JSON line: every declared metric, each with its unit.
fn result_line(
    tally: &Tally,
    metrics: &Metrics,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    ))
}

/// `perfbench nasaic <args>`: exactly the `nasaic` binary's `main`.
fn run_nasaic_cli(args: &[String]) {
    die_with_parent();
    match nasaic::cli::run_command(args) {
        Ok(output) => println!("{output}"),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(2);
        }
    }
}

/// Ask the kernel to kill this process when its parent dies, so a daemon
/// never outlives a harness that was killed.
fn die_with_parent() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
        }
        const PR_SET_PDEATHSIG: std::os::raw::c_int = 1;
        const SIGKILL: std::os::raw::c_ulong = 9;
        // SAFETY: PR_SET_PDEATHSIG takes one integer signal argument and
        // touches no memory of ours.
        unsafe {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The tail percentile of `n` samples: the highest of p75/p90/p95/p99/p99.9
/// with at least `min(10, n/4)` samples beyond it (p75 when none has).
pub fn tail_percentile(n: usize) -> f64 {
    let needed = (n as f64 / 4.0).min(10.0);
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= needed - 1e-9)
        .unwrap_or(75.0)
}

/// The tail value of `samples`; prints the percentile and sample count.
pub fn tail(label: &str, samples: &[f64]) -> f64 {
    let p = tail_percentile(samples.len());
    let value = percentile(samples, p);
    println!(
        "{label}: tail = p{p} of {} samples ({} beyond it) = {value:.6}",
        samples.len(),
        (samples.len() as f64 * (100.0 - p) / 100.0 + 1e-9).floor()
    );
    value
}

// ---------------------------------------------------------------------------
// Machine and process facts
// ---------------------------------------------------------------------------

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

fn command_output(program: &str, args: &[&str], envs: &[(&str, &str)]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `nproc`, CPU model, rustc version and git commit, as one JSON object.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_output("rustc", &["--version"], &[]).unwrap_or_else(|| "unknown".into());
    // GIT_DIR pins the lookup to this checkout: an exported tree without
    // `.git` must report `unknown`, not the commit of an enclosing repo.
    let commit = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"], &[("GIT_DIR", ".git")])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".into());
    let quote = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        quote(&cpu),
        quote(&rustc),
        quote(&commit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
    }

    #[test]
    fn the_tail_keeps_enough_samples_beyond_it() {
        assert_eq!(tail_percentile(10), 75.0);
        assert_eq!(tail_percentile(50), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
    }
}
