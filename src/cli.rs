//! The `nasaic` command-line runner: scenarios from the registry or from
//! TOML/JSON config files, executed through the shared evaluation engine.
//!
//! The parsing and execution live in this library module (the
//! `src/bin/nasaic.rs` binary is a three-line wrapper) so the whole CLI is
//! exercisable from integration tests without spawning processes.
//!
//! ```text
//! nasaic run --scenario <name|path> [--budget-episodes N] [--seed N]
//!            [--algorithm NAME] [--format text|json|csv] [--output FILE]
//!            [--trace FILE] [--progress]
//!            [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//!            [--shards N --shard-index I --shard-out FILE]
//! nasaic merge --scenario <name|path> [--algorithm NAME]
//!              --partials a.json,b.json,... [--format text|json|csv]
//! nasaic compare --scenario <name|path> [--algorithms a,b,c] [...]
//! nasaic list-scenarios [--format text|json]
//! nasaic show --scenario <name|path> [--format toml|json]
//! nasaic serve [--addr HOST:PORT] [--state-dir DIR] [--workers N] [...]
//! nasaic client --request <name> [--addr HOST:PORT] [--scenario ...] [--watch]
//! ```
//!
//! `--trace FILE` streams every search event (episodes, incumbents, phase
//! boundaries, the final cache summary) as JSON lines; `--progress` (also
//! implied by `--trace`) prints a human-readable progress line to stderr
//! on each improvement.
//!
//! `--checkpoint FILE` snapshots the live search state every
//! `--checkpoint-every N` progress units into two files: the explored
//! records are appended to `FILE.journal` and a small head replaces
//! `FILE` (written as `FILE.tmp`, then renamed to `FILE` once the old
//! head is removed); `--resume FILE` continues an interrupted run from
//! the pair — reading `FILE.tmp` when a kill left no `FILE` —
//! bit-identically to the uninterrupted run.  `--shards N --shard-index I` runs the `I`-th
//! shard of a deterministic `N`-way split and writes a partial result to
//! `--shard-out FILE`; `nasaic merge --partials ...` folds the partials
//! into the exact single-process report.

use nasaic_core::algorithm::{MulticastObserver, ProgressObserver, TraceObserver};
use nasaic_core::checkpoint::{
    CheckpointSink, FileCheckpointSink, NullCheckpointSink, SearchCheckpoint, ShardPartial,
};
use nasaic_core::experiments::compare;
use nasaic_core::scenario::generate::GeneratorSpec;
use nasaic_core::scenario::report::RunReport;
use nasaic_core::scenario::value::{self, ConfigValue};
use nasaic_core::scenario::{registry, Algorithm, ConfigError, Scenario};
use nasaic_serve::{Client, Daemon, Request, ServeConfig};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// A CLI failure: bad usage or a scenario/config error.  [`fmt::Display`]
/// renders the message shown on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::new(e.to_string())
    }
}

/// Top-level usage text (also the output of `nasaic help`); the built-in
/// list comes from the registry so it never goes stale.
pub fn usage() -> String {
    format!(
        "\
nasaic — neural architecture / ASIC accelerator co-exploration (DAC 2020)

USAGE:
    nasaic <COMMAND> [OPTIONS]

COMMANDS:
    run             Run one scenario's declared search algorithm
    merge           Merge shard partials into the single-process result
    compare         Run several algorithms on one scenario over a shared engine
    list-scenarios  List the built-in scenario registry
    show            Print a scenario's config (authoring starting point)
    gen             Generate a seeded scenario (always feasible or diagnosed)
    profile         Run a scenario and print its wall-time breakdown
    serve           Run the long-lived search daemon (shared warm engines)
    client          Talk to a running daemon (submit/cancel/show/shutdown)
    help            Show this message

OPTIONS:
    --scenario <name|path>   Registry name or path to a .toml/.json config
    --budget-episodes <N>    Override the scenario's episode budget
    --seed <N>               Override the scenario's RNG seed (run/show/gen)
    --algorithm <name>       Override the scenario's algorithm (run/show)
    --algorithms <a,b,..>    Comma-separated algorithm list (compare; default all)
    --networks <N>           Task count of the generated workload (gen)
    --layers <LO..HI|N>      Total nominal layer range (gen; `N` means N-5..N)
    --subs <N>               Sub-accelerator count of the generated pool (gen)
    --tightness <X>          Spec tightness of the generated scenario (gen; default 1.0)
    --format <fmt>           text|json|csv (run/compare), text|json (list),
                             toml|json (show), toml|json|text (gen)
    --output <file>          Write the result there instead of stdout
    --trace <file>           Stream search events as JSON lines (run; implies --progress)
    --progress               Print search progress lines to stderr (run)
    --checkpoint <file>      Snapshot the search state to this file plus an
                             append-only <file>.journal of explored records (run)
    --checkpoint-every <N>   Checkpoint every N progress units (run; default 1).
                             serve: an exact, unsynced cadence instead of
                             the default cost-budgeted, synced one
    --resume <file>          Continue from a checkpoint file and its journal (run)
    --shards <N>             Split the run into N deterministic shards (run)
    --shard-index <I>        Which shard this process runs, 0-based (run)
    --shard-out <file>       Where the shard writes its partial result (run)
    --partials <a,b,..>      Comma-separated shard partial files (merge)
    --min-coverage <X>       Fail `profile` when attributed time covers less
                             than this fraction of the wall (0..1; default: report only)
    --addr <host:port>       Daemon listen/connect address (serve/client;
                             default 127.0.0.1:7764, port 0 = ephemeral)
    --addr-file <file>       Write the actually bound address there (serve)
    --metrics-addr <h:p>     Also expose Prometheus text-format metrics over
                             HTTP there (serve; port 0 = ephemeral)
    --metrics-addr-file <f>  Write the bound metrics address there (serve)
    --state-dir <dir>        Durability root: job journal, checkpoints and
                             persisted caches (serve; default: no persistence)
    --queue-capacity <N>     Max queued jobs before submits are rejected (serve)
    --workers <N>            Concurrently running jobs (serve; default 2)
    --job-threads <N>        Engine threads per job (serve; 0 = all cores)
    --accuracy-capacity <N>  Accuracy-cache bound per engine, entries (serve; 0 = unbounded)
    --hardware-capacity <N>  Hardware-cache bound per engine, entries (serve; 0 = unbounded)
    --request <name>         ping|submit|cancel|show-jobs|show-cache|
                             show-incumbent|show-metrics|shutdown (client)
    --job <N>                Job id for cancel/show-incumbent (client)
    --watch                  Stream incumbent events to stderr and wait for
                             the final report (client --request submit)

Protocol and ops runbook: docs/serve.md.
Scenario schema: docs/scenarios.md.  Built-ins: {}.",
        registry::names().join(" ")
    )
}

/// Output format of `run` / `compare` / `list-scenarios` / `show`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
    Toml,
}

impl Format {
    fn parse(text: &str, allowed: &[Format], ctx: &str) -> Result<Format, CliError> {
        let format = match text.trim().to_ascii_lowercase().as_str() {
            "text" => Format::Text,
            "json" => Format::Json,
            "csv" => Format::Csv,
            "toml" => Format::Toml,
            other => return Err(CliError::new(format!("unknown format `{other}`"))),
        };
        if !allowed.contains(&format) {
            return Err(CliError::new(format!(
                "format `{text}` is not valid for {ctx}"
            )));
        }
        Ok(format)
    }
}

/// Parsed command-line options (shared by all subcommands; each declares
/// the subset that applies via [`Options::ensure_only`]).
#[derive(Debug, Default)]
struct Options {
    scenario: Option<String>,
    budget_episodes: Option<usize>,
    seed: Option<u64>,
    algorithm: Option<String>,
    algorithms: Option<String>,
    networks: Option<usize>,
    layers: Option<String>,
    subs: Option<usize>,
    tightness: Option<f64>,
    format: Option<String>,
    output: Option<String>,
    trace: Option<String>,
    progress: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: Option<String>,
    shards: Option<usize>,
    shard_index: Option<usize>,
    shard_out: Option<String>,
    partials: Option<String>,
    addr: Option<String>,
    addr_file: Option<String>,
    metrics_addr: Option<String>,
    metrics_addr_file: Option<String>,
    min_coverage: Option<f64>,
    state_dir: Option<String>,
    queue_capacity: Option<usize>,
    workers: Option<usize>,
    job_threads: Option<usize>,
    accuracy_capacity: Option<usize>,
    hardware_capacity: Option<usize>,
    request: Option<String>,
    job: Option<u64>,
    watch: bool,
    /// The flag names actually given, for applicability checks.
    provided: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut options = Options::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut take = || {
                iter.next()
                    .cloned()
                    .ok_or_else(|| CliError::new(format!("`{flag}` needs a value")))
            };
            match flag.as_str() {
                "--scenario" => options.scenario = Some(take()?),
                "--budget-episodes" => {
                    let text = take()?;
                    options.budget_episodes = Some(text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--budget-episodes needs a positive integer, got `{text}`"
                        ))
                    })?)
                }
                "--seed" => {
                    let text = take()?;
                    let seed: u64 = text.parse().map_err(|_| {
                        CliError::new(format!("--seed needs a non-negative integer, got `{text}`"))
                    })?;
                    // The config format stores integers as i64, so larger
                    // seeds could not round-trip through `show`/config
                    // files; reject them up front.
                    if seed > i64::MAX as u64 {
                        return Err(CliError::new(format!(
                            "--seed must be at most {} so scenario configs round-trip",
                            i64::MAX
                        )));
                    }
                    options.seed = Some(seed);
                }
                "--algorithm" => options.algorithm = Some(take()?),
                "--algorithms" => options.algorithms = Some(take()?),
                "--networks" => {
                    let text = take()?;
                    options.networks = Some(text.parse().map_err(|_| {
                        CliError::new(format!("--networks needs a positive integer, got `{text}`"))
                    })?)
                }
                "--layers" => options.layers = Some(take()?),
                "--subs" => {
                    let text = take()?;
                    options.subs = Some(text.parse().map_err(|_| {
                        CliError::new(format!("--subs needs a positive integer, got `{text}`"))
                    })?)
                }
                "--tightness" => {
                    let text = take()?;
                    options.tightness = Some(text.parse().map_err(|_| {
                        CliError::new(format!("--tightness needs a number, got `{text}`"))
                    })?)
                }
                "--format" => options.format = Some(take()?),
                "--output" => options.output = Some(take()?),
                "--trace" => options.trace = Some(take()?),
                "--progress" => options.progress = true,
                "--checkpoint" => options.checkpoint = Some(take()?),
                "--checkpoint-every" => {
                    let text = take()?;
                    let every: usize = text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--checkpoint-every needs a positive integer, got `{text}`"
                        ))
                    })?;
                    if every == 0 {
                        return Err(CliError::new("--checkpoint-every must be at least 1"));
                    }
                    options.checkpoint_every = Some(every);
                }
                "--resume" => options.resume = Some(take()?),
                "--shards" => {
                    let text = take()?;
                    let shards: usize = text.parse().map_err(|_| {
                        CliError::new(format!("--shards needs a positive integer, got `{text}`"))
                    })?;
                    if shards == 0 {
                        return Err(CliError::new("--shards must be at least 1"));
                    }
                    options.shards = Some(shards);
                }
                "--shard-index" => {
                    let text = take()?;
                    options.shard_index = Some(text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--shard-index needs a non-negative integer, got `{text}`"
                        ))
                    })?)
                }
                "--shard-out" => options.shard_out = Some(take()?),
                "--partials" => options.partials = Some(take()?),
                "--addr" => options.addr = Some(take()?),
                "--addr-file" => options.addr_file = Some(take()?),
                "--metrics-addr" => options.metrics_addr = Some(take()?),
                "--metrics-addr-file" => options.metrics_addr_file = Some(take()?),
                "--min-coverage" => {
                    let text = take()?;
                    let coverage: f64 = text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--min-coverage needs a fraction in 0..1, got `{text}`"
                        ))
                    })?;
                    if !(0.0..=1.0).contains(&coverage) {
                        return Err(CliError::new(format!(
                            "--min-coverage needs a fraction in 0..1, got `{text}`"
                        )));
                    }
                    options.min_coverage = Some(coverage);
                }
                "--state-dir" => options.state_dir = Some(take()?),
                "--queue-capacity" => {
                    let text = take()?;
                    options.queue_capacity = Some(text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--queue-capacity needs a non-negative integer, got `{text}`"
                        ))
                    })?)
                }
                "--workers" => {
                    let text = take()?;
                    let workers: usize = text.parse().map_err(|_| {
                        CliError::new(format!("--workers needs a positive integer, got `{text}`"))
                    })?;
                    if workers == 0 {
                        return Err(CliError::new("--workers must be at least 1"));
                    }
                    options.workers = Some(workers);
                }
                "--job-threads" => {
                    let text = take()?;
                    options.job_threads = Some(text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--job-threads needs a non-negative integer, got `{text}`"
                        ))
                    })?)
                }
                "--accuracy-capacity" => {
                    let text = take()?;
                    options.accuracy_capacity = Some(text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--accuracy-capacity needs a non-negative integer, got `{text}`"
                        ))
                    })?)
                }
                "--hardware-capacity" => {
                    let text = take()?;
                    options.hardware_capacity = Some(text.parse().map_err(|_| {
                        CliError::new(format!(
                            "--hardware-capacity needs a non-negative integer, got `{text}`"
                        ))
                    })?)
                }
                "--request" => options.request = Some(take()?),
                "--job" => {
                    let text = take()?;
                    options.job = Some(text.parse().map_err(|_| {
                        CliError::new(format!("--job needs a non-negative integer, got `{text}`"))
                    })?)
                }
                "--watch" => options.watch = true,
                other => {
                    return Err(CliError::new(format!(
                        "unknown option `{other}` (see `nasaic help`)"
                    )))
                }
            }
            options.provided.push(flag.clone());
        }
        Ok(options)
    }

    /// Error out on flags the subcommand does not use, instead of silently
    /// ignoring them (e.g. `compare --algorithm` — a typo for
    /// `--algorithms` — must not run all six algorithms).
    fn ensure_only(&self, command: &str, allowed: &[&str]) -> Result<(), CliError> {
        for flag in &self.provided {
            if !allowed.contains(&flag.as_str()) {
                return Err(CliError::new(format!(
                    "`{flag}` does not apply to `nasaic {command}` (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Resolve the scenario reference and apply the override flags.
    fn scenario(&self) -> Result<Scenario, CliError> {
        let reference = self
            .scenario
            .as_deref()
            .ok_or_else(|| CliError::new("missing `--scenario <name|path>`"))?;
        let mut scenario = registry::resolve(reference)?;
        if let Some(episodes) = self.budget_episodes {
            if episodes == 0 {
                return Err(CliError::new("--budget-episodes must be at least 1"));
            }
            scenario.search.episodes = episodes;
        }
        if let Some(seed) = self.seed {
            scenario.seed = seed;
        }
        if let Some(name) = &self.algorithm {
            scenario.search.algorithm = Algorithm::from_str(name)?;
        }
        Ok(scenario)
    }
}

/// Run the CLI on already-split arguments (everything after the program
/// name) and return the output text the binary prints to stdout.
///
/// # Errors
///
/// Returns a [`CliError`] with the message the binary prints to stderr
/// (exit code 2).
pub fn run_command(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = match args.split_first() {
        None => return Ok(usage()),
        Some((first, rest)) => (first.as_str(), rest),
    };
    let options = Options::parse(rest)?;
    let output = match command {
        "run" => cmd_run(&options)?,
        "merge" => cmd_merge(&options)?,
        "compare" => cmd_compare(&options)?,
        "list-scenarios" => cmd_list(&options)?,
        "show" => cmd_show(&options)?,
        "gen" => cmd_gen(&options)?,
        "profile" => cmd_profile(&options)?,
        "serve" => cmd_serve(&options)?,
        "client" => cmd_client(&options)?,
        "help" | "--help" | "-h" => usage(),
        other => {
            return Err(CliError::new(format!(
                "unknown command `{other}` (see `nasaic help`)"
            )))
        }
    };
    match &options.output {
        None => Ok(output),
        Some(path) => {
            std::fs::write(path, format!("{output}\n"))
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {path}"))
        }
    }
}

fn cmd_run(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "run",
        &[
            "--scenario",
            "--budget-episodes",
            "--seed",
            "--algorithm",
            "--format",
            "--output",
            "--trace",
            "--progress",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
            "--shards",
            "--shard-index",
            "--shard-out",
        ],
    )?;
    let scenario = options.scenario()?;
    if options.shards.is_some() || options.shard_index.is_some() || options.shard_out.is_some() {
        return cmd_run_shard(options, &scenario);
    }
    let format = Format::parse(
        options.format.as_deref().unwrap_or("text"),
        &[Format::Text, Format::Json, Format::Csv],
        "run",
    )?;
    let resume = options
        .resume
        .as_deref()
        .map(|path| {
            SearchCheckpoint::load_for_resume(Path::new(path), &scenario.workload())
                .map_err(|e| CliError::new(format!("bad checkpoint {path}: {e}")))
        })
        .transpose()?;
    let file_sink = match (&options.checkpoint, options.checkpoint_every) {
        (Some(path), every) => Some(FileCheckpointSink::new(Path::new(path), every.unwrap_or(1))),
        (None, Some(_)) => {
            return Err(CliError::new(
                "--checkpoint-every needs `--checkpoint <file>`",
            ))
        }
        (None, None) => None,
    };
    let sink: &dyn CheckpointSink = match &file_sink {
        Some(sink) => sink,
        None => &NullCheckpointSink,
    };
    let report =
        if options.trace.is_some() || options.progress || resume.is_some() || file_sink.is_some() {
            let engine = scenario.engine();
            let trace =
                match &options.trace {
                    None => None,
                    Some(path) => Some(TraceObserver::create(Path::new(path)).map_err(|e| {
                        CliError::new(format!("cannot create trace file {path}: {e}"))
                    })?),
                };
            let progress =
                ProgressObserver::new(format!("{} {}", scenario.name, scenario.search.algorithm));
            let mut observers = MulticastObserver::new();
            if let Some(trace) = &trace {
                observers.push(trace);
            }
            if options.trace.is_some() || options.progress {
                observers.push(&progress);
            }
            let report = scenario.run_report_checkpointed(
                scenario.search.algorithm,
                &engine,
                &observers,
                resume.as_ref(),
                sink,
            );
            if let Some(trace) = trace {
                let path = options.trace.as_deref().unwrap_or_default();
                trace
                    .finish()
                    .map_err(|e| CliError::new(format!("cannot write trace file {path}: {e}")))?;
                eprintln!("trace written to {path}");
            }
            report
        } else {
            scenario.run_report()
        };
    if let Some(sink) = &file_sink {
        if let Some(error) = sink.take_error() {
            let path = options.checkpoint.as_deref().unwrap_or_default();
            return Err(CliError::new(format!(
                "cannot write checkpoint {path}: {error}"
            )));
        }
    }
    Ok(match format {
        Format::Text => report.to_string(),
        Format::Json => report.to_json(),
        Format::Csv => format!("{}\n{}", RunReport::CSV_HEADER, report.to_csv_row()),
        Format::Toml => unreachable!("rejected by Format::parse"),
    })
}

/// The `run --shards N --shard-index I` path: run one shard of the
/// deterministic N-way split and write its partial to `--shard-out`.
fn cmd_run_shard(options: &Options, scenario: &Scenario) -> Result<String, CliError> {
    let shards = options
        .shards
        .ok_or_else(|| CliError::new("sharded runs need `--shards <N>`"))?;
    let shard_index = options
        .shard_index
        .ok_or_else(|| CliError::new("sharded runs need `--shard-index <I>`"))?;
    if shard_index >= shards {
        return Err(CliError::new(format!(
            "--shard-index {shard_index} is out of range for {shards} shard(s)"
        )));
    }
    if options.resume.is_some() || options.checkpoint.is_some() {
        return Err(CliError::new(
            "`--shards` does not combine with `--checkpoint`/`--resume` (checkpoint the \
             single-process run, or re-run the cheap shard from scratch)",
        ));
    }
    let out = options
        .shard_out
        .as_deref()
        .ok_or_else(|| CliError::new("sharded runs need `--shard-out <file>`"))?;
    let engine = scenario.engine();
    let algorithm = scenario.search.algorithm;
    let plan = scenario.algorithm_shard_plan(algorithm, &engine, shards);
    let progress = ProgressObserver::new(format!(
        "{} {} shard {shard_index}/{shards}",
        scenario.name, scenario.search.algorithm
    ));
    let partial = if options.progress {
        scenario.run_algorithm_shard(algorithm, &engine, &progress, &plan, shard_index)
    } else {
        let observer = nasaic_core::algorithm::NullObserver;
        scenario.run_algorithm_shard(algorithm, &engine, &observer, &plan, shard_index)
    };
    std::fs::write(out, format!("{}\n", partial.to_json()))
        .map_err(|e| CliError::new(format!("cannot write shard partial {out}: {e}")))?;
    Ok(format!(
        "wrote shard {shard_index}/{shards} partial ({} solution(s)) to {out}",
        partial.solutions.len()
            + partial
                .complete
                .as_ref()
                .map_or(0, |outcome| outcome.explored.len())
    ))
}

/// The `merge` subcommand: fold shard partials back into the exact
/// single-process outcome and report it.
fn cmd_merge(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "merge",
        &[
            "--scenario",
            "--budget-episodes",
            "--seed",
            "--algorithm",
            "--partials",
            "--format",
            "--output",
        ],
    )?;
    let scenario = options.scenario()?;
    let format = Format::parse(
        options.format.as_deref().unwrap_or("text"),
        &[Format::Text, Format::Json, Format::Csv],
        "merge",
    )?;
    let paths: Vec<&str> = options
        .partials
        .as_deref()
        .ok_or_else(|| CliError::new("missing `--partials <a.json,b.json,...>`"))?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if paths.is_empty() {
        return Err(CliError::new("--partials needs at least one file"));
    }
    let workload = scenario.workload();
    let mut partials = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot read shard partial {path}: {e}")))?;
        partials.push(
            ShardPartial::parse_json(&text, &workload)
                .map_err(|e| CliError::new(format!("bad shard partial {path}: {e}")))?,
        );
    }
    let algorithm = scenario.search.algorithm;
    for (path, partial) in paths.iter().zip(&partials) {
        if partial.algorithm != algorithm.name() {
            return Err(CliError::new(format!(
                "shard partial {path} was produced by `{}`, but the scenario declares `{}`",
                partial.algorithm,
                algorithm.name()
            )));
        }
        if partial.shards != partials.len() {
            return Err(CliError::new(format!(
                "shard partial {path} belongs to a {}-shard run, but {} partial(s) were given",
                partial.shards,
                partials.len()
            )));
        }
    }
    let engine = scenario.engine();
    let plan = scenario.algorithm_shard_plan(algorithm, &engine, partials.len());
    let outcome = scenario.merge_algorithm_shards(algorithm, &engine, &plan, partials);
    let report = scenario.report_for_outcome(algorithm, &outcome);
    Ok(match format {
        Format::Text => report.to_string(),
        Format::Json => report.to_json(),
        Format::Csv => format!("{}\n{}", RunReport::CSV_HEADER, report.to_csv_row()),
        Format::Toml => unreachable!("rejected by Format::parse"),
    })
}

fn cmd_compare(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "compare",
        &[
            "--scenario",
            "--budget-episodes",
            "--seed",
            "--algorithms",
            "--format",
            "--output",
        ],
    )?;
    let scenario = options.scenario()?;
    let algorithms: Vec<Algorithm> = match &options.algorithms {
        None => Algorithm::all().to_vec(),
        Some(list) => list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(Algorithm::from_str)
            .collect::<Result<_, _>>()?,
    };
    if algorithms.is_empty() {
        return Err(CliError::new("--algorithms needs at least one name"));
    }
    let format = Format::parse(
        options.format.as_deref().unwrap_or("text"),
        &[Format::Text, Format::Json, Format::Csv],
        "compare",
    )?;
    let comparison = compare::run(&scenario, &algorithms);
    Ok(match format {
        Format::Text => comparison.to_string(),
        Format::Json => comparison.to_json(),
        Format::Csv => comparison.to_csv(),
        Format::Toml => unreachable!("rejected by Format::parse"),
    })
}

fn cmd_list(options: &Options) -> Result<String, CliError> {
    options.ensure_only("list-scenarios", &["--format", "--output"])?;
    let format = Format::parse(
        options.format.as_deref().unwrap_or("text"),
        &[Format::Text, Format::Json],
        "list-scenarios",
    )?;
    let scenarios = registry::all();
    Ok(match format {
        Format::Text => {
            let mut out = String::from("built-in scenarios:\n");
            for scenario in &scenarios {
                out.push_str(&format!(
                    "  {:<18} {}\n      {}\n",
                    scenario.name,
                    scenario.description,
                    scenario.summary()
                ));
            }
            out.push_str("\nrun one with: nasaic run --scenario <name>");
            out
        }
        Format::Json => {
            let mut root = ConfigValue::table();
            root.insert(
                "scenarios",
                ConfigValue::Array(scenarios.iter().map(Scenario::to_value).collect()),
            );
            value::to_json(&root)
        }
        _ => unreachable!("rejected by Format::parse"),
    })
}

fn cmd_show(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "show",
        &[
            "--scenario",
            "--budget-episodes",
            "--seed",
            "--algorithm",
            "--format",
            "--output",
        ],
    )?;
    let scenario = options.scenario()?;
    let format = Format::parse(
        options.format.as_deref().unwrap_or("toml"),
        &[Format::Toml, Format::Json],
        "show",
    )?;
    Ok(match format {
        Format::Toml => scenario.to_toml_string(),
        Format::Json => scenario.to_json_string(),
        _ => unreachable!("rejected by Format::parse"),
    })
}

/// Parse the `--layers` value: `LO..HI` (inclusive) or a single `N`
/// shorthand for `N-5..N` (the slack [`GeneratorSpec::sized`] uses, so
/// every rung is reachable by some backbone combination without ever
/// exceeding the requested count).
fn parse_layer_range(text: &str) -> Result<(usize, usize), CliError> {
    let bad = || {
        CliError::new(format!(
            "--layers needs `LO..HI` or a single count, got `{text}`"
        ))
    };
    match text.split_once("..") {
        Some((lo, hi)) => {
            let lo: usize = lo.trim().parse().map_err(|_| bad())?;
            let hi: usize = hi.trim().parse().map_err(|_| bad())?;
            Ok((lo, hi))
        }
        None => {
            let n: usize = text.trim().parse().map_err(|_| bad())?;
            Ok((n.saturating_sub(5).max(1), n.max(1)))
        }
    }
}

fn cmd_gen(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "gen",
        &[
            "--seed",
            "--networks",
            "--layers",
            "--subs",
            "--tightness",
            "--format",
            "--output",
        ],
    )?;
    let format = Format::parse(
        options.format.as_deref().unwrap_or("toml"),
        &[Format::Toml, Format::Json, Format::Text],
        "gen",
    )?;
    let range = options
        .layers
        .as_deref()
        .map(parse_layer_range)
        .transpose()?;
    let mut spec = GeneratorSpec::sized(
        range
            .map(|(_, hi)| hi)
            .unwrap_or(GeneratorSpec::default().layer_range.1),
        options.subs.unwrap_or(2),
        options.seed.unwrap_or(GeneratorSpec::default().seed),
    );
    if let Some(range) = range {
        spec.layer_range = range;
        spec.fit_network_count();
    }
    if let Some(networks) = options.networks {
        spec.network_count = networks;
    }
    if let Some(tightness) = options.tightness {
        spec.constraint_tightness = tightness;
    }
    let generated = spec.generate().map_err(|e| CliError::new(e.to_string()))?;
    Ok(match format {
        Format::Toml => generated.scenario.to_toml_string(),
        Format::Json => generated.scenario.to_json_string(),
        Format::Text => {
            let backbones: Vec<&str> = generated
                .scenario
                .tasks
                .iter()
                .map(|t| t.backbone.name())
                .collect();
            format!(
                "generated scenario {}\n\
                 tasks: {} [{}]\n\
                 nominal layers: {} (requested {}..{})\n\
                 probe tier: {}\n\
                 feasibility: {}\n\
                 specs: latency {} cycles, energy {} nJ, area {} um^2",
                generated.scenario.name,
                generated.scenario.tasks.len(),
                backbones.join(", "),
                generated.total_layers,
                spec.layer_range.0,
                spec.layer_range.1,
                generated.probe_tier,
                generated.feasibility,
                generated.scenario.specs.latency_cycles,
                generated.scenario.specs.energy_nj,
                generated.scenario.specs.area_um2,
            )
        }
        Format::Csv => unreachable!("rejected by Format::parse"),
    })
}

/// The `profile` subcommand: run the scenario once with telemetry on and
/// report where the wall time went (accuracy proxy vs cost model vs
/// scheduler vs controller vs checkpointing).
fn cmd_profile(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "profile",
        &[
            "--scenario",
            "--budget-episodes",
            "--seed",
            "--algorithm",
            "--format",
            "--output",
            "--min-coverage",
        ],
    )?;
    let scenario = options.scenario()?;
    let format = Format::parse(
        options.format.as_deref().unwrap_or("text"),
        &[Format::Text, Format::Json],
        "profile",
    )?;
    // Attribution needs a single-threaded engine: with parallel evaluation
    // the per-component spans overlap and would sum past the wall.
    let engine = scenario.engine_with_config(nasaic_core::engine::EngineConfig {
        threads: 1,
        ..nasaic_core::engine::EngineConfig::default()
    });
    let was_enabled = nasaic_telemetry::enabled();
    nasaic_telemetry::set_enabled(true);
    nasaic_telemetry::global().reset();
    let observer = nasaic_core::metrics::MetricsObserver::new();
    let started = std::time::Instant::now();
    let report = scenario.run_report_checkpointed(
        scenario.search.algorithm,
        &engine,
        &observer,
        None,
        &NullCheckpointSink,
    );
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let breakdown = nasaic_core::metrics::ProfileBreakdown::collect(wall_ms);
    nasaic_telemetry::set_enabled(was_enabled);
    if let Some(min) = options.min_coverage {
        if breakdown.coverage < min {
            return Err(CliError::new(format!(
                "profile coverage {:.1}% is below the required {:.1}% — instrumented spans \
                 miss too much of the wall",
                breakdown.coverage * 100.0,
                min * 100.0
            )));
        }
    }
    Ok(match format {
        Format::Text => format!(
            "profile: {} {} (seed {}, {} episode(s))\n{}",
            scenario.name,
            scenario.search.algorithm,
            scenario.seed,
            report.episodes,
            breakdown.render_text()
        ),
        Format::Json => {
            let mut root = breakdown.to_value();
            root.insert("scenario", ConfigValue::Str(scenario.name.clone()));
            root.insert(
                "algorithm",
                ConfigValue::Str(scenario.search.algorithm.name().to_string()),
            );
            root.insert("seed", ConfigValue::Integer(scenario.seed as i64));
            root.insert("episodes", ConfigValue::Integer(report.episodes as i64));
            value::to_json(&root)
        }
        _ => unreachable!("rejected by Format::parse"),
    })
}

fn cmd_serve(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "serve",
        &[
            "--addr",
            "--addr-file",
            "--metrics-addr",
            "--metrics-addr-file",
            "--state-dir",
            "--queue-capacity",
            "--workers",
            "--job-threads",
            "--accuracy-capacity",
            "--hardware-capacity",
            "--checkpoint-every",
            "--output",
        ],
    )?;
    if options.metrics_addr_file.is_some() && options.metrics_addr.is_none() {
        return Err(CliError::new(
            "--metrics-addr-file needs `--metrics-addr <host:port>`",
        ));
    }
    let mut config = ServeConfig::default();
    if let Some(addr) = &options.addr {
        config.addr = addr.clone();
    }
    config.metrics_addr = options.metrics_addr.clone();
    config.state_dir = options.state_dir.as_ref().map(std::path::PathBuf::from);
    if let Some(capacity) = options.queue_capacity {
        config.queue_capacity = capacity;
    }
    if let Some(workers) = options.workers {
        config.workers = workers;
    }
    if let Some(threads) = options.job_threads {
        config.job_threads = threads;
    }
    if let Some(capacity) = options.accuracy_capacity {
        config.accuracy_capacity = capacity;
    }
    if let Some(capacity) = options.hardware_capacity {
        config.hardware_capacity = capacity;
    }
    config.checkpoint_every = options.checkpoint_every;
    let handle = Daemon::start(config).map_err(|e| CliError::new(e.to_string()))?;
    let addr = handle.addr();
    // stderr, so scripts capturing stdout see only the final summary; the
    // addr file resolves ephemeral ports (`--addr 127.0.0.1:0`) for them.
    eprintln!("nasaic serve: listening on {addr}");
    if let Some(path) = &options.addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
    }
    if let Some(metrics_addr) = handle.metrics_addr() {
        eprintln!("nasaic serve: metrics on http://{metrics_addr}/metrics");
        if let Some(path) = &options.metrics_addr_file {
            std::fs::write(path, format!("{metrics_addr}\n"))
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        }
    }
    handle.join().map_err(|e| CliError::new(e.to_string()))
}

fn cmd_client(options: &Options) -> Result<String, CliError> {
    options.ensure_only(
        "client",
        &[
            "--addr",
            "--request",
            "--job",
            "--watch",
            "--scenario",
            "--budget-episodes",
            "--seed",
            "--algorithm",
            "--output",
        ],
    )?;
    const REQUESTS: &str =
        "ping, submit, cancel, show-jobs, show-cache, show-incumbent, show-metrics, shutdown";
    let addr = options.addr.as_deref().unwrap_or("127.0.0.1:7764");
    let request_name = options
        .request
        .as_deref()
        .ok_or_else(|| CliError::new(format!("missing `--request <name>` ({REQUESTS})")))?;
    let job = || {
        options
            .job
            .ok_or_else(|| CliError::new(format!("`--request {request_name}` needs `--job <N>`")))
    };
    let mut client = Client::connect(addr).map_err(|e| CliError::new(e.to_string()))?;
    let response = match request_name {
        "ping" => client.request(&Request::Ping),
        "submit" => {
            let scenario = options.scenario()?;
            if options.watch {
                client.submit_watch(scenario.to_value(), |event| {
                    eprintln!("{}", value::to_json_compact(event));
                })
            } else {
                client.request(&Request::Submit {
                    scenario: scenario.to_value(),
                    watch: false,
                })
            }
        }
        "cancel" => client.request(&Request::Cancel { job: job()? }),
        "show-jobs" => client.request(&Request::ShowJobs),
        "show-cache" => client.request(&Request::ShowCache),
        "show-incumbent" => client.request(&Request::ShowIncumbent { job: job()? }),
        "show-metrics" => client.request(&Request::ShowMetrics),
        "shutdown" => client.request(&Request::Shutdown),
        other => {
            return Err(CliError::new(format!(
                "unknown request `{other}` ({REQUESTS})"
            )))
        }
    }
    .map_err(|e| CliError::new(e.to_string()))?;
    if response.get("ok").and_then(ConfigValue::as_bool) == Some(false) {
        let message = response
            .get("error")
            .and_then(ConfigValue::as_str)
            .unwrap_or("daemon reported an error");
        return Err(CliError::new(format!("daemon: {message}")));
    }
    Ok(value::to_json(&response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        run_command(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_args_and_help_print_usage() {
        assert_eq!(run(&[]).unwrap(), usage());
        assert_eq!(run(&["help"]).unwrap(), usage());
        // The help text lists every registry entry.
        for name in registry::names() {
            assert!(usage().contains(name), "{name} missing from usage");
        }
    }

    #[test]
    fn unknown_commands_and_flags_error() {
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["run", "--wat"]).is_err());
        assert!(run(&["run"])
            .unwrap_err()
            .to_string()
            .contains("--scenario"));
        assert!(run(&["run", "--scenario"]).is_err());
        assert!(run(&["run", "--scenario", "w1", "--budget-episodes", "zero"]).is_err());
    }

    #[test]
    fn inapplicable_flags_error_instead_of_being_ignored() {
        // `--algorithm` on compare is almost certainly a typo for
        // `--algorithms`; dropping it silently would run all six
        // algorithms at full budget.
        let err = run(&["compare", "--scenario", "w3", "--algorithm", "monte-carlo"]).unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
        assert!(err.to_string().contains("--algorithms"), "{err}");
        let err = run(&["list-scenarios", "--seed", "4"]).unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
        let err = run(&["run", "--scenario", "w3", "--algorithms", "nasaic"]).unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
    }

    #[test]
    fn seeds_beyond_i64_are_rejected_so_configs_round_trip() {
        let err = run(&["show", "--scenario", "w1", "--seed", "9223372036854775808"]).unwrap_err();
        assert!(err.to_string().contains("round-trip"), "{err}");
        // The boundary value itself is fine.
        let toml = run(&["show", "--scenario", "w1", "--seed", "9223372036854775807"]).unwrap();
        assert!(toml.contains("seed = 9223372036854775807"), "{toml}");
    }

    #[test]
    fn list_scenarios_mentions_every_builtin() {
        let text = run(&["list-scenarios"]).unwrap();
        for name in registry::names() {
            assert!(text.contains(name), "{name} missing from listing");
        }
        let json = run(&["list-scenarios", "--format", "json"]).unwrap();
        let parsed = value::parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("scenarios").unwrap().as_array().unwrap().len(),
            registry::names().len()
        );
    }

    #[test]
    fn show_round_trips_through_the_parser() {
        let toml = run(&["show", "--scenario", "quad-mix"]).unwrap();
        let reparsed = Scenario::from_toml_str(&toml).unwrap();
        assert_eq!(reparsed, registry::get("quad-mix").unwrap());
        let json = run(&["show", "--scenario", "quad-mix", "--format", "json"]).unwrap();
        assert_eq!(Scenario::from_json_str(&json).unwrap(), reparsed);
    }

    #[test]
    fn run_overrides_budget_seed_and_algorithm() {
        let json = run(&[
            "run",
            "--scenario",
            "w3",
            "--budget-episodes",
            "3",
            "--seed",
            "5",
            "--algorithm",
            "monte-carlo",
            "--format",
            "json",
        ])
        .unwrap();
        let parsed = value::parse_json(&json).unwrap();
        // Monte-Carlo maps the 3-episode budget to 3 * (1 + phi) samples.
        assert_eq!(parsed.get("episodes").unwrap().as_integer(), Some(33));
        assert_eq!(parsed.get("seed").unwrap().as_integer(), Some(5));
        assert_eq!(
            parsed.get("algorithm").unwrap().as_str(),
            Some("monte-carlo")
        );
    }

    #[test]
    fn gen_emits_a_loadable_deterministic_scenario() {
        let toml = run(&["gen", "--seed", "7", "--layers", "39", "--subs", "2"]).unwrap();
        let scenario = Scenario::from_toml_str(&toml).unwrap();
        assert_eq!(scenario.seed, 7);
        assert_eq!(scenario.hardware.sub_accelerators, 2);
        assert_eq!(scenario.search.scheduler.name(), "auto");
        // Same flags, same output, bit for bit.
        let again = run(&["gen", "--seed", "7", "--layers", "39", "--subs", "2"]).unwrap();
        assert_eq!(toml, again);
        // JSON agrees with TOML.
        let json = run(&[
            "gen", "--seed", "7", "--layers", "39", "--subs", "2", "--format", "json",
        ])
        .unwrap();
        assert_eq!(Scenario::from_json_str(&json).unwrap(), scenario);
    }

    #[test]
    fn gen_text_summary_reports_tier_and_feasibility() {
        let text = run(&[
            "gen", "--seed", "3", "--layers", "20..25", "--format", "text",
        ])
        .unwrap();
        assert!(text.contains("probe tier: exact"), "{text}");
        assert!(text.contains("feasibility: feasible"), "{text}");
        // Over-tight specs are diagnosed, not a panic or an error.
        let text = run(&[
            "gen",
            "--seed",
            "3",
            "--layers",
            "20..25",
            "--tightness",
            "4.0",
            "--format",
            "text",
        ])
        .unwrap();
        assert!(text.contains("feasibility: infeasible"), "{text}");
    }

    #[test]
    fn gen_rejects_bad_and_inapplicable_flags() {
        let err = run(&["gen", "--layers", "ten"]).unwrap_err();
        assert!(err.to_string().contains("--layers"), "{err}");
        let err = run(&["gen", "--scenario", "w1"]).unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
        let err = run(&["run", "--scenario", "w1", "--layers", "10"]).unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
        // An impossible generator spec surfaces the structured reason.
        let err = run(&["gen", "--layers", "10..12", "--networks", "50"]).unwrap_err();
        assert!(err.to_string().contains("achievable"), "{err}");
    }

    #[test]
    fn output_flag_writes_the_file() {
        let dir = std::env::temp_dir().join("nasaic-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("listing.json");
        let message = run(&[
            "list-scenarios",
            "--format",
            "json",
            "--output",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(message.contains("wrote"));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(value::parse_json(written.trim()).is_ok());
    }
}
