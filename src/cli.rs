//! The `nasaic` command-line runner: scenarios from the registry or from
//! TOML/JSON config files, executed through the shared evaluation engine.
//!
//! The parsing and execution live in this library module (the
//! `src/bin/nasaic.rs` binary is a three-line wrapper) so the whole CLI is
//! exercisable from integration tests without spawning processes.
//!
//! The CLI is described once, as data: `COMMANDS` holds each command and
//! the output formats it takes, `FLAGS` each flag's value kind and the
//! commands it applies to.  Parsing, the "does not apply" check, the
//! `--format` check and the usage text all read those two tables; `nasaic
//! help` prints every command with its flags.
//!
//! `--trace FILE` streams every search event (episodes, incumbents, phase
//! boundaries, the final cache summary) as JSON lines; `--progress` (also
//! implied by `--trace`) prints a human-readable progress line to stderr
//! on each improvement.  A whole run, a resumed run and a shard all report
//! to the same observers.
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

use nasaic_core::algorithm::{MulticastObserver, ProgressObserver, SearchError, TraceObserver};
use nasaic_core::checkpoint::{
    CheckpointSink, FileCheckpointSink, NullCheckpointSink, SearchCheckpoint, ShardPartial,
};
use nasaic_core::experiments::compare;
use nasaic_core::scenario::generate::GeneratorSpec;
use nasaic_core::scenario::report::RunReport;
use nasaic_core::scenario::value::{self, ConfigValue};
use nasaic_core::scenario::{registry, Algorithm, ConfigError, Scenario};
use nasaic_serve::{Client, Daemon, Request, ServeConfig};
use std::collections::HashMap;
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

/// One `nasaic` command.
struct Command {
    name: &'static str,
    /// Its handler, which returns the text printed to stdout.
    run: fn(&Options) -> Result<String, CliError>,
    /// Its `--format` values, the first being the default; empty when
    /// `--format` does not apply.
    formats: &'static [&'static str],
    /// Its line in the usage text.
    about: &'static str,
}

/// Every command, in usage order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", run: cmd_run, formats: &["text", "json", "csv"],
              about: "Run one scenario's declared search algorithm" },
    Command { name: "merge", run: cmd_merge, formats: &["text", "json", "csv"],
              about: "Merge shard partials into the single-process result" },
    Command { name: "compare", run: cmd_compare, formats: &["text", "json", "csv"],
              about: "Run several algorithms on one scenario over a shared engine" },
    Command { name: "list-scenarios", run: cmd_list, formats: &["text", "json"],
              about: "List the built-in scenario registry" },
    Command { name: "show", run: cmd_show, formats: &["toml", "json"],
              about: "Print a scenario's config (authoring starting point)" },
    Command { name: "gen", run: cmd_gen, formats: &["toml", "json", "text"],
              about: "Generate a seeded scenario (always feasible or diagnosed)" },
    Command { name: "profile", run: cmd_profile, formats: &["text", "json"],
              about: "Run a scenario and print its wall-time breakdown" },
    Command { name: "serve", run: cmd_serve, formats: &[],
              about: "Run the long-lived search daemon (shared warm engines)" },
    Command { name: "client", run: cmd_client, formats: &[],
              about: "Talk to a running daemon (submit/cancel/show/shutdown)" },
];

/// How a flag's value is read; each kind has one error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No value: given or not.
    Switch,
    /// Any text.
    Text,
    /// A `usize` of 0 or more.
    Count,
    /// A `usize` of 1 or more.
    Positive,
    /// A `u64` no larger than `i64::MAX`: configs and the wire store
    /// integers as `i64`, so larger values would not round-trip.
    Id,
    /// Any number.
    Number,
    /// A number in `0..=1`.
    Fraction,
}

/// One flag: its name, value kind and placeholder, the commands it
/// applies to, and its prose in the usage text.  A command entry may name
/// one of the command's `--request`s too (`client submit`): the flag then
/// applies to that command only under that request.
struct Flag {
    name: &'static str,
    kind: Kind,
    value: &'static str,
    commands: &'static [&'static str],
    help: &'static str,
}

/// Every flag, in usage order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--scenario", kind: Kind::Text, value: "<name|path>",
           commands: &["run", "merge", "compare", "show", "profile", "client submit"],
           help: "Registry name or path to a .toml/.json config" },
    Flag { name: "--budget-episodes", kind: Kind::Positive, value: "<N>",
           commands: &["run", "merge", "compare", "show", "profile", "client submit"],
           help: "Override the scenario's episode budget" },
    Flag { name: "--seed", kind: Kind::Id, value: "<N>",
           commands: &["run", "merge", "compare", "show", "gen", "profile", "client submit"],
           help: "Override the scenario's RNG seed" },
    Flag { name: "--algorithm", kind: Kind::Text, value: "<name>",
           commands: &["run", "merge", "show", "profile", "client submit"],
           help: "Override the scenario's algorithm" },
    Flag { name: "--algorithms", kind: Kind::Text, value: "<a,b,..>",
           commands: &["compare"],
           help: "Comma-separated algorithm list (default all)" },
    Flag { name: "--networks", kind: Kind::Positive, value: "<N>",
           commands: &["gen"],
           help: "Task count of the generated workload" },
    Flag { name: "--layers", kind: Kind::Text, value: "<LO..HI|N>",
           commands: &["gen"],
           help: "Total nominal layer range (`N` means N-5..N)" },
    Flag { name: "--subs", kind: Kind::Positive, value: "<N>",
           commands: &["gen"],
           help: "Sub-accelerators in the generated pool (default 2)" },
    Flag { name: "--tightness", kind: Kind::Number, value: "<X>",
           commands: &["gen"],
           help: "Generated spec tightness (default 1.0)" },
    Flag { name: "--format", kind: Kind::Text, value: "<fmt>",
           commands: &["run", "merge", "compare", "list-scenarios", "show", "gen", "profile"],
           help: "Output format: one of the command's formats listed above, the first \
                  being the default" },
    Flag { name: "--output", kind: Kind::Text, value: "<file>",
           commands: &["run", "merge", "compare", "list-scenarios", "show", "gen", "profile",
                       "serve", "client"],
           help: "Write the result there instead of stdout" },
    Flag { name: "--trace", kind: Kind::Text, value: "<file>",
           commands: &["run"],
           help: "Stream search events as JSON lines (implies --progress)" },
    Flag { name: "--progress", kind: Kind::Switch, value: "",
           commands: &["run"],
           help: "Print search progress lines to stderr" },
    Flag { name: "--checkpoint", kind: Kind::Text, value: "<file>",
           commands: &["run"],
           help: "Snapshot the search state to this file plus an append-only \
                  <file>.journal of explored records" },
    Flag { name: "--checkpoint-every", kind: Kind::Positive, value: "<N>",
           commands: &["run", "serve"],
           help: "Checkpoint every N progress units (run: default 1; serve: an exact, \
                  unsynced cadence instead of the default cost-budgeted, synced one)" },
    Flag { name: "--resume", kind: Kind::Text, value: "<file>",
           commands: &["run"],
           help: "Continue from a checkpoint file and its journal" },
    Flag { name: "--shards", kind: Kind::Positive, value: "<N>",
           commands: &["run"],
           help: "Split the run into N deterministic shards" },
    Flag { name: "--shard-index", kind: Kind::Count, value: "<I>",
           commands: &["run"],
           help: "Which shard this process runs, 0-based" },
    Flag { name: "--shard-out", kind: Kind::Text, value: "<file>",
           commands: &["run"],
           help: "Where the shard writes its partial result" },
    Flag { name: "--partials", kind: Kind::Text, value: "<a,b,..>",
           commands: &["merge"],
           help: "Comma-separated shard partial files" },
    Flag { name: "--min-coverage", kind: Kind::Fraction, value: "<X>",
           commands: &["profile"],
           help: "Fail when attributed time covers less than this fraction of the wall \
                  (0..1; default: report only)" },
    Flag { name: "--addr", kind: Kind::Text, value: "<host:port>",
           commands: &["serve", "client"],
           help: "Daemon listen/connect address (default 127.0.0.1:7764, port 0 = \
                  ephemeral)" },
    Flag { name: "--addr-file", kind: Kind::Text, value: "<file>",
           commands: &["serve"],
           help: "Write the actually bound address there" },
    Flag { name: "--metrics-addr", kind: Kind::Text, value: "<h:p>",
           commands: &["serve"],
           help: "Also expose Prometheus text-format metrics over HTTP there (port 0 = \
                  ephemeral)" },
    Flag { name: "--metrics-addr-file", kind: Kind::Text, value: "<f>",
           commands: &["serve"],
           help: "Write the bound metrics address there" },
    Flag { name: "--state-dir", kind: Kind::Text, value: "<dir>",
           commands: &["serve"],
           help: "Durability root: job journal, checkpoints and persisted caches \
                  (default: no persistence)" },
    Flag { name: "--queue-capacity", kind: Kind::Count, value: "<N>",
           commands: &["serve"],
           help: "Max queued jobs before submits are rejected (default 16)" },
    Flag { name: "--workers", kind: Kind::Positive, value: "<N>",
           commands: &["serve"],
           help: "Concurrently running jobs (default 2)" },
    Flag { name: "--job-threads", kind: Kind::Count, value: "<N>",
           commands: &["serve"],
           help: "Engine threads per job (0 = all cores)" },
    Flag { name: "--accuracy-capacity", kind: Kind::Count, value: "<N>",
           commands: &["serve"],
           help: "Accuracy-cache entries per engine (0 = unbounded)" },
    Flag { name: "--hardware-capacity", kind: Kind::Count, value: "<N>",
           commands: &["serve"],
           help: "Hardware-cache entries per engine (0 = unbounded)" },
    Flag { name: "--request", kind: Kind::Text, value: "<name>",
           commands: &["client"],
           help: "One of ping, submit, cancel, show-jobs, show-cache, show-incumbent, \
                  show-metrics, shutdown" },
    Flag { name: "--job", kind: Kind::Id, value: "<N>",
           commands: &["client cancel", "client show-incumbent"],
           help: "Job id for cancel/show-incumbent" },
    Flag { name: "--watch", kind: Kind::Switch, value: "",
           commands: &["client submit"],
           help: "Stream incumbent events to stderr and wait for the final report \
                  (with --request submit)" },
];

/// Top-level usage text (also the output of `nasaic help`), built from
/// `COMMANDS` and `FLAGS`; the built-in list comes from the registry, so
/// none of it goes stale.
pub fn usage() -> String {
    let mut text = String::from(
        "\
nasaic — neural architecture / ASIC accelerator co-exploration (DAC 2020)

USAGE:
    nasaic <COMMAND> [OPTIONS]

COMMANDS:
",
    );
    for command in COMMANDS {
        let flags: Vec<String> = command
            .flags()
            .map(|flag| match flag.name {
                "--format" => format!("--format {}", command.formats.join("|")),
                name => name.to_string(),
            })
            .collect();
        text += &format!(
            "    {:<15} {}\n{:20}{}\n",
            command.name,
            command.about,
            "",
            wrap(flags.iter().map(String::as_str), 20)
        );
    }
    text += "    help            Show this message\n\nOPTIONS:\n";
    for flag in FLAGS {
        let head = format!("{} {}", flag.name, flag.value);
        text += &format!(
            "    {:<24} {}\n",
            head.trim_end(),
            wrap(flag.help.split_whitespace(), 29)
        );
    }
    text + &format!(
        "\nProtocol and ops runbook: docs/serve.md.\n\
             Scenario schema: docs/scenarios.md.  Built-ins: {}.",
        registry::names().join(" ")
    )
}

/// `words` joined by spaces into lines of at most 80 columns, for text
/// that starts at column `indent`; every line after the first is indented
/// to that column.
fn wrap<'a>(words: impl Iterator<Item = &'a str>, indent: usize) -> String {
    let mut text = String::new();
    let mut column = indent;
    for word in words {
        if column > indent && column + 1 + word.len() > 80 {
            text += &format!("\n{:indent$}", "");
            column = indent;
        } else if column > indent {
            text.push(' ');
            column += 1;
        }
        text += word;
        column += word.len();
    }
    text
}

impl Command {
    /// The flags that apply to this command under any request, in `FLAGS`
    /// order.
    fn flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        FLAGS.iter().filter(|flag| flag.applies_to(self.name, None))
    }
}

/// A flag's checked value.
enum Value {
    Switch,
    Text(String),
    Count(usize),
    Id(u64),
    Number(f64),
}

impl Flag {
    /// Does this flag apply to `command` with `request` as its `--request`
    /// (`None`: under any request)?
    fn applies_to(&self, command: &str, request: Option<&str>) -> bool {
        self.commands
            .iter()
            .any(|entry| match entry.split_once(' ') {
                None => *entry == command,
                Some((name, only)) => name == command && request.is_none_or(|given| given == only),
            })
    }

    /// Read this flag's value from `text`, checked against its kind.
    fn read(&self, text: &str) -> Result<Value, CliError> {
        let (value, wants) = match self.kind {
            Kind::Switch => (Some(Value::Switch), "no value"),
            Kind::Text => (Some(Value::Text(text.to_string())), "text"),
            Kind::Count => (
                text.parse().ok().map(Value::Count),
                "a non-negative integer",
            ),
            Kind::Positive => (
                text.parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .map(Value::Count),
                "a positive integer",
            ),
            Kind::Id => (
                text.parse()
                    .ok()
                    .filter(|&n: &u64| n <= i64::MAX as u64)
                    .map(Value::Id),
                "an integer in 0..=9223372036854775807 (so configs and the wire round-trip it)",
            ),
            Kind::Number => (text.parse().ok().map(Value::Number), "a number"),
            Kind::Fraction => (
                text.parse()
                    .ok()
                    .filter(|x: &f64| (0.0..=1.0).contains(x))
                    .map(Value::Number),
                "a fraction in 0..1",
            ),
        };
        value.ok_or_else(|| CliError::new(format!("{} needs {wants}, got `{text}`", self.name)))
    }
}

/// The flags given to one command, each read and checked against `FLAGS`.
struct Options {
    command: &'static Command,
    values: HashMap<&'static str, Value>,
}

impl Options {
    /// Parse `<command> [flags]`: resolve the command, then reject an
    /// unknown or inapplicable flag (never ignore it: `compare
    /// --algorithm`, a typo for `--algorithms`, must not run all six
    /// algorithms) and read each value by its flag's kind.  Once every
    /// value is read, a flag of another `--request` than the given one is
    /// rejected too.  A flag given twice keeps its last value.
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let (name, flags) = args
            .split_first()
            .ok_or_else(|| CliError::new("missing command (see `nasaic help`)"))?;
        let command = COMMANDS
            .iter()
            .find(|command| command.name == name)
            .ok_or_else(|| {
                CliError::new(format!("unknown command `{name}` (see `nasaic help`)"))
            })?;
        let mut values = HashMap::new();
        let mut read = Vec::new();
        let mut flags = flags.iter();
        while let Some(given) = flags.next() {
            let flag = FLAGS
                .iter()
                .find(|flag| flag.name == given)
                .ok_or_else(|| {
                    CliError::new(format!("unknown option `{given}` (see `nasaic help`)"))
                })?;
            if !flag.applies_to(command.name, None) {
                let allowed: Vec<&str> = command.flags().map(|flag| flag.name).collect();
                return Err(CliError::new(format!(
                    "`{given}` does not apply to `nasaic {}` (allowed: {})",
                    command.name,
                    allowed.join(", ")
                )));
            }
            let value = match flag.kind {
                Kind::Switch => Value::Switch,
                _ => flag.read(
                    flags
                        .next()
                        .ok_or_else(|| CliError::new(format!("`{given}` needs a value")))?,
                )?,
            };
            values.insert(flag.name, value);
            read.push(flag);
        }
        if let Some(Value::Text(request)) = values.get("--request") {
            if let Some(flag) = read
                .iter()
                .find(|flag| !flag.applies_to(command.name, Some(request)))
            {
                return Err(CliError::new(format!(
                    "`{}` does not apply to `nasaic {} --request {request}`",
                    flag.name, command.name
                )));
            }
        }
        Ok(Self { command, values })
    }

    /// The value given for `name`, which must be a `FLAGS` row of one of
    /// `kinds`: a typo or a wrong getter trips the tests instead of
    /// silently reading `None`.
    fn value(&self, name: &str, kinds: &[Kind]) -> Option<&Value> {
        debug_assert!(
            FLAGS
                .iter()
                .any(|flag| flag.name == name && kinds.contains(&flag.kind)),
            "`{name}` is not a flag of kind {kinds:?}"
        );
        self.values.get(name)
    }

    fn switch(&self, name: &str) -> bool {
        self.value(name, &[Kind::Switch]).is_some()
    }

    fn text(&self, name: &str) -> Option<&str> {
        match self.value(name, &[Kind::Text])? {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    fn count(&self, name: &str) -> Option<usize> {
        match self.value(name, &[Kind::Count, Kind::Positive])? {
            Value::Count(count) => Some(*count),
            _ => None,
        }
    }

    fn id(&self, name: &str) -> Option<u64> {
        match self.value(name, &[Kind::Id])? {
            Value::Id(id) => Some(*id),
            _ => None,
        }
    }

    fn number(&self, name: &str) -> Option<f64> {
        match self.value(name, &[Kind::Number, Kind::Fraction])? {
            Value::Number(number) => Some(*number),
            _ => None,
        }
    }

    /// The `--format` value, checked against the command's `COMMANDS` row;
    /// the row's first format when none is given.
    fn format(&self) -> Result<&'static str, CliError> {
        let formats = self.command.formats;
        let Some(text) = self.text("--format") else {
            return Ok(formats[0]);
        };
        formats
            .iter()
            .find(|format| format.eq_ignore_ascii_case(text.trim()))
            .copied()
            .ok_or_else(|| {
                CliError::new(format!(
                    "unknown format `{text}` for `nasaic {}` (formats: {})",
                    self.command.name,
                    formats.join(", ")
                ))
            })
    }

    /// Resolve the scenario reference and apply the override flags.
    fn scenario(&self) -> Result<Scenario, CliError> {
        let reference = self
            .text("--scenario")
            .ok_or_else(|| CliError::new("missing `--scenario <name|path>`"))?;
        let mut scenario = registry::resolve(reference)?;
        if let Some(episodes) = self.count("--budget-episodes") {
            scenario.search.episodes = episodes;
        }
        if let Some(seed) = self.id("--seed") {
            scenario.seed = seed;
        }
        if let Some(name) = self.text("--algorithm") {
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
    if matches!(
        args.first().map(String::as_str),
        None | Some("help" | "--help" | "-h")
    ) {
        return Ok(usage());
    }
    let options = Options::parse(args)?;
    let output = (options.command.run)(&options)?;
    match options.text("--output") {
        None => Ok(output),
        Some(path) => {
            std::fs::write(path, format!("{output}\n"))
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {path}"))
        }
    }
}

/// A run report in one of the `run`/`merge` formats.
fn render_report(report: &RunReport, format: &str) -> String {
    match format {
        "json" => report.to_json(),
        "csv" => format!("{}\n{}", RunReport::CSV_HEADER, report.to_csv_row()),
        _ => report.to_string(),
    }
}

/// The `run` command: a whole run (optionally checkpointed or resumed) or,
/// with `--shards N --shard-index I`, one shard of a deterministic N-way
/// split whose partial goes to `--shard-out`.  Either reports to one
/// observer set: the `--trace` file plus progress lines.
fn cmd_run(options: &Options) -> Result<String, CliError> {
    let scenario = options.scenario()?;
    let format = options.format()?;
    let shard = shard_flags(options)?;
    let resume_path = options.text("--resume").unwrap_or_default();
    let bad_checkpoint =
        |error: ConfigError| CliError::new(format!("bad checkpoint {resume_path}: {error}"));
    let resume = options
        .text("--resume")
        .map(|path| SearchCheckpoint::load(Path::new(path)).map_err(bad_checkpoint))
        .transpose()?;
    let file_sink = match (
        options.text("--checkpoint"),
        options.count("--checkpoint-every"),
    ) {
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
    let algorithm = scenario.search.algorithm;
    let engine = scenario.engine();
    let trace = options
        .text("--trace")
        .map(|path| {
            TraceObserver::create(Path::new(path))
                .map_err(|e| CliError::new(format!("cannot create trace file {path}: {e}")))
        })
        .transpose()?;
    let progress = ProgressObserver::new(match shard {
        Some((shards, index, _)) => format!("{} {algorithm} shard {index}/{shards}", scenario.name),
        None => format!("{} {algorithm}", scenario.name),
    });
    let mut observers = MulticastObserver::new();
    if let Some(trace) = &trace {
        observers.push(trace);
    }
    if trace.is_some() || options.switch("--progress") {
        observers.push(&progress);
    }
    let output = match shard {
        Some((shards, index, out)) => {
            let plan = scenario.algorithm_shard_plan(algorithm, &engine, shards);
            let partial =
                scenario.run_algorithm_shard(algorithm, &engine, &observers, &plan, index);
            std::fs::write(out, format!("{}\n", partial.to_json()))
                .map(|()| {
                    format!(
                        "wrote shard {index}/{shards} partial ({} solution(s)) to {out}",
                        partial.outcome.explored.len()
                    )
                })
                .map_err(|e| CliError::new(format!("cannot write shard partial {out}: {e}")))
        }
        None => scenario
            .run_report_checkpointed(algorithm, &engine, &observers, resume.as_ref(), sink)
            .map_err(|error| match error {
                SearchError::Checkpoint(error) => bad_checkpoint(error),
                cancelled => CliError::new(cancelled.to_string()),
            })
            .and_then(
                |report| match file_sink.as_ref().and_then(FileCheckpointSink::take_error) {
                    Some(error) => Err(CliError::new(format!(
                        "cannot write checkpoint {}: {error}",
                        options.text("--checkpoint").unwrap_or_default()
                    ))),
                    None => Ok(render_report(&report, format)),
                },
            ),
    };
    if let (Some(trace), Some(path)) = (trace, options.text("--trace")) {
        trace
            .finish()
            .map_err(|e| CliError::new(format!("cannot write trace file {path}: {e}")))?;
        eprintln!("trace written to {path}");
    }
    output
}

/// The `(shards, shard index, partial file)` of a sharded `run`, or `None`
/// when no shard flag is given.
fn shard_flags(options: &Options) -> Result<Option<(usize, usize, &str)>, CliError> {
    let (shards, index, out) = (
        options.count("--shards"),
        options.count("--shard-index"),
        options.text("--shard-out"),
    );
    if shards.is_none() && index.is_none() && out.is_none() {
        return Ok(None);
    }
    let shards = shards.ok_or_else(|| CliError::new("sharded runs need `--shards <N>`"))?;
    let index = index.ok_or_else(|| CliError::new("sharded runs need `--shard-index <I>`"))?;
    if index >= shards {
        return Err(CliError::new(format!(
            "--shard-index {index} is out of range for {shards} shard(s)"
        )));
    }
    if options.text("--resume").is_some() || options.text("--checkpoint").is_some() {
        return Err(CliError::new(
            "`--shards` does not combine with `--checkpoint`/`--resume` (checkpoint the \
             single-process run, or re-run the cheap shard from scratch)",
        ));
    }
    let out = out.ok_or_else(|| CliError::new("sharded runs need `--shard-out <file>`"))?;
    Ok(Some((shards, index, out)))
}

/// The `merge` subcommand: fold shard partials back into the exact
/// single-process outcome and report it.
fn cmd_merge(options: &Options) -> Result<String, CliError> {
    let scenario = options.scenario()?;
    let format = options.format()?;
    let paths: Vec<&str> = options
        .text("--partials")
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
    let outcome = scenario.merge_algorithm_shards(algorithm, &engine, &plan, partials)?;
    let report = scenario.report_for_outcome(algorithm, &outcome);
    Ok(render_report(&report, format))
}

fn cmd_compare(options: &Options) -> Result<String, CliError> {
    let scenario = options.scenario()?;
    let algorithms: Vec<Algorithm> = match options.text("--algorithms") {
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
    let format = options.format()?;
    let comparison = compare::run(&scenario, &algorithms);
    Ok(match format {
        "json" => comparison.to_json(),
        "csv" => comparison.to_csv(),
        _ => comparison.to_string(),
    })
}

fn cmd_list(options: &Options) -> Result<String, CliError> {
    let scenarios = registry::all();
    Ok(match options.format()? {
        "json" => {
            let mut root = ConfigValue::table();
            root.insert(
                "scenarios",
                ConfigValue::Array(scenarios.iter().map(Scenario::to_value).collect()),
            );
            value::to_json(&root)
        }
        _ => {
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
    })
}

fn cmd_show(options: &Options) -> Result<String, CliError> {
    let scenario = options.scenario()?;
    Ok(match options.format()? {
        "json" => scenario.to_json_string(),
        _ => scenario.to_toml_string(),
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
    let format = options.format()?;
    let range = options
        .text("--layers")
        .map(parse_layer_range)
        .transpose()?;
    let mut spec = GeneratorSpec::sized(
        range
            .map(|(_, hi)| hi)
            .unwrap_or(GeneratorSpec::default().layer_range.1),
        options.count("--subs").unwrap_or(2),
        options
            .id("--seed")
            .unwrap_or(GeneratorSpec::default().seed),
    );
    if let Some(range) = range {
        spec.layer_range = range;
        spec.fit_network_count();
    }
    if let Some(networks) = options.count("--networks") {
        spec.network_count = networks;
    }
    if let Some(tightness) = options.number("--tightness") {
        spec.constraint_tightness = tightness;
    }
    let generated = spec.generate().map_err(|e| CliError::new(e.to_string()))?;
    Ok(match format {
        "json" => generated.scenario.to_json_string(),
        "text" => {
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
        _ => generated.scenario.to_toml_string(),
    })
}

/// The `profile` subcommand: run the scenario once with telemetry on and
/// report where the wall time went (accuracy proxy vs cost model vs
/// scheduler vs controller vs checkpointing).
fn cmd_profile(options: &Options) -> Result<String, CliError> {
    let scenario = options.scenario()?;
    let format = options.format()?;
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
    let report = scenario.run_report_observed(scenario.search.algorithm, &engine, &observer);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let breakdown = nasaic_core::metrics::ProfileBreakdown::collect(wall_ms);
    nasaic_telemetry::set_enabled(was_enabled);
    if let Some(min) = options.number("--min-coverage") {
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
        "json" => {
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
        _ => format!(
            "profile: {} {} (seed {}, {} episode(s))\n{}",
            scenario.name,
            scenario.search.algorithm,
            scenario.seed,
            report.episodes,
            breakdown.render_text()
        ),
    })
}

fn cmd_serve(options: &Options) -> Result<String, CliError> {
    let metrics_addr = options.text("--metrics-addr");
    if options.text("--metrics-addr-file").is_some() && metrics_addr.is_none() {
        return Err(CliError::new(
            "--metrics-addr-file needs `--metrics-addr <host:port>`",
        ));
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: options.text("--addr").map_or(defaults.addr, str::to_string),
        state_dir: options.text("--state-dir").map(std::path::PathBuf::from),
        queue_capacity: options
            .count("--queue-capacity")
            .unwrap_or(defaults.queue_capacity),
        workers: options.count("--workers").unwrap_or(defaults.workers),
        job_threads: options
            .count("--job-threads")
            .unwrap_or(defaults.job_threads),
        accuracy_capacity: options
            .count("--accuracy-capacity")
            .unwrap_or(defaults.accuracy_capacity),
        hardware_capacity: options
            .count("--hardware-capacity")
            .unwrap_or(defaults.hardware_capacity),
        checkpoint_every: options.count("--checkpoint-every"),
        metrics_addr: metrics_addr.map(str::to_string),
    };
    let handle = Daemon::start(config).map_err(|e| CliError::new(e.to_string()))?;
    let addr = handle.addr();
    // stderr, so scripts capturing stdout see only the final summary; the
    // addr file resolves ephemeral ports (`--addr 127.0.0.1:0`) for them.
    eprintln!("nasaic serve: listening on {addr}");
    if let Some(path) = options.text("--addr-file") {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
    }
    if let Some(metrics_addr) = handle.metrics_addr() {
        eprintln!("nasaic serve: metrics on http://{metrics_addr}/metrics");
        if let Some(path) = options.text("--metrics-addr-file") {
            std::fs::write(path, format!("{metrics_addr}\n"))
                .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        }
    }
    handle.join().map_err(|e| CliError::new(e.to_string()))
}

/// The `client` command: build the request from the flags (so a bad one
/// fails before any connection), send it, and print the daemon's answer.
fn cmd_client(options: &Options) -> Result<String, CliError> {
    const REQUESTS: &str =
        "ping, submit, cancel, show-jobs, show-cache, show-incumbent, show-metrics, shutdown";
    let name = options
        .text("--request")
        .ok_or_else(|| CliError::new(format!("missing `--request <name>` ({REQUESTS})")))?;
    let job = || {
        options
            .id("--job")
            .ok_or_else(|| CliError::new(format!("`--request {name}` needs `--job <N>`")))
    };
    let request = match name {
        "ping" => Request::Ping,
        "submit" => Request::Submit {
            scenario: options.scenario()?.to_value(),
            watch: options.switch("--watch"),
        },
        "cancel" => Request::Cancel { job: job()? },
        "show-jobs" => Request::ShowJobs,
        "show-cache" => Request::ShowCache,
        "show-incumbent" => Request::ShowIncumbent { job: job()? },
        "show-metrics" => Request::ShowMetrics,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(CliError::new(format!(
                "unknown request `{other}` ({REQUESTS})"
            )))
        }
    };
    let addr = options.text("--addr").unwrap_or("127.0.0.1:7764");
    let mut client = Client::connect(addr).map_err(|e| CliError::new(e.to_string()))?;
    let response = match request {
        Request::Submit {
            scenario,
            watch: true,
        } => client.submit_watch(scenario, |event| {
            eprintln!("{}", value::to_json_compact(event));
        }),
        request => client.request(&request),
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
    fn every_flag_and_command_is_declared_once_and_shown_in_usage() {
        let text = usage();
        for (index, flag) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..index].iter().all(|other| other.name != flag.name),
                "{} is declared twice",
                flag.name
            );
            assert!(!flag.commands.is_empty(), "{} applies nowhere", flag.name);
            for entry in flag.commands {
                let (command, request) = entry.split_once(' ').unwrap_or((entry, ""));
                assert!(
                    COMMANDS.iter().any(|row| row.name == command),
                    "{} names the unknown command `{command}`",
                    flag.name
                );
                let requests = FLAGS
                    .iter()
                    .find(|row| row.name == "--request")
                    .unwrap()
                    .help;
                assert!(
                    request.is_empty() || requests.contains(request),
                    "{} names the unknown request `{request}`",
                    flag.name
                );
            }
            assert!(text.contains(flag.name), "usage misses {}", flag.name);
        }
        for command in COMMANDS {
            assert!(text.contains(command.name), "usage misses {}", command.name);
            // `Options::format` defaults to the first format.
            assert_eq!(
                command.formats.is_empty(),
                command.flags().all(|flag| flag.name != "--format"),
                "{} lists formats iff it takes --format",
                command.name
            );
        }
    }

    const JUNK: [&str; 6] = ["", "0", "-1", "x", "0.5", "18446744073709551616"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Any sequence of command names, flag names and junk values
        /// parses to an error or to options holding only flags that
        /// apply to their command; it never panics.
        #[test]
        fn parsing_never_panics_and_keeps_only_applicable_flags(
            lead in 0..COMMANDS.len() + 1,
            names in proptest::collection::vec(0..COMMANDS.len() + FLAGS.len(), 0..5),
            values in proptest::collection::vec(0..JUNK.len(), 5..6),
        ) {
            let name = |index: usize| {
                COMMANDS
                    .iter()
                    .map(|command| command.name)
                    .chain(FLAGS.iter().map(|flag| flag.name))
                    .nth(index)
                    .unwrap_or("frobnicate")
            };
            let mut args = vec![name(lead).to_string()];
            for (&index, &value) in names.iter().zip(&values) {
                args.push(name(index).to_string());
                args.push(JUNK[value].to_string());
            }
            if let Ok(options) = Options::parse(&args) {
                let request = options.text("--request");
                for flag in options.values.keys() {
                    let row = FLAGS.iter().find(|row| row.name == *flag).unwrap();
                    proptest::prop_assert!(row.applies_to(options.command.name, request));
                }
            }
        }
    }

    #[test]
    fn bad_values_are_rejected_before_anything_runs() {
        for (args, message) in [
            (
                &["serve", "--workers", "0"][..],
                "--workers needs a positive integer, got `0`",
            ),
            (
                &["gen", "--subs", "0"],
                "--subs needs a positive integer, got `0`",
            ),
            (
                &["client", "--job", "9223372036854775808"],
                "--job needs an integer in 0..=9223372036854775807",
            ),
            (
                &["profile", "--min-coverage", "1.5"],
                "--min-coverage needs a fraction in 0..1, got `1.5`",
            ),
            (
                &["show", "--scenario", "w1", "--format", "csv"],
                "unknown format `csv` for `nasaic show` (formats: toml, json)",
            ),
            // The request is checked before any connection is tried.
            (
                &["client", "--request", "cancel", "--addr", "127.0.0.1:1"],
                "`--request cancel` needs `--job <N>`",
            ),
        ] {
            let err = run(args).unwrap_err().to_string();
            assert!(err.contains(message), "{args:?}: {err}");
        }
    }

    #[test]
    fn client_flags_apply_only_to_the_requests_that_read_them() {
        for (args, flag, request) in [
            (
                &["client", "--request", "ping", "--watch", "--scenario", "w1"][..],
                "--watch",
                "ping",
            ),
            (
                &[
                    "client",
                    "--request",
                    "ping",
                    "--budget-episodes",
                    "2",
                    "--seed",
                    "5",
                ],
                "--budget-episodes",
                "ping",
            ),
            (
                &["client", "--request", "show-jobs", "--job", "3"],
                "--job",
                "show-jobs",
            ),
            (
                &["client", "--job", "3", "--request", "submit"],
                "--job",
                "submit",
            ),
            (
                &[
                    "client",
                    "--request",
                    "cancel",
                    "--job",
                    "3",
                    "--algorithm",
                    "x",
                ],
                "--algorithm",
                "cancel",
            ),
        ] {
            // Port 1 refuses connections: an error about anything but the
            // flag would mean the request was sent.
            let args: Vec<&str> = args
                .iter()
                .copied()
                .chain(["--addr", "127.0.0.1:1"])
                .collect();
            let err = run(&args).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("`{flag}` does not apply to `nasaic client --request {request}`"),
                "{args:?}"
            );
        }
        for args in [
            &[
                "client",
                "--request",
                "submit",
                "--scenario",
                "w1",
                "--seed",
                "5",
                "--watch",
            ][..],
            &[
                "client",
                "--request",
                "cancel",
                "--job",
                "3",
                "--addr",
                "127.0.0.1:1",
            ],
            &["client", "--request", "show-incumbent", "--job", "3"],
            &["client", "--request", "ping", "--output", "pong.json"],
        ] {
            let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
            assert!(Options::parse(&args).is_ok(), "{args:?}");
        }
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
