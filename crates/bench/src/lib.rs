//! Shared helpers for `nasaic-bench`, the identity gates and perf
//! snapshots of the search loop, the evaluator, the HAP scheduler,
//! checkpointing, the daemon and telemetry.
//!
//! The paper's artefacts are regenerated elsewhere: `cargo run --release
//! --example reproduce_all [quick|benchmark|paper]` prints Fig. 1, Tables I
//! and II and Fig. 6, and `--example ablation_optimizers` the optimizer
//! ablation.  The benchmark of record, with per-layer metrics under
//! `--trace 1`, is `perfbench/`.
//!
//! The binary's commands:
//!
//! ```text
//! nasaic-bench <part> [--quick] [--check] [--label L] [--output P]
//! nasaic-bench lint [dir]
//! nasaic-bench validate-trace <file>
//! ```
//!
//! Each [`Part`] runs its gates first and exits 1 when one fails.  Unless
//! `--check` is given it then times its workload and appends one entry to
//! its `BENCH_<part>.json` trajectory.  This library holds what every part
//! shares: the argument parser ([`Command::parse`]), the gate reporter
//! ([`gate`]), the trajectory writer ([`Options::record`]), the machine
//! fingerprint ([`machine`]) and the scenarios the parts run.

use nasaic_core::scenario::value;
use nasaic_core::scenario::value::ConfigValue::{self, Array, Float, Integer, Str};
use nasaic_core::scenario::{registry, Scenario};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Today's UTC date as `YYYY-MM-DD`, for the `date` field every
/// `BENCH_*.json` entry carries (`nasaic-bench lint` enforces it).
/// Pure `std`: days-since-epoch to civil date via the usual era/day-of-era
/// arithmetic.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock before 1970")
        .as_secs();
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil-from-days: shift the epoch to 0000-03-01 so
    // leap days land at the end of the (shifted) year.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

/// The timed parts of `nasaic-bench`, one trajectory file each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// The whole NASAIC search end to end on W1.
    Search,
    /// The evaluator hot path against its naive references.
    Eval,
    /// The HAP scheduler against its naive reference.
    Sched,
    /// Generated HAP instances from 10 to 1000 layers, tier by tier.
    Scale,
    /// Checkpoint/resume and sharded execution.
    Resume,
    /// The `nasaic serve` daemon's warm engine and client fan-in.
    Serve,
    /// What metrics collection costs.
    Telemetry,
}

impl Part {
    /// Every part, in the order the usage text lists them.
    pub const ALL: [Part; 7] = [
        Part::Search,
        Part::Eval,
        Part::Sched,
        Part::Scale,
        Part::Resume,
        Part::Serve,
        Part::Telemetry,
    ];

    /// The name on the command line, the `bench` value at the top of the
    /// trajectory file, and the entry field that records the gate passed.
    /// The last two predate this harness; they stay so that new entries
    /// line up with the committed ones.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Part::Search => ("search", "search_e2e", "dispatch_gate"),
            Part::Eval => ("eval", "eval_hotpath", "identity_gate"),
            Part::Sched => ("sched", "micro_sched", "consistency"),
            Part::Scale => ("scale", "scale_ladder", "consistency_gate"),
            Part::Resume => ("resume", "resume", "identity_gate"),
            Part::Serve => ("serve", "serve", "identity_gate"),
            Part::Telemetry => ("telemetry", "telemetry", "identity_gate"),
        }
    }

    /// The name on the command line, as in `BENCH_<name>.json`.
    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// The `bench` value at the top of the part's trajectory file.
    pub fn bench(self) -> &'static str {
        self.names().1
    }

    /// The entry field that records that the part's gate passed.
    pub fn gate_field(self) -> &'static str {
        self.names().2
    }
}

/// How to call `nasaic-bench`.
pub const USAGE: &str = "\
usage: nasaic-bench <part> [--quick] [--check] [--label L] [--output P]
       nasaic-bench lint [dir]
       nasaic-bench validate-trace <file>
parts: search, eval, sched, scale, resume, serve, telemetry";

/// What one `nasaic-bench` invocation asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run one part.
    Run(Options),
    /// Check every `BENCH_*.json` in a directory (default: the workspace
    /// root) against the shared trajectory schema.
    Lint(PathBuf),
    /// Check a `nasaic run --trace` file.
    ValidateTrace(PathBuf),
}

/// The options of one part's run.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// The part to run.
    pub part: Part,
    /// Shrink the timed workload for CI.
    pub quick: bool,
    /// Run the gates only: no timing, no machine probe, no write.
    pub check: bool,
    /// The entry's `label` (default `local`).
    pub label: String,
    /// The trajectory file (default `BENCH_<part>.json` at the workspace
    /// root, wherever the binary runs from).
    pub output: PathBuf,
}

/// The workspace root, where the committed `BENCH_*.json` files live.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

impl Command {
    /// Parse the arguments after the program name.  The error names the
    /// first argument that does not fit; print it with [`USAGE`].
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let Some((first, rest)) = args.split_first() else {
            return Err("missing <part>".to_string());
        };
        let operand = |rest: &[String]| match rest {
            [] => Ok(None),
            [one] if !one.starts_with("--") => Ok(Some(PathBuf::from(one))),
            [_, ..] => Err(format!("`{first}` takes at most one path")),
        };
        match first.as_str() {
            "lint" => Ok(Command::Lint(operand(rest)?.unwrap_or_else(workspace_root))),
            "validate-trace" => operand(rest)?
                .map(Command::ValidateTrace)
                .ok_or_else(|| "`validate-trace` needs a <file>".to_string()),
            name => {
                let part = Part::ALL
                    .into_iter()
                    .find(|part| part.name() == name)
                    .ok_or_else(|| format!("unknown part `{name}`"))?;
                let mut options = Options {
                    part,
                    quick: false,
                    check: false,
                    label: "local".to_string(),
                    output: workspace_root().join(format!("BENCH_{name}.json")),
                };
                let mut it = rest.iter();
                while let Some(arg) = it.next() {
                    let mut value = || match it.next() {
                        Some(value) if !value.starts_with("--") => Ok(value.clone()),
                        _ => Err(format!("`{arg}` needs a value")),
                    };
                    match arg.as_str() {
                        "--quick" => options.quick = true,
                        "--check" => options.check = true,
                        "--label" => options.label = value()?,
                        "--output" => options.output = value()?.into(),
                        other => return Err(format!("unknown argument `{other}`")),
                    }
                }
                Ok(Command::Run(options))
            }
        }
    }
}

/// Report a gate: `ok: <ok>` when `failures` is empty, else one
/// `FAIL: <failure>` line each and exit 1.
pub fn gate(ok: &str, failures: Vec<String>) {
    if failures.is_empty() {
        println!("ok: {ok}");
        return;
    }
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    std::process::exit(1);
}

/// Report one failed check as `FAIL: <failure>` and exit 1.
pub fn fail(failure: &str) -> ! {
    eprintln!("FAIL: {failure}");
    std::process::exit(1);
}

/// `x` rounded to `digits` decimals, the precision an entry records.
pub fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

/// A table of `fields`, in order.
pub fn table<'a>(fields: impl IntoIterator<Item = (&'a str, ConfigValue)>) -> ConfigValue {
    let mut table = ConfigValue::table();
    for (key, value) in fields {
        table.insert(key, value);
    }
    table
}

/// The fields that name the W1 snapshot an entry measured.
pub fn scenario_fields(scenario: &Scenario) -> [(&'static str, ConfigValue); 4] {
    [
        ("scenario", Str(scenario.name.clone())),
        ("seed", Integer(scenario.seed as i64)),
        ("episodes", Integer(scenario.search.episodes as i64)),
        (
            "hardware_trials",
            Integer(scenario.search.hardware_trials as i64),
        ),
    ]
}

impl Options {
    /// One trajectory entry: the `label`/`mode`/`date` header and the
    /// `machine` fingerprint, then the part's `fields`, then its gate
    /// field.
    pub fn entry<'a>(
        &self,
        machine: ConfigValue,
        fields: impl IntoIterator<Item = (&'a str, ConfigValue)>,
    ) -> ConfigValue {
        let mode = if self.quick { "quick" } else { "full" };
        let header = [
            ("label", Str(self.label.clone())),
            ("mode", Str(mode.to_string())),
            ("date", Str(today_utc())),
            ("machine", machine),
        ];
        let gate = (self.part.gate_field(), Str("ok".to_string()));
        table(header.into_iter().chain(fields).chain([gate]))
    }

    /// Probe the [`machine`], then append the part's entry to its
    /// trajectory file; exit 1 when the file cannot be extended.
    pub fn record<'a>(&self, fields: impl IntoIterator<Item = (&'a str, ConfigValue)>) {
        let entry = self.entry(machine(), fields);
        if let Err(e) = append_entry(&self.output, self.part.bench(), entry) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        println!("wrote {}", self.output.display());
    }
}

/// Append `entry` to the trajectory file at `path`.  A missing file
/// becomes `{"schema": 1, "bench": <bench>, "entries": [entry]}`.  An
/// existing file must parse and hold `bench`'s entries; otherwise it is an
/// error and the file is left as it was.
pub fn append_entry(path: &Path, bench: &str, entry: ConfigValue) -> Result<(), String> {
    let shown = path.display();
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => {
            value::parse_json(&text).map_err(|e| format!("cannot parse existing {shown}: {e}"))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => table([
            ("schema", Integer(1)),
            ("bench", Str(bench.to_string())),
            ("entries", Array(Vec::new())),
        ]),
        Err(e) => return Err(format!("cannot read {shown}: {e}")),
    };
    let held = root.get("bench").and_then(ConfigValue::as_str);
    if held != Some(bench) {
        let held = held.unwrap_or("no");
        return Err(format!("{shown} holds {held} entries, not {bench}"));
    }
    let Some(Array(entries)) = root.get("entries") else {
        return Err(format!("{shown} has no `entries` array"));
    };
    let mut entries = entries.clone();
    entries.push(entry);
    root.insert("entries", Array(entries));
    std::fs::write(path, value::to_json(&root) + "\n")
        .map_err(|e| format!("cannot write {shown}: {e}"))
}

/// The machine an entry was measured on: `nproc`, the `cpu` model, and
/// `parallel_ratio`, how many CPUs' worth of throughput two CPU-bound
/// threads get together (2.0 on two free cores, 1.0 when they share one).
/// The probe runs for about a second.
pub fn machine() -> ConfigValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, model) = line.split_once(':')?;
                (key.trim() == "model name").then(|| model.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    table([
        ("nproc", Integer(nproc as i64)),
        ("cpu", Str(cpu)),
        ("parallel_ratio", Float(round(parallel_ratio(), 2))),
    ])
}

/// A fixed CPU-bound loop run twice one after the other, over the same
/// two runs on two threads at once: the fastest of five alternating rounds
/// of each, so that a neighbour's burst during one round does not skew the
/// ratio.
fn parallel_ratio() -> f64 {
    fn spin() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..30_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    }
    let (mut sequential, mut parallel) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let start = Instant::now();
        spin();
        spin();
        sequential = sequential.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(spin);
            spin();
        });
        parallel = parallel.min(start.elapsed().as_secs_f64());
    }
    sequential / parallel.max(f64::MIN_POSITIVE)
}

/// W1 at seed 2020, the scenario the timed parts measure: 6 episodes under
/// `--quick`, else `full_episodes`.
pub fn w1_snapshot(quick: bool, full_episodes: usize) -> Scenario {
    let mut scenario = registry::get("w1").expect("w1 is built in");
    scenario.seed = 2020;
    let (episodes, hardware_trials, bound_samples) = if quick {
        (6, 3, 5)
    } else {
        (full_episodes, 5, 20)
    };
    scenario.search.episodes = episodes;
    scenario.search.hardware_trials = hardware_trials;
    scenario.search.bound_samples = bound_samples;
    scenario
}

/// The builtin scenario `name` at the budget the identity gates run: seed
/// 11, 3 episodes, 2 hardware trials, 3 bound samples.
pub fn gate_scenario(name: &str) -> Scenario {
    let mut scenario = registry::get(name).expect("a builtin scenario");
    scenario.seed = 11;
    scenario.search.episodes = 3;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 3;
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        Command::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn options(part: Part, output: PathBuf) -> Options {
        Options {
            part,
            quick: false,
            check: false,
            label: "local".to_string(),
            output,
        }
    }

    #[test]
    fn parser_reads_every_flag_and_defaults_the_rest() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{root:?}");
        for part in Part::ALL {
            let default = options(part, root.join(format!("BENCH_{}.json", part.name())));
            assert_eq!(parse(&[part.name()]), Ok(Command::Run(default)));
        }
        let full = parse(&[
            "search",
            "--quick",
            "--check",
            "--label",
            "ci",
            "--output",
            "/tmp/b.json",
        ]);
        let expected = Options {
            quick: true,
            check: true,
            label: "ci".to_string(),
            ..options(Part::Search, PathBuf::from("/tmp/b.json"))
        };
        assert_eq!(full, Ok(Command::Run(expected)));
        assert_eq!(parse(&["lint"]), Ok(Command::Lint(root)));
        assert_eq!(parse(&["lint", "d"]), Ok(Command::Lint("d".into())));
        assert_eq!(
            parse(&["validate-trace", "t.jsonl"]),
            Ok(Command::ValidateTrace("t.jsonl".into()))
        );
    }

    #[test]
    fn parser_rejects_what_it_does_not_know_instead_of_panicking() {
        for args in [
            &[][..],
            &["all"],
            &["eval", "--bogus"],
            &["eval", "stray"],
            &["eval", "--label"],
            &["eval", "--label", "--quick"],
            &["eval", "--output"],
            &["lint", "a", "b"],
            &["lint", "--quick"],
            &["validate-trace"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
        assert_eq!(
            parse(&["eval", "--label"]),
            Err("`--label` needs a value".to_string())
        );
    }

    /// A fresh directory for one test's files, removed when the guard
    /// drops, so a failing test cleans up as well as a passing one.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("nasaic-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn fields(wall_ms: f64) -> Vec<(&'static str, ConfigValue)> {
        vec![("wall_ms", ConfigValue::Float(wall_ms))]
    }

    #[test]
    fn writer_creates_a_fresh_trajectory_file() {
        let dir = temp_dir("fresh");
        let path = dir.join("BENCH_eval.json");
        let options = options(Part::Eval, path.clone());
        let entry = options.entry(ConfigValue::table(), fields(1.5));
        append_entry(&path, "eval_hotpath", entry.clone()).expect("append");
        let root = value::parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(root.get("schema"), Some(&ConfigValue::Integer(1)));
        assert_eq!(
            root.get("bench").and_then(ConfigValue::as_str),
            Some("eval_hotpath")
        );
        assert_eq!(
            root.get("entries"),
            Some(&ConfigValue::Array(vec![entry.clone()]))
        );
        let keys: Vec<&str> = entry
            .as_table()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "label",
                "mode",
                "date",
                "machine",
                "wall_ms",
                "identity_gate"
            ]
        );
    }

    #[test]
    fn appending_leaves_earlier_entries_byte_identical() {
        let dir = temp_dir("append");
        let path = dir.join("BENCH_eval.json");
        let options = options(Part::Eval, path.clone());
        let mut machine = ConfigValue::table();
        machine.insert("parallel_ratio", ConfigValue::Float(1.07));
        let entry = |wall_ms| options.entry(machine.clone(), fields(wall_ms));
        append_entry(&path, "eval_hotpath", entry(0.1)).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        append_entry(&path, "eval_hotpath", entry(2.0)).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        // The first file up to the end of its last entry is a prefix of
        // the second.
        let kept = first
            .trim_end()
            .trim_end_matches('}')
            .trim_end()
            .trim_end_matches(']');
        let kept = kept.trim_end();
        assert!(second.starts_with(kept), "{first}\n---\n{second}");
        assert_eq!(second[kept.len()..].matches("\"wall_ms\"").count(), 1);
    }

    #[test]
    fn unparsable_or_foreign_files_are_errors_and_stay_untouched() {
        let dir = temp_dir("bad");
        let path = dir.join("BENCH_eval.json");
        let entry = options(Part::Eval, path.clone()).entry(ConfigValue::table(), fields(1.0));
        for text in [
            "{\"schema\": 1, \"bench\": \"eval_hotpath\", \"entries\": [",
            "[1, 2]",
            "{\"schema\": 1, \"bench\": \"eval_hotpath\", \"entries\": 3}",
            "{\"schema\": 1, \"bench\": \"serve\", \"entries\": []}",
        ] {
            std::fs::write(&path, text).unwrap();
            assert!(
                append_entry(&path, "eval_hotpath", entry.clone()).is_err(),
                "{text}"
            );
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
    }

    #[test]
    fn machine_fingerprint_names_the_cpu_and_measures_parallelism() {
        let machine = machine();
        let nproc = machine.get("nproc").and_then(ConfigValue::as_integer);
        assert!(nproc.is_some_and(|n| n >= 1), "{machine:?}");
        let cpu = machine.get("cpu").and_then(ConfigValue::as_str);
        assert!(cpu.is_some_and(|cpu| !cpu.is_empty()), "{machine:?}");
        let ratio = machine
            .get("parallel_ratio")
            .and_then(ConfigValue::as_float);
        assert!(ratio.is_some_and(|r| r > 0.0 && r < 4.0), "{machine:?}");
    }
}
