//! `lint [dir]` and `validate-trace <file>`: schema checks of the files the
//! harness and `nasaic run --trace` write.
//!
//! `lint` scans `dir` non-recursively for `BENCH_*.json` and requires, for
//! each file:
//!
//! * top level: `schema == 1`, a non-empty `bench` string, a non-empty
//!   `entries` array;
//! * per entry: `label` (string), `mode` (string), `date`
//!   (`YYYY-MM-DD`), and at least one gate field — `identity_gate`,
//!   `consistency_gate`, `consistency`, or `dispatch_gate`.
//!
//! It exits 1 listing every violation, and also when it finds no
//! trajectory file at all: a lint that lints nothing is misconfigured.
//!
//! `validate-trace` requires JSON lines, each tagged with `event`, ending
//! with `search_finished`; it exits 1 on any violation.

use nasaic_bench::gate;
use nasaic_core::scenario::value::{self, ConfigValue};
use std::path::Path;

/// Fields any one of which marks an entry as carrying a pass/fail gate.
const GATE_FIELDS: [&str; 4] = [
    "identity_gate",
    "consistency_gate",
    "consistency",
    "dispatch_gate",
];

fn is_iso_date(s: &str) -> bool {
    let bytes = s.as_bytes();
    bytes.len() == 10
        && bytes[4] == b'-'
        && bytes[7] == b'-'
        && [0, 1, 2, 3, 5, 6, 8, 9]
            .iter()
            .all(|&i| bytes[i].is_ascii_digit())
}

fn lint_entry(entry: &ConfigValue, errors: &mut Vec<String>, at: &str) {
    if entry.as_table().is_none() {
        errors.push(format!("{at}: entry is not a table"));
        return;
    }
    for field in ["label", "mode"] {
        match entry.get(field).and_then(|v| v.as_str()) {
            Some(s) if !s.is_empty() => {}
            _ => errors.push(format!("{at}: missing or empty `{field}` string")),
        }
    }
    match entry.get("date").and_then(|v| v.as_str()) {
        Some(date) if is_iso_date(date) => {}
        Some(date) => errors.push(format!("{at}: `date` \"{date}\" is not YYYY-MM-DD")),
        None => errors.push(format!("{at}: missing `date` field")),
    }
    if !GATE_FIELDS.iter().any(|f| entry.get(f).is_some()) {
        errors.push(format!(
            "{at}: no gate field (expected one of {})",
            GATE_FIELDS.join(", ")
        ));
    }
}

fn lint_file(path: &Path, errors: &mut Vec<String>) {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            errors.push(format!("{name}: unreadable: {e}"));
            return;
        }
    };
    let root = match value::parse_json(&text) {
        Ok(root) => root,
        Err(e) => {
            errors.push(format!("{name}: invalid JSON: {e}"));
            return;
        }
    };
    match root.get("schema").and_then(|v| v.as_integer()) {
        Some(1) => {}
        Some(other) => errors.push(format!("{name}: unknown schema {other} (expected 1)")),
        None => errors.push(format!("{name}: missing integer `schema`")),
    }
    match root.get("bench").and_then(|v| v.as_str()) {
        Some(bench) if !bench.is_empty() => {}
        _ => errors.push(format!("{name}: missing or empty `bench` string")),
    }
    match root.get("entries").and_then(|v| v.as_array()) {
        Some(entries) if !entries.is_empty() => {
            for (i, entry) in entries.iter().enumerate() {
                lint_entry(entry, errors, &format!("{name} entries[{i}]"));
            }
        }
        Some(_) => errors.push(format!("{name}: `entries` is empty")),
        None => errors.push(format!("{name}: missing `entries` array")),
    }
}

/// Lint every `BENCH_*.json` in `dir`; returns how many files it read and
/// every violation.
fn lint_dir(dir: &Path) -> std::io::Result<(usize, Vec<String>)> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let mut errors = Vec::new();
    for path in &paths {
        lint_file(path, &mut errors);
    }
    Ok((paths.len(), errors))
}

/// `nasaic-bench lint [dir]`.
pub fn trajectories(dir: &Path) {
    let shown = dir.display();
    let (files, errors) = lint_dir(dir).unwrap_or_else(|e| {
        eprintln!("lint: cannot read {shown}: {e}");
        std::process::exit(2);
    });
    if files == 0 {
        eprintln!("lint: no BENCH_*.json files found in {shown}");
        std::process::exit(1);
    }
    gate(&format!("{files} trajectory files in {shown}"), errors);
}

/// Check a `nasaic run --trace` file; returns the failures.
fn trace_failures(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    let mut failures = Vec::new();
    let mut last_kind = None;
    let mut lines = 0usize;
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            failures.push(format!("line {}: empty line in trace", index + 1));
            continue;
        }
        lines += 1;
        match value::parse_json(line) {
            Err(e) => failures.push(format!("line {}: not valid JSON ({e})", index + 1)),
            Ok(event) => match event.get("event").and_then(|v| v.as_str()) {
                None => failures.push(format!("line {}: missing `event` tag", index + 1)),
                Some(kind) => last_kind = Some(kind.to_string()),
            },
        }
    }
    if lines == 0 {
        failures.push("trace is empty".to_string());
    }
    if last_kind.as_deref() != Some("search_finished") && failures.is_empty() {
        failures.push(format!(
            "trace does not end with `search_finished` (last event: {last_kind:?})"
        ));
    }
    failures
}

/// `nasaic-bench validate-trace <file>`.
pub fn trace(path: &Path) {
    let ok = format!("{} is a valid search trace", path.display());
    gate(&ok, trace_failures(path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_bench::{append_entry, machine, Options, Part};
    use std::path::PathBuf;

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

    #[test]
    fn iso_date_validation() {
        assert!(is_iso_date("2026-08-08"));
        assert!(!is_iso_date("2026-8-8"));
        assert!(!is_iso_date("08-08-2026"));
        assert!(!is_iso_date("2026-08-08T00:00"));
    }

    #[test]
    fn entry_lint_catches_each_violation() {
        let mut good = ConfigValue::table();
        good.insert("label", ConfigValue::Str("seed".to_string()));
        good.insert("mode", ConfigValue::Str("full".to_string()));
        good.insert("date", ConfigValue::Str("2026-08-08".to_string()));
        good.insert("identity_gate", ConfigValue::Str("ok".to_string()));
        let mut errors = Vec::new();
        lint_entry(&good, &mut errors, "t");
        assert!(errors.is_empty(), "{errors:?}");

        let mut bad = good.clone();
        bad.remove("date");
        bad.remove("identity_gate");
        let mut errors = Vec::new();
        lint_entry(&bad, &mut errors, "t");
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn lint_accepts_what_the_writer_produces_for_every_part() {
        let dir = temp_dir("lint");
        let machine = machine();
        for (i, part) in Part::ALL.into_iter().enumerate() {
            let options = Options {
                part,
                quick: i % 2 == 0,
                check: false,
                label: "test".to_string(),
                output: dir.join(format!("BENCH_{}.json", part.name())),
            };
            let wall = ("wall_ms", ConfigValue::Float(1.0));
            let entry = options.entry(machine.clone(), vec![wall]);
            append_entry(&options.output, part.bench(), entry).expect("append");
        }
        assert_eq!(lint_dir(&dir).expect("read dir"), (7, Vec::new()));
        assert_eq!(
            lint_dir(&nasaic_bench::workspace_root()).unwrap().1,
            Vec::<String>::new()
        );
    }

    #[test]
    fn trace_check_requires_tagged_lines_ending_in_search_finished() {
        let dir = temp_dir("trace");
        let path = dir.join("trace.jsonl");
        for (text, ok) in [
            (
                "{\"event\":\"episode\"}\n{\"event\":\"search_finished\"}\n",
                true,
            ),
            ("{\"event\":\"episode\"}\n", false),
            ("{\"event\":\"episode\"}\nnot json\n", false),
            ("{\"kind\":\"search_finished\"}\n", false),
            ("", false),
        ] {
            std::fs::write(&path, text).unwrap();
            assert_eq!(trace_failures(&path).is_empty(), ok, "{text:?}");
        }
    }
}
