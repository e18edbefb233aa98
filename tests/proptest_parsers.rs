//! The parser net: every parser of input from outside the program — a
//! scenario file (TOML or JSON), a daemon request line, a shard partial
//! and a cache export — gives a value or an error for arbitrary bytes and
//! for mutated valid documents, never a panic; and the valid documents
//! round-trip.  Checkpoints get the same treatment in
//! `tests/proptest_resume.rs`.

use nasaic::core::prelude::*;
use nasaic::core::scenario::value::{parse_json, to_json_compact, ConfigValue};
use nasaic::serve::Request;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The parsers under test.
#[derive(Debug, Clone, Copy)]
enum Parser {
    ScenarioToml,
    ScenarioJson,
    RequestLine,
    ShardPartialJson,
    CacheExport,
}

const PARSERS: [Parser; 5] = [
    Parser::ScenarioToml,
    Parser::ScenarioJson,
    Parser::RequestLine,
    Parser::ShardPartialJson,
    Parser::CacheExport,
];

/// Valid documents of every parser, and what parsing them needs.
struct Fixtures {
    /// The scenario the partials and cache exports belong to.
    scenario: Scenario,
    /// `(parser, document)` pairs.
    documents: Vec<(Parser, String)>,
}

/// A test-sized w1 scenario.
fn shrunk_w1() -> Scenario {
    let mut scenario = registry::get("w1").expect("built-in");
    scenario.search.episodes = 3;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 3;
    scenario.seed = 7;
    scenario
}

/// [`shrunk_w1`] with a description of non-ASCII and control characters.
fn described_w1() -> Scenario {
    let mut scenario = shrunk_w1();
    scenario.description = "café \u{7} ☃ 😀 \t\r\n \u{0}\u{1b}\u{7f}".to_string();
    scenario
}

/// `json` as Python's `json.dumps` writes it by default: every non-ASCII
/// character as a `\uXXXX` escape, one outside the Basic Multilingual
/// Plane as a surrogate pair.
fn ascii_escaped(json: &str) -> String {
    let mut out = String::new();
    for c in json.chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        }
    }
    out
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let scenario = shrunk_w1();
        let mut documents = Vec::new();
        for name in registry::names() {
            let builtin = registry::get(name).expect("built-in");
            documents.push((Parser::ScenarioToml, builtin.to_toml_string()));
            documents.push((Parser::ScenarioJson, builtin.to_json_string()));
        }
        let described = described_w1();
        documents.push((Parser::ScenarioToml, described.to_toml_string()));
        documents.push((Parser::ScenarioJson, described.to_json_string()));
        documents.push((
            Parser::ScenarioJson,
            ascii_escaped(&described.to_json_string()),
        ));
        for request in requests(&scenario) {
            documents.push((Parser::RequestLine, to_json_compact(&request.to_value())));
        }
        let engine = scenario.engine();
        for algorithm in [Algorithm::MonteCarlo, Algorithm::Nasaic] {
            let plan = scenario.algorithm_shard_plan(algorithm, &engine, 2);
            let partial = scenario.run_algorithm_shard(algorithm, &engine, &NullObserver, &plan, 0);
            documents.push((Parser::ShardPartialJson, partial.to_json()));
        }
        documents.push((
            Parser::CacheExport,
            to_json_compact(&engine.export_caches()),
        ));
        Fixtures {
            scenario,
            documents,
        }
    })
}

/// One request of every kind.
fn requests(scenario: &Scenario) -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Submit {
            scenario: scenario.to_value(),
            watch: true,
        },
        Request::Submit {
            scenario: scenario.to_value(),
            watch: false,
        },
        Request::Cancel { job: 3 },
        Request::ShowJobs,
        Request::ShowCache,
        Request::ShowIncumbent { job: 1 },
        Request::ShowMetrics,
        Request::Shutdown,
    ]
}

/// The `document`-th valid document (modulo their count) of the
/// `parser`-th parser among `parsers`.
fn pick_document(parsers: &[Parser], parser: usize, document: usize) -> (Parser, &'static str) {
    let parser = parsers[parser % parsers.len()];
    let of_parser: Vec<&str> = fixtures()
        .documents
        .iter()
        .filter(|(kind, _)| std::mem::discriminant(kind) == std::mem::discriminant(&parser))
        .map(|(_, text)| text.as_str())
        .collect();
    (parser, of_parser[document % of_parser.len()])
}

/// Parse `text` with `parser`; `true` when it gave a value.
fn parses(parser: Parser, text: &str) -> bool {
    let fixtures = fixtures();
    match parser {
        Parser::ScenarioToml => Scenario::from_toml_str(text).is_ok(),
        Parser::ScenarioJson => Scenario::from_json_str(text).is_ok(),
        Parser::RequestLine => Request::parse_line(text).is_ok(),
        Parser::ShardPartialJson => {
            ShardPartial::parse_json(text, &fixtures.scenario.workload()).is_ok()
        }
        Parser::CacheExport => parse_json(text)
            .and_then(|export| fixtures.scenario.engine().import_caches(&export))
            .is_ok(),
    }
}

#[test]
fn valid_documents_round_trip_through_every_parser() {
    let fixtures = fixtures();
    for name in registry::names() {
        let builtin = registry::get(name).expect("built-in");
        let toml = Scenario::from_toml_str(&builtin.to_toml_string()).expect("TOML parses");
        assert_eq!(toml, builtin, "{name} through TOML");
        let json = Scenario::from_json_str(&builtin.to_json_string()).expect("JSON parses");
        assert_eq!(json, builtin, "{name} through JSON");
    }
    let described = described_w1();
    let ascii = ascii_escaped(&described.to_json_string());
    assert!(
        ascii.contains(r"caf\u00e9 \u0007 \u2603 \ud83d\ude00"),
        "{ascii}"
    );
    for (format, parsed) in [
        ("TOML", Scenario::from_toml_str(&described.to_toml_string())),
        ("JSON", Scenario::from_json_str(&described.to_json_string())),
        ("ASCII-escaped JSON", Scenario::from_json_str(&ascii)),
    ] {
        assert_eq!(parsed.expect(format), described, "{format}");
    }
    for request in requests(&fixtures.scenario) {
        let line = to_json_compact(&request.to_value());
        assert_eq!(Request::parse_line(&line).expect("request parses"), request);
    }
    let workload = fixtures.scenario.workload();
    for (parser, document) in &fixtures.documents {
        match parser {
            Parser::ShardPartialJson => {
                let partial = ShardPartial::parse_json(document, &workload).expect("parses");
                assert_eq!(&partial.to_json(), document);
            }
            Parser::CacheExport => {
                let engine = fixtures.scenario.engine();
                engine
                    .import_caches(&parse_json(document).expect("export parses"))
                    .expect("export imports");
                assert_eq!(&to_json_compact(&engine.export_caches()), document);
            }
            _ => assert!(parses(*parser, document), "{parser:?}: {document}"),
        }
    }
}

/// Characters and words of the documents' syntax, so that generated text
/// reaches past the first byte of each parser.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "=",
    "\n",
    " ",
    ".",
    "-",
    "0",
    "1",
    "7",
    "1e309",
    "2.5",
    "true",
    "null",
    "[[tasks]]",
    "[specs]",
    "[search]",
    "[hardware]",
    "name",
    "seed",
    "tasks",
    "backbone",
    "episodes",
    "\"cmd\"",
    "\"submit\"",
    "\"cancel\"",
    "\"job\"",
    "\"scenario\"",
    "\"outcome\"",
    "\"explored\"",
    "\"accuracy\"",
    "\"hardware\"",
    "\"subs\"",
    "\\u0000",
    "#",
];

/// A byte-level mutation of `document`: cut it, overwrite, insert, delete
/// or duplicate bytes, or insert a syntax token; `pick` places it.
fn mutate_text(document: &str, kind: usize, pick: u64, junk: &[u8]) -> String {
    let mut bytes = document.as_bytes().to_vec();
    let at = (pick % (bytes.len() as u64 + 1)) as usize;
    let end = (at + 1 + (pick >> 32) as usize % 64).min(bytes.len());
    match kind {
        0 => bytes.truncate(at),
        1 => bytes.splice(at..end, junk.iter().copied()).for_each(drop),
        2 => bytes.splice(at..at, junk.iter().copied()).for_each(drop),
        3 => bytes.drain(at..end).for_each(drop),
        4 => {
            let span = bytes[at..end].to_vec();
            bytes.splice(end..end, span).for_each(drop);
        }
        _ => {
            let token = TOKENS[(pick >> 40) as usize % TOKENS.len()];
            bytes.splice(at..at, token.bytes()).for_each(drop);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One step into a value tree: a table key or an array index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every node's path, descending into the first three items of each array
/// only (the rest repeat their shape).
fn paths(value: &ConfigValue, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(prefix.clone());
    let children: Vec<(Step, &ConfigValue)> = match value {
        ConfigValue::Table(entries) => entries
            .iter()
            .map(|(key, child)| (Step::Key(key.clone()), child))
            .collect(),
        ConfigValue::Array(items) => items
            .iter()
            .take(3)
            .enumerate()
            .map(|(index, child)| (Step::Index(index), child))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn node<'a>(value: &'a mut ConfigValue, path: &[Step]) -> &'a mut ConfigValue {
    path.iter().fold(value, |node, step| match (node, step) {
        (ConfigValue::Table(entries), Step::Key(key)) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("a path's key")
                .1
        }
        (ConfigValue::Array(items), Step::Index(index)) => &mut items[*index],
        _ => unreachable!("a path leads through tables and arrays"),
    })
}

/// A value-level mutation of a JSON document: at the `pick`-th node,
/// remove it from its table, change its type, move a number to an
/// extreme, grow, shrink or empty an array, or cut a string.
fn mutate_value(document: &str, kind: usize, pick: u64) -> String {
    let mut value = parse_json(document).expect("a valid JSON document");
    let mut all = Vec::new();
    paths(&value, &mut Vec::new(), &mut all);
    let path = &all[(pick % all.len() as u64) as usize];
    let variant = (pick >> 32) % 4;
    if let (0, Some(Step::Key(key))) = (kind, path.last()) {
        node(&mut value, &path[..path.len() - 1]).remove(key);
        return to_json_compact(&value);
    }
    let target = node(&mut value, path);
    *target = match (kind, target.clone()) {
        (1, ConfigValue::Str(_)) => ConfigValue::Integer(7),
        (1, ConfigValue::Table(_)) => ConfigValue::Array(Vec::new()),
        (1, ConfigValue::Array(_)) => ConfigValue::table(),
        (1, ConfigValue::Bool(_)) => ConfigValue::Float(0.5),
        (1, _) => ConfigValue::Str("x".to_string()),
        (2, ConfigValue::Integer(_)) => {
            ConfigValue::Integer([-1, 0, i64::MAX, i64::MIN][variant as usize])
        }
        (2, ConfigValue::Float(_)) => {
            ConfigValue::Float([-1.0, 0.0, 1e308, -1e308][variant as usize])
        }
        (3, ConfigValue::Array(mut items)) => {
            match variant {
                0 if !items.is_empty() => items.push(items[0].clone()),
                1 => drop(items.pop()),
                2 => items.clear(),
                _ => items.push(ConfigValue::Array(Vec::new())),
            }
            ConfigValue::Array(items)
        }
        (_, ConfigValue::Str(text)) => {
            ConfigValue::Str(text.chars().take(text.chars().count() / 2).collect())
        }
        (_, other) => other,
    };
    to_json_compact(&value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes give every parser a value or an error.
    #[test]
    fn arbitrary_bytes_never_panic_a_parser(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        for parser in PARSERS {
            parses(parser, &text);
        }
    }

    /// Text made of the documents' own syntax gives every parser a value
    /// or an error.
    #[test]
    fn syntax_soup_never_panics_a_parser(tokens in proptest::collection::vec(0..TOKENS.len(), 0..160)) {
        let text: String = tokens.iter().map(|&token| TOKENS[token]).collect();
        for parser in PARSERS {
            parses(parser, &text);
        }
    }

    /// A valid document with its bytes cut, overwritten, inserted,
    /// deleted or duplicated gives its parser a value or an error.
    #[test]
    fn mutated_documents_never_panic_their_parser(
        parser in 0..PARSERS.len(),
        document in 0..64usize,
        kind in 0..6usize,
        pick in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let (parser, text) = pick_document(&PARSERS, parser, document);
        parses(parser, &mutate_text(text, kind, pick, &junk));
    }

    /// A valid JSON document with one node removed, retyped, pushed to an
    /// extreme, resized or cut gives its parser a value or an error.
    #[test]
    fn mutated_values_never_panic_their_parser(
        parser in 0..PARSERS.len() - 1,
        document in 0..64usize,
        kind in 0..4usize,
        pick in any::<u64>(),
    ) {
        // Every parser but the TOML one reads JSON.
        let (parser, text) = pick_document(&PARSERS[1..], parser, document);
        parses(parser, &mutate_value(text, kind, pick));
    }
}

#[test]
fn a_shard_partial_with_an_unbounded_residual_depth_is_an_error() {
    // Found by `mutated_values_never_panic_their_parser`: a record's
    // ResNet `SK_1` at `i64::MAX` made the decoder build that many layers,
    // and the process died on the allocation.
    let fixtures = fixtures();
    let (_, document) = pick_document(&[Parser::ShardPartialJson], 0, 0);
    let mut partial = parse_json(document).expect("a valid partial");
    let path = [
        Step::Key("outcome".to_string()),
        Step::Key("explored".to_string()),
        Step::Index(0),
        Step::Key("candidate".to_string()),
        Step::Key("arch_values".to_string()),
        Step::Index(0),
        Step::Index(2),
    ];
    *node(&mut partial, &path) = ConfigValue::Integer(i64::MAX);
    let error = ShardPartial::parse_json(&to_json_compact(&partial), &fixtures.scenario.workload())
        .expect_err("an unbounded residual depth");
    assert!(error.to_string().contains("extra convolutions"), "{error}");
}
