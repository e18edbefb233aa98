//! The self-describing configuration value scenarios are parsed from and
//! serialized to.
//!
//! The build environment is offline (see `vendor/README.md`), so the
//! vendored `serde` is a marker-trait stand-in without a data model.  This
//! module supplies the small piece that scenario configs actually need: a
//! [`ConfigValue`] tree plus parsers and emitters for a TOML subset and for
//! JSON.  The TOML subset covers exactly what the scenario schema uses —
//! bare keys, basic strings, integers, floats, booleans, inline arrays,
//! `[table]` headers and `[[array-of-tables]]` headers — and rejects
//! everything else with a line-numbered error instead of guessing.
//! Strings take the escapes JSON defines (`\"`, `\\`, `\/`, `\b`, `\f`,
//! `\n`, `\r`, `\t` and `\uXXXX`, a surrogate pair combining into one
//! character), and the emitters escape every character below U+0020, so
//! documents pass to and from other JSON tools.
//!
//! Nesting is bounded: a document whose tables and arrays nest deeper than
//! 64 levels is rejected with a line-numbered error, so no input (a
//! scenario file, a wire request, a checkpoint, a shard partial or a cache
//! export) can exhaust the stack of the recursive parser, the emitters or
//! the value's destructor.
//!
//! Every document the program reads is decoded through one reader,
//! [`Fields`]: a view of one table whose typed reads fail with an error
//! naming the field's path (`scenario.search.episodes`,
//! `cache export.hardware[3].subs`) and the offending value.  A view made
//! by [`ConfigValue::strict_fields`] (scenarios) also rejects keys it was
//! not asked for; every other document ignores them, so a reader accepts
//! what an older or newer writer adds.

use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;

/// The deepest nesting of tables and arrays a parsed document may have.
/// In JSON every object and array is one level; in TOML every dotted
/// header segment is one level, and a value's arrays count on from its
/// table's depth.  The deepest documents this system writes (checkpoints)
/// nest 8 levels.
const MAX_NESTING: usize = 64;

/// A parsed configuration value (the common data model of the TOML and
/// JSON frontends).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Integer(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list of values.
    Array(Vec<ConfigValue>),
    /// An insertion-ordered table (TOML table / JSON object).
    Table(Vec<(String, ConfigValue)>),
}

/// A parse or schema error, with the 1-based input line where available
/// (`line == 0` means "no specific line", e.g. a missing key).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// 1-based line of the offending input, or 0 when not line-specific.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ConfigError {
    /// An error tied to an input line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// An error with no specific line (schema-level problems).
    pub fn schema(message: impl Into<String>) -> Self {
        Self::at(0, message)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigValue {
    /// An empty table.
    pub fn table() -> Self {
        ConfigValue::Table(Vec::new())
    }

    /// Look a key up in a table value (returns `None` for non-tables).
    pub fn get(&self, key: &str) -> Option<&ConfigValue> {
        match self {
            ConfigValue::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert (or replace) a key in a table value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table.
    pub fn insert(&mut self, key: &str, value: ConfigValue) {
        let ConfigValue::Table(entries) = self else {
            panic!("insert on a non-table config value");
        };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// Remove a key from a table value, returning its value if present
    /// (no-op `None` for non-tables and missing keys).
    pub fn remove(&mut self, key: &str) -> Option<ConfigValue> {
        let ConfigValue::Table(entries) = self else {
            return None;
        };
        let index = entries.iter().position(|(k, _)| k == key)?;
        Some(entries.remove(index).1)
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfigValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ConfigValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            ConfigValue::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric content as a float (integers widen losslessly for the
    /// magnitudes scenario configs use).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ConfigValue::Float(x) => Some(*x),
            ConfigValue::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The array content, if this is an array.
    pub fn as_array(&self) -> Option<&[ConfigValue]> {
        match self {
            ConfigValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The table entries, if this is a table.
    pub fn as_table(&self) -> Option<&[(String, ConfigValue)]> {
        match self {
            ConfigValue::Table(entries) => Some(entries),
            _ => None,
        }
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigValue::Bool(_) => "boolean",
            ConfigValue::Integer(_) => "integer",
            ConfigValue::Float(_) => "float",
            ConfigValue::Str(_) => "string",
            ConfigValue::Array(_) => "array",
            ConfigValue::Table(_) => "table",
        }
    }

    /// A view of this table for typed reads, whose errors name it `name`
    /// (`scenario`, `checkpoint`, `cache export`; with an empty name, a
    /// field's path starts at its key).  The view ignores keys it is not
    /// asked for.
    pub fn fields<'a>(&'a self, name: &'a str) -> Result<Fields<'a>, ConfigError> {
        Fields::new(Place::Root(name), self, None)
    }

    /// [`fields`](Self::fields) for a table that rejects unknown keys: the
    /// view and every table read through it record the keys they are
    /// asked for, and [`Fields::finish`] rejects any other.  A required
    /// key such a table lacks is an error that lists the keys it holds.
    pub fn strict_fields<'a>(&'a self, name: &'a str) -> Result<Fields<'a>, ConfigError> {
        Fields::new(Place::Root(name), self, Some(RefCell::default()))
    }
}

// ---------------------------------------------------------------------------
// Typed field reads
// ---------------------------------------------------------------------------

/// Where a value sits in its document.  A place borrows its parent's, so a
/// view costs no allocation; the path is written out only into an error.
#[derive(Debug, Clone, Copy)]
enum Place<'a> {
    /// A document (or a value decoded on its own) by name.
    Root(&'a str),
    /// Field `key` of the table at the parent place.
    Key(&'a Place<'a>, &'static str),
    /// Item `index` of the array in field `key` of the parent place.
    Item(&'a Place<'a>, &'static str, usize),
}

impl fmt::Display for Place<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (parent, key) = match *self {
            Place::Root(name) => return f.write_str(name),
            Place::Key(parent, key) | Place::Item(parent, key, _) => (parent, key),
        };
        match parent {
            Place::Root("") => f.write_str(key)?,
            parent => write!(f, "{parent}.{key}")?,
        }
        match self {
            Place::Item(_, _, index) => write!(f, "[{index}]"),
            _ => Ok(()),
        }
    }
}

/// The error for `value` at `place` where `expected` belongs.
fn mismatch(place: &Place<'_>, expected: &str, value: &ConfigValue) -> ConfigError {
    let shown = match value {
        ConfigValue::Array(_) => "an array".to_string(),
        ConfigValue::Table(_) => "a table".to_string(),
        ConfigValue::Str(text) if text.len() > 40 => format!("a string of {} bytes", text.len()),
        scalar => {
            let mut text = String::new();
            emit_scalar(scalar, &mut text);
            text
        }
    };
    match place {
        Place::Root("") => ConfigError::schema(format!("expected {expected}, got {shown}")),
        place => ConfigError::schema(format!("{place} must be {expected}, got {shown}")),
    }
}

const STRING: &str = "a string";
const UINT: &str = "a non-negative integer";
const NUMBER: &str = "a number";
const BOOLEAN: &str = "a boolean";
const ARRAY: &str = "an array";
const TABLE: &str = "a table";

/// A view of one table of a parsed document, for typed reads.
///
/// Each read names the key it wants.  An absent key is `None` from the
/// `opt_` reads and an error from the others; a present value of another
/// kind is always an error.  Errors name the field by its path from the
/// document's root — `scenario.tasks[1].weight must be a number, got
/// "heavy"` — so no decoder restates where it is.  Values that another
/// codec decodes ([`decode`](Self::decode), [`each`](Self::each)) get the
/// path in front of that codec's error.
#[derive(Debug)]
pub struct Fields<'a> {
    place: Place<'a>,
    entries: &'a [(String, ConfigValue)],
    /// The keys asked for so far, kept by a strict view only.
    asked: Option<RefCell<Vec<&'static str>>>,
}

impl<'a> Fields<'a> {
    fn new(
        place: Place<'a>,
        value: &'a ConfigValue,
        asked: Option<RefCell<Vec<&'static str>>>,
    ) -> Result<Self, ConfigError> {
        match value {
            ConfigValue::Table(entries) => Ok(Self {
                place,
                entries,
                asked,
            }),
            other => Err(mismatch(&place, TABLE, other)),
        }
    }

    /// A view of `value` at `place`, as strict as this one.
    fn child<'s>(
        &'s self,
        place: Place<'s>,
        value: &'s ConfigValue,
    ) -> Result<Fields<'s>, ConfigError> {
        Fields::new(
            place,
            value,
            self.asked.as_ref().map(|_| RefCell::default()),
        )
    }

    fn get(&self, key: &'static str) -> Option<&'a ConfigValue> {
        if let Some(asked) = &self.asked {
            let mut asked = asked.borrow_mut();
            if !asked.contains(&key) {
                asked.push(key);
            }
        }
        self.entries
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
    }

    /// The value at `key` through `convert`, which gives `None` for a value
    /// that is not `expected`.
    fn read<T>(
        &self,
        key: &'static str,
        expected: &str,
        convert: impl FnOnce(&'a ConfigValue) -> Option<T>,
    ) -> Result<Option<T>, ConfigError> {
        match self.get(key) {
            None => Ok(None),
            Some(value) => convert(value)
                .map(Some)
                .ok_or_else(|| mismatch(&Place::Key(&self.place, key), expected, value)),
        }
    }

    fn require<T>(
        &self,
        key: &'static str,
        expected: &str,
        found: Option<T>,
    ) -> Result<T, ConfigError> {
        found.ok_or_else(|| {
            let place = Place::Key(&self.place, key);
            let mut message = format!("{place} is missing, expected {expected}");
            // A strict view names the keys its table holds: a misspelt
            // required key fails here, before `finish` would name it.
            if self.asked.is_some() {
                let held: Vec<&str> = self.entries.iter().map(|(name, _)| name.as_str()).collect();
                let _ = write!(message, " ({} holds: {})", self.place, held.join(", "));
            }
            ConfigError::schema(message)
        })
    }

    /// An error for field `key` that passed its type but not a check
    /// beyond it: the field's path, then `reason` (`must be at least 1`).
    pub fn invalid(&self, key: &'static str, reason: impl fmt::Display) -> ConfigError {
        ConfigError::schema(format!("{} {reason}", Place::Key(&self.place, key)))
    }

    /// The value at `key`, of any kind.
    pub fn value(&self, key: &'static str) -> Result<&'a ConfigValue, ConfigError> {
        self.require(key, "a value", self.get(key))
    }

    /// The string at `key`.
    pub fn str(&self, key: &'static str) -> Result<&'a str, ConfigError> {
        self.require(key, STRING, self.opt_str(key)?)
    }

    /// The string at `key`, if present.
    pub fn opt_str(&self, key: &'static str) -> Result<Option<&'a str>, ConfigError> {
        self.read(key, STRING, ConfigValue::as_str)
    }

    /// The non-negative integer at `key`, as `T` (`u64`, `usize`).
    pub fn uint<T: TryFrom<i64>>(&self, key: &'static str) -> Result<T, ConfigError> {
        self.require(key, UINT, self.opt_uint(key)?)
    }

    /// The non-negative integer at `key`, if present.
    pub fn opt_uint<T: TryFrom<i64>>(&self, key: &'static str) -> Result<Option<T>, ConfigError> {
        self.read(key, UINT, |value| {
            value
                .as_integer()
                .filter(|&int| int >= 0)
                .and_then(|int| T::try_from(int).ok())
        })
    }

    /// The number at `key` (an integer widens to a float).
    pub fn number(&self, key: &'static str) -> Result<f64, ConfigError> {
        self.require(key, NUMBER, self.opt_number(key)?)
    }

    /// The number at `key`, if present.
    pub fn opt_number(&self, key: &'static str) -> Result<Option<f64>, ConfigError> {
        self.read(key, NUMBER, ConfigValue::as_float)
    }

    /// The boolean at `key`.
    pub fn bool(&self, key: &'static str) -> Result<bool, ConfigError> {
        self.require(key, BOOLEAN, self.opt_bool(key)?)
    }

    /// The boolean at `key`, if present.
    pub fn opt_bool(&self, key: &'static str) -> Result<Option<bool>, ConfigError> {
        self.read(key, BOOLEAN, ConfigValue::as_bool)
    }

    /// The array at `key`.
    pub fn array(&self, key: &'static str) -> Result<&'a [ConfigValue], ConfigError> {
        self.require(key, ARRAY, self.opt_array(key)?)
    }

    /// The array at `key`, if present.
    pub fn opt_array(&self, key: &'static str) -> Result<Option<&'a [ConfigValue]>, ConfigError> {
        self.read(key, ARRAY, ConfigValue::as_array)
    }

    /// A view of the table at `key`.
    pub fn table(&self, key: &'static str) -> Result<Fields<'_>, ConfigError> {
        self.require(key, TABLE, self.opt_table(key)?)
    }

    /// A view of the table at `key`, if present.
    pub fn opt_table(&self, key: &'static str) -> Result<Option<Fields<'_>>, ConfigError> {
        self.get(key)
            .map(|value| self.child(Place::Key(&self.place, key), value))
            .transpose()
    }

    /// The value at `key` through the codec `decode`, whose error gets the
    /// field's path in front.
    pub fn decode<T>(
        &self,
        key: &'static str,
        decode: impl FnOnce(&'a ConfigValue) -> Result<T, ConfigError>,
    ) -> Result<T, ConfigError> {
        self.require(key, "a value", self.opt_decode(key, decode)?)
    }

    /// [`decode`](Self::decode) for a key that may be absent.
    pub fn opt_decode<T>(
        &self,
        key: &'static str,
        decode: impl FnOnce(&'a ConfigValue) -> Result<T, ConfigError>,
    ) -> Result<Option<T>, ConfigError> {
        self.get(key)
            .map(|value| {
                decode(value).map_err(|error| within(&Place::Key(&self.place, key), error))
            })
            .transpose()
    }

    /// Every item of the array at `key` through the codec `decode`; an
    /// error gets the item's path (`outcome.phases[2]`) in front.
    pub fn each<T>(
        &self,
        key: &'static str,
        mut decode: impl FnMut(&'a ConfigValue) -> Result<T, ConfigError>,
    ) -> Result<Vec<T>, ConfigError> {
        let items = self.array(key)?;
        let mut decoded = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            decoded.push(
                decode(item)
                    .map_err(|error| within(&Place::Item(&self.place, key, index), error))?,
            );
        }
        Ok(decoded)
    }

    /// Every item of the array of tables at `key`, each read through a view
    /// named by its path (`scenario.tasks[1]`).
    pub fn each_table<T>(
        &self,
        key: &'static str,
        mut decode: impl FnMut(Fields<'_>) -> Result<T, ConfigError>,
    ) -> Result<Vec<T>, ConfigError> {
        let items = self.array(key)?;
        let mut decoded = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            decoded.push(decode(
                self.child(Place::Item(&self.place, key, index), item)?,
            )?);
        }
        Ok(decoded)
    }

    /// End the reads of a strict view: a key it was not asked for is an
    /// error that lists the keys it was.  A view from
    /// [`ConfigValue::fields`] accepts every key.
    pub fn finish(self) -> Result<(), ConfigError> {
        let Some(asked) = self.asked else {
            return Ok(());
        };
        let asked = asked.into_inner();
        match self
            .entries
            .iter()
            .find(|(key, _)| !asked.contains(&key.as_str()))
        {
            None => Ok(()),
            Some((key, _)) => Err(ConfigError::schema(format!(
                "unknown key `{key}` in {} (allowed: {})",
                self.place,
                asked.join(", ")
            ))),
        }
    }
}

/// `error`, a codec's, with `place` in front.
fn within(place: &Place<'_>, error: ConfigError) -> ConfigError {
    ConfigError::schema(format!("{place}: {}", error.message))
}

// ---------------------------------------------------------------------------
// TOML-subset parsing
// ---------------------------------------------------------------------------

/// Parse a TOML-subset document into a [`ConfigValue::Table`].
pub fn parse_toml(input: &str) -> Result<ConfigValue, ConfigError> {
    let mut root = ConfigValue::table();
    // Path of the table the next `key = value` lines land in; `None` means
    // the root table.
    let mut cursor: Vec<PathStep> = Vec::new();
    // Plain `[header]` paths already declared — real TOML rejects
    // re-opening a table, and silently merging would hide config mistakes.
    let mut declared_tables: std::collections::HashSet<String> = std::collections::HashSet::new();

    let lines: Vec<&str> = input.lines().collect();
    let mut index = 0;
    while index < lines.len() {
        let line_no = index + 1;
        let line = strip_comment(lines[index]).trim();
        index += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            cursor = parse_header_path(header, line_no)?;
            let last = cursor.len() - 1;
            cursor[last].array_element = true;
            // Materialise the new array element immediately so empty
            // `[[x]]` sections still round-trip.
            navigate(&mut root, &cursor, line_no, true)?;
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            cursor = parse_header_path(header, line_no)?;
            let joined: Vec<&str> = cursor.iter().map(|s| s.key.as_str()).collect();
            if !declared_tables.insert(joined.join(".")) {
                return Err(ConfigError::at(
                    line_no,
                    format!("table `[{header}]` is declared twice"),
                ));
            }
            navigate(&mut root, &cursor, line_no, true)?;
        } else if let Some((key, value_start)) = line.split_once('=') {
            let key = parse_key(key.trim(), line_no)?;
            // Standard TOML allows arrays to span lines; keep consuming
            // until every `[` opened outside a string is closed.
            let mut value_text = value_start.trim().to_string();
            while open_brackets(&value_text) > 0 && index < lines.len() {
                value_text.push(' ');
                value_text.push_str(strip_comment(lines[index]).trim());
                index += 1;
            }
            let value = parse_toml_value(&value_text, line_no, cursor.len())?;
            let table = navigate(&mut root, &cursor, line_no, false)?;
            if table.get(&key).is_some() {
                return Err(ConfigError::at(line_no, format!("duplicate key `{key}`")));
            }
            table.insert(&key, value);
        } else {
            return Err(ConfigError::at(
                line_no,
                format!("expected `[table]`, `[[array]]` or `key = value`, got `{line}`"),
            ));
        }
    }
    Ok(root)
}

/// Number of `[` brackets opened but not yet closed outside of strings
/// (saturating at 0, so stray `]`s just fail in the value parser).
fn open_brackets(text: &str) -> usize {
    let mut depth: usize = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                '"' => in_string = true,
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    depth
}

/// One step of a table header path: a key name plus whether the step is an
/// array-of-tables element (only ever true for the last step).
#[derive(Debug, Clone)]
struct PathStep {
    key: String,
    array_element: bool,
}

fn parse_header_path(header: &str, line: usize) -> Result<Vec<PathStep>, ConfigError> {
    let mut steps = Vec::new();
    for part in header.split('.') {
        if steps.len() == MAX_NESTING {
            return Err(too_deep(line));
        }
        steps.push(PathStep {
            key: parse_key(part.trim(), line)?,
            array_element: false,
        });
    }
    Ok(steps)
}

fn parse_key(key: &str, line: usize) -> Result<String, ConfigError> {
    if key.is_empty() {
        return Err(ConfigError::at(line, "empty key"));
    }
    if !key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(ConfigError::at(
            line,
            format!("invalid key `{key}` (bare keys only: A-Z a-z 0-9 _ -)"),
        ));
    }
    Ok(key.to_string())
}

/// Walk (and create) the table at `path`.  When `entering` is true and the
/// last step is an array element, a fresh table is appended to the array at
/// that key; otherwise the existing element/table is returned.
fn navigate<'a>(
    root: &'a mut ConfigValue,
    path: &[PathStep],
    line: usize,
    entering: bool,
) -> Result<&'a mut ConfigValue, ConfigError> {
    let mut current = root;
    for (depth, step) in path.iter().enumerate() {
        let last = depth == path.len() - 1;
        let ConfigValue::Table(entries) = current else {
            return Err(ConfigError::at(
                line,
                format!("`{}` is not a table", step.key),
            ));
        };
        let missing = !entries.iter().any(|(k, _)| k == &step.key);
        if missing {
            let fresh = if step.array_element {
                ConfigValue::Array(vec![ConfigValue::table()])
            } else {
                ConfigValue::table()
            };
            entries.push((step.key.clone(), fresh));
        }
        let value = entries
            .iter_mut()
            .find(|(k, _)| k == &step.key)
            .map(|(_, v)| v)
            .expect("just ensured the key exists");
        current = match value {
            ConfigValue::Array(items) => {
                if last && entering && !step.array_element {
                    return Err(ConfigError::at(
                        line,
                        format!(
                            "`{0}` is an array of tables; append to it with [[{0}]], not [{0}]",
                            step.key
                        ),
                    ));
                }
                if step.array_element && last && entering && !missing {
                    items.push(ConfigValue::table());
                }
                items.last_mut().ok_or_else(|| {
                    ConfigError::at(line, format!("`{}` is an empty array", step.key))
                })?
            }
            ConfigValue::Table(_) => {
                if step.array_element {
                    return Err(ConfigError::at(
                        line,
                        format!("`{}` is a table, not an array of tables", step.key),
                    ));
                }
                value
            }
            other => {
                return Err(ConfigError::at(
                    line,
                    format!("`{}` is a {}, not a table", step.key, other.kind()),
                ));
            }
        };
    }
    Ok(current)
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside a basic string starts a comment.
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Parse one `key = value` value of a table nested `depth` levels deep.
fn parse_toml_value(text: &str, line: usize, depth: usize) -> Result<ConfigValue, ConfigError> {
    let mut cursor = Cursor::new(text, line);
    cursor.depth = depth;
    let value = cursor.parse_value(ValueSyntax::Toml)?;
    cursor.skip_whitespace();
    if !cursor.at_end() {
        return Err(ConfigError::at(
            line,
            format!("trailing characters after value: `{}`", cursor.rest()),
        ));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------------

/// Parse a JSON document into a [`ConfigValue`].
pub fn parse_json(input: &str) -> Result<ConfigValue, ConfigError> {
    let mut cursor = Cursor::new(input, 1);
    cursor.skip_whitespace();
    let value = cursor.parse_value(ValueSyntax::Json)?;
    cursor.skip_whitespace();
    if !cursor.at_end() {
        return Err(ConfigError::at(
            cursor.line,
            format!("trailing characters after document: `{}`", cursor.rest()),
        ));
    }
    Ok(value)
}

/// Which surface syntax a [`Cursor`] is parsing values of.  The two differ
/// only in the details this parser cares about: JSON has `{...}` objects
/// and `null`, the TOML subset has neither (tables come from headers).
#[derive(Clone, Copy, PartialEq)]
enum ValueSyntax {
    Toml,
    Json,
}

/// A character cursor over an input slice, tracking the current line for
/// error messages and the nesting depth of the value being parsed.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    depth: usize,
}

impl Cursor {
    fn new(input: &str, start_line: usize) -> Self {
        Self {
            chars: input.chars().collect(),
            pos: 0,
            line: start_line,
            depth: 0,
        }
    }

    /// Open one more level of nesting, or fail past `MAX_NESTING`.
    fn enter(&mut self) -> Result<(), ConfigError> {
        if self.depth == MAX_NESTING {
            return Err(too_deep(self.line));
        }
        self.depth += 1;
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn rest(&self) -> String {
        self.chars[self.pos..].iter().take(24).collect()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn expect(&mut self, expected: char) -> Result<(), ConfigError> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            other => Err(ConfigError::at(
                self.line,
                format!("expected `{expected}`, got `{}`", fmt_char(other)),
            )),
        }
    }

    fn parse_value(&mut self, syntax: ValueSyntax) -> Result<ConfigValue, ConfigError> {
        self.skip_whitespace();
        match self.peek() {
            Some('"') => Ok(ConfigValue::Str(self.parse_string()?)),
            Some('[') => self.parse_array(syntax),
            Some('{') if syntax == ValueSyntax::Json => self.parse_object(),
            Some(c) if c == 't' || c == 'f' || c == 'n' => self.parse_keyword(syntax),
            Some(c) if c == '-' || c == '+' || c.is_ascii_digit() => self.parse_number(),
            other => Err(ConfigError::at(
                self.line,
                format!("expected a value, got `{}`", fmt_char(other)),
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, ConfigError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(ConfigError::at(self.line, "unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => out.push(self.parse_unicode_escape()?),
                    other => {
                        return Err(ConfigError::at(
                            self.line,
                            format!("unsupported escape `\\{}`", fmt_char(other)),
                        ))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` was just read.  A high
    /// surrogate must be followed by the `\uXXXX` of a low one, and the
    /// pair is one character; a surrogate on its own is an error.
    fn parse_unicode_escape(&mut self) -> Result<char, ConfigError> {
        let first = self.parse_hex4()?;
        let code = if (0xd800..0xdc00).contains(&first)
            && self.bump() == Some('\\')
            && self.bump() == Some('u')
        {
            let second = self.parse_hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(ConfigError::at(
                    self.line,
                    format!("surrogate `\\u{first:04x}` is not followed by a low surrogate"),
                ));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| {
            ConfigError::at(
                self.line,
                format!("surrogate `\\u{first:04x}` is not part of a pair"),
            )
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, ConfigError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.bump().and_then(|c| c.to_digit(16)).ok_or_else(|| {
                ConfigError::at(self.line, "a `\\u` escape needs four hex digits")
            })?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_array(&mut self, syntax: ValueSyntax) -> Result<ConfigValue, ConfigError> {
        self.expect('[')?;
        self.enter()?;
        let mut items = Vec::new();
        loop {
            self.skip_whitespace();
            if self.peek() == Some(']') {
                self.bump();
                self.depth -= 1;
                return Ok(ConfigValue::Array(items));
            }
            items.push(self.parse_value(syntax)?);
            self.skip_whitespace();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {}
                other => {
                    return Err(ConfigError::at(
                        self.line,
                        format!("expected `,` or `]` in array, got `{}`", fmt_char(other)),
                    ))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<ConfigValue, ConfigError> {
        self.expect('{')?;
        self.enter()?;
        let mut entries: Vec<(String, ConfigValue)> = Vec::new();
        loop {
            self.skip_whitespace();
            if self.peek() == Some('}') {
                self.bump();
                self.depth -= 1;
                return Ok(ConfigValue::Table(entries));
            }
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(':')?;
            let value = self.parse_value(ValueSyntax::Json)?;
            if entries.iter().any(|(k, _)| k == &key) {
                return Err(ConfigError::at(self.line, format!("duplicate key `{key}`")));
            }
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {}
                other => {
                    return Err(ConfigError::at(
                        self.line,
                        format!("expected `,` or `}}` in object, got `{}`", fmt_char(other)),
                    ))
                }
            }
        }
    }

    fn parse_keyword(&mut self, syntax: ValueSyntax) -> Result<ConfigValue, ConfigError> {
        let mut word = String::new();
        while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            word.push(self.bump().expect("peeked"));
        }
        match (word.as_str(), syntax) {
            ("true", _) => Ok(ConfigValue::Bool(true)),
            ("false", _) => Ok(ConfigValue::Bool(false)),
            ("null", ValueSyntax::Json) => Err(ConfigError::at(
                self.line,
                "`null` has no scenario meaning; omit the key instead",
            )),
            _ => Err(ConfigError::at(
                self.line,
                format!("unknown keyword `{word}`"),
            )),
        }
    }

    fn parse_number(&mut self) -> Result<ConfigValue, ConfigError> {
        let mut text = String::new();
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit()
                || matches!(c, '-' | '+' | '.' | 'e' | 'E' | '_')
        ) {
            text.push(self.bump().expect("peeked"));
        }
        let normalised = text.replace('_', "");
        let value = if normalised.contains(['.', 'e', 'E']) {
            normalised.parse::<f64>().ok().map(ConfigValue::Float)
        } else {
            normalised.parse::<i64>().ok().map(ConfigValue::Integer)
        };
        value.ok_or_else(|| ConfigError::at(self.line, format!("invalid number `{text}`")))
    }
}

fn too_deep(line: usize) -> ConfigError {
    ConfigError::at(
        line,
        format!("tables and arrays nest deeper than {MAX_NESTING} levels"),
    )
}

fn fmt_char(c: Option<char>) -> String {
    match c {
        Some(c) => c.to_string(),
        None => "end of input".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Serialize a table value as a TOML-subset document.
///
/// Scalar and array entries come first, then `[table]` sections, then
/// `[[array-of-tables]]` sections, so the emitted document parses back
/// with [`parse_toml`] into an equal value.
///
/// # Panics
///
/// Panics if `value` is not a table (only tables are TOML documents).
pub fn to_toml(value: &ConfigValue) -> String {
    let ConfigValue::Table(_) = value else {
        panic!("only table values serialize as TOML documents");
    };
    let mut out = String::new();
    emit_toml_table(value, "", &mut out);
    out
}

fn emit_toml_table(table: &ConfigValue, path: &str, out: &mut String) {
    let entries = table.as_table().expect("emit_toml_table takes tables");
    // Pass 1: scalars and scalar arrays, which belong to the current header.
    for (key, value) in entries {
        match value {
            ConfigValue::Table(_) => {}
            ConfigValue::Array(items) if items.iter().any(|i| i.as_table().is_some()) => {}
            _ => {
                out.push_str(key);
                out.push_str(" = ");
                emit_toml_inline(value, out);
                out.push('\n');
            }
        }
    }
    // Pass 2: sub-tables and arrays of tables.
    for (key, value) in entries {
        let child_path = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        match value {
            ConfigValue::Table(_) => {
                out.push_str(&format!("\n[{child_path}]\n"));
                emit_toml_table(value, &child_path, out);
            }
            ConfigValue::Array(items) if items.iter().any(|i| i.as_table().is_some()) => {
                for item in items {
                    out.push_str(&format!("\n[[{child_path}]]\n"));
                    emit_toml_table(item, &child_path, out);
                }
            }
            _ => {}
        }
    }
}

fn emit_toml_inline(value: &ConfigValue, out: &mut String) {
    match value {
        ConfigValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_toml_inline(item, out);
            }
            out.push(']');
        }
        ConfigValue::Table(_) => {
            unreachable!("tables are emitted as [sections], not inline")
        }
        scalar => emit_scalar(scalar, out),
    }
}

/// Serialize a value as pretty-printed JSON.
pub fn to_json(value: &ConfigValue) -> String {
    let mut out = String::new();
    emit_json(value, true, 0, &mut out);
    out
}

/// Serialize a value as single-line JSON (no newlines, minimal spacing) —
/// the JSON-lines form the search trace observer emits.  Parses back with
/// [`parse_json`] into the same value.
pub fn to_json_compact(value: &ConfigValue) -> String {
    let mut out = String::new();
    write_json_compact(value, &mut out);
    out
}

/// Append `value` to `out` as single-line JSON (the bytes of
/// [`to_json_compact`]), so many values can share one buffer.
pub(crate) fn write_json_compact(value: &ConfigValue, out: &mut String) {
    emit_json(value, false, 0, out);
}

/// A JSON object written field by field straight into a buffer.
///
/// A document can thereby wrap borrowed parts — a large sub-tree, a slice
/// of values — without first cloning them into one [`ConfigValue`].  The
/// bytes equal [`to_json`] (pretty) or [`to_json_compact`] of the table
/// with the same fields.
pub(crate) struct JsonObject<'a> {
    out: &'a mut String,
    pretty: bool,
    indent: usize,
    fields: usize,
}

impl<'a> JsonObject<'a> {
    /// Open a top-level object in `out`, pretty-printed or compact.
    pub fn new(out: &'a mut String, pretty: bool) -> Self {
        Self::at(out, pretty, 0)
    }

    fn at(out: &'a mut String, pretty: bool, indent: usize) -> Self {
        out.push('{');
        Self {
            out,
            pretty,
            indent,
            fields: 0,
        }
    }

    fn key(&mut self, key: &str) {
        if self.fields > 0 {
            self.out.push(',');
        }
        self.fields += 1;
        if self.pretty {
            self.out.push('\n');
            push_pad(self.out, self.indent + 1);
        }
        emit_string(key, self.out);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Write one field.
    pub fn field(&mut self, key: &str, value: &ConfigValue) -> &mut Self {
        self.key(key);
        emit_json(value, self.pretty, self.indent + 1, self.out);
        self
    }

    /// Write one field whose value is the array `items`.
    pub fn array_field(&mut self, key: &str, items: &[ConfigValue]) -> &mut Self {
        self.key(key);
        emit_json_array(items, self.pretty, self.indent + 1, self.out);
        self
    }

    /// Close the object.
    pub fn finish(self) {
        if self.pretty && self.fields > 0 {
            self.out.push('\n');
            push_pad(self.out, self.indent);
        }
        self.out.push('}');
    }
}

fn emit_json(value: &ConfigValue, pretty: bool, indent: usize, out: &mut String) {
    match value {
        ConfigValue::Array(items) => emit_json_array(items, pretty, indent, out),
        ConfigValue::Table(entries) => {
            let mut object = JsonObject::at(out, pretty, indent);
            for (key, item) in entries {
                object.field(key, item);
            }
            object.finish();
        }
        scalar => emit_scalar(scalar, out),
    }
}

fn emit_json_array(items: &[ConfigValue], pretty: bool, indent: usize, out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            push_pad(out, indent + 1);
        }
        emit_json(item, pretty, indent + 1, out);
    }
    if pretty && !items.is_empty() {
        out.push('\n');
        push_pad(out, indent);
    }
    out.push(']');
}

fn push_pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Write a scalar the same way in every emitter; containers are the
/// caller's.
fn emit_scalar(value: &ConfigValue, out: &mut String) {
    match value {
        ConfigValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ConfigValue::Integer(i) => {
            let _ = write!(out, "{i}");
        }
        ConfigValue::Float(x) => write_float(*x, out),
        ConfigValue::Str(s) => emit_string(s, out),
        ConfigValue::Array(_) | ConfigValue::Table(_) => {
            unreachable!("containers are emitted by their caller")
        }
    }
}

/// Write `s` as a JSON string, escaping `"`, `\` and every character below
/// U+0020 (the short form where JSON has one, else `\u00XX`).  The scan is
/// over bytes: every escaped character is ASCII and no byte of a
/// multi-byte UTF-8 character is, so each escape sits on a char boundary,
/// and each run between escapes is copied with one `push_str`.
fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Write a float so it parses back as a float (Rust's `Debug` for `f64` is
/// the shortest representation that round-trips and always carries a `.`
/// or an exponent).
fn write_float(x: f64, out: &mut String) {
    let _ = write!(out, "{x:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays_of_tables() {
        let doc = r#"
# a scenario-shaped document
name = "demo"
seed = 2020
rho = 10.0

[specs]
latency_cycles = 8e5

[[tasks]]
name = "a"
weight = 0.5

[[tasks]]
name = "b"
weight = 0.5
"#;
        let value = parse_toml(doc).unwrap();
        assert_eq!(value.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(value.get("seed").unwrap().as_integer(), Some(2020));
        assert_eq!(value.get("rho").unwrap().as_float(), Some(10.0));
        assert_eq!(
            value
                .get("specs")
                .unwrap()
                .get("latency_cycles")
                .unwrap()
                .as_float(),
            Some(8.0e5)
        );
        let tasks = value.get("tasks").unwrap().as_array().unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[1].get("name").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn parses_inline_arrays_and_comments_inside_strings() {
        let doc = "dataflows = [\"shi\", \"dla\"] # trailing comment\nnote = \"# not a comment\"\n";
        let value = parse_toml(doc).unwrap();
        let flows = value.get("dataflows").unwrap().as_array().unwrap();
        assert_eq!(flows[0].as_str(), Some("shi"));
        assert_eq!(value.get("note").unwrap().as_str(), Some("# not a comment"));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = parse_toml("name = \"x\"\nnot a line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_toml("a = 1\na = 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
        let err = parse_toml("a.b = 1\n").unwrap_err();
        assert!(err.message.contains("invalid key"));
    }

    #[test]
    fn toml_round_trips_through_emitter() {
        let doc = "name = \"demo\"\nseed = 7\n\n[specs]\narea_um2 = 4000000000.0\n\n[[tasks]]\nname = \"t\"\nweight = 1.0\n";
        let value = parse_toml(doc).unwrap();
        let emitted = to_toml(&value);
        assert_eq!(parse_toml(&emitted).unwrap(), value);
    }

    #[test]
    fn json_round_trips_through_emitter() {
        let value =
            parse_toml("name = \"demo\"\nflag = true\n\n[[tasks]]\nname = \"t\"\nweight = 0.25\n")
                .unwrap();
        let json = to_json(&value);
        assert_eq!(parse_json(&json).unwrap(), value);
    }

    #[test]
    fn compact_json_is_one_line_and_round_trips() {
        let value =
            parse_toml("name = \"demo\"\nflag = true\n\n[[tasks]]\nname = \"t\"\nweight = 0.25\n")
                .unwrap();
        let compact = to_json_compact(&value);
        assert!(!compact.contains('\n'), "{compact}");
        assert!(!compact.contains("  "), "{compact}");
        assert_eq!(parse_json(&compact).unwrap(), value);
        // Empty containers stay valid.
        assert_eq!(to_json_compact(&ConfigValue::table()), "{}");
        assert_eq!(to_json_compact(&ConfigValue::Array(Vec::new())), "[]");
    }

    #[test]
    fn json_parser_handles_nested_documents() {
        let value = parse_json(r#"{"a": [1, 2.5, {"b": "x"}], "c": false}"#).unwrap();
        let items = value.get("a").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_integer(), Some(1));
        assert_eq!(items[1].as_float(), Some(2.5));
        assert_eq!(items[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("c").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn json_parser_rejects_null_and_garbage() {
        assert!(parse_json(r#"{"a": null}"#).is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn floats_emit_reparseably() {
        for x in [0.5, 2.0e9, 10.0, 1.0e-3, 123456.75] {
            let mut text = String::new();
            write_float(x, &mut text);
            assert_eq!(text.parse::<f64>().unwrap(), x, "{text}");
            assert!(
                text.contains('.') || text.contains('e'),
                "`{text}` would reparse as an integer"
            );
        }
    }

    #[test]
    fn empty_array_of_tables_section_materialises() {
        let value = parse_toml("[[tasks]]\n").unwrap();
        assert_eq!(value.get("tasks").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn multiline_arrays_parse_like_real_toml() {
        let doc = "dataflows = [\n  \"shi\",  # comment inside\n  \"dla\",\n]\nnext = 1\n";
        let value = parse_toml(doc).unwrap();
        let flows = value.get("dataflows").unwrap().as_array().unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[1].as_str(), Some("dla"));
        assert_eq!(value.get("next").unwrap().as_integer(), Some(1));
        // An array left open at end of input still errors loudly.
        assert!(parse_toml("dataflows = [\n  \"shi\",\n").is_err());
    }

    #[test]
    fn duplicate_table_headers_are_rejected_like_real_toml() {
        let err = parse_toml("[specs]\na = 1\n\n[specs]\nb = 2\n").unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn json_nesting_is_capped_with_a_line_numbered_error() {
        let nested =
            |depth: usize| format!("{{\"ping\":\n{}{}}}", "[".repeat(depth), "]".repeat(depth));
        // The object is level 1, so 63 arrays inside it reach the cap.
        assert!(parse_json(&nested(MAX_NESTING - 1)).is_ok());
        let err = parse_json(&nested(MAX_NESTING)).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nest deeper than 64"), "{err}");
        // Deep enough to overflow the stack of an unbounded parser.
        let err = parse_json(&nested(100_000)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse_json(&objects)
            .unwrap_err()
            .message
            .contains("nest deeper"));
    }

    #[test]
    fn toml_nesting_is_capped_with_a_line_numbered_error() {
        // Inline arrays count from the depth of their table.
        let inline =
            |depth: usize| format!("[a]\nx = {}{}\n", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_toml(&inline(MAX_NESTING - 1)).is_ok());
        let err = parse_toml(&inline(MAX_NESTING)).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nest deeper than 64"), "{err}");
        assert!(parse_toml(&inline(100_000)).is_err());
        // Dotted header paths count one level per segment.
        let header = |segments: usize| format!("x = 1\n[{}]\n", vec!["a"; segments].join("."));
        assert!(parse_toml(&header(MAX_NESTING)).is_ok());
        let err = parse_toml(&header(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nest deeper"), "{err}");
        let err = parse_toml(&header(1_000_000)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    /// One document covering every emitter path: nested and empty tables
    /// and arrays, escaped strings, signed zero, the smallest subnormal and
    /// a near-maximal float, and integer extremes.
    fn emitter_pin_document() -> ConfigValue {
        let mut empty_inside = ConfigValue::table();
        empty_inside.insert("table", ConfigValue::table());
        empty_inside.insert("array", ConfigValue::Array(Vec::new()));
        let mut inner = ConfigValue::table();
        inner.insert("empty", empty_inside);
        inner.insert(
            "nested",
            ConfigValue::Array(vec![
                ConfigValue::Array(vec![ConfigValue::Integer(-3), ConfigValue::Bool(false)]),
                ConfigValue::table(),
                ConfigValue::Array(Vec::new()),
            ]),
        );
        let mut root = ConfigValue::table();
        root.insert(
            "text",
            ConfigValue::Str("quote \" backslash \\ newline \n tab \t return \r é".to_string()),
        );
        root.insert(
            "floats",
            ConfigValue::Array(
                [-0.0, 5e-324, 1e308, 0.1, 2.0, -1.5e-7, 123456.75]
                    .into_iter()
                    .map(ConfigValue::Float)
                    .collect(),
            ),
        );
        root.insert(
            "ints",
            ConfigValue::Array(
                [0, -1, i64::MIN, i64::MAX]
                    .into_iter()
                    .map(ConfigValue::Integer)
                    .collect(),
            ),
        );
        root.insert("inner", inner);
        root.insert("flag", ConfigValue::Bool(true));
        root
    }

    /// The emitters' exact bytes for [`emitter_pin_document`], as the
    /// string-building emitter produced them; the buffer-writing emitter
    /// must match byte for byte.
    #[test]
    fn emitter_bytes_are_pinned() {
        const PRETTY: &str = r#"{
  "text": "quote \" backslash \\ newline \n tab \t return \r é",
  "floats": [
    -0.0,
    5e-324,
    1e308,
    0.1,
    2.0,
    -1.5e-7,
    123456.75
  ],
  "ints": [
    0,
    -1,
    -9223372036854775808,
    9223372036854775807
  ],
  "inner": {
    "empty": {
      "table": {},
      "array": []
    },
    "nested": [
      [
        -3,
        false
      ],
      {},
      []
    ]
  },
  "flag": true
}"#;
        const COMPACT: &str = concat!(
            r#"{"text":"quote \" backslash \\ newline \n tab \t return \r é","#,
            r#""floats":[-0.0,5e-324,1e308,0.1,2.0,-1.5e-7,123456.75],"#,
            r#""ints":[0,-1,-9223372036854775808,9223372036854775807],"#,
            r#""inner":{"empty":{"table":{},"array":[]},"nested":[[-3,false],{},[]]},"#,
            r#""flag":true}"#
        );
        let document = emitter_pin_document();
        assert_eq!(to_json(&document), PRETTY);
        assert_eq!(to_json_compact(&document), COMPACT);
        assert_eq!(parse_json(PRETTY).unwrap(), document);
        assert_eq!(parse_json(COMPACT).unwrap(), document);
    }

    #[test]
    fn control_characters_and_surrogate_pairs_round_trip_through_every_emitter() {
        let mut text: String = (0..0x20u8).map(char::from).collect();
        text.push_str("é 😀");
        let mut value = ConfigValue::table();
        value.insert("text", ConfigValue::Str(text.clone()));
        for emitted in [to_json(&value), to_json_compact(&value), to_toml(&value)] {
            assert!(
                !emitted.bytes().any(|byte| byte < 0x20 && byte != b'\n'),
                "raw control byte in {emitted:?}"
            );
            let parsed = if emitted.starts_with('{') {
                parse_json(&emitted)
            } else {
                parse_toml(&emitted)
            };
            assert_eq!(parsed.unwrap(), value, "{emitted}");
        }
        assert!(to_json_compact(&value).contains(r#"\u0000\u0001"#));
        assert!(to_json_compact(&value).contains(r#"\b\t\n\u000b\f\r"#));
        // The escapes other tools write: a surrogate pair is one
        // character, a lone surrogate an error.
        let parsed = parse_json(r#"{"text": "café \u0007 😀 \/"}"#).unwrap();
        assert_eq!(
            parsed.get("text").unwrap().as_str(),
            Some("café \u{7} 😀 /")
        );
        for lone in [r#""\ud83d""#, r#""\ud83dA""#, r#""\ude00""#, r#""\u12""#] {
            let error = parse_json(lone).unwrap_err();
            assert!(
                error.message.contains("surrogate") || error.message.contains("four hex"),
                "{lone}: {error}"
            );
        }
    }

    fn reader_document() -> ConfigValue {
        parse_json(
            r#"{"name": "w1", "episodes": -3, "rho": 2, "watch": "yes",
                "tasks": [{"weight": 0.5}, {"weight": "heavy"}], "extra": 1}"#,
        )
        .unwrap()
    }

    #[test]
    fn a_read_error_names_the_fields_path_and_the_offending_value() {
        let document = reader_document();
        let root = document.fields("scenario").unwrap();
        assert_eq!(root.str("name").unwrap(), "w1");
        assert_eq!(root.number("rho").unwrap(), 2.0);
        assert_eq!(root.opt_uint::<u64>("seed").unwrap(), None);
        let message = |error: ConfigError| error.message;
        assert_eq!(
            message(root.uint::<usize>("episodes").unwrap_err()),
            "scenario.episodes must be a non-negative integer, got -3"
        );
        assert_eq!(
            message(root.opt_bool("watch").unwrap_err()),
            r#"scenario.watch must be a boolean, got "yes""#
        );
        assert_eq!(
            message(root.str("description").unwrap_err()),
            "scenario.description is missing, expected a string"
        );
        assert_eq!(
            message(
                root.each_table("tasks", |task| task.number("weight"))
                    .unwrap_err()
            ),
            r#"scenario.tasks[1].weight must be a number, got "heavy""#
        );
        assert_eq!(
            message(root.table("tasks").unwrap_err()),
            "scenario.tasks must be a table, got an array"
        );
        assert_eq!(
            message(
                root.decode("name", |_| Err::<(), _>(ConfigError::schema("no")))
                    .unwrap_err()
            ),
            "scenario.name: no"
        );
        assert_eq!(
            message(ConfigValue::Integer(1).fields("").unwrap_err()),
            "expected a table, got 1"
        );
    }

    #[test]
    fn finish_rejects_keys_a_strict_view_was_not_asked_for() {
        let document = reader_document();
        let strict = document.strict_fields("scenario").unwrap();
        strict.str("name").unwrap();
        strict.opt_uint::<u64>("seed").unwrap();
        strict.number("rho").unwrap();
        assert!(strict.uint::<u64>("episodes").is_err());
        strict.value("watch").unwrap();
        strict.array("tasks").unwrap();
        assert_eq!(
            strict.finish().unwrap_err().message,
            "unknown key `extra` in scenario (allowed: name, seed, rho, episodes, watch, tasks)"
        );
        // A required key it lacks names the keys the table holds, so a
        // misspelling shows before `finish`.  Without `finish`, or through
        // a lenient view, extra keys pass.
        let strict = document.strict_fields("scenario").unwrap();
        assert_eq!(strict.str("name").unwrap(), "w1");
        assert_eq!(
            strict.number("extr").unwrap_err().message,
            "scenario.extr is missing, expected a number \
             (scenario holds: name, episodes, rho, watch, tasks, extra)"
        );
        drop(strict);
        let lenient = document.fields("scenario").unwrap();
        lenient.str("name").unwrap();
        lenient.finish().unwrap();
    }

    #[test]
    fn plain_header_cannot_reopen_an_array_of_tables() {
        let err = parse_toml("[[tasks]]\na = 1\n\n[tasks]\nb = 2\n").unwrap_err();
        assert!(err.message.contains("[[tasks]]"), "{err}");
        // Sub-tables of the last array element are still reachable.
        let value = parse_toml("[[tasks]]\n[tasks.extra]\nb = 2\n").unwrap();
        let tasks = value.get("tasks").unwrap().as_array().unwrap();
        assert_eq!(
            tasks[0]
                .get("extra")
                .unwrap()
                .get("b")
                .unwrap()
                .as_integer(),
            Some(2)
        );
    }
}
