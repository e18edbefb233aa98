//! Externalized search state: versioned checkpoints, checkpoint sinks,
//! and deterministic shard plans.
//!
//! Every [`SearchAlgorithm`](crate::algorithm::SearchAlgorithm) keeps its
//! mutable state — RNG stream positions, controller weights and optimizer
//! accumulators, incumbents, populations, budget spent — externalizable
//! through this module:
//!
//! * [`SearchCheckpoint`] is the versioned envelope: algorithm name, seed,
//!   a monotonic `progress` counter (the driver's own unit: samples,
//!   episodes, accepted steps, generations), the explored records added
//!   since the previous checkpoint, and an opaque driver-specific `state`
//!   tree holding everything else.  It round-trips through the scenario
//!   JSON codec, so a checkpoint is plain JSON.
//! * [`CheckpointSink`] decides *when* checkpoints are taken
//!   ([`CheckpointSink::wants`]) and receives them.  Drivers build the
//!   state tree lazily, so a [`NullCheckpointSink`] run pays nothing.
//! * [`FileCheckpointSink`] keeps a checkpoint on disk as a small *head*
//!   file plus an append-only *journal* of explored records, one compact
//!   JSON line each, so each checkpoint writes only what the run added
//!   since the previous one.  [`SearchCheckpoint::load`] reassembles the
//!   complete checkpoint from the two.  Its cadence is either exact and
//!   unsynced (the CLI's) or cost-budgeted and synced (the daemon's,
//!   [`budgeted_step`]).
//! * [`ShardPlan`] / [`ShardPartial`] split one run across `N`
//!   deterministic workers.  A *strided* plan assigns partitionable unit
//!   `i` to shard `i % N`; each shard's partial is its own outcome, whose
//!   records carry their global unit index as `episode`, and
//!   [`merge_replay`] re-plays every shard's records in that order through
//!   [`SearchOutcome::record`], so the merged outcome is bit-identical to
//!   the single-process run.  A *sequential* plan is the fallback for
//!   inherently serial drivers (shard 0 runs the whole search, the rest
//!   return empty outcomes).
//!
//! The invariant the whole module leans on: [`SearchOutcome`] is fully
//! determined by its `explored` record sequence plus a handful of scalar
//! counters — `best` is derived by `record`.  Both
//! the outcome codec and shard merging therefore serialize only the
//! record sequence and replay it on the way back in, and a checkpoint's
//! record sequence only ever grows, which is what lets it be journaled.
//!
//! Record and counter floats are serialized with the shortest-round-trip
//! formatter, so every finite `f64` survives exactly.  Non-finite metrics
//! (infeasible mappings carry `INFINITY` costs) are encoded as the strings
//! `"inf"`, `"-inf"` and `"nan"` because the JSON grammar has no literal
//! for them.  The controller's bulk state — its weight and accumulator
//! matrices — is written as exact bits instead ([`matrix_to_value`]): one
//! string per matrix, 16 hex digits per element, which is several times
//! cheaper to write and to parse.  Nothing in a head grows with the run
//! but its integer counters, so a head's size is fixed by the search's
//! shape, not its length.

use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::algorithm::Budget;
use crate::candidate::Candidate;
use crate::evaluator::Evaluation;
use crate::log::{ExploredSolution, PhaseSummary, SearchOutcome};
use crate::scenario::value::{self, ConfigError, ConfigValue, Fields, JsonObject};
use crate::spec::SpecCheck;
use crate::workload::{Task, Workload};
use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
use nasaic_cost::HardwareMetrics;
use nasaic_nn::layer::Architecture;
use nasaic_rl::{Controller, ControllerState, PolicyState, TrainerState};
use nasaic_tensor::Matrix;
use rand::rngs::{StdRng, StdRngState};

/// The checkpoint format version this build writes (and the only one it
/// accepts).  Version 2 carries the explored records in the envelope
/// (`records_from`, `records`) instead of inside `state`; version 3
/// writes controller matrices as hex bit strings ([`matrix_to_value`]);
/// version 4 drops the reward history that version 3 kept in the
/// controller's trainer state and in the outcome counters; version 5
/// drops the controller index vectors and the mapping flag that version 4
/// wrote into every record ([`solution_to_value`]).
pub const CHECKPOINT_VERSION: u32 = 5;

// ---------------------------------------------------------------------------
// The checkpoint envelope
// ---------------------------------------------------------------------------

/// A versioned, serializable snapshot of a search driver's mutable state.
///
/// The envelope is driver-agnostic; `state` is the driver's own table (see
/// each driver's `run_checkpointed` for its layout), and `records` are the
/// run's explored records ([`solution_to_value`]) from index
/// `records_from` on.  A checkpoint is *complete* when `records_from` is
/// 0; drivers resume only from complete checkpoints, which
/// [`RecordingCheckpointSink`] and [`SearchCheckpoint::load`] return.
/// A driver decodes a checkpoint once, before it does any work, through
/// the accessors below: [`progress_for`](Self::progress_for) checks the
/// algorithm, the seed and the progress against the run's budget,
/// [`rng`](Self::rng) and [`restore_controller`](Self::restore_controller)
/// decode the shared parts of `state`, and
/// [`restore_outcome`](Self::restore_outcome) replays the records.  Each
/// returns an error instead of panicking, so a checkpoint of another run
/// is rejected as a whole.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The driver's stable name ([`SearchAlgorithm::name`](crate::algorithm::SearchAlgorithm::name)).
    pub algorithm: String,
    /// The seed the run was started with.
    pub seed: u64,
    /// Progress units completed when the snapshot was taken (the driver's
    /// own unit: samples, episodes, accepted steps, generations).
    pub progress: usize,
    /// Index in the run's explored sequence of the first entry of
    /// `records` (earlier checkpoints carried the ones before it).
    pub records_from: usize,
    /// Encoded explored records, from index `records_from` on.
    pub records: Vec<ConfigValue>,
    /// The driver-specific state tree.
    pub state: ConfigValue,
}

impl SearchCheckpoint {
    /// Wrap a driver state tree in a complete envelope with no records.
    pub fn new(algorithm: &str, seed: u64, progress: usize, state: ConfigValue) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            algorithm: algorithm.to_string(),
            seed,
            progress,
            records_from: 0,
            records: Vec::new(),
            state,
        }
    }

    /// Does this checkpoint carry the run's whole explored sequence?
    pub fn is_complete(&self) -> bool {
        self.records_from == 0
    }

    /// The checkpoint as a [`ConfigValue`] table (a deep copy; the JSON
    /// emitters below write the envelope without one).
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        for (key, value) in self.header(self.records_from) {
            root.insert(key, value);
        }
        root.insert("records", ConfigValue::Array(self.records.clone()));
        root.insert("state", self.state.clone());
        root
    }

    /// The scalar envelope fields, in their serialized order.
    fn header(&self, records_from: usize) -> [(&'static str, ConfigValue); 5] {
        [
            ("version", ConfigValue::Integer(i64::from(self.version))),
            ("algorithm", ConfigValue::Str(self.algorithm.clone())),
            ("seed", ConfigValue::Integer(self.seed as i64)),
            ("progress", ConfigValue::Integer(self.progress as i64)),
            ("records_from", ConfigValue::Integer(records_from as i64)),
        ]
    }

    /// Write the envelope into `out`, with `records_from` and `records`
    /// overridden — the file sink's head carries no records.
    fn write_json(
        &self,
        records_from: usize,
        records: &[ConfigValue],
        pretty: bool,
        out: &mut String,
    ) {
        let mut object = JsonObject::new(out, pretty);
        for (key, value) in self.header(records_from) {
            object.field(key, &value);
        }
        object.array_field("records", records);
        object.field("state", &self.state);
        object.finish();
    }

    /// Parse a checkpoint from its [`ConfigValue`] form.
    ///
    /// # Errors
    ///
    /// Returns a schema error for missing/ill-typed fields or an
    /// unsupported version.
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        let fields = value.fields("checkpoint")?;
        let raw: u64 = fields.uint("version")?;
        let version = u32::try_from(raw).unwrap_or(0);
        if version != CHECKPOINT_VERSION {
            return Err(ConfigError::schema(format!(
                "unsupported checkpoint version {raw} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        Ok(Self {
            version,
            algorithm: fields.str("algorithm")?.to_string(),
            seed: fields.uint("seed")?,
            progress: fields.uint("progress")?,
            records_from: fields.uint("records_from")?,
            records: fields.array("records")?.to_vec(),
            state: fields.value("state")?.clone(),
        })
    }

    /// Serialize to pretty JSON, records included.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(self.records_from, &self.records, true, &mut out);
        out
    }

    /// Parse from JSON text — a whole checkpoint, or a
    /// [`FileCheckpointSink`] head on its own (whose records live in the
    /// journal; see [`load`](Self::load)).
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error or the schema error of
    /// [`from_value`](Self::from_value).
    pub fn parse_json(text: &str) -> Result<Self, ConfigError> {
        Self::from_value(&value::parse_json(text)?)
    }

    /// Load the complete checkpoint a [`FileCheckpointSink`] left at
    /// `path`: the head, plus the first `records_from` lines of
    /// `<path>.journal`.  Journal lines past the head's count (a torn
    /// last line, or records appended before a kill stopped the head
    /// write) are ignored.
    ///
    /// The head is `path` itself.  Only when `path` is absent is it
    /// `<path>.tmp` — complete, because the sink removes `path` only after
    /// writing it (a kill fell between that remove and the rename).  Beside
    /// `path` a `.tmp` may be torn, so it is never read then; at most the
    /// newest checkpoint is lost.
    ///
    /// # Errors
    ///
    /// Returns an error (naming `path` when neither head exists) when no
    /// head or the journal cannot be read, the head does not parse, or the
    /// journal holds fewer than `records_from` complete, well-formed lines.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let read_error = |path: &Path, error: io::Error| {
            ConfigError::schema(format!("cannot read {}: {error}", path.display()))
        };
        let text = match fs::read_to_string(path) {
            Err(error) if error.kind() == io::ErrorKind::NotFound => {
                let tmp = tmp_path(path);
                match fs::read_to_string(&tmp) {
                    Err(tmp_error) if tmp_error.kind() == io::ErrorKind::NotFound => {
                        return Err(read_error(path, error))
                    }
                    read => read.map_err(|e| read_error(&tmp, e))?,
                }
            }
            read => read.map_err(|e| read_error(path, e))?,
        };
        let mut checkpoint = Self::parse_json(&text)?;
        if checkpoint.is_complete() {
            return Ok(checkpoint);
        }
        let journal_path = journal_path(path);
        let journal = fs::read(&journal_path).map_err(|e| read_error(&journal_path, e))?;
        // `records_from` comes from the file: never allocate by it.
        let wanted = checkpoint.records_from;
        let mut records = Vec::new();
        let mut lines = journal.split_inclusive(|&byte| byte == b'\n');
        for index in 0..wanted {
            let line = lines
                .next()
                .and_then(|line| line.strip_suffix(b"\n"))
                .ok_or_else(|| {
                    ConfigError::schema(format!(
                        "checkpoint journal {} holds {index} complete records, its head needs \
                         {wanted}",
                        journal_path.display()
                    ))
                })?;
            let record = std::str::from_utf8(line)
                .map_err(|_| ConfigError::schema(format!("journal record {index} is not UTF-8")))
                .and_then(value::parse_json)
                .map_err(|error| {
                    ConfigError::schema(format!("journal record {index}: {}", error.message))
                })?;
            records.push(record);
        }
        records.append(&mut checkpoint.records);
        checkpoint.records = records;
        checkpoint.records_from = 0;
        Ok(checkpoint)
    }

    /// The progress of this checkpoint, checked to come from a run of
    /// `algorithm` at `seed` whose budget is `units` progress units: the
    /// run identity every driver checks before it decodes its state.
    ///
    /// # Errors
    ///
    /// Returns an error naming the mismatch for a checkpoint of another
    /// algorithm or seed, or one whose progress exceeds `units`.
    pub fn progress_for(
        &self,
        algorithm: &str,
        seed: u64,
        units: usize,
    ) -> Result<usize, ConfigError> {
        let mismatch = if self.algorithm != algorithm {
            format!(
                "the checkpoint belongs to algorithm `{}`, not `{algorithm}`",
                self.algorithm
            )
        } else if self.seed != seed {
            format!("the checkpoint was taken at seed {}, not {seed}", self.seed)
        } else if self.progress > units {
            format!(
                "the checkpoint's progress {} exceeds this run's budget of {units} units",
                self.progress
            )
        } else {
            return Ok(self.progress);
        };
        Err(ConfigError::schema(mismatch))
    }

    /// A view of the driver state for typed reads; errors name its fields
    /// `checkpoint.state.<key>`.
    ///
    /// # Errors
    ///
    /// Returns a schema error when the state is not a table.
    pub fn state_fields(&self) -> Result<Fields<'_>, ConfigError> {
        self.state.fields("checkpoint.state")
    }

    /// The run's RNG, stored as `state.rng` ([`rng_state_to_value`]).
    ///
    /// # Errors
    ///
    /// Returns the error of [`rng_state_from_value`].
    pub fn rng(&self) -> Result<StdRng, ConfigError> {
        self.state_fields()?
            .decode("rng", rng_state_from_value)
            .map(StdRng::from_state)
    }

    /// Restore `controller` from `state.controller`
    /// ([`controller_state_to_value`]).
    ///
    /// # Errors
    ///
    /// Returns the decode error, or the first weight, head or accumulator
    /// whose shape does not fit `controller`; the controller is then left
    /// unchanged.
    pub fn restore_controller(&self, controller: &mut Controller) -> Result<(), ConfigError> {
        let state = self
            .state_fields()?
            .decode("controller", controller_state_from_value)?;
        controller
            .restore_state(&state)
            .map_err(|reason| ConfigError::schema(format!("checkpoint: {reason}")))
    }

    /// Rebuild the run's outcome: replay `records` through
    /// [`SearchOutcome::record`] and restore the counters the driver
    /// stored as `state.outcome` ([`outcome_counters_to_value`]).
    ///
    /// # Errors
    ///
    /// Returns a schema error for an incomplete checkpoint, missing or
    /// ill-typed fields, or records that do not fit `workload`.
    pub fn restore_outcome(&self, workload: &Workload) -> Result<SearchOutcome, ConfigError> {
        if !self.is_complete() {
            return Err(ConfigError::schema(format!(
                "checkpoint: records start at {}, resume needs a complete checkpoint \
                 (SearchCheckpoint::load)",
                self.records_from
            )));
        }
        outcome_from_parts(
            &self.records,
            &self.state_fields()?.table("outcome")?,
            workload,
        )
    }
}

// ---------------------------------------------------------------------------
// Checkpoint sinks
// ---------------------------------------------------------------------------

/// A consumer of checkpoints, queried by the drivers at every potential
/// snapshot point.
///
/// Drivers call [`wants`](Self::wants) *before* building the (possibly
/// expensive) state tree; a sink that always answers `false` makes
/// checkpointing free.  `on_checkpoint` is called at most once per
/// progress value, in increasing progress order; a run's first
/// checkpoint is complete, and each later one's `records` continue
/// exactly where the previous one's ended.
pub trait CheckpointSink {
    /// Should a checkpoint be taken after `progress` units of work?
    fn wants(&self, progress: usize) -> bool;

    /// Receive a checkpoint the driver just built.
    fn on_checkpoint(&self, checkpoint: &SearchCheckpoint);
}

/// The sink that never wants a checkpoint (the default for plain runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCheckpointSink;

impl CheckpointSink for NullCheckpointSink {
    fn wants(&self, _progress: usize) -> bool {
        false
    }

    fn on_checkpoint(&self, _checkpoint: &SearchCheckpoint) {}
}

/// A sink that keeps every checkpoint in memory — the test harness for
/// resume-identity gates.
///
/// It accumulates the records of the checkpoints it receives, so every
/// checkpoint it returns is complete.
#[derive(Debug)]
pub struct RecordingCheckpointSink {
    every: usize,
    recorded: Mutex<Recorded>,
}

#[derive(Debug, Default)]
struct Recorded {
    records: Vec<ConfigValue>,
    checkpoints: Vec<SearchCheckpoint>,
}

impl RecordingCheckpointSink {
    /// Record a checkpoint every `every` progress units (`every == 1`
    /// records at every snapshot point).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn every(every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            every,
            recorded: Mutex::new(Recorded::default()),
        }
    }

    /// The recorded checkpoints, in capture order.
    pub fn checkpoints(&self) -> Vec<SearchCheckpoint> {
        self.recorded
            .lock()
            .expect("recording checkpoint sink lock")
            .checkpoints
            .clone()
    }
}

impl CheckpointSink for RecordingCheckpointSink {
    fn wants(&self, progress: usize) -> bool {
        progress > 0 && progress.is_multiple_of(self.every)
    }

    fn on_checkpoint(&self, checkpoint: &SearchCheckpoint) {
        let mut recorded = self
            .recorded
            .lock()
            .expect("recording checkpoint sink lock");
        let Recorded {
            records,
            checkpoints,
        } = &mut *recorded;
        assert!(
            checkpoint.records_from <= records.len(),
            "checkpoint records start at {}, the sink holds {}",
            checkpoint.records_from,
            records.len()
        );
        records.truncate(checkpoint.records_from);
        records.extend_from_slice(&checkpoint.records);
        checkpoints.push(SearchCheckpoint {
            version: checkpoint.version,
            algorithm: checkpoint.algorithm.clone(),
            seed: checkpoint.seed,
            progress: checkpoint.progress,
            records_from: 0,
            records: records.clone(),
            state: checkpoint.state.clone(),
        });
    }
}

/// `path` with `suffix` appended to its file name: `run.ckpt` and
/// `.journal` give `run.ckpt.journal`.  Unlike
/// [`Path::with_extension`], distinct targets always derive distinct
/// names, and a derived name never equals its target.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = OsString::from(path.as_os_str());
    name.push(suffix);
    PathBuf::from(name)
}

/// The journal a [`FileCheckpointSink`] writing `head` appends records to:
/// `<head>.journal`.
pub fn journal_path(head: &Path) -> PathBuf {
    with_suffix(head, ".journal")
}

/// The temp file `<path>.tmp` that [`write_atomic`] and
/// [`FileCheckpointSink`] write before renaming it to `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    with_suffix(path, ".tmp")
}

/// Remove `path`; a file that is already gone is not an error.
fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(error) if error.kind() != io::ErrorKind::NotFound => Err(error),
        _ => Ok(()),
    }
}

/// `fsync` the directory holding `path`, so that a file created, renamed
/// or removed there survives a power cut.
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Replace `path` with `contents` atomically and durably: write
/// `<path>.tmp` and `fdatasync` it, rename it over `path`, then `fsync`
/// the directory.  A reader, a killed process or a power cut sees the old
/// file or the new one, never half of one, and `path` itself always
/// exists once written.
///
/// This is the contract for the daemon's job, result and cache files,
/// whose readers (the daemon's start-up scan, perfbench's result check,
/// operators) expect the file itself, and for the head of a budgeted
/// [`FileCheckpointSink`].  The temp file is on disk before the rename,
/// so renaming over an existing file forces no further writeback (ext4's
/// `auto_da_alloc`).
///
/// # Errors
///
/// Propagates the write, sync or rename error.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(contents)?;
    file.sync_data()?;
    fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// K: a cost-budgeted [`FileCheckpointSink`] lets the search run K times a
/// checkpoint's fixed cost before it takes the next one, so after a run's
/// first checkpoint, checkpoints take about 1/(K + 1) of its wall.
pub const CHECKPOINT_BUDGET: u32 = 20;

/// How many progress units a budgeted sink waits after a checkpoint whose
/// fixed cost was `cost`, when the search ran `units` units in `search`
/// since the checkpoint before: `max(1, ⌈K·c/u⌉)` with `u = search /
/// units`, computed exactly in nanoseconds.  A `search` of zero counts as
/// one nanosecond; the step saturates at `usize::MAX`.
///
/// This is a fixed overhead budget, after Young's first-order interval
/// argument (J. W. Young, "A first order approximation to the optimum
/// checkpoint interval", CACM 1974): overhead is `c / (step · u)`, at
/// most `1/K` once the step exceeds one.
pub fn budgeted_step(cost: Duration, search: Duration, units: usize) -> usize {
    let budget = cost
        .as_nanos()
        .saturating_mul(u128::from(CHECKPOINT_BUDGET))
        .saturating_mul(units as u128);
    let step = budget.div_ceil(search.as_nanos().max(1));
    usize::try_from(step).unwrap_or(usize::MAX).max(1)
}

/// Where a budgeted sink stands in its cadence.
#[derive(Debug)]
struct Schedule {
    /// The previous checkpoint's progress; `None` before the first.
    last: Option<usize>,
    /// When the previous checkpoint ended (before the first: when the sink
    /// was made).
    since: Instant,
}

impl Schedule {
    /// The progress unit to checkpoint at next, after a checkpoint at
    /// `progress` that began at `start`, had appended its records at
    /// `appended` and ended at `end`.  Its fixed cost is `end - appended`:
    /// records are paid once each at any cadence, so they are not charged.
    /// The search ran from the previous checkpoint's end to `start`.
    fn next_after(
        &mut self,
        progress: usize,
        start: Instant,
        appended: Instant,
        end: Instant,
    ) -> usize {
        // A run's first checkpoint is at the first unit it ran.
        let units = self.last.map_or(1, |last| progress.saturating_sub(last));
        let step = budgeted_step(
            end.saturating_duration_since(appended),
            start.saturating_duration_since(self.since),
            units.max(1),
        );
        *self = Self {
            last: Some(progress),
            since: end,
        };
        progress.saturating_add(step)
    }
}

/// What a [`FileCheckpointSink`] has written so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Their total wall inside the sink: journal append, head encode and
    /// write, syncs.  The driver's state build before each is not in it.
    pub wall: Duration,
}

/// A sink that keeps the latest checkpoint on disk — the CLI's
/// `nasaic run --checkpoint <file> --checkpoint-every <n>` sink
/// ([`new`](Self::new)) and the daemon's per-job sink
/// ([`budgeted`](Self::budgeted)).
///
/// Each checkpoint first appends its `records` to `<file>.journal`, one
/// compact JSON line each, then replaces `<file>` with a compact *head*:
/// the envelope with no records and `records_from` set to the number of
/// records journaled so far.  The head is written last, so it never
/// counts a record the journal lacks; a crash leaves the previous head
/// plus, at worst, journal lines past its count, which
/// [`SearchCheckpoint::load`] ignores.
///
/// An unsynced head is replaced without renaming over it: the sink writes
/// `<file>.tmp`, removes `<file>`, then renames `<file>.tmp` into the
/// free name.  On ext4 a rename (or a truncation) that replaces a file
/// forces the new file's data out to disk, which makes a head write
/// several times dearer; a rename into a free name does not.  In steady state
/// `<file>.tmp` is absent, so nothing is truncated either.  A kill
/// between the remove and the rename leaves only the complete
/// `<file>.tmp`, which [`SearchCheckpoint::load`] reads when `<file>` is
/// absent.  A synced head is on disk before its rename, so it is renamed
/// over `<file>` ([`write_atomic`]).  When
/// [`on_checkpoint`](CheckpointSink::on_checkpoint) returns, the complete
/// head is at `<file>` itself.
///
/// The first checkpoint must be complete (every run's is, see
/// [`SearchRun`](crate::algorithm::SearchRun)): it removes the head, temp head and journal an
/// earlier run left and starts afresh.  So resuming into the file the run
/// was loaded from rewrites its whole history once, and a kill during that
/// first write leaves no head — the run then starts over from scratch.
///
/// Write errors are swallowed (the checkpoint is a safety net, not the
/// result): after the first one the sink writes nothing more, so a head
/// never points past a gap, and keeps the error for
/// [`take_error`](Self::take_error).
///
/// Cadence and durability depend on the constructor:
///
/// * [`new`](Self::new) checkpoints exactly every `n` progress units and
///   syncs nothing: both files survive a killed process, not a power cut.
///   After one, a head that is empty or unreadable makes `--resume` report
///   a bad checkpoint — progress can be lost, never turned into a wrong
///   result.
/// * [`budgeted`](Self::budgeted) wants the first progress unit, then
///   schedules each next checkpoint at `last + `[`budgeted_step`] units,
///   from that checkpoint's measured fixed cost and the search's wall per
///   unit since the checkpoint before.  It `fdatasync`s the journal after
///   each append and the temp head before its rename over the head, then
///   `fsync`s the directory, so a power cut costs at most the units since
///   the last checkpoint.
#[derive(Debug)]
pub struct FileCheckpointSink {
    path: PathBuf,
    /// `Some(n)`: every `n` units, unsynced; `None`: budgeted and synced.
    every: Option<usize>,
    /// The first progress unit a budgeted sink wants next (1 before its
    /// first checkpoint, `usize::MAX` after a failure).
    next: AtomicUsize,
    journal: Mutex<JournalWriter>,
}

#[derive(Debug)]
struct JournalWriter {
    /// The open journal and the records it holds; `None` before the
    /// first checkpoint.
    file: Option<(File, usize)>,
    failed: bool,
    error: Option<io::Error>,
    schedule: Schedule,
    stats: CheckpointStats,
}

impl FileCheckpointSink {
    /// Write to `path` (and `<path>.journal`) every `every` progress
    /// units, without syncing either file.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: &Path, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self::with_cadence(path, Some(every))
    }

    /// Write to `path` (and `<path>.journal`) at the cost-budgeted
    /// cadence, syncing every checkpoint (see the type's docs).
    pub fn budgeted(path: &Path) -> Self {
        Self::with_cadence(path, None)
    }

    fn with_cadence(path: &Path, every: Option<usize>) -> Self {
        Self {
            path: path.to_path_buf(),
            every,
            next: AtomicUsize::new(1),
            journal: Mutex::new(JournalWriter {
                file: None,
                failed: false,
                error: None,
                schedule: Schedule {
                    last: None,
                    since: Instant::now(),
                },
                stats: CheckpointStats::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, JournalWriter> {
        self.journal.lock().expect("file checkpoint sink lock")
    }

    /// The swallowed I/O error, if any (taking it clears it; the sink
    /// stays stopped).
    pub fn take_error(&self) -> Option<io::Error> {
        self.lock().error.take()
    }

    /// How many checkpoints the sink has written, and their wall.
    pub fn stats(&self) -> CheckpointStats {
        self.lock().stats
    }

    /// Did a sink leave a head at `path` — under its own name or, after a
    /// kill between the remove and the rename, only at `<path>.tmp`?
    pub fn head_exists(path: &Path) -> bool {
        path.exists() || tmp_path(path).exists()
    }

    /// Delete the files a sink keeps for `path`: the journal, the temp head
    /// and the head.  Every removal is attempted; files already gone are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Returns the first removal error other than a missing file.
    pub fn remove_files(path: &Path) -> io::Result<()> {
        // `array::map` is eager: every file is removed before the first
        // error is picked.
        [journal_path(path), tmp_path(path), path.to_path_buf()]
            .map(|file| remove_if_present(&file))
            .into_iter()
            .collect()
    }

    /// Start the run's journal: remove the temp head and the head an
    /// earlier run left (so no head ever counts records of another run's
    /// journal), in that order so that a kill in between leaves the old
    /// pair consistent, then truncate the journal.
    fn open_journal(&self) -> io::Result<File> {
        remove_if_present(&tmp_path(&self.path))?;
        remove_if_present(&self.path)?;
        File::create(journal_path(&self.path))
    }

    /// Replace the head with `contents`.  An exact sink writes
    /// `<file>.tmp`, removes `<file>`, then renames `<file>.tmp` to
    /// `<file>`; a budgeted one calls [`write_atomic`].
    fn replace_head(&self, contents: &[u8]) -> io::Result<()> {
        if self.every.is_none() {
            return write_atomic(&self.path, contents);
        }
        let tmp = tmp_path(&self.path);
        fs::write(&tmp, contents)?;
        remove_if_present(&self.path)?;
        fs::rename(&tmp, &self.path)
    }

    /// Append the checkpoint's records and replace the head; returns when
    /// the records were appended, where the checkpoint's fixed cost starts.
    fn write(
        &self,
        journal: &mut JournalWriter,
        checkpoint: &SearchCheckpoint,
    ) -> io::Result<Instant> {
        let journaled = journal.file.as_ref().map_or(0, |(_, records)| *records);
        if checkpoint.records_from != journaled {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint records start at {}, the journal holds {journaled}",
                    checkpoint.records_from
                ),
            ));
        }
        let (file, journaled) = match &mut journal.file {
            Some(open) => open,
            None => journal.file.insert((self.open_journal()?, 0)),
        };
        if !checkpoint.records.is_empty() {
            let mut lines = String::new();
            for record in &checkpoint.records {
                value::write_json_compact(record, &mut lines);
                lines.push('\n');
            }
            file.write_all(lines.as_bytes())?;
            *journaled += checkpoint.records.len();
        }
        let appended = Instant::now();
        if self.every.is_none() {
            file.sync_data()?;
        }
        let mut head = String::new();
        checkpoint.write_json(*journaled, &[], false, &mut head);
        head.push('\n');
        self.replace_head(head.as_bytes())?;
        Ok(appended)
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn wants(&self, progress: usize) -> bool {
        progress > 0
            && match self.every {
                Some(every) => progress.is_multiple_of(every),
                None => progress >= self.next.load(Ordering::Relaxed),
            }
    }

    fn on_checkpoint(&self, checkpoint: &SearchCheckpoint) {
        let mut journal = self.lock();
        if journal.failed {
            return;
        }
        let start = Instant::now();
        match self.write(&mut journal, checkpoint) {
            Ok(appended) => {
                let end = Instant::now();
                journal.stats.checkpoints += 1;
                journal.stats.wall += end - start;
                if self.every.is_none() {
                    let next =
                        journal
                            .schedule
                            .next_after(checkpoint.progress, start, appended, end);
                    self.next.store(next, Ordering::Relaxed);
                }
            }
            Err(error) => {
                journal.failed = true;
                journal.error = Some(error);
                self.next.store(usize::MAX, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard plans and partial outcomes
// ---------------------------------------------------------------------------

/// How a driver's work is split across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// The driver is inherently serial: shard 0 runs the whole search and
    /// carries the complete outcome; the other shards are empty.
    Sequential,
    /// Partitionable unit `i` runs on shard `i % shards`; the merge
    /// replays all shards' solutions in unit order.
    Strided,
}

/// A deterministic partition of one search run across `shards` workers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The driver the plan belongs to.
    pub algorithm: String,
    /// Number of workers.
    pub shards: usize,
    /// Partitioning strategy.
    pub mode: ShardMode,
    /// Number of partitionable units (`0` for sequential plans).
    pub items: usize,
}

impl ShardPlan {
    /// A sequential (fallback) plan: shard 0 does everything.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn sequential(algorithm: &str, shards: usize) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        Self {
            algorithm: algorithm.to_string(),
            shards,
            mode: ShardMode::Sequential,
            items: 0,
        }
    }

    /// A strided plan over `items` partitionable units.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn strided(algorithm: &str, shards: usize, items: usize) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        Self {
            algorithm: algorithm.to_string(),
            shards,
            mode: ShardMode::Strided,
            items,
        }
    }

    /// Does unit `index` run on shard `shard_index` under this plan?
    pub fn assigns(&self, index: usize, shard_index: usize) -> bool {
        match self.mode {
            ShardMode::Sequential => shard_index == 0,
            ShardMode::Strided => index % self.shards == shard_index,
        }
    }
}

/// One shard's contribution to a sharded run: the outcome of the shard's
/// own search, tagged with the run it belongs to.
///
/// A strided shard's outcome records only the units it owns, each under
/// its global unit index as `episode`, so [`merge_replay`] can rebuild the
/// single-process record order.  A sequential shard 0 carries the whole
/// run's outcome; the other sequential shards carry an empty one.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// The driver that produced the partial.
    pub algorithm: String,
    /// The run's seed.
    pub seed: u64,
    /// The run's declared budget.
    pub budget: Budget,
    /// Total number of shards in the plan.
    pub shards: usize,
    /// This shard's index in `0..shards`.
    pub shard_index: usize,
    /// The shard's own search outcome.
    pub outcome: SearchOutcome,
}

impl ShardPartial {
    /// The partial of shard `shard_index` of `plan`, for a run at `seed`
    /// on `budget`.
    pub fn new(
        plan: &ShardPlan,
        seed: u64,
        budget: Budget,
        shard_index: usize,
        outcome: SearchOutcome,
    ) -> Self {
        Self {
            algorithm: plan.algorithm.clone(),
            seed,
            budget,
            shards: plan.shards,
            shard_index,
            outcome,
        }
    }

    /// The partial as a [`ConfigValue`] table.
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("algorithm", ConfigValue::Str(self.algorithm.clone()));
        root.insert("seed", ConfigValue::Integer(self.seed as i64));
        let mut budget = ConfigValue::table();
        budget.insert(
            "episodes",
            ConfigValue::Integer(self.budget.episodes as i64),
        );
        budget.insert(
            "hardware_trials",
            ConfigValue::Integer(self.budget.hardware_trials as i64),
        );
        root.insert("budget", budget);
        root.insert("shards", ConfigValue::Integer(self.shards as i64));
        root.insert("shard_index", ConfigValue::Integer(self.shard_index as i64));
        root.insert("outcome", outcome_to_value(&self.outcome));
        root
    }

    /// Parse a partial from its [`ConfigValue`] form (candidates are
    /// rebuilt against `workload`).
    ///
    /// # Errors
    ///
    /// Returns a schema error for missing/ill-typed fields or candidates
    /// that do not fit the workload.
    pub fn from_value(value: &ConfigValue, workload: &Workload) -> Result<Self, ConfigError> {
        let fields = value.fields("shard partial")?;
        let budget = fields.table("budget")?;
        Ok(Self {
            algorithm: fields.str("algorithm")?.to_string(),
            seed: fields.uint("seed")?,
            budget: Budget::new(budget.uint("episodes")?, budget.uint("hardware_trials")?),
            shards: fields.uint("shards")?,
            shard_index: fields.uint("shard_index")?,
            outcome: fields.decode("outcome", |outcome| outcome_from_value(outcome, workload))?,
        })
    }

    /// Serialize to pretty JSON (the `--shard-out` format).
    pub fn to_json(&self) -> String {
        value::to_json(&self.to_value())
    }

    /// Parse from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error or the schema error of
    /// [`from_value`](Self::from_value).
    pub fn parse_json(text: &str, workload: &Workload) -> Result<Self, ConfigError> {
        Self::from_value(&value::parse_json(text)?, workload)
    }
}

/// Merge the partials of every shard of `plan` for a run at `seed` on
/// `budget` — the pure merge behind
/// [`SearchAlgorithm::merge_shards`](crate::algorithm::SearchAlgorithm::merge_shards).
///
/// A sequential plan returns shard 0's outcome.  A strided plan sorts
/// every shard's records by `episode` (the global unit index) and replays
/// them through [`SearchOutcome::record`], reconstructing `best` exactly
/// as the single-process run did; `episodes` is
/// the plan's unit count, which every strided shard reports, and phases
/// are taken from shard 0.
///
/// # Errors
///
/// Returns an error when the partials do not form exactly one consistent
/// set for the plan: a wrong count, a duplicate or missing shard index, a
/// partial of another algorithm, shard count or seed, a strided partial
/// whose episode count is not the plan's unit count, or a partial of
/// another budget.
pub fn merge_replay(
    plan: &ShardPlan,
    seed: u64,
    budget: Budget,
    mut partials: Vec<ShardPartial>,
) -> Result<SearchOutcome, ConfigError> {
    if partials.len() != plan.shards {
        return Err(ConfigError::schema(format!(
            "a {}-shard merge needs one partial per shard, got {}",
            plan.shards,
            partials.len()
        )));
    }
    partials.sort_by_key(|partial| partial.shard_index);
    for (index, partial) in partials.iter().enumerate() {
        let mismatch = if partial.shard_index != index {
            format!("duplicate or missing shard index {index}")
        } else if partial.algorithm != plan.algorithm {
            format!(
                "shard {index} belongs to algorithm `{}`, not `{}`",
                partial.algorithm, plan.algorithm
            )
        } else if partial.shards != plan.shards {
            format!(
                "shard {index} was produced for a {}-shard plan, not {}",
                partial.shards, plan.shards
            )
        } else if partial.seed != seed {
            format!("shard {index} ran at seed {}, not {seed}", partial.seed)
        } else if plan.mode == ShardMode::Strided && partial.outcome.episodes != plan.items {
            format!(
                "shard {index} ran {} episode(s), but the plan has {}",
                partial.outcome.episodes, plan.items
            )
        } else if partial.budget != budget {
            format!(
                "shard {index} ran on a budget of {} episode(s) with {} hardware trial(s) \
                 each, not {} with {}",
                partial.budget.episodes,
                partial.budget.hardware_trials,
                budget.episodes,
                budget.hardware_trials
            )
        } else {
            continue;
        };
        return Err(ConfigError::schema(format!(
            "cannot merge shards: {mismatch}"
        )));
    }
    let mut outcomes = partials.into_iter().map(|partial| partial.outcome);
    let mut shard0 = outcomes.next().expect("a plan has at least one shard");
    if plan.mode == ShardMode::Sequential {
        return Ok(shard0);
    }
    let mut merged = SearchOutcome::empty();
    merged.phases = std::mem::take(&mut shard0.phases);
    let mut records: Vec<ExploredSolution> = std::iter::once(shard0)
        .chain(outcomes)
        .flat_map(|outcome| outcome.explored)
        .collect();
    records.sort_by_key(|solution| solution.episode);
    for solution in records {
        merged.record(solution);
    }
    merged.episodes = plan.items;
    Ok(merged)
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

/// Encode one `f64` exactly: finite values as floats (the emitter uses the
/// shortest round-trip formatting), non-finite ones as the strings
/// `"inf"` / `"-inf"` / `"nan"` (JSON has no literal for them, and
/// infeasible mappings legitimately carry `INFINITY` metrics).
pub fn float_to_value(x: f64) -> ConfigValue {
    if x.is_finite() {
        ConfigValue::Float(x)
    } else if x.is_nan() {
        ConfigValue::Str("nan".to_string())
    } else if x > 0.0 {
        ConfigValue::Str("inf".to_string())
    } else {
        ConfigValue::Str("-inf".to_string())
    }
}

/// Decode a float written by [`float_to_value`].
///
/// # Errors
///
/// Returns a schema error for values that are neither numeric nor one of
/// the non-finite marker strings.
pub fn float_from_value(value: &ConfigValue) -> Result<f64, ConfigError> {
    if let Some(x) = value.as_float() {
        return Ok(x);
    }
    match value.as_str() {
        Some("inf") => Ok(f64::INFINITY),
        Some("-inf") => Ok(f64::NEG_INFINITY),
        Some("nan") => Ok(f64::NAN),
        _ => Err(ConfigError::schema(format!(
            "expected a float, found {}",
            value.kind()
        ))),
    }
}

pub(crate) fn floats_to_value(xs: &[f64]) -> ConfigValue {
    ConfigValue::Array(xs.iter().copied().map(float_to_value).collect())
}

pub(crate) fn floats_from_value(value: &ConfigValue) -> Result<Vec<f64>, ConfigError> {
    value
        .as_array()
        .ok_or_else(|| ConfigError::schema("expected a float array"))?
        .iter()
        .map(float_from_value)
        .collect()
}

pub(crate) fn usizes_to_value(xs: &[usize]) -> ConfigValue {
    ConfigValue::Array(xs.iter().map(|&x| ConfigValue::Integer(x as i64)).collect())
}

pub(crate) fn usizes_from_value(value: &ConfigValue) -> Result<Vec<usize>, ConfigError> {
    value
        .as_array()
        .ok_or_else(|| ConfigError::schema("expected an integer array"))?
        .iter()
        .map(|item| {
            item.as_integer()
                .and_then(|raw| usize::try_from(raw).ok())
                .ok_or_else(|| ConfigError::schema("expected a non-negative integer"))
        })
        .collect()
}

/// Encode a [`StdRngState`] (ChaCha12 key + block counter + buffer index).
pub fn rng_state_to_value(state: &StdRngState) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert(
        "key",
        ConfigValue::Array(
            state
                .key
                .iter()
                .map(|&word| ConfigValue::Integer(word as i64))
                .collect(),
        ),
    );
    root.insert("counter", ConfigValue::Integer(state.counter as i64));
    root.insert("index", ConfigValue::Integer(state.index as i64));
    root
}

/// Decode a [`StdRngState`] written by [`rng_state_to_value`].
///
/// # Errors
///
/// Returns a schema error for missing/ill-typed fields, a key that is not
/// exactly 8 words, or a buffer index past the 64-word buffer.
pub fn rng_state_from_value(value: &ConfigValue) -> Result<StdRngState, ConfigError> {
    let fields = value.fields("")?;
    let words = fields.array("key")?;
    if words.len() != 8 {
        return Err(ConfigError::schema(format!(
            "rng key has {} words, expected 8",
            words.len()
        )));
    }
    let mut key = [0u32; 8];
    for (slot, word) in key.iter_mut().zip(words) {
        *slot = word
            .as_integer()
            .and_then(|raw| u32::try_from(raw).ok())
            .ok_or_else(|| ConfigError::schema("rng key word out of range"))?;
    }
    let index = fields.uint("index")?;
    if index > 64 {
        return Err(fields.invalid("index", format_args!("{index} exceeds 64")));
    }
    Ok(StdRngState {
        key,
        counter: fields.uint("counter")?,
        index,
    })
}

/// Encode `xs` exactly, as one string of 16 lowercase hex digits per
/// element: the big-endian [`f64::to_bits`].  Signed zeros, subnormals,
/// infinities and NaN payloads all survive, and the whole array is one
/// JSON token, written into one pre-sized buffer.
pub(crate) fn float_bits_to_value(xs: &[f64]) -> ConfigValue {
    let mut text = vec![0; xs.len() * 16];
    for (digits, x) in text.chunks_exact_mut(16).zip(xs) {
        for (pair, byte) in digits.chunks_exact_mut(2).zip(x.to_bits().to_be_bytes()) {
            pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
        }
    }
    ConfigValue::Str(String::from_utf8(text).expect("hex digits are ASCII"))
}

/// The lowercase hex digits, indexed by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's two lowercase hex digits, most significant first.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = [HEX_DIGITS[byte >> 4], HEX_DIGITS[byte & 0xf]];
        byte += 1;
    }
    table
};

/// Decode an array written by [`float_bits_to_value`].
///
/// # Errors
///
/// Returns a schema error for a value that is not a string, a length that
/// is not a multiple of 16, or a byte that is not a lowercase hex digit.
pub(crate) fn float_bits_from_value(value: &ConfigValue) -> Result<Vec<f64>, ConfigError> {
    let text = value.as_str().ok_or_else(|| {
        ConfigError::schema(format!(
            "expected a hex float string, found {}",
            value.kind()
        ))
    })?;
    if !text.len().is_multiple_of(16) {
        return Err(ConfigError::schema(format!(
            "hex float string has {} digits, not a multiple of 16",
            text.len()
        )));
    }
    let mut xs = Vec::with_capacity(text.len() / 16);
    for digits in text.as_bytes().chunks_exact(16) {
        let (mut bits, mut seen) = (0u64, 0u8);
        for &digit in digits {
            let nibble = HEX_VALUES[usize::from(digit)];
            seen |= nibble;
            bits = (bits << 4) | u64::from(nibble & 0xf);
        }
        if seen > 0xf {
            let digit = digits
                .iter()
                .find(|&&digit| HEX_VALUES[usize::from(digit)] > 0xf)
                .expect("a byte was not a digit");
            return Err(ConfigError::schema(format!(
                "hex float string holds byte 0x{digit:02x}, not a lowercase hex digit"
            )));
        }
        xs.push(f64::from_bits(bits));
    }
    Ok(xs)
}

/// Each byte's value as a lowercase hex digit, or `0xff` for a byte that
/// is not one.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut value = 0;
    while value < 16 {
        table[HEX_DIGITS[value] as usize] = value as u8;
        value += 1;
    }
    table
};

/// Encode a matrix as `{rows, cols, data}`, `data` being its row-major
/// elements as one string of 16 lowercase hex digits each, the
/// big-endian [`f64::to_bits`] (so every value survives exactly).
pub fn matrix_to_value(matrix: &Matrix) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert("rows", ConfigValue::Integer(matrix.rows() as i64));
    root.insert("cols", ConfigValue::Integer(matrix.cols() as i64));
    root.insert("data", float_bits_to_value(matrix.as_slice()));
    root
}

/// Decode a matrix written by [`matrix_to_value`].
///
/// # Errors
///
/// Returns a schema error for missing fields, a `data` that is not a
/// string, whose length is not a multiple of 16 or that holds a byte other
/// than a lowercase hex digit, or an element count other than
/// `rows * cols`.
pub fn matrix_from_value(value: &ConfigValue) -> Result<Matrix, ConfigError> {
    let fields = value.fields("")?;
    let rows: usize = fields.uint("rows")?;
    let cols = fields.uint("cols")?;
    let data = fields.decode("data", float_bits_from_value)?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(ConfigError::schema(format!(
            "matrix data has {} elements, expected {rows}x{cols}",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn opt_matrix_to_value(matrix: Option<&Matrix>) -> ConfigValue {
    match matrix {
        Some(matrix) => matrix_to_value(matrix),
        None => ConfigValue::Bool(false),
    }
}

fn opt_matrix_from_value(value: &ConfigValue) -> Result<Option<Matrix>, ConfigError> {
    match value {
        ConfigValue::Bool(false) => Ok(None),
        other => Ok(Some(matrix_from_value(other)?)),
    }
}

/// Encode a controller snapshot (policy weights, RMSProp accumulators,
/// trainer baseline and update count).  The matrices are written as hex
/// bit strings ([`matrix_to_value`]).
pub fn controller_state_to_value(state: &ControllerState) -> ConfigValue {
    let policy = &state.policy;
    let mut policy_table = ConfigValue::table();
    policy_table.insert("w_x", matrix_to_value(&policy.w_x));
    policy_table.insert("w_h", matrix_to_value(&policy.w_h));
    policy_table.insert("b", matrix_to_value(&policy.b));
    policy_table.insert(
        "heads",
        ConfigValue::Array(
            policy
                .heads
                .iter()
                .map(|(weights, bias)| {
                    ConfigValue::Array(vec![matrix_to_value(weights), matrix_to_value(bias)])
                })
                .collect(),
        ),
    );
    policy_table.insert(
        "opt_cell",
        ConfigValue::Array(
            policy
                .opt_cell
                .iter()
                .map(|slot| opt_matrix_to_value(slot.as_ref()))
                .collect(),
        ),
    );
    policy_table.insert(
        "opt_heads",
        ConfigValue::Array(
            policy
                .opt_heads
                .iter()
                .map(|(weights, bias)| {
                    ConfigValue::Array(vec![
                        opt_matrix_to_value(weights.as_ref()),
                        opt_matrix_to_value(bias.as_ref()),
                    ])
                })
                .collect(),
        ),
    );
    let trainer = &state.trainer;
    let mut trainer_table = ConfigValue::table();
    if let Some(baseline) = trainer.baseline {
        trainer_table.insert("baseline", float_to_value(baseline));
    }
    trainer_table.insert("updates", ConfigValue::Integer(trainer.updates as i64));
    let mut root = ConfigValue::table();
    root.insert("policy", policy_table);
    root.insert("trainer", trainer_table);
    root
}

fn matrix_pair_from_value(value: &ConfigValue) -> Result<(Matrix, Matrix), ConfigError> {
    let pair = value
        .as_array()
        .ok_or_else(|| ConfigError::schema("expected a matrix pair"))?;
    if pair.len() != 2 {
        return Err(ConfigError::schema("matrix pair must have 2 entries"));
    }
    Ok((matrix_from_value(&pair[0])?, matrix_from_value(&pair[1])?))
}

fn opt_matrix_pair_from_value(
    value: &ConfigValue,
) -> Result<(Option<Matrix>, Option<Matrix>), ConfigError> {
    let pair = value
        .as_array()
        .ok_or_else(|| ConfigError::schema("expected an accumulator pair"))?;
    if pair.len() != 2 {
        return Err(ConfigError::schema("accumulator pair must have 2 entries"));
    }
    Ok((
        opt_matrix_from_value(&pair[0])?,
        opt_matrix_from_value(&pair[1])?,
    ))
}

/// Decode a controller snapshot written by [`controller_state_to_value`].
///
/// # Errors
///
/// Returns a schema error for missing/ill-typed fields.
pub fn controller_state_from_value(value: &ConfigValue) -> Result<ControllerState, ConfigError> {
    let fields = value.fields("")?;
    let policy = fields.table("policy")?;
    let opt_cell = policy.each("opt_cell", opt_matrix_from_value)?;
    let opt_cell: [Option<Matrix>; 3] = opt_cell
        .try_into()
        .map_err(|_| policy.invalid("opt_cell", "must have 3 entries"))?;
    let policy = PolicyState {
        w_x: policy.decode("w_x", matrix_from_value)?,
        w_h: policy.decode("w_h", matrix_from_value)?,
        b: policy.decode("b", matrix_from_value)?,
        heads: policy.each("heads", matrix_pair_from_value)?,
        opt_cell,
        opt_heads: policy.each("opt_heads", opt_matrix_pair_from_value)?,
    };
    let trainer = fields.table("trainer")?;
    let trainer = TrainerState {
        baseline: trainer.opt_decode("baseline", float_from_value)?,
        updates: trainer.uint("updates")?,
    };
    Ok(ControllerState { policy, trainer })
}

/// Encode an accelerator as its sub-accelerators' `[dataflow, PEs,
/// bandwidth]` triples: the one accelerator codec of candidate records,
/// driver states and engine cache exports.
pub fn accelerator_to_value(accelerator: &Accelerator) -> ConfigValue {
    ConfigValue::Array(
        accelerator
            .sub_accelerators()
            .iter()
            .map(|sub| usizes_to_value(&[sub.dataflow.index(), sub.num_pes, sub.bandwidth_gbps]))
            .collect(),
    )
}

/// Decode an accelerator written by [`accelerator_to_value`].
///
/// # Errors
///
/// Returns a schema error for a value that is not an array of
/// non-negative integer triples, an unknown dataflow index, or no
/// sub-accelerator at all.
pub fn accelerator_from_value(value: &ConfigValue) -> Result<Accelerator, ConfigError> {
    let triples = value
        .as_array()
        .ok_or_else(|| ConfigError::schema("expected an array of sub-accelerators"))?;
    let mut subs = Vec::with_capacity(triples.len());
    for triple in triples {
        let [dataflow, pes, bandwidth] = usizes_from_value(triple)?[..] else {
            return Err(ConfigError::schema(
                "sub-accelerator triple must have 3 entries",
            ));
        };
        let dataflow = Dataflow::from_index(dataflow)
            .ok_or_else(|| ConfigError::schema(format!("unknown dataflow index {dataflow}")))?;
        subs.push(SubAccelerator::new(dataflow, pes, bandwidth));
    }
    if subs.is_empty() {
        return Err(ConfigError::schema("accelerator has no sub-accelerators"));
    }
    Ok(Accelerator::new(subs))
}

/// Encode an architecture as its hyperparameter values, from which
/// [`architecture_from_value`] rebuilds it against its task's backbone:
/// the one architecture codec of candidate records and driver states.
pub fn architecture_to_value(architecture: &Architecture) -> ConfigValue {
    usizes_to_value(&architecture.hyperparameters)
}

/// Rebuild `task`'s architecture from values written by
/// [`architecture_to_value`].
///
/// # Errors
///
/// Returns a schema error for values that are not non-negative integers
/// or do not fit the task's backbone.
pub fn architecture_from_value(
    value: &ConfigValue,
    task: &Task,
) -> Result<Architecture, ConfigError> {
    task.backbone
        .try_materialize_values(&usizes_from_value(value)?)
        .map_err(ConfigError::schema)
}

/// Encode architectures, one per task, as an array of
/// [`architecture_to_value`]s.
pub fn architectures_to_value(architectures: &[Architecture]) -> ConfigValue {
    ConfigValue::Array(architectures.iter().map(architecture_to_value).collect())
}

/// Rebuild one architecture per task of `tasks` from an array written by
/// [`architectures_to_value`].
///
/// # Errors
///
/// Returns a schema error for a value that is not an array, an array of
/// another length than `tasks`, or values that do not fit their task
/// ([`architecture_from_value`]).
pub fn architectures_from_value(
    value: &ConfigValue,
    tasks: &[Task],
) -> Result<Vec<Architecture>, ConfigError> {
    let values = value
        .as_array()
        .ok_or_else(|| ConfigError::schema("expected an array of architectures"))?;
    if values.len() != tasks.len() {
        return Err(ConfigError::schema(format!(
            "{} architectures for {} tasks",
            values.len(),
            tasks.len()
        )));
    }
    values
        .iter()
        .zip(tasks)
        .map(|(values, task)| architecture_from_value(values, task))
        .collect()
}

/// Encode a candidate: its architectures ([`architectures_to_value`]) and
/// its accelerator ([`accelerator_to_value`]).
pub fn candidate_to_value(candidate: &Candidate) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert(
        "arch_values",
        architectures_to_value(&candidate.architectures),
    );
    root.insert("subs", accelerator_to_value(&candidate.accelerator));
    root
}

/// Decode a candidate written by [`candidate_to_value`], rebuilding the
/// architectures from `workload`'s backbones.  Keys it does not read are
/// ignored, such as the index vectors that records of format 4 carry.
///
/// # Errors
///
/// Returns a schema error for missing fields, or the error of
/// [`architectures_from_value`] or [`accelerator_from_value`].
pub fn candidate_from_value(
    value: &ConfigValue,
    workload: &Workload,
) -> Result<Candidate, ConfigError> {
    let fields = value.fields("")?;
    Ok(Candidate::from_parts(
        fields.decode("arch_values", |values| {
            architectures_from_value(values, &workload.tasks)
        })?,
        fields.decode("subs", accelerator_from_value)?,
    ))
}

/// Encode an evaluation (accuracies, weighted accuracy, hardware metrics
/// — possibly `INFINITY` — and spec check).
pub fn evaluation_to_value(evaluation: &Evaluation) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert("accuracies", floats_to_value(&evaluation.accuracies));
    root.insert(
        "weighted_accuracy",
        float_to_value(evaluation.weighted_accuracy),
    );
    root.insert(
        "latency_cycles",
        float_to_value(evaluation.metrics.latency_cycles),
    );
    root.insert("energy_nj", float_to_value(evaluation.metrics.energy_nj));
    root.insert("area_um2", float_to_value(evaluation.metrics.area_um2));
    root.insert(
        "spec_latency",
        ConfigValue::Bool(evaluation.spec_check.latency),
    );
    root.insert(
        "spec_energy",
        ConfigValue::Bool(evaluation.spec_check.energy),
    );
    root.insert("spec_area", ConfigValue::Bool(evaluation.spec_check.area));
    root
}

/// Decode an evaluation written by [`evaluation_to_value`] (ignoring the
/// `mapping_feasible` flag that records of format 4 carry).
///
/// # Errors
///
/// Returns a schema error for missing/ill-typed fields.
pub fn evaluation_from_value(value: &ConfigValue) -> Result<Evaluation, ConfigError> {
    let fields = value.fields("")?;
    Ok(Evaluation {
        accuracies: fields.decode("accuracies", floats_from_value)?,
        weighted_accuracy: fields.decode("weighted_accuracy", float_from_value)?,
        metrics: HardwareMetrics {
            latency_cycles: fields.decode("latency_cycles", float_from_value)?,
            energy_nj: fields.decode("energy_nj", float_from_value)?,
            area_um2: fields.decode("area_um2", float_from_value)?,
        },
        spec_check: SpecCheck {
            latency: fields.bool("spec_latency")?,
            energy: fields.bool("spec_energy")?,
            area: fields.bool("spec_area")?,
        },
    })
}

/// Encode one explored solution.
pub fn solution_to_value(solution: &ExploredSolution) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert("episode", ConfigValue::Integer(solution.episode as i64));
    root.insert("candidate", candidate_to_value(&solution.candidate));
    root.insert("evaluation", evaluation_to_value(&solution.evaluation));
    root.insert("reward", float_to_value(solution.reward));
    root
}

/// Decode a solution written by [`solution_to_value`].
///
/// # Errors
///
/// Returns a schema error for missing/ill-typed fields.
pub fn solution_from_value(
    value: &ConfigValue,
    workload: &Workload,
) -> Result<ExploredSolution, ConfigError> {
    let fields = value.fields("")?;
    Ok(ExploredSolution {
        episode: fields.uint("episode")?,
        candidate: fields.decode("candidate", |candidate| {
            candidate_from_value(candidate, workload)
        })?,
        evaluation: fields.decode("evaluation", evaluation_from_value)?,
        reward: fields.decode("reward", float_from_value)?,
    })
}

/// Decode a phase summary written by [`PhaseSummary::to_value`].
///
/// # Errors
///
/// Returns a schema error for missing/ill-typed fields.
pub fn phase_summary_from_value(value: &ConfigValue) -> Result<PhaseSummary, ConfigError> {
    let fields = value.fields("")?;
    Ok(PhaseSummary {
        name: fields.str("name")?.to_string(),
        episodes: fields.uint("episodes")?,
        explored: fields.uint("explored")?,
        spec_compliant: fields.uint("spec_compliant")?,
        best_weighted_accuracy: fields.opt_decode("best_weighted_accuracy", float_from_value)?,
        detail: fields.str("detail")?.to_string(),
    })
}

/// Encode a full search outcome (the shard partials' form).
///
/// Only the `explored` record sequence and the scalar counters are
/// written: `best` is reconstructed by replaying the records through
/// [`SearchOutcome::record`], which is exactly how every driver built it
/// in the first place.
pub fn outcome_to_value(outcome: &SearchOutcome) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert(
        "explored",
        ConfigValue::Array(outcome.explored.iter().map(solution_to_value).collect()),
    );
    if let ConfigValue::Table(counters) = outcome_counters_to_value(outcome) {
        for (key, value) in counters {
            root.insert(&key, value);
        }
    }
    root
}

/// Encode an outcome's counters — everything but the `explored` records,
/// which a checkpoint carries in its envelope.  Drivers store this as
/// `state.outcome`; [`SearchCheckpoint::restore_outcome`] reads it back.
pub fn outcome_counters_to_value(outcome: &SearchOutcome) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert("episodes", ConfigValue::Integer(outcome.episodes as i64));
    root.insert(
        "pruned_episodes",
        ConfigValue::Integer(outcome.pruned_episodes as i64),
    );
    root.insert(
        "phases",
        ConfigValue::Array(outcome.phases.iter().map(PhaseSummary::to_value).collect()),
    );
    root
}

/// Decode an outcome written by [`outcome_to_value`] by replaying its
/// record sequence.
///
/// # Errors
///
/// Returns a schema error for missing/ill-typed fields.
pub fn outcome_from_value(
    value: &ConfigValue,
    workload: &Workload,
) -> Result<SearchOutcome, ConfigError> {
    let fields = value.fields("")?;
    outcome_from_parts(fields.array("explored")?, &fields, workload)
}

/// Replay `records` into an outcome and restore the counters of
/// [`outcome_counters_to_value`] from `counters`.
fn outcome_from_parts(
    records: &[ConfigValue],
    counters: &Fields<'_>,
    workload: &Workload,
) -> Result<SearchOutcome, ConfigError> {
    let mut outcome = SearchOutcome::empty();
    for (index, solution) in records.iter().enumerate() {
        let solution = solution_from_value(solution, workload).map_err(|error| {
            ConfigError::schema(format!("checkpoint record {index}: {}", error.message))
        })?;
        outcome.record(solution);
    }
    outcome.episodes = counters.uint("episodes")?;
    outcome.pruned_episodes = counters.uint("pruned_episodes")?;
    outcome.phases = counters.each("phases", phase_summary_from_value)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{AccuracyOracle, Evaluator};
    use crate::spec::{DesignSpecs, WorkloadId};
    use nasaic_nn::backbone::Backbone;
    use nasaic_rl::{Controller, ControllerConfig, Segment};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fs::OpenOptions;

    fn sample_solution(episode: usize, compliant: bool) -> ExploredSolution {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let architectures: Vec<_> = workload
            .tasks
            .iter()
            .map(|t| {
                if compliant {
                    t.backbone.smallest_architecture()
                } else {
                    t.backbone.largest_architecture()
                }
            })
            .collect();
        let accelerator = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 1760, 40),
            SubAccelerator::new(Dataflow::Shidiannao, 1152, 24),
        ]);
        let candidate = Candidate::from_parts(architectures, accelerator);
        let evaluation = evaluator.evaluate(&candidate);
        ExploredSolution {
            episode,
            candidate,
            evaluation,
            reward: 0.25,
        }
    }

    #[test]
    fn checkpoint_envelope_round_trips_through_json() {
        let mut state = ConfigValue::table();
        state.insert("counter", ConfigValue::Integer(42));
        let checkpoint = SearchCheckpoint::new("monte-carlo", 7, 13, state);
        let parsed = SearchCheckpoint::parse_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut checkpoint = SearchCheckpoint::new("nasaic", 1, 0, ConfigValue::table());
        checkpoint.version = 99;
        let error = SearchCheckpoint::parse_json(&checkpoint.to_json()).unwrap_err();
        assert!(error.message.contains("version"), "{error}");
    }

    #[test]
    fn mismatched_algorithm_is_rejected() {
        let checkpoint = SearchCheckpoint::new("nasaic", 1, 3, ConfigValue::table());
        let error = checkpoint.progress_for("monte-carlo", 1, 5).unwrap_err();
        assert!(error.message.contains("algorithm `nasaic`"), "{error}");
        let error = checkpoint.progress_for("nasaic", 2, 5).unwrap_err();
        assert!(error.message.contains("seed 1, not 2"), "{error}");
        let error = checkpoint.progress_for("nasaic", 1, 2).unwrap_err();
        assert!(error.message.contains("progress 3 exceeds"), "{error}");
        assert_eq!(checkpoint.progress_for("nasaic", 1, 3).unwrap(), 3);
    }

    #[test]
    fn non_finite_floats_round_trip() {
        for x in [1.5, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e308, 5e-324] {
            let decoded = float_from_value(&float_to_value(x)).unwrap();
            assert_eq!(decoded.to_bits(), x.to_bits(), "{x}");
        }
        let nan = float_from_value(&float_to_value(f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn rng_state_round_trips_mid_buffer() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..37 {
            let _: u32 = rng.gen_range(0..1000);
        }
        let state = rng.state();
        let decoded = rng_state_from_value(&rng_state_to_value(&state)).unwrap();
        assert_eq!(decoded, state);
        let mut restored = StdRng::from_state(decoded);
        for _ in 0..100 {
            assert_eq!(rng.gen_range(0..17usize), restored.gen_range(0..17usize));
        }
        // `StdRng::from_state` asserts the index fits its 64-word buffer.
        let mut past = rng_state_to_value(&state);
        past.insert("index", ConfigValue::Integer(65));
        let error = rng_state_from_value(&past).unwrap_err();
        assert!(error.message.contains("index 65"), "{error}");
    }

    #[test]
    fn controller_state_round_trips_through_values() {
        let segments = vec![
            Segment::new("dnn0", vec![4, 3, 4]),
            Segment::new("aic0", vec![3, 17, 9]),
        ];
        let mut controller = Controller::new(segments.clone(), ControllerConfig::default(), 5);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10 {
            let sample = controller.sample(&mut rng);
            controller.feedback(&sample, 0.1 * i as f64);
        }
        let state = controller.export_state();
        let decoded = controller_state_from_value(&controller_state_to_value(&state)).unwrap();
        assert_eq!(state_bits(&decoded), state_bits(&state));
        // And a fresh (pre-update) state with its `None` accumulators.
        let fresh = Controller::new(segments, ControllerConfig::default(), 5).export_state();
        let decoded = controller_state_from_value(&controller_state_to_value(&fresh)).unwrap();
        assert_eq!(state_bits(&decoded), state_bits(&fresh));
    }

    /// A matrix's shape and the raw bits of its elements.
    type MatrixBits = (usize, usize, Vec<u64>);

    fn matrix_bits(matrix: &Matrix) -> MatrixBits {
        let bits = matrix.as_slice().iter().map(|x| x.to_bits()).collect();
        (matrix.rows(), matrix.cols(), bits)
    }

    /// Every float of a controller snapshot as raw bits — each weight,
    /// accumulator (`None` before the first update) and the baseline, with
    /// the update count — so a comparison tells `-0.0` from `0.0` and sees
    /// NaN.
    fn state_bits(state: &ControllerState) -> Vec<Option<MatrixBits>> {
        let policy = &state.policy;
        let mut out = vec![
            Some(matrix_bits(&policy.w_x)),
            Some(matrix_bits(&policy.w_h)),
            Some(matrix_bits(&policy.b)),
        ];
        for (weights, bias) in &policy.heads {
            out.extend([Some(matrix_bits(weights)), Some(matrix_bits(bias))]);
        }
        for slot in &policy.opt_cell {
            out.push(slot.as_ref().map(matrix_bits));
        }
        for (weights, bias) in &policy.opt_heads {
            out.extend([
                weights.as_ref().map(matrix_bits),
                bias.as_ref().map(matrix_bits),
            ]);
        }
        let trainer = &state.trainer;
        out.push(trainer.baseline.map(|x| (0, 0, vec![x.to_bits()])));
        out.push(Some((trainer.updates as usize, 0, Vec::new())));
        out
    }

    #[test]
    fn matrix_bits_survive_every_special_value() {
        let values = [
            -0.0,
            0.0,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef),
            -1.5,
            f64::MAX,
            f64::from_bits(0x0123_4567_89ab_cdef),
        ];
        let matrix = Matrix::from_vec(3, 3, values.to_vec());
        let encoded = matrix_to_value(&matrix);
        assert_eq!(
            encoded.get("data").and_then(ConfigValue::as_str),
            Some(concat!(
                "8000000000000000",
                "0000000000000000",
                "0000000000000001",
                "7ff0000000000000",
                "fff0000000000000",
                "7ff80000deadbeef",
                "bff8000000000000",
                "7fefffffffffffff",
                "0123456789abcdef",
            ))
        );
        // Through the JSON text, as a checkpoint file carries it.
        let reparsed = value::parse_json(&value::to_json_compact(&encoded)).unwrap();
        for decoded in [
            matrix_from_value(&encoded).unwrap(),
            matrix_from_value(&reparsed).unwrap(),
        ] {
            assert_eq!(matrix_bits(&decoded), matrix_bits(&matrix));
        }
    }

    #[test]
    fn malformed_bit_strings_are_errors_not_panics() {
        let good = matrix_to_value(&Matrix::from_vec(1, 2, vec![1.0, -2.0]));
        let one = "3ff0000000000000";
        let cases = [
            ("15 digits", ConfigValue::Str(one[1..].to_string())),
            ("17 digits", ConfigValue::Str(format!("{one}0"))),
            (
                "a non-hex byte",
                ConfigValue::Str(format!("{one}3ff000000000000x")),
            ),
            (
                "an upper-case digit",
                ConfigValue::Str(format!("{one}3FF0000000000000")),
            ),
            (
                "a multi-byte character",
                ConfigValue::Str(format!("{one}3ff00000000000é")),
            ),
            ("one element for 1x2", ConfigValue::Str(one.to_string())),
            ("three elements for 1x2", ConfigValue::Str(one.repeat(3))),
            ("a number", ConfigValue::Float(1.0)),
            ("a decimal array", floats_to_value(&[1.0, -2.0])),
        ];
        for (what, data) in cases {
            let mut matrix = good.clone();
            matrix.insert("data", data);
            let error = matrix_from_value(&matrix).expect_err(what);
            assert!(
                error.message.starts_with("data: ") || error.message.starts_with("matrix data has"),
                "{what}: {error}"
            );
        }
        // A shape whose element count overflows is a mismatch too.
        let mut matrix = good.clone();
        matrix.insert("rows", ConfigValue::Integer(i64::MAX));
        assert!(matrix_from_value(&matrix).is_err());
        assert_eq!(
            matrix_bits(&matrix_from_value(&good).unwrap()),
            matrix_bits(&Matrix::from_vec(1, 2, vec![1.0, -2.0]))
        );
    }

    #[test]
    fn solution_round_trips_including_infinite_metrics() {
        let workload = Workload::w1();
        let mut solution = sample_solution(3, true);
        let decoded = solution_from_value(&solution_to_value(&solution), &workload).unwrap();
        assert_eq!(decoded, solution);
        // Infeasible mappings carry INFINITY metrics; they must survive.
        solution.evaluation.metrics = HardwareMetrics::infeasible();
        let decoded = solution_from_value(&solution_to_value(&solution), &workload).unwrap();
        assert_eq!(decoded, solution);
    }

    #[test]
    fn a_record_of_format_4_decodes_with_its_index_keys_unread() {
        // A w1 NASAIC record as format 4 wrote it: with the controller
        // index vectors and the mapping flag that format 5 drops.
        let v4 = concat!(
            r#"{"episode":0,"candidate":{"arch_values":[[8,64,2,32,1,64,1],[5,4,8,64,128,256]],"#,
            r#""arch_indices":[[0,1,2,0,1,1,1],[4,0,0,2,2,2]],"hardware_indices":[2,14,3,0,11,3],"#,
            r#""subs":[[2,2272,24],[0,1792,24]]},"evaluation":{"#,
            r#""accuracies":[0.890349565795511,0.842541414879596],"#,
            r#""weighted_accuracy":0.8664454903375536,"latency_cycles":798042.1428571428,"#,
            r#""energy_nj":1538269296.3999999,"area_um2":5389870002.064884,"#,
            r#""spec_latency":true,"spec_energy":true,"spec_area":false,"#,
            r#""mapping_feasible":true},"reward":-2.6082295148246573}"#
        );
        let v5 = v4
            .replace(r#""arch_indices":[[0,1,2,0,1,1,1],[4,0,0,2,2,2]],"#, "")
            .replace(r#""hardware_indices":[2,14,3,0,11,3],"#, "")
            .replace(r#","mapping_feasible":true"#, "");
        let workload = Workload::w1();
        let decode = |text: &str| solution_from_value(&value::parse_json(text).unwrap(), &workload);
        let solution = decode(v4).unwrap();
        assert_eq!(solution, decode(&v5).unwrap());
        assert_eq!(value::to_json_compact(&solution_to_value(&solution)), v5);
    }

    #[test]
    fn architecture_values_that_do_not_fit_their_backbone_are_errors() {
        let workload = Workload::w1();
        assert_eq!(
            workload
                .tasks
                .iter()
                .map(|task| task.backbone)
                .collect::<Vec<_>>(),
            [Backbone::ResNet9Cifar10, Backbone::UNetNuclei]
        );
        let record = solution_to_value(&sample_solution(0, true));
        let resnet_ok = vec![16, 32, 1, 64, 1, 128, 1];
        let unet_ok = vec![2, 8, 16, 32, 64, 128];
        let bad: [(Vec<usize>, Vec<usize>); 10] = [
            (vec![1], unet_ok.clone()),
            (vec![16, 32], unet_ok.clone()),
            (vec![16, 32, 1, 64], unet_ok.clone()),
            (vec![0, 32, 1, 64, 1, 128, 1], unet_ok.clone()),
            (vec![16, 32, 1, 0, 1, 128, 1], unet_ok.clone()),
            (resnet_ok.clone(), vec![]),
            (resnet_ok.clone(), vec![0, 8]),
            (resnet_ok.clone(), vec![6, 8, 16, 32, 64, 128, 256]),
            (resnet_ok.clone(), vec![3, 8, 16]),
            (resnet_ok.clone(), vec![2, 8, 0, 32, 64, 128]),
        ];
        let with_values = |resnet: &[usize], unet: &[usize]| {
            let mut candidate = record.get("candidate").unwrap().clone();
            candidate.insert(
                "arch_values",
                ConfigValue::Array(vec![usizes_to_value(resnet), usizes_to_value(unet)]),
            );
            let mut record = record.clone();
            record.insert("candidate", candidate);
            record
        };
        assert!(solution_from_value(&with_values(&resnet_ok, &unet_ok), &workload).is_ok());
        for (resnet, unet) in bad {
            let mut checkpoint = complete(1, 0);
            checkpoint.records = vec![record.clone(), with_values(&resnet, &unet)];
            checkpoint.state.insert(
                "outcome",
                outcome_counters_to_value(&SearchOutcome::empty()),
            );
            let error = checkpoint.restore_outcome(&workload).unwrap_err();
            assert!(
                error.message.starts_with("checkpoint record 1: "),
                "{resnet:?} {unet:?}: {error}"
            );
        }
    }

    #[test]
    fn a_candidate_without_sub_accelerators_is_an_error() {
        let mut candidate = candidate_to_value(&sample_solution(0, true).candidate);
        candidate.insert("subs", ConfigValue::Array(Vec::new()));
        let error = candidate_from_value(&candidate, &Workload::w1()).unwrap_err();
        assert!(error.message.contains("no sub-accelerators"), "{error}");
    }

    #[test]
    fn outcome_round_trips_by_replaying_records() {
        let workload = Workload::w1();
        let mut outcome = SearchOutcome::empty();
        outcome.record(sample_solution(0, false));
        outcome.record(sample_solution(1, true));
        outcome.record(sample_solution(2, true));
        outcome.episodes = 3;
        outcome.pruned_episodes = 1;
        outcome.phases.push(PhaseSummary {
            name: "nas".to_string(),
            episodes: 3,
            explored: 3,
            spec_compliant: 2,
            best_weighted_accuracy: Some(0.9),
            detail: "details".to_string(),
        });
        let decoded = outcome_from_value(&outcome_to_value(&outcome), &workload).unwrap();
        assert_eq!(decoded, outcome);
    }

    #[test]
    fn file_sink_writes_parseable_checkpoints() {
        let dir = test_dir("parseable");
        let path = dir.join("cp.json");
        let sink = FileCheckpointSink::new(&path, 2);
        assert!(!sink.wants(1));
        assert!(sink.wants(2));
        let checkpoint = SearchCheckpoint::new("hill-climb", 3, 2, ConfigValue::table());
        sink.on_checkpoint(&checkpoint);
        assert!(sink.take_error().is_none());
        let read = SearchCheckpoint::parse_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read, checkpoint);
        fs::remove_file(&path).unwrap();
        fs::remove_file(journal_path(&path)).unwrap();
    }

    /// A fresh directory for one test's files, removed when the guard
    /// drops, so a failing test cleans up as well as a passing one.
    struct TestDir(PathBuf);

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    fn test_dir(tag: &str) -> TestDir {
        let dir =
            std::env::temp_dir().join(format!("nasaic-checkpoint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    /// An incremental checkpoint at `progress` carrying the stand-in
    /// records `from..to` (the sink and loader treat records as opaque).
    fn increment(progress: usize, from: usize, to: usize) -> SearchCheckpoint {
        let mut state = ConfigValue::table();
        state.insert("progress_seen", ConfigValue::Integer(progress as i64));
        SearchCheckpoint {
            records_from: from,
            records: (from..to).map(|i| ConfigValue::Integer(i as i64)).collect(),
            ..SearchCheckpoint::new("monte-carlo", 5, progress, state)
        }
    }

    /// The complete checkpoint `increment(progress, from, to)` stands for.
    fn complete(progress: usize, to: usize) -> SearchCheckpoint {
        increment(progress, 0, to)
    }

    fn append(path: &Path, text: &str) {
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(text.as_bytes()).unwrap();
    }

    #[test]
    fn file_sink_journals_only_new_records_and_load_reassembles_them() {
        let dir = test_dir("journal");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 3));
        let first_head = fs::metadata(&path).unwrap().len();
        sink.on_checkpoint(&increment(2, 3, 3));
        sink.on_checkpoint(&increment(3, 3, 7));
        assert!(sink.take_error().is_none());
        assert_eq!(sink.stats().checkpoints, 3);
        assert_eq!(
            fs::read_to_string(journal_path(&path)).unwrap(),
            "0\n1\n2\n3\n4\n5\n6\n"
        );
        let head = SearchCheckpoint::parse_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!((head.records_from, head.records.len()), (7, 0));
        assert!(fs::metadata(&path).unwrap().len() <= first_head + 1);
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(3, 7));
    }

    #[test]
    fn a_torn_journal_tail_loads_the_heads_checkpoint() {
        let dir = test_dir("torn");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 2));
        // Killed mid-append: half a record past the head's count.
        append(&journal_path(&path), "{\"half");
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(1, 2));
    }

    #[test]
    fn records_appended_before_a_kill_are_ignored_then_truncated() {
        let dir = test_dir("extra");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 2));
        // Killed between the append and the head rename: complete lines
        // the head does not count yet.
        append(&journal_path(&path), "2\n3\n");
        let loaded = SearchCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, complete(1, 2));
        // The resumed run's first checkpoint is complete; its sink
        // rewrites the journal, dropping them.
        let resumed = FileCheckpointSink::new(&path, 1);
        resumed.on_checkpoint(&complete(2, 3));
        assert!(resumed.take_error().is_none());
        assert_eq!(
            fs::read_to_string(journal_path(&path)).unwrap(),
            "0\n1\n2\n"
        );
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(2, 3));
    }

    #[test]
    fn a_journal_shorter_than_its_head_is_an_error() {
        let dir = test_dir("short");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 3));
        let journal = journal_path(&path);
        fs::write(&journal, "0\n1\n").unwrap();
        let error = SearchCheckpoint::load(&path).unwrap_err();
        assert!(
            error.message.contains("holds 2 complete records"),
            "{error}"
        );
        // An unterminated last counted line is short too.
        fs::write(&journal, "0\n1\n2").unwrap();
        assert!(SearchCheckpoint::load(&path).is_err());
        // So are a malformed line and a missing journal.
        fs::write(&journal, "0\n{\n2\n").unwrap();
        assert!(SearchCheckpoint::load(&path).is_err());
        // A head claiming more records than memory could hold.
        let head = fs::read_to_string(&path).unwrap();
        let inflated = head.replacen(
            "\"records_from\":3",
            &format!("\"records_from\":{}", i64::MAX),
            1,
        );
        assert_ne!(inflated, head);
        fs::write(&path, inflated).unwrap();
        assert!(SearchCheckpoint::load(&path).is_err());
        fs::write(&path, head).unwrap();
        fs::remove_file(&journal).unwrap();
        assert!(SearchCheckpoint::load(&path).is_err());
    }

    #[test]
    fn a_file_sink_refuses_an_incomplete_first_checkpoint_and_stops() {
        let dir = test_dir("first");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 3));
        let (head, journal) = (
            fs::read(&path).unwrap(),
            fs::read(journal_path(&path)).unwrap(),
        );
        // A second sink that never saw records 0..3 cannot continue them;
        // the earlier run's files stay as they were.
        let stray = FileCheckpointSink::new(&path, 1);
        stray.on_checkpoint(&increment(2, 3, 4));
        assert!(stray.take_error().is_some());
        stray.on_checkpoint(&complete(3, 5));
        assert!(stray.take_error().is_none(), "the error was taken");
        assert_eq!(fs::read(&path).unwrap(), head);
        assert_eq!(fs::read(journal_path(&path)).unwrap(), journal);
    }

    #[test]
    fn a_fresh_run_replaces_an_earlier_runs_head_and_journal() {
        let dir = test_dir("fresh");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 3));
        let rerun = FileCheckpointSink::new(&path, 1);
        rerun.on_checkpoint(&increment(1, 0, 1));
        assert!(rerun.take_error().is_none());
        assert_eq!(fs::read_to_string(journal_path(&path)).unwrap(), "0\n");
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(1, 1));
    }

    #[test]
    fn a_file_sink_run_leaves_a_head_and_a_journal_and_no_temp_head() {
        let dir = test_dir("no-tmp");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 2));
        sink.on_checkpoint(&increment(2, 2, 3));
        assert!(sink.take_error().is_none());
        let mut names: Vec<_> = fs::read_dir(&*dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["run.ckpt", "run.ckpt.journal"]);
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn a_head_left_only_at_its_temp_name_loads() {
        // Killed between removing the old head and renaming the new one in.
        let dir = test_dir("tmp-only");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 2));
        sink.on_checkpoint(&increment(2, 2, 4));
        fs::rename(&path, tmp_path(&path)).unwrap();
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(2, 4));
    }

    #[test]
    fn a_sinks_files_are_found_and_removed_under_either_head_name() {
        let dir = test_dir("remove-files");
        let path = dir.join("run.ckpt");
        assert!(!FileCheckpointSink::head_exists(&path));
        FileCheckpointSink::new(&path, 1).on_checkpoint(&increment(1, 0, 2));
        assert!(FileCheckpointSink::head_exists(&path));
        fs::rename(&path, tmp_path(&path)).unwrap();
        assert!(FileCheckpointSink::head_exists(&path));
        FileCheckpointSink::remove_files(&path).unwrap();
        assert!(!FileCheckpointSink::head_exists(&path));
        assert_eq!(fs::read_dir(&*dir).unwrap().count(), 0);
        FileCheckpointSink::remove_files(&path).unwrap();
    }

    #[test]
    fn a_head_beside_a_torn_temp_head_loads_the_head() {
        // Killed while writing the next head's temp file.
        let dir = test_dir("torn-tmp");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 2));
        let head = fs::read_to_string(&path).unwrap();
        append(&journal_path(&path), "2\n");
        fs::write(tmp_path(&path), &head[..head.len() / 2]).unwrap();
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(1, 2));
    }

    #[test]
    fn loading_without_either_head_names_the_head() {
        let dir = test_dir("no-head");
        let path = dir.join("run.ckpt");
        let error = SearchCheckpoint::load(&path).unwrap_err();
        let named = format!("cannot read {}:", path.display());
        assert!(error.message.starts_with(&named), "{error}");
    }

    #[test]
    fn a_first_checkpoint_removes_a_stale_temp_head() {
        let dir = test_dir("stale-tmp");
        let path = dir.join("run.ckpt");
        fs::write(tmp_path(&path), "{\"torn").unwrap();
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 1));
        assert!(sink.take_error().is_none());
        assert!(!tmp_path(&path).exists());
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(1, 1));
    }

    #[test]
    fn a_failed_head_write_stops_the_sink() {
        let dir = test_dir("failed-head");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::new(&path, 1);
        sink.on_checkpoint(&increment(1, 0, 2));
        let head = fs::read(&path).unwrap();
        // A directory in the temp head's place fails the next write.
        fs::create_dir(tmp_path(&path)).unwrap();
        sink.on_checkpoint(&increment(2, 2, 3));
        assert!(sink.take_error().is_some());
        fs::remove_dir(tmp_path(&path)).unwrap();
        sink.on_checkpoint(&increment(3, 3, 4));
        assert!(!tmp_path(&path).exists(), "the sink wrote after a failure");
        assert_eq!(fs::read(&path).unwrap(), head);
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(1, 2));
    }

    #[test]
    fn a_budgeted_step_is_k_times_the_fixed_cost_over_the_unit_wall() {
        let us = Duration::from_micros;
        // u = 1 ms: the next checkpoint comes after 20 units.
        assert_eq!(budgeted_step(us(1000), us(1000), 1), 20);
        // u = 40 ms / 20 units = 2 ms.
        assert_eq!(budgeted_step(us(1000), us(40_000), 20), 10);
        // The step rounds up: 20 · 1 µs / 3 µs = 6.67.
        assert_eq!(budgeted_step(us(1), us(3), 1), 7);
        // At least one unit, however cheap the checkpoint.
        assert_eq!(budgeted_step(Duration::ZERO, us(1000), 1), 1);
        assert_eq!(budgeted_step(us(1), Duration::from_secs(1), 1), 1);
        // A search that took no measurable time counts as 1 ns.
        assert_eq!(
            budgeted_step(Duration::from_nanos(1), Duration::ZERO, 1),
            20
        );
        assert_eq!(
            budgeted_step(Duration::MAX, Duration::ZERO, usize::MAX),
            usize::MAX
        );
    }

    #[test]
    fn a_schedule_charges_the_fixed_cost_and_not_the_records() {
        let t0 = Instant::now();
        let at = |micros: u64| t0 + Duration::from_micros(micros);
        // One checkpoint at unit 10 after 5 ms of search over 5 units
        // (u = 1 ms), with 1 ms of fixed cost, however long its records
        // took to append before it.
        for records_us in [0, 50, 50_000] {
            let mut schedule = Schedule {
                last: Some(5),
                since: t0,
            };
            let start = at(5_000);
            let appended = at(5_000 + records_us);
            let end = at(6_000 + records_us);
            assert_eq!(schedule.next_after(10, start, appended, end), 10 + 20);
            assert_eq!((schedule.last, schedule.since), (Some(10), end));
        }
        // A run's first checkpoint is its first unit, resumed or not: the
        // wall since the sink was made is one unit's.
        let mut first = Schedule {
            last: None,
            since: t0,
        };
        assert_eq!(
            first.next_after(41, at(2_000), at(2_000), at(2_100)),
            41 + 1
        );
        // The next interval is measured from that checkpoint's end.
        assert_eq!(
            first.next_after(42, at(2_200), at(2_200), at(2_300)),
            42 + 20
        );
    }

    #[test]
    fn budgeted_wants_depends_on_progress_alone_between_checkpoints() {
        let dir = test_dir("budgeted-wants");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::budgeted(&path);
        let probe = |sink: &FileCheckpointSink| (0..200).map(|p| sink.wants(p)).collect::<Vec<_>>();
        // Before the first checkpoint every unit is wanted.
        let before = probe(&sink);
        assert_eq!(before, (0..200).map(|p| p > 0).collect::<Vec<_>>());
        sink.on_checkpoint(&increment(1, 0, 2));
        assert!(sink.take_error().is_none());
        // After it, wanted from one step on, and probes agree every time.
        let after = probe(&sink);
        let next = after.iter().position(|&wanted| wanted).unwrap_or(200);
        assert!(next >= 2, "a step is at least one unit");
        assert_eq!(after, (0..200).map(|p| p >= next).collect::<Vec<_>>());
        for _ in 0..100 {
            assert_eq!(probe(&sink), after);
        }
    }

    #[test]
    fn a_budgeted_sinks_first_checkpoint_is_its_first_unit_and_complete() {
        // A run resumed at progress 40: its first unit is wanted, and its
        // first checkpoint carries the whole history.
        let dir = test_dir("budgeted-first");
        let path = dir.join("run.ckpt");
        let sink = FileCheckpointSink::budgeted(&path);
        assert!(sink.wants(41));
        sink.on_checkpoint(&complete(41, 3));
        assert!(sink.take_error().is_none());
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(41, 3));
        sink.on_checkpoint(&increment(50, 3, 5));
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(50, 5));
        assert!(!tmp_path(&path).exists());
        assert_eq!(sink.stats().checkpoints, 2);
        assert!(sink.stats().wall > Duration::ZERO);
        // An incomplete first checkpoint is refused, and a failed sink
        // wants nothing more.
        let stray = FileCheckpointSink::budgeted(&path);
        assert!(stray.wants(51));
        stray.on_checkpoint(&increment(51, 5, 6));
        assert!(stray.take_error().is_some());
        assert!((0..1000).all(|p| !stray.wants(p)));
        assert_eq!(stray.stats(), CheckpointStats::default());
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), complete(50, 5));
    }

    #[test]
    fn envelopes_of_other_versions_are_rejected() {
        let dir = test_dir("versions");
        let v1 = dir.join("v1.json");
        fs::write(
            &v1,
            r#"{"version": 1, "algorithm": "nasaic", "seed": 1, "progress": 2, "state": {}}"#,
        )
        .unwrap();
        let error = SearchCheckpoint::load(&v1).unwrap_err();
        assert!(
            error.message.contains("unsupported checkpoint version 1"),
            "{error}"
        );
        // 2^32 + 5 must not wrap around to the supported version 5.
        let json = complete(1, 0).to_json();
        let wrapped = json.replacen("\"version\": 5", "\"version\": 4294967301", 1);
        let error = SearchCheckpoint::parse_json(&wrapped).unwrap_err();
        assert!(error.message.contains("4294967301"), "{error}");
        // Version 2 wrote controller state as decimal arrays, version 3
        // kept the trainer's reward history and version 4 wrote index
        // vectors into every record; no reader for any of them is kept.
        for old in [2, 3, 4] {
            let stale = json.replacen("\"version\": 5", &format!("\"version\": {old}"), 1);
            let error = SearchCheckpoint::parse_json(&stale).unwrap_err();
            assert!(
                error.message.contains(&format!(
                    "unsupported checkpoint version {old} (this build reads 5)"
                )),
                "{error}"
            );
        }
    }

    #[test]
    fn envelope_json_matches_its_value_form() {
        let checkpoint = increment(4, 2, 5);
        assert_eq!(checkpoint.to_json(), value::to_json(&checkpoint.to_value()));
        assert_eq!(
            SearchCheckpoint::parse_json(&checkpoint.to_json()).unwrap(),
            checkpoint
        );
    }

    #[test]
    fn recording_sink_returns_complete_checkpoints() {
        let sink = RecordingCheckpointSink::every(1);
        sink.on_checkpoint(&increment(1, 0, 2));
        sink.on_checkpoint(&increment(2, 2, 5));
        assert_eq!(sink.checkpoints(), vec![complete(1, 2), complete(2, 5)]);
    }

    #[test]
    fn atomic_writes_use_a_temp_file_named_after_the_whole_target() {
        let dir = test_dir("atomic");
        // A target that itself ends in `.tmp` is still replaced through a
        // separate temp file.
        let target = dir.join("run.tmp");
        assert_eq!(with_suffix(&target, ".tmp"), dir.join("run.tmp.tmp"));
        write_atomic(&target, b"one").unwrap();
        write_atomic(&target, b"two").unwrap();
        assert_eq!(fs::read_to_string(&target).unwrap(), "two");
        assert!(!dir.join("run.tmp.tmp").exists());
        // Targets that differ only in extension get distinct temp files.
        let (json, ckpt) = (dir.join("a.json"), dir.join("a.ckpt"));
        assert_ne!(with_suffix(&json, ".tmp"), with_suffix(&ckpt, ".tmp"));
        write_atomic(&json, b"json").unwrap();
        write_atomic(&ckpt, b"ckpt").unwrap();
        assert_eq!(fs::read_to_string(&json).unwrap(), "json");
        assert_eq!(fs::read_to_string(&ckpt).unwrap(), "ckpt");
        assert_eq!(journal_path(&ckpt), dir.join("a.ckpt.journal"));
    }

    #[test]
    fn strided_merge_replays_records_in_episode_order() {
        let plan = ShardPlan::strided("monte-carlo", 2, 4);
        let budget = Budget::new(4, 0);
        assert!(plan.assigns(0, 0) && plan.assigns(2, 0));
        assert!(plan.assigns(1, 1) && plan.assigns(3, 1));
        let solutions: Vec<_> = (0..4).map(|i| sample_solution(i, i % 2 == 1)).collect();
        let mut reference = SearchOutcome::empty();
        let mut shards = [SearchOutcome::empty(), SearchOutcome::empty()];
        for (i, solution) in solutions.into_iter().enumerate() {
            reference.record(solution.clone());
            shards[i % 2].record(solution);
        }
        reference.episodes = 4;
        let [shard0, shard1] = shards.map(|mut outcome| {
            outcome.episodes = 4;
            outcome
        });
        // Merge accepts partials in any order.
        let partials = vec![
            ShardPartial::new(&plan, 7, budget, 1, shard1),
            ShardPartial::new(&plan, 7, budget, 0, shard0),
        ];
        assert_eq!(
            merge_replay(&plan, 7, budget, partials.clone()).unwrap(),
            reference
        );
        // Partials of another run are errors, not panics.
        let error = merge_replay(&plan, 8, budget, partials.clone()).unwrap_err();
        assert!(error.message.contains("seed 7, not 8"), "{error}");
        let twice = vec![partials[0].clone(), partials[0].clone()];
        let error = merge_replay(&plan, 7, budget, twice).unwrap_err();
        assert!(error.message.contains("duplicate or missing"), "{error}");
        let longer = ShardPlan::strided("monte-carlo", 2, 6);
        let error = merge_replay(&longer, 7, budget, partials.clone()).unwrap_err();
        assert!(error.message.contains("the plan has 6"), "{error}");
        let error = merge_replay(&plan, 7, Budget::new(2, 1), partials).unwrap_err();
        assert!(error.message.contains("budget of 4 episode(s)"), "{error}");
    }

    #[test]
    fn sequential_merge_returns_shard_zeros_outcome() {
        let plan = ShardPlan::sequential("nasaic", 3);
        let budget = Budget::new(1, 10);
        let mut outcome = SearchOutcome::empty();
        outcome.record(sample_solution(0, true));
        outcome.episodes = 1;
        let partials = vec![
            ShardPartial::new(&plan, 2, budget, 0, outcome.clone()),
            ShardPartial::new(&plan, 2, budget, 1, SearchOutcome::empty()),
            ShardPartial::new(&plan, 2, budget, 2, SearchOutcome::empty()),
        ];
        assert_eq!(
            merge_replay(&plan, 2, budget, partials.clone()).unwrap(),
            outcome
        );
        assert!(merge_replay(&plan, 2, budget, partials[..2].to_vec()).is_err());
    }

    #[test]
    fn shard_partial_round_trips_through_json() {
        let workload = Workload::w1();
        let plan = ShardPlan::strided("nas-then-asic", 2, 6);
        let mut outcome = SearchOutcome::empty();
        outcome.record(sample_solution(3, true));
        outcome.episodes = 6;
        outcome.phases.push(PhaseSummary {
            name: "nas".to_string(),
            episodes: 2,
            explored: 2,
            spec_compliant: 0,
            best_weighted_accuracy: None,
            detail: "archs".to_string(),
        });
        // The largest seed a config holds survives the round trip; one
        // past it was written as a negative integer and is rejected.
        let mut partial = ShardPartial::new(&plan, i64::MAX as u64, Budget::new(3, 1), 1, outcome);
        let parsed = ShardPartial::parse_json(&partial.to_json(), &workload).unwrap();
        assert_eq!(parsed, partial);
        partial.seed += 1;
        let error = ShardPartial::parse_json(&partial.to_json(), &workload).unwrap_err();
        assert_eq!(
            error.message,
            "shard partial.seed must be a non-negative integer, got -9223372036854775808"
        );
    }
}
