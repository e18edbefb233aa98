//! The `nasaic serve` daemon: a TCP job runner over shared warm engines.
//!
//! One process holds a registry of [`EvalEngine`]s — one per *scenario
//! identity* (workload + specs + scheduler), because engines are only
//! shareable between runs that agree on all three (the core's
//! `check_engine` gate) — and runs submitted scenarios as jobs over a
//! bounded queue and a fixed worker pool.  Everything is `std`: a
//! [`TcpListener`], one handler thread per connection, worker threads
//! draining the queue.
//!
//! Durability: with a `state_dir`, every submitted job is journaled before
//! it is queued, running jobs checkpoint through
//! [`FileCheckpointSink::budgeted`] (cost-budgeted and synced), and
//! results are persisted on completion — so a killed daemon re-queues its
//! unfinished jobs on restart and resumes them from their checkpoints
//! bit-identically.  A *graceful* shutdown
//! additionally exports every engine's caches; the next start imports
//! them, which changes wall time only, never outcomes (cached values are
//! pure).

use crate::protocol::{self, Request, PROTOCOL_VERSION};
use crate::ServeError;
use nasaic_core::algorithm::{SearchError, SearchEvent, SearchObserver};
use nasaic_core::checkpoint::{
    write_atomic, CheckpointSink, CheckpointStats, FileCheckpointSink, NullCheckpointSink,
    SearchCheckpoint,
};
use nasaic_core::engine::{CacheStats, EngineConfig, EvalEngine};
use nasaic_core::scenario::value::{parse_json, to_json};
use nasaic_core::scenario::{ConfigError, ConfigValue, Scenario};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Daemon telemetry (see docs/observability.md for the catalogue)
// ---------------------------------------------------------------------------

/// Cached handles into the global registry for the daemon's hot-ish paths
/// (labels are fixed, so one lookup per process suffices).
fn queue_depth_gauge() -> &'static Arc<nasaic_telemetry::Gauge> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Gauge>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().gauge("nasaic_serve_queue_depth", &[]))
}

fn queue_wait_histogram() -> &'static Arc<nasaic_telemetry::Histogram> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().histogram("nasaic_serve_queue_wait_ms", &[]))
}

fn job_wall_histogram() -> &'static Arc<nasaic_telemetry::Histogram> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Histogram>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().histogram("nasaic_serve_job_wall_ms", &[]))
}

fn submits_counter() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().counter("nasaic_serve_submits_total", &[]))
}

fn rejects_counter() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().counter("nasaic_serve_rejects_total", &[]))
}

fn cancels_counter() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().counter("nasaic_serve_cancels_total", &[]))
}

fn resumes_counter() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| nasaic_telemetry::global().counter("nasaic_serve_resumes_total", &[]))
}

fn checkpoint_failures_counter() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        nasaic_telemetry::global().counter("nasaic_serve_checkpoint_failures_total", &[])
    })
}

fn checkpoint_cleanup_failures_counter() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        nasaic_telemetry::global().counter("nasaic_serve_checkpoint_cleanup_failures_total", &[])
    })
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` binds an ephemeral port,
    /// reported via [`DaemonHandle::addr`]).
    pub addr: String,
    /// Durability root: job journal, checkpoints and persisted caches live
    /// here.  `None` disables persistence (jobs die with the process).
    pub state_dir: Option<PathBuf>,
    /// Maximum *queued* (not yet running) jobs; a full queue rejects
    /// submits with an explicit reason instead of queuing silently.
    pub queue_capacity: usize,
    /// Worker threads, i.e. concurrently running jobs.
    pub workers: usize,
    /// Per-job engine thread budget (`0` = all cores).  With several
    /// workers, bound this so concurrent jobs don't oversubscribe the
    /// machine.
    pub job_threads: usize,
    /// Accuracy-cache bound per engine, in entries (`0` = unbounded).
    pub accuracy_capacity: usize,
    /// Hardware-cache bound per engine, in entries (`0` = unbounded).
    pub hardware_capacity: usize,
    /// Checkpoint cadence of running jobs (only with a `state_dir`).
    /// `None`, the default, is the cost-budgeted, synced cadence
    /// ([`FileCheckpointSink::budgeted`]); `Some(n)` checkpoints exactly
    /// every `n` progress units, unsynced, for tests and benchmarks that
    /// pin the cadence.
    pub checkpoint_every: Option<usize>,
    /// Optional Prometheus text-format exposition address (`host:port`;
    /// port `0` binds an ephemeral port, reported via
    /// [`DaemonHandle::metrics_addr`]).  `None` disables the endpoint;
    /// `show metrics` over the control plane works either way.
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7764".to_string(),
            state_dir: None,
            queue_capacity: 16,
            workers: 2,
            job_threads: 0,
            // A long-lived engine must not grow without bound; 64k entries
            // per cache is plenty for days of work (entries are small) and
            // eviction only ever costs recomputation.
            accuracy_capacity: 1 << 16,
            hardware_capacity: 1 << 16,
            checkpoint_every: None,
            metrics_addr: None,
        }
    }
}

impl ServeConfig {
    /// The engine configuration every shared engine is built with.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.job_threads,
            accuracy_capacity: self.accuracy_capacity,
            hardware_capacity: self.hardware_capacity,
        }
    }
}

/// The identity under which a scenario may share an engine: everything the
/// core's engine/scenario compatibility gate checks — derived workload
/// name, tasks, specs and scheduler policy.  Seed, episode budget and
/// algorithm deliberately do *not* contribute: those vary per job and are
/// exactly what a warm engine amortises across.
pub fn engine_key(scenario: &Scenario) -> String {
    let workload = scenario.workload();
    let tasks: Vec<String> = workload
        .tasks
        .iter()
        .map(|task| {
            format!(
                "{}:{}:{:x}",
                task.name,
                task.backbone.name(),
                task.weight.to_bits()
            )
        })
        .collect();
    format!(
        "{}|{:x}|{:x}|{:x}|{}|{}",
        workload.name,
        scenario.specs.latency_cycles.to_bits(),
        scenario.specs.energy_nj.to_bits(),
        scenario.specs.area_um2.to_bits(),
        scenario.search.scheduler.name(),
        tasks.join(",")
    )
}

/// Terminal and in-flight states of one job.
#[derive(Debug, Clone, PartialEq)]
enum JobState {
    Queued,
    Running,
    /// Finished; carries the report as its JSON value.
    Finished(ConfigValue),
    Failed(String),
    Cancelled,
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished(_) => "finished",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Finished(_) | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// One submitted job.
struct Job {
    id: u64,
    scenario: Scenario,
    state: Mutex<JobState>,
    state_cv: Condvar,
    cancel: AtomicBool,
    /// The latest `new_incumbent` event (wire form), for `show incumbent`.
    incumbent: Mutex<Option<ConfigValue>>,
    /// Streams of clients watching this job; incumbent events are written
    /// to each as they happen, broken pipes are dropped.
    watchers: Mutex<Vec<TcpStream>>,
    /// When the job entered the queue (for restored jobs: when it was
    /// re-queued, not its original submission — monotonic clocks don't
    /// survive restarts).
    enqueued: Instant,
    /// When a worker picked the job up; `None` while queued.
    started: Mutex<Option<Instant>>,
    /// When the job reached a terminal state; `None` before that.
    finished: Mutex<Option<Instant>>,
    /// What the job's checkpoint sink wrote, and the error that stopped
    /// it; set when a job run with a state dir ends.
    checkpoints: Mutex<Option<(CheckpointStats, Option<String>)>>,
}

impl Job {
    fn new(id: u64, scenario: Scenario) -> Self {
        Self {
            id,
            scenario,
            state: Mutex::new(JobState::Queued),
            state_cv: Condvar::new(),
            cancel: AtomicBool::new(false),
            incumbent: Mutex::new(None),
            watchers: Mutex::new(Vec::new()),
            enqueued: Instant::now(),
            started: Mutex::new(None),
            finished: Mutex::new(None),
            checkpoints: Mutex::new(None),
        }
    }

    /// Mark the instant a worker picked the job up and return the queue
    /// wait it accrued.
    fn mark_started(&self) -> Duration {
        let now = Instant::now();
        *self.started.lock().expect("job started lock") = Some(now);
        now - self.enqueued
    }

    /// Mark the instant the job reached a terminal state and return its
    /// end-to-end (enqueue -> terminal) duration.
    fn mark_finished(&self) -> Duration {
        let now = Instant::now();
        *self.finished.lock().expect("job finished lock") = Some(now);
        now - self.enqueued
    }

    fn set_state(&self, state: JobState) {
        *self.state.lock().expect("job state lock") = state;
        self.state_cv.notify_all();
    }

    fn state(&self) -> JobState {
        self.state.lock().expect("job state lock").clone()
    }

    fn send_to_watchers(&self, value: &ConfigValue) {
        let mut watchers = self.watchers.lock().expect("watchers lock");
        watchers.retain_mut(|stream| protocol::write_line(stream, value).is_ok());
    }

    /// One row of `show jobs`.
    fn summary_value(&self) -> ConfigValue {
        let mut row = ConfigValue::table();
        row.insert("job", ConfigValue::Integer(self.id as i64));
        row.insert("scenario", ConfigValue::Str(self.scenario.name.clone()));
        row.insert(
            "algorithm",
            ConfigValue::Str(self.scenario.search.algorithm.name().to_string()),
        );
        row.insert("seed", ConfigValue::Integer(self.scenario.seed as i64));
        row.insert(
            "episodes",
            ConfigValue::Integer(self.scenario.search.episodes as i64),
        );
        let state = self.state();
        row.insert("state", ConfigValue::Str(state.label().to_string()));
        if let JobState::Failed(error) = &state {
            row.insert("error", ConfigValue::Str(error.clone()));
        }
        // Timing: queue wait once a worker picked the job up, run time
        // live while running and frozen once terminal.
        let started = *self.started.lock().expect("job started lock");
        if let Some(started) = started {
            row.insert(
                "queue_wait_ms",
                ConfigValue::Integer((started - self.enqueued).as_millis() as i64),
            );
            let end = self
                .finished
                .lock()
                .expect("job finished lock")
                .unwrap_or_else(Instant::now);
            row.insert(
                "run_ms",
                ConfigValue::Integer((end - started).as_millis() as i64),
            );
        }
        let checkpoints = self.checkpoints.lock().expect("job checkpoints lock");
        if let Some((stats, error)) = &*checkpoints {
            row.insert(
                "checkpoints",
                ConfigValue::Integer(stats.checkpoints as i64),
            );
            // Microsecond resolution: a job's checkpoints often take
            // less than a millisecond in all.
            let micros = stats.wall.as_micros() as f64;
            row.insert("checkpoint_ms", ConfigValue::Float(micros / 1e3));
            if let Some(error) = error {
                row.insert("checkpoint_error", ConfigValue::Str(error.clone()));
            }
        }
        row
    }
}

/// Streams incumbents to watchers, records them for `show incumbent`, and
/// asks the running driver to stop once the job is cancelled.  Observation
/// is passive — outcomes are bit-identical to an unobserved run.
struct JobObserver {
    job: Arc<Job>,
}

impl SearchObserver for JobObserver {
    fn should_stop(&self) -> bool {
        self.job.cancel.load(Ordering::Relaxed)
    }

    fn on_event(&self, event: &SearchEvent) {
        if let SearchEvent::NewIncumbent { .. } = event {
            let mut value = event.to_value();
            value.insert("job", ConfigValue::Integer(self.job.id as i64));
            *self.job.incumbent.lock().expect("incumbent lock") = Some(value.clone());
            self.job.send_to_watchers(&value);
        }
    }
}

/// Engines shared across jobs, one per [`engine_key`].
struct EngineRegistry {
    config: EngineConfig,
    engines: Mutex<BTreeMap<String, Arc<EvalEngine>>>,
    /// Cache exports loaded from a previous graceful shutdown, consumed
    /// lazily when the matching engine is first built.
    preloaded: Mutex<HashMap<String, ConfigValue>>,
}

impl EngineRegistry {
    fn new(config: EngineConfig, preloaded: HashMap<String, ConfigValue>) -> Self {
        Self {
            config,
            engines: Mutex::new(BTreeMap::new()),
            preloaded: Mutex::new(preloaded),
        }
    }

    fn engine_for(&self, scenario: &Scenario) -> Arc<EvalEngine> {
        let key = engine_key(scenario);
        let mut engines = self.engines.lock().expect("engine registry lock");
        if let Some(engine) = engines.get(&key) {
            return engine.clone();
        }
        let engine = Arc::new(scenario.engine_with_config(self.config));
        if let Some(export) = self
            .preloaded
            .lock()
            .expect("preloaded caches lock")
            .remove(&key)
        {
            // A corrupt persisted cache must not take the daemon down:
            // the hardened import rejects it wholesale (caches untouched)
            // and the engine simply starts cold.
            if let Err(error) = engine.import_caches(&export) {
                eprintln!(
                    "nasaic serve: discarding persisted caches for `{}`: {error}",
                    scenario.name
                );
            }
        }
        engines.insert(key, engine.clone());
        engine
    }

    /// `(key, stats)` per engine, for `show cache` and the shutdown log.
    fn stats(&self) -> Vec<(String, CacheStats)> {
        self.engines
            .lock()
            .expect("engine registry lock")
            .iter()
            .map(|(key, engine)| (key.clone(), engine.stats()))
            .collect()
    }

    /// Serialize every engine's caches for warm restarts.
    fn export_all(&self) -> ConfigValue {
        let engines = self.engines.lock().expect("engine registry lock");
        let mut rows = Vec::with_capacity(engines.len());
        for (key, engine) in engines.iter() {
            let mut row = ConfigValue::table();
            row.insert("key", ConfigValue::Str(key.clone()));
            row.insert("caches", engine.export_caches());
            rows.push(row);
        }
        let mut root = ConfigValue::table();
        root.insert("version", ConfigValue::Integer(1));
        root.insert("engines", ConfigValue::Array(rows));
        root
    }
}

/// State shared by the accept loop, handlers and workers.
struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    engines: EngineRegistry,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Read-half clones of open connections, so shutdown can unblock
    /// handlers parked in `read_line` (clients are free to keep idle
    /// connections open indefinitely).  Keyed by connection id; each
    /// handler removes its entry when it exits, so the map tracks live
    /// connections only.
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
}

impl Shared {
    fn jobs_dir(&self) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|dir| dir.join("jobs"))
    }

    fn job_path(&self, id: u64, suffix: &str) -> Option<PathBuf> {
        self.jobs_dir()
            .map(|dir| dir.join(format!("{id}.{suffix}")))
    }

    fn enqueue(&self, job: Arc<Job>) {
        self.jobs
            .lock()
            .expect("jobs lock")
            .insert(job.id, job.clone());
        let mut queue = self.queue.lock().expect("queue lock");
        queue.push_back(job);
        if nasaic_telemetry::enabled() {
            queue_depth_gauge().set(queue.len() as f64);
        }
        drop(queue);
        self.queue_cv.notify_one();
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs lock").get(&id).cloned()
    }

    /// Persist a job's terminal state (best effort: the in-memory state is
    /// authoritative for connected clients; the journal is for restarts).
    fn persist_result(&self, job: &Job, state: &JobState) {
        let Some(path) = self.job_path(job.id, "result.json") else {
            return;
        };
        let mut root = ConfigValue::table();
        root.insert("version", ConfigValue::Integer(1));
        root.insert("job", ConfigValue::Integer(job.id as i64));
        root.insert("status", ConfigValue::Str(state.label().to_string()));
        match state {
            JobState::Finished(report) => root.insert("report", report.clone()),
            JobState::Failed(error) => root.insert("error", ConfigValue::Str(error.clone())),
            _ => {}
        }
        if let Err(error) = write_atomic(&path, json_file(&root).as_bytes()) {
            eprintln!(
                "nasaic serve: cannot persist result of job {}: {error}",
                job.id
            );
        }
        // The checkpoint has served its purpose once the job is terminal.
        if let Some(ckpt) = self.job_path(job.id, "ckpt.json") {
            if let Err(error) = FileCheckpointSink::remove_files(&ckpt) {
                eprintln!(
                    "nasaic serve: cannot remove checkpoint files of job {}: {error}",
                    job.id
                );
                if nasaic_telemetry::enabled() {
                    checkpoint_cleanup_failures_counter().inc();
                }
            }
        }
    }

    /// Record a job's terminal telemetry (latency histogram, cancel
    /// counter, the owning engine's cache gauges) and set its state.
    fn finish_job(&self, job: &Arc<Job>, state: JobState, engine: Option<&EvalEngine>) {
        let wall = job.mark_finished();
        if nasaic_telemetry::enabled() {
            job_wall_histogram().record(wall.as_millis() as u64);
            if matches!(state, JobState::Cancelled) {
                cancels_counter().inc();
            }
            if let Some(engine) = engine {
                engine.publish_metrics(&job.scenario.workload().name);
            }
        }
        self.persist_result(job, &state);
        job.set_state(state);
    }

    /// Cancel a job that is not terminal.  A queued job leaves the queue
    /// under the queue lock, so no worker can pick it up any more, and ends
    /// `cancelled` at once; a job a worker already took gets the flag, and
    /// its driver stops at its next snapshot point.
    fn cancel(&self, job: &Arc<Job>) {
        let mut queue = self.queue.lock().expect("queue lock");
        match queue.iter().position(|queued| Arc::ptr_eq(queued, job)) {
            Some(index) => {
                queue.remove(index);
                if nasaic_telemetry::enabled() {
                    queue_depth_gauge().set(queue.len() as f64);
                }
                drop(queue);
                self.finish_job(job, JobState::Cancelled, None);
            }
            None => job.cancel.store(true, Ordering::Relaxed),
        }
    }

    /// Run one job to a terminal state (worker thread).
    fn run_job(&self, job: &Arc<Job>) {
        let queue_wait = job.mark_started();
        if nasaic_telemetry::enabled() {
            queue_wait_histogram().record(queue_wait.as_millis() as u64);
        }
        if job.cancel.load(Ordering::Relaxed) {
            self.finish_job(job, JobState::Cancelled, None);
            return;
        }
        job.set_state(JobState::Running);
        let engine = self.engines.engine_for(&job.scenario);
        let file_sink =
            self.job_path(job.id, "ckpt.json")
                .map(|path| match self.config.checkpoint_every {
                    Some(every) => FileCheckpointSink::new(&path, every),
                    None => FileCheckpointSink::budgeted(&path),
                });
        let sink: &dyn CheckpointSink = match &file_sink {
            Some(sink) => sink,
            None => &NullCheckpointSink,
        };
        let observer = JobObserver { job: job.clone() };
        let algorithm = job.scenario.search.algorithm;
        let run = |resume: Option<&SearchCheckpoint>| {
            job.scenario
                .run_report_checkpointed(algorithm, &engine, &observer, resume, sink)
        };
        // The checkpoint is loaded and decoded inside the job's
        // `catch_unwind`, and a driver decodes it before any work.  One
        // that does not load (unreadable, another version, a journal cut
        // below its head) or that the driver rejects (another algorithm or
        // seed, a record or state that does not decode or fit) reruns the
        // job from scratch; either way the run's first checkpoint replaces
        // the files.  A cancel stops a fresh and a resumed run alike, and
        // `catch_unwind` only contains panics.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let checkpoint = self
                .job_path(job.id, "ckpt.json")
                .filter(|path| FileCheckpointSink::head_exists(path));
            if let Some(path) = checkpoint {
                let resumed = SearchCheckpoint::load(&path)
                    .map_err(SearchError::from)
                    .and_then(|checkpoint| run(Some(&checkpoint)));
                match resumed {
                    Err(SearchError::Checkpoint(error)) => eprintln!(
                        "nasaic serve: ignoring bad checkpoint of job {}: {error}",
                        job.id
                    ),
                    resumed => {
                        if resumed.is_ok() && nasaic_telemetry::enabled() {
                            resumes_counter().inc();
                        }
                        return resumed;
                    }
                }
            }
            run(None)
        }));
        let state = match result {
            Ok(Ok(report)) => JobState::Finished(report.to_value()),
            Ok(Err(SearchError::Cancelled)) => JobState::Cancelled,
            Ok(Err(error)) => JobState::Failed(error.to_string()),
            Err(payload) => JobState::Failed(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "job panicked".to_string()),
            ),
        };
        // A failed checkpoint write does not fail the job (the sink stops
        // and the search goes on), but it must not pass unseen.
        if let Some(sink) = &file_sink {
            let error = sink.take_error().map(|error| {
                eprintln!(
                    "nasaic serve: checkpoints of job {} stopped: {error}",
                    job.id
                );
                if nasaic_telemetry::enabled() {
                    checkpoint_failures_counter().inc();
                }
                error.to_string()
            });
            *job.checkpoints.lock().expect("job checkpoints lock") = Some((sink.stats(), error));
        }
        self.finish_job(job, state, Some(engine.as_ref()));
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // Queued jobs stay journaled and resume on the
                        // next start; only running jobs are drained.
                        return;
                    }
                    match queue.pop_front() {
                        Some(job) => {
                            if nasaic_telemetry::enabled() {
                                queue_depth_gauge().set(queue.len() as f64);
                            }
                            break job;
                        }
                        None => {
                            let (guard, _) = self
                                .queue_cv
                                .wait_timeout(queue, Duration::from_millis(200))
                                .expect("queue lock");
                            queue = guard;
                        }
                    }
                }
            };
            self.run_job(&job);
        }
    }
}

/// A state-dir file's contents: pretty JSON plus a final newline.
fn json_file(value: &ConfigValue) -> String {
    let mut text = to_json(value);
    text.push('\n');
    text
}

/// Wire form of one engine's cache statistics.
fn stats_value(stats: &CacheStats) -> ConfigValue {
    let mut root = ConfigValue::table();
    for (key, value) in [
        ("accuracy_hits", stats.accuracy_hits),
        ("accuracy_misses", stats.accuracy_misses),
        ("hardware_hits", stats.hardware_hits),
        ("hardware_misses", stats.hardware_misses),
        ("accuracy_entries", stats.accuracy_entries),
        ("hardware_entries", stats.hardware_entries),
        ("accuracy_evictions", stats.accuracy_evictions),
        ("hardware_evictions", stats.hardware_evictions),
        ("accuracy_capacity", stats.accuracy_capacity),
        ("hardware_capacity", stats.hardware_capacity),
    ] {
        root.insert(key, ConfigValue::Integer(value as i64));
    }
    root.insert("hit_rate", ConfigValue::Float(stats.hit_rate()));
    root
}

/// The daemon entry points: [`Daemon::start`] for in-process use (tests,
/// the CLI) and the blocking [`DaemonHandle::join`] to wait for shutdown.
pub struct Daemon;

/// A started daemon: its bound address plus the serve thread to join.
pub struct DaemonHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    thread: JoinHandle<Result<String, ServeError>>,
}

impl DaemonHandle {
    /// The actually bound listen address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus exposition address, when
    /// [`ServeConfig::metrics_addr`] was set (resolves port `0`).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Block until the daemon shuts down; returns its summary line.
    ///
    /// # Errors
    ///
    /// Returns the serve loop's failure, or an internal error if the
    /// serve thread panicked.
    pub fn join(self) -> Result<String, ServeError> {
        self.thread
            .join()
            .map_err(|_| ServeError::new("serve thread panicked"))?
    }
}

impl Daemon {
    /// Bind the listen address, restore persisted state (journaled jobs
    /// are re-queued, cache exports staged for import) and start serving
    /// on a background thread.
    ///
    /// # Errors
    ///
    /// Returns an error when the address cannot be bound or the state
    /// directory cannot be created.
    pub fn start(config: ServeConfig) -> Result<DaemonHandle, ServeError> {
        // The daemon is observability's primary consumer: its metrics are
        // the whole point of the exposition surfaces, so collection is on
        // for the process.  Collection is passive — job outcomes stay
        // bit-identical (the `nasaic-bench telemetry` identity gate).
        nasaic_telemetry::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::new(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(metrics_addr) => {
                let listener = TcpListener::bind(metrics_addr).map_err(|e| {
                    ServeError::new(format!("cannot bind metrics addr {metrics_addr}: {e}"))
                })?;
                // Non-blocking, so the exposition thread can poll the
                // shutdown flag between accepts.
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServeError::new(format!("metrics listener: {e}")))?;
                Some(listener)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };

        let mut preloaded = HashMap::new();
        let mut restored: Vec<Arc<Job>> = Vec::new();
        let mut next_id = 1;
        if let Some(state_dir) = &config.state_dir {
            let jobs_dir = state_dir.join("jobs");
            // Synced once, so that the jobs directory outlives a power cut
            // with the jobs in it (each job file syncs the directory).
            std::fs::create_dir_all(&jobs_dir)
                .and_then(|()| std::fs::File::open(state_dir)?.sync_all())
                .map_err(|e| {
                    ServeError::new(format!(
                        "cannot create state dir {}: {e}",
                        jobs_dir.display()
                    ))
                })?;
            preloaded = load_cache_exports(&state_dir.join("caches.json"));
            let (jobs, max_id) = load_job_journal(&jobs_dir);
            restored = jobs;
            next_id = max_id + 1;
        }

        let shared = Arc::new(Shared {
            engines: EngineRegistry::new(config.engine_config(), preloaded),
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(next_id),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
            config,
        });
        for job in restored {
            if job.state().is_terminal() {
                // History only: visible in `show jobs`, never re-run.
                shared.jobs.lock().expect("jobs lock").insert(job.id, job);
            } else {
                // Unfinished at the last shutdown/crash: re-queue; the
                // worker resumes from the job's checkpoint if one exists.
                shared.enqueue(job);
            }
        }

        let serve_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("nasaic-serve".to_string())
            .spawn(move || serve(listener, metrics_listener, serve_shared))
            .map_err(|e| ServeError::new(format!("cannot spawn serve thread: {e}")))?;
        Ok(DaemonHandle {
            addr,
            metrics_addr,
            thread,
        })
    }
}

/// Read and parse one state-dir file.
fn read_state_file(path: &Path) -> Result<ConfigValue, ConfigError> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| ConfigError::schema(format!("cannot read it: {error}")))?;
    parse_json(&text)
}

/// Parse `caches.json` into per-engine-key exports (missing file: empty).
/// A file that does not decode is ignored and a row that does not decode
/// is dropped, each with its reason on stderr: its engines start cold, as
/// a cache is an optimisation, never required state.
fn load_cache_exports(path: &Path) -> HashMap<String, ConfigValue> {
    let mut exports = HashMap::new();
    if !path.exists() {
        return exports;
    }
    let file = read_state_file(path);
    let rows = match &file {
        Ok(file) => cache_rows(file),
        Err(error) => Err(error.clone()),
    };
    let rows = match rows {
        Ok(rows) => rows,
        Err(error) => {
            eprintln!(
                "nasaic serve: ignoring cache file {}: {error}",
                path.display()
            );
            return exports;
        }
    };
    for (index, row) in rows.iter().enumerate() {
        let decoded = row
            .fields("")
            .and_then(|row| Ok((row.str("key")?.to_string(), row.value("caches")?.clone())));
        match decoded {
            Ok((key, caches)) => {
                exports.insert(key, caches);
            }
            Err(error) => eprintln!(
                "nasaic serve: dropping engine row {index} of cache file {}: {error}",
                path.display()
            ),
        }
    }
    exports
}

/// The engine rows of a parsed `caches.json`.
fn cache_rows(file: &ConfigValue) -> Result<&[ConfigValue], ConfigError> {
    let fields = file.fields("caches")?;
    let version: u64 = fields.uint("version")?;
    if version != 1 {
        return Err(ConfigError::schema(format!(
            "unsupported version {version}"
        )));
    }
    fields.array("engines")
}

/// The terminal state a `<id>.result.json` records.
fn result_state(value: &ConfigValue) -> Result<JobState, ConfigError> {
    let result = value.fields("result")?;
    match result.str("status")? {
        "finished" => result
            .decode("report", |report| report.fields("").map(|_| report.clone()))
            .map(JobState::Finished),
        "cancelled" => Ok(JobState::Cancelled),
        "failed" => Ok(JobState::Failed(result.str("error")?.to_string())),
        other => Err(result.invalid("status", format_args!("names no terminal state: `{other}`"))),
    }
}

/// Scan the job journal: every `<id>.job.json` becomes a job, terminal if
/// a matching `<id>.result.json` decodes.  A job file that does not decode
/// is skipped, and a job whose result file does not decode reruns, each
/// with its reason on stderr.  Returns the jobs plus the highest id seen.
fn load_job_journal(jobs_dir: &Path) -> (Vec<Arc<Job>>, u64) {
    let mut jobs = Vec::new();
    let mut max_id = 0;
    let Ok(entries) = std::fs::read_dir(jobs_dir) else {
        return (jobs, max_id);
    };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".job.json")?.parse().ok()
        })
        .collect();
    ids.sort_unstable();
    for id in ids {
        max_id = max_id.max(id);
        let path = jobs_dir.join(format!("{id}.job.json"));
        let scenario = read_state_file(&path)
            .and_then(|value| Scenario::from_value(value.fields("job")?.value("scenario")?));
        let scenario = match scenario {
            Ok(scenario) => scenario,
            Err(error) => {
                eprintln!(
                    "nasaic serve: ignoring job file {}: {error}",
                    path.display()
                );
                continue;
            }
        };
        let job = Job::new(id, scenario);
        let result_path = jobs_dir.join(format!("{id}.result.json"));
        if result_path.exists() {
            match read_state_file(&result_path).and_then(|value| result_state(&value)) {
                Ok(state) => job.set_state(state),
                Err(error) => eprintln!(
                    "nasaic serve: rerunning job {id}: its result file {} does not decode: {error}",
                    result_path.display()
                ),
            }
        }
        jobs.push(Arc::new(job));
    }
    (jobs, max_id)
}

/// Serve Prometheus text-format scrapes on `listener` until shutdown.
///
/// Deliberately minimal HTTP: read the request head, answer every request
/// with the full registry rendering, close.  That is all a scraper needs
/// and it keeps the daemon free of an HTTP dependency.
fn metrics_exposition_loop(listener: TcpListener, shared: &Shared) {
    use std::io::Write;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Err(_) => continue,
        };
        // The listener is non-blocking, so the accepted stream starts
        // non-blocking too; scrape handling is trivial, so block with a
        // short deadline instead of polling.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        // Drain the request head (until the blank line or EOF); the
        // response doesn't depend on it.
        let mut head = [0u8; 4096];
        let mut seen = Vec::new();
        loop {
            match stream.read(&mut head) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    seen.extend_from_slice(&head[..n]);
                    if seen.windows(4).any(|w| w == b"\r\n\r\n")
                        || seen.windows(2).any(|w| w == b"\n\n")
                    {
                        break;
                    }
                }
            }
        }
        let body = nasaic_telemetry::global().render_prometheus();
        let response = format!(
            "HTTP/1.1 200 OK\r\n\
             Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let _ = stream.write_all(response.as_bytes());
    }
}

/// The serve loop: workers, accept loop, graceful shutdown, cache export.
fn serve(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
) -> Result<String, ServeError> {
    let metrics_thread = metrics_listener.map(|metrics_listener| {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("nasaic-serve-metrics".to_string())
            .spawn(move || metrics_exposition_loop(metrics_listener, &shared))
            .expect("spawn metrics thread")
    });
    let workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
        .map(|index| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("nasaic-serve-worker-{index}"))
                .spawn(move || shared.worker_loop())
                .expect("spawn worker thread")
        })
        .collect();

    // Only this thread touches the handler list.  Finished handlers leave
    // it as new ones arrive: a thread whose handle is kept keeps its stack
    // mapped, so clients that open one connection per request would
    // otherwise run the process into the kernel's mapping limit.
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses and watch events are small lines the client waits on;
        // Nagle's algorithm would hold each one back for a delayed ACK.
        let _ = stream.set_nodelay(true);
        let connection_id = shared.next_connection.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            shared
                .connections
                .lock()
                .expect("connections lock")
                .insert(connection_id, clone);
        }
        let handler_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("nasaic-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &handler_shared);
                handler_shared
                    .connections
                    .lock()
                    .expect("connections lock")
                    .remove(&connection_id);
            });
        match spawned {
            Ok(handle) => {
                // Dropping a finished thread's handle releases its stack.
                handlers.retain(|handler| !handler.is_finished());
                handlers.push(handle);
            }
            Err(e) => {
                // The failed spawn dropped the stream; drop its clone too.
                shared
                    .connections
                    .lock()
                    .expect("connections lock")
                    .remove(&connection_id);
                eprintln!("nasaic serve: cannot start a connection handler: {e}");
            }
        }
    }

    // Shutdown: workers first (they finish their running jobs), then the
    // handlers.  Clients may keep idle connections open indefinitely, so
    // shut down the *read* half of every live connection: handlers parked
    // in `read_line` wake with EOF, while in-flight final responses still
    // go out over the intact write half.
    shared.queue_cv.notify_all();
    for worker in workers {
        let _ = worker.join();
    }
    for (_, connection) in shared.connections.lock().expect("connections lock").iter() {
        let _ = connection.shutdown(std::net::Shutdown::Read);
    }
    for handler in handlers {
        let _ = handler.join();
    }
    if let Some(thread) = metrics_thread {
        let _ = thread.join();
    }

    if let Some(state_dir) = &shared.config.state_dir {
        let path = state_dir.join("caches.json");
        write_atomic(&path, json_file(&shared.engines.export_all()).as_bytes())
            .map_err(|e| ServeError::new(format!("cannot persist caches: {e}")))?;
    }
    let jobs = shared.jobs.lock().expect("jobs lock");
    let finished = jobs
        .values()
        .filter(|job| matches!(job.state(), JobState::Finished(_)))
        .count();
    let engines = shared.engines.stats();
    Ok(format!(
        "nasaic serve: shut down cleanly; {} job(s) known ({} finished), {} engine(s) warm",
        jobs.len(),
        finished,
        engines.len()
    ))
}

/// One connection: read request lines, answer each on the same stream.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match protocol::read_line_capped(&mut reader, protocol::MAX_REQUEST_LINE) {
            Ok(Some(line)) => line,
            // An oversized or non-UTF-8 line: say why, then hang up
            // rather than parse the rest of it.
            Err(error) if error.kind() == std::io::ErrorKind::InvalidData => {
                let _ =
                    protocol::write_line(&mut writer, &protocol::error_response(error.to_string()));
                hang_up(&writer);
                return;
            }
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse_line(&line) {
            Ok(request) => request,
            Err(error) => {
                let _ =
                    protocol::write_line(&mut writer, &protocol::error_response(error.to_string()));
                continue;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = handle_request(request, shared, &mut writer);
        if protocol::write_line(&mut writer, &response).is_err() {
            return;
        }
        if is_shutdown {
            return;
        }
    }
}

/// Close a connection whose input the daemon stops reading mid-line.
/// Closing a socket with unread input sends a reset, which can destroy
/// the answer still in flight; so end the answers first, then discard
/// what the client still sends (for at most 2 s and 4 MiB) before the
/// socket closes.
fn hang_up(mut stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut budget = 4 * protocol::MAX_REQUEST_LINE;
    let mut buffer = [0u8; 8192];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buffer) {
            Ok(0) | Err(_) => return,
            Ok(read) => budget = budget.saturating_sub(read),
        }
    }
}

/// Execute one request.  `writer` is only used by `submit --watch`, which
/// streams before its final response.
fn handle_request(request: Request, shared: &Arc<Shared>, writer: &mut TcpStream) -> ConfigValue {
    match request {
        Request::Ping => {
            let mut response = protocol::ok_response();
            response.insert("pong", ConfigValue::Bool(true));
            response.insert("protocol", ConfigValue::Integer(PROTOCOL_VERSION));
            response
        }
        Request::Submit { scenario, watch } => handle_submit(&scenario, watch, shared, writer),
        Request::Cancel { job: id } => match shared.job(id) {
            None => protocol::error_response(format!("no such job {id}")),
            Some(job) => {
                let state = job.state();
                if state.is_terminal() {
                    return protocol::error_response(format!(
                        "job {id} is already {}",
                        state.label()
                    ));
                }
                shared.cancel(&job);
                let mut response = protocol::ok_response();
                response.insert("job", ConfigValue::Integer(id as i64));
                response.insert("cancelling", ConfigValue::Bool(true));
                response
            }
        },
        Request::ShowJobs => {
            let jobs = shared.jobs.lock().expect("jobs lock");
            let rows: Vec<ConfigValue> = jobs.values().map(|job| job.summary_value()).collect();
            let mut response = protocol::ok_response();
            response.insert("jobs", ConfigValue::Array(rows));
            response.insert(
                "queue_capacity",
                ConfigValue::Integer(shared.config.queue_capacity as i64),
            );
            response
        }
        Request::ShowCache => {
            let mut rows = Vec::new();
            for (key, stats) in shared.engines.stats() {
                let mut row = ConfigValue::table();
                row.insert("key", ConfigValue::Str(key));
                row.insert("stats", stats_value(&stats));
                rows.push(row);
            }
            let mut response = protocol::ok_response();
            response.insert("engines", ConfigValue::Array(rows));
            response
        }
        Request::ShowIncumbent { job: id } => match shared.job(id) {
            None => protocol::error_response(format!("no such job {id}")),
            Some(job) => {
                let mut response = protocol::ok_response();
                response.insert("job", ConfigValue::Integer(id as i64));
                response.insert("state", ConfigValue::Str(job.state().label().to_string()));
                match job.incumbent.lock().expect("incumbent lock").clone() {
                    Some(incumbent) => response.insert("incumbent", incumbent),
                    None => response.insert("incumbent", ConfigValue::Bool(false)),
                }
                response
            }
        },
        Request::ShowMetrics => {
            let mut response = protocol::ok_response();
            response.insert(
                "metrics",
                nasaic_core::metrics::snapshot_to_value(&nasaic_telemetry::global().snapshot()),
            );
            response
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            // Wake the accept loop so the serve thread observes the flag.
            let _ = TcpStream::connect(shared.addr);
            let mut response = protocol::ok_response();
            response.insert("shutting_down", ConfigValue::Bool(true));
            response
        }
    }
}

fn handle_submit(
    scenario_value: &ConfigValue,
    watch: bool,
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
) -> ConfigValue {
    if shared.shutdown.load(Ordering::SeqCst) {
        return protocol::error_response("daemon is shutting down; not accepting jobs");
    }
    let scenario = match Scenario::from_value(scenario_value) {
        Ok(scenario) => scenario,
        Err(error) => return protocol::error_response(format!("bad scenario: {error}")),
    };
    {
        // Backpressure: an explicit reject-with-reason beats silent
        // unbounded queuing.  Only *queued* jobs count — running jobs
        // occupy workers, not queue slots.
        let queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.config.queue_capacity {
            if nasaic_telemetry::enabled() {
                rejects_counter().inc();
            }
            return protocol::error_response(format!(
                "queue full: {} queued job(s) at capacity {}; retry later or raise \
                 --queue-capacity",
                queue.len(),
                shared.config.queue_capacity
            ));
        }
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    // Journal before enqueueing, so a crash between the two at worst
    // resurrects a job that never ran (and never loses one that did).
    if let Some(path) = shared.job_path(id, "job.json") {
        let mut root = ConfigValue::table();
        root.insert("version", ConfigValue::Integer(1));
        root.insert("job", ConfigValue::Integer(id as i64));
        root.insert("scenario", scenario.to_value());
        if let Err(error) = write_atomic(&path, json_file(&root).as_bytes()) {
            return protocol::error_response(format!("cannot journal job: {error}"));
        }
    }
    if nasaic_telemetry::enabled() {
        submits_counter().inc();
    }
    let job = Arc::new(Job::new(id, scenario));
    if watch {
        if let Ok(clone) = writer.try_clone() {
            job.watchers.lock().expect("watchers lock").push(clone);
        }
        // Ack immediately so the client knows its id before the stream.
        let mut ack = protocol::ok_response();
        ack.insert("job", ConfigValue::Integer(id as i64));
        ack.insert("state", ConfigValue::Str("queued".to_string()));
        if protocol::write_line(writer, &ack).is_err() {
            job.watchers.lock().expect("watchers lock").clear();
        }
    }
    shared.enqueue(job.clone());
    if !watch {
        let mut response = protocol::ok_response();
        response.insert("job", ConfigValue::Integer(id as i64));
        response.insert("state", ConfigValue::Str("queued".to_string()));
        return response;
    }

    // Watch: block this handler until the job is terminal, then emit the
    // final response (events were streamed by the job's observer).
    let final_state = loop {
        let state = job.state.lock().expect("job state lock");
        if state.is_terminal() {
            break state.clone();
        }
        if shared.shutdown.load(Ordering::SeqCst) && matches!(*state, JobState::Queued) {
            drop(state);
            return protocol::error_response(format!(
                "daemon shut down before job {id} ran; it is journaled and will resume on \
                 the next start"
            ));
        }
        let (_state, _) = job
            .state_cv
            .wait_timeout(state, Duration::from_millis(200))
            .expect("job state lock");
    };
    job.watchers.lock().expect("watchers lock").clear();
    match final_state {
        JobState::Finished(report) => {
            let mut response = protocol::ok_response();
            response.insert("job", ConfigValue::Integer(id as i64));
            response.insert("done", ConfigValue::Bool(true));
            response.insert("state", ConfigValue::Str("finished".to_string()));
            response.insert("report", report);
            response
        }
        JobState::Cancelled => {
            let mut response = protocol::ok_response();
            response.insert("job", ConfigValue::Integer(id as i64));
            response.insert("done", ConfigValue::Bool(true));
            response.insert("state", ConfigValue::Str("cancelled".to_string()));
            response
        }
        JobState::Failed(error) => {
            let mut response = protocol::error_response(format!("job {id} failed: {error}"));
            response.insert("job", ConfigValue::Integer(id as i64));
            response.insert("done", ConfigValue::Bool(true));
            response.insert("state", ConfigValue::Str("failed".to_string()));
            response
        }
        JobState::Queued | JobState::Running => unreachable!("loop exits on terminal states"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_core::scenario::registry;

    fn tiny_scenario(seed: u64) -> Scenario {
        let mut scenario = registry::get("w1").expect("built-in");
        scenario.search.episodes = 2;
        scenario.search.hardware_trials = 2;
        scenario.search.bound_samples = 4;
        scenario.seed = seed;
        scenario
    }

    #[test]
    fn engine_key_ignores_seed_and_budget_but_not_specs() {
        let a = tiny_scenario(1);
        let mut b = tiny_scenario(2);
        b.search.episodes = 50;
        assert_eq!(engine_key(&a), engine_key(&b));
        let mut c = tiny_scenario(1);
        c.specs.latency_cycles *= 2.0;
        assert_ne!(engine_key(&a), engine_key(&c));
        let w3 = registry::get("w3").expect("built-in");
        assert_ne!(engine_key(&a), engine_key(&w3));
    }

    #[test]
    fn engine_registry_shares_engines_per_key() {
        let registry = EngineRegistry::new(EngineConfig::default(), HashMap::new());
        let first = registry.engine_for(&tiny_scenario(1));
        let second = registry.engine_for(&tiny_scenario(99));
        assert!(Arc::ptr_eq(&first, &second));
        let other = registry.engine_for(&nasaic_core::scenario::registry::get("w3").unwrap());
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(registry.stats().len(), 2);
    }

    #[test]
    fn cache_export_file_round_trips_through_the_registry() {
        let registry = EngineRegistry::new(EngineConfig::default(), HashMap::new());
        let scenario = tiny_scenario(5);
        let engine = registry.engine_for(&scenario);
        // Warm the engine a little so the export is non-trivial.
        let workload = scenario.workload();
        let architectures: Vec<_> = workload
            .tasks
            .iter()
            .map(|task| task.backbone.smallest_architecture())
            .collect();
        engine.accuracies(&architectures);
        let exported = registry.export_all();
        let text = to_json(&exported);
        let reloaded: HashMap<String, ConfigValue> = {
            let dir = std::env::temp_dir().join(format!(
                "nasaic-serve-test-{}-{}",
                std::process::id(),
                line!()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("caches.json");
            std::fs::write(&path, text).unwrap();
            let loaded = load_cache_exports(&path);
            std::fs::remove_dir_all(&dir).ok();
            loaded
        };
        assert_eq!(reloaded.len(), 1);
        let fresh = EngineRegistry::new(EngineConfig::default(), reloaded);
        let warm = fresh.engine_for(&scenario);
        assert_eq!(
            warm.stats().accuracy_entries,
            engine.stats().accuracy_entries
        );
        // Warm cache serves the same queries without recomputation…
        assert_eq!(warm.accuracies(&architectures), {
            let direct = scenario.engine();
            direct.accuracies(&architectures)
        });
        assert_eq!(warm.stats().accuracy_misses, 0);
    }

    #[test]
    fn job_states_report_their_labels() {
        assert_eq!(JobState::Queued.label(), "queued");
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Finished(ConfigValue::table()).is_terminal());
        assert!(JobState::Failed("x".into()).is_terminal());
    }
}
