//! The `serve-durable` workload: a real `nasaic serve --state-dir` process
//! fed an open-loop, seeded arrival schedule of mixed jobs.
//!
//! Load comes from this one thread over one connection: it submits each job
//! at its due time and, in between, polls `show jobs` for completions.  A
//! job's latency runs from its due time to the poll that first sees it
//! terminal.  Every finished job's persisted `<id>.result.json` report is
//! then checked against a direct in-process run of the same scenario.

use crate::search::{check_outcome, direct_report};
use crate::{mean, median, tail, Metrics, RunArgs, Tally};
use nasaic_core::prelude::*;
use nasaic_core::scenario::value::{self, ConfigValue};
use nasaic_serve::{Client, Request};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load, jobs per second: about a third of what two workers on two
/// cores complete with this job mix, so no backlog grows.
pub const RATE_PER_S: f64 = 2.0;

/// The job mix, cycled in this order: scenario, algorithm, episodes.
/// Budgets of a few tens of episodes, sized so that every kind of job runs
/// about as long as the others: job latencies then form one mode, whose
/// median and tail are steady.  Every job checkpoints every episode.
const TEMPLATES: [(&str, Algorithm, usize); 6] = [
    ("w1", Algorithm::Nasaic, 20),
    ("w3", Algorithm::MonteCarlo, 10),
    ("w1", Algorithm::Evolutionary, 45),
    ("w3", Algorithm::Nasaic, 20),
    ("w1", Algorithm::MonteCarlo, 10),
    ("w3", Algorithm::Evolutionary, 60),
];

/// How often the load loop polls `show jobs` for completions.
const POLL: Duration = Duration::from_millis(5);

/// Daemon start-ups per run; `setup_s` is their median.
const SPAWNS: usize = 11;

/// Entries each engine cache (accuracy, hardware) of the daemon keeps.  At
/// the default bound (65 536) the caches keep filling for a whole run, and
/// job run time drifts up with them, by 10–60% over 90 jobs and by a
/// different amount in every run.  A bound the first jobs already reach
/// puts the daemon in the steady state of a long-lived one, evicting,
/// within seconds, and keeps it there.
const CACHE_CAPACITY: &str = "256";

/// Give up on jobs still unfinished this long after the last due time.
const DRAIN_LIMIT: Duration = Duration::from_secs(90);

/// Concurrently running jobs: at most two, never more than `nproc`.  Each
/// job's engine gets one thread, so concurrent jobs do not oversubscribe
/// the cores (the daemon's documented setting for several workers).
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One scheduled job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub scenario: Scenario,
    /// Seconds after the start of the schedule.
    pub due_s: f64,
}

/// SplitMix64: a tiny seeded generator for the job list.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The job list of a run: `RATE_PER_S * seconds` jobs at fixed intervals,
/// cycling through the templates (so every run offers the same mix in the
/// same order), each with a search seed drawn from `seed`.
pub fn job_list(seed: u64, seconds: f64) -> Vec<JobSpec> {
    let count = ((RATE_PER_S * seconds).round() as usize).max(1);
    let mut rng = SplitMix(seed);
    (0..count)
        .map(|i| {
            let (name, algorithm, episodes) = TEMPLATES[i % TEMPLATES.len()];
            let mut scenario = registry::get(name).expect("built-in scenario");
            scenario.search.algorithm = algorithm;
            scenario.search.episodes = episodes;
            scenario.seed = rng.next() % 1_000_000;
            JobSpec {
                scenario,
                due_s: i as f64 / RATE_PER_S,
            }
        })
        .collect()
}

/// A `nasaic serve` child process; killed on drop if still running.
pub struct DaemonProcess {
    child: Child,
    pub addr: String,
}

impl DaemonProcess {
    /// Start the daemon and wait for its first successful `ping`; returns
    /// it with the seconds that took.
    pub fn spawn(state_dir: Option<&Path>, addr_file: &Path) -> Result<(Self, f64), String> {
        Self::spawn_with(state_dir, addr_file, &[])
    }

    /// [`DaemonProcess::spawn`] with extra `nasaic serve` flags.
    pub fn spawn_with(
        state_dir: Option<&Path>,
        addr_file: &Path,
        extra: &[&str],
    ) -> Result<(Self, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
        let _ = std::fs::remove_file(addr_file);
        let mut command = Command::new(exe);
        command
            .args(["nasaic", "serve", "--addr", "127.0.0.1:0", "--addr-file"])
            .arg(addr_file)
            .args(["--workers", &workers().to_string(), "--job-threads", "1"])
            .args(["--accuracy-capacity", CACHE_CAPACITY])
            .args(["--hardware-capacity", CACHE_CAPACITY])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(dir) = state_dir {
            command.arg("--state-dir").arg(dir);
        }
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start nasaic serve: {e}"))?;
        let mut daemon = DaemonProcess {
            child,
            addr: String::new(),
        };
        while started.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("nasaic serve exited early ({status})"));
            }
            let addr = std::fs::read_to_string(addr_file).unwrap_or_default();
            if addr.ends_with('\n') {
                daemon.addr = addr.trim().to_string();
                let pong = Client::connect(&daemon.addr)
                    .and_then(|mut c| c.request(&Request::Ping))
                    .ok()
                    .and_then(|r| r.get("pong").and_then(ConfigValue::as_bool));
                if pong == Some(true) {
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("nasaic serve did not answer a ping within 30 s".to_string())
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| e.to_string())
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(self.child.id())
    }

    /// Ask the daemon to shut down and wait until it has exited.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.client()?
            .request(&Request::Shutdown)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("nasaic serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("nasaic serve did not exit within 60 s of shutdown".to_string())
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A request whose response must carry `ok: true`.
pub fn ask(client: &mut Client, request: &Request) -> Result<ConfigValue, String> {
    let response = client.request(request).map_err(|e| e.to_string())?;
    if response.get("ok").and_then(ConfigValue::as_bool) == Some(true) {
        Ok(response)
    } else {
        Err(format!(
            "daemon refused {request:?}: {}",
            value::to_json_compact(&response)
        ))
    }
}

/// What happened to one scheduled job.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Daemon job id; `None` when the submit was rejected.
    pub id: Option<u64>,
    /// How late the generator sent it, in seconds.
    pub late_s: f64,
    /// Due time to observed completion, in seconds.
    pub latency_s: Option<f64>,
    /// Terminal state as `show jobs` reported it.
    pub state: String,
    /// The daemon's `run_ms` for the job.
    pub run_ms: Option<f64>,
}

/// The outcome of driving one job list against a daemon.
#[derive(Debug, Default)]
pub struct Load {
    pub records: Vec<JobRecord>,
    pub rejects: u64,
    /// First due time to last completion, in seconds.
    pub span_s: f64,
    /// Round-trip times of `ping`s sent while the load ran, in µs.
    pub ping_rtts_us: Vec<f64>,
}

/// Submit `jobs` at their due times and wait for every one to finish.
///
/// A submitter thread sends each job when it is due over its own
/// connection, so a slow poll never delays a send; this thread polls
/// `show jobs` over a second one.
pub fn drive(daemon: &DaemonProcess, jobs: &[JobSpec], time_pings: bool) -> Result<Load, String> {
    let requests: Vec<Request> = jobs
        .iter()
        .map(|job| Request::Submit {
            scenario: job.scenario.to_value(),
            watch: false,
        })
        .collect();
    let mut submitter = daemon.client()?;
    let mut poller = daemon.client()?;
    let mut load = Load {
        records: vec![JobRecord::default(); jobs.len()],
        ..Load::default()
    };
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(jobs[i].due_s);
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (index, request) in requests.iter().enumerate() {
                std::thread::sleep(due(index).saturating_duration_since(Instant::now()));
                let late_s = Instant::now().duration_since(due(index)).as_secs_f64();
                let response = submitter.request(request);
                if sent_tx.send((index, late_s, response)).is_err() {
                    return;
                }
            }
        });
        let mut pending: HashMap<u64, usize> = HashMap::new();
        let mut sent = 0;
        let mut last_done = start;
        let mut polls = 0u64;
        while sent < jobs.len() || !pending.is_empty() {
            for (index, late_s, response) in sent_rx.try_iter() {
                sent += 1;
                let record = &mut load.records[index];
                record.late_s = late_s;
                let response: ConfigValue = response.map_err(|e| format!("submit failed: {e}"))?;
                match response.get("job").and_then(ConfigValue::as_integer) {
                    Some(id) if response.get("ok").and_then(ConfigValue::as_bool) == Some(true) => {
                        record.id = Some(id as u64);
                        pending.insert(id as u64, index);
                    }
                    _ => {
                        load.rejects += 1;
                        record.state = format!("rejected: {}", value::to_json_compact(&response));
                    }
                }
            }
            if sent == jobs.len() && Instant::now() > due(jobs.len() - 1) + DRAIN_LIMIT {
                for (_, index) in pending.drain() {
                    load.records[index].state = "unfinished".to_string();
                }
                break;
            }
            let rows = ask(&mut poller, &Request::ShowJobs)?;
            let seen = Instant::now();
            for row in rows
                .get("jobs")
                .and_then(ConfigValue::as_array)
                .unwrap_or(&[])
            {
                let id = row
                    .get("job")
                    .and_then(ConfigValue::as_integer)
                    .unwrap_or(-1) as u64;
                let state = row.get("state").and_then(ConfigValue::as_str).unwrap_or("");
                if !matches!(state, "finished" | "failed" | "cancelled") {
                    continue;
                }
                if let Some(index) = pending.remove(&id) {
                    let record = &mut load.records[index];
                    record.state = state.to_string();
                    record.latency_s = Some(seen.duration_since(due(index)).as_secs_f64());
                    record.run_ms = row
                        .get("run_ms")
                        .and_then(ConfigValue::as_integer)
                        .map(|ms| ms as f64);
                    last_done = seen;
                }
            }
            polls += 1;
            if time_pings && polls.is_multiple_of(4) {
                let t = Instant::now();
                ask(&mut poller, &Request::Ping)?;
                load.ping_rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            std::thread::sleep(POLL);
        }
        load.span_s = last_done.duration_since(start).as_secs_f64();
        println!("serve load: {polls} polls of show jobs");
        Ok::<(), String>(())
    })?;
    Ok(load)
}

/// Hits over lookups, summed over every engine of a `show cache` response.
pub fn cache_hit_ratio(show_cache: &ConfigValue) -> f64 {
    let (mut hits, mut lookups) = (0.0, 0.0);
    for engine in show_cache
        .get("engines")
        .and_then(ConfigValue::as_array)
        .unwrap_or(&[])
    {
        let Some(stats) = engine.get("stats") else {
            continue;
        };
        let get = |k: &str| stats.get(k).and_then(ConfigValue::as_integer).unwrap_or(0) as f64;
        hits += get("accuracy_hits") + get("hardware_hits");
        lookups += get("accuracy_hits")
            + get("hardware_hits")
            + get("accuracy_misses")
            + get("hardware_misses");
    }
    if lookups > 0.0 {
        hits / lookups
    } else {
        0.0
    }
}

/// One serve session: start-ups, the load, and the daemon's own figures.
pub struct Session {
    pub setup_s: f64,
    pub jobs: Vec<JobSpec>,
    pub load: Load,
    pub show_cache: ConfigValue,
    pub rss_mb: f64,
    pub state_dir: PathBuf,
}

/// Start the daemon [`SPAWNS`] times (the last one serves the load), drive
/// the seeded job list through it, collect its figures and shut it down.
pub fn session(run: &RunArgs, time_pings: bool) -> Result<Session, String> {
    let mut setups = Vec::with_capacity(SPAWNS);
    let addr_file = run.run_dir.join("addr.txt");
    for probe in 0..SPAWNS - 1 {
        let dir = run.run_dir.join(format!("probe-state-{probe}"));
        let (daemon, seconds) = DaemonProcess::spawn(Some(&dir), &addr_file)?;
        setups.push(seconds);
        daemon.shutdown()?;
    }
    let state_dir = run.run_dir.join("state");
    let (daemon, seconds) = DaemonProcess::spawn(Some(&state_dir), &addr_file)?;
    setups.push(seconds);

    let jobs = job_list(run.seed, run.seconds);
    let load = drive(&daemon, &jobs, time_pings)?;
    let mut client = daemon.client()?;
    let show_cache = ask(&mut client, &Request::ShowCache)?;
    let rss_mb = daemon.peak_rss_mb()?;
    drop(client);
    daemon.shutdown()?;
    Ok(Session {
        setup_s: median(&setups),
        jobs,
        load,
        show_cache,
        rss_mb,
        state_dir,
    })
}

/// Check every job: accepted, finished, and its persisted report equal to
/// `reference(index)`, a direct run of the same scenario.  Returns the
/// reports of the jobs that passed.
pub fn check_jobs(
    state_dir: &Path,
    jobs: &[JobSpec],
    records: &[JobRecord],
    mut reference: impl FnMut(usize) -> ConfigValue,
    tally: &mut Tally,
) -> Vec<ConfigValue> {
    let mut reports = Vec::new();
    for (index, record) in records.iter().enumerate().take(jobs.len()) {
        let mut result = || {
            let id = record.id.ok_or_else(|| format!("job {}", record.state))?;
            if record.state != "finished" {
                return Err(format!("job {id} ended {}", record.state));
            }
            let path = state_dir.join("jobs").join(format!("{id}.result.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let persisted = value::parse_json(&text).map_err(|e| e.to_string())?;
            let report = persisted
                .get("report")
                .ok_or_else(|| format!("job {id}: result has no report"))?;
            check_outcome(&format!("job {id}"), report, &reference(index))?;
            Ok(report.clone())
        };
        match result() {
            Ok(report) => {
                reports.push(report);
                tally.record(Ok(()));
            }
            Err(reason) => tally.record(Err(reason)),
        }
    }
    reports
}

/// `--trace 0` on `serve-durable`.
pub fn measure(run: &RunArgs, tally: &mut Tally) -> Result<Metrics, String> {
    let session = session(run, false)?;
    let reports = check_jobs(
        &session.state_dir,
        &session.jobs,
        &session.load.records,
        |i| direct_report(&session.jobs[i].scenario),
        tally,
    );
    let latencies: Vec<f64> = session
        .load
        .records
        .iter()
        .filter_map(|r| r.latency_s)
        .collect();
    let run_s: Vec<f64> = session
        .load
        .records
        .iter()
        .filter_map(|r| r.run_ms.map(|ms| ms / 1e3))
        .collect();
    let best: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.get("best")?.get("weighted_accuracy")?.as_float())
        .collect();
    if latencies.is_empty() || run_s.is_empty() || best.is_empty() {
        return Err("no job finished with a spec-compliant best".to_string());
    }
    let late_ms = session
        .load
        .records
        .iter()
        .map(|r| r.late_s * 1e3)
        .fold(0.0, f64::max);
    println!(
        "serve-durable: {} jobs offered at {RATE_PER_S}/s, {} completed, {} rejected, \
         generator at most {late_ms:.3} ms late",
        session.jobs.len(),
        latencies.len(),
        session.load.rejects
    );
    println!(
        "serve-durable: engine hit ratio {:.4}",
        cache_hit_ratio(&session.show_cache)
    );
    let mut metrics = Metrics::default();
    metrics.set("setup_s", session.setup_s);
    metrics.set("search_wall_s", median(&run_s));
    metrics.set("best_weighted_accuracy", mean(&best));
    metrics.set("job_latency_p50_s", median(&latencies));
    metrics.set("job_latency_tail_s", tail("job latency", &latencies));
    metrics.set("jobs_per_s", latencies.len() as f64 / session.load.span_s);
    metrics.set("peak_rss_mb", session.rss_mb);
    Ok(metrics)
}
