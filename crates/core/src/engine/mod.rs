//! The shared evaluation engine: memoised, batch-parallel candidate
//! evaluation for the search loop, the baselines and the experiment
//! harness.
//!
//! Profiling the NASAIC loop shows essentially all wall-clock time goes to
//! the evaluator: every episode re-derives the (layer × sub-accelerator)
//! cost table for `1 + φ` hardware designs and re-queries the accuracy
//! oracle, and every baseline used to run its own serial evaluate-and-track
//! loop.  [`EvalEngine`] wraps an [`Evaluator`] with:
//!
//! * an **accuracy cache** keyed by the decoded architecture (per task), so
//!   an episode's `φ` hardware-only steps — and any later episode that
//!   revisits the same architecture — pay for accuracy once;
//! * a **hardware-metrics cache** keyed by `(architectures, accelerator)`,
//!   so replayed or revisited designs skip the cost-table build and the
//!   HAP solve;
//! * a **batch evaluator** that fans the independent candidate evaluations
//!   of an episode (or a baseline generation) out over scoped worker
//!   threads while keeping results in input order, so the strictly
//!   sequential controller feedback — and therefore
//!   `search_is_deterministic_for_a_seed` — is unaffected;
//! * **batch-level de-duplication**: identical candidates inside one batch
//!   (common in an episode's `1 + φ` designs when the controller resamples
//!   the same point) are evaluated once and the result is fanned back out
//!   to every occurrence in input order.  Duplicates are counted as cache
//!   hits — they would have hit both caches had they been evaluated after
//!   the first occurrence — so the stats stay honest and independent of
//!   whether dedup or the cache absorbed the repeat.
//!
//! Cached values are produced by the same pure functions the direct
//! [`Evaluator`] calls use, so engine results are **bit-identical** to
//! uncached evaluation (asserted by the `engine_consistency` integration
//! suite).

pub mod pool;

use crate::bounds::PenaltyBounds;
use crate::candidate::Candidate;
use crate::checkpoint;
use crate::evaluator::{Evaluation, Evaluator};
use crate::penalty::Penalty;
use crate::reward::Reward;
use crate::scenario::value::{ConfigError, ConfigValue};
use crate::spec::SpecCheck;
use nasaic_accel::Accelerator;
use nasaic_cost::HardwareMetrics;
use nasaic_nn::layer::Architecture;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

pub use pool::parallel_map;

/// Cache key for one task's accuracy query: the task position plus the
/// decoded architecture's identity (backbone name + hyperparameter values,
/// which fully determine the generated network).
type AccuracyKey = (usize, String, Vec<usize>);

/// Cache key for the hardware path: the latency spec the HAP solve runs
/// under, every architecture's identity, and the accelerator design (which
/// is `Hash + Eq` by construction).
///
/// The latency spec is constant for one engine (it comes from the wrapped
/// evaluator), but keying on it protects the *latency-spec* dimension even
/// if cache state is ever shared or serialized across engines: hardware
/// metrics depend on `specs.latency_cycles` through `solve_heuristic`'s
/// constraint, so two engines built for scenarios with different latency
/// specs can never be confused.  The evaluator's cost model — the other
/// input `hardware_metrics` depends on — is *not* part of the key (it has
/// no cheap hashable identity); that is safe because every `Evaluator`
/// carries the paper-calibrated model and no API replaces it.
type HardwareKey = (u64, Vec<(String, Vec<usize>)>, Accelerator);

fn architectures_key(architectures: &[Architecture]) -> Vec<(String, Vec<usize>)> {
    architectures
        .iter()
        .map(|a| (a.name.clone(), a.hyperparameters.clone()))
        .collect()
}

/// Identity of one candidate inside a batch, for de-duplication.  Two
/// candidates with equal keys decode to the same architectures and the
/// same accelerator, so every evaluation path produces identical results
/// for them.  (No latency-spec component: a batch never crosses engines.)
type BatchKey = (Vec<(String, Vec<usize>)>, Accelerator);

fn batch_key(candidate: &Candidate) -> BatchKey {
    (
        architectures_key(&candidate.architectures),
        candidate.accelerator.clone(),
    )
}

/// Engine tuning knobs; the default is an unbounded engine using the
/// machine's available parallelism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker-thread ceiling for batch evaluation; `0` uses the machine's
    /// available parallelism.
    pub threads: usize,
    /// Accuracy-cache capacity in entries; `0` (the default) keeps the
    /// cache unbounded.  A full cache evicts its oldest entry (FIFO), which
    /// can only cost recomputation — cached values are pure, so eviction
    /// never changes a result.
    pub accuracy_capacity: usize,
    /// Hardware-metrics-cache capacity in entries; `0` (the default) keeps
    /// the cache unbounded.  Same FIFO eviction as `accuracy_capacity`.
    pub hardware_capacity: usize,
}

/// A FIFO-bounded hash map: at most `capacity` resident entries (`0` =
/// unbounded), evicting the oldest insertion when full.
///
/// FIFO — rather than LRU — keeps the hot read path lock-friendly: a hit
/// needs only the [`RwLock`] read guard the unbounded map already used,
/// because hits never reorder anything.  Eviction is an optimisation
/// trade-off, never a correctness concern: cached values are pure functions
/// of their keys, so an evicted entry is recomputed bit-identically on the
/// next query (it just counts as a fresh miss).
#[derive(Debug)]
struct BoundedCache<K, V> {
    map: HashMap<K, V>,
    /// Insertion order of the resident keys; front = oldest.
    order: VecDeque<K>,
    /// `0` = unbounded.
    capacity: usize,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V> BoundedCache<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }

    fn evict_to_fit(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                return;
            };
            if self.map.remove(&oldest).is_some() {
                self.evictions += 1;
            }
        }
    }

    /// Insert unless the key is already resident; returns `true` when the
    /// insert landed (the caller's miss) and `false` on an existing entry
    /// (the caller's hit).  Evicts the oldest entry first when at capacity.
    fn insert_if_absent(&mut self, key: K, value: V) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        self.evict_to_fit();
        self.order.push_back(key.clone());
        self.map.insert(key, value);
        true
    }

    /// Insert unconditionally: an existing entry's value is replaced in
    /// place (keeping its age); a new key evicts to fit like
    /// [`insert_if_absent`](Self::insert_if_absent).  Used by cache import,
    /// where colliding keys are guaranteed to carry equal values.
    fn force_insert(&mut self, key: K, value: V) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return;
        }
        self.evict_to_fit();
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }
}

/// Cache behaviour counters (aggregated over both caches' lifetimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accuracy-cache hits (per task query).
    pub accuracy_hits: u64,
    /// Accuracy-cache misses (per task query).
    pub accuracy_misses: u64,
    /// Hardware-metrics-cache hits.
    pub hardware_hits: u64,
    /// Hardware-metrics-cache misses.
    pub hardware_misses: u64,
    /// Accuracy-cache size (a gauge: entries resident when the snapshot
    /// was taken, not a counter).
    pub accuracy_entries: u64,
    /// Hardware-metrics-cache size (a gauge, like `accuracy_entries`).
    pub hardware_entries: u64,
    /// Accuracy-cache evictions (a counter: entries dropped to respect
    /// [`EngineConfig::accuracy_capacity`]; always `0` when unbounded).
    pub accuracy_evictions: u64,
    /// Hardware-metrics-cache evictions (a counter, like
    /// `accuracy_evictions`).
    pub hardware_evictions: u64,
    /// Configured accuracy-cache capacity (a gauge; `0` = unbounded).
    pub accuracy_capacity: u64,
    /// Configured hardware-metrics-cache capacity (a gauge; `0` =
    /// unbounded).
    pub hardware_capacity: u64,
}

impl CacheStats {
    /// Fraction of all queries served from a cache.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.accuracy_hits + self.hardware_hits;
        let total = hits + self.accuracy_misses + self.hardware_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of accuracy queries served from the accuracy cache.
    pub fn accuracy_hit_rate(&self) -> f64 {
        let total = self.accuracy_hits + self.accuracy_misses;
        if total == 0 {
            0.0
        } else {
            self.accuracy_hits as f64 / total as f64
        }
    }

    /// Fraction of hardware queries served from the hardware cache.
    pub fn hardware_hit_rate(&self) -> f64 {
        let total = self.hardware_hits + self.hardware_misses;
        if total == 0 {
            0.0
        } else {
            self.hardware_hits as f64 / total as f64
        }
    }

    /// Total entries evicted from both caches.
    pub fn evictions(&self) -> u64 {
        self.accuracy_evictions + self.hardware_evictions
    }

    /// The counter delta since an earlier snapshot — the cache behaviour
    /// of just the work between the two [`EvalEngine::stats`] calls (used
    /// to report per-run rates on a long-lived shared engine).
    ///
    /// The entry and capacity gauges are not deltas: the later snapshot's
    /// values are kept as-is, since "entries at the end of the run" (and
    /// the configured bound) are the meaningful per-run figures.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accuracy_hits: self.accuracy_hits - earlier.accuracy_hits,
            accuracy_misses: self.accuracy_misses - earlier.accuracy_misses,
            hardware_hits: self.hardware_hits - earlier.hardware_hits,
            hardware_misses: self.hardware_misses - earlier.hardware_misses,
            accuracy_entries: self.accuracy_entries,
            hardware_entries: self.hardware_entries,
            accuracy_evictions: self.accuracy_evictions - earlier.accuracy_evictions,
            hardware_evictions: self.hardware_evictions - earlier.hardware_evictions,
            accuracy_capacity: self.accuracy_capacity,
            hardware_capacity: self.hardware_capacity,
        }
    }
}

/// Memoised, batch-parallel wrapper around an [`Evaluator`].
///
/// The engine is `Sync`: one instance is shared by reference across the
/// worker threads of a batch and across the stages of an experiment.
/// Results are bit-identical to direct `Evaluator` calls — caching and
/// parallelism change *when* a value is computed, never *what* it is.
///
/// # Example
///
/// ```
/// use nasaic_core::prelude::*;
///
/// let workload = Workload::w3();
/// let specs = DesignSpecs::for_workload(WorkloadId::W3);
/// let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
///
/// let architectures: Vec<_> = workload
///     .tasks
///     .iter()
///     .map(|task| task.backbone.smallest_architecture())
///     .collect();
/// let first = engine.accuracies(&architectures);
/// let again = engine.accuracies(&architectures);
/// assert_eq!(first, again); // bit-identical: caching never changes values
/// assert!(engine.stats().accuracy_hits > 0); // the second call was free
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    evaluator: Evaluator,
    config: EngineConfig,
    accuracy_cache: RwLock<BoundedCache<AccuracyKey, f64>>,
    hardware_cache: RwLock<BoundedCache<HardwareKey, HardwareMetrics>>,
    accuracy_hits: AtomicU64,
    accuracy_misses: AtomicU64,
    hardware_hits: AtomicU64,
    hardware_misses: AtomicU64,
}

impl EvalEngine {
    /// Wrap an evaluator with the default engine configuration.
    pub fn new(evaluator: Evaluator) -> Self {
        Self::with_config(evaluator, EngineConfig::default())
    }

    /// Wrap an evaluator with an explicit configuration.
    pub fn with_config(evaluator: Evaluator, config: EngineConfig) -> Self {
        Self {
            evaluator,
            config,
            accuracy_cache: RwLock::new(BoundedCache::new(config.accuracy_capacity)),
            hardware_cache: RwLock::new(BoundedCache::new(config.hardware_capacity)),
            accuracy_hits: AtomicU64::new(0),
            accuracy_misses: AtomicU64::new(0),
            hardware_hits: AtomicU64::new(0),
            hardware_misses: AtomicU64::new(0),
        }
    }

    /// The wrapped evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cache behaviour counters so far, plus the current cache sizes and
    /// configured capacities.
    pub fn stats(&self) -> CacheStats {
        let accuracy = self.accuracy_cache.read().expect("accuracy cache lock");
        let hardware = self.hardware_cache.read().expect("hardware cache lock");
        CacheStats {
            accuracy_hits: self.accuracy_hits.load(Ordering::Relaxed),
            accuracy_misses: self.accuracy_misses.load(Ordering::Relaxed),
            hardware_hits: self.hardware_hits.load(Ordering::Relaxed),
            hardware_misses: self.hardware_misses.load(Ordering::Relaxed),
            accuracy_entries: accuracy.len() as u64,
            hardware_entries: hardware.len() as u64,
            accuracy_evictions: accuracy.evictions,
            hardware_evictions: hardware.evictions,
            accuracy_capacity: self.config.accuracy_capacity as u64,
            hardware_capacity: self.config.hardware_capacity as u64,
        }
    }

    /// Publish the engine's cache counters as labelled gauges on the
    /// global telemetry registry
    /// (`nasaic_engine_cache_{hits,misses,entries,evictions,hit_ratio}`
    /// with `engine` and `cache` labels).  Call it at natural sampling
    /// points — the serve daemon does after every job — and each scrape of
    /// the sampled gauges becomes one point of the per-engine time series.
    /// No-op while telemetry is disabled.
    pub fn publish_metrics(&self, engine_label: &str) {
        if !nasaic_telemetry::enabled() {
            return;
        }
        let stats = self.stats();
        let registry = nasaic_telemetry::global();
        for (cache, hits, misses, entries, evictions, ratio) in [
            (
                "accuracy",
                stats.accuracy_hits,
                stats.accuracy_misses,
                stats.accuracy_entries,
                stats.accuracy_evictions,
                stats.accuracy_hit_rate(),
            ),
            (
                "hardware",
                stats.hardware_hits,
                stats.hardware_misses,
                stats.hardware_entries,
                stats.hardware_evictions,
                stats.hardware_hit_rate(),
            ),
        ] {
            let labels: [(&str, &str); 2] = [("engine", engine_label), ("cache", cache)];
            registry
                .gauge("nasaic_engine_cache_hits", &labels)
                .set(hits as f64);
            registry
                .gauge("nasaic_engine_cache_misses", &labels)
                .set(misses as f64);
            registry
                .gauge("nasaic_engine_cache_entries", &labels)
                .set(entries as f64);
            registry
                .gauge("nasaic_engine_cache_evictions", &labels)
                .set(evictions as f64);
            registry
                .gauge("nasaic_engine_cache_hit_ratio", &labels)
                .set(ratio);
        }
    }

    /// Export both memo caches as a serializable value, for warm-shard
    /// handoff: a shard (or a resumed run) can start from another engine's
    /// cache instead of cold.  Entries are sorted by key, so the export is
    /// deterministic regardless of hash-map iteration order.
    ///
    /// Because cached values are bit-identical to what the evaluator would
    /// recompute, importing a cache can never change a search outcome —
    /// only how much of it is served warm.
    pub fn export_caches(&self) -> ConfigValue {
        let mut accuracy: Vec<(AccuracyKey, f64)> = self
            .accuracy_cache
            .read()
            .expect("accuracy cache lock")
            .iter()
            .map(|(key, &value)| (key.clone(), value))
            .collect();
        accuracy.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hardware: Vec<(HardwareKey, HardwareMetrics)> = self
            .hardware_cache
            .read()
            .expect("hardware cache lock")
            .iter()
            .map(|(key, &metrics)| (key.clone(), metrics))
            .collect();
        hardware.sort_by(|(a, _), (b, _)| a.cmp(b));

        let mut root = ConfigValue::table();
        root.insert("version", ConfigValue::Integer(1));
        root.insert("accuracy_len", ConfigValue::Integer(accuracy.len() as i64));
        root.insert("hardware_len", ConfigValue::Integer(hardware.len() as i64));
        root.insert(
            "accuracy",
            ConfigValue::Array(
                accuracy
                    .into_iter()
                    .map(|((task, name, values), acc)| {
                        let mut entry = ConfigValue::table();
                        entry.insert("task", ConfigValue::Integer(task as i64));
                        entry.insert("name", ConfigValue::Str(name));
                        entry.insert("values", checkpoint::usizes_to_value(&values));
                        entry.insert("accuracy", checkpoint::float_to_value(acc));
                        entry
                    })
                    .collect(),
            ),
        );
        root.insert(
            "hardware",
            ConfigValue::Array(
                hardware
                    .into_iter()
                    .map(|((latency_bits, archs, accelerator), metrics)| {
                        let mut entry = ConfigValue::table();
                        entry.insert("latency_bits", ConfigValue::Integer(latency_bits as i64));
                        entry.insert(
                            "archs",
                            ConfigValue::Array(
                                archs
                                    .into_iter()
                                    .map(|(name, values)| {
                                        let mut arch = ConfigValue::table();
                                        arch.insert("name", ConfigValue::Str(name));
                                        arch.insert("values", checkpoint::usizes_to_value(&values));
                                        arch
                                    })
                                    .collect(),
                            ),
                        );
                        entry.insert("subs", checkpoint::accelerator_to_value(&accelerator));
                        entry.insert(
                            "latency_cycles",
                            checkpoint::float_to_value(metrics.latency_cycles),
                        );
                        entry.insert("energy_nj", checkpoint::float_to_value(metrics.energy_nj));
                        entry.insert("area_um2", checkpoint::float_to_value(metrics.area_um2));
                        entry
                    })
                    .collect(),
            ),
        );
        root
    }

    /// Import cache entries written by [`export_caches`](Self::export_caches)
    /// into this engine's caches (existing entries are kept; imported keys
    /// overwrite on collision, which is harmless because values are pure
    /// functions of their keys).  Counters are untouched: imported entries
    /// count as neither hits nor misses until they are queried.  On a
    /// bounded cache the import respects the capacity — oldest entries are
    /// evicted like any other insert.
    ///
    /// The whole file is validated *before* anything is imported, so a
    /// failed import leaves the caches untouched.
    ///
    /// # Errors
    ///
    /// Returns a schema error naming the offending field (e.g.
    /// `cache export.accuracy[3].task`) for a missing or ill-typed field,
    /// an unknown version, a declared length that does
    /// not match the actual array (a truncated or corrupted file), a task
    /// index out of range for this engine's workload (a stale export from
    /// another scenario), an accelerator that does not decode
    /// ([`checkpoint::accelerator_from_value`]: no sub-accelerators, a
    /// short triple, an unknown dataflow), or an out-of-range value
    /// (accuracies outside `[0, 1]`, non-finite or negative hardware
    /// metrics).
    pub fn import_caches(&self, value: &ConfigValue) -> Result<(), ConfigError> {
        let fields = value.fields("cache export")?;
        let version: u64 = fields.uint("version")?;
        if version != 1 {
            return Err(ConfigError::schema(format!(
                "cache export: unsupported version {version}"
            )));
        }
        // `*_len` is written by every export; tolerate its absence (a
        // hand-built value) but when present it must match, so a truncated
        // file fails loudly instead of importing a prefix.
        for (key, len_key) in [("accuracy", "accuracy_len"), ("hardware", "hardware_len")] {
            let held = fields.array(key)?.len();
            if let Some(declared) = fields.opt_uint::<usize>(len_key)? {
                if declared != held {
                    return Err(fields.invalid(
                        len_key,
                        format_args!(
                            "declares {declared} entries, but {key} holds {held} (truncated or \
                             corrupted file?)"
                        ),
                    ));
                }
            }
        }

        let num_tasks = self.evaluator.workload().num_tasks();
        let accuracy_entries = fields.each_table("accuracy", |entry| {
            let task: usize = entry.uint("task")?;
            if task >= num_tasks {
                return Err(entry.invalid(
                    "task",
                    format_args!(
                        "{task} is out of range for a {num_tasks}-task workload (stale export \
                         from another scenario?)"
                    ),
                ));
            }
            let name = entry.str("name")?.to_string();
            let values = entry.decode("values", checkpoint::usizes_from_value)?;
            let accuracy = entry.decode("accuracy", checkpoint::float_from_value)?;
            if !accuracy.is_finite() || !(0.0..=1.0).contains(&accuracy) {
                return Err(entry.invalid("accuracy", format_args!("{accuracy} is outside [0, 1]")));
            }
            Ok(((task, name, values), accuracy))
        })?;

        let hardware_entries = fields.each_table("hardware", |entry| {
            let latency_bits = entry.uint("latency_bits")?;
            let archs = entry.each_table("archs", |arch| {
                Ok((
                    arch.str("name")?.to_string(),
                    arch.decode("values", checkpoint::usizes_from_value)?,
                ))
            })?;
            let accelerator = entry.decode("subs", checkpoint::accelerator_from_value)?;
            // Metrics are non-negative; `+inf` is legitimate (the solver's
            // sentinel for an infeasible mapping), NaN never is.
            let metric = |key| {
                let value = entry.decode(key, checkpoint::float_from_value)?;
                if value.is_nan() || value < 0.0 {
                    return Err(
                        entry.invalid(key, format_args!("{value} is not a non-negative metric"))
                    );
                }
                Ok(value)
            };
            let metrics = HardwareMetrics::new(
                metric("latency_cycles")?,
                metric("energy_nj")?,
                metric("area_um2")?,
            );
            Ok(((latency_bits, archs, accelerator), metrics))
        })?;

        let mut accuracy_cache = self.accuracy_cache.write().expect("accuracy cache lock");
        for (key, value) in accuracy_entries {
            accuracy_cache.force_insert(key, value);
        }
        drop(accuracy_cache);
        let mut hardware_cache = self.hardware_cache.write().expect("hardware cache lock");
        for (key, value) in hardware_entries {
            hardware_cache.force_insert(key, value);
        }
        Ok(())
    }

    /// Accuracy of every architecture (training/validation path), memoised
    /// per `(task, architecture)`.
    pub fn accuracies(&self, architectures: &[Architecture]) -> Vec<f64> {
        // The direct path zips tasks with architectures (truncating to the
        // shorter of the two); mirror that exactly.
        let num_tasks = self.evaluator.workload().num_tasks();
        architectures
            .iter()
            .take(num_tasks)
            .enumerate()
            .map(|(task_index, arch)| self.accuracy_for_task(task_index, arch))
            .collect()
    }

    /// Accuracy of `arch` evaluated as the workload's `task_index`-th task.
    /// Accuracy of one architecture evaluated as the workload's
    /// `task_index`-th task, memoised like [`accuracies`](Self::accuracies)
    /// (same cache, same keys).
    ///
    /// # Panics
    ///
    /// Panics if `task_index` is out of range for the workload.
    pub fn accuracy_for_task(&self, task_index: usize, arch: &Architecture) -> f64 {
        let key: AccuracyKey = (task_index, arch.name.clone(), arch.hyperparameters.clone());
        if let Some(&cached) = self
            .accuracy_cache
            .read()
            .expect("accuracy cache lock")
            .get(&key)
        {
            self.accuracy_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        // Compute outside the lock; concurrent workers racing on the same
        // key all produce the identical pure value.  Only the worker whose
        // insert lands counts as the miss, so with an unbounded cache the
        // stats stay independent of thread scheduling (misses == distinct
        // keys; a bounded cache can re-miss evicted keys).
        let accuracy = self.evaluator.accuracy_for_task(task_index, arch);
        if self
            .accuracy_cache
            .write()
            .expect("accuracy cache lock")
            .insert_if_absent(key, accuracy)
        {
            self.accuracy_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.accuracy_hits.fetch_add(1, Ordering::Relaxed);
        }
        accuracy
    }

    /// The weighted accuracy of Eq. 2 (pass-through; no caching needed).
    pub fn weighted_accuracy(&self, accuracies: &[f64]) -> f64 {
        self.evaluator.weighted_accuracy(accuracies)
    }

    /// Hardware metrics of a set of architectures on an accelerator,
    /// memoised by `(architectures, accelerator)`.
    pub fn hardware_metrics(
        &self,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> HardwareMetrics {
        let key = self.hardware_key(architectures, accelerator);
        if let Some(&cached) = self
            .hardware_cache
            .read()
            .expect("hardware cache lock")
            .get(&key)
        {
            self.hardware_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        // See `accuracy_for_task`: racers compute the same pure value and
        // only the landing insert counts as the miss.
        let metrics = self.evaluator.hardware_metrics(architectures, accelerator);
        if self
            .hardware_cache
            .write()
            .expect("hardware cache lock")
            .insert_if_absent(key, metrics)
        {
            self.hardware_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hardware_hits.fetch_add(1, Ordering::Relaxed);
        }
        metrics
    }

    fn hardware_key(
        &self,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> HardwareKey {
        (
            self.evaluator.specs().latency_cycles.to_bits(),
            architectures_key(architectures),
            accelerator.clone(),
        )
    }

    /// `true` when the hardware cache already holds this design (a pure
    /// probe: no counters are touched).  Because the hardware key covers
    /// the full (architectures, accelerator) identity, a present entry
    /// implies the accuracy cache was populated by the same evaluation.
    fn hardware_cached(&self, candidate: &Candidate) -> bool {
        self.hardware_cache
            .read()
            .expect("hardware cache lock")
            .contains_key(&self.hardware_key(&candidate.architectures, &candidate.accelerator))
    }

    /// Hardware-only evaluation: metrics plus spec check.
    pub fn evaluate_hardware(
        &self,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> (HardwareMetrics, SpecCheck) {
        let _span = crate::metrics::maybe_time(crate::metrics::eval_candidate_wall);
        let metrics = self.hardware_metrics(architectures, accelerator);
        (metrics, self.evaluator.specs().check(&metrics))
    }

    /// Full evaluation of one candidate through the caches; bit-identical
    /// to [`Evaluator::evaluate`] (both paths assemble the record through
    /// [`Evaluator::assemble_evaluation`]).
    pub fn evaluate(&self, candidate: &Candidate) -> Evaluation {
        let _span = crate::metrics::maybe_time(crate::metrics::eval_candidate_wall);
        let accuracies = self.accuracies(&candidate.architectures);
        let metrics = self.hardware_metrics(&candidate.architectures, &candidate.accelerator);
        self.evaluator.assemble_evaluation(accuracies, metrics)
    }

    /// Evaluate a batch of independent candidates, fanning out over worker
    /// threads; the result order matches the input order.
    ///
    /// Identical candidates inside the batch are evaluated once: the batch
    /// is de-duplicated up front, only the distinct candidates go to the
    /// workers, and results fan back out to every occurrence.  Each
    /// suppressed duplicate is counted as the cache hits it would have
    /// scored — one hardware hit plus one accuracy hit per evaluated task —
    /// so the stats match what sequential evaluation through the caches
    /// would have recorded.
    pub fn evaluate_batch(&self, candidates: &[Candidate]) -> Vec<Evaluation> {
        let _span = crate::metrics::maybe_time_batch();
        if candidates.len() < 2 {
            return parallel_map(candidates, self.config.threads, |candidate| {
                self.evaluate(candidate)
            });
        }
        let num_tasks = self.evaluator.workload().num_tasks();
        let mut slot_of: HashMap<BatchKey, usize> = HashMap::new();
        let mut uniques: Vec<&Candidate> = Vec::with_capacity(candidates.len());
        let mut fan_out: Vec<usize> = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            match slot_of.entry(batch_key(candidate)) {
                Entry::Vacant(slot) => {
                    slot.insert(uniques.len());
                    fan_out.push(uniques.len());
                    uniques.push(candidate);
                }
                Entry::Occupied(slot) => {
                    fan_out.push(*slot.get());
                    // A duplicate evaluated after its first occurrence
                    // would have hit the hardware cache once and the
                    // accuracy cache once per task actually evaluated
                    // (`accuracies` truncates to the shorter of the
                    // architecture list and the task list).
                    let task_queries = candidate.architectures.len().min(num_tasks) as u64;
                    self.accuracy_hits
                        .fetch_add(task_queries, Ordering::Relaxed);
                    self.hardware_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if nasaic_telemetry::enabled() {
            crate::metrics::eval_batch_size().record(candidates.len() as u64);
            crate::metrics::eval_dedup_saved().add((candidates.len() - uniques.len()) as u64);
        }
        let unique_results = self.map_uniques(&uniques, |candidate| self.evaluate(candidate));
        fan_out
            .into_iter()
            .map(|slot| unique_results[slot].clone())
            .collect()
    }

    /// Evaluate each unique candidate of a batch, fanning only hardware
    /// cache *misses* out to worker threads: a cached candidate reduces to
    /// hash-map lookups, for which a thread spawn costs more than the work
    /// itself.  The partition is a pure scheduling decision — every
    /// candidate still goes through `eval`, so results and counter totals
    /// are identical to mapping the whole batch.
    fn map_uniques<R: Send>(
        &self,
        uniques: &[&Candidate],
        eval: impl Fn(&Candidate) -> R + Sync,
    ) -> Vec<R> {
        let misses: Vec<usize> = (0..uniques.len())
            .filter(|&i| !self.hardware_cached(uniques[i]))
            .collect();
        let mut results: Vec<Option<R>> = Vec::with_capacity(uniques.len());
        results.resize_with(uniques.len(), || None);
        if misses.len() > 1 {
            let computed = parallel_map(&misses, self.config.threads, |&i| eval(uniques[i]));
            for (&i, result) in misses.iter().zip(computed) {
                results[i] = Some(result);
            }
        } else {
            for &i in &misses {
                results[i] = Some(eval(uniques[i]));
            }
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| eval(uniques[i])))
            .collect()
    }

    /// Hardware-evaluate one episode's candidates (`None` marks a sample
    /// that failed to decode), in parallel, preserving order.
    ///
    /// Like [`evaluate_batch`](Self::evaluate_batch), identical decodable
    /// candidates are evaluated once and each suppressed duplicate counts
    /// as the single hardware-cache hit it would have scored (the hardware
    /// path never queries the accuracy cache).
    pub fn evaluate_hardware_batch(
        &self,
        candidates: &[Option<Candidate>],
    ) -> Vec<Option<(HardwareMetrics, SpecCheck)>> {
        let _span = crate::metrics::maybe_time_batch();
        if candidates.len() < 2 {
            return parallel_map(candidates, self.config.threads, |candidate| {
                candidate
                    .as_ref()
                    .map(|c| self.evaluate_hardware(&c.architectures, &c.accelerator))
            });
        }
        let mut slot_of: HashMap<BatchKey, usize> = HashMap::new();
        let mut uniques: Vec<&Candidate> = Vec::with_capacity(candidates.len());
        // `None` fans out an undecodable slot; `Some(i)` the i-th unique.
        let mut fan_out: Vec<Option<usize>> = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            let Some(candidate) = candidate.as_ref() else {
                fan_out.push(None);
                continue;
            };
            match slot_of.entry(batch_key(candidate)) {
                Entry::Vacant(slot) => {
                    slot.insert(uniques.len());
                    fan_out.push(Some(uniques.len()));
                    uniques.push(candidate);
                }
                Entry::Occupied(slot) => {
                    fan_out.push(Some(*slot.get()));
                    self.hardware_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if nasaic_telemetry::enabled() {
            crate::metrics::eval_batch_size().record(candidates.len() as u64);
            let decodable = fan_out.iter().filter(|slot| slot.is_some()).count();
            crate::metrics::eval_dedup_saved().add((decodable - uniques.len()) as u64);
        }
        let unique_results = self.map_uniques(&uniques, |candidate| {
            self.evaluate_hardware(&candidate.architectures, &candidate.accelerator)
        });
        fan_out
            .into_iter()
            .map(|slot| slot.map(|i| unique_results[i]))
            .collect()
    }

    /// A scorer binding this engine to penalty bounds and a penalty scale,
    /// replacing the per-baseline `reward_of` closures.
    pub fn scorer(&self, bounds: PenaltyBounds, rho: f64) -> RewardScorer<'_> {
        RewardScorer {
            engine: self,
            bounds,
            rho,
        }
    }
}

impl From<&Evaluator> for EvalEngine {
    fn from(evaluator: &Evaluator) -> Self {
        Self::new(evaluator.clone())
    }
}

impl Clone for EvalEngine {
    /// Cloning keeps the evaluator and configuration but starts with cold
    /// caches (cached values are an optimisation, not state).
    fn clone(&self) -> Self {
        Self::with_config(self.evaluator.clone(), self.config)
    }
}

/// Eq. 4 scoring on top of the engine: evaluation plus scalar reward.
///
/// This is the evaluate-and-score plumbing that the hill-climbing,
/// evolutionary and hardware-aware-NAS optimizers used to reimplement
/// separately.
#[derive(Debug, Clone, Copy)]
pub struct RewardScorer<'a> {
    engine: &'a EvalEngine,
    bounds: PenaltyBounds,
    rho: f64,
}

impl RewardScorer<'_> {
    /// The engine behind the scorer.
    pub fn engine(&self) -> &EvalEngine {
        self.engine
    }

    /// Full evaluation plus the Eq. 4 reward of one candidate.
    pub fn score(&self, candidate: &Candidate) -> (Evaluation, f64) {
        let evaluation = self.engine.evaluate(candidate);
        let penalty = Penalty::compute(
            &evaluation.metrics,
            self.engine.evaluator().specs(),
            &self.bounds,
        );
        let reward = Reward::new(evaluation.weighted_accuracy, &penalty, self.rho).value();
        (evaluation, reward)
    }

    /// Score a batch of candidates in parallel, preserving order.
    pub fn score_batch(&self, candidates: &[Candidate]) -> Vec<(Evaluation, f64)> {
        parallel_map(candidates, self.engine.config.threads, |candidate| {
            self.score(candidate)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::AccuracyOracle;
    use crate::spec::{DesignSpecs, WorkloadId};
    use crate::workload::Workload;
    use nasaic_accel::HardwareSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn w1_engine() -> EvalEngine {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()))
    }

    fn random_candidates(count: usize, seed: u64) -> Vec<Candidate> {
        let workload = Workload::w1();
        let hardware = HardwareSpace::paper_default(2);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let architectures = workload
                    .tasks
                    .iter()
                    .map(|t| {
                        let space = t.backbone.search_space();
                        t.backbone
                            .materialize(&space.sample(&mut rng))
                            .expect("valid sample")
                    })
                    .collect();
                Candidate::from_parts(architectures, hardware.sample(&mut rng))
            })
            .collect()
    }

    #[test]
    fn engine_matches_direct_evaluator_bit_for_bit() {
        let engine = w1_engine();
        for candidate in random_candidates(12, 7) {
            let direct = engine.evaluator().evaluate(&candidate);
            let cold = engine.evaluate(&candidate);
            let warm = engine.evaluate(&candidate);
            assert_eq!(direct, cold);
            assert_eq!(direct, warm);
        }
    }

    #[test]
    fn repeated_candidates_hit_the_caches() {
        let engine = w1_engine();
        let candidates = random_candidates(6, 11);
        engine.evaluate_batch(&candidates);
        let cold = engine.stats();
        assert_eq!(cold.hardware_hits, 0);
        assert_eq!(cold.hardware_misses, 6);
        engine.evaluate_batch(&candidates);
        let warm = engine.stats();
        assert_eq!(warm.hardware_hits, 6);
        assert_eq!(warm.hardware_misses, 6);
        assert_eq!(warm.accuracy_hits, 12);
        assert!(warm.hit_rate() > 0.4);
    }

    #[test]
    fn exported_caches_warm_a_fresh_engine() {
        let warm = w1_engine();
        let candidates = random_candidates(8, 23);
        let expected = warm.evaluate_batch(&candidates);

        // Export is deterministic (entries are sorted, not hash-ordered)
        // and survives the JSON round trip.
        let export = warm.export_caches();
        assert_eq!(export, warm.export_caches());
        let text = crate::scenario::value::to_json(&export);
        let parsed = crate::scenario::value::parse_json(&text).expect("exported cache parses");
        assert_eq!(export, parsed);

        // A fresh engine with the import serves the whole stream from the
        // caches, bit-identically.
        let fresh = w1_engine();
        fresh.import_caches(&parsed).expect("import succeeds");
        let stats = fresh.stats();
        assert_eq!(stats.accuracy_entries, warm.stats().accuracy_entries);
        assert_eq!(stats.hardware_entries, warm.stats().hardware_entries);
        let served = fresh.evaluate_batch(&candidates);
        assert_eq!(expected, served);
        let stats = fresh.stats();
        assert_eq!(stats.hardware_misses, 0, "imported cache missed");
        assert_eq!(stats.accuracy_misses, 0, "imported cache missed");
        assert_eq!(stats.hardware_hits, 8);
    }

    #[test]
    fn importing_a_cache_never_changes_results() {
        // Import into an engine that then sees *different* candidates: the
        // foreign entries must be inert for them.
        let donor = w1_engine();
        donor.evaluate_batch(&random_candidates(5, 31));
        let export = donor.export_caches();

        let engine = w1_engine();
        engine.import_caches(&export).expect("import succeeds");
        for candidate in random_candidates(6, 37) {
            assert_eq!(
                engine.evaluate(&candidate),
                engine.evaluator().evaluate(&candidate)
            );
        }
    }

    #[test]
    fn import_rejects_an_accelerator_without_sub_accelerators() {
        let donor = w1_engine();
        donor.evaluate_batch(&random_candidates(3, 41));
        let mut bad = donor.export_caches();
        let ConfigValue::Array(rows) = bad.get("hardware").unwrap().clone() else {
            panic!("hardware rows");
        };
        let mut first = rows[0].clone();
        first.insert("subs", ConfigValue::Array(Vec::new()));
        bad.insert(
            "hardware",
            ConfigValue::Array(std::iter::once(first).chain(rows[1..].to_vec()).collect()),
        );
        let engine = w1_engine();
        let message = engine
            .import_caches(&bad)
            .expect_err("must reject")
            .to_string();
        assert!(
            message.contains("hardware[0]") && message.contains("no sub-accelerators"),
            "unhelpful error: {message}"
        );
        assert_eq!(engine.stats().accuracy_entries, 0);
        assert_eq!(engine.stats().hardware_entries, 0);
    }

    #[test]
    fn import_rejects_unknown_versions() {
        let engine = w1_engine();
        let mut bad = engine.export_caches();
        bad.insert("version", ConfigValue::Integer(99));
        assert!(engine.import_caches(&bad).is_err());
    }

    #[test]
    fn bounded_caches_evict_and_stay_bit_identical() {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let bounded = EvalEngine::with_config(
            evaluator.clone(),
            EngineConfig {
                threads: 1,
                accuracy_capacity: 2,
                hardware_capacity: 2,
            },
        );
        let candidates = random_candidates(8, 53);
        for candidate in &candidates {
            assert_eq!(bounded.evaluate(candidate), evaluator.evaluate(candidate));
        }
        let stats = bounded.stats();
        assert!(stats.accuracy_evictions > 0, "tiny bound must evict");
        assert!(stats.hardware_evictions > 0, "tiny bound must evict");
        assert!(stats.accuracy_entries <= 2);
        assert!(stats.hardware_entries <= 2);
        assert_eq!(stats.accuracy_capacity, 2);
        assert_eq!(stats.hardware_capacity, 2);
        assert!(stats.evictions() >= stats.accuracy_evictions);
        // Evicted keys simply re-miss and recompute bit-identically.
        for candidate in &candidates {
            assert_eq!(bounded.evaluate(candidate), evaluator.evaluate(candidate));
        }
        // An unbounded engine never evicts.
        let unbounded = w1_engine();
        unbounded.evaluate_batch(&candidates);
        assert_eq!(unbounded.stats().evictions(), 0);
    }

    #[test]
    fn import_respects_cache_bounds() {
        let donor = w1_engine();
        donor.evaluate_batch(&random_candidates(8, 59));
        let export = donor.export_caches();

        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let bounded = EvalEngine::with_config(
            Evaluator::new(&workload, specs, AccuracyOracle::default()),
            EngineConfig {
                accuracy_capacity: 3,
                hardware_capacity: 3,
                ..EngineConfig::default()
            },
        );
        bounded.import_caches(&export).expect("import succeeds");
        let stats = bounded.stats();
        assert!(stats.accuracy_entries <= 3);
        assert!(stats.hardware_entries <= 3);
    }

    #[test]
    fn import_rejects_truncated_files() {
        let engine = w1_engine();
        engine.evaluate_batch(&random_candidates(4, 61));
        let mut bad = engine.export_caches();
        // Claim more entries than the array holds, as a truncated write
        // would.
        bad.insert("accuracy_len", ConfigValue::Integer(9999));
        let err = engine.import_caches(&bad).expect_err("must reject");
        let message = err.to_string();
        assert!(
            message.contains("9999") && message.contains("truncated"),
            "unhelpful error: {message}"
        );
    }

    fn export_with_accuracy_entry(entry: ConfigValue) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("version", ConfigValue::Integer(1));
        root.insert("accuracy", ConfigValue::Array(vec![entry]));
        root.insert("hardware", ConfigValue::Array(Vec::new()));
        root
    }

    fn bad_accuracy_entry(task: i64, accuracy: f64) -> ConfigValue {
        let mut entry = ConfigValue::table();
        entry.insert("task", ConfigValue::Integer(task));
        entry.insert("name", ConfigValue::Str("resnet".to_string()));
        entry.insert("values", checkpoint::usizes_to_value(&[1, 2]));
        entry.insert("accuracy", checkpoint::float_to_value(accuracy));
        entry
    }

    #[test]
    fn import_names_the_offending_entry() {
        let engine = w1_engine();

        // Task index beyond the workload: a stale export from some other
        // scenario must not import silently-inert (or worse, wrapping)
        // keys.
        let stale = export_with_accuracy_entry(bad_accuracy_entry(7, 0.5));
        let message = engine
            .import_caches(&stale)
            .expect_err("must reject")
            .to_string();
        assert!(
            message.contains("accuracy[0]") && message.contains("out of range"),
            "unhelpful error: {message}"
        );

        // A negative task index used to wrap through `as usize`.
        let negative = export_with_accuracy_entry(bad_accuracy_entry(-1, 0.5));
        assert!(engine.import_caches(&negative).is_err());

        // Garbage values are named, not imported.
        let garbage = export_with_accuracy_entry(bad_accuracy_entry(0, f64::NAN));
        let message = engine
            .import_caches(&garbage)
            .expect_err("must reject")
            .to_string();
        assert!(
            message.contains("accuracy[0]"),
            "unhelpful error: {message}"
        );
        let oversized = export_with_accuracy_entry(bad_accuracy_entry(0, 1.5));
        assert!(engine.import_caches(&oversized).is_err());

        // A failed import leaves the engine untouched.
        assert_eq!(engine.stats().accuracy_entries, 0);
        assert_eq!(engine.stats().hardware_entries, 0);
    }

    #[test]
    fn duplicated_batch_matches_undeduped_path_and_counts_hits() {
        let engine = w1_engine();
        let distinct = random_candidates(3, 19);
        // 8 slots over 3 distinct candidates, duplicates interleaved.
        let batch: Vec<Candidate> = [0, 1, 0, 2, 2, 1, 0, 2]
            .iter()
            .map(|&i| distinct[i].clone())
            .collect();
        let deduped = engine.evaluate_batch(&batch);
        // Bit-identical to evaluating every slot directly, in order.
        let direct: Vec<_> = batch
            .iter()
            .map(|c| engine.evaluator().evaluate(c))
            .collect();
        assert_eq!(deduped, direct);
        // 3 unique evaluations, 5 suppressed duplicates; each duplicate
        // counts one hardware hit and one accuracy hit per task (w1 has
        // two tasks).
        let stats = engine.stats();
        assert_eq!(stats.hardware_misses, 3);
        assert_eq!(stats.hardware_hits, 5);
        assert_eq!(stats.accuracy_misses, 6);
        assert_eq!(stats.accuracy_hits, 10);
        // The gauges report resident entries, which after one batch equal
        // the misses.
        assert_eq!(stats.accuracy_entries, stats.accuracy_misses);
        assert_eq!(stats.hardware_entries, stats.hardware_misses);
    }

    #[test]
    fn duplicated_hardware_batch_matches_undeduped_path() {
        let engine = w1_engine();
        let distinct = random_candidates(2, 43);
        let mut slots: Vec<Option<Candidate>> = vec![
            Some(distinct[0].clone()),
            None,
            Some(distinct[1].clone()),
            Some(distinct[0].clone()),
            Some(distinct[0].clone()),
            None,
            Some(distinct[1].clone()),
        ];
        let deduped = engine.evaluate_hardware_batch(&slots);
        let direct: Vec<_> = slots
            .iter()
            .map(|slot| {
                slot.as_ref().map(|c| {
                    let metrics = engine
                        .evaluator()
                        .hardware_metrics(&c.architectures, &c.accelerator);
                    (metrics, engine.evaluator().specs().check(&metrics))
                })
            })
            .collect();
        assert_eq!(deduped, direct);
        // 2 unique evaluations, 3 suppressed duplicates; the hardware-only
        // path never touches the accuracy cache.
        let stats = engine.stats();
        assert_eq!(stats.hardware_misses, 2);
        assert_eq!(stats.hardware_hits, 3);
        assert_eq!(stats.accuracy_hits + stats.accuracy_misses, 0);
        // A batch of only undecodable slots is a no-op.
        slots.retain(|slot| slot.is_none());
        assert_eq!(engine.evaluate_hardware_batch(&slots), vec![None, None]);
        assert_eq!(engine.stats(), stats);
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let engine = w1_engine();
        let candidates = random_candidates(9, 13);
        let batch = engine.evaluate_batch(&candidates);
        let serial: Vec<_> = candidates
            .iter()
            .map(|c| engine.evaluator().evaluate(c))
            .collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn hardware_batch_keeps_undecodable_slots() {
        let engine = w1_engine();
        let mut slots: Vec<Option<Candidate>> =
            random_candidates(3, 17).into_iter().map(Some).collect();
        slots.insert(1, None);
        let results = engine.evaluate_hardware_batch(&slots);
        assert_eq!(results.len(), 4);
        assert!(results[1].is_none());
        assert!(results[0].is_some() && results[2].is_some() && results[3].is_some());
    }

    #[test]
    fn clone_starts_cold_but_agrees() {
        let engine = w1_engine();
        let candidates = random_candidates(2, 31);
        let original = engine.evaluate_batch(&candidates);
        let cloned = engine.clone();
        assert_eq!(cloned.stats().hardware_misses, 0);
        assert_eq!(cloned.evaluate_batch(&candidates), original);
    }

    #[test]
    fn hardware_metrics_depend_on_the_latency_spec() {
        // Hardware metrics solve the HAP under the evaluator's latency
        // spec, which is why the hardware cache key carries the spec: two
        // engines differing only in `latency_cycles` must each serve their
        // own evaluator's mapping for the same (architectures, accelerator)
        // query.
        let workload = Workload::w1();
        let tight_specs = DesignSpecs::for_workload(WorkloadId::W1);
        let mut loose_specs = tight_specs;
        loose_specs.latency_cycles *= 100.0;
        let tight = EvalEngine::new(Evaluator::new(
            &workload,
            tight_specs,
            AccuracyOracle::default(),
        ));
        let loose = EvalEngine::new(Evaluator::new(
            &workload,
            loose_specs,
            AccuracyOracle::default(),
        ));
        let mut some_metrics_differ = false;
        for candidate in random_candidates(8, 41) {
            let from_tight =
                tight.hardware_metrics(&candidate.architectures, &candidate.accelerator);
            let from_loose =
                loose.hardware_metrics(&candidate.architectures, &candidate.accelerator);
            // Every engine serves exactly its own evaluator's result.
            assert_eq!(
                from_tight,
                tight
                    .evaluator()
                    .hardware_metrics(&candidate.architectures, &candidate.accelerator)
            );
            assert_eq!(
                from_loose,
                loose
                    .evaluator()
                    .hardware_metrics(&candidate.architectures, &candidate.accelerator)
            );
            some_metrics_differ |= from_tight != from_loose;
        }
        assert!(
            some_metrics_differ,
            "a 100x latency spec change should alter at least one mapping"
        );
    }

    #[test]
    fn scorer_reward_matches_manual_composition() {
        let engine = w1_engine();
        let specs = *engine.evaluator().specs();
        let bounds = PenaltyBounds::from_specs(&specs, 3.0);
        let scorer = engine.scorer(bounds, 10.0);
        for candidate in random_candidates(5, 37) {
            let (evaluation, reward) = scorer.score(&candidate);
            let penalty = Penalty::compute(&evaluation.metrics, &specs, &bounds);
            let expected = Reward::new(evaluation.weighted_accuracy, &penalty, 10.0).value();
            assert_eq!(reward, expected);
        }
    }
}
