//! Telemetry glue for the core search pipeline.
//!
//! The [`nasaic_telemetry`] crate owns the primitives (counters, gauges,
//! log-scale histograms, timer spans); this module owns the *names* — the
//! metric catalogue in `docs/observability.md` — and the pieces that need
//! core types:
//!
//! * cached handles for the hot-path wall-time histograms
//!   ([`eval_accuracy_wall`], [`eval_cost_model_wall`],
//!   [`eval_sched_solve_wall`], [`controller_wall`],
//!   [`checkpoint_encode_wall`], [`eval_candidate_wall`]) plus the
//!   [`maybe_time`] helper that makes a disabled site cost one relaxed
//!   load;
//! * [`MetricsObserver`] — a passive [`SearchObserver`] that translates
//!   the existing event stream into per-phase wall time, episode counters
//!   and an episodes/s gauge, so the six drivers are instrumented without
//!   touching their internals (and with bit-identical outcomes by the
//!   observer contract);
//! * [`snapshot_to_value`] — the JSON form of a registry snapshot (the
//!   `show metrics` response and `nasaic profile --format json`);
//! * [`ProfileBreakdown`] — the hierarchical wall-time attribution behind
//!   `nasaic profile`.

use crate::algorithm::{SearchEvent, SearchObserver};
use crate::scenario::value::ConfigValue;
use nasaic_telemetry::{self as telemetry, Histogram, MetricSnapshot, MetricValue, TimerSpan};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

macro_rules! global_histogram {
    ($(#[$doc:meta])* $name:ident, $metric:literal) => {
        $(#[$doc])*
        pub fn $name() -> &'static Arc<Histogram> {
            static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
            HANDLE.get_or_init(|| telemetry::global().histogram($metric, &[]))
        }
    };
}

global_histogram!(
    /// Wall time of one accuracy-oracle query (`nasaic_eval_accuracy_wall_ns`).
    eval_accuracy_wall,
    "nasaic_eval_accuracy_wall_ns"
);
global_histogram!(
    /// Wall time of one cost-table assembly (`nasaic_eval_cost_model_wall_ns`).
    eval_cost_model_wall,
    "nasaic_eval_cost_model_wall_ns"
);
global_histogram!(
    /// Wall time of one HAP solve (`nasaic_eval_sched_solve_wall_ns`).
    eval_sched_solve_wall,
    "nasaic_eval_sched_solve_wall_ns"
);
global_histogram!(
    /// Wall time of one controller interaction — a sample or a feedback
    /// update (`nasaic_controller_wall_ns`).
    controller_wall,
    "nasaic_controller_wall_ns"
);
global_histogram!(
    /// Wall time of building + persisting one checkpoint
    /// (`nasaic_checkpoint_encode_wall_ns`).
    checkpoint_encode_wall,
    "nasaic_checkpoint_encode_wall_ns"
);
global_histogram!(
    /// End-to-end wall time of evaluating one candidate through the
    /// engine, cache hits included (`nasaic_eval_candidate_wall_ns`).
    eval_candidate_wall,
    "nasaic_eval_candidate_wall_ns"
);

global_histogram!(
    /// Wall time of decoding flat choice vectors into candidates: one
    /// vector per span in `Candidate::decode`, a whole episode per span in
    /// the NASAIC driver (`nasaic_candidate_decode_wall_ns`).
    candidate_decode_wall,
    "nasaic_candidate_decode_wall_ns"
);
global_histogram!(
    /// Own wall time of one engine batch — de-duplication, the cache-miss
    /// partition, cache lookups and result fan-out — without the
    /// evaluation leaves that ran inside it
    /// (`nasaic_eval_batch_self_wall_ns`).
    eval_batch_self_wall,
    "nasaic_eval_batch_self_wall_ns"
);

global_histogram!(
    /// Size of one batch handed to the engine (`nasaic_eval_batch_size`).
    eval_batch_size,
    "nasaic_eval_batch_size"
);

/// Evaluations the batch de-duplication suppressed
/// (`nasaic_eval_dedup_saved_total`).
pub fn eval_dedup_saved() -> &'static Arc<nasaic_telemetry::Counter> {
    static HANDLE: OnceLock<Arc<nasaic_telemetry::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| telemetry::global().counter("nasaic_eval_dedup_saved_total", &[]))
}

/// Start a span on `histogram` when telemetry is enabled; `None` (which
/// drops for free) otherwise.  The disabled path is one relaxed load —
/// no `Instant::now` syscall.
#[inline]
pub fn maybe_time(histogram: fn() -> &'static Arc<Histogram>) -> Option<TimerSpan> {
    if telemetry::enabled() {
        Some(histogram().time())
    } else {
        None
    }
}

/// Total wall time recorded so far by the evaluation leaves (accuracy
/// oracle, cost-table assembly, HAP solve).
fn evaluation_leaves_ns() -> u64 {
    eval_accuracy_wall().sum() + eval_cost_model_wall().sum() + eval_sched_solve_wall().sum()
}

/// A span recording an engine batch's self time into
/// [`eval_batch_self_wall`] when dropped.
#[must_use = "a BatchSpan records on drop; binding it to `_span` keeps the batch timed"]
pub(crate) struct BatchSpan {
    started: Instant,
    leaves_at_start: u64,
}

impl Drop for BatchSpan {
    fn drop(&mut self) {
        let wall = self.started.elapsed().as_nanos() as u64;
        let nested = evaluation_leaves_ns().saturating_sub(self.leaves_at_start);
        eval_batch_self_wall().record(wall.saturating_sub(nested));
    }
}

/// Start a batch self-time span when telemetry is enabled (`None`
/// otherwise, like [`maybe_time`]).
///
/// Self time is the batch's wall minus what the evaluation leaf histograms
/// grew by while it ran, so the profile can list the batch beside its
/// leaves without counting anything twice.  That is exact when the batch
/// is the only evaluation in flight — the single-threaded engine `nasaic
/// profile` runs; leaves recorded concurrently elsewhere in the process
/// are subtracted too, and the value saturates at zero.
#[inline]
pub(crate) fn maybe_time_batch() -> Option<BatchSpan> {
    telemetry::enabled().then(|| BatchSpan {
        started: Instant::now(),
        leaves_at_start: evaluation_leaves_ns(),
    })
}

// ---------------------------------------------------------------------------
// MetricsObserver
// ---------------------------------------------------------------------------

/// A passive [`SearchObserver`] recording driver-level metrics from the
/// event stream: per-phase wall time
/// (`nasaic_search_phase_wall_ns{phase=…}`), episode / incumbent /
/// checkpoint counters, search wall time and an episodes/s gauge.
///
/// Because it only *listens*, the observer contract (bit-identical
/// outcomes) holds for all six drivers without touching their internals.
/// One instance observes one run; `MulticastObserver` composes it with
/// tracing or streaming observers.
#[derive(Debug)]
pub struct MetricsObserver {
    started: Instant,
    phase_starts: Mutex<HashMap<String, Instant>>,
}

impl MetricsObserver {
    /// An observer whose search clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            phase_starts: Mutex::new(HashMap::new()),
        }
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchObserver for MetricsObserver {
    fn on_event(&self, event: &SearchEvent) {
        if !telemetry::enabled() {
            return;
        }
        let registry = telemetry::global();
        match event {
            SearchEvent::PhaseStarted { phase, .. } => {
                self.phase_starts
                    .lock()
                    .expect("phase clock lock")
                    .insert(phase.clone(), Instant::now());
            }
            SearchEvent::PhaseFinished { phase, .. } => {
                let started = self
                    .phase_starts
                    .lock()
                    .expect("phase clock lock")
                    .remove(phase);
                if let Some(started) = started {
                    registry
                        .histogram("nasaic_search_phase_wall_ns", &[("phase", phase)])
                        .record(started.elapsed().as_nanos() as u64);
                }
            }
            SearchEvent::EpisodeEvaluated { .. } => {
                registry.counter("nasaic_search_episodes_total", &[]).inc();
            }
            SearchEvent::NewIncumbent { .. } => {
                registry
                    .counter("nasaic_search_incumbents_total", &[])
                    .inc();
            }
            SearchEvent::CheckpointSaved { .. } => {
                registry
                    .counter("nasaic_search_checkpoints_total", &[])
                    .inc();
            }
            SearchEvent::SearchFinished { episodes, .. } => {
                let elapsed = self.started.elapsed();
                registry
                    .histogram("nasaic_search_wall_ns", &[])
                    .record(elapsed.as_nanos() as u64);
                let secs = elapsed.as_secs_f64();
                if secs > 0.0 {
                    registry
                        .gauge("nasaic_search_episodes_per_s", &[])
                        .set(*episodes as f64 / secs);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------------

/// A registry snapshot as a [`ConfigValue`] array — one table per metric
/// with `name`, a `labels` table (omitted when empty), `kind`, and either
/// `value` (counter/gauge) or the histogram summary fields.
pub fn snapshot_to_value(snapshots: &[MetricSnapshot]) -> ConfigValue {
    let entries = snapshots
        .iter()
        .map(|snap| {
            let mut entry = ConfigValue::table();
            entry.insert("name", ConfigValue::Str(snap.name.clone()));
            if !snap.labels.is_empty() {
                let mut labels = ConfigValue::table();
                for (key, value) in &snap.labels {
                    labels.insert(key, ConfigValue::Str(value.clone()));
                }
                entry.insert("labels", labels);
            }
            match &snap.value {
                MetricValue::Counter(v) => {
                    entry.insert("kind", ConfigValue::Str("counter".into()));
                    entry.insert("value", ConfigValue::Integer(*v as i64));
                }
                MetricValue::Gauge(v) => {
                    entry.insert("kind", ConfigValue::Str("gauge".into()));
                    entry.insert("value", ConfigValue::Float(*v));
                }
                MetricValue::Histogram(h) => {
                    entry.insert("kind", ConfigValue::Str("histogram".into()));
                    entry.insert("count", ConfigValue::Integer(h.count as i64));
                    entry.insert("sum", ConfigValue::Integer(h.sum as i64));
                    entry.insert("mean", ConfigValue::Float(h.mean));
                    entry.insert("p50", ConfigValue::Float(h.p50));
                    entry.insert("p90", ConfigValue::Float(h.p90));
                    entry.insert("p99", ConfigValue::Float(h.p99));
                }
            }
            entry
        })
        .collect();
    ConfigValue::Array(entries)
}

// ---------------------------------------------------------------------------
// Profile breakdown
// ---------------------------------------------------------------------------

/// One attributed component of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileComponent {
    /// Component name (`evaluation/accuracy-proxy`, `controller`, …).
    pub name: String,
    /// Wall time attributed to the component, in milliseconds.
    pub wall_ms: f64,
    /// Spans recorded (0 for the synthetic `other` row).
    pub count: u64,
}

/// The hierarchical wall-time attribution `nasaic profile` prints: where
/// a run's measured wall went, split by pipeline stage.
///
/// Components are *leaf* spans (the accuracy oracle, cost-table assembly,
/// HAP solve, controller, candidate decode, checkpoint encode) plus the
/// engine batches' self time, which excludes the leaves nested in them, so
/// nothing is counted twice; `coverage` is their sum over the measured
/// wall.  The profile runs single-threaded so attribution sums are
/// comparable to wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileBreakdown {
    /// Measured wall time of the profiled run, in milliseconds.
    pub wall_ms: f64,
    /// Attributed components, largest first, plus a final `other` row for
    /// the unattributed remainder.
    pub components: Vec<ProfileComponent>,
    /// Fraction of the wall covered by attributed (non-`other`)
    /// components.
    pub coverage: f64,
}

impl ProfileBreakdown {
    /// Attribute `wall_ms` of a just-finished run from the global
    /// registry's leaf spans.  Call with telemetry enabled and the
    /// registry reset immediately before the run.
    pub fn collect(wall_ms: f64) -> Self {
        let leaves: [(&str, &Arc<Histogram>); 7] = [
            ("evaluation/accuracy-proxy", eval_accuracy_wall()),
            ("evaluation/cost-model", eval_cost_model_wall()),
            ("evaluation/scheduler", eval_sched_solve_wall()),
            ("evaluation/engine-batch", eval_batch_self_wall()),
            ("controller", controller_wall()),
            ("candidate-decode", candidate_decode_wall()),
            ("checkpointing", checkpoint_encode_wall()),
        ];
        let mut components: Vec<ProfileComponent> = leaves
            .iter()
            .map(|(name, histogram)| {
                let snap = histogram.snapshot();
                ProfileComponent {
                    name: (*name).to_string(),
                    wall_ms: snap.sum as f64 / 1e6,
                    count: snap.count,
                }
            })
            .collect();
        components.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        let attributed: f64 = components.iter().map(|c| c.wall_ms).sum();
        let coverage = if wall_ms > 0.0 {
            attributed / wall_ms
        } else {
            0.0
        };
        components.push(ProfileComponent {
            name: "other".to_string(),
            wall_ms: (wall_ms - attributed).max(0.0),
            count: 0,
        });
        Self {
            wall_ms,
            components,
            coverage,
        }
    }

    /// The breakdown as a [`ConfigValue`] table (the `--format json`
    /// payload).
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("wall_ms", ConfigValue::Float(self.wall_ms));
        root.insert("coverage", ConfigValue::Float(self.coverage));
        root.insert(
            "components",
            ConfigValue::Array(
                self.components
                    .iter()
                    .map(|c| {
                        let mut entry = ConfigValue::table();
                        entry.insert("name", ConfigValue::Str(c.name.clone()));
                        entry.insert("wall_ms", ConfigValue::Float(c.wall_ms));
                        entry.insert("spans", ConfigValue::Integer(c.count as i64));
                        entry
                    })
                    .collect(),
            ),
        );
        root
    }

    /// The breakdown as an indented text tree (the default `nasaic
    /// profile` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "wall {:.1} ms", self.wall_ms);
        let pct = |ms: f64| {
            if self.wall_ms > 0.0 {
                100.0 * ms / self.wall_ms
            } else {
                0.0
            }
        };
        // Group the `evaluation/…` leaves under one parent row.
        let eval_ms: f64 = self
            .components
            .iter()
            .filter(|c| c.name.starts_with("evaluation/"))
            .map(|c| c.wall_ms)
            .sum();
        let _ = writeln!(
            out,
            "├─ evaluation {:.1} ms ({:.1}%)",
            eval_ms,
            pct(eval_ms)
        );
        for component in &self.components {
            if let Some(leaf) = component.name.strip_prefix("evaluation/") {
                let _ = writeln!(
                    out,
                    "│  ├─ {leaf} {:.1} ms ({:.1}%, {} spans)",
                    component.wall_ms,
                    pct(component.wall_ms),
                    component.count
                );
            }
        }
        for component in &self.components {
            if component.name.starts_with("evaluation/") {
                continue;
            }
            let spans = if component.count > 0 {
                format!(", {} spans", component.count)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "├─ {} {:.1} ms ({:.1}%{spans})",
                component.name,
                component.wall_ms,
                pct(component.wall_ms)
            );
        }
        let _ = writeln!(out, "└─ coverage {:.1}%", 100.0 * self.coverage);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::PhaseSummary;

    #[test]
    fn snapshot_value_covers_all_kinds() {
        let registry = telemetry::MetricsRegistry::new();
        registry.counter("a_total", &[("k", "v")]).add(3);
        registry.gauge("b_depth", &[]).set(2.5);
        registry.histogram("c_ns", &[]).record(8);
        let value = snapshot_to_value(&registry.snapshot());
        let entries = value.as_array().expect("array");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(entries[0].get("value").unwrap().as_integer(), Some(3));
        assert_eq!(
            entries[0]
                .get("labels")
                .and_then(|l| l.get("k"))
                .and_then(ConfigValue::as_str),
            Some("v")
        );
        assert_eq!(entries[1].get("kind").unwrap().as_str(), Some("gauge"));
        assert_eq!(entries[2].get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(entries[2].get("count").unwrap().as_integer(), Some(1));
        // The whole thing survives a JSON round trip.
        let json = crate::scenario::value::to_json_compact(&value);
        assert_eq!(
            crate::scenario::value::parse_json(&json).expect("parses"),
            value
        );
    }

    #[test]
    fn profile_breakdown_attributes_and_reports_coverage() {
        // Build directly from synthetic components to stay independent of
        // the global registry (other tests may run concurrently).
        let breakdown = ProfileBreakdown {
            wall_ms: 100.0,
            components: vec![
                ProfileComponent {
                    name: "evaluation/scheduler".into(),
                    wall_ms: 60.0,
                    count: 10,
                },
                ProfileComponent {
                    name: "controller".into(),
                    wall_ms: 35.0,
                    count: 5,
                },
                ProfileComponent {
                    name: "other".into(),
                    wall_ms: 5.0,
                    count: 0,
                },
            ],
            coverage: 0.95,
        };
        let text = breakdown.render_text();
        assert!(text.contains("wall 100.0 ms"), "{text}");
        assert!(text.contains("scheduler 60.0 ms (60.0%"), "{text}");
        assert!(text.contains("coverage 95.0%"), "{text}");
        let value = breakdown.to_value();
        assert_eq!(value.get("coverage").unwrap().as_float(), Some(0.95));
        assert_eq!(
            value.get("components").unwrap().as_array().unwrap().len(),
            3
        );
    }

    #[test]
    fn metrics_observer_is_passive_when_disabled() {
        // With telemetry off (the default in tests) the observer must not
        // touch the registry at all — phase events leave no clock entries.
        let observer = MetricsObserver::new();
        observer.on_event(&SearchEvent::PhaseStarted {
            phase: "nas".into(),
            budget: 3,
        });
        assert!(
            observer.phase_starts.lock().unwrap().is_empty(),
            "disabled observer recorded a phase start"
        );
        observer.on_event(&SearchEvent::PhaseFinished {
            phase: "nas".into(),
            summary: PhaseSummary {
                name: "nas".into(),
                episodes: 3,
                explored: 3,
                spec_compliant: 0,
                best_weighted_accuracy: None,
                detail: String::new(),
            },
        });
    }
}
