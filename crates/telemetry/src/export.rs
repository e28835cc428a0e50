//! Live status export: atomic JSON snapshots plus a per-step history.
//!
//! When `QOC_STATUS_FILE` is set, the training engine publishes a status
//! document every `QOC_STATUS_EVERY` steps (default 1), and the device
//! worker pool refreshes it on a time floor between steps — so even a long
//! Jacobian (hundreds of queued circuit batches inside one step) keeps the
//! file alive. Two artifacts, both derived from the same snapshot:
//!
//! - **`QOC_STATUS_FILE`** — a single JSON status document, replaced via
//!   tmp+rename so a concurrent reader (`qoc-top`, the CI monitor check)
//!   never observes a torn file. Shape pinned by
//!   [`schema::check_status_doc`](crate::schema::check_status_doc).
//! - **`<stem>.history.jsonl`** — one appended line per *step* snapshot
//!   (heartbeats refresh the main file only), giving `qoc-top` its loss
//!   sparkline and CI its monotonicity check. It grows by one line per
//!   published step and is never rotated.
//!
//! Each exporter owns an [`AlertEngine`] (rules from `QOC_ALERT_RULES` for
//! the process-wide exporter, [`StatusExporter::with_alert_rules`] for an
//! owned one) and evaluates it at every publication; transitions land in a
//! third sibling, `<stem>.alerts.jsonl`.
//!
//! The device counters in the document (`device.circuits_run`,
//! `device.total_shots`, `device.device_ns`) are stamped by the engine from
//! the same integers that end up in the run manifest, so the final snapshot
//! of a finished run reconciles with the manifest **to the nanosecond** —
//! the `ci.sh monitor` stage gates on exactly that.
//!
//! When the status file is the only telemetry consumer configured, record
//! dispatch is force-enabled so the SNR/queue-wait instrumentation feeds the
//! registry; with `QOC_STATUS_FILE` unset, [`heartbeat`] is one relaxed
//! atomic load and nothing below it runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alerts::{self, AlertEngine};
use crate::metrics::{MetricsSnapshot, Registry};
use crate::Level;

/// Minimum wall time between heartbeat refreshes of the status file while
/// no step boundary is reached (long Jacobians, large eval batches).
const HEARTBEAT_FLOOR_MS: u128 = 2_000;

/// EMA smoothing for the step rate: weight of the newest inter-step rate.
const RATE_EMA_ALPHA: f64 = 0.3;

/// Engine-stamped core of a status snapshot — everything the metrics
/// registry can *not* provide exactly: run identity, training progress, and
/// the cumulative device counters that must reconcile with the manifest.
#[derive(Debug, Clone)]
pub struct StatusCore {
    /// Seed-derived run identity (joins trace/manifest/checkpoint/dump).
    pub run_id: String,
    /// `"running"`, `"finished"`, or `"failed"`.
    pub state: &'static str,
    /// Backend name.
    pub backend: String,
    /// Completed optimization steps.
    pub step: u64,
    /// Configured total steps.
    pub steps_total: u64,
    /// Loss of the most recent step.
    pub loss: f64,
    /// Best evaluation accuracy so far.
    pub best_accuracy: f64,
    /// Pruning window phase: `"none"`, `"accumulating"`, or `"pruning"`.
    pub prune_phase: String,
    /// Cumulative circuits executed (resume base + this process).
    pub circuits_run: u64,
    /// Cumulative measurement shots.
    pub total_shots: u64,
    /// Cumulative estimated device nanoseconds.
    pub device_ns: u64,
}

#[derive(Debug, Default)]
struct ExportState {
    /// Last engine-stamped core; heartbeats re-publish it with fresh
    /// registry data but never touch the device counters.
    core: Option<StatusCore>,
    last_write: Option<Instant>,
    last_step: Option<(u64, Instant)>,
    step_rate: Option<f64>,
    /// Snapshots published so far (strictly increasing `snapshot` field).
    snapshots: u64,
}

/// Writes live status snapshots (see module docs). The process-wide one is
/// built from `QOC_STATUS_FILE` / `QOC_STATUS_EVERY` / `QOC_ALERT_RULES` on
/// first use.
#[derive(Debug)]
pub struct StatusExporter {
    path: PathBuf,
    every: u64,
    /// Rules evaluated at every publication.
    alerts: AlertEngine,
    epoch: Instant,
    state: Mutex<ExportState>,
}

static EXPORTER: OnceLock<Option<StatusExporter>> = OnceLock::new();

/// Fast-path flag for [`heartbeat`]: false until an exporter exists.
static HEARTBEAT_ON: AtomicBool = AtomicBool::new(false);

/// Whether `QOC_STATUS_FILE` names a target (env check only — does not
/// build the exporter). Telemetry init uses this to force-enable dispatch.
pub fn configured_from_env() -> bool {
    std::env::var("QOC_STATUS_FILE").is_ok_and(|v| !v.trim().is_empty())
}

/// The process-wide exporter, `None` unless `QOC_STATUS_FILE` is set.
pub fn global() -> Option<&'static StatusExporter> {
    EXPORTER
        .get_or_init(|| {
            let path = std::env::var("QOC_STATUS_FILE").ok()?;
            let path = path.trim();
            if path.is_empty() {
                return None;
            }
            let every = std::env::var("QOC_STATUS_EVERY")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(1)
                .max(1);
            let mut exporter = StatusExporter::new(PathBuf::from(path), every);
            if let Ok(spec) = std::env::var(alerts::ALERT_RULES_ENV) {
                exporter = exporter.with_alert_rules(&spec);
            }
            HEARTBEAT_ON.store(true, Ordering::Relaxed);
            Some(exporter)
        })
        .as_ref()
}

/// Refreshes the status file between steps if the configured time floor has
/// elapsed. Safe to call from any worker thread at any frequency: one
/// relaxed atomic load when no exporter is configured, and a `try_lock`
/// (never blocking the job hot path) when one is.
pub fn heartbeat() {
    if !HEARTBEAT_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(exporter) = global() {
        exporter.maybe_heartbeat();
    }
}

impl StatusExporter {
    /// An exporter publishing to `path` every `every` steps. Public for
    /// tests; production goes through [`global`].
    pub fn new(path: PathBuf, every: u64) -> Self {
        StatusExporter {
            path,
            every: every.max(1),
            alerts: AlertEngine::default(),
            epoch: Instant::now(),
            state: Mutex::new(ExportState::default()),
        }
    }

    /// Installs alert rules (semicolon-separated, see
    /// [`alerts`](crate::alerts)) into this exporter's engine. A malformed
    /// rule is reported on stderr and dropped; the valid ones still install,
    /// so a typo degrades to fewer alerts, never to a crashed run.
    pub fn with_alert_rules(mut self, spec: &str) -> Self {
        if let Err(err) = self.alerts.install(spec) {
            eprintln!("qoc-telemetry: alert rules: {err}");
        }
        self
    }

    /// The status file path (siblings derive from it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Step cadence (`QOC_STATUS_EVERY`).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Publishes a step-boundary snapshot. Terminal states (`finished`,
    /// `failed`) and the first step always publish; otherwise publication
    /// follows the configured cadence. Every publication appends to the
    /// history sibling.
    pub fn on_step(&self, core: StatusCore) {
        let now = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((prev_step, prev_at)) = st.last_step {
            if core.step > prev_step {
                let dt = now.duration_since(prev_at).as_secs_f64();
                if dt > 0.0 {
                    let inst = (core.step - prev_step) as f64 / dt;
                    st.step_rate = Some(match st.step_rate {
                        Some(prev) => RATE_EMA_ALPHA * inst + (1.0 - RATE_EMA_ALPHA) * prev,
                        None => inst,
                    });
                }
            }
        }
        st.last_step = Some((core.step, now));
        let due = core.state != "running"
            || core.step <= 1
            || core.step == core.steps_total
            || core.step.is_multiple_of(self.every);
        st.core = Some(core);
        if due {
            self.publish(&mut st, true);
        }
    }

    /// Explicit heartbeat for exporters owned directly (tests):
    /// same semantics as the global [`heartbeat`] — republish the last core
    /// with fresh registry data once the time floor has elapsed.
    pub fn tick(&self) {
        self.maybe_heartbeat();
    }

    /// Time-floor refresh from the worker pool (see [`heartbeat`]).
    fn maybe_heartbeat(&self) {
        let Ok(mut st) = self.state.try_lock() else {
            return;
        };
        if st.core.is_none() {
            return;
        }
        let stale = st
            .last_write
            .is_none_or(|at| at.elapsed().as_millis() >= HEARTBEAT_FLOOR_MS);
        if stale {
            self.publish(&mut st, false);
        }
    }

    /// Renders and writes the status file. `with_history` appends one
    /// line to the history sibling (step snapshots yes, heartbeats no —
    /// history is the per-step series CI checks for monotonicity).
    fn publish(&self, st: &mut ExportState, with_history: bool) {
        st.snapshots += 1;
        st.last_write = Some(Instant::now());
        let mut metrics = Registry::global().snapshot();
        let core = st.core.as_ref().expect("publish without core");
        // Alert evaluation rides the publish cadence: every rule sees the
        // same snapshot the document is rendered from. Terminal states
        // flush still-active firings so the log pairs every firing with an
        // outcome.
        let mut transitions = self.alerts.evaluate(&metrics);
        if core.state != "running" {
            transitions.extend(self.alerts.finalize());
        }
        if !transitions.is_empty() {
            self.record_transitions(&transitions, st.snapshots);
            // Re-snapshot so the document includes the qoc.alerts.* metrics
            // the transitions just bumped.
            metrics = Registry::global().snapshot();
        }
        let doc = status_doc(
            core,
            &metrics,
            st.snapshots,
            self.epoch,
            st.step_rate,
            self.alerts.section(),
        );
        let json = serde_json::to_string(&doc).expect("infallible");
        if let Err(err) = write_atomic(&self.path, &json) {
            eprintln!("qoc-telemetry: status export to {:?}: {err}", self.path);
            return;
        }
        if with_history {
            let history = self.path.with_extension("history.jsonl");
            if let Err(err) = append_line(&history, &json) {
                eprintln!("qoc-telemetry: status history {history:?}: {err}");
            }
        }
    }

    /// Turns alert transitions into their three artifacts: pinned-schema
    /// trace events, `<stem>.alerts.jsonl` lines, and registry metrics.
    fn record_transitions(&self, transitions: &[alerts::AlertTransition], snapshot: u64) {
        let registry = Registry::global();
        let fired = transitions.iter().filter(|t| t.kind == "fired").count() as u64;
        let resolved = transitions.len() as u64 - fired;
        if fired > 0 {
            registry.counter("qoc.alerts.fired").add(fired);
        }
        if resolved > 0 {
            registry.counter("qoc.alerts.resolved").add(resolved);
        }
        registry
            .gauge("qoc.alerts.active")
            .set(self.alerts.active().len() as f64);
        let log = self.path.with_extension("alerts.jsonl");
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        for t in transitions {
            // Firings and resolutions are trace events too (terminal
            // flushes live only in the log — the run is already over).
            if crate::enabled() && t.kind != "terminal" {
                let (level, name) = if t.kind == "fired" {
                    (Level::Warn, "alert.fired")
                } else {
                    (Level::Info, "alert.resolved")
                };
                crate::dispatch_event(
                    level,
                    name,
                    vec![
                        ("rule", crate::FieldValue::Str(t.rule.clone())),
                        ("metric", crate::FieldValue::Str(t.metric.clone())),
                        ("value", crate::FieldValue::F64(t.value)),
                        ("threshold", crate::FieldValue::F64(t.threshold)),
                        ("windows", crate::FieldValue::U64(t.windows)),
                    ],
                );
            }
            let line = alert_line(t, ts_ns, snapshot);
            let json = serde_json::to_string(&line).expect("infallible");
            if let Err(err) = append_line(&log, &json) {
                eprintln!("qoc-telemetry: alert log {log:?}: {err}");
            }
        }
    }
}

/// Renders one `<stem>.alerts.jsonl` line (shape pinned by
/// [`schema::check_alert_line`](crate::schema::check_alert_line)).
fn alert_line(t: &alerts::AlertTransition, ts_ns: u64, snapshot: u64) -> serde::Value {
    use serde::Value;
    // A non-finite gauge value must still serialize to legal JSON.
    let finite = |v: f64| if v.is_finite() { v } else { f64::MAX };
    Value::Object(vec![
        ("ts_ns".into(), Value::UInt(ts_ns)),
        ("kind".into(), Value::Str(t.kind.to_string())),
        ("rule".into(), Value::Str(t.rule.clone())),
        ("metric".into(), Value::Str(t.metric.clone())),
        ("value".into(), Value::Float(finite(t.value))),
        ("threshold".into(), Value::Float(finite(t.threshold))),
        ("windows".into(), Value::UInt(t.windows)),
        ("snapshot".into(), Value::UInt(snapshot)),
    ])
}

/// Builds the status document from the engine-stamped core plus
/// registry-derived sections.
fn status_doc(
    core: &StatusCore,
    metrics: &MetricsSnapshot,
    snapshot: u64,
    epoch: Instant,
    step_rate: Option<f64>,
    alerts_section: Option<serde::Value>,
) -> serde::Value {
    use serde::Value;

    let rate = step_rate.unwrap_or(0.0);
    let eta = if core.state == "running" && rate > 0.0 && core.steps_total > core.step {
        Value::Float((core.steps_total - core.step) as f64 / rate)
    } else {
        Value::Null
    };

    let mut entries = vec![
        ("schema_version".into(), Value::UInt(1)),
        ("run_id".into(), Value::Str(core.run_id.clone())),
        ("state".into(), Value::Str(core.state.to_string())),
        ("backend".into(), Value::Str(core.backend.clone())),
        ("step".into(), Value::UInt(core.step)),
        ("steps_total".into(), Value::UInt(core.steps_total)),
        ("loss".into(), Value::Float(core.loss)),
        ("best_accuracy".into(), Value::Float(core.best_accuracy)),
        ("prune_phase".into(), Value::Str(core.prune_phase.clone())),
        ("snapshot".into(), Value::UInt(snapshot)),
        (
            "uptime_ns".into(),
            Value::UInt(epoch.elapsed().as_nanos() as u64),
        ),
        ("step_rate".into(), Value::Float(rate)),
        ("eta_seconds".into(), eta),
        (
            "device".into(),
            Value::Object(vec![
                ("circuits_run".into(), Value::UInt(core.circuits_run)),
                ("total_shots".into(), Value::UInt(core.total_shots)),
                ("device_ns".into(), Value::UInt(core.device_ns)),
            ]),
        ),
    ];

    let counter = |name: &str| Value::UInt(metrics.counter(name));
    entries.push((
        "retries".into(),
        Value::Object(vec![
            ("retries".into(), counter("qoc.device.retries")),
            ("gave_up".into(), counter("qoc.device.gave_up")),
            ("degraded_jobs".into(), counter("qoc.device.degraded_jobs")),
        ]),
    ));
    entries.push((
        "pool".into(),
        Value::Object(vec![
            ("hits".into(), counter("qoc.sim.pool.hits")),
            ("misses".into(), counter("qoc.sim.pool.misses")),
        ]),
    ));
    entries.push((
        "alloc".into(),
        Value::Object(vec![
            ("saved_shots".into(), counter("qoc.alloc.saved_shots")),
            ("skipped_evals".into(), counter("qoc.alloc.skipped_evals")),
            ("windows".into(), counter("qoc.alloc.windows")),
            (
                "requested_shots".into(),
                counter("qoc.device.requested_shots"),
            ),
        ]),
    ));

    let snr = metrics.quantile("qoc.grad.snr");
    entries.push((
        "snr".into(),
        Value::Object(vec![
            ("count".into(), Value::UInt(snr.map_or(0, |q| q.count))),
            ("min".into(), Value::Float(snr.map_or(0.0, |q| q.min))),
            ("p50".into(), Value::Float(snr.map_or(0.0, |q| q.p50))),
            ("p90".into(), Value::Float(snr.map_or(0.0, |q| q.p90))),
            ("p99".into(), Value::Float(snr.map_or(0.0, |q| q.p99))),
            ("max".into(), Value::Float(snr.map_or(0.0, |q| q.max))),
        ]),
    ));

    let queue = metrics.histogram("qoc.device.queue_wait_ns");
    entries.push((
        "queue_wait_ns".into(),
        Value::Object(vec![
            ("count".into(), Value::UInt(queue.map_or(0, |h| h.count))),
            (
                "p50".into(),
                Value::UInt(queue.map_or(0, |h| h.quantile(0.5))),
            ),
            (
                "p90".into(),
                Value::UInt(queue.map_or(0, |h| h.quantile(0.9))),
            ),
            (
                "p99".into(),
                Value::UInt(queue.map_or(0, |h| h.quantile(0.99))),
            ),
        ]),
    ));

    // Alert engine state (absent unless rules are installed, so golden
    // docs from rule-free runs stay byte-stable).
    if let Some(alerts) = alerts_section {
        entries.push(("alerts".into(), alerts));
    }

    let busy = metrics.histogram("qoc.device.worker_busy_ns");
    entries.push((
        "workers".into(),
        Value::Object(vec![
            (
                "live".into(),
                Value::Float(
                    metrics
                        .gauges
                        .get("qoc.device.workers_live")
                        .copied()
                        .unwrap_or(0.0),
                ),
            ),
            (
                "jobs_inflight".into(),
                Value::Float(
                    metrics
                        .gauges
                        .get("qoc.device.jobs_inflight")
                        .copied()
                        .unwrap_or(0.0),
                ),
            ),
            (
                "jobs_completed".into(),
                counter("qoc.device.jobs_completed"),
            ),
            ("busy_ns".into(), Value::UInt(busy.map_or(0, |h| h.sum))),
        ]),
    ));

    Value::Object(entries)
}

/// Replaces `path` atomically: write a `.tmp` sibling, then rename over.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::check_status_doc;

    fn core(step: u64, device_ns: u64) -> StatusCore {
        StatusCore {
            run_id: "deadbeefcafef00d".into(),
            state: "running",
            backend: "fake_santiago".into(),
            step,
            steps_total: 9,
            loss: 1.0 / (step as f64 + 1.0),
            best_accuracy: 0.5,
            prune_phase: "accumulating".into(),
            circuits_run: step * 100,
            total_shots: step * 102_400,
            device_ns,
        }
    }

    fn tmp_status_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qoc-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.status.json"))
    }

    #[test]
    fn snapshots_are_schema_valid_and_monotone() {
        let path = tmp_status_path("monotone");
        let exporter = StatusExporter::new(path.clone(), 1);
        let history = path.with_extension("history.jsonl");
        std::fs::remove_file(&history).ok();
        for step in 1..=4 {
            exporter.on_step(core(step, step * 1_000_000));
        }
        let mut fin = core(4, 4_000_000);
        fin.state = "finished";
        exporter.on_step(fin);

        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        check_status_doc(&doc).expect("status doc schema");
        assert_eq!(doc.get("state").unwrap().as_str(), Some("finished"));

        let text = std::fs::read_to_string(&history).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "one history line per step publication");
        let mut prev_ns = 0;
        let mut prev_snapshot = 0;
        for line in lines {
            let doc: serde::Value = serde_json::from_str(line).unwrap();
            check_status_doc(&doc).expect("history line schema");
            let ns = doc
                .get("device")
                .unwrap()
                .get("device_ns")
                .unwrap()
                .as_u64()
                .unwrap();
            assert!(ns >= prev_ns, "device_ns must be monotone");
            prev_ns = ns;
            let snap = doc.get("snapshot").unwrap().as_u64().unwrap();
            assert!(snap > prev_snapshot, "snapshot counter strictly increases");
            prev_snapshot = snap;
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&history).ok();
    }

    #[test]
    fn cadence_skips_steps_but_keeps_terminal_and_first() {
        let path = tmp_status_path("cadence");
        let history = path.with_extension("history.jsonl");
        std::fs::remove_file(&history).ok();
        let exporter = StatusExporter::new(path.clone(), 3);
        for step in 1..=8 {
            exporter.on_step(core(step, step));
        }
        let mut fin = core(9, 9);
        fin.state = "failed";
        exporter.on_step(fin);
        let text = std::fs::read_to_string(&history).unwrap();
        let steps: Vec<u64> = text
            .lines()
            .map(|l| {
                serde_json::from_str(l)
                    .unwrap()
                    .get("step")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        // step 1 (first), 3 and 6 (cadence), 9 (terminal).
        assert_eq!(steps, vec![1, 3, 6, 9]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&history).ok();
    }

    #[test]
    fn alert_transitions_reach_log_doc_and_registry() {
        let path = tmp_status_path("alerts");
        let log = path.with_extension("alerts.jsonl");
        std::fs::remove_file(&log).ok();
        // The exporter owns its rules; the probe metric lives in the global
        // registry the exporter snapshots.
        let gauge = Registry::global().gauge("t.export.alert_probe");
        let exporter = StatusExporter::new(path.clone(), 1)
            .with_alert_rules("t.export.alert_probe > 10 for 2 windows");
        gauge.set(50.0);
        exporter.on_step(core(1, 1)); // streak 1
        exporter.on_step(core(2, 2)); // streak 2 → fires
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        check_status_doc(&doc).expect("doc with alerts section");
        let alerts = doc.get("alerts").expect("alerts section present");
        let active = alerts.get("active").unwrap().as_array().unwrap();
        assert!(
            active
                .iter()
                .any(|a| a.get("metric").unwrap().as_str() == Some("t.export.alert_probe")),
            "probe alert active in doc: {alerts:?}"
        );
        gauge.set(0.0);
        let mut fin = core(3, 3);
        fin.state = "finished";
        exporter.on_step(fin);
        let text = std::fs::read_to_string(&log).expect("alert log exists");
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                let v: serde::Value = serde_json::from_str(l).unwrap();
                crate::schema::check_alert_line(&v).expect("alert line schema");
                v.get("kind").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        assert!(kinds.contains(&"fired".to_string()), "kinds: {kinds:?}");
        assert!(
            kinds.contains(&"resolved".to_string()),
            "resolution logged: {kinds:?}"
        );
        assert!(Registry::global().counter("qoc.alerts.fired").get() >= 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
        std::fs::remove_file(path.with_extension("history.jsonl")).ok();
    }

    #[test]
    fn heartbeat_respects_time_floor_and_missing_core() {
        let path = tmp_status_path("heartbeat");
        let exporter = StatusExporter::new(path.clone(), 1);
        // No core yet: heartbeat must not write anything.
        exporter.maybe_heartbeat();
        assert!(!path.exists());
        exporter.on_step(core(1, 10));
        let first = std::fs::read_to_string(&path).unwrap();
        // Inside the floor: the file is untouched.
        exporter.maybe_heartbeat();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("history.jsonl")).ok();
    }
}
