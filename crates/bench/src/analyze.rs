//! Offline analysis and checking of a traced run: the `QOC_TRACE_FILE`
//! JSONL trace, its `<stem>.manifest.json`, and — for a status-exported
//! run — the `QOC_STATUS_FILE` document with its history and alert log.
//!
//! The analyzer never talks to a backend: everything it reports is
//! reconstructed from the artifacts a traced training run leaves behind.
//! The trace is the only per-step record stream: step and eval counts and
//! the measured run savings come from its `train.step` / `train.eval`
//! events.
//!
//! 1. **Span forest** — span records carry only their *end* timestamp and
//!    duration, so each span's start is `ts − dur_ns`; per thread, sorting
//!    by `(start asc, end desc)` and replaying against a stack rebuilds the
//!    nesting exactly (guards are dropped LIFO). A span that never closed
//!    (crash, abort) simply has no record; its children reattach to the
//!    nearest closed ancestor.
//! 2. **Folded stacks** — `thread-0;train.run;grad.minibatch 1234` lines
//!    (self-time nanoseconds), directly consumable by
//!    `inferno-flamegraph` / `flamegraph.pl`.
//! 3. **Phase table** — wall time vs *device* time per training phase. The
//!    `device.batch` spans carry exact per-batch `device_ns` / `circuits`
//!    deltas, so attributing each batch to its enclosing `grad.minibatch`
//!    or `eval.dataset` ancestor splits the run's device-time budget with
//!    no estimation; the total must reconcile against the manifest's
//!    `ExecutionStats` to the nanosecond.
//! 4. **Gradient-health report** — per-parameter SNR/EMA/sign-flip table
//!    and the per-window PGP efficacy curve, straight from the
//!    `grad.health` / `prune.efficacy` events
//!    ([`qoc_telemetry::schema`] pins their shapes).
//!
//! [`Analysis::sanity_failures`] distills the CI gates: a nonempty span
//! forest, device-time exactness, pruning efficacy present when the run
//! pruned, and the measured run-savings landing near the paper's
//! `r·w_p/(w_a+w_p)`. [`check_manifest`] requires nonzero circuit-run
//! counters, and [`check_status_run`] gates the live status artifacts.

use std::collections::BTreeMap;

use qoc_telemetry::schema;
use serde::Value;

/// One parsed trace line.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Nanoseconds since telemetry init; for spans this is the *end* time.
    pub ts: u64,
    /// `true` for spans, `false` for events.
    pub is_span: bool,
    /// Record name (`span` key).
    pub name: String,
    /// Emitting thread.
    pub thread: u64,
    /// Span duration (spans only).
    pub dur_ns: Option<u64>,
    /// The `fields` payload.
    pub fields: Value,
}

impl TraceRecord {
    fn from_value(value: &Value) -> TraceRecord {
        TraceRecord {
            ts: value.get("ts").and_then(Value::as_u64).unwrap_or(0),
            is_span: value.get("kind").and_then(Value::as_str) == Some("span"),
            name: value
                .get("span")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            thread: value.get("thread").and_then(Value::as_u64).unwrap_or(0),
            dur_ns: value.get("dur_ns").and_then(Value::as_u64),
            fields: value.get("fields").cloned().unwrap_or(Value::Null),
        }
    }

    /// Integer field lookup on the payload.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Value::as_u64)
    }

    /// Numeric field lookup on the payload.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_f64)
    }
}

/// Whether a bad line may be forgiven as a *truncated tail*: it is the
/// file's final line **and** the file has no trailing newline — exactly the
/// signature a buffered JSONL writer leaves when its process is killed
/// mid-`writeln`. Any earlier line, or a final line that *is*
/// newline-terminated, stays a hard error (those are corruption, not a
/// crash artifact).
pub fn is_truncated_tail(text: &str, line_index: usize) -> bool {
    !text.ends_with('\n') && line_index + 1 == text.lines().count()
}

/// Parses and schema-validates a whole trace file, returning the records
/// plus the number of truncated tail lines tolerated (0 or 1; see
/// [`is_truncated_tail`]). The error names the offending 1-based line.
pub fn parse_trace(text: &str) -> Result<(Vec<TraceRecord>, u64), String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let checked = serde_json::from_str(line)
            .map_err(|e| format!("not valid JSON ({e})"))
            .and_then(|value| schema::check_trace_record(&value).map(|()| value));
        match checked {
            Ok(value) => records.push(TraceRecord::from_value(&value)),
            Err(_) if is_truncated_tail(text, i) => {
                eprintln!(
                    "warning: trace line {} is a truncated tail (no trailing newline) — \
                     tolerated as a crash artifact",
                    i + 1
                );
                return Ok((records, 1));
            }
            Err(e) => return Err(format!("trace line {}: {e}: {line}", i + 1)),
        }
    }
    Ok((records, 0))
}

/// A reconstructed span with its tree links.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Owning thread.
    pub thread: u64,
    /// Start time (`ts − dur_ns`).
    pub start: u64,
    /// End time (the record's `ts`).
    pub end: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The span's field payload.
    pub fields: Value,
    /// Child node indices, in start order.
    pub children: Vec<usize>,
    /// Parent node index (`None` for thread roots).
    pub parent: Option<usize>,
}

/// The per-thread span forest of a trace.
#[derive(Debug, Default)]
pub struct SpanForest {
    /// Arena of spans.
    pub nodes: Vec<SpanNode>,
    /// Root node indices, grouped by thread then start time.
    pub roots: Vec<usize>,
}

impl SpanForest {
    /// Rebuilds the forest from parsed trace records (events are ignored).
    pub fn build(records: &[TraceRecord]) -> SpanForest {
        let mut nodes: Vec<SpanNode> = records
            .iter()
            .filter(|r| r.is_span)
            .map(|r| {
                let dur = r.dur_ns.unwrap_or(0);
                SpanNode {
                    name: r.name.clone(),
                    thread: r.thread,
                    start: r.ts.saturating_sub(dur),
                    end: r.ts,
                    dur_ns: dur,
                    fields: r.fields.clone(),
                    children: Vec::new(),
                    parent: None,
                }
            })
            .collect();
        // Per thread: by start ascending; on ties the longer span is the
        // ancestor (guards drop LIFO, so an enclosing span always spans its
        // children's interval).
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            (
                nodes[a].thread,
                nodes[a].start,
                std::cmp::Reverse(nodes[a].end),
            )
                .cmp(&(
                    nodes[b].thread,
                    nodes[b].start,
                    std::cmp::Reverse(nodes[b].end),
                ))
        });
        let mut roots = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut current_thread = None;
        for &idx in &order {
            if current_thread != Some(nodes[idx].thread) {
                stack.clear();
                current_thread = Some(nodes[idx].thread);
            }
            while let Some(&top) = stack.last() {
                if nodes[top].end <= nodes[idx].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            match stack.last() {
                Some(&parent) => {
                    nodes[idx].parent = Some(parent);
                    nodes[parent].children.push(idx);
                }
                None => roots.push(idx),
            }
            stack.push(idx);
        }
        SpanForest { nodes, roots }
    }

    /// Number of spans in the forest.
    pub fn span_count(&self) -> usize {
        self.nodes.len()
    }

    /// The `thread-N;root;…;name` stack of a node.
    pub fn stack(&self, idx: usize) -> String {
        let mut names = Vec::new();
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            names.push(self.nodes[i].name.as_str());
            cursor = self.nodes[i].parent;
        }
        names.push(""); // placeholder replaced by the thread prefix below
        let mut out = format!("thread-{}", self.nodes[idx].thread);
        for name in names.iter().rev().skip(1) {
            out.push(';');
            out.push_str(name);
        }
        out
    }

    /// Whether node `idx` or any ancestor carries one of `names`.
    pub fn under_any(&self, idx: usize, names: &[&str]) -> bool {
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            if names.contains(&self.nodes[i].name.as_str()) {
                return true;
            }
            cursor = self.nodes[i].parent;
        }
        false
    }

    /// Collapsed-stack lines (`stack self_time_ns`), aggregated over
    /// identical stacks and sorted — the input format of
    /// `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded(&self) -> Vec<String> {
        let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let child_ns: u64 = node.children.iter().map(|&c| self.nodes[c].dur_ns).sum();
            let self_ns = node.dur_ns.saturating_sub(child_ns);
            *by_stack.entry(self.stack(idx)).or_insert(0) += self_ns;
        }
        by_stack
            .into_iter()
            .map(|(stack, ns)| format!("{stack} {ns}"))
            .collect()
    }
}

/// One row of the wall-vs-device phase table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label (`jacobian`, `eval`, `prune`, `retry-backoff`, `other`).
    pub phase: String,
    /// Spans (or events, for event-only phases) attributed to the phase.
    pub records: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Device nanoseconds (from `device.batch` span deltas).
    pub device_ns: u64,
    /// Circuits run on-device within the phase.
    pub circuits: u64,
}

/// Per-parameter gradient-health summary row.
#[derive(Debug, Clone)]
pub struct ParamRow {
    /// Parameter index.
    pub param: u64,
    /// Evaluations observed.
    pub evals: u64,
    /// Final |g| EMA.
    pub ema: f64,
    /// Sign flips observed.
    pub flips: u64,
    /// Final flip rate (flips per transition).
    pub flip_rate: f64,
    /// Mean SNR over evaluations.
    pub mean_snr: f64,
    /// Per-step heat row: `#` flip, `.` evaluated, space = frozen.
    pub heat: String,
}

/// One completed pruning window, from a `prune.efficacy` event.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Window index.
    pub window: u64,
    /// Steps in the stage (accumulation + pruning).
    pub stage_steps: u64,
    /// Recall of the true top-|g| set by the sampled subset.
    pub recall: f64,
    /// Subset ∩ top-k overlap, summed over pruned steps.
    pub overlap: u64,
    /// Subset sizes summed over pruned steps.
    pub kept: u64,
    /// Circuit runs skipped by pruning.
    pub saved_runs: u64,
    /// Runs spent on parameters outside the top-k.
    pub wasted_runs: u64,
    /// Fraction of gradient evaluations skipped this stage.
    pub measured_savings: f64,
    /// The paper's `r·w_p/(w_a+w_p)`.
    pub expected_savings: f64,
}

/// Everything the analyzer extracted from one traced run.
#[derive(Debug)]
pub struct Analysis {
    /// Spans in the trace.
    pub spans: usize,
    /// Events in the trace.
    pub events: usize,
    /// Distinct emitting threads.
    pub threads: usize,
    /// Collapsed-stack lines.
    pub folded: Vec<String>,
    /// Wall-vs-device table rows.
    pub phases: Vec<PhaseRow>,
    /// Σ `device_ns` over `device.batch` spans.
    pub device_ns_spans: u64,
    /// `true` when every `device.batch` span carried a `device_ns` delta
    /// (older traces predate the field — exactness can't be checked there).
    pub device_deltas_complete: bool,
    /// The manifest's `ExecutionStats` device time, as integer ns.
    pub device_ns_manifest: Option<u64>,
    /// Per-parameter health rows (by parameter index).
    pub params: Vec<ParamRow>,
    /// Per-window pruning efficacy (the PGP recall curve).
    pub windows: Vec<WindowRow>,
    /// `train.step` events in the trace.
    pub steps: usize,
    /// `train.eval` events in the trace.
    pub eval_records: usize,
    /// Prefix-reuse ratio of the prefix-shared differentiation mode:
    /// Σ `gates_simulated` / Σ `naive_gates` over all `diff.prefix` spans.
    /// `None` when the trace has no prefix-shared Jacobians. Must be < 1 —
    /// otherwise prefix sharing simulated *more* gates than naive 2P replay.
    pub prefix_reuse_ratio: Option<f64>,
    /// Run savings measured from the `train.step` evaluated-parameter
    /// counts.
    pub measured_savings: Option<f64>,
    /// `r·w_p/(w_a+w_p)` from the manifest's pruning config.
    pub expected_savings: Option<f64>,
    /// Σ backoff-wait ns from the manifest's retry histogram.
    pub backoff_wait_ns: u64,
    /// Retry attempts recorded by the manifest.
    pub retries: u64,
    /// Best validation accuracy from the manifest.
    pub best_accuracy: Option<f64>,
    /// Truncated tail lines tolerated in the trace (0 or 1; see
    /// [`is_truncated_tail`]).
    pub truncated_tail_lines: u64,
    /// Σ duration of top-level `train.run` spans — the denominator for
    /// phase-share comparisons against the sampling profiler.
    pub run_wall_ns: u64,
}

/// Extracts `r·w_p/(w_a+w_p)` from a manifest `config.pruning` value
/// (`"None"`, or `{"Probabilistic": {…}}`).
fn expected_savings_of(manifest: &Value) -> Option<f64> {
    let pruning = manifest.get("config")?.get("pruning")?;
    let cfg = pruning.get("Probabilistic")?;
    let w_a = cfg.get("accumulation_window")?.as_f64()?;
    let w_p = cfg.get("pruning_window")?.as_f64()?;
    let r = cfg.get("ratio")?.as_f64()?;
    Some(r * w_p / (w_a + w_p))
}

/// Builds the wall-vs-device phase table from the forest plus the trace
/// events and manifest-level retry accounting.
fn phase_table(
    forest: &SpanForest,
    records: &[TraceRecord],
    backoff_wait_ns: u64,
    retries: u64,
) -> (Vec<PhaseRow>, u64, bool) {
    let mut rows: BTreeMap<String, PhaseRow> = BTreeMap::new();
    fn row<'a>(rows: &'a mut BTreeMap<String, PhaseRow>, phase: &str) -> &'a mut PhaseRow {
        rows.entry(phase.to_string()).or_insert_with(|| PhaseRow {
            phase: phase.to_string(),
            records: 0,
            wall_ns: 0,
            device_ns: 0,
            circuits: 0,
        })
    }
    let mut device_total = 0u64;
    let mut deltas_complete = true;
    for (idx, node) in forest.nodes.iter().enumerate() {
        match node.name.as_str() {
            // Wall time of a phase is the duration of its top-level spans;
            // `grad.minibatch` wholly contains `shift.jacobian` and the
            // batch dispatch, `eval.dataset` contains checkpoint batches.
            "grad.minibatch" => {
                let r = row(&mut rows, "jacobian");
                r.records += 1;
                r.wall_ns += node.dur_ns;
            }
            "eval.dataset" => {
                let r = row(&mut rows, "eval");
                r.records += 1;
                r.wall_ns += node.dur_ns;
            }
            // Per-differentiation-mode breakdown: every Jacobian evaluation
            // opens a `shift.jacobian` span carrying the resolved mode, so
            // the table can show how much wall time each mode accounted for.
            // Older traces predate the field and simply get no mode rows.
            "shift.jacobian" => {
                if let Some(mode) = node.fields.get("mode").and_then(Value::as_str) {
                    let r = row(&mut rows, &format!("jacobian/{mode}"));
                    r.records += 1;
                    r.wall_ns += node.dur_ns;
                }
            }
            "device.batch" => {
                let device_ns = node.fields.get("device_ns").and_then(Value::as_u64);
                let circuits = node
                    .fields
                    .get("circuits")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                deltas_complete &= device_ns.is_some();
                let device_ns = device_ns.unwrap_or(0);
                device_total += device_ns;
                let phase = if forest.under_any(idx, &["grad.minibatch", "shift.jacobian"]) {
                    "jacobian"
                } else if forest.under_any(idx, &["eval.dataset"]) {
                    "eval"
                } else {
                    "other"
                };
                let r = row(&mut rows, phase);
                r.device_ns += device_ns;
                r.circuits += circuits;
                if phase == "other" {
                    r.records += 1;
                    r.wall_ns += node.dur_ns;
                }
            }
            _ => {}
        }
    }
    // Pruning decisions are events, not spans: report their count.
    let prune_events = records
        .iter()
        .filter(|r| !r.is_span && r.name.starts_with("prune."))
        .count() as u64;
    if prune_events > 0 {
        row(&mut rows, "prune").records = prune_events;
    }
    if backoff_wait_ns > 0 || retries > 0 {
        let r = row(&mut rows, "retry-backoff");
        r.records = retries;
        r.wall_ns = backoff_wait_ns;
    }
    let order = ["jacobian", "eval", "prune", "retry-backoff", "other"];
    let mut table: Vec<PhaseRow> = Vec::new();
    if let Some(p) = rows.get("jacobian") {
        table.push(p.clone());
    }
    // Mode rows directly under the aggregate jacobian row (BTreeMap keeps
    // them in stable lexicographic order).
    table.extend(
        rows.iter()
            .filter(|(k, _)| k.starts_with("jacobian/"))
            .map(|(_, p)| p.clone()),
    );
    table.extend(order.iter().skip(1).filter_map(|p| rows.get(*p).cloned()));
    (table, device_total, deltas_complete)
}

/// Builds the per-parameter health rows and the window efficacy curve from
/// the trace's structured events.
fn health_report(records: &[TraceRecord]) -> (Vec<ParamRow>, Vec<WindowRow>) {
    let health: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| !r.is_span && r.name == "grad.health")
        .collect();
    let max_step = health
        .iter()
        .filter_map(|r| r.field_u64("step"))
        .max()
        .map_or(0, |s| s + 1) as usize;
    let mut by_param: BTreeMap<u64, (ParamRow, Vec<u8>)> = BTreeMap::new();
    for rec in &health {
        let (Some(step), Some(param)) = (rec.field_u64("step"), rec.field_u64("param")) else {
            continue;
        };
        let (row, heat) = by_param.entry(param).or_insert_with(|| {
            (
                ParamRow {
                    param,
                    evals: 0,
                    ema: 0.0,
                    flips: 0,
                    flip_rate: 0.0,
                    mean_snr: 0.0,
                    heat: String::new(),
                },
                vec![b' '; max_step],
            )
        });
        let flip = rec.fields.get("flip").and_then(Value::as_bool) == Some(true);
        if let Some(slot) = heat.get_mut(step as usize) {
            *slot = if flip { b'#' } else { b'.' };
        }
        row.evals = rec.field_u64("evals").unwrap_or(row.evals + 1);
        row.ema = rec.field_f64("ema").unwrap_or(row.ema);
        row.flip_rate = rec.field_f64("flip_rate").unwrap_or(row.flip_rate);
        if flip {
            row.flips += 1;
        }
        // Running mean over however many events this parameter produced.
        row.mean_snr += rec.field_f64("snr").unwrap_or(0.0);
    }
    let params = by_param
        .into_values()
        .map(|(mut row, heat)| {
            if row.evals > 0 {
                row.mean_snr /= row.evals as f64;
            }
            row.heat = String::from_utf8(heat).expect("ascii heat row");
            row
        })
        .collect();

    let windows = records
        .iter()
        .filter(|r| !r.is_span && r.name == "prune.efficacy")
        .map(|r| WindowRow {
            window: r.field_u64("window").unwrap_or(0),
            stage_steps: r.field_u64("stage_steps").unwrap_or(0),
            recall: r.field_f64("recall").unwrap_or(0.0),
            overlap: r.field_u64("overlap").unwrap_or(0),
            kept: r.field_u64("kept").unwrap_or(0),
            saved_runs: r.field_u64("saved_runs").unwrap_or(0),
            wasted_runs: r.field_u64("wasted_runs").unwrap_or(0),
            measured_savings: r.field_f64("measured_savings").unwrap_or(0.0),
            expected_savings: r.field_f64("expected_savings").unwrap_or(0.0),
        })
        .collect();
    (params, windows)
}

/// Parses a run manifest (`<stem>.manifest.json`).
pub fn parse_manifest(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("manifest is not valid JSON: {e}"))
}

/// The manifest's `ExecutionStats` device time as integer nanoseconds —
/// the same rounding as `ExecutionStats::device_nanos`, which recovers the
/// backend's integer counter exactly.
fn manifest_device_ns(manifest: &Value) -> Option<u64> {
    manifest
        .get("execution_stats")?
        .get("estimated_device_seconds")?
        .as_f64()
        .map(|secs| (secs * 1e9).round() as u64)
}

/// Runs the full offline analysis. The manifest is optional — a black-box
/// dump has none — but without it the device-time and savings gates
/// become inert.
pub fn analyze_run(trace_text: &str, manifest: Option<&Value>) -> Result<Analysis, String> {
    let (records, truncated_tail_lines) = parse_trace(trace_text)?;

    let forest = SpanForest::build(&records);
    let events = records.iter().filter(|r| !r.is_span).count();
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let histogram_sum = |m: &Value, name: &str| {
        m.get("metrics")
            .and_then(|v| v.get("histograms"))
            .and_then(|v| v.get(name))
            .and_then(|v| v.get("sum"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let counter = |m: &Value, name: &str| {
        m.get("metrics")
            .and_then(|v| v.get("counters"))
            .and_then(|v| v.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let backoff_wait_ns = manifest.map_or(0, |m| histogram_sum(m, "qoc.device.backoff_wait_ns"));
    let retries = manifest.map_or(0, |m| counter(m, "qoc.device.retries"));
    let device_ns_manifest = manifest.and_then(manifest_device_ns);
    let best_accuracy = manifest.and_then(|m| m.get("best_accuracy").and_then(Value::as_f64));
    let expected_savings = manifest.and_then(expected_savings_of);

    let (phases, device_ns_spans, device_deltas_complete) =
        phase_table(&forest, &records, backoff_wait_ns, retries);
    let (params, windows) = health_report(&records);
    let run_wall_ns = forest
        .nodes
        .iter()
        .filter(|n| n.name == "train.run")
        .map(|n| n.dur_ns)
        .sum();

    // Prefix-reuse ratio: gates actually simulated by prefix sharing over
    // the gates a naive 2P shifted replay of the same forks would cost.
    let (mut gates_simulated, mut naive_gates) = (0u64, 0u64);
    for rec in records
        .iter()
        .filter(|r| r.is_span && r.name == "diff.prefix")
    {
        gates_simulated += rec.field_u64("gates_simulated").unwrap_or(0);
        naive_gates += rec.field_u64("naive_gates").unwrap_or(0);
    }
    let prefix_reuse_ratio = (naive_gates > 0).then(|| gates_simulated as f64 / naive_gates as f64);

    // Run savings measured from the step records: the full parameter width
    // is the widest step (PGP always opens a stage with a full step).
    let event_named =
        |name: &'static str| records.iter().filter(move |r| !r.is_span && r.name == name);
    let evaluated: Vec<u64> = event_named("train.step")
        .filter_map(|r| r.field_u64("evaluated_params"))
        .collect();
    let measured_savings = match (evaluated.iter().max(), evaluated.len()) {
        (Some(&n_full), count) if n_full > 0 && count > 0 => {
            let total: u64 = evaluated.iter().sum();
            Some(1.0 - total as f64 / (n_full * count as u64) as f64)
        }
        _ => None,
    };

    Ok(Analysis {
        spans: forest.span_count(),
        events,
        threads: threads.len(),
        folded: forest.folded(),
        phases,
        device_ns_spans,
        device_deltas_complete,
        device_ns_manifest,
        params,
        windows,
        steps: evaluated.len(),
        eval_records: event_named("train.eval").count(),
        prefix_reuse_ratio,
        measured_savings,
        expected_savings,
        backoff_wait_ns,
        retries,
        best_accuracy,
        truncated_tail_lines,
        run_wall_ns,
    })
}

impl Analysis {
    /// Reconciles a sampling-profiler folded file (`.profile.folded`,
    /// `frame;frame;… count` lines) against this trace-derived analysis.
    ///
    /// Both sides measure the Jacobian phase's share of training wall time
    /// independently — the profiler by counting samples whose stack passes
    /// through a Jacobian frame among all `train.run`-rooted samples (only
    /// the training thread's stacks root there, so worker threads don't
    /// skew the denominator), the trace by the `jacobian` phase row over
    /// the `train.run` span duration. Agreement within `tolerance`
    /// (relative) is the cross-check that the seqlock sampler is neither
    /// dropping stacks nor attributing time to the wrong spans.
    ///
    /// Returns a one-line summary on success and a diagnostic on failure.
    pub fn reconcile_profile(&self, folded_text: &str, tolerance: f64) -> Result<String, String> {
        let (mut total, mut run_samples, mut jac_samples) = (0u64, 0u64, 0u64);
        for (i, line) in folded_text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("profile line {}: no sample count: {line}", i + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|e| format!("profile line {}: bad sample count ({e})", i + 1))?;
            total += count;
            let mut frames = stack.split(';');
            if frames.clone().any(|f| f == "train.run") {
                run_samples += count;
                if frames.any(|f| f == "grad.minibatch" || f == "shift.jacobian") {
                    jac_samples += count;
                }
            }
        }
        if total == 0 {
            return Err(
                "profile is empty (zero samples — did QOC_PROFILE_HZ reach the run?)".to_string(),
            );
        }
        if run_samples == 0 {
            return Err(format!(
                "profile has {total} samples but none rooted in train.run — \
                 profiler and trace watched different processes?"
            ));
        }
        if self.run_wall_ns == 0 {
            return Err("trace has no train.run span to reconcile against".to_string());
        }
        let jac_wall = self
            .phases
            .iter()
            .find(|p| p.phase == "jacobian")
            .map_or(0, |p| p.wall_ns);
        let trace_share = jac_wall as f64 / self.run_wall_ns as f64;
        let profile_share = jac_samples as f64 / run_samples as f64;
        if trace_share <= 0.0 {
            return Err("trace attributes zero wall time to the jacobian phase".to_string());
        }
        let relative = (profile_share - trace_share).abs() / trace_share;
        let summary = format!(
            "profile reconciliation: jacobian share {:.1}% profiled ({jac_samples}/{run_samples} \
             samples) vs {:.1}% traced — {:.1}% apart (tolerance {:.0}%)",
            profile_share * 100.0,
            trace_share * 100.0,
            relative * 100.0,
            tolerance * 100.0,
        );
        if relative > tolerance {
            Err(summary)
        } else {
            Ok(summary)
        }
    }

    /// The CI gates: each failed invariant yields one message. An empty
    /// vector means the run looks healthy.
    pub fn sanity_failures(&self, savings_tolerance: f64) -> Vec<String> {
        let mut failures = Vec::new();
        if self.spans == 0 {
            failures.push("trace contains no spans".to_string());
        }
        if self.device_deltas_complete {
            if let Some(manifest_ns) = self.device_ns_manifest {
                if manifest_ns != self.device_ns_spans {
                    failures.push(format!(
                        "device-time mismatch: Σ device.batch deltas = {} ns, \
                         manifest ExecutionStats = {} ns",
                        self.device_ns_spans, manifest_ns
                    ));
                }
            }
        }
        if let Some(ratio) = self.prefix_reuse_ratio {
            if ratio >= 1.0 {
                failures.push(format!(
                    "prefix-reuse ratio {ratio:.4} is not < 1: prefix sharing simulated at \
                     least as many gates as a naive 2P replay"
                ));
            }
        }
        if let Some(expected) = self.expected_savings {
            if expected > 0.0 {
                if self.windows.is_empty() {
                    failures.push(
                        "pruning is configured but the trace has no prune.efficacy events"
                            .to_string(),
                    );
                }
                if let Some(measured) = self.measured_savings {
                    if (measured - expected).abs() > savings_tolerance {
                        failures.push(format!(
                            "run savings {measured:.4} deviates from r·w_p/(w_a+w_p) = \
                             {expected:.4} by more than {savings_tolerance}"
                        ));
                    }
                }
            }
        }
        failures
    }

    /// Renders the Markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# qoc-analyze report\n\n");
        out.push_str(&format!(
            "- spans: **{}**, events: **{}**, threads: **{}**\n",
            self.spans, self.events, self.threads
        ));
        out.push_str(&format!(
            "- training steps: **{}**, eval records: **{}**\n",
            self.steps, self.eval_records
        ));
        if let Some(acc) = self.best_accuracy {
            out.push_str(&format!("- best accuracy: **{acc:.4}**\n"));
        }
        if let Some(r) = self.prefix_reuse_ratio {
            out.push_str(&format!(
                "- prefix reuse ratio: **{r:.4}** (gates simulated / naive 2P gates)\n"
            ));
        }
        match (self.measured_savings, self.expected_savings) {
            (Some(m), Some(e)) => out.push_str(&format!(
                "- run savings: measured **{m:.4}** vs expected r·w_p/(w_a+w_p) = **{e:.4}**\n"
            )),
            (Some(m), None) => out.push_str(&format!("- run savings: measured **{m:.4}**\n")),
            _ => {}
        }
        out.push_str(&format!(
            "- device time: Σ batch deltas **{} ns**{}\n",
            self.device_ns_spans,
            match self.device_ns_manifest {
                Some(m) => format!(
                    ", manifest **{m} ns** ({})",
                    if !self.device_deltas_complete {
                        "incomplete deltas — not reconciled"
                    } else if m == self.device_ns_spans {
                        "exact match"
                    } else {
                        "MISMATCH"
                    }
                ),
                None => String::new(),
            }
        ));
        if self.truncated_tail_lines > 0 {
            out.push_str(&format!(
                "- truncated tail lines tolerated: **{}** (killed writer left a partial \
                 final record)\n",
                self.truncated_tail_lines
            ));
        }

        out.push_str("\n## Phase times (wall vs device)\n\n");
        out.push_str("| phase | records | wall (ms) | device (ms) | circuits |\n");
        out.push_str("|---|---:|---:|---:|---:|\n");
        for p in &self.phases {
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} | {} |\n",
                p.phase,
                p.records,
                p.wall_ns as f64 / 1e6,
                p.device_ns as f64 / 1e6,
                p.circuits
            ));
        }

        if !self.params.is_empty() {
            out.push_str("\n## Gradient health (per parameter)\n\n");
            out.push_str("| param | evals | |g| EMA | flips | flip rate | mean SNR |\n");
            out.push_str("|---:|---:|---:|---:|---:|---:|\n");
            for p in &self.params {
                out.push_str(&format!(
                    "| {} | {} | {:.3e} | {} | {:.2} | {:.3e} |\n",
                    p.param, p.evals, p.ema, p.flips, p.flip_rate, p.mean_snr
                ));
            }
            out.push_str(
                "\nSign-flip heat (`#` flip, `.` evaluated, space = frozen), one row per \
                 parameter:\n\n```\n",
            );
            for p in &self.params {
                out.push_str(&format!("p{:<3} |{}|\n", p.param, p.heat));
            }
            out.push_str("```\n");
        }

        if !self.windows.is_empty() {
            out.push_str("\n## PGP efficacy per window\n\n");
            out.push_str(
                "| window | steps | recall | overlap/kept | saved runs | wasted runs | \
                 measured | expected |\n",
            );
            out.push_str("|---:|---:|---:|---:|---:|---:|---:|---:|\n");
            for w in &self.windows {
                out.push_str(&format!(
                    "| {} | {} | {:.3} | {}/{} | {} | {} | {:.4} | {:.4} |\n",
                    w.window,
                    w.stage_steps,
                    w.recall,
                    w.overlap,
                    w.kept,
                    w.saved_runs,
                    w.wasted_runs,
                    w.measured_savings,
                    w.expected_savings
                ));
            }
        }
        out
    }

    /// Renders the machine-readable JSON report.
    pub fn to_json(&self) -> Value {
        fn obj(entries: Vec<(&str, Value)>) -> Value {
            Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        let opt_f64 = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
        let opt_u64 = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
        obj(vec![
            ("spans", Value::UInt(self.spans as u64)),
            ("events", Value::UInt(self.events as u64)),
            ("threads", Value::UInt(self.threads as u64)),
            ("steps", Value::UInt(self.steps as u64)),
            ("eval_records", Value::UInt(self.eval_records as u64)),
            ("best_accuracy", opt_f64(self.best_accuracy)),
            ("prefix_reuse_ratio", opt_f64(self.prefix_reuse_ratio)),
            ("measured_savings", opt_f64(self.measured_savings)),
            ("expected_savings", opt_f64(self.expected_savings)),
            ("device_ns_spans", Value::UInt(self.device_ns_spans)),
            ("device_ns_manifest", opt_u64(self.device_ns_manifest)),
            (
                "device_deltas_complete",
                Value::Bool(self.device_deltas_complete),
            ),
            ("backoff_wait_ns", Value::UInt(self.backoff_wait_ns)),
            ("retries", Value::UInt(self.retries)),
            (
                "truncated_tail_lines",
                Value::UInt(self.truncated_tail_lines),
            ),
            (
                "phases",
                Value::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("phase", Value::Str(p.phase.clone())),
                                ("records", Value::UInt(p.records)),
                                ("wall_ns", Value::UInt(p.wall_ns)),
                                ("device_ns", Value::UInt(p.device_ns)),
                                ("circuits", Value::UInt(p.circuits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "params",
                Value::Array(
                    self.params
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("param", Value::UInt(p.param)),
                                ("evals", Value::UInt(p.evals)),
                                ("ema", Value::Float(p.ema)),
                                ("flips", Value::UInt(p.flips)),
                                ("flip_rate", Value::Float(p.flip_rate)),
                                ("mean_snr", Value::Float(p.mean_snr)),
                                ("heat", Value::Str(p.heat.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "windows",
                Value::Array(
                    self.windows
                        .iter()
                        .map(|w| {
                            obj(vec![
                                ("window", Value::UInt(w.window)),
                                ("stage_steps", Value::UInt(w.stage_steps)),
                                ("recall", Value::Float(w.recall)),
                                ("overlap", Value::UInt(w.overlap)),
                                ("kept", Value::UInt(w.kept)),
                                ("saved_runs", Value::UInt(w.saved_runs)),
                                ("wasted_runs", Value::UInt(w.wasted_runs)),
                                ("measured_savings", Value::Float(w.measured_savings)),
                                ("expected_savings", Value::Float(w.expected_savings)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Checks the manifest's circuit-run accounting: `execution_stats.circuits_run`
/// and the `qoc.train.circuit_runs` / `qoc.device.circuits_run` counters
/// must all be present and nonzero. Returns a one-line summary.
pub fn check_manifest(manifest: &Value) -> Result<String, String> {
    let stats_runs = manifest
        .get("execution_stats")
        .and_then(|s| s.get("circuits_run"))
        .and_then(Value::as_u64)
        .ok_or("manifest missing execution_stats.circuits_run")?;
    if stats_runs == 0 {
        return Err("manifest reports zero circuits run".to_string());
    }
    let counters = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .ok_or("manifest missing metrics.counters")?;
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest missing counter {name}"))
    };
    for name in ["qoc.train.circuit_runs", "qoc.device.circuits_run"] {
        if counter(name)? == 0 {
            return Err(format!("manifest counter {name} is zero"));
        }
    }
    Ok(format!(
        "manifest ok: {stats_runs} circuits run, {} steps",
        counter("qoc.train.steps").unwrap_or(0)
    ))
}

/// What the alert log of a status-exported run must show (`--alerts`).
#[derive(Debug, Clone, PartialEq)]
pub enum AlertExpectation {
    /// The clean-run gate: zero firings.
    None,
    /// The fault-run gate: each substring must match ≥ 1 fired rule.
    Expect(Vec<String>),
}

impl AlertExpectation {
    /// Parses `none` or `expect=SUBSTR[,SUBSTR...]`.
    pub fn parse(spec: &str) -> Result<AlertExpectation, String> {
        match spec {
            "none" => Ok(AlertExpectation::None),
            s => match s.strip_prefix("expect=") {
                Some(list) if !list.is_empty() => Ok(AlertExpectation::Expect(
                    list.split(',').map(str::to_string).collect(),
                )),
                _ => Err(format!(
                    "--alerts: unknown mode {spec:?} (none | expect=SUBSTR[,SUBSTR...])"
                )),
            },
        }
    }
}

/// Integer device counter from a status doc's `device` section.
fn device_counter(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get("device")
        .and_then(|d| d.get(key))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("status doc missing device.{key}"))
}

/// Validates the `<stem>.history.jsonl` series: at least 3 schema-valid
/// snapshots, `step` and the cumulative device counters monotone
/// non-decreasing, the `snapshot` counter strictly increasing, and one
/// `run_id` throughout. Returns the final snapshot and the line count.
fn check_history(text: &str) -> Result<(Value, u64), String> {
    let mut last: Option<Value> = None;
    let mut lines = 0u64;
    let mut prev_step = 0u64;
    let mut prev_snapshot = 0u64;
    let mut prev_device = [0u64; 3];
    let mut run_id: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("history line {}: {e}", i + 1);
        let doc: Value =
            serde_json::from_str(line).map_err(|e| at(format!("not valid JSON ({e})")))?;
        schema::check_status_doc(&doc).map_err(at)?;
        lines += 1;
        let step = doc.get("step").and_then(Value::as_u64).unwrap_or(0);
        if step < prev_step {
            return Err(at(format!(
                "step went backwards ({step} after {prev_step})"
            )));
        }
        prev_step = step;
        let snapshot = doc.get("snapshot").and_then(Value::as_u64).unwrap_or(0);
        if snapshot <= prev_snapshot {
            return Err(at(format!(
                "snapshot counter not strictly increasing ({snapshot} after {prev_snapshot})"
            )));
        }
        prev_snapshot = snapshot;
        for (slot, key) in prev_device
            .iter_mut()
            .zip(["circuits_run", "total_shots", "device_ns"])
        {
            let v = device_counter(&doc, key).map_err(at)?;
            if v < *slot {
                return Err(at(format!(
                    "device.{key} went backwards ({v} after {slot})"
                )));
            }
            *slot = v;
        }
        let id = doc
            .get("run_id")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        match &run_id {
            None => run_id = Some(id),
            Some(prev) if *prev != id => {
                return Err(at(format!("run_id changed mid-series ({prev} → {id})")))
            }
            Some(_) => {}
        }
        last = Some(doc);
    }
    if lines < 3 {
        return Err(format!(
            "history has only {lines} snapshots (need ≥ 3 — did the run export per step?)"
        ));
    }
    Ok((last.expect("lines ≥ 3"), lines))
}

/// Reconciles a snapshot against the run manifest — exact integer
/// equality of the device counters (device time to the nanosecond) and the
/// same `run_id`.
fn reconcile_snapshot(doc: &Value, manifest: &Value) -> Result<(), String> {
    let stat = |key: &str| {
        manifest
            .get("execution_stats")
            .and_then(|s| s.get(key))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest missing execution_stats.{key}"))
    };
    let device_ns = manifest_device_ns(manifest)
        .ok_or("manifest missing execution_stats.estimated_device_seconds")?;
    for (key, manifest_value) in [
        ("circuits_run", stat("circuits_run")?),
        ("total_shots", stat("total_shots")?),
        ("device_ns", device_ns),
    ] {
        let snapshot_value = device_counter(doc, key)?;
        if snapshot_value != manifest_value {
            return Err(format!(
                "snapshot device.{key} = {snapshot_value} but manifest says \
                 {manifest_value} (must reconcile exactly)"
            ));
        }
    }
    let doc_run_id = doc.get("run_id").and_then(Value::as_str);
    let manifest_run_id = manifest.get("run_id").and_then(Value::as_str);
    if doc_run_id != manifest_run_id {
        return Err(format!(
            "run_id mismatch: snapshot {doc_run_id:?} vs manifest {manifest_run_id:?}"
        ));
    }
    Ok(())
}

/// Validates an alert log (`<stem>.alerts.jsonl`): schema per line, every
/// `fired` entry paired with a later `resolved` or `terminal` entry for
/// the same (rule, metric), and the firing set matching `expectation`.
/// An absent log is the empty text. Returns a one-line summary.
fn check_alerts(text: &str, expectation: &AlertExpectation) -> Result<String, String> {
    // (rule, metric) → outstanding firing count. Re-fires after a resolve
    // are legal, so this is a counter, not a set.
    let mut open: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut fired_rules: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let doc: Value = serde_json::from_str(line)
            .map_err(|e| format!("alerts line {}: not valid JSON ({e})", i + 1))?;
        schema::check_alert_line(&doc).map_err(|e| format!("alerts line {}: {e}", i + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let key = (field("rule"), field("metric"));
        match field("kind").as_str() {
            "fired" => {
                fired_rules.push(key.0.clone());
                *open.entry(key).or_insert(0) += 1;
            }
            kind => {
                let outstanding = open.entry(key.clone()).or_insert(0);
                if *outstanding == 0 {
                    return Err(format!(
                        "alerts line {}: {kind:?} for {} [{}] without a prior firing",
                        i + 1,
                        key.1,
                        key.0
                    ));
                }
                *outstanding -= 1;
            }
        }
    }
    if let Some(((rule, metric), n)) = open.iter().find(|(_, n)| **n > 0) {
        return Err(format!(
            "{n} firing(s) of {metric} [{rule}] never resolved or flushed terminal — \
             every firing must be paired with an outcome"
        ));
    }
    match expectation {
        AlertExpectation::None if !fired_rules.is_empty() => Err(format!(
            "expected a clean run but {} alert(s) fired: {}",
            fired_rules.len(),
            fired_rules.join("; ")
        )),
        AlertExpectation::None => Ok("alerts ok: clean run, zero firings".to_string()),
        AlertExpectation::Expect(substrings) => {
            if let Some(want) = substrings
                .iter()
                .find(|want| !fired_rules.iter().any(|r| r.contains(want.as_str())))
            {
                return Err(format!(
                    "expected a firing matching {want:?} but fired rules were: [{}]",
                    fired_rules.join("; ")
                ));
            }
            Ok(format!(
                "alerts ok: {} firing(s), all paired, expectations {substrings:?} met",
                fired_rules.len()
            ))
        }
    }
}

/// Gates the live status artifacts of a finished run: the status document
/// parses, passes the schema and is `"finished"`; the history passes
/// `check_history`; both the document and the history's last line
/// reconcile exactly with the manifest (the terminal snapshot is written
/// to both, so a divergence means a stray heartbeat won a race); and, when
/// `alerts` is given, the log passes `check_alerts`. Returns one summary
/// line per artifact.
pub fn check_status_run(
    status_text: &str,
    history_text: &str,
    manifest: &Value,
    alerts: Option<(&str, &AlertExpectation)>,
) -> Result<Vec<String>, String> {
    let status: Value = serde_json::from_str(status_text)
        .map_err(|e| format!("status file is not valid JSON: {e}"))?;
    schema::check_status_doc(&status).map_err(|e| format!("status file: {e}"))?;
    match status.get("state").and_then(Value::as_str) {
        Some("finished") => {}
        other => {
            return Err(format!(
                "status file state is {other:?}, expected \"finished\" — the run did not \
                 publish its terminal snapshot"
            ))
        }
    }
    let (final_doc, lines) = check_history(history_text)?;
    reconcile_snapshot(&status, manifest).map_err(|e| format!("status file: {e}"))?;
    reconcile_snapshot(&final_doc, manifest).map_err(|e| format!("final history line: {e}"))?;
    let mut summary = vec![
        "status file ok: terminal state \"finished\"".to_string(),
        format!("history ok: {lines} snapshots, monotone counters"),
        format!(
            "manifest reconciled: {} circuits, {} shots, {} device-ns, run_id {}",
            device_counter(&status, "circuits_run")?,
            device_counter(&status, "total_shots")?,
            device_counter(&status, "device_ns")?,
            status.get("run_id").and_then(Value::as_str).unwrap_or("?")
        ),
    ];
    if let Some((text, expectation)) = alerts {
        summary.push(check_alerts(text, expectation)?);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(ts: u64, name: &str, thread: u64, dur: u64) -> String {
        format!(
            r#"{{"ts":{ts},"kind":"span","level":"debug","span":"{name}","thread":{thread},"dur_ns":{dur},"fields":{{}}}}"#
        )
    }

    #[test]
    fn forest_nests_spans_by_interval() {
        // outer [0, 100], inner [10, 40], sibling [50, 90] on thread 0;
        // an unrelated root [0, 30] on thread 1.
        let trace = [
            span_line(40, "inner", 0, 30),
            span_line(90, "sibling", 0, 40),
            span_line(100, "outer", 0, 100),
            span_line(30, "t1root", 1, 30),
        ]
        .join("\n");
        let (records, truncated) = parse_trace(&trace).unwrap();
        assert_eq!(truncated, 0);
        let forest = SpanForest::build(&records);
        assert_eq!(forest.span_count(), 4);
        assert_eq!(forest.roots.len(), 2);
        let outer = forest.nodes.iter().position(|n| n.name == "outer").unwrap();
        assert_eq!(forest.nodes[outer].children.len(), 2);
        let folded = forest.folded();
        assert!(folded.contains(&"thread-0;outer;inner 30".to_string()));
        assert!(folded.contains(&"thread-0;outer;sibling 40".to_string()));
        // Outer's self time excludes both children.
        assert!(folded.contains(&"thread-0;outer 30".to_string()));
        assert!(folded.contains(&"thread-1;t1root 30".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_lines_with_line_numbers() {
        // Newline-terminated, so the bad final line is corruption, not a
        // truncated tail.
        let trace = [span_line(10, "ok", 0, 5), "{\"nope\":1}".to_string()].join("\n") + "\n";
        let err = parse_trace(&trace).unwrap_err();
        assert!(err.starts_with("trace line 2:"), "got: {err}");
    }

    #[test]
    fn truncated_tail_without_newline_is_tolerated() {
        // A killed writer leaves a partial final record with no trailing
        // newline: the good prefix parses, the tail is counted, not fatal.
        let trace = [
            span_line(10, "ok", 0, 5),
            r#"{"ts":20,"kind":"span","le"#.to_string(),
        ]
        .join("\n");
        let (records, truncated) = parse_trace(&trace).unwrap();
        assert_eq!((records.len(), truncated), (1, 1));
        // A truncated tail anywhere *but* the end stays fatal.
        let corrupt = [
            r#"{"ts":20,"kind":"span","le"#.to_string(),
            span_line(10, "ok", 0, 5),
        ]
        .join("\n");
        assert!(parse_trace(&corrupt).is_err());
        // The tolerated count surfaces in the report.
        let analysis = analyze_run(&trace, None).unwrap();
        assert_eq!(analysis.truncated_tail_lines, 1);
        assert!(analysis
            .to_markdown()
            .contains("truncated tail lines tolerated: **1**"));
    }

    #[test]
    fn mode_rows_and_prefix_reuse_ratio_come_from_diff_spans() {
        // One adjoint and one prefix-shared Jacobian, each inside its own
        // minibatch; the prefix span reports 312 of 768 naive gates.
        let trace = [
            r#"{"ts":90,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":80,"fields":{"rows":8,"jobs":0,"mode":"adjoint"}}"#.to_string(),
            span_line(100, "grad.minibatch", 0, 100),
            r#"{"ts":250,"kind":"span","level":"debug","span":"diff.prefix","thread":0,"dur_ns":40,"fields":{"rows":8,"forks":16,"naive_gates":768,"gates_simulated":312}}"#.to_string(),
            r#"{"ts":290,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":85,"fields":{"rows":8,"jobs":0,"mode":"prefix-shared"}}"#.to_string(),
            span_line(300, "grad.minibatch", 0, 100),
        ]
        .join("\n");
        let analysis = analyze_run(&trace, None).unwrap();
        let ratio = analysis.prefix_reuse_ratio.unwrap();
        assert!((ratio - 312.0 / 768.0).abs() < 1e-12);
        let labels: Vec<&str> = analysis.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(
            labels,
            vec!["jacobian", "jacobian/adjoint", "jacobian/prefix-shared"]
        );
        let adjoint = &analysis.phases[1];
        assert_eq!((adjoint.records, adjoint.wall_ns), (1, 80));
        assert!(analysis.sanity_failures(0.05).is_empty());
        let md = analysis.to_markdown();
        assert!(md.contains("prefix reuse ratio"), "missing ratio: {md}");
        assert!(md.contains("jacobian/adjoint"), "missing mode row: {md}");
    }

    #[test]
    fn prefix_reuse_ratio_of_one_or_more_fails_sanity() {
        let trace = r#"{"ts":250,"kind":"span","level":"debug","span":"diff.prefix","thread":0,"dur_ns":40,"fields":{"rows":8,"forks":16,"naive_gates":768,"gates_simulated":768}}"#.to_string();
        let analysis = analyze_run(&trace, None).unwrap();
        assert_eq!(analysis.prefix_reuse_ratio, Some(1.0));
        let failures = analysis.sanity_failures(0.05);
        assert!(
            failures.iter().any(|f| f.contains("prefix-reuse ratio")),
            "failures: {failures:?}"
        );
    }

    #[test]
    fn traces_without_diff_spans_have_no_ratio_or_mode_rows() {
        let trace = span_line(100, "grad.minibatch", 0, 100);
        let analysis = analyze_run(&trace, None).unwrap();
        assert_eq!(analysis.prefix_reuse_ratio, None);
        assert!(analysis.phases.iter().all(|p| !p.phase.contains('/')));
        assert!(analysis.sanity_failures(0.05).is_empty());
    }

    #[test]
    fn profile_reconciliation_accepts_agreement_and_rejects_divergence() {
        // train.run spans 1000 ns, 600 of them inside grad.minibatch →
        // trace jacobian share 60%.
        let trace = [
            span_line(700, "grad.minibatch", 0, 600),
            span_line(1000, "train.run", 0, 1000),
        ]
        .join("\n");
        let analysis = analyze_run(&trace, None).unwrap();
        assert_eq!(analysis.run_wall_ns, 1000);

        // 58/100 run-rooted samples on jacobian stacks (3.3% off — within
        // 15%); a worker-thread stack outside train.run is ignored.
        let agree = "train.run;grad.minibatch;shift.jacobian 58\n\
                     train.run 42\n\
                     device.worker;device.batch 500\n";
        let summary = analysis.reconcile_profile(agree, 0.15).unwrap();
        assert!(summary.contains("58.0% profiled"), "{summary}");
        assert!(summary.contains("60.0% traced"), "{summary}");

        // 20/100 on jacobian stacks → 67% apart: rejected.
        let diverge = "train.run;grad.minibatch 20\ntrain.run 80\n";
        let err = analysis.reconcile_profile(diverge, 0.15).unwrap_err();
        assert!(err.contains("apart"), "{err}");

        // Degenerate profiles are diagnosed, not divided by zero.
        assert!(analysis.reconcile_profile("", 0.15).is_err());
        assert!(analysis
            .reconcile_profile("device.worker 10\n", 0.15)
            .unwrap_err()
            .contains("none rooted in train.run"));
        assert!(analysis
            .reconcile_profile("train.run nonsense\n", 0.15)
            .is_err());
    }

    #[test]
    fn expected_savings_reads_the_paper_config() {
        let manifest = serde_json::from_str(
            r#"{"config":{"pruning":{"Probabilistic":{"accumulation_window":1,"pruning_window":2,"ratio":0.5}}}}"#,
        )
        .unwrap();
        let s = expected_savings_of(&manifest).unwrap();
        assert!((s - 1.0 / 3.0).abs() < 1e-12);
        let none = serde_json::from_str(r#"{"config":{"pruning":"None"}}"#).unwrap();
        assert_eq!(expected_savings_of(&none), None);
    }

    fn step_event(step: u64, evaluated: u64) -> String {
        format!(
            r#"{{"ts":{step},"kind":"event","level":"info","span":"train.step","thread":0,"fields":{{"step":{step},"loss":0.5,"lr":0.2,"evaluated_params":{evaluated},"inferences":100,"runs_delta":10,"grad_norm":0.1}}}}"#
        )
    }

    #[test]
    fn step_and_eval_records_come_from_trace_events() {
        // [8,4,4] evaluated params over one PGP stage: savings 1 − 16/24.
        let trace = [
            step_event(0, 8),
            step_event(1, 4),
            step_event(2, 4),
            r#"{"ts":9,"kind":"event","level":"info","span":"train.eval","thread":0,"fields":{"step":2,"inferences":300,"accuracy":0.75}}"#.to_string(),
            // A train.step *span* is timing, not a step record.
            span_line(10, "train.step", 0, 5),
        ]
        .join("\n");
        let analysis = analyze_run(&trace, None).unwrap();
        assert_eq!((analysis.steps, analysis.eval_records), (3, 1));
        let measured = analysis.measured_savings.unwrap();
        assert!((measured - 1.0 / 3.0).abs() < 1e-12, "{measured}");
        // A step event missing its payload is a schema violation.
        let bad = step_event(0, 8).replace("\"evaluated_params\"", "\"evaluated\"") + "\n";
        let err = analyze_run(&bad, None).unwrap_err();
        assert!(err.contains("evaluated_params"), "{err}");
    }

    const MANIFEST: &str = r#"{"run_id":"9a1f0c44d2e6b013","execution_stats":{"circuits_run":740,"total_shots":757760,"estimated_device_seconds":0.091234567},"metrics":{"counters":{"qoc.train.circuit_runs":700,"qoc.device.circuits_run":740,"qoc.train.steps":9}}}"#;

    fn snapshot(snapshot: u64, step: u64, circuits: u64, device_ns: u64, state: &str) -> String {
        format!(
            r#"{{"schema_version":1,"run_id":"9a1f0c44d2e6b013","state":"{state}","backend":"fake_santiago","step":{step},"steps_total":9,"loss":0.41,"best_accuracy":0.75,"prune_phase":"pruning","snapshot":{snapshot},"uptime_ns":1200,"step_rate":1.5,"device":{{"circuits_run":{circuits},"total_shots":{shots},"device_ns":{device_ns}}}}}"#,
            shots = circuits * 1024,
        )
    }

    /// A clean three-snapshot history ending on the manifest's totals.
    fn history() -> Vec<String> {
        vec![
            snapshot(1, 1, 100, 10_000_000, "running"),
            snapshot(2, 5, 400, 50_000_000, "running"),
            snapshot(3, 9, 740, 91_234_567, "finished"),
        ]
    }

    fn manifest() -> Value {
        parse_manifest(MANIFEST).unwrap()
    }

    fn status_run(
        history: &[String],
        alerts: Option<(&str, &AlertExpectation)>,
    ) -> Result<Vec<String>, String> {
        let status = history.last().unwrap();
        check_status_run(status, &(history.join("\n") + "\n"), &manifest(), alerts)
    }

    #[test]
    fn clean_status_run_passes_every_gate() {
        let summary = status_run(&history(), Some(("", &AlertExpectation::None))).unwrap();
        assert_eq!(summary.len(), 4, "{summary:?}");
        assert!(summary[2].contains("91234567 device-ns"), "{summary:?}");
        assert_eq!(manifest_device_ns(&manifest()), Some(91_234_567));
    }

    #[test]
    fn history_counters_going_backwards_fail() {
        // Each case rewinds one counter in the middle snapshot while the
        // snapshot counter keeps increasing.
        for (step, circuits, device_ns, want) in [
            (0, 400, 50_000_000, "line 2: step went backwards"),
            (
                5,
                90,
                50_000_000,
                "line 2: device.circuits_run went backwards",
            ),
            (5, 400, 5_000_000, "line 2: device.device_ns went backwards"),
        ] {
            let mut h = history();
            h[1] = snapshot(2, step, circuits, device_ns, "running");
            let err = status_run(&h, None).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn run_id_change_mid_series_fails() {
        let mut h = history();
        h[1] = h[1].replace("9a1f0c44d2e6b013", "0000000000000001");
        let err = status_run(&h, None).unwrap_err();
        assert!(err.contains("run_id changed mid-series"), "{err}");
    }

    #[test]
    fn short_or_truncated_history_fails() {
        let h = history();
        let err = status_run(&h[1..], None).unwrap_err();
        assert!(err.contains("only 2 snapshots"), "{err}");
        // A history cut mid-line is malformed, not forgiven: the tail rule
        // applies only to the trace.
        let cut = h.join("\n");
        let cut = &cut[..cut.len() - 20];
        let err = check_status_run(h.last().unwrap(), cut, &manifest(), None).unwrap_err();
        assert!(err.contains("history line 3: not valid JSON"), "{err}");
    }

    #[test]
    fn final_snapshot_one_nanosecond_off_fails() {
        let mut h = history();
        h[2] = snapshot(3, 9, 740, 91_234_568, "finished");
        let err = status_run(&h, None).unwrap_err();
        assert!(
            err.contains("device.device_ns = 91234568 but manifest says 91234567"),
            "{err}"
        );
        // The status document and the history's last line are each
        // reconciled: an off-by-one in the history alone also fails.
        let good_status = history()[2].clone();
        let err =
            check_status_run(&good_status, &(h.join("\n") + "\n"), &manifest(), None).unwrap_err();
        assert!(err.starts_with("final history line:"), "{err}");
    }

    #[test]
    fn unfinished_status_doc_fails() {
        let mut h = history();
        h[2] = h[2].replace("\"finished\"", "\"running\"");
        let err = status_run(&h, None).unwrap_err();
        assert!(err.contains("expected \"finished\""), "{err}");
    }

    fn alert_line(kind: &str, snapshot: u64) -> String {
        format!(
            r#"{{"ts_ns":{snapshot},"kind":"{kind}","rule":"qoc.device.retries > 0","metric":"qoc.device.retries","value":3,"threshold":0,"windows":1,"snapshot":{snapshot}}}"#
        )
    }

    #[test]
    fn resolve_without_prior_firing_fails() {
        let log = alert_line("resolved", 2) + "\n";
        let expect = AlertExpectation::parse("expect=qoc.device.retries").unwrap();
        let err = check_alerts(&log, &expect).unwrap_err();
        assert!(err.contains("without a prior firing"), "{err}");
    }

    #[test]
    fn unpaired_firing_fails() {
        let log = [
            alert_line("fired", 1),
            alert_line("resolved", 2),
            alert_line("fired", 3),
        ]
        .join("\n");
        let expect = AlertExpectation::parse("expect=qoc.device.retries").unwrap();
        let err = check_alerts(&log, &expect).unwrap_err();
        assert!(err.contains("never resolved or flushed terminal"), "{err}");
        // Paired with a terminal flush, the same log passes the expectation.
        let paired = log + "\n" + &alert_line("terminal", 4);
        assert!(check_alerts(&paired, &expect)
            .unwrap()
            .contains("2 firing(s)"));
    }

    #[test]
    fn alerts_none_rejects_a_firing_and_expect_needs_a_match() {
        let log = [alert_line("fired", 1), alert_line("resolved", 2)].join("\n");
        let none = AlertExpectation::parse("none").unwrap();
        let err = status_run(&history(), Some((&log, &none))).unwrap_err();
        assert!(
            err.contains("expected a clean run but 1 alert(s) fired"),
            "{err}"
        );
        let other = AlertExpectation::parse("expect=qoc.grad.snr").unwrap();
        let err = check_alerts(&log, &other).unwrap_err();
        assert!(err.contains("\"qoc.grad.snr\""), "{err}");
        assert!(AlertExpectation::parse("expect=").is_err());
        assert!(AlertExpectation::parse("sometimes").is_err());
    }

    #[test]
    fn manifest_with_zero_circuits_run_fails() {
        assert!(check_manifest(&manifest())
            .unwrap()
            .contains("740 circuits run"));
        let zero = parse_manifest(&MANIFEST.replace("\"circuits_run\":740", "\"circuits_run\":0"))
            .unwrap();
        let err = check_manifest(&zero).unwrap_err();
        assert!(err.contains("zero circuits run"), "{err}");
        let zero_counter = parse_manifest(&MANIFEST.replace(
            "\"qoc.train.circuit_runs\":700",
            "\"qoc.train.circuit_runs\":0",
        ))
        .unwrap();
        let err = check_manifest(&zero_counter).unwrap_err();
        assert!(err.contains("qoc.train.circuit_runs is zero"), "{err}");
    }
}
