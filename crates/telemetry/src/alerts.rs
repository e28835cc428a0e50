//! Alert rules engine over the metrics registry (`QOC_ALERT_RULES`).
//!
//! The passive observability plane (status snapshots, Prometheus siblings,
//! `qoc-top`) shows a sick run to a human who happens to be watching. This
//! module closes the loop: a small rule language is evaluated against every
//! fresh [`MetricsSnapshot`] at status-exporter cadence (each
//! [`StatusExporter`](crate::export::StatusExporter) owns its engine), and state
//! *transitions* (healthy→firing, firing→healthy) become first-class
//! artifacts — pinned-schema `alert.fired`/`alert.resolved` trace events, an
//! `<stem>.alerts.jsonl` log, an `alerts` section in the status document,
//! and `qoc.alerts.*` registry metrics (which reach the Prometheus sibling
//! for free).
//!
//! # Rule grammar
//!
//! `QOC_ALERT_RULES` holds semicolon-separated rules:
//!
//! ```text
//! rule      := threshold | absence
//! threshold := NAME [STAT] OP NUMBER[UNIT] [for N windows]
//! absence   := "absent" NAME [for N windows]
//! STAT      := value|count|sum|mean|min|max|p50|p90|p99   (default: value)
//! OP        := < | <= | > | >=
//! UNIT      := s | ms | us | ns        (scales the number to nanoseconds)
//! ```
//!
//! `NAME` is one exact metric name (no wildcards). A threshold rule
//! breaches when the named statistic compares true against the threshold;
//! `for N windows` requires N *consecutive* breaching evaluations before
//! firing (default 1). An absence rule breaches when the metric is missing
//! from the snapshot (or has recorded no samples).
//!
//! Rules never *resolve* a run by themselves: a firing that is still active
//! when the run reaches a terminal state is flushed to the log with
//! `kind = "terminal"` so every firing has a definite outcome.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::MetricsSnapshot;

/// Environment variable holding the semicolon-separated rule list.
pub const ALERT_RULES_ENV: &str = "QOC_ALERT_RULES";

/// Statistic of a metric a threshold rule compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Counter/gauge value (counters as float).
    Value,
    /// Sample count (histograms and quantile estimators).
    Count,
    /// Exact sum (histograms).
    Sum,
    /// Mean sample (histograms).
    Mean,
    /// Minimum sample.
    Min,
    /// Maximum sample.
    Max,
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
}

impl Stat {
    fn parse(s: &str) -> Option<Stat> {
        Some(match s {
            "value" => Stat::Value,
            "count" => Stat::Count,
            "sum" => Stat::Sum,
            "mean" => Stat::Mean,
            "min" => Stat::Min,
            "max" => Stat::Max,
            "p50" => Stat::P50,
            "p90" => Stat::P90,
            "p99" => Stat::P99,
            _ => return None,
        })
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Op {
    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "<" => Op::Lt,
            "<=" => Op::Le,
            ">" => Op::Gt,
            ">=" => Op::Ge,
            _ => return None,
        })
    }

    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::Lt => value < threshold,
            Op::Le => value <= threshold,
            Op::Gt => value > threshold,
            Op::Ge => value >= threshold,
        }
    }
}

/// How a rule judges its metric.
#[derive(Debug, Clone, PartialEq)]
enum RuleKind {
    Threshold { stat: Stat, op: Op, threshold: f64 },
    Absent,
}

/// One parsed rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The normalized source text (used as the rule's identity in events,
    /// logs, and the status document).
    text: String,
    /// The exact metric name the rule watches.
    metric: String,
    kind: RuleKind,
    /// Consecutive breaching evaluations required before firing.
    for_windows: u64,
}

impl Rule {
    /// The rule's identity string.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Parses a number with an optional duration suffix (scaled to ns).
fn parse_number(tok: &str) -> Option<f64> {
    for (suffix, scale) in [("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)] {
        if let Some(body) = tok.strip_suffix(suffix) {
            if let Ok(v) = body.parse::<f64>() {
                return Some(v * scale);
            }
        }
    }
    tok.parse().ok()
}

/// Splits an optional trailing `for N windows` clause off `toks`.
fn split_for_clause(toks: &[&str]) -> Result<(usize, u64), String> {
    if toks.len() >= 3 && toks[toks.len() - 1] == "windows" && toks[toks.len() - 3] == "for" {
        let n: u64 = toks[toks.len() - 2]
            .parse()
            .map_err(|_| format!("bad window count {:?}", toks[toks.len() - 2]))?;
        if n == 0 {
            return Err("for 0 windows would never fire".into());
        }
        Ok((toks.len() - 3, n))
    } else {
        Ok((toks.len(), 1))
    }
}

/// Validates a rule's metric name: one exact name, never a pattern.
fn metric_name(tok: &str) -> Result<String, String> {
    if tok.contains('*') {
        return Err(format!(
            "wildcard metric name {tok:?}: rules name one metric"
        ));
    }
    Ok(tok.to_string())
}

/// Parses one rule (see module docs for the grammar).
pub fn parse_rule(text: &str) -> Result<Rule, String> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    if toks.is_empty() {
        return Err("empty rule".into());
    }
    let normalized = toks.join(" ");
    if toks[0] == "absent" {
        let (end, for_windows) = split_for_clause(&toks)?;
        if end != 2 {
            return Err(format!("absence rule {normalized:?}: want `absent NAME`"));
        }
        return Ok(Rule {
            metric: metric_name(toks[1])?,
            text: normalized,
            kind: RuleKind::Absent,
            for_windows,
        });
    }
    // Threshold: NAME [STAT] OP VALUE [for N windows]
    let (end, for_windows) = split_for_clause(&toks)?;
    let toks = &toks[..end];
    let (metric, stat, op_idx) = match toks.len() {
        3 => (toks[0], Stat::Value, 1),
        4 => (
            toks[0],
            Stat::parse(toks[1]).ok_or_else(|| format!("bad statistic {:?}", toks[1]))?,
            2,
        ),
        _ => {
            return Err(format!(
                "threshold rule {normalized:?}: want `NAME [stat] OP VALUE [for N windows]`"
            ))
        }
    };
    let op = Op::parse(toks[op_idx]).ok_or_else(|| format!("bad operator {:?}", toks[op_idx]))?;
    let threshold = parse_number(toks[op_idx + 1])
        .ok_or_else(|| format!("bad threshold {:?}", toks[op_idx + 1]))?;
    Ok(Rule {
        metric: metric_name(metric)?,
        text: normalized,
        kind: RuleKind::Threshold {
            stat,
            op,
            threshold,
        },
        for_windows,
    })
}

/// Parses a semicolon-separated rule list.
pub fn parse_rules(spec: &str) -> Result<Vec<Rule>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_rule)
        .collect()
}

// ---------------------------------------------------------------------------
// Metric lookup
// ---------------------------------------------------------------------------

/// Resolves `stat` of `metric` in the snapshot, across metric kinds.
fn lookup(snapshot: &MetricsSnapshot, metric: &str, stat: Stat) -> Option<f64> {
    if let Some(&v) = snapshot.counters.get(metric) {
        return match stat {
            Stat::Value | Stat::Count | Stat::Sum => Some(v as f64),
            _ => None,
        };
    }
    if let Some(&v) = snapshot.gauges.get(metric) {
        return matches!(stat, Stat::Value).then_some(v);
    }
    if let Some(h) = snapshot.histograms.get(metric) {
        return Some(match stat {
            Stat::Value | Stat::Mean => h.mean(),
            Stat::Count => h.count as f64,
            Stat::Sum => h.sum as f64,
            Stat::Min => h.min as f64,
            Stat::Max => h.max as f64,
            Stat::P50 => h.quantile(0.5) as f64,
            Stat::P90 => h.quantile(0.9) as f64,
            Stat::P99 => h.quantile(0.99) as f64,
        });
    }
    if let Some(q) = snapshot.quantiles.get(metric) {
        return Some(match stat {
            Stat::Count => q.count as f64,
            Stat::Min => q.min,
            Stat::Max => q.max,
            Stat::Value | Stat::P50 => q.p50,
            Stat::P90 => q.p90,
            Stat::P99 => q.p99,
            Stat::Sum | Stat::Mean => return None,
        });
    }
    None
}

/// `true` when the metric is absent: unknown to the snapshot, or known but
/// with zero recorded samples (histograms/quantile estimators).
fn is_absent(snapshot: &MetricsSnapshot, metric: &str) -> bool {
    if snapshot.counters.contains_key(metric) || snapshot.gauges.contains_key(metric) {
        return false;
    }
    if let Some(h) = snapshot.histograms.get(metric) {
        return h.count == 0;
    }
    if let Some(q) = snapshot.quantiles.get(metric) {
        return q.count == 0;
    }
    true
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Per-rule evaluation state.
#[derive(Debug, Default)]
struct Instance {
    /// Consecutive breaching evaluations so far.
    streak: u64,
    /// Whether the rule is currently firing.
    active: bool,
}

/// What happened to one rule during an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// `"fired"`, `"resolved"`, or `"terminal"`.
    pub kind: &'static str,
    /// Rule identity ([`Rule::text`]).
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
    /// Observed value at the transition (0 for absence/terminal flushes).
    pub value: f64,
    /// Rule threshold (0 for absence rules).
    pub threshold: f64,
    /// The rule's `for N windows` clause.
    pub windows: u64,
}

/// A currently-firing alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveAlert {
    /// Rule identity.
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
}

/// The rules engine: parsed rules plus per-rule firing state (keyed by
/// rule index).
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<Rule>,
    instances: Mutex<BTreeMap<usize, Instance>>,
    fired_total: AtomicU64,
    resolved_total: AtomicU64,
}

impl AlertEngine {
    /// An engine over the given rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        AlertEngine {
            rules,
            ..AlertEngine::default()
        }
    }

    /// Parses and appends more rules (deduplicated by text, so installing
    /// the same list twice is harmless). A malformed rule never takes the
    /// valid ones down with it: everything parseable is installed and the
    /// error names only the rejects — one typo must degrade the rule set to
    /// fewer alerts, not to none.
    pub fn install(&mut self, spec: &str) -> Result<usize, String> {
        let mut added = 0;
        let mut errors = Vec::new();
        for text in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            match parse_rule(text) {
                Ok(rule) => {
                    if !self.rules.iter().any(|r| r.text == rule.text) {
                        self.rules.push(rule);
                        added += 1;
                    }
                }
                Err(err) => errors.push(err),
            }
        }
        if errors.is_empty() {
            Ok(added)
        } else {
            Err(format!(
                "{} ({added} valid rule(s) still installed)",
                errors.join("; ")
            ))
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates every rule against `snapshot`, returning the transitions
    /// this evaluation produced.
    pub fn evaluate(&self, snapshot: &MetricsSnapshot) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        let mut instances = self.instances.lock().unwrap_or_else(|e| e.into_inner());
        for (idx, rule) in self.rules.iter().enumerate() {
            let (breach, value, threshold) = match rule.kind {
                RuleKind::Threshold {
                    stat,
                    op,
                    threshold,
                } => {
                    let value = lookup(snapshot, &rule.metric, stat);
                    let breach = value.is_some_and(|v| op.holds(v, threshold));
                    (breach, value.unwrap_or(0.0), threshold)
                }
                RuleKind::Absent => (is_absent(snapshot, &rule.metric), 0.0, 0.0),
            };
            let inst = instances.entry(idx).or_default();
            if let Some(kind) = inst.step(breach, rule.for_windows) {
                transitions.push(AlertTransition {
                    kind,
                    rule: rule.text.clone(),
                    metric: rule.metric.clone(),
                    value,
                    threshold,
                    windows: rule.for_windows,
                });
            }
        }
        for t in &transitions {
            match t.kind {
                "fired" => self.fired_total.fetch_add(1, Ordering::Relaxed),
                _ => self.resolved_total.fetch_add(1, Ordering::Relaxed),
            };
        }
        transitions
    }

    /// Currently-firing instances.
    pub fn active(&self) -> Vec<ActiveAlert> {
        let instances = self.instances.lock().unwrap_or_else(|e| e.into_inner());
        instances
            .iter()
            .filter(|(_, inst)| inst.active)
            .map(|(&idx, _)| ActiveAlert {
                rule: self.rules[idx].text.clone(),
                metric: self.rules[idx].metric.clone(),
            })
            .collect()
    }

    /// Flushes still-active rules at a terminal run state: each becomes a
    /// `"terminal"` transition and its firing state resets, so the alert log
    /// pairs every firing with a resolution or a terminal flush.
    pub fn finalize(&self) -> Vec<AlertTransition> {
        let mut instances = self.instances.lock().unwrap_or_else(|e| e.into_inner());
        let mut flushed = Vec::new();
        for (&idx, inst) in instances.iter_mut() {
            if inst.active {
                inst.active = false;
                inst.streak = 0;
                flushed.push(AlertTransition {
                    kind: "terminal",
                    rule: self.rules[idx].text.clone(),
                    metric: self.rules[idx].metric.clone(),
                    value: 0.0,
                    threshold: 0.0,
                    windows: 0,
                });
            }
        }
        flushed
    }

    /// Lifetime firing count.
    pub fn fired_total(&self) -> u64 {
        self.fired_total.load(Ordering::Relaxed)
    }

    /// Lifetime resolution count (terminal flushes included).
    pub fn resolved_total(&self) -> u64 {
        self.resolved_total.load(Ordering::Relaxed)
    }

    /// The status document `alerts` section, `None` when no rules exist.
    pub fn section(&self) -> Option<serde::Value> {
        use serde::Value;
        if self.rules.is_empty() {
            return None;
        }
        let active: Vec<Value> = self
            .active()
            .into_iter()
            .map(|a| {
                Value::Object(vec![
                    ("rule".into(), Value::Str(a.rule)),
                    ("metric".into(), Value::Str(a.metric)),
                ])
            })
            .collect();
        Some(Value::Object(vec![
            ("rules".into(), Value::UInt(self.rules.len() as u64)),
            ("fired_total".into(), Value::UInt(self.fired_total())),
            ("resolved_total".into(), Value::UInt(self.resolved_total())),
            ("active".into(), Value::Array(active)),
        ]))
    }
}

impl Instance {
    /// Advances the firing state by one evaluation, returning the
    /// transition (`"fired"` / `"resolved"`) it produced, if any.
    fn step(&mut self, breach: bool, for_windows: u64) -> Option<&'static str> {
        if breach {
            self.streak += 1;
            if !self.active && self.streak >= for_windows {
                self.active = true;
                return Some("fired");
            }
        } else {
            self.streak = 0;
            if self.active {
                self.active = false;
                return Some("resolved");
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snap_with(f: impl Fn(&Registry)) -> MetricsSnapshot {
        let reg = Registry::new();
        f(&reg);
        reg.snapshot()
    }

    #[test]
    fn grammar_round_trips() {
        let r = parse_rule("qoc.grad.snr p50 < 0.5 for 3 windows").unwrap();
        assert_eq!(r.text, "qoc.grad.snr p50 < 0.5 for 3 windows");
        assert_eq!(r.for_windows, 3);
        assert!(matches!(
            r.kind,
            RuleKind::Threshold {
                stat: Stat::P50,
                op: Op::Lt,
                ..
            }
        ));
        let r = parse_rule("qoc.device.gave_up > 0").unwrap();
        assert_eq!(r.for_windows, 1);
        assert!(matches!(
            r.kind,
            RuleKind::Threshold {
                stat: Stat::Value,
                op: Op::Gt,
                ..
            }
        ));
        let r = parse_rule("qoc.device.queue_wait_ns p99 > 5s").unwrap();
        match r.kind {
            RuleKind::Threshold { threshold, .. } => assert_eq!(threshold, 5e9),
            other => panic!("wrong kind: {other:?}"),
        }
        let r = parse_rule("absent qoc.device.jobs_completed for 2 windows").unwrap();
        assert_eq!(r.kind, RuleKind::Absent);
        assert_eq!(r.metric, "qoc.device.jobs_completed");
        assert_eq!(r.for_windows, 2);
    }

    #[test]
    fn grammar_rejects_garbage() {
        assert!(parse_rule("").is_err());
        assert!(parse_rule("qoc.x").is_err());
        assert!(parse_rule("qoc.x ~ 5").is_err());
        assert!(parse_rule("qoc.x p42 > 5").is_err());
        assert!(parse_rule("qoc.x > five").is_err());
        assert!(parse_rule("qoc.x > 5 for 0 windows").is_err());
        // Burn-rate rules and `*` wildcards are not part of the grammar.
        assert!(parse_rule("burn a / b > 0.5 over 2x4 windows").is_err());
        assert!(parse_rule("qoc.x.*.gave_up > 0").is_err());
        assert!(parse_rule("absent qoc.x.*").is_err());
        assert!(parse_rules("qoc.a > 1; qoc.b oops").is_err());
        assert_eq!(parse_rules("qoc.a > 1; ; qoc.b < 2").unwrap().len(), 2);
    }

    #[test]
    fn unit_suffixes_scale_to_nanoseconds() {
        for (tok, want) in [
            ("5s", 5e9),
            ("5ms", 5e6),
            ("5us", 5e3),
            ("5ns", 5.0),
            ("5", 5.0),
        ] {
            assert_eq!(parse_number(tok), Some(want), "{tok}");
        }
        assert_eq!(parse_number("1.5ms"), Some(1.5e6));
    }

    #[test]
    fn threshold_fires_and_resolves() {
        let engine = AlertEngine::new(parse_rules("t.alerts.gauge > 10").unwrap());
        let low = snap_with(|r| r.gauge("t.alerts.gauge").set(5.0));
        let high = snap_with(|r| r.gauge("t.alerts.gauge").set(50.0));
        assert!(engine.evaluate(&low).is_empty());
        let fired = engine.evaluate(&high);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "fired");
        assert_eq!(fired[0].metric, "t.alerts.gauge");
        assert_eq!(fired[0].value, 50.0);
        // Still breaching: active, no new transition.
        assert!(engine.evaluate(&high).is_empty());
        assert_eq!(engine.active().len(), 1);
        let resolved = engine.evaluate(&low);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, "resolved");
        assert!(engine.active().is_empty());
        assert_eq!(engine.fired_total(), 1);
        assert_eq!(engine.resolved_total(), 1);
    }

    #[test]
    fn for_windows_requires_consecutive_breaches() {
        let engine = AlertEngine::new(parse_rules("t.alerts.w > 0 for 3 windows").unwrap());
        let hot = snap_with(|r| r.gauge("t.alerts.w").set(1.0));
        let cold = snap_with(|r| r.gauge("t.alerts.w").set(0.0));
        assert!(engine.evaluate(&hot).is_empty());
        assert!(engine.evaluate(&hot).is_empty());
        // Interrupted streak starts over.
        assert!(engine.evaluate(&cold).is_empty());
        assert!(engine.evaluate(&hot).is_empty());
        assert!(engine.evaluate(&hot).is_empty());
        let fired = engine.evaluate(&hot);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "fired");
    }

    #[test]
    fn quantile_and_histogram_stats_resolve() {
        let engine = AlertEngine::new(
            parse_rules("t.alerts.snr p50 < 0.5; t.alerts.lat p99 > 1ms").unwrap(),
        );
        let snap = snap_with(|r| {
            let q = r.quantile_estimator("t.alerts.snr", 64);
            for _ in 0..10 {
                q.record(0.1);
            }
            let h = r.histogram("t.alerts.lat", &[1_000, 1_000_000, 100_000_000]);
            for _ in 0..100 {
                h.record(50_000_000);
            }
        });
        let fired = engine.evaluate(&snap);
        assert_eq!(fired.len(), 2, "both rules fire: {fired:?}");
        assert!(fired.iter().all(|t| t.kind == "fired"));
    }

    #[test]
    fn absence_rule_fires_until_metric_appears() {
        let engine = AlertEngine::new(parse_rules("absent t.alerts.pulse for 2 windows").unwrap());
        let empty = MetricsSnapshot::default();
        assert!(engine.evaluate(&empty).is_empty(), "first miss: streak 1");
        let fired = engine.evaluate(&empty);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "fired");
        let alive = snap_with(|r| r.counter("t.alerts.pulse").inc());
        let resolved = engine.evaluate(&alive);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, "resolved");
    }

    #[test]
    fn finalize_flushes_active_instances_as_terminal() {
        let engine = AlertEngine::new(parse_rules("t.alerts.term > 0").unwrap());
        let hot = snap_with(|r| r.gauge("t.alerts.term").set(1.0));
        assert_eq!(engine.evaluate(&hot).len(), 1);
        let flushed = engine.finalize();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].kind, "terminal");
        assert!(engine.active().is_empty());
        assert!(engine.finalize().is_empty(), "idempotent");
        // A still-breaching snapshot re-fires after the flush.
        assert_eq!(engine.evaluate(&hot)[0].kind, "fired");
    }

    #[test]
    fn install_deduplicates_by_text() {
        let mut engine = AlertEngine::default();
        assert_eq!(engine.install("a.b > 1; c.d < 2").unwrap(), 2);
        assert_eq!(engine.install("a.b  >  1").unwrap(), 0, "normalized dup");
        assert_eq!(engine.len(), 2);
    }

    #[test]
    fn install_keeps_valid_rules_when_one_is_malformed() {
        let mut engine = AlertEngine::default();
        let err = engine
            .install("a.b > 1; absent c.d for 2; e.f < 3")
            .unwrap_err();
        assert!(err.contains("absence rule"), "names the reject: {err}");
        assert!(err.contains("2 valid rule(s)"), "counts survivors: {err}");
        assert_eq!(
            engine.len(),
            2,
            "the typo'd rule must not take the rest down"
        );
    }

    #[test]
    fn section_shape_is_stable() {
        let engine = AlertEngine::new(parse_rules("t.alerts.sec > 0").unwrap());
        let hot = snap_with(|r| r.gauge("t.alerts.sec").set(2.0));
        engine.evaluate(&hot);
        let section = engine.section().expect("rules exist");
        assert_eq!(section.get("fired_total").unwrap().as_u64(), Some(1));
        assert_eq!(section.get("resolved_total").unwrap().as_u64(), Some(0));
        let active = match section.get("active").unwrap() {
            serde::Value::Array(a) => a,
            other => panic!("active not an array: {other:?}"),
        };
        assert_eq!(active.len(), 1);
        assert_eq!(
            active[0].get("metric").unwrap().as_str(),
            Some("t.alerts.sec")
        );
        assert!(AlertEngine::default().section().is_none());
    }
}
