//! Prometheus text-format rendering of a [`MetricsSnapshot`].
//!
//! The status exporter writes a `<stem>.prom` sibling next to every
//! `QOC_STATUS_FILE` snapshot, so any textfile-collector node exporter can
//! pick up a run's metrics.
//!
//! Naming convention: registry names are dotted (`qoc.device.retries`);
//! Prometheus names replace every character outside `[a-zA-Z0-9_:]` with
//! `_` (`qoc_device_retries`). Mapping:
//!
//! - counters → `counter` (`<name> <value>`);
//! - gauges → `gauge`;
//! - histograms → `histogram` with cumulative `_bucket{le="..."}` lines,
//!   a `+Inf` bucket, `_sum`, and `_count`;
//! - streaming quantile estimators → `summary` with
//!   `{quantile="0.5|0.9|0.99"}` lines over the retained window plus
//!   `_count` (total samples; no `_sum` is tracked, which the text format
//!   permits).

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;

/// Maps a dotted registry name to a legal Prometheus metric name.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn write_value(line: &mut String, v: f64) {
    if v.is_infinite() {
        line.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v.is_nan() {
        line.push_str("NaN");
    } else {
        let _ = write!(line, "{v}");
    }
}

/// Renders a full metrics snapshot as Prometheus exposition text
/// (one `# TYPE` line per metric family, LF line endings, trailing
/// newline).
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let mut line = format!("{name} ");
        write_value(&mut line, *value);
        let _ = writeln!(out, "{line}");
    }
    for (name, hist) in &snapshot.histograms {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in hist.bounds.iter().zip(hist.buckets.iter()) {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    for (name, q) in &snapshot.quantiles {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} summary");
        for (label, value) in [("0.5", q.p50), ("0.9", q.p90), ("0.99", q.p99)] {
            let mut line = format!("{name}{{quantile=\"{label}\"}} ");
            write_value(&mut line, value);
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "{name}_count {}", q.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn names_sanitize_to_prometheus_charset() {
        assert_eq!(sanitize("qoc.device.retries"), "qoc_device_retries");
        assert_eq!(sanitize("qoc.grad.snr"), "qoc_grad_snr");
        assert_eq!(sanitize("weird-name 1"), "weird_name_1");
        assert_eq!(sanitize("0starts.with.digit"), "_0starts_with_digit");
    }

    #[test]
    fn render_covers_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("t.prom.counter").add(42);
        reg.gauge("t.prom.gauge").set(1.5);
        let hist = reg.histogram("t.prom.hist", &[10, 100]);
        hist.record(5);
        hist.record(50);
        hist.record(500);
        let q = reg.quantile_estimator("t.prom.quant", 16);
        for i in 0..10 {
            q.record(i as f64);
        }
        let text = render(&reg.snapshot());

        assert!(text.contains("# TYPE t_prom_counter counter\nt_prom_counter 42\n"));
        assert!(text.contains("# TYPE t_prom_gauge gauge\nt_prom_gauge 1.5\n"));
        assert!(text.contains("t_prom_hist_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("t_prom_hist_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("t_prom_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("t_prom_hist_count 3\n"));
        assert!(text.contains("t_prom_quant{quantile=\"0.5\"} "));
        assert!(text.contains("t_prom_quant_count 10\n"));

        // Every line obeys the exposition grammar: comment, or
        // `name[{labels}] value` with a parseable value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable sample value in {line:?}"
            );
        }
        assert!(text.ends_with('\n'));
    }

    /// Hostile name segments that must never corrupt the exposition output:
    /// metric names are free-form strings, and whatever a caller registers
    /// may not produce an unscrapeable `.prom` file.
    const HOSTILE_IDS: &[&str] = &[
        "evil\"quote",
        "back\\slash",
        "new\nline",
        "crlf\r\n",
        "brace{le=\"1\"}",
        "comma,eq=",
        "caf\u{e9}",        // UTF-8, two bytes
        "emoji-\u{1f600}",  // UTF-8, four bytes
        "\u{202e}override", // bidi control
        "nul\u{0}byte",
    ];

    #[test]
    fn hostile_ids_sanitize_to_legal_metric_names() {
        for id in HOSTILE_IDS {
            let name = sanitize(&format!("t.prom.hostile.{id}.completed"));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "sanitize left illegal chars for {id:?}: {name:?}"
            );
            assert!(!name.chars().next().unwrap().is_ascii_digit());
        }
    }

    #[test]
    fn render_survives_hostile_metric_names() {
        let reg = Registry::new();
        for (i, id) in HOSTILE_IDS.iter().enumerate() {
            reg.counter(&format!("t.prom.hostile.{id}.completed"))
                .add(i as u64 + 1);
            reg.histogram(&format!("t.prom.hostile.{id}.queue_wait_ns"), &[10])
                .record(5);
        }
        let text = render(&reg.snapshot());
        // Every non-comment line must still parse as `name[{labels}] value`
        // with a numeric value and no control characters.
        for line in text.lines() {
            assert!(
                !line.chars().any(|c| c.is_control()),
                "control char leaked into {line:?}"
            );
            if line.starts_with('#') {
                continue;
            }
            let (sample, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable sample value in {line:?}"
            );
            let name_part = sample.split('{').next().unwrap();
            assert!(
                name_part
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name in {line:?}"
            );
        }
    }
}
