//! Per-layer accounting of one traced run: span tree, self times, and the
//! layer table.
//!
//! The span tree of a run is `run → {device.prepare, device.batch → device.job}`.
//! A span's self time is its duration minus the part of it that its
//! children cover (the union of their intervals, since jobs of one batch
//! overlap across workers).

use std::fmt::Write as _;

use crate::probe::Interval;
use crate::workload::Rep;

/// Layer totals of one traced run, in seconds unless noted.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Wall time of the run.
    pub run_s: f64,
    /// `prepare` calls.
    pub prepare_calls: u64,
    /// Σ `prepare` wall.
    pub prepare_s: f64,
    /// `run_batch` calls.
    pub batch_calls: u64,
    /// Σ jobs submitted.
    pub batch_jobs: u64,
    /// Σ batch wall.
    pub batch_s: f64,
    /// Σ over batches of wall not covered by any job (fan-out self time).
    pub fanout_self_s: f64,
    /// Σ wall of evaluation batches.
    pub eval_s: f64,
    /// Σ job wall (busy time summed over workers).
    pub job_busy_s: f64,
    /// Every job's wall time, µs.
    pub job_us: Vec<f64>,
}

impl Split {
    /// Run wall time outside the backend boundary: job construction,
    /// head/loss backprop, pruner and optimizer (or result scoring).
    pub fn core_self_s(&self) -> f64 {
        self.run_s - self.batch_s - self.prepare_s
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Length of the union of `spans`, in ns.
fn covered_ns(spans: impl Iterator<Item = Interval>) -> u64 {
    let mut v: Vec<Interval> = spans.collect();
    v.sort_by_key(|s| s.start);
    let (mut total, mut cur): (u64, Option<Interval>) = (0, None);
    for s in v {
        cur = match cur {
            Some(c) if s.start <= c.end => Some(Interval {
                start: c.start,
                end: c.end.max(s.end),
            }),
            Some(c) => {
                total += c.nanos();
                Some(s)
            }
            None => Some(s),
        };
    }
    total + cur.map_or(0, Interval::nanos)
}

/// Splits a traced run into layers. `eval` is the job count that marks an
/// in-training evaluation batch; `None` means every batch is an evaluation.
pub fn split(rep: &Rep, eval: Option<usize>) -> Split {
    let rec = &rep.recording;
    let mut s = Split {
        run_s: rep.run_s,
        prepare_calls: rec.prepares.len() as u64,
        prepare_s: secs(rec.prepares.iter().map(|p| p.nanos()).sum()),
        batch_calls: rec.batches.len() as u64,
        batch_jobs: rec.batches.iter().map(|b| b.jobs as u64).sum(),
        batch_s: 0.0,
        fanout_self_s: 0.0,
        eval_s: 0.0,
        job_busy_s: 0.0,
        job_us: Vec::with_capacity(rec.executions() as usize),
    };
    for b in &rec.batches {
        let wall = b.span.nanos();
        s.batch_s += secs(wall);
        if eval.is_none_or(|n| b.jobs == n) {
            s.eval_s += secs(wall);
        }
        s.fanout_self_s += secs(wall - covered_ns(b.job_spans.iter().copied()));
        for j in &b.job_spans {
            s.job_busy_s += secs(j.nanos());
            s.job_us.push(j.nanos() as f64 / 1e3);
        }
    }
    s
}

/// The run's spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
/// `parent`), in the probe clock.
pub fn spans_jsonl(rep: &Rep, run_name: &str) -> String {
    let mut out = String::new();
    let mut line = |id: usize, name: &str, span: Interval, parent: Option<usize>| {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            span.start, span.end
        );
    };
    let run = Interval {
        start: rep.start_ns,
        end: rep.end_ns,
    };
    line(0, run_name, run, None);
    let mut id = 1;
    for p in &rep.recording.prepares {
        line(id, "device.prepare", *p, Some(0));
        id += 1;
    }
    for b in &rep.recording.batches {
        let batch_id = id;
        line(batch_id, "device.batch", b.span, Some(0));
        id += 1;
        for j in &b.job_spans {
            line(id, "device.job", *j, Some(batch_id));
            id += 1;
        }
    }
    out
}

/// A printable layer table: calls, total and self seconds per layer. Wall
/// layers show self time as a share of the run. Jobs are summed over
/// workers and shown as a share of worker time (`workers` × batch wall);
/// the spans end there, so a job's own time is all self time.
pub fn table(run_name: &str, s: &Split, workers: usize) -> String {
    let jobs = s.job_us.len() as f64;
    let worker_s = workers as f64 * s.batch_s;
    let rows = [
        (run_name, 1.0, s.run_s, s.core_self_s(), s.run_s, "run wall"),
        (
            "device.prepare",
            s.prepare_calls as f64,
            s.prepare_s,
            s.prepare_s,
            s.run_s,
            "run wall",
        ),
        (
            "device.batch",
            s.batch_calls as f64,
            s.batch_s,
            s.fanout_self_s,
            s.run_s,
            "run wall",
        ),
        (
            "device.job",
            jobs,
            s.job_busy_s,
            s.job_busy_s,
            worker_s,
            "worker time",
        ),
    ];
    let mut out = format!(
        "{:<24}{:>8}{:>11}{:>11}  self share\n",
        "layer", "calls", "total_s", "self_s"
    );
    for (name, calls, total, own, base, of) in rows {
        let _ = writeln!(
            out,
            "{name:<24}{calls:>8}{total:>11.4}{own:>11.4}  {:>5.1}% of {of}",
            100.0 * own / base
        );
    }
    let _ = writeln!(
        out,
        "evaluation batches: {:.4} s of device.batch; mean job {:.1} us",
        s.eval_s,
        1e6 * s.job_busy_s / jobs
    );
    out
}
