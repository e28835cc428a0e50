//! `qoc-analyze` — offline analysis and checking of a traced run.
//!
//! Reads the `QOC_TRACE_FILE` JSONL trace plus its `<stem>.manifest.json`
//! and writes, next to the trace:
//!
//! - `<stem>.folded` — collapsed stacks for `flamegraph.pl` /
//!   `inferno-flamegraph`;
//! - `<stem>.analysis.md` — phase-time table, per-parameter gradient
//!   health, and the PGP efficacy curve (also printed to stdout);
//! - `<stem>.analysis.json` — the same report, machine-readable.
//!
//! Usage: `qoc-analyze [TRACE_FILE] [--savings-tolerance X] [--quiet]
//! [--blackbox] [--profile FOLDED [--profile-tolerance X]]
//! [--status STATUS_FILE [--alerts none|expect=SUBSTR[,SUBSTR...]]]` (the
//! trace defaults to `$QOC_TRACE_FILE`).
//!
//! It is the one checker for every run artifact: each trace line must pass
//! the pinned schema (including the `train.step` / `train.eval` step and
//! eval records), and the manifest must report nonzero circuit-run
//! counters. The sanity gates then require spans, device-time exactness
//! and, for a pruned run, the pruning efficacy curve and a measured run
//! saving near `r·w_p/(w_a+w_p)`.
//!
//! `--profile` ingests a sampling-profiler `.profile.folded` file (written
//! when the traced run also set `QOC_PROFILE_HZ`) and cross-checks the
//! profiler's Jacobian-phase share against the trace-derived share — the
//! two measure the same run through independent mechanisms, so a
//! divergence beyond `--profile-tolerance` (default 0.15, relative) fails
//! the run like any other sanity gate.
//!
//! `--status` checks the live status artifacts of the same run (written
//! under `QOC_STATUS_FILE`): the document must be schema-valid and
//! `"finished"`, its `<stem>.history.jsonl` series monotone with one
//! `run_id`, and both the document and the history's last line must
//! reconcile with the manifest to the nanosecond. `--alerts` adds the
//! `<stem>.alerts.jsonl` gate: every firing paired with an outcome, and
//! `none` demands zero firings while `expect=…` demands a firing whose
//! rule text contains each substring.
//!
//! `--blackbox` ingests a flight-recorder crash dump
//! (`<checkpoint>.blackbox.jsonl`, written on `TrainError::Execution`)
//! instead of a full traced run: the dump is a bounded ring of the *last*
//! records before the crash, so no manifest exists and the sanity gates
//! (device-time reconciliation, pruning efficacy) are skipped — only the
//! schema check and the span-forest/phase report run. A trailing truncated
//! line (killed writer) is tolerated in either mode.
//!
//! Exit codes: **2** when an input file is missing (the trace, the
//! manifest outside `--blackbox`, a `--profile` or `--status` file, its
//! history, or the alert log when firings are expected), **1** when an
//! artifact is malformed or a gate fails, **0** otherwise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qoc_bench::analyze::{
    analyze_run, check_manifest, check_status_run, parse_manifest, AlertExpectation,
};

fn fail(msg: &str) -> ExitCode {
    eprintln!("qoc-analyze: {msg}");
    ExitCode::from(1)
}

fn fail_missing(msg: &str) -> ExitCode {
    eprintln!("qoc-analyze: missing input: {msg}");
    ExitCode::from(2)
}

/// Reads an input file, mapping "not found" to exit 2 and any other read
/// error to exit 1.
fn read_input(path: &Path, what: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            fail_missing(&format!("{what} {} does not exist", path.display()))
        } else {
            fail(&format!("cannot read {what} {}: {e}", path.display()))
        }
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) | Err(code) => code,
    }
}

fn run() -> Result<ExitCode, ExitCode> {
    let mut args = std::env::args().skip(1);
    let mut trace_arg: Option<PathBuf> = None;
    let mut tolerance = 0.05f64;
    let mut quiet = false;
    let mut blackbox = false;
    let mut profile_arg: Option<PathBuf> = None;
    let mut profile_tolerance = 0.15f64;
    let mut status_arg: Option<PathBuf> = None;
    let mut alerts: Option<AlertExpectation> = None;
    while let Some(arg) = args.next() {
        // The value following a flag; a missing one is a usage error.
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| fail(&format!("{arg} needs {what}")))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| fail(&format!("{arg} needs a numeric value")))
        };
        match arg.as_str() {
            "--savings-tolerance" => tolerance = number(value("a numeric value")?)?,
            "--profile" => profile_arg = Some(value("a .profile.folded path")?.into()),
            "--profile-tolerance" => profile_tolerance = number(value("a numeric value")?)?,
            "--status" => status_arg = Some(value("a status file path")?.into()),
            "--alerts" => {
                let spec = value("a mode: none | expect=SUBSTR[,SUBSTR...]")?;
                alerts = Some(AlertExpectation::parse(&spec).map_err(|e| fail(&e))?);
            }
            "--quiet" => quiet = true,
            "--blackbox" => blackbox = true,
            flag if flag.starts_with("--") => {
                return Err(fail(&format!("unknown flag {flag:?}")));
            }
            path => trace_arg = Some(PathBuf::from(path)),
        }
    }
    if alerts.is_some() && status_arg.is_none() {
        return Err(fail("--alerts needs --status"));
    }
    if blackbox && status_arg.is_some() {
        return Err(fail(
            "--status needs a full traced run, not a --blackbox dump",
        ));
    }
    let trace_path = trace_arg
        .or_else(|| std::env::var("QOC_TRACE_FILE").ok().map(PathBuf::from))
        .ok_or_else(|| fail_missing("no trace file given (argument or QOC_TRACE_FILE)"))?;

    let trace_text = read_input(&trace_path, "trace")?;
    // A black-box dump is the ring contents alone — no manifest was ever
    // written next to it, so don't probe for (or gate on) one.
    let manifest = if blackbox {
        None
    } else {
        let text = read_input(&trace_path.with_extension("manifest.json"), "manifest")?;
        let manifest = parse_manifest(&text).map_err(|e| fail(&format!("malformed: {e}")))?;
        let summary = check_manifest(&manifest).map_err(|e| fail(&format!("malformed: {e}")))?;
        if !quiet {
            println!("qoc-analyze: {summary}");
        }
        Some(manifest)
    };

    let analysis = analyze_run(&trace_text, manifest.as_ref())
        .map_err(|e| fail(&format!("malformed: {e}")))?;

    let folded_path = trace_path.with_extension("folded");
    let md_path = trace_path.with_extension("analysis.md");
    let json_path = trace_path.with_extension("analysis.json");
    let folded = analysis.folded.join("\n") + "\n";
    let markdown = analysis.to_markdown();
    let json =
        serde_json::to_string_pretty(&analysis.to_json()).expect("report serialization") + "\n";
    for (path, body) in [
        (&folded_path, &folded),
        (&md_path, &markdown),
        (&json_path, &json),
    ] {
        std::fs::write(path, body)
            .map_err(|e| fail(&format!("cannot write {}: {e}", path.display())))?;
    }

    if !quiet {
        print!("{markdown}");
        println!();
        println!(
            "wrote {} / {} / {}",
            folded_path.display(),
            md_path.display(),
            json_path.display()
        );
    }

    let Some(manifest) = manifest else {
        // The ring holds whatever the last moments produced — maybe only
        // events — so the run-level sanity gates don't apply. An empty
        // dump still fails: the recorder saw nothing.
        return if analysis.spans + analysis.events == 0 {
            Err(fail("black-box dump contains no records"))
        } else {
            Ok(ExitCode::SUCCESS)
        };
    };
    let mut failures = analysis.sanity_failures(tolerance);
    if let Some(profile_path) = &profile_arg {
        let folded_text = read_input(profile_path, "profile (did the run set QOC_PROFILE_HZ?)")?;
        match analysis.reconcile_profile(&folded_text, profile_tolerance) {
            Ok(summary) if !quiet => println!("qoc-analyze: {summary}"),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    if let Some(status_path) = &status_arg {
        let status_text = read_input(status_path, "status file")?;
        let history_text = read_input(&status_path.with_extension("history.jsonl"), "history")?;
        let alerts_log = match &alerts {
            Some(expectation) => {
                let log_path = status_path.with_extension("alerts.jsonl");
                // An absent log means zero transitions — fine for a clean
                // run, a missing input when firings were expected.
                let text = match (expectation, log_path.exists()) {
                    (AlertExpectation::None, false) => String::new(),
                    _ => read_input(&log_path, "alerts log")?,
                };
                Some((text, expectation))
            }
            None => None,
        };
        match check_status_run(
            &status_text,
            &history_text,
            &manifest,
            alerts_log.as_ref().map(|(text, e)| (text.as_str(), *e)),
        ) {
            Ok(summary) if !quiet => {
                for line in summary {
                    println!("qoc-analyze: {line}");
                }
            }
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("qoc-analyze: sanity: {f}");
        }
        Err(ExitCode::from(1))
    }
}
