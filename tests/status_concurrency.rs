//! Status exporter under concurrency: several writer threads publish
//! overlapping step snapshots through a single directly-owned
//! [`StatusExporter`], while a chaos thread hammers the heartbeat path. The snapshot counter must stay
//! strictly monotone, every step publication must land in the history
//! sibling (none lost to a race), every published document must pass the
//! schema gate, and an elapsed-floor heartbeat must publish exactly once —
//! without polluting the per-step history series.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use serde::Value;

use qoc_core::engine::run_id_for_seed;
use qoc_telemetry::export::{StatusCore, StatusExporter};
use qoc_telemetry::schema::check_status_doc;

const ENGINES: usize = 4;
const STEPS: usize = 5;

/// The step-boundary core one engine would stamp after `step` steps.
fn engine_core(run_id: &str, step: usize) -> StatusCore {
    let step = step as u64;
    StatusCore {
        run_id: run_id.to_string(),
        state: "running",
        backend: "noiseless".to_string(),
        step,
        steps_total: STEPS as u64,
        loss: 1.0 / (step as f64 + 1.0),
        best_accuracy: 0.0,
        prune_phase: "none".to_string(),
        circuits_run: step * 10,
        total_shots: step * 640,
        device_ns: step * 1_000,
    }
}

fn parse_doc(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("unparseable status doc: {e}\n{text}"))
}

fn snapshot_of(doc: &Value) -> u64 {
    match doc.get("snapshot") {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => *n as u64,
        other => panic!("status doc snapshot field missing or mistyped: {other:?}"),
    }
}

fn read_doc(path: &Path) -> Value {
    parse_doc(&std::fs::read_to_string(path).expect("status file readable"))
}

#[test]
fn overlapping_engines_share_one_exporter_without_losing_snapshots() {
    let dir = std::env::temp_dir().join(format!("qoc_status_conc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let status_path = dir.join("status.json");
    let history_path = status_path.with_extension("history.jsonl");
    std::fs::remove_file(&history_path).ok();

    // Cadence 1: every step from every engine must publish with history.
    let exporter = StatusExporter::new(PathBuf::from(&status_path), 1);

    let stop_chaos = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Chaos heartbeats: tick() uses try_lock and must neither block the
        // step path nor corrupt the snapshot series.
        let ticker = &exporter;
        let stop = &stop_chaos;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                ticker.tick();
                std::thread::sleep(Duration::from_micros(200));
            }
        });

        let writers: Vec<_> = (0..ENGINES)
            .map(|i| {
                let exporter = &exporter;
                scope.spawn(move || {
                    let run_id = run_id_for_seed(100 + i as u64);
                    for step in 1..=STEPS {
                        exporter.on_step(engine_core(&run_id, step));
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer thread");
        }
        stop_chaos.store(true, Ordering::Relaxed);
    });

    // Every publication landed in the history: exactly ENGINES × STEPS
    // step snapshots (heartbeats are excluded from the series by design),
    // each schema-clean, with a strictly increasing snapshot counter.
    let history = std::fs::read_to_string(&history_path).expect("history sibling exists");
    let lines: Vec<&str> = history.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        ENGINES * STEPS,
        "history lost or duplicated step snapshots under concurrency"
    );
    let mut last_snapshot = 0u64;
    let mut seen_runs = std::collections::BTreeSet::new();
    for line in &lines {
        let doc = parse_doc(line);
        check_status_doc(&doc).expect("history snapshot passes the schema gate");
        let snap = snapshot_of(&doc);
        assert!(
            snap > last_snapshot,
            "snapshot counter not strictly monotone: {snap} after {last_snapshot}"
        );
        last_snapshot = snap;
        if let Some(Value::Str(run)) = doc.get("run_id") {
            seen_runs.insert(run.clone());
        }
    }
    assert_eq!(
        seen_runs.len(),
        ENGINES,
        "history must interleave snapshots from every engine"
    );

    // The live doc is the latest publication (or a later heartbeat — never
    // an earlier state).
    let live = read_doc(&status_path);
    check_status_doc(&live).expect("live status doc passes the schema gate");
    assert!(snapshot_of(&live) >= last_snapshot);

    // Heartbeat floor: an immediate tick after a fresh write is suppressed…
    let before = snapshot_of(&read_doc(&status_path));
    exporter.tick();
    assert_eq!(
        snapshot_of(&read_doc(&status_path)),
        before,
        "tick inside the heartbeat floor must not publish"
    );
    // …and one past the floor publishes exactly once, without touching the
    // per-step history series.
    let history_len_before = std::fs::read_to_string(&history_path)
        .unwrap()
        .lines()
        .count();
    std::thread::sleep(Duration::from_millis(2_100));
    exporter.tick();
    let after = snapshot_of(&read_doc(&status_path));
    assert_eq!(after, before + 1, "elapsed-floor heartbeat was lost");
    assert_eq!(
        std::fs::read_to_string(&history_path)
            .unwrap()
            .lines()
            .count(),
        history_len_before,
        "heartbeats must not pollute the step history"
    );

    std::fs::remove_dir_all(&dir).ok();
}
