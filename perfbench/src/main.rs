//! Benchmark entry point. Usage:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--rustc <version>] [--revision <rev>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics; the last stdout line is the result object. `run.py`
//! builds this binary and supplies the host fields.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::layers::{self, Split};
use perfbench::probe::Mode;
use perfbench::workload::{checks, run_once, Check, Outcome, Rep, Setup, Workload};
use perfbench::{median, quantile};
use qoc_bench::suite::device_for;
use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend, QuantumBackend, PAPER_SHOTS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Set-ups per run: at least `MIN_SETUPS` and `MIN_SETUP_SECONDS` of them
/// before the first timed run, then at least one and `SETUP_SLICE_SECONDS`
/// of them after each timed run (at most `MAX_SETUPS` in all); `setup_s` is
/// their median. The host has slow phases of a few seconds that raise a
/// 60 ms set-up by half or more, so the samples are spread over the whole
/// measured window, as the timed runs are.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const MIN_SETUP_SECONDS: f64 = 1.0;
const SETUP_SLICE_SECONDS: f64 = 0.5;
/// Timed runs per process at least, whatever `--seconds` says.
const MIN_REPS: usize = 2;
/// Wall budget per backend and task of the direct call-cost probes.
const PROBE_SECONDS: f64 = 0.15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rustc: String,
    revision: String,
    telemetry_leg: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        kv.insert(name, value);
    }
    let take = |k: &str| kv.get(k).cloned();
    let need = |k: &str| take(k).ok_or_else(|| format!("missing --{k}"));
    let workload_name = need("workload")?;
    let args = Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name:?}"))?,
        seed: need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")
            .map_or(Ok(10.0), |s| s.parse::<f64>())
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        out_dir: PathBuf::from(take("out-dir").unwrap_or_else(|| "perfbench-out".into())),
        rustc: take("rustc").unwrap_or_else(|| "unknown".into()),
        revision: take("revision").unwrap_or_else(|| "unknown".into()),
        telemetry_leg: take("telemetry-leg").map(PathBuf::from),
    };
    let known = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "out-dir",
        "rustc",
        "revision",
        "telemetry-leg",
    ];
    if let Some(k) = kv.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown option --{k}"));
    }
    Ok(args)
}

/// Removes every `QOC_*` variable so no ambient setting (e.g.
/// `QOC_SHOT_ALLOC=snr`) changes the workload. Runs before any library call,
/// while the process has one thread. Returns the names removed.
fn clear_qoc_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QOC_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number. JSON has no NaN or infinity; a non-finite metric is
/// written as 0 and fails the `metrics_finite` check.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Operation and check accounting for the result line.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn run(&mut self, result: &Result<Rep, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: run failed: {e}");
        }
    }

    fn checks(&mut self, checks: &[Check]) {
        for c in checks {
            self.attempted += 1;
            if !c.ok {
                self.failed += 1;
                eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
            }
        }
    }
}

/// Direct per-call costs on the workload's circuits, in µs.
struct CallCosts {
    /// `outcome_probabilities`: evolution plus readout confusion.
    evolve_us: f64,
    /// `run_prepared` at 1024 shots minus `run_prepared` exact: the cost of
    /// shot sampling alone.
    sample_us: f64,
}

/// Times public backend calls on each task's circuit with the workload's
/// parameters, cycling over validation inputs, on `workers` threads at once
/// (the concurrency the workload's jobs run at). Medians per task, averaged
/// over tasks (each task runs the same number of jobs). Fresh backends, so
/// the workload's execution counters are untouched.
fn call_costs(setup: &Setup, params: &[Vec<f64>], noisy: bool, workers: usize) -> CallCosts {
    let per_task: Vec<(f64, f64)> = setup
        .benches
        .iter()
        .zip(params)
        .map(|(b, params)| {
            let backend: Box<dyn QuantumBackend> = if noisy {
                Box::new(FakeDevice::new(device_for(b.task)))
            } else {
                Box::new(NoiselessBackend::new())
            };
            let prepared = backend.prepare(b.model.circuit());
            let thetas: Vec<Vec<f64>> = (0..b.val_set.len().min(16))
                .map(|i| b.model.symbol_vector(params, b.val_set.example(i).0))
                .collect();
            let time_calls = || {
                let mut rng = StdRng::seed_from_u64(0);
                let run = |f: &mut dyn FnMut() -> Vec<f64>| {
                    let t = Instant::now();
                    std::hint::black_box(f());
                    t.elapsed().as_secs_f64() * 1e6
                };
                let start = Instant::now();
                let mut samples = Vec::new();
                while samples.len() < 10 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
                    let theta = &thetas[samples.len() % thetas.len()];
                    let evolve = run(&mut || backend.outcome_probabilities(&prepared, theta));
                    let exact = run(&mut || {
                        backend.run_prepared(&prepared, theta, Execution::Exact, &mut rng)
                    });
                    let shots = run(&mut || {
                        let shots = Execution::Shots(PAPER_SHOTS);
                        backend.run_prepared(&prepared, theta, shots, &mut rng)
                    });
                    samples.push((evolve, shots - exact));
                }
                samples
            };
            let samples: Vec<(f64, f64)> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..workers).map(|_| scope.spawn(time_calls)).collect();
                threads
                    .into_iter()
                    .flat_map(|t| t.join().expect("call-cost probe thread panicked"))
                    .collect()
            });
            let (evolve, sample): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
            (median(&evolve), median(&sample))
        })
        .collect();
    let tasks = per_task.len() as f64;
    CallCosts {
        evolve_us: per_task.iter().map(|c| c.0).sum::<f64>() / tasks,
        sample_us: per_task.iter().map(|c| c.1).sum::<f64>() / tasks,
    }
}

/// Runs this workload in a child process with the repository's own
/// telemetry writing a JSONL trace, and returns the child's median `run_s`.
fn telemetry_leg(args: &Args, trace_path: &std::path::Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--telemetry-leg")
        .arg(trace_path)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "telemetry leg exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| "telemetry leg printed no run_s".to_string())
}

fn main() -> ExitCode {
    let cleared = clear_qoc_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    if let Some(path) = &args.telemetry_leg {
        std::env::set_var("QOC_TRACE_FILE", path);
        let setup = Setup::build(args.workload, args.seed);
        let mut run_s = Vec::new();
        for _ in 0..MIN_REPS {
            match run_once(&setup, Mode::Stamp, workers) {
                Ok(rep) => run_s.push(rep.run_s),
                Err(e) => {
                    eprintln!("perfbench: telemetry leg failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{}", median(&run_s));
        return ExitCode::SUCCESS;
    }

    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    // Builds set-ups until `min` more exist and `seconds` have passed (or
    // `MAX_SETUPS` in all), recording their times; returns the last one.
    let mut build_setups = |min: usize, seconds: f64| {
        let clock = Instant::now();
        let mut built = 0;
        let mut last = None;
        while built < min || (setup_s.len() < MAX_SETUPS && clock.elapsed().as_secs_f64() < seconds)
        {
            let s = Setup::build(args.workload, args.seed);
            setup_s.push(s.total_s);
            load_s.push(s.load_s);
            last = Some(s);
            built += 1;
        }
        last
    };
    let setup = build_setups(MIN_SETUPS, MIN_SETUP_SECONDS).expect("at least one set-up");
    let eval_examples = setup.eval_examples();

    let mut tally = Tally::default();
    let mut stamped: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let measure = Instant::now();
    while stamped.len() + traced.len() < MIN_REPS * (1 + usize::from(args.trace))
        || measure.elapsed().as_secs_f64() < args.seconds
    {
        // The traced run alternates plain and traced reps so trace
        // overhead is measured under the same conditions.
        let mode = if args.trace && stamped.len() > traced.len() {
            Mode::Trace
        } else {
            Mode::Stamp
        };
        let result = run_once(&setup, mode, workers);
        tally.run(&result);
        let Ok(rep) = result else { break };
        tally.checks(&checks(&setup, &rep, stamped.first()));
        if mode == Mode::Trace {
            traced.push(rep);
        } else {
            stamped.push(rep);
        }
        build_setups(1, SETUP_SLICE_SECONDS);
    }
    let measured_s = measure.elapsed().as_secs_f64();
    if stamped.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("perfbench: no successful run");
        return ExitCode::FAILURE;
    }
    let run_s: Vec<f64> = stamped.iter().map(|r| r.run_s).collect();
    let step_ms: Vec<Vec<f64>> = stamped.iter().map(|r| r.step_ms(eval_examples)).collect();
    let step_samples: usize = step_ms.iter().map(Vec::len).sum();
    // Step quantiles are taken per run, and the median over runs is
    // reported. Steps fall into groups of different cost (PGP's pruned and
    // full steps, the sweep's five tasks), so quantiles pooled over runs
    // would land between groups whenever the host slows down for one run.
    let step_quantile = |q: f64| {
        let per_run: Vec<f64> = step_ms.iter().map(|steps| quantile(steps, q)).collect();
        median(&per_run)
    };
    let first = &stamped[0];

    let metrics = if args.trace {
        let measured = Measured {
            setup: &setup,
            workers,
            stamped: &stamped,
            traced: &traced,
            load_s: median(&load_s),
            step_samples,
        };
        match per_layer(&args, &measured, &mut tally) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let run_med = median(&run_s);
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("run_s", run_med, "s"),
            ("circuits_per_s", first.circuits as f64 / run_med, "1/s"),
            ("step_ms_p50", step_quantile(0.5), "ms"),
            ("step_ms_p90", step_quantile(0.9), "ms"),
            ("inferences", first.inferences() as f64, "count"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    tally.checks(&[Check {
        name: "metrics_finite",
        ok: metrics.iter().all(|(_, v, _)| v.is_finite()),
        detail: format!("{metrics:?}"),
    }]);

    let json_list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
        format!("[{}]", items.join(","))
    };
    let context = [
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("workers", workers.to_string()),
        ("available_parallelism", workers.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&args.rustc)),
        ("revision", json_str(&args.revision)),
        ("cleared_env", json_str(&cleared.join(","))),
        ("setups", setup_s.len().to_string()),
        ("reps", stamped.len().to_string()),
        ("traced_reps", traced.len().to_string()),
        ("measured_s", json_num(measured_s)),
        ("rep_run_s", json_list(&run_s)),
        ("step_samples", step_samples.to_string()),
        ("val_accuracy", json_num(first.accuracy())),
        ("emulated_device_s", json_num(first.device_s)),
        ("report_dir", json_str(&args.out_dir.display().to_string())),
    ];
    let context: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"context\":{{{}}}}}", context.join(","));

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// What the measured loop of a traced run produced.
struct Measured<'a> {
    setup: &'a Setup,
    workers: usize,
    stamped: &'a [Rep],
    traced: &'a [Rep],
    load_s: f64,
    step_samples: usize,
}

type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of a traced run. Also runs the 1-worker and
/// telemetry legs and the evolution probes, checks the traced runs' count
/// identities, and writes the layer table and span file.
fn per_layer(args: &Args, m: &Measured<'_>, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (setup, workers) = (m.setup, m.workers);
    let eval_examples = setup.eval_examples();
    let first = &m.stamped[0];
    let run_med = median(&m.stamped.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_med = median(&m.traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let splits: Vec<Split> = m
        .traced
        .iter()
        .map(|r| layers::split(r, eval_examples))
        .collect();
    let med = |f: &dyn Fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let job_us: Vec<f64> = splits
        .iter()
        .flat_map(|s| s.job_us.iter().copied())
        .collect();

    for (rep, s) in m.traced.iter().zip(&splits) {
        tally.checks(&[
            Check {
                name: "forwarder_counts_match_stats",
                ok: rep.recording.executions() == rep.circuits
                    && rep.recording.shots == rep.shots
                    && s.batch_jobs == rep.circuits,
                detail: format!(
                    "forwarder {} jobs / {} shots, batches {} jobs, ExecutionStats {} / {}",
                    rep.recording.executions(),
                    rep.recording.shots,
                    s.batch_jobs,
                    rep.circuits,
                    rep.shots
                ),
            },
            Check {
                name: "job_busy_within_capacity",
                ok: s.job_busy_s <= workers as f64 * s.batch_s,
                detail: format!("busy {} s vs {workers} x {} s", s.job_busy_s, s.batch_s),
            },
        ]);
    }

    // The workload's own parameters: the trained ones, or the sweep's.
    let params = match &first.outcome {
        Outcome::Train(r) => vec![r.params.clone()],
        Outcome::Sweep(_) => setup.params.clone(),
    };
    let noise = call_costs(setup, &params, true, workers);
    let sim = call_costs(setup, &params, false, workers);
    let own = if args.workload.noisy() { &noise } else { &sim };

    let one_worker = run_once(setup, Mode::Stamp, 1);
    tally.run(&one_worker);
    let scaling = match &one_worker {
        Ok(rep) => {
            tally.checks(&checks(setup, rep, Some(first)));
            rep.run_s / (workers as f64 * run_med)
        }
        Err(_) => 0.0,
    };

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let stem = args.workload.name();
    tally.attempted += 1;
    let telemetry_overhead =
        match telemetry_leg(args, &args.out_dir.join(format!("{stem}.qoc-trace.jsonl"))) {
            Ok(t) => t / run_med - 1.0,
            Err(e) => {
                tally.failed += 1;
                eprintln!("perfbench: {e}");
                0.0
            }
        };

    let kept_ratio = match (&first.outcome, setup.config) {
        (Outcome::Train(r), Some(c)) => {
            let n = setup.benches[0].model.num_params();
            r.steps.iter().map(|s| s.evaluated_params).sum::<usize>() as f64 / (c.steps * n) as f64
        }
        _ => 0.0,
    };

    let run_name = if args.workload.trains() {
        "core.train"
    } else {
        "core.eval_sweep"
    };
    let last = splits.last().expect("traced runs are non-empty");
    let table = format!(
        "{}per job, probed at the same concurrency: evolution {:.1} us, shot sampling {:.1} us\n",
        layers::table(run_name, last, workers),
        own.evolve_us,
        own.sample_us
    );
    eprint!("{table}");
    std::fs::write(args.out_dir.join(format!("{stem}.layers.txt")), &table)
        .and_then(|()| {
            std::fs::write(
                args.out_dir.join(format!("{stem}.spans.jsonl")),
                layers::spans_jsonl(m.traced.last().expect("non-empty"), run_name),
            )
        })
        .map_err(|e| format!("cannot write the trace report: {e}"))?;

    Ok(vec![
        ("data.load_s", m.load_s, "s"),
        (
            "device.prepare_calls",
            splits[0].prepare_calls as f64,
            "count",
        ),
        ("device.prepare_ms", med(&|s| s.prepare_s) * 1e3, "ms"),
        ("device.batch_calls", splits[0].batch_calls as f64, "count"),
        ("device.batch_jobs", splits[0].batch_jobs as f64, "count"),
        ("device.batch_s", med(&|s| s.batch_s), "s"),
        ("device.batch_share", med(&|s| s.batch_s / s.run_s), "ratio"),
        (
            "device.batch_util",
            med(&|s| s.job_busy_s / (workers as f64 * s.batch_s)),
            "ratio",
        ),
        ("device.fanout_self_s", med(&|s| s.fanout_self_s), "s"),
        ("device.worker_scaling", scaling, "ratio"),
        ("device.job_us_p50", quantile(&job_us, 0.5), "us"),
        ("device.job_us_p99", quantile(&job_us, 0.99), "us"),
        ("device.job_busy_s", med(&|s| s.job_busy_s), "s"),
        (
            "device.circuits",
            m.traced[0].recording.executions() as f64,
            "count",
        ),
        ("device.shots", m.traced[0].recording.shots as f64, "count"),
        ("device.emulated_s", first.device_s, "s"),
        ("noise.evolve_us", noise.evolve_us, "us"),
        ("sim.evolve_us", sim.evolve_us, "us"),
        ("readout.sample_us", own.sample_us, "us"),
        ("core.self_s", med(&Split::core_self_s), "s"),
        ("core.eval_s", med(&|s| s.eval_s), "s"),
        ("core.step_samples", m.step_samples as f64, "count"),
        ("prune.kept_ratio", kept_ratio, "ratio"),
        ("quality.val_accuracy", first.accuracy(), "fraction"),
        ("trace.overhead", traced_med / run_med - 1.0, "ratio"),
        ("telemetry.on_overhead", telemetry_overhead, "ratio"),
    ])
}
