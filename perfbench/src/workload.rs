//! The three benchmark workloads: inputs, one timed run, and output checks.
//!
//! Every workload is a closed loop with one client: the training (or
//! evaluation) loop submits a batch, waits for it, and only then builds the
//! next one. The seed given on the command line generates the data and seeds
//! training; the library sees only the generated inputs and the config.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use qoc_bench::suite::{device_for, model_for, pgp_config_for, TaskBench};
use qoc_core::engine::{try_train, PruningKind, TrainConfig, TrainResult};
use qoc_core::eval::evaluate_with_params;
use qoc_data::tasks::Task;
use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend, QuantumBackend, PAPER_SHOTS};

use crate::probe::{Mode, Probe, Recording};

/// Optimizer steps of the PGP run (the 2-class budget of `TaskBench::config`).
/// At 20 steps the final accuracy came within 0.04 of chance on one seed in
/// 30; at 42 it was at least 0.76 on each of 40 seeds. At 42 the window
/// pattern (one full step, two pruned) and evaluation every 7th step leave 24
/// pruned steps without an evaluation batch, over half of all steps, so
/// `step_ms_p50` falls inside that group. At 40 steps the group is exactly
/// half, and p50 fell in the gap between it and the steps costing twice as
/// much.
const PGP_STEPS: usize = 42;
/// `TaskBench::config` budget for the 4-class classical run; it doubles this
/// for 4-class tasks, giving 80 steps of batch 16.
const CLASSICAL_STEPS: usize = 40;
/// `TaskBench::config` budget of the exact noiseless pre-training that gives
/// the evaluation sweep its parameters (doubled for 4-class tasks). At 15
/// steps MNIST-2 stayed at or below chance on a few seeds in 60 (e.g. seed
/// 1409534976: 0.49); at 60 steps the 2-class tasks reached at least 0.83 on
/// each of 150 seeds. Exact training is cheap, about 0.25 s per task.
const PRETRAIN_STEPS: usize = 60;
/// The five paper tasks, each evaluated on its Table 1 device.
const SWEEP_TASKS: [Task; 5] = [
    Task::Mnist2,
    Task::Mnist4,
    Task::Fashion2,
    Task::Fashion4,
    Task::Vowel4,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QC-Train-PGP on MNIST-2 on emulated ibmq_jakarta, 1024 shots.
    PgpMnist2Jakarta,
    /// Classical-Train on MNIST-4 on the noiseless backend, 1024 shots.
    ClassicalMnist4Shots,
    /// Forward-only evaluation of all five validation splits on their
    /// paper devices, with classically pre-trained parameters.
    EvalSweepPaperDevices,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PgpMnist2Jakarta,
        Workload::ClassicalMnist4Shots,
        Workload::EvalSweepPaperDevices,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PgpMnist2Jakarta => "pgp_mnist2_jakarta",
            Workload::ClassicalMnist4Shots => "classical_mnist4_shots",
            Workload::EvalSweepPaperDevices => "eval_sweep_paper_devices",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run is a training loop (has steps and a pruner).
    pub fn trains(self) -> bool {
        self != Workload::EvalSweepPaperDevices
    }

    /// Whether circuits run on an emulated noisy device.
    pub fn noisy(self) -> bool {
        self != Workload::ClassicalMnist4Shots
    }

    /// The tasks the workload touches.
    pub fn tasks(self) -> &'static [Task] {
        match self {
            Workload::PgpMnist2Jakarta => &[Task::Mnist2],
            Workload::ClassicalMnist4Shots => &[Task::Mnist4],
            Workload::EvalSweepPaperDevices => &SWEEP_TASKS,
        }
    }
}

/// Everything built before the first timed call.
#[derive(Debug)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// One experiment context per task.
    pub benches: Vec<TaskBench>,
    /// Evaluation-sweep parameters per task (empty for training workloads).
    pub params: Vec<Vec<f64>>,
    /// Training config (training workloads).
    pub config: Option<TrainConfig>,
    /// Seed of the run.
    pub seed: u64,
    /// Wall seconds spent generating data (`Task::load`).
    pub load_s: f64,
    /// Wall seconds of the whole set-up.
    pub total_s: f64,
}

impl Setup {
    /// Generates the data, builds models and devices, and pre-trains where
    /// the workload needs it.
    pub fn build(workload: Workload, seed: u64) -> Setup {
        let start = Instant::now();
        let mut load_s = 0.0;
        let benches: Vec<TaskBench> = workload
            .tasks()
            .iter()
            .map(|&task| {
                let load = Instant::now();
                let (train_set, val_set) = task.load(seed);
                load_s += load.elapsed().as_secs_f64();
                TaskBench {
                    task,
                    model: model_for(task),
                    device: FakeDevice::new(device_for(task)),
                    simulator: NoiselessBackend::new(),
                    train_set,
                    val_set,
                }
            })
            .collect();
        let (config, params) = match workload {
            Workload::PgpMnist2Jakarta => {
                let mut c = benches[0].config(PGP_STEPS, seed);
                c.pruning = PruningKind::Probabilistic(pgp_config_for(benches[0].task));
                (Some(c), Vec::new())
            }
            Workload::ClassicalMnist4Shots => {
                (Some(benches[0].config(CLASSICAL_STEPS, seed)), Vec::new())
            }
            Workload::EvalSweepPaperDevices => {
                let params = benches
                    .iter()
                    .map(|b| {
                        let mut c = b.config(PRETRAIN_STEPS, seed);
                        c.execution = Execution::Exact;
                        try_train(&b.model, &b.simulator, &b.train_set, &b.val_set, &c)
                            .expect("noiseless pre-training cannot fail")
                            .params
                    })
                    .collect();
                (None, params)
            }
        };
        Setup {
            workload,
            benches,
            params,
            config,
            seed,
            load_s,
            total_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The backend the timed run executes on for task `i`.
    pub fn backend(&self, i: usize) -> &dyn QuantumBackend {
        match self.workload {
            Workload::ClassicalMnist4Shots => &self.benches[i].simulator,
            _ => &self.benches[i].device,
        }
    }

    /// Jobs per in-training evaluation batch (the validation examples it
    /// scores); `None` for the sweep, where every batch is an evaluation.
    pub fn eval_examples(&self) -> Option<usize> {
        self.config
            .map(|c| c.eval_examples.min(self.benches[0].val_set.len()))
    }
}

/// What a timed run computed: the part that must repeat bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A training run's full result.
    Train(TrainResult),
    /// Per-task accuracy and predictions of the evaluation sweep.
    Sweep(Vec<(f64, Vec<usize>)>),
}

/// One timed run.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds from the first library call to its return.
    pub run_s: f64,
    /// Probe-clock start and end of the run, ns.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// What the probes recorded (all devices of the run, one clock).
    pub recording: Recording,
    /// Circuits executed, per `ExecutionStats`.
    pub circuits: u64,
    /// Shots fired, per `ExecutionStats`.
    pub shots: u64,
    /// Emulated on-device seconds, per `ExecutionStats`.
    pub device_s: f64,
    /// The computed result.
    pub outcome: Outcome,
}

impl Rep {
    /// Final validation accuracy (mean over tasks for the sweep).
    pub fn accuracy(&self) -> f64 {
        match &self.outcome {
            Outcome::Train(r) => r.evals.last().map_or(0.0, |e| e.accuracy),
            Outcome::Sweep(tasks) => tasks.iter().map(|(a, _)| a).sum::<f64>() / tasks.len() as f64,
        }
    }

    /// Circuit executions the run reports ("inferences").
    pub fn inferences(&self) -> u64 {
        match &self.outcome {
            Outcome::Train(r) => r.total_inferences,
            Outcome::Sweep(_) => self.circuits,
        }
    }

    /// Per-step latencies in ms. A step runs from the start of one gradient
    /// batch to the start of the next (the last one to the end of the run),
    /// so it includes any evaluation batch in it. In the sweep every batch
    /// (one task's validation split) is a step.
    pub fn step_ms(&self, eval: Option<usize>) -> Vec<f64> {
        let starts: Vec<u64> = self
            .recording
            .batches
            .iter()
            .filter(|b| Some(b.jobs) != eval)
            .map(|b| b.span.start)
            .chain(std::iter::once(self.end_ns))
            .collect();
        starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }
}

/// Runs the workload once through probes in `mode`, fanning batches out
/// over `workers` threads. `Err` carries the library's error or panic text.
pub fn run_once(setup: &Setup, mode: Mode, workers: usize) -> Result<Rep, String> {
    let epoch = Instant::now();
    let probes: Vec<Probe<'_>> = (0..setup.benches.len())
        .map(|i| Probe::new(setup.backend(i), mode, workers, epoch))
        .collect();
    let clock = || epoch.elapsed().as_nanos() as u64;
    let start_ns = clock();
    let outcome = match setup.config {
        Some(config) => {
            let b = &setup.benches[0];
            try_train(&b.model, &probes[0], &b.train_set, &b.val_set, &config)
                .map(Outcome::Train)
                .map_err(|e| e.to_string())?
        }
        None => {
            for p in &probes {
                p.reset_stats();
            }
            let sweep = catch_unwind(AssertUnwindSafe(|| {
                setup
                    .benches
                    .iter()
                    .zip(&setup.params)
                    .zip(&probes)
                    .map(|((b, params), probe)| {
                        let r = evaluate_with_params(
                            &b.model,
                            probe,
                            params,
                            &b.val_set,
                            Execution::Shots(PAPER_SHOTS),
                            setup.seed,
                        );
                        (r.accuracy, r.predictions)
                    })
                    .collect()
            }))
            .map_err(|p| panic_text(&*p))?;
            Outcome::Sweep(sweep)
        }
    };
    let end_ns = clock();
    let mut recording = Recording::default();
    let (mut circuits, mut shots, mut device_s) = (0, 0, 0.0);
    for p in &probes {
        let r = p.take();
        recording.batches.extend(r.batches);
        recording.prepares.extend(r.prepares);
        recording.shots += r.shots;
        let s = p.stats();
        circuits += s.circuits_run;
        shots += s.total_shots;
        device_s += s.estimated_device_seconds;
    }
    Ok(Rep {
        run_s: (end_ns - start_ns) as f64 / 1e9,
        start_ns,
        end_ns,
        recording,
        circuits,
        shots,
        device_s,
        outcome,
    })
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// A named pass/fail output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Expected vs. observed, for the failure message.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// The `evaluated_params` sequence the config's pruner must produce: all
/// `n` parameters, or under PGP all of them in each accumulation step and
/// `⌈(1−r)·n⌉` in each pruning step.
pub fn expected_kept(config: &TrainConfig, n: usize) -> Vec<usize> {
    (0..config.steps)
        .map(|s| match config.pruning {
            PruningKind::Probabilistic(p) | PruningKind::Deterministic(p) => {
                let cycle = p.accumulation_window + p.pruning_window;
                if s % cycle < p.accumulation_window {
                    n
                } else {
                    (((1.0 - p.ratio) * n as f64).ceil() as usize).clamp(1, n)
                }
            }
            PruningKind::None => n,
        })
        .collect()
}

/// The output checks of one run. `reference` is the first run of the
/// process: every later run (either probe mode) must reproduce it exactly.
pub fn checks(setup: &Setup, rep: &Rep, reference: Option<&Rep>) -> Vec<Check> {
    let mut out = Vec::new();
    let batch_jobs: u64 = rep.recording.batches.iter().map(|b| b.jobs as u64).sum();
    out.push(check(
        "job_count_identity",
        batch_jobs == rep.circuits && rep.circuits == rep.inferences(),
        format!(
            "batch jobs {batch_jobs}, ExecutionStats {}, inferences {}",
            rep.circuits,
            rep.inferences()
        ),
    ));
    let accuracies: Vec<f64> = match &rep.outcome {
        Outcome::Train(r) => r.evals.iter().map(|e| e.accuracy).collect(),
        Outcome::Sweep(tasks) => tasks.iter().map(|(a, _)| *a).collect(),
    };
    out.push(check(
        "accuracy_in_unit_interval",
        accuracies.iter().all(|a| (0.0..=1.0).contains(a)),
        format!("{accuracies:?}"),
    ));
    match &rep.outcome {
        Outcome::Train(r) => {
            let config = setup.config.expect("training workloads have a config");
            let bench = &setup.benches[0];
            let n = bench.model.num_params();
            let kept: Vec<usize> = r.steps.iter().map(|s| s.evaluated_params).collect();
            let expected = expected_kept(&config, n);
            out.push(check(
                "prune_window_pattern",
                kept == expected,
                format!("expected {expected:?}, got {kept:?}"),
            ));
            let b = config.batch_size as u64;
            let closed_form: u64 = kept.iter().map(|&k| b * (1 + 2 * k as u64)).sum::<u64>()
                + (r.evals.len() * setup.eval_examples().expect("training has eval batches"))
                    as u64;
            out.push(check(
                "inferences_closed_form",
                r.total_inferences == closed_form,
                format!("closed form {closed_form}, reported {}", r.total_inferences),
            ));
            let final_acc = r.evals.last().map_or(0.0, |e| e.accuracy);
            out.push(check(
                "two_class_above_chance",
                bench.task.num_classes() != 2 || final_acc > 0.5,
                format!("final accuracy {final_acc}"),
            ));
        }
        Outcome::Sweep(tasks) => {
            let closed_form: u64 = setup.benches.iter().map(|b| b.val_set.len() as u64).sum();
            out.push(check(
                "inferences_closed_form",
                rep.inferences() == closed_form,
                format!("closed form {closed_form}, reported {}", rep.inferences()),
            ));
            let below: Vec<(&str, f64)> = setup
                .benches
                .iter()
                .zip(tasks)
                .filter(|(b, (acc, _))| b.task.num_classes() == 2 && *acc <= 0.5)
                .map(|(b, (acc, _))| (b.task.name(), *acc))
                .collect();
            out.push(check(
                "two_class_above_chance",
                below.is_empty(),
                format!("at or below chance: {below:?}"),
            ));
        }
    }
    if let Some(first) = reference {
        out.push(check(
            "bit_identical_repeat",
            rep.outcome == first.outcome
                && rep.device_s.to_bits() == first.device_s.to_bits()
                && rep.shots == first.shots,
            "a repeated run differs from the first".to_string(),
        ));
    }
    out
}
