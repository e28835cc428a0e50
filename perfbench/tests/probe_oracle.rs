//! Oracle tests for the timing forwarder: a run through [`Probe`] in either
//! mode must be bit-identical to the bare backend, and in trace mode every
//! circuit execution must pass through the timed `run_prepared`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use perfbench::layers;
use perfbench::probe::{BatchRecord, Interval, Mode, Probe, Recording};
use perfbench::workload::{Outcome, Rep};
use qoc_core::engine::{try_train, PruningKind, TrainConfig, TrainResult};
use qoc_core::prune::PruneConfig;
use qoc_data::tasks::Task;
use qoc_device::backend::{
    CircuitJob, DifferentiationCapability, Execution, ExecutionStats, FakeDevice, NoiselessBackend,
    PreparedCircuit, QuantumBackend,
};
use qoc_device::backends::fake_santiago;
use qoc_device::retry::JobResult;
use qoc_nn::model::QnnModel;
use qoc_sim::circuit::Circuit;
use rand::RngCore;

fn small_config(steps: usize, execution: Execution) -> TrainConfig {
    let mut c = TrainConfig::paper_default(steps);
    c.batch_size = 2;
    c.eval_every = 2;
    c.eval_examples = 4;
    c.execution = execution;
    c.pruning = PruningKind::Probabilistic(PruneConfig::paper_default());
    c.seed = 7;
    c
}

fn train_on(backend: &dyn QuantumBackend, config: &TrainConfig) -> TrainResult {
    let model = QnnModel::mnist2();
    let (train, val) = Task::Mnist2.load(3);
    try_train(&model, backend, &train, &val, config).expect("training cannot fail")
}

/// Bare vs. stamp vs. trace: identical results; in trace mode the probe saw
/// every circuit and shot the backend counted.
fn assert_probe_is_transparent(backend: &dyn QuantumBackend, config: &TrainConfig) {
    let bare = train_on(backend, config);
    let bare_stats = backend.stats();
    for mode in [Mode::Stamp, Mode::Trace] {
        let probe = Probe::new(backend, mode, 2, Instant::now());
        let probed = train_on(&probe, config);
        assert_eq!(probed, bare, "{mode:?} run differs from the bare backend");
        assert_eq!(
            probed.device_seconds.to_bits(),
            bare.device_seconds.to_bits()
        );
        assert_eq!(probe.stats(), bare_stats, "stats must be forwarded");
        let rec = probe.take();
        let jobs: u64 = rec.batches.iter().map(|b| b.jobs as u64).sum();
        assert_eq!(jobs, bare_stats.circuits_run);
        if mode == Mode::Trace {
            assert_eq!(rec.executions(), bare_stats.circuits_run);
            assert_eq!(rec.shots, bare_stats.total_shots);
        }
    }
}

#[test]
fn probe_is_transparent_on_the_noiseless_backend() {
    assert_probe_is_transparent(
        &NoiselessBackend::new(),
        &small_config(3, Execution::Shots(64)),
    );
}

#[test]
fn probe_is_transparent_on_a_fake_device() {
    assert_probe_is_transparent(
        &FakeDevice::new(fake_santiago()),
        &small_config(2, Execution::Shots(64)),
    );
}

#[test]
fn probe_forwards_the_structured_jacobian_path() {
    // Exact execution on a statevector backend auto-selects the adjoint
    // Jacobian, which only runs if the probe forwards both the capability
    // and `run_jacobian_batch`; otherwise the run would fall back to
    // shifted jobs and count different inferences.
    let inner = NoiselessBackend::new();
    let probe = Probe::new(&inner, Mode::Trace, 2, Instant::now());
    assert_eq!(
        probe.differentiation_capability(),
        DifferentiationCapability::Statevector
    );
    assert_eq!(probe.retry_policy(), inner.retry_policy());
    let config = small_config(2, Execution::Exact);
    let bare = train_on(&inner, &config);
    assert_eq!(train_on(&probe, &config), bare);
}

/// A backend that counts how often the batch runner calls its
/// `try_run_job`.
#[derive(Debug, Default)]
struct CountingBackend {
    inner: NoiselessBackend,
    try_calls: AtomicU64,
}

impl QuantumBackend for CountingBackend {
    fn name(&self) -> &str {
        "counting"
    }
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn prepare(&self, circuit: &Circuit) -> PreparedCircuit {
        self.inner.prepare(circuit)
    }
    fn run_prepared(
        &self,
        prepared: &PreparedCircuit,
        theta: &[f64],
        execution: Execution,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        self.inner.run_prepared(prepared, theta, execution, rng)
    }
    fn outcome_probabilities(&self, prepared: &PreparedCircuit, theta: &[f64]) -> Vec<f64> {
        self.inner.outcome_probabilities(prepared, theta)
    }
    fn try_run_job(&self, job: &CircuitJob<'_>, _attempt: u32) -> JobResult {
        self.try_calls.fetch_add(1, Ordering::Relaxed);
        Ok(self.run_job(job))
    }
    fn stats(&self) -> ExecutionStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[test]
fn trace_mode_does_not_forward_try_run_job() {
    let inner = CountingBackend::default();
    let config = small_config(2, Execution::Shots(32));
    let probe = Probe::new(&inner, Mode::Trace, 2, Instant::now());
    let traced = train_on(&probe, &config);
    assert_eq!(inner.try_calls.load(Ordering::Relaxed), 0);
    assert_eq!(probe.take().executions(), traced.total_inferences);

    // Stamp mode hands whole batches to the inner backend's own runner.
    let probe = Probe::new(&inner, Mode::Stamp, 2, Instant::now());
    let stamped = train_on(&probe, &config);
    assert_eq!(stamped, traced);
    assert_eq!(
        inner.try_calls.load(Ordering::Relaxed),
        stamped.total_inferences
    );
    assert_eq!(probe.take().executions(), 0);
}

#[test]
fn layer_split_subtracts_the_union_of_overlapping_jobs() {
    let span = |start, end| Interval { start, end };
    // Two workers: jobs [10,40] and [20,50] overlap, [60,70] stands alone,
    // so the 100 ns batch is covered for 50 ns.
    let batch = BatchRecord {
        span: span(0, 100),
        jobs: 3,
        job_spans: vec![span(10, 40), span(20, 50), span(60, 70)],
    };
    let eval = BatchRecord {
        span: span(150, 180),
        jobs: 1,
        job_spans: vec![span(155, 175)],
    };
    let rep = Rep {
        run_s: 200e-9,
        start_ns: 0,
        end_ns: 200,
        recording: Recording {
            batches: vec![batch, eval],
            prepares: vec![span(100, 110)],
            shots: 0,
        },
        circuits: 4,
        shots: 0,
        device_s: 0.0,
        outcome: Outcome::Sweep(Vec::new()),
    };
    let s = layers::split(&rep, Some(1));
    let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
    assert!(close(s.batch_s, 130e-9));
    assert!(close(s.fanout_self_s, 50e-9 + 10e-9));
    assert!(close(s.job_busy_s, 90e-9));
    assert!(close(s.eval_s, 30e-9));
    assert!(close(s.core_self_s(), 60e-9));
    assert_eq!(s.job_us.len(), 4);
    assert_eq!(rep.step_ms(Some(1)), vec![200e-6]);
    assert_eq!(
        layers::spans_jsonl(&rep, "run").lines().count(),
        1 + 1 + 2 + 4
    );
}
