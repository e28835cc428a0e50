//! A forwarding [`QuantumBackend`] that times the backend boundary.
//!
//! [`Probe`] wraps any backend and runs in one of two modes:
//!
//! - [`Mode::Stamp`] (the end-to-end run): every batch is forwarded whole to
//!   the inner backend's own fan-out; the probe reads the clock once per
//!   `run_batch` call and keeps the job count. No per-job work is added.
//! - [`Mode::Trace`] (the per-layer run): batches go through the trait's
//!   default fan-out on the probe itself, which calls the probe's
//!   `run_prepared` for every job, so each job is timed. `prepare` is timed
//!   in both modes (it is rare: once per circuit and shifted variant).
//!
//! `try_run_job`, `run_job` and `run_batch_workers` are deliberately *not*
//! forwarded: in trace mode every execution must pass through the timed
//! [`QuantumBackend::run_prepared`]. Everything that changes what the engine
//! computes (`differentiation_capability`, `run_jacobian_batch`,
//! `retry_policy`) and the execution counters (`stats`, `reset_stats`) are
//! forwarded, so a run through the probe is bit-identical to a bare run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qoc_device::backend::{
    CircuitJob, DifferentiationCapability, Execution, ExecutionStats, JacobianBatch,
    PreparedCircuit, QuantumBackend,
};
use qoc_device::retry::{BatchResult, RetryPolicy};
use qoc_sim::circuit::Circuit;
use rand::RngCore;

/// How much the probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One clock read per batch; batches run on the inner backend's fan-out.
    Stamp,
    /// Batch, job and prepare spans; batches fan out over the probe.
    Trace,
}

/// A closed interval on the probe's clock, in nanoseconds since its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns since the probe epoch.
    pub start: u64,
    /// End, ns since the probe epoch.
    pub end: u64,
}

impl Interval {
    /// Length in nanoseconds.
    pub fn nanos(self) -> u64 {
        self.end - self.start
    }
}

/// One `run_batch` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// When the batch ran. Stamp mode reads the clock once, so there
    /// `end == start`.
    pub span: Interval,
    /// Number of jobs submitted.
    pub jobs: usize,
    /// When each of the batch's jobs ran, in completion order (trace mode
    /// only).
    pub job_spans: Vec<Interval>,
}

/// Everything one run through the probe recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recording {
    /// Every `run_batch` call, in call order.
    pub batches: Vec<BatchRecord>,
    /// Every `prepare` call, in call order.
    pub prepares: Vec<Interval>,
    /// Shots requested through `run_prepared` (trace mode).
    pub shots: u64,
}

impl Recording {
    /// Circuits executed through `run_prepared` (trace mode).
    pub fn executions(&self) -> u64 {
        self.batches.iter().map(|b| b.job_spans.len() as u64).sum()
    }
}

/// The timing forwarder. See the module docs.
#[derive(Debug)]
pub struct Probe<'a> {
    inner: &'a dyn QuantumBackend,
    mode: Mode,
    workers: usize,
    epoch: Instant,
    recording: Mutex<Recording>,
    jobs: Mutex<Vec<Interval>>,
    shots: AtomicU64,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`; batches fan out over exactly `workers` threads.
    /// Stamps are nanoseconds since `epoch`, so probes over several
    /// backends of one run share a clock.
    pub fn new(inner: &'a dyn QuantumBackend, mode: Mode, workers: usize, epoch: Instant) -> Self {
        Probe {
            inner,
            mode,
            workers: workers.max(1),
            epoch,
            recording: Mutex::new(Recording::default()),
            jobs: Mutex::new(Vec::new()),
            shots: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the probe's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Takes what has been recorded so far and starts a fresh recording.
    pub fn take(&self) -> Recording {
        let mut rec = std::mem::take(&mut *self.record());
        rec.shots = self.shots.swap(0, Ordering::Relaxed);
        rec
    }

    fn record(&self) -> std::sync::MutexGuard<'_, Recording> {
        self.recording.lock().expect("probe recording poisoned")
    }
}

impl QuantumBackend for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn prepare(&self, circuit: &Circuit) -> PreparedCircuit {
        let start = self.now();
        let prepared = self.inner.prepare(circuit);
        let end = self.now();
        self.record().prepares.push(Interval { start, end });
        prepared
    }

    fn run_prepared(
        &self,
        prepared: &PreparedCircuit,
        theta: &[f64],
        execution: Execution,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        let start = self.now();
        let out = self.inner.run_prepared(prepared, theta, execution, rng);
        let end = self.now();
        self.jobs
            .lock()
            .expect("probe job log poisoned")
            .push(Interval { start, end });
        if let Execution::Shots(s) = execution {
            self.shots.fetch_add(u64::from(s), Ordering::Relaxed);
        }
        out
    }

    fn outcome_probabilities(&self, prepared: &PreparedCircuit, theta: &[f64]) -> Vec<f64> {
        self.inner.outcome_probabilities(prepared, theta)
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    fn run_batch(&self, jobs: &[CircuitJob<'_>]) -> BatchResult {
        let start = self.now();
        let (result, end, job_spans) = match self.mode {
            Mode::Stamp => (
                self.inner.run_batch_workers(jobs, self.workers),
                start,
                Vec::new(),
            ),
            Mode::Trace => {
                // The trait's default fan-out, running on the probe: every
                // job reaches `self.run_prepared`.
                let result = self.run_batch_workers(jobs, self.workers);
                let end = self.now();
                let spans = std::mem::take(&mut *self.jobs.lock().expect("probe job log poisoned"));
                (result, end, spans)
            }
        };
        self.record().batches.push(BatchRecord {
            span: Interval { start, end },
            jobs: jobs.len(),
            job_spans,
        });
        result
    }

    fn differentiation_capability(&self) -> DifferentiationCapability {
        self.inner.differentiation_capability()
    }

    fn run_jacobian_batch(&self, batch: &JacobianBatch<'_>) -> Option<Vec<Vec<f64>>> {
        self.inner.run_jacobian_batch(batch)
    }

    fn stats(&self) -> ExecutionStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}
