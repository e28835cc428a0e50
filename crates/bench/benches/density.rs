//! Noisy density-matrix simulation cost — the dominant expense of every
//! emulated device execution (and hence of on-chip training experiments).
//!
//! The `density/kraus_2q` and `density/thermal_1q_on_4q` rows time the
//! reference Kraus interpreter's primitives; the `density/device_run` rows
//! time one 1024-shot job on the emulated device, which runs the circuit
//! compiled into superoperator kernels at preparation. The
//! `readout/sample_counts/16x1024` row times the shot sampler alone: 1024
//! shots from the 16-outcome distribution of the MNIST-4 circuit on jakarta.
//! Run with `cargo bench -p qoc-bench --bench density`; the rows are dumped
//! to `BENCH_density.json`, whose `density/device_run/mnist2_jakarta` and
//! `readout/sample_counts/16x1024` rows `bench_smoke` gates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use qoc_device::backend::{Execution, FakeDevice, QuantumBackend};
use qoc_device::backends::{fake_jakarta, fake_santiago};
use qoc_nn::model::QnnModel;
use qoc_noise::channels::{depolarizing_2q, thermal_relaxation};
use qoc_noise::density::DensityMatrix;
use qoc_sim::gates::GateKind;
use qoc_sim::statevector::sample_counts_from_probabilities;

fn bench_kraus_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("density/kraus_2q");
    for n in [2usize, 4, 6] {
        let channel = depolarizing_2q(0.01);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rho = DensityMatrix::zero_state(n);
            rho.apply_unitary(&GateKind::H.matrix(&[]), &[0]);
            b.iter(|| {
                rho.apply_kraus(&channel, &[0, n - 1]);
                std::hint::black_box(rho.trace());
            })
        });
    }
    group.finish();
}

fn bench_thermal_channel(c: &mut Criterion) {
    let channel = thermal_relaxation(120.0, 80.0, 300.0);
    c.bench_function("density/thermal_1q_on_4q", |b| {
        let mut rho = DensityMatrix::zero_state(4);
        rho.apply_unitary(&GateKind::H.matrix(&[]), &[2]);
        b.iter(|| {
            rho.apply_kraus(&channel, &[2]);
            std::hint::black_box(rho.trace());
        })
    });
}

fn bench_device_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("density/device_run");
    group.sample_size(20);
    for (name, desc, model) in [
        ("mnist2_santiago", fake_santiago(), QnnModel::mnist2()),
        ("mnist2_jakarta", fake_jakarta(), QnnModel::mnist2()),
        ("mnist4_jakarta", fake_jakarta(), QnnModel::mnist4()),
    ] {
        let device = FakeDevice::new(desc);
        let prepared = device.prepare(model.circuit());
        let theta = model.symbol_vector(
            &vec![0.2; model.num_params()],
            &vec![0.7; model.input_dim()],
        );
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(device.run_prepared(
                    &prepared,
                    &theta,
                    Execution::Shots(1024),
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

fn bench_sample_counts(c: &mut Criterion) {
    let model = QnnModel::mnist4();
    let device = FakeDevice::new(fake_jakarta());
    let prepared = device.prepare(model.circuit());
    let theta = model.symbol_vector(
        &vec![0.2; model.num_params()],
        &vec![0.7; model.input_dim()],
    );
    let probs = device.outcome_probabilities(&prepared, &theta);
    assert_eq!(probs.len(), 16);
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("readout/sample_counts/16x1024", |b| {
        b.iter(|| std::hint::black_box(sample_counts_from_probabilities(&probs, 1024, &mut rng)))
    });
}

fn dump_artifact(c: &mut Criterion) {
    let mut rows: Vec<qoc_bench::suite::Measurement> = c
        .take_results()
        .iter()
        .map(|r| qoc_bench::suite::Measurement {
            label: r.id.clone(),
            values: vec![
                ("median_ns".into(), r.median_ns),
                ("mean_ns".into(), r.mean_ns),
                ("min_ns".into(), r.min_ns),
                ("samples".into(), r.samples as f64),
            ],
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    rows.push(qoc_bench::suite::Measurement {
        label: "host".into(),
        values: vec![("available_parallelism".into(), cores as f64)],
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_density.json");
    if let Ok(body) = serde_json::to_string_pretty(&rows) {
        if std::fs::write(path, &body).is_ok() {
            println!("wrote BENCH_density.json ({} entries)", rows.len());
        }
    }
}

criterion_group!(
    benches,
    bench_kraus_application,
    bench_thermal_channel,
    bench_device_execution,
    bench_sample_counts,
    dump_artifact
);
criterion_main!(benches);
