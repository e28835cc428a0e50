//! Device-level equivalence of the compiled noisy path: for the five paper
//! models on the four paper devices, [`FakeDevice`] (which executes a
//! compiled `NoisyProgram`) must reproduce the Kraus-interpreter oracle run
//! on the same compact circuit and noise model — outcome distributions to
//! 1e-12, and seeded 1024-shot jobs bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qoc_device::backend::{Execution, FakeDevice, QuantumBackend};
use qoc_device::backends::{fake_jakarta, fake_lima, fake_manila, fake_santiago};
use qoc_device::{CompactCircuit, DeviceDescription};
use qoc_nn::model::QnnModel;
use qoc_noise::sim::NoisyDensitySimulator;
use qoc_sim::statevector::expectation_z_from_counts;

fn paper_models() -> Vec<(&'static str, QnnModel)> {
    vec![
        ("mnist2", QnnModel::mnist2()),
        ("mnist4", QnnModel::mnist4()),
        ("fashion2", QnnModel::fashion2()),
        ("fashion4", QnnModel::fashion4()),
        ("vowel4", QnnModel::vowel4()),
    ]
}

fn paper_devices() -> Vec<DeviceDescription> {
    vec![fake_jakarta(), fake_santiago(), fake_lima(), fake_manila()]
}

/// A random weight vector and input for `model`, bound into its symbols.
fn binding(model: &QnnModel, rng: &mut StdRng) -> Vec<f64> {
    let params: Vec<f64> = (0..model.num_params())
        .map(|_| rng.gen_range(-3.2..3.2))
        .collect();
    let input: Vec<f64> = (0..model.input_dim())
        .map(|_| rng.gen_range(-3.2..3.2))
        .collect();
    model.symbol_vector(&params, &input)
}

/// The oracle's distribution over logical bitstrings: the Kraus interpreter
/// on the compact circuit, marginalized onto the logical readout wires.
fn oracle_probabilities(compact: &CompactCircuit, theta: &[f64]) -> Vec<f64> {
    let sim = NoisyDensitySimulator::new(compact.noise.clone());
    let physical = sim.outcome_probabilities(&compact.circuit, theta);
    let mut out = vec![0.0; 1 << compact.logical_readout.len()];
    for (s, p) in physical.iter().enumerate() {
        let idx = compact
            .logical_readout
            .iter()
            .enumerate()
            .filter(|&(_, &w)| (s >> w) & 1 == 1)
            .fold(0usize, |acc, (l, _)| acc | (1 << l));
        out[idx] += p;
    }
    out
}

#[test]
fn outcome_probabilities_match_the_kraus_oracle() {
    let mut rng = StdRng::seed_from_u64(2022);
    for desc in paper_devices() {
        let device = FakeDevice::new(desc);
        for (name, model) in paper_models() {
            let prepared = device.prepare(model.circuit());
            let compact = device.compact(model.circuit());
            for _ in 0..2 {
                let theta = binding(&model, &mut rng);
                let got = device.outcome_probabilities(&prepared, &theta);
                let want = oracle_probabilities(&compact, &theta);
                let diff = got
                    .iter()
                    .zip(&want)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    diff <= 1e-12,
                    "{name} on {}: probabilities differ by {diff:e}",
                    device.name()
                );
            }
        }
    }
}

#[test]
fn seeded_shot_jobs_are_bit_identical_to_sampling_the_oracle() {
    const SEEDS: [u64; 6] = [0, 1, 7, 42, 0x5eed, 0xA5A5_A5A5];
    let mut rng = StdRng::seed_from_u64(13);
    for desc in paper_devices() {
        let device = FakeDevice::new(desc);
        for (name, model) in paper_models() {
            let prepared = device.prepare(model.circuit());
            let compact = device.compact(model.circuit());
            let sim = NoisyDensitySimulator::new(compact.noise.clone());
            let theta = binding(&model, &mut rng);
            let probs = sim.outcome_probabilities(&compact.circuit, &theta);
            for seed in SEEDS {
                let got = device.run_prepared(
                    &prepared,
                    &theta,
                    Execution::Shots(1024),
                    &mut StdRng::seed_from_u64(seed),
                );
                let counts = qoc_noise::density::sample_from_probabilities(
                    &probs,
                    1024,
                    &mut StdRng::seed_from_u64(seed),
                );
                let physical =
                    expectation_z_from_counts(&counts, compact.circuit.num_qubits(), 1024);
                let want: Vec<f64> = compact
                    .logical_readout
                    .iter()
                    .map(|&w| physical[w])
                    .collect();
                assert_eq!(got, want, "{name} on {} seed {seed}", device.name());
            }
        }
    }
}
