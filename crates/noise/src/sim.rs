//! Noisy circuit execution on the density-matrix backend.

use rand::Rng;

use qoc_sim::circuit::Circuit;
use qoc_sim::kernels::Kernel;
use qoc_sim::statevector::{
    expectation_z_from_dense_counts, sample_dense_counts_from_probabilities,
};

use crate::density::DensityMatrix;
use crate::model::{GateNoise, NoiseModel, NoiseOpKind, WireSelect};
use crate::readout::apply_confusion;

/// Applies one noise entry after a gate on `gate_wires`.
pub(crate) fn apply_noise(rho: &mut DensityMatrix, noise: &GateNoise, gate_wires: &[usize]) {
    let single;
    let wires: &[usize] = match noise.wires {
        WireSelect::Gate => gate_wires,
        WireSelect::Wire(i) => {
            single = [gate_wires[i]];
            &single
        }
    };
    match &noise.kind {
        NoiseOpKind::Kraus(channel) => rho.apply_kraus(channel, wires),
        NoiseOpKind::Depolarizing(p) => rho.apply_depolarizing(*p, wires),
    }
}

/// Per-qubit Z expectations of a `2ⁿ`-entry outcome distribution.
pub(crate) fn expectations_from_probabilities(probs: &[f64], num_qubits: usize) -> Vec<f64> {
    let mut ez = vec![0.0; num_qubits];
    for (i, p) in probs.iter().enumerate() {
        for (q, e) in ez.iter_mut().enumerate() {
            if i & (1 << q) == 0 {
                *e += p;
            } else {
                *e -= p;
            }
        }
    }
    ez
}

/// Exact noisy simulator: unitary gates interleaved with the noise model's
/// Kraus channels, readout confusion on the final distribution, and optional
/// finite-shot sampling.
///
/// This interpreter is the reference semantics of device noise. Emulated
/// devices execute the same circuit and model compiled into a
/// [`NoisyProgram`](crate::program::NoisyProgram), which the equivalence
/// tests hold to this simulator within 1e-12.
///
/// # Examples
///
/// ```
/// use qoc_sim::circuit::Circuit;
/// use qoc_noise::model::NoiseModel;
/// use qoc_noise::sim::NoisyDensitySimulator;
///
/// let mut c = Circuit::new(2);
/// c.h(0);
/// c.cx(0, 1);
/// let sim = NoisyDensitySimulator::new(NoiseModel::ideal(2));
/// let ez = sim.expectations_z(&c, &[]);
/// assert!(ez[0].abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyDensitySimulator {
    noise: NoiseModel,
}

impl NoisyDensitySimulator {
    /// Creates a simulator carrying a noise model.
    pub fn new(noise: NoiseModel) -> Self {
        NoisyDensitySimulator { noise }
    }

    /// The attached noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Evolves `|0…0⟩⟨0…0|` through the circuit with interleaved noise.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the noise model.
    pub fn run(&self, circuit: &Circuit, theta: &[f64]) -> DensityMatrix {
        assert!(
            circuit.num_qubits() <= self.noise.num_qubits(),
            "circuit ({}) wider than noise model ({})",
            circuit.num_qubits(),
            self.noise.num_qubits()
        );
        let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
        for op in circuit.ops() {
            // Specialized kernels instead of dense UρU† conjugation, one op
            // and one channel at a time: this is the reference path. Fusing
            // gates with their channels (and runs of 1q ops) is what
            // `NoisyProgram` compiles.
            rho.apply_kernel(&Kernel::from_operation(op, theta));
            match op.qubits.len() {
                1 => {
                    for noise in self.noise.one_qubit_noise(op.qubits[0]) {
                        apply_noise(&mut rho, noise, &op.qubits);
                    }
                }
                2 => {
                    for noise in self.noise.two_qubit_noise(op.qubits[0], op.qubits[1]) {
                        apply_noise(&mut rho, noise, &op.qubits);
                    }
                }
                _ => {}
            }
        }
        rho
    }

    /// The measurement distribution after gate noise *and* readout error.
    pub fn outcome_probabilities(&self, circuit: &Circuit, theta: &[f64]) -> Vec<f64> {
        let rho = self.run(circuit, theta);
        let mut probs = rho.probabilities();
        apply_confusion(&mut probs, &self.noise.readout()[..circuit.num_qubits()]);
        probs
    }

    /// Exact (infinite-shot) per-qubit Z expectations including readout
    /// error.
    pub fn expectations_z(&self, circuit: &Circuit, theta: &[f64]) -> Vec<f64> {
        let probs = self.outcome_probabilities(circuit, theta);
        expectations_from_probabilities(&probs, circuit.num_qubits())
    }

    /// Shot-sampled per-qubit Z expectations — exactly the statistic a real
    /// device job returns after `shots` executions.
    pub fn sampled_expectations_z<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        theta: &[f64],
        shots: u32,
        rng: &mut R,
    ) -> Vec<f64> {
        let probs = self.outcome_probabilities(circuit, theta);
        let counts = sample_dense_counts_from_probabilities(&probs, shots, rng);
        expectation_z_from_dense_counts(&counts, circuit.num_qubits(), shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{depolarizing_1q, depolarizing_2q};
    use crate::readout::ReadoutError;
    use qoc_sim::simulator::StatevectorSimulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, 0.9);
        c.rzz(0, 1, 0.6);
        c.rx(1, 1.4);
        c
    }

    #[test]
    fn ideal_noise_matches_statevector() {
        let c = test_circuit();
        let noisy = NoisyDensitySimulator::new(NoiseModel::ideal(2));
        let exact = StatevectorSimulator::new().expectations_z(&c, &[]);
        let got = noisy.expectations_z(&c, &[]);
        for (a, b) in exact.iter().zip(&got) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn gate_noise_shrinks_expectations() {
        let c = test_circuit();
        let noise = NoiseModel::builder(2)
            .one_qubit_all(depolarizing_1q(0.05))
            .two_qubit_default(depolarizing_2q(0.08))
            .build();
        let noisy = NoisyDensitySimulator::new(noise);
        let exact = StatevectorSimulator::new().expectations_z(&c, &[]);
        let got = noisy.expectations_z(&c, &[]);
        for (a, b) in exact.iter().zip(&got) {
            assert!(b.abs() < a.abs() + 1e-12, "noise must not amplify |⟨Z⟩|");
            assert!(b.abs() > 0.0);
        }
    }

    #[test]
    fn readout_error_biases_distribution() {
        let mut c = Circuit::new(1);
        c.x(0); // deterministic |1⟩
        let noise = NoiseModel::builder(1)
            .readout(0, ReadoutError::new(0.0, 0.25))
            .build();
        let noisy = NoisyDensitySimulator::new(noise);
        // ⟨Z⟩ should be −1 shifted by the 25% chance of reading 0: −0.5.
        let ez = noisy.expectations_z(&c, &[])[0];
        assert!((ez + 0.5).abs() < 1e-10);
    }

    #[test]
    fn shot_noise_has_right_scale() {
        let c = test_circuit();
        let noisy = NoisyDensitySimulator::new(NoiseModel::ideal(2));
        let exact = noisy.expectations_z(&c, &[]);
        let mut rng = StdRng::seed_from_u64(5);
        // With 1024 shots, the std-dev of ⟨Z⟩ is √((1−z²)/1024) ≲ 0.032.
        let mut max_dev: f64 = 0.0;
        for _ in 0..20 {
            let got = noisy.sampled_expectations_z(&c, &[], 1024, &mut rng);
            for (a, b) in exact.iter().zip(&got) {
                max_dev = max_dev.max((a - b).abs());
            }
        }
        assert!(max_dev > 1e-4, "sampling should fluctuate");
        assert!(max_dev < 0.15, "fluctuation too large: {max_dev}");
    }

    #[test]
    fn probabilities_sum_to_one_under_noise() {
        let c = test_circuit();
        let noise = NoiseModel::builder(2)
            .one_qubit_all(depolarizing_1q(0.02))
            .two_qubit_default(depolarizing_2q(0.05))
            .readout(0, ReadoutError::symmetric(0.03))
            .readout(1, ReadoutError::new(0.01, 0.05))
            .build();
        let noisy = NoisyDensitySimulator::new(noise);
        let probs = noisy.outcome_probabilities(&c, &[]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
