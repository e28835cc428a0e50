//! Stochastic Pauli-trajectory simulation.
//!
//! Density matrices cost `4ⁿ` memory, so beyond ~12 qubits we fall back to
//! quantum-trajectory sampling on the statevector: after each gate a Pauli
//! error is inserted with the gate's depolarizing probability, and many
//! trajectories are averaged. This covers the wide-circuit scalability runs
//! of Figure 8 with noise enabled.

use rand::Rng;

use qoc_sim::circuit::Circuit;
use qoc_sim::gates::GateKind;
use qoc_sim::kernels::Kernel;
use qoc_sim::statevector::{with_scratch_state, Statevector};

/// Depolarizing-strength specification for trajectory runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryNoise {
    /// Pauli-error probability after each single-qubit gate.
    pub p1: f64,
    /// Pauli-error probability after each two-qubit gate (per gate, a
    /// two-qubit Pauli drawn uniformly from the 15 non-identity ones).
    pub p2: f64,
    /// Per-qubit readout flip probability (symmetric).
    pub readout: f64,
}

impl TrajectoryNoise {
    /// Creates a noise spec.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn new(p1: f64, p2: f64, readout: f64) -> Self {
        for (v, name) in [(p1, "p1"), (p2, "p2"), (readout, "readout")] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
        }
        TrajectoryNoise { p1, p2, readout }
    }

    /// Noise-free spec.
    pub fn ideal() -> Self {
        TrajectoryNoise {
            p1: 0.0,
            p2: 0.0,
            readout: 0.0,
        }
    }
}

/// Monte-Carlo trajectory simulator.
#[derive(Debug, Clone, Copy)]
pub struct TrajectorySimulator {
    noise: TrajectoryNoise,
}

const PAULIS: [GateKind; 3] = [GateKind::X, GateKind::Y, GateKind::Z];

impl TrajectorySimulator {
    /// Creates a simulator with the given depolarizing strengths.
    pub fn new(noise: TrajectoryNoise) -> Self {
        TrajectorySimulator { noise }
    }

    /// Classifies every gate of `circuit` once for the given binding, so the
    /// per-shot loop replays pre-resolved kernels instead of rebuilding
    /// matrices. Noise insertions interleave per gate, so gates are *not*
    /// fused across each other here — only specialized.
    fn bind_kernels(circuit: &Circuit, theta: &[f64]) -> Vec<Kernel> {
        circuit
            .ops()
            .iter()
            .map(|op| Kernel::from_operation(op, theta))
            .collect()
    }

    /// Evolves one noisy trajectory in place over a pre-bound kernel list
    /// (`kernels[i]` is `circuit.ops()[i]` resolved). RNG draw order matches
    /// the original per-gate implementation exactly.
    fn trajectory_into<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        kernels: &[Kernel],
        rng: &mut R,
        sv: &mut Statevector,
    ) {
        for (op, kernel) in circuit.ops().iter().zip(kernels) {
            sv.apply_kernel(kernel);
            match op.qubits.len() {
                1 if self.noise.p1 > 0.0 && rng.gen::<f64>() < self.noise.p1 => {
                    let p = PAULIS[rng.gen_range(0..3)];
                    sv.apply_kernel(&Kernel::for_gate(p, &op.qubits[..1], &[]));
                }
                2 if self.noise.p2 > 0.0 && rng.gen::<f64>() < self.noise.p2 => {
                    // Uniform non-identity two-qubit Pauli: draw from the
                    // 15 pairs (a, b) ≠ (I, I).
                    let idx = rng.gen_range(1..16);
                    let (a, b) = (idx % 4, idx / 4);
                    if a > 0 {
                        sv.apply_kernel(&Kernel::for_gate(PAULIS[a - 1], &op.qubits[..1], &[]));
                    }
                    if b > 0 {
                        sv.apply_kernel(&Kernel::for_gate(PAULIS[b - 1], &op.qubits[1..2], &[]));
                    }
                }
                _ => {}
            }
        }
    }

    /// Runs a single noisy trajectory and returns the final pure state.
    pub fn run_trajectory<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        theta: &[f64],
        rng: &mut R,
    ) -> Statevector {
        let kernels = Self::bind_kernels(circuit, theta);
        let mut sv = Statevector::zero_state(circuit.num_qubits());
        self.trajectory_into(circuit, &kernels, rng, &mut sv);
        sv
    }

    /// Estimates per-qubit Z expectations by sampling one measured bitstring
    /// per trajectory, `shots` trajectories total, with symmetric readout
    /// flips applied per bit. This mirrors hardware exactly: every shot is an
    /// independent noisy execution.
    pub fn sampled_expectations_z<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        theta: &[f64],
        shots: u32,
        rng: &mut R,
    ) -> Vec<f64> {
        let n = circuit.num_qubits();
        let kernels = Self::bind_kernels(circuit, theta);
        let mut sums = vec![0.0f64; n];
        for _ in 0..shots {
            let outcome = with_scratch_state(n, |sv| {
                self.trajectory_into(circuit, &kernels, rng, sv);
                sv.sample_one(rng)
            });
            for (q, s) in sums.iter_mut().enumerate() {
                let mut bit = (outcome >> q) & 1;
                if self.noise.readout > 0.0 && rng.gen::<f64>() < self.noise.readout {
                    bit ^= 1;
                }
                *s += if bit == 0 { 1.0 } else { -1.0 };
            }
        }
        sums.iter().map(|s| s / shots.max(1) as f64).collect()
    }

    /// Averages *exact* per-trajectory expectations over `trajectories`
    /// runs — lower variance than per-shot sampling, useful for tests.
    pub fn mean_expectations_z<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        theta: &[f64],
        trajectories: u32,
        rng: &mut R,
    ) -> Vec<f64> {
        let n = circuit.num_qubits();
        let kernels = Self::bind_kernels(circuit, theta);
        let mut sums = vec![0.0f64; n];
        for _ in 0..trajectories {
            with_scratch_state(n, |sv| {
                self.trajectory_into(circuit, &kernels, rng, sv);
                for (q, s) in sums.iter_mut().enumerate() {
                    *s += sv.expectation_z(q);
                }
            });
        }
        let scale = 1.0 - 2.0 * self.noise.readout;
        sums.iter()
            .map(|s| s / trajectories.max(1) as f64 * scale)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{depolarizing_1q, depolarizing_2q};
    use crate::model::NoiseModel;
    use crate::sim::NoisyDensitySimulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.ry(0, 0.7);
        c.rzz(0, 1, 0.9);
        c.rx(2, 1.1);
        c.cx(1, 2);
        c
    }

    #[test]
    fn ideal_trajectory_is_deterministic() {
        let sim = TrajectorySimulator::new(TrajectoryNoise::ideal());
        let mut rng = StdRng::seed_from_u64(1);
        let a = sim.run_trajectory(&test_circuit(), &[], &mut rng);
        let b = sim.run_trajectory(&test_circuit(), &[], &mut rng);
        assert!(a.approx_eq_up_to_phase(&b, 1e-12));
    }

    #[test]
    fn trajectory_mean_matches_density_matrix() {
        // Depolarizing trajectory average must converge to the exact
        // density-matrix result for the same depolarizing strengths.
        let (p1, p2) = (0.02, 0.05);
        let c = test_circuit();
        let noise = NoiseModel::builder(3)
            .one_qubit_all(depolarizing_1q(p1))
            .two_qubit_default(depolarizing_2q(p2))
            .build();
        let exact = NoisyDensitySimulator::new(noise).expectations_z(&c, &[]);
        let traj = TrajectorySimulator::new(TrajectoryNoise::new(p1, p2, 0.0));
        let mut rng = StdRng::seed_from_u64(42);
        let est = traj.mean_expectations_z(&c, &[], 6000, &mut rng);
        for (e, t) in exact.iter().zip(&est) {
            assert!((e - t).abs() < 0.03, "exact {e} vs trajectory {t}");
        }
    }

    #[test]
    fn readout_flips_shrink_expectations() {
        let mut c = Circuit::new(1);
        c.x(0);
        let traj = TrajectorySimulator::new(TrajectoryNoise::new(0.0, 0.0, 0.1));
        let mut rng = StdRng::seed_from_u64(9);
        let ez = traj.sampled_expectations_z(&c, &[], 20_000, &mut rng)[0];
        // ⟨Z⟩ = −(1 − 2·0.1) = −0.8.
        assert!((ez + 0.8).abs() < 0.02, "got {ez}");
    }

    #[test]
    fn sampled_expectations_are_pinned_per_seed() {
        // One outcome per trajectory: a change in the uniforms the shot
        // draw consumes would shift every later trajectory's noise.
        let traj = TrajectorySimulator::new(TrajectoryNoise::new(0.02, 0.05, 0.03));
        let mut rng = StdRng::seed_from_u64(5);
        let ez = traj.sampled_expectations_z(&test_circuit(), &[], 257, &mut rng);
        assert_eq!(
            ez,
            vec![0.7042801556420234, 0.8521400778210116, 0.2607003891050584]
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_bad_rates() {
        let _ = TrajectoryNoise::new(-0.1, 0.0, 0.0);
    }
}
