//! Oracle equivalence of the compiled noisy path: a [`NoisyProgram`] must
//! reproduce [`NoisyDensitySimulator`] — ρ and the readout-corrupted outcome
//! distribution — to 1e-12 on random circuits over every gate kind and random
//! noise models built from every builder form, and every block it compiles
//! must be trace-preserving in Liouville form.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qoc_noise::channels::{
    amplitude_damping, bit_flip, coherent_overrotation, depolarizing_1q, depolarizing_2q,
    phase_damping, phase_flip, thermal_relaxation,
};
use qoc_noise::kraus::KrausChannel;
use qoc_noise::model::NoiseModel;
use qoc_noise::program::NoisyProgram;
use qoc_noise::readout::ReadoutError;
use qoc_noise::sim::NoisyDensitySimulator;
use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::gates::{GateKind, ALL_GATES};

const TOL: f64 = 1e-12;

fn channel_1q(rng: &mut StdRng) -> KrausChannel {
    let p = rng.gen_range(0.0..0.3);
    match rng.gen_range(0..7) {
        0 => depolarizing_1q(p),
        1 => bit_flip(p),
        2 => phase_flip(p),
        3 => amplitude_damping(p),
        4 => phase_damping(p),
        5 => thermal_relaxation(
            rng.gen_range(50.0..150.0),
            rng.gen_range(20.0..100.0),
            rng.gen_range(0.0..800.0),
        ),
        _ => coherent_overrotation(GateKind::Rx, rng.gen_range(-0.2..0.2)),
    }
}

fn channel_2q(rng: &mut StdRng) -> KrausChannel {
    match rng.gen_range(0..3) {
        0 => depolarizing_2q(rng.gen_range(0.0..0.2)),
        // Correlated-looking but product noise, in tensor form.
        1 => channel_1q(rng).tensor(&channel_1q(rng)),
        _ => coherent_overrotation(GateKind::Rzz, rng.gen_range(-0.2..0.2)),
    }
}

/// A model exercising every builder form: per-qubit and all-qubit Kraus
/// channels, analytic 1q/2q depolarizing, 2q Kraus channels on the gate's
/// wires, per-wire channels on edges, default-edge entries, and readout.
fn random_model(n: usize, rng: &mut StdRng) -> NoiseModel {
    let mut b = NoiseModel::builder(n);
    if rng.gen_bool(0.5) {
        b = b.one_qubit_all(channel_1q(rng));
    }
    for q in 0..n {
        if rng.gen_bool(0.6) {
            b = b.one_qubit(q, channel_1q(rng));
        }
        if rng.gen_bool(0.6) {
            b = b.one_qubit_depolarizing(q, rng.gen_range(0.0..0.05));
        }
        if rng.gen_bool(0.7) {
            b = b.readout(
                q,
                ReadoutError::new(rng.gen_range(0.0..0.1), rng.gen_range(0.0..0.1)),
            );
        }
    }
    for a in 0..n {
        for c in a + 1..n {
            if rng.gen_bool(0.3) {
                continue; // leave some edges on the defaults
            }
            if rng.gen_bool(0.5) {
                b = b.two_qubit(a, c, channel_2q(rng));
            }
            if rng.gen_bool(0.6) {
                b = b.two_qubit_depolarizing(a, c, rng.gen_range(0.0..0.1));
            }
            for wire in 0..2 {
                if rng.gen_bool(0.6) {
                    b = b.two_qubit_wire(a, c, wire, channel_1q(rng));
                }
            }
        }
    }
    if rng.gen_bool(0.7) {
        b = b.two_qubit_default(channel_2q(rng));
    }
    if rng.gen_bool(0.7) {
        b = b.two_qubit_default_depolarizing(rng.gen_range(0.0..0.1));
    }
    b.build()
}

/// Every gate kind at least once (in random order, on random wires), plus
/// extra random ops so 1q runs and 2q blocks interleave. Angles are a mix of
/// constants and affine symbols over `num_symbols` parameters.
fn random_circuit(n: usize, num_symbols: usize, rng: &mut StdRng) -> Circuit {
    let mut gates: Vec<GateKind> = ALL_GATES.to_vec();
    for _ in 0..rng.gen_range(0..24) {
        gates.push(ALL_GATES[rng.gen_range(0..ALL_GATES.len())]);
    }
    // Fisher–Yates with the case's own RNG.
    for i in (1..gates.len()).rev() {
        gates.swap(i, rng.gen_range(0..=i));
    }
    let mut c = Circuit::new(n);
    for gate in gates {
        let a = rng.gen_range(0..n);
        let mut qubits = vec![a];
        if gate.num_qubits() == 2 {
            let b = (a + rng.gen_range(1..n)) % n;
            qubits.push(b);
        }
        let params: Vec<ParamValue> = (0..gate.num_params())
            .map(|_| {
                if rng.gen_bool(0.5) {
                    ParamValue::Const(rng.gen_range(-3.2..3.2))
                } else {
                    ParamValue::Sym {
                        index: rng.gen_range(0..num_symbols),
                        scale: rng.gen_range(-2.0..2.0),
                        offset: rng.gen_range(-1.0..1.0),
                    }
                }
            })
            .collect();
        c.push(gate, &qubits, &params);
    }
    c
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_program_matches_kraus_oracle(seed in any::<u64>(), n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_symbols = 3;
        let circuit = random_circuit(n, num_symbols, &mut rng);
        let noise = random_model(n, &mut rng);
        let program = NoisyProgram::compile(&circuit, &noise);
        prop_assert!(
            program.max_trace_defect() <= TOL,
            "trace defect {:e}", program.max_trace_defect()
        );
        let oracle = NoisyDensitySimulator::new(noise);
        for _ in 0..3 {
            let theta: Vec<f64> = (0..num_symbols).map(|_| rng.gen_range(-3.2..3.2)).collect();
            let got = program.run(&theta);
            let want = oracle.run(&circuit, &theta);
            let rho_diff = got
                .matrix()
                .as_slice()
                .iter()
                .zip(want.matrix().as_slice())
                .map(|(x, y)| (*x - *y).norm())
                .fold(0.0, f64::max);
            prop_assert!(rho_diff <= TOL, "ρ differs by {rho_diff:e}");
            let probs = max_diff(
                &program.outcome_probabilities(&theta),
                &oracle.outcome_probabilities(&circuit, &theta),
            );
            prop_assert!(probs <= TOL, "probabilities differ by {probs:e}");
            let ez = max_diff(
                &program.expectations_z(&theta),
                &oracle.expectations_z(&circuit, &theta),
            );
            prop_assert!(ez <= TOL, "⟨Z⟩ differs by {ez:e}");
        }
    }
}

#[test]
fn ideal_model_reduces_to_unitary_evolution() {
    let mut rng = StdRng::seed_from_u64(11);
    let circuit = random_circuit(3, 2, &mut rng);
    let noise = NoiseModel::ideal(3);
    let program = NoisyProgram::compile(&circuit, &noise);
    let theta = [0.4, -1.3];
    let got = program.run(&theta);
    let want = NoisyDensitySimulator::new(noise).run(&circuit, &theta);
    assert!(got.matrix().approx_eq(want.matrix(), TOL));
    assert!((got.purity() - 1.0).abs() < 1e-10);
}

#[test]
fn seeded_sampling_consumes_the_rng_like_the_oracle() {
    let mut rng = StdRng::seed_from_u64(5);
    let circuit = random_circuit(4, 3, &mut rng);
    let noise = random_model(4, &mut rng);
    let program = NoisyProgram::compile(&circuit, &noise);
    let oracle = NoisyDensitySimulator::new(noise);
    let theta = [0.3, 1.7, -0.9];
    for seed in [1u64, 2, 3, 42, 1234] {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        assert_eq!(
            program.sampled_expectations_z(&theta, 1024, &mut a),
            oracle.sampled_expectations_z(&circuit, &theta, 1024, &mut b),
            "seed {seed}"
        );
        // Both streams are left at the same position.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
