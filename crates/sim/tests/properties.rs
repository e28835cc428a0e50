//! Property-based tests of the simulation core: gate algebra, state
//! evolution invariants, and sampling statistics over randomized inputs.
//!
//! The `sampler_*` tests are the shot sampler's oracle: the CDF-lookup
//! sampler against two independent references, plus one pinned histogram.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::complex::Complex64;
use qoc_sim::gates::{GateKind, ALL_GATES};
use qoc_sim::matrix::CMatrix;
use qoc_sim::simulator::StatevectorSimulator;
use qoc_sim::statevector::{
    sample_counts_from_probabilities, sample_dense_counts_from_probabilities, Statevector,
};

fn arb_gate() -> impl Strategy<Value = GateKind> {
    (0..ALL_GATES.len()).prop_map(|i| ALL_GATES[i])
}

#[allow(dead_code)]
fn arb_params(gate: GateKind) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-6.0f64..6.0, gate.num_params())
}

/// A random constant circuit on `n` qubits.
fn arb_circuit(n: usize, max_ops: usize) -> impl Strategy<Value = Circuit> {
    let op = (
        arb_gate(),
        0..n,
        1..n.max(2),
        proptest::collection::vec(-3.0f64..3.0, 3),
    );
    proptest::collection::vec(op, 1..max_ops).prop_map(move |ops| {
        let mut c = Circuit::new(n);
        for (gate, a, off, angles) in ops {
            let qubits: Vec<usize> = if gate.num_qubits() == 1 {
                vec![a]
            } else {
                vec![a, (a + off) % n]
            };
            if qubits.len() == 2 && qubits[0] == qubits[1] {
                continue;
            }
            let params: Vec<ParamValue> = angles
                .iter()
                .take(gate.num_params())
                .map(|&x| ParamValue::Const(x))
                .collect();
            if params.len() == gate.num_params() {
                c.push(gate, &qubits, &params);
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_gate_matrix_is_unitary_for_any_angles(
        gate in arb_gate(),
        angles in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let params = &angles[..gate.num_params()];
        prop_assert!(gate.matrix(params).is_unitary(1e-9));
    }

    #[test]
    fn gate_times_inverse_is_identity(
        gate in arb_gate(),
        angles in proptest::collection::vec(-6.0f64..6.0, 3),
    ) {
        let params = angles[..gate.num_params()].to_vec();
        let (gi, pi) = gate.inverse(&params);
        let prod = &gate.matrix(&params) * &gi.matrix(&pi);
        prop_assert!(prod.approx_eq(&CMatrix::identity(1 << gate.num_qubits()), 1e-9));
    }

    #[test]
    fn rotation_angles_compose_additively(
        gate in proptest::sample::select(vec![
            GateKind::Rx, GateKind::Ry, GateKind::Rz,
            GateKind::Rxx, GateKind::Ryy, GateKind::Rzz, GateKind::Rzx,
        ]),
        a in -4.0f64..4.0,
        b in -4.0f64..4.0,
    ) {
        // e^{-i(a+b)H/2} = e^{-iaH/2}·e^{-ibH/2} for a fixed generator.
        let lhs = gate.matrix(&[a + b]);
        let rhs = &gate.matrix(&[a]) * &gate.matrix(&[b]);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn rotations_are_2pi_periodic_up_to_phase(
        gate in proptest::sample::select(vec![
            GateKind::Rx, GateKind::Ry, GateKind::Rz, GateKind::Rzz,
        ]),
        a in -4.0f64..4.0,
    ) {
        let lhs = gate.matrix(&[a]);
        let rhs = gate.matrix(&[a + 2.0 * std::f64::consts::PI]);
        prop_assert!(lhs.approx_eq_up_to_phase(&rhs, 1e-9));
    }

    #[test]
    fn circuits_preserve_norm(c in arb_circuit(4, 16)) {
        let sv = StatevectorSimulator::new().run(&c, &[]);
        let norm: f64 = sv.amplitudes().iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn circuit_then_inverse_returns_to_start(c in arb_circuit(3, 12)) {
        let sim = StatevectorSimulator::new();
        let mut sv = sim.run(&c, &[]);
        sim.run_into(&c.inverse(), &[], &mut sv);
        prop_assert!(sv.approx_eq_up_to_phase(&Statevector::zero_state(3), 1e-8));
    }

    #[test]
    fn expectations_are_bounded(c in arb_circuit(4, 16)) {
        for ez in StatevectorSimulator::new().expectations_z(&c, &[]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ez));
        }
    }

    #[test]
    fn symmetric_two_qubit_gates_commute_with_wire_swap(
        gate in proptest::sample::select(vec![
            GateKind::Cz, GateKind::Cp, GateKind::Swap,
            GateKind::Rxx, GateKind::Ryy, GateKind::Rzz,
        ]),
        angle in -3.0f64..3.0,
        pre in arb_circuit(2, 6),
    ) {
        // For gates declared symmetric, (a, b) and (b, a) act identically.
        prop_assume!(gate.is_symmetric());
        let sim = StatevectorSimulator::new();
        let params: Vec<ParamValue> = (0..gate.num_params())
            .map(|_| ParamValue::Const(angle))
            .collect();
        let mut c1 = pre.clone();
        c1.push(gate, &[0, 1], &params);
        let mut c2 = pre.clone();
        c2.push(gate, &[1, 0], &params);
        let a = sim.run(&c1, &[]);
        let b = sim.run(&c2, &[]);
        prop_assert!(a.approx_eq_up_to_phase(&b, 1e-9));
    }

    #[test]
    fn kron_of_unitaries_is_unitary(
        g1 in arb_gate().prop_filter("1q", |g| g.num_qubits() == 1),
        g2 in arb_gate().prop_filter("1q", |g| g.num_qubits() == 1),
        angles in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        let m1 = g1.matrix(&angles[..g1.num_params()]);
        let m2 = g2.matrix(&angles[3..3 + g2.num_params()]);
        prop_assert!(m1.kron(&m2).is_unitary(1e-9));
    }

    #[test]
    fn bind_then_run_equals_symbolic_run(
        theta in proptest::collection::vec(-3.0f64..3.0, 4),
    ) {
        let mut c = Circuit::new(3);
        c.rx(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        c.ry(2, ParamValue::sym(2));
        c.rzx(1, 2, ParamValue::sym(3));
        let sim = StatevectorSimulator::new();
        let a = sim.run(&c, &theta);
        let b = sim.run(&c.bind(&theta), &[]);
        prop_assert!(a.approx_eq_up_to_phase(&b, 1e-10));
    }

    #[test]
    fn global_phase_never_affects_expectations(
        c in arb_circuit(3, 10),
        phase in -3.0f64..3.0,
    ) {
        let sim = StatevectorSimulator::new();
        let base = sim.run(&c, &[]);
        let mut shifted = base.clone();
        let factor = Complex64::cis(phase);
        let amps: Vec<Complex64> = shifted.amplitudes().iter().map(|&a| a * factor).collect();
        shifted = Statevector::from_amplitudes(amps).unwrap();
        for q in 0..3 {
            prop_assert!((base.expectation_z(q) - shifted.expectation_z(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_counts_conserve_shots(c in arb_circuit(3, 8), seed in 0u64..1000) {
        use rand::SeedableRng;
        let sv = StatevectorSimulator::new().run(&c, &[]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts = sv.sample_counts(257, &mut rng);
        prop_assert_eq!(counts.values().sum::<u32>(), 257);
        for &state in counts.keys() {
            prop_assert!(state < 8);
        }
    }

    #[test]
    fn depth_le_len_and_gate_counts_consistent(c in arb_circuit(4, 20)) {
        prop_assert!(c.depth() <= c.len());
        let by_kind: usize = c.count_by_kind().values().sum();
        prop_assert_eq!(by_kind, c.len());
        prop_assert!(c.two_qubit_count() <= c.len());
    }
}

/// Reference 1: the shot-sorted walk the sampler used to be. Draws every
/// uniform first (in RNG order), sorts them, and walks the running prefix
/// sum once.
fn sorted_walk_reference(probs: &[f64], shots: u32, rng: &mut impl Rng) -> BTreeMap<usize, u32> {
    let mut counts = BTreeMap::new();
    if probs.is_empty() || shots == 0 {
        return counts;
    }
    let prob = |i: usize| probs[i].max(0.0);
    let mut total = 0.0;
    for i in 0..probs.len() {
        total += prob(i);
    }
    let total = total.max(f64::MIN_POSITIVE);
    let mut draws: Vec<f64> = (0..shots).map(|_| rng.gen::<f64>() * total).collect();
    draws.sort_unstable_by(f64::total_cmp);
    let mut idx = 0usize;
    let mut prefix = prob(0);
    for r in draws {
        while prefix < r && idx + 1 < probs.len() {
            idx += 1;
            prefix += prob(idx);
        }
        *counts.entry(idx).or_insert(0) += 1;
    }
    counts
}

/// Reference 2: a per-shot binary search over a materialized CDF. The
/// comparator never answers `Equal`, so a draw equal to a run of tied
/// prefix sums (zero bins) lands on the first of them, as in the walk.
fn binary_search_reference(probs: &[f64], shots: u32, rng: &mut impl Rng) -> BTreeMap<usize, u32> {
    let mut counts = BTreeMap::new();
    if probs.is_empty() || shots == 0 {
        return counts;
    }
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for p in probs {
        acc += p.max(0.0);
        cdf.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    for _ in 0..shots {
        let r = rng.gen::<f64>() * total;
        let idx = cdf
            .binary_search_by(|c| {
                if *c < r {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            })
            .unwrap_or_else(|i| i)
            .min(probs.len() - 1);
        *counts.entry(idx).or_insert(0) += 1;
    }
    counts
}

/// Runs the sampler (map and dense forms) and both references on one case,
/// each with a fresh RNG from `rng`, and requires all four to agree.
/// Returns the sampler's histogram.
fn check_sampler_against_references<R: RngCore>(
    probs: &[f64],
    shots: u32,
    label: &str,
    rng: impl Fn() -> R,
) -> BTreeMap<usize, u32> {
    let case = format!("{label}, shots {shots}, probs {probs:?}");
    let got = sample_counts_from_probabilities(probs, shots, &mut rng());
    let dense = sample_dense_counts_from_probabilities(probs, shots, &mut rng());
    assert_eq!(dense.len(), probs.len(), "{case}");
    assert_eq!(dense.iter().sum::<u32>(), shots, "{case}");
    let from_dense: BTreeMap<usize, u32> = dense
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    assert_eq!(from_dense, got, "dense form, {case}");
    let walk = sorted_walk_reference(probs, shots, &mut rng());
    assert_eq!(walk, got, "sorted walk, {case}");
    let search = binary_search_reference(probs, shots, &mut rng());
    assert_eq!(search, got, "binary search, {case}");
    got
}

/// A uniform source that replays a fixed list: `gen::<f64>()` yields
/// `units[i] / 2⁵³` exactly, cycling through `units`.
struct ScriptedRng {
    units: Vec<u64>,
    next: usize,
}

impl RngCore for ScriptedRng {
    fn next_u64(&mut self) -> u64 {
        let unit = self.units[self.next % self.units.len()];
        self.next += 1;
        unit << 11
    }
}

/// One probability weight: mostly ordinary, with exact zeros, the slightly
/// negative diagonals a noisy density matrix can produce, and subnormals.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0u32..7, 0.0f64..1.0, 1u64..1 << 52).prop_map(|(kind, p, bits)| match kind {
        0 => 0.0,
        1 => -1e-17,
        2 => f64::from_bits(bits),
        _ => p,
    })
}

/// A weight of at most a few ulps of the smallest subnormal, zero, or
/// slightly negative.
fn arb_tiny_weight() -> impl Strategy<Value = f64> {
    (0u32..3, 1u64..8).prop_map(|(kind, bits)| match kind {
        0 => 0.0,
        1 => -1e-17,
        _ => f64::from_bits(bits),
    })
}

fn arb_shots() -> impl Strategy<Value = u32> {
    proptest::sample::select(vec![0u32, 1, 513, 1024, 4097])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sampler_matches_sorted_walk_and_binary_search(
        probs in proptest::collection::vec(arb_weight(), 1..=256),
        shots in arb_shots(),
        seed in any::<u64>(),
    ) {
        let label = format!("seed {seed}");
        check_sampler_against_references(&probs, shots, &label, || StdRng::seed_from_u64(seed));
    }

    #[test]
    fn sampler_matches_references_on_tiny_weights(
        probs in proptest::collection::vec(arb_tiny_weight(), 1..=8),
        shots in arb_shots(),
        seed in any::<u64>(),
    ) {
        // Totals below f64::MIN_POSITIVE are raised to it, so nearly every
        // draw lies past the last prefix sum: this pins the last-bin clamp.
        let label = format!("seed {seed}");
        check_sampler_against_references(&probs, shots, &label, || StdRng::seed_from_u64(seed));
    }
}

#[test]
fn sampler_all_zero_weights_fill_the_last_bin() {
    for len in [1usize, 2, 5, 256] {
        for shots in [0u32, 1, 513, 1024, 4097] {
            let probs = vec![0.0; len];
            let got = check_sampler_against_references(&probs, shots, "seed 11", || {
                StdRng::seed_from_u64(11)
            });
            let want: BTreeMap<usize, u32> = if shots == 0 {
                BTreeMap::new()
            } else {
                BTreeMap::from([(len - 1, shots)])
            };
            assert_eq!(got, want, "len {len} shots {shots}");
        }
    }
}

#[test]
fn sampler_ties_resolve_to_the_first_bin() {
    // A seeded RNG almost never draws a value equal to a prefix sum. Here
    // the weights are eighths (zeros between them) and the draws are every
    // multiple of 1/8, so each draw ties with a prefix sum and must land on
    // the first bin whose prefix reaches it.
    let probs = [0.0, 0.125, 0.0, 0.25, 0.0, 0.0, 0.5, 0.125, 0.0];
    let eighths = || ScriptedRng {
        units: (0..8).map(|k| k << 50).collect(),
        next: 0,
    };
    let got = check_sampler_against_references(&probs, 8 * 3, "eighths", eighths);
    // Prefix sums 0, ⅛, ⅛, ⅜, ⅜, ⅜, ⅞, 1, 1: the draws 0, ⅛, ¼ … ⅞ land
    // in bins 0, 1, 3, 3, 6, 6, 6, 6.
    assert_eq!(got, BTreeMap::from([(0, 3), (1, 3), (3, 6), (6, 12)]));
}

#[test]
fn sampler_golden_histogram() {
    // Pinned output for a fixed seed: a change in how many uniforms are
    // drawn, or in which bin a draw lands, fails here even if the
    // references above were changed along with the sampler.
    let probs = [0.1, 0.0, 0.25, -1e-17, 0.4, 5e-324, 0.25];
    let got = sample_counts_from_probabilities(&probs, 1024, &mut StdRng::seed_from_u64(2022));
    let want = BTreeMap::from([(0, 107), (2, 219), (4, 432), (6, 266)]);
    assert_eq!(got, want);
}
