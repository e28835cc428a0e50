//! Compiled noisy programs: a circuit and its noise model lowered once into
//! in-place superoperator kernels.
//!
//! [`NoisyDensitySimulator`](crate::sim::NoisyDensitySimulator) interprets a
//! circuit op by op: a gate kernel, then every noise entry the model attaches
//! to that gate, each Kraus channel as a cloned matrix and two strided passes
//! per operator. A [`NoisyProgram`] does the channel algebra once per
//! circuit. Every op and its trailing noise become one *Liouville block* —
//! the superoperator `S` with `vec(ρ') = S · vec(ρ)`, restricted to the op's
//! wires — applied in place over ρ's (row-bit, column-bit) index groups:
//!
//! - **Layout.** A k-qubit block addresses the `4ᵏ` entries of ρ that share
//!   every bit outside the op's wires. Local row `a` and column `b` (first
//!   listed wire = least-significant local bit, `d = 2ᵏ`) form the Liouville
//!   index `s = a·d + b`, so a Kraus channel is `S = Σᵢ Kᵢ ⊗ conj(Kᵢ)`: a 4×4
//!   block for a 1-qubit op, 16×16 for a 2-qubit op. Trace preservation
//!   reads `Σ_a S[(a,a), ·] = vec(I)`.
//! - **Baked vs per-binding.** A constant gate (SX, X, CX, bound encoder
//!   angles) is folded into its block at compile time. A parametric gate
//!   keeps its noise block `N` and is folded per binding as
//!   `S = N · (U ⊗ Ū)` — for a diagonal `U` (the transpiled RZs) that is `N`
//!   with its columns scaled by phases.
//! - **Wire runs.** Consecutive 1-qubit ops on one wire (no 2-qubit op on it
//!   in between) multiply into one block, so the transpiler's
//!   `RZ·SX·RZ·SX·RZ` chains cost a single pass over ρ.
//!
//! Noise blocks are built by probing the oracle's own primitives
//! (`apply_kraus`, `apply_depolarizing`) with matrix units on a local k-qubit
//! system, so the compiled path inherits their semantics exactly; the oracle
//! stays the reference the equivalence tests hold this path to (≤ 1e-12).
//!
//! # Examples
//!
//! ```
//! use qoc_sim::circuit::{Circuit, ParamValue};
//! use qoc_noise::channels::thermal_relaxation;
//! use qoc_noise::model::NoiseModel;
//! use qoc_noise::program::NoisyProgram;
//! use qoc_noise::sim::NoisyDensitySimulator;
//!
//! let mut c = Circuit::new(2);
//! c.rz(0, ParamValue::sym(0));
//! c.cx(0, 1);
//! let noise = NoiseModel::builder(2)
//!     .one_qubit_depolarizing(0, 0.002)
//!     .one_qubit(0, thermal_relaxation(100.0, 80.0, 35.0))
//!     .two_qubit_depolarizing(0, 1, 0.01)
//!     .build();
//! let program = NoisyProgram::compile(&c, &noise);
//! let oracle = NoisyDensitySimulator::new(noise);
//! let (a, b) = (program.outcome_probabilities(&[0.3]), oracle.outcome_probabilities(&c, &[0.3]));
//! assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-12));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;

use rand::Rng;

use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::complex::Complex64;
use qoc_sim::gates::GateKind;
use qoc_sim::kernels::Kernel;
use qoc_sim::matrix::CMatrix;
use qoc_sim::statevector::{
    expectation_z_from_dense_counts, sample_dense_counts_from_probabilities,
};

use crate::density::DensityMatrix;
use crate::model::{GateNoise, NoiseModel};
use crate::readout::{apply_confusion, ReadoutError};
use crate::sim::{apply_noise, expectations_from_probabilities};

/// Liouville entries per side of a 1-qubit block.
const L1: usize = 4;
/// Liouville entries per side of a 2-qubit block.
const L2: usize = 16;

/// A 4×4 row-major Liouville block.
type Block1 = [Complex64; L1 * L1];
/// A 16×16 row-major Liouville block.
type Block2 = [Complex64; L2 * L2];

/// Largest scratch ρ (in entries) a thread keeps between runs: 8 qubits.
const SCRATCH_CAP: usize = 1 << 16;

thread_local! {
    /// Per-thread reusable density-matrix buffer for compiled runs.
    static SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Where a block lands in a flattened `2ⁿ×2ⁿ` row-major ρ, read as a `4ⁿ`
/// vector whose bit `q` is column bit `q` and bit `n + q` is row bit `q`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Footprint {
    /// Flat offset of each local Liouville index `s = a·d + b` in a group.
    offsets: [usize; L2],
    /// The flat bits the block addresses, ascending.
    bits: [u32; 4],
    /// How many of `bits` are used (`2k`).
    nbits: usize,
}

impl Footprint {
    fn new(num_qubits: usize, wires: &[usize]) -> Self {
        let k = wires.len();
        let d = 1usize << k;
        let mut offsets = [0usize; L2];
        for (s, off) in offsets.iter_mut().enumerate().take(d * d) {
            let (a, b) = (s / d, s % d);
            for (i, &q) in wires.iter().enumerate() {
                *off |= ((a >> i) & 1) << (num_qubits + q);
                *off |= ((b >> i) & 1) << q;
            }
        }
        let mut bits = [u32::MAX; 4];
        for (i, &q) in wires.iter().enumerate() {
            bits[2 * i] = q as u32;
            bits[2 * i + 1] = (num_qubits + q) as u32;
        }
        bits[..2 * k].sort_unstable();
        Footprint {
            offsets,
            bits,
            nbits: 2 * k,
        }
    }

    /// The flat index of group `t`: `t` with a zero inserted at every
    /// addressed bit.
    #[inline]
    fn base(&self, mut t: usize) -> usize {
        for &b in &self.bits[..self.nbits] {
            let low = t & ((1usize << b) - 1);
            t = ((t >> b) << (b + 1)) | low;
        }
        t
    }
}

/// Applies an `L×L` Liouville block in place to every group of `rho`.
#[inline]
fn apply_block<const L: usize>(rho: &mut [Complex64], block: &[Complex64], at: &Footprint) {
    debug_assert_eq!(block.len(), L * L);
    let offsets: &[usize; L] = at.offsets[..L].try_into().expect("footprint width");
    let mut local = [Complex64::ZERO; L];
    for t in 0..rho.len() >> at.nbits {
        let base = at.base(t);
        for (v, &o) in local.iter_mut().zip(offsets) {
            *v = rho[base + o];
        }
        for (row, &o) in block.chunks_exact(L).zip(offsets) {
            let mut acc = Complex64::ZERO;
            for (m, v) in row.iter().zip(&local) {
                acc = m.mul_add(*v, acc);
            }
            rho[base + o] = acc;
        }
    }
}

/// A baked 2-qubit block stored by rows of its nonzero entries. A
/// permutation gate (CX) composed with depolarizing and amplitude damping
/// couples only 32 of the 256 (row, column) pairs, so a dense pass would
/// multiply by zero seven times out of eight.
#[derive(Debug, Clone, PartialEq)]
struct SparseBlock {
    /// End of each row's entries in `entries`.
    row_end: [usize; L2],
    /// `(column, value)` pairs, row by row.
    entries: Vec<(usize, Complex64)>,
}

impl SparseBlock {
    fn from_dense(block: &[Complex64]) -> Self {
        let mut row_end = [0usize; L2];
        let mut entries = Vec::new();
        for (row, end) in block.chunks_exact(L2).zip(&mut row_end) {
            entries.extend(
                row.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != Complex64::ZERO)
                    .map(|(c, &v)| (c, v)),
            );
            *end = entries.len();
        }
        SparseBlock { row_end, entries }
    }

    fn to_dense(&self) -> Vec<Complex64> {
        let mut block = vec![Complex64::ZERO; L2 * L2];
        let mut start = 0;
        for (r, &end) in self.row_end.iter().enumerate() {
            for &(c, v) in &self.entries[start..end] {
                block[r * L2 + c] = v;
            }
            start = end;
        }
        block
    }

    /// [`apply_block`] restricted to the stored entries (skipping exact
    /// zeros leaves every sum unchanged).
    #[inline]
    fn apply(&self, rho: &mut [Complex64], at: &Footprint) {
        let mut local = [Complex64::ZERO; L2];
        for t in 0..rho.len() >> at.nbits {
            let base = at.base(t);
            for (v, &o) in local.iter_mut().zip(&at.offsets) {
                *v = rho[base + o];
            }
            let mut start = 0;
            for (&end, &o) in self.row_end.iter().zip(&at.offsets) {
                let mut acc = Complex64::ZERO;
                for &(c, m) in &self.entries[start..end] {
                    acc = m.mul_add(local[c], acc);
                }
                rho[base + o] = acc;
                start = end;
            }
        }
    }
}

/// `out = x · y` for row-major `l×l` blocks.
fn matmul(x: &[Complex64], y: &[Complex64], l: usize, out: &mut [Complex64]) {
    for (orow, xrow) in out.chunks_exact_mut(l).zip(x.chunks_exact(l)) {
        orow.fill(Complex64::ZERO);
        for (&xv, yrow) in xrow.iter().zip(y.chunks_exact(l)) {
            for (o, &yv) in orow.iter_mut().zip(yrow) {
                *o = xv.mul_add(yv, *o);
            }
        }
    }
}

/// A gate's matrix on local wires `0..k`.
enum LocalGate {
    /// Diagonal entries (the first `2ᵏ` are used).
    Diag([Complex64; 4]),
    /// Dense row-major entries (the first `4ᵏ` are used).
    Dense([Complex64; 16]),
}

impl LocalGate {
    /// Classifies through the same [`Kernel`] the oracle applies, so both
    /// paths see identical gate entries.
    fn new(gate: GateKind, params: &[f64]) -> Self {
        let k = gate.num_qubits();
        let kernel = Kernel::for_gate(gate, &[0, 1][..k], params);
        match kernel {
            Kernel::Id => LocalGate::Diag([Complex64::ONE; 4]),
            Kernel::Diag1 { d, .. } => {
                LocalGate::Diag([d[0], d[1], Complex64::ZERO, Complex64::ZERO])
            }
            Kernel::Diag2 { d, .. } => LocalGate::Diag(d),
            _ => {
                let d = 1usize << k;
                let mut m = [Complex64::ZERO; 16];
                for j in 0..d {
                    let mut col = [Complex64::ZERO; 4];
                    col[j] = Complex64::ONE;
                    kernel.apply(&mut col[..d]);
                    for (i, &v) in col[..d].iter().enumerate() {
                        m[i * d + j] = v;
                    }
                }
                LocalGate::Dense(m)
            }
        }
    }

    /// `out = noise · (U ⊗ Ū)` for an `l×l` block (`l = 4ᵏ`): the gate
    /// first, then its noise.
    fn fold_into(&self, noise: &[Complex64], l: usize, out: &mut [Complex64]) {
        let d = if l == L1 { 2 } else { 4 };
        match self {
            LocalGate::Diag(u) => {
                // U ⊗ Ū is diagonal: scale column (a, b) by u_a·conj(u_b).
                let mut g = [Complex64::ZERO; L2];
                for (s, gs) in g.iter_mut().enumerate().take(l) {
                    *gs = u[s / d] * u[s % d].conj();
                }
                for (orow, nrow) in out.chunks_exact_mut(l).zip(noise.chunks_exact(l)) {
                    for ((o, &n), &gs) in orow.iter_mut().zip(nrow).zip(&g) {
                        *o = n * gs;
                    }
                }
            }
            LocalGate::Dense(m) => {
                // (U ⊗ Ū)[(a,b),(a',b')] = U[a,a'] · conj(U[b,b']).
                let mut g = [Complex64::ZERO; L2 * L2];
                for (r, grow) in g.chunks_exact_mut(l).enumerate().take(l) {
                    let (a, b) = (r / d, r % d);
                    for (c, gv) in grow.iter_mut().enumerate() {
                        let (a2, b2) = (c / d, c % d);
                        *gv = m[a * d + a2] * m[b * d + b2].conj();
                    }
                }
                matmul(noise, &g[..l * l], l, out);
            }
        }
    }
}

/// Evaluates up to three gate angles against `theta` without allocating.
#[inline]
fn resolve<'a>(params: &[ParamValue], theta: &[f64], buf: &'a mut [f64; 3]) -> &'a [f64] {
    for (slot, p) in buf.iter_mut().zip(params) {
        *slot = p.eval(theta);
    }
    &buf[..params.len()]
}

/// The Liouville block of a gate's trailing noise entries on local wires
/// `0..k`, probed with the oracle's channel primitives.
///
/// One probe reads every column: the entries act on the system half of the
/// unnormalized maximally entangled state `Σ_{a,b} |a⟩⟨b| ⊗ |a⟩⟨b|` on `2k`
/// wires (system = low bits, reference = high bits), which by linearity
/// leaves `N(|a'⟩⟨b'|)[a, b]` at row `a + d·a'`, column `b + d·b'`.
fn noise_block(entries: &[GateNoise], k: usize) -> Vec<Complex64> {
    let d = 1usize << k;
    let l = d * d;
    let mut omega = CMatrix::zeros(l, l);
    for a in 0..d {
        for b in 0..d {
            omega[(a + d * a, b + d * b)] = Complex64::ONE;
        }
    }
    let mut probe = DensityMatrix::from_matrix(2 * k, omega);
    for entry in entries {
        apply_noise(&mut probe, entry, &[0, 1][..k]);
    }
    let choi = probe.matrix();
    let mut block = vec![Complex64::ZERO; l * l];
    for (r, row) in block.chunks_exact_mut(l).enumerate() {
        let (a, b) = (r / d, r % d);
        for (c, v) in row.iter_mut().enumerate() {
            let (a2, b2) = (c / d, c % d);
            *v = choi[(a + d * a2, b + d * b2)];
        }
    }
    block
}

/// Largest deviation of `Σ_a S[(a,a), ·]` from `vec(I)` over an `l×l` block.
fn trace_defect(block: &[Complex64], l: usize) -> f64 {
    let d = if l == L1 { 2 } else { 4 };
    (0..l)
        .map(|c| {
            let sum = (0..d).fold(Complex64::ZERO, |acc, a| acc + block[(a * d + a) * l + c]);
            let want = if c / d == c % d { 1.0 } else { 0.0 };
            (sum - Complex64::real(want)).norm()
        })
        .fold(0.0, f64::max)
}

/// One factor of a single-wire run.
#[derive(Debug, Clone, PartialEq)]
enum Factor {
    /// Constant gates with their noise, multiplied at compile time.
    Fixed(Block1),
    /// A parametric gate and its noise block, folded per binding.
    Param {
        gate: GateKind,
        params: Vec<ParamValue>,
        noise: Block1,
    },
}

impl Factor {
    fn new(gate: GateKind, params: &[ParamValue], noise: Block1) -> Self {
        if params.iter().all(|p| p.symbol().is_none()) {
            let mut buf = [0.0; 3];
            let mut block = [Complex64::ZERO; L1 * L1];
            LocalGate::new(gate, resolve(params, &[], &mut buf)).fold_into(&noise, L1, &mut block);
            Factor::Fixed(block)
        } else {
            Factor::Param {
                gate,
                params: params.to_vec(),
                noise,
            }
        }
    }

    /// This factor's block under `theta`.
    #[inline]
    fn block(&self, theta: &[f64]) -> Block1 {
        match self {
            Factor::Fixed(block) => *block,
            Factor::Param {
                gate,
                params,
                noise,
            } => {
                let mut buf = [0.0; 3];
                let mut block = [Complex64::ZERO; L1 * L1];
                LocalGate::new(*gate, resolve(params, theta, &mut buf))
                    .fold_into(noise, L1, &mut block);
                block
            }
        }
    }

    /// The block whose trace preservation the compiler vouches for.
    fn stored(&self) -> &Block1 {
        match self {
            Factor::Fixed(block) | Factor::Param { noise: block, .. } => block,
        }
    }
}

/// Bakes a constant 2-qubit gate and its noise block into one sparse block.
fn bake_2q(gate: GateKind, params: &[f64], noise: &Block2) -> SparseBlock {
    let mut block = [Complex64::ZERO; L2 * L2];
    LocalGate::new(gate, params).fold_into(noise, L2, &mut block);
    SparseBlock::from_dense(&block)
}

/// One in-place pass over ρ.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// A run of 1-qubit ops on one wire, factors in application order
    /// (adjacent constant factors already multiplied).
    Wire { factors: Vec<Factor>, at: Footprint },
    /// A constant 2-qubit gate with its noise, baked.
    Fixed2 { block: SparseBlock, at: Footprint },
    /// A parametric 2-qubit gate and its noise block, folded per binding.
    Param2 {
        gate: GateKind,
        params: Vec<ParamValue>,
        noise: Box<Block2>,
        at: Footprint,
    },
}

impl Step {
    #[inline]
    fn apply(&self, theta: &[f64], rho: &mut [Complex64]) {
        match self {
            Step::Wire { factors, at } => {
                let (first, rest) = factors.split_first().expect("runs are non-empty");
                let mut acc = first.block(theta);
                let mut next = [Complex64::ZERO; L1 * L1];
                for f in rest {
                    matmul(&f.block(theta), &acc, L1, &mut next);
                    acc = next;
                }
                apply_block::<L1>(rho, &acc, at);
            }
            Step::Fixed2 { block, at } => block.apply(rho, at),
            Step::Param2 {
                gate,
                params,
                noise,
                at,
            } => {
                let mut buf = [0.0; 3];
                let mut block = [Complex64::ZERO; L2 * L2];
                LocalGate::new(*gate, resolve(params, theta, &mut buf)).fold_into(
                    &noise[..],
                    L2,
                    &mut block,
                );
                apply_block::<L2>(rho, &block, at);
            }
        }
    }
}

/// A circuit and its noise model compiled into in-place superoperator
/// kernels (see the [module docs](self)).
///
/// Results match [`NoisyDensitySimulator`](crate::sim::NoisyDensitySimulator)
/// on the same circuit and model to rounding; readout confusion and shot
/// sampling are the same code, so a seeded job consumes its RNG identically.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyProgram {
    num_qubits: usize,
    steps: Vec<Step>,
    readout: Vec<ReadoutError>,
}

impl NoisyProgram {
    /// Compiles `circuit` against `noise`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the noise model, or if a compiled
    /// block fails trace preservation beyond `1e-9` (the same bound
    /// [`KrausChannel::new`](crate::kraus::KrausChannel::new) enforces).
    pub fn compile(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let n = circuit.num_qubits();
        assert!(
            n <= noise.num_qubits(),
            "circuit ({n}) wider than noise model ({})",
            noise.num_qubits()
        );
        // Noise depends only on the wire or the ordered pair, so each block is
        // probed once and shared by every op there.
        let mut wire_noise: Vec<Option<Block1>> = vec![None; n];
        let mut pair_noise: BTreeMap<(usize, usize), Box<Block2>> = BTreeMap::new();
        // Likewise a constant 2-qubit gate (the transpiled CXs) bakes to one
        // block per ordered pair and angle.
        let mut baked: BTreeMap<(GateKind, usize, usize, [u64; 3]), SparseBlock> = BTreeMap::new();
        let mut runs: Vec<Vec<Factor>> = vec![Vec::new(); n];
        let mut steps = Vec::new();
        let flush = |runs: &mut Vec<Vec<Factor>>, steps: &mut Vec<Step>, q: usize| {
            let factors = std::mem::take(&mut runs[q]);
            if !factors.is_empty() {
                steps.push(Step::Wire {
                    factors,
                    at: Footprint::new(n, &[q]),
                });
            }
        };
        for op in circuit.ops() {
            match op.qubits[..] {
                [q] => {
                    let block = *wire_noise[q].get_or_insert_with(|| {
                        noise_block(noise.one_qubit_noise(q), 1)
                            .try_into()
                            .expect("4×4")
                    });
                    let factor = Factor::new(op.gate, &op.params, block);
                    let run = &mut runs[q];
                    match (run.last_mut(), &factor) {
                        (Some(Factor::Fixed(prev)), Factor::Fixed(next)) => {
                            let mut product = [Complex64::ZERO; L1 * L1];
                            matmul(next, prev, L1, &mut product);
                            *prev = product;
                        }
                        _ => run.push(factor),
                    }
                }
                [a, b] => {
                    flush(&mut runs, &mut steps, a);
                    flush(&mut runs, &mut steps, b);
                    let noise = pair_noise.entry((a, b)).or_insert_with(|| {
                        noise_block(noise.two_qubit_noise(a, b), 2)
                            .into_boxed_slice()
                            .try_into()
                            .expect("16×16")
                    });
                    let at = Footprint::new(n, &op.qubits);
                    steps.push(if op.params.iter().all(|p| p.symbol().is_none()) {
                        let mut buf = [0.0; 3];
                        let arity = resolve(&op.params, &[], &mut buf).len();
                        let key = (op.gate, a, b, buf.map(f64::to_bits));
                        let block = baked
                            .entry(key)
                            .or_insert_with(|| bake_2q(op.gate, &buf[..arity], noise));
                        Step::Fixed2 {
                            block: block.clone(),
                            at,
                        }
                    } else {
                        Step::Param2 {
                            gate: op.gate,
                            params: op.params.clone(),
                            noise: noise.clone(),
                            at,
                        }
                    });
                }
                _ => unreachable!("gates act on one or two qubits"),
            }
        }
        for q in 0..n {
            flush(&mut runs, &mut steps, q);
        }
        let program = NoisyProgram {
            num_qubits: n,
            steps,
            readout: noise.readout()[..n].to_vec(),
        };
        let defect = program.max_trace_defect();
        assert!(
            defect <= 1e-9,
            "compiled noisy program is not trace-preserving (defect {defect:e})"
        );
        program
    }

    /// Largest deviation of `Σ_a S[(a,a), ·]` from `vec(I)` over every
    /// stored block: the baked blocks and, for parametric gates, the noise
    /// blocks they are folded with (`U ⊗ Ū` is trace-preserving for any
    /// unitary, so folding cannot add a defect).
    pub fn max_trace_defect(&self) -> f64 {
        self.steps
            .iter()
            .map(|step| match step {
                Step::Wire { factors, .. } => factors
                    .iter()
                    .map(|f| trace_defect(f.stored(), L1))
                    .fold(0.0, f64::max),
                Step::Fixed2 { block, .. } => trace_defect(&block.to_dense(), L2),
                Step::Param2 { noise, .. } => trace_defect(&noise[..], L2),
            })
            .fold(0.0, f64::max)
    }

    /// Evolves `|0…0⟩⟨0…0|` into `rho` (a flattened `4ⁿ` buffer).
    fn evolve(&self, theta: &[f64], rho: &mut Vec<Complex64>) {
        rho.clear();
        rho.resize(1usize << (2 * self.num_qubits), Complex64::ZERO);
        rho[0] = Complex64::ONE;
        for step in &self.steps {
            step.apply(theta, rho);
        }
    }

    /// Runs `f` on the evolved ρ held in a per-thread scratch buffer.
    fn with_evolved<T>(&self, theta: &[f64], f: impl FnOnce(&[Complex64]) -> T) -> T {
        // Taken out of the cell (not borrowed) so a nested run on the same
        // thread gets a fresh buffer instead of a RefCell panic.
        let mut rho = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        self.evolve(theta, &mut rho);
        let out = f(&rho);
        if rho.capacity() <= SCRATCH_CAP {
            SCRATCH.with(|s| *s.borrow_mut() = rho);
        }
        out
    }

    /// The final density matrix (allocates; the hot paths below reuse a
    /// per-thread buffer instead).
    pub fn run(&self, theta: &[f64]) -> DensityMatrix {
        let mut rho = Vec::new();
        self.evolve(theta, &mut rho);
        let dim = 1usize << self.num_qubits;
        DensityMatrix::from_matrix(self.num_qubits, CMatrix::from_vec(dim, dim, rho))
    }

    /// The measurement distribution after gate noise *and* readout error.
    pub fn outcome_probabilities(&self, theta: &[f64]) -> Vec<f64> {
        let dim = 1usize << self.num_qubits;
        let mut probs = self.with_evolved(theta, |rho| {
            (0..dim)
                .map(|i| rho[i * dim + i].re.max(0.0))
                .collect::<Vec<f64>>()
        });
        apply_confusion(&mut probs, &self.readout);
        probs
    }

    /// Exact (infinite-shot) per-qubit Z expectations including readout
    /// error.
    pub fn expectations_z(&self, theta: &[f64]) -> Vec<f64> {
        expectations_from_probabilities(&self.outcome_probabilities(theta), self.num_qubits)
    }

    /// Shot-sampled per-qubit Z expectations.
    pub fn sampled_expectations_z<R: Rng + ?Sized>(
        &self,
        theta: &[f64],
        shots: u32,
        rng: &mut R,
    ) -> Vec<f64> {
        let probs = self.outcome_probabilities(theta);
        let counts = sample_dense_counts_from_probabilities(&probs, shots, rng);
        expectation_z_from_dense_counts(&counts, self.num_qubits, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{depolarizing_2q, thermal_relaxation};
    use crate::sim::NoisyDensitySimulator;

    fn model() -> NoiseModel {
        NoiseModel::builder(3)
            .one_qubit_depolarizing(0, 0.003)
            .one_qubit(1, thermal_relaxation(90.0, 70.0, 35.0))
            .two_qubit_depolarizing(0, 2, 0.02)
            .two_qubit_wire(0, 2, 1, thermal_relaxation(80.0, 60.0, 300.0))
            .two_qubit_default(depolarizing_2q(0.01))
            .build()
    }

    #[test]
    fn footprint_addresses_row_and_column_bits() {
        // 2 qubits, gate on wire 1: column bit 1, row bit 3.
        let at = Footprint::new(2, &[1]);
        assert_eq!(&at.offsets[..4], &[0, 0b0010, 0b1000, 0b1010]);
        assert_eq!(&at.bits[..2], &[1, 3]);
        // Groups enumerate every flat index with those bits clear.
        let bases: Vec<usize> = (0..4).map(|t| at.base(t)).collect();
        assert_eq!(bases, vec![0b0000, 0b0001, 0b0100, 0b0101]);
    }

    #[test]
    fn wire_runs_merge_and_match_the_oracle() {
        let mut c = Circuit::new(3);
        c.rz(1, ParamValue::sym(0));
        c.push(GateKind::Sx, &[1], &[]);
        c.push(GateKind::Sx, &[1], &[]);
        c.rz(1, 0.4);
        c.cx(2, 0);
        c.ry(0, ParamValue::sym(1));
        c.cx(1, 2);
        let noise = model();
        let program = NoisyProgram::compile(&c, &noise);
        // Wire 1 runs RZ(θ0)·[SX·SX·RZ(0.4)] as one pass, then the two CXs
        // and wire 0's RY.
        assert_eq!(program.steps.len(), 4);
        let theta = [0.7, -1.1];
        let want = NoisyDensitySimulator::new(noise).run(&c, &theta);
        assert!(program.run(&theta).matrix().approx_eq(want.matrix(), 1e-12));
        assert!(program.max_trace_defect() < 1e-12);
    }

    #[test]
    fn scratch_runs_are_repeatable_and_nest() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let noise = NoiseModel::builder(2)
            .two_qubit_depolarizing(0, 1, 0.05)
            .build();
        let program = NoisyProgram::compile(&c, &noise);
        let first = program.outcome_probabilities(&[]);
        let nested = program.with_evolved(&[], |_| program.outcome_probabilities(&[]));
        assert_eq!(first, nested);
        assert_eq!(first, program.outcome_probabilities(&[]));
    }
}
