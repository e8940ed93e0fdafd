//! Decision-diagram state-vector simulation.
//!
//! A quantum state over `n` qubits is represented as the rank-one matrix
//! `|psi><0...0|` inside the ordinary QMDD package, so gate application is
//! just diagram multiplication and structured states (GHZ, basis states,
//! product states) stay polynomially small far beyond the reach of dense
//! `2^n` arrays. This is the standard trick for reusing a matrix-DD engine
//! as a simulator.

use crate::fxhash::FxHashMap;
use crate::package::{Edge, Qmdd, TERMINAL};
use qsyn_circuit::Circuit;
use qsyn_gate::{Gate, C64};
use std::cell::RefCell;

/// A decision-diagram quantum state simulator.
///
/// # Examples
///
/// ```
/// use qsyn_qmdd::Simulator;
/// use qsyn_gate::Gate;
///
/// // A 40-qubit GHZ state is far beyond dense simulation but trivial here.
/// let mut sim = Simulator::new(40);
/// sim.apply(&Gate::h(0));
/// for q in 1..40 {
///     sim.apply(&Gate::cx(q - 1, q));
/// }
/// let a0 = sim.amplitude(0);
/// let a1 = sim.amplitude((1u128 << 40) - 1);
/// assert!((a0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
/// assert!((a1.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct Simulator {
    pkg: Qmdd,
    state: Edge,
    // Scratch memo buffers reused across queries instead of reallocating
    // a fresh map per call (`apply`-heavy loops interleave queries, and the
    // maps reach thousands of entries on wide registers).
    prob_memo: RefCell<FxHashMap<(u32, bool), f64>>,
    norm_memo: RefCell<FxHashMap<u32, f64>>,
}

impl Simulator {
    /// Creates a simulator in the all-zeros basis state `|0...0>`.
    pub fn new(n: usize) -> Self {
        let mut pkg = Qmdd::new(n);
        // |0..0><0..0| as a tensor of |0><0| factors.
        let zero_proj = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ZERO]];
        let state = pkg.tensor(|_| zero_proj);
        Simulator {
            pkg,
            state,
            prob_memo: RefCell::new(FxHashMap::default()),
            norm_memo: RefCell::new(FxHashMap::default()),
        }
    }

    /// Creates a simulator initialized to an arbitrary basis state. Line
    /// 0 is the most significant bit of `basis`; on more than 128 lines,
    /// the lines above the index's 128 bits start in `|0>`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` does not fit in `n` qubits.
    pub fn with_basis_state(n: usize, basis: u128) -> Self {
        assert!(n >= 128 || basis < (1u128 << n), "basis state out of range");
        let mut sim = Simulator::new(n);
        for q in 0..n {
            if line_bit(basis, n, q) {
                sim.apply(&Gate::x(q));
            }
        }
        sim
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.pkg.n_qubits()
    }

    /// Applies one gate to the state.
    ///
    /// The hot path reuses the package's scratch buffers (control masks in
    /// gate construction, relocation maps in collection) — applying a long
    /// circuit performs no per-gate scratch allocation.
    pub fn apply(&mut self, gate: &Gate) {
        let g = self.pkg.gate(gate);
        self.state = self.pkg.mul(g, self.state);
        self.state = self.pkg.maybe_gc(self.state);
    }

    /// Applies a whole circuit in execution order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the simulator.
    pub fn run(&mut self, circuit: &Circuit) {
        assert!(circuit.n_qubits() <= self.n_qubits(), "circuit too wide");
        for g in circuit.gates() {
            self.apply(g);
        }
    }

    /// The amplitude `<basis|psi>`. Line 0 is the most significant bit
    /// of `basis`; on more than 128 lines, the lines above the index's
    /// 128 bits are read as `|0>`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` does not fit in the register.
    pub fn amplitude(&self, basis: u128) -> C64 {
        let n = self.n_qubits();
        assert!(n >= 128 || basis < (1u128 << n), "basis state out of range");
        // Walk the row path at column 0.
        let mut e = self.state;
        let mut acc = C64::ONE;
        for var in 0..n {
            if e.is_zero() {
                return C64::ZERO;
            }
            acc *= self.pkg.weight_value(e.weight);
            let r = usize::from(line_bit(basis, n, var));
            e = self.pkg.children(e)[2 * r]; // column bit 0
        }
        if e.is_zero() {
            C64::ZERO
        } else {
            debug_assert_eq!(e.node, TERMINAL);
            acc * self.pkg.weight_value(e.weight)
        }
    }

    /// Probability of measuring `qubit` as `|1>`, computed by summing
    /// `|amplitude|^2` over the diagram (no collapse).
    pub fn probability_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.n_qubits(), "qubit out of range");
        let mut memo = self.prob_memo.borrow_mut();
        memo.clear();
        self.prob_walk(self.state, 0, qubit, false, &mut memo)
    }

    fn prob_walk(
        &self,
        e: Edge,
        var: usize,
        qubit: usize,
        took_one: bool,
        memo: &mut crate::fxhash::FxHashMap<(u32, bool), f64>,
    ) -> f64 {
        if e.is_zero() {
            return 0.0;
        }
        let w2 = self.pkg.weight_value(e.weight).norm_sqr();
        if e.node == TERMINAL {
            return if took_one { w2 } else { 0.0 };
        }
        // The weight-stripped sub-sum depends only on (node, took_one):
        // above the measured qubit took_one is constantly false, at the
        // qubit the incoming flag is ignored, and below it it is fixed.
        let key = (e.node, took_one);
        if let Some(&sub) = memo.get(&key) {
            return w2 * sub;
        }
        let ch = self.pkg.children(e);
        let mut sub = 0.0;
        for r in 0..2usize {
            let next_took = if var == qubit { r == 1 } else { took_one };
            sub += self.prob_walk(ch[2 * r], var + 1, qubit, next_took, memo);
        }
        memo.insert(key, sub);
        w2 * sub
    }

    /// Current number of nodes in the state diagram (a compactness
    /// diagnostic).
    pub fn state_nodes(&self) -> usize {
        self.pkg.node_count(self.state)
    }

    /// Fidelity `|<psi|phi>|^2` between this simulator's state `|psi>` and
    /// the state `|phi>` prepared by running `circuit` from `|0...0>`,
    /// computed entirely on diagrams (any register width).
    ///
    /// # Panics
    ///
    /// Panics if the circuit width differs from the simulator width.
    pub fn state_fidelity_with(&mut self, circuit: &Circuit) -> f64 {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits(),
            "width mismatch for state fidelity"
        );
        // Build |phi><0..0| in the same package.
        let zero_proj = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ZERO]];
        let mut phi = self.pkg.tensor(|_| zero_proj);
        for g in circuit.gates() {
            let ge = self.pkg.gate(g);
            phi = self.pkg.mul(ge, phi);
        }
        // (|psi><0|)† |phi><0| = |0><psi| |phi><0| = <psi|phi> |0><0|;
        // its trace is exactly the inner product.
        let psi_dag = self.pkg.adjoint(self.state);
        let prod = self.pkg.mul(psi_dag, phi);
        let inner = self.pkg.trace(prod);
        inner.norm_sqr()
    }

    /// Samples one complete measurement outcome (all qubits, computational
    /// basis) without collapsing the stored state. `uniform` must return
    /// numbers in `[0, 1)` — pass a closure over your RNG of choice.
    ///
    /// Walks the diagram once, choosing each qubit's bit with the correct
    /// conditional probability (chain rule), so a sample costs `O(n ·
    /// branch-norm evaluations)` rather than anything exponential. Line 0
    /// is the outcome's most significant bit.
    ///
    /// # Panics
    ///
    /// Panics on more than 128 lines: the outcome is a `u128`, one bit
    /// per line, and would lose the lines that do not fit.
    pub fn sample(&self, mut uniform: impl FnMut() -> f64) -> u128 {
        let n = self.n_qubits();
        assert!(
            n <= 128,
            "sample returns one bit per line in a u128: at most 128 lines, got {n}"
        );
        let mut memo = self.norm_memo.borrow_mut();
        memo.clear();
        let mut outcome = 0u128;
        let mut e = self.state;
        for q in 0..n {
            debug_assert!(!e.is_zero(), "state must be normalized");
            let w2 = self.pkg.weight_value(e.weight).norm_sqr();
            let ch = self.pkg.children(e);
            let p0 = self.branch_norm(ch[0], &mut memo);
            let p1 = self.branch_norm(ch[2], &mut memo);
            let total = (p0 + p1).max(f64::MIN_POSITIVE);
            let _ = w2; // cancels in the conditional probability
            let one = uniform() < p1 / total;
            if one {
                outcome |= 1 << line_shift(n, q).expect("at most 128 lines");
            }
            e = ch[if one { 2 } else { 0 }];
        }
        outcome
    }

    /// Squared norm of the sub-vector hanging off an edge (column 0 only),
    /// including the edge weight.
    fn branch_norm(&self, e: Edge, memo: &mut crate::fxhash::FxHashMap<u32, f64>) -> f64 {
        if e.is_zero() {
            return 0.0;
        }
        let w2 = self.pkg.weight_value(e.weight).norm_sqr();
        if e.node == TERMINAL {
            return w2;
        }
        let sub = if let Some(&hit) = memo.get(&e.node) {
            hit
        } else {
            let ch = self.pkg.children(e);
            let s = self.branch_norm(ch[0], memo) + self.branch_norm(ch[2], memo);
            memo.insert(e.node, s);
            s
        };
        w2 * sub
    }
}

/// The shift that brings line `q`'s bit of an `n`-line basis index down
/// to bit 0 (line 0 is the most significant bit), or `None` for a line
/// past the 128 bits a `u128` index holds.
fn line_shift(n: usize, q: usize) -> Option<u32> {
    u32::try_from(n - 1 - q)
        .ok()
        .filter(|&shift| shift < u128::BITS)
}

/// Line `q`'s bit of the `n`-line basis index `basis`; a line past the
/// index's 128 bits reads 0.
fn line_bit(basis: u128, n: usize, q: usize) -> bool {
    line_shift(n, q).is_some_and(|shift| basis >> shift & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: amplitudes from a plain state-vector run.
    fn dense_amplitudes(c: &Circuit) -> Vec<C64> {
        let mut state = vec![C64::ZERO; 1 << c.n_qubits()];
        state[0] = C64::ONE;
        c.apply_to_state(&mut state);
        state
    }

    fn random_circuit(n: usize, len: usize, mut seed: u64) -> Circuit {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut c = Circuit::new(n);
        for _ in 0..len {
            match next() % 5 {
                0 => c.push(Gate::h((next() as usize) % n)),
                1 => c.push(Gate::t((next() as usize) % n)),
                2 => c.push(Gate::x((next() as usize) % n)),
                _ => {
                    let a = (next() as usize) % n;
                    let b = (next() as usize) % n;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
            }
        }
        c
    }

    #[test]
    fn initial_state_is_all_zeros() {
        let sim = Simulator::new(3);
        assert!(sim.amplitude(0).is_one());
        for b in 1..8u128 {
            assert!(sim.amplitude(b).is_zero());
        }
    }

    #[test]
    fn basis_state_initialization() {
        let sim = Simulator::with_basis_state(4, 0b1010);
        assert!(sim.amplitude(0b1010).is_one());
        assert!(sim.amplitude(0b0000).is_zero());
        assert!(sim.amplitude(0b1011).is_zero());
    }

    #[test]
    fn matches_dense_simulation_on_random_circuits() {
        for seed in [3u64, 17, 99] {
            let c = random_circuit(4, 25, seed);
            let mut sim = Simulator::new(4);
            sim.run(&c);
            let dense = dense_amplitudes(&c);
            for (b, expected) in dense.iter().enumerate() {
                assert!(
                    sim.amplitude(b as u128).approx_eq(*expected),
                    "seed {seed}, basis {b}"
                );
            }
        }
    }

    #[test]
    fn bell_pair_probabilities() {
        let mut sim = Simulator::new(2);
        sim.apply(&Gate::h(0));
        sim.apply(&Gate::cx(0, 1));
        assert!((sim.probability_one(0) - 0.5).abs() < 1e-12);
        assert!((sim.probability_one(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_one_matches_dense() {
        let c = random_circuit(4, 30, 123);
        let mut sim = Simulator::new(4);
        sim.run(&c);
        let dense = dense_amplitudes(&c);
        for q in 0..4usize {
            let expected: f64 = dense
                .iter()
                .enumerate()
                .filter(|(b, _)| b >> (3 - q) & 1 == 1)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert!(
                (sim.probability_one(q) - expected).abs() < 1e-9,
                "qubit {q}: {} vs {expected}",
                sim.probability_one(q)
            );
        }
    }

    #[test]
    fn wide_ghz_stays_tiny() {
        let n = 64;
        let mut sim = Simulator::new(n);
        sim.apply(&Gate::h(0));
        for q in 1..n {
            sim.apply(&Gate::cx(q - 1, q));
        }
        // Linear-size diagram for an exponentially large state.
        assert!(sim.state_nodes() <= 2 * n);
        let all_ones = (1u128 << n) - 1;
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sim.amplitude(0).abs() - h).abs() < 1e-9);
        assert!((sim.amplitude(all_ones).abs() - h).abs() < 1e-9);
        assert!(sim.amplitude(1).is_zero());
        assert!((sim.probability_one(n / 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_probabilities_on_classical_circuit() {
        let mut sim = Simulator::new(3);
        sim.apply(&Gate::x(0));
        sim.apply(&Gate::cx(0, 2));
        assert!((sim.probability_one(0) - 1.0).abs() < 1e-12);
        assert!((sim.probability_one(1) - 0.0).abs() < 1e-12);
        assert!((sim.probability_one(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_fidelity_basics() {
        // GHZ vs itself: 1. GHZ vs |000>: 1/2. GHZ vs |100>: 0.
        let ghz = {
            let mut c = Circuit::new(3);
            c.push(Gate::h(0));
            c.push(Gate::cx(0, 1));
            c.push(Gate::cx(1, 2));
            c
        };
        let mut sim = Simulator::new(3);
        sim.run(&ghz);
        assert!((sim.state_fidelity_with(&ghz) - 1.0).abs() < 1e-9);
        assert!((sim.state_fidelity_with(&Circuit::new(3)) - 0.5).abs() < 1e-9);
        let mut flipped = Circuit::new(3);
        flipped.push(Gate::x(0));
        assert!(sim.state_fidelity_with(&flipped) < 1e-12);
    }

    #[test]
    fn state_fidelity_on_wide_register() {
        let n = 48;
        let mut ghz = Circuit::new(n);
        ghz.push(Gate::h(0));
        for q in 1..n {
            ghz.push(Gate::cx(q - 1, q));
        }
        let mut sim = Simulator::new(n);
        sim.run(&ghz);
        assert!((sim.state_fidelity_with(&ghz) - 1.0).abs() < 1e-9);
        // One stray phase on the |1...1> branch halves nothing but shifts
        // the overlap: |1/2 + e^{i pi/4}/2|^2.
        let mut tweaked = ghz.clone();
        tweaked.push(Gate::t(n - 1));
        let expect = {
            let t = qsyn_gate::C64::cis(std::f64::consts::FRAC_PI_4);
            ((qsyn_gate::C64::ONE + t) * 0.5).norm_sqr()
        };
        assert!((sim.state_fidelity_with(&tweaked) - expect).abs() < 1e-9);
    }

    #[test]
    fn sampling_ghz_gives_only_the_two_branches() {
        let mut sim = Simulator::new(10);
        sim.apply(&Gate::h(0));
        for q in 1..10 {
            sim.apply(&Gate::cx(q - 1, q));
        }
        let mut seed = 0x8badf00du64;
        let mut uniform = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let all_ones = (1u128 << 10) - 1;
        let mut ones = 0usize;
        for _ in 0..200 {
            let s = sim.sample(&mut uniform);
            assert!(s == 0 || s == all_ones, "GHZ sample {s:b}");
            if s == all_ones {
                ones += 1;
            }
        }
        // Roughly balanced (very loose bound; the distribution is 50/50).
        assert!(ones > 50 && ones < 150, "ones = {ones}");
    }

    #[test]
    fn sampling_matches_deterministic_states() {
        let mut sim = Simulator::with_basis_state(4, 0b1010);
        sim.apply(&Gate::cx(0, 3)); // q0=1 -> flip q3
        for _ in 0..10 {
            assert_eq!(sim.sample(|| 0.4999), 0b1011);
        }
    }

    #[test]
    fn sampling_respects_biased_amplitudes() {
        // T H |0> has P(1) = 1/2; but S (diag) after H leaves P unchanged;
        // check a 1-qubit superposition frequency.
        let mut sim = Simulator::new(1);
        sim.apply(&Gate::h(0));
        let mut k = 0u64;
        let mut uniform = move || {
            k += 1;
            (k % 100) as f64 / 100.0
        };
        let ones: usize = (0..100).map(|_| sim.sample(&mut uniform) as usize).sum();
        assert_eq!(ones, 50, "deterministic sweep hits exactly P(1)=0.5");
    }

    #[test]
    fn basis_states_past_128_lines_set_only_the_lines_the_index_holds() {
        // Bit 0 of the index is the last line; lines 0 and 1 lie past
        // the index's 128 bits and start in |0>.
        let n = 130;
        let sim = Simulator::with_basis_state(n, 1);
        for q in 0..n {
            let want = if q == n - 1 { 1.0 } else { 0.0 };
            assert!((sim.probability_one(q) - want).abs() < 1e-12, "line {q}");
        }
        assert!(sim.amplitude(1).approx_eq(C64::ONE));
        assert!(sim.amplitude(0).approx_eq(C64::ZERO));
        assert!(sim.amplitude(1 << 127).approx_eq(C64::ZERO));
        let top = Simulator::with_basis_state(n, 1 << 127);
        assert!((top.probability_one(2) - 1.0).abs() < 1e-12);
        assert!(top.amplitude(1 << 127).approx_eq(C64::ONE));
        // A line the index cannot hold reads as |0>.
        let mut high = Simulator::new(n);
        high.apply(&Gate::x(0));
        assert!(high.amplitude(0).approx_eq(C64::ZERO));
    }

    #[test]
    fn sampling_reads_line_zero_as_the_top_bit() {
        let mut sim = Simulator::new(128);
        sim.apply(&Gate::x(0));
        sim.apply(&Gate::x(127));
        assert_eq!(sim.sample(|| 0.5), 1 << 127 | 1);
    }

    #[test]
    #[should_panic(expected = "at most 128 lines, got 130")]
    fn sampling_more_than_128_lines_panics() {
        let mut sim = Simulator::new(130);
        sim.apply(&Gate::x(0));
        sim.sample(|| 0.5);
    }

    #[test]
    fn run_rejects_wider_circuit() {
        let mut sim = Simulator::new(2);
        let c = Circuit::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(&c)));
        assert!(result.is_err());
    }
}
