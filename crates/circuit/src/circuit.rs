//! The circuit intermediate representation shared by the front-end,
//! back-end, and verifier.

use crate::stats::CircuitStats;
use qsyn_gate::{Gate, Matrix, C64};
use std::fmt;

/// A quantum circuit: an ordered list of [`Gate`]s over `n` qubit lines.
///
/// Gates are stored in execution order (index 0 runs first). The circuit's
/// unitary is therefore `G_{k-1} * ... * G_1 * G_0` as a matrix product.
///
/// # Examples
///
/// ```
/// use qsyn_circuit::Circuit;
/// use qsyn_gate::Gate;
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::h(0));
/// bell.push(Gate::cx(0, 1));
/// assert_eq!(bell.len(), 2);
/// assert_eq!(bell.stats().cnot_count, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
    name: Option<String>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` lines.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
            name: None,
        }
    }

    /// Creates a circuit from a gate list.
    ///
    /// # Panics
    ///
    /// Panics if any gate references a line `>= n_qubits`.
    pub fn from_gates(n_qubits: usize, gates: Vec<Gate>) -> Self {
        for g in &gates {
            assert!(
                g.max_qubit() < n_qubits,
                "gate {g} exceeds register of {n_qubits} qubits"
            );
        }
        Circuit {
            n_qubits,
            gates,
            name: None,
        }
    }

    /// Builder-style name annotation.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Circuit name, if one was set.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Sets the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// Number of qubit lines.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates (the paper's "gate volume").
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list in execution order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Mutable access to the gate list (used by the optimizer).
    pub fn gates_mut(&mut self) -> &mut Vec<Gate> {
        &mut self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a line `>= n_qubits`.
    pub fn push(&mut self, gate: Gate) {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds register of {} qubits",
            self.n_qubits
        );
        self.gates.push(gate);
    }

    /// Appends every gate of `other` (which must fit in this register).
    pub fn append(&mut self, other: &Circuit) {
        for g in other.gates() {
            self.push(g.clone());
        }
    }

    /// Grows the register to `n_qubits` lines (no-op if already larger).
    pub fn widen(&mut self, n_qubits: usize) {
        if n_qubits > self.n_qubits {
            self.n_qubits = n_qubits;
        }
    }

    /// Iterates over gates in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// The circuit repeated `times` in sequence (e.g. iterated Grover
    /// rounds or powered permutations).
    pub fn repeated(&self, times: usize) -> Circuit {
        let mut out = Circuit::new(self.n_qubits);
        if let Some(name) = self.name() {
            out.set_name(format!("{name}^{times}"));
        }
        for _ in 0..times {
            out.append(self);
        }
        out
    }

    /// The exact inverse circuit (gates reversed and individually inverted).
    pub fn inverse(&self) -> Circuit {
        let gates = self.gates.iter().rev().map(Gate::inverse).collect();
        Circuit {
            n_qubits: self.n_qubits,
            gates,
            name: self.name.as_ref().map(|n| format!("{n}_inv")),
        }
    }

    /// Returns a copy with every qubit index `q` replaced by `map(q)`.
    ///
    /// Used to place logical circuits onto physical device lines.
    ///
    /// # Panics
    ///
    /// Panics if the mapping sends two lines of one gate to the same index
    /// or produces an index `>= n_qubits`.
    pub fn relabeled(&self, n_qubits: usize, map: impl Fn(usize) -> usize) -> Circuit {
        let gates: Vec<Gate> = self.gates.iter().map(|g| relabel_gate(g, &map)).collect();
        Circuit::from_gates(n_qubits, gates)
            .with_name(self.name.clone().unwrap_or_else(|| "circuit".into()))
    }

    /// Gate, T, and CNOT statistics used by cost models.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::of(self)
    }

    /// Whether every gate is natively executable on transmon hardware
    /// (one-qubit library gates and CNOT only).
    pub fn is_technology_ready(&self) -> bool {
        self.gates.iter().all(Gate::is_technology_ready)
    }

    /// Applies the circuit to a state vector in place.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^n_qubits`.
    pub fn apply_to_state(&self, state: &mut [C64]) {
        for g in &self.gates {
            g.apply_to_state(state, self.n_qubits);
        }
    }

    /// Dense unitary of the whole circuit. Reference semantics for tests;
    /// practical only for small registers (about 10 qubits or fewer).
    pub fn to_matrix(&self) -> Matrix {
        let dim = 1usize << self.n_qubits;
        let mut out = Matrix::zeros(dim);
        for col in 0..dim {
            let mut state = vec![C64::ZERO; dim];
            state[col] = C64::ONE;
            self.apply_to_state(&mut state);
            for (row, v) in state.iter().enumerate() {
                out[(row, col)] = *v;
            }
        }
        out
    }

    /// For purely classical (permutation) circuits: the output basis state
    /// for a given input basis state, computed without amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains a non-permutation gate (H, S, T, ...).
    pub fn permute_basis(&self, input: u64) -> u64 {
        let mut b = input;
        let n = self.n_qubits;
        let bit = |q: usize| 1u64 << (n - 1 - q);
        for g in &self.gates {
            match g {
                Gate::Single {
                    op: qsyn_gate::SingleOp::X,
                    qubit,
                } => b ^= bit(*qubit),
                Gate::Cx { control, target } => {
                    if b & bit(*control) != 0 {
                        b ^= bit(*target);
                    }
                }
                Gate::Swap { a, b: q } => {
                    let (ba, bb) = (bit(*a), bit(*q));
                    let va = b & ba != 0;
                    let vb = b & bb != 0;
                    if va != vb {
                        b ^= ba | bb;
                    }
                }
                Gate::Mct { controls, target } => {
                    if controls.iter().all(|c| b & bit(*c) != 0) {
                        b ^= bit(*target);
                    }
                }
                other => panic!("permute_basis on non-classical gate {other}"),
            }
        }
        b
    }

    /// Whether the circuit consists solely of classical reversible gates
    /// (NOT / CNOT / SWAP / Toffoli / MCT).
    pub fn is_classical(&self) -> bool {
        self.gates.iter().all(|g| {
            matches!(
                g,
                Gate::Single {
                    op: qsyn_gate::SingleOp::X,
                    ..
                } | Gate::Cx { .. }
                    | Gate::Swap { .. }
                    | Gate::Mct { .. }
            )
        })
    }
}

fn relabel_gate(g: &Gate, map: &impl Fn(usize) -> usize) -> Gate {
    match g {
        Gate::Single { op, qubit } => Gate::single(*op, map(*qubit)),
        Gate::Cx { control, target } => Gate::cx(map(*control), map(*target)),
        Gate::Cz { control, target } => Gate::cz(map(*control), map(*target)),
        Gate::Swap { a, b } => Gate::swap(map(*a), map(*b)),
        Gate::Mct { controls, target } => {
            Gate::mct(controls.iter().map(|&c| map(c)).collect(), map(*target))
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {} ({} qubits, {} gates):",
            self.name.as_deref().unwrap_or("<anonymous>"),
            self.n_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl IntoIterator for Circuit {
    type Item = Gate;
    type IntoIter = std::vec::IntoIter<Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.into_iter()
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::{Matrix, SingleOp};

    fn ghz3() -> Circuit {
        let mut c = Circuit::new(3).with_name("ghz3");
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c
    }

    #[test]
    fn push_and_len() {
        let c = ghz3();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.name(), Some("ghz3"));
    }

    #[test]
    #[should_panic(expected = "exceeds register")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::x(2));
    }

    #[test]
    fn inverse_composes_to_identity() {
        let c = ghz3();
        let mut both = c.clone();
        both.append(&c.inverse());
        assert!(both.to_matrix().approx_eq(&Matrix::identity(8)));
    }

    #[test]
    fn to_matrix_of_bell_pair() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let m = c.to_matrix();
        // Column 0 is (|00> + |11>)/sqrt(2).
        assert!((m[(0, 0)].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((m[(3, 0)].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!(m[(1, 0)].is_zero() && m[(2, 0)].is_zero());
    }

    #[test]
    fn relabeled_preserves_semantics_under_permutation() {
        let c = ghz3();
        let perm = [2usize, 0, 1];
        let r = c.relabeled(3, |q| perm[q]);
        // Relabeled circuit equals conjugation by the permutation.
        let m = c.to_matrix();
        let rm = r.to_matrix();
        // Check a couple of amplitudes directly: H on line 2 now.
        assert_eq!(r.gates()[0], Gate::h(2));
        assert!(!m.approx_eq(&rm));
    }

    #[test]
    fn permute_basis_matches_matrix_for_classical() {
        let mut c = Circuit::new(3);
        c.push(Gate::x(0));
        c.push(Gate::cx(0, 2));
        c.push(Gate::toffoli(0, 2, 1));
        c.push(Gate::swap(1, 2));
        assert!(c.is_classical());
        let m = c.to_matrix();
        for input in 0..8u64 {
            let out = c.permute_basis(input);
            assert!(m[(out as usize, input as usize)].is_one());
        }
    }

    #[test]
    #[should_panic(expected = "non-classical")]
    fn permute_basis_rejects_hadamard() {
        let c = ghz3();
        let _ = c.permute_basis(0);
    }

    #[test]
    fn is_classical_flags() {
        assert!(!ghz3().is_classical());
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        assert!(c.is_classical());
        c.push(Gate::single(SingleOp::T, 0));
        assert!(!c.is_classical());
    }

    #[test]
    fn technology_ready_detection() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        assert!(c.is_technology_ready());
        c.push(Gate::toffoli(0, 1, 2));
        assert!(!c.is_technology_ready());
    }

    #[test]
    fn repeated_composes_permutations() {
        // The 3-line increment repeated 8 times is the identity.
        let mut inc = Circuit::new(3).with_name("inc");
        inc.push(Gate::x(2));
        inc.push(Gate::cx(2, 1));
        inc.push(Gate::toffoli(1, 2, 0));
        // (not literally an increment, but a permutation with some order)
        let p1 = inc.permute_basis(0b011);
        let twice = inc.repeated(2);
        assert_eq!(twice.len(), 2 * inc.len());
        assert_eq!(twice.permute_basis(0b011), inc.permute_basis(p1));
        assert_eq!(twice.name(), Some("inc^2"));
        assert!(inc.repeated(0).is_empty());
    }

    #[test]
    fn widen_only_grows() {
        let mut c = Circuit::new(2);
        c.widen(5);
        assert_eq!(c.n_qubits(), 5);
        c.widen(3);
        assert_eq!(c.n_qubits(), 5);
    }

    #[test]
    fn extend_and_iterators() {
        let mut c = Circuit::new(2);
        c.extend([Gate::h(0), Gate::cx(0, 1)]);
        assert_eq!(c.iter().count(), 2);
        assert_eq!((&c).into_iter().count(), 2);
        assert_eq!(c.into_iter().count(), 2);
    }

    #[test]
    fn display_lists_gates() {
        let text = ghz3().to_string();
        assert!(text.contains("ghz3"));
        assert!(text.contains("H q0"));
        assert!(text.contains("CNOT q1 -> q2"));
    }
}
