//! The quantum gate set of the compiler.
//!
//! The technology-independent input language uses NOT, CNOT, Toffoli and
//! generalized Toffoli (`MCT`) operators plus the one-qubit library of the
//! target (Table 1 of the paper); the technology-dependent output language is
//! restricted to the IBM transmon library: `X, Y, Z, H, S, S†, T, T†, CNOT`.
//!
//! Qubit index convention: qubit `0` is the **top** line of the circuit and
//! the most-significant bit of a computational basis index, matching the
//! QMDD variable order `x0 -> x1 -> ...` of the paper's Fig. 1.

use crate::complex::C64;
use crate::matrix::Matrix;
use std::fmt;
use std::sync::OnceLock;

/// One-qubit operators of the transmon library (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SingleOp {
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Adjoint phase gate `S† = diag(1, -i)`.
    Sdg,
    /// `pi/8` gate `T = diag(1, e^{i pi/4})`.
    T,
    /// Adjoint `pi/8` gate.
    Tdg,
}

/// All eight library operators, in a fixed order used by lookup tables.
pub const SINGLE_OPS: [SingleOp; 8] = [
    SingleOp::X,
    SingleOp::Y,
    SingleOp::Z,
    SingleOp::H,
    SingleOp::S,
    SingleOp::Sdg,
    SingleOp::T,
    SingleOp::Tdg,
];

impl SingleOp {
    /// The 2x2 unitary of this operator (Table 1 of the paper).
    pub fn matrix(self) -> Matrix {
        let h = C64::FRAC_1_SQRT_2;
        let t = C64::cis(std::f64::consts::FRAC_PI_4);
        match self {
            SingleOp::X => Matrix::from_rows(&[[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]),
            SingleOp::Y => Matrix::from_rows(&[[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]),
            SingleOp::Z => Matrix::from_rows(&[[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]),
            SingleOp::H => Matrix::from_rows(&[[h, h], [h, -h]]),
            SingleOp::S => Matrix::from_rows(&[[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]),
            SingleOp::Sdg => Matrix::from_rows(&[[C64::ONE, C64::ZERO], [C64::ZERO, -C64::I]]),
            SingleOp::T => Matrix::from_rows(&[[C64::ONE, C64::ZERO], [C64::ZERO, t]]),
            SingleOp::Tdg => Matrix::from_rows(&[[C64::ONE, C64::ZERO], [C64::ZERO, t.conj()]]),
        }
    }

    /// The library operator realizing the inverse.
    pub fn inverse(self) -> SingleOp {
        match self {
            SingleOp::S => SingleOp::Sdg,
            SingleOp::Sdg => SingleOp::S,
            SingleOp::T => SingleOp::Tdg,
            SingleOp::Tdg => SingleOp::T,
            other => other, // X, Y, Z, H are involutions
        }
    }

    /// Whether the operator is diagonal in the computational basis.
    ///
    /// Diagonal operators commute with each other and with the control side
    /// of any controlled gate, which the local optimizer exploits.
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            SingleOp::Z | SingleOp::S | SingleOp::Sdg | SingleOp::T | SingleOp::Tdg
        )
    }

    /// For diagonal operators, the `pi/4` phase step count `k` such that the
    /// operator is `diag(1, e^{i k pi/4})`; `None` for non-diagonal ones.
    pub fn phase_steps(self) -> Option<u8> {
        match self {
            SingleOp::T => Some(1),
            SingleOp::S => Some(2),
            SingleOp::Z => Some(4),
            SingleOp::Sdg => Some(6),
            SingleOp::Tdg => Some(7),
            _ => None,
        }
    }

    /// Library operators realizing `diag(1, e^{i k pi/4})` for `k mod 8`,
    /// using the fewest gates. Returns an empty vector for `k = 0`.
    pub fn from_phase_steps(k: u8) -> Vec<SingleOp> {
        match k % 8 {
            0 => vec![],
            1 => vec![SingleOp::T],
            2 => vec![SingleOp::S],
            3 => vec![SingleOp::S, SingleOp::T],
            4 => vec![SingleOp::Z],
            5 => vec![SingleOp::Z, SingleOp::T],
            6 => vec![SingleOp::Sdg],
            7 => vec![SingleOp::Tdg],
            _ => unreachable!(),
        }
    }

    /// Lowercase OpenQASM 2.0 mnemonic.
    pub fn qasm_name(self) -> &'static str {
        match self {
            SingleOp::X => "x",
            SingleOp::Y => "y",
            SingleOp::Z => "z",
            SingleOp::H => "h",
            SingleOp::S => "s",
            SingleOp::Sdg => "sdg",
            SingleOp::T => "t",
            SingleOp::Tdg => "tdg",
        }
    }

    fn table_index(self) -> usize {
        match self {
            SingleOp::X => 0,
            SingleOp::Y => 1,
            SingleOp::Z => 2,
            SingleOp::H => 3,
            SingleOp::S => 4,
            SingleOp::Sdg => 5,
            SingleOp::T => 6,
            SingleOp::Tdg => 7,
        }
    }
}

impl fmt::Display for SingleOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SingleOp::X => "X",
            SingleOp::Y => "Y",
            SingleOp::Z => "Z",
            SingleOp::H => "H",
            SingleOp::S => "S",
            SingleOp::Sdg => "S†",
            SingleOp::T => "T",
            SingleOp::Tdg => "T†",
        };
        f.write_str(s)
    }
}

/// Result of fusing two adjacent one-qubit library operators exactly
/// (no global phase allowed, since the compiler verifies exact equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fusion {
    /// The pair multiplies to the identity and can be deleted.
    Identity,
    /// The pair multiplies exactly to a single library operator.
    Single(SingleOp),
    /// No exact single-operator replacement exists in the library.
    None,
}

/// Exact product `second * first` (i.e. `first` applied first) of two library
/// operators, as a [`Fusion`].
///
/// The table is derived numerically from the operator matrices once and
/// cached, so it cannot drift from the matrix definitions.
///
/// # Examples
///
/// ```
/// use qsyn_gate::{fuse, Fusion, SingleOp};
/// assert_eq!(fuse(SingleOp::T, SingleOp::T), Fusion::Single(SingleOp::S));
/// assert_eq!(fuse(SingleOp::H, SingleOp::H), Fusion::Identity);
/// assert_eq!(fuse(SingleOp::H, SingleOp::T), Fusion::None);
/// ```
pub fn fuse(first: SingleOp, second: SingleOp) -> Fusion {
    static TABLE: OnceLock<[[Fusion; 8]; 8]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [[Fusion::None; 8]; 8];
        let id = Matrix::identity(2);
        for a in SINGLE_OPS {
            for b in SINGLE_OPS {
                let prod = b.matrix().mul(&a.matrix());
                let mut fusion = Fusion::None;
                if prod.approx_eq(&id) {
                    fusion = Fusion::Identity;
                } else {
                    for c in SINGLE_OPS {
                        if prod.approx_eq(&c.matrix()) {
                            fusion = Fusion::Single(c);
                            break;
                        }
                    }
                }
                t[a.table_index()][b.table_index()] = fusion;
            }
        }
        t
    });
    table[first.table_index()][second.table_index()]
}

/// A quantum gate instance applied to specific qubit lines.
///
/// Gates come in two tiers:
/// * technology-ready: [`Gate::Single`] and [`Gate::Cx`];
/// * technology-independent (must be decomposed by the back-end before a
///   real device can run them): [`Gate::Cz`], [`Gate::Swap`], [`Gate::Mct`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate {
    /// A one-qubit library operator on `qubit`.
    Single {
        /// Which operator.
        op: SingleOp,
        /// Target line.
        qubit: usize,
    },
    /// Controlled-NOT with the given control and target lines.
    Cx {
        /// Control line.
        control: usize,
        /// Target line.
        target: usize,
    },
    /// Controlled-Z (symmetric in its two lines).
    Cz {
        /// Control line.
        control: usize,
        /// Target line.
        target: usize,
    },
    /// SWAP of two lines.
    Swap {
        /// First line.
        a: usize,
        /// Second line.
        b: usize,
    },
    /// Generalized Toffoli `T_n`: X on `target` controlled on every line in
    /// `controls` being |1>. Two controls give the ordinary Toffoli.
    Mct {
        /// Control lines (at least two; sorted, duplicate-free).
        controls: Vec<usize>,
        /// Target line.
        target: usize,
    },
}

impl Gate {
    /// One-qubit gate constructor.
    pub fn single(op: SingleOp, qubit: usize) -> Gate {
        Gate::Single { op, qubit }
    }

    /// Pauli-X (NOT) on `qubit`.
    pub fn x(qubit: usize) -> Gate {
        Gate::single(SingleOp::X, qubit)
    }

    /// Hadamard on `qubit`.
    pub fn h(qubit: usize) -> Gate {
        Gate::single(SingleOp::H, qubit)
    }

    /// T gate on `qubit`.
    pub fn t(qubit: usize) -> Gate {
        Gate::single(SingleOp::T, qubit)
    }

    /// T† gate on `qubit`.
    pub fn tdg(qubit: usize) -> Gate {
        Gate::single(SingleOp::Tdg, qubit)
    }

    /// CNOT constructor.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn cx(control: usize, target: usize) -> Gate {
        assert_ne!(control, target, "CNOT control equals target");
        Gate::Cx { control, target }
    }

    /// Controlled-Z constructor.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn cz(control: usize, target: usize) -> Gate {
        assert_ne!(control, target, "CZ control equals target");
        Gate::Cz { control, target }
    }

    /// SWAP constructor.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap(a: usize, b: usize) -> Gate {
        assert_ne!(a, b, "SWAP of a line with itself");
        Gate::Swap { a, b }
    }

    /// Toffoli (two controls) constructor.
    pub fn toffoli(c0: usize, c1: usize, target: usize) -> Gate {
        Gate::mct(vec![c0, c1], target)
    }

    /// Generalized Toffoli constructor. Normalizes degenerate control counts:
    /// zero controls produce an X gate and one control a CNOT.
    ///
    /// # Panics
    ///
    /// Panics if the target appears among the controls or a control repeats.
    pub fn mct(mut controls: Vec<usize>, target: usize) -> Gate {
        controls.sort_unstable();
        assert!(
            controls.windows(2).all(|w| w[0] != w[1]),
            "duplicate MCT control"
        );
        assert!(
            !controls.contains(&target),
            "MCT target used as its own control"
        );
        match controls.len() {
            0 => Gate::x(target),
            1 => Gate::cx(controls[0], target),
            _ => Gate::Mct { controls, target },
        }
    }

    /// The distinct qubit lines this gate touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::Single { qubit, .. } => vec![*qubit],
            Gate::Cx { control, target } | Gate::Cz { control, target } => {
                vec![*control, *target]
            }
            Gate::Swap { a, b } => vec![*a, *b],
            Gate::Mct { controls, target } => {
                let mut v = controls.clone();
                v.push(*target);
                v
            }
        }
    }

    /// Largest qubit index referenced, or `None` for (impossible) empty support.
    pub fn max_qubit(&self) -> usize {
        self.qubits().into_iter().max().expect("gate has qubits")
    }

    /// Whether this gate touches `qubit`.
    pub fn touches(&self, qubit: usize) -> bool {
        match self {
            Gate::Single { qubit: q, .. } => *q == qubit,
            Gate::Cx { control, target } | Gate::Cz { control, target } => {
                *control == qubit || *target == qubit
            }
            Gate::Swap { a, b } => *a == qubit || *b == qubit,
            Gate::Mct { controls, target } => *target == qubit || controls.contains(&qubit),
        }
    }

    /// Whether this gate shares at least one line with `other`.
    pub fn overlaps(&self, other: &Gate) -> bool {
        self.qubits().iter().any(|q| other.touches(*q))
    }

    /// The exact inverse gate.
    pub fn inverse(&self) -> Gate {
        match self {
            Gate::Single { op, qubit } => Gate::single(op.inverse(), *qubit),
            other => other.clone(), // CX, CZ, SWAP, MCT are involutions
        }
    }

    /// Whether `self` followed by `other` is the identity.
    pub fn is_inverse_of(&self, other: &Gate) -> bool {
        *self == other.inverse()
    }

    /// Whether this is a T or T† gate (the fault-tolerance-expensive
    /// operators weighted in the paper's cost function, Eqn. 2).
    pub fn is_t_like(&self) -> bool {
        matches!(
            self,
            Gate::Single {
                op: SingleOp::T | SingleOp::Tdg,
                ..
            }
        )
    }

    /// Whether this gate is available natively in the transmon library
    /// (one-qubit operator or CNOT).
    pub fn is_technology_ready(&self) -> bool {
        matches!(self, Gate::Single { .. } | Gate::Cx { .. })
    }

    /// Number of qubit lines this gate touches.
    pub fn arity(&self) -> usize {
        match self {
            Gate::Single { .. } => 1,
            Gate::Cx { .. } | Gate::Cz { .. } | Gate::Swap { .. } => 2,
            Gate::Mct { controls, .. } => controls.len() + 1,
        }
    }

    /// Applies the gate in place to a `2^n`-dimensional state vector.
    ///
    /// Qubit `q` corresponds to bit `n-1-q` of the basis index (qubit 0 is
    /// the most significant bit).
    ///
    /// # Panics
    ///
    /// Panics if the state length is not a power of two covering every line
    /// the gate touches.
    pub fn apply_to_state(&self, state: &mut [C64], n: usize) {
        assert_eq!(state.len(), 1usize << n, "state dimension mismatch");
        assert!(self.max_qubit() < n, "gate line outside register");
        let bit = |q: usize| 1usize << (n - 1 - q);
        match self {
            Gate::Single { op, qubit } => {
                let m = op.matrix();
                let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
                let tb = bit(*qubit);
                for i in 0..state.len() {
                    if i & tb == 0 {
                        let j = i | tb;
                        let (a, b) = (state[i], state[j]);
                        state[i] = m00 * a + m01 * b;
                        state[j] = m10 * a + m11 * b;
                    }
                }
            }
            Gate::Cx { control, target } => {
                let cb = bit(*control);
                let tb = bit(*target);
                for i in 0..state.len() {
                    if i & cb != 0 && i & tb == 0 {
                        state.swap(i, i | tb);
                    }
                }
            }
            Gate::Cz { control, target } => {
                let cb = bit(*control);
                let tb = bit(*target);
                for (v, amp) in state.iter_mut().enumerate() {
                    if v & cb != 0 && v & tb != 0 {
                        *amp = -*amp;
                    }
                }
            }
            Gate::Swap { a, b } => {
                let ab = bit(*a);
                let bb = bit(*b);
                for i in 0..state.len() {
                    if i & ab != 0 && i & bb == 0 {
                        state.swap(i, (i & !ab) | bb);
                    }
                }
            }
            Gate::Mct { controls, target } => {
                let cmask: usize = controls.iter().map(|&c| bit(c)).sum();
                let tb = bit(*target);
                for i in 0..state.len() {
                    if i & cmask == cmask && i & tb == 0 {
                        state.swap(i, i | tb);
                    }
                }
            }
        }
    }

    /// Dense `2^n x 2^n` unitary of the gate embedded in an `n`-line register.
    ///
    /// Only intended for small `n` (reference semantics in tests).
    pub fn to_matrix(&self, n: usize) -> Matrix {
        let dim = 1usize << n;
        let mut out = Matrix::zeros(dim);
        for col in 0..dim {
            let mut state = vec![C64::ZERO; dim];
            state[col] = C64::ONE;
            self.apply_to_state(&mut state, n);
            for (row, v) in state.iter().enumerate() {
                out[(row, col)] = *v;
            }
        }
        out
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Single { op, qubit } => write!(f, "{op} q{qubit}"),
            Gate::Cx { control, target } => write!(f, "CNOT q{control} -> q{target}"),
            Gate::Cz { control, target } => write!(f, "CZ q{control}, q{target}"),
            Gate::Swap { a, b } => write!(f, "SWAP q{a}, q{b}"),
            Gate::Mct { controls, target } => {
                write!(f, "T{}(", controls.len() + 1)?;
                for (i, c) in controls.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "q{c}")?;
                }
                write!(f, " -> q{target})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::equal_up_to_phase;

    #[test]
    fn table1_single_qubit_matrices_are_unitary() {
        for op in SINGLE_OPS {
            assert!(op.matrix().is_unitary(), "{op} not unitary");
        }
    }

    #[test]
    fn table1_pauli_relations() {
        // Y = i X Z exactly captures the Table 1 Pauli-Y definition.
        let ixz = {
            let mut m = SingleOp::X.matrix().mul(&SingleOp::Z.matrix());
            for i in 0..2 {
                for j in 0..2 {
                    m[(i, j)] *= C64::I;
                }
            }
            m
        };
        assert!(ixz.approx_eq(&SingleOp::Y.matrix()));
    }

    #[test]
    fn table1_phase_tower() {
        // T^2 = S, S^2 = Z.
        let t = SingleOp::T.matrix();
        let s = SingleOp::S.matrix();
        assert!(t.mul(&t).approx_eq(&s));
        assert!(s.mul(&s).approx_eq(&SingleOp::Z.matrix()));
    }

    #[test]
    fn inverses_multiply_to_identity() {
        let id = Matrix::identity(2);
        for op in SINGLE_OPS {
            assert!(op.inverse().matrix().mul(&op.matrix()).approx_eq(&id));
        }
    }

    #[test]
    fn fusion_matches_matrix_products() {
        let id = Matrix::identity(2);
        for a in SINGLE_OPS {
            for b in SINGLE_OPS {
                let prod = b.matrix().mul(&a.matrix());
                match fuse(a, b) {
                    Fusion::Identity => assert!(prod.approx_eq(&id), "{a},{b}"),
                    Fusion::Single(c) => assert!(prod.approx_eq(&c.matrix()), "{a},{b}->{c}"),
                    Fusion::None => {
                        assert!(!prod.approx_eq(&id), "{a},{b} missed identity");
                        for c in SINGLE_OPS {
                            assert!(!prod.approx_eq(&c.matrix()), "{a},{b} missed {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn known_fusions() {
        assert_eq!(fuse(SingleOp::T, SingleOp::T), Fusion::Single(SingleOp::S));
        assert_eq!(fuse(SingleOp::S, SingleOp::S), Fusion::Single(SingleOp::Z));
        assert_eq!(fuse(SingleOp::T, SingleOp::Tdg), Fusion::Identity);
        assert_eq!(
            fuse(SingleOp::S, SingleOp::Z),
            Fusion::Single(SingleOp::Sdg)
        );
        // X then Z is -iY: global phase, must NOT fuse.
        assert_eq!(fuse(SingleOp::X, SingleOp::Z), Fusion::None);
    }

    #[test]
    fn phase_step_round_trip() {
        for k in 0..8u8 {
            let ops = SingleOp::from_phase_steps(k);
            let total: u32 = ops.iter().map(|o| o.phase_steps().unwrap() as u32).sum();
            assert_eq!(total % 8, k as u32);
            assert!(ops.len() <= 2);
        }
    }

    #[test]
    fn cnot_matrix_matches_table1() {
        // Control q0 (msb), target q1: |10> -> |11>, |11> -> |10>.
        let m = Gate::cx(0, 1).to_matrix(2);
        let expected = {
            let mut e = Matrix::zeros(4);
            e[(0, 0)] = C64::ONE;
            e[(1, 1)] = C64::ONE;
            e[(2, 3)] = C64::ONE;
            e[(3, 2)] = C64::ONE;
            e
        };
        assert!(m.approx_eq(&expected));
    }

    #[test]
    fn cz_is_symmetric() {
        let a = Gate::cz(0, 1).to_matrix(2);
        let b = Gate::cz(1, 0).to_matrix(2);
        assert!(a.approx_eq(&b));
    }

    #[test]
    fn swap_matrix_matches_table1() {
        let m = Gate::swap(0, 1).to_matrix(2);
        let mut e = Matrix::zeros(4);
        e[(0, 0)] = C64::ONE;
        e[(1, 2)] = C64::ONE;
        e[(2, 1)] = C64::ONE;
        e[(3, 3)] = C64::ONE;
        assert!(m.approx_eq(&e));
    }

    #[test]
    fn toffoli_matrix_matches_table1() {
        let m = Gate::toffoli(0, 1, 2).to_matrix(3);
        assert!(m.is_permutation());
        // |110> -> |111> and vice versa; everything else fixed.
        for b in 0..8usize {
            let expect = if b >> 1 == 0b11 { b ^ 1 } else { b };
            assert!(m[(expect, b)].is_one(), "column {b}");
        }
    }

    #[test]
    fn mct_normalizes_small_control_counts() {
        assert_eq!(Gate::mct(vec![], 3), Gate::x(3));
        assert_eq!(Gate::mct(vec![1], 3), Gate::cx(1, 3));
        assert!(matches!(Gate::mct(vec![1, 2], 3), Gate::Mct { .. }));
    }

    #[test]
    fn mct_acts_as_multi_controlled_not() {
        let g = Gate::mct(vec![0, 1, 2], 3);
        let m = g.to_matrix(4);
        assert!(m.is_permutation());
        for b in 0..16usize {
            let expect = if b >> 1 == 0b111 { b ^ 1 } else { b };
            assert!(m[(expect, b)].is_one());
        }
    }

    #[test]
    fn swap_equals_three_cnots() {
        let s = Gate::swap(0, 1).to_matrix(2);
        let c01 = Gate::cx(0, 1).to_matrix(2);
        let c10 = Gate::cx(1, 0).to_matrix(2);
        let three = c01.mul(&c10.mul(&c01));
        assert!(s.approx_eq(&three));
    }

    #[test]
    fn gate_inverse_round_trip() {
        let gates = [
            Gate::t(0),
            Gate::h(1),
            Gate::cx(0, 2),
            Gate::swap(1, 2),
            Gate::mct(vec![0, 1], 2),
        ];
        for g in gates {
            let m = g.to_matrix(3);
            let mi = g.inverse().to_matrix(3);
            assert!(m.mul(&mi).approx_eq(&Matrix::identity(8)), "{g}");
        }
    }

    #[test]
    fn overlaps_and_touches() {
        let a = Gate::cx(0, 1);
        let b = Gate::t(1);
        let c = Gate::h(2);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.touches(0) && a.touches(1) && !a.touches(2));
    }

    #[test]
    fn hxh_equals_z() {
        let h = Gate::h(0).to_matrix(1);
        let x = Gate::x(0).to_matrix(1);
        let z = Gate::single(SingleOp::Z, 0).to_matrix(1);
        assert!(h.mul(&x.mul(&h)).approx_eq(&z));
        assert!(equal_up_to_phase(&h.mul(&x.mul(&h)), &z));
    }

    #[test]
    #[should_panic(expected = "CNOT control equals target")]
    fn cx_rejects_equal_lines() {
        let _ = Gate::cx(1, 1);
    }

    #[test]
    #[should_panic(expected = "MCT target used as its own control")]
    fn mct_rejects_target_in_controls() {
        let _ = Gate::mct(vec![0, 1], 1);
    }

    #[test]
    fn apply_to_state_matches_matrix_on_random_states() {
        // Deterministic pseudo-random amplitudes; compare the in-place
        // state update against the dense embedding for every gate kind.
        let gates = [
            Gate::h(1),
            Gate::t(0),
            Gate::single(SingleOp::Y, 2),
            Gate::cx(2, 0),
            Gate::cz(0, 2),
            Gate::swap(1, 2),
            Gate::toffoli(2, 0, 1),
        ];
        let mut seed = 0x5a5a_5a5au64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 1000.0 - 0.5
        };
        for g in gates {
            let state: Vec<C64> = (0..8).map(|_| C64::new(next(), next())).collect();
            let mut fast = state.clone();
            g.apply_to_state(&mut fast, 3);
            let slow = g.to_matrix(3).apply(&state);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b), "{g}");
            }
        }
    }

    #[test]
    fn arity_matches_qubit_count() {
        assert_eq!(Gate::h(0).arity(), 1);
        assert_eq!(Gate::cx(0, 1).arity(), 2);
        assert_eq!(Gate::swap(0, 1).arity(), 2);
        assert_eq!(Gate::mct(vec![0, 1, 2, 3], 4).arity(), 5);
        for g in [Gate::h(0), Gate::cx(0, 1), Gate::mct(vec![0, 1], 2)] {
            assert_eq!(g.arity(), g.qubits().len());
        }
    }

    #[test]
    fn mct_controls_are_sorted_and_canonical() {
        let a = Gate::mct(vec![3, 1, 2], 0);
        let b = Gate::mct(vec![1, 2, 3], 0);
        assert_eq!(a, b, "control order is canonicalized");
    }

    #[test]
    #[should_panic(expected = "duplicate MCT control")]
    fn mct_rejects_duplicate_controls() {
        let _ = Gate::mct(vec![1, 1, 2], 0);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Gate::t(3).to_string(), "T q3");
        assert_eq!(Gate::cx(1, 2).to_string(), "CNOT q1 -> q2");
        assert_eq!(
            Gate::mct(vec![0, 1, 2], 5).to_string(),
            "T4(q0, q1, q2 -> q5)"
        );
    }
}
