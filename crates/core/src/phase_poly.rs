//! The structural first step of a stream window's check.
//!
//! A circuit of CNOT, CZ, SWAP and diagonal phase gates maps `|x⟩` to
//! `ω^{f(x)} |Ax⟩`, with `ω = e^{iπ/4}`. `A` is a GF(2) parity matrix:
//! row `q` is the parity of the inputs that line `q` holds at the end.
//! `f` is a phase polynomial: a sum of parities of `x`, each weighted in
//! eighths of a turn, mod 8. One pass over the gates builds both, with
//! no diagram (Nash, Gheorghiu & Mosca; Goubault de Brugière et al.).
//!
//! Equal `A` and equal reduced `f` mean equal unitaries, global phase
//! included. The converse fails: `Z` on `a`, `b` and `a ⊕ b` together is
//! the identity, yet its `f` has three non-zero terms, because parities
//! are not linearly independent mod 8. So only equality decides; a
//! mismatch says nothing, and the caller falls through to the QMDD.

use qsyn_circuit::Circuit;
use qsyn_gate::Gate;

/// Whether `spec` and `out` have equal parity matrices and equal reduced
/// phase polynomials on `support`, the ascending qubits either touches.
/// `false` as soon as either holds a gate other than CX, CZ, SWAP and
/// the diagonal `Z`, `S`, `S†`, `T`, `T†`: then the QMDD must decide.
pub(crate) fn structurally_equal(support: &[usize], spec: &Circuit, out: &Circuit) -> bool {
    let Some(spec) = PhasePolynomial::of(support, spec) else {
        return false;
    };
    PhasePolynomial::of(support, out).is_some_and(|out| out == spec)
}

/// `|x⟩ ↦ ω^{f(x)} |Ax⟩` for one circuit on a support of `n` lines.
/// Each parity is `n.div_ceil(64)` words, one bit per input line.
#[derive(PartialEq)]
struct PhasePolynomial {
    /// `A`, row by row: line `i`'s parity is the `i`-th run of words.
    rows: Vec<u64>,
    /// The reduced `f`'s parities, ascending, `words` words each.
    parities: Vec<u64>,
    /// The reduced `f`'s weights in eighths of a turn, each in `1..8`.
    steps: Vec<u8>,
}

impl PhasePolynomial {
    /// One pass over `circuit`, or `None` at its first gate that is not
    /// CNOT+phase or that touches a line outside `support`.
    fn of(support: &[usize], circuit: &Circuit) -> Option<Self> {
        let n = support.len();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        for i in 0..n {
            rows[i * words + i / 64] = 1 << (i % 64);
        }
        let line = |q: &usize| support.binary_search(q).ok();
        let pair = |a: &usize, b: &usize| match (line(a), line(b)) {
            (Some(a), Some(b)) if a != b => Some((a, b)),
            _ => None,
        };
        let mut parities = Vec::new();
        let mut steps = Vec::new();
        for g in circuit.gates() {
            match g {
                Gate::Single { op, qubit } => {
                    let k = op.phase_steps()?;
                    let q = line(qubit)?;
                    parities.extend_from_slice(&rows[q * words..][..words]);
                    steps.push(k);
                }
                Gate::Cx { control, target } => {
                    let (c, t) = pair(control, target)?;
                    for w in 0..words {
                        rows[t * words + w] ^= rows[c * words + w];
                    }
                }
                Gate::Swap { a, b } => {
                    let (a, b) = pair(a, b)?;
                    for w in 0..words {
                        rows.swap(a * words + w, b * words + w);
                    }
                }
                Gate::Cz { control, target } => {
                    // 4ab = 2a + 2b − 2(a ⊕ b).
                    let (c, t) = pair(control, target)?;
                    parities.extend_from_slice(&rows[c * words..][..words]);
                    parities.extend_from_slice(&rows[t * words..][..words]);
                    for w in 0..words {
                        parities.push(rows[c * words + w] ^ rows[t * words + w]);
                    }
                    steps.extend_from_slice(&[2, 2, 6]);
                }
                Gate::Mct { .. } => return None,
            }
        }
        let (parities, steps) = reduce(words, &parities, &steps);
        Some(PhasePolynomial {
            rows,
            parities,
            steps,
        })
    }
}

/// Sorts the terms by parity, sums equal parities' weights mod 8 and
/// drops the zero sums: the one form in which equal term lists compare
/// equal.
fn reduce(words: usize, parities: &[u64], steps: &[u8]) -> (Vec<u64>, Vec<u8>) {
    let parity = |i: usize| &parities[i * words..][..words];
    let mut order: Vec<usize> = (0..steps.len()).collect();
    order.sort_unstable_by(|&i, &j| parity(i).cmp(parity(j)));
    let (mut out_parities, mut out_steps) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < order.len() {
        let p = parity(order[i]);
        let mut k = 0u8;
        while i < order.len() && parity(order[i]) == p {
            k = (k + steps[order[i]]) % 8;
            i += 1;
        }
        if k != 0 {
            out_parities.extend_from_slice(p);
            out_steps.push(k);
        }
    }
    (out_parities, out_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::SingleOp;
    use qsyn_qmdd::miter_support;

    fn equal(a: &Circuit, b: &Circuit) -> bool {
        structurally_equal(&miter_support(a, b), a, b)
    }

    #[test]
    fn phases_commute_through_cnot_controls_and_merge() {
        let a = Circuit::from_gates(2, vec![Gate::t(0), Gate::cx(0, 1), Gate::t(0)]);
        let b = Circuit::from_gates(2, vec![Gate::cx(0, 1), Gate::single(SingleOp::S, 0)]);
        assert!(equal(&a, &b));
        // T on the target does not commute through the CNOT.
        let c = Circuit::from_gates(2, vec![Gate::t(1), Gate::cx(0, 1)]);
        let d = Circuit::from_gates(2, vec![Gate::cx(0, 1), Gate::t(1)]);
        assert!(!equal(&c, &d));
    }

    #[test]
    fn cz_is_its_phase_polynomial_and_swap_its_three_cnots() {
        let cz = Circuit::from_gates(2, vec![Gate::cz(0, 1)]);
        let hand = Circuit::from_gates(
            2,
            vec![
                Gate::single(SingleOp::S, 0),
                Gate::single(SingleOp::S, 1),
                Gate::cx(0, 1),
                Gate::single(SingleOp::Sdg, 1),
                Gate::cx(0, 1),
            ],
        );
        assert!(equal(&cz, &hand));
        let swap = Circuit::from_gates(2, vec![Gate::swap(0, 1), Gate::t(0)]);
        let cnots = Circuit::from_gates(
            2,
            vec![Gate::cx(0, 1), Gate::cx(1, 0), Gate::cx(0, 1), Gate::t(0)],
        );
        assert!(equal(&swap, &cnots));
    }

    #[test]
    fn terms_that_cancel_mod_eight_are_dropped() {
        let a = Circuit::from_gates(1, vec![Gate::t(0), Gate::single(SingleOp::Tdg, 0)]);
        let b = Circuit::from_gates(
            1,
            vec![Gate::single(SingleOp::Z, 0), Gate::single(SingleOp::Z, 0)],
        );
        assert!(equal(&a, &Circuit::new(1)));
        assert!(equal(&b, &Circuit::new(1)));
    }

    #[test]
    fn a_dependent_identity_is_left_to_the_qmdd() {
        // Z(a) Z(b) Z(a ⊕ b) is the identity, but its `f` is not zero.
        let z3 = Circuit::from_gates(
            2,
            vec![
                Gate::single(SingleOp::Z, 0),
                Gate::single(SingleOp::Z, 1),
                Gate::cx(0, 1),
                Gate::single(SingleOp::Z, 1),
                Gate::cx(0, 1),
            ],
        );
        assert!(!equal(&z3, &Circuit::new(2)));
        assert!(qsyn_gate::Matrix::identity(4).approx_eq(&z3.to_matrix()));
    }

    #[test]
    fn any_other_gate_stops_the_pass() {
        let h = Circuit::from_gates(1, vec![Gate::h(0)]);
        assert!(!equal(&h, &h));
        let x = Circuit::from_gates(1, vec![Gate::x(0)]);
        assert!(!equal(&x, &x));
        let tof = Circuit::from_gates(3, vec![Gate::toffoli(0, 1, 2)]);
        assert!(!equal(&tof, &tof));
    }

    /// A CNOT+phase gate on `n` lines from one draw.
    fn cnot_phase_gate(n: usize, (kind, a, b): (u8, usize, usize)) -> Gate {
        const PHASES: [SingleOp; 5] = [
            SingleOp::Z,
            SingleOp::S,
            SingleOp::Sdg,
            SingleOp::T,
            SingleOp::Tdg,
        ];
        let (a, b) = (a % n, b % n);
        match kind {
            0 | 1 if a != b => Gate::cx(a, b),
            2 if a != b => Gate::cz(a, b),
            3 if a != b => Gate::swap(a, b),
            k => Gate::single(PHASES[usize::from(k) % PHASES.len()], a),
        }
    }

    /// `c` with every diagonal gate bubbled later past each gate it
    /// commutes with: CX controls, CZ, SWAPs and diagonals elsewhere.
    /// Equal to `c` by construction, but gate by gate different.
    fn commuted(c: &Circuit) -> Circuit {
        let mut gates = c.gates().to_vec();
        for i in 0..gates.len().saturating_sub(1) {
            let Gate::Single { qubit, .. } = gates[i] else {
                continue;
            };
            let commutes = match gates[i + 1] {
                Gate::Cx { target, .. } => target != qubit,
                Gate::Swap { a, b } => a != qubit && b != qubit,
                _ => true,
            };
            if commutes {
                gates.swap(i, i + 1);
            }
        }
        Circuit::from_gates(c.n_qubits(), gates)
    }

    /// `c` with gate `at` flipped (a phase to another phase, a CX to its
    /// reverse) or dropped (CZ, SWAP): never equal to `c`.
    fn sabotaged(c: &Circuit, at: usize) -> Circuit {
        let mut gates = c.gates().to_vec();
        let i = at % gates.len();
        match gates[i] {
            Gate::Single { op, qubit } => {
                let flipped = match op {
                    SingleOp::T => SingleOp::Tdg,
                    SingleOp::Tdg => SingleOp::T,
                    SingleOp::S => SingleOp::Sdg,
                    _ => SingleOp::S,
                };
                gates[i] = Gate::single(flipped, qubit);
            }
            Gate::Cx { control, target } => gates[i] = Gate::cx(target, control),
            _ => {
                gates.remove(i);
            }
        }
        Circuit::from_gates(c.n_qubits(), gates)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]

        #[test]
        fn structural_equality_implies_qmdd_and_dense_equality(
            n in 2usize..11,
            draws in proptest::collection::vec((0u8..9, 0usize..10, 0usize..10), 1..24),
            at in 0usize..24,
        ) {
            use qsyn_qmdd::{try_equivalent_on, EquivBudget, EquivMethod};
            let spec = Circuit::from_gates(
                n,
                draws.iter().map(|&d| cnot_phase_gate(n, d)).collect(),
            );
            let equal_pair = commuted(&spec);
            let bad = sabotaged(&equal_pair, at);
            let support: Vec<usize> = (0..n).collect();
            let qmdd_equal = |out: &Circuit| {
                try_equivalent_on(&support, &spec, out, EquivMethod::Miter, EquivBudget::default())
                    .expect("no budget")
                    .equivalent
            };
            proptest::prop_assert!(structurally_equal(&support, &spec, &equal_pair));
            for (what, out) in [("commuted", &equal_pair), ("sabotaged", &bad)] {
                if structurally_equal(&support, &spec, out) {
                    proptest::prop_assert!(qmdd_equal(out), "QMDD rejects the {} pair", what);
                    proptest::prop_assert!(
                        qsyn_gate::equal_up_to_phase(&spec.to_matrix(), &out.to_matrix()),
                        "dense oracle rejects the {} pair",
                        what
                    );
                }
            }
            proptest::prop_assert!(!qmdd_equal(&bad), "QMDD accepts the sabotaged pair");
        }
    }

    #[test]
    fn supports_wider_than_one_word_compare_every_word() {
        let far = 100;
        let a = Circuit::from_gates(far + 1, vec![Gate::cx(0, far), Gate::t(far)]);
        let b = Circuit::from_gates(far + 1, vec![Gate::cx(0, far), Gate::t(0)]);
        let support: Vec<usize> = (0..=far).collect();
        assert!(structurally_equal(&support, &a, &a));
        assert!(!structurally_equal(&support, &a, &b));
    }
}
