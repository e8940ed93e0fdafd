//! Property-style round-trip tests: a circuit serialized to a text format
//! and parsed back must be gate-for-gate equivalent to the original, and
//! the QMDD check that proves it must respect a small node budget (see
//! docs/ROBUSTNESS.md) — random circuits are exactly where an unbounded
//! equivalence check can blow up.
//!
//! Classical circuits (which carry generalized Toffolis) round-trip
//! through `.qc` and `.real`; Clifford+T circuits through OpenQASM 2.0.

use qsyn_bench::random::{random_classical, random_clifford_t};
use qsyn_circuit::Circuit;
use qsyn_qmdd::{try_equivalent, EquivBudget};

/// Node budget for the equivalence checks: generous for 4-7 line random
/// circuits, tiny compared to an unbounded arena.
const BUDGET: EquivBudget = EquivBudget {
    gc_threshold: None,
    node_budget: Some(4096),
};

fn assert_equiv(a: &Circuit, b: &Circuit, label: &str) {
    assert_eq!(
        a.n_qubits(),
        b.n_qubits(),
        "{label}: register width changed in flight"
    );
    let report = try_equivalent(a, b, BUDGET)
        .unwrap_or_else(|e| panic!("{label}: equivalence check over budget: {e}"));
    assert!(
        report.equivalent,
        "{label}: round-trip changed the function"
    );
}

#[test]
fn random_classical_circuits_roundtrip_through_qc() {
    for seed in 0..24 {
        let c = random_classical(5, 30, seed);
        let label = format!("classical seed {seed}");
        let text = c.to_qc();
        let back =
            Circuit::from_qc(&text).unwrap_or_else(|e| panic!("{label}: reparse: {e}\n{text}"));
        assert_equiv(&c, &back, &label);
    }
}

#[test]
fn random_classical_circuits_roundtrip_through_real() {
    for seed in 0..24 {
        let c = random_classical(6, 40, seed);
        let label = format!("classical seed {seed}");
        let text = c
            .to_real()
            .unwrap_or_else(|e| panic!("{label}: to_real: {e}"));
        let back =
            Circuit::from_real(&text).unwrap_or_else(|e| panic!("{label}: reparse: {e}\n{text}"));
        assert_equiv(&c, &back, &label);
    }
}

#[test]
fn random_clifford_t_circuits_roundtrip_through_qasm() {
    for seed in 0..24 {
        let c = random_clifford_t(4, 24, seed);
        let label = format!("clifford+t seed {seed}");
        let qasm = c
            .to_qasm()
            .unwrap_or_else(|e| panic!("{label}: to_qasm: {e}"));
        let back =
            Circuit::from_qasm(&qasm).unwrap_or_else(|e| panic!("{label}: reparse: {e}\n{qasm}"));
        assert_equiv(&c, &back, &label);
    }
}

#[test]
fn roundtrip_survives_wider_classical_circuits_under_budget() {
    // Wider random reversible circuits stress the QMDD harder; the budget
    // must still suffice (a failure here means the budget latch fired).
    for seed in [1, 7, 13] {
        let c = random_classical(7, 60, seed);
        let label = format!("wide classical seed {seed}");
        let text = c.to_qc();
        let back =
            Circuit::from_qc(&text).unwrap_or_else(|e| panic!("{label}: reparse: {e}\n{text}"));
        assert_equiv(&c, &back, &label);
    }
}
