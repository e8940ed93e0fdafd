//! Fault-injection tests of the formal verifier: sabotage correctly
//! compiled circuits in many ways and assert the QMDD equivalence check
//! rejects every mutant. This is the sensitivity half of verification —
//! passing equivalent circuits is necessary, *failing every inequivalent
//! one* is what makes the paper's built-in check meaningful.

use qsyn::prelude::*;

mod check;
use check::qmdd_equal;

fn compiled_toffoli() -> (Circuit, Circuit) {
    let mut spec = Circuit::new(3);
    spec.push(Gate::toffoli(0, 1, 2));
    let r = Compiler::new(devices::ibmqx4())
        .with_verification(Verification::None)
        .compile(&spec)
        .unwrap();
    (r.placed, r.optimized)
}

/// Every single-gate deletion of the mapped Toffoli is caught.
#[test]
fn deletion_mutants_are_rejected() {
    let (spec, mapped) = compiled_toffoli();
    assert!(qmdd_equal(&spec, &mapped), "baseline sanity");
    let mut undetected = Vec::new();
    for k in 0..mapped.len() {
        let mut mutant_gates = mapped.gates().to_vec();
        mutant_gates.remove(k);
        let mutant = Circuit::from_gates(mapped.n_qubits(), mutant_gates);
        if qmdd_equal(&spec, &mutant) {
            undetected.push(k);
        }
    }
    assert!(
        undetected.is_empty(),
        "deletions at {undetected:?} slipped past verification"
    );
}

/// Replacing any T with T-dagger (the classic sign slip) is caught.
#[test]
fn t_sign_mutants_are_rejected() {
    let (spec, mapped) = compiled_toffoli();
    for k in 0..mapped.len() {
        let Gate::Single { op, qubit } = mapped.gates()[k].clone() else {
            continue;
        };
        let flipped = match op {
            SingleOp::T => SingleOp::Tdg,
            SingleOp::Tdg => SingleOp::T,
            _ => continue,
        };
        let mut mutant_gates = mapped.gates().to_vec();
        mutant_gates[k] = Gate::single(flipped, qubit);
        let mutant = Circuit::from_gates(mapped.n_qubits(), mutant_gates);
        assert!(!qmdd_equal(&spec, &mutant), "T/T† flip at {k} undetected");
    }
}

/// Reversing any CNOT orientation is caught.
#[test]
fn cnot_direction_mutants_are_rejected() {
    let (spec, mapped) = compiled_toffoli();
    for k in 0..mapped.len() {
        let Gate::Cx { control, target } = mapped.gates()[k] else {
            continue;
        };
        let mut mutant_gates = mapped.gates().to_vec();
        mutant_gates[k] = Gate::cx(target, control);
        let mutant = Circuit::from_gates(mapped.n_qubits(), mutant_gates);
        assert!(
            !qmdd_equal(&spec, &mutant),
            "CNOT reversal at {k} undetected"
        );
    }
}

/// Gate transpositions that change the function are caught; harmless
/// commuting swaps are (correctly) accepted.
#[test]
fn transposition_mutants() {
    let (spec, mapped) = compiled_toffoli();
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    for k in 0..mapped.len() - 1 {
        let mut mutant_gates = mapped.gates().to_vec();
        mutant_gates.swap(k, k + 1);
        let mutant = Circuit::from_gates(mapped.n_qubits(), mutant_gates.clone());
        let equal = qmdd_equal(&spec, &mutant);
        // Accepted swaps must genuinely commute.
        if equal {
            accepted += 1;
            let a = &mapped.gates()[k];
            let b = &mapped.gates()[k + 1];
            let ab = b.to_matrix(3).mul(&a.to_matrix(3));
            let ba = a.to_matrix(3).mul(&b.to_matrix(3));
            assert!(ab.approx_eq(&ba), "accepted a non-commuting swap at {k}");
        } else {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "some transpositions must change the function");
    assert!(accepted > 0, "some neighbors genuinely commute");
}

/// The miter strategy has the same sensitivity on a wide register.
#[test]
fn miter_catches_faults_on_qc96() {
    let mut spec = Circuit::new(96);
    spec.push(Gate::mct(vec![1, 2, 3], 25));
    let r = Compiler::new(devices::qc96())
        .with_verification(Verification::None)
        .compile(&spec)
        .unwrap();
    let miter = |out: &Circuit| {
        let support = miter_support(&r.placed, out);
        try_equivalent_on(
            &support,
            &r.placed,
            out,
            EquivMethod::Miter,
            EquivBudget::default(),
        )
        .expect("an unbudgeted check cannot exhaust")
        .equivalent
    };
    assert!(miter(&r.optimized));
    // Drop a mid-circuit gate.
    let mut broken = r.optimized.gates().to_vec();
    broken.remove(broken.len() / 2);
    let mutant = Circuit::from_gates(96, broken);
    assert!(!miter(&mutant));
}

/// End-to-end: a compiler forced to verify rejects a sabotaged result by
/// construction (simulated by comparing against a perturbed spec).
#[test]
fn verification_failure_surfaces_as_error() {
    // There is no hook to corrupt the pipeline internally (that is the
    // point), so check the error path through the equivalence API the
    // compiler uses.
    let (spec, mapped) = compiled_toffoli();
    let mut wrong_spec = spec.clone();
    wrong_spec.push(Gate::x(0));
    assert!(qmdd_equal(&spec, &mapped));
    assert!(!qmdd_equal(&wrong_spec, &mapped));
}
