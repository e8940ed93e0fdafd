//! Use the QMDD engine as a standalone formal equivalence checker — the
//! same machinery the compiler runs internally on every output (paper
//! Section 4, final stage).
//!
//! ```text
//! cargo run --example equivalence_checker            # built-in demo
//! cargo run --example equivalence_checker a.qasm b.qasm
//! ```

use qsyn::prelude::*;

fn load(path: &str) -> Circuit {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if path.ends_with(".qc") {
        Circuit::from_qc(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
    } else if path.ends_with(".real") {
        Circuit::from_real(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
    } else {
        Circuit::from_qasm(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
    }
}

/// The compiler's check: canonical QMDDs built on the pair's support.
fn qmdd_equal(a: &Circuit, b: &Circuit) -> bool {
    let support = miter_support(a, b);
    try_equivalent_on(
        &support,
        a,
        b,
        EquivMethod::Canonical,
        EquivBudget::default(),
    )
    .expect("an unbudgeted check cannot exhaust")
    .equivalent
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 2 {
        let a = load(&args[0]);
        let b = load(&args[1]);
        let equal = qmdd_equal(&a, &b);
        println!(
            "{} vs {}: {}",
            args[0],
            args[1],
            if equal { "EQUIVALENT" } else { "DIFFERENT" }
        );
        std::process::exit(if equal { 0 } else { 1 });
    }

    // Demo mode: three pairs exercising the identities of the paper.
    println!("demo: QMDD equivalence checks\n");

    // (1) Fig. 6 — CNOT orientation reversal.
    let mut fwd = Circuit::new(2);
    fwd.push(Gate::cx(1, 0));
    let rev =
        Circuit::from_qasm("qreg q[2]; h q[0]; h q[1]; cx q[0],q[1]; h q[0]; h q[1];").unwrap();
    println!(
        "Fig. 6 reversal identity        : {}",
        qmdd_equal(&fwd, &rev)
    );

    // (2) Fig. 3 — SWAP from three CNOTs.
    let mut swap = Circuit::new(2);
    swap.push(Gate::swap(0, 1));
    let three = Circuit::from_qasm("qreg q[2]; cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1];").unwrap();
    println!(
        "Fig. 3 SWAP identity            : {}",
        qmdd_equal(&swap, &three)
    );

    // (3) A near-miss: the 15-gate Toffoli network with one T dagger
    //     flipped is NOT the Toffoli — the checker must catch it.
    let mut tof = Circuit::new(3);
    tof.push(Gate::toffoli(0, 1, 2));
    let mut broken = Circuit::new(3);
    broken.extend(qsyn::core::decompose::toffoli_clifford_t(0, 1, 2));
    // Sabotage: turn the last T† into T.
    let last = broken.len() - 2;
    broken.gates_mut()[last] = Gate::t(1);
    println!(
        "sabotaged Toffoli caught        : {}",
        !qmdd_equal(&tof, &broken)
    );
}
