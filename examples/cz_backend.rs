//! Target a CZ-native technology library — the paper's modularity claim
//! ("new technology libraries for non-IBM platforms can be added") made
//! concrete: the same pipeline, the same QMDD verification, but the
//! emitted two-qubit primitive is a symmetric CZ instead of a directed
//! CNOT.
//!
//! ```text
//! cargo run --example cz_backend
//! ```

use qsyn::prelude::*;

fn main() -> Result<(), CompileError> {
    // A CZ-native 8-qubit ring (think Google/Rigetti-style couplers).
    let device = devices::ring(8).with_native(TwoQubitNative::Cz);
    println!("target: {device} (native two-qubit gate: CZ)\n");

    let mut spec = Circuit::new(8).with_name("mixed");
    spec.push(Gate::h(0));
    spec.push(Gate::toffoli(0, 3, 6));
    spec.push(Gate::cz(2, 5)); // native on this library, foreign on IBM
    spec.push(Gate::cx(7, 1));

    let r = Compiler::new(device.clone()).compile(&spec)?;
    println!(
        "compiled: {} gates, QMDD-verified = {:?}",
        r.optimized.len(),
        r.verified
    );

    let stats = r.optimized.stats();
    let cz_count = r
        .optimized
        .gates()
        .iter()
        .filter(|g| matches!(g, Gate::Cz { .. }))
        .count();
    println!(
        "two-qubit primitives: {} CZ, {} CNOT",
        cz_count, stats.cnot_count
    );
    assert_eq!(stats.cnot_count, 0, "a CZ library emits no CNOTs");
    assert!(device.can_execute(&r.optimized));

    // Same specification on the CNOT-native IBM library for contrast.
    let ibm = Compiler::new(devices::ibmqx5()).compile(&spec)?;
    println!(
        "\nsame circuit on ibmqx5 (CNOT library): {} gates, {} CNOT, verified = {:?}",
        ibm.optimized.len(),
        ibm.optimized.stats().cnot_count,
        ibm.verified
    );

    // Both mappings realize the identical unitary.
    let (cz, cx) = (&r.optimized, &ibm.optimized);
    let support = miter_support(cz, cx);
    let check = try_equivalent_on(&support, cz, cx, EquivMethod::Canonical, Default::default());
    assert!(
        check
            .expect("an unbudgeted check cannot exhaust")
            .equivalent
    );
    println!("cross-library equivalence (CZ machine vs IBM machine): OK");
    Ok(())
}
