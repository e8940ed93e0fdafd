//! Golden regression tests: exact outputs pinned so behavior-visible
//! changes are deliberate, not accidental.

use qsyn::prelude::*;

mod check;
use check::qmdd_equal;

/// The Clifford+T Toffoli network is a fixed 15-gate sequence.
#[test]
fn golden_toffoli_network() {
    let gates = qsyn::core::decompose::toffoli_clifford_t(0, 1, 2);
    let names: Vec<String> = gates.iter().map(|g| g.to_string()).collect();
    assert_eq!(
        names,
        [
            "H q2",
            "CNOT q1 -> q2",
            "T† q2",
            "CNOT q0 -> q2",
            "T q2",
            "CNOT q1 -> q2",
            "T† q2",
            "CNOT q0 -> q2",
            "T q1",
            "T q2",
            "H q2",
            "CNOT q0 -> q1",
            "T q0",
            "T† q1",
            "CNOT q0 -> q1",
        ]
    );
}

/// Compiling a Toffoli for the unconstrained simulator yields exactly the
/// 15-gate network as QASM.
#[test]
fn golden_simulator_toffoli_qasm() {
    let mut spec = Circuit::new(3).with_name("tof");
    spec.push(Gate::toffoli(0, 1, 2));
    let r = Compiler::new(Device::simulator(3)).compile(&spec).unwrap();
    let qasm = r.optimized.to_qasm().unwrap();
    assert_eq!(
        qasm,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// circuit: tof@simulator\n\
         qreg q[3];\ncreg c[3];\n\
         h q[2];\ncx q[1],q[2];\ntdg q[2];\ncx q[0],q[2];\nt q[2];\n\
         cx q[1],q[2];\ntdg q[2];\ncx q[0],q[2];\nt q[1];\nt q[2];\n\
         h q[2];\ncx q[0],q[1];\nt q[0];\ntdg q[1];\ncx q[0],q[1];\n"
    );
}

/// The Fig. 5 reroute emits a fixed 29-gate sequence on ibmqx3.
#[test]
fn golden_fig5_sequence_shape() {
    let d = devices::ibmqx3();
    let mut spec = Circuit::new(16);
    spec.push(Gate::cx(5, 10));
    let out = CtrStrategy
        .route(&RouteRequest::new(&spec, &d))
        .unwrap()
        .circuit;
    assert_eq!(out.len(), 29, "4 swaps x 7 + 1 CNOT");
    let s = out.stats();
    assert_eq!(s.cnot_count, 13, "4 x 3 + 1 CNOTs");
    assert_eq!(s.other_single_count, 16, "4 x 4 Hadamards");
    // The executing CNOT is exactly q11 -> q10, dead center.
    assert_eq!(out.gates()[14], Gate::cx(11, 10));
    // Swap-back: the first 14 gates (swap out) and the last 14 (swap back)
    // are mutually inverse as circuits.
    let forward = Circuit::from_gates(16, out.gates()[..14].to_vec());
    let backward = Circuit::from_gates(16, out.gates()[15..].to_vec());
    assert!(qmdd_equal(&forward.inverse(), &backward));
}

/// The V-chain for a 4-control MCT is a fixed 8-Toffoli sequence.
#[test]
fn golden_v_chain_structure() {
    let gates = qsyn::core::mct_to_toffolis(&[0, 1, 2, 3], 4, &[5, 6]).unwrap();
    let names: Vec<String> = gates.iter().map(|g| g.to_string()).collect();
    let half = [
        "T3(q3, q6 -> q4)",
        "T3(q2, q5 -> q6)",
        "T3(q0, q1 -> q5)",
        "T3(q2, q5 -> q6)",
    ];
    let expected: Vec<&str> = half.iter().chain(half.iter()).copied().collect();
    assert_eq!(names, expected);
}

/// Table 2 numbers, printed to six decimals, are stable.
#[test]
fn golden_table2_rendering() {
    let text = qsyn::bench::report::render_table2(&qsyn::bench::report::run_table2());
    assert!(text.contains("| ibmqx2 | 5 | 0.300000 | 0.300000 |"));
    assert!(text.contains("| ibmqx3 | 16 | 0.083333 | 0.083333 |"));
    assert!(text.contains("| ibmqx5 | 16 | 0.091667 | 0.091667 |"));
    assert!(text.contains("| ibmq_16 | 14 | 0.098901 | 0.098901 |"));
}

/// The #1 single-target-gate cascade is deterministic.
#[test]
fn golden_stg_1_cascade() {
    let c = qsyn::bench::stg::stg_by_id("1").unwrap().cascade();
    // Table id "1" = minterm 0 of two variables, i.e. NOR: an X-wrapped
    // Toffoli.
    assert_eq!(
        c.gates(),
        &[
            Gate::x(0),
            Gate::x(1),
            Gate::toffoli(0, 1, 2),
            Gate::x(0),
            Gate::x(1),
        ]
    );
}

/// Device descriptions round-trip to a canonical text form.
#[test]
fn golden_device_description() {
    let d = devices::ibmqx2();
    let text = qsyn::arch::device_description(&d);
    assert_eq!(
        text,
        "name ibmqx2\nqubits 5\nnative cnot\n\
         coupling 0 1\ncoupling 0 2\ncoupling 1 2\ncoupling 3 2\ncoupling 3 4\ncoupling 4 2\n"
    );
}

/// The relative-phase Toffoli word is the fixed 9-gate RCCX.
#[test]
fn golden_rccx_word() {
    let names: Vec<String> = qsyn::core::rccx(0, 1, 2)
        .iter()
        .map(|g| g.to_string())
        .collect();
    assert_eq!(
        names,
        [
            "H q2",
            "T q2",
            "CNOT q0 -> q2",
            "T† q2",
            "CNOT q1 -> q2",
            "T q2",
            "CNOT q0 -> q2",
            "T† q2",
            "H q2",
        ]
    );
}
