//! Cross-crate integration tests: classical specification -> ESOP front-end
//! -> technology mapping -> QMDD verification, across the device library.

use qsyn::prelude::*;

/// Full pipeline for a handful of classical functions on every IBM device:
/// synthesize, compile, verify, and re-parse the QASM output.
#[test]
fn classical_function_to_verified_qasm_on_every_device() {
    let functions: Vec<(&str, TruthTable)> = vec![
        ("and3", TruthTable::from_fn(3, |x| x == 0b111)),
        ("parity", TruthTable::from_fn(3, |x| x.count_ones() % 2 == 1)),
        ("majority", TruthTable::from_fn(3, |x| x.count_ones() >= 2)),
    ];
    for (name, tt) in &functions {
        let cascade = synthesize_single_target(tt);
        for device in devices::ibm_devices() {
            let r = Compiler::new(device.clone())
                .compile(&cascade)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name()));
            assert_eq!(r.verified, Some(true), "{name} on {}", device.name());
            assert!(r.optimized.is_technology_ready());
            for g in r.optimized.gates() {
                if let Gate::Cx { control, target } = g {
                    assert!(device.has_coupling(*control, *target));
                }
            }
            // The emitted QASM parses back to an equivalent circuit.
            let qasm = r.optimized.to_qasm().unwrap();
            let parsed = Circuit::from_qasm(&qasm).unwrap();
            assert!(circuits_equal(&r.optimized, &parsed));
        }
    }
}

/// The mapped circuit computes the same classical function: check by
/// explicit state-vector simulation, independent of the QMDD machinery.
#[test]
fn mapped_circuit_computes_the_function() {
    let tt = TruthTable::from_fn(3, |x| (x * 3 + 1) % 7 < 3);
    let cascade = synthesize_single_target(&tt);
    let r = Compiler::new(devices::ibmqx2()).compile(&cascade).unwrap();
    let n = r.optimized.n_qubits();
    for x in 0..8u64 {
        let mut state = vec![C64::ZERO; 1 << n];
        let input = (x << 1) << (n - 4); // vars on lines 0-2, target line 3
        state[input as usize] = C64::ONE;
        r.optimized.apply_to_state(&mut state);
        let expected = (input | (tt.eval(x) as u64) << (n - 4)) as usize;
        assert!(
            state[expected].abs() > 0.999,
            "x={x}: amplitude {}",
            state[expected].abs()
        );
    }
}

/// `.real` input (the RevLib path) through the compiler.
#[test]
fn real_format_input_end_to_end() {
    let src = "\
.version 2.0
.numvars 4
.variables a b c d
.begin
t1 a
t2 a b
t3 a b c
t4 a b c d
f2 a d
f3 b c d
.end
";
    let circuit = Circuit::from_real(src).unwrap();
    let r = Compiler::new(devices::ibmqx5()).compile(&circuit).unwrap();
    assert_eq!(r.verified, Some(true));
}

/// `.qc` input (the single-target-gate path) through the compiler.
#[test]
fn qc_format_input_end_to_end() {
    let src = ".v a b c\nBEGIN\nH c\nT a\ntof a b c\nT* a\nS b\ntof b c\nEND\n";
    let circuit = Circuit::from_qc(src).unwrap();
    let r = Compiler::new(devices::ibmqx4()).compile(&circuit).unwrap();
    assert_eq!(r.verified, Some(true));
}

/// QASM input through the compiler.
#[test]
fn qasm_format_input_end_to_end() {
    let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
               h q[0];\nccx q[0],q[1],q[2];\ncz q[1],q[2];\nswap q[0],q[2];\n";
    let circuit = Circuit::from_qasm(src).unwrap();
    let r = Compiler::new(devices::ibmq_16()).compile(&circuit).unwrap();
    assert_eq!(r.verified, Some(true));
}

/// Both verification strategies agree with each other on mapped outputs.
#[test]
fn canonical_and_miter_verification_agree() {
    let mut spec = Circuit::new(4);
    spec.push(Gate::toffoli(0, 1, 3));
    spec.push(Gate::h(2));
    spec.push(Gate::cx(3, 2));
    for v in [Verification::Canonical, Verification::Miter] {
        let r = Compiler::new(devices::ibmqx5())
            .with_verification(v)
            .compile(&spec)
            .unwrap();
        assert_eq!(r.verified, Some(true), "{v:?}");
    }
}

/// Compiling the inverse circuit yields the inverse function.
#[test]
fn inverse_circuit_compiles_to_inverse() {
    let mut spec = Circuit::new(3);
    spec.push(Gate::h(0));
    spec.push(Gate::toffoli(0, 1, 2));
    spec.push(Gate::t(1));
    let fwd = Compiler::new(devices::ibmqx4()).compile(&spec).unwrap();
    let bwd = Compiler::new(devices::ibmqx4())
        .compile(&spec.inverse())
        .unwrap();
    let mut both = fwd.optimized.clone();
    both.append(&bwd.optimized);
    assert!(circuits_equal(&both, &Circuit::new(5)));
}

/// The paper's N/A cases: too wide, and T5 with no borrowable line.
#[test]
fn na_cases_error_cleanly() {
    let mut six_wide = Circuit::new(6);
    six_wide.push(Gate::x(5));
    assert!(matches!(
        Compiler::new(devices::ibmqx2()).compile(&six_wide),
        Err(CompileError::TooWide { .. })
    ));

    let mut t5 = Circuit::new(5);
    t5.push(Gate::mct(vec![0, 1, 2, 3], 4));
    assert!(matches!(
        Compiler::new(devices::ibmqx4()).compile(&t5),
        Err(CompileError::NoAncilla { .. })
    ));
}

/// Multi-output synthesis (adder) maps and verifies.
#[test]
fn multi_output_adder_end_to_end() {
    let sum = TruthTable::from_fn(3, |x| x.count_ones() % 2 == 1);
    let carry = TruthTable::from_fn(3, |x| x.count_ones() >= 2);
    let adder = synthesize_multi_output(&[sum, carry]);
    let r = Compiler::new(devices::ibmqx5()).compile(&adder).unwrap();
    assert_eq!(r.verified, Some(true));
}

/// Compilation on the big 96-qubit machine with the miter check.
#[test]
fn qc96_small_workload_verifies() {
    let mut spec = Circuit::new(96);
    spec.push(Gate::mct(vec![1, 2, 3], 25));
    spec.push(Gate::cx(25, 45));
    let r = Compiler::new(devices::qc96()).compile(&spec).unwrap();
    assert_eq!(r.verified, Some(true));
    assert!(r.optimized.len() > 50, "long-range routing must expand");
}

/// The arithmetic workloads flow through every pipeline configuration.
#[test]
fn adder_across_strategies() {
    let adder = qsyn::bench::arith::cuccaro_adder(2); // 6 lines
    for strategy in [RouteStrategyKind::Ctr, RouteStrategyKind::Persistent] {
        for decompose in [DecomposeStrategy::Exact, DecomposeStrategy::RelativePhase] {
            let r = Compiler::new(devices::ibmqx5())
                .with_route_strategy(strategy)
                .with_decompose_strategy(decompose)
                .compile(&adder)
                .unwrap();
            assert_eq!(r.verified, Some(true), "{strategy:?}/{decompose:?}");
        }
    }
}

/// Algorithm workloads compile everywhere they fit, and the mapped
/// Bernstein-Vazirani still answers in one query (simulated).
#[test]
fn bernstein_vazirani_mapped_still_works() {
    use qsyn::bench::algorithms::bernstein_vazirani;
    let secret = 0b110u64;
    let bv = bernstein_vazirani(3, secret);
    let r = Compiler::new(devices::ibmqx4()).compile(&bv).unwrap();
    assert_eq!(r.verified, Some(true));
    let mut sim = Simulator::new(5);
    sim.run(&r.optimized);
    let read = (secret as u128) << 2; // query lines on top, 5-qubit device
    assert!(sim.amplitude(read).abs() > 0.999);
}

/// A compiled circuit on qc96 remains exactly the adder, shown by sparse
/// basis-column queries on the 96-qubit register.
#[test]
fn adder_on_qc96_functional_spot_check() {
    use qsyn::bench::arith::{adder_input, adder_output, cuccaro_adder};
    let adder = cuccaro_adder(2); // 6 lines, placed on q0..q5
    let r = Compiler::new(devices::qc96())
        .with_verification(Verification::None)
        .compile(&adder)
        .unwrap();
    let (pkg, root) = qsyn::qmdd::build_circuit_qmdd(&r.optimized);
    for (a, b) in [(1u64, 2u64), (3, 3)] {
        let input = (adder_input(2, a, b, false) as u128) << 90;
        let col = pkg.basis_column(root, input);
        assert_eq!(col.len(), 1);
        let (sum, carry, _) = adder_output(2, (col[0].0 >> 90) as u64);
        assert_eq!(sum, (a + b) % 4, "{a}+{b}");
        assert_eq!(carry, a + b >= 4);
    }
}

/// Degenerate inputs flow through the whole pipeline without surprises.
#[test]
fn degenerate_inputs() {
    // Empty circuit: compiles to an empty, verified identity.
    let empty = Circuit::new(3);
    let r = Compiler::new(devices::ibmqx4()).compile(&empty).unwrap();
    assert!(r.optimized.is_empty());
    assert_eq!(r.verified, Some(true));

    // Single-qubit-only circuit: no routing at all.
    let mut singles = Circuit::new(2);
    singles.push(Gate::h(0));
    singles.push(Gate::t(1));
    let r = Compiler::new(devices::ibmqx2()).compile(&singles).unwrap();
    assert_eq!(r.optimized.len(), 2);
    assert_eq!(r.verified, Some(true));

    // A circuit that optimizes to nothing.
    let mut cancels = Circuit::new(2);
    cancels.push(Gate::cx(0, 1));
    cancels.push(Gate::cx(0, 1));
    let r = Compiler::new(devices::ibmqx2()).compile(&cancels).unwrap();
    assert!(r.optimized.is_empty(), "got {}", r.optimized.len());
    assert_eq!(r.verified, Some(true));
}

/// Constant-true oracle: the tautology cube becomes a bare X and still
/// flows through mapping.
#[test]
fn tautology_oracle_end_to_end() {
    let f = TruthTable::from_fn(3, |_| true);
    let cascade = synthesize_single_target(&f);
    assert_eq!(cascade.gates(), &[Gate::x(3)]);
    let r = Compiler::new(devices::ibmqx5()).compile(&cascade).unwrap();
    assert_eq!(r.verified, Some(true));
    assert_eq!(r.optimized.len(), 1);
}

/// Parser edge cases that should not be fatal.
#[test]
fn parser_edges() {
    // .real informational directives.
    let src = ".version 2.0\n.numvars 2\n.variables a b\n.inputs a b\n\
               .outputs a b\n.constants --\n.garbage --\n.begin\nt2 a b\n.end\n";
    let c = Circuit::from_real(src).unwrap();
    assert_eq!(c.len(), 1);

    // .qc without BEGIN/END markers.
    let c = Circuit::from_qc(".v a b\ntof a b\n").unwrap();
    assert_eq!(c.len(), 1);

    // QASM with statements crammed on one line.
    let c = Circuit::from_qasm("qreg q[2]; h q[0]; cx q[0],q[1]; t q[1];").unwrap();
    assert_eq!(c.len(), 3);
}

/// Greedy placement never breaks correctness on any device.
#[test]
fn greedy_placement_verifies_everywhere() {
    let mut spec = Circuit::new(4);
    spec.push(Gate::toffoli(0, 2, 3));
    spec.push(Gate::cx(3, 1));
    spec.push(Gate::t(0));
    for device in devices::ibm_devices() {
        let r = Compiler::new(device.clone())
            .with_placement(PlacementStrategy::Greedy)
            .compile(&spec)
            .unwrap();
        assert_eq!(r.verified, Some(true), "{}", device.name());
    }
}
