//! Build a complete Grover search over 3 qubits, compile it for the
//! 16-qubit ibmqx5 machine, and show by state-vector simulation that the
//! technology-dependent circuit amplifies the marked item exactly like the
//! technology-independent specification — the formal-verification claim of
//! the paper, made visible.
//!
//! ```text
//! cargo run --release --example grover_oracle
//! ```

use qsyn::prelude::*;

const MARKED: u64 = 0b101; // the item Grover should find
const N_VARS: usize = 3;

/// Phase oracle via an ancilla prepared in |->: the MCT kicks a -1 phase
/// onto exactly the marked basis state.
fn oracle(c: &mut Circuit) {
    let f = TruthTable::from_fn(N_VARS, |x| x == MARKED);
    c.append(&synthesize_single_target(&f));
}

/// The diffusion (inversion about the mean) operator on the search lines.
fn diffusion(c: &mut Circuit) {
    for q in 0..N_VARS {
        c.push(Gate::h(q));
        c.push(Gate::x(q));
    }
    // Multi-controlled Z on |11..1> = H on last line around an MCT.
    c.push(Gate::h(N_VARS - 1));
    c.push(Gate::mct((0..N_VARS - 1).collect(), N_VARS - 1));
    c.push(Gate::h(N_VARS - 1));
    for q in 0..N_VARS {
        c.push(Gate::x(q));
        c.push(Gate::h(q));
    }
}

fn grover() -> Circuit {
    let mut c = Circuit::new(N_VARS + 1).with_name("grover3");
    // Uniform superposition over the search lines; ancilla to |->.
    for q in 0..N_VARS {
        c.push(Gate::h(q));
    }
    c.push(Gate::x(N_VARS));
    c.push(Gate::h(N_VARS));
    // Two Grover iterations are optimal for 8 items.
    for _ in 0..2 {
        oracle(&mut c);
        diffusion(&mut c);
    }
    // Return the ancilla to |0>.
    c.push(Gate::h(N_VARS));
    c.push(Gate::x(N_VARS));
    c
}

/// Probability of measuring `item` on the search lines of an `n`-qubit
/// state prepared by `circuit` from |0...0>.
fn probability_of(circuit: &Circuit, item: u64) -> f64 {
    let n = circuit.n_qubits();
    let mut state = vec![C64::ZERO; 1 << n];
    state[0] = C64::ONE;
    circuit.apply_to_state(&mut state);
    // Search lines are qubits 0..N_VARS = the top bits of the index.
    let mut p = 0.0;
    for (idx, amp) in state.iter().enumerate() {
        if (idx >> (n - N_VARS)) as u64 == item {
            p += amp.norm_sqr();
        }
    }
    p
}

fn main() -> Result<(), CompileError> {
    let spec = grover();
    println!(
        "Grover search for |{MARKED:03b}> : {} gates on {} lines",
        spec.len(),
        spec.n_qubits()
    );
    let p_spec = probability_of(&spec, MARKED);
    println!("P(marked) from the specification      : {p_spec:.4}");
    assert!(p_spec > 0.9, "two iterations should get ~94.5%");

    // Compile for ibmqx5 and verify with QMDDs.
    let device = devices::ibmqx5();
    let result = Compiler::new(device.clone()).compile(&spec)?;
    println!(
        "compiled for {} : {} gates, QMDD-verified = {:?}",
        device.name(),
        result.optimized.len(),
        result.verified
    );

    // Simulate the *mapped* 16-qubit circuit: the physics must agree.
    let p_mapped = probability_of(&result.optimized, MARKED);
    println!("P(marked) from the mapped circuit     : {p_mapped:.4}");
    assert!(
        (p_spec - p_mapped).abs() < 1e-9,
        "mapping changed the physics!"
    );

    let cost = TransmonCost::default();
    println!(
        "cost {:.2} -> {:.2} after optimization (-{:.1}%)",
        cost.circuit_cost(&result.unoptimized),
        cost.circuit_cost(&result.optimized),
        result.percent_cost_decrease(&cost)
    );
    Ok(())
}
