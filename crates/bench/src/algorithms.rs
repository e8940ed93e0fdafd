//! Textbook quantum algorithm generators whose gate sets fall inside the
//! compiler's exact library — oracle-style workloads for examples, tests,
//! and benchmarks.

use qsyn_circuit::Circuit;
use qsyn_esop::{synthesize_single_target, TruthTable};
use qsyn_gate::Gate;

/// Bernstein-Vazirani: recovers a hidden bit string with one oracle call.
/// Lines `0..n` are the query register, line `n` the |-> ancilla.
/// Measuring the query register (in simulation: the dominant amplitude)
/// yields `secret` exactly.
///
/// # Panics
///
/// Panics if `secret` does not fit in `n` bits or `n == 0`.
pub fn bernstein_vazirani(n: usize, secret: u64) -> Circuit {
    assert!(n >= 1, "need at least one query bit");
    assert!(n >= 64 || secret < (1 << n), "secret must fit");
    let mut c = Circuit::new(n + 1).with_name(format!("bv{n}_{secret:b}"));
    // Ancilla to |->; query register to uniform superposition.
    c.push(Gate::x(n));
    c.push(Gate::h(n));
    for q in 0..n {
        c.push(Gate::h(q));
    }
    // Oracle: f(x) = secret . x — one CNOT per set secret bit.
    for q in 0..n {
        if secret >> (n - 1 - q) & 1 == 1 {
            c.push(Gate::cx(q, n));
        }
    }
    // Interference back to the basis.
    for q in 0..n {
        c.push(Gate::h(q));
    }
    // Return the ancilla to |0>.
    c.push(Gate::h(n));
    c.push(Gate::x(n));
    c
}

/// Deutsch-Jozsa over an arbitrary control function: after the circuit,
/// the all-zeros amplitude on the query register is `+-1` for constant `f`
/// and `0` for balanced `f`.
pub fn deutsch_jozsa(f: &TruthTable) -> Circuit {
    let n = f.n_vars();
    let mut c = Circuit::new(n + 1).with_name("deutsch_jozsa");
    c.push(Gate::x(n));
    c.push(Gate::h(n));
    for q in 0..n {
        c.push(Gate::h(q));
    }
    c.append(&synthesize_single_target(f));
    for q in 0..n {
        c.push(Gate::h(q));
    }
    c.push(Gate::h(n));
    c.push(Gate::x(n));
    c
}

/// Grover search for a single marked item over `n` query lines with the
/// given number of iterations; one ancilla line carries the phase oracle.
///
/// # Panics
///
/// Panics if `marked` does not fit in `n` bits.
pub fn grover(n: usize, marked: u64, iterations: usize) -> Circuit {
    assert!(n >= 64 || marked < (1 << n), "marked item must fit");
    let oracle_f = TruthTable::from_fn(n, |x| x == marked);
    let oracle = synthesize_single_target(&oracle_f);
    let mut c = Circuit::new(n + 1).with_name(format!("grover{n}"));
    for q in 0..n {
        c.push(Gate::h(q));
    }
    c.push(Gate::x(n));
    c.push(Gate::h(n));
    for _ in 0..iterations {
        c.append(&oracle);
        // Diffusion.
        for q in 0..n {
            c.push(Gate::h(q));
            c.push(Gate::x(q));
        }
        c.push(Gate::h(n - 1));
        c.push(Gate::mct((0..n - 1).collect(), n - 1));
        c.push(Gate::h(n - 1));
        for q in 0..n {
            c.push(Gate::x(q));
            c.push(Gate::h(q));
        }
    }
    c.push(Gate::h(n));
    c.push(Gate::x(n));
    c
}

/// The optimal Grover iteration count for one marked item among `2^n`.
pub fn grover_optimal_iterations(n: usize) -> usize {
    let space = (1u64 << n) as f64;
    ((std::f64::consts::FRAC_PI_4) * space.sqrt() - 0.5)
        .round()
        .max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::C64;

    fn amplitudes(c: &Circuit) -> Vec<C64> {
        let mut state = vec![C64::ZERO; 1 << c.n_qubits()];
        state[0] = C64::ONE;
        c.apply_to_state(&mut state);
        state
    }

    #[test]
    fn bernstein_vazirani_recovers_the_secret() {
        for secret in [0b101u64, 0b000, 0b111, 0b010] {
            let c = bernstein_vazirani(3, secret);
            let amps = amplitudes(&c);
            // Query register holds the secret deterministically; ancilla
            // back at |0>.
            let idx = (secret << 1) as usize;
            assert!(amps[idx].abs() > 0.999, "secret {secret:03b}");
        }
    }

    #[test]
    fn deutsch_jozsa_separates_constant_from_balanced() {
        let constant = TruthTable::from_fn(3, |_| true);
        let balanced = TruthTable::from_fn(3, |x| x & 1 == 1);
        let zero_amp = |f: &TruthTable| {
            let c = deutsch_jozsa(f);
            amplitudes(&c)[0].abs()
        };
        assert!(zero_amp(&constant) > 0.999, "constant -> certainty");
        assert!(zero_amp(&balanced) < 1e-9, "balanced -> zero");
    }

    #[test]
    fn grover_amplifies_the_marked_item() {
        let n = 3;
        let iters = grover_optimal_iterations(n);
        assert_eq!(iters, 2);
        let c = grover(n, 0b110, iters);
        let amps = amplitudes(&c);
        let p: f64 = amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i >> 1 == 0b110)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!(p > 0.9, "P(marked) = {p}");
    }

    #[test]
    fn algorithms_compile_and_verify() {
        let bv = bernstein_vazirani(3, 0b011);
        let r = qsyn_core::Compiler::new(qsyn_arch::devices::ibmqx5())
            .compile(&bv)
            .unwrap();
        assert_eq!(r.verified, Some(true));
        let dj = deutsch_jozsa(&TruthTable::from_fn(2, |x| x.count_ones() % 2 == 1));
        let r = qsyn_core::Compiler::new(qsyn_arch::devices::ibmqx4())
            .compile(&dj)
            .unwrap();
        assert_eq!(r.verified, Some(true));
    }

    #[test]
    fn optimal_iterations_grow_with_space() {
        assert_eq!(grover_optimal_iterations(2), 1);
        assert_eq!(grover_optimal_iterations(4), 3);
        assert!(grover_optimal_iterations(8) > grover_optimal_iterations(4));
    }
}
