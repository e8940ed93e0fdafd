//! Seeded random and deterministic synthetic workloads for stress testing
//! and benchmarking beyond the paper's fixed suites.

use qsyn_circuit::Circuit;
use qsyn_gate::{Gate, SINGLE_OPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random classical reversible circuit (NOT / CNOT / Toffoli /
/// generalized Toffoli) over `n_lines` lines.
///
/// # Panics
///
/// Panics if `n_lines < 3` (Toffoli gates need three lines).
pub fn random_classical(n_lines: usize, n_gates: usize, seed: u64) -> Circuit {
    assert!(n_lines >= 3, "need at least 3 lines");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n_lines).with_name(format!("rand_classical_{seed}"));
    for _ in 0..n_gates {
        let kind = rng.gen_range(0..100u32);
        if kind < 20 {
            c.push(Gate::x(rng.gen_range(0..n_lines)));
        } else if kind < 60 {
            let (a, b) = distinct_pair(&mut rng, n_lines);
            c.push(Gate::cx(a, b));
        } else if kind < 90 || n_lines < 5 {
            let (a, b, t) = distinct_triple(&mut rng, n_lines);
            c.push(Gate::toffoli(a, b, t));
        } else {
            // Occasional wider MCT, at most n_lines - 2 controls so a
            // borrowed line always exists.
            let max_controls = (n_lines - 2).min(5);
            let m = rng.gen_range(3..=max_controls.max(3));
            let mut lines = sample_distinct(&mut rng, n_lines, m + 1);
            let target = lines.pop().expect("sampled m+1 lines");
            c.push(Gate::mct(lines, target));
        }
    }
    c
}

/// Generates a random technology-ready Clifford+T circuit (one-qubit
/// library gates and CNOTs).
///
/// # Panics
///
/// Panics if `n_lines < 2`.
pub fn random_clifford_t(n_lines: usize, n_gates: usize, seed: u64) -> Circuit {
    assert!(n_lines >= 2, "need at least 2 lines");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n_lines).with_name(format!("rand_cliffordt_{seed}"));
    for _ in 0..n_gates {
        if rng.gen_bool(0.6) {
            let op = SINGLE_OPS[rng.gen_range(0..SINGLE_OPS.len())];
            c.push(Gate::single(op, rng.gen_range(0..n_lines)));
        } else {
            let (a, b) = distinct_pair(&mut rng, n_lines);
            c.push(Gate::cx(a, b));
        }
    }
    c
}

/// A nearest-neighbor-heavy native gate stream over an `n`-qubit,
/// `w`-column grid — the shape of workload a 2D fabric is built for. The
/// stream cycles `h`, a row-neighbor CNOT, `t`, and a column-neighbor
/// CNOT, each on a strided qubit, so it is deterministic and uniform from
/// one window to the next.
///
/// # Examples
///
/// ```
/// use qsyn_bench::random::grid_stream;
/// let window: Vec<_> = grid_stream(1024, 32, 64).collect();
/// assert_eq!(window.len(), 64);
/// ```
pub fn grid_stream(n: usize, w: usize, gates: usize) -> impl Iterator<Item = Gate> {
    (0..gates).map(move |i| match i % 4 {
        0 => Gate::h((i * 37 + 11) % n),
        1 => {
            let q = (i * 73 + 5) % n;
            if q % w < w - 1 {
                Gate::cx(q, q + 1)
            } else {
                Gate::cx(q, q - 1)
            }
        }
        2 => Gate::t((i * 29 + 3) % n),
        _ => {
            let q = (i * 41 + 17) % n;
            if q + w < n {
                Gate::cx(q, q + w)
            } else {
                Gate::cx(q, q - w)
            }
        }
    })
}

fn distinct_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

fn distinct_triple(rng: &mut StdRng, n: usize) -> (usize, usize, usize) {
    let v = sample_distinct(rng, n, 3);
    (v[0], v[1], v[2])
}

fn sample_distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    debug_assert!(k <= n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_generator_is_classical_and_seeded() {
        let a = random_classical(6, 40, 7);
        let b = random_classical(6, 40, 7);
        assert_eq!(a.gates(), b.gates(), "same seed, same circuit");
        assert!(a.is_classical());
        assert_eq!(a.len(), 40);
        let c = random_classical(6, 40, 8);
        assert_ne!(a.gates(), c.gates(), "different seed, different circuit");
    }

    #[test]
    fn clifford_t_generator_is_technology_ready() {
        let c = random_clifford_t(4, 100, 42);
        assert!(c.is_technology_ready());
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn mct_gates_always_leave_a_borrowable_line() {
        for seed in 0..20 {
            let c = random_classical(6, 30, seed);
            for g in c.gates() {
                if let Gate::Mct { controls, .. } = g {
                    assert!(controls.len() + 1 < c.n_qubits());
                }
            }
        }
    }

    #[test]
    fn sample_distinct_yields_unique_lines() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let v = sample_distinct(&mut rng, 8, 5);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5);
        }
    }
}
