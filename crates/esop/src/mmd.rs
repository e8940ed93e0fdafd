//! Transformation-based synthesis of reversible permutations
//! (Miller–Maslov–Dueck), complementing the ESOP cascade front-end.
//!
//! Where the ESOP path embeds an *irreversible* function with a fresh
//! target line, this path synthesizes a circuit for a function that is
//! already a bijection on basis states — e.g. an in-place arithmetic unit
//! or a hand-specified reversible truth table — without ancilla lines.
//!
//! The algorithm walks the truth table in ascending order, fixing one row
//! at a time with generalized Toffoli gates whose control sets guarantee
//! already-fixed rows are never disturbed (row `x` maps to `f(x) >= x`
//! once all smaller rows are identity, so controls drawn from the set bits
//! of `f(x)` or of `x` only touch rows `>= x`).

use crate::truth_table::TruthTable;
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;

/// A permutation of the `2^n` basis states of an `n`-line register.
///
/// Entry `map[x]` is the output basis state for input `x`, with variable 0
/// as the most significant bit (the workspace-wide convention).
///
/// # Examples
///
/// ```
/// use qsyn_esop::{synthesize_permutation, Permutation};
///
/// // A 2-line swap as a permutation: |01> <-> |10>.
/// let p = Permutation::new(2, vec![0, 2, 1, 3]).unwrap();
/// let c = synthesize_permutation(&p);
/// assert_eq!(c.permute_basis(0b01), 0b10);
/// assert_eq!(c.permute_basis(0b10), 0b01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    n_vars: usize,
    map: Vec<u64>,
}

impl Permutation {
    /// Creates a permutation from an explicit output table.
    ///
    /// # Errors
    ///
    /// Returns a message if the table length is not `2^n_vars` or the map
    /// is not bijective.
    pub fn new(n_vars: usize, map: Vec<u64>) -> Result<Self, String> {
        let size = 1usize << n_vars;
        if map.len() != size {
            return Err(format!("expected {size} entries, got {}", map.len()));
        }
        let mut seen = vec![false; size];
        for &y in &map {
            let y = y as usize;
            if y >= size {
                return Err(format!("entry {y} out of range"));
            }
            if seen[y] {
                return Err(format!("entry {y} repeated; not a bijection"));
            }
            seen[y] = true;
        }
        Ok(Permutation { n_vars, map })
    }

    /// The identity permutation.
    pub fn identity(n_vars: usize) -> Self {
        Permutation {
            n_vars,
            map: (0..1u64 << n_vars).collect(),
        }
    }

    /// Builds a permutation from a bijective function on basis indices.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a bijection on `0..2^n_vars`.
    pub fn from_fn(n_vars: usize, f: impl Fn(u64) -> u64) -> Self {
        let map: Vec<u64> = (0..1u64 << n_vars).map(f).collect();
        Permutation::new(n_vars, map).expect("function must be a bijection")
    }

    /// The permutation realized by a classical reversible circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-classical gates.
    pub fn of_circuit(circuit: &Circuit) -> Self {
        let n = circuit.n_qubits();
        Permutation::from_fn(n, |x| circuit.permute_basis(x))
    }

    /// Number of lines.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The output for a basis input.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn apply(&self, x: u64) -> u64 {
        self.map[x as usize]
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(x, &y)| x as u64 == y)
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut map = vec![0u64; self.map.len()];
        for (x, &y) in self.map.iter().enumerate() {
            map[y as usize] = x as u64;
        }
        Permutation {
            n_vars: self.n_vars,
            map,
        }
    }

    /// Truth table of output bit `line` (useful for inspecting outputs).
    pub fn output_bit(&self, line: usize) -> TruthTable {
        let shift = self.n_vars - 1 - line;
        TruthTable::from_fn(self.n_vars, |x| self.map[x as usize] >> shift & 1 == 1)
    }
}

/// Synthesizes a technology-independent MCT cascade realizing the
/// permutation, using the transformation-based (MMD) method. The result
/// uses exactly `n_vars` lines — no ancilla.
pub fn synthesize_permutation(perm: &Permutation) -> Circuit {
    let n = perm.n_vars();
    let size = 1u64 << n;
    // Work on a mutable copy of the map; `gates` accumulates the
    // output-side fix-up network g with g(f(x)) = x.
    let mut f: Vec<u64> = perm.map.clone();
    let mut gates: Vec<Gate> = Vec::new();

    // Applies an MCT (given as control mask + target bit) to every output
    // value of the table.
    let apply = |f: &mut Vec<u64>, gates: &mut Vec<Gate>, cmask: u64, tbit: u64| {
        for y in f.iter_mut() {
            if *y & cmask == cmask {
                *y ^= tbit;
            }
        }
        let controls: Vec<usize> = (0..n).filter(|q| cmask >> (n - 1 - q) & 1 == 1).collect();
        let target = (0..n)
            .find(|q| tbit >> (n - 1 - q) & 1 == 1)
            .expect("target bit");
        gates.push(Gate::mct(controls, target));
    };

    for x in 0..size {
        let y = f[x as usize];
        if y == x {
            continue;
        }
        debug_assert!(y > x, "smaller rows are already fixed");
        // Step (a): set the bits of x missing from y. Controls: the bits
        // of the current value, which is >= x, so no smaller row fires.
        let mut current = y;
        let mut missing = x & !current;
        while missing != 0 {
            let bit = missing & missing.wrapping_neg();
            apply(&mut f, &mut gates, current, bit);
            current |= bit;
            missing &= !bit;
        }
        // Step (b): clear the extra bits. Controls: the bits of x, so only
        // rows >= x fire.
        let mut extra = current & !x;
        while extra != 0 {
            let bit = extra & extra.wrapping_neg();
            apply(&mut f, &mut gates, x, bit);
            extra &= !bit;
        }
        debug_assert_eq!(f[x as usize], x);
    }

    // gates realize g with g(f(x)) = x, so f = g^{-1}: reverse the
    // self-inverse gate list.
    gates.reverse();
    Circuit::from_gates(n, gates).with_name("mmd")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(perm: &Permutation) {
        let c = synthesize_permutation(perm);
        assert!(c.is_classical());
        assert_eq!(c.n_qubits(), perm.n_vars());
        for x in 0..1u64 << perm.n_vars() {
            assert_eq!(c.permute_basis(x), perm.apply(x), "at {x}");
        }
    }

    #[test]
    fn identity_synthesizes_to_empty() {
        let p = Permutation::identity(3);
        assert!(p.is_identity());
        assert!(synthesize_permutation(&p).is_empty());
    }

    #[test]
    fn single_transposition() {
        // Swap |000> and |111>.
        let p = Permutation::from_fn(3, |x| match x {
            0 => 7,
            7 => 0,
            other => other,
        });
        check(&p);
    }

    #[test]
    fn cyclic_increment() {
        // x -> x + 1 mod 8: the classic reversible counter.
        let p = Permutation::from_fn(3, |x| (x + 1) % 8);
        check(&p);
    }

    #[test]
    fn all_two_line_permutations() {
        // Every permutation of 4 elements (24 of them).
        let mut items = [0u64, 1, 2, 3];
        permute_all(&mut items, 0, &mut |perm| {
            let p = Permutation::new(2, perm.to_vec()).unwrap();
            check(&p);
        });
    }

    fn permute_all(items: &mut [u64], k: usize, f: &mut impl FnMut(&[u64])) {
        if k == items.len() {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute_all(items, k + 1, f);
            items.swap(k, i);
        }
    }

    #[test]
    fn random_permutations_synthesize() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10 {
            // Fisher-Yates over 16 elements.
            let mut map: Vec<u64> = (0..16).collect();
            for i in (1..16usize).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                map.swap(i, j);
            }
            check(&Permutation::new(4, map).unwrap());
        }
    }

    #[test]
    fn of_circuit_round_trip() {
        let mut c = Circuit::new(3);
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::cx(2, 0));
        c.push(Gate::x(1));
        let p = Permutation::of_circuit(&c);
        let resynth = synthesize_permutation(&p);
        for x in 0..8u64 {
            assert_eq!(resynth.permute_basis(x), c.permute_basis(x));
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_fn(3, |x| (x * 3 + 5) % 8); // bijective mod 8
        let inv = p.inverse();
        for x in 0..8u64 {
            assert_eq!(inv.apply(p.apply(x)), x);
        }
    }

    #[test]
    fn output_bit_tables() {
        let p = Permutation::from_fn(2, |x| x ^ 0b01);
        // Line 1 (lsb) is complemented, line 0 passes through.
        let b0 = p.output_bit(0);
        let b1 = p.output_bit(1);
        assert!(b0.eval(0b10) && !b0.eval(0b01));
        assert!(b1.eval(0b00) && !b1.eval(0b01));
    }

    #[test]
    fn validation_errors() {
        assert!(Permutation::new(2, vec![0, 1, 2]).is_err()); // wrong length
        assert!(Permutation::new(2, vec![0, 1, 2, 2]).is_err()); // repeat
        assert!(Permutation::new(2, vec![0, 1, 2, 9]).is_err()); // range
    }

    #[test]
    fn mmd_gate_counts_are_reasonable() {
        // The 3-line increment has a well-known 3-gate MCT realization;
        // MMD should find something comparable, not exponential.
        let p = Permutation::from_fn(3, |x| (x + 1) % 8);
        let c = synthesize_permutation(&p);
        assert!(c.len() <= 4, "got {} gates", c.len());
    }
}
