//! Exclusive-OR sum-of-products extraction and minimization.
//!
//! The front-end of the paper converts a classical switching function into
//! a reversible Toffoli cascade through a minimized ESOP cube list
//! (Fazel–Thornton). This module extracts ESOPs via Reed-Muller spectra —
//! positive-polarity (PPRM) and fixed-polarity (FPRM) with polarity search —
//! and then applies local exorlink-style cube merging.

use crate::cube::Cube;
use crate::truth_table::TruthTable;
use std::fmt;

/// An exclusive-OR sum of product cubes over `n_vars` variables.
///
/// # Examples
///
/// ```
/// use qsyn_esop::{Esop, TruthTable};
/// let f = TruthTable::from_hex(2, "6").unwrap(); // XOR
/// let esop = Esop::minimized(&f);
/// assert_eq!(esop.cube_count(), 2);
/// assert_eq!(esop.truth_table(), f);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Esop {
    n_vars: usize,
    cubes: Vec<Cube>,
}

impl Esop {
    /// Creates an ESOP from explicit cubes.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > 32` or a cube references a variable
    /// `>= n_vars`.
    pub fn from_cubes(n_vars: usize, cubes: Vec<Cube>) -> Self {
        assert!(n_vars <= 32, "at most 32 variables");
        let mask = mask_of(n_vars);
        for c in &cubes {
            assert_eq!(c.care & !mask, 0, "cube variable out of range");
        }
        Esop { n_vars, cubes }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The cube list.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes (one generalized Toffoli gate each after mapping).
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count (controls of the eventual Toffoli cascade).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(|c| c.literal_count()).sum()
    }

    /// Evaluates the ESOP on an assignment in cube bit order
    /// (bit `v` = variable `v`).
    pub fn eval(&self, assignment: u32) -> bool {
        self.cubes
            .iter()
            .fold(false, |acc, c| acc ^ c.eval(assignment))
    }

    /// Reconstructs the truth table (row index uses variable 0 as the most
    /// significant bit, as everywhere in the workspace).
    pub fn truth_table(&self) -> TruthTable {
        let n = self.n_vars;
        TruthTable::from_fn(n, |row| self.eval(row_to_assignment(row, n)))
    }

    /// Positive-polarity Reed-Muller ESOP: one cube per non-zero PPRM
    /// spectrum coefficient; every literal positive.
    pub fn pprm(tt: &TruthTable) -> Self {
        Self::fprm(tt, 0)
    }

    /// Fixed-polarity Reed-Muller ESOP. Bit `v` of `polarity` set means
    /// variable `v` appears as a *negative* literal throughout.
    pub fn fprm(tt: &TruthTable, polarity: u32) -> Self {
        let n = tt.n_vars();
        let flip_rows = assignment_to_row(polarity & mask_of(n), n);
        // g(y) = f(y XOR flip); PPRM of g yields monomials in the chosen
        // literals.
        let g = TruthTable::from_fn(n, |y| tt.eval(y ^ flip_rows));
        let spectrum = g.pprm_spectrum();
        let mut cubes = Vec::new();
        for m in 0..spectrum.len() as u64 {
            if spectrum.eval(m) {
                let care = row_to_assignment(m, n);
                cubes.push(Cube::new(care, care & !polarity));
            }
        }
        Esop { n_vars: n, cubes }
    }

    /// The best fixed-polarity ESOP: exhaustive over all `2^n` polarities
    /// for small `n`, greedy bit-flip hill climbing beyond that. Quality is
    /// judged by cube count, then literal count.
    pub fn best_fprm(tt: &TruthTable) -> Self {
        let n = tt.n_vars();
        let score = |e: &Esop| (e.cube_count(), e.literal_count());
        if n <= 10 {
            let mut best = Esop::fprm(tt, 0);
            for p in 1..(1u32 << n) {
                let cand = Esop::fprm(tt, p);
                if score(&cand) < score(&best) {
                    best = cand;
                }
            }
            best
        } else {
            let mut pol = 0u32;
            let mut best = Esop::fprm(tt, pol);
            let mut improved = true;
            while improved {
                improved = false;
                for v in 0..n {
                    let cand = Esop::fprm(tt, pol ^ (1 << v));
                    if score(&cand) < score(&best) {
                        pol ^= 1 << v;
                        best = cand;
                        improved = true;
                    }
                }
            }
            best
        }
    }

    /// Full extraction pipeline: best FPRM, exorlink merging, then
    /// distance-2 exorlink reshaping with hill climbing. This is the form
    /// handed to the Toffoli-cascade generator.
    pub fn minimized(tt: &TruthTable) -> Self {
        let mut e = Self::best_fprm(tt);
        e.merge_cubes();
        e.reshape_cubes();
        e
    }

    /// Hill-climbing over distance-2 exorlink rewrites: a cube pair
    /// differing in exactly two variable positions admits two alternative
    /// exact pair representations (`a_i a_j (+) b_i b_j =
    /// (a_i(+)b_i) a_j (+) b_i (a_j(+)b_j)` over GF(2) characteristic
    /// functions); trying each alternative can unlock further distance-0/1
    /// merges. Accepts a rewrite only when the (cube count, literal count)
    /// score strictly improves, so termination is guaranteed.
    pub fn reshape_cubes(&mut self) {
        let score = |e: &Esop| (e.cube_count(), e.literal_count());
        loop {
            let mut improved = false;
            let current = score(self);
            'search: for i in 0..self.cubes.len() {
                for j in (i + 1)..self.cubes.len() {
                    let Some(alternatives) = exorlink2(self.cubes[i], self.cubes[j]) else {
                        continue;
                    };
                    for (a, b) in alternatives {
                        let mut cand = self.clone();
                        cand.cubes[i] = a;
                        cand.cubes[j] = b;
                        cand.merge_cubes();
                        if score(&cand) < current {
                            *self = cand;
                            improved = true;
                            break 'search;
                        }
                    }
                }
            }
            if !improved {
                return;
            }
        }
    }

    /// Applies local ESOP identities until fixpoint:
    ///
    /// * `C (+) C = 0` — duplicate cubes cancel;
    /// * `l·C (+) !l·C = C` — opposite literals merge away;
    /// * `l·C (+) C = !l·C` — a sub-cube absorbs into a flipped literal.
    pub fn merge_cubes(&mut self) {
        loop {
            if !self.merge_pass() {
                break;
            }
        }
    }

    fn merge_pass(&mut self) -> bool {
        let cubes = &mut self.cubes;
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                let (a, b) = (cubes[i], cubes[j]);
                if a == b {
                    // XOR cancellation.
                    cubes.swap_remove(j);
                    cubes.swap_remove(i);
                    return true;
                }
                if a.care == b.care {
                    let diff = a.polarity ^ b.polarity;
                    if diff.count_ones() == 1 {
                        // l·C (+) !l·C = C.
                        cubes[i] = Cube::new(a.care & !diff, a.polarity & !diff);
                        cubes.swap_remove(j);
                        return true;
                    }
                } else {
                    // One extra variable in one cube, rest identical:
                    // l·C (+) C = !l·C.
                    let (big, small, bi, si) = if a.care & b.care == b.care {
                        (a, b, i, j)
                    } else if a.care & b.care == a.care {
                        (b, a, j, i)
                    } else {
                        continue;
                    };
                    let extra = big.care ^ small.care;
                    if extra.count_ones() == 1 && big.polarity & small.care == small.polarity {
                        cubes[bi] = Cube::new(big.care, big.polarity ^ extra);
                        cubes.swap_remove(si);
                        return true;
                    }
                }
            }
        }
        false
    }
}

impl fmt::Display for Esop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return f.write_str("0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                f.write_str(" (+) ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Per-variable literal state of a cube: `{0}`, `{1}`, or `{0,1}`
/// (absent), encoded as the characteristic pair `(in0, in1)`.
fn var_state(c: Cube, v: usize) -> (bool, bool) {
    if c.care >> v & 1 == 0 {
        (true, true)
    } else if c.polarity >> v & 1 == 1 {
        (false, true)
    } else {
        (true, false)
    }
}

fn with_state(c: Cube, v: usize, state: (bool, bool)) -> Option<Cube> {
    let (in0, in1) = state;
    let bit = 1u32 << v;
    match (in0, in1) {
        (true, true) => Some(Cube::new(c.care & !bit, c.polarity & !bit)),
        (false, true) => Some(Cube::new(c.care | bit, c.polarity | bit)),
        (true, false) => Some(Cube::new(c.care | bit, c.polarity & !bit)),
        (false, false) => None, // empty literal: the cube vanishes
    }
}

/// GF(2) combination of two distinct literal states (their characteristic
/// XOR); `None` when identical (the term vanishes).
fn state_xor(a: (bool, bool), b: (bool, bool)) -> Option<(bool, bool)> {
    if a == b {
        None
    } else {
        Some((a.0 ^ b.0, a.1 ^ b.1))
    }
}

/// The two alternative pair representations of a distance-2 cube pair, or
/// `None` if the pair is not at distance exactly 2.
fn exorlink2(a: Cube, b: Cube) -> Option<[(Cube, Cube); 2]> {
    let n = 32usize;
    let mut diff = Vec::with_capacity(3);
    for v in 0..n {
        if var_state(a, v) != var_state(b, v) {
            diff.push(v);
            if diff.len() > 2 {
                return None;
            }
        }
    }
    let [i, j] = diff.as_slice() else { return None };
    let (i, j) = (*i, *j);
    let xi = state_xor(var_state(a, i), var_state(b, i)).expect("differs at i");
    let xj = state_xor(var_state(a, j), var_state(b, j)).expect("differs at j");
    // alt1: (a_i (+) b_i) a_j  |  b_i (a_j (+) b_j)
    let alt1 = (
        with_state(a, i, xi).expect("xor of distinct states is nonempty"),
        with_state(b, j, xj).expect("xor of distinct states is nonempty"),
    );
    // alt2: a_i (a_j (+) b_j)  |  (a_i (+) b_i) b_j
    let alt2 = (
        with_state(a, j, xj).expect("nonempty"),
        with_state(b, i, xi).expect("nonempty"),
    );
    Some([alt1, alt2])
}

/// Variable mask for `n` variables.
fn mask_of(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// Converts a truth-table row index (variable 0 = msb) into a cube
/// assignment (bit `v` = variable `v`).
pub fn row_to_assignment(row: u64, n_vars: usize) -> u32 {
    let mut a = 0u32;
    for v in 0..n_vars {
        if row >> (n_vars - 1 - v) & 1 == 1 {
            a |= 1 << v;
        }
    }
    a
}

/// Inverse of [`row_to_assignment`].
pub fn assignment_to_row(assignment: u32, n_vars: usize) -> u64 {
    let mut r = 0u64;
    for v in 0..n_vars {
        if assignment >> v & 1 == 1 {
            r |= 1 << (n_vars - 1 - v);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_covers(tt: &TruthTable, e: &Esop) {
        assert_eq!(&e.truth_table(), tt, "ESOP does not realize the function");
    }

    #[test]
    fn row_assignment_round_trip() {
        for n in 1..=6 {
            for row in 0..(1u64 << n) {
                assert_eq!(assignment_to_row(row_to_assignment(row, n), n), row);
            }
        }
    }

    #[test]
    fn pprm_covers_all_three_var_functions() {
        for code in 0..256u64 {
            let tt = TruthTable::from_fn(3, |i| code >> i & 1 == 1);
            check_covers(&tt, &Esop::pprm(&tt));
        }
    }

    #[test]
    fn fprm_covers_for_every_polarity() {
        let tt = TruthTable::from_hex(3, "6a").unwrap();
        for p in 0..8u32 {
            check_covers(&tt, &Esop::fprm(&tt, p));
        }
    }

    #[test]
    fn best_fprm_never_worse_than_pprm() {
        for hex in ["01", "17", "6a", "f3", "99", "b4"] {
            let tt = TruthTable::from_hex(3, hex).unwrap();
            let p = Esop::pprm(&tt);
            let b = Esop::best_fprm(&tt);
            assert!(b.cube_count() <= p.cube_count(), "{hex}");
            check_covers(&tt, &b);
        }
    }

    #[test]
    fn minimized_covers_all_three_var_functions() {
        for code in 0..256u64 {
            let tt = TruthTable::from_fn(3, |i| code >> i & 1 == 1);
            let e = Esop::minimized(&tt);
            check_covers(&tt, &e);
        }
    }

    #[test]
    fn constant_functions() {
        let zero = TruthTable::zeros(3);
        assert_eq!(Esop::minimized(&zero).cube_count(), 0);
        let one = TruthTable::from_fn(3, |_| true);
        let e = Esop::minimized(&one);
        assert_eq!(e.cube_count(), 1);
        assert_eq!(e.cubes()[0], Cube::TAUTOLOGY);
    }

    #[test]
    fn nand_gets_two_cubes_via_polarity() {
        // NAND(x0, x1) = 1 (+) x0 x1. PPRM needs 2 cubes; negative polarity
        // gives !x0 (+) !x0? Either way, minimized must cover with <= 2.
        let tt = TruthTable::from_hex(2, "7").unwrap();
        let e = Esop::minimized(&tt);
        assert!(e.cube_count() <= 2);
        check_covers(&tt, &e);
    }

    #[test]
    fn merge_duplicate_cubes_cancel() {
        let c = Cube::new(0b11, 0b01);
        let mut e = Esop::from_cubes(2, vec![c, c]);
        e.merge_cubes();
        assert_eq!(e.cube_count(), 0);
    }

    #[test]
    fn merge_opposite_literals() {
        // x0·x1 (+) x0·!x1 = x0.
        let mut e = Esop::from_cubes(2, vec![Cube::new(0b11, 0b11), Cube::new(0b11, 0b01)]);
        let before = e.truth_table();
        e.merge_cubes();
        assert_eq!(e.cube_count(), 1);
        assert_eq!(e.cubes()[0], Cube::new(0b01, 0b01));
        assert_eq!(e.truth_table(), before);
    }

    #[test]
    fn merge_subcube_absorption() {
        // x0·x1 (+) x1 = !x0·x1.
        let mut e = Esop::from_cubes(2, vec![Cube::new(0b11, 0b11), Cube::new(0b10, 0b10)]);
        let before = e.truth_table();
        e.merge_cubes();
        assert_eq!(e.cube_count(), 1);
        assert_eq!(e.cubes()[0], Cube::new(0b11, 0b10));
        assert_eq!(e.truth_table(), before);
    }

    #[test]
    fn merge_preserves_function_on_random_esops() {
        // Deterministic pseudo-random cube lists.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let n = 4usize;
            let cubes: Vec<Cube> = (0..(next() % 8 + 1))
                .map(|_| {
                    let care = (next() as u32) & 0b1111;
                    let pol = (next() as u32) & 0b1111;
                    Cube::new(care, pol)
                })
                .collect();
            let mut e = Esop::from_cubes(n, cubes);
            let before = e.truth_table();
            e.merge_cubes();
            assert_eq!(e.truth_table(), before);
        }
    }

    #[test]
    fn display_formats() {
        let e = Esop::from_cubes(2, vec![Cube::new(0b11, 0b01)]);
        assert_eq!(e.to_string(), "x0·!x1");
        assert_eq!(Esop::from_cubes(2, vec![]).to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_wide_cube() {
        let _ = Esop::from_cubes(2, vec![Cube::new(0b100, 0)]);
    }
}
