//! Gate decomposition into the transmon library (paper Section 4, steps
//! 3-4).
//!
//! * Generalized Toffoli gates become Toffoli cascades via the dirty-ancilla
//!   constructions of Barenco et al. (Lemmas 7.2 / 7.3).
//! * Toffoli gates become the standard 15-gate Clifford+T network of
//!   Nielsen & Chuang (7 T/T†, 6 CNOT, 2 H) — the `t = 7` per Toffoli that
//!   the paper's Table 5 and Table 8 T-counts are built from.
//! * CZ and SWAP expand through their CNOT identities.
//!
//! [`decompose_circuit_memo`] is the only whole-circuit lowering: every
//! wide MCT's cascade comes from the canonical-shape memo. The unmemoized
//! lowering it must match byte for byte lives in test code
//! (`crates/core/tests/common`).

use crate::error::CompileError;
use qsyn_arch::Device;
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;

/// How generalized Toffolis are lowered to the gate library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecomposeStrategy {
    /// Every Toffoli in the Barenco chain is the exact 15-gate Clifford+T
    /// network (7 T each) — the paper's arithmetic, reproducing its
    /// T-counts exactly.
    #[default]
    Exact,
    /// The inner chain Toffolis are *relative-phase* Toffolis (4 T each),
    /// paired so their control-dependent phases cancel across the V-chain;
    /// only the two target-facing Toffolis stay exact. Cuts the T-count of
    /// wide MCT gates roughly in half while the overall unitary remains
    /// exactly equal (QMDD-verified).
    RelativePhase,
}

/// The 9-gate relative-phase Toffoli: a Toffoli multiplied by a diagonal
/// relative phase (`diag(1,1,1,-1,1,1,-i,i)` on the `|c0 c1 t>` basis),
/// with 4 T gates instead of 7. Usable wherever the phase later cancels
/// against [`rccx_dagger`] along every computational trajectory.
pub fn rccx(c0: usize, c1: usize, target: usize) -> Vec<Gate> {
    vec![
        Gate::h(target),
        Gate::t(target),
        Gate::cx(c0, target),
        Gate::tdg(target),
        Gate::cx(c1, target),
        Gate::t(target),
        Gate::cx(c0, target),
        Gate::tdg(target),
        Gate::h(target),
    ]
}

/// The adjoint of [`rccx`] (`+i X` on the all-ones control subspace).
pub fn rccx_dagger(c0: usize, c1: usize, target: usize) -> Vec<Gate> {
    let mut gates = rccx(c0, c1, target);
    gates.reverse();
    for g in &mut gates {
        *g = g.inverse();
    }
    gates
}

/// Decomposes a Toffoli into the standard exact Clifford+T network.
///
/// The sequence uses 7 T/T† gates, 6 CNOTs and 2 Hadamards and equals the
/// Toffoli exactly (no residual global phase), so QMDD verification accepts
/// it.
pub fn toffoli_clifford_t(c0: usize, c1: usize, target: usize) -> Vec<Gate> {
    let (a, b, t) = (c0, c1, target);
    vec![
        Gate::h(t),
        Gate::cx(b, t),
        Gate::tdg(t),
        Gate::cx(a, t),
        Gate::t(t),
        Gate::cx(b, t),
        Gate::tdg(t),
        Gate::cx(a, t),
        Gate::t(b),
        Gate::t(t),
        Gate::h(t),
        Gate::cx(a, b),
        Gate::t(a),
        Gate::tdg(b),
        Gate::cx(a, b),
    ]
}

/// Decomposes a CZ through `H(t) CX H(t)`.
pub fn cz_to_cx(control: usize, target: usize) -> Vec<Gate> {
    vec![Gate::h(target), Gate::cx(control, target), Gate::h(target)]
}

/// Decomposes a SWAP into three CNOTs (paper Fig. 3). Direction legality is
/// the router's concern.
pub fn swap_to_cx(a: usize, b: usize) -> Vec<Gate> {
    vec![Gate::cx(a, b), Gate::cx(b, a), Gate::cx(a, b)]
}

/// Decomposes a generalized Toffoli with `controls.len() >= 3` controls
/// into a cascade of ordinary Toffoli gates using lines outside the gate's
/// support as *dirty* ancillas (their state is arbitrary and restored).
///
/// Strategy (Barenco et al.):
/// * with at least `m - 2` spare lines, the V-chain of Lemma 7.2 uses
///   exactly `4(m - 2)` Toffolis;
/// * with at least one spare line, Lemma 7.3 splits the controls in half
///   and recurses, each half finding its dirty ancillas in the other half;
/// * with no spare line the gate is not synthesizable on this register.
///
/// # Errors
///
/// Returns [`CompileError::NoAncilla`] when `spare` is empty.
pub fn mct_to_toffolis(
    controls: &[usize],
    target: usize,
    spare: &[usize],
) -> Result<Vec<Gate>, CompileError> {
    mct_decompose(controls, target, spare, DecomposeStrategy::Exact)
}

/// [`mct_to_toffolis`] under a configurable [`DecomposeStrategy`]. With
/// [`DecomposeStrategy::RelativePhase`] the result mixes ordinary Toffoli
/// gates with already-expanded relative-phase networks; either way the
/// gate list equals the generalized Toffoli *exactly* (the relative phases
/// cancel pairwise across the chain).
///
/// # Errors
///
/// Returns [`CompileError::NoAncilla`] when `spare` is empty and the gate
/// has three or more controls.
pub fn mct_decompose(
    controls: &[usize],
    target: usize,
    spare: &[usize],
    strategy: DecomposeStrategy,
) -> Result<Vec<Gate>, CompileError> {
    let m = controls.len();
    match m {
        0 => return Ok(vec![Gate::x(target)]),
        1 => return Ok(vec![Gate::cx(controls[0], target)]),
        2 => return Ok(vec![Gate::toffoli(controls[0], controls[1], target)]),
        _ => {}
    }
    debug_assert!(
        spare.iter().all(|s| !controls.contains(s) && *s != target),
        "spare lines must be outside the gate support"
    );
    if spare.len() >= m - 2 {
        Ok(match strategy {
            DecomposeStrategy::Exact => v_chain(controls, target, &spare[..m - 2]),
            DecomposeStrategy::RelativePhase => {
                v_chain_relative_phase(controls, target, &spare[..m - 2])
            }
        })
    } else if !spare.is_empty() {
        split_with_one_ancilla(controls, target, spare, strategy)
    } else {
        Err(CompileError::NoAncilla { controls: m })
    }
}

/// The V-chain with relative-phase inner gates: the target-facing Toffoli
/// pair stays exact (its operand values differ between occurrences, so a
/// relative phase would survive), while every `A`/`B` chain gate appears in
/// `R ... R†` pairings whose operand values repeat in the mirror pattern
/// `v, w, w, v` — the diagonal phases cancel trajectory-by-trajectory,
/// which the decomposition tests certify by QMDD equality.
fn v_chain_relative_phase(controls: &[usize], target: usize, anc: &[usize]) -> Vec<Gate> {
    let m = controls.len();
    debug_assert_eq!(anc.len(), m - 2);
    let mut gates: Vec<Gate> = Vec::new();
    for half in 0..2 {
        // Top gate: exact Toffoli (real) in both halves.
        gates.push(Gate::toffoli(controls[m - 1], anc[m - 3], target));
        // Descend with relative-phase gates.
        for i in (1..=m - 3).rev() {
            gates.extend(rccx(controls[i + 1], anc[i - 1], anc[i]));
        }
        // Peak: R in the first half, R† in the second (identical control
        // values at both occurrences).
        if half == 0 {
            gates.extend(rccx(controls[0], controls[1], anc[0]));
        } else {
            gates.extend(rccx_dagger(controls[0], controls[1], anc[0]));
        }
        // Ascend with the adjoints.
        for i in 1..=m - 3 {
            gates.extend(rccx_dagger(controls[i + 1], anc[i - 1], anc[i]));
        }
    }
    gates
}

/// Lemma 7.2: the dirty-ancilla V-chain, `4(m-2)` Toffolis for `m >= 3`
/// controls. Two identical halves; the second undoes every ancilla side
/// effect of the first while doubling the target contribution into the
/// full product of controls.
fn v_chain(controls: &[usize], target: usize, anc: &[usize]) -> Vec<Gate> {
    let m = controls.len();
    debug_assert_eq!(anc.len(), m - 2);
    let mut half: Vec<Gate> = Vec::with_capacity(2 * (m - 2));
    // Top gate: target ^= c_{m-1} & a_{m-3}.
    half.push(Gate::toffoli(controls[m - 1], anc[m - 3], target));
    // Descend the chain: a_i ^= c_{i+1} & a_{i-1}.
    for i in (1..=m - 3).rev() {
        half.push(Gate::toffoli(controls[i + 1], anc[i - 1], anc[i]));
    }
    // Peak: a_0 ^= c_0 & c_1.
    half.push(Gate::toffoli(controls[0], controls[1], anc[0]));
    // Ascend back.
    for i in 1..=m - 3 {
        half.push(Gate::toffoli(controls[i + 1], anc[i - 1], anc[i]));
    }
    let mut gates = half.clone();
    gates.extend(half);
    gates
}

/// Lemma 7.3: split the control set across one borrowed line; each half's
/// MCT finds its dirty ancillas among the other half's lines.
fn split_with_one_ancilla(
    controls: &[usize],
    target: usize,
    spare: &[usize],
    strategy: DecomposeStrategy,
) -> Result<Vec<Gate>, CompileError> {
    let m = controls.len();
    let a = spare[0];
    let k = m.div_ceil(2);
    let (c1, c2) = controls.split_at(k);
    // First sub-gate: a ^= AND(c1); dirty ancillas: c2, target, extra spare.
    // Each sub-gate decomposes to an *exact* equal (relative phases cancel
    // within it), so the composition stays exact under either strategy.
    let mut spare1: Vec<usize> = c2.to_vec();
    spare1.push(target);
    spare1.extend_from_slice(&spare[1..]);
    let g1 = mct_decompose(c1, a, &spare1, strategy)?;
    // Second sub-gate: target ^= AND(c2 + a); dirty ancillas: c1, extras.
    let mut ctl2: Vec<usize> = c2.to_vec();
    ctl2.push(a);
    let mut spare2: Vec<usize> = c1.to_vec();
    spare2.extend_from_slice(&spare[1..]);
    let g2 = mct_decompose(&ctl2, target, &spare2, strategy)?;
    let mut gates = Vec::with_capacity(2 * (g1.len() + g2.len()));
    gates.extend(g1.iter().cloned());
    gates.extend(g2.iter().cloned());
    gates.extend(g1);
    gates.extend(g2);
    Ok(gates)
}

/// What the decomposition memo did while lowering a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecomposeCounters {
    /// Wide-MCT cascades instantiated from a memoized template.
    pub memo_hits: usize,
    /// Wide-MCT cascades synthesized from scratch (and memoized).
    pub memo_misses: usize,
}

/// Expands every technology-independent gate of `circuit` into the transmon
/// library (one-qubit gates + CNOT, or CZ on CZ-native devices), using the
/// full register width as the ancilla pool for generalized Toffolis. This
/// is the only whole-circuit lowering.
///
/// With a target `device`, the spare lines borrowed as dirty ancillas are
/// ordered by coupling-graph distance to the gate being decomposed, so the
/// CNOTs the decomposition emits stay short-range and the subsequent CTR
/// reroute pays far fewer SWAPs; without one they are taken in index order.
///
/// Each wide MCT's Barenco cascade comes from the canonical-shape
/// decomposition memo: it is synthesized by [`mct_decompose`] once per
/// `(arity, spare-count, strategy)` shape and instantiated here by qubit
/// substitution. The output is byte-identical to calling
/// [`mct_decompose`] on every gate (the substitution rebuilds gates
/// through the same normalizing constructors, and Clifford+T expansion
/// runs *after* substitution).
///
/// The register is *not* widened: the paper reports `N/A` when a device
/// cannot host a decomposition, which surfaces here as
/// [`CompileError::NoAncilla`].
///
/// # Errors
///
/// Returns [`CompileError::NoAncilla`] if a generalized Toffoli has no
/// spare line to borrow.
pub fn decompose_circuit_memo(
    circuit: &Circuit,
    device: Option<&Device>,
    strategy: DecomposeStrategy,
) -> Result<(Circuit, DecomposeCounters), CompileError> {
    let n = circuit.n_qubits();
    let mut out = Circuit::new(n);
    if let Some(name) = circuit.name() {
        out.set_name(name.to_string());
    }
    let mut counters = DecomposeCounters::default();
    let cz_native = device.is_some_and(|d| d.native() == qsyn_arch::TwoQubitNative::Cz);
    for g in circuit.gates() {
        match g {
            Gate::Single { .. } | Gate::Cx { .. } => out.push(g.clone()),
            // CZ is native on CZ-library devices; expand it only for CNOT
            // libraries (the IBM machines of the paper).
            Gate::Cz { .. } if cz_native => out.push(g.clone()),
            Gate::Cz { control, target } => out.extend(cz_to_cx(*control, *target)),
            Gate::Swap { a, b } => out.extend(swap_to_cx(*a, *b)),
            Gate::Mct { controls, target } if controls.len() == 2 => {
                out.extend(toffoli_clifford_t(controls[0], controls[1], *target));
            }
            Gate::Mct { controls, target } => {
                let mut spare: Vec<usize> = (0..n)
                    .filter(|q| !controls.contains(q) && q != target)
                    .collect();
                if let Some(d) = device {
                    let dist = d.distances_from_set(&g.qubits());
                    spare.sort_by_key(|&q| (dist[q], q));
                }
                let m = controls.len();
                let eff = spare.len().min(m - 2);
                let (template, hit) = crate::cache::mct_template(m, eff, strategy)?;
                if hit {
                    counters.memo_hits += 1;
                } else {
                    counters.memo_misses += 1;
                }
                let cascade = crate::cache::instantiate_mct_template(
                    &template,
                    controls,
                    *target,
                    &spare[..eff],
                );
                for tof in cascade {
                    match tof {
                        Gate::Mct {
                            controls: tc,
                            target: tt,
                        } => out.extend(toffoli_clifford_t(tc[0], tc[1], tt)),
                        other => out.push(other),
                    }
                }
            }
        }
    }
    Ok((out, counters))
}

/// Number of Toffoli gates produced for an `m`-control MCT by
/// [`mct_to_toffolis`] when a full dirty-ancilla chain is available:
/// `4(m-2)` for `m >= 3` (so `7 * 4(m-2)` T gates after Clifford+T
/// expansion — the arithmetic behind the paper's Table 8 T-counts).
pub fn v_chain_toffoli_count(m: usize) -> usize {
    match m {
        0 | 1 => 0,
        2 => 1,
        _ => 4 * (m - 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lowers `circuit` for no device under the paper's exact strategy.
    fn lower(circuit: &Circuit) -> Result<Circuit, CompileError> {
        decompose_circuit_memo(circuit, None, DecomposeStrategy::Exact).map(|(c, _)| c)
    }

    #[test]
    fn toffoli_clifford_t_is_exact() {
        let mut c = Circuit::new(3);
        c.extend(toffoli_clifford_t(0, 1, 2));
        assert!(c
            .to_matrix()
            .approx_eq(&Gate::toffoli(0, 1, 2).to_matrix(3)));
        let s = c.stats();
        assert_eq!(s.t_count, 7);
        assert_eq!(s.cnot_count, 6);
        assert_eq!(s.volume, 15);
    }

    #[test]
    fn toffoli_clifford_t_other_lines() {
        let mut c = Circuit::new(4);
        c.extend(toffoli_clifford_t(3, 1, 0));
        assert!(c
            .to_matrix()
            .approx_eq(&Gate::toffoli(3, 1, 0).to_matrix(4)));
    }

    #[test]
    fn cz_and_swap_expansions_are_exact() {
        let mut c = Circuit::new(2);
        c.extend(cz_to_cx(0, 1));
        assert!(c.to_matrix().approx_eq(&Gate::cz(0, 1).to_matrix(2)));
        let mut s = Circuit::new(2);
        s.extend(swap_to_cx(0, 1));
        assert!(s.to_matrix().approx_eq(&Gate::swap(0, 1).to_matrix(2)));
    }

    /// Exhaustively verifies an MCT decomposition as a permutation,
    /// including arbitrary dirty-ancilla contents.
    fn check_mct(controls: &[usize], target: usize, spare: &[usize], n: usize) {
        let gates = mct_to_toffolis(controls, target, spare).unwrap();
        let mut c = Circuit::new(n);
        c.extend(gates);
        assert!(c.is_classical());
        let bit = |q: usize| 1u64 << (n - 1 - q);
        for input in 0..(1u64 << n) {
            let out = c.permute_basis(input);
            let fire = controls.iter().all(|&q| input & bit(q) != 0);
            let expect = if fire { input ^ bit(target) } else { input };
            assert_eq!(out, expect, "controls {controls:?} at {input:#b}");
        }
    }

    #[test]
    fn v_chain_small_cases() {
        check_mct(&[0, 1, 2], 3, &[4], 5); // m=3, 1 ancilla
        check_mct(&[0, 1, 2, 3], 4, &[5, 6], 7); // m=4, 2 ancillas
        check_mct(&[0, 1, 2, 3, 4], 5, &[6, 7, 8], 9); // m=5, 3 ancillas
    }

    #[test]
    fn v_chain_gate_count_is_4m_minus_8() {
        for m in 3..=8 {
            let controls: Vec<usize> = (0..m).collect();
            let spare: Vec<usize> = (m + 1..2 * m - 1).collect();
            let gates = mct_to_toffolis(&controls, m, &spare).unwrap();
            assert_eq!(gates.len(), 4 * (m - 2), "m = {m}");
            assert_eq!(gates.len(), v_chain_toffoli_count(m));
        }
    }

    #[test]
    fn split_with_single_ancilla() {
        // m=4 controls, exactly one spare line: forces the Lemma 7.3 path.
        check_mct(&[0, 1, 2, 3], 4, &[5], 6);
        // m=5 with one spare.
        check_mct(&[0, 1, 2, 3, 4], 5, &[6], 7);
    }

    #[test]
    fn split_matches_paper_toffoli_count_for_t5() {
        // A T5 (4 controls) with exactly one borrowed line decomposes into
        // 10 Toffolis = 70 T gates — the 4gt12-v0_88 row of Table 5.
        let gates = mct_to_toffolis(&[0, 1, 2, 3], 4, &[5]).unwrap();
        assert_eq!(gates.len(), 10);
    }

    #[test]
    fn no_ancilla_is_an_error() {
        let err = mct_to_toffolis(&[0, 1, 2], 3, &[]).unwrap_err();
        assert_eq!(err, CompileError::NoAncilla { controls: 3 });
    }

    #[test]
    fn ancillas_are_restored_even_when_dirty() {
        // Covered by check_mct (it enumerates every ancilla value), but make
        // the property explicit for the V-chain.
        check_mct(&[0, 2, 4], 1, &[3], 5);
    }

    #[test]
    fn decompose_circuit_full_flow() {
        let mut c = Circuit::new(6);
        c.push(Gate::h(0));
        c.push(Gate::cz(0, 1));
        c.push(Gate::swap(1, 2));
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::mct(vec![0, 1, 2, 3], 4));
        let d = lower(&c).unwrap();
        assert!(d.is_technology_ready());
        assert!(d.to_matrix().approx_eq(&c.to_matrix()));
    }

    #[test]
    fn decompose_reports_na_when_too_tight() {
        // T5 occupying the whole 5-qubit register: no spare line.
        let mut c = Circuit::new(5);
        c.push(Gate::mct(vec![0, 1, 2, 3], 4));
        assert_eq!(
            lower(&c).unwrap_err(),
            CompileError::NoAncilla { controls: 4 }
        );
    }

    #[test]
    fn table8_t_count_arithmetic() {
        // T6..T10 gates decomposed with full ancilla chains: 4(m-2)
        // Toffolis x 7 T each; four gates per benchmark.
        let expected_t = |m: usize| 4 * (m - 2) * 7 * 4;
        assert_eq!(expected_t(5), 336); // T6_b
        assert_eq!(expected_t(6), 448); // T7_b
        assert_eq!(expected_t(7), 560); // T8_b
        assert_eq!(expected_t(8), 672); // T9_b
        assert_eq!(expected_t(9), 784); // T10_b
    }

    #[test]
    fn deep_recursion_with_scarce_ancillas() {
        // m=7 controls with a single spare line on 9 qubits.
        check_mct(&[0, 1, 2, 3, 4, 5, 6], 7, &[8], 9);
    }

    #[test]
    fn rccx_is_toffoli_times_diagonal_phase() {
        use qsyn_gate::C64;
        let mut c = Circuit::new(3);
        c.extend(rccx(0, 1, 2));
        let m = c.to_matrix();
        let tof = Gate::toffoli(0, 1, 2).to_matrix(3);
        // RCCX = D * TOF with the measured output-side diagonal
        // D = diag(1, 1, 1, -1, 1, 1, -i, i): a pure relative phase, so
        // the permutation part is exactly the Toffoli.
        let i = C64::I;
        let d = [
            C64::ONE,
            C64::ONE,
            C64::ONE,
            -C64::ONE,
            C64::ONE,
            C64::ONE,
            -i,
            i,
        ];
        for col in 0..8usize {
            for row in 0..8usize {
                let expect = d[row] * tof[(row, col)];
                assert!(m[(row, col)].approx_eq(expect), "({row},{col})");
            }
        }
    }

    #[test]
    fn rccx_dagger_inverts_rccx() {
        let mut c = Circuit::new(3);
        c.extend(rccx(0, 1, 2));
        c.extend(rccx_dagger(0, 1, 2));
        assert!(c.to_matrix().approx_eq(&qsyn_gate::Matrix::identity(8)));
    }

    /// The relative-phase decomposition must be *exactly* the MCT — phases
    /// included — which the canonical QMDD comparison certifies.
    fn check_mct_rp(controls: &[usize], target: usize, spare: &[usize], n: usize) {
        let gates =
            mct_decompose(controls, target, spare, DecomposeStrategy::RelativePhase).unwrap();
        let mut got = Circuit::new(n);
        got.extend(gates);
        let mut spec = Circuit::new(n);
        spec.push(Gate::mct(controls.to_vec(), target));
        assert!(
            qsyn_qmdd::circuits_equal(&spec, &got),
            "relative phases failed to cancel for {controls:?}"
        );
    }

    #[test]
    fn relative_phase_chain_is_exact() {
        check_mct_rp(&[0, 1, 2], 3, &[4], 5); // m=3
        check_mct_rp(&[0, 1, 2, 3], 4, &[5, 6], 7); // m=4
        check_mct_rp(&[0, 1, 2, 3, 4], 5, &[6, 7, 8], 9); // m=5
        check_mct_rp(&[0, 2, 4, 6], 1, &[3, 5], 7); // interleaved lines
    }

    #[test]
    fn relative_phase_split_is_exact() {
        // Scarce ancillas force the split path with RP leaves.
        check_mct_rp(&[0, 1, 2, 3], 4, &[5], 6);
        check_mct_rp(&[0, 1, 2, 3, 4], 5, &[6], 7);
    }

    #[test]
    fn memoized_decomposition_propagates_no_ancilla() {
        // Every line is a control or the target: nothing to borrow.
        let mut c = Circuit::new(4);
        c.push(Gate::mct(vec![0, 1, 2], 3));
        let err = decompose_circuit_memo(&c, None, DecomposeStrategy::Exact).unwrap_err();
        assert!(matches!(err, CompileError::NoAncilla { controls: 3 }));
    }

    #[test]
    fn relative_phase_halves_the_t_count() {
        for m in 3..=7usize {
            let controls: Vec<usize> = (0..m).collect();
            let spare: Vec<usize> = (m + 1..2 * m - 1).collect();
            let count_t = |strategy| {
                let gates = mct_decompose(&controls, m, &spare, strategy).unwrap();
                let mut c = Circuit::new(2 * m - 1);
                c.extend(gates);
                lower(&c).unwrap().stats().t_count
            };
            let exact = count_t(DecomposeStrategy::Exact);
            let rp = count_t(DecomposeStrategy::RelativePhase);
            assert_eq!(exact, 28 * (m - 2), "m={m} exact");
            assert_eq!(rp, 14 + 16 * (m - 2) - 8, "m={m} relative-phase");
            assert!(rp < exact);
        }
    }
}
