//! Extended controlled-gate decompositions — the paper's future work
//! ("additional decompositions for other controlled gates will be included
//! in the tool"), realized as exact Clifford+T/CNOT expansions.
//!
//! Everything here is *exact* (equal as matrices, no global-phase slack),
//! so compiled results still pass QMDD verification. Controlled phases
//! whose angle is an odd multiple of `pi/4` (e.g. controlled-T) have no
//! exact ancilla-free Clifford+T realization and are reported as such.

use qsyn_gate::{Gate, SingleOp};

/// Controlled-S: `diag(1, 1, 1, i)` as a 5-gate phase gadget
/// (2 CNOTs, 3 T-family gates).
pub fn controlled_s(control: usize, target: usize) -> Vec<Gate> {
    vec![
        Gate::t(control),
        Gate::t(target),
        Gate::cx(control, target),
        Gate::tdg(target),
        Gate::cx(control, target),
    ]
}

/// Controlled-S†: `diag(1, 1, 1, -i)`.
pub fn controlled_sdg(control: usize, target: usize) -> Vec<Gate> {
    vec![
        Gate::tdg(control),
        Gate::tdg(target),
        Gate::cx(control, target),
        Gate::t(target),
        Gate::cx(control, target),
    ]
}

/// Controlled `diag(1, e^{i k pi/4})` for even `k`; `None` for odd `k`,
/// which is not exactly realizable in ancilla-free Clifford+T (the
/// controlled-T case).
pub fn controlled_phase_steps(k: u8, control: usize, target: usize) -> Option<Vec<Gate>> {
    match k % 8 {
        0 => Some(vec![]),
        2 => Some(controlled_s(control, target)),
        4 => Some(vec![
            Gate::h(target),
            Gate::cx(control, target),
            Gate::h(target),
        ]),
        6 => Some(controlled_sdg(control, target)),
        _ => None,
    }
}

/// Controlled-Hadamard, exact 7-gate network
/// (`S t; H t; T t; CX; T† t; H t; S† t`).
pub fn controlled_h(control: usize, target: usize) -> Vec<Gate> {
    vec![
        Gate::single(SingleOp::S, target),
        Gate::h(target),
        Gate::t(target),
        Gate::cx(control, target),
        Gate::tdg(target),
        Gate::h(target),
        Gate::single(SingleOp::Sdg, target),
    ]
}

/// Controlled-Y via `S† t; CX; S t` (Y = S X S†).
pub fn controlled_y(control: usize, target: usize) -> Vec<Gate> {
    vec![
        Gate::single(SingleOp::Sdg, target),
        Gate::cx(control, target),
        Gate::single(SingleOp::S, target),
    ]
}

/// Multi-controlled Z: `MCT` conjugated by Hadamards on the target
/// (technology-independent; the back-end decomposes the inner MCT).
/// The gate is symmetric in all of its lines, so any line may serve as
/// the nominal target.
pub fn multi_controlled_z(controls: Vec<usize>, target: usize) -> Vec<Gate> {
    vec![
        Gate::h(target),
        Gate::mct(controls, target),
        Gate::h(target),
    ]
}

/// Fredkin (controlled-SWAP) as CNOT-Toffoli-CNOT.
pub fn fredkin(control: usize, a: usize, b: usize) -> Vec<Gate> {
    vec![Gate::cx(b, a), Gate::toffoli(control, a, b), Gate::cx(b, a)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_circuit::Circuit;
    use qsyn_gate::{Matrix, C64};

    fn matrix_of(gates: Vec<Gate>, n: usize) -> Matrix {
        let mut c = Circuit::new(n);
        c.extend(gates);
        c.to_matrix()
    }

    fn controlled(u: &Matrix, n: usize, control: usize, target: usize) -> Matrix {
        // Build the expected controlled-U dense matrix directly.
        let dim = 1usize << n;
        let mut m = Matrix::identity(dim);
        let cb = 1usize << (n - 1 - control);
        let tb = 1usize << (n - 1 - target);
        for col in 0..dim {
            if col & cb == 0 {
                continue;
            }
            let t_in = (col & tb != 0) as usize;
            m[(col, col)] = u[(t_in, t_in)];
            m[(col ^ tb, col)] = u[(t_in ^ 1, t_in)];
        }
        m
    }

    #[test]
    fn controlled_s_is_exact() {
        let s = SingleOp::S.matrix();
        for (c, t) in [(0usize, 1usize), (1, 0)] {
            let got = matrix_of(controlled_s(c, t), 2);
            assert!(got.approx_eq(&controlled(&s, 2, c, t)), "c={c} t={t}");
        }
    }

    #[test]
    fn controlled_sdg_is_exact_and_inverse() {
        let sdg = SingleOp::Sdg.matrix();
        let got = matrix_of(controlled_sdg(0, 1), 2);
        assert!(got.approx_eq(&controlled(&sdg, 2, 0, 1)));
        let mut both = Circuit::new(2);
        both.extend(controlled_s(0, 1));
        both.extend(controlled_sdg(0, 1));
        assert!(both.to_matrix().approx_eq(&Matrix::identity(4)));
    }

    #[test]
    fn controlled_phase_steps_even_cases() {
        for k in [0u8, 2, 4, 6] {
            let gates = controlled_phase_steps(k, 0, 1).unwrap();
            let phase = C64::cis(std::f64::consts::FRAC_PI_4 * k as f64);
            let u = Matrix::from_rows(&[[C64::ONE, C64::ZERO], [C64::ZERO, phase]]);
            let got = matrix_of(gates, 2);
            assert!(got.approx_eq(&controlled(&u, 2, 0, 1)), "k={k}");
        }
    }

    #[test]
    fn controlled_phase_odd_steps_are_unrealizable() {
        for k in [1u8, 3, 5, 7] {
            assert!(controlled_phase_steps(k, 0, 1).is_none(), "k={k}");
        }
    }

    #[test]
    fn controlled_h_is_exact() {
        let h = SingleOp::H.matrix();
        let got = matrix_of(controlled_h(0, 1), 2);
        assert!(
            got.approx_eq(&controlled(&h, 2, 0, 1)),
            "CH mismatch:\n{got}"
        );
    }

    #[test]
    fn controlled_y_is_exact() {
        let y = SingleOp::Y.matrix();
        let got = matrix_of(controlled_y(1, 0), 2);
        assert!(got.approx_eq(&controlled(&y, 2, 1, 0)));
    }

    #[test]
    fn fredkin_is_controlled_swap() {
        let mut c = Circuit::new(3);
        c.extend(fredkin(0, 1, 2));
        assert_eq!(c.permute_basis(0b110), 0b101);
        assert_eq!(c.permute_basis(0b101), 0b110);
        assert_eq!(c.permute_basis(0b011), 0b011);
        assert_eq!(c.permute_basis(0b000), 0b000);
        // And as a full matrix on an embedding with a spectator line.
        let mut wide = Circuit::new(4);
        wide.extend(fredkin(3, 0, 2));
        assert!(wide.to_matrix().is_permutation());
    }

    #[test]
    fn multi_controlled_z_is_symmetric_phase() {
        // CCZ flips the sign of |111> only, regardless of which line is
        // the nominal target.
        for target in 0..3usize {
            let controls: Vec<usize> = (0..3).filter(|&q| q != target).collect();
            let mut c = Circuit::new(3);
            c.extend(multi_controlled_z(controls, target));
            let m = c.to_matrix();
            for b in 0..8usize {
                for r in 0..8usize {
                    let expect = if r == b {
                        if b == 7 {
                            -C64::ONE
                        } else {
                            C64::ONE
                        }
                    } else {
                        C64::ZERO
                    };
                    assert!(m[(r, b)].approx_eq(expect), "target {target} ({r},{b})");
                }
            }
        }
    }

    #[test]
    fn library_gates_compile_on_devices() {
        // The expansions are plain Clifford+T + CNOT, so the full pipeline
        // maps and verifies them.
        let mut spec = Circuit::new(3);
        spec.extend(controlled_s(0, 2));
        spec.extend(controlled_h(1, 0));
        spec.extend(fredkin(2, 0, 1));
        let r = crate::Compiler::new(qsyn_arch::devices::ibmqx4())
            .compile(&spec)
            .unwrap();
        assert_eq!(r.verified, Some(true));
    }
}
