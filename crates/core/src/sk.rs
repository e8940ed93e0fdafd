//! Solovay-Kitaev approximation of arbitrary one-qubit unitaries by the
//! discrete H/T library (Dawson & Nielsen's formulation).
//!
//! The IBM targets of the paper expose continuous "phase rotation" and
//! "amplitude rotation" gates, but fault-tolerant execution — and this
//! compiler's exact gate set — only has `X, Y, Z, H, S, S†, T, T†`.
//! Solovay-Kitaev bridges the gap: any 1-qubit unitary is approximated to
//! arbitrary accuracy by an `O(log^c(1/eps))`-length library word.
//!
//! Approximation is inherently *in*exact, so compiled rotations cannot pass
//! the canonical QMDD equality check; grade them with
//! [`qsyn_qmdd::process_fidelity`] instead (see the
//! `arbitrary_rotation` example).

use qsyn_gate::{Gate, Matrix, SingleOp, C64};
use std::sync::OnceLock;

/// A 2x2 special-unitary matrix in flat form `[u00, u01, u10, u11]`.
type Su2 = [C64; 4];

fn mul2(a: &Su2, b: &Su2) -> Su2 {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

fn dag2(a: &Su2) -> Su2 {
    [a[0].conj(), a[2].conj(), a[1].conj(), a[3].conj()]
}

/// Projects a unitary onto SU(2) (unit determinant) by dividing out a
/// square root of the determinant.
fn to_su2(a: &Su2) -> Su2 {
    let det = a[0] * a[3] - a[1] * a[2];
    // Principal square root of the unit-modulus determinant.
    let theta = det.im.atan2(det.re) / 2.0;
    let root = C64::cis(theta).recip();
    [a[0] * root, a[1] * root, a[2] * root, a[3] * root]
}

/// Projective distance ignoring global phase:
/// `sqrt(1 - |tr(U† V)| / 2)`.
fn dist(a: &Su2, b: &Su2) -> f64 {
    let adag = dag2(a);
    let m = mul2(&adag, b);
    let tr = m[0] + m[3];
    (1.0 - (tr.abs() / 2.0).min(1.0)).max(0.0).sqrt()
}

/// Axis-angle form of an SU(2) element:
/// `U = cos(t/2) I - i sin(t/2) (n . sigma)`.
fn axis_angle(u: &Su2) -> ([f64; 3], f64) {
    let cos_half = ((u[0].re + u[3].re) / 2.0).clamp(-1.0, 1.0); // Re tr / 2
    let angle = 2.0 * cos_half.acos();
    let sin_half = (angle / 2.0).sin();
    if sin_half.abs() < 1e-12 {
        return ([0.0, 0.0, 1.0], 0.0);
    }
    // U = [[c - i nz s, (-i nx - ny) s], [(-i nx + ny) s, c + i nz s]]
    let nx = -(u[1].im + u[2].im) / 2.0 / sin_half;
    let ny = (u[2].re - u[1].re) / 2.0 / sin_half;
    let nz = -(u[0].im - u[3].im) / 2.0 / sin_half;
    let norm = (nx * nx + ny * ny + nz * nz).sqrt().max(1e-12);
    ([nx / norm, ny / norm, nz / norm], angle)
}

/// SU(2) rotation by `angle` about axis `n` (not necessarily unit).
fn rotation(n: [f64; 3], angle: f64) -> Su2 {
    let norm = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt().max(1e-12);
    let (nx, ny, nz) = (n[0] / norm, n[1] / norm, n[2] / norm);
    let c = (angle / 2.0).cos();
    let s = (angle / 2.0).sin();
    [
        C64::new(c, -nz * s),
        C64::new(-ny * s, -nx * s),
        C64::new(ny * s, -nx * s),
        C64::new(c, nz * s),
    ]
}

/// The group-commutator factorization of Dawson & Nielsen: finds rotations
/// `V, W` with `U ~ V W V† W†` for a small rotation `U`.
fn gc_decompose(u: &Su2) -> (Su2, Su2) {
    let (axis_u, theta) = axis_angle(u);
    // Solve sin(theta/2) = 2 sin^2(phi/2) sqrt(1 - sin^4(phi/2)) exactly:
    // with y = sin^2(phi/2), 4 y^2 (1 - y^2) = sin^2(theta/2) gives
    // y^2 = (1 - sqrt(1 - sin^2(theta/2))) / 2.
    let st = (theta / 2.0).sin().abs();
    let y2 = (1.0 - (1.0 - st * st).max(0.0).sqrt()) / 2.0;
    let phi = 2.0 * y2.max(0.0).sqrt().sqrt().asin();
    let v = rotation([1.0, 0.0, 0.0], phi);
    let w = rotation([0.0, 1.0, 0.0], phi);
    // [V, W] is a rotation by theta about some axis; conjugate it onto
    // U's axis.
    let vdag = dag2(&v);
    let wdag = dag2(&w);
    let comm = mul2(&mul2(&v, &w), &mul2(&vdag, &wdag));
    let (axis_c, _) = axis_angle(&comm);
    let s = axis_to_axis(axis_c, axis_u);
    let sdag = dag2(&s);
    let a = mul2(&mul2(&s, &v), &sdag);
    let b = mul2(&mul2(&s, &w), &sdag);
    (a, b)
}

/// A rotation taking unit axis `from` to unit axis `to`.
fn axis_to_axis(from: [f64; 3], to: [f64; 3]) -> Su2 {
    let dot = (from[0] * to[0] + from[1] * to[1] + from[2] * to[2]).clamp(-1.0, 1.0);
    let cross = [
        from[1] * to[2] - from[2] * to[1],
        from[2] * to[0] - from[0] * to[2],
        from[0] * to[1] - from[1] * to[0],
    ];
    let norm = (cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]).sqrt();
    if norm < 1e-9 {
        if dot > 0.0 {
            return rotation([0.0, 0.0, 1.0], 0.0); // identity
        }
        // Antipodal: rotate by pi about any orthogonal axis.
        let ortho = if from[0].abs() < 0.9 {
            [0.0, -from[2], from[1]]
        } else {
            [-from[1], from[0], 0.0]
        };
        return rotation(ortho, std::f64::consts::PI);
    }
    rotation(cross, dot.acos())
}

/// One entry of the base epsilon-net: a matrix and the library word
/// realizing it.
struct BaseEntry {
    matrix: Su2,
    word: Vec<SingleOp>,
}

/// The base net: all distinct products of H and T up to a fixed length,
/// deduplicated projectively.
fn base_net() -> &'static Vec<BaseEntry> {
    static NET: OnceLock<Vec<BaseEntry>> = OnceLock::new();
    NET.get_or_init(|| {
        const MAX_LEN: usize = 22;
        let h = op_matrix(SingleOp::H);
        let t = op_matrix(SingleOp::T);
        let mut entries: Vec<BaseEntry> = vec![BaseEntry {
            matrix: [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE],
            word: vec![],
        }];
        let mut frontier: Vec<usize> = vec![0];
        // Spatial hash for projective dedup.
        let mut seen: qsyn_qmdd::FxHashSet<[i64; 8]> = qsyn_qmdd::FxHashSet::default();
        seen.insert(key_of(&entries[0].matrix));
        for _ in 0..MAX_LEN {
            let mut next = Vec::new();
            for &idx in &frontier {
                for (op, m) in [(SingleOp::H, &h), (SingleOp::T, &t)] {
                    let cand = to_su2(&mul2(m, &entries[idx].matrix));
                    let k = key_of(&cand);
                    if seen.insert(k) {
                        let mut word = entries[idx].word.clone();
                        word.push(op);
                        entries.push(BaseEntry { matrix: cand, word });
                        next.push(entries.len() - 1);
                    }
                }
            }
            frontier = next;
        }
        entries
    })
}

fn op_matrix(op: SingleOp) -> Su2 {
    let m = op.matrix();
    to_su2(&[m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]])
}

/// Quantized projective key: canonicalize the phase so that the first
/// significant entry is positive-real, then round.
fn key_of(m: &Su2) -> [i64; 8] {
    let pivot = if m[0].abs() > 1e-6 { m[0] } else { m[1] };
    let phase = pivot * (1.0 / pivot.abs());
    let fix = phase.conj();
    let q = |v: C64| {
        let v = v * fix;
        [(v.re * 1e6).round() as i64, (v.im * 1e6).round() as i64]
    };
    let (a, b, c, d) = (q(m[0]), q(m[1]), q(m[2]), q(m[3]));
    [a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]]
}

/// Nearest base-net entry (projective distance).
fn nearest_base(u: &Su2) -> (&'static Su2, Vec<SingleOp>) {
    let mut best = f64::INFINITY;
    let mut pick = 0usize;
    for (i, e) in base_net().iter().enumerate() {
        let d = dist(&e.matrix, u);
        if d < best {
            best = d;
            pick = i;
        }
    }
    let e = &base_net()[pick];
    (&e.matrix, e.word.clone())
}

/// Recursive Solovay-Kitaev: returns a library word and its matrix.
fn sk(u: &Su2, depth: usize) -> (Su2, Vec<SingleOp>) {
    if depth == 0 {
        let (m, w) = nearest_base(u);
        return (*m, w);
    }
    let (un, wn) = sk(u, depth - 1);
    let delta = mul2(u, &dag2(&un));
    let (v, w) = gc_decompose(&to_su2(&delta));
    let (vn, vw) = sk(&v, depth - 1);
    let (wnm, ww) = sk(&w, depth - 1);
    // U_{k} = V W V† W† U_{k-1}; words apply left-to-right in circuit
    // order, i.e. reversed relative to the matrix product.
    let approx = mul2(&mul2(&mul2(&vn, &wnm), &mul2(&dag2(&vn), &dag2(&wnm))), &un);
    let mut word = wn;
    word.extend(dagger_word(&ww));
    word.extend(dagger_word(&vw));
    word.extend(ww);
    word.extend(vw);
    (approx, word)
}

/// The library word for the adjoint of a word.
fn dagger_word(word: &[SingleOp]) -> Vec<SingleOp> {
    word.iter().rev().map(|op| op.inverse()).collect()
}

/// Result of a Solovay-Kitaev approximation.
#[derive(Debug, Clone)]
pub struct SkApproximation {
    /// Library gates, in circuit (execution) order, acting on one line.
    pub word: Vec<SingleOp>,
    /// Projective distance `sqrt(1 - |tr(U†V)|/2)` actually achieved.
    pub error: f64,
}

/// Approximates an arbitrary one-qubit unitary by an H/T-library word with
/// the given recursion depth (0 = base net only; each level shrinks the
/// error roughly as `eps -> c eps^{3/2}`).
///
/// The result is correct up to a global phase, which the discrete library
/// cannot (and for compilation purposes need not) reproduce.
///
/// # Panics
///
/// Panics if `u` is not (approximately) unitary.
pub fn approximate_unitary(u: &Matrix, depth: usize) -> SkApproximation {
    assert_eq!(u.dim(), 2, "one-qubit unitaries only");
    assert!(u.is_unitary(), "input must be unitary");
    let su = to_su2(&[u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]]);
    let (m, word) = sk(&su, depth);
    SkApproximation {
        error: dist(&m, &su),
        word,
    }
}

/// Approximates `Rz(angle) = diag(e^{-i angle/2}, e^{i angle/2})` and
/// returns the gates applied to `qubit`.
pub fn approximate_rz(angle: f64, qubit: usize, depth: usize) -> (Vec<Gate>, f64) {
    // Exact shortcut for multiples of pi/4 (up to global phase).
    let steps = angle / std::f64::consts::FRAC_PI_4;
    if (steps - steps.round()).abs() < 1e-12 {
        let k = (steps.round() as i64).rem_euclid(8) as u8;
        let gates = SingleOp::from_phase_steps(k)
            .into_iter()
            .map(|op| Gate::single(op, qubit))
            .collect();
        return (gates, 0.0);
    }
    let m = Matrix::from_rows(&[
        [C64::cis(-angle / 2.0), C64::ZERO],
        [C64::ZERO, C64::cis(angle / 2.0)],
    ]);
    let approx = approximate_unitary(&m, depth);
    (
        approx
            .word
            .into_iter()
            .map(|op| Gate::single(op, qubit))
            .collect(),
        approx.error,
    )
}

/// [`approximate_rz`] with an accuracy target: increases the recursion
/// depth (up to 4) until the projective error drops below `epsilon`,
/// returning the first word that achieves it (or the best word found).
pub fn approximate_rz_to_accuracy(angle: f64, qubit: usize, epsilon: f64) -> (Vec<Gate>, f64) {
    let mut best: Option<(Vec<Gate>, f64)> = None;
    for depth in 0..=4 {
        let (gates, error) = approximate_rz(angle, qubit, depth);
        let better = best.as_ref().is_none_or(|(_, e)| error < *e);
        if better {
            best = Some((gates, error));
        }
        if best.as_ref().is_some_and(|(_, e)| *e <= epsilon) {
            break;
        }
    }
    best.expect("at least depth 0 ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn su_of(gates: &[SingleOp]) -> Su2 {
        let mut m = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];
        for op in gates {
            m = to_su2(&mul2(&op_matrix(*op), &m));
        }
        m
    }

    #[test]
    fn distance_is_a_projective_metric() {
        let h = op_matrix(SingleOp::H);
        let t = op_matrix(SingleOp::T);
        assert!(dist(&h, &h) < 1e-9);
        // Global phase is ignored.
        let mh = [h[0] * C64::I, h[1] * C64::I, h[2] * C64::I, h[3] * C64::I];
        assert!(dist(&h, &mh) < 1e-9);
        assert!(dist(&h, &t) > 0.1);
    }

    #[test]
    fn axis_angle_round_trips() {
        for (axis, angle) in [
            ([1.0, 0.0, 0.0], 0.7),
            ([0.0, 1.0, 0.0], 2.1),
            ([0.6, 0.0, 0.8], 1.3),
            ([0.0, 0.0, 1.0], 0.05),
        ] {
            let u = rotation(axis, angle);
            let (a2, t2) = axis_angle(&u);
            assert!((t2 - angle).abs() < 1e-9, "angle {angle} vs {t2}");
            for k in 0..3 {
                assert!((a2[k] - axis[k]).abs() < 1e-6, "axis {axis:?} vs {a2:?}");
            }
        }
    }

    #[test]
    fn gc_decompose_reconstructs_small_rotations() {
        for angle in [0.05f64, 0.1, 0.02] {
            let u = rotation([0.3, 0.5, 0.81], angle);
            let (v, w) = gc_decompose(&u);
            let comm = mul2(&mul2(&v, &w), &mul2(&dag2(&v), &dag2(&w)));
            assert!(dist(&comm, &u) < 1e-6, "angle {angle}: {}", dist(&comm, &u));
        }
    }

    #[test]
    fn base_net_is_substantial_and_correct() {
        let net = base_net();
        assert!(net.len() > 2000, "net too small: {}", net.len());
        // Every entry's word reproduces its matrix (projectively).
        for e in net.iter().step_by(101) {
            // dist is a square-root metric: ~1e-16 trace noise shows
            // up as ~1e-8, so compare at 1e-6.
            assert!(dist(&su_of(&e.word), &e.matrix) < 1e-6);
        }
    }

    #[test]
    fn deeper_recursion_reduces_error() {
        let target = rotation([0.0, 0.0, 1.0], 0.5317);
        let mut last = f64::INFINITY;
        for depth in 0..3 {
            let m = Matrix::from_rows(&[
                [
                    C64::new(target[0].re, target[0].im),
                    C64::new(target[1].re, target[1].im),
                ],
                [
                    C64::new(target[2].re, target[2].im),
                    C64::new(target[3].re, target[3].im),
                ],
            ]);
            let approx = approximate_unitary(&m, depth);
            assert!(
                approx.error <= last + 1e-12,
                "depth {depth}: {} vs {last}",
                approx.error
            );
            // The word's matrix must actually achieve the claimed error.
            assert!(dist(&su_of(&approx.word), &to_su2(&target)) < approx.error + 1e-6);
            last = approx.error;
        }
        assert!(last < 0.02, "depth-2 error too large: {last}");
    }

    #[test]
    fn rz_exact_shortcut_for_library_angles() {
        for k in 0..8i64 {
            let (gates, err) = approximate_rz(k as f64 * std::f64::consts::FRAC_PI_4, 0, 2);
            assert_eq!(err, 0.0, "k={k}");
            assert!(gates.len() <= 2);
        }
    }

    #[test]
    fn accuracy_targeted_rz() {
        let (gates, err) = approximate_rz_to_accuracy(1.234, 0, 0.05);
        assert!(err <= 0.05, "requested accuracy met: {err}");
        assert!(!gates.is_empty());
        // Exact angles resolve at zero cost regardless of target.
        let (gates, err) = approximate_rz_to_accuracy(std::f64::consts::FRAC_PI_2, 0, 1e-12);
        assert_eq!(err, 0.0);
        assert!(gates.len() <= 2);
    }

    #[test]
    fn rz_approximation_acts_correctly_on_states() {
        use qsyn_circuit::Circuit;
        let angle = 0.7391;
        let (gates, err) = approximate_rz(angle, 0, 2);
        assert!(err < 0.05, "error {err}");
        let mut c = Circuit::new(1);
        c.extend(gates);
        let m = c.to_matrix();
        // Compare the relative phase between |0> and |1> components.
        let rel = (m[(1, 1)] / m[(0, 0)]).im.atan2((m[(1, 1)] / m[(0, 0)]).re);
        let diff = (rel - angle).rem_euclid(2.0 * std::f64::consts::PI);
        let diff = diff.min(2.0 * std::f64::consts::PI - diff);
        assert!(diff < 0.15, "relative phase off by {diff}");
    }
}
