//! The verifier must reject sabotaged outputs: grid windows shaped like a
//! streaming compile's (H/CX/T windows and CNOT+phase windows), mapped
//! into a textually different but equal output, then broken by flipping,
//! dropping or retargeting exactly one output gate. Each variant replaces
//! one gate by a different operator (or removes a non-identity gate), so
//! it is inequivalent by construction; both the support-restricted
//! batched miter and the canonical check must say so.

use qsyn_circuit::Circuit;
use qsyn_gate::{Gate, SingleOp};
use qsyn_qmdd::{miter_support, try_equivalent, try_equivalent_miter_on, EquivBudget};

const SIDE: usize = 6;
const BLOCK: (usize, usize) = (4, 6);
const WINDOW: usize = 32;

/// A seeded window on a `BLOCK` of the `SIDE x SIDE` grid: H, CX and T
/// gates, or (`phase_only`) CX, T, S and Z gates.
fn window(seed: u64, phase_only: bool) -> Circuit {
    let mut s = seed;
    let mut next = |m: usize| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as usize) % m
    };
    let (bh, bw) = BLOCK;
    let (r0, c0) = (next(SIDE - bh + 1), next(SIDE - bw + 1));
    let mut c = Circuit::new(SIDE * SIDE);
    for _ in 0..WINDOW {
        let (r, col) = (r0 + next(bh), c0 + next(bw));
        let q = r * SIDE + col;
        let g = match (phase_only, next(if phase_only { 4 } else { 3 })) {
            (_, 0) => Gate::cx(q, grid_neighbour(q, next(4))),
            (false, 1) => Gate::h(q),
            (_, 1) | (false, _) => Gate::t(q),
            (true, 2) => Gate::single(SingleOp::S, q),
            (true, _) => Gate::single(SingleOp::Z, q),
        };
        c.push(g);
    }
    c
}

/// The `k`-th existing grid neighbour of `q` (cycling through the four
/// directions).
fn grid_neighbour(q: usize, k: usize) -> usize {
    let (r, c) = (q / SIDE, q % SIDE);
    let candidates = [
        (c + 1 < SIDE).then(|| q + 1),
        (c > 0).then(|| q - 1),
        (r + 1 < SIDE).then(|| q + SIDE),
        (r > 0).then(|| q - SIDE),
    ];
    (0..4)
        .find_map(|i| candidates[(k + i) % 4])
        .expect("every grid qubit has a neighbour")
}

/// An equal output that differs textually: every other CX is reversed
/// through Hadamard conjugation, the way a directed coupling map forces.
fn mapped(spec: &Circuit) -> Circuit {
    let mut out = Circuit::new(spec.n_qubits());
    let mut reverse = false;
    for g in spec.gates() {
        match *g {
            Gate::Cx { control, target } if reverse => {
                for h in [Gate::h(control), Gate::h(target)] {
                    out.push(h);
                }
                out.push(Gate::cx(target, control));
                for h in [Gate::h(control), Gate::h(target)] {
                    out.push(h);
                }
                reverse = false;
            }
            Gate::Cx { .. } => {
                out.push(g.clone());
                reverse = true;
            }
            _ => out.push(g.clone()),
        }
    }
    out
}

/// A different single-qubit operator: the adjoint where that differs,
/// otherwise T.
fn flipped_op(op: SingleOp) -> SingleOp {
    match op {
        SingleOp::T => SingleOp::Tdg,
        SingleOp::Tdg => SingleOp::T,
        SingleOp::S => SingleOp::Sdg,
        SingleOp::Sdg => SingleOp::S,
        _ => SingleOp::T,
    }
}

/// Every one-gate sabotage of `out`, labelled for failure messages.
fn sabotaged(out: &Circuit) -> Vec<(String, Circuit)> {
    let mut variants = Vec::new();
    for (i, g) in out.gates().iter().enumerate() {
        let (flip, retarget) = match *g {
            Gate::Single { op, qubit } => (
                Gate::single(flipped_op(op), qubit),
                Gate::single(op, grid_neighbour(qubit, i)),
            ),
            Gate::Cx { control, target } => {
                let other = (0..4)
                    .map(|k| grid_neighbour(control, k))
                    .find(|&q| q != target)
                    .expect("grid qubits have two neighbours");
                (Gate::cx(target, control), Gate::cx(control, other))
            }
            _ => unreachable!("windows hold single-qubit gates and CX only"),
        };
        let mut dropped = out.clone();
        dropped.gates_mut().remove(i);
        variants.push((format!("drop {i} ({g})"), dropped));
        for (what, replacement) in [("flip", flip), ("retarget", retarget)] {
            let mut c = out.clone();
            c.gates_mut()[i] = replacement;
            variants.push((format!("{what} {i} ({g})"), c));
        }
    }
    variants
}

#[test]
fn every_one_gate_sabotage_is_rejected() {
    let budget = EquivBudget::default();
    let mut checked = 0;
    for seed in 0..3u64 {
        for phase_only in [false, true] {
            let spec = window(seed * 7919 + 1, phase_only);
            let out = mapped(&spec);
            let support = miter_support(&spec, &out);
            assert!(
                try_equivalent_miter_on(&support, &spec, &out, budget)
                    .unwrap()
                    .equivalent
            );
            assert!(try_equivalent(&spec, &out, budget).unwrap().equivalent);
            for (label, bad) in sabotaged(&out) {
                let support = miter_support(&spec, &bad);
                let miter = try_equivalent_miter_on(&support, &spec, &bad, budget).unwrap();
                assert!(!miter.equivalent, "restricted miter accepted {label}");
                let canonical = try_equivalent(&spec, &bad, budget).unwrap();
                assert!(!canonical.equivalent, "canonical check accepted {label}");
                checked += 1;
            }
        }
    }
    assert!(checked > 450, "only {checked} variants");
}
