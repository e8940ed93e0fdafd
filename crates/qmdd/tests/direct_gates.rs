//! The one-pass gate construction against the tensor-sum construction
//! `I - P + P·U` it replaced (kept here as the reference), and the
//! kernel's per-level identity table and compute-table caps under forced
//! collections.

use qsyn_circuit::Circuit;
use qsyn_gate::{Gate, SingleOp, C64, SINGLE_OPS};
use qsyn_qmdd::{
    miter_support, try_equivalent, try_equivalent_miter_on_batched, Edge, EquivBudget, Qmdd,
    DEFAULT_MITER_BATCH, M2,
};

const IDENT2: M2 = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
const PROJ1: M2 = [[C64::ZERO, C64::ZERO], [C64::ZERO, C64::ONE]];
const X2: M2 = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];

fn m2(op: SingleOp) -> M2 {
    let m = op.matrix();
    [[m[(0, 0)], m[(0, 1)]], [m[(1, 0)], m[(1, 1)]]]
}

/// `I - P + (P with U at the target)`, where `P` projects onto
/// all-controls-one: two plain tensor products and two full-depth adds.
fn reference_controlled(pkg: &mut Qmdd, controls: &[usize], target: usize, u: M2) -> Edge {
    let proj = pkg.tensor(|l| if controls.contains(&l) { PROJ1 } else { IDENT2 });
    let act = pkg.tensor(|l| {
        if controls.contains(&l) {
            PROJ1
        } else if l == target {
            u
        } else {
            IDENT2
        }
    });
    let id = pkg.tensor(|_| IDENT2);
    let minus_one = pkg.intern_weight(-C64::ONE);
    let neg_proj = pkg.scale(proj, minus_one);
    let partial = pkg.add(id, neg_proj);
    pkg.add(partial, act)
}

fn reference_gate(pkg: &mut Qmdd, g: &Gate) -> Edge {
    match g {
        Gate::Single { op, qubit } => {
            let u = m2(*op);
            pkg.tensor(|l| if l == *qubit { u } else { IDENT2 })
        }
        Gate::Cx { control, target } => reference_controlled(pkg, &[*control], *target, X2),
        Gate::Cz { control, target } => {
            reference_controlled(pkg, &[*control], *target, m2(SingleOp::Z))
        }
        Gate::Swap { a, b } => {
            let c1 = reference_controlled(pkg, &[*a], *b, X2);
            let c2 = reference_controlled(pkg, &[*b], *a, X2);
            let p = pkg.mul(c2, c1);
            pkg.mul(c1, p)
        }
        Gate::Mct { controls, target } => reference_controlled(pkg, controls, *target, X2),
    }
}

/// Control sets of size `k` around `target` in an `n`-line register:
/// all above it, all below it, and alternating around it.
fn control_sets(n: usize, target: usize, k: usize) -> Vec<Vec<usize>> {
    let above: Vec<usize> = (0..target).rev().take(k).collect();
    let below: Vec<usize> = (target + 1..n).take(k).collect();
    let mut interleaved = Vec::new();
    let (mut up, mut down) = ((0..target).rev(), target + 1..n);
    while interleaved.len() < k {
        let next = if interleaved.len() % 2 == 0 {
            up.next().or_else(|| down.next())
        } else {
            down.next().or_else(|| up.next())
        };
        match next {
            Some(q) => interleaved.push(q),
            None => break,
        }
    }
    [above, below, interleaved]
        .into_iter()
        .filter(|s| s.len() == k)
        .collect()
}

/// Every gate the reference comparison covers on `n` lines.
fn gate_zoo(n: usize) -> Vec<Gate> {
    let mut gates = Vec::new();
    for q in 0..n {
        gates.extend(SINGLE_OPS.iter().map(|&op| Gate::single(op, q)));
    }
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            gates.push(Gate::cx(a, b));
            gates.push(Gate::cz(a, b));
            if a < b {
                gates.push(Gate::swap(a, b));
            }
        }
    }
    for t in 0..n {
        for k in 2..=4 {
            for controls in control_sets(n, t, k) {
                gates.push(Gate::mct(controls, t));
            }
        }
    }
    gates
}

#[test]
fn direct_gates_equal_the_tensor_sum_reference() {
    for n in 1..=8 {
        let mut pkg = Qmdd::new(n);
        for g in gate_zoo(n) {
            let direct = pkg.gate(&g);
            let reference = reference_gate(&mut pkg, &g);
            assert_eq!(
                direct, reference,
                "{g} on {n} lines: not the canonical edge"
            );
            assert!(
                pkg.to_matrix(direct).approx_eq(&g.to_matrix(n)),
                "{g} on {n} lines: wrong matrix"
            );
        }
    }
}

#[test]
fn direct_controlled_matches_reference_for_every_control_count() {
    // `controlled` directly, 0 to 4 controls above, below and around the
    // target, with a non-permutation payload too.
    for n in 1..=8 {
        let mut pkg = Qmdd::new(n);
        for t in 0..n {
            for k in 0..=4 {
                for controls in control_sets(n, t, k) {
                    for u in [X2, m2(SingleOp::H), m2(SingleOp::T), m2(SingleOp::Y)] {
                        let direct = pkg.controlled(&controls, t, u);
                        let reference = reference_controlled(&mut pkg, &controls, t, u);
                        assert_eq!(direct, reference, "{controls:?} -> {t} on {n} lines");
                    }
                }
            }
        }
    }
}

/// A deterministic Clifford+T circuit with Toffolis and SWAPs.
fn mixed_circuit(n: usize, gates: usize, mut s: u64) -> Circuit {
    let mut c = Circuit::new(n);
    let mut next = move |m: usize| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as usize) % m
    };
    while c.len() < gates {
        let (a, b, t) = (next(n), next(n), next(n));
        match next(6) {
            0 => c.push(Gate::h(a)),
            1 => c.push(Gate::t(a)),
            2 => c.push(Gate::single(SingleOp::Sdg, a)),
            3 if a != b => c.push(Gate::cx(a, b)),
            4 if a != b => c.push(Gate::swap(a, b)),
            5 if a != b && a != t && b != t => c.push(Gate::toffoli(a, b, t)),
            _ => {}
        }
    }
    c
}

#[test]
fn identity_table_survives_a_collection_after_every_product() {
    let c = mixed_circuit(5, 60, 3);
    let mut clean = Qmdd::new(5);
    let expected = clean.circuit(&c);
    let dense = clean.to_matrix(expected);
    // Compact after every product: the identity nodes are relocated or
    // dropped each time and the table must be rebuilt, not reused.
    let mut pkg = Qmdd::new(5);
    let mut acc = pkg.identity();
    for g in c.gates() {
        let ge = pkg.gate(g);
        acc = pkg.mul(ge, acc);
        let mut roots = [acc];
        pkg.compact(&mut roots);
        acc = roots[0];
        let id = pkg.identity();
        assert_eq!(pkg.mul(id, acc), acc, "identity product after a collection");
    }
    assert_eq!(pkg.cache_stats().gc_runs, c.len() as u64);
    assert!(pkg.to_matrix(acc).approx_eq(&dense));
    // The same through `circuit()` with a watermark of 2.
    let mut forced = Qmdd::new(5);
    forced.set_gc_threshold(2);
    let e = forced.circuit(&c);
    assert!(forced.cache_stats().gc_runs > 0);
    assert!(forced.to_matrix(e).approx_eq(&dense));
}

#[test]
fn forced_watermark_verdicts_match_unforced() {
    let spec = mixed_circuit(6, 48, 11);
    let mut tweaked = spec.clone();
    tweaked.push(Gate::t(4));
    let forced = EquivBudget::with_gc_threshold(2);
    for (out, want) in [(spec.clone(), true), (tweaked, false)] {
        let base = try_equivalent(&spec, &out, EquivBudget::default()).unwrap();
        let swept = try_equivalent(&spec, &out, forced).unwrap();
        assert_eq!(base.equivalent, want);
        assert_eq!(swept.equivalent, want);
        assert!(swept.gc_runs > 0, "watermark 2 must collect");
        let support = miter_support(&spec, &out);
        for budget in [EquivBudget::default(), forced] {
            let r =
                try_equivalent_miter_on_batched(&support, &spec, &out, budget, DEFAULT_MITER_BATCH)
                    .unwrap();
            assert_eq!(r.equivalent, want, "{budget:?}");
        }
    }
}

#[test]
fn compute_tables_never_outgrow_their_caps() {
    let c = mixed_circuit(6, 120, 5);
    let mut capped = Qmdd::new(6);
    capped.set_cache_capacity(16);
    let e = capped.circuit(&c);
    assert!(
        capped.cache_stats().evictions > 0,
        "a 16-slot table must evict"
    );
    let [add, mul, _] = capped.cache_slots();
    assert!(add <= 16 && mul <= 16, "capped tables grew: {add}, {mul}");

    let mut default = Qmdd::new(6);
    let expected = default.circuit(&c);
    let [add, mul, adj] = default.cache_slots();
    assert!(add <= 1 << 15 && mul <= 1 << 15 && adj <= 1 << 12);
    assert!(
        add.max(mul) > 1 << 10,
        "a dense 6-qubit product must grow a table past its initial size"
    );
    assert!(capped.to_matrix(e).approx_eq(&default.to_matrix(expected)));
}
