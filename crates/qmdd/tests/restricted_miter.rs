//! Differential property test: the support-restricted check's verdict
//! equals the full-register verdict on random windows over random supports
//! — equal windows, sabotaged windows, restoration-SWAP windows, and
//! empty-support identity windows alike, for the canonical check and for
//! the miter at every block length.
//!
//! This is the guarantee the compiler leans on when it verifies every
//! batch output and streaming window on a compacted register of just the
//! touched qubits instead of dragging the full device width through every
//! gate product.

use proptest::prelude::*;
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;
use qsyn_qmdd::{
    miter_support, try_equivalent, try_equivalent_miter, try_equivalent_miter_on_batched,
    try_equivalent_on, EquivBudget, EquivMethod,
};

const WIDTH: usize = 14;

/// A random Clifford+T+SWAP window touching only `support` lines.
fn window_on(support: &[usize], ops: &[(u8, usize, usize)]) -> Circuit {
    let mut c = Circuit::new(WIDTH);
    if support.is_empty() {
        return c;
    }
    for &(kind, x, y) in ops {
        let a = support[x % support.len()];
        let b = support[y % support.len()];
        match kind {
            0 => c.push(Gate::h(a)),
            1 => c.push(Gate::t(a)),
            2 => c.push(Gate::tdg(a)),
            3 if a != b => c.push(Gate::cx(a, b)),
            _ if a != b => c.push(Gate::swap(a, b)),
            _ => c.push(Gate::h(a)),
        }
    }
    c
}

/// A routed-looking version of `spec`: conjugated by a SWAP between the
/// first and last support lines with the middle relabeled to match, so the
/// layout is moved and then *restored* — the exact shape of a streaming
/// window after routing. Unitarily equal to `spec` by construction.
fn routed_with_restoration(spec: &Circuit, support: &[usize]) -> Circuit {
    if support.len() < 2 {
        return spec.clone();
    }
    let (lo, hi) = (support[0], support[support.len() - 1]);
    let perm = |q: usize| {
        if q == lo {
            hi
        } else if q == hi {
            lo
        } else {
            q
        }
    };
    let mut out = Circuit::new(WIDTH);
    out.push(Gate::swap(lo, hi));
    for g in spec.relabeled(WIDTH, perm).gates() {
        out.push(g.clone());
    }
    out.push(Gate::swap(lo, hi));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn restricted_verdicts_equal_full_register_verdicts(
        mask in 0u16..(1u16 << WIDTH),
        ops in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64), 0..24),
        flags in 0u8..4,
    ) {
        let route = flags & 1 != 0;
        let sabotage = flags & 2 != 0;
        let lines: Vec<usize> = (0..WIDTH).filter(|&q| mask & (1 << q) != 0).collect();
        let spec = window_on(&lines, &ops);
        let mut out = if route {
            routed_with_restoration(&spec, &lines)
        } else {
            spec.clone()
        };
        if sabotage && !lines.is_empty() {
            out.push(Gate::t(lines[0]));
        }
        let support = miter_support(&spec, &out);
        let budget = EquivBudget::default();
        let full = try_equivalent_miter(&spec, &out, budget).unwrap();
        let restricted =
            try_equivalent_on(&support, &spec, &out, EquivMethod::Miter, budget).unwrap();
        prop_assert_eq!(full.equivalent, restricted.equivalent);
        for batch in [1usize, 3, 8] {
            let restricted_b =
                try_equivalent_miter_on_batched(&support, &spec, &out, budget, batch).unwrap();
            prop_assert_eq!(full.equivalent, restricted_b.equivalent, "restricted batch {}", batch);
        }
        // The canonical check on the support agrees with the canonical
        // check on the full register (and so with the miter).
        let full_canonical = try_equivalent(&spec, &out, budget).unwrap();
        let restricted_canonical =
            try_equivalent_on(&support, &spec, &out, EquivMethod::Canonical, budget).unwrap();
        prop_assert_eq!(full.equivalent, full_canonical.equivalent);
        prop_assert_eq!(full_canonical.equivalent, restricted_canonical.equivalent);
        // The verdict itself is what we expect: a sabotaged non-empty
        // window differs, everything else is equal (empty support means
        // the sabotage T was never pushed).
        let expect_equal = !sabotage || lines.is_empty();
        prop_assert_eq!(full.equivalent, expect_equal);
    }
}
