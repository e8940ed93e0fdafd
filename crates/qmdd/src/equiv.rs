//! QMDD-based formal equivalence checking.
//!
//! The paper verifies every compiled output by building the QMDD of the
//! original and of the technology-mapped circuit and checking that the two
//! share the same graph ([`equivalent`]). For very wide circuits this crate
//! also offers the *interleaved miter* strategy ([`equivalent_miter`]): the
//! product `U1 * U2^dagger` is accumulated gate by gate, alternating between
//! the two circuits, so that the intermediate diagram stays close to the
//! identity while the circuits agree.

use crate::package::{CacheStats, Edge, Qmdd};
use qsyn_circuit::Circuit;
use std::cell::Cell;

/// Arena capacity, in nodes, up to which a finished check's package is
/// kept for the thread's next check. Beyond it the package is dropped, so
/// a thread holds at most one package of about 13 MB (arena, unique map
/// and compute tables) between checks, and the largest diagrams are freed
/// as soon as their check ends.
const MAX_RETAINED_NODES: usize = 1 << 16;

thread_local! {
    /// The thread's spare package, empty while a check holds it.
    static SPARE_PACKAGE: Cell<Option<Qmdd>> = const { Cell::new(None) };
}

/// Runs `check` on a package over `n` qubits: the thread's spare package,
/// reset to the state of a new one, or a new package when there is none.
/// Every check in this module except [`build_circuit_qmdd`], which hands
/// its package to the caller, goes through here. The package is taken out
/// of the slot for the duration, so a check that panics drops it and a
/// check nested inside another gets a package of its own.
fn with_package<R>(n: usize, check: impl FnOnce(&mut Qmdd) -> R) -> R {
    let mut pkg = match SPARE_PACKAGE.with(Cell::take) {
        Some(mut pkg) => {
            pkg.reset(n);
            pkg
        }
        None => Qmdd::new(n),
    };
    let result = check(&mut pkg);
    if pkg.arena_capacity() <= MAX_RETAINED_NODES {
        SPARE_PACKAGE.with(|slot| slot.set(Some(pkg)));
    }
    result
}

/// Outcome of an equivalence check, with diagnostic sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivReport {
    /// Whether the two circuits realize the same unitary (exactly, including
    /// global phase).
    pub equivalent: bool,
    /// Peak node count of the underlying package during the check.
    pub peak_nodes: usize,
    /// Final unique-table (hash-cons) size of the package.
    pub unique_nodes: usize,
    /// Compute-table probes performed during the check.
    pub cache_lookups: u64,
    /// Compute-table probes answered from the cache.
    pub cache_hits: u64,
    /// Live compute-table entries displaced by newer results.
    pub cache_evictions: u64,
    /// Mark-and-sweep collections performed during the check.
    pub gc_runs: u64,
    /// Total nodes reclaimed by those collections.
    pub nodes_reclaimed: u64,
    /// Gates fused per product by a miter check; zero for the canonical
    /// check.
    pub miter_block: usize,
}

impl EquivReport {
    /// Fraction of compute-table probes answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats {
            lookups: self.cache_lookups,
            hits: self.cache_hits,
            ..CacheStats::default()
        }
        .hit_rate()
    }
}

/// Resource limits for a bounded equivalence check.
///
/// The default is unlimited on both axes, which makes
/// [`try_equivalent`] / [`try_equivalent_miter`] infallible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EquivBudget {
    /// Forced garbage-collection watermark: `Some(nodes)` collects whenever
    /// the arena exceeds that size (see [`equivalent_with_gc_threshold`]).
    pub gc_threshold: Option<usize>,
    /// Arena-size ceiling: the check aborts with [`EquivBudgetError`] once
    /// the package allocates more than this many nodes.
    pub node_budget: Option<usize>,
}

impl EquivBudget {
    /// A budget that only forces a GC watermark.
    pub fn with_gc_threshold(nodes: usize) -> Self {
        EquivBudget {
            gc_threshold: Some(nodes),
            ..EquivBudget::default()
        }
    }

    /// A budget that only caps the arena size.
    pub fn with_node_budget(nodes: usize) -> Self {
        EquivBudget {
            node_budget: Some(nodes),
            ..EquivBudget::default()
        }
    }
}

/// A bounded equivalence check exhausted its node budget before reaching a
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivBudgetError {
    /// The configured arena ceiling.
    pub limit: usize,
    /// Peak arena size actually observed (at most one gate's worth of
    /// allocations past the ceiling, thanks to the package latch).
    pub used: usize,
    /// Compute-table lookups the check made before it aborted.
    pub lookups: u64,
}

impl std::fmt::Display for EquivBudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QMDD node budget exceeded: used {} of {} nodes",
            self.used, self.limit
        )
    }
}

impl std::error::Error for EquivBudgetError {}

/// Applies a budget to a fresh package and converts the latch into an error.
fn apply_budget(pkg: &mut Qmdd, budget: EquivBudget) {
    if let Some(t) = budget.gc_threshold {
        pkg.set_gc_threshold(t);
    }
    pkg.set_node_budget(budget.node_budget);
}

fn budget_verdict(pkg: &Qmdd, equivalent: bool) -> Result<EquivReport, EquivBudgetError> {
    if pkg.budget_exceeded() {
        return Err(EquivBudgetError {
            limit: pkg.node_budget().unwrap_or(0),
            used: pkg.peak_node_count(),
            lookups: pkg.cache_stats().lookups,
        });
    }
    Ok(report_from(pkg, equivalent))
}

/// Assembles a report from a finished package and the check's verdict.
fn report_from(pkg: &Qmdd, equivalent: bool) -> EquivReport {
    let cache = pkg.cache_stats();
    EquivReport {
        equivalent,
        peak_nodes: pkg.peak_node_count(),
        unique_nodes: pkg.unique_len(),
        cache_lookups: cache.lookups,
        cache_hits: cache.hits,
        cache_evictions: cache.evictions,
        gc_runs: cache.gc_runs,
        nodes_reclaimed: cache.nodes_reclaimed,
        miter_block: 0,
    }
}

/// Checks equivalence the way the paper describes: build both QMDDs in one
/// package; canonicity makes equality a root-edge comparison.
///
/// Circuits of different widths are compared on the wider register (the
/// narrower circuit acts as the identity on the extra lines).
pub fn equivalent(a: &Circuit, b: &Circuit) -> EquivReport {
    equivalent_with_gc_threshold(a, b, None)
}

/// [`equivalent`] with a forced garbage-collection watermark (stress and
/// tuning hook): `Some(nodes)` collects whenever the arena exceeds that
/// size, `None` uses the package default. Verdicts are identical for any
/// watermark — only peak memory and the GC counters change.
pub fn equivalent_with_gc_threshold(
    a: &Circuit,
    b: &Circuit,
    gc_threshold: Option<usize>,
) -> EquivReport {
    let budget = EquivBudget {
        gc_threshold,
        node_budget: None,
    };
    try_equivalent(a, b, budget).expect("unbudgeted check cannot exhaust")
}

/// [`equivalent`] under a resource budget: aborts with
/// [`EquivBudgetError`] instead of growing the arena past
/// `budget.node_budget`. With no node budget this never fails.
///
/// The benchmark harness's mirror of the compiler calls this on the full
/// register, so its signature stays as it is until the next benchmark
/// change (ROADMAP item 7); the compiler calls [`try_equivalent_on`].
pub fn try_equivalent(
    a: &Circuit,
    b: &Circuit,
    budget: EquivBudget,
) -> Result<EquivReport, EquivBudgetError> {
    let n = a.n_qubits().max(b.n_qubits());
    with_package(n, |pkg| {
        apply_budget(pkg, budget);
        let ea = pkg.circuit(a);
        // Protect the first root: a collection triggered while building the
        // second circuit must keep (and relocate) it.
        let slot = pkg.protect(ea);
        let eb = pkg.circuit(b);
        let ea = pkg.protected(slot);
        budget_verdict(pkg, ea == eb)
    })
}

/// Checks equivalence via the interleaved miter `U_a * U_b^dagger = I`.
///
/// Gates from `a` multiply the accumulator on the left in program order;
/// inverted gates from `b` multiply on the right, also in program order, so
/// the accumulator converges to `U_a * U_b^dagger`. Interleaving is
/// proportional to the two gate counts, which keeps the intermediate
/// diagram near the identity whenever `b` is a gate-by-gate expansion of
/// `a` — exactly the situation after technology mapping.
pub fn equivalent_miter(a: &Circuit, b: &Circuit) -> EquivReport {
    try_equivalent_miter(a, b, EquivBudget::default()).expect("unbudgeted check cannot exhaust")
}

/// [`equivalent_miter`] under a resource budget, on the full register
/// with one gate per product; see [`try_equivalent`].
///
/// Kept for the benchmark harness, whose mirror of the compiler still
/// checks this way until the next benchmark change (ROADMAP item 7);
/// the compiler itself calls [`try_equivalent_on`].
pub fn try_equivalent_miter(
    a: &Circuit,
    b: &Circuit,
    budget: EquivBudget,
) -> Result<EquivReport, EquivBudgetError> {
    miter_batched(a, b, budget, 1)
}

/// The stream verifier's former fixed fused-block length.
///
/// Kept, with [`try_equivalent_miter_on_batched`], for the benchmark
/// harness's mirror until the next benchmark change (ROADMAP item 7);
/// the compiler's block follows the pair's length instead (see
/// [`try_equivalent_on`]).
pub const DEFAULT_MITER_BATCH: usize = 2;

/// The interleaved miter with fused gate blocks: each scheduling step
/// takes up to `batch` gates from one side, multiplies them into one small
/// block diagram, and folds the block into the accumulator with a single
/// product — cutting the full-width accumulator walks (and their
/// unique-table/compute-cache round-trips) per gate by up to `batch`.
///
/// `a`-gates only ever multiply on the left and inverted `b`-gates only on
/// the right, and left- and right-multiplication commute as operations, so
/// *any* interleaving yields the same product `U_a * U_b^dagger`; batching
/// merely coarsens the proportional schedule from per-gate to per-block
/// (the intermediate diagram can now drift up to `batch` gates from the
/// identity). The verdict is identical for every `batch`; `batch <= 1`
/// *is* the unbatched miter, product for product.
fn miter_batched(
    a: &Circuit,
    b: &Circuit,
    budget: EquivBudget,
    batch: usize,
) -> Result<EquivReport, EquivBudgetError> {
    let n = a.n_qubits().max(b.n_qubits());
    with_package(n, |pkg| {
        apply_budget(pkg, budget);
        let batch = batch.max(1);
        let mut acc = pkg.identity();
        let (la, lb) = (a.len().max(1), b.len().max(1));
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            if pkg.budget_exceeded() {
                break;
            }
            // Advance whichever side is proportionally behind (block-granular).
            let take_a = i < a.len() && (j >= b.len() || i * lb <= j * la);
            // No `maybe_gc` may run while a block is live: a collection roots
            // only `acc` (plus protected slots) and would invalidate the
            // half-built block. Blocks are at most `batch` gates, so the
            // un-collected intermediates stay bounded.
            if take_a {
                let end = (i + batch).min(a.len());
                let mut block = pkg.gate(&a.gates()[i]);
                i += 1;
                while i < end && !pkg.budget_exceeded() {
                    let ge = pkg.gate(&a.gates()[i]);
                    block = pkg.mul(ge, block);
                    i += 1;
                }
                acc = pkg.mul(block, acc);
            } else {
                let end = (j + batch).min(b.len());
                let mut block = pkg.gate(&b.gates()[j].inverse());
                j += 1;
                while j < end && !pkg.budget_exceeded() {
                    let ge = pkg.gate(&b.gates()[j].inverse());
                    block = pkg.mul(block, ge);
                    j += 1;
                }
                acc = pkg.mul(acc, block);
            }
            acc = pkg.maybe_gc(acc);
        }
        let id = pkg.identity();
        budget_verdict(pkg, acc == id).map(|report| EquivReport {
            miter_block: batch,
            ..report
        })
    })
}

/// The sorted set of qubits either circuit touches — the *support* of a
/// check. Lines outside this set are exact identity on both sides by
/// construction. The benchmark harness imports it, so its signature stays
/// as it is until the next benchmark change (ROADMAP item 7).
pub fn miter_support(a: &Circuit, b: &Circuit) -> Vec<usize> {
    let width = a.n_qubits().max(b.n_qubits());
    let mut touched = vec![false; width];
    for g in a.gates().iter().chain(b.gates()) {
        for q in g.qubits() {
            touched[q] = true;
        }
    }
    (0..width).filter(|&q| touched[q]).collect()
}

/// How [`try_equivalent_on`] decides equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivMethod {
    /// The paper's check: build both diagrams in one package and compare
    /// root edges ([`try_equivalent`]).
    Canonical,
    /// The interleaved miter `U_spec * U_out^dagger = I`, with gate
    /// products fused in blocks whose length follows the pair's length.
    Miter,
}

/// Checks `spec` against `out` on a compacted register of just the
/// `support` qubits, by `method`, under `budget`.
///
/// Both circuits are relabeled onto a dense register of `support.len()`
/// lines (support qubit `support[k]` becomes line `k`) and the check runs
/// there. Every line outside the support is the exact identity on both
/// sides, and identity tensor factors carry no phase, so the restricted
/// verdict equals the full-register verdict bit-for-bit — for equal
/// circuits and for unequal ones alike, by either method. Use
/// [`miter_support`] to compute the support set.
///
/// The miter fuses `(max(spec.len(), out.len()) / 64).clamp(1, 32)`
/// gates per product: short windows keep one gate per product, where
/// larger blocks only make each product denser, and long outputs take up
/// to 32, cutting the full-width accumulator walks. The report's
/// [`EquivReport::miter_block`] records the length used.
///
/// # Panics
///
/// Panics if `support` is not strictly ascending, or if a gate of either
/// circuit touches a qubit outside `support` (the restriction would then
/// be unsound, so this is a contract violation rather than a verdict).
pub fn try_equivalent_on(
    support: &[usize],
    spec: &Circuit,
    out: &Circuit,
    method: EquivMethod,
    budget: EquivBudget,
) -> Result<EquivReport, EquivBudgetError> {
    let block = match method {
        EquivMethod::Canonical => 0,
        EquivMethod::Miter => (spec.len().max(out.len()) / 64).clamp(1, 32),
    };
    let Some((spec_on, out_on)) = restrict(support, spec, out) else {
        return Ok(empty_support_report(block));
    };
    match method {
        EquivMethod::Canonical => try_equivalent(&spec_on, &out_on, budget),
        EquivMethod::Miter => miter_batched(&spec_on, &out_on, budget, block),
    }
}

/// The support-restricted miter with an explicit fused-block length
/// (`batch <= 1` disables batching); see [`try_equivalent_on`].
///
/// Kept for the benchmark harness's mirror of streaming verification
/// until the next benchmark change (ROADMAP item 7); the compiler calls
/// [`try_equivalent_on`].
///
/// # Panics
///
/// As [`try_equivalent_on`].
pub fn try_equivalent_miter_on_batched(
    support: &[usize],
    spec: &Circuit,
    out: &Circuit,
    budget: EquivBudget,
    batch: usize,
) -> Result<EquivReport, EquivBudgetError> {
    match restrict(support, spec, out) {
        Some((spec_on, out_on)) => miter_batched(&spec_on, &out_on, budget, batch),
        None => Ok(empty_support_report(batch.max(1))),
    }
}

/// Relabels both circuits onto the compacted register of `support`, or
/// `None` when the support is empty (both circuits are then gate-free).
/// Panics on the contract violations [`try_equivalent_on`] names.
fn restrict(support: &[usize], spec: &Circuit, out: &Circuit) -> Option<(Circuit, Circuit)> {
    assert!(
        support.windows(2).all(|w| w[0] < w[1]),
        "support must be strictly ascending"
    );
    if support.is_empty() {
        // Any gate would touch a qubit outside the empty support.
        assert!(
            spec.is_empty() && out.is_empty(),
            "gate outside the declared (empty) support"
        );
        return None;
    }
    let width = support.last().expect("non-empty") + 1;
    let mut pos = vec![usize::MAX; width];
    for (k, &q) in support.iter().enumerate() {
        pos[q] = k;
    }
    let remap = |q: usize| {
        let p = pos.get(q).copied().unwrap_or(usize::MAX);
        assert!(
            p != usize::MAX,
            "gate touches qubit {q} outside the declared support"
        );
        p
    };
    Some((
        spec.relabeled(support.len(), remap),
        out.relabeled(support.len(), remap),
    ))
}

/// The verdict on an empty support: both sides are the identity, which is
/// also the full-register verdict, and no package was built.
fn empty_support_report(miter_block: usize) -> EquivReport {
    EquivReport {
        equivalent: true,
        peak_nodes: 0,
        unique_nodes: 0,
        cache_lookups: 0,
        cache_hits: 0,
        cache_evictions: 0,
        gc_runs: 0,
        nodes_reclaimed: 0,
        miter_block,
    }
}

/// Convenience: canonical-compare equivalence as a bare boolean.
pub fn circuits_equal(a: &Circuit, b: &Circuit) -> bool {
    equivalent(a, b).equivalent
}

/// Partial equivalence for circuits that consume *clean ancillas*: checks
/// `U_a P = U_b P`, where `P` projects onto inputs whose `ancilla` lines
/// are |0>. Two circuits may differ arbitrarily on ancilla-excited inputs
/// and still pass — the relevant guarantee when a synthesis product only
/// ever runs with freshly initialized ancilla lines.
///
/// With an empty `ancilla` list this degenerates to full [`equivalent`].
pub fn equivalent_with_ancillas(a: &Circuit, b: &Circuit, ancilla: &[usize]) -> EquivReport {
    let n = a.n_qubits().max(b.n_qubits());
    assert!(
        ancilla.iter().all(|&q| q < n),
        "ancilla line outside the register"
    );
    let zero_proj = [
        [qsyn_gate::C64::ONE, qsyn_gate::C64::ZERO],
        [qsyn_gate::C64::ZERO, qsyn_gate::C64::ZERO],
    ];
    let ident = [
        [qsyn_gate::C64::ONE, qsyn_gate::C64::ZERO],
        [qsyn_gate::C64::ZERO, qsyn_gate::C64::ONE],
    ];
    with_package(n, |pkg| {
        let p = pkg.tensor(|l| {
            if ancilla.contains(&l) {
                zero_proj
            } else {
                ident
            }
        });
        // Collections during the circuit builds must preserve the projector
        // and the earlier circuit's root.
        let p_slot = pkg.protect(p);
        let ea = pkg.circuit(a);
        let ea_slot = pkg.protect(ea);
        let eb = pkg.circuit(b);
        let (p, ea) = (pkg.protected(p_slot), pkg.protected(ea_slot));
        let ap = pkg.mul(ea, p);
        let bp = pkg.mul(eb, p);
        report_from(pkg, ap == bp)
    })
}

/// Process fidelity `|Tr(U_a† U_b)| / 2^n` between two circuits, computed
/// entirely on decision diagrams (works at any register width).
///
/// Exactly `1.0` when the circuits are equal up to a global phase; strictly
/// below otherwise. This is the *graded* companion to the paper's yes/no
/// QMDD check — useful for diagnosing how wrong a near-miss is.
pub fn process_fidelity(a: &Circuit, b: &Circuit) -> f64 {
    let n = a.n_qubits().max(b.n_qubits());
    let tr = with_package(n, |pkg| {
        let ea = pkg.circuit(a);
        let slot = pkg.protect(ea);
        let eb = pkg.circuit(b);
        let ea = pkg.protected(slot);
        let adj = pkg.adjoint(ea);
        let prod = pkg.mul(adj, eb);
        pkg.trace(prod)
    });
    tr.abs() / (1u128 << n) as f64
}

/// Builds the QMDD of a circuit and returns its root together with the
/// package, for callers that want to inspect diagram structure.
pub fn build_circuit_qmdd(c: &Circuit) -> (Qmdd, Edge) {
    let mut pkg = Qmdd::new(c.n_qubits());
    let e = pkg.circuit(c);
    (pkg, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::Gate;

    fn swap_native() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::swap(0, 2));
        c
    }

    fn swap_cnots() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 2));
        c.push(Gate::cx(2, 0));
        c.push(Gate::cx(0, 2));
        c
    }

    #[test]
    fn canonical_check_accepts_equal() {
        assert!(equivalent(&swap_native(), &swap_cnots()).equivalent);
    }

    #[test]
    fn canonical_check_rejects_different() {
        let mut other = swap_cnots();
        other.push(Gate::t(1));
        assert!(!equivalent(&swap_native(), &other).equivalent);
    }

    #[test]
    fn miter_accepts_equal() {
        assert!(equivalent_miter(&swap_native(), &swap_cnots()).equivalent);
    }

    #[test]
    fn miter_rejects_different() {
        let mut other = swap_cnots();
        other.push(Gate::x(1));
        assert!(!equivalent_miter(&swap_native(), &other).equivalent);
    }

    #[test]
    fn global_phase_differences_are_rejected() {
        // Z X = -X Z: same operation up to a global phase of -1; the
        // paper's check demands exact equality, so this must fail.
        let mut zx = Circuit::new(1);
        zx.push(Gate::x(0));
        zx.push(Gate::single(qsyn_gate::SingleOp::Z, 0));
        let mut xz = Circuit::new(1);
        xz.push(Gate::single(qsyn_gate::SingleOp::Z, 0));
        xz.push(Gate::x(0));
        assert!(!circuits_equal(&zx, &xz));
        assert!(!equivalent_miter(&zx, &xz).equivalent);
    }

    #[test]
    fn width_padding_treats_missing_lines_as_identity() {
        let narrow = {
            let mut c = Circuit::new(1);
            c.push(Gate::h(0));
            c.push(Gate::h(0));
            c
        };
        let wide = Circuit::new(4);
        assert!(circuits_equal(&narrow, &wide));
    }

    #[test]
    fn empty_circuits_are_equivalent() {
        assert!(circuits_equal(&Circuit::new(2), &Circuit::new(2)));
        assert!(equivalent_miter(&Circuit::new(2), &Circuit::new(2)).equivalent);
    }

    #[test]
    fn miter_handles_very_uneven_lengths() {
        // One gate vs. its 7-gate expansion (H-conjugated reversed CNOT
        // SWAP construction, paper Fig. 3 + Fig. 6).
        let mut a = Circuit::new(2);
        a.push(Gate::swap(0, 1));
        let mut b = Circuit::new(2);
        b.push(Gate::cx(0, 1));
        b.push(Gate::h(0));
        b.push(Gate::h(1));
        b.push(Gate::cx(0, 1));
        b.push(Gate::h(0));
        b.push(Gate::h(1));
        b.push(Gate::cx(0, 1));
        assert!(equivalent_miter(&a, &b).equivalent);
        assert!(equivalent(&a, &b).equivalent);
    }

    #[test]
    fn report_exposes_peak_nodes() {
        let r = equivalent(&swap_native(), &swap_cnots());
        assert!(r.peak_nodes > 0);
    }

    #[test]
    fn report_exposes_package_counters() {
        let r = equivalent(&swap_native(), &swap_cnots());
        assert!(r.unique_nodes > 0);
        assert!(r.cache_lookups > 0, "circuit building must probe the cache");
        assert!(r.cache_hits <= r.cache_lookups);
        let rate = r.cache_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "{rate}");
    }

    #[test]
    fn process_fidelity_grades_near_misses() {
        let a = swap_native();
        let b = swap_cnots();
        assert!((process_fidelity(&a, &b) - 1.0).abs() < 1e-9, "equal -> 1");
        // Global phase: Z X vs X Z differ by -1; fidelity still 1.
        let mut zx = Circuit::new(1);
        zx.push(Gate::x(0));
        zx.push(Gate::single(qsyn_gate::SingleOp::Z, 0));
        let mut xz = Circuit::new(1);
        xz.push(Gate::single(qsyn_gate::SingleOp::Z, 0));
        xz.push(Gate::x(0));
        assert!((process_fidelity(&zx, &xz) - 1.0).abs() < 1e-9);
        // A sabotaged circuit scores below 1 but above 0.
        let mut sab = swap_cnots();
        sab.push(Gate::t(0));
        let f = process_fidelity(&a, &sab);
        assert!(f < 0.999, "must detect the extra T: {f}");
        assert!(f > 0.5, "a single T is a small perturbation: {f}");
        // Orthogonal-ish: identity vs X on one line.
        let id1 = Circuit::new(1);
        let mut x1 = Circuit::new(1);
        x1.push(Gate::x(0));
        assert!(process_fidelity(&id1, &x1) < 1e-9);
    }

    #[test]
    fn process_fidelity_works_on_wide_registers() {
        // 40-qubit GHZ preparation vs itself with one extra T: dense trace
        // is unthinkable, the DD trace is instant.
        let mut ghz = Circuit::new(40);
        ghz.push(Gate::h(0));
        for q in 1..40 {
            ghz.push(Gate::cx(q - 1, q));
        }
        assert!((process_fidelity(&ghz, &ghz) - 1.0).abs() < 1e-9);
        let mut other = ghz.clone();
        other.push(Gate::t(20));
        let f = process_fidelity(&ghz, &other);
        assert!(f < 1.0 - 1e-6 && f > 0.9, "{f}");
    }

    #[test]
    fn ancilla_aware_equivalence_ignores_excited_ancillas() {
        // Two ways to compute AND into line 2 given a *clean* line 2:
        // a Toffoli, versus a Toffoli followed by junk that only acts
        // when line 2 started |1>.
        let mut clean = Circuit::new(3);
        clean.push(Gate::toffoli(0, 1, 2));
        let mut messy = Circuit::new(3);
        messy.push(Gate::toffoli(0, 1, 2));
        // CZ(2 -> 0) after a guaranteed-|0>-start line only fires on
        // inputs outside the projected subspace... not quite: line 2 may
        // be |1> after the Toffoli. Use a gate conditioned on the ancilla
        // *input* instead: apply before the Toffoli.
        messy.gates_mut().insert(0, Gate::cz(2, 0));
        assert!(!circuits_equal(&clean, &messy), "fully different");
        assert!(
            equivalent_with_ancillas(&clean, &messy, &[2]).equivalent,
            "equal on the ancilla-clean subspace"
        );
        // But differing on a non-ancilla line still fails.
        let mut wrong = Circuit::new(3);
        wrong.push(Gate::toffoli(0, 1, 2));
        wrong.push(Gate::x(0));
        assert!(!equivalent_with_ancillas(&clean, &wrong, &[2]).equivalent);
    }

    #[test]
    fn ancilla_aware_with_no_ancillas_is_full_equivalence() {
        let a = swap_native();
        let b = swap_cnots();
        assert!(equivalent_with_ancillas(&a, &b, &[]).equivalent);
        let mut c = swap_cnots();
        c.push(Gate::t(0));
        assert!(!equivalent_with_ancillas(&a, &c, &[]).equivalent);
    }

    #[test]
    fn verdicts_unchanged_across_forced_sweeps() {
        // GC stress: the same pairs, checked with collections forced on
        // essentially every step, must produce identical verdicts, and the
        // forced runs must actually have collected.
        let equal = (swap_native(), swap_cnots());
        let mut tweaked = swap_cnots();
        tweaked.push(Gate::t(1));
        let unequal = (swap_native(), tweaked);
        for (a, b) in [&equal, &unequal] {
            let base = equivalent(a, b);
            let forced = equivalent_with_gc_threshold(a, b, Some(4));
            assert_eq!(base.equivalent, forced.equivalent);
            assert!(forced.gc_runs > 0, "tiny watermark must sweep");
            let base_m = equivalent_miter(a, b);
            let forced_m = try_equivalent_miter(a, b, EquivBudget::with_gc_threshold(4)).unwrap();
            assert_eq!(base_m.equivalent, forced_m.equivalent);
            assert!(forced_m.gc_runs > 0, "tiny watermark must sweep");
        }
    }

    #[test]
    fn forced_sweeps_reduce_peak_nodes_on_deep_products() {
        // A deep Clifford+T product leaves plenty of dead intermediates;
        // an aggressive watermark must lower the observed peak while
        // preserving the verdict.
        let mut c = Circuit::new(5);
        let mut s = 3u64;
        for _ in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match s % 4 {
                0 => c.push(Gate::h((s % 5) as usize)),
                1 => c.push(Gate::t((s % 5) as usize)),
                2 => c.push(Gate::tdg((s % 5) as usize)),
                _ => {
                    let a = (s % 5) as usize;
                    let b = ((s >> 8) % 5) as usize;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
            }
        }
        let base = equivalent(&c, &c.clone());
        let forced = equivalent_with_gc_threshold(&c, &c.clone(), Some(64));
        assert!(base.equivalent && forced.equivalent);
        assert!(forced.gc_runs > 0);
        assert!(forced.nodes_reclaimed > 0);
        assert!(
            forced.peak_nodes <= base.peak_nodes,
            "sweeping must not raise the peak: {} vs {}",
            forced.peak_nodes,
            base.peak_nodes
        );
    }

    fn dense_clifford_t(n: usize, gates: usize, mut s: u64) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match s % 4 {
                0 => c.push(Gate::h((s % n as u64) as usize)),
                1 => c.push(Gate::t((s % n as u64) as usize)),
                2 => c.push(Gate::tdg((s % n as u64) as usize)),
                _ => {
                    let a = (s % n as u64) as usize;
                    let b = ((s >> 8) % n as u64) as usize;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
            }
        }
        c
    }

    #[test]
    fn tiny_node_budget_aborts_cleanly() {
        let c = dense_clifford_t(6, 200, 17);
        let err = try_equivalent(&c, &c.clone(), EquivBudget::with_node_budget(16))
            .expect_err("16 nodes cannot host a dense 6-qubit check");
        assert_eq!(err.limit, 16);
        assert!(err.used > 16, "must report the observed overshoot");
        let err_m = try_equivalent_miter(&c, &c.clone(), EquivBudget::with_node_budget(16))
            .expect_err("miter under the same budget must abort too");
        assert_eq!(err_m.limit, 16);
        // A check that got past its first products reports the lookups it
        // made before the abort.
        let err = try_equivalent(&c, &c.clone(), EquivBudget::with_node_budget(256))
            .expect_err("256 nodes cannot host a dense 6-qubit check");
        assert!(err.lookups > 0, "{err:?}");
    }

    #[test]
    fn generous_node_budget_matches_unbudgeted_verdicts() {
        let equal = (swap_native(), swap_cnots());
        let mut tweaked = swap_cnots();
        tweaked.push(Gate::t(1));
        let unequal = (swap_native(), tweaked);
        let budget = EquivBudget {
            gc_threshold: Some(64),
            node_budget: Some(1 << 20),
        };
        for (a, b) in [&equal, &unequal] {
            let base = equivalent(a, b);
            let bounded = try_equivalent(a, b, budget).expect("generous budget");
            assert_eq!(base.equivalent, bounded.equivalent);
            let base_m = equivalent_miter(a, b);
            let bounded_m = try_equivalent_miter(a, b, budget).expect("generous budget");
            assert_eq!(base_m.equivalent, bounded_m.equivalent);
        }
    }

    #[test]
    fn budget_error_display_names_limits() {
        let e = EquivBudgetError {
            limit: 8,
            used: 11,
            lookups: 40,
        };
        let text = e.to_string();
        assert!(text.contains("8") && text.contains("11"), "{text}");
    }

    #[test]
    fn build_circuit_qmdd_exposes_structure() {
        let (pkg, e) = build_circuit_qmdd(&swap_native());
        assert!(pkg.node_count(e) >= 3);
    }

    #[test]
    fn batched_miter_matches_unbatched_verdicts() {
        let equal = (dense_clifford_t(5, 120, 7), dense_clifford_t(5, 120, 7));
        let mut tweaked = dense_clifford_t(5, 120, 7);
        tweaked.push(Gate::t(2));
        let unequal = (dense_clifford_t(5, 120, 7), tweaked);
        for (a, b) in [&equal, &unequal] {
            let base = try_equivalent_miter(a, b, EquivBudget::default()).unwrap();
            assert_eq!(base.miter_block, 1);
            for batch in [1, 2, 8, 64] {
                let fused = miter_batched(a, b, EquivBudget::default(), batch).unwrap();
                assert_eq!(base.equivalent, fused.equivalent, "batch {batch}");
                assert_eq!(fused.miter_block, batch);
            }
        }
    }

    #[test]
    fn miter_support_unions_both_circuits() {
        let mut a = Circuit::new(16);
        a.push(Gate::cx(2, 11));
        let mut b = Circuit::new(16);
        b.push(Gate::swap(5, 11));
        assert_eq!(miter_support(&a, &b), vec![2, 5, 11]);
        assert!(miter_support(&Circuit::new(16), &Circuit::new(16)).is_empty());
    }

    const METHODS: [EquivMethod; 2] = [EquivMethod::Canonical, EquivMethod::Miter];

    #[test]
    fn restricted_check_matches_full_on_scattered_support() {
        // The same window on qubits {2, 5, 11} of a 16-wide register,
        // checked full-register and support-restricted: identical verdicts
        // on the equal pair and on a sabotaged pair, by either method,
        // with a strictly narrower package doing the restricted work.
        let mut spec = Circuit::new(16);
        spec.push(Gate::h(2));
        spec.push(Gate::cx(2, 11));
        spec.push(Gate::t(5));
        spec.push(Gate::cx(5, 11));
        let out = spec.clone();
        let support = miter_support(&spec, &out);
        assert_eq!(support, vec![2, 5, 11]);
        let mut bad = out.clone();
        bad.push(Gate::t(11));
        let support_bad = miter_support(&spec, &bad);
        let budget = EquivBudget::default();
        let full = try_equivalent_miter(&spec, &out, budget).unwrap();
        let full_bad = try_equivalent(&spec, &bad, budget).unwrap();
        assert!(full.equivalent && !full_bad.equivalent);
        for method in METHODS {
            let restricted = try_equivalent_on(&support, &spec, &out, method, budget).unwrap();
            assert!(restricted.equivalent, "{method:?}");
            assert!(restricted.peak_nodes <= full.peak_nodes, "{method:?}");
            let restricted_bad =
                try_equivalent_on(&support_bad, &spec, &bad, method, budget).unwrap();
            assert!(!restricted_bad.equivalent, "{method:?}");
        }
    }

    #[test]
    fn restoration_swap_windows_stay_equivalent_when_restricted() {
        // A routed window: SWAPs move a logical line out and restore it,
        // with the middle relabeled accordingly — exactly the shape
        // `compile_stream` verifies. The support includes the SWAP-only
        // lines even though the spec never touches them.
        let mut spec = Circuit::new(8);
        spec.push(Gate::h(1));
        spec.push(Gate::cx(1, 6));
        let mut out = Circuit::new(8);
        out.push(Gate::swap(1, 3));
        out.push(Gate::h(3));
        out.push(Gate::cx(3, 6));
        out.push(Gate::swap(1, 3));
        let support = miter_support(&spec, &out);
        assert_eq!(support, vec![1, 3, 6]);
        for method in METHODS {
            let restricted =
                try_equivalent_on(&support, &spec, &out, method, EquivBudget::default()).unwrap();
            assert!(restricted.equivalent, "{method:?}");
        }
    }

    #[test]
    fn miter_block_follows_the_longer_circuit() {
        let short = dense_clifford_t(3, 40, 5);
        let support = miter_support(&short, &short);
        let check = |spec: &Circuit, out: &Circuit, method| {
            try_equivalent_on(&support, spec, out, method, EquivBudget::default()).unwrap()
        };
        assert_eq!(check(&short, &short, EquivMethod::Miter).miter_block, 1);
        assert_eq!(check(&short, &short, EquivMethod::Canonical).miter_block, 0);
        let mut long = short.clone();
        while long.len() < 64 * 5 {
            long.push(Gate::h(0));
            long.push(Gate::h(0));
        }
        let r = check(&short, &long, EquivMethod::Miter);
        assert!(r.equivalent);
        assert_eq!(r.miter_block, 5, "{} gates", long.len());
        while long.len() < 64 * 40 {
            long.push(Gate::h(1));
            long.push(Gate::h(1));
        }
        assert_eq!(check(&long, &short, EquivMethod::Miter).miter_block, 32);
    }

    #[test]
    fn empty_support_identity_window_is_trivially_equivalent() {
        for method in METHODS {
            let empty = Circuit::new(32);
            let r = try_equivalent_on(&[], &empty, &empty, method, EquivBudget::default()).unwrap();
            assert!(r.equivalent);
            assert_eq!(r.peak_nodes, 0);
        }
    }

    #[test]
    #[should_panic(expected = "outside the declared support")]
    fn restricted_check_rejects_gates_outside_support() {
        let mut c = Circuit::new(4);
        c.push(Gate::h(3));
        let _ = try_equivalent_on(
            &[0, 1],
            &c,
            &c,
            EquivMethod::Canonical,
            EquivBudget::default(),
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn restricted_check_rejects_unsorted_support() {
        let c = Circuit::new(4);
        let _ = try_equivalent_on(&[2, 1], &c, &c, EquivMethod::Miter, EquivBudget::default());
    }

    /// Whether the thread's slot holds a spare package, leaving it there.
    fn spare_held() -> bool {
        SPARE_PACKAGE.with(|slot| {
            let pkg = slot.take();
            let held = pkg.is_some();
            slot.set(pkg);
            held
        })
    }

    /// The full result of one check, comparable across threads.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Check(Result<EquivReport, EquivBudgetError>),
        Fidelity(u64),
    }

    /// A named check, run on whichever thread calls it.
    type NamedCheck = (&'static str, fn() -> Outcome);

    /// A mixed sequence of checks, each leaving the package in a different
    /// state: grown compute tables, a latched budget, a lowered GC
    /// watermark, protected roots, a wider or narrower register.
    fn mixed_checks() -> [NamedCheck; 7] {
        [
            ("wide miter", || {
                let c = dense_clifford_t(16, 800, 3);
                let r = try_equivalent_miter(&c, &c, EquivBudget::default()).unwrap();
                assert!(r.cache_evictions > 0, "the wide miter must evict");
                Outcome::Check(Ok(r))
            }),
            ("narrow canonical", || {
                Outcome::Check(Ok(equivalent(&swap_native(), &swap_cnots())))
            }),
            ("budget exhausted", || {
                let c = dense_clifford_t(6, 200, 17);
                let r = try_equivalent(&c, &c, EquivBudget::with_node_budget(16));
                assert!(r.is_err(), "16 nodes cannot host this check");
                Outcome::Check(r)
            }),
            ("forced gc", || {
                let c = dense_clifford_t(8, 200, 3);
                let r = equivalent_with_gc_threshold(&c, &c, Some(512));
                assert!(r.gc_runs > 0 && r.cache_evictions > 256, "{r:?}");
                Outcome::Check(Ok(r))
            }),
            ("process fidelity", || {
                let mut sab = swap_cnots();
                sab.push(Gate::t(0));
                Outcome::Fidelity(process_fidelity(&swap_native(), &sab).to_bits())
            }),
            ("ancillas", || {
                let mut clean = Circuit::new(3);
                clean.push(Gate::toffoli(0, 1, 2));
                let mut messy = clean.clone();
                messy.gates_mut().insert(0, Gate::cz(2, 0));
                Outcome::Check(Ok(equivalent_with_ancillas(&clean, &messy, &[2])))
            }),
            ("restricted miter", || {
                let spec = dense_clifford_t(6, 120, 9).relabeled(40, |q| 3 + 6 * q);
                let mut out = spec.clone();
                out.push(Gate::t(33));
                let support = miter_support(&spec, &out);
                let budget = EquivBudget::default();
                Outcome::Check(try_equivalent_on(
                    &support,
                    &spec,
                    &out,
                    EquivMethod::Miter,
                    budget,
                ))
            }),
        ]
    }

    #[test]
    fn reused_package_reports_match_new_packages() {
        // Every check run on this thread's reused package reports exactly
        // what the same check reports on a new thread, whose slot starts
        // empty and so builds a new package: verdicts, sizes, cache and
        // collector counters, budget errors and fidelity bits.
        for round in 0..2 {
            for (name, check) in mixed_checks() {
                let fresh = std::thread::spawn(check)
                    .join()
                    .expect("check on a new thread");
                let reused = check();
                assert_eq!(reused, fresh, "{name}, round {round}");
                assert!(
                    spare_held(),
                    "{name} must keep its package for the next check"
                );
            }
        }
    }

    #[test]
    fn oversized_check_leaves_the_slot_empty() {
        let _ = equivalent(&swap_native(), &swap_cnots());
        assert!(spare_held());
        let big = dense_clifford_t(14, 240, 3);
        let r = equivalent(&big, &big);
        assert!(r.peak_nodes > MAX_RETAINED_NODES, "{}", r.peak_nodes);
        assert!(!spare_held(), "a package past the bound must be dropped");
        // The next check builds a new package and keeps it.
        assert!(equivalent(&swap_native(), &swap_cnots()).equivalent);
        assert!(spare_held());
    }

    #[test]
    fn panicking_check_drops_its_package_and_nested_checks_get_their_own() {
        let _ = equivalent(&swap_native(), &swap_cnots());
        assert!(spare_held());
        let caught = std::panic::catch_unwind(|| with_package(2, |_| panic!("check failed")));
        assert!(caught.is_err());
        assert!(
            !spare_held(),
            "the panicking check's package must be dropped"
        );
        let nested = with_package(3, |outer| {
            assert!(!spare_held(), "the outer check holds the package");
            let inner = equivalent(&swap_native(), &swap_cnots());
            assert_eq!(
                outer.n_qubits(),
                3,
                "the inner check left the outer package alone"
            );
            inner
        });
        assert_eq!(nested, equivalent(&swap_native(), &swap_cnots()));
    }

    #[test]
    fn restricted_check_honors_node_budgets() {
        let c = dense_clifford_t(6, 200, 17);
        let support = miter_support(&c, &c);
        for method in METHODS {
            let err =
                try_equivalent_on(&support, &c, &c, method, EquivBudget::with_node_budget(16))
                    .expect_err("16 nodes cannot host a dense 6-qubit check");
            assert_eq!(err.limit, 16);
        }
    }
}
