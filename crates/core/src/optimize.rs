//! Local cost-function optimization (paper Section 4, steps 5-6).
//!
//! Two optimization families run recursively until the technology cost
//! function stops improving:
//!
//! * removal of gate partitions equal to the identity — adjacent (possibly
//!   commutation-separated) inverse pairs and whole phase-gate runs that
//!   sum to a multiple of 2pi;
//! * rewrites by logically identical cheaper circuit identities — exact
//!   one-qubit fusions (`T T = S`, ...), minimal re-emission of diagonal
//!   phase runs, and the `H (x) H` CNOT-reversal contraction.
//!
//! Every rewrite is *exact* (no global-phase slack) so the QMDD
//! verification of the full pipeline keeps passing.
//!
//! [`optimize_bounded`] is the only entry point. It builds one tombstone
//! vector with per-qubit occurrence lists and runs every pass of every
//! round on it, so a pass costs `O(gates x local-window)` instead of
//! quadratic scans over unrelated lines — the Table 8 benchmarks run these
//! passes over tens of thousands of gates.

use qsyn_arch::{CostModel, Device};
use qsyn_circuit::Circuit;
use qsyn_gate::{fuse, Fusion, Gate, Matrix, SingleOp, SINGLE_OPS};

/// Whether two gates commute, by conservative exact rules. Only the gate
/// vocabulary that survives technology mapping (one-qubit gates, CNOT, CZ)
/// gets precise treatment; anything else is assumed non-commuting when the
/// supports overlap.
fn commutes(a: &Gate, b: &Gate) -> bool {
    if !a.overlaps(b) {
        return true;
    }
    match (a, b) {
        (Gate::Single { op: oa, qubit: qa }, Gate::Single { op: ob, qubit: qb }) => {
            qa != qb || oa == ob || (oa.is_diagonal() && ob.is_diagonal())
        }
        (Gate::Single { op, qubit }, Gate::Cx { control, target })
        | (Gate::Cx { control, target }, Gate::Single { op, qubit }) => {
            if qubit == control {
                op.is_diagonal()
            } else if qubit == target {
                *op == SingleOp::X
            } else {
                true
            }
        }
        (Gate::Single { op, .. }, Gate::Cz { .. }) | (Gate::Cz { .. }, Gate::Single { op, .. }) => {
            op.is_diagonal()
        }
        (
            Gate::Cx {
                control: c1,
                target: t1,
            },
            Gate::Cx {
                control: c2,
                target: t2,
            },
        ) => t1 != c2 && c1 != t2,
        (
            Gate::Cx { target, .. },
            Gate::Cz {
                control,
                target: t2,
            },
        )
        | (
            Gate::Cz {
                control,
                target: t2,
            },
            Gate::Cx { target, .. },
        ) => target != control && target != t2,
        (Gate::Cz { .. }, Gate::Cz { .. }) => true,
        _ => false,
    }
}

/// Phase-exact lookup key of a 2x2 matrix: every entry rounded to 1e-9.
fn matrix_key(m: &Matrix) -> [i64; 8] {
    let mut key = [0i64; 8];
    for (pos, (r, c)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
        let v = m[(r, c)];
        key[2 * pos] = (v.re * 1e9).round() as i64;
        key[2 * pos + 1] = (v.im * 1e9).round() as i64;
    }
    key
}

/// Exact lookup table: matrices of all library words of length <= 2,
/// mapped to their shortest word. Phase-exact (global phase included), so
/// replacements never perturb QMDD verification.
fn short_word_table() -> &'static qsyn_qmdd::FxHashMap<[i64; 8], Vec<SingleOp>> {
    use std::sync::OnceLock;
    static TABLE: OnceLock<qsyn_qmdd::FxHashMap<[i64; 8], Vec<SingleOp>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = qsyn_qmdd::FxHashMap::default();
        table.insert(matrix_key(&Matrix::identity(2)), Vec::new());
        for a in SINGLE_OPS {
            table
                .entry(matrix_key(&a.matrix()))
                .or_insert_with(|| vec![a]);
        }
        for a in SINGLE_OPS {
            for b in SINGLE_OPS {
                let prod = b.matrix().mul(&a.matrix());
                table.entry(matrix_key(&prod)).or_insert_with(|| vec![a, b]);
            }
        }
        table
    })
}

/// Tombstone gate buffer with per-qubit occurrence lists for fast
/// neighbor queries along a line. [`optimize_bounded`] builds one per call
/// and runs every pass of every round on it.
///
/// Invariant: every rewrite either tombstones slots or writes back into a
/// slot a gate on the same lines as the gate it replaces. So the
/// occurrence lists stay valid without a rebuild, a pass over the
/// tombstoned slots sees the same live gates in the same order as a pass
/// over the compacted gate list, and each live slot's index is the index
/// of the input gate it came from.
struct Buffer {
    slots: Vec<Option<Gate>>,
    occ: Vec<Vec<usize>>, // per qubit: slot indices touching it, ascending
}

impl Buffer {
    fn new(gates: &[Gate], n_qubits: usize) -> Self {
        let mut occ = vec![Vec::new(); n_qubits];
        for (i, g) in gates.iter().enumerate() {
            for q in g.qubits() {
                occ[q].push(i);
            }
        }
        let slots = gates.iter().cloned().map(Some).collect();
        Buffer { slots, occ }
    }

    /// The live gates, in order, and each one's slot index: the index of
    /// the input gate it came from.
    fn live(&self) -> (Vec<Gate>, Vec<u32>) {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.clone().map(|g| (g, i as u32)))
            .unzip()
    }

    /// Next live slot after `i` touching `q`.
    fn next_on(&self, i: usize, q: usize) -> Option<usize> {
        let list = &self.occ[q];
        let start = list.partition_point(|&k| k <= i);
        list[start..]
            .iter()
            .copied()
            .find(|&k| self.slots[k].is_some())
    }

    /// Previous live slot before `i` touching `q`.
    fn prev_on(&self, i: usize, q: usize) -> Option<usize> {
        let list = &self.occ[q];
        let end = list.partition_point(|&k| k < i);
        list[..end]
            .iter()
            .rev()
            .copied()
            .find(|&k| self.slots[k].is_some())
    }

    /// Next live slot after `i` sharing any line with `qubits`.
    fn next_overlapping(&self, i: usize, qubits: &[usize]) -> Option<usize> {
        qubits.iter().filter_map(|&q| self.next_on(i, q)).min()
    }

    /// One improvement round: each enabled family once, in a fixed order.
    /// Returns whether anything changed.
    fn round(&mut self, config: OptimizeConfig, device: Option<&Device>) -> bool {
        let mut changed = false;
        if config.cancel_identities {
            changed |= self.cancel_inverse_pairs();
        }
        if config.rewrite_identities {
            changed |= self.fuse_single_runs();
            changed |= self.fold_diagonal_runs();
            changed |= self.canonicalize_single_triples();
            changed |= self.contract_hh_cx_hh(device);
        }
        changed
    }

    /// Removes inverse gate pairs separated only by gates that commute with
    /// the first element. Returns whether anything changed.
    fn cancel_inverse_pairs(&mut self) -> bool {
        let mut changed = false;
        for i in 0..self.slots.len() {
            let Some(gi) = self.slots[i].clone() else {
                continue;
            };
            let inv = gi.inverse();
            let qubits = gi.qubits();
            let mut pos = i;
            while let Some(j) = self.next_overlapping(pos, &qubits) {
                let gj = self.slots[j].as_ref().expect("live slot");
                if *gj == inv {
                    self.slots[i] = None;
                    self.slots[j] = None;
                    changed = true;
                    break;
                }
                if !commutes(&gi, gj) {
                    break;
                }
                pos = j;
            }
        }
        changed
    }

    /// Fuses neighboring one-qubit gates on the same line through the exact
    /// fusion table (`T T -> S`, `H H -> id`, ...). Returns whether
    /// anything changed.
    fn fuse_single_runs(&mut self) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < self.slots.len() {
            let Some(Gate::Single { op, qubit }) = self.slots[i].clone() else {
                i += 1;
                continue;
            };
            if let Some(j) = self.next_on(i, qubit) {
                if let Some(Gate::Single { op: op2, .. }) = self.slots[j].clone() {
                    match fuse(op, op2) {
                        Fusion::Identity => {
                            self.slots[i] = None;
                            self.slots[j] = None;
                            changed = true;
                            i += 1;
                            continue;
                        }
                        Fusion::Single(c) => {
                            self.slots[i] = Some(Gate::single(c, qubit));
                            self.slots[j] = None;
                            changed = true;
                            continue; // retry fusing the new gate at i
                        }
                        Fusion::None => {}
                    }
                }
            }
            i += 1;
        }
        changed
    }

    /// Folds runs of diagonal phase gates (`T, S, Z, S†, T†`) on one line
    /// into the minimal equivalent sequence, hopping over CNOT controls and
    /// CZs (which commute with diagonals). Returns whether anything changed.
    fn fold_diagonal_runs(&mut self) -> bool {
        let mut changed = false;
        for i in 0..self.slots.len() {
            let Some(Gate::Single { op, qubit }) = self.slots[i].clone() else {
                continue;
            };
            let Some(first_steps) = op.phase_steps() else {
                continue;
            };
            // Collect the maximal diagonal run on this line.
            let mut members = vec![i];
            let mut steps = first_steps as u32;
            let mut pos = i;
            while let Some(j) = self.next_on(pos, qubit) {
                match self.slots[j].as_ref().expect("live slot") {
                    Gate::Single { op: o2, .. } => match o2.phase_steps() {
                        Some(k) => {
                            members.push(j);
                            steps += k as u32;
                        }
                        None => break,
                    },
                    Gate::Cx { control, .. } if *control == qubit => {}
                    Gate::Cz { .. } => {}
                    _ => break,
                }
                pos = j;
            }
            let replacement = SingleOp::from_phase_steps((steps % 8) as u8);
            if replacement.len() < members.len() {
                // Re-emit the minimal form into the leading member slots;
                // tombstone the rest.
                for (k, &slot) in members.iter().enumerate() {
                    self.slots[slot] = replacement.get(k).map(|&rop| Gate::single(rop, qubit));
                }
                changed = true;
            }
        }
        changed
    }

    /// Rewrites adjacent triples of one-qubit gates on a line into exactly
    /// equal words of length <= 2 (e.g. `H Z H -> X`, `S X S† -> Y`).
    /// Returns whether anything changed.
    fn canonicalize_single_triples(&mut self) -> bool {
        let mut changed = false;
        for i in 0..self.slots.len() {
            let Some(Gate::Single { op: o1, qubit }) = self.slots[i].clone() else {
                continue;
            };
            let Some(j) = self.next_on(i, qubit) else {
                continue;
            };
            let Some(Gate::Single { op: o2, .. }) = self.slots[j].clone() else {
                continue;
            };
            let Some(k) = self.next_on(j, qubit) else {
                continue;
            };
            let Some(Gate::Single { op: o3, .. }) = self.slots[k].clone() else {
                continue;
            };
            let prod = o3.matrix().mul(&o2.matrix().mul(&o1.matrix()));
            if let Some(word) = short_word_table().get(&matrix_key(&prod)) {
                if word.len() < 3 {
                    for (pos, slot) in [i, j, k].into_iter().enumerate() {
                        self.slots[slot] = word.get(pos).map(|&op| Gate::single(op, qubit));
                    }
                    changed = true;
                }
            }
        }
        changed
    }

    /// Contracts `H(a) H(b) CX(a,b) H(a) H(b)` into the reversed `CX(b,a)`
    /// (paper Fig. 6 read right-to-left), when the reversed orientation is
    /// legal on the device. Returns whether anything changed.
    fn contract_hh_cx_hh(&mut self, device: Option<&Device>) -> bool {
        let mut changed = false;
        for i in 0..self.slots.len() {
            let Some(Gate::Cx { control, target }) = self.slots[i].clone() else {
                continue;
            };
            if device.is_some_and(|d| !d.has_coupling(target, control)) {
                continue;
            }
            let h_at =
                |k: Option<usize>, q: usize| k.filter(|&k| self.slots[k] == Some(Gate::h(q)));
            let (Some(pa), Some(pb), Some(na), Some(nb)) = (
                h_at(self.prev_on(i, control), control),
                h_at(self.prev_on(i, target), target),
                h_at(self.next_on(i, control), control),
                h_at(self.next_on(i, target), target),
            ) else {
                continue;
            };
            self.slots[i] = Some(Gate::cx(target, control));
            for k in [pa, pb, na, nb] {
                self.slots[k] = None;
            }
            changed = true;
        }
        changed
    }
}

/// Which optimization families to run (used by the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeConfig {
    /// Identity-partition removal (inverse-pair cancellation).
    pub cancel_identities: bool,
    /// Circuit-identity rewrites (fusion, phase folding, HH-CX-HH).
    pub rewrite_identities: bool,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            cancel_identities: true,
            rewrite_identities: true,
        }
    }
}

/// What the optimizer did (the trace layer reports these), and where
/// each output gate came from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptimizeCounters {
    /// Improvement rounds that were *kept* (each ran every enabled family
    /// once and lowered the cost).
    pub rounds: usize,
    /// Gates removed between the input and the accepted result.
    pub gates_removed: usize,
    /// Whether a round cap stopped the loop while it was still improving
    /// (graceful early stop under a [`crate::CompileBudget`]).
    pub capped: bool,
    /// Provenance: per output gate, the index of the input gate it was
    /// rewritten from (its buffer slot), taken from the round that was
    /// kept. Strictly increasing; `0..len` when no round was kept.
    pub sources: Vec<u32>,
}

/// Runs the local optimizers recursively until the cost function stops
/// improving (paper steps 5-6), and reports [`OptimizeCounters`]. `device`
/// gates the direction-sensitive rewrites; pass `None` for
/// technology-independent optimization.
///
/// `max_rounds` optionally caps the improvement rounds. The cap is a
/// *graceful* bound: hitting it keeps the best circuit found so far and
/// sets [`OptimizeCounters::capped`] rather than erroring — optimization is
/// best-effort, so a truncated result is still valid.
pub fn optimize_bounded(
    circuit: &Circuit,
    device: Option<&Device>,
    cost: &dyn CostModel,
    config: OptimizeConfig,
    max_rounds: Option<usize>,
) -> (Circuit, OptimizeCounters) {
    let n = circuit.n_qubits();
    let mut buf = Buffer::new(circuit.gates(), n);
    let mut best = circuit.clone();
    let mut best_cost = cost.circuit_cost(&best);
    let mut counters = OptimizeCounters {
        sources: (0..circuit.len() as u32).collect(),
        ..OptimizeCounters::default()
    };
    loop {
        if max_rounds.is_some_and(|cap| counters.rounds >= cap) {
            counters.capped = true;
            break;
        }
        if !buf.round(config, device) {
            break;
        }
        let (gates, sources) = buf.live();
        let mut cand = Circuit::from_gates(n, gates);
        if let Some(name) = best.name() {
            cand.set_name(name);
        }
        let c = cost.circuit_cost(&cand);
        if c < best_cost {
            best = cand;
            best_cost = c;
            counters.rounds += 1;
            counters.sources = sources;
        } else {
            break;
        }
    }
    counters.gates_removed = circuit.len().saturating_sub(best.len());
    (best, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmdd_equal;
    use qsyn_arch::TransmonCost;

    fn opt(c: &Circuit) -> Circuit {
        let cost = TransmonCost::default();
        optimize_bounded(c, None, &cost, OptimizeConfig::default(), None).0
    }

    #[test]
    fn commutation_rules() {
        assert!(commutes(&Gate::t(0), &Gate::cx(0, 1))); // diag on control
        assert!(!commutes(&Gate::t(1), &Gate::cx(0, 1))); // diag on target
        assert!(commutes(&Gate::x(1), &Gate::cx(0, 1))); // X on target
        assert!(!commutes(&Gate::x(0), &Gate::cx(0, 1))); // X on control
        assert!(commutes(&Gate::cx(0, 1), &Gate::cx(0, 2))); // shared control
        assert!(commutes(&Gate::cx(0, 2), &Gate::cx(1, 2))); // shared target
        assert!(!commutes(&Gate::cx(0, 1), &Gate::cx(1, 2))); // chained
        assert!(commutes(&Gate::cz(0, 1), &Gate::cz(1, 2)));
        assert!(commutes(&Gate::h(0), &Gate::t(1))); // disjoint
        assert!(!commutes(&Gate::h(0), &Gate::t(0)));
    }

    #[test]
    fn commutation_rules_are_sound() {
        // Every pair the table declares commuting must commute as matrices.
        let gates = [
            Gate::t(0),
            Gate::x(0),
            Gate::h(0),
            Gate::t(1),
            Gate::x(1),
            Gate::single(SingleOp::Z, 1),
            Gate::cx(0, 1),
            Gate::cx(1, 0),
            Gate::cx(0, 2),
            Gate::cx(2, 1),
            Gate::cz(0, 1),
            Gate::cz(1, 2),
        ];
        for a in &gates {
            for b in &gates {
                if commutes(a, b) {
                    let ab = b.to_matrix(3).mul(&a.to_matrix(3));
                    let ba = a.to_matrix(3).mul(&b.to_matrix(3));
                    assert!(ab.approx_eq(&ba), "{a} vs {b} declared commuting");
                }
            }
        }
    }

    #[test]
    fn adjacent_inverse_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(0, 1));
        let o = opt(&c);
        assert!(o.is_empty());
    }

    #[test]
    fn separated_inverse_pairs_cancel_through_commuting_gates() {
        // T q0 ... CX(0,1) ... T† q0: the T pair hops over its own control.
        let mut c = Circuit::new(2);
        c.push(Gate::t(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::tdg(0));
        let o = opt(&c);
        assert_eq!(o.len(), 1);
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn blocked_pairs_do_not_cancel() {
        let mut c = Circuit::new(2);
        c.push(Gate::t(1));
        c.push(Gate::cx(0, 1)); // diag on target: blocks
        c.push(Gate::tdg(1));
        let o = opt(&c);
        assert_eq!(o.len(), 3);
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn fusion_rewrites_tt_to_s() {
        let mut c = Circuit::new(1);
        c.push(Gate::t(0));
        c.push(Gate::t(0));
        let o = opt(&c);
        assert_eq!(o.gates(), &[Gate::single(SingleOp::S, 0)]);
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn diagonal_run_folds_across_cnot_controls() {
        // T; (CX with control here); T; S; S: total phase 8 steps = 2pi on
        // top of one T -> folds to a single T even across the CNOT.
        let mut c = Circuit::new(2);
        c.push(Gate::t(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::t(0));
        c.push(Gate::single(SingleOp::S, 0));
        c.push(Gate::single(SingleOp::S, 0));
        let o = opt(&c);
        assert!(qmdd_equal(&c, &o));
        assert!(o.len() <= 3, "got {} gates", o.len());
    }

    #[test]
    fn full_phase_cycle_disappears() {
        let mut c = Circuit::new(1);
        for _ in 0..8 {
            c.push(Gate::t(0));
        }
        assert!(opt(&c).is_empty());
    }

    #[test]
    fn triple_canonicalization_rewrites_hzh_to_x() {
        let mut c = Circuit::new(1);
        c.push(Gate::h(0));
        c.push(Gate::single(SingleOp::Z, 0));
        c.push(Gate::h(0));
        let o = opt(&c);
        assert_eq!(o.gates(), &[Gate::x(0)]);
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn triple_canonicalization_rewrites_sxs_to_y() {
        let mut c = Circuit::new(2);
        c.push(Gate::single(SingleOp::Sdg, 1));
        c.push(Gate::x(1));
        c.push(Gate::single(SingleOp::S, 1));
        let o = opt(&c);
        assert!(qmdd_equal(&c, &o));
        assert!(o.len() <= 1, "S X S† is a single Y: got {}", o.len());
    }

    #[test]
    fn triple_canonicalization_is_phase_exact() {
        // X Z X = -Z: differs from Z by a global phase, so it must NOT be
        // rewritten to Z (QMDD verification would fail).
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        c.push(Gate::single(SingleOp::Z, 0));
        c.push(Gate::x(0));
        let o = opt(&c);
        assert!(qmdd_equal(&c, &o), "phase must be preserved");
    }

    #[test]
    fn triples_across_interleaved_lines() {
        // The H Z H triple on line 0 is interleaved with gates on line 1;
        // per-line adjacency still finds and rewrites it.
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::t(1));
        c.push(Gate::single(SingleOp::Z, 0));
        c.push(Gate::tdg(1));
        c.push(Gate::h(0));
        let o = opt(&c);
        assert!(qmdd_equal(&c, &o));
        // H Z H -> X and the T T† pair on line 1 cancels.
        assert_eq!(o.gates(), &[Gate::x(0)]);
    }

    #[test]
    fn hh_cx_hh_contracts_without_device() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        let o = opt(&c);
        assert_eq!(o.gates(), &[Gate::cx(1, 0)]);
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn hh_cx_hh_respects_coupling_map() {
        // Device only has 0 -> 1: reversing to CX(1,0) would be illegal.
        let d = Device::from_coupling_map("d", 2, &[(0, &[1])]);
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        let cost = TransmonCost::default();
        let o = optimize_bounded(&c, Some(&d), &cost, OptimizeConfig::default(), None).0;
        for g in o.gates() {
            if let Gate::Cx { control, target } = g {
                assert!(d.has_coupling(*control, *target));
            }
        }
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn double_reversal_collapses_to_native() {
        // Mapping artifacts often look like two reversals back to back;
        // cancellation + contraction must reduce them to a single CNOT.
        let mut c = Circuit::new(2);
        for _ in 0..2 {
            c.push(Gate::h(0));
            c.push(Gate::h(1));
            c.push(Gate::cx(0, 1));
            c.push(Gate::h(0));
            c.push(Gate::h(1));
        }
        c.push(Gate::cx(1, 0));
        let o = opt(&c);
        assert!(qmdd_equal(&c, &o));
        assert!(o.len() <= 3, "got {}", o.len());
    }

    #[test]
    fn optimizer_never_raises_cost() {
        let cost = TransmonCost::default();
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::t(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::tdg(0));
        c.push(Gate::cx(1, 2));
        c.push(Gate::h(2));
        let o = opt(&c);
        assert!(cost.circuit_cost(&o) <= cost.circuit_cost(&c));
        assert!(qmdd_equal(&c, &o));
    }

    #[test]
    fn ablation_config_disables_families() {
        let mut c = Circuit::new(1);
        c.push(Gate::t(0));
        c.push(Gate::t(0));
        let cfg = OptimizeConfig {
            cancel_identities: true,
            rewrite_identities: false,
        };
        let o = optimize_bounded(&c, None, &TransmonCost::default(), cfg, None).0;
        assert_eq!(o.len(), 2, "fusion disabled leaves T T in place");
    }

    #[test]
    fn counters_report_rounds_and_removed_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(0));
        c.push(Gate::t(1));
        c.push(Gate::t(1));
        let cost = TransmonCost::default();
        let (o, counters) = optimize_bounded(&c, None, &cost, OptimizeConfig::default(), None);
        assert_eq!(o.gates(), &[Gate::single(SingleOp::S, 1)]);
        assert!(counters.rounds >= 1);
        assert_eq!(counters.gates_removed, c.len() - o.len());
        assert!(!counters.capped, "uncapped run must not report a cap");
    }

    #[test]
    fn round_cap_stops_gracefully() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(0));
        c.push(Gate::t(1));
        c.push(Gate::t(1));
        let cost = TransmonCost::default();
        let cfg = OptimizeConfig::default();
        // Zero rounds: the input comes back unchanged, flagged as capped.
        let (same, k) = optimize_bounded(&c, None, &cost, cfg, Some(0));
        assert_eq!(same, c);
        assert!(k.capped);
        assert_eq!(k.rounds, 0);
        // A cap that is never reached matches the uncapped optimizer exactly.
        let (unbounded, uk) = optimize_bounded(&c, None, &cost, cfg, Some(1000));
        let (plain, pk) = optimize_bounded(&c, None, &cost, cfg, None);
        assert_eq!(unbounded, plain);
        assert_eq!(uk, pk);
    }

    #[test]
    fn fixed_point_counts_zero_rounds() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        let cost = TransmonCost::default();
        let (o, counters) = optimize_bounded(&c, None, &cost, OptimizeConfig::default(), None);
        assert_eq!(o, c);
        let identity = OptimizeCounters {
            sources: vec![0],
            ..OptimizeCounters::default()
        };
        assert_eq!(counters, identity);
    }

    #[test]
    fn preserves_name() {
        let mut c = Circuit::new(1).with_name("keepme");
        c.push(Gate::h(0));
        c.push(Gate::h(0));
        let o = opt(&c);
        assert_eq!(o.name(), Some("keepme"));
    }

    #[test]
    fn large_random_clifford_t_is_preserved() {
        // Stress the tombstone buffer bookkeeping on a bigger circuit.
        let mut c = Circuit::new(5);
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..400 {
            match next() % 5 {
                0 => c.push(Gate::t((next() % 5) as usize)),
                1 => c.push(Gate::h((next() % 5) as usize)),
                2 => c.push(Gate::tdg((next() % 5) as usize)),
                3 => {
                    let a = (next() % 5) as usize;
                    let b = (next() % 5) as usize;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
                _ => c.push(Gate::x((next() % 5) as usize)),
            }
        }
        let o = opt(&c);
        assert!(qmdd_equal(&c, &o), "optimizer broke a random circuit");
        assert!(o.len() <= c.len());
    }

    /// Reference driver without buffer persistence: every pass of every
    /// round runs on a new `Buffer` built from the previous pass's gates,
    /// under the same round order and cost rule as [`optimize_bounded`].
    /// Sources are composed pass by pass, so they match the one buffer's
    /// slot indices only if every rewrite keeps each live gate in the
    /// slot of the gate it came from.
    fn rebuild_per_pass(
        circuit: &Circuit,
        device: Option<&Device>,
        cost: &dyn CostModel,
        config: OptimizeConfig,
        max_rounds: Option<usize>,
    ) -> (Circuit, OptimizeCounters) {
        let contract = |b: &mut Buffer| b.contract_hh_cx_hh(device);
        type Pass<'a> = &'a dyn Fn(&mut Buffer) -> bool;
        let passes: [(bool, Pass); 5] = [
            (config.cancel_identities, &Buffer::cancel_inverse_pairs),
            (config.rewrite_identities, &Buffer::fuse_single_runs),
            (config.rewrite_identities, &Buffer::fold_diagonal_runs),
            (
                config.rewrite_identities,
                &Buffer::canonicalize_single_triples,
            ),
            (config.rewrite_identities, &contract),
        ];
        let n = circuit.n_qubits();
        let mut best = circuit.clone();
        let mut best_cost = cost.circuit_cost(&best);
        let mut counters = OptimizeCounters {
            sources: (0..circuit.len() as u32).collect(),
            ..OptimizeCounters::default()
        };
        loop {
            if max_rounds.is_some_and(|cap| counters.rounds >= cap) {
                counters.capped = true;
                break;
            }
            let mut gates = best.gates().to_vec();
            let mut sources = counters.sources.clone();
            let mut changed = false;
            for (enabled, pass) in passes {
                if enabled {
                    let mut buf = Buffer::new(&gates, n);
                    changed |= pass(&mut buf);
                    let (live, slots) = buf.live();
                    gates = live;
                    sources = slots.iter().map(|&k| sources[k as usize]).collect();
                }
            }
            if !changed {
                break;
            }
            let mut cand = Circuit::from_gates(n, gates);
            if let Some(name) = best.name() {
                cand.set_name(name);
            }
            let c = cost.circuit_cost(&cand);
            if c < best_cost {
                best = cand;
                best_cost = c;
                counters.rounds += 1;
                counters.sources = sources;
            } else {
                break;
            }
        }
        counters.gates_removed = circuit.len().saturating_sub(best.len());
        (best, counters)
    }

    /// Technology-ready gates on `n` lines from raw draws: single gates,
    /// CX, CZ, inverse pairs and `H H CX H H` sandwiches.
    fn tech_ready_gates(n: usize, draws: &[(u8, usize, usize)]) -> Vec<Gate> {
        use SingleOp::{Sdg, Tdg, H, S, T, X, Z};
        const OPS: [SingleOp; 7] = [H, T, Tdg, S, Sdg, X, Z];
        let mut gates = Vec::new();
        for &(kind, a, b) in draws {
            let (a, b) = (a % n, b % n);
            let b = if a == b { (a + 1) % n } else { b };
            match kind {
                0..=6 => gates.push(Gate::single(OPS[kind as usize], a)),
                7 => gates.push(Gate::cx(a, b)),
                8 => gates.push(Gate::cz(a, b)),
                9 => {
                    let op = OPS[b % OPS.len()];
                    gates.push(Gate::single(op, a));
                    gates.push(Gate::single(op.inverse(), a));
                }
                10 => gates.extend([Gate::cx(a, b), Gate::cx(a, b)]),
                _ => gates.extend([
                    Gate::h(a),
                    Gate::h(b),
                    Gate::cx(a, b),
                    Gate::h(a),
                    Gate::h(b),
                ]),
            }
        }
        gates
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        #[test]
        fn one_buffer_matches_a_rebuild_per_pass(
            n in 2usize..7,
            draws in proptest::collection::vec((0u8..12, 0usize..6, 0usize..6), 0..48),
        ) {
            let c = Circuit::from_gates(n, tech_ready_gates(n, &draws)).with_name("diff");
            let directed = Device::from_coupling_map(
                "directed",
                6,
                &[(0, &[1, 2]), (1, &[2]), (2, &[3]), (3, &[2, 4]), (4, &[5]), (5, &[0])],
            );
            let cost = TransmonCost::default();
            for device in [None, Some(&directed)] {
                for (cancel_identities, rewrite_identities) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    let config = OptimizeConfig {
                        cancel_identities,
                        rewrite_identities,
                    };
                    for max_rounds in [None, Some(0), Some(1), Some(2)] {
                        let got = optimize_bounded(&c, device, &cost, config, max_rounds);
                        let want = rebuild_per_pass(&c, device, &cost, config, max_rounds);
                        proptest::prop_assert_eq!(
                            got,
                            want,
                            "device {:?}, {:?}, cap {:?}",
                            device.map(Device::name),
                            config,
                            max_rounds
                        );
                    }
                }
            }
        }
    }
}
