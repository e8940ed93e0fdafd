//! CNOT legalization: orientation reversal (paper Fig. 6) and the
//! connectivity-tree reroute, CTR (paper Figs. 4 and 5).
//!
//! CTR builds a breadth-first tree over the *undirected* coupling graph
//! rooted at the CNOT's control qubit (direction does not matter when
//! building the tree because a reversed CNOT is available via Fig. 6). The
//! control's quantum information SWAPs along the shortest tree path until it
//! sits adjacent to the target, the CNOT executes, and the SWAPs rewind so
//! every line keeps its original assignment.
//!
//! This module holds the per-pair search ([`ctr_route_with`]), the
//! adjacent-gate emitters every router shares, and the whole-circuit CTR
//! loop behind [`CtrStrategy`](crate::CtrStrategy). A circuit is routed
//! only through [`RoutingStrategy::route`](crate::RoutingStrategy::route).

use crate::error::CompileError;
use crate::strategy::{RouteOutcome, RouteRequest};
use qsyn_arch::Device;
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;
use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};

/// Per-thread search scratch reused across reroutes. Routing a circuit
/// runs one CTR search per non-adjacent CNOT; recycling the visited/parent
/// buffers (and the Dijkstra state for fidelity routing) keeps the hot
/// loop allocation-free after the first gate.
struct SearchScratch {
    parent: Vec<Option<usize>>,
    seen: Vec<bool>,
    queue: VecDeque<usize>,
    dist: Vec<f64>,
    settled: Vec<bool>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = const {
        RefCell::new(SearchScratch {
            parent: Vec::new(),
            seen: Vec::new(),
            queue: VecDeque::new(),
            dist: Vec::new(),
            settled: Vec::new(),
            heap: BinaryHeap::new(),
        })
    };
}

/// What the CTR search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingObjective {
    /// Fewest SWAP hops (the paper's shortest-path tree search).
    #[default]
    FewestSwaps,
    /// Highest end-to-end fidelity, using the device's per-coupling CNOT
    /// error annotations (unannotated couplings assume
    /// [`DEFAULT_CNOT_ERROR`]). Falls back to hop counting when the device
    /// carries no characterization data at all.
    HighestFidelity,
}

/// Error probability assumed for couplings without characterization data
/// when routing for fidelity (a typical transmon CNOT error magnitude).
pub const DEFAULT_CNOT_ERROR: f64 = 2.5e-2;

/// Negative log-fidelity of one CNOT leg over a native coupling, including
/// a small surcharge for the four Hadamards when only the reverse
/// orientation exists.
pub(crate) fn cnot_log_cost(device: &Device, control: usize, target: usize) -> f64 {
    const H_SURCHARGE: f64 = 4e-3; // four one-qubit gates at ~1e-3 each
    if device.has_coupling(control, target) {
        let e = device
            .cnot_error(control, target)
            .unwrap_or(DEFAULT_CNOT_ERROR);
        -(1.0 - e).ln()
    } else {
        let e = device
            .cnot_error(target, control)
            .unwrap_or(DEFAULT_CNOT_ERROR);
        -(1.0 - e).ln() + H_SURCHARGE
    }
}

/// Negative log-fidelity of a full SWAP between adjacent qubits (its three
/// CNOT legs in the orientation [`emit_adjacent_swap`] chooses).
pub(crate) fn swap_log_cost(device: &Device, a: usize, b: usize) -> f64 {
    let (x, y) = if device.has_coupling(a, b) {
        (a, b)
    } else {
        (b, a)
    };
    cnot_log_cost(device, x, y) * 2.0 + cnot_log_cost(device, y, x)
}

/// The SWAP path found by CTR: the control hops
/// `path[0] -> path[1] -> ...`, ending adjacent to the target.
///
/// `path[0]` is the control itself; an empty path means control and target
/// are already adjacent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrRoute {
    /// Qubits the control information visits, starting at the control.
    pub path: Vec<usize>,
    /// The qubit that finally acts as the (possibly reversed) CNOT control.
    pub effective_control: usize,
}

/// The CTR search (paper Fig. 4): the SWAP route from `control` to a
/// qubit adjacent to `target` that minimizes `objective`. Under
/// [`RoutingObjective::FewestSwaps`] (or on a device without error data)
/// this is the breadth-first shortest route, exploring neighbors in
/// ascending order so results are deterministic.
///
/// # Errors
///
/// Returns [`CompileError::RouteNotFound`] when the target's component is
/// unreachable.
pub fn ctr_route_with(
    device: &Device,
    control: usize,
    target: usize,
    objective: RoutingObjective,
) -> Result<CtrRoute, CompileError> {
    match objective {
        RoutingObjective::HighestFidelity if device.has_error_data() => {
            ctr_route_fidelity(device, control, target)
        }
        _ => ctr_route_bfs(device, control, target),
    }
}

/// Dijkstra over negative log-fidelity of the SWAP chain plus the final
/// CNOT leg. Deterministic: ties break toward smaller node indices.
fn ctr_route_fidelity(
    device: &Device,
    control: usize,
    target: usize,
) -> Result<CtrRoute, CompileError> {
    if control == target {
        return Err(CompileError::UnmappedGate(format!(
            "degenerate CNOT: control equals target (q{control})"
        )));
    }
    let n = device.n_qubits();
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.dist.clear();
        s.dist.resize(n, f64::INFINITY);
        s.parent.clear();
        s.parent.resize(n, None);
        s.settled.clear();
        s.settled.resize(n, false);
        s.heap.clear();
        let key = |d: f64, q: usize| ((d * 1e9) as u64, q);
        s.dist[control] = 0.0;
        s.heap.push(std::cmp::Reverse(key(0.0, control)));
        let mut best: Option<(f64, usize)> = None;
        while let Some(std::cmp::Reverse((_, q))) = s.heap.pop() {
            if s.settled[q] {
                continue;
            }
            s.settled[q] = true;
            if let Some((bd, _)) = best {
                if s.dist[q] >= bd {
                    continue;
                }
            }
            if device.are_adjacent(q, target) {
                let total = s.dist[q] + cnot_log_cost(device, q, target);
                if best.is_none_or(|(bd, bq)| (total, q) < (bd, bq)) {
                    best = Some((total, q));
                }
            }
            for &nb in device.neighbors(q) {
                if nb == target {
                    continue; // the control never moves onto the target line
                }
                let nd = s.dist[q] + swap_log_cost(device, q, nb);
                if nd < s.dist[nb] {
                    s.dist[nb] = nd;
                    s.parent[nb] = Some(q);
                    s.heap.push(std::cmp::Reverse(key(nd, nb)));
                }
            }
        }
        let Some((_, stop)) = best else {
            return Err(CompileError::RouteNotFound { control, target });
        };
        let mut path = vec![stop];
        let mut cur = stop;
        while let Some(p) = s.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], control);
        Ok(CtrRoute {
            effective_control: stop,
            path,
        })
    })
}

fn ctr_route_bfs(device: &Device, control: usize, target: usize) -> Result<CtrRoute, CompileError> {
    if control == target {
        return Err(CompileError::UnmappedGate(format!(
            "degenerate CNOT: control equals target (q{control})"
        )));
    }
    if device.are_adjacent(control, target) {
        return Ok(CtrRoute {
            path: vec![control],
            effective_control: control,
        });
    }
    let n = device.n_qubits();
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.parent.clear();
        s.parent.resize(n, None);
        s.seen.clear();
        s.seen.resize(n, false);
        s.queue.clear();
        s.seen[control] = true;
        s.seen[target] = true; // the control never moves onto the target line
        s.queue.push_back(control);
        while let Some(q) = s.queue.pop_front() {
            for &nb in device.neighbors(q) {
                if s.seen[nb] {
                    continue;
                }
                s.seen[nb] = true;
                s.parent[nb] = Some(q);
                if device.are_adjacent(nb, target) {
                    // Reconstruct the path control -> ... -> nb.
                    let mut path = vec![nb];
                    let mut cur = nb;
                    while let Some(p) = s.parent[cur] {
                        path.push(p);
                        cur = p;
                    }
                    path.push(control);
                    path.dedup();
                    path.reverse();
                    return Ok(CtrRoute {
                        effective_control: nb,
                        path,
                    });
                }
                s.queue.push_back(nb);
            }
        }
        Err(CompileError::RouteNotFound { control, target })
    })
}

/// Emits a CNOT that is native on the device, inserting the Fig. 6
/// Hadamard reversal when only the opposite orientation is coupled.
///
/// # Errors
///
/// Returns [`CompileError::RouteNotFound`] if the qubits are not adjacent
/// at all (callers route first).
pub fn emit_adjacent_cnot(
    device: &Device,
    control: usize,
    target: usize,
    out: &mut Circuit,
) -> Result<(), CompileError> {
    if device.native() == qsyn_arch::TwoQubitNative::Cz {
        // CZ-native library: CNOT = H(t) CZ H(t); CZ is symmetric, so any
        // adjacent pair works and no orientation reversal ever arises.
        if !device.are_adjacent(control, target) {
            return Err(CompileError::RouteNotFound { control, target });
        }
        out.push(Gate::h(target));
        emit_adjacent_cz(device, control, target, out)?;
        out.push(Gate::h(target));
        return Ok(());
    }
    if device.has_coupling(control, target) {
        out.push(Gate::cx(control, target));
        Ok(())
    } else if device.has_coupling(target, control) {
        out.push(Gate::h(control));
        out.push(Gate::h(target));
        out.push(Gate::cx(target, control));
        out.push(Gate::h(control));
        out.push(Gate::h(target));
        Ok(())
    } else {
        Err(CompileError::RouteNotFound { control, target })
    }
}

/// Emits a native CZ between adjacent qubits, using the orientation listed
/// in the coupling map.
///
/// # Errors
///
/// Returns [`CompileError::RouteNotFound`] if the qubits are not adjacent,
/// or [`CompileError::UnmappedGate`] on a CNOT-native device (CZ is not in
/// the IBM library; decompose it instead).
pub fn emit_adjacent_cz(
    device: &Device,
    a: usize,
    b: usize,
    out: &mut Circuit,
) -> Result<(), CompileError> {
    if device.native() != qsyn_arch::TwoQubitNative::Cz {
        return Err(CompileError::UnmappedGate(format!("CZ q{a}, q{b}")));
    }
    if device.has_coupling(a, b) {
        out.push(Gate::cz(a, b));
        Ok(())
    } else if device.has_coupling(b, a) {
        out.push(Gate::cz(b, a));
        Ok(())
    } else {
        Err(CompileError::RouteNotFound {
            control: a,
            target: b,
        })
    }
}

/// Emits a SWAP between two *adjacent* qubits using the native CNOT
/// direction(s): three CNOTs when both orientations exist, otherwise three
/// CNOTs with one Hadamard-reversed leg — at most 7 gates, the bound the
/// paper states for unidirectional transmon couplings.
///
/// # Errors
///
/// Returns [`CompileError::RouteNotFound`] if the qubits are not adjacent.
pub fn emit_adjacent_swap(
    device: &Device,
    a: usize,
    b: usize,
    out: &mut Circuit,
) -> Result<(), CompileError> {
    if !device.are_adjacent(a, b) {
        return Err(CompileError::RouteNotFound {
            control: a,
            target: b,
        });
    }
    // SWAP(a,b) = CX(a,b) CX(b,a) CX(a,b); SWAP is symmetric, so lead with
    // the natively coupled orientation — only the middle CNOT then needs
    // the Hadamard reversal, for 7 gates total (paper's stated maximum).
    let (x, y) = if device.has_coupling(a, b) {
        (a, b)
    } else {
        (b, a)
    };
    emit_adjacent_cnot(device, x, y, out)?;
    emit_adjacent_cnot(device, y, x, out)?;
    emit_adjacent_cnot(device, x, y, out)
}

/// CTR routing of a whole circuit: each two-qubit gate takes its route
/// from the request's lookup (the dense table or the sparse oracle, both
/// of which store exactly what [`ctr_route_with`] returns), and more
/// SWAPs than the request's cap abort with
/// [`CompileError::BudgetExceeded`]. Every gate of a gate's segment
/// (SWAPs out, the gate, SWAPs back) has that gate's index as its source.
pub(crate) fn route_bounded(req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
    let lookup = req.resolve_lookup();
    let device = req.device;
    let cz_native = device.native() == qsyn_arch::TwoQubitNative::Cz;
    let mut out = Circuit::new(device.n_qubits());
    if let Some(name) = req.circuit.name() {
        out.set_name(name.to_string());
    }
    let (mut swaps, mut rerouted) = (0, 0);
    let mut source: Vec<u32> = Vec::with_capacity(req.circuit.len());
    for (i, g) in req.circuit.gates().iter().enumerate() {
        let (control, target, cz) = match g {
            Gate::Single { .. } => {
                out.push(g.clone());
                source.push(i as u32);
                continue;
            }
            Gate::Cx { control, target } => (*control, *target, false),
            Gate::Cz { control, target } if cz_native => (*control, *target, true),
            other => return Err(CompileError::UnmappedGate(other.to_string())),
        };
        let route = lookup.route(control, target)?;
        let hops = route.path.len().saturating_sub(1);
        if hops > 0 {
            rerouted += 1;
            swaps += 2 * hops; // SWAP out and SWAP back
            req.check_swap_cap(swaps)?;
        }
        emit_cnot_via(device, &route, target, cz, &mut out)?;
        // Each gate's segment restores the layout, so segments concatenate.
        source.resize(out.len(), i as u32);
    }
    Ok(RouteOutcome::of(out, source, swaps, rerouted, 0))
}

/// Emits a two-qubit gate along an already-computed route: SWAP out,
/// execute the adjacent gate — a CZ when `cz`, else the (possibly
/// reversed) CNOT — from the route's effective control to `target`, SWAP
/// back.
fn emit_cnot_via(
    device: &Device,
    route: &CtrRoute,
    target: usize,
    cz: bool,
    out: &mut Circuit,
) -> Result<(), CompileError> {
    for w in route.path.windows(2) {
        emit_adjacent_swap(device, w[0], w[1], out)?;
    }
    if cz {
        emit_adjacent_cz(device, route.effective_control, target, out)?;
    } else {
        emit_adjacent_cnot(device, route.effective_control, target, out)?;
    }
    for w in route.path.windows(2).rev() {
        emit_adjacent_swap(device, w[0], w[1], out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmdd_equal;
    use crate::strategy::{CtrStrategy, RoutingStrategy};
    use qsyn_arch::devices;

    /// CTR routing under `objective` and an optional SWAP cap, through the
    /// shared routing lookup for the device.
    fn routed_with(
        circuit: &Circuit,
        device: &Device,
        objective: RoutingObjective,
        max_swaps: Option<usize>,
    ) -> Result<RouteOutcome, CompileError> {
        CtrStrategy.route(
            &RouteRequest::new(circuit, device)
                .with_objective(objective)
                .with_max_swaps(max_swaps),
        )
    }

    /// Fewest-SWAPs CTR routing under an optional SWAP cap.
    fn routed(
        circuit: &Circuit,
        device: &Device,
        max_swaps: Option<usize>,
    ) -> Result<RouteOutcome, CompileError> {
        routed_with(circuit, device, RoutingObjective::FewestSwaps, max_swaps)
    }

    /// The fewest-SWAPs CTR search for one pair.
    fn bfs_route(device: &Device, control: usize, target: usize) -> Result<CtrRoute, CompileError> {
        ctr_route_with(device, control, target, RoutingObjective::FewestSwaps)
    }

    /// A register of `n` lines holding one CNOT.
    fn one_cnot(n: usize, control: usize, target: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::cx(control, target));
        c
    }

    #[test]
    fn fig5_ibmqx3_q5_to_q10_routes_via_q12_q11() {
        // The paper's worked example: CNOT control q5, target q10 on
        // ibmqx3 needs two swaps, first q5<->q12, then q12<->q11.
        let d = devices::ibmqx3();
        let r = bfs_route(&d, 5, 10).unwrap();
        assert_eq!(r.path, vec![5, 12, 11]);
        assert_eq!(r.effective_control, 11);
    }

    #[test]
    fn adjacent_pairs_need_no_route() {
        let d = devices::ibmqx2();
        let r = bfs_route(&d, 0, 1).unwrap();
        assert_eq!(r.path, vec![0]);
        let r = bfs_route(&d, 1, 0).unwrap(); // reverse orientation counts
        assert_eq!(r.path, vec![1]);
    }

    #[test]
    fn native_cnot_is_one_gate() {
        let d = devices::ibmqx2();
        let mut out = Circuit::new(5);
        emit_adjacent_cnot(&d, 0, 1, &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn fig6_reversal_is_five_gates_and_correct() {
        let d = devices::ibmqx2();
        let mut out = Circuit::new(5);
        emit_adjacent_cnot(&d, 1, 0, &mut out).unwrap(); // only 0->1 native
        assert_eq!(out.len(), 5);
        assert_eq!(out.stats().cnot_count, 1);
        let mut spec = Circuit::new(5);
        spec.push(Gate::cx(1, 0));
        assert!(qmdd_equal(&spec, &out));
    }

    #[test]
    fn unidirectional_swap_is_seven_gates_and_correct() {
        let d = devices::ibmqx2();
        let mut out = Circuit::new(5);
        emit_adjacent_swap(&d, 0, 1, &mut out).unwrap();
        assert_eq!(out.len(), 7, "paper: max 7 gates per SWAP");
        let mut spec = Circuit::new(5);
        spec.push(Gate::swap(0, 1));
        assert!(qmdd_equal(&spec, &out));
    }

    #[test]
    fn rerouted_cnot_preserves_semantics_and_assignment() {
        let d = devices::ibmqx3();
        let spec = one_cnot(16, 5, 10);
        let out = routed(&spec, &d, None).unwrap().circuit;
        assert!(qmdd_equal(&spec, &out));
        // Every CNOT in the output respects the coupling map.
        for g in out.gates() {
            if let Gate::Cx { control, target } = g {
                assert!(d.has_coupling(*control, *target), "illegal {g}");
            }
        }
    }

    #[test]
    fn ctr_routing_legalizes_everything() {
        let d = devices::ibmqx4();
        let mut c = Circuit::new(5);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 4));
        c.push(Gate::t(2));
        c.push(Gate::cx(4, 1));
        let out = routed(&c, &d, None).unwrap().circuit;
        assert!(qmdd_equal(&c, &out));
        for g in out.gates() {
            if let Gate::Cx { control, target } = g {
                assert!(d.has_coupling(*control, *target));
            }
        }
    }

    #[test]
    fn routing_counts_swaps_and_reroutes() {
        let d = devices::ibmqx3();
        let mut c = Circuit::new(16);
        c.push(Gate::h(0));
        c.push(Gate::cx(5, 10)); // the Fig. 5 reroute: 2 hops
        c.push(Gate::cx(0, 1)); // adjacent: no swaps
        let outcome = routed(&c, &d, None).unwrap();
        assert_eq!(outcome.gates_rerouted, 1);
        assert_eq!(outcome.swaps_inserted, 4, "2 hops out + 2 hops back");
        assert_eq!(outcome.restoration_swaps, 0);
    }

    #[test]
    fn adjacent_only_circuit_counts_zero_swaps() {
        let d = devices::ibmqx2();
        let mut c = Circuit::new(5);
        c.push(Gate::cx(0, 1));
        let outcome = routed(&c, &d, None).unwrap();
        assert_eq!((outcome.swaps_inserted, outcome.gates_rerouted), (0, 0));
    }

    #[test]
    fn route_rejects_unmapped_gates() {
        let d = devices::ibmqx2();
        let mut c = Circuit::new(5);
        c.push(Gate::toffoli(0, 1, 2));
        assert!(matches!(
            routed(&c, &d, None),
            Err(CompileError::UnmappedGate(_))
        ));
    }

    #[test]
    fn disconnected_map_reports_route_not_found() {
        let d = Device::from_coupling_map("disc", 4, &[(0, &[1]), (2, &[3])]);
        let err = bfs_route(&d, 0, 3).unwrap_err();
        assert_eq!(
            err,
            CompileError::RouteNotFound {
                control: 0,
                target: 3
            }
        );
    }

    #[test]
    fn route_never_moves_control_onto_target() {
        // A line graph where the only path from 0 to 2's neighborhood is
        // through 1: control stops next to the target, not on it.
        let d = Device::from_coupling_map("line", 4, &[(0, &[1]), (1, &[2]), (2, &[3])]);
        let r = bfs_route(&d, 0, 3).unwrap();
        assert!(!r.path.contains(&3));
        assert_eq!(r.path, vec![0, 1, 2]);
    }

    /// A device with a short noisy path 0-1-3 and a long clean path
    /// 0-2-4-3 between qubits 0 and 3.
    fn noisy_diamond() -> Device {
        Device::from_coupling_map(
            "diamond",
            5,
            &[(0, &[1, 2]), (1, &[3]), (2, &[4]), (4, &[3])],
        )
        .with_cnot_errors([
            ((0, 1), 0.20),
            ((1, 3), 0.20),
            ((0, 2), 0.001),
            ((2, 4), 0.001),
            ((4, 3), 0.001),
        ])
    }

    #[test]
    fn fewest_swaps_takes_the_short_path() {
        let d = noisy_diamond();
        let r = ctr_route_with(&d, 0, 3, RoutingObjective::FewestSwaps).unwrap();
        assert_eq!(r.path, vec![0, 1]);
        assert_eq!(r.effective_control, 1);
    }

    #[test]
    fn fidelity_routing_takes_the_clean_path() {
        let d = noisy_diamond();
        let r = ctr_route_with(&d, 0, 3, RoutingObjective::HighestFidelity).unwrap();
        assert_eq!(r.path, vec![0, 2, 4]);
        assert_eq!(r.effective_control, 4);
        // Both routes produce equivalent circuits.
        let spec = one_cnot(5, 0, 3);
        let fast = routed_with(&spec, &d, RoutingObjective::FewestSwaps, None).unwrap();
        let clean = routed_with(&spec, &d, RoutingObjective::HighestFidelity, None).unwrap();
        assert_ne!(fast.circuit, clean.circuit);
        assert!(qmdd_equal(&fast.circuit, &clean.circuit));
    }

    #[test]
    fn fidelity_routing_without_data_falls_back_to_bfs() {
        let d = devices::ibmqx3(); // no characterization data
        let bfs = ctr_route_with(&d, 5, 10, RoutingObjective::FewestSwaps).unwrap();
        let fid = ctr_route_with(&d, 5, 10, RoutingObjective::HighestFidelity).unwrap();
        assert_eq!(bfs, fid);
    }

    #[test]
    fn fidelity_routing_with_uniform_errors_matches_hop_counts() {
        // Uniform annotations: the cheapest-log-fidelity path is a
        // shortest path, so path lengths agree even if routes differ.
        let mut d = devices::ibmqx5();
        let pairs: Vec<(usize, usize)> = d.couplings().collect();
        for (c, t) in pairs {
            d.set_cnot_error(c, t, 0.02);
        }
        for (control, target) in [(0usize, 7usize), (5, 14), (9, 2)] {
            let bfs = ctr_route_with(&d, control, target, RoutingObjective::FewestSwaps).unwrap();
            let fid =
                ctr_route_with(&d, control, target, RoutingObjective::HighestFidelity).unwrap();
            assert_eq!(bfs.path.len(), fid.path.len(), "{control}->{target}");
        }
    }

    #[test]
    fn cz_native_device_emits_cz_primitives() {
        use qsyn_arch::TwoQubitNative;
        let d = devices::ring(6).with_native(TwoQubitNative::Cz);
        let mut c = Circuit::new(6);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1)); // adjacent: H t, CZ, H t
        c.push(Gate::cx(0, 3)); // distant: swaps + CZ legs
        c.push(Gate::cz(2, 5)); // native CZ, distant
        let out = routed(&c, &d, None).unwrap().circuit;
        assert!(qmdd_equal(&c, &out));
        for g in out.gates() {
            assert!(d.supports(g), "unsupported {g}");
            assert!(!matches!(g, Gate::Cx { .. }), "no CNOT on a CZ device");
        }
    }

    #[test]
    fn cz_rejected_on_cnot_native_device() {
        let d = devices::ibmqx2();
        let mut out = Circuit::new(5);
        assert!(matches!(
            emit_adjacent_cz(&d, 0, 1, &mut out),
            Err(CompileError::UnmappedGate(_))
        ));
        let mut c = Circuit::new(5);
        c.push(Gate::cz(0, 1));
        assert!(routed(&c, &d, None).is_err());
    }

    #[test]
    fn long_reroute_on_qc96_verifies() {
        let d = devices::qc96();
        let spec = one_cnot(96, 5, 45);
        let out = routed(&spec, &d, None).unwrap().circuit;
        // Wide register: use the miter strategy.
        let support = qsyn_qmdd::miter_support(&spec, &out);
        let method = qsyn_qmdd::EquivMethod::Miter;
        let r = qsyn_qmdd::try_equivalent_on(&support, &spec, &out, method, Default::default());
        assert!(r.unwrap().equivalent);
    }

    #[test]
    fn degenerate_cnot_is_an_error_not_a_panic() {
        let d = devices::ibmqx4();
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
            match ctr_route_with(&d, 2, 2, objective) {
                Err(CompileError::UnmappedGate(msg)) => {
                    assert!(msg.contains("control equals target"), "{msg}")
                }
                other => panic!("expected UnmappedGate, got {other:?}"),
            }
        }
    }

    #[test]
    fn swap_cap_aborts_with_budget_exceeded() {
        let d = devices::ibmqx3();
        let mut c = Circuit::new(16);
        c.push(Gate::cx(5, 10)); // distant pair: needs several SWAPs
        let free = routed(&c, &d, None).unwrap();
        assert!(free.swaps_inserted >= 2);
        // A cap below the real requirement trips the budget...
        match routed(&c, &d, Some(1)) {
            Err(CompileError::BudgetExceeded {
                pass,
                resource,
                limit,
                used,
            }) => {
                assert_eq!(pass, qsyn_trace::Pass::Route);
                assert_eq!(resource, crate::budget::BudgetResource::RouteSwaps);
                assert_eq!(limit, 1);
                assert!(used > 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // ...while a generous cap matches the uncapped result.
        assert_eq!(routed(&c, &d, Some(1000)).unwrap(), free);
    }
}
