//! Persistent-layout machinery: the drifting `Layout`, the shortest-path
//! move that brings an operand next to its partner, and the restoration
//! network. [`PersistentStrategy`](crate::PersistentStrategy) routes with
//! it, and [`LookaheadStrategy`](crate::LookaheadStrategy) shares the
//! layout and the restoration network; a circuit is routed only through
//! [`RoutingStrategy::route`](crate::RoutingStrategy::route).
//!
//! CTR returns the control to its original position after every rerouted
//! CNOT ("the control qubit traverses the SWAP path in reverse"), which
//! keeps the line assignment fixed but pays the SWAP chain twice. The
//! persistent-layout router instead lets the logical-to-physical layout
//! drift: SWAPs move a logical line and *stay*, later gates are routed
//! under the updated layout, and a single final restoration network
//! returns every line to its home position so the overall unitary equals
//! the specification exactly (QMDD-verifiable, like everything else).
//!
//! The restoration network sorts the layout permutation over the coupling
//! graph with tree token-sorting: positions are fixed in reverse-BFS
//! order, so each fix routes entirely through not-yet-fixed positions and
//! the procedure provably terminates. On a split coupling map the BFS
//! builds one tree per connected component, and every component is
//! restored.

use crate::error::CompileError;
use crate::route::emit_adjacent_swap;
use qsyn_arch::Device;
use qsyn_circuit::Circuit;
use std::collections::VecDeque;

/// Tracks the drifting logical-to-physical assignment (shared with the
/// lookahead strategy, which also routes under a persistent layout).
pub(crate) struct Layout {
    pub(crate) phys_of: Vec<usize>, // logical line -> physical qubit
    pub(crate) log_of: Vec<usize>,  // physical qubit -> logical line
}

impl Layout {
    pub(crate) fn identity(n: usize) -> Self {
        Layout {
            phys_of: (0..n).collect(),
            log_of: (0..n).collect(),
        }
    }

    pub(crate) fn swap_physical(&mut self, a: usize, b: usize) {
        let (la, lb) = (self.log_of[a], self.log_of[b]);
        self.log_of.swap(a, b);
        self.phys_of[la] = b;
        self.phys_of[lb] = a;
    }

    pub(crate) fn is_identity(&self) -> bool {
        self.phys_of.iter().enumerate().all(|(l, &p)| l == p)
    }
}

/// Moves the occupant of `from` adjacent to `to` with persistent SWAPs
/// (BFS shortest path, never stepping onto `to`); returns the physical
/// qubit now holding the moved logical line and the number of SWAP hops
/// that move took.
pub(crate) fn bring_adjacent(
    device: &Device,
    from: usize,
    to: usize,
    layout: &mut Layout,
    out: &mut Circuit,
) -> Result<(usize, usize), CompileError> {
    if device.are_adjacent(from, to) {
        return Ok((from, 0));
    }
    // BFS from `from` to any neighbor of `to`, avoiding `to` itself.
    let n = device.n_qubits();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[from] = true;
    seen[to] = true;
    let mut queue = VecDeque::from([from]);
    let mut stop = None;
    'search: while let Some(q) = queue.pop_front() {
        for &nb in device.neighbors(q) {
            if seen[nb] {
                continue;
            }
            seen[nb] = true;
            parent[nb] = Some(q);
            if device.are_adjacent(nb, to) {
                stop = Some(nb);
                break 'search;
            }
            queue.push_back(nb);
        }
    }
    let Some(stop) = stop else {
        return Err(CompileError::RouteNotFound {
            control: from,
            target: to,
        });
    };
    let mut path = vec![stop];
    let mut cur = stop;
    while let Some(p) = parent[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    for w in path.windows(2) {
        emit_adjacent_swap(device, w[0], w[1], out)?;
        layout.swap_physical(w[0], w[1]);
    }
    Ok((stop, path.len() - 1))
}

/// Adjacent transpositions sorting the layout back to the identity, via
/// token sorting on a BFS spanning forest (fix positions deepest-first;
/// every move routes through not-yet-fixed ancestors only). SWAPs only
/// run along couplings, so a line never drifts out of its connected
/// component, and each component is restored on its own tree.
pub(crate) fn restoration_swaps(device: &Device, layout: &mut Layout) -> Vec<(usize, usize)> {
    let n = device.n_qubits();
    // BFS spanning forest: qubit 0's tree first, then one tree rooted at
    // each qubit no earlier tree reached, in ascending order. A connected
    // map gives the single tree from qubit 0.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        queue.push_back(root);
        while let Some(q) = queue.pop_front() {
            order.push(q);
            for &nb in device.neighbors(q) {
                if !seen[nb] {
                    seen[nb] = true;
                    parent[nb] = Some(q);
                    queue.push_back(nb);
                }
            }
        }
    }

    let mut swaps = Vec::new();
    let mut fixed = vec![false; n];
    // Fix deepest-first: children precede parents in reversed BFS order,
    // so the tree-path fallback below only ever crosses unfixed positions.
    for &home in order.iter().rev() {
        let from = layout.phys_of[home]; // where logical `home` sits now
        if from != home {
            // Prefer a true shortest path that avoids fixed positions;
            // fall back to the (always valid) spanning-tree path.
            let path = unfixed_shortest_path(device, from, home, &fixed)
                .unwrap_or_else(|| tree_path(&parent, from, home));
            for w in path.windows(2) {
                swaps.push((w[0], w[1]));
                layout.swap_physical(w[0], w[1]);
            }
        }
        fixed[home] = true;
    }
    swaps
}

/// BFS shortest path between two unfixed positions through unfixed
/// positions only.
fn unfixed_shortest_path(
    device: &Device,
    from: usize,
    to: usize,
    fixed: &[bool],
) -> Option<Vec<usize>> {
    let n = device.n_qubits();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut queue = VecDeque::from([from]);
    while let Some(q) = queue.pop_front() {
        if q == to {
            let mut path = vec![to];
            let mut cur = to;
            while let Some(p) = parent[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &nb in device.neighbors(q) {
            if !seen[nb] && !fixed[nb] {
                seen[nb] = true;
                parent[nb] = Some(q);
                queue.push_back(nb);
            }
        }
    }
    None
}

/// The unique tree path between two nodes given parent pointers.
fn tree_path(parent: &[Option<usize>], a: usize, b: usize) -> Vec<usize> {
    let chain = |mut q: usize| {
        let mut up = vec![q];
        while let Some(p) = parent[q] {
            up.push(p);
            q = p;
        }
        up
    };
    let ca = chain(a);
    let cb = chain(b);
    // Find the lowest common ancestor by trimming the shared tail.
    let mut ia = ca.len();
    let mut ib = cb.len();
    while ia > 0 && ib > 0 && ca[ia - 1] == cb[ib - 1] {
        ia -= 1;
        ib -= 1;
    }
    // a -> lca -> b.
    let mut path: Vec<usize> = ca[..=ia.min(ca.len() - 1)].to_vec();
    for k in (0..=ib.min(cb.len() - 1)).rev() {
        if path.last() != Some(&cb[k]) {
            path.push(cb[k]);
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmdd_equal;
    use crate::strategy::{CtrStrategy, PersistentStrategy, RouteOutcome, RouteRequest};
    use crate::RoutingStrategy;
    use qsyn_arch::{devices, TwoQubitNative};
    use qsyn_gate::Gate;

    fn persistent(c: &Circuit, d: &Device) -> RouteOutcome {
        PersistentStrategy.route(&RouteRequest::new(c, d)).unwrap()
    }

    fn routed_equal(c: &Circuit, d: &Device) -> Circuit {
        let r = persistent(c, d).circuit;
        assert!(qmdd_equal(c, &r), "persistent routing broke semantics");
        for g in r.gates() {
            if let Gate::Cx { control, target } = g {
                assert!(d.has_coupling(*control, *target), "illegal {g}");
            }
        }
        r
    }

    #[test]
    fn single_distant_cnot() {
        let d = devices::ibmqx3();
        let mut c = Circuit::new(16);
        c.push(Gate::cx(5, 10));
        routed_equal(&c, &d);
    }

    #[test]
    fn repeated_distant_cnots_pay_the_chain_once() {
        let d = devices::ibmqx3();
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            c.push(Gate::cx(5, 10));
        }
        let persistent = routed_equal(&c, &d);
        let ctr = CtrStrategy
            .route(&RouteRequest::new(&c, &d))
            .unwrap()
            .circuit;
        assert!(
            persistent.len() < ctr.len(),
            "persistent {} vs ctr {}",
            persistent.len(),
            ctr.len()
        );
    }

    #[test]
    fn single_qubit_gates_follow_the_layout() {
        // After a drifting SWAP, later one-qubit gates must land on the
        // moved line; equivalence checking catches any slip.
        let d = devices::ibmqx4();
        let mut c = Circuit::new(5);
        c.push(Gate::cx(0, 4)); // forces movement on a 5-qubit device
        c.push(Gate::t(0));
        c.push(Gate::h(4));
        c.push(Gate::cx(4, 0));
        routed_equal(&c, &d);
    }

    #[test]
    fn mixed_workload_on_every_ibm_device() {
        for d in devices::ibm_devices() {
            let n = d.n_qubits().min(5);
            let mut c = Circuit::new(n);
            c.push(Gate::h(0));
            c.push(Gate::cx(0, n - 1));
            c.push(Gate::t(n - 1));
            c.push(Gate::cx(n - 1, 1));
            c.push(Gate::cx(1, n - 2));
            routed_equal(&c, &d);
        }
    }

    #[test]
    fn cz_native_persistent_routing() {
        let d = devices::ring(6).with_native(TwoQubitNative::Cz);
        let mut c = Circuit::new(6);
        c.push(Gate::cz(0, 3));
        c.push(Gate::cx(1, 4));
        let r = persistent(&c, &d).circuit;
        assert!(qmdd_equal(&c, &r));
        for g in r.gates() {
            assert!(d.supports(g), "unsupported {g}");
        }
    }

    #[test]
    fn persistent_routing_counts_drift_and_restoration() {
        let d = devices::ibmqx3();
        let mut c = Circuit::new(16);
        c.push(Gate::cx(5, 10)); // needs drifting swaps + restoration
        c.push(Gate::cx(0, 1)); // adjacent
        let counters = persistent(&c, &d);
        assert_eq!(counters.gates_rerouted, 1);
        assert!(counters.swaps_inserted > 0);
        assert!(
            counters.restoration_swaps > 0,
            "layout drifted, must restore"
        );
    }

    #[test]
    fn restoration_sorts_any_layout() {
        // Scramble a layout with random physical swaps, then restore.
        for d in [devices::ibmqx5(), devices::qc96()] {
            let n = d.n_qubits();
            let mut layout = Layout::identity(n);
            let mut seed = 0xfeed_beefu64;
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for _ in 0..3 * n {
                let a = (next() as usize) % n;
                for &b in d.neighbors(a) {
                    layout.swap_physical(a, b);
                }
            }
            let _ = restoration_swaps(&d, &mut layout);
            assert!(layout.is_identity(), "{}", d.name());
        }
    }

    #[test]
    fn restoration_swaps_are_adjacent() {
        let d = devices::ibmqx3();
        let mut layout = Layout::identity(16);
        layout.swap_physical(5, 12);
        layout.swap_physical(12, 11);
        layout.swap_physical(0, 1);
        let swaps = restoration_swaps(&d, &mut layout);
        for (a, b) in swaps {
            assert!(d.are_adjacent(a, b), "non-adjacent restoration swap");
        }
    }

    #[test]
    fn tree_path_endpoints() {
        // Chain tree: 0 <- 1 <- 2 <- 3.
        let parent = vec![None, Some(0), Some(1), Some(2)];
        assert_eq!(tree_path(&parent, 3, 0), vec![3, 2, 1, 0]);
        assert_eq!(tree_path(&parent, 0, 3), vec![0, 1, 2, 3]);
        assert_eq!(tree_path(&parent, 2, 2), vec![2]);
    }
}
