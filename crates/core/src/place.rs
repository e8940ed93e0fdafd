//! Initial placement of logical circuit lines onto physical device qubits.
//!
//! The paper's prototype keeps the original qubit assignment (its
//! benchmarks name physical qubits directly) and lists smarter placement as
//! future work ("minimize cost by finding ideal qubit placement on a QC").
//! Both are provided here: [`PlacementStrategy::Identity`] reproduces the
//! paper; [`PlacementStrategy::Greedy`] implements the future-work
//! extension and is compared against identity in the ablation benches.

use qsyn_arch::Device;
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;

/// How logical lines are assigned to physical qubits before mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Logical line `i` goes to physical qubit `i` (the paper's behavior).
    #[default]
    Identity,
    /// Interaction-weighted greedy placement: heavily interacting lines are
    /// packed onto well-connected, mutually close physical qubits.
    Greedy,
    /// Simulated annealing over assignments, minimizing the
    /// distance-weighted interaction cost ([`routing_pressure`]); seeded
    /// and deterministic, started from the greedy solution.
    Annealed,
}

impl PlacementStrategy {
    /// Every selectable strategy, in `--placement` listing order.
    pub const ALL: [PlacementStrategy; 3] = [
        PlacementStrategy::Identity,
        PlacementStrategy::Greedy,
        PlacementStrategy::Annealed,
    ];

    /// Parses the `--placement` value.
    pub fn parse(s: &str) -> Option<PlacementStrategy> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Stable lowercase identifier (the `--placement` value).
    pub fn name(self) -> &'static str {
        match self {
            PlacementStrategy::Identity => "identity",
            PlacementStrategy::Greedy => "greedy",
            PlacementStrategy::Annealed => "annealed",
        }
    }

    /// The accepted values as prose (`identity, greedy or annealed`), for
    /// "unknown placement" errors.
    pub fn choices() -> String {
        crate::one_of(&Self::ALL.map(Self::name))
    }
}

/// A computed placement: `map[logical] = physical`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    map: Vec<usize>,
}

impl Placement {
    /// Identity placement for `n` logical lines.
    pub fn identity(n: usize) -> Self {
        Placement {
            map: (0..n).collect(),
        }
    }

    /// Reconstructs a placement from an explicit logical-to-physical map
    /// (used by the on-disk compile-result codec; a computed placement is
    /// just its map, so round-tripping through `as_slice` is lossless).
    pub fn from_map(map: Vec<usize>) -> Self {
        Placement { map }
    }

    /// The physical qubit hosting a logical line.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    pub fn physical(&self, logical: usize) -> usize {
        self.map[logical]
    }

    /// The full logical-to-physical map.
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }

    /// Applies the placement, relabeling circuit lines onto device qubits
    /// and widening the register to the device size.
    pub fn apply(&self, circuit: &Circuit, device: &Device) -> Circuit {
        circuit.relabeled(device.n_qubits(), |q| self.map[q])
    }

    /// Whether the placement is the identity on its domain.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &p)| i == p)
    }
}

/// Computes a placement for `circuit` on `device` under the chosen
/// strategy.
///
/// # Panics
///
/// Panics if the circuit is wider than the device (the compiler checks
/// widths before calling).
pub fn place(circuit: &Circuit, device: &Device, strategy: PlacementStrategy) -> Placement {
    assert!(
        circuit.n_qubits() <= device.n_qubits(),
        "circuit wider than device"
    );
    match strategy {
        PlacementStrategy::Identity => Placement::identity(circuit.n_qubits()),
        PlacementStrategy::Greedy => greedy(circuit, device),
        PlacementStrategy::Annealed => annealed(circuit, device),
    }
}

/// Simulated annealing refinement of the greedy placement: random swaps of
/// two assignments (or a move onto a free physical qubit), accepted by the
/// Metropolis rule over the routing-pressure objective. Deterministic:
/// fixed seed, fixed schedule.
fn annealed(circuit: &Circuit, device: &Device) -> Placement {
    let n_log = circuit.n_qubits();
    let n_phys = device.n_qubits();
    let mut current = greedy(circuit, device);
    let mut cost = routing_pressure(circuit, device, &current) as f64;
    let mut best = current.clone();
    let mut best_cost = cost;

    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let iterations = 400 * n_log.max(4);
    for step in 0..iterations {
        let temperature = 2.0 * (1.0 - step as f64 / iterations as f64) + 1e-3;
        // Propose: swap the hosts of two logical lines, or move one line
        // onto an unoccupied physical qubit.
        let mut cand = current.clone();
        let a = (next() as usize) % n_log;
        if n_phys > n_log && next() % 2 == 0 {
            let free: Vec<usize> = (0..n_phys)
                .filter(|p| !cand.map.contains(p))
                .collect();
            cand.map[a] = free[(next() as usize) % free.len()];
        } else {
            let b = (next() as usize) % n_log;
            if a == b {
                continue;
            }
            cand.map.swap(a, b);
        }
        let cand_cost = routing_pressure(circuit, device, &cand) as f64;
        let accept = cand_cost <= cost || {
            let p = (-(cand_cost - cost) / temperature.max(1e-9)).exp();
            (next() % 1_000_000) as f64 / 1_000_000.0 < p
        };
        if accept {
            current = cand;
            cost = cand_cost;
            if cost < best_cost {
                best = current.clone();
                best_cost = cost;
            }
        }
    }
    best
}

/// Interaction-weighted greedy placement.
///
/// Builds the logical interaction graph (pairs of lines sharing a
/// multi-qubit gate, weighted by occurrence), orders logical lines by total
/// interaction weight, and assigns each to the free physical qubit that
/// minimizes distance-weighted interaction cost to already-placed partners
/// (breaking ties toward better-connected qubits).
fn greedy(circuit: &Circuit, device: &Device) -> Placement {
    let n_log = circuit.n_qubits();
    let n_phys = device.n_qubits();
    // Interaction weights between logical lines.
    let mut weight = vec![vec![0usize; n_log]; n_log];
    for g in circuit.gates() {
        let qs = g.qubits();
        for (i, &a) in qs.iter().enumerate() {
            for &b in &qs[i + 1..] {
                weight[a][b] += 1;
                weight[b][a] += 1;
            }
        }
    }
    let dist = all_pairs_distances(device);
    // Logical lines in descending total weight (stable for determinism).
    let mut order: Vec<usize> = (0..n_log).collect();
    let total: Vec<usize> = (0..n_log).map(|a| weight[a].iter().sum()).collect();
    order.sort_by_key(|&a| std::cmp::Reverse(total[a]));

    let mut map = vec![usize::MAX; n_log];
    let mut used = vec![false; n_phys];
    for &log in &order {
        let mut best: Option<(usize, (usize, std::cmp::Reverse<usize>))> = None;
        for phys in 0..n_phys {
            if used[phys] {
                continue;
            }
            // Distance-weighted cost to already placed partners.
            let mut cost = 0usize;
            for partner in 0..n_log {
                let p = map[partner];
                if p != usize::MAX && weight[log][partner] > 0 {
                    cost += weight[log][partner] * dist[phys][p] as usize;
                }
            }
            let key = (cost, std::cmp::Reverse(device.neighbors(phys).len()));
            if best.is_none_or(|(_, bk)| key < bk) {
                best = Some((phys, key));
            }
        }
        let (phys, _) = best.expect("device has enough qubits");
        map[log] = phys;
        used[phys] = true;
    }
    Placement { map }
}

/// BFS all-pairs undirected distances over the coupling graph.
fn all_pairs_distances(device: &Device) -> Vec<Vec<u32>> {
    (0..device.n_qubits())
        .map(|q| device.distances_from(q))
        .collect()
}

/// Estimated routing pressure of a circuit under a placement: the sum over
/// multi-qubit gates of the coupling-graph distances between their lines.
/// Used by ablation benches to compare placement strategies.
pub fn routing_pressure(circuit: &Circuit, device: &Device, placement: &Placement) -> usize {
    let dist = all_pairs_distances(device);
    let mut total = 0usize;
    for g in circuit.gates() {
        if let Gate::Cx { control, target } = g {
            total += dist[placement.physical(*control)][placement.physical(*target)] as usize;
        } else if g.arity() > 1 {
            let qs = g.qubits();
            for (i, &a) in qs.iter().enumerate() {
                for &b in &qs[i + 1..] {
                    total += dist[placement.physical(a)][placement.physical(b)] as usize;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_arch::devices;

    fn chain_circuit() -> Circuit {
        // Lines 0 and 3 interact heavily; 1 and 2 are spectators.
        let mut c = Circuit::new(4);
        for _ in 0..5 {
            c.push(Gate::cx(0, 3));
        }
        c.push(Gate::cx(1, 2));
        c
    }

    #[test]
    fn identity_is_identity() {
        let d = devices::ibmqx5();
        let p = place(&chain_circuit(), &d, PlacementStrategy::Identity);
        assert!(p.is_identity());
        assert_eq!(p.physical(3), 3);
    }

    #[test]
    fn apply_relabels_and_widens() {
        let d = devices::ibmqx5();
        let p = Placement::identity(4);
        let placed = p.apply(&chain_circuit(), &d);
        assert_eq!(placed.n_qubits(), 16);
        assert_eq!(placed.gates()[0], Gate::cx(0, 3));
    }

    #[test]
    fn greedy_places_heavy_pairs_adjacent() {
        let d = devices::ibmqx5();
        let c = chain_circuit();
        let p = place(&c, &d, PlacementStrategy::Greedy);
        // The heavy pair (0,3) must land on adjacent qubits.
        assert!(d.are_adjacent(p.physical(0), p.physical(3)));
        // All assignments distinct.
        let mut seen = qsyn_qmdd::FxHashSet::default();
        for l in 0..4 {
            assert!(seen.insert(p.physical(l)));
        }
    }

    #[test]
    fn greedy_reduces_routing_pressure_vs_identity() {
        // A circuit whose identity placement is poor on ibmqx3: line 5
        // talks to line 10 (the Fig. 5 pair) repeatedly.
        let d = devices::ibmqx3();
        let mut c = Circuit::new(11);
        for _ in 0..4 {
            c.push(Gate::cx(5, 10));
        }
        let ident = Placement::identity(11);
        let greedy = place(&c, &d, PlacementStrategy::Greedy);
        assert!(
            routing_pressure(&c, &d, &greedy) <= routing_pressure(&c, &d, &ident),
            "greedy should not be worse"
        );
        assert!(d.are_adjacent(greedy.physical(5), greedy.physical(10)));
    }

    #[test]
    fn annealed_never_worse_than_greedy() {
        let d = devices::ibmqx3();
        let mut c = Circuit::new(12);
        for (a, b) in [(0, 11), (5, 10), (2, 9), (0, 5), (11, 10), (3, 7)] {
            for _ in 0..2 {
                c.push(Gate::cx(a, b));
            }
        }
        let g = place(&c, &d, PlacementStrategy::Greedy);
        let a = place(&c, &d, PlacementStrategy::Annealed);
        assert!(
            routing_pressure(&c, &d, &a) <= routing_pressure(&c, &d, &g),
            "annealing starts from greedy and keeps the best seen"
        );
        // Valid assignment: distinct physical hosts.
        let mut seen = qsyn_qmdd::FxHashSet::default();
        for l in 0..12 {
            assert!(seen.insert(a.physical(l)));
        }
    }

    #[test]
    fn annealed_is_deterministic() {
        let d = devices::ibmqx5();
        let c = chain_circuit();
        let x = place(&c, &d, PlacementStrategy::Annealed);
        let y = place(&c, &d, PlacementStrategy::Annealed);
        assert_eq!(x, y);
    }

    #[test]
    fn placement_is_deterministic() {
        let d = devices::ibmqx5();
        let c = chain_circuit();
        let a = place(&c, &d, PlacementStrategy::Greedy);
        let b = place(&c, &d, PlacementStrategy::Greedy);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "wider than device")]
    fn rejects_oversized_circuit() {
        let d = devices::ibmqx2();
        let c = Circuit::new(6);
        let _ = place(&c, &d, PlacementStrategy::Identity);
    }
}
