//! Quantum device architecture model: qubit count plus a directed CNOT
//! coupling map (paper Section 3).

use std::collections::BTreeSet;
use std::fmt;

/// The native two-qubit entangling gate of a technology library.
///
/// IBM's transmon machines expose a (directed) CNOT; several other
/// superconducting platforms expose a CZ instead, which is symmetric in
/// its operands so orientation reversal never arises. The back-end emits
/// whichever primitive the target library declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TwoQubitNative {
    /// Directed controlled-NOT (the IBM transmon library of the paper).
    #[default]
    Cnot,
    /// Controlled-Z (symmetric; CNOTs are realized as `H t; CZ; H t`).
    Cz,
}

/// A target quantum computer architecture.
///
/// A device is characterized by its qubit count and its *coupling map*: the
/// set of ordered pairs `(control, target)` on which a native two-qubit
/// gate may be placed. On the IBM transmon machines the CNOT is the only
/// two-qubit gate and each coupling is unidirectional, so a CNOT against
/// the arrow must be reversed with Hadamards (paper Fig. 6) and a CNOT
/// between uncoupled qubits must be rerouted with SWAPs (paper Fig. 4/5).
///
/// # Examples
///
/// ```
/// use qsyn_arch::Device;
/// let dev = Device::from_coupling_map("toy", 3, &[(0, &[1]), (1, &[2])]);
/// assert!(dev.has_coupling(0, 1));
/// assert!(!dev.has_coupling(1, 0));
/// assert!(dev.are_adjacent(1, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    n_qubits: usize,
    couplings: BTreeSet<(usize, usize)>,
    neighbors: Vec<Vec<usize>>, // undirected adjacency, sorted
    cnot_errors: std::collections::BTreeMap<(usize, usize), f64>,
    native: TwoQubitNative,
}

impl Device {
    /// Creates a device from a coupling map in the paper's dictionary form:
    /// each entry pairs a control qubit with the list of targets it may
    /// drive.
    ///
    /// # Panics
    ///
    /// Panics if a coupling references a qubit `>= n_qubits` or couples a
    /// qubit with itself.
    pub fn from_coupling_map(
        name: impl Into<String>,
        n_qubits: usize,
        map: &[(usize, &[usize])],
    ) -> Self {
        let mut couplings = BTreeSet::new();
        for (control, targets) in map {
            for target in *targets {
                assert!(
                    *control < n_qubits && *target < n_qubits,
                    "coupling out of range"
                );
                assert_ne!(control, target, "self-coupling");
                couplings.insert((*control, *target));
            }
        }
        Self::from_pairs(name, n_qubits, couplings)
    }

    /// Creates a device from explicit directed pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair references a qubit `>= n_qubits` or couples a qubit
    /// with itself.
    pub fn from_pairs(
        name: impl Into<String>,
        n_qubits: usize,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let couplings: BTreeSet<(usize, usize)> = pairs.into_iter().collect();
        let mut neighbors = vec![BTreeSet::new(); n_qubits];
        for &(c, t) in &couplings {
            assert!(c < n_qubits && t < n_qubits, "coupling out of range");
            assert_ne!(c, t, "self-coupling");
            neighbors[c].insert(t);
            neighbors[t].insert(c);
        }
        Device {
            name: name.into(),
            n_qubits,
            couplings,
            neighbors: neighbors
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            cnot_errors: std::collections::BTreeMap::new(),
            native: TwoQubitNative::Cnot,
        }
    }

    /// Declares the native two-qubit gate of this device's technology
    /// library (builder form; the default is [`TwoQubitNative::Cnot`]).
    pub fn with_native(mut self, native: TwoQubitNative) -> Self {
        self.native = native;
        self
    }

    /// The native two-qubit gate of this device's technology library.
    pub fn native(&self) -> TwoQubitNative {
        self.native
    }

    /// Whether a gate is directly executable on this device: any library
    /// one-qubit gate, plus the native two-qubit gate on a coupled pair
    /// (in either orientation for the symmetric CZ).
    pub fn supports(&self, gate: &qsyn_gate::Gate) -> bool {
        match gate {
            qsyn_gate::Gate::Single { .. } => true,
            qsyn_gate::Gate::Cx { control, target } => {
                self.native == TwoQubitNative::Cnot && self.has_coupling(*control, *target)
            }
            qsyn_gate::Gate::Cz { control, target } => {
                self.native == TwoQubitNative::Cz && self.are_adjacent(*control, *target)
            }
            _ => false,
        }
    }

    /// Annotates a native coupling with its CNOT error probability
    /// (device characterization data; used by fidelity-aware routing and
    /// the fidelity cost model).
    ///
    /// # Panics
    ///
    /// Panics if the coupling does not exist or the probability is not in
    /// `[0, 1)`.
    pub fn set_cnot_error(&mut self, control: usize, target: usize, error: f64) {
        assert!(
            self.has_coupling(control, target),
            "no coupling {control} -> {target}"
        );
        assert!(
            (0.0..1.0).contains(&error),
            "error probability out of range"
        );
        self.cnot_errors.insert((control, target), error);
    }

    /// Builder form of [`Device::set_cnot_error`] for many couplings.
    ///
    /// # Panics
    ///
    /// See [`Device::set_cnot_error`].
    pub fn with_cnot_errors(
        mut self,
        errors: impl IntoIterator<Item = ((usize, usize), f64)>,
    ) -> Self {
        for ((c, t), e) in errors {
            self.set_cnot_error(c, t, e);
        }
        self
    }

    /// The characterized CNOT error probability of a native coupling, or
    /// `None` when the coupling exists but has no annotation.
    ///
    /// # Panics
    ///
    /// Panics if the coupling does not exist.
    pub fn cnot_error(&self, control: usize, target: usize) -> Option<f64> {
        assert!(
            self.has_coupling(control, target),
            "no coupling {control} -> {target}"
        );
        self.cnot_errors.get(&(control, target)).copied()
    }

    /// Whether any coupling carries characterization data.
    pub fn has_error_data(&self) -> bool {
        !self.cnot_errors.is_empty()
    }

    /// Stable 128-bit fingerprint of everything that can influence a
    /// compilation: name, width, the directed coupling set, per-coupling
    /// error annotations (exact IEEE-754 bits) and the native two-qubit
    /// gate. Devices are stored in `BTree` containers, so iteration — and
    /// hence the digest — is deterministic.
    ///
    /// The name *is* included: compiled circuits are tagged
    /// `circuit@device`, so two structurally identical devices with
    /// different names must not share cache entries (their outputs differ
    /// byte-for-byte in the name tag).
    pub fn fingerprint(&self) -> u128 {
        let mut h = qsyn_circuit::Fnv128::new();
        h.write_str(&self.name);
        h.write_usize(self.n_qubits);
        h.write_usize(self.couplings.len());
        for &(c, t) in &self.couplings {
            h.write_usize(c);
            h.write_usize(t);
        }
        h.write_usize(self.cnot_errors.len());
        for (&(c, t), &e) in &self.cnot_errors {
            h.write_usize(c);
            h.write_usize(t);
            h.write_f64(e);
        }
        h.write_u8(match self.native {
            TwoQubitNative::Cnot => 0,
            TwoQubitNative::Cz => 1,
        });
        h.finish()
    }

    /// A fully connected device (the paper's simulator target): every
    /// ordered pair is a legal CNOT placement and the coupling complexity
    /// is exactly one.
    pub fn simulator(n_qubits: usize) -> Self {
        let pairs =
            (0..n_qubits).flat_map(|c| (0..n_qubits).filter(move |&t| t != c).map(move |t| (c, t)));
        Device::from_pairs("simulator", n_qubits, pairs)
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Directed couplings `(control, target)` in sorted order.
    pub fn couplings(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.couplings.iter().copied()
    }

    /// Number of directed couplings.
    pub fn coupling_count(&self) -> usize {
        self.couplings.len()
    }

    /// Whether a native CNOT with this control and target exists.
    pub fn has_coupling(&self, control: usize, target: usize) -> bool {
        self.couplings.contains(&(control, target))
    }

    /// Whether two qubits are coupled in either direction (a CNOT can be
    /// realized natively or with the Fig. 6 reversal).
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.has_coupling(a, b) || self.has_coupling(b, a)
    }

    /// Undirected neighbors of a qubit, sorted ascending. Determines the
    /// deterministic exploration order of the CTR reroute search.
    pub fn neighbors(&self, qubit: usize) -> &[usize] {
        &self.neighbors[qubit]
    }

    /// The paper's *coupling complexity* metric (Section 3): the ratio of
    /// allowable CNOT couplings to the total number of ordered two-qubit
    /// permutations `n * (n - 1)`. One for a simulator, near zero for large
    /// sparse machines.
    pub fn coupling_complexity(&self) -> f64 {
        if self.n_qubits < 2 {
            return 0.0;
        }
        self.couplings.len() as f64 / (self.n_qubits * (self.n_qubits - 1)) as f64
    }

    /// Whether every gate of a circuit is directly executable on this
    /// device (library-supported gates on legal couplings).
    pub fn can_execute(&self, circuit: &qsyn_circuit::Circuit) -> bool {
        circuit.n_qubits() <= self.n_qubits && circuit.gates().iter().all(|g| self.supports(g))
    }

    /// Renders the directed coupling map as Graphviz DOT (the form the
    /// paper draws in Fig. 7 for its proposed 96-qubit machine).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  node [shape=circle];");
        for q in 0..self.n_qubits {
            let _ = writeln!(out, "  q{q};");
        }
        for (c, t) in &self.couplings {
            let _ = writeln!(out, "  q{c} -> q{t};");
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// BFS hop distances from `start` over the undirected coupling graph;
    /// unreachable qubits get `u32::MAX / 2`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= n_qubits`.
    pub fn distances_from(&self, start: usize) -> Vec<u32> {
        assert!(start < self.n_qubits, "qubit out of range");
        let mut dist = vec![u32::MAX / 2; self.n_qubits];
        dist[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(q) = queue.pop_front() {
            for &nb in self.neighbors(q) {
                if dist[nb] > dist[q] + 1 {
                    dist[nb] = dist[q] + 1;
                    queue.push_back(nb);
                }
            }
        }
        dist
    }

    /// Multi-source BFS hop distances (minimum over the seed set).
    ///
    /// # Panics
    ///
    /// Panics if any seed is out of range.
    pub fn distances_from_set(&self, seeds: &[usize]) -> Vec<u32> {
        let mut dist = vec![u32::MAX / 2; self.n_qubits];
        let mut queue = std::collections::VecDeque::new();
        for &s in seeds {
            assert!(s < self.n_qubits, "qubit out of range");
            dist[s] = 0;
            queue.push_back(s);
        }
        while let Some(q) = queue.pop_front() {
            for &nb in self.neighbors(q) {
                if dist[nb] > dist[q] + 1 {
                    dist[nb] = dist[q] + 1;
                    queue.push_back(nb);
                }
            }
        }
        dist
    }

    /// Undirected hop distance between two qubits (`None` if disconnected).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    pub fn distance(&self, a: usize, b: usize) -> Option<u32> {
        let d = self.distances_from(a)[b];
        (d < u32::MAX / 2).then_some(d)
    }

    /// Graph diameter: the largest pairwise hop distance (`None` for a
    /// disconnected map). A proxy for worst-case routing cost.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0u32;
        for q in 0..self.n_qubits {
            let row = self.distances_from(q);
            for &d in &row {
                if d >= u32::MAX / 2 {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// Whether the undirected coupling graph is connected (required for the
    /// CTR reroute to succeed between arbitrary qubit pairs).
    pub fn is_connected(&self) -> bool {
        if self.n_qubits == 0 {
            return true;
        }
        let mut seen = vec![false; self.n_qubits];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(q) = stack.pop() {
            for &nb in self.neighbors(q) {
                if !seen[nb] {
                    seen[nb] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.n_qubits
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} couplings, complexity {:.4})",
            self.name,
            self.n_qubits,
            self.couplings.len(),
            self.coupling_complexity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Device {
        Device::from_coupling_map("toy", 4, &[(0, &[1, 2]), (3, &[2])])
    }

    #[test]
    fn coupling_queries() {
        let d = toy();
        assert!(d.has_coupling(0, 1));
        assert!(!d.has_coupling(1, 0));
        assert!(d.are_adjacent(1, 0));
        assert!(!d.are_adjacent(0, 3));
        assert_eq!(d.coupling_count(), 3);
    }

    #[test]
    fn neighbors_are_sorted_and_undirected() {
        let d = toy();
        assert_eq!(d.neighbors(2), &[0, 3]);
        assert_eq!(d.neighbors(0), &[1, 2]);
        assert_eq!(d.neighbors(1), &[0]);
    }

    #[test]
    fn paper_example_coupling_complexity() {
        // Section 3: ibmqx2 has 6 couplings among 5 qubits -> 6/20 = 0.3.
        let d = Device::from_coupling_map(
            "ibmqx2",
            5,
            &[(0, &[1, 2]), (1, &[2]), (3, &[2, 4]), (4, &[2])],
        );
        assert!((d.coupling_complexity() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn simulator_has_complexity_one() {
        let d = Device::simulator(5);
        assert!((d.coupling_complexity() - 1.0).abs() < 1e-12);
        assert!(d.has_coupling(3, 1) && d.has_coupling(1, 3));
    }

    #[test]
    fn connectivity() {
        assert!(toy().is_connected());
        let disconnected = Device::from_coupling_map("d", 4, &[(0, &[1])]);
        assert!(!disconnected.is_connected());
        assert!(Device::simulator(1).is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = Device::from_coupling_map("bad", 2, &[(0, &[5])]);
    }

    #[test]
    #[should_panic(expected = "self-coupling")]
    fn rejects_self_coupling() {
        let _ = Device::from_coupling_map("bad", 2, &[(0, &[0])]);
    }

    #[test]
    fn distances_and_diameter() {
        let d = toy(); // 0->1, 0->2, 3->2: path graph 1-0-2-3
        assert_eq!(d.distance(1, 3), Some(3));
        assert_eq!(d.distance(0, 0), Some(0));
        assert_eq!(d.distance(0, 3), Some(2));
        assert_eq!(d.diameter(), Some(3));
        let row = d.distances_from(1);
        assert_eq!(row, vec![1, 0, 2, 3]);
        let multi = d.distances_from_set(&[1, 3]);
        assert_eq!(multi, vec![1, 0, 1, 0]);
        let disc = Device::from_coupling_map("d", 3, &[(0, &[1])]);
        assert_eq!(disc.distance(0, 2), None);
        assert_eq!(disc.diameter(), None);
    }

    #[test]
    fn native_gate_and_support_queries() {
        use qsyn_gate::Gate;
        let cnot_dev = toy();
        assert_eq!(cnot_dev.native(), TwoQubitNative::Cnot);
        assert!(cnot_dev.supports(&Gate::h(0)));
        assert!(cnot_dev.supports(&Gate::cx(0, 1)));
        assert!(!cnot_dev.supports(&Gate::cx(1, 0))); // wrong orientation
        assert!(!cnot_dev.supports(&Gate::cz(0, 1))); // wrong library
        assert!(!cnot_dev.supports(&Gate::toffoli(0, 1, 2)));

        let cz_dev = toy().with_native(TwoQubitNative::Cz);
        assert!(cz_dev.supports(&Gate::cz(0, 1)));
        assert!(cz_dev.supports(&Gate::cz(1, 0))); // CZ is symmetric
        assert!(!cz_dev.supports(&Gate::cz(0, 3))); // not adjacent
        assert!(!cz_dev.supports(&Gate::cx(0, 1)));
    }

    #[test]
    fn can_execute_whole_circuits() {
        use qsyn_circuit::Circuit;
        use qsyn_gate::Gate;
        let d = toy();
        let mut legal = Circuit::new(4);
        legal.push(Gate::h(3));
        legal.push(Gate::cx(0, 2));
        assert!(d.can_execute(&legal));
        let mut illegal = Circuit::new(4);
        illegal.push(Gate::cx(2, 0));
        assert!(!d.can_execute(&illegal));
        assert!(!d.can_execute(&Circuit::new(9))); // too wide
    }

    #[test]
    fn cnot_error_annotations() {
        let mut d = toy();
        assert!(!d.has_error_data());
        assert_eq!(d.cnot_error(0, 1), None);
        d.set_cnot_error(0, 1, 0.02);
        assert_eq!(d.cnot_error(0, 1), Some(0.02));
        assert!(d.has_error_data());
        let d2 = toy().with_cnot_errors([((0, 1), 0.01), ((3, 2), 0.05)]);
        assert_eq!(d2.cnot_error(3, 2), Some(0.05));
    }

    #[test]
    #[should_panic(expected = "no coupling")]
    fn cnot_error_requires_existing_coupling() {
        let mut d = toy();
        d.set_cnot_error(1, 0, 0.02); // only 0 -> 1 exists
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cnot_error_probability_bounds() {
        let mut d = toy();
        d.set_cnot_error(0, 1, 1.5);
    }

    #[test]
    fn dot_export_lists_every_coupling() {
        let d = toy();
        let dot = d.to_dot();
        assert!(dot.starts_with("digraph \"toy\" {"));
        assert!(dot.contains("q0 -> q1;"));
        assert!(dot.contains("q0 -> q2;"));
        assert!(dot.contains("q3 -> q2;"));
        assert!(!dot.contains("q1 -> q0;"), "direction preserved");
        assert_eq!(dot.matches("->").count(), d.coupling_count());
    }

    #[test]
    fn display_mentions_complexity() {
        let text = toy().to_string();
        assert!(text.contains("toy"));
        assert!(text.contains("complexity"));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let base = toy();
        assert_eq!(base.fingerprint(), toy().fingerprint(), "deterministic");

        // A renamed device is a *different* device (outputs carry the name).
        let renamed = Device::from_pairs("toy2", 4, base.couplings());
        assert_ne!(base.fingerprint(), renamed.fingerprint());

        // Reversing one coupling direction changes the digest.
        let mut flipped: Vec<(usize, usize)> = base.couplings().collect();
        let (c, t) = flipped[0];
        flipped[0] = (t, c);
        let flipped = Device::from_pairs("toy", 4, flipped);
        assert_ne!(base.fingerprint(), flipped.fingerprint());

        // Error annotations and the native gate both matter.
        let mut annotated = base.clone();
        annotated.set_cnot_error(0, 1, 0.02);
        assert_ne!(base.fingerprint(), annotated.fingerprint());
        let mut reannotated = base.clone();
        reannotated.set_cnot_error(0, 1, 0.03);
        assert_ne!(annotated.fingerprint(), reannotated.fingerprint());
        let cz = base.clone().with_native(TwoQubitNative::Cz);
        assert_ne!(base.fingerprint(), cz.fingerprint());
    }
}
