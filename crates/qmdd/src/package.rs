//! The QMDD package: hash-consed nodes, cached arithmetic, and circuit
//! construction.
//!
//! A QMDD (Miller & Thornton 2006) represents a `2^n x 2^n` complex matrix
//! as a directed acyclic graph. Each non-terminal vertex stands for one
//! qubit variable and has four outgoing edges for the four quadrants
//! `U00, U01, U10, U11` of the matrix at that level (paper Fig. 1). With a
//! fixed variable order and normalized edge weights the representation is
//! canonical: two circuits have the same matrix if and only if their QMDD
//! root edges are identical, which is how the compiler performs formal
//! verification.
//!
//! This implementation uses the *quasi-reduced* form (every non-zero path
//! visits every variable) so that level bookkeeping stays trivial; zero
//! matrices are the sole early-terminating edges.

use crate::ctable::{WeightId, WeightTable, W_ONE, W_ZERO};
use crate::fxhash::{FxHashMap, FxHashSet};
use qsyn_circuit::Circuit;
use qsyn_gate::{C64, Gate, Matrix};
use std::hash::{Hash, Hasher};

/// Index of a node in the package arena. `0` is the terminal.
pub type NodeId = u32;

/// The terminal vertex id.
pub const TERMINAL: NodeId = 0;

/// A weighted edge into the diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Destination node.
    pub node: NodeId,
    /// Interned complex weight multiplying the whole sub-diagram.
    pub weight: WeightId,
}

impl Edge {
    /// The edge representing the zero matrix.
    pub const ZERO: Edge = Edge {
        node: TERMINAL,
        weight: W_ZERO,
    };

    /// The terminal edge with weight one (the scalar `1`).
    pub const ONE: Edge = Edge {
        node: TERMINAL,
        weight: W_ONE,
    };

    /// Whether this edge denotes the zero matrix.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.weight == W_ZERO
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    edges: [Edge; 4],
}

/// A bounded, direct-mapped, generation-stamped compute table.
///
/// Each key hashes to exactly one slot; inserting over a live entry of the
/// current generation *evicts* it (counted by the caller). Invalidation —
/// needed after a garbage collection relocates node ids — is a single
/// generation bump instead of an `O(capacity)` clear, so sweeps stay cheap
/// no matter how full the table is.
///
/// Tables start at [`INITIAL_CACHE_SLOTS`] and double (rehashing their live
/// entries) once the evictions since the last resize exceed a quarter of
/// the slots, up to a fixed cap. Small checks thus never pay for zeroing
/// and faulting in a table sized for the largest ones.
#[derive(Debug)]
struct ComputeTable<K> {
    slots: Vec<Option<(K, Edge, u32)>>,
    generation: u32,
    /// Slot count the table may grow to (a power of two).
    cap: usize,
    /// Evictions since the last resize.
    pressure: usize,
}

impl<K: Hash + Eq + Copy> ComputeTable<K> {
    fn new(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        ComputeTable {
            slots: vec![None; INITIAL_CACHE_SLOTS.min(cap)],
            generation: 0,
            cap,
            pressure: 0,
        }
    }

    #[inline]
    fn slot(&self, key: &K) -> usize {
        let mut h = crate::fxhash::FxHasher::default();
        key.hash(&mut h);
        (h.finish() as usize) & (self.slots.len() - 1)
    }

    #[inline]
    fn get(&self, key: &K) -> Option<Edge> {
        let (k, v, generation) = self.slots[self.slot(key)]?;
        (generation == self.generation && k == *key).then_some(v)
    }

    /// Stores `key -> value`; returns `true` when a *different* live entry
    /// of the current generation was displaced.
    #[inline]
    fn insert(&mut self, key: K, value: Edge) -> bool {
        let i = self.slot(&key);
        let evicted =
            matches!(self.slots[i], Some((k, _, g)) if g == self.generation && k != key);
        self.slots[i] = Some((key, value, self.generation));
        if evicted {
            self.pressure += 1;
            if self.pressure > self.slots.len() / 4 && self.slots.len() < self.cap {
                self.grow();
            }
        }
        evicted
    }

    /// Doubles the table. A key's new slot index only adds the hash's next
    /// bit, so the live entries of distinct old slots never collide.
    fn grow(&mut self) {
        let doubled = vec![None; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        for (k, v, g) in old.into_iter().flatten() {
            if g == self.generation {
                let i = self.slot(&k);
                self.slots[i] = Some((k, v, g));
            }
        }
        self.pressure = 0;
    }

    /// Invalidates every entry in `O(1)` by advancing the generation.
    fn invalidate(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        // Once per 2^32 sweeps the stamp wraps and stale entries could
        // alias the new generation; clear for real on that boundary.
        if self.generation == 0 {
            self.slots.iter_mut().for_each(|s| *s = None);
        }
    }
}

/// Initial slot count of every compute table.
const INITIAL_CACHE_SLOTS: usize = 1 << 10;

/// Default slot caps of the bounded compute tables. `add`/`mul` carry the
/// recursive arithmetic and may grow large; the adjoint memo is touched
/// once per distinct node and stays small.
const ADD_CACHE_SLOTS: usize = 1 << 15;
const MUL_CACHE_SLOTS: usize = 1 << 15;
const ADJ_CACHE_SLOTS: usize = 1 << 12;

/// A 2x2 complex matrix used when assembling gate diagrams.
pub type M2 = [[C64; 2]; 2];

/// The QMDD package for diagrams over a fixed number of qubit variables.
///
/// Variable `0` is the top-most qubit (most significant basis bit),
/// matching the `x0 -> x1 -> ...` order of the paper.
///
/// # Examples
///
/// ```
/// use qsyn_qmdd::Qmdd;
/// use qsyn_circuit::Circuit;
/// use qsyn_gate::Gate;
///
/// let mut a = Circuit::new(2);
/// a.push(Gate::swap(0, 1));
/// let mut b = Circuit::new(2);
/// b.push(Gate::cx(0, 1));
/// b.push(Gate::cx(1, 0));
/// b.push(Gate::cx(0, 1));
///
/// let mut pkg = Qmdd::new(2);
/// let ea = pkg.circuit(&a);
/// let eb = pkg.circuit(&b);
/// assert_eq!(ea, eb); // canonical: pointer equality is matrix equality
/// ```
#[derive(Debug)]
pub struct Qmdd {
    n: usize,
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, [Edge; 4]), NodeId>,
    weights: WeightTable,
    add_cache: ComputeTable<(NodeId, NodeId, WeightId)>,
    mul_cache: ComputeTable<(NodeId, NodeId)>,
    adj_cache: ComputeTable<NodeId>,
    /// Externally registered roots that every collection must preserve.
    protected: Vec<Edge>,
    /// `ident[l]` is the identity node over levels `l..n` (the terminal at
    /// `n`); empty until first needed and after every collection.
    ident: Vec<NodeId>,
    /// Scratch buffers reused across collections and gate constructions.
    spare_nodes: Vec<Node>,
    gc_map: FxHashMap<NodeId, NodeId>,
    gc_stack: Vec<NodeId>,
    ctrl_mask: Vec<bool>,
    peak_nodes: usize,
    gc_threshold: usize,
    /// Arena-size ceiling; crossing it latches [`Qmdd::budget_exceeded`].
    node_budget: Option<usize>,
    budget_exceeded: bool,
    ct_lookups: u64,
    ct_hits: u64,
    ct_evictions: u64,
    gc_runs: u64,
    nodes_reclaimed: u64,
}

/// Compute-table and garbage-collection counters of a [`Qmdd`] package.
///
/// Exposed so the compiler's trace layer can report how effectively the
/// memoization caches are absorbing recursive arithmetic during
/// verification, and how much dead graph the collector reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cache probes performed by `add` and `mul`.
    pub lookups: u64,
    /// Probes answered from the cache.
    pub hits: u64,
    /// Live compute-table entries displaced by newer results (the tables
    /// are bounded and direct-mapped, so collisions overwrite).
    pub evictions: u64,
    /// Completed mark-and-sweep collections.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub nodes_reclaimed: u64,
}

impl CacheStats {
    /// Fraction of probes answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

impl Qmdd {
    /// Creates a package for diagrams over `n` qubits.
    pub fn new(n: usize) -> Self {
        Qmdd {
            n,
            nodes: vec![Node {
                var: u32::MAX,
                edges: [Edge::ZERO; 4],
            }],
            unique: FxHashMap::default(),
            weights: WeightTable::new(),
            add_cache: ComputeTable::new(ADD_CACHE_SLOTS),
            mul_cache: ComputeTable::new(MUL_CACHE_SLOTS),
            adj_cache: ComputeTable::new(ADJ_CACHE_SLOTS),
            protected: Vec::new(),
            ident: Vec::new(),
            spare_nodes: Vec::new(),
            gc_map: FxHashMap::default(),
            gc_stack: Vec::new(),
            ctrl_mask: Vec::new(),
            peak_nodes: 1,
            ct_lookups: 0,
            ct_hits: 0,
            ct_evictions: 0,
            gc_runs: 0,
            nodes_reclaimed: 0,
            gc_threshold: 1 << 22,
            node_budget: None,
            budget_exceeded: false,
        }
    }

    /// Number of qubit variables.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Current number of allocated nodes (including the terminal).
    pub fn node_count_total(&self) -> usize {
        self.nodes.len()
    }

    /// Largest arena size observed so far.
    pub fn peak_node_count(&self) -> usize {
        self.peak_nodes
    }

    /// Current number of entries in the unique (hash-cons) table.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Compute-table and collector counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.ct_lookups,
            hits: self.ct_hits,
            evictions: self.ct_evictions,
            gc_runs: self.gc_runs,
            nodes_reclaimed: self.nodes_reclaimed,
        }
    }

    /// Number of distinct interned complex weights.
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    /// Registers an external root that [`Qmdd::maybe_gc`] and
    /// [`Qmdd::compact`] must keep alive, returning a slot for
    /// [`Qmdd::protected`]. Use this when several diagrams are built in one
    /// package and an earlier root must survive collections triggered while
    /// constructing a later one.
    pub fn protect(&mut self, e: Edge) -> usize {
        self.protected.push(e);
        self.protected.len() - 1
    }

    /// The (possibly relocated) current edge of a [`Qmdd::protect`] slot.
    pub fn protected(&self, slot: usize) -> Edge {
        self.protected[slot]
    }

    /// Interns a raw complex value as a weight id.
    pub fn intern_weight(&mut self, v: C64) -> WeightId {
        self.weights.intern(v)
    }

    /// Sets the arena size at which [`Qmdd::maybe_gc`] triggers a
    /// compacting collection (tuning/testing hook; the default is large
    /// enough that small workloads never collect).
    pub fn set_gc_threshold(&mut self, nodes: usize) {
        self.gc_threshold = nodes.max(2);
    }

    /// Caps the arena at `nodes` allocated nodes. Crossing the cap latches
    /// [`Qmdd::budget_exceeded`]; from then on `add`/`mul`/`adjoint` and
    /// [`Qmdd::circuit`] short-circuit to the zero edge, so the package
    /// stops growing instead of exhausting memory. The resulting diagrams
    /// are meaningless and callers must check the flag before trusting any
    /// edge built after the latch. `None` removes the cap.
    pub fn set_node_budget(&mut self, nodes: Option<usize>) {
        self.node_budget = nodes.map(|n| n.max(2));
    }

    /// The configured node budget, if any.
    pub fn node_budget(&self) -> Option<usize> {
        self.node_budget
    }

    /// Whether the arena has crossed the configured node budget. Latched:
    /// stays `true` (even across collections) until
    /// [`Qmdd::clear_budget_exceeded`].
    pub fn budget_exceeded(&self) -> bool {
        self.budget_exceeded
    }

    /// Resets the budget latch (e.g. after a [`Qmdd::compact`] freed space
    /// and the caller wants to retry a bounded computation).
    pub fn clear_budget_exceeded(&mut self) {
        self.budget_exceeded = false;
    }

    /// Caps the bounded add/mul compute tables at `entries` slots each
    /// (rounded up to a power of two, at least 16; existing entries are
    /// dropped). Each table restarts at `min(1024, cap)` slots and doubles
    /// under eviction pressure until it reaches the cap. A tuning/testing
    /// hook: tiny caps force evictions, large caps let busy checks trade
    /// memory for hit rate. The default cap is `2^15` slots.
    pub fn set_cache_capacity(&mut self, entries: usize) {
        self.add_cache = ComputeTable::new(entries);
        self.mul_cache = ComputeTable::new(entries);
    }

    /// Current slot counts of the `[add, mul, adjoint]` compute tables.
    pub fn cache_slots(&self) -> [usize; 3] {
        [
            self.add_cache.slots.len(),
            self.mul_cache.slots.len(),
            self.adj_cache.slots.len(),
        ]
    }

    /// The canonical complex value of a weight id.
    pub fn weight_value(&self, id: WeightId) -> C64 {
        self.weights.value(id)
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Variable index of an edge's destination (`u32::MAX` for terminal).
    pub fn var_of(&self, e: Edge) -> u32 {
        self.node(e.node).var
    }

    /// The four outgoing edges of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `e` points at the terminal.
    pub fn children(&self, e: Edge) -> [Edge; 4] {
        assert_ne!(e.node, TERMINAL, "terminal has no children");
        self.node(e.node).edges
    }

    /// Creates (or finds) the normalized node `(var; edges)` and returns a
    /// weighted edge to it.
    pub fn make_node(&mut self, var: u32, mut edges: [Edge; 4]) -> Edge {
        // Zero-weight edges must be the canonical zero edge.
        for e in &mut edges {
            if e.weight == W_ZERO {
                *e = Edge::ZERO;
            }
        }
        // Normalize: divide by the entry of maximal magnitude (ties broken
        // toward the smallest index) so that entry becomes exactly one.
        let mut max_abs = 0.0f64;
        for e in &edges {
            let a = self.weights.value(e.weight).abs();
            if a > max_abs {
                max_abs = a;
            }
        }
        if max_abs == 0.0 {
            return Edge::ZERO;
        }
        let mut idx = 0usize;
        for (i, e) in edges.iter().enumerate() {
            let a = self.weights.value(e.weight).abs();
            if a >= max_abs - 1e-9 * max_abs {
                idx = i;
                break;
            }
        }
        let norm = edges[idx].weight;
        for e in &mut edges {
            e.weight = self.weights.div(e.weight, norm);
        }
        let id = match self.unique.get(&(var, edges)) {
            Some(&id) => id,
            None => {
                let id = self.nodes.len() as NodeId;
                self.nodes.push(Node { var, edges });
                self.unique.insert((var, edges), id);
                self.peak_nodes = self.peak_nodes.max(self.nodes.len());
                if self.node_budget.is_some_and(|b| self.nodes.len() > b) {
                    self.budget_exceeded = true;
                }
                id
            }
        };
        Edge { node: id, weight: norm }
    }

    /// Scales an edge by an interned weight.
    pub fn scale(&mut self, e: Edge, w: WeightId) -> Edge {
        if e.is_zero() || w == W_ZERO {
            return Edge::ZERO;
        }
        Edge {
            node: e.node,
            weight: self.weights.mul(e.weight, w),
        }
    }

    /// Pointwise matrix sum of two diagrams.
    pub fn add(&mut self, a: Edge, b: Edge) -> Edge {
        if self.budget_exceeded {
            return Edge::ZERO;
        }
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            return Edge {
                node: TERMINAL,
                weight: self.weights.add(a.weight, b.weight),
            };
        }
        debug_assert_eq!(
            self.var_of(a),
            self.var_of(b),
            "quasi-reduced diagrams must align"
        );
        // Canonicalize the operand order (addition commutes) and factor the
        // first weight out so the cache is weight-normalized.
        let (a, b) = if (b.node, b.weight) < (a.node, a.weight) {
            (b, a)
        } else {
            (a, b)
        };
        let rel = self.weights.div(b.weight, a.weight);
        self.ct_lookups += 1;
        if let Some(hit) = self.add_cache.get(&(a.node, b.node, rel)) {
            self.ct_hits += 1;
            return self.scale(hit, a.weight);
        }
        let na = *self.node(a.node);
        let nb = *self.node(b.node);
        let mut edges = [Edge::ZERO; 4];
        for (i, slot) in edges.iter_mut().enumerate() {
            let eb = self.scale(nb.edges[i], rel);
            *slot = self.add(na.edges[i], eb);
        }
        let result = self.make_node(na.var, edges);
        self.ct_evictions += u64::from(self.add_cache.insert((a.node, b.node, rel), result));
        self.scale(result, a.weight)
    }

    /// Matrix product `a * b` of two diagrams.
    pub fn mul(&mut self, a: Edge, b: Edge) -> Edge {
        if self.budget_exceeded {
            return Edge::ZERO;
        }
        if a.is_zero() || b.is_zero() {
            return Edge::ZERO;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            return Edge {
                node: TERMINAL,
                weight: self.weights.mul(a.weight, b.weight),
            };
        }
        debug_assert_eq!(self.var_of(a), self.var_of(b));
        // An identity operand leaves the other one unchanged, so products
        // with a gate diagram stop at the gate's lowest qubit.
        let ident = self.ident.get(self.node(a.node).var as usize).copied();
        if ident == Some(a.node) {
            return self.scale(b, a.weight);
        }
        if ident == Some(b.node) {
            return self.scale(a, b.weight);
        }
        let w = self.weights.mul(a.weight, b.weight);
        self.ct_lookups += 1;
        if let Some(hit) = self.mul_cache.get(&(a.node, b.node)) {
            self.ct_hits += 1;
            return self.scale(hit, w);
        }
        let na = *self.node(a.node);
        let nb = *self.node(b.node);
        let mut edges = [Edge::ZERO; 4];
        for r in 0..2usize {
            for c in 0..2usize {
                // (A*B)_{rc} = A_{r0} B_{0c} + A_{r1} B_{1c}
                let t0 = self.mul(na.edges[2 * r], nb.edges[c]);
                let t1 = self.mul(na.edges[2 * r + 1], nb.edges[2 + c]);
                edges[2 * r + c] = self.add(t0, t1);
            }
        }
        let result = self.make_node(na.var, edges);
        self.ct_evictions += u64::from(self.mul_cache.insert((a.node, b.node), result));
        self.scale(result, w)
    }

    /// Conjugate transpose of a diagram (memoized; linear in the diagram
    /// size).
    pub fn adjoint(&mut self, e: Edge) -> Edge {
        if self.budget_exceeded {
            return Edge::ZERO;
        }
        if e.is_zero() {
            return Edge::ZERO;
        }
        if e.node == TERMINAL {
            return Edge {
                node: TERMINAL,
                weight: self.weights.conj(e.weight),
            };
        }
        let sub = if let Some(hit) = self.adj_cache.get(&e.node) {
            hit
        } else {
            let n = *self.node(e.node);
            let e00 = self.adjoint(n.edges[0]);
            let e01 = self.adjoint(n.edges[2]); // transpose swaps 01 and 10
            let e10 = self.adjoint(n.edges[1]);
            let e11 = self.adjoint(n.edges[3]);
            let s = self.make_node(n.var, [e00, e01, e10, e11]);
            self.adj_cache.insert(e.node, s);
            s
        };
        let w = self.weights.conj(e.weight);
        self.scale(sub, w)
    }

    /// Diagram of a tensor product: `factor(l)` gives the 2x2 matrix at
    /// level `l`; identity factors are expressed as identity matrices.
    pub fn tensor(&mut self, factor: impl Fn(usize) -> M2) -> Edge {
        let mut e = Edge::ONE;
        for l in (0..self.n).rev() {
            let m = factor(l);
            let mut edges = [Edge::ZERO; 4];
            for r in 0..2usize {
                for c in 0..2usize {
                    let v = m[r][c];
                    if !v.is_zero() {
                        let w = self.weights.intern(v);
                        edges[2 * r + c] = self.scale(e, w);
                    }
                }
            }
            e = self.make_node(l as u32, edges);
        }
        e
    }

    /// The identity diagram over levels `level..n` (the scalar one at
    /// `n`), from a per-level table built on first use.
    fn identity_from(&mut self, level: usize) -> Edge {
        if self.ident.is_empty() {
            self.ident.resize(self.n + 1, TERMINAL);
            for l in (0..self.n).rev() {
                let below = Edge {
                    node: self.ident[l + 1],
                    weight: W_ONE,
                };
                self.ident[l] = self
                    .make_node(l as u32, [below, Edge::ZERO, Edge::ZERO, below])
                    .node;
            }
        }
        Edge {
            node: self.ident[level],
            weight: W_ONE,
        }
    }

    /// The identity diagram.
    pub fn identity(&mut self) -> Edge {
        self.identity_from(0)
    }

    /// Diagram of a one-qubit gate `u` acting on `qubit`.
    pub fn single(&mut self, qubit: usize, u: M2) -> Edge {
        assert!(qubit < self.n, "qubit out of range");
        self.controlled(&[], qubit, u)
    }

    /// Diagram of `u` on `target` controlled on every qubit in `controls`
    /// being |1>.
    ///
    /// Built bottom-up in one pass from `G = I + (U - I)_target ⊗ P`, where
    /// `P` projects onto all-controls-one; no diagram arithmetic runs.
    /// Below the target one track per entry `(r, c)` of `U` holds
    /// `δ_rc·I + (U_rc - δ_rc)·P_below`: a control level wraps it as
    /// `[δ_rc·I, 0, 0, track]`, any other level as `[track, 0, 0, track]`,
    /// and below the lowest control every track is `U_rc·I`. The target
    /// level joins the four tracks into one node. Above it, a control
    /// level becomes `[I, 0, 0, e]` and any other level `[e, 0, 0, e]`.
    /// Every identity factor comes from the cached per-level table, so the
    /// cost is one node lookup per level above the lowest touched qubit.
    pub fn controlled(&mut self, controls: &[usize], target: usize, u: M2) -> Edge {
        assert!(target < self.n, "target out of range");
        // Reusable control mask: O(n + k) per gate instead of O(n * k)
        // `contains` scans per level.
        let mut mask = std::mem::take(&mut self.ctrl_mask);
        mask.clear();
        mask.resize(self.n, false);
        for &c in controls {
            mask[c] = true;
        }
        let lowest = controls.iter().copied().fold(target, usize::max);
        let below = self.identity_from(lowest + 1);
        let mut tracks = [Edge::ZERO; 4];
        for (k, track) in tracks.iter_mut().enumerate() {
            let v = u[k / 2][k % 2];
            if !v.is_zero() {
                let w = self.weights.intern(v);
                *track = self.scale(below, w);
            }
        }
        for l in (target + 1..=lowest).rev() {
            let id = self.identity_from(l + 1);
            for (k, track) in tracks.iter_mut().enumerate() {
                let low = match (mask[l], k) {
                    (false, _) => *track,
                    (true, 0 | 3) => id,
                    (true, _) => Edge::ZERO,
                };
                *track = self.make_node(l as u32, [low, Edge::ZERO, Edge::ZERO, *track]);
            }
        }
        let mut e = self.make_node(target as u32, tracks);
        for l in (0..target).rev() {
            let low = if mask[l] { self.identity_from(l + 1) } else { e };
            e = self.make_node(l as u32, [low, Edge::ZERO, Edge::ZERO, e]);
        }
        self.ctrl_mask = mask;
        e
    }

    /// Diagram of an arbitrary [`Gate`].
    pub fn gate(&mut self, g: &Gate) -> Edge {
        match g {
            Gate::Single { op, qubit } => {
                let m = op.matrix();
                let u = [[m[(0, 0)], m[(0, 1)]], [m[(1, 0)], m[(1, 1)]]];
                self.single(*qubit, u)
            }
            Gate::Cx { control, target } => {
                let x = x_matrix();
                self.controlled(&[*control], *target, x)
            }
            Gate::Cz { control, target } => {
                let z = [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]];
                self.controlled(&[*control], *target, z)
            }
            Gate::Swap { a, b } => {
                let x = x_matrix();
                let c1 = self.controlled(&[*a], *b, x);
                let c2 = self.controlled(&[*b], *a, x);
                let p = self.mul(c2, c1);
                self.mul(c1, p)
            }
            Gate::Mct { controls, target } => {
                let x = x_matrix();
                self.controlled(controls, *target, x)
            }
        }
    }

    /// Diagram of a whole circuit (the product of its gate matrices).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the package.
    pub fn circuit(&mut self, c: &Circuit) -> Edge {
        assert!(c.n_qubits() <= self.n, "circuit wider than package");
        let mut acc = self.identity();
        for g in c.gates() {
            if self.budget_exceeded {
                return Edge::ZERO;
            }
            let ge = self.gate(g);
            acc = self.mul(ge, acc);
            acc = self.maybe_gc(acc);
        }
        acc
    }

    /// Triggers a compacting collection when the arena exceeds the GC
    /// threshold; returns the (possibly relocated) root. Roots registered
    /// with [`Qmdd::protect`] survive as well.
    pub fn maybe_gc(&mut self, root: Edge) -> Edge {
        if self.nodes.len() < self.gc_threshold {
            return root;
        }
        let mut roots = [root];
        self.compact(&mut roots);
        // Adaptive re-arm: collect again only after the live set has had
        // room to quadruple, so steady-state workloads are not swept on
        // every gate. The floor keeps tuned (small) watermarks effective.
        self.gc_threshold = (self.nodes.len() * 4).max(self.gc_threshold.min(1 << 22));
        roots[0]
    }

    /// Compacts the arena, keeping only nodes reachable from `roots` (and
    /// any [`Qmdd::protect`]-ed roots, which are rewritten in place), and
    /// rebuilds the weight table from the surviving edges. The bounded
    /// compute tables are invalidated by a generation bump; outstanding
    /// [`Edge`]s and [`WeightId`]s other than the passed/protected roots
    /// become stale.
    pub fn compact(&mut self, roots: &mut [Edge]) {
        let nodes_before = self.nodes.len();
        // Scratch reuse: the relocation map, DFS stack and the spare arena
        // buffer persist across collections, so a sweep allocates nothing
        // in steady state.
        let mut map = std::mem::take(&mut self.gc_map);
        let mut stack = std::mem::take(&mut self.gc_stack);
        let mut new_nodes = std::mem::take(&mut self.spare_nodes);
        map.clear();
        stack.clear();
        new_nodes.clear();
        map.insert(TERMINAL, TERMINAL);
        new_nodes.push(Node {
            var: u32::MAX,
            edges: [Edge::ZERO; 4],
        });
        let mut protected = std::mem::take(&mut self.protected);
        // Iterative post-order copy: a node is emitted once all children
        // have been relocated.
        for root in roots.iter_mut().chain(protected.iter_mut()) {
            stack.push(root.node);
            while let Some(&id) = stack.last() {
                if map.contains_key(&id) {
                    stack.pop();
                    continue;
                }
                let node = self.nodes[id as usize];
                let mut ready = true;
                for e in node.edges {
                    if !map.contains_key(&e.node) {
                        ready = false;
                        stack.push(e.node);
                    }
                }
                if ready {
                    stack.pop();
                    let mut edges = node.edges;
                    for e in &mut edges {
                        e.node = map[&e.node];
                    }
                    let new_id = new_nodes.len() as NodeId;
                    new_nodes.push(Node {
                        var: node.var,
                        edges,
                    });
                    map.insert(id, new_id);
                }
            }
            root.node = map[&root.node];
        }
        // Rebuild the complex (weight) table from surviving edges so dead
        // amplitudes minted by discarded intermediates are dropped too.
        let mut new_weights = WeightTable::new();
        let mut wmap: FxHashMap<WeightId, WeightId> = FxHashMap::default();
        let remap = |old: WeightId, wmap: &mut FxHashMap<WeightId, WeightId>,
                         new_weights: &mut WeightTable,
                         old_weights: &WeightTable| {
            *wmap
                .entry(old)
                .or_insert_with(|| new_weights.intern(old_weights.value(old)))
        };
        for node in new_nodes.iter_mut().skip(1) {
            for e in &mut node.edges {
                e.weight = remap(e.weight, &mut wmap, &mut new_weights, &self.weights);
            }
        }
        for root in roots.iter_mut().chain(protected.iter_mut()) {
            root.weight = remap(root.weight, &mut wmap, &mut new_weights, &self.weights);
        }
        self.weights = new_weights;
        self.unique.clear();
        for (i, n) in new_nodes.iter().enumerate().skip(1) {
            self.unique.insert((n.var, n.edges), i as NodeId);
        }
        self.spare_nodes = std::mem::replace(&mut self.nodes, new_nodes);
        self.protected = protected;
        self.gc_map = map;
        self.gc_stack = stack;
        self.ident.clear();
        self.add_cache.invalidate();
        self.mul_cache.invalidate();
        self.adj_cache.invalidate();
        self.gc_runs += 1;
        self.nodes_reclaimed += nodes_before.saturating_sub(self.nodes.len()) as u64;
    }

    /// Per-level node counts of a diagram: entry `l` is the number of
    /// distinct nodes at variable level `l` reachable from `e`. A
    /// compactness profile for diagnosing where a diagram grows.
    pub fn node_profile(&self, e: Edge) -> Vec<usize> {
        let mut profile = vec![0usize; self.n];
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![e.node];
        while let Some(id) = stack.pop() {
            if id == TERMINAL || !seen.insert(id) {
                continue;
            }
            profile[self.node(id).var as usize] += 1;
            for ch in self.node(id).edges {
                stack.push(ch.node);
            }
        }
        profile
    }

    /// Number of distinct non-terminal nodes reachable from `e`.
    pub fn node_count(&self, e: Edge) -> usize {
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![e.node];
        while let Some(id) = stack.pop() {
            if id == TERMINAL || !seen.insert(id) {
                continue;
            }
            for ch in self.node(id).edges {
                stack.push(ch.node);
            }
        }
        seen.len()
    }

    /// The non-zero entries of one column of the represented matrix: the
    /// amplitudes of `U |input>` as `(row, amplitude)` pairs, sorted by
    /// row.
    ///
    /// Runs in time proportional to the number of non-zero output
    /// amplitudes (one, for the permutation matrices of classical
    /// reversible circuits — which makes this a practical functional
    /// spot-check even on a 96-qubit register where dense expansion is
    /// impossible).
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^n`.
    pub fn basis_column(&self, e: Edge, input: u128) -> Vec<(u128, C64)> {
        assert!(self.n <= 128, "basis_column supports at most 128 qubits");
        assert!(
            self.n >= 128 || input < (1u128 << self.n),
            "basis state out of range"
        );
        let mut out = Vec::new();
        self.column_walk(e, input, 0, 0, C64::ONE, &mut out);
        out.sort_by_key(|(row, _)| *row);
        out
    }

    fn column_walk(
        &self,
        e: Edge,
        input: u128,
        var: usize,
        row: u128,
        acc: C64,
        out: &mut Vec<(u128, C64)>,
    ) {
        if e.is_zero() {
            return;
        }
        let w = acc * self.weights.value(e.weight);
        if e.node == TERMINAL {
            out.push((row, w));
            return;
        }
        let col_bit = (input >> (self.n - 1 - var)) & 1;
        let node = self.node(e.node);
        for r in 0..2u128 {
            self.column_walk(
                node.edges[(2 * r + col_bit) as usize],
                input,
                var + 1,
                row << 1 | r,
                w,
                out,
            );
        }
    }

    /// The trace of the represented matrix, computed on the diagram
    /// (linear in the diagram size, so it works at any register width).
    pub fn trace(&self, e: Edge) -> C64 {
        let mut memo: crate::fxhash::FxHashMap<NodeId, C64> = crate::fxhash::FxHashMap::default();
        self.trace_rec(e, self.n as u32, &mut memo)
    }

    fn trace_rec(
        &self,
        e: Edge,
        levels_below: u32,
        memo: &mut crate::fxhash::FxHashMap<NodeId, C64>,
    ) -> C64 {
        if e.is_zero() {
            return C64::ZERO;
        }
        let w = self.weights.value(e.weight);
        if e.node == TERMINAL {
            // A scalar standing for an identity-weighted block: each of
            // the remaining levels doubles the diagonal sum only when the
            // edge skipped levels — in quasi-reduced form a non-zero
            // terminal edge sits at the bottom, so levels_below is 0.
            debug_assert_eq!(levels_below, 0, "quasi-reduced form");
            return w;
        }
        let node = self.node(e.node);
        let sub = if let Some(&hit) = memo.get(&e.node) {
            hit
        } else {
            let t0 = self.trace_rec(node.edges[0], levels_below - 1, memo);
            let t1 = self.trace_rec(node.edges[3], levels_below - 1, memo);
            let s = t0 + t1;
            memo.insert(e.node, s);
            s
        };
        w * sub
    }

    /// Expands a diagram to a dense matrix (tests and small circuits only).
    pub fn to_matrix(&self, e: Edge) -> Matrix {
        let dim = 1usize << self.n;
        let mut m = Matrix::zeros(dim);
        self.fill(e, 0, 0, 0, C64::ONE, &mut m);
        m
    }

    fn fill(&self, e: Edge, var: usize, row: usize, col: usize, acc: C64, m: &mut Matrix) {
        if e.is_zero() {
            return;
        }
        let w = acc * self.weights.value(e.weight);
        if e.node == TERMINAL {
            debug_assert_eq!(var, self.n, "nonzero terminal edge above bottom");
            m[(row, col)] += w;
            return;
        }
        let node = self.node(e.node);
        for r in 0..2usize {
            for c in 0..2usize {
                self.fill(
                    node.edges[2 * r + c],
                    var + 1,
                    row << 1 | r,
                    col << 1 | c,
                    w,
                    m,
                );
            }
        }
    }
}

fn x_matrix() -> M2 {
    [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::SingleOp;

    fn check_gate_matches_dense(g: Gate, n: usize) {
        let mut pkg = Qmdd::new(n);
        let e = pkg.gate(&g);
        let dd = pkg.to_matrix(e);
        let dense = g.to_matrix(n);
        assert!(dd.approx_eq(&dense), "gate {g} mismatch\nDD:\n{dd}\ndense:\n{dense}");
    }

    #[test]
    fn single_qubit_gates_match_dense() {
        for op in qsyn_gate::SINGLE_OPS {
            for q in 0..3 {
                check_gate_matches_dense(Gate::single(op, q), 3);
            }
        }
    }

    #[test]
    fn cnot_both_orientations_match_dense() {
        check_gate_matches_dense(Gate::cx(0, 1), 2);
        check_gate_matches_dense(Gate::cx(1, 0), 2);
        check_gate_matches_dense(Gate::cx(0, 2), 3);
        check_gate_matches_dense(Gate::cx(2, 0), 3);
    }

    #[test]
    fn control_below_target_works() {
        // The direct construction must not care about level order.
        check_gate_matches_dense(Gate::cx(2, 0), 4);
        check_gate_matches_dense(Gate::mct(vec![1, 3], 0), 4);
        check_gate_matches_dense(Gate::mct(vec![0, 3], 1), 4);
    }

    #[test]
    fn cz_swap_toffoli_match_dense() {
        check_gate_matches_dense(Gate::cz(0, 1), 2);
        check_gate_matches_dense(Gate::cz(1, 0), 3);
        check_gate_matches_dense(Gate::swap(0, 1), 2);
        check_gate_matches_dense(Gate::swap(0, 2), 3);
        check_gate_matches_dense(Gate::toffoli(0, 1, 2), 3);
        check_gate_matches_dense(Gate::toffoli(1, 2, 0), 3);
        check_gate_matches_dense(Gate::mct(vec![0, 1, 2], 3), 4);
    }

    #[test]
    fn fig1_cnot_qmdd_structure() {
        // Paper Fig. 1: CNOT with control x0, target x1 has a root whose
        // U01 and U10 quadrants are zero, U00 is the identity sub-matrix,
        // and U11 is the X sub-matrix; three non-terminal vertices total.
        let mut pkg = Qmdd::new(2);
        let e = pkg.gate(&Gate::cx(0, 1));
        assert_eq!(pkg.var_of(e), 0);
        let ch = pkg.children(e);
        assert!(ch[1].is_zero() && ch[2].is_zero());
        assert!(!ch[0].is_zero() && !ch[3].is_zero());
        assert_ne!(ch[0].node, ch[3].node, "identity and X submatrices differ");
        assert_eq!(pkg.node_count(e), 3);
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let mut pkg = Qmdd::new(3);
        let id = pkg.identity();
        let h = pkg.gate(&Gate::h(1));
        let hi = pkg.mul(h, id);
        let ih = pkg.mul(id, h);
        assert_eq!(hi, h);
        assert_eq!(ih, h);
    }

    #[test]
    fn add_commutes_and_scales() {
        let mut pkg = Qmdd::new(2);
        let a = pkg.gate(&Gate::h(0));
        let b = pkg.gate(&Gate::cx(0, 1));
        let ab = pkg.add(a, b);
        let ba = pkg.add(b, a);
        assert_eq!(ab, ba);
        let da = pkg.to_matrix(a);
        let db = pkg.to_matrix(b);
        let mut expected = Matrix::zeros(4);
        for i in 0..4 {
            for j in 0..4 {
                expected[(i, j)] = da[(i, j)] + db[(i, j)];
            }
        }
        assert!(pkg.to_matrix(ab).approx_eq(&expected));
    }

    #[test]
    fn mul_matches_dense_product() {
        let mut pkg = Qmdd::new(3);
        let mut c1 = Circuit::new(3);
        c1.push(Gate::h(0));
        c1.push(Gate::cx(0, 1));
        c1.push(Gate::t(2));
        let mut c2 = Circuit::new(3);
        c2.push(Gate::cx(1, 2));
        c2.push(Gate::single(SingleOp::Sdg, 0));
        let e1 = pkg.circuit(&c1);
        let e2 = pkg.circuit(&c2);
        let prod = pkg.mul(e2, e1);
        let dense = c2.to_matrix().mul(&c1.to_matrix());
        assert!(pkg.to_matrix(prod).approx_eq(&dense));
    }

    #[test]
    fn canonicity_same_function_same_edge() {
        // SWAP as a native gate vs. as three CNOTs: identical root edges.
        let mut pkg = Qmdd::new(3);
        let mut a = Circuit::new(3);
        a.push(Gate::swap(1, 2));
        let mut b = Circuit::new(3);
        b.push(Gate::cx(1, 2));
        b.push(Gate::cx(2, 1));
        b.push(Gate::cx(1, 2));
        assert_eq!(pkg.circuit(&a), pkg.circuit(&b));
    }

    #[test]
    fn distinct_functions_distinct_edges() {
        let mut pkg = Qmdd::new(2);
        let mut a = Circuit::new(2);
        a.push(Gate::cx(0, 1));
        let mut b = Circuit::new(2);
        b.push(Gate::cx(1, 0));
        assert_ne!(pkg.circuit(&a), pkg.circuit(&b));
    }

    #[test]
    fn adjoint_matches_dense() {
        let mut pkg = Qmdd::new(2);
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::t(0));
        c.push(Gate::cx(0, 1));
        let e = pkg.circuit(&c);
        let adj = pkg.adjoint(e);
        assert!(pkg.to_matrix(adj).approx_eq(&c.to_matrix().adjoint()));
        // U * U^dagger = I
        let prod = pkg.mul(e, adj);
        let id = pkg.identity();
        assert_eq!(prod, id);
    }

    #[test]
    fn hadamard_weight_normalization() {
        // H's QMDD: all entries 1/sqrt(2); normalized node has weights
        // 1,1,1,-1 and the root weight carries the scale.
        let mut pkg = Qmdd::new(1);
        let e = pkg.gate(&Gate::h(0));
        let w = pkg.weight_value(e.weight);
        assert!((w.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        let ch = pkg.children(e);
        assert_eq!(ch[0].weight, W_ONE);
    }

    #[test]
    fn compact_preserves_semantics() {
        let mut pkg = Qmdd::new(3);
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::tdg(2));
        let before = pkg.circuit(&c);
        let dense = pkg.to_matrix(before);
        let mut roots = [before];
        pkg.compact(&mut roots);
        assert!(pkg.to_matrix(roots[0]).approx_eq(&dense));
        // After compaction the arena contains only reachable nodes.
        assert_eq!(pkg.node_count_total(), pkg.node_count(roots[0]) + 1);
        // And further operations still work.
        let h = pkg.gate(&Gate::h(0));
        let _ = pkg.mul(h, roots[0]);
    }

    #[test]
    fn basis_column_matches_dense() {
        let mut pkg = Qmdd::new(3);
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::toffoli(0, 1, 2));
        let e = pkg.circuit(&c);
        let dense = pkg.to_matrix(e);
        for input in 0..8u64 {
            let col = pkg.basis_column(e, input as u128);
            let mut nonzero = 0;
            for (row, amp) in &col {
                assert!(dense[(*row as usize, input as usize)].approx_eq(*amp));
                nonzero += 1;
            }
            for row in 0..8usize {
                if !dense[(row, input as usize)].is_zero() {
                    nonzero -= 1;
                }
            }
            assert_eq!(nonzero, 0, "column {input} entry count");
        }
    }

    #[test]
    fn basis_column_on_permutation_is_single_entry() {
        let mut pkg = Qmdd::new(4);
        let mut c = Circuit::new(4);
        c.push(Gate::mct(vec![0, 1, 2], 3));
        c.push(Gate::cx(3, 0));
        let e = pkg.circuit(&c);
        for input in 0..16u64 {
            let col = pkg.basis_column(e, input as u128);
            assert_eq!(col.len(), 1, "permutation column {input}");
            assert_eq!(col[0].0, c.permute_basis(input) as u128);
            assert!(col[0].1.is_one());
        }
    }

    #[test]
    fn node_profile_counts_levels() {
        let mut pkg = Qmdd::new(3);
        let id = pkg.identity();
        assert_eq!(pkg.node_profile(id), vec![1, 1, 1]);
        let e = pkg.gate(&Gate::cx(0, 2));
        let profile = pkg.node_profile(e);
        assert_eq!(profile.iter().sum::<usize>(), pkg.node_count(e));
        assert_eq!(profile[0], 1, "one root node");
    }

    #[test]
    fn automatic_gc_preserves_circuit_building() {
        // Force collections every few nodes and rebuild a circuit whose
        // result is known; the fold in `circuit` must survive relocation.
        let mut pkg = Qmdd::new(4);
        pkg.set_gc_threshold(8);
        let mut c = Circuit::new(4);
        for k in 0..6 {
            c.push(Gate::h(k % 4));
            c.push(Gate::cx(k % 4, (k + 1) % 4));
            c.push(Gate::t((k + 2) % 4));
        }
        let e = pkg.circuit(&c);
        let mut clean = Qmdd::new(4);
        let expected = clean.circuit(&c);
        assert!(pkg.to_matrix(e).approx_eq(&clean.to_matrix(expected)));
    }

    #[test]
    fn adjoint_is_an_involution() {
        let mut pkg = Qmdd::new(2);
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::t(1));
        c.push(Gate::cx(0, 1));
        let e = pkg.circuit(&c);
        let back = pkg.adjoint(e);
        let again = pkg.adjoint(back);
        assert_eq!(again, e, "adjoint twice is the identity map");
    }

    #[test]
    fn identity_diagram_is_linear_size() {
        for n in [1usize, 8, 64, 96] {
            let mut pkg = Qmdd::new(n);
            let id = pkg.identity();
            assert_eq!(pkg.node_count(id), n, "one shared node per level");
        }
    }

    #[test]
    fn weight_table_stays_bounded_on_clifford_t() {
        // Thousands of multiplications over the Clifford+T value ring must
        // not mint unbounded fresh weights (the snapping property).
        let mut pkg = Qmdd::new(3);
        let mut c = Circuit::new(3);
        let mut s = 7u64;
        for _ in 0..600 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match s % 4 {
                0 => c.push(Gate::h((s % 3) as usize)),
                1 => c.push(Gate::t((s % 3) as usize)),
                2 => c.push(Gate::tdg((s % 3) as usize)),
                _ => {
                    let a = (s % 3) as usize;
                    let b = ((s >> 8) % 3) as usize;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
            }
        }
        let e = pkg.circuit(&c);
        // The table grows with the circuit's true amplitude ring (new
        // denominators appear with depth), but snapping must keep the
        // numerics exact: after 600 gates the product is still exactly
        // unitary in the canonical representation.
        let adj = pkg.adjoint(e);
        let prod = pkg.mul(e, adj);
        let id = pkg.identity();
        assert_eq!(prod, id, "unitarity lost after deep product");
    }

    #[test]
    fn gc_counters_track_sweeps_and_reclaimed_nodes() {
        let mut pkg = Qmdd::new(4);
        pkg.set_gc_threshold(8);
        let mut c = Circuit::new(4);
        for k in 0..8 {
            c.push(Gate::h(k % 4));
            c.push(Gate::cx(k % 4, (k + 1) % 4));
            c.push(Gate::t((k + 2) % 4));
        }
        let _ = pkg.circuit(&c);
        let stats = pkg.cache_stats();
        assert!(stats.gc_runs > 0, "forced watermark must trigger sweeps");
        assert!(stats.nodes_reclaimed > 0, "sweeps must reclaim dead nodes");
    }

    #[test]
    fn protected_roots_survive_collections() {
        let mut pkg = Qmdd::new(3);
        let mut a = Circuit::new(3);
        a.push(Gate::swap(0, 2));
        let ea = pkg.circuit(&a);
        let dense = pkg.to_matrix(ea);
        let slot = pkg.protect(ea);
        // Collect on essentially every gate of the second build.
        pkg.set_gc_threshold(2);
        let mut b = Circuit::new(3);
        b.push(Gate::h(0));
        b.push(Gate::cx(0, 1));
        b.push(Gate::toffoli(0, 1, 2));
        let _ = pkg.circuit(&b);
        assert!(pkg.cache_stats().gc_runs > 0, "sweeps must have happened");
        let ea_now = pkg.protected(slot);
        assert!(
            pkg.to_matrix(ea_now).approx_eq(&dense),
            "protected root semantics must survive relocation"
        );
    }

    #[test]
    fn bounded_compute_table_evicts_and_stays_correct() {
        let mut pkg = Qmdd::new(4);
        pkg.set_cache_capacity(16); // tiny: force collisions
        let mut c = Circuit::new(4);
        let mut s = 11u64;
        for _ in 0..120 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match s % 4 {
                0 => c.push(Gate::h((s % 4) as usize)),
                1 => c.push(Gate::t((s % 4) as usize)),
                2 => c.push(Gate::tdg((s % 4) as usize)),
                _ => {
                    let a = (s % 4) as usize;
                    let b = ((s >> 8) % 4) as usize;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
            }
        }
        let e = pkg.circuit(&c);
        assert!(pkg.cache_stats().evictions > 0, "tiny table must evict");
        let mut clean = Qmdd::new(4);
        let expected = clean.circuit(&c);
        assert!(pkg.to_matrix(e).approx_eq(&clean.to_matrix(expected)));
    }

    #[test]
    fn compact_rebuilds_weight_table() {
        let mut pkg = Qmdd::new(3);
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::h(q));
            c.push(Gate::t(q));
        }
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        let before = pkg.circuit(&c);
        let dense = pkg.to_matrix(before);
        let weights_before = pkg.weight_count();
        let mut roots = [before];
        pkg.compact(&mut roots);
        assert!(
            pkg.weight_count() <= weights_before,
            "sweep must not mint weights"
        );
        assert!(pkg.to_matrix(roots[0]).approx_eq(&dense));
        // Arithmetic still works against the rebuilt weight table.
        let h = pkg.gate(&Gate::h(0));
        let adj = pkg.adjoint(roots[0]);
        let _ = pkg.mul(h, adj);
    }

    #[test]
    fn node_budget_latches_and_halts_growth() {
        let mut pkg = Qmdd::new(6);
        pkg.set_node_budget(Some(16));
        let mut c = Circuit::new(6);
        let mut s = 5u64;
        for _ in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match s % 3 {
                0 => c.push(Gate::h((s % 6) as usize)),
                1 => c.push(Gate::t((s % 6) as usize)),
                _ => {
                    let a = (s % 6) as usize;
                    let b = ((s >> 8) % 6) as usize;
                    if a != b {
                        c.push(Gate::cx(a, b));
                    }
                }
            }
        }
        let e = pkg.circuit(&c);
        assert!(pkg.budget_exceeded(), "dense 6-qubit build must blow 16 nodes");
        assert!(e.is_zero(), "poisoned build must return the zero edge");
        // Growth halts promptly: the arena overshoots the cap by at most
        // the allocations of the gate under construction, never the ~2^6
        // node diagrams this circuit actually needs.
        assert!(
            pkg.node_count_total() < 64,
            "arena kept growing after the latch: {}",
            pkg.node_count_total()
        );
        // Arithmetic short-circuits while latched.
        let id = pkg.identity();
        assert!(pkg.mul(id, id).is_zero());
        assert!(pkg.add(id, id).is_zero());
        assert!(pkg.adjoint(id).is_zero());
    }

    #[test]
    fn budget_latch_clears_and_package_recovers() {
        let mut pkg = Qmdd::new(2);
        pkg.set_node_budget(Some(2));
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let _ = pkg.circuit(&c);
        assert!(pkg.budget_exceeded());
        pkg.set_node_budget(None);
        pkg.clear_budget_exceeded();
        let e = pkg.circuit(&c);
        assert!(!e.is_zero(), "cleared package must compute normally again");
        let mut clean = Qmdd::new(2);
        let expected = clean.circuit(&c);
        assert!(pkg.to_matrix(e).approx_eq(&clean.to_matrix(expected)));
    }

    #[test]
    fn generous_budget_never_latches() {
        let mut pkg = Qmdd::new(3);
        pkg.set_node_budget(Some(1 << 20));
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::toffoli(0, 1, 2));
        let e = pkg.circuit(&c);
        assert!(!pkg.budget_exceeded());
        let mut clean = Qmdd::new(3);
        let expected = clean.circuit(&c);
        assert!(pkg.to_matrix(e).approx_eq(&clean.to_matrix(expected)));
    }

    #[test]
    fn long_product_stays_exact() {
        // T applied eight times is the identity; snapping must keep this
        // exact through the weight table.
        let mut pkg = Qmdd::new(1);
        let mut c = Circuit::new(1);
        for _ in 0..8 {
            c.push(Gate::t(0));
        }
        let e = pkg.circuit(&c);
        let id = pkg.identity();
        assert_eq!(e, id);
    }
}
