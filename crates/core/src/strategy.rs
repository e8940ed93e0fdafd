//! Pluggable routing strategies: the trait behind every router, the
//! paper-exact [`CtrStrategy`], the SABRE-style [`LookaheadStrategy`], and
//! the [`PersistentStrategy`] layout router.
//!
//! The paper's CTR router (Figs. 4 and 5) legalizes one CNOT at a time:
//! SWAP the control out along a BFS tree path, execute, SWAP back. That is
//! correct and simple, but second-generation routers do markedly better by
//! letting the layout drift or by looking *ahead*: a SWAP that helps the
//! next gate often helps the ten gates after it too. This module turns
//! routing into a first-class extension point, and the compiler routes
//! every circuit through it:
//!
//! * [`RoutingStrategy`] — the trait: one [`RouteRequest`] in (circuit,
//!   device, objective, SWAP cap, shared routing table or oracle), one
//!   [`RouteOutcome`] out (routed circuit plus SWAP counters);
//! * [`CtrStrategy`] — the paper's router re-homed behind the trait,
//!   byte-identical to the per-gate search;
//! * [`LookaheadStrategy`] — a bidirectional SABRE-style search
//!   (Li/Ding/Xie): SWAPs persist, candidates are scored against a
//!   decaying window of future two-qubit gates using the precomputed
//!   hop / negative-log-fidelity distance matrices of the shared
//!   [`RoutingTable`], and one restoration network at the end returns
//!   every line home so the result stays QMDD-verifiable;
//! * [`PersistentStrategy`] — shortest-path drifting SWAPs with one final
//!   restoration network ([`crate::remap`]);
//! * [`RouteStrategyKind`] — the registry the compiler and CLI select
//!   strategies through (`--route-strategy ctr|lookahead|persistent|auto`),
//!   with `auto` resolved from the cost model's
//!   [`RouteHint`].

use crate::cache::{DistanceOracle, RoutingTable};
use crate::error::CompileError;
use crate::remap::{restoration_swaps, route_circuit_persistent_traced, Layout};
use crate::route::{
    emit_adjacent_cnot, emit_adjacent_cz, emit_adjacent_swap, RoutingObjective,
};
use qsyn_arch::{Device, RouteHint, TwoQubitNative};
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;
use std::sync::Arc;

/// Everything a [`RoutingStrategy`] needs to legalize one circuit.
///
/// Built with [`RouteRequest::new`] plus the `with_*` setters; the
/// defaults are the paper's (fewest-SWAPs objective, no cap, no shared
/// table).
pub struct RouteRequest<'a> {
    /// The technology-ready circuit to legalize (CNOT/CZ + one-qubit
    /// gates; run decomposition first).
    pub circuit: &'a Circuit,
    /// The target coupling map.
    pub device: &'a Device,
    /// What SWAP chains should minimize.
    pub objective: RoutingObjective,
    /// Abort with [`CompileError::BudgetExceeded`] when more than this
    /// many adjacent SWAPs would be inserted (`None` = unbounded); the cap
    /// a [`CompileBudget`](crate::CompileBudget) sets.
    pub max_swaps: Option<usize>,
    /// The shared precomputed routing table for `(device, objective)`.
    /// `None` makes strategies recompute distances locally (the
    /// table-less reference path differential tests compare against).
    pub table: Option<Arc<RoutingTable>>,
    /// The shared sparse [`DistanceOracle`] for `(device, objective)`,
    /// the large-device alternative to `table`: distances are answered
    /// from memoized per-source rows instead of a dense matrix. When both
    /// a table and an oracle are set the oracle wins (the compiler sets
    /// exactly one, per the [`routing_lookup`](crate::routing_lookup)
    /// size threshold).
    pub oracle: Option<Arc<DistanceOracle>>,
}

impl<'a> RouteRequest<'a> {
    /// A request with the paper's defaults: fewest SWAPs, no cap, no
    /// shared table.
    pub fn new(circuit: &'a Circuit, device: &'a Device) -> Self {
        RouteRequest {
            circuit,
            device,
            objective: RoutingObjective::FewestSwaps,
            max_swaps: None,
            table: None,
            oracle: None,
        }
    }

    /// Sets the routing objective.
    pub fn with_objective(mut self, objective: RoutingObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Caps the total number of inserted SWAPs.
    pub fn with_max_swaps(mut self, max_swaps: Option<usize>) -> Self {
        self.max_swaps = max_swaps;
        self
    }

    /// Routes through a shared precomputed [`RoutingTable`].
    pub fn with_table(mut self, table: Arc<RoutingTable>) -> Self {
        self.table = Some(table);
        self
    }

    /// Routes through a shared sparse [`DistanceOracle`] (the large-device
    /// counterpart of [`with_table`](Self::with_table)).
    pub fn with_oracle(mut self, oracle: Arc<DistanceOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }
}

/// What a [`RoutingStrategy`] produced: the legalized circuit plus the
/// counters the trace layer reports on the route pass event.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// The legalized circuit (every two-qubit gate native and adjacent).
    pub circuit: Circuit,
    /// Adjacent SWAPs inserted while bringing operands together.
    pub swaps_inserted: usize,
    /// Two-qubit gates that needed at least one SWAP.
    pub gates_rerouted: usize,
    /// Adjacent SWAPs of a final restoration network (zero for strategies
    /// that restore per gate, like CTR).
    pub restoration_swaps: usize,
}

impl RouteOutcome {
    fn of(circuit: Circuit, swaps: usize, rerouted: usize, restoration: usize) -> Self {
        RouteOutcome {
            circuit,
            swaps_inserted: swaps,
            gates_rerouted: rerouted,
            restoration_swaps: restoration,
        }
    }

    /// All SWAPs this routing cost, including restoration.
    pub fn total_swaps(&self) -> usize {
        self.swaps_inserted + self.restoration_swaps
    }
}

/// A coupling-map router. Implementations take a whole technology-ready
/// circuit and return it legalized, counting the SWAPs that took; every
/// strategy's output must equal the input circuit as a unitary (the
/// compiler QMDD-verifies it like any other pass).
pub trait RoutingStrategy {
    /// Stable lowercase identifier (the `--route-strategy` value and the
    /// trace-event strategy tag name).
    fn name(&self) -> &'static str;

    /// Legalizes `req.circuit` against `req.device`.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnmappedGate`] for multi-qubit gates the device
    /// library cannot express (run decomposition first),
    /// [`CompileError::RouteNotFound`] on disconnected coupling maps, and
    /// [`CompileError::BudgetExceeded`] when `req.max_swaps` is blown.
    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError>;
}

// ---------------------------------------------------------------------------
// CTR behind the trait.
// ---------------------------------------------------------------------------

/// The paper's connectivity-tree reroute (Figs. 4 and 5) behind the
/// [`RoutingStrategy`] trait: SWAP the control out, execute, SWAP back.
///
/// Byte-identical to the historical `route_circuit*` free functions — with
/// a table in the request it routes through the table, without one it runs
/// the legacy per-gate search, and the two are identical by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrStrategy;

impl RoutingStrategy for CtrStrategy {
    fn name(&self) -> &'static str {
        "ctr"
    }

    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
        let (circuit, k) = if let Some(oracle) = &req.oracle {
            crate::route::route_bounded_via_oracle(
                req.circuit,
                req.device,
                oracle,
                req.max_swaps,
            )?
        } else if let Some(table) = &req.table {
            crate::route::route_bounded_via(req.circuit, req.device, table, req.max_swaps)?
        } else {
            crate::route::route_bounded_uncached(
                req.circuit,
                req.device,
                req.objective,
                req.max_swaps,
            )?
        };
        Ok(RouteOutcome::of(circuit, k.swaps_inserted, k.gates_rerouted, 0))
    }
}

// ---------------------------------------------------------------------------
// Distance field: the metric the lookahead scores against.
// ---------------------------------------------------------------------------

/// All-pairs distances under the active objective, served from the shared
/// [`RoutingTable`] when one is in the request and recomputed locally
/// otherwise (so a table-less request stays a true no-cache reference).
struct DistanceField {
    n: usize,
    /// Hop-count matrix (`u32::MAX` = disconnected). Always present: it is
    /// both the fewest-SWAPs metric and the termination fallback.
    hops: HopSource,
    /// Negative-log-fidelity matrix, only materialized under the fidelity
    /// objective on characterized devices (mirrors `ctr_route_with`'s
    /// fallback to BFS on uncharacterized hardware).
    neglog: Option<NeglogSource>,
}

enum HopSource {
    Table(Arc<RoutingTable>),
    Oracle(Arc<DistanceOracle>),
    Local(Vec<u32>),
}

enum NeglogSource {
    Table(Arc<RoutingTable>),
    Oracle(Arc<DistanceOracle>),
    Local(Vec<f64>),
}

impl DistanceField {
    fn build(
        device: &Device,
        objective: RoutingObjective,
        table: Option<&Arc<RoutingTable>>,
        oracle: Option<&Arc<DistanceOracle>>,
    ) -> Self {
        let n = device.n_qubits();
        let fidelity =
            objective == RoutingObjective::HighestFidelity && device.has_error_data();
        let hops = match (oracle, table) {
            (Some(o), _) => HopSource::Oracle(o.clone()),
            (None, Some(t)) => HopSource::Table(t.clone()),
            (None, None) => {
                let mut m = vec![u32::MAX; n * n];
                for src in 0..n {
                    for (q, &d) in device.distances_from(src).iter().enumerate() {
                        m[src * n + q] = if d >= u32::MAX / 2 { u32::MAX } else { d };
                    }
                }
                HopSource::Local(m)
            }
        };
        let neglog = fidelity.then(|| match (oracle, table) {
            (Some(o), _) => NeglogSource::Oracle(o.clone()),
            (None, Some(t)) => NeglogSource::Table(t.clone()),
            (None, None) => NeglogSource::Local(crate::cache::neglog_distances(device, n)),
        });
        DistanceField { n, hops, neglog }
    }

    fn hop(&self, a: usize, b: usize) -> Option<u32> {
        match &self.hops {
            HopSource::Table(t) => t.hop_distance(a, b),
            HopSource::Oracle(o) => o.hop_distance(a, b),
            HopSource::Local(m) => match m[a * self.n + b] {
                u32::MAX => None,
                d => Some(d),
            },
        }
    }

    /// Distance under the active metric; `None` when disconnected.
    fn dist(&self, a: usize, b: usize) -> Option<f64> {
        match &self.neglog {
            Some(NeglogSource::Table(t)) => t.neglog_distance(a, b),
            Some(NeglogSource::Oracle(o)) => o.neglog_distance(a, b),
            Some(NeglogSource::Local(m)) => {
                let d = m[a * self.n + b];
                d.is_finite().then_some(d)
            }
            None => self.hop(a, b).map(f64::from),
        }
    }

    /// An ALT (landmark) lower bound on `dist(a, b)` under the active
    /// metric, cheap to evaluate (no per-source row is materialized). Only
    /// oracle-backed fields can bound; the others return `0.0`, which is
    /// trivially admissible and disables pruning.
    fn lower_bound(&self, a: usize, b: usize) -> f64 {
        match (&self.neglog, &self.hops) {
            (Some(NeglogSource::Oracle(o)), _) => o.neglog_lower_bound(a, b).unwrap_or(0.0),
            (Some(_), _) => 0.0,
            (None, HopSource::Oracle(o)) => match o.hop_lower_bound(a, b) {
                u32::MAX => f64::INFINITY,
                lb => f64::from(lb),
            },
            (None, _) => 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// The SABRE-style lookahead router.
// ---------------------------------------------------------------------------

/// Bidirectional lookahead routing in the SABRE family (Li, Ding, Xie):
/// SWAPs persist (the layout drifts), each candidate SWAP is drawn from
/// the neighborhoods of *both* operands of the front gate, and candidates
/// are scored against the front gate plus an exponentially decaying window
/// of upcoming two-qubit gates. One restoration network at the end returns
/// every logical line to its home position, so the routed circuit equals
/// the specification exactly and stays QMDD-verifiable.
///
/// Distances come from the precomputed hop / negative-log-fidelity
/// matrices of the shared [`RoutingTable`] when the request carries one;
/// under the fidelity objective on characterized devices the
/// negative-log-fidelity metric is scored, otherwise hop counts (the same
/// fallback rule the CTR search applies).
#[derive(Debug, Clone, Copy)]
pub struct LookaheadStrategy {
    /// How many upcoming two-qubit gates each candidate SWAP is scored
    /// against (beyond the front gate).
    pub window: usize,
    /// Per-gate decay of the window weight, in `(0, 1)`: the `k`-th future
    /// gate contributes `decay^k` of its distance change.
    pub decay: f64,
}

impl Default for LookaheadStrategy {
    fn default() -> Self {
        LookaheadStrategy {
            window: 20,
            decay: 0.7,
        }
    }
}

impl LookaheadStrategy {
    /// A lookahead router with a custom scoring window.
    pub fn new(window: usize, decay: f64) -> Self {
        LookaheadStrategy { window, decay }
    }
}

impl RoutingStrategy for LookaheadStrategy {
    fn name(&self) -> &'static str {
        "lookahead"
    }

    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
        let device = req.device;
        let n = device.n_qubits();
        let field = DistanceField::build(
            device,
            req.objective,
            req.table.as_ref(),
            req.oracle.as_ref(),
        );

        // The logical operand pairs of every two-qubit gate, in order; the
        // scoring window walks this list past the front gate.
        let cz_native = device.native() == TwoQubitNative::Cz;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for g in req.circuit.gates() {
            match g {
                Gate::Single { .. } => {}
                Gate::Cx { control, target } => pairs.push((*control, *target)),
                Gate::Cz { control, target } if cz_native => pairs.push((*control, *target)),
                other => return Err(CompileError::UnmappedGate(other.to_string())),
            }
        }

        let mut out = Circuit::new(n);
        if let Some(name) = req.circuit.name() {
            out.set_name(name.to_string());
        }
        let mut layout = Layout::identity(n);
        let mut swaps_inserted = 0usize;
        let mut gates_rerouted = 0usize;
        let check_cap = |used: usize, max: Option<usize>| -> Result<(), CompileError> {
            match max {
                Some(cap) if used > cap => Err(CompileError::BudgetExceeded {
                    pass: qsyn_trace::Pass::Route,
                    resource: crate::budget::BudgetResource::RouteSwaps,
                    limit: cap as u64,
                    used: used as u64,
                }),
                _ => Ok(()),
            }
        };

        let mut next_pair = 0usize; // index into `pairs` of the front gate
        for g in req.circuit.gates() {
            match g {
                Gate::Single { op, qubit } => {
                    out.push(Gate::single(*op, layout.phys_of[*qubit]));
                }
                Gate::Cx { .. } | Gate::Cz { .. } => {
                    let (lc, lt) = pairs[next_pair];
                    next_pair += 1;
                    let mut moved = false;
                    loop {
                        let (pc, pt) = (layout.phys_of[lc], layout.phys_of[lt]);
                        if device.are_adjacent(pc, pt) {
                            break;
                        }
                        let (a, b) = self.best_swap(
                            device, &field, &layout, (pc, pt), &pairs[next_pair..],
                        )?;
                        emit_adjacent_swap(device, a, b, &mut out)?;
                        layout.swap_physical(a, b);
                        moved = true;
                        swaps_inserted += 1;
                        check_cap(swaps_inserted, req.max_swaps)?;
                    }
                    gates_rerouted += usize::from(moved);
                    let (pc, pt) = (layout.phys_of[lc], layout.phys_of[lt]);
                    if matches!(g, Gate::Cx { .. }) {
                        emit_adjacent_cnot(device, pc, pt, &mut out)?;
                    } else {
                        emit_adjacent_cz(device, pc, pt, &mut out)?;
                    }
                }
                other => return Err(CompileError::UnmappedGate(other.to_string())),
            }
        }

        // Return every logical line home with one sorting network.
        let mut restoration = 0usize;
        if !layout.is_identity() {
            for (a, b) in restoration_swaps(device, &mut layout) {
                emit_adjacent_swap(device, a, b, &mut out)?;
                restoration += 1;
            }
            check_cap(swaps_inserted + restoration, req.max_swaps)?;
        }
        Ok(RouteOutcome::of(out, swaps_inserted, gates_rerouted, restoration))
    }
}

impl LookaheadStrategy {
    /// Picks the SWAP to insert for a non-adjacent front gate at physical
    /// positions `(pc, pt)`.
    ///
    /// Candidates are the coupling-map edges incident to either operand
    /// that *strictly reduce* the front gate's distance — a set that is
    /// never empty on a connected map (the first hop of a shortest path
    /// always qualifies), which is what guarantees termination. Among
    /// them, the minimizer of `front + Σ decay^k · dist(future_k)` over
    /// the scoring window wins; ties break toward the smallest `(a, b)`
    /// pair, keeping the search deterministic.
    fn best_swap(
        &self,
        device: &Device,
        field: &DistanceField,
        layout: &Layout,
        (pc, pt): (usize, usize),
        future: &[(usize, usize)],
    ) -> Result<(usize, usize), CompileError> {
        if field.dist(pc, pt).is_none() {
            return Err(CompileError::RouteNotFound {
                control: pc,
                target: pt,
            });
        }
        let admissible = |metric: &dyn Fn(usize, usize) -> Option<f64>| {
            let front = metric(pc, pt).unwrap_or(f64::INFINITY);
            let mut found: Vec<(usize, usize)> = Vec::new();
            for &p in &[pc, pt] {
                for &nb in device.neighbors(p) {
                    let (a, b) = (p.min(nb), p.max(nb));
                    let reloc = |q: usize| {
                        if q == a {
                            b
                        } else if q == b {
                            a
                        } else {
                            q
                        }
                    };
                    let after = metric(reloc(pc), reloc(pt)).unwrap_or(f64::INFINITY);
                    if after < front && !found.contains(&(a, b)) {
                        found.push((a, b));
                    }
                }
            }
            found
        };
        // Admission under the active metric; hop-count fallback covers
        // degenerate metrics (e.g. all-zero error annotations), where the
        // first hop of a shortest hop path always strictly descends.
        let mut candidates = admissible(&|a, b| field.dist(a, b));
        if candidates.is_empty() {
            candidates = admissible(&|a, b| field.hop(a, b).map(f64::from));
        }
        debug_assert!(!candidates.is_empty(), "connected map admits a descent");
        if candidates.is_empty() {
            return Err(CompileError::RouteNotFound {
                control: pc,
                target: pt,
            });
        }

        let mut best: Option<(f64, (usize, usize))> = None;
        for (a, b) in candidates {
            let reloc = |q: usize| {
                if q == a {
                    b
                } else if q == b {
                    a
                } else {
                    q
                }
            };
            // ALT pruning (oracle-backed fields only): the exact score is
            // `dist(front after swap) + Σ decay^k·dist(future_k) ≥
            // lower_bound(front after swap)` because every term is
            // non-negative, so a landmark bound *strictly above* the
            // incumbent score can never win — not even on the `(a, b)`
            // tie-break, which requires score equality. Skipping here is
            // therefore byte-identical to full evaluation while avoiding
            // materializing the candidate's per-source distance rows.
            if let Some((incumbent, _)) = best {
                if field.lower_bound(reloc(pc), reloc(pt)) > incumbent {
                    continue;
                }
            }
            let mut score = field
                .dist(reloc(pc), reloc(pt))
                .unwrap_or(f64::INFINITY);
            let mut weight = 1.0;
            for &(la, lb) in future.iter().take(self.window) {
                weight *= self.decay;
                let (fa, fb) = (layout.phys_of[la], layout.phys_of[lb]);
                if let Some(d) = field.dist(reloc(fa), reloc(fb)) {
                    score += weight * d;
                }
            }
            let better = match best {
                None => true,
                Some((s, pair)) => score < s || (score == s && (a, b) < pair),
            };
            if better {
                best = Some((score, (a, b)));
            }
        }
        Ok(best.expect("non-empty candidate set").1)
    }
}

// ---------------------------------------------------------------------------
// Persistent layout behind the trait.
// ---------------------------------------------------------------------------

/// The persistent-layout router ([`route_circuit_persistent_traced`])
/// behind the [`RoutingStrategy`] trait: SWAPs move a logical line and
/// stay, and one restoration network at the end returns every line home.
///
/// The restoration network is only known once the whole circuit is
/// routed, so the SWAP cap is checked against the completed total
/// (drifting plus restoration SWAPs). Path search is hop-based, so the
/// request's table or oracle is not consulted.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistentStrategy;

impl RoutingStrategy for PersistentStrategy {
    fn name(&self) -> &'static str {
        "persistent"
    }

    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
        let (circuit, k) = route_circuit_persistent_traced(req.circuit, req.device, req.objective)?;
        let total = k.swaps_inserted + k.restoration_swaps;
        if let Some(cap) = req.max_swaps.filter(|&cap| total > cap) {
            return Err(CompileError::BudgetExceeded {
                pass: qsyn_trace::Pass::Route,
                resource: crate::budget::BudgetResource::RouteSwaps,
                limit: cap as u64,
                used: total as u64,
            });
        }
        Ok(RouteOutcome::of(circuit, k.swaps_inserted, k.gates_rerouted, k.restoration_swaps))
    }
}

// ---------------------------------------------------------------------------
// The strategy registry.
// ---------------------------------------------------------------------------

/// The built-in routing strategies a [`Compiler`](crate::Compiler) can be
/// configured with (`--route-strategy` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteStrategyKind {
    /// The paper's CTR router ([`CtrStrategy`]); the default.
    #[default]
    Ctr,
    /// SABRE-style lookahead ([`LookaheadStrategy`]).
    Lookahead,
    /// Persistent layout with one restoration network
    /// ([`PersistentStrategy`]).
    Persistent,
    /// Pick per compile from the cost model's
    /// [`route_hint`](qsyn_arch::CostModel::route_hint): SWAP- and
    /// fidelity-dominated models get the lookahead router, opaque models
    /// keep the paper's CTR.
    Auto,
}

impl RouteStrategyKind {
    /// Every concrete (non-`Auto`) kind, in trace-tag order.
    pub const CONCRETE: [RouteStrategyKind; 3] = [
        RouteStrategyKind::Ctr,
        RouteStrategyKind::Lookahead,
        RouteStrategyKind::Persistent,
    ];

    /// Every selectable kind, in `--route-strategy` listing order.
    pub const ALL: [RouteStrategyKind; 4] = [
        RouteStrategyKind::Ctr,
        RouteStrategyKind::Lookahead,
        RouteStrategyKind::Persistent,
        RouteStrategyKind::Auto,
    ];

    /// Parses the `--route-strategy=NAME` CLI value.
    pub fn parse(s: &str) -> Option<RouteStrategyKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Stable lowercase identifier (the `--route-strategy` value).
    pub fn name(self) -> &'static str {
        match self {
            RouteStrategyKind::Ctr => "ctr",
            RouteStrategyKind::Lookahead => "lookahead",
            RouteStrategyKind::Persistent => "persistent",
            RouteStrategyKind::Auto => "auto",
        }
    }

    /// The accepted values as prose (`ctr, lookahead, persistent or
    /// auto`), for "unknown strategy" errors.
    pub fn choices() -> String {
        crate::one_of(&Self::ALL.map(Self::name))
    }

    /// Resolves `Auto` against a cost model's [`RouteHint`]; concrete
    /// kinds return themselves.
    pub fn resolve(self, hint: RouteHint) -> RouteStrategyKind {
        match self {
            RouteStrategyKind::Auto => match hint {
                RouteHint::Swaps | RouteHint::Fidelity => RouteStrategyKind::Lookahead,
                RouteHint::Conservative => RouteStrategyKind::Ctr,
            },
            concrete => concrete,
        }
    }

    /// Instantiates the strategy with its default parameters. `Auto`
    /// resolves conservatively (CTR); resolve against a
    /// [`RouteHint`] first to honor the cost model.
    pub fn instance(self) -> Box<dyn RoutingStrategy> {
        match self {
            RouteStrategyKind::Ctr | RouteStrategyKind::Auto => Box::new(CtrStrategy),
            RouteStrategyKind::Lookahead => Box::new(LookaheadStrategy::default()),
            RouteStrategyKind::Persistent => Box::new(PersistentStrategy),
        }
    }

    /// The numeric tag route events record this strategy under (see
    /// [`qsyn_trace::route_strategy_name`]); `None` for `Auto`, which
    /// always resolves to a concrete kind before routing.
    pub fn tag(self) -> Option<f64> {
        qsyn_trace::route_strategy_tag(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::route_circuit;
    use qsyn_arch::devices;
    use qsyn_qmdd::circuits_equal;

    fn workload() -> Circuit {
        let mut c = Circuit::new(16);
        c.push(Gate::h(0));
        for _ in 0..3 {
            c.push(Gate::cx(5, 10)); // the Fig. 5 distant pair
        }
        c.push(Gate::t(10));
        c.push(Gate::cx(0, 1)); // adjacent
        c.push(Gate::cx(10, 5)); // reversed orientation
        c
    }

    #[test]
    fn kind_parse_name_round_trips() {
        for kind in RouteStrategyKind::ALL {
            assert_eq!(RouteStrategyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(RouteStrategyKind::parse("sabre"), None);
        assert_eq!(RouteStrategyKind::choices(), "ctr, lookahead, persistent or auto");
        assert_eq!(RouteStrategyKind::default(), RouteStrategyKind::Ctr);
    }

    #[test]
    fn auto_resolves_from_the_cost_hint() {
        let auto = RouteStrategyKind::Auto;
        assert_eq!(auto.resolve(RouteHint::Swaps), RouteStrategyKind::Lookahead);
        assert_eq!(auto.resolve(RouteHint::Fidelity), RouteStrategyKind::Lookahead);
        assert_eq!(auto.resolve(RouteHint::Conservative), RouteStrategyKind::Ctr);
        // Concrete kinds ignore the hint.
        assert_eq!(
            RouteStrategyKind::Ctr.resolve(RouteHint::Swaps),
            RouteStrategyKind::Ctr
        );
    }

    #[test]
    fn tags_match_the_trace_registry() {
        for kind in RouteStrategyKind::CONCRETE {
            let tag = kind.tag().expect("concrete kinds have tags");
            assert_eq!(qsyn_trace::route_strategy_name(tag), Some(kind.name()));
            assert_eq!(kind.instance().name(), kind.name());
        }
        assert_eq!(RouteStrategyKind::Auto.tag(), None);
    }

    #[test]
    fn ctr_strategy_matches_the_free_function() {
        let d = devices::ibmqx3();
        let c = workload();
        let via_trait = CtrStrategy
            .route(&RouteRequest::new(&c, &d))
            .unwrap();
        let via_free = route_circuit(&c, &d).unwrap();
        assert_eq!(via_trait.circuit.gates(), via_free.gates());
        assert_eq!(via_trait.restoration_swaps, 0);
        // And the table path is identical to the uncached one.
        let (table, _) = crate::cache::routing_table(&d, RoutingObjective::FewestSwaps);
        let via_table = CtrStrategy
            .route(&RouteRequest::new(&c, &d).with_table(table))
            .unwrap();
        assert_eq!(via_table.circuit.gates(), via_free.gates());
    }

    #[test]
    fn lookahead_is_equivalent_and_legal() {
        let d = devices::ibmqx3();
        let c = workload();
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            let out = LookaheadStrategy::default()
                .route(&RouteRequest::new(&c, &d).with_objective(objective))
                .unwrap();
            assert!(circuits_equal(&c, &out.circuit), "{objective:?}");
            for g in out.circuit.gates() {
                if let Gate::Cx { control, target } = g {
                    assert!(d.has_coupling(*control, *target), "illegal {g}");
                }
            }
        }
    }

    #[test]
    fn lookahead_beats_ctr_on_repeated_distant_gates() {
        // CTR pays the 5<->10 chain out and back per gate; the lookahead
        // pays it once and amortizes across the repeats.
        let d = devices::ibmqx3();
        let c = workload();
        let ctr = CtrStrategy.route(&RouteRequest::new(&c, &d)).unwrap();
        let look = LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d))
            .unwrap();
        assert!(
            look.total_swaps() < ctr.total_swaps(),
            "lookahead {} vs ctr {}",
            look.total_swaps(),
            ctr.total_swaps()
        );
    }

    #[test]
    fn lookahead_with_and_without_table_agree() {
        let d = devices::ibmqx5();
        let c = workload();
        let (table, _) = crate::cache::routing_table(&d, RoutingObjective::FewestSwaps);
        let cached = LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d).with_table(table))
            .unwrap();
        let uncached = LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d))
            .unwrap();
        assert_eq!(cached.circuit.gates(), uncached.circuit.gates());
        assert_eq!(cached.swaps_inserted, uncached.swaps_inserted);
    }

    #[test]
    fn oracle_backed_routing_matches_the_table_path() {
        let d = devices::ibmqx5();
        let c = workload();
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            let (table, _) = crate::cache::routing_table(&d, objective);
            let (oracle, _) = crate::cache::routing_oracle(&d, objective);
            for kind in RouteStrategyKind::CONCRETE {
                let strategy = kind.instance();
                let via_table = strategy
                    .route(
                        &RouteRequest::new(&c, &d)
                            .with_objective(objective)
                            .with_table(table.clone()),
                    )
                    .unwrap();
                let via_oracle = strategy
                    .route(
                        &RouteRequest::new(&c, &d)
                            .with_objective(objective)
                            .with_oracle(oracle.clone()),
                    )
                    .unwrap();
                assert_eq!(
                    via_table.circuit.gates(),
                    via_oracle.circuit.gates(),
                    "{objective:?} via {}",
                    kind.name()
                );
                assert_eq!(via_table.swaps_inserted, via_oracle.swaps_inserted);
                assert_eq!(via_table.restoration_swaps, via_oracle.restoration_swaps);
            }
        }
    }

    #[test]
    fn lookahead_respects_the_swap_cap() {
        let d = devices::ibmqx3();
        let c = workload();
        match LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d).with_max_swaps(Some(1)))
        {
            Err(CompileError::BudgetExceeded {
                pass,
                resource,
                limit,
                ..
            }) => {
                assert_eq!(pass, qsyn_trace::Pass::Route);
                assert_eq!(resource, crate::budget::BudgetResource::RouteSwaps);
                assert_eq!(limit, 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A generous cap changes nothing.
        let capped = LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d).with_max_swaps(Some(10_000)))
            .unwrap();
        let free = LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d))
            .unwrap();
        assert_eq!(capped.circuit.gates(), free.circuit.gates());
    }

    #[test]
    fn lookahead_cz_native_stays_equivalent() {
        let d = devices::ring(6).with_native(TwoQubitNative::Cz);
        let mut c = Circuit::new(6);
        c.push(Gate::cz(0, 3));
        c.push(Gate::cx(1, 4));
        c.push(Gate::h(2));
        let out = LookaheadStrategy::default()
            .route(&RouteRequest::new(&c, &d))
            .unwrap();
        assert!(circuits_equal(&c, &out.circuit));
        for g in out.circuit.gates() {
            assert!(d.supports(g), "unsupported {g}");
        }
    }

    #[test]
    fn lookahead_disconnected_map_is_route_not_found() {
        let d = Device::from_pairs("split", 4, [(0, 1), (2, 3)]);
        let mut c = Circuit::new(4);
        c.push(Gate::cx(0, 2));
        assert!(matches!(
            LookaheadStrategy::default().route(&RouteRequest::new(&c, &d)),
            Err(CompileError::RouteNotFound { .. })
        ));
    }

    #[test]
    fn lookahead_rejects_unmapped_gates() {
        let d = devices::ibmqx2();
        let mut c = Circuit::new(5);
        c.push(Gate::toffoli(0, 1, 2));
        assert!(matches!(
            LookaheadStrategy::default().route(&RouteRequest::new(&c, &d)),
            Err(CompileError::UnmappedGate(_))
        ));
    }
}
