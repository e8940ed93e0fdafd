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
//! * [`RoutingStrategy`] — the trait, and the only way to route a
//!   circuit: one [`RouteRequest`] in (circuit, device, objective, SWAP
//!   cap, shared [`RoutingLookup`]), one [`RouteOutcome`] out (routed
//!   circuit plus SWAP counters);
//! * [`CtrStrategy`] — the paper's router re-homed behind the trait,
//!   byte-identical to the per-gate search;
//! * [`LookaheadStrategy`] — a bidirectional SABRE-style search
//!   (Li/Ding/Xie): SWAPs persist, candidates are scored against the
//!   front gate plus a window of the next 20 two-qubit gates weighted
//!   `0.7^k`, using the hop / negative-log-fidelity distances of the
//!   shared lookup, and one restoration network at the end returns every
//!   line home so the result stays QMDD-verifiable;
//! * [`PersistentStrategy`] — shortest-path drifting SWAPs with one final
//!   restoration network;
//! * [`RouteStrategyKind`] — the registry the compiler and CLI select
//!   strategies through (`--route-strategy ctr|lookahead|persistent|auto`),
//!   with `auto` resolved from the cost model's
//!   [`RouteHint`].
//!
//! Every router reads routes and distances through one [`RoutingLookup`]:
//! the dense [`RoutingTable`] on small devices, the sparse
//! [`DistanceOracle`] at scale. Both store exactly what the per-gate CTR
//! search returns, so which one a request carries never changes the
//! output.

use crate::cache::{DistanceOracle, RoutingLookup, RoutingTable};
use crate::error::CompileError;
use crate::remap::{bring_adjacent, restoration_swaps, Layout};
use crate::route::{emit_adjacent_cnot, emit_adjacent_cz, emit_adjacent_swap, RoutingObjective};
use qsyn_arch::{Device, RouteHint, TwoQubitNative};
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;
use std::sync::Arc;

/// Everything a [`RoutingStrategy`] needs to legalize one circuit.
///
/// Built with [`RouteRequest::new`] plus the `with_*` setters; the
/// defaults are the paper's (fewest-SWAPs objective, no cap) and the
/// shared [`routing_lookup`](crate::routing_lookup) for the device and
/// objective.
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
    /// Where routes and distances come from. `None` means the shared
    /// [`routing_lookup`](crate::routing_lookup) for `(device,
    /// objective)`, fetched only by strategies that read distances. A
    /// supplied lookup must have been built for this objective and
    /// register width (see [`RouteRequest::resolve_lookup`]).
    pub lookup: Option<RoutingLookup>,
}

impl<'a> RouteRequest<'a> {
    /// A request with the paper's defaults: fewest SWAPs, no cap, the
    /// shared routing lookup.
    pub fn new(circuit: &'a Circuit, device: &'a Device) -> Self {
        RouteRequest {
            circuit,
            device,
            objective: RoutingObjective::FewestSwaps,
            max_swaps: None,
            lookup: None,
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

    /// Routes through the given lookup instead of the shared one.
    pub fn with_lookup(mut self, lookup: RoutingLookup) -> Self {
        self.lookup = Some(lookup);
        self
    }

    /// Routes through a precomputed dense [`RoutingTable`].
    pub fn with_table(self, table: Arc<RoutingTable>) -> Self {
        self.with_lookup(RoutingLookup::Dense(table))
    }

    /// Routes through a sparse [`DistanceOracle`] (the large-device
    /// counterpart of [`with_table`](Self::with_table)).
    pub fn with_oracle(self, oracle: Arc<DistanceOracle>) -> Self {
        self.with_lookup(RoutingLookup::Sparse(oracle))
    }

    /// The lookup this request routes through: the supplied one, or else
    /// the shared [`routing_lookup`](crate::routing_lookup) for `(device,
    /// objective)`.
    ///
    /// # Panics
    ///
    /// When the supplied lookup was built for another objective or
    /// register width: its routes would minimize one metric while the
    /// request scores another.
    pub fn resolve_lookup(&self) -> RoutingLookup {
        let Some(lookup) = &self.lookup else {
            return crate::cache::routing_lookup(self.device, self.objective).0;
        };
        let (objective, n) = (lookup.objective(), lookup.n_qubits());
        assert!(
            objective == self.objective && n == self.device.n_qubits(),
            "routing lookup built for {objective:?} on {n} qubits does not match a \
             {:?} route request on {} ({} qubits)",
            self.objective,
            self.device.name(),
            self.device.n_qubits(),
        );
        lookup.clone()
    }

    /// Fails with [`CompileError::BudgetExceeded`] (pass `Route`, resource
    /// `RouteSwaps`) when `used` SWAPs exceed this request's cap.
    pub(crate) fn check_swap_cap(&self, used: usize) -> Result<(), CompileError> {
        match self.max_swaps {
            Some(cap) if used > cap => Err(CompileError::BudgetExceeded {
                pass: qsyn_trace::Pass::Route,
                resource: crate::budget::BudgetResource::RouteSwaps,
                limit: cap as u64,
                used: used as u64,
            }),
            _ => Ok(()),
        }
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
    pub(crate) fn of(circuit: Circuit, swaps: usize, rerouted: usize, restoration: usize) -> Self {
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
/// Each route comes from the request's [`RoutingLookup`], which stores
/// exactly what the per-gate search ([`ctr_route_with`]) returns, so the
/// output is byte-identical to running that search gate by gate.
///
/// [`ctr_route_with`]: crate::route::ctr_route_with
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrStrategy;

impl RoutingStrategy for CtrStrategy {
    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
        crate::route::route_bounded(req)
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
/// Distances come from the request's [`RoutingLookup`]; under the
/// fidelity objective on characterized devices the negative-log-fidelity
/// metric is scored, otherwise hop counts (the same fallback rule the CTR
/// search applies).
#[derive(Debug, Clone, Copy, Default)]
pub struct LookaheadStrategy;

/// How many upcoming two-qubit gates each candidate SWAP is scored against
/// (beyond the front gate).
const LOOKAHEAD_WINDOW: usize = 20;

/// Per-gate decay of the window weight: the `k`-th future gate contributes
/// `LOOKAHEAD_DECAY^k` of its distance.
const LOOKAHEAD_DECAY: f64 = 0.7;

impl RoutingStrategy for LookaheadStrategy {
    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
        let device = req.device;
        let n = device.n_qubits();
        let lookup = req.resolve_lookup();
        let neglog = req.objective == RoutingObjective::HighestFidelity && device.has_error_data();

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
                        let (a, b) = best_swap(
                            device,
                            &lookup,
                            neglog,
                            &layout,
                            (pc, pt),
                            &pairs[next_pair..],
                        )?;
                        emit_adjacent_swap(device, a, b, &mut out)?;
                        layout.swap_physical(a, b);
                        moved = true;
                        swaps_inserted += 1;
                        req.check_swap_cap(swaps_inserted)?;
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
            req.check_swap_cap(swaps_inserted + restoration)?;
        }
        Ok(RouteOutcome::of(
            out,
            swaps_inserted,
            gates_rerouted,
            restoration,
        ))
    }
}

/// Picks the [`LookaheadStrategy`] SWAP for a non-adjacent front gate at
/// physical positions `(pc, pt)`.
///
/// Candidates are the coupling-map edges incident to either operand
/// that *strictly reduce* the front gate's distance — a set that is
/// never empty on a connected map (the first hop of a shortest path
/// always qualifies), which is what guarantees termination. Among
/// them, the minimizer of `front + Σ decay^k · dist(future_k)` over
/// the scoring window wins; ties break toward the smallest `(a, b)`
/// pair, keeping the search deterministic.
///
/// `dist` is the negative-log-fidelity distance when `neglog`, else the
/// hop count.
fn best_swap(
    device: &Device,
    lookup: &RoutingLookup,
    neglog: bool,
    layout: &Layout,
    (pc, pt): (usize, usize),
    future: &[(usize, usize)],
) -> Result<(usize, usize), CompileError> {
    let hops = |a: usize, b: usize| lookup.hop_distance(a, b).map(f64::from);
    let dist = |a: usize, b: usize| {
        if neglog {
            lookup.neglog_distance(a, b)
        } else {
            hops(a, b)
        }
    };
    if dist(pc, pt).is_none() {
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
    let mut candidates = admissible(&dist);
    if candidates.is_empty() {
        candidates = admissible(&hops);
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
        // ALT pruning (sparse lookups only): the exact score is
        // `dist(front after swap) + Σ decay^k·dist(future_k) ≥
        // lower_bound(front after swap)` because every term is
        // non-negative, so a landmark bound *strictly above* the
        // incumbent score can never win — not even on the `(a, b)`
        // tie-break, which requires score equality. Skipping here is
        // therefore byte-identical to full evaluation while avoiding
        // materializing the candidate's per-source distance rows.
        if let Some((incumbent, _)) = best {
            if lookup.lower_bound(reloc(pc), reloc(pt), neglog) > incumbent {
                continue;
            }
        }
        let mut score = dist(reloc(pc), reloc(pt)).unwrap_or(f64::INFINITY);
        let mut weight = 1.0;
        for &(la, lb) in future.iter().take(LOOKAHEAD_WINDOW) {
            weight *= LOOKAHEAD_DECAY;
            let (fa, fb) = (layout.phys_of[la], layout.phys_of[lb]);
            if let Some(d) = dist(reloc(fa), reloc(fb)) {
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

// ---------------------------------------------------------------------------
// Persistent layout behind the trait.
// ---------------------------------------------------------------------------

/// The persistent-layout router behind the [`RoutingStrategy`] trait:
/// SWAPs move a logical line and stay (each non-adjacent gate's control
/// walks a shortest hop path next to its target), later gates are routed
/// under the drifted layout, and one restoration network at the end
/// returns every line home.
///
/// The restoration network is only known once the whole circuit is
/// routed, so the SWAP cap is checked against the completed total
/// (drifting plus restoration SWAPs). Path search is hop-based under
/// either objective, so the request's lookup is neither consulted nor
/// fetched.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistentStrategy;

impl RoutingStrategy for PersistentStrategy {
    fn route(&self, req: &RouteRequest<'_>) -> Result<RouteOutcome, CompileError> {
        let device = req.device;
        let n = device.n_qubits();
        let mut out = Circuit::new(n);
        if let Some(name) = req.circuit.name() {
            out.set_name(name.to_string());
        }
        let mut layout = Layout::identity(n);
        let (mut swaps_inserted, mut gates_rerouted) = (0, 0);
        for g in req.circuit.gates() {
            let (control, target, cz) = match g {
                Gate::Single { op, qubit } => {
                    out.push(Gate::single(*op, layout.phys_of[*qubit]));
                    continue;
                }
                Gate::Cx { control, target } => (*control, *target, false),
                Gate::Cz { control, target } if device.native() == TwoQubitNative::Cz => {
                    (*control, *target, true)
                }
                other => return Err(CompileError::UnmappedGate(other.to_string())),
            };
            let (pc, pt) = (layout.phys_of[control], layout.phys_of[target]);
            let (eff, hops) = bring_adjacent(device, pc, pt, &mut layout, &mut out)?;
            swaps_inserted += hops;
            gates_rerouted += usize::from(hops > 0);
            if cz {
                emit_adjacent_cz(device, eff, pt, &mut out)?;
            } else {
                emit_adjacent_cnot(device, eff, pt, &mut out)?;
            }
        }

        // Restore the identity layout with one sorting network.
        let mut restoration = 0;
        if !layout.is_identity() {
            for (a, b) in restoration_swaps(device, &mut layout) {
                emit_adjacent_swap(device, a, b, &mut out)?;
                restoration += 1;
            }
            debug_assert!(layout.is_identity());
        }
        req.check_swap_cap(swaps_inserted + restoration)?;
        Ok(RouteOutcome::of(
            out,
            swaps_inserted,
            gates_rerouted,
            restoration,
        ))
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

    /// Instantiates the strategy. `Auto`
    /// resolves conservatively (CTR); resolve against a
    /// [`RouteHint`] first to honor the cost model.
    pub fn instance(self) -> Box<dyn RoutingStrategy> {
        match self {
            RouteStrategyKind::Ctr | RouteStrategyKind::Auto => Box::new(CtrStrategy),
            RouteStrategyKind::Lookahead => Box::new(LookaheadStrategy),
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
        assert_eq!(
            RouteStrategyKind::choices(),
            "ctr, lookahead, persistent or auto"
        );
        assert_eq!(RouteStrategyKind::default(), RouteStrategyKind::Ctr);
    }

    #[test]
    fn auto_resolves_from_the_cost_hint() {
        let auto = RouteStrategyKind::Auto;
        assert_eq!(auto.resolve(RouteHint::Swaps), RouteStrategyKind::Lookahead);
        assert_eq!(
            auto.resolve(RouteHint::Fidelity),
            RouteStrategyKind::Lookahead
        );
        assert_eq!(
            auto.resolve(RouteHint::Conservative),
            RouteStrategyKind::Ctr
        );
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
        }
        assert_eq!(RouteStrategyKind::Auto.tag(), None);
    }

    #[test]
    fn swap_cap_error_names_the_route_pass_and_both_counts() {
        let d = devices::ibmqx3();
        let c = workload();
        let req = RouteRequest::new(&c, &d).with_max_swaps(Some(4));
        assert_eq!(req.check_swap_cap(4), Ok(()));
        assert_eq!(
            req.check_swap_cap(5),
            Err(CompileError::BudgetExceeded {
                pass: qsyn_trace::Pass::Route,
                resource: crate::budget::BudgetResource::RouteSwaps,
                limit: 4,
                used: 5,
            })
        );
        assert_eq!(RouteRequest::new(&c, &d).check_swap_cap(usize::MAX), Ok(()));
    }

    #[test]
    fn lookahead_is_equivalent_and_legal() {
        let d = devices::ibmqx3();
        let c = workload();
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
            let out = LookaheadStrategy
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
        let look = LookaheadStrategy.route(&RouteRequest::new(&c, &d)).unwrap();
        assert!(
            look.total_swaps() < ctr.total_swaps(),
            "lookahead {} vs ctr {}",
            look.total_swaps(),
            ctr.total_swaps()
        );
    }

    #[test]
    fn oracle_backed_routing_matches_the_table_path() {
        let d = devices::ibmqx5();
        let c = workload();
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
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
    #[should_panic(
        expected = "built for FewestSwaps on 16 qubits does not match a HighestFidelity route request"
    )]
    fn a_lookup_built_for_another_objective_panics() {
        let d = devices::ibmqx5();
        let c = workload();
        let (table, _) = crate::cache::routing_table(&d, RoutingObjective::FewestSwaps);
        let _ = CtrStrategy.route(
            &RouteRequest::new(&c, &d)
                .with_objective(RoutingObjective::HighestFidelity)
                .with_table(table),
        );
    }

    #[test]
    #[should_panic(expected = "on 5 qubits does not match a FewestSwaps route request on ibmqx5")]
    fn a_lookup_built_for_another_width_panics() {
        let d = devices::ibmqx5();
        let c = workload();
        let (table, _) =
            crate::cache::routing_table(&devices::ibmqx4(), RoutingObjective::FewestSwaps);
        let _ = LookaheadStrategy.route(&RouteRequest::new(&c, &d).with_table(table));
    }

    #[test]
    fn lookahead_respects_the_swap_cap() {
        let d = devices::ibmqx3();
        let c = workload();
        match LookaheadStrategy.route(&RouteRequest::new(&c, &d).with_max_swaps(Some(1))) {
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
        let capped = LookaheadStrategy
            .route(&RouteRequest::new(&c, &d).with_max_swaps(Some(10_000)))
            .unwrap();
        let free = LookaheadStrategy.route(&RouteRequest::new(&c, &d)).unwrap();
        assert_eq!(capped.circuit.gates(), free.circuit.gates());
    }

    #[test]
    fn lookahead_cz_native_stays_equivalent() {
        let d = devices::ring(6).with_native(TwoQubitNative::Cz);
        let mut c = Circuit::new(6);
        c.push(Gate::cz(0, 3));
        c.push(Gate::cx(1, 4));
        c.push(Gate::h(2));
        let out = LookaheadStrategy.route(&RouteRequest::new(&c, &d)).unwrap();
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
            LookaheadStrategy.route(&RouteRequest::new(&c, &d)),
            Err(CompileError::RouteNotFound { .. })
        ));
    }

    #[test]
    fn lookahead_rejects_unmapped_gates() {
        let d = devices::ibmqx2();
        let mut c = Circuit::new(5);
        c.push(Gate::toffoli(0, 1, 2));
        assert!(matches!(
            LookaheadStrategy.route(&RouteRequest::new(&c, &d)),
            Err(CompileError::UnmappedGate(_))
        ));
    }
}
