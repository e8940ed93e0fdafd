//! Test-code references the differential suites compare the compiler
//! against: the unmemoized lowering, the paper's CTR router as the bare
//! per-gate search, and the whole pipeline rebuilt from them. Each one
//! shares no state with the compiler (no decomposition memo, no routing
//! registry), so a match shows the shared state is a transparent
//! acceleration.
//!
//! Integration tests of `qsyn-core` include this as `mod common;`; the
//! root package's property tests include it by path.

#![allow(dead_code)] // each including test crate uses a different subset

use qsyn_arch::{Device, TransmonCost, TwoQubitNative};
use qsyn_circuit::Circuit;
use qsyn_core::decompose::{cz_to_cx, swap_to_cx, toffoli_clifford_t};
use qsyn_core::route::{emit_adjacent_cnot, emit_adjacent_cz, emit_adjacent_swap};
use qsyn_core::{
    ctr_route_with, mct_decompose, optimize_bounded, CompileError, DecomposeStrategy,
    OptimizeConfig, Placement, RouteRequest, RouteStrategyKind, RoutingObjective, RoutingTable,
};
use qsyn_gate::Gate;
use std::sync::Arc;

/// The lowering `decompose_circuit_memo` must reproduce gate for gate,
/// without the memo: every wide MCT is synthesized by `mct_decompose` on
/// its own lines, with the spare lines ordered by coupling distance to the
/// gate when a device is given (index order otherwise).
pub fn decompose_unmemoized(
    circuit: &Circuit,
    device: Option<&Device>,
    strategy: DecomposeStrategy,
) -> Result<Circuit, CompileError> {
    let n = circuit.n_qubits();
    let mut out = Circuit::new(n);
    let cz_native = device.is_some_and(|d| d.native() == TwoQubitNative::Cz);
    for g in circuit.gates() {
        match g {
            Gate::Single { .. } | Gate::Cx { .. } => out.push(g.clone()),
            Gate::Cz { .. } if cz_native => out.push(g.clone()),
            Gate::Cz { control, target } => out.extend(cz_to_cx(*control, *target)),
            Gate::Swap { a, b } => out.extend(swap_to_cx(*a, *b)),
            Gate::Mct { controls, target } => {
                let mut spare: Vec<usize> = (0..n)
                    .filter(|q| !controls.contains(q) && q != target)
                    .collect();
                if let Some(d) = device {
                    let dist = d.distances_from_set(&g.qubits());
                    spare.sort_by_key(|&q| (dist[q], q));
                }
                for tof in mct_decompose(controls, *target, &spare, strategy)? {
                    match tof {
                        Gate::Mct {
                            controls: tc,
                            target: tt,
                        } => out.extend(toffoli_clifford_t(tc[0], tc[1], tt)),
                        other => out.push(other),
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The paper's CTR router as the bare per-gate search: each two-qubit gate
/// is routed on its own by `ctr_route_with` and emitted with the adjacent
/// emitters (SWAP out along the path, the native gate, SWAP back). Returns
/// the routed circuit with its (SWAPs inserted, gates rerouted) counts —
/// what `CtrStrategy` must reproduce through any routing lookup.
pub fn ctr_per_gate(
    circuit: &Circuit,
    device: &Device,
    objective: RoutingObjective,
) -> Result<(Circuit, usize, usize), CompileError> {
    let mut out = Circuit::new(device.n_qubits());
    let (mut swaps, mut rerouted) = (0, 0);
    for g in circuit.gates() {
        let (control, target) = match *g {
            Gate::Cx { control, target } | Gate::Cz { control, target } => (control, target),
            _ => {
                out.push(g.clone());
                continue;
            }
        };
        let route = ctr_route_with(device, control, target, objective)?;
        let hops = route.path.len() - 1;
        swaps += 2 * hops;
        rerouted += usize::from(hops > 0);
        for w in route.path.windows(2) {
            emit_adjacent_swap(device, w[0], w[1], &mut out)?;
        }
        if matches!(g, Gate::Cz { .. }) {
            emit_adjacent_cz(device, route.effective_control, target, &mut out)?;
        } else {
            emit_adjacent_cnot(device, route.effective_control, target, &mut out)?;
        }
        for w in route.path.windows(2).rev() {
            emit_adjacent_swap(device, w[0], w[1], &mut out)?;
        }
    }
    Ok((out, swaps, rerouted))
}

/// The pipeline `Compiler::compile` runs, rebuilt with no shared state:
/// identity placement, the unmemoized lowering, routing (CTR as the bare
/// per-gate search, any other strategy over a private dense
/// [`RoutingTable`]), then the optimizer. Returns the (unoptimized,
/// optimized) circuits.
pub fn reference_pipeline(
    spec: &Circuit,
    d: &Device,
    kind: RouteStrategyKind,
    objective: RoutingObjective,
) -> (Circuit, Circuit) {
    let placed = Placement::identity(spec.n_qubits()).apply(spec, d);
    let decomposed = decompose_unmemoized(&placed, Some(d), DecomposeStrategy::Exact).unwrap();
    let routed = if kind == RouteStrategyKind::Ctr {
        ctr_per_gate(&decomposed, d, objective).unwrap().0
    } else {
        let table = Arc::new(RoutingTable::build(d, objective));
        kind.instance()
            .route(
                &RouteRequest::new(&decomposed, d)
                    .with_objective(objective)
                    .with_table(table),
            )
            .unwrap()
            .circuit
    };
    let cost = TransmonCost::default();
    let optimized = optimize_bounded(&routed, Some(d), &cost, OptimizeConfig::default(), None).0;
    (routed, optimized)
}
