//! Differential tests for the sparse [`DistanceOracle`]: routing through
//! the oracle must be byte-identical to routing through the dense
//! [`RoutingTable`] (and, for CTR, to the bare per-gate search) on every
//! built-in device, under both objectives, for every strategy — the dense/sparse
//! split is a memory-layout decision, never a behavioral one. Plus the
//! large-device paths the oracle exists for: generated-family compiles
//! and streaming.

use qsyn_arch::{devices, Device, TransmonCost};
use qsyn_circuit::Circuit;
use qsyn_core::{
    decompose_circuit_with, optimize_bounded, routing_lookup, routing_oracle, routing_table,
    Compiler, DecomposeStrategy, OptimizeConfig, Placement, RouteRequest, RouteStrategyKind,
    RoutingLookup, RoutingObjective, RoutingTable, Verification, SPARSE_ORACLE_MIN_QUBITS,
};
use qsyn_gate::Gate;
use std::sync::Arc;

mod common;

/// A routing workload touching distant pairs, repeats, reversals, and
/// interleaved one-qubit gates, scaled to the device width.
fn mixed_workload(d: &Device) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    c.push(Gate::h(0));
    c.push(Gate::cx(0, n - 1));
    c.push(Gate::t(n - 1));
    c.push(Gate::cx(0, n - 1));
    c.push(Gate::cx(n - 1, 0));
    c.push(Gate::x(n / 2));
    c.push(Gate::cx(n / 2, 0));
    c.push(Gate::cx(1, 2));
    c
}

#[test]
fn oracle_routing_is_byte_identical_on_every_device_objective_and_strategy() {
    for d in devices::all_devices() {
        let spec = mixed_workload(&d);
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
            let (table, _) = routing_table(&d, objective);
            let (oracle, _) = routing_oracle(&d, objective);
            for kind in RouteStrategyKind::CONCRETE {
                let strategy = kind.instance();
                let dense = strategy
                    .route(
                        &RouteRequest::new(&spec, &d)
                            .with_objective(objective)
                            .with_table(table.clone()),
                    )
                    .unwrap();
                let sparse = strategy
                    .route(
                        &RouteRequest::new(&spec, &d)
                            .with_objective(objective)
                            .with_oracle(oracle.clone()),
                    )
                    .unwrap();
                if kind == RouteStrategyKind::Ctr {
                    let (bare, swaps, rerouted) = common::ctr_per_gate(&spec, &d, objective)
                        .unwrap_or_else(|e| panic!("{} {objective:?}: {e}", d.name()));
                    assert_eq!(
                        dense.circuit.gates(),
                        bare.gates(),
                        "table diverged from the per-gate search on {} {objective:?}",
                        d.name()
                    );
                    assert_eq!(
                        (dense.swaps_inserted, dense.gates_rerouted),
                        (swaps, rerouted)
                    );
                }
                assert_eq!(
                    sparse.circuit.gates(),
                    dense.circuit.gates(),
                    "oracle diverged from table on {} {objective:?} via {}",
                    d.name(),
                    kind.name()
                );
                assert_eq!(sparse.swaps_inserted, dense.swaps_inserted);
                assert_eq!(sparse.gates_rerouted, dense.gates_rerouted);
                assert_eq!(sparse.restoration_swaps, dense.restoration_swaps);
            }
        }
    }
}

/// The pipeline `Compiler::compile` runs, rebuilt from public stage
/// functions with no shared state: identity placement, uncached
/// decomposition, routing (CTR as the bare per-gate search, any other
/// strategy over a private dense [`RoutingTable`]), then the optimizer.
/// Returns the (unoptimized, optimized) circuits.
fn reference_pipeline(
    spec: &Circuit,
    d: &Device,
    kind: RouteStrategyKind,
    objective: RoutingObjective,
) -> (Circuit, Circuit) {
    let placed = Placement::identity(spec.n_qubits()).apply(spec, d);
    let decomposed = decompose_circuit_with(&placed, Some(d), DecomposeStrategy::Exact).unwrap();
    let routed = if kind == RouteStrategyKind::Ctr {
        common::ctr_per_gate(&decomposed, d, objective).unwrap().0
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

#[test]
fn sparse_compile_matches_the_uncached_legacy_on_a_generated_device() {
    // lnn(n >= threshold) selects the sparse oracle in the compiler; the
    // reference pipeline routes with no shared state.
    // Both must produce the same bytes — the acceptance bar for swapping
    // the dense table out from under big devices.
    let d = devices::lnn(SPARSE_ORACLE_MIN_QUBITS + 2);
    assert!(matches!(
        routing_lookup(&d, RoutingObjective::FewestSwaps).0,
        RoutingLookup::Sparse(_)
    ));
    let mut spec = Circuit::new(24).with_name("lnn-diff");
    spec.push(Gate::toffoli(0, 10, 20));
    spec.push(Gate::cx(23, 3));
    spec.push(Gate::h(7));
    spec.push(Gate::cx(3, 23));
    for strategy in [RouteStrategyKind::Ctr, RouteStrategyKind::Lookahead] {
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
            let cached = Compiler::new(d.clone())
                .with_route_strategy(strategy)
                .with_routing(objective)
                .with_verification(Verification::None)
                .compile(&spec)
                .unwrap();
            let (routed, optimized) = reference_pipeline(&spec, &d, strategy, objective);
            assert_eq!(
                cached.unoptimized.gates(),
                routed.gates(),
                "{} {objective:?}",
                strategy.name()
            );
            assert_eq!(cached.optimized.gates(), optimized.gates());
            // The route event reports the oracle's activity.
            let route = cached.metrics().pass(qsyn_trace::Pass::Route).unwrap();
            assert!(
                route.counter("oracle_misses").is_some(),
                "{}",
                strategy.name()
            );
        }
    }
}

#[test]
fn generated_grid_compiles_and_verifies_through_the_oracle() {
    let d = devices::grid_calibrated(16, 16); // 256 qubits: sparse territory
    let mut spec = Circuit::new(40).with_name("grid-smoke");
    spec.push(Gate::h(0));
    spec.push(Gate::cx(0, 39));
    spec.push(Gate::toffoli(5, 17, 31));
    spec.push(Gate::cx(39, 0));
    let r = Compiler::new(d)
        .with_route_strategy(RouteStrategyKind::Lookahead)
        .compile(&spec)
        .unwrap();
    assert_eq!(r.verified, Some(true));
    let route = r.metrics().pass(qsyn_trace::Pass::Route).unwrap();
    assert!(route.counter("oracle_misses").unwrap() > 0.0);
}

#[test]
fn streaming_compile_on_a_generated_device_verifies_every_window() {
    let n = SPARSE_ORACLE_MIN_QUBITS + 22;
    let d = devices::lnn(n);
    // A nearest-neighbor-heavy stream with some distant pairs mixed in.
    let gates: Vec<Gate> = (0..400)
        .map(|i| match i % 5 {
            0 => Gate::h(i % n),
            1 => Gate::cx(i % (n - 1), i % (n - 1) + 1),
            2 => Gate::t((i * 7) % n),
            3 => Gate::cx((i * 13) % n, (i * 13 + 9) % n),
            _ => Gate::cx((i + 1) % (n - 1) + 1, (i + 1) % (n - 1)),
        })
        .filter(|g| match g {
            Gate::Cx { control, target } => control != target,
            _ => true,
        })
        .collect();
    let mut emitted = 0usize;
    let summary = Compiler::new(d)
        .with_budget(qsyn_core::CompileBudget::default().with_node_budget(1 << 20))
        .compile_stream(n, 64, gates.iter().cloned(), |_| emitted += 1)
        .unwrap();
    assert_eq!(summary.gates_in, gates.len());
    assert_eq!(summary.gates_out, emitted);
    assert_eq!(summary.windows, gates.len().div_ceil(64));
    assert_eq!(summary.unverified_windows, 0);
    assert_eq!(summary.verified_windows, summary.windows);
    assert!(
        matches!(summary.verdict, qsyn_trace::Verdict::Verified { ref method } if method == "windowed-miter"),
        "{:?}",
        summary.verdict
    );
    assert!(summary.oracle_hits + summary.oracle_misses > 0);
    assert!(summary.peak_resident_gates < summary.gates_out);
}
