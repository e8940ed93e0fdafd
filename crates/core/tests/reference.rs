//! Differential tests against the test-code references in `common`: the
//! decomposition memo, the shared routing lookups and the compiler's
//! pipeline must produce the same bytes as the references, which share no
//! state with them.

use qsyn_arch::devices;
use qsyn_circuit::Circuit;
use qsyn_core::{
    decompose_circuit_memo, Compiler, DecomposeStrategy, RouteStrategyKind, RoutingObjective,
};
use qsyn_gate::Gate;

mod common;

#[test]
fn memoized_decomposition_is_byte_identical() {
    // A circuit mixing every gate class the lowering loop handles,
    // including wide MCTs on scattered lines that exercise both the
    // plentiful-ancilla chain and the scarce-ancilla split.
    let mut c = Circuit::new(8);
    c.push(Gate::h(0));
    c.push(Gate::cx(1, 2));
    c.push(Gate::cz(3, 4));
    c.push(Gate::swap(5, 6));
    c.push(Gate::mct(vec![0, 2, 4], 6));
    c.push(Gate::mct(vec![1, 3, 5, 7], 0));
    c.push(Gate::mct(vec![0, 1, 2, 3, 4, 5], 7)); // scarce: 1 spare
    c.push(Gate::mct(vec![0, 2, 4], 6)); // repeat → memo hit
    let device = devices::ibmq_16();
    for strategy in [DecomposeStrategy::Exact, DecomposeStrategy::RelativePhase] {
        for dev in [None, Some(&device)] {
            let direct = common::decompose_unmemoized(&c, dev, strategy).unwrap();
            let (memo, counters) = decompose_circuit_memo(&c, dev, strategy).unwrap();
            assert_eq!(direct.gates(), memo.gates(), "strategy {strategy:?}");
            assert_eq!(counters.memo_hits + counters.memo_misses, 4);
            assert!(counters.memo_hits >= 1, "repeat shape must hit the memo");
        }
    }
}

#[test]
fn compiles_match_the_uncached_reference_pipeline() {
    // The shared routing tables and decomposition memo must be a
    // transparent acceleration: same bytes out as the per-gate
    // searches, for every strategy.
    let mut spec = Circuit::new(5).with_name("cache-modes");
    spec.push(Gate::mct(vec![0, 1, 2], 4));
    spec.push(Gate::cx(0, 4));
    for d in devices::ibm_devices() {
        for kind in RouteStrategyKind::CONCRETE {
            let (routed, optimized) =
                common::reference_pipeline(&spec, &d, kind, RoutingObjective::FewestSwaps);
            let tables = Compiler::new(d.clone())
                .with_route_strategy(kind)
                .compile(&spec)
                .unwrap();
            assert_eq!(optimized.gates(), tables.optimized.gates(), "{}", d.name());
            assert_eq!(routed.gates(), tables.unoptimized.gates(), "{}", d.name());
        }
    }
}

#[test]
fn streaming_peak_resident_gates_counts_the_routed_window() {
    // Repeated distant CNOTs: CTR swaps out and back per gate, and the
    // optimizer cancels the back-to-back SWAP chains, so the routed
    // window is the largest stage.
    let d = devices::ibmqx5();
    let mut spec = Circuit::new(d.n_qubits());
    for _ in 0..4 {
        spec.push(Gate::cx(0, 8));
    }
    let (routed, optimized) = common::reference_pipeline(
        &spec,
        &d,
        RouteStrategyKind::Ctr,
        RoutingObjective::FewestSwaps,
    );
    assert!(
        optimized.len() < routed.len(),
        "optimize must shrink the window"
    );
    assert!(routed.len() > spec.len());
    let summary = Compiler::new(d.clone())
        .compile_stream(
            d.n_qubits(),
            spec.len(),
            spec.gates().iter().cloned(),
            |_| {},
        )
        .unwrap();
    assert_eq!(summary.windows, 1);
    assert!(
        summary.peak_resident_gates >= routed.len(),
        "peak {} < routed {}",
        summary.peak_resident_gates,
        routed.len()
    );
}
