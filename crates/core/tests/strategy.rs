//! Differential tests for the pluggable routing strategies: every
//! strategy's output must be QMDD-equivalent to its input on every
//! built-in device under both routing objectives, and the compiler must
//! produce identical results whichever way a strategy is selected.

use qsyn_arch::{devices, CostModel, Device, RouteHint, TransmonCost};
use qsyn_circuit::Circuit;
use qsyn_core::{
    decompose_circuit_with, route_circuit_persistent, routing_table, CompileBudget, CompileError,
    Compiler, DecomposeStrategy, LookaheadStrategy, PersistentStrategy, RouteRequest,
    RouteStrategyKind, RoutingObjective, RoutingStrategy,
};
use qsyn_gate::Gate;
use qsyn_qmdd::{circuits_equal, equivalent_miter};

/// A routing workload touching distant pairs, repeats, reversals, and
/// interleaved one-qubit gates, scaled to the device width.
fn mixed_workload(d: &Device) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    c.push(Gate::h(0));
    c.push(Gate::cx(0, n - 1)); // maximal-distance pair
    c.push(Gate::t(n - 1));
    c.push(Gate::cx(0, n - 1)); // repeat: rewards a persistent layout
    c.push(Gate::cx(n - 1, 0)); // reversed orientation
    c.push(Gate::x(n / 2));
    c.push(Gate::cx(n / 2, 0));
    c.push(Gate::cx(1, 2));
    c
}

/// QMDD equivalence sized to the register: canonical QMDDs up to 16
/// qubits, the interleaved miter beyond (the qc96 fabric).
fn equivalent_for(d: &Device, spec: &Circuit, routed: &Circuit) -> bool {
    if d.n_qubits() <= 16 {
        circuits_equal(spec, routed)
    } else {
        equivalent_miter(spec, routed).equivalent
    }
}

#[test]
fn lookahead_is_qmdd_equivalent_on_every_device_and_objective() {
    for d in devices::all_devices() {
        let spec = mixed_workload(&d);
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            let out = LookaheadStrategy::default()
                .route(&RouteRequest::new(&spec, &d).with_objective(objective))
                .unwrap_or_else(|e| panic!("{} {objective:?}: {e}", d.name()));
            assert!(
                equivalent_for(&d, &spec, &out.circuit),
                "lookahead output diverged on {} under {objective:?}",
                d.name()
            );
            for g in out.circuit.gates() {
                assert!(d.supports(g), "illegal {g} on {}", d.name());
            }
        }
    }
}

#[test]
fn persistent_is_qmdd_equivalent_on_every_device_and_objective() {
    for d in devices::all_devices() {
        let spec = mixed_workload(&d);
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            let out = PersistentStrategy
                .route(&RouteRequest::new(&spec, &d).with_objective(objective))
                .unwrap_or_else(|e| panic!("{} {objective:?}: {e}", d.name()));
            assert!(
                equivalent_for(&d, &spec, &out.circuit),
                "persistent output diverged on {} under {objective:?}",
                d.name()
            );
        }
    }
}

#[test]
fn table_and_tableless_lookahead_agree_everywhere() {
    // The shared routing table only supplies distances; using it must not
    // change what the lookahead emits.
    for d in devices::all_devices() {
        let spec = mixed_workload(&d);
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            let bare = LookaheadStrategy::default()
                .route(&RouteRequest::new(&spec, &d).with_objective(objective))
                .unwrap();
            let (table, _) = routing_table(&d, objective);
            let cached = LookaheadStrategy::default()
                .route(
                    &RouteRequest::new(&spec, &d)
                        .with_objective(objective)
                        .with_table(table),
                )
                .unwrap();
            assert_eq!(
                bare.circuit.gates(),
                cached.circuit.gates(),
                "table changed lookahead output on {} under {objective:?}",
                d.name()
            );
        }
    }
}

#[test]
fn compiler_with_every_strategy_verifies() {
    // Full pipeline: each selectable strategy compiles a Toffoli and
    // passes the built-in QMDD verification.
    let mut spec = Circuit::new(3).with_name("tof");
    spec.push(Gate::toffoli(0, 1, 2));
    for kind in RouteStrategyKind::ALL {
        let r = Compiler::new(devices::ibmqx3())
            .with_route_strategy(kind)
            .compile(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(r.verified, Some(true), "{} failed verification", kind.name());
    }
}

#[test]
fn compiler_route_event_carries_the_strategy_tag() {
    let mut spec = Circuit::new(3).with_name("tag-probe");
    spec.push(Gate::toffoli(2, 1, 0));
    for kind in RouteStrategyKind::CONCRETE {
        let r = Compiler::new(devices::ibmqx4())
            .with_route_strategy(kind)
            .compile(&spec)
            .unwrap();
        let route = r.metrics().pass(qsyn_trace::Pass::Route).unwrap();
        let tag = route.counter("strategy").expect("route events carry a strategy tag");
        assert_eq!(
            qsyn_trace::route_strategy_name(tag),
            Some(kind.name()),
            "wrong tag for {}",
            kind.name()
        );
    }
}

#[test]
fn auto_strategy_follows_the_cost_models_hint() {
    // TransmonCost hints Swaps -> Auto resolves to the lookahead router;
    // the route event's tag records the *resolved* strategy.
    let mut spec = Circuit::new(4).with_name("auto-probe");
    spec.push(Gate::cx(0, 3));
    spec.push(Gate::cx(0, 3));
    let r = Compiler::new(devices::ibmqx5())
        .with_route_strategy(RouteStrategyKind::Auto)
        .compile(&spec)
        .unwrap();
    let route = r.metrics().pass(qsyn_trace::Pass::Route).unwrap();
    assert_eq!(
        qsyn_trace::route_strategy_name(route.counter("strategy").unwrap()),
        Some("lookahead")
    );
    assert_eq!(TransmonCost::default().route_hint(), RouteHint::Swaps);
}

#[test]
fn lookahead_under_the_compiler_respects_swap_caps() {
    let mut spec = Circuit::new(16).with_name("capped-look");
    spec.push(Gate::cx(5, 10));
    spec.push(Gate::cx(0, 14));
    match Compiler::new(devices::ibmqx3())
        .with_route_strategy(RouteStrategyKind::Lookahead)
        .with_budget(CompileBudget::default().with_max_route_swaps(1))
        .compile(&spec)
    {
        Err(CompileError::BudgetExceeded { limit, .. }) => assert_eq!(limit, 1),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // The cap is recorded on the route event when the compile fits.
    let ok = Compiler::new(devices::ibmqx3())
        .with_route_strategy(RouteStrategyKind::Lookahead)
        .with_budget(CompileBudget::default().with_max_route_swaps(10_000))
        .compile(&spec)
        .unwrap();
    let route = ok.metrics().pass(qsyn_trace::Pass::Route).unwrap();
    assert_eq!(route.counter("swap_cap"), Some(10_000.0));
    let reported = route.counter("swaps_inserted").unwrap()
        + route.counter("restoration_swaps").unwrap_or(0.0);
    assert!(reported <= 10_000.0);
}

#[test]
fn ctr_strategy_selection_is_byte_identical_to_the_default() {
    // `--route-strategy ctr` must not perturb the paper pipeline, and
    // `persistent` must route exactly as the persistent-layout router.
    let d = devices::ibmqx4();
    let mut spec = Circuit::new(5).with_name("ctr-regress");
    spec.push(Gate::toffoli(0, 2, 4));
    spec.push(Gate::cx(4, 0));
    let default = Compiler::new(d.clone()).compile(&spec).unwrap();
    let explicit = Compiler::new(d.clone())
        .with_route_strategy(RouteStrategyKind::Ctr)
        .compile(&spec)
        .unwrap();
    assert_eq!(default.optimized, explicit.optimized);
    assert_eq!(default.unoptimized, explicit.unoptimized);
    let persistent = Compiler::new(d.clone())
        .with_route_strategy(RouteStrategyKind::Persistent)
        .compile(&spec)
        .unwrap();
    let decomposed =
        decompose_circuit_with(&persistent.placed, Some(&d), DecomposeStrategy::Exact).unwrap();
    let reference =
        route_circuit_persistent(&decomposed, &d, RoutingObjective::FewestSwaps).unwrap();
    assert_eq!(persistent.unoptimized.gates(), reference.gates());
}
