//! Cache-key invalidation and differential-routing tests.
//!
//! The compile cache, MCT template memo, and routing-table registry are
//! process-global, so every test here uses a structurally distinct circuit
//! (circuit names do not enter the key): two tests touching the same gate
//! sequence on the same device would otherwise see each other's entries.

use proptest::prelude::*;
use qsyn_arch::{devices, CostModel, Device, TransmonCost, VolumeCost};
use qsyn_circuit::{Circuit, CircuitStats};
use qsyn_core::{
    routing_table, CacheMode, CompileBudget, CompileError, CompileResult, Compiler, CtrStrategy,
    RouteRequest, RoutingObjective, RoutingStrategy,
};
use qsyn_gate::Gate;

mod common;

/// A memoizing compiler with the given extra configuration.
fn mem_compiler(device: Device, cfg: impl FnOnce(Compiler) -> Compiler) -> Compiler {
    cfg(Compiler::new(device).with_cache(CacheMode::Mem))
}

/// Everything observable about a result except wall-clock timing.
fn assert_results_identical(a: &CompileResult, b: &CompileResult) {
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.placed, b.placed);
    assert_eq!(a.unoptimized, b.unoptimized);
    assert_eq!(a.optimized, b.optimized);
    assert_eq!(a.verified, b.verified);
}

#[test]
fn identical_rerun_hits_bit_identically() {
    // Unique shape for this test: h, cx, toffoli, tdg, cz on 5 lines.
    let mut c = Circuit::new(5);
    c.push(Gate::h(4));
    c.push(Gate::cx(4, 0));
    c.push(Gate::toffoli(0, 1, 2));
    c.push(Gate::tdg(2));
    c.push(Gate::cz(2, 3));

    let compiler = mem_compiler(devices::ibmqx4(), |c| c);
    let cold = compiler.compile(&c).unwrap();
    let warm = compiler.compile(&c).unwrap();
    assert!(!cold.metrics().cache_hit, "first compile must miss");
    assert!(warm.metrics().cache_hit, "identical rerun must hit");
    assert_results_identical(&cold, &warm);
}

#[test]
fn every_config_knob_invalidates_the_key() {
    // Unique shape: x, toffoli, cx, t on 5 lines.
    let mut c = Circuit::new(5);
    c.push(Gate::x(3));
    c.push(Gate::toffoli(2, 3, 4));
    c.push(Gate::cx(4, 1));
    c.push(Gate::t(0));

    // Populate the cache under the baseline configuration.
    let base = mem_compiler(devices::ibmqx4(), |c| c);
    assert!(!base.compile(&c).unwrap().metrics().cache_hit);
    assert!(base.compile(&c).unwrap().metrics().cache_hit);

    // Each variant changes exactly one key ingredient; all must miss even
    // though the baseline entry is resident.
    let variants: Vec<(&str, Compiler)> = vec![
        ("device", mem_compiler(devices::ibmqx2(), |c| c)),
        (
            "cost model",
            mem_compiler(devices::ibmqx4(), |c| {
                c.with_cost_model(Box::new(VolumeCost))
            }),
        ),
        (
            "budget",
            mem_compiler(devices::ibmqx4(), |c| {
                c.with_budget(CompileBudget::unlimited().with_max_route_swaps(10_000))
            }),
        ),
        (
            "routing objective",
            mem_compiler(devices::ibmqx4(), |c| {
                c.with_routing(RoutingObjective::HighestFidelity)
            }),
        ),
        (
            "optimization level",
            mem_compiler(devices::ibmqx4(), |c| c.with_optimization(false)),
        ),
    ];
    for (knob, compiler) in variants {
        let r = compiler.compile(&c).unwrap();
        assert!(!r.metrics().cache_hit, "changed {knob} must miss the cache");
        // And the variant's own entry is now resident.
        assert!(
            compiler.compile(&c).unwrap().metrics().cache_hit,
            "rerun under changed {knob} must hit its own entry"
        );
    }

    // The baseline entry survived all of the above.
    assert!(base.compile(&c).unwrap().metrics().cache_hit);
}

#[test]
fn same_named_cost_model_with_different_weights_misses() {
    // Both models report name() == "transmon-eqn2"; only the weights
    // differ, so only CostModel::cache_params separates the keys.
    let mut c = Circuit::new(4);
    c.push(Gate::h(1));
    c.push(Gate::toffoli(1, 3, 0));
    c.push(Gate::t(2));
    c.push(Gate::cx(0, 2));

    let default_weights = mem_compiler(devices::ibmqx4(), |c| c);
    assert!(!default_weights.compile(&c).unwrap().metrics().cache_hit);
    assert!(default_weights.compile(&c).unwrap().metrics().cache_hit);

    let heavy_cnots = mem_compiler(devices::ibmqx4(), |c| {
        c.with_cost_model(Box::new(TransmonCost::new(0.5, 9.0)))
    });
    let r = heavy_cnots.compile(&c).unwrap();
    assert!(
        !r.metrics().cache_hit,
        "same-named model with different weights must miss"
    );
    assert!(heavy_cnots.compile(&c).unwrap().metrics().cache_hit);
    assert!(default_weights.compile(&c).unwrap().metrics().cache_hit);
}

#[test]
fn opaque_cost_model_bypasses_the_mem_cache() {
    // A user-defined model keeps the default cache_params() == None: its
    // parameters are invisible to the key, so memoization must not engage
    // at all rather than collide on the name.
    struct Opaque;
    impl CostModel for Opaque {
        fn cost(&self, s: &CircuitStats) -> f64 {
            s.volume as f64
        }
        fn name(&self) -> &str {
            "opaque"
        }
    }

    let mut c = Circuit::new(4);
    c.push(Gate::x(0));
    c.push(Gate::toffoli(0, 2, 3));
    c.push(Gate::tdg(1));

    let compiler = mem_compiler(devices::ibmqx4(), |c| c.with_cost_model(Box::new(Opaque)));
    assert!(!compiler.compile(&c).unwrap().metrics().cache_hit);
    assert!(
        !compiler.compile(&c).unwrap().metrics().cache_hit,
        "opaque cost model must never be served from the compile cache"
    );
}

#[test]
fn unverified_verdicts_are_not_memoized() {
    // A node budget too small for any ladder rung degrades the verdict to
    // Unverified — a transient outcome that must be recomputed, never
    // replayed from the cache.
    let mut c = Circuit::new(4);
    c.push(Gate::h(3));
    c.push(Gate::toffoli(3, 0, 1));
    c.push(Gate::cx(1, 2));

    let compiler = mem_compiler(devices::ibmqx4(), |c| {
        c.with_budget(CompileBudget::default().with_node_budget(2))
    });
    let first = compiler.compile(&c).unwrap();
    assert!(first.verdict().is_unverified(), "{:?}", first.verdict());
    let second = compiler.compile(&c).unwrap();
    assert!(
        !second.metrics().cache_hit,
        "an unverified result must not be replayed from the cache"
    );
    assert!(second.verdict().is_unverified());
}

#[test]
fn reversed_coupling_direction_invalidates_the_key() {
    // Same name, same qubit count, same undirected topology — only the
    // direction of the 0-1 edge differs, so only the fingerprint of the
    // coupling set separates the two keys.
    let forward = Device::from_coupling_map("dir-probe", 3, &[(0, &[1]), (1, &[2])]);
    let reversed = Device::from_coupling_map("dir-probe", 3, &[(1, &[0, 2])]);

    let mut c = Circuit::new(3);
    c.push(Gate::cx(0, 1));
    c.push(Gate::h(2));
    c.push(Gate::cx(1, 2));
    c.push(Gate::tdg(0));

    let a = mem_compiler(forward, |c| c);
    let b = mem_compiler(reversed, |c| c);
    assert!(!a.compile(&c).unwrap().metrics().cache_hit);
    assert!(
        !b.compile(&c).unwrap().metrics().cache_hit,
        "reversing a coupling direction must miss"
    );
    assert!(a.compile(&c).unwrap().metrics().cache_hit);
    assert!(b.compile(&c).unwrap().metrics().cache_hit);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any circuit compiled twice under `CacheMode::Mem` replays from the
    /// cache with identical outputs. (No cold-miss assertion: two sampled
    /// cases may legitimately collide on the same structural key.)
    #[test]
    fn random_circuits_replay_identically(
        specs in proptest::collection::vec(
            prop_oneof![
                (0usize..5).prop_map(Gate::h),
                (0usize..5).prop_map(Gate::t),
                (0usize..5, 0usize..5)
                    .prop_filter("distinct", |(a, b)| a != b)
                    .prop_map(|(a, b)| Gate::cx(a, b)),
                (0usize..5, 0usize..5, 0usize..5)
                    .prop_filter("distinct", |(a, b, t)| a != b && a != t && b != t)
                    .prop_map(|(a, b, t)| Gate::toffoli(a, b, t)),
            ],
            1..10,
        ),
    ) {
        let mut c = Circuit::new(5);
        for g in specs {
            c.push(g);
        }
        let compiler = mem_compiler(devices::ibmqx4(), |c| c);
        let first = compiler.compile(&c).unwrap();
        let second = compiler.compile(&c).unwrap();
        prop_assert!(second.metrics().cache_hit, "second compile must replay");
        prop_assert_eq!(&first.optimized, &second.optimized);
        prop_assert_eq!(&first.unoptimized, &second.unoptimized);
        prop_assert_eq!(&first.placed, &second.placed);
        prop_assert_eq!(first.verified, second.verified);
    }
}

/// A two-qubit workload stressing every routed pair: all ordered pairs on
/// the small machines, a strided sample on the 96-qubit fabric.
fn routing_workload(d: &Device) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    if n <= 16 {
        for control in 0..n {
            for target in 0..n {
                if control != target {
                    c.push(Gate::cx(control, target));
                }
            }
        }
    } else {
        for i in 0..n {
            c.push(Gate::cx(i, (i * 37 + 11) % n));
        }
    }
    c
}

#[test]
fn table_routing_matches_legacy_on_every_device() {
    for d in devices::all_devices() {
        let workload = routing_workload(&d);
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
            let (legacy, swaps, rerouted) = common::ctr_per_gate(&workload, &d, objective).unwrap();
            let (shared, _) = routing_table(&d, objective);
            let table = CtrStrategy
                .route(
                    &RouteRequest::new(&workload, &d)
                        .with_objective(objective)
                        .with_table(shared),
                )
                .unwrap();
            assert_eq!(
                legacy.gates(),
                table.circuit.gates(),
                "table routing diverged from the per-gate search on {} under {objective:?}",
                d.name()
            );
            assert_eq!(swaps, table.swaps_inserted);
            assert_eq!(rerouted, table.gates_rerouted);
        }
    }
}

#[test]
fn disconnected_device_is_route_not_found_on_both_paths() {
    // Two 2-qubit islands; 0 and 2 are in different components.
    let split = Device::from_pairs("split-islands", 4, [(0, 1), (2, 3)]);
    let mut c = Circuit::new(4);
    c.push(Gate::cx(0, 2));

    for objective in [
        RoutingObjective::FewestSwaps,
        RoutingObjective::HighestFidelity,
    ] {
        let (shared, _) = routing_table(&split, objective);
        for result in [
            common::ctr_per_gate(&c, &split, objective).map(|_| ()),
            CtrStrategy
                .route(
                    &RouteRequest::new(&c, &split)
                        .with_objective(objective)
                        .with_table(shared),
                )
                .map(|_| ()),
        ] {
            match result {
                Err(CompileError::RouteNotFound { control, target }) => {
                    assert_eq!((control, target), (0, 2));
                }
                other => panic!("expected RouteNotFound, got {other:?}"),
            }
        }
    }
}
