//! Routing microbenchmarks over the precomputed all-pairs routing table
//! (`qsyn_core::cache`): CTR and the SABRE-style lookahead routing through
//! it, and the one-time table build. The workload is a CNOT for every
//! ordered qubit pair, so every table entry is exercised. That table
//! routing is byte-identical to the per-gate CTR search is asserted by
//! `crates/core/tests/cache.rs::table_routing_matches_legacy_on_every_device`;
//! here we only time it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsyn_arch::{devices, Device};
use qsyn_circuit::Circuit;
use qsyn_core::{
    routing_table, CtrStrategy, LookaheadStrategy, RouteRequest, RoutingObjective, RoutingStrategy,
};
use qsyn_gate::Gate;
use std::hint::black_box;

fn all_pairs_cnots(d: &Device) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    for control in 0..n {
        for target in 0..n {
            if control != target {
                c.push(Gate::cx(control, target));
            }
        }
    }
    c
}

/// Table-driven routing (steady state: the table is built outside the
/// timed region, matching one build amortized over a sweep).
fn bench_route_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_table");
    group.sample_size(20);
    for d in devices::ibm_devices() {
        let workload = all_pairs_cnots(&d);
        let (table, _) = routing_table(&d, RoutingObjective::FewestSwaps);
        group.bench_with_input(BenchmarkId::from_parameter(d.name()), &workload, |b, w| {
            b.iter(|| {
                black_box(
                    CtrStrategy
                        .route(&RouteRequest::new(w, &d).with_table(table.clone()))
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

/// The SABRE-style lookahead router on the same workload (table-backed),
/// so the per-gate cost of the candidate scoring is visible next to CTR.
fn bench_route_lookahead(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_lookahead");
    group.sample_size(20);
    for d in devices::ibm_devices() {
        let workload = all_pairs_cnots(&d);
        let (table, _) = routing_table(&d, RoutingObjective::FewestSwaps);
        group.bench_with_input(BenchmarkId::from_parameter(d.name()), &workload, |b, w| {
            b.iter(|| {
                black_box(
                    LookaheadStrategy
                        .route(&RouteRequest::new(w, &d).with_table(table.clone()))
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

/// The one-time table construction cost itself (all-pairs CTR search plus
/// both distance matrices), so the break-even point is visible.
fn bench_table_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_table_build");
    group.sample_size(20);
    for d in devices::ibm_devices() {
        group.bench_with_input(BenchmarkId::from_parameter(d.name()), &d, |b, dev| {
            b.iter(|| {
                black_box(qsyn_core::RoutingTable::build(
                    dev,
                    RoutingObjective::FewestSwaps,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_route_table,
    bench_route_lookahead,
    bench_table_build
);
criterion_main!(benches);
