//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * optimization families (identity removal vs. rewrite identities) — the
//!   two recursive optimizers of paper Section 4 steps 5-6;
//! * initial placement (identity, as in the paper, vs. the greedy
//!   future-work extension);
//! * proximity-aware dirty-ancilla selection in the Barenco decomposition
//!   (index order vs. coupling-distance order).
//!
//! Each group reports runtime; the companion `ablation` *binary* reports
//! the quality (cost) deltas.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsyn_arch::{devices, TransmonCost};
use qsyn_bench::big::big_by_name;
use qsyn_bench::revlib::revlib_by_name;
use qsyn_core::{
    decompose_circuit_memo, optimize_bounded, Compiler, DecomposeStrategy, OptimizeConfig,
    PlacementStrategy, RouteStrategyKind, Verification,
};
use std::hint::black_box;

fn bench_opt_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_opt_families");
    let device = devices::ibmqx3();
    let mapped = Compiler::new(device.clone())
        .with_verification(Verification::None)
        .with_optimization(false)
        .compile(&revlib_by_name("4gt12-v0_88").unwrap().circuit())
        .unwrap()
        .unoptimized;
    let cost = TransmonCost::default();
    let configs = [
        (
            "cancel_only",
            OptimizeConfig {
                cancel_identities: true,
                rewrite_identities: false,
            },
        ),
        (
            "rewrite_only",
            OptimizeConfig {
                cancel_identities: false,
                rewrite_identities: true,
            },
        ),
        ("both", OptimizeConfig::default()),
    ];
    for (name, cfg) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(optimize_bounded(&mapped, Some(&device), &cost, *cfg, None).0))
        });
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_placement");
    let circuit = revlib_by_name("4_49_17").unwrap().circuit();
    for (name, strategy) in [
        ("identity", PlacementStrategy::Identity),
        ("greedy", PlacementStrategy::Greedy),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, s| {
            let compiler = Compiler::new(devices::ibmqx5())
                .with_placement(*s)
                .with_verification(Verification::None);
            b.iter(|| black_box(compiler.compile(&circuit).unwrap()))
        });
    }
    group.finish();
}

fn bench_ancilla_proximity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ancilla_proximity");
    group.sample_size(10);
    let circuit = big_by_name("T8_b").unwrap().circuit();
    let device = devices::qc96();
    group.bench_function("index_order", |b| {
        b.iter(|| {
            black_box(decompose_circuit_memo(&circuit, None, DecomposeStrategy::Exact).unwrap())
        })
    });
    group.bench_function("distance_order", |b| {
        b.iter(|| {
            black_box(
                decompose_circuit_memo(&circuit, Some(&device), DecomposeStrategy::Exact).unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_route_style(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_route_style");
    let circuit = revlib_by_name("4gt13-v1_93").unwrap().circuit();
    for (name, strategy) in [
        ("ctr_swap_back", RouteStrategyKind::Ctr),
        ("persistent_layout", RouteStrategyKind::Persistent),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, s| {
            let compiler = Compiler::new(devices::ibmqx3())
                .with_route_strategy(*s)
                .with_verification(Verification::None);
            b.iter(|| black_box(compiler.compile(&circuit).unwrap()))
        });
    }
    group.finish();
}

fn bench_decompose_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_decompose_strategy");
    let circuit = revlib_by_name("4gt12-v0_88").unwrap().circuit();
    for (name, strategy) in [
        ("exact", DecomposeStrategy::Exact),
        ("relative_phase", DecomposeStrategy::RelativePhase),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, s| {
            let compiler = Compiler::new(devices::ibmqx5())
                .with_decompose_strategy(*s)
                .with_verification(Verification::None);
            b.iter(|| black_box(compiler.compile(&circuit).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_opt_families,
    bench_placement,
    bench_ancilla_proximity,
    bench_route_style,
    bench_decompose_strategy
);
criterion_main!(benches);
