//! Synthesis runtime benchmarks mirroring the paper's Section 5 timing
//! claims: most technology-dependent specifications in ~10^-2 s, none over
//! 5 s (Tables 3/5), and the largest 96-qubit benchmark about 6.5 s
//! (Table 8) — on a 2016 laptop running Python. The Criterion groups below
//! time the same three workload classes in this implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsyn_arch::devices;
use qsyn_bench::big::BIG_BENCHMARKS;
use qsyn_bench::revlib::REVLIB_BENCHMARKS;
use qsyn_bench::stg::stg_by_id;
use qsyn_core::{Compiler, Verification};
use qsyn_qmdd::{miter_support, try_equivalent_on, EquivBudget, EquivMethod};
use std::hint::black_box;

/// Table 3 class: single-target gates on IBM devices.
fn bench_stg(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_stg");
    for id in ["1", "0356", "033f"] {
        let cascade = stg_by_id(id).unwrap().cascade();
        let device = devices::ibmqx5();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("#{id}")),
            &cascade,
            |b, cas| {
                let compiler = Compiler::new(device.clone()).with_verification(Verification::None);
                b.iter(|| black_box(compiler.compile(cas).unwrap()));
            },
        );
    }
    group.finish();
}

/// Table 5 class: RevLib Toffoli cascades on IBM devices.
fn bench_revlib(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_revlib");
    for b_ in REVLIB_BENCHMARKS {
        let circuit = b_.circuit();
        let device = devices::ibmqx3();
        group.bench_with_input(BenchmarkId::from_parameter(b_.name), &circuit, |b, circ| {
            let compiler = Compiler::new(device.clone()).with_verification(Verification::None);
            b.iter(|| black_box(compiler.compile(circ).unwrap()));
        });
    }
    group.finish();
}

/// Table 8 class: generalized-Toffoli cascades on the 96-qubit machine.
fn bench_qc96(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_qc96");
    group.sample_size(10);
    for b_ in [BIG_BENCHMARKS[0], BIG_BENCHMARKS[4]] {
        let circuit = b_.circuit();
        let device = devices::qc96();
        group.bench_with_input(BenchmarkId::from_parameter(b_.name), &circuit, |b, circ| {
            let compiler = Compiler::new(device.clone()).with_verification(Verification::None);
            b.iter(|| black_box(compiler.compile(circ).unwrap()));
        });
    }
    group.finish();
}

/// The built-in formal verification step by itself (the paper reports it
/// inside its synthesis times).
fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("qmdd_verify");
    group.sample_size(10);
    let cascade = stg_by_id("0356").unwrap().cascade();
    let device = devices::ibmqx5();
    let mapped = Compiler::new(device)
        .with_verification(Verification::None)
        .compile(&cascade)
        .unwrap();
    let (spec, out) = (&mapped.placed, &mapped.optimized);
    let budget = EquivBudget::default();
    for (name, method) in [
        ("canonical_stg_0356_ibmqx5", EquivMethod::Canonical),
        ("miter_stg_0356_ibmqx5", EquivMethod::Miter),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let support = miter_support(spec, out);
                black_box(try_equivalent_on(&support, spec, out, method, budget))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stg,
    bench_revlib,
    bench_qc96,
    bench_verification
);
criterion_main!(benches);
