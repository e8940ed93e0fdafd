//! Micro-benchmarks of the QMDD package: gate-diagram construction,
//! diagram multiplication over growing register widths, and the canonical
//! equivalence check on structured circuits (paper Section 2.4 machinery).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsyn_circuit::Circuit;
use qsyn_gate::Gate;
use qsyn_qmdd::Qmdd;
use std::hint::black_box;

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::h(0));
    for q in 1..n {
        c.push(Gate::cx(q - 1, q));
    }
    c
}

/// A deterministic pseudo-random Clifford+T circuit.
fn random_circuit(n: usize, len: usize, mut seed: u64) -> Circuit {
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut c = Circuit::new(n);
    for _ in 0..len {
        match next() % 4 {
            0 => c.push(Gate::h((next() as usize) % n)),
            1 => c.push(Gate::t((next() as usize) % n)),
            2 => c.push(Gate::tdg((next() as usize) % n)),
            _ => {
                let a = (next() as usize) % n;
                let b = (next() as usize) % n;
                if a != b {
                    c.push(Gate::cx(a, b));
                }
            }
        }
    }
    c
}

fn bench_gate_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("qmdd_gate_build");
    group.sample_size(30);
    for n in [8usize, 32, 96] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut pkg = Qmdd::new(n);
                black_box(pkg.gate(&Gate::mct(vec![0, n / 2, n - 2], n - 1)))
            })
        });
    }
    group.finish();
}

fn bench_gate_construct(c: &mut Criterion) {
    // One gate diagram built into a warm package (its identity table and
    // nodes already interned): CX with the control above and below the
    // target, and a 3-control MCT spread over the register.
    let mut group = c.benchmark_group("gate_construct");
    group.sample_size(30);
    for n in [64usize, 1024] {
        let gates = [
            ("cx_control_above", Gate::cx(n / 2 - 1, n / 2)),
            ("cx_control_below", Gate::cx(n / 2, n / 2 - 1)),
            ("mct3", Gate::mct(vec![n / 8, n / 2, n - 2], n / 4)),
        ];
        let mut pkg = Qmdd::new(n);
        for (label, g) in &gates {
            group.bench_with_input(BenchmarkId::new(*label, n), g, |b, g| {
                b.iter(|| black_box(pkg.gate(g)))
            });
        }
    }
    group.finish();
}

fn bench_circuit_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("qmdd_circuit_product");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let circ = random_circuit(n, 120, 0xabcdef1234567890);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circ, |b, circ| {
            b.iter(|| {
                let mut pkg = Qmdd::new(circ.n_qubits());
                black_box(pkg.circuit(circ))
            })
        });
    }
    group.finish();
}

fn bench_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("qmdd_equivalence");
    group.sample_size(30);
    for n in [8usize, 16, 32] {
        let a = ghz(n);
        let mut b_ = ghz(n);
        // Append an identity-summing tail so the circuits differ textually.
        b_.push(Gate::t(n - 1));
        b_.push(Gate::tdg(n - 1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &(a, b_), |bch, (a, b_)| {
            bch.iter(|| black_box(qsyn_qmdd::equivalent(a, b_).equivalent))
        });
    }
    group.finish();
}

fn bench_gc_sweep(c: &mut Criterion) {
    // Equivalence under garbage collection: `off` runs with an effectively
    // infinite watermark (peak arena = every node ever built); `forced`
    // uses a low watermark so mark-and-sweep fires repeatedly mid-check.
    // The verdict is identical either way — this group tracks what the
    // sweeps themselves cost.
    let mut group = c.benchmark_group("qmdd_gc_sweep");
    group.sample_size(20);
    let n = 6;
    let a = random_circuit(n, 160, 0x5eed_cafe_f00d_d00d);
    for (label, watermark) in [("off", usize::MAX), ("forced", 1 << 10)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &a, |b, a| {
            b.iter(|| {
                let r = qsyn_qmdd::equivalent_with_gc_threshold(a, a, Some(watermark));
                black_box((r.equivalent, r.gc_runs, r.nodes_reclaimed))
            })
        });
    }
    group.finish();
}

fn bench_sweep_throughput(c: &mut Criterion) {
    // Parallel sweep engine: the same batch of independent compilations
    // through `par_map` at 1 worker vs. all CPUs.
    use qsyn_arch::devices;
    use qsyn_bench::par::par_map;
    use qsyn_core::pool::default_jobs;
    use qsyn_core::{Compiler, Verification};

    let mut group = c.benchmark_group("sweep_throughput");
    group.sample_size(10);
    let circuits: Vec<Circuit> = (0..8)
        .map(|i| random_circuit(4, 40, 0x1234_5678 + i))
        .collect();
    for jobs in [1usize, default_jobs()] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let results = par_map(&circuits, jobs, |_, circ| {
                    Compiler::new(devices::ibmqx5())
                        .with_verification(Verification::None)
                        .compile(circ)
                        .map(|r| r.optimized.len())
                });
                black_box(results)
            })
        });
    }
    group.finish();
}

fn bench_verify_windowed(c: &mut Criterion) {
    // The streaming-verification levers in isolation: the same window
    // checked with the full-register miter (every gate product drags all
    // 1024 lines), the support-restricted miter (compacted register of
    // just the window's touched qubits), and the restricted miter with
    // fused gate blocks. Each window is a prefix of the grid stream
    // (`qsyn_bench::random::grid_stream`).
    use qsyn_bench::random::grid_stream;
    use qsyn_qmdd::{
        miter_support, try_equivalent_miter, try_equivalent_miter_on_batched, EquivBudget,
        DEFAULT_MITER_BATCH,
    };
    let mut group = c.benchmark_group("verify_windowed");
    group.sample_size(10);
    let (n, w) = (1024, 32);
    for window in [64usize, 256, 1024] {
        let spec = Circuit::from_gates(n, grid_stream(n, w, window).collect());
        let out = spec.clone();
        let support = miter_support(&spec, &out);
        let b = EquivBudget::default();
        group.bench_with_input(BenchmarkId::new("full", window), &window, |bch, _| {
            bch.iter(|| black_box(try_equivalent_miter(&spec, &out, b).unwrap().equivalent))
        });
        group.bench_with_input(BenchmarkId::new("restricted", window), &window, |bch, _| {
            bch.iter(|| {
                black_box(
                    try_equivalent_miter_on_batched(&support, &spec, &out, b, 1)
                        .unwrap()
                        .equivalent,
                )
            })
        });
        group.bench_with_input(
            BenchmarkId::new("restricted_batched", window),
            &window,
            |bch, _| {
                bch.iter(|| {
                    black_box(
                        try_equivalent_miter_on_batched(&support, &spec, &out, b, DEFAULT_MITER_BATCH)
                            .unwrap()
                            .equivalent,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_construction,
    bench_gate_construct,
    bench_circuit_product,
    bench_equivalence,
    bench_gc_sweep,
    bench_sweep_throughput,
    bench_verify_windowed
);
criterion_main!(benches);
