//! Tests pinned to specific quantitative claims of the paper, so the
//! reproduction cannot silently drift away from the publication.

use qsyn::bench::big::BIG_BENCHMARKS;
use qsyn::bench::report::{run_table2, tech_independent_metrics};
use qsyn::bench::revlib::REVLIB_BENCHMARKS;
use qsyn::bench::stg::{stg_by_id, STG_FUNCTIONS};
use qsyn::prelude::*;

/// Section 3 / Table 2: coupling complexities, exact to the printed digits.
#[test]
fn table2_coupling_complexities_exact() {
    for row in run_table2() {
        assert!(
            (row.complexity - row.paper_complexity).abs() < 1e-9,
            "{}: {} vs {}",
            row.name,
            row.complexity,
            row.paper_complexity
        );
    }
}

/// Fig. 5: on ibmqx3, a CNOT q5 -> q10 reroutes via exactly two swaps,
/// first q5<->q12 then q12<->q11, with q11 driving the CNOT.
#[test]
fn fig5_ctr_example_exact() {
    let d = devices::ibmqx3();
    let r = qsyn::core::ctr_route_with(&d, 5, 10, RoutingObjective::FewestSwaps).unwrap();
    assert_eq!(r.path, vec![5, 12, 11]);
    assert_eq!(r.effective_control, 11);
}

/// Section 4: "all SWAP operations will have a maximum gate count of 7,
/// including four H operations and three CNOT operations".
#[test]
fn swap_expansion_bound() {
    for device in devices::all_devices() {
        for (a, b) in device.couplings() {
            let mut out = Circuit::new(device.n_qubits());
            qsyn::core::route::emit_adjacent_swap(&device, a, b, &mut out).unwrap();
            assert!(out.len() <= 7, "{}: swap {a},{b} took {}", device.name(), out.len());
            let stats = out.stats();
            assert_eq!(stats.cnot_count, 3, "three CNOTs per SWAP");
            assert!(stats.other_single_count <= 4, "at most four H");
        }
    }
}

/// Fig. 6: the CNOT orientation reversal identity, QMDD-verified.
#[test]
fn fig6_reversal_identity() {
    let mut fwd = Circuit::new(2);
    fwd.push(Gate::cx(1, 0));
    let mut rev = Circuit::new(2);
    rev.extend([
        Gate::h(0),
        Gate::h(1),
        Gate::cx(0, 1),
        Gate::h(0),
        Gate::h(1),
    ]);
    assert!(circuits_equal(&fwd, &rev));
}

/// Fig. 3: SWAP = three CNOTs, QMDD-verified.
#[test]
fn fig3_swap_identity() {
    let mut s = Circuit::new(2);
    s.push(Gate::swap(0, 1));
    let mut three = Circuit::new(2);
    three.extend([Gate::cx(0, 1), Gate::cx(1, 0), Gate::cx(0, 1)]);
    assert!(circuits_equal(&s, &three));
}

/// Table 5: the benchmark T-counts (14, 21, 35, 70, 28) reproduce exactly
/// on the 16-qubit devices, and T-count is invariant across devices.
#[test]
fn table5_t_counts_exact_and_device_invariant() {
    for b in REVLIB_BENCHMARKS {
        let mut seen = Vec::new();
        for device in devices::ibm_devices() {
            if let Ok(r) = Compiler::new(device).compile(&b.circuit()) {
                // Routing never changes T-count; the paper's column is the
                // mapped (pre-optimization) value.
                seen.push(r.unoptimized.stats().t_count);
                // Optimization may only ever lower it (phase folding).
                assert!(r.optimized.stats().t_count <= b.paper_t, "{}", b.name);
            }
        }
        assert!(!seen.is_empty(), "{}", b.name);
        assert!(
            seen.iter().all(|&t| t == b.paper_t),
            "{}: {seen:?} vs paper {}",
            b.name,
            b.paper_t
        );
    }
}

/// Table 8: the 96-qubit benchmark T-counts (336, 448, 560, 672, 784)
/// reproduce exactly, and optimization improves every benchmark.
#[test]
fn table8_t_counts_exact_and_all_improve() {
    let d = devices::qc96();
    let cost = TransmonCost::default();
    for b in BIG_BENCHMARKS {
        let r = Compiler::new(d.clone())
            .with_verification(Verification::None)
            .compile(&b.circuit())
            .unwrap();
        assert_eq!(r.unoptimized.stats().t_count, b.paper_unopt.0, "{}", b.name);
        assert_eq!(r.optimized.stats().t_count, b.paper_opt.0, "{}", b.name);
        assert!(
            r.percent_cost_decrease(&cost) > 10.0,
            "{}: optimization must bite on the big machine",
            b.name
        );
    }
}

/// Table 8 outputs compute the right classical function: spot-check the
/// compiled T6_b via sparse QMDD basis-column queries (dense expansion is
/// impossible on 96 qubits).
#[test]
fn table8_output_function_spot_check() {
    let b = qsyn::bench::big::big_by_name("T6_b").unwrap();
    let spec = b.circuit();
    let r = Compiler::new(devices::qc96())
        .with_verification(Verification::None)
        .compile(&spec)
        .unwrap();
    let (pkg, root) = qsyn::qmdd::build_circuit_qmdd(&r.optimized);
    let bit = |q: usize| 1u128 << (95 - q);
    // Input with the first gate's controls q1..q5 all ones: target q25
    // must flip; nothing else fires.
    let input = bit(1) | bit(2) | bit(3) | bit(4) | bit(5);
    let col = pkg.basis_column(root, input);
    assert_eq!(col.len(), 1, "permutation circuit");
    assert_eq!(col[0].0, input | bit(25));
    assert!(col[0].1.is_one());
    // All-zeros input is a fixed point.
    let col0 = pkg.basis_column(root, 0);
    assert_eq!(col0, vec![(0, qsyn::gate::C64::ONE)]);
}

/// Section 5: mapping to the unconstrained simulator leaves pre-optimized
/// Clifford+T circuits unchanged (no restrictions -> nothing to reroute,
/// nothing for the optimizer to cut).
#[test]
fn simulator_mapping_is_identity_on_optimal_circuits() {
    // The 15-gate Toffoli network is already optimal under our rewrites.
    let mut c = Circuit::new(3);
    c.extend(qsyn::core::decompose::toffoli_clifford_t(0, 1, 2));
    let r = Compiler::new(Device::simulator(3)).compile(&c).unwrap();
    assert_eq!(r.optimized.gates(), c.gates());
}

/// Section 5: technology mapping expands circuits, sometimes by an order
/// of magnitude, and lower coupling complexity tends to cost more gates.
#[test]
fn mapping_expansion_and_complexity_trend() {
    let f = stg_by_id("0356").unwrap();
    let cascade = f.cascade();
    let (_, tech_ind_gates, _) = tech_independent_metrics(&cascade);
    let mut results: Vec<(f64, usize)> = Vec::new();
    for device in devices::ibm_devices() {
        if let Ok(r) = Compiler::new(device.clone()).compile(&cascade) {
            results.push((device.coupling_complexity(), r.optimized.len()));
        }
    }
    // Expansion: every mapping is larger than the unconstrained form.
    for (_, gates) in &results {
        assert!(*gates > tech_ind_gates, "mapping must expand");
    }
    // Trend: the densest device (0.3) maps more cheaply than the sparsest.
    let best_dense = results
        .iter()
        .filter(|(c, _)| *c > 0.2)
        .map(|(_, g)| *g)
        .min()
        .unwrap();
    let worst_sparse = results
        .iter()
        .filter(|(c, _)| *c < 0.2)
        .map(|(_, g)| *g)
        .max()
        .unwrap();
    assert!(best_dense < worst_sparse, "{results:?}");
}

/// Section 5: most technology-dependent mappings improve under
/// optimization (the paper reports 79% of 94 outputs improving; the suite
/// composition differs slightly here, so assert a clear majority).
#[test]
fn majority_of_mappings_improve() {
    let cost = TransmonCost::default();
    let mut improved = 0usize;
    let mut total = 0usize;
    for f in STG_FUNCTIONS.iter().filter(|f| f.qubits <= 5) {
        let cascade = f.cascade();
        for device in devices::ibm_devices() {
            if let Ok(r) = Compiler::new(device)
                .with_verification(Verification::None)
                .compile(&cascade)
            {
                total += 1;
                if r.percent_cost_decrease(&cost) > 0.0 {
                    improved += 1;
                }
            }
        }
    }
    assert!(total >= 30, "suite too small: {total}");
    assert!(
        improved * 2 > total,
        "only {improved}/{total} mappings improved"
    );
}

/// Section 5 runtime claim: typical benchmarks synthesize in ~10^-2 s and
/// none should take longer than a few seconds (ours run in release-less
/// test builds, so allow generous slack while still catching pathology).
#[test]
fn synthesis_runtime_sanity() {
    let f = stg_by_id("0356").unwrap();
    let start = std::time::Instant::now();
    let _ = Compiler::new(devices::ibmqx5())
        .with_verification(Verification::None)
        .compile(&f.cascade())
        .unwrap();
    assert!(
        start.elapsed().as_secs_f64() < 5.0,
        "synthesis took {:?}",
        start.elapsed()
    );
}

/// The paper's Eqn. 2 arithmetic on its own Table 3 rows: cost columns are
/// consistent with 0.5t + 0.25c + a (cross-checks our cost model).
#[test]
fn eqn2_consistency_with_table3_rows() {
    // Row #1: 7 T, 17 gates, cost 22.25 implies 7 CNOTs; row #07: 16 T,
    // 60 gates, cost 75 implies 28 CNOTs. Integral CNOT counts confirm the
    // formula reading.
    for (t, gates, cost) in [(7.0f64, 17.0, 22.25), (16.0, 60.0, 75.0), (12.0, 42.0, 54.75)] {
        let c: f64 = (cost - 0.5 * t - gates) / 0.25;
        assert!((c - c.round()).abs() < 1e-9, "non-integral CNOT count {c}");
        assert!(c >= 0.0);
    }
}
