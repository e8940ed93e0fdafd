//! Deterministic forms of the performance claims: routing quality as
//! golden SWAP counts and Eqn. 2 costs, sparse-oracle memory as byte
//! counts, and support-restricted verification — batch and stream — as
//! ratios of QMDD compute-table lookups. Every figure here is a count, so
//! each run reproduces it exactly; wall-clock throughput is measured by
//! `python3 perfbench/run.py` instead.

use qsyn::bench::big::BIG_BENCHMARKS;
use qsyn::bench::random::grid_stream;
use qsyn::bench::revlib::REVLIB_BENCHMARKS;
use qsyn::core::{DistanceOracle, RoutingTable};
use qsyn::prelude::*;
use qsyn::qmdd::{
    miter_support, try_equivalent, try_equivalent_miter, try_equivalent_on, EquivBudget,
    EquivMethod, EquivReport,
};
use std::sync::Arc;

/// A CNOT for every ordered qubit pair: the densest routing workload a
/// device supports, exercising every table entry.
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

/// Routes `workload` through the shared routing table.
fn route(
    strategy: &dyn RoutingStrategy,
    workload: &Circuit,
    d: &Device,
    objective: RoutingObjective,
) -> RouteOutcome {
    let (table, _) = qsyn::core::routing_table(d, objective);
    strategy
        .route(
            &RouteRequest::new(workload, d)
                .with_objective(objective)
                .with_table(table),
        )
        .expect("IBM devices are connected")
}

/// The all-pairs CNOT workload routed by CTR and by the lookahead router
/// on every IBM device, under both objectives: (device, CTR SWAPs, CTR
/// cost, lookahead SWAPs, lookahead cost). The figures are the same under
/// both objectives.
const ROUTING_GOLDEN: [(&str, usize, f64, usize, f64); 5] = [
    ("ibmqx2", 16, 205.0, 10, 154.5),
    ("ibmqx3", 1248, 10496.0, 340, 3531.0),
    ("ibmqx4", 16, 189.0, 10, 166.5),
    ("ibmqx5", 1120, 9516.0, 262, 2822.5),
    ("ibmq_16", 756, 6470.5, 250, 2589.0),
];

#[test]
fn lookahead_beats_ctr_on_swaps_and_eqn2_cost_on_every_ibm_device() {
    let cost = TransmonCost::default();
    let ibm = devices::ibm_devices();
    assert_eq!(ibm.len(), ROUTING_GOLDEN.len());
    for (d, &(name, ctr_swaps, ctr_cost, look_swaps, look_cost)) in ibm.iter().zip(&ROUTING_GOLDEN)
    {
        assert_eq!(d.name(), name);
        let workload = all_pairs_cnots(d);
        // Every distinct routed output is QMDD-checked against the
        // workload (the objectives often agree, so each is checked once).
        let mut verified: Vec<Circuit> = Vec::new();
        for objective in [
            RoutingObjective::FewestSwaps,
            RoutingObjective::HighestFidelity,
        ] {
            let what = format!("{name} {objective:?}");
            let ctr = route(&CtrStrategy, &workload, d, objective);
            let look = route(&LookaheadStrategy, &workload, d, objective);
            for out in [&ctr.circuit, &look.circuit] {
                if !verified.contains(out) {
                    assert!(
                        equivalent_miter(&workload, out).equivalent,
                        "routed output failed QMDD verification ({what})"
                    );
                    verified.push(out.clone());
                }
            }
            let (ctr_c, look_c) = (
                cost.circuit_cost(&ctr.circuit),
                cost.circuit_cost(&look.circuit),
            );
            assert_eq!(ctr.total_swaps(), ctr_swaps, "CTR SWAPs on {what}");
            assert!(
                (ctr_c - ctr_cost).abs() < 1e-9,
                "CTR cost on {what}: {ctr_c}"
            );
            assert_eq!(look.total_swaps(), look_swaps, "lookahead SWAPs on {what}");
            assert!(
                (look_c - look_cost).abs() < 1e-9,
                "lookahead cost on {what}: {look_c}"
            );
            assert!(
                look.total_swaps() < ctr.total_swaps() && look_c < ctr_c,
                "lookahead must win on {what}"
            );
        }
    }
}

/// A strided CNOT workload touching a spread of sources and distances
/// without enumerating all n² pairs.
fn strided_cnots(d: &Device, count: usize) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    for i in 0..count {
        let a = (i * 37 + 11) % n;
        let b = (a + 1 + (i * 13) % 96) % n;
        if a != b {
            c.push(Gate::cx(a, b));
        }
    }
    c
}

/// A floor under what a dense all-pairs table costs at `n` qubits: 20
/// bytes per ordered pair. The table's two distance matrices alone take
/// 12 (u32 hop count, f64 -log fidelity) and its stored routes far more,
/// so this stays a lower bound on [`RoutingTable::approx_bytes`].
fn dense_projected_bytes(n: usize) -> usize {
    n * n * 20
}

#[test]
fn sparse_oracle_memory_stays_far_below_the_dense_table() {
    let objective = RoutingObjective::FewestSwaps;
    let golden = [
        (devices::lnn(128), 121_736),
        (devices::grid_calibrated(16, 16), 39_832),
        (devices::grid_calibrated(32, 32), 72_472),
        (devices::grid_calibrated(64, 64), 190_520),
    ];
    for (d, expected) in golden {
        let n = d.n_qubits();
        let workload = strided_cnots(&d, 200);
        let oracle = Arc::new(DistanceOracle::build(&d, objective));
        let sparse = CtrStrategy
            .route(
                &RouteRequest::new(&workload, &d)
                    .with_objective(objective)
                    .with_oracle(oracle.clone()),
            )
            .expect("generated families are connected");
        let bytes = oracle.approx_bytes();
        assert_eq!(
            bytes,
            expected,
            "oracle bytes after routing on {}",
            d.name()
        );
        match n {
            128 => {
                // The projection is a floor under the real dense table,
                // which also routes byte-identically to the oracle.
                let table = Arc::new(RoutingTable::build(&d, objective));
                assert!(table.approx_bytes() >= dense_projected_bytes(n));
                let dense = CtrStrategy
                    .route(
                        &RouteRequest::new(&workload, &d)
                            .with_objective(objective)
                            .with_table(table),
                    )
                    .expect("generated families are connected");
                assert_eq!(sparse.circuit.gates(), dense.circuit.gates());
            }
            1024 => assert!(bytes * 8 < dense_projected_bytes(n), "{bytes} bytes"),
            4096 => assert!(bytes * 100 < dense_projected_bytes(n), "{bytes} bytes"),
            _ => {}
        }
    }
}

#[test]
fn support_restricted_window_verification_does_a_fraction_of_the_full_register_work() {
    // The first 16 windows of the 1024-qubit grid stream, each compiled
    // as a one-window batch and checked twice: on the full register and
    // by the compiler's one check on the window's support (the path
    // streaming compiles take).
    const WINDOW: usize = 64;
    const WINDOWS: usize = 16;
    let budget = EquivBudget {
        gc_threshold: Some(1 << 17),
        node_budget: Some(1 << 18),
    };
    let compiler =
        Compiler::new(devices::grid_calibrated(32, 32)).with_verification(Verification::None);
    let n = compiler.device().n_qubits();
    let stream: Vec<Gate> = grid_stream(n, 32, WINDOW * WINDOWS).collect();
    let (mut full_lookups, mut restricted_lookups) = (0u64, 0u64);
    let (mut full_peak, mut restricted_peak) = (0usize, 0usize);
    for window in stream.chunks(WINDOW) {
        let r = compiler
            .compile(&Circuit::from_gates(n, window.to_vec()))
            .expect("grid windows compile");
        let full = try_equivalent_miter(&r.placed, &r.optimized, budget)
            .expect("full-register check fits the node budget");
        let restricted = on_support(&r.placed, &r.optimized, EquivMethod::Miter, budget)
            .expect("restricted check fits the node budget");
        assert!(full.equivalent && restricted.equivalent);
        full_lookups += full.cache_lookups;
        restricted_lookups += restricted.cache_lookups;
        full_peak = full_peak.max(full.peak_nodes);
        restricted_peak = restricted_peak.max(restricted.peak_nodes);
    }
    eprintln!(
        "cache lookups: full {full_lookups}, restricted {restricted_lookups}; \
         peak nodes: full {full_peak}, restricted {restricted_peak}"
    );
    assert!(
        full_lookups >= 8 * restricted_lookups,
        "restricted verification must do at most 1/8 of the full-register \
         compute-table lookups ({restricted_lookups} vs {full_lookups})"
    );
}

/// The compiler's one check: `method` on the pair's support.
fn on_support(
    spec: &Circuit,
    out: &Circuit,
    method: EquivMethod,
    budget: EquivBudget,
) -> Result<EquivReport, qsyn::qmdd::EquivBudgetError> {
    try_equivalent_on(&miter_support(spec, out), spec, out, method, budget)
}

#[test]
fn batch_miter_on_the_support_cuts_qc96_lookups() {
    // The smallest Table 7/8 cascade on the 96-qubit machine, checked as
    // batch compiles did before (full register, one gate per product) and
    // by the compiler's one check (its support, block from the length
    // rule). Measured: 1,351,725 -> 442,504 lookups (3.05x).
    let compiler = Compiler::new(devices::qc96()).with_verification(Verification::None);
    let r = compiler
        .compile(&BIG_BENCHMARKS[0].circuit())
        .expect("T6_b maps to qc96");
    let budget = EquivBudget::default();
    let full = try_equivalent_miter(&r.placed, &r.optimized, budget).unwrap();
    let restricted = on_support(&r.placed, &r.optimized, EquivMethod::Miter, budget).unwrap();
    assert!(full.equivalent && restricted.equivalent);
    eprintln!(
        "T6_b on qc96: full-register miter {} lookups, one check {} lookups (block {})",
        full.cache_lookups, restricted.cache_lookups, restricted.miter_block
    );
    assert!(
        full.cache_lookups * 2 >= restricted.cache_lookups * 5,
        "the one check must do at most 1/2.5 of the full-register miter's \
         compute-table lookups ({} vs {})",
        restricted.cache_lookups,
        full.cache_lookups
    );
}

#[test]
fn canonical_on_the_support_cuts_table5_lookups_on_ibmq_16() {
    // Every Table 5 cascade that maps to ibmq_16, checked by the paper's
    // canonical method on the full 16-line register and on the pair's
    // support: summed over the pairs, the support does fewer lookups.
    let compiler = Compiler::new(devices::ibmq_16()).with_verification(Verification::None);
    let budget = EquivBudget::default();
    let (mut full_lookups, mut restricted_lookups, mut pairs) = (0u64, 0u64, 0);
    for bench in REVLIB_BENCHMARKS {
        let Ok(r) = compiler.compile(&bench.circuit()) else {
            continue; // an N/A cell of the paper's table
        };
        let full = try_equivalent(&r.placed, &r.optimized, budget).unwrap();
        let restricted =
            on_support(&r.placed, &r.optimized, EquivMethod::Canonical, budget).unwrap();
        assert!(full.equivalent && restricted.equivalent, "{}", bench.name);
        full_lookups += full.cache_lookups;
        restricted_lookups += restricted.cache_lookups;
        pairs += 1;
    }
    eprintln!(
        "Table 5 on ibmq_16 ({pairs} pairs): canonical full {full_lookups}, \
         on the support {restricted_lookups} lookups"
    );
    assert!(pairs >= 3, "only {pairs} Table 5 pairs map to ibmq_16");
    assert!(
        restricted_lookups < full_lookups,
        "canonical on the support must do fewer lookups ({restricted_lookups} vs {full_lookups})"
    );
}
