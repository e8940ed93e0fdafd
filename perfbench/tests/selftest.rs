//! Self-tests of the benchmark: seeded generators, the paper-suite op
//! list, metric names, and the traced pipeline's fidelity to the
//! compiler it mirrors.

use perfbench::common::Rng;
use perfbench::metrics::{Layers, END_TO_END, PER_LAYER};
use perfbench::mirror::{compile_traced, stream_traced, Input};
use perfbench::paper::{mappable, paper_suite, qc96_suite};
use perfbench::serve::Plan;
use perfbench::stream;
use qsyn_arch::devices;
use qsyn_bench::revlib::REVLIB_BENCHMARKS;
use qsyn_bench::stg::STG_FUNCTIONS;
use qsyn_circuit::{qasm_header, to_qasm, write_gate_qasm};
use qsyn_core::{routing_lookup, CompileError, Compiler, RoutingObjective, Verification};
use qsyn_gate::Gate;

#[test]
fn generators_are_seed_deterministic() {
    assert_eq!(stream::generate(5, 1000), stream::generate(5, 1000));
    assert_ne!(stream::generate(5, 1000), stream::generate(6, 1000));
    let plan = |seed| {
        let mut p = Plan::new(seed);
        p.extend_to(300);
        (0..300).map(|i| p.line(i)).collect::<Vec<_>>()
    };
    assert_eq!(plan(9), plan(9));
    assert_ne!(plan(9), plan(10));
    let order = |seed| {
        let mut v: Vec<usize> = (0..113).collect();
        Rng::new(seed).shuffle(&mut v);
        v
    };
    assert_eq!(order(3), order(3));
    assert_ne!(order(3), order(4));
}

#[test]
fn stream_windows_stay_in_a_block_and_alternate_kinds() {
    let gates = stream::generate(11, 4 * stream::WINDOW);
    for (w, window) in gates.chunks(stream::WINDOW).enumerate() {
        let support: std::collections::BTreeSet<usize> =
            window.iter().flat_map(Gate::qubits).collect();
        assert!(
            support.len() <= 96,
            "window {w} touches {} qubits",
            support.len()
        );
        if w % 2 == 1 {
            assert!(
                window.iter().all(|g| !matches!(
                    g,
                    Gate::Single {
                        op: qsyn_gate::SingleOp::H,
                        ..
                    }
                )),
                "odd windows hold only CNOT and phase gates"
            );
        }
    }
}

#[test]
fn paper_suite_excludes_exactly_the_na_pairs() {
    let suite = paper_suite();
    assert_eq!(
        suite.ops.len(),
        113,
        "Tables 3 and 5 have 113 mappable pairs"
    );
    let inputs: Vec<Input> = STG_FUNCTIONS
        .iter()
        .map(|f| Input::Truth(*f))
        .chain(REVLIB_BENCHMARKS.iter().map(|b| Input::Real(*b)))
        .collect();
    let mut na = 0;
    for input in &inputs {
        let circuit = input.front_end();
        for device in &suite.devices {
            let compiled = Compiler::new(device.clone())
                .with_verification(Verification::None)
                .compile(&circuit);
            if mappable(&circuit, device) {
                assert!(
                    compiled.is_ok(),
                    "{:?} on {}",
                    circuit.name(),
                    device.name()
                );
            } else {
                na += 1;
                assert!(
                    matches!(
                        compiled,
                        Err(CompileError::TooWide { .. }) | Err(CompileError::NoAncilla { .. })
                    ),
                    "{:?} on {} is left out but is not N/A",
                    circuit.name(),
                    device.name()
                );
            }
        }
    }
    assert_eq!(na, 32);
    assert_eq!(qc96_suite().ops.len(), 5);
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let json = qsyn_trace::json::parse(&text).expect("BENCHMARK.json parses");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = json
            .get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        for (name, _) in table {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name}"
            );
        }
    }
}

#[test]
fn traced_pipeline_matches_compiler_compile() {
    let cases = [
        (Input::Truth(STG_FUNCTIONS[0]), devices::ibmqx4()),
        (Input::Real(REVLIB_BENCHMARKS[1]), devices::ibmqx5()),
    ];
    for (input, device) in cases {
        let expected = Compiler::new(device.clone())
            .compile(&input.front_end())
            .expect("small inputs compile");
        let lookup = routing_lookup(&device, RoutingObjective::FewestSwaps).0;
        let mut layers = Layers::default();
        let traced = compile_traced(&input, &device, &lookup, &mut layers).expect("traced compile");
        assert_eq!(traced.qasm, to_qasm(&expected.optimized).expect("qasm"));
        assert_eq!(&traced.verdict, expected.verdict());
        assert!(layers.verify_s > 0.0);
    }
}

#[test]
fn traced_stream_matches_compile_stream() {
    let device = devices::device_by_name("grid:6x6").expect("grid family");
    let n = device.n_qubits();
    let gates: Vec<Gate> = (0..200)
        .map(|i| match i % 4 {
            0 => Gate::h((i * 7) % n),
            1 => Gate::cx((i * 5) % n, (i * 5 + 1) % n),
            2 => Gate::t((i * 11) % n),
            _ => Gate::cx((i * 13) % n, (i * 13 + 6) % n),
        })
        .collect();
    let budget = Some(1 << 14);
    let compiler = Compiler::new(device.clone()).with_budget(qsyn_core::CompileBudget {
        qmdd_node_budget: budget,
        ..qsyn_core::CompileBudget::default()
    });
    let mut qasm = qasm_header(n, None);
    let summary = compiler
        .compile_stream(n, 16, gates.iter().cloned(), |g| {
            write_gate_qasm(&mut qasm, g).expect("native")
        })
        .expect("stream compiles");
    let lookup = routing_lookup(&device, RoutingObjective::FewestSwaps).0;
    let mut layers = Layers::default();
    let traced = stream_traced(&device, &lookup, budget, 16, &gates, &mut layers).expect("traced");
    assert_eq!(traced.qasm, qasm);
    assert_eq!(traced.windows, summary.windows);
    assert_eq!(traced.verified_windows, summary.verified_windows);
    assert_eq!(traced.unverified_windows, summary.unverified_windows);
    assert_eq!(traced.gates_out, summary.gates_out);
    assert!(summary.swaps_inserted > 0, "the input needs routing");
}
