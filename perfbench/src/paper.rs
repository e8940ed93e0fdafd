//! The batch-compile workloads: `paper-suite` (the mappable pairs of
//! paper Tables 3 and 5 on the five IBM devices) and `qc96` (the Table
//! 7/8 cascades on the 96-qubit Fig. 7 machine). An op is one compile:
//! front-end, `Compiler::compile` with its defaults, then QASM emission.

use crate::common::{
    digest, median, peak_rss_mb, quantile, run_passes, secs, sys_cpu_s, text_hash, timed_setup,
    Report, Rng,
};
use crate::metrics::Layers;
use crate::mirror::{compile_traced, Input};
use crate::Config;
use qsyn_arch::{devices, CostModel, Device, TransmonCost};
use qsyn_bench::big::BIG_BENCHMARKS;
use qsyn_bench::revlib::REVLIB_BENCHMARKS;
use qsyn_bench::stg::STG_FUNCTIONS;
use qsyn_circuit::{parse_qasm, to_qasm, Circuit};
use qsyn_core::{
    cache, routing_lookup, CompileError, CompileResult, Compiler, DistanceOracle, RoutingLookup,
    RoutingObjective, RoutingTable, SPARSE_ORACLE_MIN_QUBITS,
};
use qsyn_gate::{equal_up_to_phase, Gate};
use qsyn_trace::{Pass, Verdict};
use std::time::Instant;

/// Outputs on devices up to this width are cross-checked against the
/// dense-matrix semantics of `qsyn-gate`, independently of the QMDD.
pub const DENSE_CHECK_MAX_QUBITS: usize = 5;

/// One op: an input and the index of its target device.
#[derive(Debug, Clone)]
pub struct Op {
    /// The technology-independent input.
    pub input: Input,
    /// Index into [`Suite::devices`].
    pub device: usize,
}

/// A workload's devices and ops, in canonical order.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Target devices.
    pub devices: Vec<Device>,
    /// The ops; the digest follows this order whatever order a run uses.
    pub ops: Vec<Op>,
}

/// Whether the compiler can map `circuit` to `device` at all. The paper
/// reports the other pairs as N/A: the circuit is wider than the device
/// (`TooWide`), or a Toffoli with three or more controls has no line
/// outside its support to borrow (`NoAncilla`). Leaving them out of the
/// op list means any failed op is a real failure.
pub fn mappable(circuit: &Circuit, device: &Device) -> bool {
    let n = device.n_qubits();
    circuit.n_qubits() <= n
        && circuit.gates().iter().all(|g| match g {
            Gate::Mct { controls, .. } if controls.len() > 2 => controls.len() + 2 <= n,
            _ => true,
        })
}

/// The paper-suite ops: every mappable (function, device) pair of Tables
/// 3 and 5. Runs every front-end once to learn the circuit shapes.
pub fn paper_suite() -> Suite {
    let devices = devices::ibm_devices();
    let inputs = STG_FUNCTIONS
        .iter()
        .map(|f| Input::Truth(*f))
        .chain(REVLIB_BENCHMARKS.iter().map(|b| Input::Real(*b)));
    let mut ops = Vec::new();
    for input in inputs {
        let circuit = input.front_end();
        for (d, device) in devices.iter().enumerate() {
            if mappable(&circuit, device) {
                ops.push(Op {
                    input: input.clone(),
                    device: d,
                });
            }
        }
    }
    Suite { devices, ops }
}

/// The qc96 ops: the five Table 7/8 cascades on the Fig. 7 machine.
pub fn qc96_suite() -> Suite {
    let ops = BIG_BENCHMARKS
        .iter()
        .map(|b| Op {
            input: Input::Built(b.circuit()),
            device: 0,
        })
        .collect();
    Suite {
        devices: vec![devices::qc96()],
        ops,
    }
}

/// Builds a suite and the shared routing state of its devices. Only the
/// last of the timed repetitions fills the process-wide registry the
/// compiles read; the others build the same tables and drop them.
fn set_up(build: fn() -> Suite, keep: bool) -> Suite {
    let suite = build();
    for d in &suite.devices {
        let objective = RoutingObjective::FewestSwaps;
        if keep {
            routing_lookup(d, objective);
        } else if d.n_qubits() >= SPARSE_ORACLE_MIN_QUBITS {
            std::hint::black_box(DistanceOracle::build(d, objective));
        } else {
            std::hint::black_box(RoutingTable::build(d, objective));
        }
    }
    suite
}

/// One untraced op: front-end, compile, emit.
fn run_op(
    compiler: &Compiler,
    input: &Input,
) -> Result<(Circuit, CompileResult, String), CompileError> {
    let circuit = input.front_end();
    let result = compiler.compile(&circuit)?;
    let qasm = to_qasm(&result.optimized).expect("compiled circuits have a QASM form");
    Ok((circuit, result, qasm))
}

/// Output checks on a first-pass result: the QASM parses back to the
/// compiled gates, and on small devices the output matches the input
/// under the dense-matrix semantics.
fn check_output(
    report: &mut Report,
    label: &str,
    device: &Device,
    input: &Circuit,
    result: &CompileResult,
    qasm: &str,
) {
    let reparsed = parse_qasm(qasm).map(|c| c.gates() == result.optimized.gates());
    report.check(reparsed == Ok(true), || {
        format!("{label}: emitted QASM does not parse back to the compiled circuit")
    });
    let n = device.n_qubits();
    if n <= DENSE_CHECK_MAX_QUBITS {
        let spec = input.relabeled(n, |q| q);
        report.check(
            equal_up_to_phase(&spec.to_matrix(), &result.optimized.to_matrix()),
            || format!("{label}: output differs from its input under dense-matrix semantics"),
        );
    }
}

fn label(op: &Op, suite: &Suite) -> String {
    let name = match &op.input {
        Input::Truth(f) => format!("#{}", f.id),
        Input::Real(b) => b.name.to_string(),
        Input::Built(c) => c.name().unwrap_or("circuit").to_string(),
    };
    format!("{name}@{}", suite.devices[op.device].name())
}

/// Runs a batch workload.
pub fn run(build: fn() -> Suite, cfg: &Config) -> Report {
    let mut report = Report::default();
    let (suite, setup_s) = timed_setup(|last| set_up(build, last));
    let compilers: Vec<Compiler> = suite
        .devices
        .iter()
        .map(|d| Compiler::new(d.clone()))
        .collect();
    let mut order: Vec<usize> = (0..suite.ops.len()).collect();
    Rng::new(cfg.seed).shuffle(&mut order);
    report.header("ops_per_pass", suite.ops.len());
    if cfg.trace {
        run_traced(&suite, &compilers, &order, &mut report);
        return report;
    }

    let cost = TransmonCost::default();
    let mut texts = vec![String::new(); suite.ops.len()];
    let mut hashes = vec![0u128; suite.ops.len()];
    let mut latencies_ms = Vec::new();
    let (mut busy_s, mut verified, mut cost_sum) = (0.0, 0u64, 0.0);
    let passes = run_passes(cfg.seconds, |pass| {
        for &i in &order {
            let op = &suite.ops[i];
            let started = Instant::now();
            let out = run_op(&compilers[op.device], &op.input);
            let dt = secs(started);
            busy_s += dt;
            latencies_ms.push(dt * 1e3);
            report.attempted += 1;
            let (input, result, qasm) = match out {
                Ok(out) => out,
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(format!("{}: {e}", label(op, &suite)));
                    continue;
                }
            };
            let is_verified = matches!(result.verdict(), Verdict::Verified { .. });
            verified += u64::from(is_verified);
            report.check(is_verified, || {
                format!("{}: verdict {:?}", label(op, &suite), result.verdict())
            });
            if pass == 0 {
                let device = &suite.devices[op.device];
                check_output(
                    &mut report,
                    &label(op, &suite),
                    device,
                    &input,
                    &result,
                    &qasm,
                );
                cost_sum += cost.circuit_cost(&result.optimized);
                hashes[i] = text_hash(&qasm);
                texts[i] = qasm;
            } else {
                report.check(text_hash(&qasm) == hashes[i], || {
                    format!("{}: pass {pass} emitted different QASM", label(op, &suite))
                });
            }
        }
    });
    report.header("passes", passes);
    report.digest = digest(texts.iter().map(String::as_str));
    report.metric("setup_s", setup_s);
    report.metric("ops_per_s", report.attempted as f64 / busy_s);
    report.metric("latency_p50_ms", median(&latencies_ms));
    report.metric("latency_p90_ms", quantile(&latencies_ms, 0.9));
    report.metric("peak_rss_mb", peak_rss_mb(None));
    report.metric("output_cost_eqn2", cost_sum);
    report.metric(
        "verified_fraction",
        verified as f64 / report.attempted as f64,
    );
    report
}

/// The traced run: one untraced pass through `Compiler::compile`, then
/// one pass through the mirrored pipeline, which must emit the same QASM
/// and verdicts op for op.
fn run_traced(suite: &Suite, compilers: &[Compiler], order: &[usize], report: &mut Report) {
    let mut layers = Layers::default();
    let lookups: Vec<RoutingLookup> = suite
        .devices
        .iter()
        .map(|d| routing_lookup(d, RoutingObjective::FewestSwaps).0)
        .collect();
    let mut reference: Vec<Option<(String, Verdict)>> = vec![None; suite.ops.len()];
    let mut untraced_s = 0.0;
    for &i in order {
        let op = &suite.ops[i];
        let started = Instant::now();
        let out = run_op(&compilers[op.device], &op.input);
        untraced_s += secs(started);
        report.attempted += 1;
        match out {
            Ok((_, result, qasm)) => {
                for e in &result.metrics().events {
                    let slot = match e.pass {
                        Pass::Place => &mut layers.program_place_s,
                        Pass::Decompose => &mut layers.program_decompose_s,
                        Pass::Route => &mut layers.program_route_s,
                        Pass::Optimize => &mut layers.program_optimize_s,
                        Pass::Verify => &mut layers.program_verify_s,
                    };
                    *slot += e.seconds;
                }
                report.check(matches!(result.verdict(), Verdict::Verified { .. }), || {
                    format!("{}: verdict {:?}", label(op, suite), result.verdict())
                });
                reference[i] = Some((qasm, result.verdict().clone()));
            }
            Err(e) => {
                report.failed += 1;
                report.problems.push(format!("{}: {e}", label(op, suite)));
            }
        }
    }
    let mut texts = vec![String::new(); suite.ops.len()];
    let mut traced_s = 0.0;
    for &i in order {
        let op = &suite.ops[i];
        let started = Instant::now();
        let out = compile_traced(
            &op.input,
            &suite.devices[op.device],
            &lookups[op.device],
            &mut layers,
        );
        traced_s += secs(started);
        report.attempted += 1;
        match out {
            Ok(traced) => {
                let same = reference[i].as_ref().is_some_and(|(qasm, verdict)| {
                    *qasm == traced.qasm && *verdict == traced.verdict
                });
                report.check(same, || {
                    format!(
                        "{}: traced pipeline differs from Compiler::compile",
                        label(op, suite)
                    )
                });
                texts[i] = traced.qasm;
            }
            Err(e) => {
                report.failed += 1;
                report
                    .problems
                    .push(format!("{} (traced): {e}", label(op, suite)));
            }
        }
    }
    let stats = cache::stats();
    layers.table_builds = stats.routing_tables_built + stats.routing_oracles_built;
    layers.traced_total_s = traced_s;
    layers.trace_overhead_s = traced_s - untraced_s;
    report.digest = digest(texts.iter().map(String::as_str));
    layers.process_sys_s = sys_cpu_s(None);
    layers.report(report);
}
