//! The `grid-stream` workload: `Compiler::compile_stream` on the
//! 1024-qubit grid, windowed verification pinned to one job. An op is one
//! input gate.

use crate::common::{
    digest, median, peak_rss_mb, quantile, run_passes, secs, sys_cpu_s, text_hash, timed_setup,
    Report, Rng,
};
use crate::metrics::Layers;
use crate::mirror::stream_traced;
use crate::Config;
use qsyn_arch::{devices, CostModel, Device, TransmonCost};
use qsyn_circuit::{parse_qasm, qasm_header, write_gate_qasm};
use qsyn_core::{
    cache, routing_lookup, CompileBudget, CompileError, Compiler, DistanceOracle, RoutingObjective,
    StreamSummary,
};
use qsyn_gate::{Gate, SingleOp};
use qsyn_trace::{Pass, TableSink, Verdict};
use std::sync::Arc;
use std::time::Instant;

/// Grid rows and columns (the device is `grid:32x32`).
pub const GRID_SIDE: usize = 32;
/// Input gates per window.
pub const WINDOW: usize = 64;
/// QMDD node budget of each window's miter.
pub const NODE_BUDGET: usize = 1 << 18;
/// Stream verify jobs. Parallel verification cannot be scored on a
/// two-CPU host, so the benchmark pins one and records it.
pub const VERIFY_JOBS: usize = 1;
/// Input gates per pass.
pub const PASS_GATES: usize = 8192;
/// Each window draws its gates from a block of this many rows and
/// columns, so a window's miter support stays within 96 of the 1024
/// qubits.
const BLOCK: (usize, usize) = (8, 12);

/// The target device.
pub fn device() -> Device {
    devices::device_by_name(&format!("grid:{GRID_SIDE}x{GRID_SIDE}")).expect("grid family")
}

/// The seeded input stream: `n_gates` native gates in windows of
/// [`WINDOW`], each on a random block of the grid. Even windows mix H,
/// nearest-neighbour CX and T; odd windows hold only CNOT and phase gates
/// (CX, T, S, Z), the shape a structural CNOT+phase verifier could take
/// a fast path on while the H windows bypass it.
pub fn generate(seed: u64, n_gates: usize) -> Vec<Gate> {
    let mut rng = Rng::new(seed);
    let side = GRID_SIDE;
    let (bh, bw) = BLOCK;
    let mut gates = Vec::with_capacity(n_gates);
    for w in 0..n_gates.div_ceil(WINDOW) {
        let (r0, c0) = (rng.below(side - bh + 1), rng.below(side - bw + 1));
        let phase_only = w % 2 == 1;
        for _ in 0..WINDOW.min(n_gates - gates.len()) {
            let (r, c) = (r0 + rng.below(bh), c0 + rng.below(bw));
            let q = r * side + c;
            let g = match (phase_only, rng.below(if phase_only { 4 } else { 3 })) {
                (_, 0) => {
                    // A grid neighbour inside the block.
                    let (nr, nc) = match rng.below(4) {
                        0 if c + 1 < c0 + bw => (r, c + 1),
                        1 if c > c0 => (r, c - 1),
                        2 if r + 1 < r0 + bh => (r + 1, c),
                        _ if r > r0 => (r - 1, c),
                        _ => (r + 1, c),
                    };
                    Gate::cx(q, nr * side + nc)
                }
                (false, 1) => Gate::h(q),
                (_, 1) | (false, _) => Gate::t(q),
                (true, 2) => Gate::single(SingleOp::S, q),
                (true, _) => Gate::single(SingleOp::Z, q),
            };
            gates.push(g);
        }
    }
    gates
}

/// The compiler the workload measures.
pub fn compiler(device: Device) -> Compiler {
    Compiler::new(device)
        .with_budget(CompileBudget {
            qmdd_node_budget: Some(NODE_BUDGET),
            ..CompileBudget::default()
        })
        .with_stream_verify_jobs(VERIFY_JOBS)
}

/// One untraced streaming compile of `gates`.
pub struct StreamPass {
    /// The compiler's summary.
    pub summary: StreamSummary,
    /// The emitted QASM.
    pub qasm: String,
    /// Gates handed to the emit callback.
    pub emitted: usize,
    /// Wall seconds of the `compile_stream` call.
    pub seconds: f64,
    /// Milliseconds between the generator handing out the first gates of
    /// consecutive windows (the last window runs to the stream's end).
    pub window_ms: Vec<f64>,
}

/// Streams `gates` through `compiler`, emitting QASM text.
///
/// # Errors
///
/// The compiler's error, if the stream fails.
pub fn stream_pass(compiler: &Compiler, gates: &[Gate]) -> Result<StreamPass, CompileError> {
    let n = compiler.device().n_qubits();
    let mut qasm = qasm_header(n, None);
    let mut emitted = 0;
    let mut starts = Vec::with_capacity(gates.len().div_ceil(WINDOW));
    let started = Instant::now();
    let input = gates.iter().enumerate().map(|(i, g)| {
        if i % WINDOW == 0 {
            starts.push(Instant::now());
        }
        g.clone()
    });
    let summary = compiler.compile_stream(n, WINDOW, input, |g| {
        emitted += 1;
        write_gate_qasm(&mut qasm, g).expect("native gates have a QASM form");
    })?;
    let ended = Instant::now();
    let seconds = secs(started);
    let window_ms = starts
        .iter()
        .zip(starts.iter().skip(1).chain(std::iter::once(&ended)))
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    Ok(StreamPass {
        summary,
        qasm,
        emitted,
        seconds,
        window_ms,
    })
}

/// Checks every pass must pass: all output gates emitted and every
/// window verified.
fn check_pass(report: &mut Report, pass: usize, p: &StreamPass, n_gates: usize) {
    let s = &p.summary;
    report.check(p.emitted == s.gates_out, || {
        format!(
            "pass {pass}: emitted {} gates, summary says {}",
            p.emitted, s.gates_out
        )
    });
    report.check(
        s.gates_in == n_gates && s.windows == n_gates.div_ceil(WINDOW),
        || {
            format!(
                "pass {pass}: consumed {} gates in {} windows",
                s.gates_in, s.windows
            )
        },
    );
    report.check(
        s.verified_windows == s.windows
            && s.unverified_windows == 0
            && matches!(s.verdict, Verdict::Verified { .. }),
        || {
            format!(
                "pass {pass}: {} of {} windows verified ({:?})",
                s.verified_windows, s.windows, s.verdict
            )
        },
    );
}

/// Runs the grid-stream workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let ((device, gates), setup_s) = timed_setup(|last| {
        let device = device();
        let gates = generate(cfg.seed, PASS_GATES);
        if last {
            routing_lookup(&device, RoutingObjective::FewestSwaps);
        } else {
            std::hint::black_box(DistanceOracle::build(
                &device,
                RoutingObjective::FewestSwaps,
            ));
        }
        (device, gates)
    });
    report.header("stream_window", WINDOW);
    report.header("stream_node_budget", NODE_BUDGET);
    report.header("stream_gates_per_pass", PASS_GATES);
    if cfg.trace {
        run_traced(&device, &gates, &mut report);
        return report;
    }

    let compiler = compiler(device);
    let cost = TransmonCost::default();
    let (mut reference, mut busy_s, mut cost_sum) = (0u128, 0.0, 0.0);
    let (mut windows, mut verified_windows, mut jobs) = (0usize, 0usize, 0usize);
    let mut window_ms = Vec::new();
    let mut text = String::new();
    let passes = run_passes(cfg.seconds, |pass| {
        let p = match stream_pass(&compiler, &gates) {
            Ok(p) => p,
            Err(e) => {
                report.attempted += gates.len() as u64;
                report.failed += gates.len() as u64;
                report.problems.push(format!("pass {pass}: {e}"));
                return;
            }
        };
        busy_s += p.seconds;
        report.attempted += p.summary.gates_in as u64;
        windows += p.summary.windows;
        verified_windows += p.summary.verified_windows;
        jobs = p.summary.verify_jobs;
        window_ms.extend_from_slice(&p.window_ms);
        check_pass(&mut report, pass, &p, gates.len());
        if pass == 0 {
            match parse_qasm(&p.qasm) {
                Ok(c) => {
                    report.check(c.len() == p.summary.gates_out, || {
                        "emitted QASM gate count differs from the summary".to_string()
                    });
                    cost_sum = cost.circuit_cost(&c);
                }
                Err(e) => report
                    .problems
                    .push(format!("emitted QASM does not parse: {e}")),
            }
            reference = text_hash(&p.qasm);
            text = p.qasm;
        } else {
            report.check(text_hash(&p.qasm) == reference, || {
                format!("pass {pass} emitted different QASM")
            });
        }
    });
    report.header("passes", passes);
    report.header("stream_verify_jobs", jobs);
    report.digest = digest([text.as_str()]);
    report.metric("setup_s", setup_s);
    report.metric("ops_per_s", report.attempted as f64 / busy_s);
    report.metric("latency_p50_ms", median(&window_ms));
    report.metric("latency_p90_ms", quantile(&window_ms, 0.9));
    report.metric("peak_rss_mb", peak_rss_mb(None));
    report.metric("output_cost_eqn2", cost_sum);
    report.metric(
        "verified_fraction",
        verified_windows as f64 / windows as f64,
    );
    report
}

/// The traced run: one pass through `compile_stream` (with a sink that
/// keeps the program's own aggregate event), then one pass through the
/// mirrored window pipeline, which must emit the same QASM and verdicts.
fn run_traced(device: &Device, gates: &[Gate], report: &mut Report) {
    let mut layers = Layers::default();
    let sink = Arc::new(TableSink::new());
    let compiler = compiler(device.clone()).with_trace(sink.clone());
    let p = match stream_pass(&compiler, gates) {
        Ok(p) => p,
        Err(e) => {
            report.attempted += gates.len() as u64;
            report.failed += gates.len() as u64;
            report.problems.push(format!("untraced stream: {e}"));
            return;
        }
    };
    check_pass(report, 0, &p, gates.len());
    report.attempted += p.summary.gates_in as u64;
    report.header("stream_verify_jobs", p.summary.verify_jobs);
    for e in sink.events() {
        if e.pass == Pass::Route {
            layers.program_route_s += e.seconds;
            layers.program_verify_s += e
                .counter(qsyn_trace::streaming::VERIFY_SECONDS_TOTAL)
                .unwrap_or(0.0);
        }
    }
    layers.stream_window_ms = median(&p.window_ms);

    let lookup = routing_lookup(device, RoutingObjective::FewestSwaps).0;
    let started = Instant::now();
    let traced = stream_traced(
        device,
        &lookup,
        Some(NODE_BUDGET),
        WINDOW,
        gates,
        &mut layers,
    );
    layers.traced_total_s = secs(started);
    layers.trace_overhead_s = layers.traced_total_s - p.seconds;
    report.attempted += gates.len() as u64;
    match traced {
        Ok(t) => {
            report.check(
                t.qasm == p.qasm
                    && t.windows == p.summary.windows
                    && t.verified_windows == p.summary.verified_windows
                    && t.unverified_windows == p.summary.unverified_windows
                    && t.failed_windows == 0
                    && t.gates_out == p.summary.gates_out,
                || "traced window pipeline differs from compile_stream".to_string(),
            );
            report.digest = digest([t.qasm.as_str()]);
        }
        Err(e) => {
            report.failed += gates.len() as u64;
            report.problems.push(format!("traced stream: {e}"));
        }
    }
    let stats = cache::stats();
    layers.table_builds = stats.routing_tables_built + stats.routing_oracles_built;
    layers.process_sys_s = sys_cpu_s(None);
    layers.report(report);
}
