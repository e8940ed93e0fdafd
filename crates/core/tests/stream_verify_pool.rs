//! Pool-parallel window verification with reused QMDD packages: every
//! verify worker keeps one package per thread and resets it between the
//! windows it checks, so a serial run and a two-worker run hand each
//! package a different history of windows. Neither the verdicts, nor the
//! window accounting, nor the checks' QMDD counters, nor the process-wide
//! streaming-verify counters may notice.
//!
//! The metrics registry is process-wide, so this check lives alone in its
//! own test binary: no other test can verify a window between the two
//! snapshots.

use qsyn_arch::devices;
use qsyn_core::{CompileBudget, Compiler, StreamSummary};
use qsyn_gate::Gate;
use qsyn_trace::metrics::global;

/// Node budget of each window's miter: some windows' checks exhaust it,
/// the others fit.
const NODE_BUDGET: usize = 96;

/// A deterministic stream over 12 of the 16 lines: windows alternate
/// between dense H/CX/T blocks, whose miters need many nodes, and sparse
/// CX/T blocks, whose miters need few.
fn stream(windows: usize, window: usize) -> Vec<Gate> {
    let mut gates = Vec::new();
    for w in 0..windows {
        for i in 0..window {
            let k = w * window + i;
            let q = (k * 7 + w) % 12;
            let g = match (w % 2, i % 3) {
                (0, 0) => Gate::h(q),
                (_, 1) => Gate::cx(q, (q + 1 + w % 5) % 12),
                _ => Gate::t(q),
            };
            gates.push(g);
        }
    }
    gates
}

/// The streaming-verify metrics: windows verified, windows that exhausted
/// the node budget, and windows timed.
fn verify_counters() -> [u64; 3] {
    let snap = global().snapshot();
    [
        snap.counter("stream.windows_verified").unwrap_or(0),
        snap.counter("stream.windows_unverified").unwrap_or(0),
        snap.histogram("stream.verify_us").map_or(0, |h| h.count),
    ]
}

#[test]
fn serial_and_pooled_window_checks_agree() {
    const WINDOW: usize = 12;
    let gates = stream(24, WINDOW);
    let run = |jobs: usize| -> (String, StreamSummary, [u64; 3]) {
        let before = verify_counters();
        let mut out = qsyn_circuit::Circuit::new(16);
        let summary = Compiler::new(devices::ibmqx5())
            .with_budget(CompileBudget::default().with_node_budget(NODE_BUDGET))
            .with_stream_verify_jobs(jobs)
            .compile_stream(12, WINDOW, gates.iter().cloned(), |g| out.push(g.clone()))
            .unwrap();
        let after = verify_counters();
        let delta = [0, 1, 2].map(|k| after[k] - before[k]);
        (out.to_qasm().unwrap(), summary, delta)
    };
    let (serial_qasm, serial, serial_counters) = run(1);
    let (pooled_qasm, pooled, pooled_counters) = run(2);
    assert_eq!(serial.verify_jobs, 1);
    assert_eq!(pooled.verify_jobs, 2);
    assert_eq!(pooled_qasm, serial_qasm);
    assert_eq!(pooled.verdict, serial.verdict);
    assert_eq!(pooled.windows, serial.windows);
    assert_eq!(pooled.verified_windows, serial.verified_windows);
    assert_eq!(pooled.unverified_windows, serial.unverified_windows);
    assert_eq!(pooled.max_window_support, serial.max_window_support);
    assert_eq!(pooled_counters, serial_counters);
    // A reused package restores a new one exactly, so each window's
    // check does the same QMDD work whichever worker ran it after
    // whichever windows.
    assert!(serial.verify_lookups > 0, "{serial:?}");
    assert!(serial.verify_peak_nodes > 0, "{serial:?}");
    assert_eq!(pooled.verify_lookups, serial.verify_lookups);
    assert_eq!(pooled.verify_peak_nodes, serial.verify_peak_nodes);
    // The budget splits the windows: some checks exhaust it and latch
    // their package, and the windows checked after them on the same
    // worker must still verify.
    assert!(serial.verified_windows > 0, "{serial:?}");
    assert!(serial.unverified_windows > 0, "{serial:?}");
    assert_eq!(
        serial_counters,
        [
            serial.verified_windows as u64,
            serial.unverified_windows as u64,
            serial.windows as u64
        ]
    );
}
