//! Integration tests for the pass-level observability layer: the trace
//! events the compiler emits, their ordering, their cost accounting, the
//! JSONL round trip, and the zero-cost guarantee of [`NullSink`].

use qsyn::prelude::*;
use qsyn::trace::json;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Two Toffolis on non-adjacent lines: exercises placement, Barenco +
/// Clifford+T decomposition, CTR routing, optimization and verification.
fn spec() -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Gate::toffoli(0, 1, 3));
    c.push(Gate::toffoli(1, 2, 0));
    c
}

#[test]
fn events_follow_the_fig2_pipeline_order() {
    let r = Compiler::new(devices::ibmqx5()).compile(&spec()).unwrap();
    let m = r.metrics();
    let order: Vec<Pass> = m.events.iter().map(|e| e.pass).collect();
    assert_eq!(order, Pass::FIG2_ORDER);
    assert_eq!(m.verified, Some(true));
    assert!(m.total_seconds > 0.0);
    // Snapshots chain: each pass starts from its predecessor's output.
    for w in m.events.windows(2) {
        assert_eq!(w[0].output, w[1].input);
    }
}

#[test]
fn cost_deltas_telescope_to_the_reported_decrease() {
    let cost = TransmonCost::default();
    let r = Compiler::new(devices::ibmqx5()).compile(&spec()).unwrap();
    let m = r.metrics();

    // The per-pass deltas telescope: their sum is spec cost minus final
    // cost (routing's delta is negative — it *adds* cost; optimization's
    // is positive).
    let sum: f64 = m.events.iter().map(|e| e.cost_delta()).sum();
    let first = m.events.first().unwrap();
    let last = m.events.last().unwrap();
    assert!((sum - (first.cost_in - last.cost_out)).abs() < 1e-9);

    // The optimize pass accounts for exactly the percent decrease the
    // result reports against the same cost model.
    let opt = m.pass(Pass::Optimize).unwrap();
    let pct = opt.cost_delta() / opt.cost_in * 100.0;
    assert!((pct - r.percent_cost_decrease(&cost)).abs() < 1e-9);
    assert!((m.percent_cost_decrease() - pct).abs() < 1e-9);

    // And the optimize costs are the unoptimized/optimized circuit costs.
    assert!((opt.cost_in - cost.circuit_cost(&r.unoptimized)).abs() < 1e-9);
    assert!((opt.cost_out - cost.circuit_cost(&r.optimized)).abs() < 1e-9);
}

/// A `Write` handle into shared memory, so the test can inspect what a
/// [`JsonlSink`] wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_sink_round_trips_every_event() {
    let buf = SharedBuf::default();
    let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
    let r = Compiler::new(devices::ibmqx5())
        .with_trace(sink)
        .compile(&spec())
        .unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), r.metrics().events.len());
    for (line, original) in lines.iter().zip(&r.metrics().events) {
        let v = json::parse(line).expect("every line is well-formed JSON");
        let parsed = PassEvent::from_json(&v).expect("every line is a pass event");
        assert_eq!(&parsed, original, "JSONL round trip is lossless");
    }

    // The whole metrics bundle round-trips through JSON too.
    let reparsed = CompileMetrics::parse(&r.metrics().to_json().to_string()).unwrap();
    assert_eq!(&reparsed, r.metrics());
}

#[test]
fn null_sink_results_are_bit_identical_to_untraced() {
    let plain = Compiler::new(devices::ibmqx5()).compile(&spec()).unwrap();
    let nulled = Compiler::new(devices::ibmqx5())
        .with_trace(Arc::new(NullSink))
        .compile(&spec())
        .unwrap();
    assert_eq!(
        plain.optimized.to_qasm().unwrap(),
        nulled.optimized.to_qasm().unwrap()
    );
    assert_eq!(
        plain.unoptimized.to_qasm().unwrap(),
        nulled.unoptimized.to_qasm().unwrap()
    );
    assert_eq!(plain.verified, nulled.verified);
    // Same events, counters and snapshots; only wall times may differ.
    let (a, b) = (&plain.metrics().events, &nulled.metrics().events);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pass, y.pass);
        assert_eq!(x.input, y.input);
        assert_eq!(x.output, y.output);
        assert_eq!(x.counters, y.counters);
    }
}

#[test]
fn table_sink_subsumes_the_report_view() {
    let sink = Arc::new(TableSink::new());
    let r = Compiler::new(devices::ibmqx5())
        .with_trace(sink.clone())
        .compile(&spec())
        .unwrap();
    assert_eq!(sink.events(), r.metrics().events);
    let table = sink.render();
    for pass in ["place", "decompose", "route", "optimize", "verify"] {
        assert!(table.contains(pass), "missing {pass} row:\n{table}");
    }
    // The deprecated free-text report and the structured table agree on
    // the headline number.
    let pct = format!("{:.1}%", r.metrics().percent_cost_decrease());
    assert!(r.metrics().render_table().contains(&pct));
}

#[test]
fn route_counters_surface_backend_work() {
    let r = Compiler::new(devices::ibmqx5()).compile(&spec()).unwrap();
    let route = r.metrics().pass(Pass::Route).unwrap();
    let swaps = route.counter("swaps_inserted").unwrap();
    let rerouted = route.counter("gates_rerouted").unwrap();
    assert!(swaps >= 0.0 && rerouted >= 0.0);
    let verify = r.metrics().pass(Pass::Verify).unwrap();
    assert!(verify.counter("unique_nodes").unwrap() > 0.0);
    assert!(verify.counter("cache_lookups").unwrap() > 0.0);
    let rate = verify.counter("cache_hit_rate").unwrap();
    assert!((0.0..=1.0).contains(&rate));
}
