//! Live metrics come from every pass event, traced or not: an untraced
//! streaming compile still feeds the `pass.route_us` histogram with its
//! one aggregate route event.
//!
//! The metrics registry is process-wide, so this check lives alone in its
//! own test binary: no other test can record a route sample between the
//! two snapshots.

use qsyn_arch::devices;
use qsyn_core::Compiler;
use qsyn_gate::Gate;
use qsyn_trace::metrics::global;

fn route_samples() -> u64 {
    global()
        .snapshot()
        .histogram("pass.route_us")
        .map_or(0, |h| h.count)
}

#[test]
fn untraced_stream_records_one_route_sample() {
    let gates = [Gate::toffoli(0, 1, 2), Gate::cx(0, 4), Gate::cx(4, 0)];
    let before = route_samples();
    let summary = Compiler::new(devices::ibmqx4())
        .compile_stream(5, 2, gates, |_| {})
        .unwrap();
    assert_eq!(summary.windows, 2);
    assert_eq!(route_samples() - before, 1);
}
