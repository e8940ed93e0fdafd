//! Pass-level observability for the `qsyn` compiler.
//!
//! The compiler's back end (paper Fig. 2) runs a fixed pipeline —
//! placement, Barenco/Clifford+T decomposition, coupling-map routing,
//! local optimization, QMDD verification. This crate gives each pass a
//! structured footprint instead of an opaque report string:
//!
//! * [`Span`] collects a pass's backend counters (SWAPs inserted,
//!   optimizer rounds, QMDD unique-table size, compute-cache hit rate)
//!   and finishes with the seconds the caller measured for the pass;
//! * [`PassEvent`] is the finished record: input/output [`StageSnapshot`]s
//!   plus the cost movement under the compiler's Eqn. 2 cost model;
//! * [`metrics`] holds the process-wide live registry, the one mapping
//!   from pass events to metrics ([`metrics::MetricsRegistry::record_pass`])
//!   and the [`metric_handles!`] macro that declares cached handles;
//! * [`CompileMetrics`] aggregates one compilation's events and renders
//!   the stage table that the CLI's `--report` flag shows;
//! * [`TraceSink`] is the streaming destination — [`NullSink`] discards
//!   (the zero-cost default), [`TableSink`] accumulates for the table
//!   view, [`JsonlSink`] writes machine-readable JSON lines for the
//!   bench harness and CI.
//!
//! The crate is dependency-light by design (only the circuit IR): the
//! [`json`] module carries its own small emitter/parser so traces work in
//! offline build environments.
//!
//! # Examples
//!
//! ```
//! use qsyn_trace::{Pass, Span, StageSnapshot, TableSink, TraceSink};
//!
//! let sink = TableSink::new();
//! let mut span = Span::new(Pass::Route);
//! // ... run and time the pass ...
//! span.counter("swaps_inserted", 2.0);
//! let event = span.finish(0.004, StageSnapshot::default(), StageSnapshot::default(), 4.0, 5.5);
//! sink.record(&event);
//! assert!(sink.render().contains("| route |"));
//! ```

#![warn(missing_docs)]

mod event;
pub mod json;
pub mod metrics;
mod sink;
pub mod streaming;

pub use event::{
    route_strategy_name, route_strategy_tag, CompileMetrics, Pass, PassEvent, Span, StageSnapshot,
    Verdict, ROUTE_STRATEGY_NAMES,
};
pub use sink::{JsonlSink, NullSink, TableSink, TraceSink};
