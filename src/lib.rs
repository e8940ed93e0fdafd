//! # qsyn — a technology-dependent quantum logic synthesis tool
//!
//! A Rust reproduction of Smith & Thornton, *"A Quantum Computational
//! Compiler and Design Tool for Technology-Specific Targets"* (ISCA 2019):
//! an end-to-end compiler that maps technology-independent quantum circuits
//! (and classical switching functions) onto real, coupling-map-constrained
//! quantum computers, optimizes them against a quantum cost function, and
//! formally verifies every output with Quantum Multiple-valued Decision
//! Diagrams (QMDDs).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`gate`] — complex arithmetic, dense unitaries, the Table 1 gate set;
//! * [`circuit`] — the circuit IR and the QASM / `.qc` / `.real` formats;
//! * [`qmdd`] — the canonical decision-diagram package and equivalence
//!   checking;
//! * [`arch`] — devices, coupling maps, coupling complexity, cost models;
//! * [`esop`] — the classical-function front-end (ESOP to Toffoli
//!   cascades);
//! * [`core`] — the compiler back-end (decomposition, CTR routing, local
//!   optimization, verification);
//! * [`trace`] — pass-level observability: structured per-pass events,
//!   timing, and pluggable sinks (see `docs/OBSERVABILITY.md`);
//! * [`bench`](mod@crate::bench) — benchmark workloads and the experiment harness that
//!   regenerates every table of the paper.
//!
//! # Quickstart
//!
//! ```
//! use qsyn::prelude::*;
//!
//! // Synthesize a majority-vote function from its truth table...
//! let maj = TruthTable::from_fn(3, |x| x.count_ones() >= 2);
//! let cascade = synthesize_single_target(&maj);
//!
//! // ...compile it for a real device...
//! let result = Compiler::new(devices::ibmqx4()).compile(&cascade)?;
//!
//! // ...and get formally verified, executable OpenQASM.
//! assert_eq!(result.verified, Some(true));
//! let qasm = result.optimized.to_qasm().unwrap();
//! assert!(qasm.starts_with("OPENQASM 2.0;"));
//! # Ok::<(), qsyn::core::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod report;
pub mod serve;

pub use qsyn_arch as arch;
pub use qsyn_bench as bench;
pub use qsyn_circuit as circuit;
pub use qsyn_core as core;
pub use qsyn_esop as esop;
pub use qsyn_gate as gate;
pub use qsyn_qmdd as qmdd;
pub use qsyn_trace as trace;

/// The most commonly used items in one import.
pub mod prelude {
    pub use qsyn_arch::{
        devices, CostModel, Device, FidelityCost, RouteHint, TransmonCost, TwoQubitNative,
        VolumeCost,
    };
    pub use qsyn_circuit::{Circuit, CircuitStats};
    pub use qsyn_core::{
        BudgetResource, CacheMode, CacheStatsSnapshot, CompileBudget, CompileError, CompileResult,
        Compiler, CtrStrategy, DecomposeStrategy, LookaheadStrategy, Optimization, OptimizeConfig,
        PersistentStrategy, PlacementStrategy, RouteOutcome, RouteRequest, RouteStrategyKind,
        RoutingObjective, RoutingStrategy, Verification, VerifyMode,
    };
    pub use qsyn_esop::{
        cascade_from_esop, parse_pla, synthesize_multi_output, synthesize_single_target, Cube,
        Esop, Pla, TruthTable,
    };
    pub use qsyn_gate::{Gate, Matrix, SingleOp, C64};
    pub use qsyn_qmdd::{
        miter_support, try_equivalent_on, EquivBudget, EquivMethod, Qmdd, Simulator,
    };
    pub use qsyn_trace::{
        CompileMetrics, JsonlSink, NullSink, Pass, PassEvent, TableSink, TraceSink, Verdict,
    };
}
